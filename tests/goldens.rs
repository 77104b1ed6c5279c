//! Committed goldens of the paper's artefacts. Every deterministic
//! output the repository promises to keep byte-identical is pinned here
//! against files generated once and never regenerated casually:
//! Table I (quick and full), Fig. 4, the WAL byte stream of one
//! journaled Table I row, raw and compacted, and the obs event journal
//! of the Fig. 4 run as JSON lines. The text is built by the
//! same `vmr_bench::paper` calls the `table1` / `fig4` binaries print with
//! (`scripts/check.sh` also diffs the binaries' stdout against the same
//! files).
//!
//! A diff here means simulated behaviour changed. If that is the
//! intent, regenerate with
//! `cargo run --release -p vmr-bench --bin table1 [-- --quick]` /
//! `--bin fig4` and say why in the change description.

use vmr_bench::paper::{fig4_config, fig4_text, table1_text, Table1Opts};
use vmr_bench::{calibrated_sizing, row_config, table1_rows};
use vmr_core::{run_experiment, MrMode};
use vmr_durable::{compact, DurabilityPlan};
use vmr_mapreduce::hashes::{sha256, to_hex};

/// Points at the first differing line instead of dumping two tables.
fn assert_same_text(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: line {} differs from the golden", i + 1);
    }
    panic!(
        "{what}: {} lines, golden has {}",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn table1_quick_matches_golden() {
    let opts = Table1Opts {
        quick: true,
        ..Table1Opts::default()
    };
    let (text, _) = table1_text(&opts).expect("valid config");
    assert_same_text(
        &text,
        include_str!("golden/table1_quick.txt"),
        "table1 --quick",
    );
}

#[test]
fn table1_full_matches_golden() {
    let (text, _) = table1_text(&Table1Opts::default()).expect("valid config");
    assert_same_text(&text, include_str!("golden/table1_full.txt"), "table1");
}

#[test]
fn fig4_matches_golden() {
    let text = fig4_text().expect("valid config");
    assert_same_text(&text, include_str!("golden/fig4.txt"), "fig4");
}

/// The obs event journal of the Fig. 4 run, exported as JSON lines:
/// every span, point and typed event the run recorded, in order.
#[test]
fn fig4_journal_matches_golden() {
    let out = run_experiment(&fig4_config()).expect("valid config");
    assert!(out.all_done);
    assert_eq!(out.obs.journal.dropped(), 0, "the ring kept every event");
    let jsonl = out.obs.journal.to_jsonl();
    assert_eq!(
        (jsonl.len(), to_hex(&sha256(jsonl.as_bytes())).as_str()),
        (JOURNAL_LEN, JOURNAL_SHA256),
        "JSON-lines export of the Fig. 4 journal moved"
    );
}

const JOURNAL_LEN: usize = 51563;
const JOURNAL_SHA256: &str = "eb8e2136f19db07748aaf0e83d5b07ddc497a39608432824caa766cdea50cdc6";

/// The WAL byte stream of the BOINC-MR row journaled the way
/// `table1 --durable` does (300 s snapshots): the row whose reduce
/// inputs travel the peer-fetch path.
#[test]
fn durable_row_wal_matches_golden() {
    let row = table1_rows()
        .into_iter()
        .find(|r| r.mode == MrMode::InterClient)
        .expect("Table I has a BOINC-MR row");
    let mut cfg = row_config(&row, calibrated_sizing());
    cfg.durable = DurabilityPlan::new(300.0);
    let out = run_experiment(&cfg).expect("valid config");
    assert!(out.all_done);
    let wal = out.wal.expect("durable run carries a WAL");
    assert_eq!(
        (wal.len(), to_hex(&sha256(&wal)).as_str()),
        (WAL_LEN, WAL_SHA256),
        "WAL byte stream of the journaled BOINC-MR row moved"
    );
    let compacted = compact(&wal).expect("an intact log compacts");
    assert_eq!(
        (compacted.len(), to_hex(&sha256(&compacted)).as_str()),
        (COMPACTED_LEN, COMPACTED_SHA256),
        "compacted image of the journaled BOINC-MR row moved"
    );
}

const WAL_LEN: usize = 35816;
const WAL_SHA256: &str = "0290f1f38d0c59a256f9129529fc1c2fc99ff3159ce44f6c46c1e9946a9ca54e";
const COMPACTED_LEN: usize = 13387;
const COMPACTED_SHA256: &str = "00c8e6a8a5a9f5343a75195bb002a38952a363b2ac054c3beee74693f9c90557";
