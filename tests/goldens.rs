//! Committed goldens of the paper's artefacts. Every deterministic
//! output the repository promises to keep byte-identical is pinned here
//! against files generated once and never regenerated casually:
//! Table I (quick and full), Fig. 4, the WAL byte stream of one
//! journaled Table I row, raw and compacted, the obs event journal
//! of the Fig. 4 run as JSON lines, the obs metrics registry of the
//! Fig. 4 run and the `table1 --quick` rows, and the calibrated sizing
//! model every row runs on. The text is built by the
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
use vmr_mapreduce::{CorpusGen, CorpusSpec};

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

/// The obs registry of the Fig. 4 run and of each `table1 --quick`
/// row: every key outside the wall-clock `prof.` scopes, each counter's
/// exact value, each histogram's count, mean (its exact sum over that
/// count) and max, and each gauge's value. The key list is part of the
/// pin, so a key added or lost fails here too.
#[test]
fn registry_matches_golden() {
    use std::fmt::Write as _;
    use vmr_obs::MetricValue;

    let sizing = calibrated_sizing();
    let mut runs = vec![("fig4".to_string(), fig4_config())];
    let rows = table1_rows();
    for mode in [MrMode::ServerRelay, MrMode::InterClient] {
        let row = rows.iter().find(|r| r.mode == mode).expect("row per mode");
        runs.push((
            format!(
                "table1 --quick {} nodes {}x{} {}",
                row.nodes, row.n_maps, row.n_reduces, row.mode
            ),
            row_config(row, sizing),
        ));
    }
    let mut text = String::new();
    for (name, cfg) in runs {
        let out = run_experiment(&cfg).expect("valid config");
        assert!(out.all_done);
        let _ = writeln!(text, "# {name}");
        for (key, value) in out.obs.snapshot().entries {
            if key.starts_with("prof.") {
                continue;
            }
            let _ = match value {
                MetricValue::Counter(v) => writeln!(text, "{key} counter {v}"),
                MetricValue::Gauge(v) => writeln!(text, "{key} gauge {v:?}"),
                MetricValue::TimeGauge { current, mean, max } => writeln!(
                    text,
                    "{key} time_gauge current={current:?} mean={mean:?} max={max:?}"
                ),
                MetricValue::Histogram(h) => writeln!(
                    text,
                    "{key} histogram count={} mean={:?} max={:?}",
                    h.count, h.mean, h.max
                ),
            };
        }
    }
    assert_same_text(&text, include_str!("golden/registry.txt"), "obs registry");
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

const WAL_LEN: usize = 35669;
const WAL_SHA256: &str = "7cc9054832bc0f1c564ff7187510b5c824da6830556bdc1ed7e8f67376934120";
const COMPACTED_LEN: usize = 13322;
const COMPACTED_SHA256: &str = "3cb62fd29d05305aa19f57382807cc0216aef03a4bb08450386cc9f4ba8bad19";

/// The sizing model every Table I row and study bin runs on: the
/// 2 MiB word-count sample it is calibrated against, and the two
/// numbers calibration draws from it, to the bit.
#[test]
fn calibration_matches_golden() {
    let sample = CorpusGen::new(&CorpusSpec::default()).generate(2 << 20);
    assert_eq!(
        (sample.len(), to_hex(&sha256(&sample)).as_str()),
        (SAMPLE_LEN, SAMPLE_SHA256),
        "calibration sample moved"
    );
    let sizing = calibrated_sizing();
    assert_eq!(
        (sizing.expansion.to_bits(), sizing.reduce_output_total_bytes),
        (EXPANSION_BITS, REDUCE_OUTPUT_TOTAL_BYTES),
        "calibrated sizing moved (expansion {})",
        sizing.expansion
    );
}

const SAMPLE_LEN: usize = 2_097_153;
const SAMPLE_SHA256: &str = "74474eccf27ac9a3ae6be3e88d0619c433edac5f9c1ab5402cd4766bc9fae9f8";
const EXPANSION_BITS: u64 = 0x3ff6_d3f7_c960_41b5;
const REDUCE_OUTPUT_TOTAL_BYTES: u64 = 553_491;
