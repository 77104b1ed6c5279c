//! Regenerates the paper's **Table I** (word-count makespans).
//!
//! Usage: `cargo run -p vmr-bench --release --bin table1 \
//!     [--mixed] [--quick] [--durable] [--shards <n>] [--metrics <path>] \
//!     [--shuffle <baseline|legacy|swarm|coded>]`
//!
//! Prints, for every row, the simulated map/reduce/total times with the
//! "slowest node discarded" derivation in brackets, next to the paper's
//! published values.
//!
//! `--quick` runs only the first row of each scheduling mode (the
//! check.sh bench smoke). `--durable` journals every row's server
//! state (WAL + 300 s snapshots) and prints a `# wal:` footer — the
//! numbers themselves must not move. `--shards <n>` runs every row on
//! an n-way sharded server core; output is byte-identical to
//! `--shards 1` by construction (the check.sh shard smoke diffs the
//! two). `--metrics <path>` additionally
//! dumps every row's obs metrics snapshot to `path` as a JSON array;
//! stdout is unchanged by it. `--shuffle legacy` runs the preserved
//! pre-extraction transfer path (the check.sh shuffle smoke diffs it
//! against the default, strategy-driven baseline).

use vmr_bench::paper::{table1_text, Table1Opts};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mixed = args.iter().any(|a| a == "--mixed");
    let quick = args.iter().any(|a| a == "--quick");
    let durable = args.iter().any(|a| a == "--durable");
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics")
        .map(|i| args.get(i + 1).expect("--metrics needs a path").clone());
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .map(|i| {
            args.get(i + 1)
                .expect("--shards needs a count")
                .parse()
                .expect("--shards takes an integer")
        })
        .unwrap_or(1);
    let shuffle = args
        .iter()
        .position(|a| a == "--shuffle")
        .map(|i| {
            let name = args.get(i + 1).expect("--shuffle needs a strategy");
            match name.as_str() {
                "baseline" => vmr_core::ShuffleConfig::default(),
                "legacy" => vmr_core::ShuffleConfig::legacy_reference(),
                "swarm" => vmr_core::ShuffleConfig::swarm(),
                "coded" => vmr_core::ShuffleConfig::coded(2),
                other => panic!("unknown --shuffle strategy: {other}"),
            }
        })
        .unwrap_or_default();
    let opts = Table1Opts {
        mixed,
        quick,
        durable,
        shards,
        shuffle,
        metrics: metrics_path.is_some(),
    };
    let (text, row_metrics) = table1_text(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    print!("{text}");
    if let Some(path) = metrics_path {
        std::fs::write(&path, format!("[{}]\n", row_metrics.join(",")))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}
