//! Regenerates the paper's **Table I** (word-count makespans).
//!
//! Usage: `cargo run -p vmr-bench --release --bin table1 \
//!     [--mixed] [--quick] [--durable] [--metrics <path>] \
//!     [--shuffle <baseline|swarm|coded>]`
//!
//! Prints, for every row, the simulated map/reduce/total times with the
//! "slowest node discarded" derivation in brackets, next to the paper's
//! published values.
//!
//! `--quick` runs only the first row of each scheduling mode (the
//! check.sh bench smoke). `--durable` journals every row's server
//! state (WAL + 300 s snapshots) and prints a `# wal:` footer — the
//! numbers themselves must not move. `--metrics <path>` additionally
//! dumps every row's obs metrics snapshot to `path` as a JSON array;
//! stdout is unchanged by it. A malformed command line prints one
//! usage line and exits 2.

use vmr_bench::paper::{table1_text, Table1Opts};
use vmr_core::ShuffleConfig;

const USAGE: &str = "usage: table1 [--mixed] [--quick] [--durable] [--metrics <path>] \
                     [--shuffle <baseline|swarm|coded>]";

/// Parses the command line into the table options and the `--metrics`
/// path; `Err` carries the one-line reason.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Table1Opts, Option<String>), String> {
    let mut opts = Table1Opts::default();
    let mut metrics_path = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--mixed" => opts.mixed = true,
            "--quick" => opts.quick = true,
            "--durable" => opts.durable = true,
            "--metrics" => metrics_path = Some(value()?),
            "--shuffle" => {
                opts.shuffle = match value()?.as_str() {
                    "baseline" => ShuffleConfig::default(),
                    "swarm" => ShuffleConfig::swarm(),
                    "coded" => ShuffleConfig::coded(2),
                    other => return Err(format!("unknown --shuffle strategy: {other}")),
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    opts.metrics = metrics_path.is_some();
    Ok((opts, metrics_path))
}

fn main() {
    let (opts, metrics_path) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (text, row_metrics) = vmr_bench::or_exit(table1_text(&opts));
    print!("{text}");
    if let Some(path) = metrics_path {
        std::fs::write(&path, format!("[{}]\n", row_metrics.join(",")))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Table1Opts, Option<String>), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_land_in_the_options() {
        let (opts, metrics) =
            parse(&["--quick", "--shuffle", "coded", "--metrics", "m.json"]).unwrap();
        assert!(opts.quick && opts.metrics && !opts.durable);
        assert_eq!(opts.shuffle.strategy, vmr_core::StrategyKind::Coded);
        assert_eq!(metrics.as_deref(), Some("m.json"));
    }

    #[test]
    fn malformed_command_lines_are_errors_not_panics() {
        for bad in [
            &["--shuffle", "legacy"][..],
            &["--shuffle"],
            &["--metrics"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
