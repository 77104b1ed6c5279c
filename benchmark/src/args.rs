//! Command line of both benchmark binaries.

use std::path::PathBuf;

/// Parsed arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`crate::workloads::NAMES`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed repeats run, seconds.
    pub seconds: f64,
    /// Traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// ~1/20-size workloads (the `run.sh --smoke` gate).
    pub smoke: bool,
    /// Where span files and scratch WAL mirrors go.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--smoke] [--out <dir>]`.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = argv.skip(1);
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => a.workload = value("a name")?,
                "--seed" => {
                    a.seed = value("an integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    a.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--smoke" => a.smoke = true,
                "--out" => a.out_dir = PathBuf::from(value("a directory")?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !a.seconds.is_finite() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}
