//! Shared definitions for the benchmark harness: the paper's Table I
//! row list with its published values, sizing calibration helpers, and
//! the flow-churn workload for the netsim engine benchmarks.

pub mod churn;
pub mod paper;
pub mod report;

use vmr_core::{ExperimentConfig, ExperimentOutcome, MrMode, SizingModel};
use vmr_mapreduce::apps::WordCount;
use vmr_mapreduce::{CorpusGen, CorpusSpec};

/// One row of the paper's Table I.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Volunteer nodes.
    pub nodes: usize,
    /// Map work units.
    pub n_maps: usize,
    /// Reduce work units.
    pub n_reduces: usize,
    /// BOINC (server relay) or BOINC-MR (inter-client).
    pub mode: MrMode,
    /// Paper's published map time `(value, discarded-slowest)`.
    pub paper_map: (f64, Option<f64>),
    /// Paper's published reduce time.
    pub paper_reduce: (f64, Option<f64>),
    /// Paper's published total time.
    pub paper_total: (f64, Option<f64>),
}

/// Unwraps a harness result for a benchmark binary: invalid
/// configurations and WAL-sink failures print a one-line error and
/// exit nonzero instead of unwinding with a backtrace.
pub fn or_exit<T>(result: Result<T, vmr_core::ConfigError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Runs an experiment for a benchmark binary (see [`or_exit`]).
pub fn run_or_exit(cfg: &ExperimentConfig) -> ExperimentOutcome {
    or_exit(vmr_core::run_experiment(cfg))
}

/// The nine measured rows of Table I (the 10-node/1-WU row is blank in
/// the paper and is skipped).
pub fn table1_rows() -> Vec<Table1Row> {
    use MrMode::*;
    let r = |nodes,
             n_maps,
             n_reduces,
             mode,
             paper_map: (f64, Option<f64>),
             paper_reduce: (f64, Option<f64>),
             paper_total: (f64, Option<f64>)| Table1Row {
        nodes,
        n_maps,
        n_reduces,
        mode,
        paper_map,
        paper_reduce,
        paper_total,
    };
    vec![
        r(
            10,
            10,
            2,
            ServerRelay,
            (484.0, None),
            (337.0, None),
            (1121.0, None),
        ),
        r(
            10,
            20,
            2,
            ServerRelay,
            (376.0, None),
            (349.0, None),
            (1133.0, None),
        ),
        r(
            15,
            15,
            3,
            ServerRelay,
            (747.0, Some(396.0)),
            (604.0, Some(312.0)),
            (1529.0, Some(1011.0)),
        ),
        r(
            15,
            30,
            3,
            ServerRelay,
            (983.0, Some(364.0)),
            (322.0, None),
            (1378.0, Some(758.0)),
        ),
        r(
            20,
            20,
            5,
            ServerRelay,
            (383.0, None),
            (455.0, Some(341.0)),
            (1111.0, Some(997.0)),
        ),
        r(
            20,
            40,
            5,
            ServerRelay,
            (649.0, Some(360.0)),
            (700.0, Some(391.0)),
            (1681.0, Some(1083.0)),
        ),
        r(
            30,
            30,
            7,
            ServerRelay,
            (716.0, Some(373.0)),
            (345.0, None),
            (1373.0, Some(1030.0)),
        ),
        r(
            30,
            40,
            5,
            ServerRelay,
            (368.0, None),
            (399.0, None),
            (1174.0, None),
        ),
        r(
            20,
            20,
            5,
            InterClient,
            (612.0, None),
            (318.0, None),
            (1216.0, None),
        ),
    ]
}

/// Builds the experiment config for one Table I row, with the sizing
/// model calibrated against the real word-count app on a corpus sample.
pub fn row_config(row: &Table1Row, sizing: SizingModel) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::table1(row.nodes, row.n_maps, row.n_reduces, row.mode);
    cfg.sizing = sizing;
    // Seed folds in the row geometry so every row is an independent
    // (but reproducible) sample, like the paper's separate runs.
    cfg.seed = 0xB01C_0000
        ^ ((row.nodes as u64) << 24)
        ^ ((row.n_maps as u64) << 12)
        ^ (row.n_reduces as u64)
        ^ ((matches!(row.mode, MrMode::InterClient) as u64) << 40);
    cfg
}

/// Calibrates the sizing model once, against the real application on a
/// 2 MB sample of the same synthetic corpus the examples use.
pub fn calibrated_sizing() -> SizingModel {
    let mut gen = CorpusGen::new(&CorpusSpec::default());
    let sample = gen.generate(2 << 20);
    SizingModel::calibrate(&WordCount, &sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_rows_matching_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 9);
        assert!(matches!(rows[8].mode, MrMode::InterClient));
        assert_eq!(rows[0].paper_total.0, 1121.0);
    }

    #[test]
    fn row_seeds_are_distinct() {
        let s = calibrated_sizing();
        let rows = table1_rows();
        let mut seeds: Vec<u64> = rows.iter().map(|r| row_config(r, s).seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), rows.len());
    }

    #[test]
    fn calibration_is_wordcount_like() {
        let s = calibrated_sizing();
        assert!(s.expansion > 1.0 && s.expansion < 1.8, "{}", s.expansion);
    }
}
