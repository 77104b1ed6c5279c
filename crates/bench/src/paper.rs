//! The text of the paper's two artefacts — Table I and Fig. 4 — built
//! as strings, so the `table1` / `fig4` binaries and the golden test
//! (`tests/goldens.rs` at the repo root) print the same bytes from the
//! same calls.

use crate::{calibrated_sizing, row_config, table1_rows};
use std::fmt::Write as _;
use vmr_core::{
    format_row, run_experiment, ConfigError, ExperimentConfig, MrMode, NodeMix, ShuffleConfig,
};
use vmr_desim::SimTime;
use vmr_obs::{Actor, Detail, Mark, PhaseMark};

/// What the `table1` binary was asked to run (one field per flag).
#[derive(Clone, Debug, Default)]
pub struct Table1Opts {
    /// `--mixed`: half pc3001, half quad-core pcr200.
    pub mixed: bool,
    /// `--quick`: only the first row of each scheduling mode.
    pub quick: bool,
    /// `--durable`: journal every row (WAL + 300 s snapshots) and print
    /// a `# wal:` footer per row.
    pub durable: bool,
    /// `--shuffle <name>`: the shuffle strategy of every row.
    pub shuffle: ShuffleConfig,
    /// `--metrics <path>`: also collect each row's obs snapshot.
    pub metrics: bool,
}

/// Runs the Table I rows `opts` selects. Returns the table text and,
/// with `opts.metrics`, one JSON object per row holding its metrics
/// snapshot (empty otherwise).
pub fn table1_text(opts: &Table1Opts) -> Result<(String, Vec<String>), ConfigError> {
    let sizing = calibrated_sizing();
    let mut s = String::new();
    s.push_str("# Table I — word count makespan (1 GB input, replication 2, quorum 2, 100 Mbit)\n");
    if opts.mixed {
        s.push_str("# node fleet: half pc3001, half quad-core pcr200 (--mixed)\n");
    }
    let _ = writeln!(
        s,
        "# sizing calibrated on real word count: expansion={:.3}, final output={} KiB",
        sizing.expansion,
        sizing.reduce_output_total_bytes >> 10
    );
    let _ = writeln!(
        s,
        "{:>5} | {:>5} | {:>4} | {:^12} | {:^12} | {:^12} || {:^22}",
        "Nodes", "Map", "Red", "Map Time", "Reduce Time", "Total Time", "paper (map/red/total)"
    );
    let _ = writeln!(s, "{}", "-".repeat(104));
    let rows = if opts.quick {
        // One row per scheduling mode: the smallest ServerRelay
        // geometry plus the InterClient row.
        let all = table1_rows();
        let mut picked = Vec::new();
        for mode in [MrMode::ServerRelay, MrMode::InterClient] {
            if let Some(r) = all.iter().find(|r| r.mode == mode) {
                picked.push(*r);
            }
        }
        let _ = writeln!(
            s,
            "# quick subset (--quick): {} of {} rows",
            picked.len(),
            all.len()
        );
        picked
    } else {
        table1_rows()
    };
    let mut row_metrics: Vec<String> = Vec::new();
    let mut prev_mode = None;
    for row in rows {
        if prev_mode != Some(row.mode) {
            let _ = writeln!(s, "--- {} ---", row.mode);
            prev_mode = Some(row.mode);
        }
        let mut cfg = row_config(&row, sizing);
        cfg.shuffle = opts.shuffle.clone();
        if opts.durable {
            cfg.durable = vmr_durable::DurabilityPlan::new(300.0);
        }
        if opts.mixed {
            // §IV.A used two node types; split the fleet half/half.
            cfg.nodes = NodeMix {
                pc3001: row.nodes / 2,
                pcr200: row.nodes - row.nodes / 2,
            };
        }
        let out = run_experiment(&cfg)?;
        assert!(out.all_done, "row did not complete");
        if let Some(wal) = &out.wal {
            let snap = out.obs.snapshot();
            let _ = writeln!(
                s,
                "# wal: {} records, {} KiB, {} snapshots",
                snap.counter("dur.wal_records"),
                wal.len() >> 10,
                snap.histogram("dur.snapshot_us").count,
            );
        }
        if opts.metrics {
            row_metrics.push(format!(
                "{{\"nodes\":{},\"n_maps\":{},\"n_reduces\":{},\"mode\":\"{}\",\"metrics\":{}}}",
                row.nodes,
                row.n_maps,
                row.n_reduces,
                row.mode,
                out.obs.to_json()
            ));
        }
        let r = &out.reports[0];
        let paper = |p: (f64, Option<f64>)| match p.1 {
            Some(d) => format!("{:.0}[{:.0}]", p.0, d),
            None => format!("{:.0}", p.0),
        };
        let _ = writeln!(
            s,
            "{} || {} / {} / {}",
            format_row(row.nodes, row.n_maps, row.n_reduces, r),
            paper(row.paper_map),
            paper(row.paper_reduce),
            paper(row.paper_total),
        );
    }
    Ok((s, row_metrics))
}

/// The Fig. 4 scenario: 15 nodes, 15 map WUs (30 map results), the
/// timeline recorded.
pub fn fig4_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::table1(15, 15, 3, MrMode::ServerRelay);
    cfg.sizing = calibrated_sizing();
    cfg.record_timeline = true;
    // Seed chosen so a clear backoff straggler appears (several do).
    cfg.seed = 0xF164;
    cfg
}

/// Runs the Fig. 4 scenario ([`fig4_config`]) and renders the per-node
/// report-delay table plus the ASCII timeline.
pub fn fig4_text() -> Result<String, ConfigError> {
    let out = run_experiment(&fig4_config())?;
    assert!(out.all_done);
    let r = &out.reports[0];

    let mut s = String::new();
    s.push_str("# Fig. 4 — map application makespan, 15 map WUs (30 results)\n");
    let _ = writeln!(
        s,
        "# map phase {:.0} s (without slowest node: {}), reduce {:.0} s, total {:.0} s\n",
        r.map_s,
        r.map_no_slowest_s
            .map(|v| format!("{v:.0} s"))
            .unwrap_or_else(|| "—".into()),
        r.reduce_s,
        r.total_s
    );

    // Per-node map completion vs report instants (the bar pairs of the
    // original figure).
    let reduce_start = out
        .timeline
        .points()
        .iter()
        .find(|p| p.detail == Detail::Phase(PhaseMark::ReduceStart))
        .map(|p| p.at);
    let _ = writeln!(
        s,
        "{:<9} {:>12} {:>12} {:>12}   (report delayed by backoff → straggler)",
        "node", "exec done", "reported", "delay s"
    );
    let in_map_phase = |t: &SimTime| reduce_start.map(|rs| *t <= rs).unwrap_or(true);
    let mut rows: Vec<(String, SimTime, SimTime)> = Vec::new();
    for actor in out.timeline.actors() {
        if actor == Actor::Server {
            continue;
        }
        // Last map exec span end + last report point on this lane during
        // the map phase.
        let map_end = out
            .timeline
            .lane(actor)
            .iter()
            .filter(|s| matches!(s.mark, Mark::Exec | Mark::Upload))
            .map(|s| s.end)
            .filter(in_map_phase)
            .max();
        let report = out
            .timeline
            .points()
            .iter()
            .filter(|p| p.actor == actor && p.mark == Mark::Report)
            .map(|p| p.at)
            .filter(in_map_phase)
            .max();
        if let (Some(e), Some(rep)) = (map_end, report) {
            rows.push((actor.to_string(), e, rep));
        }
    }
    rows.sort_by_key(|(_, _, rep)| *rep);
    for (actor, done, rep) in &rows {
        let delay = rep.saturating_since(*done).as_secs_f64();
        let flag = if delay > 60.0 {
            "  ← backoff straggler"
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "{actor:<9} {:>11.1}s {:>11.1}s {:>11.1}{flag}",
            done.as_secs_f64(),
            rep.as_secs_f64(),
            delay
        );
    }
    if let Some(rs) = reduce_start {
        let _ = writeln!(s, "\nreduce phase began at {:.1} s", rs.as_secs_f64());
    }

    s.push_str("\nper-node map-phase timeline (d=download e=exec u=upload):\n");
    s.push_str(&out.timeline.render_ascii(110));
    Ok(s)
}
