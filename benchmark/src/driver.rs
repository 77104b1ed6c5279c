//! The run both binaries share: repeat the workload for `--seconds`,
//! check it, summarize, print.

use crate::args::Args;
use crate::report::{
    metrics_object, num, result_line, summary_json, END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC,
};
use crate::span::Tracer;
use crate::stats::{summarize, Summary};
use crate::workloads::{self, Params, RepeatOut};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// `setup_s` is a median over at least this many set-ups...
const MIN_SETUP_SAMPLES: usize = 5;
/// ...and, while extra set-ups stay within [`EXTRA_SETUP_SECONDS`], up
/// to this many: a millisecond set-up needs more samples than a
/// quarter-second one for its median to hold still.
const MAX_SETUP_SAMPLES: usize = 25;
const EXTRA_SETUP_SECONDS: f64 = 0.5;
/// `peak_rss_mb` is the process's high-water mark after this many
/// repeats (or all of them, when fewer fit).
const RSS_AFTER_REPEATS: usize = 3;

/// What the layer legs are told about the workload they model.
pub struct LegInput<'a> {
    /// Seed and size of the run.
    pub params: &'a Params,
    /// A repeat of the workload: its counts give each leg its op count
    /// and shape.
    pub repeat: &'a RepeatOut,
}

/// One per-layer measurement from a leg.
pub struct LegOut {
    /// Per-layer metric name (one of [`PER_LAYER`]).
    pub name: &'static str,
    /// Measured value, in the metric's unit.
    pub value: f64,
    /// Host seconds of one workload repeat this layer operation would
    /// account for at the measured cost: the leg's cost per operation
    /// times the operations the workload counted. 0 when the metric is
    /// not a cost the workload's timed region pays.
    pub covers_s: f64,
}

/// The layer legs, as the trace binary provides them.
pub type Legs = fn(&LegInput<'_>, &mut Tracer) -> Vec<LegOut>;

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Collects one named series per repeat into summaries.
fn summaries(repeats: &[RepeatOut]) -> BTreeMap<&'static str, Summary> {
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in repeats {
        series.entry("wall_s").or_default().push(r.wall_s);
        for (name, v) in r.timed.iter().chain(&r.probes) {
            series.entry(name).or_default().push(*v);
        }
    }
    series
        .into_iter()
        .map(|(name, v)| (name, summarize(&v)))
        .collect()
}

/// Correctness: the invariants each repeat checked, no failed
/// operation, and every simulated value and count bit-identical across
/// the repeats of this process. Returns what is wrong.
fn check(all: &[&RepeatOut]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, r) in all.iter().enumerate() {
        for v in &r.violations {
            problems.push(format!("repeat {i}: {v}"));
        }
        if r.failed > 0 {
            problems.push(format!(
                "repeat {i}: {} of {} operations failed",
                r.failed, r.attempted
            ));
        }
        for ((name, a), (_, b)) in all[0].exact.iter().zip(&r.exact) {
            if a.to_bits() != b.to_bits() {
                problems.push(format!("repeat {i}: {name} = {b}, repeat 0 had {a}"));
            }
        }
    }
    problems
}

/// Entry point of both binaries. `legs` is `None` in the end-to-end
/// binary: a traced run then reports the counts and leaves every leg
/// timing at 0.
pub fn run(legs: Option<Legs>) -> ExitCode {
    let args = match Args::parse(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!(
            "error: unknown workload `{}`; one of: {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let params = Params {
        seed: args.seed,
        smoke: args.smoke,
        scratch: args.out_dir.join("tmp"),
    };
    let mut tracer = Tracer::new(&args.workload);

    // Repeats. A traced run alternates spans on and off so the two
    // halves see the same machine state; an end-to-end run never turns
    // them on.
    let mut traced: Vec<RepeatOut> = Vec::new();
    let mut untraced: Vec<RepeatOut> = Vec::new();
    // Peak memory is read after a fixed number of repeats, so it does
    // not depend on how many fit in `--seconds`: more than one, because
    // the socket workload only reaches its worst overlap of in-flight
    // buffers in some repeats.
    let mut rss = 0.0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds
        || untraced.is_empty()
        || (args.trace && traced.is_empty())
    {
        let spans_on = args.trace && traced.len() <= untraced.len();
        tracer.set_enabled(spans_on);
        let root = tracer.begin(&args.workload);
        let out = workloads::repeat(&args.workload, &params, &mut tracer)
            .expect("workload name was checked");
        tracer.end(root);
        if traced.len() + untraced.len() < RSS_AFTER_REPEATS {
            rss = peak_rss_mb();
        }
        if spans_on {
            traced.push(out);
        } else {
            untraced.push(out);
        }
    }
    tracer.set_enabled(false);
    let all: Vec<&RepeatOut> = untraced.iter().chain(&traced).collect();
    let mut setup_samples: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while setup_samples.len() < MIN_SETUP_SAMPLES
        || (setup_samples.len() < MAX_SETUP_SAMPLES
            && extra.elapsed().as_secs_f64() < EXTRA_SETUP_SECONDS)
    {
        setup_samples.push(workloads::setup_only(&args.workload, &params));
    }

    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let problems = check(&all);
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("INCORRECT: {p}");
    }

    // Every end-to-end number of this run with its spread: the three
    // `BENCHMARK.json` bounds first, then what exists on this workload.
    let first = all[0];
    let plain = summaries(&untraced);
    let single = |v: f64| summarize(&[v]);
    let mut rows: Vec<(&str, Summary, &str)> = vec![
        ("setup_s", summarize(&setup_samples), "s"),
        ("wall_s", plain["wall_s"], "s"),
        ("peak_rss_mb", single(rss), "MB"),
    ];
    debug_assert!(rows
        .iter()
        .map(|r| r.0)
        .eq(END_TO_END.iter().map(|d| d.name)));
    let e2e: Vec<(&str, f64, &str)> = rows.iter().map(|(n, s, u)| (*n, s.median, *u)).collect();
    rows.push((
        "failed_share",
        single(failed as f64 / attempted.max(1) as f64),
        "ratio",
    ));
    for (name, _, unit) in WORKLOAD_SPECIFIC {
        let timed = plain.get(name).copied();
        let exact = first.exact.iter().find(|(n, _)| n == name);
        if let Some(s) = timed.or(exact.map(|(_, v)| single(*v))) {
            rows.push((name, s, unit));
        }
    }

    // People first: every metric by name, with its unit.
    println!(
        "# {} seed={} repeats={} (untraced {}, traced {}) setup samples={}",
        args.workload,
        args.seed,
        all.len(),
        untraced.len(),
        traced.len(),
        setup_samples.len()
    );
    for (name, s, unit) in &rows {
        println!("{name:<36} {:>16.6} {unit}", s.median);
    }

    let layer_json = if args.trace {
        let layers = per_layer(&params, legs, &mut tracer, &untraced, &traced);
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        let counts: Vec<String> = layers
            .iter()
            .map(|(n, v, _)| format!("\"{n}\": {}", num(*v)))
            .collect();
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": {}, \"per_layer\": {{{}}}}}\n",
            args.workload,
            args.seed,
            tracer.to_json(),
            counts.join(", ")
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("# spans written to {}", path.display());
        for (name, v, unit) in &layers {
            println!("{name:<36} {v:>16.6} {unit}");
        }
        Some(metrics_object(&layers))
    } else {
        None
    };

    // The suite (`run.sh` without `--workload`) reads this line.
    let join = |items: Vec<String>| items.join(", ");
    println!(
        "REPORT {{\"workload\": \"{}\", \"seed\": {}, \"repeats\": {}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}, \
         \"exact\": {{{}}}}}",
        args.workload,
        args.seed,
        all.len(),
        join(
            rows.iter()
                .map(|(n, s, u)| format!("\"{n}\": {}", summary_json(s, u)))
                .collect()
        ),
        join(
            first
                .exact
                .iter()
                .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
                .collect()
        ),
    );
    let metrics = layer_json.unwrap_or_else(|| metrics_object(&e2e));
    // A printed result is a finished run: `correct` carries the verdict.
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order:
/// counts from the run's own registry, peaks and `prof` scopes from the
/// traced repeats, host times from the layer legs.
fn per_layer(
    params: &Params,
    legs: Option<Legs>,
    tracer: &mut Tracer,
    untraced: &[RepeatOut],
    traced: &[RepeatOut],
) -> Vec<(&'static str, f64, &'static str)> {
    let plain = summaries(untraced);
    let spanned = summaries(traced);
    let first = &traced[0];
    let wall_s = plain["wall_s"].median;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, v) in &first.exact {
        values.insert(name, *v);
    }
    // Probes exist on traced repeats only; timed extras are taken with
    // spans off, like every end-to-end number.
    for (name, s) in spanned.iter().chain(&plain) {
        values.insert(name, s.median);
    }
    for (name, layer_name, _) in WORKLOAD_SPECIFIC {
        if let Some(v) = values.get(name).copied() {
            values.insert(layer_name, v);
        }
    }
    let get = |values: &BTreeMap<&str, f64>, k: &str| values.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rpcs = get(&values, "vcore.rpcs");
    if rpcs > 0.0 {
        let empty = get(&values, "vcore.empty_replies");
        values.insert("vcore.useful_rpc_ratio", 1.0 - empty / rpcs);
    }
    let p2p = get(&values, "shuffle.bytes_p2p");
    let fallback = get(&values, "shuffle.bytes_server_fallback");
    values.insert("shuffle.p2p_byte_ratio", ratio(p2p, p2p + fallback));
    values.insert(
        "desim.host_us_per_event",
        ratio(wall_s * 1e6, get(&values, "desim.events")),
    );
    // Tracing can only add time, and a handful of repeats is too few
    // for two medians to resolve a few percent: compare the fastest
    // repeat of each kind.
    let fastest = |rs: &[RepeatOut]| rs.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    values.insert(
        "bench.trace_overhead_pct",
        100.0 * (ratio(fastest(traced), fastest(untraced)) - 1.0),
    );

    match legs {
        Some(legs) => {
            tracer.set_enabled(true);
            let root = tracer.begin("legs");
            let outs = legs(
                &LegInput {
                    params,
                    repeat: first,
                },
                tracer,
            );
            tracer.end(root);
            tracer.set_enabled(false);
            let covered: f64 = outs.iter().map(|o| o.covers_s).sum();
            for o in outs {
                values.insert(o.name, o.value);
            }
            values.insert("bench.layers_cover_pct", 100.0 * ratio(covered, wall_s));
            println!(
                "# layers_cover_pct = {:.1} % of wall_s = {:.4} s. Legs time each layer alone, \
                 at the op counts this run produced: an attribution estimate, not a profile.",
                100.0 * ratio(covered, wall_s),
                wall_s
            );
        }
        None => println!("layers: unavailable (this binary carries no layer legs; counts only)"),
    }
    println!(
        "# trace_overhead_pct = {:.2} % (fastest run with spans on vs off, {} vs {} repeats)",
        get(&values, "bench.trace_overhead_pct"),
        traced.len(),
        untraced.len()
    );
    PER_LAYER
        .iter()
        .map(|d| (d.name, get(&values, d.name), d.unit))
        .collect()
}
