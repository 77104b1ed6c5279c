//! The layer legs: benchmark-owned code that drives one layer's public
//! API at the op count and shape the workload produced, each batch of
//! calls inside a span. A leg prices a layer alone, so the share of
//! `wall_s` the legs add up to is an attribution estimate, not a
//! profile of the run.

mod desim;
mod durable;
mod netsim;
mod rtnet;
mod stack;
mod vcore;

use vmr_benchmark::driver::{LegInput, LegOut};
use vmr_benchmark::span::Tracer;
use vmr_benchmark::stats::median;

/// What a leg works with: the workload's counts, the tracer, and the
/// list its measurements go on.
pub struct Ctx<'a> {
    input: &'a LegInput<'a>,
    tr: &'a mut Tracer,
    outs: Vec<LegOut>,
}

impl Ctx<'_> {
    /// A count or shape value of the workload; 0 when it has none.
    fn count(&self, name: &str) -> f64 {
        let r = self.input.repeat;
        r.probes
            .iter()
            .chain(&r.exact)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Batches a leg times: `full`, or one in a smoke run.
    fn reps(&self, full: usize) -> usize {
        if self.input.params.smoke {
            1
        } else {
            full
        }
    }

    /// Runs `batch` on a fresh `setup()` product `reps` times (once in
    /// a smoke run), each run inside a span called `name`; returns the
    /// median seconds of one.
    fn time<S>(
        &mut self,
        name: &str,
        reps: usize,
        mut setup: impl FnMut() -> S,
        mut batch: impl FnMut(S),
    ) -> f64 {
        let reps = self.reps(reps);
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let state = setup();
            let span = self.tr.begin(name);
            let t = std::time::Instant::now();
            batch(state);
            secs.push(t.elapsed().as_secs_f64());
            self.tr.end(span);
        }
        median(&secs)
    }

    /// Records a per-layer measurement. `covers_s` is the host time of
    /// one workload repeat this cost accounts for (see [`LegOut`]).
    fn out(&mut self, name: &'static str, value: f64, covers_s: f64) {
        self.outs.push(LegOut {
            name,
            value,
            covers_s,
        });
    }
}

/// Runs every leg whose layer the workload exercised.
pub fn run(input: &LegInput<'_>, tr: &mut Tracer) -> Vec<LegOut> {
    let mut cx = Ctx {
        input,
        tr,
        outs: Vec::new(),
    };
    desim::legs(&mut cx);
    netsim::legs(&mut cx);
    vcore::legs(&mut cx);
    stack::legs(&mut cx);
    durable::legs(&mut cx);
    rtnet::legs(&mut cx);
    cx.outs
}
