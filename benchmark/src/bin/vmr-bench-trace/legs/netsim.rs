//! Network-engine legs: the same flow script on the exact engine and on
//! the aggregate engine under the internet scale policy.

use super::Ctx;
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::{
    AggregateNetwork, Completion, FlowId, FlowSpec, HostId, HostLink, Network, ScalePolicy,
    Topology,
};
use vmr_obs::Obs;

/// The three calls the engine's event loop makes on either network.
trait Net {
    fn start(&mut self, now: SimTime, spec: FlowSpec) -> FlowId;
    fn advance_to(&mut self, now: SimTime) -> Vec<Completion>;
    fn next_event(&self) -> Option<SimTime>;
}

impl Net for Network {
    fn start(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.start_flow(now, spec)
    }
    fn advance_to(&mut self, now: SimTime) -> Vec<Completion> {
        self.advance(now)
    }
    fn next_event(&self) -> Option<SimTime> {
        self.next_event_time()
    }
}

impl Net for AggregateNetwork {
    fn start(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.start_flow(now, spec)
    }
    fn advance_to(&mut self, now: SimTime) -> Vec<Completion> {
        self.advance(now)
    }
    fn next_event(&self) -> Option<SimTime> {
        self.next_event_time()
    }
}

/// A server and `hosts` volunteers on the testbed's 100 Mbit links.
fn star(hosts: usize) -> (Topology, HostId, Vec<HostId>) {
    let link = || HostLink::symmetric_mbit(100.0, 0.000_5);
    let mut topo = Topology::new();
    let server = topo.add_host(link());
    let clients = (0..hosts).map(|_| topo.add_host(link())).collect();
    (topo, server, clients)
}

/// One 4 MB download per volunteer, started 10 ms apart, the network
/// advanced at every one of its own events in between and until the
/// last flow completes. Returns the flows completed.
fn script(net: &mut impl Net, server: HostId, clients: &[HostId]) -> usize {
    let mut done = 0;
    let mut now = SimTime::ZERO;
    for &c in clients {
        let start_at = now + SimDuration::from_micros(10_000);
        while let Some(t) = net.next_event().filter(|&t| t <= start_at) {
            done += net.advance_to(t).len();
        }
        now = start_at;
        net.start(now, FlowSpec::simple(server, c, 4 << 20));
    }
    while let Some(t) = net.next_event().filter(|&t| t < SimTime::MAX) {
        done += net.advance_to(t).len();
    }
    done
}

/// Most flows the script holds open at once.
const MAX_SCRIPT_FLOWS: f64 = 1500.0;

pub fn legs(cx: &mut Ctx<'_>) {
    let waves = cx.count("netsim.realloc_waves");
    if cx.count("netsim.flows_started") == 0.0 {
        return;
    }
    // The script reallocates O(concurrent) times over O(concurrent)
    // flows: quadratic, so it is capped where one batch takes about a
    // second, and above a thousand flows one batch is enough.
    let concurrent = cx
        .count("netsim.peak_concurrent_flows")
        .max(cx.count("shape.concurrent_flows"))
        .clamp(2.0, MAX_SCRIPT_FLOWS) as usize;
    let reps = cx.reps(if concurrent > 1000 { 1 } else { 3 });
    // A generated internet population runs on the aggregate engine.
    let internet = cx.count("shape.generated_population") > 0.0;

    let obs = Obs::detached();
    let secs = cx.time(
        "netsim.exact",
        reps,
        || {
            let (topo, server, clients) = star(concurrent);
            (Network::with_obs(topo, &obs), server, clients)
        },
        |(mut net, server, clients)| {
            assert_eq!(script(&mut net, server, &clients), clients.len());
        },
    );
    let leg_waves = obs.counter("netsim.realloc_waves").get() as f64 / reps as f64;
    let us_per_event = secs * 1e6 / leg_waves.max(1.0);
    // Where the traced run timed its own reallocation waves (the
    // engine's `prof` scope), that mean prices them; the script holds
    // its peak concurrency longer than a real run does.
    let wave_us = match cx.count("netsim.realloc_wave_us") {
        own if own > 0.0 => own,
        _ => us_per_event,
    };
    cx.out(
        "netsim.exact_us_per_event",
        us_per_event,
        if internet { 0.0 } else { wave_us * waves / 1e6 },
    );

    let obs = Obs::detached();
    let secs = cx.time(
        "netsim.aggregate",
        reps,
        || {
            let (topo, server, clients) = star(concurrent);
            let net = AggregateNetwork::with_policy(topo, &obs, ScalePolicy::internet());
            (net, server, clients)
        },
        |(mut net, server, clients)| {
            assert_eq!(script(&mut net, server, &clients), clients.len());
        },
    );
    // The aggregate engine reallocates per pool, not per flow: price it
    // per flow event (one start and one completion each).
    let us_per_event = secs * 1e6 / (2.0 * concurrent as f64);
    cx.out(
        "netsim.agg_us_per_event",
        us_per_event,
        if internet {
            us_per_event * 2.0 * cx.count("netsim.flows_started") / 1e6
        } else {
            0.0
        },
    );
}
