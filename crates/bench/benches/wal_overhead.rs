//! WAL overhead: the same experiment with durability off, WAL-only,
//! and WAL + snapshots — the cost of journaling every server mutation.
//!
//! Also times recovery (materializing all server state from the final
//! log image), the other half of the durability trade-off.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vmr_core::{run_experiment, ExperimentConfig, MrMode, RecoveredServerState};
use vmr_durable::DurabilityPlan;

fn small() -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(6, 4, 2, MrMode::InterClient);
    c.input_bytes = 64 << 20;
    c
}

fn bench_wal_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("durable/wal_overhead");
    g.sample_size(10);
    let plans = [
        ("off", DurabilityPlan::disabled()),
        ("wal-only", DurabilityPlan::new(0.0)),
        ("wal+snap60s", DurabilityPlan::new(60.0)),
    ];
    for (name, plan) in plans {
        let mut cfg = small();
        cfg.durable = plan;
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(
                    run_experiment(cfg)
                        .expect("valid experiment config")
                        .finished_at,
                )
            })
        });
    }
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("durable/recovery");
    g.sample_size(10);
    for (name, plan) in [
        ("wal-only", DurabilityPlan::new(0.0)),
        ("wal+snap60s", DurabilityPlan::new(60.0)),
    ] {
        let mut cfg = small();
        cfg.durable = plan;
        let wal = run_experiment(&cfg)
            .expect("valid experiment config")
            .wal
            .unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(name), &wal, |b, wal| {
            b.iter(|| {
                black_box(
                    RecoveredServerState::from_log(wal)
                        .unwrap()
                        .committed_records,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_wal_overhead, bench_recovery);
criterion_main!(benches);
