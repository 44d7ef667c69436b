//! Microbenchmark of the footprint-replay memo on the multi-core path
//! (`simnet::SmpSim` over private replay-eligible machines):
//!
//! * **miss path** — a cold simulator: every layer sweep on every core
//!   walks its lines and records a (state, footprint) → transition.
//! * **hit path** — a warm simulator: the per-core state graphs have
//!   closed, so every sweep is a table lookup plus bulk counter update.
//! * **collision-free path** — a single machine cycling through many
//!   distinct footprints under one memo: exact interned keys mean no
//!   two footprints can alias, so the steady state must show zero
//!   `footprint-collision` bypasses while running entirely out of the
//!   table.
//!
//! The warm/cold ratio is the apparatus speedup the memo buys each
//! steady-state multi-core run; the collision-free check pins the
//! exactness property the speedup rests on.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use cachesim::{Machine, MachineConfig};
use ldlp::{BatchPolicy, Discipline};
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{tag_flows, DispatchPolicy, FlowArrival, SmpConfig, SmpSim};

fn workload() -> (SmpConfig, Vec<FlowArrival>) {
    let duration_s = 0.02;
    let cfg = SmpConfig {
        duration_s,
        ..SmpConfig::new(4, DispatchPolicy::FlowHash, Discipline::Ldlp(BatchPolicy::DCacheFit))
    };
    let raw = PoissonSource::new(4000.0, 552, 7).take_until(duration_s);
    (cfg, tag_flows(&raw, 32, 7))
}

fn bench_replay_memo_smp(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_memo_smp");
    group.sample_size(20);

    // Cold memo: each iteration builds fresh cores, so every sweep in
    // the run takes the record-a-transition miss path at least once.
    group.bench_function("cold_multi_core_run", |b| {
        let (cfg, arrivals) = workload();
        b.iter_batched(
            || SmpSim::new(&cfg),
            |mut sim| {
                sim.run(&arrivals);
                sim
            },
            BatchSize::SmallInput,
        );
    });

    // Warm memo: one simulator reused until its per-core state graphs
    // close (the alloc test pins the same point), then measured.
    group.bench_function("warm_multi_core_run", |b| {
        let (cfg, arrivals) = workload();
        let mut sim = SmpSim::new(&cfg);
        for _ in 0..150 {
            sim.run(&arrivals);
        }
        b.iter(|| sim.run(black_box(&arrivals)));
        let out = sim.outcome(simnet::ImpairCounters::default());
        assert!(
            out.replay.hit_rate() > 0.99,
            "warm multi-core runs should replay from the memo: {:?}",
            out.replay
        );
    });

    // Collision-free steady state: 32 distinct footprints share one
    // memo. Keys are exact interned states, so no footprint can alias
    // another — the warm loop must be all hits, zero bypasses.
    group.bench_function("distinct_footprints_no_collisions", |b| {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let line = m.config().icache.line_size;
        let footprints: Vec<Vec<u64>> = (0..32u64)
            .map(|f| (0..48).map(|i| (f * 0x4000 + i * line) / line).collect())
            .collect();
        for _ in 0..8 {
            for (fid, lines) in footprints.iter().enumerate() {
                m.fetch_code_footprint(fid as u32, lines);
            }
        }
        b.iter(|| {
            for (fid, lines) in footprints.iter().enumerate() {
                black_box(m.fetch_code_footprint(fid as u32, lines));
            }
        });
        let stats = m.replay_stats();
        assert_eq!(
            stats.bypasses, 0,
            "exact keys must never collide across distinct footprints: {stats:?}"
        );
        assert!(
            stats.hit_rate() > 0.9,
            "steady state should run out of the memo: {stats:?}"
        );
    });

    group.finish();
}

criterion_group!(benches, bench_replay_memo_smp);
criterion_main!(benches);
