//! `mixed_smp`: the five-class service mix of `workload`
//! (`MixConfig::service_mix` at 12k msg/s, class profiles installed),
//! open loop, through `smp::SmpSim::run` on {1, 4, 8} cores ×
//! {conv, ldlp, aff}, twelve streams per point. One operation is one
//! cell: generate the stream, build the simulator, run, assemble the
//! outcome.

use crate::harness::{sub_seed, OpOut, Workload};
use ldlp::{BatchPolicy, Discipline};
use simnet::impair::ImpairCounters;
use smp::{DispatchPolicy, SmpConfig, SmpOutcome, SmpSim};
use std::time::Instant;
use workload::{class_counts, generate, profiles, to_flow_arrivals, MixConfig, WireClass};

/// Aggregate offered load of the mixed stream (figure14's setting).
const RATE_MSG_S: f64 = 12_000.0;
/// Simulated seconds of arrivals per cell.
const DURATION_S: f64 = 0.25;
/// Synthetic flow population (figure14's setting).
const FLOWS: u32 = 80;
/// Streams per (cores, variant) point.
const STREAMS: usize = 12;
const CORES: [usize; 3] = [1, 4, 8];

const VARIANTS: [(&str, Discipline, DispatchPolicy); 3] = [
    ("conv", Discipline::Conventional, DispatchPolicy::FlowHash),
    (
        "ldlp",
        Discipline::Ldlp(BatchPolicy::DCacheFit),
        DispatchPolicy::FlowHash,
    ),
    (
        "aff",
        Discipline::Ldlp(BatchPolicy::DCacheFit),
        DispatchPolicy::LayerAffinity,
    ),
];

pub struct MixedSmp {
    seed: u64,
}

impl MixedSmp {
    pub fn new(seed: u64) -> Self {
        MixedSmp { seed }
    }
}

impl Workload for MixedSmp {
    fn ops(&self) -> usize {
        CORES.len() * VARIANTS.len() * STREAMS
    }

    fn run_op(&self, i: usize, traced: bool) -> OpOut {
        let cell = i / STREAMS;
        let cores = CORES[cell / VARIANTS.len()];
        let (label, discipline, dispatch) = VARIANTS[cell % VARIANTS.len()];
        // Every cell of a stream index sees the same stream.
        let s = sub_seed(self.seed, (i % STREAMS) as u64);

        let mut out = OpOut {
            group: cell,
            ..OpOut::default()
        };
        let t = Instant::now();
        let (counts, arrivals) = out.time("workload.generate_s", || {
            let stream = generate(&MixConfig::service_mix(RATE_MSG_S, DURATION_S, s));
            (class_counts(&stream), to_flow_arrivals(&stream, FLOWS, s))
        });
        let cfg = SmpConfig {
            duration_s: DURATION_S,
            placement_seed: s,
            wclass: profiles(),
            ..SmpConfig::new(cores, dispatch, discipline)
        };
        let mut sim = out.time("smp.build_s", || {
            let mut sim = SmpSim::new(&cfg);
            if traced {
                sim.set_sinks(false);
            }
            sim
        });
        out.setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        out.time("smp.run_s", || sim.run(&arrivals));
        let outcome = out.time("smp.outcome_s", || sim.outcome(ImpairCounters::default()));
        out.work_s = t.elapsed().as_secs_f64();
        if traced {
            drop(sim.take_recorders());
        }

        let where_ = format!("{cores} cores {label}");
        let r = &outcome.report;
        if !r.conservation_holds() {
            out.fail(format!("{where_}: conservation violated: {r:?}"));
        }
        for c in WireClass::ALL {
            match outcome.classes.get(c.index()) {
                None => out.fail(format!("{where_}: no report for class {}", c.label())),
                Some(cr) => {
                    if cr.offered != counts[c.index()]
                        || cr.offered != cr.completed + cr.rejected + cr.drops + cr.shed
                    {
                        out.fail(format!(
                            "{where_}: class {} buckets do not close: {cr:?}",
                            c.label()
                        ));
                    }
                    let processed = (cr.completed + cr.rejected) as f64;
                    let key = c.label();
                    out.count(format!("workload.{key}.completed"), cr.completed as f64);
                    out.count(
                        format!("workload.{key}.within_slo"),
                        cr.slo_attainment * cr.completed as f64,
                    );
                    out.count(format!("workload.{key}.imiss"), cr.mean_imiss * processed);
                    out.count(format!("workload.{key}.processed"), processed);
                }
            }
        }

        out.msgs = arrivals.len() as u64;
        out.attempts = r.offered;
        out.useful = r.completed;
        out.count("smp.run.msgs", arrivals.len() as f64);
        record_smp(
            &mut out,
            &outcome,
            sim.active_cores(),
            cfg.machine.clock_mhz,
            &where_,
        );
        out.classes = outcome.classes.clone();
        out
    }
}

/// Folds one `SmpOutcome` into the operation: the checks every
/// multi-core cell shares, the simulated outcomes, the per-layer counts
/// of `smp` and `cachesim`, and the digest.
pub fn record_smp(
    out: &mut OpOut,
    o: &SmpOutcome,
    active_cores: usize,
    clock_mhz: f64,
    where_: &str,
) {
    let r = &o.report;
    if o.replay.bypasses > 0 {
        out.fail(format!("{where_}: {} replay bypasses", o.replay.bypasses));
    }
    let processed = r.completed + r.rejected + r.abandoned;
    let sum = |f: fn(&smp::CoreReport) -> u64| o.per_core.iter().map(f).sum::<u64>();
    out.p99_us = (r.completed > 0).then_some(r.p99_latency_us);
    out.busy_cycles = sum(|c| c.busy_cycles);
    out.processed = processed;
    out.count("smp.batches", sum(|c| c.batches) as f64);
    out.count("smp.core_msgs", sum(|c| c.msgs) as f64);
    out.count("smp.busy_cycles", sum(|c| c.busy_cycles) as f64);
    out.count(
        "smp.core_cycles",
        active_cores as f64 * r.span_s * clock_mhz * 1e6,
    );
    out.count("smp.handoff_msgs", o.handoff_msgs as f64);
    out.count("smp.bp_stalls", sum(|c| c.bp_stalls) as f64);
    out.count("smp.bp_stall_cycles", sum(|c| c.bp_stall_cycles) as f64);
    out.count("smp.drops", r.drops as f64);
    out.count("smp.shed", r.shed as f64);
    out.count("cachesim.replay_hits", o.replay.hits as f64);
    out.count("cachesim.replay_misses", o.replay.misses as f64);
    out.count("cachesim.replay_bypasses", o.replay.bypasses as f64);
    out.count("cachesim.imiss", sum(|c| c.imisses) as f64);
    out.count("cachesim.dmiss", sum(|c| c.dmisses) as f64);
    out.count("cachesim.processed", processed as f64);
    out.count("cachesim.l2_transfers", o.coherence.transfers as f64);
    out.count(
        "cachesim.l2_invalidations",
        o.coherence.invalidations as f64,
    );
    out.count("cachesim.l2_stall_cycles", o.coherence.stall_cycles as f64);
    out.digest_str(&format!("{o:?}"));
    out.report = Some(r.clone());
}
