//! `closed_overload`: closed loop. 600 retrying clients in three
//! classes against a 4-core server, loads {0.5, 1, 2, 3}× capacity ×
//! {conv/hash, ldlp/aff with StallProducer} × {tail, shed, wfq} × retry
//! budget {on, off} (figure13's configuration), two populations per
//! cell. One operation is one cell and population: build the population
//! and the simulator, `run_closed`, assemble the outcome.

use crate::harness::{sub_seed, OpOut, Workload};
use crate::mixed_smp::record_smp;
use ldlp::{AdmissionPolicy, BatchPolicy, Discipline};
use simnet::closed::{Class, ClosedPopulation};
use simnet::ClosedConfig;
use smp::{DispatchPolicy, HandoffFlowControl, SmpConfig, SmpSim};
use std::time::Instant;

const CORES: usize = 4;
const CLIENTS: u32 = 600;
/// Simulated seconds during which clients start requests.
const DURATION_S: f64 = 0.25;
/// Client populations (seeds) per cell.
const REPS: usize = 2;
/// Weighted-fair admission shares, in `Class::ALL` order.
const WEIGHTS: [u32; Class::COUNT] = [4, 2, 1];
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

/// (label, discipline, dispatch, flow control, capacity in msg/s): the
/// load axis is relative to each build's measured capacity (figure13).
const VARIANTS: [(&str, Discipline, DispatchPolicy, HandoffFlowControl, f64); 2] = [
    (
        "conv",
        Discipline::Conventional,
        DispatchPolicy::FlowHash,
        HandoffFlowControl::SizeToFree,
        14_000.0,
    ),
    (
        "ldlp",
        Discipline::Ldlp(BatchPolicy::DCacheFit),
        DispatchPolicy::LayerAffinity,
        HandoffFlowControl::StallProducer,
        20_000.0,
    ),
];

const ADMISSIONS: [(&str, AdmissionPolicy); 3] = [
    ("tail", AdmissionPolicy::TailDrop),
    ("shed", AdmissionPolicy::ShedOldest { down_to: 64 }),
    ("wfq", AdmissionPolicy::WeightedFair),
];

pub struct ClosedOverload {
    seed: u64,
}

impl ClosedOverload {
    pub fn new(seed: u64) -> Self {
        ClosedOverload { seed }
    }
}

impl Workload for ClosedOverload {
    fn ops(&self) -> usize {
        LOADS.len() * VARIANTS.len() * ADMISSIONS.len() * 2 * REPS
    }

    fn run_op(&self, i: usize, traced: bool) -> OpOut {
        let cell = i / REPS;
        let budget_on = cell.is_multiple_of(2);
        let (adm_label, admission) = ADMISSIONS[(cell / 2) % ADMISSIONS.len()];
        let (label, discipline, dispatch, flow_control, capacity) =
            VARIANTS[(cell / (2 * ADMISSIONS.len())) % VARIANTS.len()];
        let load = LOADS[cell / (2 * ADMISSIONS.len() * VARIANTS.len())];
        let s = sub_seed(self.seed, i as u64);

        let mut out = OpOut {
            group: cell,
            ..OpOut::default()
        };
        let t = Instant::now();
        let mut pop = out.time("simnet.traffic_s", || {
            // N clients with mean think time Z offer N / (Z + R); sizing
            // Z = N / target hits the target when responses are fast.
            let think_s = f64::from(CLIENTS) / (load * capacity);
            let mut pc = ClosedConfig::new(CLIENTS, think_s, DURATION_S, s);
            pc.retry_budget_on = budget_on;
            ClosedPopulation::new(&pc)
        });
        let cfg = SmpConfig {
            duration_s: DURATION_S,
            placement_seed: s,
            admission,
            flow_control,
            handoff_cap: 4,
            ..SmpConfig::new(CORES, dispatch, discipline)
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
        out.time("smp.run_closed_s", || sim.run_closed(&mut pop, WEIGHTS));
        let outcome = out.time("smp.outcome_s", || sim.outcome(pop.channel_counters()));
        out.work_s = t.elapsed().as_secs_f64();
        if traced {
            drop(sim.take_recorders());
        }

        let where_ = format!(
            "load {load} {label} {adm_label} budget {}",
            if budget_on { "on" } else { "off" }
        );
        let r = &outcome.report;
        let st = pop.stats();
        if !r.conservation_holds() {
            out.fail(format!("{where_}: conservation violated: {r:?}"));
        }
        // Per-class buckets close: class-split losses add up to the
        // report's, and the class-split client books to the totals.
        let shed: u64 = outcome.shed_by_class.iter().sum();
        let drops: u64 = outcome.drops_by_class.iter().sum();
        let requests: u64 = st.per_class_requests.iter().sum();
        let useful: u64 = st.per_class_useful.iter().sum();
        if shed != r.shed || drops != r.drops || requests != st.requests || useful != st.useful {
            out.fail(format!(
                "{where_}: class buckets do not close: shed {shed}/{} drops {drops}/{} \
                 requests {requests}/{} useful {useful}/{}",
                r.shed, r.drops, st.requests, st.useful
            ));
        }
        if st.useful != r.completed || st.transmissions < st.requests {
            out.fail(format!(
                "{where_}: client and server books disagree: useful {} completed {} \
                 transmissions {} requests {}",
                st.useful, r.completed, st.transmissions, st.requests
            ));
        }

        out.msgs = r.offered;
        out.attempts = st.requests;
        out.useful = st.useful;
        out.count("smp.run_closed.msgs", r.offered as f64);
        out.count("simnet.closed.requests", st.requests as f64);
        out.count("simnet.closed.transmissions", st.transmissions as f64);
        out.count("simnet.closed.abandoned", st.abandoned_requests as f64);
        out.count("simnet.closed.useful", st.useful as f64);
        out.digest_str(&format!("{st:?}"));
        record_smp(
            &mut out,
            &outcome,
            sim.active_cores(),
            cfg.machine.clock_mhz,
            &where_,
        );
        out
    }
}
