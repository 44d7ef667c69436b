//! `paper_1core`: the paper's own experiment. Open loop: Poisson
//! 552-byte messages through one simulated core, {conv, ldlp, ilp} ×
//! the Figure 5/6 rate ladder (500 to 10,000 msg/s), two placements per
//! point. One operation is one cell: build the arrival stream and the
//! paper stack, then `simnet::run_sim`.

use crate::harness::{sub_seed, OpOut, Workload};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};
use std::time::Instant;

/// Simulated seconds of arrivals per cell.
const DURATION_S: f64 = 1.0;
/// Random code/buffer placements per (discipline, rate) point.
const PLACEMENTS: usize = 2;
/// Message size of the Figure 5/6 sweeps.
const MSG_BYTES: u32 = 552;

const DISCIPLINES: [(&str, Discipline); 3] = [
    ("conv", Discipline::Conventional),
    ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
    ("ilp", Discipline::Ilp),
];

fn rates() -> Vec<f64> {
    (1..=20).map(|i| f64::from(i) * 500.0).collect()
}

pub struct Paper1Core {
    seed: u64,
    rates: Vec<f64>,
}

impl Paper1Core {
    pub fn new(seed: u64) -> Self {
        Paper1Core {
            seed,
            rates: rates(),
        }
    }
}

impl Workload for Paper1Core {
    fn ops(&self) -> usize {
        DISCIPLINES.len() * self.rates.len() * PLACEMENTS
    }

    fn run_op(&self, i: usize, traced: bool) -> OpOut {
        let d = i / (self.rates.len() * PLACEMENTS);
        let point = i % (self.rates.len() * PLACEMENTS);
        let rate = self.rates[point / PLACEMENTS];
        let (label, discipline) = DISCIPLINES[d];
        // All three disciplines of a (rate, placement) point see the
        // same arrivals and the same placement, as in the figures.
        let s = sub_seed(self.seed, point as u64);
        let cfg = MachineConfig::synthetic_benchmark();

        let mut out = OpOut {
            group: i / PLACEMENTS,
            ..OpOut::default()
        };
        let t = Instant::now();
        let arrivals = out.time("simnet.traffic_s", || {
            PoissonSource::new(rate, MSG_BYTES, s).take_until(DURATION_S)
        });
        let (mut engine, layer_names) = out.time("ldlp.build_s", || {
            let (machine, layers) = paper_stack(cfg, s);
            let names: Vec<String> = layers.iter().map(|l| l.name().to_string()).collect();
            (StackEngine::new(machine, layers, discipline), names)
        });
        if traced {
            engine.set_sink(obs::Sink::record(false), "");
        }
        out.setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let sim_cfg = SimConfig {
            duration_s: DURATION_S,
            pool_seed: s,
            ..SimConfig::default()
        };
        let report = out.time("simnet.run_sim_s", || {
            run_sim(&mut engine, &arrivals, &sim_cfg)
        });
        out.work_s = t.elapsed().as_secs_f64();

        let machine = engine.machine();
        let stats = machine.stats();
        let replay = machine.replay_stats();
        if !report.conservation_holds() {
            out.fail(format!(
                "{label} rate {rate}: conservation violated: {report:?}"
            ));
        }
        if replay.bypasses > 0 {
            let why = machine
                .replay_bypass_reason()
                .or_else(|| machine.replay_ineligibility())
                .unwrap_or("unknown");
            out.fail(format!(
                "{label} rate {rate}: {} replay bypasses ({why})",
                replay.bypasses
            ));
        }

        let processed = report.completed + report.rejected;
        out.msgs = report.offered;
        out.attempts = report.offered;
        out.useful = report.completed;
        out.p99_us = (report.completed > 0).then_some(report.p99_latency_us);
        out.busy_cycles = machine.cycles();
        out.processed = processed;
        out.count("simnet.run_sim.msgs", report.offered as f64);
        out.count("cachesim.replay_hits", replay.hits as f64);
        out.count("cachesim.replay_misses", replay.misses as f64);
        out.count("cachesim.replay_bypasses", replay.bypasses as f64);
        out.count("cachesim.imiss", stats.icache.misses as f64);
        out.count("cachesim.dmiss", stats.dcache.misses as f64);
        out.count("cachesim.processed", processed as f64);
        out.digest_str(&format!("{report:?}|{stats:?}|{replay:?}"));

        if traced {
            if let Some(rec) = engine.take_sink().into_recorder() {
                for (name, acc) in rec.iter_spans() {
                    let Some(layer) = name
                        .strip_prefix("rx:")
                        .and_then(|n| layer_names.iter().position(|l| l == n))
                    else {
                        continue;
                    };
                    let key = format!("ldlp.{label}.L{}", layer + 1);
                    out.count(format!("{key}.cycles"), acc.cycles as f64);
                    out.count(format!("{key}.imiss"), acc.imisses as f64);
                    out.count(format!("{key}.msgs"), acc.messages as f64);
                }
            }
        }
        out.report = Some(report);
        out
    }
}
