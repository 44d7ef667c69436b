//! Figure 9: multi-core protocol processing — arrival rate × core
//! count × dispatch policy, Conventional vs. LDLP.
//!
//! Each cell runs `crates/smp`'s deterministic N-core simulator:
//! per-core split L1 caches over a shared coherent L2, RSS-style
//! flow hashing / first-seen round-robin / LDLP-aware layer
//! affinity (software pipelining with bounded hand-off queues).
//! Expected shape: with the whole five-layer stack on every core
//! (hash / round-robin dispatch), each private 8 KB I-cache cycles
//! ~30 KB of layer code and the paper's single-core thrashing recurs on
//! N cores at N× the rate; LDLP batching amortises but cannot eliminate
//! it. Layer-affinity dispatch pins 1–2 layers per core so stage code
//! *stays resident*, collapsing I-misses per message — at the price of
//! hand-off queueing and a bottleneck stage that saturates before a
//! round-robin fleet does. The crossover is the figure's headline.

use crate::sweep::{average, grid, merge_recorders, sums};
use crate::{f, Observe, Output, RunOpts, Track};
use ldlp::{BatchPolicy, Discipline};
use simnet::impair::ImpairCounters;
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use smp::{tag_flows, DispatchPolicy, SmpConfig, SmpSim};

/// Paper workload: 552-byte signalling-sized messages.
pub const MSG_BYTES: u32 = 552;

/// Synthetic flow population per run — enough concurrent flows that
/// hashing can spread load over eight cores.
pub const FLOWS: u32 = 64;

/// One (discipline, dispatch) curve in the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Discipline label used in the CSV (`conv` / `ldlp`).
    pub discipline_label: &'static str,
    pub discipline: Discipline,
    /// Dispatch label used in the CSV (`hash` / `rr` / `aff`).
    pub dispatch_label: &'static str,
    pub dispatch: DispatchPolicy,
}

/// The six swept curves: {Conventional, LDLP} × {hash, rr, aff}.
pub fn variants() -> [Variant; 6] {
    let ldlp = Discipline::Ldlp(BatchPolicy::DCacheFit);
    let v = |discipline_label, discipline, dispatch_label, dispatch| Variant {
        discipline_label,
        discipline,
        dispatch_label,
        dispatch,
    };
    [
        v(
            "conv",
            Discipline::Conventional,
            "hash",
            DispatchPolicy::FlowHash,
        ),
        v(
            "conv",
            Discipline::Conventional,
            "rr",
            DispatchPolicy::RoundRobin,
        ),
        v(
            "conv",
            Discipline::Conventional,
            "aff",
            DispatchPolicy::LayerAffinity,
        ),
        v("ldlp", ldlp, "hash", DispatchPolicy::FlowHash),
        v("ldlp", ldlp, "rr", DispatchPolicy::RoundRobin),
        v("ldlp", ldlp, "aff", DispatchPolicy::LayerAffinity),
    ]
}

/// Core counts swept (smoke keeps the 1-vs-4 contrast only).
pub fn core_counts(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

/// Arrival rates swept (msg/s). The full grid spans light load
/// through single-core saturation up past the affinity pipeline's
/// bottleneck-stage capacity, so the round-robin/affinity crossover
/// at high core counts is visible.
pub fn rates(smoke: bool) -> &'static [f64] {
    if smoke {
        &[4000.0, 20000.0]
    } else {
        &[2000.0, 6000.0, 12000.0, 20000.0, 28000.0, 36000.0]
    }
}

/// One (rate, cores, variant) cell's seed-averaged measurements.
#[derive(Debug, Clone)]
pub struct Figure9Point {
    pub rate: f64,
    pub cores: usize,
    pub variant: Variant,
    pub report: SimReport,
    /// Means of dirty-line transfers between cores in the shared L2,
    /// cross-core invalidations on shared-table writes, cycles stalled
    /// on L2/coherence traffic, and messages crossing an inter-core
    /// hand-off queue.
    pub extras: [f64; 4],
}

type Job = (SimReport, [f64; 4], Vec<(String, Box<obs::Recorder>)>);

/// One (rate, cores, variant) run at `seed`; `sinks` attaches per-core
/// recorders (`Some(collect_spans)`), returned as `(core name, recorder)`.
fn run_cell(
    rate: f64,
    cores: usize,
    variant: &Variant,
    seed: u64,
    duration_s: f64,
    sinks: Option<bool>,
) -> Job {
    let raw = PoissonSource::new(rate, MSG_BYTES, seed).take_until(duration_s);
    let arrivals = tag_flows(&raw, FLOWS, seed);
    let cfg = SmpConfig {
        duration_s,
        placement_seed: seed,
        ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
    };
    let mut sim = SmpSim::new(&cfg);
    if let Some(collect_spans) = sinks {
        sim.set_sinks(collect_spans);
    }
    sim.run(&arrivals);
    let out = sim.outcome(ImpairCounters::default());
    crate::perf::note_replay(&out.replay);
    let extras = [
        out.coherence.transfers as f64,
        out.coherence.invalidations as f64,
        out.coherence.stall_cycles as f64,
        out.handoff_msgs as f64,
    ];
    let recorders = if sinks.is_some() {
        sim.take_recorders()
    } else {
        Vec::new()
    };
    (out.report, extras, recorders)
}

/// The sweep: every (rate, cores) cell × six variants × the seeds,
/// averaged per variant in seed order. Under `metrics`, per-core
/// recorders fold per job (core order) then across jobs (index
/// order), so the merged document is thread-count invariant.
pub fn sweep(opts: &RunOpts, metrics: bool) -> (Vec<Figure9Point>, Option<Box<obs::Recorder>>) {
    let mut cells = Vec::new();
    for &rate in rates(opts.smoke) {
        for &cores in core_counts(opts.smoke) {
            for v in variants() {
                cells.push((rate, cores, v));
            }
        }
    }
    let runs = grid(opts, &cells, |&(rate, cores, v), seed| {
        run_cell(
            rate,
            cores,
            &v,
            seed,
            opts.duration_s(),
            metrics.then_some(false),
        )
    });
    let n = opts.seeds() as f64;
    let points = cells
        .iter()
        .zip(&runs)
        .map(|(&(rate, cores, variant), per_seed)| Figure9Point {
            rate,
            cores,
            variant,
            report: average(per_seed.iter().map(|job| job.0.clone())),
            extras: sums(per_seed.iter().map(|job| job.1)).map(|a| a / n),
        })
        .collect();
    let recorder = merge_recorders(
        runs.into_iter()
            .flatten()
            .flat_map(|job| job.2)
            .map(|(_, r)| r),
    );
    (points, recorder)
}

/// Span-traced runs at one representative cell, for the chrome trace:
/// each (discipline, dispatch) variant contributes one track per
/// core, named `<disc>-<disp>/core<i>`.
pub fn traced(opts: &RunOpts, rate: f64, cores: usize) -> Vec<Track> {
    let mut out = Vec::new();
    for v in variants() {
        let cfg = SmpConfig::new(cores, v.dispatch, v.discipline);
        let (_, _, recorders) = run_cell(rate, cores, &v, 1, opts.duration_s(), Some(true));
        for (name, recorder) in recorders {
            out.push(Track {
                process: format!("{}-{}/{}", v.discipline_label, v.dispatch_label, name),
                recorder,
                units_per_us: cfg.machine.clock_mhz, // timestamps are CPU cycles
            });
        }
    }
    out
}

/// CSV schema: one row per (rate, cores, discipline, dispatch).
pub const FIGURE9_HEADER: &str = "rate,cores,discipline,dispatch,imiss_per_msg,dmiss_per_msg,\
                                  mean_latency_us,p99_latency_us,throughput,goodput,drops,shed,\
                                  mean_batch,l2_transfers,l2_invalidations,l2_stall_cycles,\
                                  handoff_msgs";

/// The `figure9` registry entry: the sweep's CSV, plus metrics and a
/// trace of the heaviest rate at four cores — the contrast the figure
/// is about — when asked.
pub fn run(opts: &RunOpts, observe: Observe) -> Output {
    let (points, recorder) = sweep(opts, observe.metrics);
    let rows = points
        .iter()
        .map(|p| {
            let r = &p.report;
            vec![
                f(p.rate, 0),
                p.cores.to_string(),
                p.variant.discipline_label.to_string(),
                p.variant.dispatch_label.to_string(),
                f(r.mean_imiss, 2),
                f(r.mean_dmiss, 2),
                f(r.mean_latency_us, 1),
                f(r.p99_latency_us, 1),
                f(r.throughput, 0),
                f(r.goodput, 0),
                r.drops.to_string(),
                r.shed.to_string(),
                f(r.mean_batch, 3),
                f(p.extras[0], 1),
                f(p.extras[1], 1),
                f(p.extras[2], 0),
                f(p.extras[3], 1),
            ]
        })
        .collect();
    let heaviest = rates(opts.smoke).last().copied().unwrap_or_default();
    Output {
        recorder,
        trace: if observe.trace {
            traced(opts, heaviest, 4)
        } else {
            Vec::new()
        },
        ..Output::csv(opts.csv_name("figure9"), FIGURE9_HEADER, rows)
    }
}
