//! Shared sweep plumbing for the simulation figures.
//!
//! [`grid`] fans independent (cell, seed) jobs across
//! `opts.effective_threads()` workers via [`simnet::par::run_indexed`]
//! and hands each cell's results back in seed order, so every reduction
//! — report averages, recorder merges — folds in the same order for any
//! thread count and every CSV is byte-identical to a `--threads 1` run.

use crate::{perf, Observe, Output, RunOpts, Track};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::par::run_indexed;
use simnet::stats::SimReport;
use simnet::traffic::{Arrival, PoissonSource, SelfSimilarSource, TrafficSource};
use simnet::{run_sim, SimConfig};

/// Runs `job(cell, seed)` for every cell × seeds `1..=opts.seeds()`
/// across the worker pool; returns each cell's per-seed results in seed
/// order, cells in input order.
pub fn grid<C, T, F>(opts: &RunOpts, cells: &[C], job: F) -> Vec<Vec<T>>
where
    C: Sync,
    T: Send,
    F: Fn(&C, u64) -> T + Sync,
{
    let seeds = opts.seeds() as usize;
    let mut runs = run_indexed(cells.len() * seeds, opts.effective_threads(), |i| {
        job(&cells[i / seeds], (i % seeds) as u64 + 1)
    })
    .into_iter();
    cells
        .iter()
        .map(|_| runs.by_ref().take(seeds).collect())
        .collect()
}

/// Runs `run(seed)` for seeds `1..=opts.seeds()` across the worker pool
/// and returns the results in seed order.
pub fn per_seed<T, R>(opts: &RunOpts, run: R) -> Vec<T>
where
    T: Send,
    R: Fn(u64) -> T + Sync,
{
    grid(opts, &[()], |_, seed| run(seed))
        .pop()
        .unwrap_or_default()
}

/// Averages `run(seed)` reports over `1..=opts.seeds()`; the reduction
/// folds in seed order, so the average is identical for any thread
/// count.
pub fn seed_average<R>(opts: &RunOpts, run: R) -> SimReport
where
    R: Fn(u64) -> SimReport + Sync,
{
    average(per_seed(opts, run))
}

/// The seed-ordered mean of per-seed reports.
pub fn average(reports: impl IntoIterator<Item = SimReport>) -> SimReport {
    SimReport::average(&reports.into_iter().collect::<Vec<_>>()).expect("at least one seed")
}

/// Element-wise sums of per-seed side metrics, folded in seed order.
pub fn sums<const N: usize>(per_seed: impl IntoIterator<Item = [f64; N]>) -> [f64; N] {
    let mut acc = [0.0f64; N];
    for x in per_seed {
        for (a, v) in acc.iter_mut().zip(x) {
            *a += v;
        }
    }
    acc
}

/// Folds recorders into one, in iteration order.
pub fn merge_recorders(
    recorders: impl IntoIterator<Item = Box<obs::Recorder>>,
) -> Option<Box<obs::Recorder>> {
    recorders.into_iter().reduce(|mut merged, rec| {
        merged.merge(&rec);
        merged
    })
}

/// The disciplines the paper's sweeps compare, with their obs labels:
/// conventional, LDLP, and integrated layer processing — the prior art
/// the paper contrasts with, which helps data-heavy large messages, not
/// small-message code locality.
pub const CONV_LDLP_ILP: [(Discipline, &str); 3] = [
    (Discipline::Conventional, "conv"),
    (Discipline::Ldlp(BatchPolicy::DCacheFit), "ldlp"),
    (Discipline::Ilp, "ilp"),
];

/// [`CONV_LDLP_ILP`] without ILP.
const CONV_LDLP: [(Discipline, &str); 2] = [CONV_LDLP_ILP[0], CONV_LDLP_ILP[1]];

/// Runs each discipline over the same arrivals on a fresh paper stack
/// placed by `seed`, threading `sink` through every run (events are
/// interned as `<label>/<name>`). Returns the reports in discipline
/// order and the sink.
pub fn run_disciplines(
    cfg: MachineConfig,
    disciplines: &[(Discipline, &str)],
    seed: u64,
    arrivals: &[Arrival],
    duration_s: f64,
    mut sink: obs::Sink,
) -> (Vec<SimReport>, obs::Sink) {
    let mut reports = Vec::with_capacity(disciplines.len());
    for &(discipline, label) in disciplines {
        let (machine, layers) = paper_stack(cfg, seed);
        let mut engine = StackEngine::new(machine, layers, discipline);
        engine.set_sink(sink, &format!("{label}/"));
        let sim_cfg = SimConfig {
            duration_s,
            pool_seed: seed,
            ..SimConfig::default()
        };
        reports.push(run_sim(&mut engine, arrivals, &sim_cfg));
        perf::note_machine(engine.machine());
        sink = engine.take_sink();
    }
    (reports, sink)
}

/// One swept point: seed-averaged reports per discipline.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter (arrival rate or clock MHz).
    pub x: f64,
    pub conventional: SimReport,
    pub ldlp: SimReport,
    /// Populated when the sweep includes ILP.
    pub ilp: Option<SimReport>,
}

/// A sweep over one parameter: `point(x, seed)` gives the machine and
/// arrivals of a job, and every job runs `disciplines` on them.
pub struct Sweep<'a, P> {
    xs: &'a [f64],
    disciplines: &'a [(Discipline, &'static str)],
    point: P,
}

impl<P> Sweep<'_, P>
where
    P: Fn(f64, u64) -> (MachineConfig, Vec<Arrival>) + Sync,
{
    /// Runs the sweep; under `metrics` every job records into a metrics
    /// sink and the recorders merge in job order.
    pub fn run(
        &self,
        opts: &RunOpts,
        metrics: bool,
    ) -> (Vec<SweepPoint>, Option<Box<obs::Recorder>>) {
        let duration_s = opts.duration_s();
        let runs = grid(opts, self.xs, |&x, seed| {
            let (cfg, arrivals) = (self.point)(x, seed);
            let sink = if metrics {
                obs::Sink::record(false)
            } else {
                obs::Sink::Off
            };
            let (reports, sink) =
                run_disciplines(cfg, self.disciplines, seed, &arrivals, duration_s, sink);
            (reports, sink.into_recorder())
        });
        let points = self
            .xs
            .iter()
            .zip(&runs)
            .map(|(&x, per_seed)| {
                let avg = |d: usize| average(per_seed.iter().map(|(r, _)| r[d].clone()));
                SweepPoint {
                    x,
                    conventional: avg(0),
                    ldlp: avg(1),
                    ilp: (self.disciplines.len() > 2).then(|| avg(2)),
                }
            })
            .collect();
        let recorder = merge_recorders(runs.into_iter().flatten().filter_map(|(_, rec)| rec));
        (points, recorder)
    }

    /// The registry output of the sweep: one row per point under
    /// `header` in `<name>.csv`, the merged metrics under `--metrics`,
    /// and span-traced runs at the middle point under `--trace`.
    pub fn output(
        &self,
        opts: &RunOpts,
        observe: Observe,
        name: &str,
        header: &'static str,
        row: impl Fn(&SweepPoint) -> Vec<String>,
    ) -> Output {
        let (points, recorder) = self.run(opts, observe.metrics);
        let mid = self.xs[self.xs.len() / 2];
        Output {
            recorder,
            trace: if observe.trace {
                self.traced(opts, mid)
            } else {
                Vec::new()
            },
            ..Output::csv(
                opts.csv_name(name),
                header,
                points.iter().map(row).collect(),
            )
        }
    }

    /// One span-traced run per discipline at `x` (seed 1), for the
    /// chrome trace: one track per discipline.
    pub fn traced(&self, opts: &RunOpts, x: f64) -> Vec<Track> {
        let (cfg, arrivals) = (self.point)(x, 1);
        self.disciplines
            .iter()
            .map(|d| {
                let (_, sink) = run_disciplines(
                    cfg,
                    &[*d],
                    1,
                    &arrivals,
                    opts.duration_s(),
                    obs::Sink::record(true),
                );
                Track {
                    process: d.1.to_string(),
                    recorder: sink.into_recorder().expect("sink was attached"),
                    units_per_us: cfg.clock_mhz, // timestamps are CPU cycles
                }
            })
            .collect()
    }
}

/// Figures 5 and 6: Poisson arrivals of 552-byte messages across
/// `rates` on `cfg`, all three disciplines.
pub fn poisson<'a>(
    opts: &RunOpts,
    cfg: MachineConfig,
    rates: &'a [f64],
) -> Sweep<'a, impl Fn(f64, u64) -> (MachineConfig, Vec<Arrival>) + Sync> {
    let duration_s = opts.duration_s();
    Sweep {
        xs: rates,
        disciplines: &CONV_LDLP_ILP,
        point: move |rate, seed| {
            (
                cfg,
                PoissonSource::new(rate, 552, seed).take_until(duration_s),
            )
        },
    }
}

/// Figure 7: trace-driven self-similar traffic at a fixed offered load
/// across CPU `clocks`, conventional vs. LDLP.
pub fn clock<'a>(
    opts: &RunOpts,
    base: MachineConfig,
    clocks: &'a [f64],
) -> Sweep<'a, impl Fn(f64, u64) -> (MachineConfig, Vec<Arrival>) + Sync> {
    let duration_s = opts.duration_s();
    Sweep {
        xs: clocks,
        disciplines: &CONV_LDLP,
        point: move |mhz, seed| {
            (
                base.with_clock_mhz(mhz),
                SelfSimilarSource::bellcore_like(seed).take_until(duration_s),
            )
        },
    }
}
