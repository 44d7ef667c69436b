//! Figure 14: several stacks interleaved — the mixed multi-protocol
//! service, class by class, Conventional vs. LDLP vs. LDLP with
//! layer-affinity dispatch.
//!
//! Figures 5–13 drive one protocol at a time; a production
//! small-message box interleaves several. Each cell here feeds one
//! deterministic mixed stream (`crates/workload`: call signalling,
//! service RPC, media control, DNS, and CBOR agent messaging, each
//! heavy-tailed within its own size band) through the N-core
//! simulator with the per-class service profiles of
//! [`workload::profiles`], and reports *per class*: p50/p99
//! latency, I-misses per message, and attainment against the
//! class's latency SLO. The interleaving is the point — five
//! handler footprints take turns evicting each other, so the
//! conventional rows pay the paper's cold-cache tax on every class
//! boundary while LDLP batching and layer-affinity placement keep
//! hot code resident. The per-class view shows who pays: the
//! tight-SLO media-control class cares about the p99 the agent
//! class's fat handler inflicts on it.
//!
//! The sweep fans independent (cell, seed) jobs across worker
//! threads and reduces in deterministic index order, so the CSV is
//! byte-identical for any `--threads` value.

use crate::sweep::{average, grid, merge_recorders};
use crate::{f, Observe, Output, RunOpts};
use ldlp::{BatchPolicy, Discipline};
use simnet::impair::ImpairCounters;
use simnet::stats::{ClassReport, SimReport};
use simnet::{DispatchPolicy, SmpConfig, SmpSim, MAX_WCLASS};
use workload::{
    class_counts, evaluate, generate, profiles, to_flow_arrivals, MixConfig, WireClass,
};

/// Aggregate offered load of the mixed stream (msg/s). Chosen so a
/// single core saturates and eight cores do not: the figure's axis
/// is how each variant shares the recovery among the classes.
pub const RATE_MSG_S: f64 = 12_000.0;

/// Synthetic flow population, split into five equal per-class bands
/// by [`workload::to_flow_arrivals`].
pub const FLOWS: u32 = 80;

/// One (discipline, dispatch) server build.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// CSV label (`conv` / `ldlp` / `aff`).
    pub label: &'static str,
    pub discipline: Discipline,
    pub dispatch: DispatchPolicy,
}

/// The three builds the figure contrasts: conventional per-message
/// processing, LDLP batching, and LDLP under layer-affinity
/// dispatch — both LDLP rows use RSS-style flow hashing except the
/// affinity row, whose dispatch *is* the variant.
pub fn variants() -> [Variant; 3] {
    [
        Variant {
            label: "conv",
            discipline: Discipline::Conventional,
            dispatch: DispatchPolicy::FlowHash,
        },
        Variant {
            label: "ldlp",
            discipline: Discipline::Ldlp(BatchPolicy::DCacheFit),
            dispatch: DispatchPolicy::FlowHash,
        },
        Variant {
            label: "aff",
            discipline: Discipline::Ldlp(BatchPolicy::DCacheFit),
            dispatch: DispatchPolicy::LayerAffinity,
        },
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

type Job = (
    SimReport,
    Vec<ClassReport>,
    Vec<(String, Box<obs::Recorder>)>,
);

fn run_cell(cores: usize, variant: &Variant, seed: u64, duration_s: f64, observe: bool) -> Job {
    let mix = MixConfig::service_mix(RATE_MSG_S, duration_s, seed);
    let stream = generate(&mix);
    let counts = class_counts(&stream);
    let arrivals = to_flow_arrivals(&stream, FLOWS, seed);
    let cfg = SmpConfig {
        duration_s,
        placement_seed: seed,
        wclass: profiles(),
        ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
    };
    let mut sim = SmpSim::new(&cfg);
    if observe {
        sim.set_sinks(false);
    }
    sim.run(&arrivals);
    let out = sim.outcome(ImpairCounters::default());
    crate::perf::note_replay(&out.replay);
    assert!(
        out.report.conservation_holds(),
        "figure14 cell violates conservation: cores={cores} variant={}",
        variant.label
    );
    for c in WireClass::ALL {
        let r = out
            .classes
            .get(c.index())
            .unwrap_or_else(|| panic!("figure14: missing class report for {c:?}"));
        assert_eq!(
            r.offered,
            counts[c.index()],
            "figure14: {c:?} offered diverges from the generator (cores={cores} variant={})",
            variant.label
        );
        assert_eq!(
            r.offered,
            r.completed + r.rejected + r.drops + r.shed,
            "figure14: {c:?} buckets do not close (cores={cores} variant={})",
            variant.label
        );
    }
    let recorders = if observe {
        sim.take_recorders()
    } else {
        Vec::new()
    };
    (out.report, out.classes, recorders)
}

/// One (cores, variant) cell's seed-averaged measurements.
#[derive(Debug, Clone)]
pub struct Figure14Point {
    pub cores: usize,
    pub variant: Variant,
    pub report: SimReport,
    /// Per-class reports indexed by class id (index 0 unused).
    pub classes: Vec<ClassReport>,
}

/// The sweep: every (cores, variant) cell × the seeds' mixed streams,
/// averaged per cell in seed order. Under `metrics`, per-core recorders
/// fold in job and core order, so the merged document is thread-count
/// invariant; with the class profiles installed they carry the
/// per-class `w<id>/latency_us` histograms.
pub fn sweep(opts: &RunOpts, metrics: bool) -> (Vec<Figure14Point>, Option<Box<obs::Recorder>>) {
    let mut cells: Vec<(usize, Variant)> = Vec::new();
    for &cores in core_counts(opts.smoke) {
        for v in variants() {
            cells.push((cores, v));
        }
    }
    let runs = grid(opts, &cells, |&(cores, variant), seed| {
        run_cell(cores, &variant, seed, opts.duration_s(), metrics)
    });
    let points = cells
        .iter()
        .zip(&runs)
        .map(|(&(cores, variant), per_seed)| {
            let classes = (0..MAX_WCLASS)
                .map(|w| {
                    let of_class: Vec<ClassReport> = per_seed
                        .iter()
                        .filter_map(|job| job.1.get(w).copied())
                        .collect();
                    ClassReport::average(&of_class).unwrap_or_default()
                })
                .collect();
            Figure14Point {
                cores,
                variant,
                report: average(per_seed.iter().map(|job| job.0.clone())),
                classes,
            }
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

/// CSV schema: one row per (cores, variant, class).
pub const FIGURE14_HEADER: &str = "cores,variant,class,offered,completed,rejected,drops,shed,\
                                   p50_latency_us,p99_latency_us,imiss_per_msg,dmiss_per_msg,\
                                   slo_us,slo_attainment,slo_met";

/// Rows for [`FIGURE14_HEADER`].
pub fn figure14_rows(points: &[Figure14Point]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for p in points {
        let verdicts = evaluate(&p.classes);
        for c in WireClass::ALL {
            let Some(r) = p.classes.get(c.index()) else {
                continue;
            };
            let met = verdicts
                .iter()
                .find(|v| v.class == c)
                .map(|v| if v.met { "yes" } else { "no" })
                .unwrap_or("n/a");
            rows.push(vec![
                p.cores.to_string(),
                p.variant.label.to_string(),
                c.label().to_string(),
                r.offered.to_string(),
                r.completed.to_string(),
                r.rejected.to_string(),
                r.drops.to_string(),
                r.shed.to_string(),
                f(r.p50_latency_us, 1),
                f(r.p99_latency_us, 1),
                f(r.mean_imiss, 2),
                f(r.mean_dmiss, 2),
                f(r.slo_us, 0),
                f(r.slo_attainment, 4),
                met.to_string(),
            ]);
        }
    }
    rows
}

/// The `figure14` registry entry.
pub fn run(opts: &RunOpts, observe: Observe) -> Output {
    let (points, recorder) = sweep(opts, observe.metrics);
    Output {
        recorder,
        ..Output::csv(
            opts.csv_name("figure14"),
            FIGURE14_HEADER,
            figure14_rows(&points),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOpts {
        RunOpts {
            seeds: Some(1),
            duration_s: Some(0.05),
            smoke: true,
            threads: Some(2),
        }
    }

    #[test]
    fn smoke_grid_shape_and_per_class_coverage() {
        // run_cell asserts per-class conservation per seed; this
        // test checks the grid shape and that every class carries
        // real traffic in every cell.
        let points = sweep(&tiny_opts(), false).0;
        assert_eq!(points.len(), 2 * 3, "cores x variants");
        let rows = figure14_rows(&points);
        assert_eq!(rows.len(), points.len() * WireClass::ALL.len());
        assert!(rows
            .iter()
            .all(|r| r.len() == FIGURE14_HEADER.split(',').count()));
        for p in &points {
            for c in WireClass::ALL {
                let r = &p.classes[c.index()];
                assert!(
                    r.offered > 0,
                    "{c:?} absent at {}x{}",
                    p.cores,
                    p.variant.label
                );
                assert!(
                    (0.0..=1.0).contains(&r.slo_attainment),
                    "attainment out of range"
                );
            }
        }
    }

    #[test]
    fn saturated_single_core_recovers_with_cores() {
        // One core at 12k msg/s of mixed traffic is past saturation
        // for every build (queueing dominates the tail); four cores
        // recover the tail, and the interleaving tax shows up as the
        // conventional build's I-miss rate staying flat while
        // affinity collapses it. The per-class view must agree with
        // the aggregate.
        let points = sweep(&tiny_opts(), false).0;
        let total = |p: &Figure14Point| p.classes.iter().map(|c| c.completed).sum::<u64>();
        let find = |cores: usize, label: &str| {
            points
                .iter()
                .find(|p| p.cores == cores && p.variant.label == label)
                .expect("grid point")
        };
        for v in variants() {
            let one = find(1, v.label);
            let four = find(4, v.label);
            assert!(
                four.report.p99_latency_us < one.report.p99_latency_us,
                "{}: 4 cores should cut the saturated single-core tail",
                v.label
            );
            assert_eq!(
                total(one),
                one.report.completed,
                "class tallies cover the run"
            );
            assert_eq!(total(four), four.report.completed);
        }
        let conv = find(4, "conv");
        let aff = find(4, "aff");
        for c in WireClass::ALL {
            assert!(
                aff.classes[c.index()].mean_imiss < conv.classes[c.index()].mean_imiss,
                "{c:?}: affinity should cut per-class I-misses"
            );
        }
    }
}
