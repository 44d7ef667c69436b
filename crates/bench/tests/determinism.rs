//! Thread-count invariance of everything the experiments write: every
//! registry entry, run through the `bench` binary on a reduced grid at
//! `--threads 1` and `--threads 4`, must write byte-identical files
//! (CSVs, SVG, metrics and trace documents). Iterating the registry
//! means a new experiment cannot be left out. The shared sweep runners
//! are also checked in-process, down to the bits of their averages.

use bench::sweep::{poisson, run_disciplines, seed_average, CONV_LDLP_ILP};
use bench::{experiment, Flag, Observe, RunOpts, EXPERIMENTS};
use cachesim::MachineConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-determinism-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every file under `dir` except the perf fragments (which record the
/// thread count), keyed by path relative to `dir`.
fn outputs(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("output dir") {
            let path = entry.expect("dir entry").path();
            let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
            if path.is_dir() {
                if rel != Path::new("perf") {
                    stack.push(path);
                }
            } else {
                out.insert(rel, std::fs::read(&path).expect("read output"));
            }
        }
    }
    out
}

#[test]
fn every_experiment_is_thread_count_invariant() {
    for e in EXPERIMENTS {
        // Two seeds, so the seed-order reductions are exercised; the
        // smoke grid, metrics and trace wherever they exist.
        let mut args: Vec<&str> = vec![e.name];
        for (flag, extra) in [
            (Flag::Seeds, &["--seeds", "2"][..]),
            (Flag::Duration, &["--duration", "0.1"]),
            (Flag::Smoke, &["--smoke"]),
            (Flag::Metrics, &["--metrics"]),
            (Flag::Trace, &["--trace"]),
        ] {
            if e.supports(flag) {
                args.extend(extra);
            }
        }
        let run = |threads: &str| {
            let dir = scratch(&format!("{}-{threads}", e.name));
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
            cmd.args(&args).arg("--out").arg(&dir);
            if e.supports(Flag::Threads) {
                cmd.args(["--threads", threads]);
            }
            let status = cmd.output().expect("spawn bench").status;
            assert!(
                status.success(),
                "{args:?} --threads {threads} failed: {status}"
            );
            let files = outputs(&dir);
            std::fs::remove_dir_all(&dir).ok();
            files
        };
        let serial = run("1");
        let parallel = run("4");
        assert!(!serial.is_empty(), "{} wrote nothing", e.name);
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            parallel.keys().collect::<Vec<_>>(),
            "{}: different files by thread count",
            e.name
        );
        for (path, bytes) in &serial {
            assert!(
                parallel[path] == *bytes,
                "{}: {} differs between 1 and 4 threads",
                e.name,
                path.display()
            );
        }
    }
}

fn reduced_opts(threads: usize) -> RunOpts {
    RunOpts {
        seeds: Some(3),
        duration_s: Some(0.05),
        threads: Some(threads),
        ..RunOpts::default()
    }
}

/// `name`'s first CSV, run in-process on the reduced options.
fn csv_in_process(name: &str, opts: &RunOpts) -> String {
    let e = experiment(name).expect("registered");
    (e.run)(&e.resolve(opts), Observe::default())
        .csvs
        .remove(0)
        .text()
}

#[test]
fn poisson_sweep_csv_is_thread_count_invariant() {
    // The shared sweep runner in-process, through the figure 5 and 6
    // entries that share it.
    for name in ["figure5", "figure6"] {
        let serial = csv_in_process(name, &reduced_opts(1));
        assert_eq!(
            serial,
            csv_in_process(name, &reduced_opts(4)),
            "{name} CSV differs by thread count"
        );
        assert_eq!(serial.lines().count(), 20 + 1, "{name}: one row per rate");
    }
}

#[test]
fn clock_sweep_csv_is_thread_count_invariant() {
    let serial = csv_in_process("figure7", &reduced_opts(1));
    assert_eq!(
        serial,
        csv_in_process("figure7", &reduced_opts(4)),
        "figure7 CSV differs by thread count"
    );
    assert_eq!(serial.lines().count(), 11 + 1, "one row per clock");
}

#[test]
fn impairment_sweep_csv_is_thread_count_invariant() {
    use bench::impairments::{grid, impairment_sweep};

    let opts = |threads| RunOpts {
        seeds: Some(1),
        duration_s: Some(0.05),
        threads: Some(threads),
        smoke: true,
    };
    let text = csv_in_process("impairments", &opts(1));
    assert_eq!(
        text,
        csv_in_process("impairments", &opts(4)),
        "impairments CSV differs by thread count"
    );
    assert_eq!(text.lines().count(), grid(true).len() + 1);
    let serial = impairment_sweep(&opts(1));
    // The lossy cells really did lose and recover: the zero-loss rows
    // must show no retransmissions, the 10% rows must show plenty.
    assert_eq!(serial[0].recovery.retransmits, 0);
    let lossy = serial
        .iter()
        .find(|p| p.cell.loss_pct == 10.0)
        .expect("a 10% loss cell");
    assert!(lossy.recovery.retransmits > 0);
    assert!(lossy.conventional.goodput <= lossy.conventional.throughput);
}

#[test]
fn seed_average_is_thread_count_invariant() {
    use simnet::traffic::{PoissonSource, TrafficSource};

    let run = |opts: &RunOpts| {
        seed_average(opts, |seed| {
            let arrivals = PoissonSource::new(4000.0, 552, seed).take_until(opts.duration_s());
            let cfg = MachineConfig::synthetic_benchmark();
            let (mut reports, _) = run_disciplines(
                cfg,
                &CONV_LDLP_ILP[..1],
                seed,
                &arrivals,
                opts.duration_s(),
                obs::Sink::Off,
            );
            reports.remove(0)
        })
    };
    let serial = run(&reduced_opts(1));
    let parallel = run(&reduced_opts(4));
    // f64 averages must match exactly, not approximately: the reduction
    // order is fixed by seed, not by completion.
    assert_eq!(
        serial.mean_latency_us.to_bits(),
        parallel.mean_latency_us.to_bits()
    );
    assert_eq!(serial.mean_imiss.to_bits(), parallel.mean_imiss.to_bits());
    assert_eq!(serial.drops, parallel.drops);
}

/// `name`'s smoke-grid CSV at 1, 2 and 8 threads, asserted identical;
/// returns the serial text for the caller's sanity checks.
fn smoke_csv_at_1_2_8(name: &str) -> String {
    let run = |threads| {
        let opts = RunOpts {
            smoke: true,
            ..reduced_opts(threads)
        };
        csv_in_process(name, &opts)
    };
    let serial = run(1);
    assert_eq!(serial, run(2), "{name} CSV differs between 1 and 2 threads");
    assert_eq!(serial, run(8), "{name} CSV differs between 1 and 8 threads");
    serial
}

#[test]
fn figure9_csv_is_thread_count_invariant() {
    // The smoke grid (2 rates × {1, 4} cores × 6 variants) exercises
    // flow hashing, round-robin, and the layer-affinity pipeline with
    // cross-core hand-offs — the cases where worker scheduling could
    // leak into results if the multi-core event loop were not
    // deterministic.
    let serial = smoke_csv_at_1_2_8("figure9");
    // Sanity: every (cell, variant) row is present and carries data.
    assert_eq!(serial.lines().count(), 2 * 2 * 6 + 1);
    assert!(serial.contains(",aff,"), "layer-affinity rows present");
}

#[test]
fn figure10_csv_is_thread_count_invariant() {
    // The smoke grid (2 populations × 2 disciplines × 3 lookup schemes)
    // exercises the flow-table probe charging and the seeded
    // random-eviction cache — the paths where worker scheduling could
    // leak into results if the lookup hook were not deterministic.
    let serial = smoke_csv_at_1_2_8("figure10");
    // Sanity: every (cell, variant) row is present and carries data.
    assert_eq!(serial.lines().count(), 2 * 2 * 3 + 1);
    assert!(serial.contains(",fifo,"), "FIFO-cache rows present");
    assert!(serial.contains(",rand,"), "random-eviction rows present");
}

#[test]
fn figure13_csv_is_thread_count_invariant() {
    // The smoke grid (2 loads × 2 variants × 4 admission policies × 2
    // retry budgets) exercises the closed-loop driver end to end: the
    // client-event/acknowledgement frontier, weighted-fair admission,
    // and the stall-the-producer hand-off path — the places where
    // worker scheduling could leak into results if acknowledgement
    // delivery were not causally ordered.
    let serial = smoke_csv_at_1_2_8("figure13");
    // Sanity: every cell is present and the grid carries both budgets
    // and all four admission policies.
    assert_eq!(serial.lines().count(), 2 * 2 * 4 * 2 + 1);
    assert!(serial.contains(",wfq,"), "weighted-fair rows present");
    assert!(serial.contains(",off,"), "unbudgeted-retry rows present");
}

#[test]
fn figure14_csv_is_thread_count_invariant() {
    // The smoke grid ({1, 4} cores × {conv, ldlp, aff}) drives the
    // mixed five-class stream through per-class accounting — the
    // machine-stats delta attribution and class-sample percentile
    // paths, where worker scheduling could leak into results if the
    // per-class tallies were not reduced in deterministic order.
    let serial = smoke_csv_at_1_2_8("figure14");
    // Sanity: one row per (cell, class), and every class label shows up.
    assert_eq!(serial.lines().count(), 2 * 3 * 5 + 1);
    for label in ["sig", "rpc", "media", "dns", "agent"] {
        assert!(serial.contains(&format!(",{label},")), "{label} rows present");
    }
}

#[test]
fn metrics_json_is_thread_count_invariant() {
    let rates = [2000.0, 9000.0];
    let cfg = MachineConfig::synthetic_benchmark();
    let run = |threads| {
        let opts = reduced_opts(threads);
        let (_, rec) = poisson(&opts, cfg, &rates).run(&opts, true);
        let rec = rec.expect("metrics recorder");
        obs::metrics::metrics_json(&[("experiment", "determinism-test".into())], &rec)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "metrics JSON differs by thread count");
    // The document really carries per-layer spans and value histograms.
    assert!(serial.contains("\"ldlp/rx:"), "per-layer span entries");
    assert!(serial.contains("\"ldlp/latency_us\""), "latency histogram");
    assert!(serial.contains("\"conv/batch\""), "batch spans");
}

#[test]
fn traced_run_produces_chrome_trace_events() {
    let cfg = MachineConfig::synthetic_benchmark();
    let opts = reduced_opts(1);
    let rates = [6000.0];
    let traced = poisson(&opts, cfg, &rates).traced(&opts, 6000.0);
    assert_eq!(traced.len(), 3, "conventional, ldlp, ilp");
    for t in &traced {
        assert!(
            !t.recorder.events().is_empty(),
            "{} collected span events",
            t.process
        );
    }
    let parts: Vec<obs::TracePart> = traced
        .iter()
        .map(|t| obs::TracePart {
            process: &t.process,
            recorder: &t.recorder,
            units_per_us: t.units_per_us,
        })
        .collect();
    let json = obs::trace::chrome_trace_json(&parts);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""), "complete events present");
    assert!(json.contains("ldlp/rx:"), "layer span names present");
}
