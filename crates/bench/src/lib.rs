//! # bench — experiment harnesses
//!
//! Every table and figure of the paper (see DESIGN.md's per-experiment
//! index) is one entry of the [`EXPERIMENTS`] registry, run by the
//! crate's single binary:
//!
//! ```text
//! cargo run --release -p bench -- <experiment>|all|goldens|gate [flags]
//! ```
//!
//! An entry supplies its name, the flags it honours, its default seed
//! count and duration, its smoke golden and perf-gate run (if any), the
//! CSV columns to print, and a `run` function that returns its output
//! files. The driver ([`driver`]) owns everything else: flag parsing
//! (a flag the entry does not honour is a usage error, exit 2), the
//! printed table, CSV/SVG writing, perf fragments and the
//! `metrics/<name>.json` / `trace/<name>.json` exports.
//!
//! Flags (each entry lists the subset it honours; `--out` is universal):
//!
//! * `--seeds N` — random placements to average over (paper: 100).
//! * `--duration S` — simulated seconds per point (paper: 1.0).
//! * `--out DIR` — output directory (default `results/`).
//! * `--threads N` — worker threads for the sweep runner (default: the
//!   `SMP_THREADS` environment variable, else all host cores). Output is
//!   byte-identical for every thread count.
//! * `--smoke` — the reduced CI grid, written as `<name>_smoke.csv`.
//! * `--metrics` — deterministic per-layer metrics, merged in seed order.
//! * `--trace` — a chrome://tracing file from a span-traced rerun of one
//!   representative point.

pub mod ablations;
pub mod driver;
pub mod figure10;
pub mod figure13;
pub mod figure14;
pub mod figure9;
pub mod impairments;
pub mod paper;
pub mod sweep;

/// Experiment options after flag parsing. `None` fields fall back to
/// the registry entry's defaults ([`Experiment::resolve`]).
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Number of seeded random placements to average over.
    pub seeds: Option<u64>,
    /// Simulated duration per point, seconds.
    pub duration_s: Option<f64>,
    /// Worker threads for the sweep runner; `None` defers to
    /// `SMP_THREADS`, then to the host's available parallelism.
    pub threads: Option<usize>,
    /// Reduced CI configuration (fewer grid points and seeds), written
    /// as `<name>_smoke.csv` so the golden file never collides with the
    /// full results.
    pub smoke: bool,
}

impl RunOpts {
    /// The seed count (set by [`Experiment::resolve`]).
    pub fn seeds(&self) -> u64 {
        self.seeds
            .expect("seed count resolved from the registry entry")
    }

    /// The simulated duration (set by [`Experiment::resolve`]).
    pub fn duration_s(&self) -> f64 {
        self.duration_s
            .expect("duration resolved from the registry entry")
    }

    /// The worker-thread count this run will actually use.
    pub fn effective_threads(&self) -> usize {
        simnet::par::resolve_threads(self.threads)
    }

    /// `<name>.csv`, or `<name>_smoke.csv` under `--smoke`.
    pub fn csv_name(&self, name: &str) -> String {
        if self.smoke {
            format!("{name}_smoke.csv")
        } else {
            format!("{name}.csv")
        }
    }
}

/// What the observability flags ask a run to record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// `--metrics`: attach metrics sinks to every sweep job.
    pub metrics: bool,
    /// `--trace`: rerun one representative point with span collection.
    pub trace: bool,
}

/// A command-line flag an experiment may honour (`--out` is accepted by
/// every experiment and is not listed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    Seeds,
    Duration,
    Threads,
    Smoke,
    Metrics,
    Trace,
}

impl Flag {
    pub const ALL: [Flag; 6] = [
        Flag::Seeds,
        Flag::Duration,
        Flag::Threads,
        Flag::Smoke,
        Flag::Metrics,
        Flag::Trace,
    ];

    /// The flag as typed on the command line.
    pub fn arg(self) -> &'static str {
        match self {
            Flag::Seeds => "--seeds",
            Flag::Duration => "--duration",
            Flag::Threads => "--threads",
            Flag::Smoke => "--smoke",
            Flag::Metrics => "--metrics",
            Flag::Trace => "--trace",
        }
    }

    /// Whether the flag takes a value.
    pub fn takes_value(self) -> bool {
        matches!(self, Flag::Seeds | Flag::Duration | Flag::Threads)
    }
}

/// One CSV file: the printed table is rendered from the same rows.
#[derive(Debug, Clone)]
pub struct Csv {
    pub name: String,
    /// The header line, comma-separated.
    pub header: &'static str,
    pub rows: Vec<Vec<String>>,
}

impl Csv {
    /// The file text exactly as written to disk.
    pub fn text(&self) -> String {
        let mut text = format!("{}\n", self.header);
        for row in &self.rows {
            text.push_str(&row.join(","));
            text.push('\n');
        }
        text
    }
}

/// One process row of a chrome trace.
pub struct Track {
    pub process: String,
    pub recorder: Box<obs::Recorder>,
    /// Simulated time units per microsecond (the clock in MHz for cycle
    /// timestamps).
    pub units_per_us: f64,
}

/// Everything one experiment run produces; the driver writes it.
#[derive(Default)]
pub struct Output {
    /// CSV files in write order; the first is the printed table.
    pub csvs: Vec<Csv>,
    /// Other files as `(name, contents)` (figure 1's SVG map).
    pub files: Vec<(String, String)>,
    /// Computed figures that live in no CSV, printed after the table.
    pub notes: Vec<String>,
    /// The merged metrics recorder, under `--metrics`.
    pub recorder: Option<Box<obs::Recorder>>,
    /// Span-traced tracks, under `--trace`.
    pub trace: Vec<Track>,
}

impl Output {
    /// An output holding one CSV.
    pub fn csv(name: String, header: &'static str, rows: Vec<Vec<String>>) -> Self {
        Output {
            csvs: vec![Csv { name, header, rows }],
            ..Output::default()
        }
    }
}

/// One registry entry: an experiment the driver can run.
pub struct Experiment {
    pub name: &'static str,
    /// Flags honoured besides `--out`; any other flag is rejected.
    pub flags: &'static [Flag],
    /// Seed count when `--seeds` is absent.
    pub seeds: u64,
    /// Seed count of the smoke grid, for entries that have one.
    pub smoke_seeds: Option<u64>,
    /// Simulated seconds per point when `--duration` is absent.
    pub duration_s: f64,
    /// Committed smoke golden in `results/`, compared by `goldens`.
    pub golden: Option<&'static str>,
    /// Flags of the run `gate` checks the replay hit rate on.
    pub gate: Option<&'static [&'static str]>,
    /// CSV columns the printed table shows, comma-separated (empty: all
    /// of them).
    pub columns: &'static str,
    pub run: fn(&RunOpts, Observe) -> Output,
}

impl Experiment {
    /// Whether `--<flag>` is honoured.
    pub fn supports(&self, flag: Flag) -> bool {
        self.flags.contains(&flag)
    }

    /// `opts` with every unset field filled from this entry's defaults.
    pub fn resolve(&self, opts: &RunOpts) -> RunOpts {
        let default_seeds = match self.smoke_seeds {
            Some(n) if opts.smoke => n,
            _ => self.seeds,
        };
        RunOpts {
            seeds: Some(opts.seeds.unwrap_or(default_seeds)),
            duration_s: Some(opts.duration_s.unwrap_or(self.duration_s)),
            ..opts.clone()
        }
    }
}

/// Looks up a registry entry by name.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

use Flag::{Duration, Metrics, Seeds, Smoke, Threads, Trace};

/// Flags of a seed-averaged simulation sweep.
const SIM: &[Flag] = &[Seeds, Duration, Threads];
/// [`SIM`] plus the observability flags.
const SIM_OBS: &[Flag] = &[Seeds, Duration, Threads, Metrics, Trace];

/// An entry that takes no flag but `--out`; others override fields.
const fn plain(name: &'static str, run: fn(&RunOpts, Observe) -> Output) -> Experiment {
    Experiment {
        name,
        flags: &[],
        seeds: 20,
        smoke_seeds: None,
        duration_s: 1.0,
        golden: None,
        gate: None,
        columns: "",
        run,
    }
}

/// A seed-averaged simulation sweep with the defaults of Figures 5/6.
const fn sim(name: &'static str, run: fn(&RunOpts, Observe) -> Output) -> Experiment {
    Experiment {
        flags: SIM,
        ..plain(name, run)
    }
}

/// Every experiment, in the order `all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    plain("table1", paper::table1),
    plain("figure1", paper::figure1),
    plain("table3", paper::table3),
    Experiment {
        flags: SIM_OBS,
        columns: "rate,conv_imiss,conv_dmiss,ilp_imiss,ilp_dmiss,ldlp_imiss,ldlp_dmiss,ldlp_batch",
        ..plain("figure5", paper::figure5)
    },
    Experiment {
        flags: SIM_OBS,
        columns: "rate,conv_latency_us,ldlp_latency_us,conv_drops,ldlp_drops,conv_throughput,\
                  ldlp_throughput",
        ..plain("figure6", paper::figure6)
    },
    Experiment {
        flags: SIM_OBS,
        // Trace-driven runs need more simulated time than the Poisson
        // sweeps for the burst structure to matter.
        duration_s: 5.0,
        gate: Some(&[]),
        ..plain("figure7", paper::figure7)
    },
    plain("figure8", paper::figure8),
    Experiment {
        flags: &[Seeds, Duration, Threads, Smoke, Metrics, Trace],
        seeds: 10,
        smoke_seeds: Some(2),
        golden: Some("figure9_smoke_golden.csv"),
        columns: "rate,cores,discipline,dispatch,imiss_per_msg,p99_latency_us,goodput,drops,\
                  handoff_msgs",
        ..plain("figure9", figure9::run)
    },
    Experiment {
        flags: &[Seeds, Duration, Threads, Smoke],
        seeds: 3,
        smoke_seeds: Some(2),
        golden: Some("figure10_smoke_golden.csv"),
        gate: Some(&["--smoke"]),
        columns: "population,discipline,scheme,cache_slots,popmodel,dmiss_per_msg,p99_latency_us,\
                  cache_hit_rate,mean_probes",
        ..plain("figure10", figure10::run)
    },
    Experiment {
        flags: &[Seeds, Duration, Threads, Smoke],
        seeds: 10,
        smoke_seeds: Some(2),
        golden: Some("figure13_smoke_golden.csv"),
        gate: Some(&["--smoke"]),
        columns: "load,variant,admission,budget,retry_amp,goodput,throughput,p99_latency_us,stale,\
                  bp_stall_cycles",
        ..plain("figure13", figure13::run)
    },
    Experiment {
        flags: &[Seeds, Duration, Threads, Smoke, Metrics],
        seeds: 10,
        smoke_seeds: Some(2),
        golden: Some("figure14_smoke_golden.csv"),
        // Four simulated seconds: the per-class handler images warm a
        // bigger replay state graph than the single-class figures, so
        // the steady-state hit rate needs a longer window to dominate
        // the warm-up misses.
        gate: Some(&["--smoke", "--duration", "4"]),
        columns: "cores,variant,class,offered,completed,p99_latency_us,imiss_per_msg,\
                  slo_attainment,slo_met",
        ..plain("figure14", figure14::run)
    },
    Experiment {
        gate: Some(&[]),
        ..sim("figure4_regimes", paper::figure4_regimes)
    },
    Experiment {
        seeds: 10,
        ..sim("signaling_goal", paper::signaling_goal)
    },
    plain("trace_replay", paper::trace_replay),
    Experiment {
        flags: &[Duration],
        duration_s: 2.0,
        ..plain("dynamics", paper::dynamics)
    },
    sim("ablation_cisc", ablations::cisc),
    sim("ablation_dilution", ablations::dilution),
    sim("ablation_policy", ablations::policy),
    sim("ablation_cachesize", ablations::cachesize),
    sim("ablation_transmit", ablations::transmit),
    sim("ablation_tlb", ablations::tlb),
    Experiment {
        flags: &[Seeds, Threads],
        ..plain("ablation_layout", ablations::layout)
    },
    sim("ablation_prefetch", ablations::prefetch),
    Experiment {
        flags: &[Seeds, Duration, Threads, Smoke, Metrics, Trace],
        seeds: 5,
        smoke_seeds: Some(1),
        golden: Some("impairments_smoke_golden.csv"),
        columns: "loss_pct,burst,reorder_depth,conv_goodput,ldlp_goodput,conv_latency_us,\
                  ldlp_latency_us,retransmits,abandoned",
        ..plain("impairments", impairments::run)
    },
];

/// Formats a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

pub mod perf {
    //! Process-wide apparatus-performance counters.
    //!
    //! Every simulation run harvests its machine's footprint-replay
    //! counters into process-wide atomics; the driver resets them before
    //! each experiment and reads them into a [`PerfRow`] after it, which
    //! becomes `perf/<name>.json` and a row of `perf_summary.json`.

    use cachesim::ReplayStats;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Replay totals since the last [`reset`], and the first bypass
    /// reason any harvested machine reported. The reason stays unset when
    /// every machine replayed cleanly, so a row's `bypass_reason` is
    /// `null` exactly when `replay_bypasses` is an honest zero.
    static TOTALS: Mutex<(ReplayStats, Option<&'static str>)> = Mutex::new((
        ReplayStats {
            hits: 0,
            misses: 0,
            bypasses: 0,
        },
        None,
    ));

    /// Every update below is one whole assignment or merge, so the totals
    /// stay valid even if a holder panicked.
    fn totals() -> MutexGuard<'static, (ReplayStats, Option<&'static str>)> {
        TOTALS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Folds one machine's replay counters into the process totals.
    pub fn note_replay(s: &ReplayStats) {
        totals().0.merge(s);
    }

    /// Folds one machine's replay counters *and* its bypass reason into
    /// the process totals. Prefer this over [`note_replay`] whenever the
    /// machine itself is at hand: a config the memoizer can never serve
    /// (unified cache, board cache) then shows up as a named reason
    /// instead of a silent zero.
    pub fn note_machine(m: &cachesim::Machine) {
        let why = m
            .replay_bypass_reason()
            .or_else(|| m.replay_ineligibility());
        let mut t = totals();
        t.0.merge(&m.replay_stats());
        t.1 = t.1.or(why);
    }

    /// Zeroes the counters and clears the bypass reason.
    pub fn reset() {
        *totals() = (ReplayStats::default(), None);
    }

    /// One experiment's replay counters (and, in `all`, its wall time).
    #[derive(Debug, Clone, PartialEq)]
    pub struct PerfRow {
        pub name: &'static str,
        pub threads: usize,
        pub wall_s: Option<f64>,
        pub replay: ReplayStats,
        pub bypass_reason: Option<&'static str>,
    }

    impl PerfRow {
        /// The counters accumulated since the last [`reset`].
        pub fn take(name: &'static str, threads: usize) -> Self {
            let (replay, bypass_reason) = *totals();
            PerfRow {
                name,
                threads,
                wall_s: None,
                replay,
                bypass_reason,
            }
        }

        fn reason_json(&self) -> String {
            match self.bypass_reason {
                Some(why) => format!("\"{why}\""),
                None => "null".to_string(),
            }
        }

        /// The `perf/<name>.json` fragment.
        pub fn fragment_json(&self) -> String {
            let t = &self.replay;
            format!(
                "{{\n  \"name\": \"{}\",\n  \"threads\": {},\n  \"replay_hits\": {},\n  \
                 \"replay_misses\": {},\n  \"replay_bypasses\": {},\n  \"bypass_reason\": {},\n  \
                 \"replay_hit_rate\": {:.4}\n}}\n",
                self.name,
                self.threads,
                t.hits,
                t.misses,
                t.bypasses,
                self.reason_json(),
                t.hit_rate()
            )
        }

        /// One line of `perf_summary.json`'s `experiments` array.
        pub fn summary_json(&self) -> String {
            let t = &self.replay;
            format!(
                "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"replay_hits\": {}, \
                 \"replay_misses\": {}, \"replay_bypasses\": {}, \"bypass_reason\": {}, \
                 \"replay_hit_rate\": {:.4}}}",
                self.name,
                self.wall_s.unwrap_or(0.0),
                t.hits,
                t.misses,
                t.bypasses,
                self.reason_json(),
                t.hit_rate()
            )
        }
    }

    /// `perf_summary.json` over `rows`, all run at `threads`.
    pub fn summary_json(threads: usize, total_wall_s: f64, rows: &[PerfRow]) -> String {
        let mut total = ReplayStats::default();
        for r in rows {
            total.merge(&r.replay);
        }
        let lines: Vec<String> = rows.iter().map(PerfRow::summary_json).collect();
        format!(
            "{{\n  \"threads\": {},\n  \"total_wall_s\": {:.3},\n  \"replay_hit_rate\": {:.4},\n  \
             \"replay_hits\": {},\n  \"replay_misses\": {},\n  \"replay_bypasses\": {},\n  \
             \"experiments\": [\n{}\n  ]\n}}\n",
            threads,
            total_wall_s,
            total.hit_rate(),
            total.hits,
            total.misses,
            total.bypasses,
            lines.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_grids() {
        let r = paper::figure5_rates();
        assert_eq!(r.first(), Some(&500.0));
        assert_eq!(r.last(), Some(&10_000.0));
        assert_eq!(r.len(), 20);
        assert_eq!(paper::FIGURE7_CLOCKS.len(), 11);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }

    #[test]
    fn perf_fragment_round_trips() {
        let row = perf::PerfRow {
            name: "figure5",
            threads: 8,
            wall_s: Some(1.5),
            replay: cachesim::ReplayStats {
                hits: 3,
                misses: 1,
                bypasses: 0,
            },
            bypass_reason: None,
        };
        let text = row.fragment_json();
        assert!(text.contains("\"name\": \"figure5\""));
        assert!(text.contains("\"threads\": 8,"));
        assert!(text.contains("\"bypass_reason\": null"));
        assert!(text.contains("\"replay_hit_rate\": 0.7500"));
        let summary = perf::summary_json(8, 1.5, &[row]);
        assert!(summary.contains("\"total_wall_s\": 1.500"));
        assert!(summary.contains("{\"name\": \"figure5\", \"wall_s\": 1.500"));
    }

    #[test]
    fn threads_flag_resolution() {
        let opts = RunOpts {
            threads: Some(3),
            ..RunOpts::default()
        };
        assert_eq!(opts.effective_threads(), 3);
        assert!(RunOpts::default().effective_threads() >= 1);
    }

    #[test]
    fn smoke_flag_defaults_off() {
        assert!(!RunOpts::default().smoke);
    }

    #[test]
    fn registry_is_consistent() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{} registered twice",
                e.name
            );
            assert_eq!(
                e.supports(Flag::Smoke),
                e.smoke_seeds.is_some(),
                "{}",
                e.name
            );
            if e.golden.is_some() {
                assert!(
                    e.supports(Flag::Smoke),
                    "{} golden needs a smoke grid",
                    e.name
                );
            }
        }
        assert_eq!(EXPERIMENTS.len(), 24);
    }

    #[test]
    fn resolve_fills_entry_defaults_only() {
        let e = experiment("figure13").expect("registered");
        let full = e.resolve(&RunOpts::default());
        assert_eq!((full.seeds(), full.duration_s()), (10, 1.0));
        let smoke = e.resolve(&RunOpts {
            smoke: true,
            ..RunOpts::default()
        });
        assert_eq!(smoke.seeds(), 2);
        let explicit = e.resolve(&RunOpts {
            seeds: Some(20),
            smoke: true,
            ..RunOpts::default()
        });
        assert_eq!(
            explicit.seeds(),
            20,
            "an explicit count is never overridden"
        );
        assert_eq!(
            experiment("figure7").map(|e| e.resolve(&RunOpts::default()).duration_s()),
            Some(5.0)
        );
    }

    #[test]
    fn impairment_grid_shapes() {
        // 3 loss points x {iid, bursty} x 2 depths, minus the two
        // bursty-at-zero-loss cells; 6 loss points for the full grid.
        assert_eq!(impairments::grid(true).len(), 10);
        assert_eq!(impairments::grid(false).len(), 22);
        assert!(impairments::grid(false)
            .iter()
            .all(|c| !(c.bursty && c.loss_pct == 0.0)));
        let ch = impairments::cell_channel(
            impairments::ImpairCell {
                loss_pct: 5.0,
                bursty: true,
                reorder_depth: 8,
            },
            3,
        );
        assert_eq!(ch.drop_prob, 0.0, "bursty cells lose via the chain only");
        let ge = ch.gilbert.expect("bursty cell has a chain");
        assert!((ge.mean_loss() - 0.05).abs() < 1e-12);
        assert_eq!(ch.corrupt_prob, 0.025);
    }

    #[test]
    fn wire_exercise_clean_link_fires_no_exception_paths() {
        let w = impairments::wire_exercise(simnet::ImpairConfig::default(), obs::Sink::Off).0;
        assert_eq!(w.checksum_rejects, 0);
        assert_eq!(w.ooo_buffered, 0);
        assert_eq!(w.reassembly_timeouts, 0);
    }

    #[test]
    fn wire_exercise_impaired_link_fires_them() {
        let cfg = simnet::ImpairConfig {
            drop_prob: 0.10,
            corrupt_prob: 0.05,
            reorder_prob: 0.25,
            reorder_depth: 8,
            seed: 3,
            ..simnet::ImpairConfig::default()
        };
        let w = impairments::wire_exercise(cfg, obs::Sink::Off).0;
        assert!(w.tcp_retransmits > 0, "losses force TCP retransmission");
        assert!(w.checksum_rejects > 0, "byte flips are caught by checksums");
        let w2 = impairments::wire_exercise(cfg, obs::Sink::Off).0;
        assert_eq!(w, w2, "the wire pass is deterministic");
    }

    #[test]
    fn csv_writing() {
        let dir = std::env::temp_dir().join("bench_csv_test");
        let out = Output::csv("t.csv".into(), "a,b", vec![vec!["1".into(), "2".into()]]);
        driver::write_output(&dir, "t", &RunOpts::default(), &out);
        let text = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
