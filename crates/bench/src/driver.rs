//! The experiment driver behind `bench <experiment>|all|goldens|gate
//! [flags]`: flag parsing and validation against the registry, the
//! printed table, every file an experiment writes, the smoke-golden
//! comparison and the replay-hit-rate gate.

use crate::perf::{self, PerfRow};
use crate::{Csv, Experiment, Flag, Observe, Output, RunOpts, EXPERIMENTS};
use std::path::{Path, PathBuf};

/// What to run.
#[derive(Clone, Copy)]
pub enum Target {
    One(&'static Experiment),
    /// Every registry entry, timed, into `perf_summary.json`.
    All,
    /// Every smoke-golden entry at threads 1 and 4 against its golden.
    Goldens,
    /// Every perf-gated entry's replay hit rate against [`MIN_HIT_RATE`].
    Gate,
}

/// A parsed command line.
pub struct Args {
    pub target: Target,
    pub opts: RunOpts,
    pub observe: Observe,
    /// `--out`, when given.
    pub out: Option<PathBuf>,
}

impl Args {
    /// The output directory (default `results/`).
    pub fn out_dir(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| PathBuf::from("results"))
    }
}

/// The usage text printed on a command-line error.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: bench <experiment>|all|goldens|gate [--seeds N] [--duration S] [--out DIR] \
         [--threads N] [--smoke] [--metrics] [--trace]\n\
         (each experiment accepts only the flags it honours)\n\
         experiments: {}",
        names.join(" ")
    )
}

/// Parses the flags in `args` (no target). Returns the options, the
/// observability requests, `--out`, and which registry flags appeared.
fn parse_flags(args: &[String]) -> Result<(RunOpts, Observe, Option<PathBuf>, Vec<Flag>), String> {
    let mut opts = RunOpts::default();
    let mut observe = Observe::default();
    let mut out = None;
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            continue;
        }
        let flag = Flag::ALL
            .into_iter()
            .find(|f| f.arg() == arg)
            .ok_or_else(|| format!("unknown flag {arg}"))?;
        let value = if flag.takes_value() {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))?
                .as_str()
        } else {
            ""
        };
        let bad = || format!("{arg}: bad value {value:?}");
        match flag {
            Flag::Seeds => {
                opts.seeds = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?)
            }
            Flag::Duration => {
                opts.duration_s = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            Flag::Threads => {
                opts.threads = Some(value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?)
            }
            Flag::Smoke => opts.smoke = true,
            Flag::Metrics => observe.metrics = true,
            Flag::Trace => observe.trace = true,
        }
        given.push(flag);
    }
    Ok((opts, observe, out, given))
}

/// Parses a command line (without the program name). Flags the target
/// does not honour are errors: an experiment accepts its registry
/// flags, `all` accepts every flag and applies each only where it is
/// honoured, `gate` accepts `--threads`, and `goldens` only `--out`.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let (name, rest) = args.split_first().ok_or("missing experiment")?;
    let target = match name.as_str() {
        "all" => Target::All,
        "goldens" => Target::Goldens,
        "gate" => Target::Gate,
        _ => Target::One(
            crate::experiment(name).ok_or_else(|| format!("unknown experiment {name}"))?,
        ),
    };
    let (opts, observe, out, given) = parse_flags(rest)?;
    let honoured = |flag: Flag| match target {
        Target::One(e) => e.supports(flag),
        Target::All => true,
        Target::Gate => flag == Flag::Threads,
        Target::Goldens => false,
    };
    if let Some(flag) = given.into_iter().find(|&f| !honoured(f)) {
        return Err(format!("{name} does not take {}", flag.arg()));
    }
    Ok(Args {
        target,
        opts,
        observe,
        out,
    })
}

/// `opts`/`observe` with every flag `e` does not honour dropped (how
/// `all` applies one command line to every entry).
fn restrict(e: &Experiment, opts: &RunOpts, observe: Observe) -> (RunOpts, Observe) {
    let keep = |flag| e.supports(flag);
    let opts = RunOpts {
        seeds: opts.seeds.filter(|_| keep(Flag::Seeds)),
        duration_s: opts.duration_s.filter(|_| keep(Flag::Duration)),
        threads: if keep(Flag::Threads) {
            opts.threads
        } else {
            Some(1)
        },
        smoke: opts.smoke && keep(Flag::Smoke),
    };
    let observe = Observe {
        metrics: observe.metrics && keep(Flag::Metrics),
        trace: observe.trace && keep(Flag::Trace),
    };
    (opts, observe)
}

fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Writes an output's CSVs, other files, `metrics/<name>.json` and
/// `trace/<name>.json` into `dir`; `opts` (resolved) fills the metrics
/// meta block.
pub fn write_output(dir: &Path, name: &str, opts: &RunOpts, out: &Output) {
    for csv in &out.csvs {
        write_file(&dir.join(&csv.name), &csv.text());
    }
    for (file, contents) in &out.files {
        write_file(&dir.join(file), contents);
    }
    if let Some(rec) = &out.recorder {
        // The meta block deliberately excludes the worker-thread count:
        // the file is byte-identical for every `--threads` value.
        let meta = [
            ("experiment", name.to_string()),
            ("seeds", opts.seeds().to_string()),
            ("duration_s", format!("{}", opts.duration_s())),
            ("smoke", opts.smoke.to_string()),
        ];
        write_file(
            &dir.join("metrics").join(format!("{name}.json")),
            &obs::metrics::metrics_json(&meta, rec),
        );
    }
    if !out.trace.is_empty() {
        let parts: Vec<obs::TracePart> = out
            .trace
            .iter()
            .map(|t| obs::TracePart {
                process: &t.process,
                recorder: &t.recorder,
                units_per_us: t.units_per_us,
            })
            .collect();
        write_file(
            &dir.join("trace").join(format!("{name}.json")),
            &obs::trace::chrome_trace_json(&parts),
        );
    }
}

/// Prints `csv` as an aligned table of the comma-separated `columns`
/// (all when empty).
pub fn print_table(columns: &str, csv: &Csv) {
    let header: Vec<&str> = csv.header.split(',').collect();
    let pick: Vec<usize> = if columns.is_empty() {
        (0..header.len()).collect()
    } else {
        columns
            .split(',')
            .map(|c| {
                header
                    .iter()
                    .position(|h| *h == c)
                    .expect("printed column is in the CSV")
            })
            .collect()
    };
    let mut lines = vec![pick.iter().map(|&i| header[i]).collect::<Vec<_>>()];
    lines.extend(
        csv.rows
            .iter()
            .map(|r| pick.iter().map(|&i| r[i].as_str()).collect()),
    );
    let widths: Vec<usize> = (0..pick.len())
        .map(|c| lines.iter().map(|l| l[c].len()).max().unwrap_or(0))
        .collect();
    for (n, line) in lines.iter().enumerate() {
        let padded: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  "));
        if n == 0 {
            println!("{}", "-".repeat(padded.join("  ").len()));
        }
    }
}

/// Runs one entry with `opts`/`observe` (restricted to the flags it
/// honours), prints its table and notes, and writes its files, metrics,
/// trace and `perf/<name>.json` fragment into `out_dir`. Returns the
/// entry's replay counters.
pub fn run_one(
    e: &'static Experiment,
    opts: &RunOpts,
    observe: Observe,
    out_dir: &Path,
) -> PerfRow {
    let (opts, observe) = restrict(e, opts, observe);
    let opts = e.resolve(&opts);
    println!("\n=== {} ===\n", e.name);
    perf::reset();
    let out = (e.run)(&opts, observe);
    let row = PerfRow::take(e.name, opts.effective_threads());
    if let Some(csv) = out.csvs.first() {
        print_table(e.columns, csv);
    }
    for note in &out.notes {
        println!("{note}");
    }
    write_output(out_dir, e.name, &opts, &out);
    write_file(
        &out_dir.join("perf").join(format!("{}.json", e.name)),
        &row.fragment_json(),
    );
    row
}

/// The committed results directory the goldens live in.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs every smoke-golden entry at threads 1 and 4, compares the two
/// CSVs with each other and with the committed golden, and (with
/// `out`) writes the threads-1 CSV there. Returns whether all matched.
pub fn goldens(out: Option<&Path>) -> bool {
    let mut ok = true;
    for e in EXPERIMENTS {
        let Some(golden) = e.golden else { continue };
        let run = |threads| {
            let opts = e.resolve(&RunOpts {
                threads: Some(threads),
                smoke: true,
                ..RunOpts::default()
            });
            (e.run)(&opts, Observe::default()).csvs.remove(0)
        };
        let (one, four) = (run(1), run(4));
        let committed = std::fs::read_to_string(results_dir().join(golden)).unwrap_or_default();
        let verdict = match (one.text() == four.text(), one.text() == committed) {
            (true, true) => "OK",
            (false, _) => "FAIL (threads 1 and 4 differ)",
            (true, false) => "FAIL (differs from the committed golden)",
        };
        println!("goldens: {verdict} {} vs results/{golden}", one.name);
        ok &= verdict == "OK";
        if let Some(dir) = out {
            write_file(&dir.join(&one.name), &one.text());
        }
    }
    ok
}

/// Memoizable experiments must replay at least this fraction of sweeps.
pub const MIN_HIT_RATE: f64 = 0.999;

/// Runs every perf-gated entry with its recorded flags (at `threads`)
/// and checks its own replay counters: an entry with a bypass reason is
/// skipped (the gate checks that the memo works where it can, not that
/// every config uses it); a memoizable one fails when it recorded no
/// replay traffic or hit less than [`MIN_HIT_RATE`]. Returns whether
/// every gated entry passed.
pub fn gate(threads: Option<usize>) -> bool {
    let mut ok = true;
    for e in EXPERIMENTS {
        let Some(flags) = e.gate else { continue };
        let args: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        let (opts, observe, _, _) = parse_flags(&args).expect("recorded gate flags parse");
        let opts = e.resolve(&RunOpts { threads, ..opts });
        perf::reset();
        (e.run)(&opts, observe);
        let row = PerfRow::take(e.name, opts.effective_threads());
        let t = row.replay;
        let run = [&[e.name][..], flags].concat().join(" ");
        if let Some(reason) = row.bypass_reason {
            println!("gate: {run}: skipped (bypass reason: {reason})");
        } else if t.accesses() == 0 {
            println!("gate: FAIL {run}: memoizable but recorded no replay traffic");
            ok = false;
        } else if t.hit_rate() < MIN_HIT_RATE {
            println!(
                "gate: FAIL {run}: replay hit rate {:.4} < {MIN_HIT_RATE} ({} hits / {} misses / {} bypasses)",
                t.hit_rate(),
                t.hits,
                t.misses,
                t.bypasses
            );
            ok = false;
        } else {
            println!(
                "gate: OK {run}: replay hit rate {:.4} ({} sweeps)",
                t.hit_rate(),
                t.accesses()
            );
        }
    }
    ok
}
