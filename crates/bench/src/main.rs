//! The experiment driver: `bench <experiment>|all|goldens|gate [flags]`
//! (see the crate docs and `bench::driver`). A flag the target does not
//! honour is a usage error (exit 2); a failed golden or gate exits 1.

use bench::driver::{self, Args, Target};
use bench::{perf, EXPERIMENTS};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = driver::parse(&argv).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{}", driver::usage());
        std::process::exit(2);
    });
    let ok = match args.target {
        Target::One(e) => {
            driver::run_one(e, &args.opts, args.observe, &args.out_dir());
            true
        }
        Target::All => {
            all(&args);
            true
        }
        Target::Goldens => driver::goldens(args.out.as_deref()),
        Target::Gate => driver::gate(args.opts.threads),
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Runs every registry entry in-process, timing each, and writes
/// `perf_summary.json` from the in-memory counters.
// Wall-clock timing is what `all` reports; the clock never feeds a
// simulated result.
#[allow(clippy::disallowed_methods)]
fn all(args: &Args) {
    let out_dir = args.out_dir();
    let start = std::time::Instant::now();
    let rows: Vec<perf::PerfRow> = EXPERIMENTS
        .iter()
        .map(|e| {
            let t = std::time::Instant::now();
            let mut row = driver::run_one(e, &args.opts, args.observe, &out_dir);
            row.wall_s = Some(t.elapsed().as_secs_f64());
            row
        })
        .collect();
    let total_s = start.elapsed().as_secs_f64();
    let threads = args.opts.effective_threads();
    let summary = perf::summary_json(threads, total_s, &rows);
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("perf_summary.json");
    std::fs::write(&path, summary).expect("write perf summary");
    println!(
        "\n{} experiments regenerated into {} in {total_s:.1}s ({threads} worker threads).\nwrote {}",
        rows.len(),
        out_dir.display(),
        path.display()
    );
}
