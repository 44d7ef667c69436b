//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and what each per-layer metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_1core --seed 1 --seconds 10 --trace 0 [--threads 1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A `sim_digest` line before it hashes every simulated
//! report of the run.

// Reading the host clock is this program's purpose: the timings it takes
// are reported as host metrics and never feed a simulated value.
#![allow(clippy::disallowed_methods)]

mod closed_overload;
mod harness;
mod metrics;
mod mixed_smp;
mod paper_1core;
mod wire_rx;

use harness::{run_pass, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <paper_1core|mixed_smp|closed_overload|wire_rx> \
--seed <u64> --seconds <s> --trace <0|1> [--threads <1|2>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, 1usize);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--threads" => {
                threads = match value.parse::<usize>() {
                    Ok(n @ 1..=2) => n,
                    _ => return Err(bad("1 or 2")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_1core" => Box::new(paper_1core::Paper1Core::new(seed)),
        "mixed_smp" => Box::new(mixed_smp::MixedSmp::new(seed)),
        "closed_overload" => Box::new(closed_overload::ClosedOverload::new(seed)),
        "wire_rx" => Box::new(wire_rx::WireRx::new(seed)),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    // Whole passes until the time is up. A traced run alternates an
    // untraced and a traced pass, so both see the same machine state.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut run = metrics::Books::new();
    loop {
        run.add(run_pass(w.as_ref(), false, args.threads));
        if args.trace {
            run.add(run_pass(w.as_ref(), true, args.threads));
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    println!(
        "workload {} seed {} threads {}: {} passes x {} operations, {} attempted, {} failed \
         (failed_frac {:.6})",
        args.workload,
        args.seed,
        args.threads,
        run.passes,
        w.ops(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    for why in run.failures.iter().take(5) {
        println!("failure: {why}");
        eprintln!("perfbench: {why}");
    }
    let list = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    for m in &list {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "dns_misrouted {}",
        run.first_count("workload.dispatch.misrouted")
    );
    println!("nondeterministic_ops {}", run.nondeterministic);
    println!("sim_digest {:016x}", run.sim_digest());
    println!(
        "{}",
        metrics::result_json(run.failed == 0, run.attempted, run.failed, &list)
    );
    ExitCode::SUCCESS
}
