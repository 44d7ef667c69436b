//! The measurement harness: operations, passes, worker threads, timers,
//! and the deterministic digest.
//!
//! A workload is a fixed list of operations (one simulated cell, or one
//! batch of wire frames) built from the workload seed. A *pass* runs
//! every operation once, fanned over the worker threads, then reduces
//! the per-operation reports in index order. Passes repeat until the
//! run's time is up; every pass runs the same inputs, so each pass must
//! reproduce the first pass's simulated outputs exactly.

use simnet::stats::{ClassReport, SimReport};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What one operation hands back.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    /// Host seconds spent building inputs and simulators/stacks before
    /// the operation's first event.
    pub setup_s: f64,
    /// Host seconds spent after set-up: running, assembling reports.
    /// The benchmark's own checks are not included.
    pub work_s: f64,
    /// Messages the operation pushed through the program.
    pub msgs: u64,
    /// Host seconds per layer call, keyed by per-layer metric name.
    pub timers: BTreeMap<&'static str, f64>,
    /// Deterministic per-layer counts, summed over operations.
    pub counts: BTreeMap<String, f64>,
    /// Attempts (arrivals, client requests or intact messages) and the
    /// useful outcomes among them.
    pub attempts: u64,
    pub useful: u64,
    /// The operation's simulated p99 latency, microseconds.
    pub p99_us: Option<f64>,
    /// Simulated latencies by message class, microseconds, for a
    /// workload whose cells are its message classes rather than its
    /// operations (`wire_rx`).
    pub class_latencies_us: Vec<Vec<f64>>,
    /// Simulated busy cycles and the messages they processed.
    pub busy_cycles: u64,
    pub processed: u64,
    /// Hash of the operation's simulated reports.
    pub digest: u64,
    /// The first check that failed, if one did.
    pub failure: Option<String>,
    /// Reduction group and the reports averaged within it.
    pub group: usize,
    pub report: Option<SimReport>,
    pub classes: Vec<ClassReport>,
}

impl OpOut {
    /// Runs `f`, charging its host time to the layer timer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        *self.timers.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        r
    }

    /// Adds `v` to the deterministic count `name`.
    pub fn count(&mut self, name: impl Into<String>, v: f64) {
        *self.counts.entry(name.into()).or_insert(0.0) += v;
    }

    /// Records the first failed check.
    pub fn fail(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
        }
    }

    /// Folds `text` into the operation's digest.
    pub fn digest_str(&mut self, text: &str) {
        self.digest = fnv1a(self.digest ^ FNV_OFFSET, text.as_bytes());
    }
}

/// A workload: a fixed list of operations from the seed.
pub trait Workload: Sync {
    /// Operations per pass.
    fn ops(&self) -> usize;
    /// Runs operation `i`; `traced` attaches the obs metrics sinks.
    fn run_op(&self, i: usize, traced: bool) -> OpOut;
}

/// One pass over every operation.
#[derive(Debug)]
pub struct Pass {
    /// Per-operation outcomes in index order; `Err` holds a panic.
    pub ops: Vec<Result<OpOut, String>>,
    /// Host seconds in the statistics reduction.
    pub stats_s: f64,
    /// Hash of the reduced (averaged) reports.
    pub reduced_digest: u64,
    pub traced: bool,
}

impl Pass {
    /// Successful operations, in index order.
    pub fn ok(&self) -> impl Iterator<Item = &OpOut> {
        self.ops.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Runs every operation of `w` once over `threads` workers, then
/// reduces the reports group by group in index order.
pub fn run_pass(w: &dyn Workload, traced: bool, threads: usize) -> Pass {
    let n = w.ops();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<OpOut, String>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = catch_unwind(AssertUnwindSafe(|| w.run_op(i, traced)))
                    .map_err(|p| format!("operation {i} panicked: {}", panic_text(&p)));
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot") = Some(r);
            });
        }
    });
    let ops: Vec<Result<OpOut, String>> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("every operation index was claimed")
        })
        .collect();
    let t1 = Instant::now();
    let reduced_digest = reduce(&ops);
    let stats_s = t1.elapsed().as_secs_f64();
    Pass {
        ops,
        stats_s,
        reduced_digest,
        traced,
    }
}

/// The statistics stage of a pass: `SimReport::average` over each
/// group's reports, `ClassReport::average` per class, and the SLO
/// verdicts over the averaged classes, as the figures reduce seeds.
fn reduce(ops: &[Result<OpOut, String>]) -> u64 {
    let mut groups: BTreeMap<usize, Vec<&OpOut>> = BTreeMap::new();
    for op in ops.iter().flatten() {
        groups.entry(op.group).or_default().push(op);
    }
    let mut text = String::new();
    for (g, members) in groups {
        let reports: Vec<SimReport> = members.iter().filter_map(|o| o.report.clone()).collect();
        if let Some(avg) = SimReport::average(&reports) {
            text.push_str(&format!("{g}:{avg:?}\n"));
        }
        let width = members.iter().map(|o| o.classes.len()).max().unwrap_or(0);
        if width > 0 {
            let classes: Vec<ClassReport> = (0..width)
                .map(|c| {
                    let per: Vec<ClassReport> = members
                        .iter()
                        .filter_map(|o| o.classes.get(c).copied())
                        .collect();
                    ClassReport::average(&per).unwrap_or_default()
                })
                .collect();
            let verdicts = workload::evaluate(&classes);
            text.push_str(&format!("{g}:{classes:?}:{verdicts:?}\n"));
        }
    }
    fnv1a(FNV_OFFSET, text.as_bytes())
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own seeded generator for input choices
/// the library crates do not make themselves.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A per-operation seed: the workload seed mixed with the operation's
/// coordinates, so every operation draws independent inputs.
pub fn sub_seed(seed: u64, op: u64) -> u64 {
    Rng::new(seed ^ op.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}
