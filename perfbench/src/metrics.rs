//! Turning passes into named metrics.
//!
//! Host times: every pass runs the same operations, and interference
//! from other tenants of the host only ever adds time, so each
//! operation's host time is the least it took over the run's passes
//! (its best of N), and host metrics are built from those. Simulated
//! outcomes and per-layer counts come from the first pass of each kind
//! (untraced, traced); every later pass must reproduce them exactly.
//! Passes are folded in as they finish, so memory does not grow with
//! the run's length.

use crate::harness::{fnv1a, OpOut, Pass, FNV_OFFSET};
use std::collections::BTreeMap;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-operation best host times over the passes of one kind.
#[derive(Debug, Clone, Default)]
struct Best {
    setup_s: Vec<f64>,
    work_s: Vec<f64>,
    op_s: Vec<f64>,
    timers: Vec<BTreeMap<&'static str, f64>>,
    stats_s: f64,
}

impl Best {
    fn fold(&mut self, p: &Pass) {
        let n = p.ops.len();
        if self.op_s.is_empty() {
            *self = Best {
                setup_s: vec![f64::INFINITY; n],
                work_s: vec![f64::INFINITY; n],
                op_s: vec![f64::INFINITY; n],
                timers: vec![BTreeMap::new(); n],
                stats_s: f64::INFINITY,
            };
        }
        self.stats_s = self.stats_s.min(p.stats_s);
        for (i, o) in p.ops.iter().enumerate() {
            let Ok(o) = o else { continue };
            self.setup_s[i] = self.setup_s[i].min(o.setup_s);
            self.work_s[i] = self.work_s[i].min(o.work_s);
            self.op_s[i] = self.op_s[i].min(o.setup_s + o.work_s);
            for (k, v) in &o.timers {
                let t = self.timers[i].entry(k).or_insert(f64::INFINITY);
                *t = t.min(*v);
            }
        }
    }

    /// Finite entries only (an operation that never succeeded has none).
    fn sum(v: &[f64]) -> f64 {
        v.iter().filter(|x| x.is_finite()).fold(0.0, |a, b| a + b)
    }

    fn timer(&self, name: &str) -> f64 {
        self.timers
            .iter()
            .filter_map(|t| t.get(name))
            .fold(0.0, |a, b| a + b)
    }
}

/// The run's books: first passes kept whole, later ones folded in.
pub struct Books {
    first: Option<Pass>,
    first_traced: Option<Pass>,
    best: Best,
    best_traced: Best,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Failures that were a pass not reproducing the first pass's
    /// simulated outputs (a subset of `failed`).
    pub nondeterministic: u64,
    /// Peak resident set once the first pass has run, MiB: every later
    /// pass repeats its work, so only allocator churn could add to it.
    peak_rss_mb: f64,
}

/// The deterministic simulated outcomes of one pass.
#[derive(Debug, Clone, PartialEq)]
struct SimOutcomes {
    goodput_frac: f64,
    sim_p99_latency_us: f64,
    sim_cycles_per_msg: f64,
}

fn sim_outcomes(p: &Pass) -> SimOutcomes {
    let (mut attempts, mut useful, mut busy, mut processed) = (0u64, 0u64, 0u64, 0u64);
    let (mut log_sum, mut cells) = (0.0f64, 0u64);
    let mut by_class: Vec<Vec<f64>> = Vec::new();
    for o in p.ok() {
        attempts += o.attempts;
        useful += o.useful;
        busy += o.busy_cycles;
        processed += o.processed;
        if let Some(p99) = o.p99_us.filter(|v| *v > 0.0) {
            log_sum += p99.ln();
            cells += 1;
        }
        by_class.resize(by_class.len().max(o.class_latencies_us.len()), Vec::new());
        for (pooled, lat) in by_class.iter_mut().zip(&o.class_latencies_us) {
            pooled.extend_from_slice(lat);
        }
    }
    // Class cells: each class's p99 pooled over the pass's operations.
    for mut lat in by_class.into_iter().filter(|l| !l.is_empty()) {
        lat.sort_by(|a, b| a.total_cmp(b));
        let p99 = simnet::stats::percentile(&lat, 0.99);
        if p99 > 0.0 {
            log_sum += p99.ln();
            cells += 1;
        }
    }
    SimOutcomes {
        goodput_frac: ratio(useful as f64, attempts as f64),
        sim_p99_latency_us: if cells == 0 {
            0.0
        } else {
            (log_sum / cells as f64).exp()
        },
        sim_cycles_per_msg: ratio(busy as f64, processed as f64),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Linear-interpolated quantile of the finite entries of `v`, `q` in [0, 1].
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    simnet::stats::percentile(&v, q)
}

fn counts(p: &Pass) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for o in p.ok() {
        for (k, v) in &o.counts {
            *m.entry(k.clone()).or_insert(0.0) += v;
        }
    }
    m
}

fn op_digest(r: &Result<OpOut, String>) -> Option<u64> {
    r.as_ref().ok().map(|o| o.digest)
}

impl Books {
    pub fn new() -> Books {
        Books {
            first: None,
            first_traced: None,
            best: Best::default(),
            best_traced: Best::default(),
            passes: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            nondeterministic: 0,
            peak_rss_mb: 0.0,
        }
    }

    /// Checks one pass against the first untraced pass and folds it in.
    pub fn add(&mut self, p: Pass) {
        let k = self.passes;
        self.passes += 1;
        for (i, r) in p.ops.iter().enumerate() {
            self.attempted += 1;
            // Every pass runs the same inputs: its simulated reports must
            // equal the first pass's, traced or not.
            let differs = self.first.as_ref().and_then(|first| {
                if op_digest(r) != op_digest(&first.ops[i]) {
                    Some(format!(
                        "pass {k} operation {i}: simulated reports differ from pass 0"
                    ))
                } else if i == 0 && p.reduced_digest != first.reduced_digest {
                    Some(format!("pass {k}: averaged reports differ from pass 0"))
                } else {
                    None
                }
            });
            if differs.is_some() {
                self.nondeterministic += 1;
            }
            let why = match r {
                Err(e) => Some(e.clone()),
                Ok(o) => o.failure.clone(),
            }
            .or(differs);
            if let Some(why) = why {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(why);
                }
            }
        }
        if p.traced {
            self.best_traced.fold(&p);
            if self.first_traced.is_none() {
                if let Some(first) = &self.first {
                    let (a, b) = (sim_outcomes(first), sim_outcomes(&p));
                    if a != b {
                        self.failed += 1;
                        self.nondeterministic += 1;
                        self.failures
                            .push(format!("traced outcomes {b:?} differ from untraced {a:?}"));
                    }
                }
                self.first_traced = Some(p);
            }
        } else {
            self.best.fold(&p);
            if self.first.is_none() {
                self.first = Some(p);
                self.peak_rss_mb = peak_rss_mb();
            }
        }
    }

    /// The deterministic count `name`, summed over the first pass.
    pub fn first_count(&self, name: &str) -> f64 {
        self.first
            .as_ref()
            .map_or(0.0, |p| counts(p).get(name).copied().unwrap_or(0.0))
    }

    /// Hash of the first pass's per-operation digests and its averaged
    /// reports.
    pub fn sim_digest(&self) -> u64 {
        let Some(first) = &self.first else { return 0 };
        let mut h = FNV_OFFSET;
        for r in &first.ops {
            let text = match r {
                Ok(o) => format!("{:016x};", o.digest),
                Err(_) => "panic;".to_string(),
            };
            h = fnv1a(h, text.as_bytes());
        }
        fnv1a(h, &first.reduced_digest.to_le_bytes())
    }

    /// The end-to-end metrics, from the untraced passes.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let b = &self.best;
        let first = self.first.as_ref().expect("at least one untraced pass");
        let msgs: f64 = first.ok().map(|o| o.msgs as f64).sum();
        let op_ms: Vec<f64> = b.op_s.iter().map(|s| s * 1e3).collect();
        let sim = sim_outcomes(first);
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        vec![
            m("wall_s", Best::sum(&b.op_s) + b.stats_s, "s"),
            m("setup_s", Best::sum(&b.setup_s), "s"),
            m(
                "host_msgs_per_s",
                ratio(msgs, Best::sum(&b.work_s)),
                "msg/s",
            ),
            m("op_ms_p50", quantile(&op_ms, 0.50), "ms"),
            m("op_ms_p90", quantile(&op_ms, 0.90), "ms"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
            m("goodput_frac", sim.goodput_frac, "frac"),
            m("sim_p99_latency_us", sim.sim_p99_latency_us, "us"),
            m("sim_cycles_per_msg", sim.sim_cycles_per_msg, "cycles"),
        ]
    }

    /// The per-layer metrics, from the traced passes (every name on
    /// every workload; a layer a workload leaves idle reads zero).
    pub fn per_layer(&self) -> Vec<Metric> {
        let bt = &self.best_traced;
        let c = counts(
            self.first_traced
                .as_ref()
                .expect("at least one traced pass"),
        );
        let cnt = |k: &str| c.get(k).copied().unwrap_or(0.0);
        let timer = |k: &str| bt.timer(k);
        let ns_per = |k: &str, n: &str| ratio(timer(k) * 1e9, cnt(n));
        let mut out = Vec::new();
        let mut m =
            |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

        m("simnet.traffic_s".into(), timer("simnet.traffic_s"), "s");
        m("simnet.run_sim_s".into(), timer("simnet.run_sim_s"), "s");
        m(
            "simnet.run_sim_ns_per_msg".into(),
            ns_per("simnet.run_sim_s", "simnet.run_sim.msgs"),
            "ns",
        );
        m("simnet.stats_s".into(), bt.stats_s, "s");
        let req = cnt("simnet.closed.requests");
        m("simnet.closed.requests".into(), req, "count");
        m(
            "simnet.closed.transmissions".into(),
            cnt("simnet.closed.transmissions"),
            "count",
        );
        m(
            "simnet.closed.retry_amp".into(),
            ratio(cnt("simnet.closed.transmissions"), req),
            "ratio",
        );
        m(
            "simnet.closed.abandoned_frac".into(),
            ratio(cnt("simnet.closed.abandoned"), req),
            "frac",
        );
        m(
            "simnet.closed.useful_frac".into(),
            ratio(cnt("simnet.closed.useful"), req),
            "frac",
        );

        m("smp.build_s".into(), timer("smp.build_s"), "s");
        m("smp.run_s".into(), timer("smp.run_s"), "s");
        m(
            "smp.run_ns_per_msg".into(),
            ns_per("smp.run_s", "smp.run.msgs"),
            "ns",
        );
        m("smp.run_closed_s".into(), timer("smp.run_closed_s"), "s");
        m(
            "smp.run_closed_ns_per_msg".into(),
            ns_per("smp.run_closed_s", "smp.run_closed.msgs"),
            "ns",
        );
        m("smp.outcome_s".into(), timer("smp.outcome_s"), "s");
        m("smp.batches".into(), cnt("smp.batches"), "count");
        m(
            "smp.mean_batch".into(),
            ratio(cnt("smp.core_msgs"), cnt("smp.batches")),
            "msgs",
        );
        m(
            "smp.util".into(),
            ratio(cnt("smp.busy_cycles"), cnt("smp.core_cycles")),
            "frac",
        );
        for k in [
            "handoff_msgs",
            "bp_stalls",
            "bp_stall_cycles",
            "drops",
            "shed",
        ] {
            m(
                format!("smp.{k}"),
                cnt(&format!("smp.{k}")),
                if k == "bp_stall_cycles" {
                    "cycles"
                } else {
                    "count"
                },
            );
        }

        m("ldlp.build_s".into(), timer("ldlp.build_s"), "s");
        for d in ["conv", "ldlp"] {
            for l in 1..=5 {
                let key = format!("ldlp.{d}.L{l}");
                let msgs = cnt(&format!("{key}.msgs"));
                m(
                    format!("{key}.cycles_per_msg"),
                    ratio(cnt(&format!("{key}.cycles")), msgs),
                    "cycles",
                );
                m(
                    format!("{key}.imiss_per_msg"),
                    ratio(cnt(&format!("{key}.imiss")), msgs),
                    "misses",
                );
            }
        }

        let (hits, misses, bypasses) = (
            cnt("cachesim.replay_hits"),
            cnt("cachesim.replay_misses"),
            cnt("cachesim.replay_bypasses"),
        );
        m("cachesim.replay_hits".into(), hits, "count");
        m("cachesim.replay_misses".into(), misses, "count");
        m("cachesim.replay_bypasses".into(), bypasses, "count");
        m(
            "cachesim.replay_hit_rate".into(),
            ratio(hits, hits + misses + bypasses),
            "frac",
        );
        let processed = cnt("cachesim.processed");
        m(
            "cachesim.imiss_per_msg".into(),
            ratio(cnt("cachesim.imiss"), processed),
            "misses",
        );
        m(
            "cachesim.dmiss_per_msg".into(),
            ratio(cnt("cachesim.dmiss"), processed),
            "misses",
        );
        m(
            "cachesim.l2_transfers".into(),
            cnt("cachesim.l2_transfers"),
            "count",
        );
        m(
            "cachesim.l2_invalidations".into(),
            cnt("cachesim.l2_invalidations"),
            "count",
        );
        m(
            "cachesim.l2_stall_cycles".into(),
            cnt("cachesim.l2_stall_cycles"),
            "cycles",
        );

        m(
            "workload.generate_s".into(),
            timer("workload.generate_s"),
            "s",
        );
        for class in workload::WireClass::ALL {
            let key = format!("workload.{}", class.label());
            let within = cnt(&format!("{key}.within_slo"));
            m(
                format!("{key}.slo_attainment"),
                ratio(within, cnt(&format!("{key}.completed"))),
                "frac",
            );
            m(
                format!("{key}.imiss_per_msg"),
                ratio(
                    cnt(&format!("{key}.imiss")),
                    cnt(&format!("{key}.processed")),
                ),
                "misses",
            );
        }
        m(
            "workload.dispatch_s".into(),
            timer("workload.dispatch_s"),
            "s",
        );
        m(
            "workload.dispatch.malformed".into(),
            cnt("workload.dispatch.malformed"),
            "count",
        );
        m(
            "workload.dispatch.misrouted".into(),
            cnt("workload.dispatch.misrouted"),
            "count",
        );

        m("netstack.input_s".into(), timer("netstack.input_s"), "s");
        m(
            "netstack.input_ns_per_frame".into(),
            ns_per("netstack.input_s", "netstack.frames"),
            "ns",
        );
        for k in [
            "frames_in",
            "parse_errors",
            "udp_in",
            "tcp_in",
            "fragments_in",
            "datagrams_reassembled",
            "reassembly_timeouts",
        ] {
            m(
                format!("netstack.{k}"),
                cnt(&format!("netstack.{k}")),
                "count",
            );
        }
        m(
            "signaling.handle_s".into(),
            timer("signaling.handle_s"),
            "s",
        );

        let (traced, untraced) = (Best::sum(&bt.op_s), Best::sum(&self.best.op_s));
        m(
            "obs.trace_overhead_frac".into(),
            ratio(traced, untraced) - 1.0,
            "frac",
        );
        out
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `+ 0.0` turns a negative zero into a plain one.
            let v = if m.value.is_finite() {
                m.value + 0.0
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
