//! Property tests for the statistics layer and the simulator's
//! conservation law.
//!
//! * [`simnet::stats::percentile`] must be monotone in `q`, bounded by
//!   the sample extremes, and agree with an independently-written
//!   reference implementation on every input.
//! * `offered == completed + rejected + drops + shed + in_flight` must
//!   hold under arbitrary duplication and corruption impairments (the
//!   accounting seam where double-counting bugs would hide).
//! * The closed-loop population's one-event-per-client scheduler must
//!   emit exactly what a lazily-deleted event heap emits, under any
//!   acknowledgement schedule.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::impair::{impair_arrivals, ImpairConfig, ImpairState};
use simnet::stats::percentile;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{
    AckKind, Class, ClientSend, ClosedConfig, ClosedPopulation, ClosedStats, EventLoop,
    RetransmitTimer, RetryPolicy, SimConfig,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};

/// Independent reference: linear interpolation between the order
/// statistics at rank `(n - 1) * q`, written from the definition rather
/// than by mirroring the production code.
fn percentile_reference(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (n - 1) as f64;
    let below = sorted[pos.floor() as usize];
    let above = sorted[(pos.floor() as usize + 1).min(n - 1)];
    below + (above - below) * pos.fract()
}

fn sorted_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1e6, 1..40).prop_map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        v
    })
}

proptest! {
    #[test]
    fn percentile_is_monotone_in_q(samples in sorted_samples(), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(
            percentile(&samples, lo) <= percentile(&samples, hi),
            "percentile must not decrease as q grows"
        );
    }

    #[test]
    fn percentile_is_bounded_by_the_extremes(samples in sorted_samples(), q in 0.0f64..=1.0) {
        let p = percentile(&samples, q);
        let min = samples[0];
        let max = samples[samples.len() - 1];
        prop_assert!(p >= min, "percentile {p} below min {min}");
        prop_assert!(p <= max, "percentile {p} above max {max}");
    }

    #[test]
    fn percentile_hits_the_endpoints(samples in sorted_samples()) {
        prop_assert_eq!(percentile(&samples, 0.0), samples[0]);
        prop_assert_eq!(percentile(&samples, 1.0), samples[samples.len() - 1]);
    }

    #[test]
    fn percentile_agrees_with_the_reference(samples in sorted_samples(), q in 0.0f64..=1.0) {
        let got = percentile(&samples, q);
        let want = percentile_reference(&samples, q);
        prop_assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "percentile({q}) = {got}, reference = {want}"
        );
    }

    #[test]
    fn percentile_of_a_constant_is_the_constant(v in 0.0f64..1e6, n in 1usize..30, q in 0.0f64..=1.0) {
        let samples = vec![v; n];
        // `v*(1-frac) + v*frac` can land one ulp away from `v`.
        let p = percentile(&samples, q);
        prop_assert!((p - v).abs() <= f64::EPSILON * v.abs(), "percentile({q}) = {p}, want {v}");
    }

    /// Conservation under duplication + corruption: every duplicated
    /// delivery is a fresh offered message and every corrupted one must
    /// land in `rejected`, never vanish or double-count.
    #[test]
    fn conservation_holds_under_duplication_and_corruption(
        dup_pct in 0u32..40,
        corrupt_pct in 0u32..40,
        rate in 1000u32..8000,
        seed in 1u64..64,
        ldlp in any::<bool>(),
    ) {
        let duration_s = 0.02;
        let arrivals = PoissonSource::new(rate as f64, 552, seed).take_until(duration_s);
        let (deliveries, counters) = impair_arrivals(
            &arrivals,
            ImpairConfig {
                dup_prob: dup_pct as f64 / 100.0,
                corrupt_prob: corrupt_pct as f64 / 100.0,
                seed: seed ^ 0xc0de,
                ..ImpairConfig::default()
            },
        );
        let discipline = if ldlp {
            Discipline::Ldlp(BatchPolicy::DCacheFit)
        } else {
            Discipline::Conventional
        };
        let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        // Verify at layer 0 so corrupted deliveries are rejected there.
        let mut engine = StackEngine::new(machine, layers, discipline).with_verify_layer(0);
        let cfg = SimConfig {
            duration_s,
            pool_seed: seed,
            ..SimConfig::default()
        };
        let machine = *engine.machine().config();
        let engines = std::slice::from_mut(&mut engine);
        let mut lp = EventLoop::new(&cfg.one_core(machine), engines);
        lp.run(engines, &deliveries, None);
        let r = lp.outcome(engines, counters).report;
        prop_assert!(r.conservation_holds(), "conservation violated: {r:?}");
        prop_assert_eq!(r.offered, deliveries.len() as u64, "every delivery is offered");
        prop_assert_eq!(r.net_duplicated, counters.duplicated);
        prop_assert_eq!(r.net_corrupted, counters.corrupted);
        if corrupt_pct == 0 {
            prop_assert_eq!(r.rejected, 0, "clean runs reject nothing");
        }
    }
}

/// Reference closed-loop population: the obvious design, one heap entry
/// per armed event, where an acknowledgement leaves the cancelled timer
/// in the heap and a popped event that no longer matches its client is
/// skipped. Heap order `(time, client, req, timer?)` with `total_cmp`
/// time; `waiting` is `None` while idle, `Some(timer)` while a request
/// is outstanding.
struct RefPopulation {
    think_s: f64,
    duration_s: f64,
    policy: RetryPolicy,
    /// Per client: (req, start_s, waiting timer, retired).
    clients: Vec<(u64, f64, Option<RetransmitTimer>, bool)>,
    heap: BinaryHeap<Reverse<(u64, u32, u64, bool)>>,
    rng: StdRng,
    chan: ImpairState,
    stats: ClosedStats,
    latencies_us: Vec<f64>,
}

/// `total_cmp`-ordered integer key, so the heap entries are `Ord`.
fn ref_key(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

fn ref_time(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

impl RefPopulation {
    fn new(cfg: &ClosedConfig) -> Self {
        let max_retries = if cfg.retry_budget_on {
            cfg.retry.max_retries
        } else {
            u32::MAX - 1
        };
        let mut pop = RefPopulation {
            think_s: cfg.think_s,
            duration_s: cfg.duration_s,
            policy: RetryPolicy {
                max_retries,
                ..cfg.retry
            },
            clients: vec![(0, 0.0, None, false); cfg.clients as usize],
            heap: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            chan: ImpairState::new(cfg.channel),
            stats: ClosedStats::default(),
            latencies_us: Vec::new(),
        };
        for client in 0..cfg.clients {
            let t = pop.think();
            pop.heap.push(Reverse((ref_key(t), client, 1, false)));
        }
        pop
    }

    fn think(&mut self) -> f64 {
        -self.think_s * self.rng.random::<f64>().max(1e-12).ln()
    }

    fn send(&mut self, time_s: f64, client: u32, req: u64, out: &mut Vec<ClientSend>) {
        let class = Class::of_client(client);
        self.stats.transmissions += 1;
        let fate = self.chan.next_fate();
        if fate.dropped {
            self.stats.channel_dropped += 1;
            return;
        }
        let copies = if fate.duplicated { 2 } else { 1 };
        for _ in 0..copies {
            let (bytes, corrupted) = (class.bytes(), fate.corrupted);
            out.push(ClientSend {
                time_s,
                client,
                req,
                bytes,
                corrupted,
                class,
            });
            self.stats.offered += 1;
        }
    }

    fn poll_sends(&mut self, until_s: f64, out: &mut Vec<ClientSend>) {
        while let Some(&Reverse((key, client, req, timer))) = self.heap.peek() {
            let t = ref_time(key);
            if t > until_s {
                break;
            }
            self.heap.pop();
            let c = self.clients[client as usize];
            if timer {
                let Some(mut tm) = c.2.filter(|_| c.0 == req) else {
                    continue;
                };
                match tm.expire() {
                    Some(retx) => {
                        self.clients[client as usize].2 = Some(tm);
                        self.send(retx, client, req, out);
                        self.heap
                            .push(Reverse((ref_key(tm.deadline_s()), client, req, true)));
                    }
                    None => {
                        self.clients[client as usize].2 = None;
                        self.stats.abandoned_requests += 1;
                        let next = t + self.think();
                        self.heap
                            .push(Reverse((ref_key(next), client, req + 1, false)));
                    }
                }
            } else if c.2.is_none() && !c.3 {
                if t > self.duration_s {
                    self.clients[client as usize].3 = true;
                    continue;
                }
                let tm = RetransmitTimer::arm(self.policy, t);
                self.clients[client as usize] = (c.0 + 1, t, Some(tm), false);
                self.stats.requests += 1;
                self.stats.per_class_requests[Class::of_client(client).index()] += 1;
                self.send(t, client, c.0 + 1, out);
                self.heap
                    .push(Reverse((ref_key(tm.deadline_s()), client, c.0 + 1, true)));
            }
        }
    }

    fn ack(&mut self, client: u32, req: u64, t_s: f64) -> AckKind {
        let Some(c) = self.clients.get_mut(client as usize) else {
            return AckKind::Stale;
        };
        if c.2.is_none() || c.0 != req {
            return AckKind::Stale;
        }
        c.2 = None;
        let latency_us = (t_s - c.1) * 1e6;
        self.stats.useful += 1;
        self.stats.per_class_useful[Class::of_client(client).index()] += 1;
        self.latencies_us.push(latency_us);
        let next = t_s + self.think();
        self.heap
            .push(Reverse((ref_key(next), client, req + 1, false)));
        AckKind::Useful { latency_us }
    }
}

proptest! {
    /// The one-live-event scheduler against the lazily-deleted heap:
    /// both populations see the same polls and the same random
    /// acknowledgement schedule (some sends never acked, some acked
    /// twice, some acks for unknown requests) and must emit the same
    /// sends, classify every ack the same way, and end with the same
    /// counters and latency samples.
    #[test]
    fn closed_scheduler_matches_a_lazily_deleted_heap(
        clients in 1u32..40,
        think_ms in 0.05f64..10.0,
        budget_on in any::<bool>(),
        max_retries in 0u32..5,
        loss_pct in 0u32..30,
        dup_pct in 0u32..30,
        corrupt_pct in 0u32..20,
        seed in 0u64..1_000,
        ack_pct in 0u32..101,
        step_ms in 0.1f64..10.0,
    ) {
        let cfg = ClosedConfig {
            retry: RetryPolicy { max_retries, max_rto_s: 0.02, ..RetryPolicy::default() },
            retry_budget_on: budget_on,
            channel: ImpairConfig {
                drop_prob: loss_pct as f64 / 100.0,
                dup_prob: dup_pct as f64 / 100.0,
                corrupt_prob: corrupt_pct as f64 / 100.0,
                seed: seed ^ 0x5eed,
                ..ImpairConfig::default()
            },
            // Zero think time puts every client's events on the same
            // instants, so ties must break by client id as in the heap.
            ..ClosedConfig::new(clients, if think_ms < 2.0 { 0.0 } else { think_ms * 1e-3 }, 0.1, seed)
        };
        let mut pop = ClosedPopulation::new(&cfg);
        let mut reference = RefPopulation::new(&cfg);
        let mut sched = StdRng::seed_from_u64(seed ^ 0xac4);
        // Pending acks as (time key, client, req), earliest first.
        let mut acks: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0.0f64;
        while now < 0.2 {
            let next_ack = acks.peek().map(|Reverse(a)| ref_time(a.0));
            now = next_ack.map_or(now + step_ms * 1e-3, |t| t.min(now + step_ms * 1e-3));
            got.clear();
            want.clear();
            pop.poll_sends(now, &mut got);
            reference.poll_sends(now, &mut want);
            prop_assert_eq!(&got, &want, "sends polled up to {}", now);
            for s in &got {
                if s.corrupted || sched.random_range(0u32..100) >= ack_pct {
                    continue;
                }
                let done = s.time_s + sched.random::<f64>() * 0.03;
                acks.push(Reverse((ref_key(done), s.client, s.req)));
                if sched.random_range(0u32..10) == 0 {
                    // A stray completion: a late copy or a foreign id.
                    let req = s.req + u64::from(sched.random_range(0u32..2));
                    acks.push(Reverse((ref_key(done + 1e-3), s.client + 1, req)));
                }
            }
            if next_ack.is_some_and(|t| t <= now) {
                let Some(Reverse((key, client, req))) = acks.pop() else { break };
                let t = ref_time(key);
                prop_assert_eq!(pop.ack(client, req, t), reference.ack(client, req, t));
            }
        }
        prop_assert!(reference.stats.requests > 0, "the population ran");
        prop_assert_eq!(pop.stats(), &reference.stats);
        prop_assert_eq!(pop.latencies_us(), &reference.latencies_us[..]);
    }
}
