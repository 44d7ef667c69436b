//! The saturated-path impairment sweep (`results/impairments.csv`):
//! the signalling workload rerun across a lossy channel with
//! retransmission enabled, LDLP vs. conventional, over loss rates
//! 0–10% (i.i.d. and Gilbert–Elliott bursty) and reorder depths.
//! Every cell also drives real wire frames through the same
//! impairment model at the netstack level, so the CSV records which
//! exception paths fired: checksum rejection, TCP out-of-order
//! buffering and retransmission, and IP reassembly timeout.

use crate::sweep::{self, average};
use crate::{f, Observe, Output, RunOpts, Track};
use ldlp::{BatchPolicy, Discipline, StackEngine};
use netstack::iface::{Channel, Device, Interface};
use netstack::ipfrag::REASSEMBLY_TIMEOUT_MS;
use netstack::tcp::machine::{TcpConfig, TcpEvent, TcpStack};
use netstack::tcp::pcb::TcpState;
use netstack::wire::ethernet::EthernetAddr;
use netstack::wire::ipv4::Ipv4Addr;
use signaling::workload::{goal_machine, signaling_stack};
use signaling::{lossy_call_arrivals, LossyCallConfig, RecoveryStats, RetryPolicy};
use simnet::impair::{reorder_deliveries, GilbertElliott, ImpairConfig, ImpairState};
use simnet::stats::SimReport;
use simnet::{EventLoop, SimConfig};

/// Call-attempt rate of the sweep: near the goal machine's knee, so
/// the impairments act on a loaded switch rather than an idle one.
pub const PAIRS_PER_S: f64 = 8_000.0;
/// Mean call hold time, seconds (RELEASE follows SETUP by this).
pub const HOLD_S: f64 = 0.02;

/// One cell of the impairment grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairCell {
    /// Mean packet loss, percent.
    pub loss_pct: f64,
    /// Losses clustered by the Gilbert–Elliott chain instead of
    /// falling independently.
    pub bursty: bool,
    /// NIC-queue reorder depth (0 = in-order delivery).
    pub reorder_depth: usize,
}

/// The sweep grid: loss points x {i.i.d., bursty} x reorder depths.
/// The bursty variant is skipped at zero loss (it would be identical
/// to the i.i.d. row).
pub fn grid(smoke: bool) -> Vec<ImpairCell> {
    let loss_pct: &[f64] = if smoke {
        &[0.0, 2.0, 10.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    };
    let mut cells = Vec::new();
    for &loss in loss_pct {
        for bursty in [false, true] {
            if bursty && loss == 0.0 {
                continue;
            }
            for depth in [0usize, 8] {
                cells.push(ImpairCell {
                    loss_pct: loss,
                    bursty,
                    reorder_depth: depth,
                });
            }
        }
    }
    cells
}

/// The channel a cell stands for. Corruption scales with the loss
/// rate (half of it), so the checksum-reject path is exercised in
/// every impaired cell; bursty cells lose the same mean fraction in
/// runs of ~4 packets.
pub fn cell_channel(cell: ImpairCell, seed: u64) -> ImpairConfig {
    let loss = cell.loss_pct / 100.0;
    ImpairConfig {
        drop_prob: if cell.bursty { 0.0 } else { loss },
        gilbert: cell.bursty.then(|| GilbertElliott::bursty(loss, 4.0, 0.5)),
        corrupt_prob: loss / 2.0,
        seed,
        ..ImpairConfig::default()
    }
}

/// Exception-path counters from the wire-level pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Frames rejected by a checksum after a payload byte flip.
    pub checksum_rejects: u64,
    /// TCP segments retransmitted to cover losses.
    pub tcp_retransmits: u64,
    /// TCP segments buffered past a receive gap.
    pub ooo_buffered: u64,
    /// IP reassemblies reclaimed by the timer after fragment loss.
    pub reassembly_timeouts: u64,
    /// IP reassemblies displaced by a newer datagram when the
    /// per-host reassembly table was full (distinct from timeouts).
    pub reassembly_evictions: u64,
}

/// A link-layer [`Device`] with the impairment channel on its
/// transmit side: frames are dropped, corrupted (one byte flipped
/// mid-frame, exactly what a checksum must catch), duplicated, or
/// held back `reorder_slip` deliveries. `netstack` cannot depend on
/// `simnet`, so the adapter lives here in the harness.
pub struct ImpairedDevice<D: Device> {
    inner: D,
    chan: ImpairState,
    /// Held (reordered) frames: (deliveries still to pass them, frame).
    held: Vec<(usize, Vec<u8>)>,
}

impl<D: Device> ImpairedDevice<D> {
    /// Wraps `inner` with the impairment channel `cfg`.
    pub fn new(inner: D, cfg: ImpairConfig) -> Self {
        ImpairedDevice {
            inner,
            chan: ImpairState::new(cfg),
            held: Vec::new(),
        }
    }

    /// Channel counters accumulated so far.
    pub fn counters(&self) -> simnet::ImpairCounters {
        self.chan.counters()
    }

    /// A frame is being delivered: held frames each move one slot
    /// closer and any that are due go out ahead of it.
    fn advance_held(&mut self) {
        let mut i = 0;
        while i < self.held.len() {
            self.held[i].0 -= 1;
            if self.held[i].0 == 0 {
                let (_, frame) = self.held.remove(i);
                self.inner.transmit(frame);
            } else {
                i += 1;
            }
        }
    }
}

impl<D: Device> Device for ImpairedDevice<D> {
    fn transmit(&mut self, mut frame: Vec<u8>) {
        let fate = self.chan.next_fate();
        if fate.dropped {
            return;
        }
        if fate.corrupted {
            let mid = frame.len() / 2;
            if let Some(b) = frame.get_mut(mid) {
                *b ^= 0xff;
            }
        }
        // Same release rule as `simnet::impair`: every frame
        // crossing the channel advances the held ones, so holds are
        // bounded even if every frame reorders.
        self.advance_held();
        if fate.reorder_slip > 0 {
            self.held.push((fate.reorder_slip, frame));
            return;
        }
        let dup = fate.duplicated.then(|| frame.clone());
        self.inner.transmit(frame);
        if let Some(copy) = dup {
            self.inner.transmit(copy);
        }
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        self.inner.receive()
    }
}

fn wire_host(n: u8) -> Interface {
    Interface::new(
        EthernetAddr([2, 0, 0, 0, 0, n]),
        Ipv4Addr::new(192, 168, 96, n),
        TcpStack::new(TcpConfig::default()),
    )
}

/// How many fragmented UDP datagrams [`wire_exercise`] sends. Each
/// fragments into three frames, so together with the TCP transfer
/// the exchange pushes enough frames that a corruption probability
/// of a few percent reliably trips a checksum somewhere.
pub const WIRE_UDP_DATAGRAMS: usize = 24;

/// Drives a 4 KB TCP transfer and fragmented UDP datagrams
/// across an impaired link and reports which exception paths fired.
/// TCP recovers losses by retransmission; fragments stranded by a
/// lost sibling are reclaimed by the reassembly timer at the end.
/// Completion is not asserted — at the heaviest impairment the
/// point is precisely how much recovery work was needed — and the
/// whole exchange is deterministic for a given channel config.
/// `sink` rides on the receiving interface: instant events
/// (`wire/frame_in`, `wire/parse_error`, `wire/fragment_in`, …)
/// stamped in milliseconds of link time.
pub fn wire_exercise(cfg: ImpairConfig, sink: obs::Sink) -> (WireCounters, obs::Sink) {
    let (ad, bd) = Channel::pair();
    let mut ad = ImpairedDevice::new(ad, cfg);
    let mut bd = ImpairedDevice::new(
        bd,
        ImpairConfig {
            seed: cfg.seed.wrapping_add(1),
            ..cfg
        },
    );
    let mut a = wire_host(1);
    let mut b = wire_host(2);
    b.set_sink(sink, "wire/");
    let (a_ip, a_mac, b_ip, b_mac) = (a.ip(), a.mac(), b.ip(), b.mac());
    a.add_arp_entry(b_ip, b_mac);
    b.add_arp_entry(a_ip, a_mac);
    b.udp_bind(4000).unwrap();
    b.tcp.listen(b_ip, 9).unwrap();
    let conn = a.tcp.connect(a_ip, b_ip, 9, 0).unwrap();

    let payload: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
    let (mut sent, mut received, mut udp_sent) = (0usize, 0usize, 0usize);
    let mut srv = None;
    let mut buf = [0u8; 2048];
    let mut now: u64 = 0;
    while now < 120_000 {
        // Pump both directions until quiet (bounded: duplicates and
        // releases of held frames can extend an exchange).
        for _ in 0..200 {
            let n = a.poll(&mut ad, now) + b.poll(&mut bd, now);
            a.flush_tcp(&mut ad);
            b.flush_tcp(&mut bd);
            if n == 0 {
                break;
            }
        }
        if srv.is_none() {
            srv = b
                .tcp
                .take_events()
                .iter()
                .find_map(|(id, e)| matches!(e, TcpEvent::Accepted { .. }).then_some(*id));
        }
        if a.tcp.state(conn) == TcpState::Established && sent < payload.len() {
            sent += a
                .tcp
                .send(conn, &payload[sent..(sent + 1000).min(payload.len())], now)
                .unwrap_or(0);
            a.flush_tcp(&mut ad);
        }
        if let Some(s) = srv {
            while let Ok(n) = b.tcp.recv(s, &mut buf) {
                if n == 0 {
                    break;
                }
                received += n;
            }
        }
        if udp_sent < WIRE_UDP_DATAGRAMS {
            // A 3000-byte datagram fragments into three frames; any
            // lost fragment strands its siblings until the timer.
            a.udp_send(&mut ad, 4001, b_ip, 4000, &[0xab; 3000]);
            udp_sent += 1;
        }
        while b.udp_recv(4000).is_some() {}
        if received >= payload.len() && udp_sent >= WIRE_UDP_DATAGRAMS {
            break;
        }
        now += 1100; // step past the TCP RTO so losses retransmit
        a.tcp.poll(now);
        b.tcp.poll(now);
        a.flush_tcp(&mut ad);
        b.flush_tcp(&mut bd);
    }
    // One idle poll far enough out for stranded reassemblies to expire.
    let end = now + REASSEMBLY_TIMEOUT_MS + 1;
    a.poll(&mut ad, end);
    b.poll(&mut bd, end);
    let counters = WireCounters {
        checksum_rejects: a.stats().parse_errors + b.stats().parse_errors,
        tcp_retransmits: a.tcp.stats().retransmits + b.tcp.stats().retransmits,
        ooo_buffered: a.tcp.stats().ooo_buffered + b.tcp.stats().ooo_buffered,
        reassembly_timeouts: a.reassembly_stats().timeouts + b.reassembly_stats().timeouts,
        reassembly_evictions: a.reassembly_stats().evictions + b.reassembly_stats().evictions,
    };
    (counters, b.take_sink())
}

/// One finished cell: seed-averaged reports for both disciplines,
/// recovery bookkeeping summed across seeds, and the wire-level
/// exception-path counters.
#[derive(Debug, Clone)]
pub struct ImpairPoint {
    pub cell: ImpairCell,
    pub conventional: SimReport,
    pub ldlp: SimReport,
    /// Summed over seeds (totals, not means).
    pub recovery: RecoveryStats,
    pub wire: WireCounters,
}

fn fold_recovery(into: &mut RecoveryStats, s: &RecoveryStats) {
    into.calls += s.calls;
    into.connected += s.connected;
    into.abandoned += s.abandoned;
    into.transmissions += s.transmissions;
    into.retransmits += s.retransmits;
    into.releases_sent += s.releases_sent;
    into.abandon_releases += s.abandon_releases;
    into.exhausted_sends += s.exhausted_sends;
}

fn run_discipline(
    discipline: Discipline,
    seed: u64,
    deliveries: &[simnet::ImpairedArrival],
    net: simnet::ImpairCounters,
    duration_s: f64,
    sink: obs::Sink,
    prefix: &str,
) -> (SimReport, obs::Sink) {
    let (machine, layers) = signaling_stack(goal_machine(), seed);
    // AAL5 (layer 0) carries the CRC-32, so corrupted deliveries die
    // there after costing exactly one layer of processing.
    let mut engine = StackEngine::new(machine, layers, discipline).with_verify_layer(0);
    engine.set_sink(sink, prefix);
    let sim_cfg = SimConfig {
        duration_s,
        pool_seed: seed,
        ..SimConfig::default()
    };
    let machine = *engine.machine().config();
    let engines = std::slice::from_mut(&mut engine);
    let mut lp = EventLoop::new(&sim_cfg.one_core(machine), engines);
    lp.run(engines, deliveries, None);
    let report = lp.outcome(engines, net).report;
    crate::perf::note_machine(engine.machine());
    assert!(
        report.conservation_holds(),
        "conservation violated: {report:?}"
    );
    (report, engine.take_sink())
}

/// The representative cell the `--trace`/`--metrics` pass reruns at
/// seed 1: mid-grid loss (2%, i.i.d.) with reorder depth 8, present in
/// both the smoke and full grids.
pub const OBSERVED_CELL: ImpairCell = ImpairCell {
    loss_pct: 2.0,
    bursty: false,
    reorder_depth: 8,
};

/// Reruns [`OBSERVED_CELL`] with sinks attached: the signalling
/// workload under both disciplines shares one recorder (cycle
/// timestamps), and the wire-level exchange gets its own (millisecond
/// timestamps). Returns the two as tracks, `signaling` then `wire`.
pub fn observed_cell(duration_s: f64, collect_spans: bool) -> [Track; 2] {
    let cell = OBSERVED_CELL;
    let seed = 1;
    let cfg = LossyCallConfig {
        pairs_per_s: PAIRS_PER_S,
        hold_s: HOLD_S,
        duration_s,
        seed,
        channel: cell_channel(cell, seed),
        retry: RetryPolicy::default(),
    };
    let (deliveries, counters, _stats) = lossy_call_arrivals(&cfg);
    let mut sink = obs::Sink::record(collect_spans);
    for (discipline, prefix) in [
        (Discipline::Conventional, "conv/"),
        (Discipline::Ldlp(BatchPolicy::DCacheFit), "ldlp/"),
    ] {
        sink = run_discipline(
            discipline,
            seed,
            &deliveries,
            counters,
            duration_s,
            sink,
            prefix,
        )
        .1;
    }
    let (_, wire_sink) = wire_exercise(
        ImpairConfig {
            reorder_prob: 0.25,
            reorder_depth: cell.reorder_depth,
            ..cell_channel(cell, 0x0eed)
        },
        obs::Sink::record(collect_spans),
    );
    [
        Track {
            process: "signaling".into(),
            recorder: sink.into_recorder().expect("sink was attached"),
            units_per_us: goal_machine().clock_mhz,
        },
        Track {
            process: "wire".into(),
            recorder: wire_sink.into_recorder().expect("sink was attached"),
            units_per_us: 0.001, // millisecond-stamped iface events
        },
    ]
}

/// One (cell, seed) job: both disciplines over the same lossy call
/// stream, its recovery bookkeeping, and — once per cell, at seed 1 —
/// the wire-level pass (which does not depend on the seed).
fn run_seed(
    cell: ImpairCell,
    seed: u64,
    duration_s: f64,
) -> (SimReport, SimReport, RecoveryStats, Option<WireCounters>) {
    let cfg = LossyCallConfig {
        pairs_per_s: PAIRS_PER_S,
        hold_s: HOLD_S,
        duration_s,
        seed,
        channel: cell_channel(cell, seed),
        retry: RetryPolicy::default(),
    };
    let (mut deliveries, mut counters, stats) = lossy_call_arrivals(&cfg);
    if cell.reorder_depth > 0 {
        let (reordered, rc) = reorder_deliveries(
            &deliveries,
            ImpairConfig {
                reorder_prob: 0.25,
                reorder_depth: cell.reorder_depth,
                seed: seed ^ 0x5eed,
                ..ImpairConfig::default()
            },
        );
        deliveries = reordered;
        counters.reordered += rc.reordered;
    }
    let run = |discipline| {
        let sink = obs::Sink::Off;
        run_discipline(
            discipline,
            seed,
            &deliveries,
            counters,
            duration_s,
            sink,
            "",
        )
        .0
    };
    let wire = (seed == 1).then(|| {
        let channel = ImpairConfig {
            reorder_prob: if cell.reorder_depth > 0 { 0.25 } else { 0.0 },
            reorder_depth: cell.reorder_depth,
            ..cell_channel(cell, 0x0eed)
        };
        wire_exercise(channel, obs::Sink::Off).0
    });
    (
        run(Discipline::Conventional),
        run(Discipline::Ldlp(BatchPolicy::DCacheFit)),
        stats,
        wire,
    )
}

/// Runs the sweep: every cell × the seeds, reduced per cell in seed
/// order so the CSV is byte-identical for every thread count.
pub fn impairment_sweep(opts: &RunOpts) -> Vec<ImpairPoint> {
    let cells = grid(opts.smoke);
    let runs = sweep::grid(opts, &cells, |&cell, seed| {
        run_seed(cell, seed, opts.duration_s())
    });
    cells
        .into_iter()
        .zip(runs)
        .map(|(cell, per_seed)| {
            let mut recovery = RecoveryStats::default();
            for job in &per_seed {
                fold_recovery(&mut recovery, &job.2);
            }
            ImpairPoint {
                cell,
                wire: per_seed.iter().find_map(|job| job.3).unwrap_or_default(),
                conventional: average(per_seed.iter().map(|job| job.0.clone())),
                ldlp: average(per_seed.into_iter().map(|job| job.1)),
                recovery,
            }
        })
        .collect()
}

pub const IMPAIRMENTS_HEADER: &str = "loss_pct,burst,reorder_depth,conv_throughput,\
                                      ldlp_throughput,conv_goodput,ldlp_goodput,conv_latency_us,\
                                      ldlp_latency_us,conv_p99_us,ldlp_p99_us,conv_rejected,\
                                      ldlp_rejected,retransmits,abandoned,wire_checksum_rejects,\
                                      wire_tcp_retransmits,wire_ooo_buffered,\
                                      wire_reassembly_timeouts,wire_reassembly_evictions";

/// The `impairments` registry entry: the sweep's CSV, plus one
/// observed rerun of [`OBSERVED_CELL`] under `--metrics`/`--trace`.
/// The two recorders use disjoint name prefixes, so their merge is one
/// metrics document covering both levels.
pub fn run(opts: &RunOpts, observe: Observe) -> Output {
    let rows = impairment_sweep(opts)
        .iter()
        .map(|p| {
            vec![
                f(p.cell.loss_pct, 1),
                (p.cell.bursty as u8).to_string(),
                p.cell.reorder_depth.to_string(),
                f(p.conventional.throughput, 1),
                f(p.ldlp.throughput, 1),
                f(p.conventional.goodput, 1),
                f(p.ldlp.goodput, 1),
                f(p.conventional.mean_latency_us, 2),
                f(p.ldlp.mean_latency_us, 2),
                f(p.conventional.p99_latency_us, 2),
                f(p.ldlp.p99_latency_us, 2),
                p.conventional.rejected.to_string(),
                p.ldlp.rejected.to_string(),
                p.recovery.retransmits.to_string(),
                p.recovery.abandoned.to_string(),
                p.wire.checksum_rejects.to_string(),
                p.wire.tcp_retransmits.to_string(),
                p.wire.ooo_buffered.to_string(),
                p.wire.reassembly_timeouts.to_string(),
                p.wire.reassembly_evictions.to_string(),
            ]
        })
        .collect();
    let mut out = Output::csv(opts.csv_name("impairments"), IMPAIRMENTS_HEADER, rows);
    if observe.metrics || observe.trace {
        let [sim, wire] = observed_cell(opts.duration_s(), observe.trace);
        if observe.metrics {
            let mut merged = sim.recorder.clone();
            merged.merge(&wire.recorder);
            out.recorder = Some(merged);
        }
        if observe.trace {
            out.trace = vec![sim, wire];
        }
    }
    out
}
