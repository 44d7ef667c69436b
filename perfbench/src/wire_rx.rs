//! `wire_rx`: real small frames through the real parsers and codecs.
//!
//! One operation is one batch: a seeded corpus of about 400 messages of
//! the five-class service mix, sent by a sender `netstack::Interface`
//! and captured off the link as Ethernet frames — UDP datagrams
//! carrying v1/v2 class frames and CBOR agent messages, length-prefixed
//! records on four established TCP connections, and IP fragments of
//! oversized agent relay puts. A fixed share of frames is preceded by a
//! damaged copy: bad checksum, truncated, or lying in a length field.
//!
//! The measured part feeds every frame to the receiver's
//! `Interface::input_frame`, drains the UDP port and the TCP sockets,
//! hands each delivered message to `workload::dispatch_batch`, and
//! routes it by the dispatcher's classifier to the `signaling`
//! Q.93B/RPC/DNS decoders and servers, or the agent decoder.
//!
//! Simulated time: frames cross a modelled 50 Mb/s link in corpus
//! order, each message arriving at its scheduled time from the mixed
//! stream. A message's latency runs from that scheduled arrival to the
//! end of its last frame on the link, plus the cycles `dispatch_batch`
//! charged to the dispatch machine for it. The receiver's clock (whole
//! milliseconds) follows the link.

use crate::harness::{sub_seed, OpOut, Rng, Workload};
use cachesim::{Machine, MachineConfig};
use netstack::iface::{Channel, Device, Interface};
use netstack::tcp::machine::{TcpConfig, TcpEvent, TcpStack};
use netstack::wire::ethernet::EthernetAddr;
use netstack::wire::ipv4::Ipv4Addr;
use signaling::dns::{DnsMessage, DnsServer};
use signaling::rpc::{AttrServer, Procedure, RpcMessage, ROOT_HANDLE};
use signaling::{Message, MessageType, SignalingSwitch};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;
use workload::agent::{AgentKind, AgentMsg, Relay};
use workload::frame::{self, FrameVersion};
use workload::{classify, dispatch_batch, generate, DispatchStats, Frame, MixConfig, WireClass};

/// Batches per pass.
const OPS: usize = 100;
/// Mixed-stream rate and length per batch: about 400 messages.
const RATE_MSG_S: f64 = 8_000.0;
const BATCH_S: f64 = 0.05;
/// Share of intact frames preceded by a damaged copy.
const DAMAGE_SHARE: f64 = 0.08;
/// Modelled link speed, bits per microsecond (50 Mb/s).
const LINK_BITS_PER_US: f64 = 50.0;
const UDP_PORT: u16 = 7000;
const TCP_BASE_PORT: u16 = 7001;
const TCP_CONNS: usize = 4;
/// Bytes per connection per batch, below the 8 KiB receive window so
/// the sender never waits for the window to reopen.
const TCP_CONN_BUDGET: usize = 6000;
/// Frames handed to the receiver between delivery drains.
const CHUNK_FRAMES: usize = 32;
/// Agent relay destinations.
const RELAY_DESTS: u64 = 16;
/// Names in the DNS zone; queries also ask for as many unknown names.
const ZONE_NAMES: u64 = 16;

const ETH: usize = 14;
const IP: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Udp,
    Tcp(usize),
}

/// One intact message of the corpus.
#[derive(Debug)]
struct Msg {
    class: WireClass,
    bytes: Vec<u8>,
    transport: Transport,
    /// Scheduled arrival, microseconds.
    at_us: f64,
    /// End of its last intact frame on the link, microseconds.
    done_us: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    BadChecksum,
    Truncated,
    LyingLength,
}

/// One frame on the link.
#[derive(Debug)]
struct WireFrame {
    bytes: Vec<u8>,
    damage: Option<Damage>,
    /// End of the frame on the link, microseconds.
    end_us: f64,
}

fn host(n: u8) -> Interface {
    Interface::new(
        EthernetAddr([2, 0, 0, 0, 0, n]),
        Ipv4Addr::new(10, 0, 0, n),
        TcpStack::new(TcpConfig::default()),
    )
}

/// Pumps both interfaces until two consecutive quiet rounds.
fn settle(
    a: &mut Interface,
    ad: &mut Channel,
    b: &mut Interface,
    bd: &mut Channel,
) -> Result<(), String> {
    let (mut quiet, mut rounds) = (0, 0);
    while quiet < 2 {
        let n = a.poll(ad, 0) + b.poll(bd, 0);
        quiet = if n == 0 { quiet + 1 } else { 0 };
        rounds += 1;
        if rounds > 1000 {
            return Err("handshake did not quiesce".into());
        }
    }
    Ok(())
}

/// The receiving side of one batch: the interface under test, its link
/// end, the accepted socket per connection, and the servers behind it.
struct Receiver {
    b: Interface,
    bd: Channel,
    ad: Channel,
    sockets: [usize; TCP_CONNS],
    relay: Relay,
    machine: Machine,
    switch: SignalingSwitch,
    rpc: AttrServer,
    dns: DnsServer,
}

/// Everything the set-up phase produces.
struct Corpus {
    msgs: Vec<Msg>,
    frames: Vec<WireFrame>,
    rx: Receiver,
}

fn build(seed: u64, out: &mut OpOut) -> Result<Corpus, String> {
    let mut rng = Rng::new(seed);
    let stream = out.time("workload.generate_s", || {
        generate(&MixConfig::service_mix(RATE_MSG_S, BATCH_S, seed))
    });

    let (mut ad, mut bd) = Channel::pair();
    let mut a = host(1);
    let mut b = host(2);
    let (a_ip, a_mac, b_ip, b_mac) = (a.ip(), a.mac(), b.ip(), b.mac());
    a.add_arp_entry(b_ip, b_mac);
    b.add_arp_entry(a_ip, a_mac);
    b.udp_bind(UDP_PORT)
        .map_err(|e| format!("udp bind: {e:?}"))?;
    a.udp_bind(UDP_PORT)
        .map_err(|e| format!("udp bind: {e:?}"))?;
    let mut listeners = [0usize; TCP_CONNS];
    let mut conns = [0usize; TCP_CONNS];
    for c in 0..TCP_CONNS {
        let port = TCP_BASE_PORT + c as u16;
        listeners[c] = b
            .tcp
            .listen(b_ip, port)
            .map_err(|e| format!("listen: {e:?}"))?;
        conns[c] = a
            .tcp
            .connect(a_ip, b_ip, port, 0)
            .map_err(|e| format!("connect: {e:?}"))?;
    }
    settle(&mut a, &mut ad, &mut b, &mut bd)?;
    let mut sockets = [usize::MAX; TCP_CONNS];
    for (id, ev) in b.tcp.take_events() {
        if let TcpEvent::Accepted { listener } = ev {
            if let Some(c) = listeners.iter().position(|&l| l == listener) {
                sockets[c] = id;
            }
        }
    }
    if sockets.contains(&usize::MAX) {
        return Err("not every connection was accepted".into());
    }

    // Messages, in stream order, sent one by one and captured off the link.
    let mut msgs = Vec::with_capacity(stream.len());
    let mut captured: Vec<(Vec<u8>, usize)> = Vec::new();
    let mut conn_bytes = [0usize; TCP_CONNS];
    let mut seq = 0u32;
    for arr in &stream {
        seq += 1;
        let bytes = message_bytes(arr.class, arr.bytes, seq, &mut rng);
        let framed_rpc = matches!(arr.class, WireClass::ClientSignal | WireClass::SvcRpc);
        let c = rng.below(TCP_CONNS as u64) as usize;
        let transport =
            if framed_rpc && rng.unit() < 0.5 && conn_bytes[c] + bytes.len() + 2 <= TCP_CONN_BUDGET
            {
                Transport::Tcp(c)
            } else {
                Transport::Udp
            };
        let now_ms = (arr.time_s * 1000.0) as u64;
        match transport {
            Transport::Udp => a.udp_send(&mut ad, UDP_PORT, b_ip, UDP_PORT, &bytes),
            Transport::Tcp(c) => {
                // DNS-over-TCP style framing: a two-byte length prefix.
                let mut record = (bytes.len() as u16).to_be_bytes().to_vec();
                record.extend_from_slice(&bytes);
                let n = a
                    .tcp
                    .send(conns[c], &record, now_ms)
                    .map_err(|e| format!("tcp send: {e:?}"))?;
                if n != record.len() {
                    return Err(format!("tcp send took {n} of {} bytes", record.len()));
                }
                conn_bytes[c] += record.len();
                a.flush_tcp(&mut ad);
            }
        }
        let j = msgs.len();
        while let Some(f) = bd.receive() {
            captured.push((f, j));
        }
        msgs.push(Msg {
            class: arr.class,
            bytes,
            transport,
            at_us: arr.time_s * 1e6,
            done_us: 0.0,
        });
    }

    // Damaged copies ride just ahead of their intact frame; then every
    // frame crosses the link in order.
    let mut frames = Vec::with_capacity(captured.len() + captured.len() / 8);
    let mut link_free = 0.0f64;
    let mut on_link =
        |bytes: Vec<u8>, damage: Option<Damage>, at_us: f64, frames: &mut Vec<WireFrame>| {
            let start = link_free.max(at_us);
            let end_us = start + bytes.len() as f64 * 8.0 / LINK_BITS_PER_US;
            link_free = end_us;
            frames.push(WireFrame {
                bytes,
                damage,
                end_us,
            });
            end_us
        };
    for (f, j) in captured {
        let at = msgs[j].at_us;
        if rng.unit() < DAMAGE_SHARE {
            let (bad, kind) = damage(&f, &mut rng);
            on_link(bad, Some(kind), at, &mut frames);
        }
        msgs[j].done_us = on_link(f, None, at, &mut frames);
    }

    let mut dns = DnsServer::new();
    for k in 0..ZONE_NAMES {
        dns.add_record(&format!("svc{k}.example"), Ipv4Addr::new(10, 1, 0, k as u8));
    }
    let mut rpc = AttrServer::new();
    for k in 0..8u64 {
        rpc.add_file(ROOT_HANDLE, format!("file{k}").as_bytes(), 512 * k);
    }
    let rx = Receiver {
        b,
        bd,
        ad,
        sockets,
        relay: Relay::new(RELAY_DESTS as usize, u64::MAX / 4),
        machine: Machine::new(MachineConfig::synthetic_benchmark()),
        switch: SignalingSwitch::new(4096),
        rpc,
        dns,
    };
    Ok(Corpus { msgs, frames, rx })
}

/// The wire bytes of one message of `class`, about `size` bytes where
/// the class's format allows a free-sized body.
fn message_bytes(class: WireClass, size: u32, seq: u32, rng: &mut Rng) -> Vec<u8> {
    let framed = |payload: Vec<u8>, rng: &mut Rng| {
        let version = if rng.below(2) == 0 {
            FrameVersion::V1
        } else {
            FrameVersion::V2
        };
        let session = if version == FrameVersion::V2 {
            rng.below(1 << 20) as u32
        } else {
            0
        };
        Frame {
            version,
            class,
            flags: 0,
            seq,
            session,
            payload,
        }
        .encode()
    };
    match class {
        WireClass::ClientSignal => {
            let call_ref = rng.below(1 << 23) as u32 + 1;
            let msg = if rng.unit() < 0.6 {
                signaling::wire::sample_setup(call_ref)
            } else {
                Message::new(call_ref, MessageType::Release)
            };
            framed(msg.encode(), rng)
        }
        WireClass::SvcRpc => {
            let xid = rng.next_u64() as u32;
            let call = match rng.below(4) {
                0 => RpcMessage::Call {
                    xid,
                    proc: Procedure::Null,
                    handle: 0,
                    name: Vec::new(),
                },
                1 => RpcMessage::Call {
                    xid,
                    proc: Procedure::Lookup,
                    handle: ROOT_HANDLE,
                    name: format!("file{}", rng.below(12)).into_bytes(),
                },
                2 => RpcMessage::Call {
                    xid,
                    proc: Procedure::Access,
                    handle: ROOT_HANDLE + rng.below(10),
                    name: Vec::new(),
                },
                _ => RpcMessage::Call {
                    xid,
                    proc: Procedure::GetAttr,
                    handle: ROOT_HANDLE + rng.below(10),
                    name: Vec::new(),
                },
            };
            framed(call.encode(), rng)
        }
        WireClass::MediaCtl => {
            let body = (0..size.saturating_sub(16).max(4))
                .map(|_| rng.next_u64() as u8)
                .collect();
            framed(body, rng)
        }
        WireClass::Dns => {
            // Transaction ids are random, as resolvers draw them.
            let id = rng.below(1 << 16) as u16;
            DnsMessage::query(id, &format!("svc{}.example", rng.below(2 * ZONE_NAMES))).encode()
        }
        WireClass::Agent => {
            let pick = rng.below(10);
            let dest = 0x5e55_0000 + rng.below(RELAY_DESTS);
            let body_len = if pick < 6 && rng.below(3) == 0 {
                // Oversized relay puts: fragmented at the 1500-byte MTU.
                1_600 + rng.below(2_400) as u32
            } else {
                size.saturating_sub(24)
            };
            let body: Vec<u8> = (0..body_len).map(|_| rng.next_u64() as u8).collect();
            let (kind, session, body) = match pick {
                0..=2 => (AgentKind::RelayPut, dest, body),
                3..=4 => (AgentKind::RelayFetch, dest, Vec::new()),
                5 => (AgentKind::Hello, 0, Vec::new()),
                _ => (AgentKind::Request, rng.below(1 << 32), body),
            };
            AgentMsg {
                kind,
                session,
                seq,
                body,
            }
            .encode()
        }
    }
}

/// A damaged copy of `f`, damaged inside its IP datagram (short
/// frames carry Ethernet padding, which is not part of the datagram).
/// Fragments are damaged only where the IP header catches it: IP has no
/// payload integrity check, so a damaged fragment payload would
/// legitimately poison its datagram.
fn damage(f: &[u8], rng: &mut Rng) -> (Vec<u8>, Damage) {
    let mut d = f.to_vec();
    let total = u16::from_be_bytes([f[ETH + 2], f[ETH + 3]]);
    let end = ETH + usize::from(total);
    let frag_field = u16::from_be_bytes([f[ETH + 6], f[ETH + 7]]);
    let fragment = frag_field & 0x3fff != 0;
    let udp = f[ETH + 9] == 17;
    let l4_hdr = if udp {
        8
    } else {
        usize::from(f[ETH + IP + 12] >> 4) * 4
    };
    let payload_at = ETH + IP + l4_hdr;
    let mask = 1 + rng.below(255) as u8;
    let lie = 1 + rng.below(8) as u16;
    let kind = match rng.below(3) {
        0 => Damage::BadChecksum,
        1 => Damage::Truncated,
        _ => Damage::LyingLength,
    };
    match kind {
        Damage::BadChecksum if fragment || payload_at >= end => d[ETH + 8] ^= mask,
        Damage::BadChecksum => {
            d[payload_at + rng.below((end - payload_at) as u64) as usize] ^= mask
        }
        Damage::Truncated => d.truncate(ETH + rng.below(u64::from(total)) as usize),
        // The IP header claims more bytes than the frame holds.
        Damage::LyingLength if fragment || rng.below(2) == 0 => {
            set_ip_total_len(&mut d, (f.len() - ETH) as u16 + lie)
        }
        // The UDP length disagrees with the checksummed datagram.
        Damage::LyingLength if udp => {
            let len = u16::from_be_bytes([f[ETH + IP + 4], f[ETH + IP + 5]]);
            let fake = if rng.below(2) == 0 {
                len + lie
            } else {
                len.saturating_sub(lie).max(8)
            };
            d[ETH + IP + 4..ETH + IP + 6].copy_from_slice(&fake.to_be_bytes());
        }
        // The IP header (re-sealed) cuts the TCP segment short.
        Damage::LyingLength => {
            let payload = (end - payload_at).max(1) as u16;
            set_ip_total_len(&mut d, total - lie.min(payload));
        }
    }
    (d, kind)
}

/// Rewrites the IP total length and re-seals the header checksum, so
/// the lie passes the IP layer and must be caught above it.
fn set_ip_total_len(d: &mut [u8], total: u16) {
    d[ETH + 2..ETH + 4].copy_from_slice(&total.to_be_bytes());
    d[ETH + 10..ETH + 12].copy_from_slice(&[0, 0]);
    let c = netstack::checksum::simple(&d[ETH..ETH + IP]);
    d[ETH + 10..ETH + 12].copy_from_slice(&c.to_be_bytes());
}

pub struct WireRx {
    seed: u64,
}

impl WireRx {
    pub fn new(seed: u64) -> Self {
        WireRx { seed }
    }
}

impl Workload for WireRx {
    fn ops(&self) -> usize {
        OPS
    }

    fn run_op(&self, i: usize, traced: bool) -> OpOut {
        let mut out = OpOut {
            group: i,
            ..OpOut::default()
        };
        let t = Instant::now();
        let corpus = build(sub_seed(self.seed, i as u64), &mut out);
        out.setup_s = t.elapsed().as_secs_f64();
        match corpus {
            Ok(c) => receive(c, traced, &mut out),
            Err(e) => out.fail(format!("batch {i}: set-up failed: {e}")),
        }
        out
    }
}

/// The measured part of a batch, then its checks.
fn receive(corpus: Corpus, traced: bool, out: &mut OpOut) {
    let Corpus {
        msgs,
        frames,
        mut rx,
    } = corpus;
    if traced {
        rx.b.set_sink(obs::Sink::record(false), "rx/");
    }
    let stats0 = *rx.b.stats();
    let reass0 = rx.b.reassembly_stats();
    let clock_mhz = rx.machine.config().clock_mhz;

    // Message index by content, for matching deliveries.
    let mut by_bytes: BTreeMap<&[u8], VecDeque<usize>> = BTreeMap::new();
    for (j, m) in msgs.iter().enumerate() {
        by_bytes.entry(m.bytes.as_slice()).or_default().push_back(j);
    }
    let mut delivered = vec![false; msgs.len()];
    let mut dispatch_us = vec![0.0f64; msgs.len()];
    let mut useful = vec![false; msgs.len()];
    let mut accepted_damaged = Vec::new();
    let mut stray = 0u64;
    let mut parse_errors = 0u64;
    let mut streams: [Vec<u8>; TCP_CONNS] = Default::default();
    let mut dstats = DispatchStats::default();
    let mut fetched: Vec<Vec<u8>> = Vec::new();
    let mut inbox: Vec<Vec<u8>> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];

    let t = Instant::now();
    for chunk in frames.chunks(CHUNK_FRAMES) {
        out.time("netstack.input_s", || {
            for f in chunk {
                let now_ms = (f.end_us / 1000.0) as u64;
                let ok = rx.b.input_frame(&mut rx.bd, &f.bytes, now_ms).is_ok();
                if !ok {
                    parse_errors += 1;
                }
                if ok && f.damage.is_some() {
                    accepted_damaged.push(f.damage);
                }
            }
            while let Some(dg) = rx.b.udp_recv(UDP_PORT) {
                inbox.push(dg.payload);
            }
            for (c, stream) in streams.iter_mut().enumerate() {
                while let Ok(n @ 1..) = rx.b.tcp.recv(rx.sockets[c], &mut buf) {
                    stream.extend_from_slice(&buf[..n]);
                }
                // Peel off complete length-prefixed records.
                let mut at = 0;
                while let Some(len) = stream
                    .get(at..at + 2)
                    .map(|p| usize::from(u16::from_be_bytes([p[0], p[1]])))
                {
                    let Some(rec) = stream.get(at + 2..at + 2 + len) else {
                        break;
                    };
                    inbox.push(rec.to_vec());
                    at += 2 + len;
                }
                stream.drain(..at);
            }
        });
        // The receiver's acknowledgements have nowhere to go.
        while rx.ad.receive().is_some() {}

        for msg in inbox.drain(..) {
            let Some(j) = by_bytes.get_mut(msg.as_slice()).and_then(|q| q.pop_front()) else {
                stray += 1;
                continue;
            };
            delivered[j] = true;
            let now_cycles = (msgs[j].done_us * clock_mhz) as u64;
            let before = rx.machine.cycles();
            out.time("workload.dispatch_s", || {
                dispatch_batch(
                    std::slice::from_ref(&msg),
                    now_cycles,
                    &mut rx.relay,
                    &mut rx.machine,
                    &mut fetched,
                    &mut dstats,
                )
            });
            fetched.clear();
            dispatch_us[j] = rx.machine.cycles_to_us(rx.machine.cycles() - before);
            let class = classify(&msg);
            let handled = out.time("signaling.handle_s", || handle(&mut rx, class, &msg));
            useful[j] = class == Some(msgs[j].class) && answered(&handled, &msg);
        }
    }
    out.work_s = t.elapsed().as_secs_f64();
    if traced {
        drop(rx.b.take_sink());
    }

    // Checks.
    if let Some(kind) = accepted_damaged.first() {
        out.fail(format!(
            "{} damaged frames accepted (first: {kind:?})",
            accepted_damaged.len()
        ));
    }
    if stray > 0 {
        out.fail(format!(
            "{stray} delivered messages match no intact message"
        ));
    }
    let mut misrouted = 0u64;
    for (j, m) in msgs.iter().enumerate() {
        if !delivered[j] {
            out.fail(format!(
                "{:?} message {j} over {:?} was not delivered",
                m.class, m.transport
            ));
        } else if !useful[j] && tag_collision(m) {
            misrouted += 1;
        } else if !useful[j] {
            let seen = m.bytes.as_slice();
            out.fail(format!(
                "{:?} message {j} classified as {:?} or not served (leading bytes {:02x?})",
                m.class,
                classify(seen),
                &seen[..seen.len().min(4)]
            ));
        }
    }

    // Simulated outcomes: the cells are the message classes.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); smp::MAX_WCLASS];
    for (j, m) in msgs.iter().enumerate() {
        if useful[j] {
            latencies[m.class.index()].push(m.done_us - m.at_us + dispatch_us[j]);
        }
    }
    let n_msgs = msgs.len() as u64;
    let n_useful = useful.iter().filter(|&&u| u).count() as u64;
    out.msgs = n_msgs;
    out.attempts = n_msgs;
    out.useful = n_useful;
    out.busy_cycles = rx.machine.cycles();
    out.processed = delivered.iter().filter(|&&d| d).count() as u64;

    let s = rx.b.stats();
    let reass = rx.b.reassembly_stats();
    out.count("netstack.frames", frames.len() as f64);
    out.count(
        "netstack.frames_in",
        (s.frames_in - stats0.frames_in) as f64,
    );
    out.count("netstack.parse_errors", parse_errors as f64);
    out.count("netstack.udp_in", (s.udp_in - stats0.udp_in) as f64);
    out.count("netstack.tcp_in", (s.tcp_in - stats0.tcp_in) as f64);
    out.count(
        "netstack.fragments_in",
        (s.fragments_in - stats0.fragments_in) as f64,
    );
    out.count(
        "netstack.datagrams_reassembled",
        (s.datagrams_reassembled - stats0.datagrams_reassembled) as f64,
    );
    out.count(
        "netstack.reassembly_timeouts",
        (reass.timeouts - reass0.timeouts) as f64,
    );
    out.count("workload.dispatch.malformed", dstats.malformed as f64);
    out.count("workload.dispatch.misrouted", misrouted as f64);
    out.count("cachesim.processed", out.processed as f64);
    out.count("cachesim.imiss", rx.machine.stats().icache.misses as f64);
    out.count("cachesim.dmiss", rx.machine.stats().dcache.misses as f64);
    let replay = rx.machine.replay_stats();
    out.count("cachesim.replay_hits", replay.hits as f64);
    out.count("cachesim.replay_misses", replay.misses as f64);
    out.count("cachesim.replay_bypasses", replay.bypasses as f64);
    out.digest_str(&format!(
        "{n_msgs}|{n_useful}|{latencies:?}|{:?}|{dstats:?}|{:?}|{:?}|{:?}|{:?}",
        rx.machine.stats(),
        rx.relay.stats(),
        rx.switch.stats(),
        rx.rpc.stats(),
        rx.dns.stats()
    ));
    out.class_latencies_us = latencies;
}

/// True for a DNS message whose first byte is another class's tag under
/// `workload::classify`'s documented leading-byte rule: the frame magic
/// routes it to the framed classes, `0xa4` to agent traffic. DNS has no
/// tag of its own (it is the residual class), so such a query is routed
/// away from the DNS server as documented; it counts as an attempt lost
/// to goodput and in `workload.dispatch.misrouted`, not as a failed check.
/// Every other message must reach its own server.
fn tag_collision(m: &Msg) -> bool {
    m.class == WireClass::Dns && matches!(m.bytes.first(), Some(&(frame::MAGIC | 0xa4)))
}

/// What a server made of one delivered message.
enum Handled {
    Signal(Option<Vec<Message>>),
    Rpc(Option<Vec<u8>>),
    Media(bool),
    Dns(Vec<u8>),
    Agent(bool),
    Unclassified,
}

/// Routes one delivered message by the dispatcher's classification to
/// its decoder and server.
fn handle(rx: &mut Receiver, class: Option<WireClass>, msg: &[u8]) -> Handled {
    match class {
        Some(WireClass::ClientSignal) => Handled::Signal(
            Frame::decode(msg)
                .ok()
                .and_then(|f| Message::decode(&f.payload).ok())
                .map(|m| rx.switch.handle(&m)),
        ),
        Some(WireClass::SvcRpc) => {
            Handled::Rpc(Frame::decode(msg).ok().map(|f| rx.rpc.handle(&f.payload)))
        }
        Some(WireClass::MediaCtl) => Handled::Media(Frame::decode(msg).is_ok()),
        Some(WireClass::Dns) => Handled::Dns(rx.dns.handle(msg)),
        Some(WireClass::Agent) => Handled::Agent(AgentMsg::decode(msg).is_ok()),
        None => Handled::Unclassified,
    }
}

/// True when the server gave a well-formed answer to `msg` (for media
/// control and agents: when the envelope decoded).
fn answered(h: &Handled, msg: &[u8]) -> bool {
    match h {
        Handled::Signal(replies) => replies.as_ref().is_some_and(|r| !r.is_empty()),
        Handled::Rpc(reply) => {
            let call = Frame::decode(msg)
                .ok()
                .and_then(|f| RpcMessage::decode(&f.payload).ok());
            match (call, reply.as_deref().map(RpcMessage::decode)) {
                (
                    Some(RpcMessage::Call { xid, .. }),
                    Some(Ok(RpcMessage::Reply { xid: x, .. })),
                ) => x == xid,
                _ => false,
            }
        }
        Handled::Media(ok) | Handled::Agent(ok) => *ok,
        Handled::Dns(reply) => match (DnsMessage::decode(msg), DnsMessage::decode(reply)) {
            (Ok(q), Ok(r)) => r.response && r.id == q.id,
            _ => false,
        },
        Handled::Unclassified => false,
    }
}
