//! The event loop: arrivals, bounded entry queues, batch admission,
//! per-core LDLP engines over a shared L2, and latency accounting.
//!
//! The loop implements the paper's online LDLP algorithm (Section 3.1):
//! "when the protocol stack is able to accept a new message, it takes all
//! available messages and processes them in a blocked pattern. When it is
//! finished, it again looks for new messages." Under light load batches
//! are singletons; under heavy load they grow to the engine's batch cap.
//! Messages arriving while a batch is in flight wait in a bounded entry
//! queue (the adaptor buffer: 500 packets in the paper); beyond that,
//! the configured [`AdmissionPolicy`] decides which packet loses — the
//! arriving one (tail-drop, the paper's behaviour) or queued ones
//! (head-drop / shed-oldest).
//!
//! There is one loop, [`EventLoop`], and it borrows its engines. A
//! single-core run ([`run_sim`]) is its one-core case: the caller's
//! engine is lent to the loop, the NIC buffer is the one entry queue,
//! and both shared tables are configured with 0 slots, so nothing is
//! charged through the fabric. [`SmpSim`] owns N per-core engines and
//! lends them to the same loop.
//!
//! Each core is a private, replay-eligible [`cachesim::Machine`] (split
//! L1 I/D, the paper's single-penalty miss path) inside its own
//! [`StackEngine`]. The cores are composed — not merged — with a
//! [`SharedL2`] fabric: mutable state that several cores touch (the
//! reassembly table, the signaling call table, and the descriptor rings
//! of inter-core hand-off queues) is accessed only through the fabric,
//! which charges L2 hits/misses plus coherence transfer/invalidation
//! costs back to the accessing core. Keeping the shared level outside
//! the private machines keeps each core eligible for the footprint
//! replay memoizer — the multi-core model loses none of the single-core
//! simulation speed.
//!
//! Dispatch modes (see [`crate::steer`]):
//! * **FlowHash** / **RoundRobin** — every core runs the full stack on
//!   the flows steered to it; the NIC buffer is split evenly across the
//!   per-core entry queues. Both shared tables are touched by every
//!   core, so table slots ping-pong through the coherence fabric.
//! * **LayerAffinity** — the stack is partitioned contiguously across
//!   cores ([`ldlp::stage_partition`]); all packets enter stage 0 and
//!   whole layer-batches move between stages through bounded
//!   structure-of-arrays descriptor rings ([`crate::ring::DescRing`]),
//!   paying descriptor-ring traffic through the fabric instead. Each
//!   shared table has a single owning stage, so after warm-up its
//!   lines never migrate.
//!
//! Bounded rings give backpressure: overload backs up into the entry
//! queue, where the admission policy decides who is dropped — never
//! silently mid-pipeline ([`HandoffFlowControl`] picks how a producer
//! meets a full ring). Besides open-loop runs, the loop drives a
//! closed-loop client population ([`SmpSim::run_closed`]): completions
//! are fed back as acknowledgements, and those whose client already
//! gave up land in the `abandoned` conservation bucket.
//!
//! Timekeeping: one global cycle clock; each core's machine counter
//! only advances while that core processes, and `offset = start −
//! machine_cycles_at_batch_start` converts per-completion machine times
//! to global times. Observability spans (batch, per-layer, `bp_stall`)
//! are stamped on the same global clock. The scheduler always runs the
//! core with the earliest possible batch start (ties broken by lowest
//! core index), and admissions happen strictly in arrival order before
//! any batch that would start later — fully deterministic, thread-free
//! simulation.
//!
//! Accounting obeys a conservation law asserted at the end of every
//! run: `offered == Σ completed + Σ rejected + Σ drops + Σ shed +
//! Σ entry-queued + Σ hand-off-parked` (the last two terms are zero
//! then, because a run drains). Nothing vanishes.

use crate::closed::{AckKind, Class, ClientSend, ClosedPopulation};
use crate::impair::ImpairCounters;
use crate::ring::{Desc, DescRing};
use crate::stats::{ClassReport, ClassSamples, RunTally, SimReport};
use crate::steer::{DispatchPolicy, FlowArrival, FlowKey, Steerer};
use crate::traffic::Arrival;
use cachesim::{
    CoherenceStats, Machine, MachineConfig, Region, ReplayStats, SharedL2, SharedL2Config,
};
use ldlp::synth::{paper_stack, MessagePool};
use ldlp::{
    stage_partition, weighted_fair_admit, AdmissionPolicy, Completion, Discipline, SimMessage,
    StackEngine,
};
use obs::{NameId, SpanEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Where the shared mutable state lives in the flat simulated address
/// space — disjoint from the code/data/mbuf windows `ldlp::synth` uses.
const REASS_TABLE_BASE: u64 = 0x3000_0000;
const CALL_TABLE_BASE: u64 = 0x3100_0000;
const DESC_WINDOW_BASE: u64 = 0x3200_0000;
/// One hand-off descriptor: a cache line's worth of message metadata.
const DESC_BYTES: u64 = 64;
/// Per-workload-class windows: each class's shared service table and
/// handler code image live in their own stride of these two regions,
/// disjoint from everything above and from the stack's code/data/mbuf
/// windows.
const WCLASS_TABLE_BASE: u64 = 0x3300_0000;
const WCLASS_CODE_BASE: u64 = 0x3400_0000;
/// Address-space stride between per-class windows; bounds each class's
/// table footprint (stride / slot bytes slots).
const WCLASS_STRIDE: u64 = 1 << 20;
/// One class-table slot: a cache line of per-flow session state.
const WCLASS_SLOT_BYTES: u64 = 64;
/// Footprint-replay ids for per-class handler code. The stack engine
/// claims `0..2 * layers` for its rx/tx layer sweeps; class handlers
/// start well above so the id spaces can never collide.
const WCLASS_FID_BASE: u32 = 64;

/// Simulated footprint of one signaling VC-table entry: the call table
/// is mutable state shared by every core that handles signaling
/// messages, so each per-message state-machine step goes through the
/// shared L2 with coherence accounting. One entry ≈ call state + VCI
/// map — two 32-byte lines.
pub const CALL_SLOT_BYTES: u64 = 64;
/// Simulated VC-table capacity of the stock configuration (a modest
/// switch port).
pub const CALL_TABLE_SLOTS: u64 = 64;

/// Workload classes the simulator can account, ids `0..MAX_WCLASS`
/// (class 0 is untagged legacy traffic). Class ids outside the range
/// fold back in via a mask, so this must stay a power of two.
pub const MAX_WCLASS: usize = 8;

/// Per-workload-class processing profile ([`SmpConfig::wclass`]). The
/// default (all zeros) disables the class entirely — no handler fetch,
/// no table traffic, no per-class accounting — so runs that never set a
/// profile are bit-identical to the class-blind simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WClassProfile {
    /// Handler code swept once per message of this class at the top of
    /// the stack (bytes; 0 = no handler). Distinct classes get distinct
    /// code windows, so a heterogeneous mix contends for the I-cache
    /// exactly the way DEC-TR-592 warns.
    pub handler_code_bytes: u32,
    /// Slots in the class's shared service table (session/subscription
    /// state), read-modify-written once per message by the top-of-stack
    /// core; 0 = no table. Capped to the class window
    /// (`WCLASS_STRIDE / WCLASS_SLOT_BYTES` slots).
    pub table_slots: u64,
    /// Latency objective for the class in microseconds (0 = none);
    /// [`SmpOutcome::classes`] reports attainment against it.
    pub slo_us: f64,
}

/// Layers in the paper stack [`SmpSim`] builds.
const STACK_LAYERS: usize = 5;

/// Layers per active core: the paper stack split contiguously across
/// cores under LayerAffinity, the whole stack on every core otherwise.
fn stage_layers(cfg: &SmpConfig) -> Vec<usize> {
    if cfg.dispatch == DispatchPolicy::LayerAffinity {
        stage_partition(STACK_LAYERS, cfg.cores)
    } else {
        vec![STACK_LAYERS; cfg.cores]
    }
}

/// Parameters of a single-core run ([`run_sim`]).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// NIC buffer capacity in packets (paper: 500; at least 1).
    pub buffer_cap: usize,
    /// What to do with an arrival when the buffer is full.
    pub admission: AdmissionPolicy,
    /// How long the arrival stream runs, in seconds.
    pub duration_s: f64,
    /// Message-buffer pool entries (ring size). Must exceed the largest
    /// batch the engine can form.
    pub pool_bufs: usize,
    /// Message-buffer size in bytes (must hold the largest message).
    pub pool_buf_bytes: u64,
    /// Seed for message-buffer placement.
    pub pool_seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_cap: 500,
            admission: AdmissionPolicy::TailDrop,
            duration_s: 1.0,
            pool_bufs: 64,
            pool_buf_bytes: 1536,
            pool_seed: 1,
        }
    }
}

impl SimConfig {
    /// The loop configuration of a single-core run on `machine`: one
    /// core, the whole NIC buffer as its entry queue, and both shared
    /// tables at 0 slots (uncharged).
    pub fn one_core(&self, machine: MachineConfig) -> SmpConfig {
        SmpConfig {
            machine,
            admission: self.admission,
            buffer_cap: self.buffer_cap,
            duration_s: self.duration_s,
            pool_bufs: self.pool_bufs,
            pool_buf_bytes: self.pool_buf_bytes,
            placement_seed: self.pool_seed,
            call_table_slots: 0,
            reass_table_slots: 0,
            ..SmpConfig::new(1, DispatchPolicy::FlowHash, Discipline::Conventional)
        }
    }
}

/// Runs `arrivals` (time-sorted, in seconds) through `engine` and returns
/// the aggregated report: the one-core case of [`EventLoop`]. The
/// engine's machine clock defines processing cost; its configured
/// `clock_mhz` converts arrival times to cycles.
pub fn run_sim(engine: &mut StackEngine, arrivals: &[Arrival], cfg: &SimConfig) -> SimReport {
    let machine = *engine.machine().config();
    let engines = std::slice::from_mut(engine);
    let mut lp = EventLoop::new(&cfg.one_core(machine), engines);
    lp.run(engines, arrivals, None);
    lp.outcome(engines, ImpairCounters::default()).report
}

/// How a pipeline stage behaves when its downstream hand-off ring has
/// less free space than the batch it could otherwise run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffFlowControl {
    /// Size every batch to the downstream ring's free space (the
    /// original behaviour, and the default): a stage never produces a
    /// completion it cannot hand off, so pushes are guaranteed and the
    /// producer never waits.
    SizeToFree,
    /// Run full batches and flow-control the hand-off: descriptors the
    /// ring refuses wait in a bounded held buffer, the producer stalls
    /// (it starts no new batch until the buffer drains), and the stall
    /// is charged — `bp_stall_cycles` in the [`CoreReport`], a
    /// `bp_stall` span in the observability stream. Models a real
    /// producer that discovers ring occupancy at push time instead of
    /// sizing its work to a snapshot.
    StallProducer,
}

/// Simulation parameters for one run of the loop.
#[derive(Debug, Clone, Copy)]
pub struct SmpConfig {
    /// Number of cores (≥ 1). Under LayerAffinity at most one core per
    /// layer does useful work; extra cores idle (and report zeros).
    pub cores: usize,
    /// How packets are dispatched to cores.
    pub dispatch: DispatchPolicy,
    /// Per-core processing discipline (Conventional / LDLP / ILP) of
    /// the engines [`SmpSim`] builds; lent engines bring their own.
    pub discipline: Discipline,
    /// Per-core machine (private split L1s; leave `l2` unset so the
    /// footprint-replay memoizer stays eligible). Its clock converts
    /// arrival times to cycles.
    pub machine: MachineConfig,
    /// Shared L2 + coherence fabric costs.
    pub shared: SharedL2Config,
    /// What to do with an arrival when its entry queue is full.
    pub admission: AdmissionPolicy,
    /// Total NIC buffering in packets, split evenly across entry queues
    /// (all cores under FlowHash/RoundRobin; stage 0 keeps the whole
    /// budget under LayerAffinity).
    pub buffer_cap: usize,
    /// Capacity of each inter-core hand-off queue, in messages.
    pub handoff_cap: usize,
    /// What a producer stage does when the downstream ring is fuller
    /// than its batch.
    pub flow_control: HandoffFlowControl,
    /// Arrival-window length in seconds (for rate accounting).
    pub duration_s: f64,
    /// Message-buffer pool entries per entry core.
    pub pool_bufs: usize,
    /// Message-buffer size in bytes.
    pub pool_buf_bytes: u64,
    /// Seed for code/data/buffer placement. All cores share one layout:
    /// one kernel image, mapped on every core.
    pub placement_seed: u64,
    /// Simulated shared call-table capacity in slots; 0 = no table (no
    /// call-table traffic is charged). The default is the modest switch
    /// port of [`CALL_TABLE_SLOTS`]; million-flow experiments size it
    /// with [`SmpConfig::sized_for_flows`] so per-message slot RMWs
    /// spread over a realistic footprint instead of ping-ponging 64
    /// entries.
    pub call_table_slots: u64,
    /// Simulated shared reassembly-table capacity in slots; 0 = no
    /// table (no reassembly-table traffic is charged).
    pub reass_table_slots: u64,
    /// Per-workload-class processing profiles, indexed by the
    /// [`FlowArrival::wclass`] tag. All-default profiles (the stock
    /// configuration) keep the simulator entirely class-blind.
    pub wclass: [WClassProfile; MAX_WCLASS],
}

impl SmpConfig {
    /// The defaults every figure-9 cell starts from: the paper's
    /// synthetic-benchmark machine per core, the paper's buffer budget,
    /// and the stock SMP fabric.
    pub fn new(cores: usize, dispatch: DispatchPolicy, discipline: Discipline) -> Self {
        SmpConfig {
            cores,
            dispatch,
            discipline,
            machine: MachineConfig::synthetic_benchmark(),
            shared: SharedL2Config::smp_default(),
            admission: AdmissionPolicy::TailDrop,
            buffer_cap: 500,
            handoff_cap: 64,
            flow_control: HandoffFlowControl::SizeToFree,
            duration_s: 1.0,
            pool_bufs: 64,
            pool_buf_bytes: 1536,
            placement_seed: 1,
            call_table_slots: CALL_TABLE_SLOTS,
            reass_table_slots: netstack::ipfrag::REASSEMBLY_TABLE_BYTES
                / netstack::ipfrag::REASSEMBLY_SLOT_BYTES,
            wclass: [WClassProfile::default(); MAX_WCLASS],
        }
    }

    /// Sizes both shared tables for a concurrent-flow population, the
    /// way the open-addressing tables do: next power of two above
    /// `flows`, never below the stock defaults.
    pub fn sized_for_flows(mut self, flows: u64) -> Self {
        let slots = flows.next_power_of_two();
        self.call_table_slots = slots.max(CALL_TABLE_SLOTS);
        self.reass_table_slots = slots.max(
            netstack::ipfrag::REASSEMBLY_TABLE_BYTES / netstack::ipfrag::REASSEMBLY_SLOT_BYTES,
        );
        self
    }
}

/// Per-core outcome of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// Messages that finished their final stage on this core.
    pub completed: u64,
    /// Corrupted messages rejected at this core's verify layer.
    pub rejected: u64,
    /// Arrivals refused admission at this core's entry queue.
    pub drops: u64,
    /// Queued packets evicted by the admission policy.
    pub shed: u64,
    /// Batches processed.
    pub batches: u64,
    /// Messages processed on this core (any outcome, incl. handed off).
    pub msgs: u64,
    /// Cycles this core spent processing (not idling).
    pub busy_cycles: u64,
    /// L1 instruction-cache misses charged to this core.
    pub imisses: u64,
    /// L1 data-cache misses charged to this core.
    pub dmisses: u64,
    /// Hand-off stall episodes (a batch ended with descriptors the
    /// downstream ring refused; [`HandoffFlowControl::StallProducer`]).
    pub bp_stalls: u64,
    /// Cycles this core spent stalled waiting for downstream ring
    /// space, from batch end to the pop that freed the last held
    /// descriptor.
    pub bp_stall_cycles: u64,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct SmpOutcome {
    /// Aggregate report (a message's I/D-miss samples are summed across
    /// the stages it visited).
    pub report: SimReport,
    /// Per-core breakdown, one entry per configured core (idle cores
    /// under LayerAffinity report zeros).
    pub per_core: Vec<CoreReport>,
    /// Shared-L2 / coherence counters for the run.
    pub coherence: CoherenceStats,
    /// Messages that crossed an inter-core hand-off queue.
    pub handoff_msgs: u64,
    /// Footprint-replay memoizer counters for the run, summed across
    /// cores.
    pub replay: ReplayStats,
    /// Queued packets shed by the admission policy, by traffic class
    /// (closed-loop runs; open-loop runs are class-blind and account
    /// everything to [`Class::Rpc`]).
    pub shed_by_class: [u64; Class::COUNT],
    /// Arrivals refused admission, by traffic class (same caveat).
    pub drops_by_class: [u64; Class::COUNT],
    /// Per-workload-class reports, indexed by [`FlowArrival::wclass`],
    /// populated for open-loop runs when any [`SmpConfig::wclass`]
    /// profile is set (empty otherwise, and for closed-loop runs).
    pub classes: Vec<ClassReport>,
}

/// Per-message service work above the protocol stack, charged by the
/// top-of-stack core inside the batch's busy window, before the layer
/// sweeps: its cycles land in the message's latency, and the I/D-misses
/// it causes (read as a machine-stat delta around each call) in that
/// message's miss samples. The loop calls it class by class — every
/// message of [`FlowArrival::wclass`] 0 in the batch, then class 1, and
/// so on — the way a service dispatcher hands same-class work to its
/// handler back to back.
///
/// `figure10` charges a flow-table lookup through it; [`SmpSim`]
/// charges the per-workload-class handler and session table of
/// [`SmpConfig::wclass`].
pub trait MessageCharge {
    /// Charges the work for one message of flow `flow_id` and workload
    /// class `wclass` on `core`: to its private `machine`, and through
    /// `fabric` for shared state.
    fn charge(
        &mut self,
        core: u8,
        flow_id: u32,
        wclass: u8,
        machine: &mut Machine,
        fabric: &mut SharedL2,
    );
}

/// Shared-table slot for `flow_id`: `slots` entries of `slot_bytes` at
/// `base`; `None` for a 0-slot (absent) table.
fn table_slot(base: u64, slots: u64, slot_bytes: u64, flow_id: u32) -> Option<Region> {
    let i = u64::from(flow_id).checked_rem(slots)?;
    Some(Region::new(base + i * slot_bytes, slot_bytes))
}

/// The [`SmpConfig::wclass`] work: the class handler's code sweep
/// (memoized like the layer sweeps, under its own footprint id) and one
/// RMW of the class's shared session table.
struct ClassWork {
    /// Handler-code line lists per class (empty for classes with no
    /// handler), fed to the footprint-replay memoizer under fid
    /// `WCLASS_FID_BASE + class`.
    lines: Vec<Vec<u64>>,
    /// Session-table slots per class, capped to the class window.
    slots: [u64; MAX_WCLASS],
}

impl ClassWork {
    /// The work `cfg` describes; `None` when no class profile is set.
    fn new(cfg: &SmpConfig) -> Option<ClassWork> {
        if cfg.wclass.iter().all(|p| *p == WClassProfile::default()) {
            return None;
        }
        let line = cfg.machine.icache.line_size.max(1);
        let lines = cfg
            .wclass
            .iter()
            .enumerate()
            .map(|(w, p)| {
                // Handler images honour the machine's code density,
                // like the layer code placed by `ldlp::synth`.
                let bytes =
                    (f64::from(p.handler_code_bytes) * cfg.machine.code_density).ceil() as u64;
                let base = (WCLASS_CODE_BASE + w as u64 * WCLASS_STRIDE) / line;
                (0..bytes.div_ceil(line)).map(|i| base + i).collect()
            })
            .collect();
        let slots = cfg
            .wclass
            .map(|p| p.table_slots.min(WCLASS_STRIDE / WCLASS_SLOT_BYTES));
        Some(ClassWork { lines, slots })
    }
}

impl MessageCharge for ClassWork {
    fn charge(
        &mut self,
        core: u8,
        flow_id: u32,
        wclass: u8,
        machine: &mut Machine,
        fabric: &mut SharedL2,
    ) {
        let w = usize::from(wclass) & (MAX_WCLASS - 1);
        if let Some(lines) = self.lines.get(w).filter(|l| !l.is_empty()) {
            machine.fetch_code_footprint(WCLASS_FID_BASE + w as u32, lines);
        }
        let base = WCLASS_TABLE_BASE + w as u64 * WCLASS_STRIDE;
        if let Some(slot) = table_slot(base, self.slots[w], WCLASS_SLOT_BYTES, flow_id) {
            fabric.read(core, slot, machine);
            fabric.write(core, slot, machine);
        }
    }
}

/// Interned per-core observability names.
#[derive(Debug, Clone, Copy)]
struct ObsIds {
    batch: NameId,
    latency: NameId,
    imiss: NameId,
    dmiss: NameId,
    bp_stall: NameId,
    /// Per-workload-class latency histograms (`w<class>/latency_us`),
    /// interned only when class profiles are configured — untracked
    /// runs add no names, so their metrics documents are unchanged.
    wlat: [Option<NameId>; MAX_WCLASS],
}

impl ObsIds {
    /// Interns the loop's names in `engine`'s sink; `None` when the
    /// sink is off.
    fn intern(engine: &mut StackEngine, wtrack: bool) -> Option<ObsIds> {
        let mut wlat = [None; MAX_WCLASS];
        if wtrack {
            for (w, slot) in wlat.iter_mut().enumerate() {
                *slot = engine.obs_intern(&format!("w{w}/latency_us"));
            }
        }
        Some(ObsIds {
            batch: engine.obs_intern("batch")?,
            latency: engine.obs_intern("latency_us")?,
            imiss: engine.obs_intern("imiss_per_msg")?,
            dmiss: engine.obs_intern("dmiss_per_msg")?,
            bp_stall: engine.obs_intern("bp_stall")?,
            wlat,
        })
    }
}

/// One packet waiting in an entry queue.
#[derive(Debug, Clone, Copy)]
struct EntryPkt {
    arr: u64,
    bytes: u32,
    corrupted: bool,
    flow_id: u32,
    /// Per-client request sequence number ties a closed-loop completion
    /// back to the population; 0 for open-loop arrivals.
    req: u64,
    /// Traffic class for weighted-fair accounting; open-loop arrivals
    /// are class-blind and ride as [`Class::Rpc`].
    class: Class,
    /// Workload message class (0 = untagged), for per-class accounting
    /// and per-class handler/table charging at the top of the stack.
    wclass: u8,
}

/// The loop's per-core state; the core's engine is lent per run.
struct CoreState {
    pool: MessagePool,
    entry: VecDeque<EntryPkt>,
    /// Hand-off queue feeding this core: an SoA descriptor ring (see
    /// [`crate::ring`]) carrying each message's accumulated per-message
    /// cost so the final stage can emit whole-path samples.
    inbox: DescRing,
    /// Descriptors the downstream ring refused at batch end
    /// ([`HandoffFlowControl::StallProducer`]); the producer is stalled
    /// until this drains. Bounded by one batch (≤ `pool_bufs`).
    held: VecDeque<Desc>,
    /// Global cycle the current stall episode began (batch end).
    held_since: u64,
    /// Entry-queue occupancy by traffic class, for weighted-fair
    /// admission.
    class_counts: [u64; Class::COUNT],
    busy_until: u64,
    /// Machine cycle count when the current run started.
    m0: u64,
    /// L1 miss counters when the current run started.
    icache0: u64,
    dcache0: u64,
    replay0: ReplayStats,
    obs: Option<ObsIds>,
    rep: CoreReport,
    // Reused per-batch scratch: the steady-state loop allocates
    // nothing. Per-message bookkeeping for the batch in flight is
    // columnar (parallel arrays indexed by batch position) to match
    // the descriptor-ring layout.
    batch: Vec<SimMessage>,
    b_arr: Vec<u64>,
    b_flow: Vec<u32>,
    b_wclass: Vec<u8>,
    b_imiss: Vec<u64>,
    b_dmiss: Vec<u64>,
    completions: Vec<Completion>,
}

impl CoreState {
    /// Evicts the entry-queue packet at `pos` (an admission policy's
    /// victim; 0 is the head), counting it as shed; the survivors keep
    /// their order. Returns it for the caller's class books.
    fn shed_at(&mut self, pos: usize, shed_by_class: &mut [u64; Class::COUNT]) -> Option<EntryPkt> {
        let victim = self.entry.remove(pos)?;
        let vi = victim.class.index();
        self.class_counts[vi] = self.class_counts[vi].saturating_sub(1);
        shed_by_class[vi] += 1;
        self.rep.shed += 1;
        Some(victim)
    }

    /// Appends `d` to the batch in formation, column by column.
    fn stage(&mut self, d: Desc) {
        // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
        self.batch.push(d.msg);
        // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
        self.b_arr.push(d.arr);
        // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
        self.b_flow.push(d.flow_id);
        // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
        self.b_wclass.push(d.wclass);
        // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
        self.b_imiss.push(d.imiss);
        // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
        self.b_dmiss.push(d.dmiss);
    }
}

/// The event loop. It owns the queues, rings, fabric and accounting of
/// a configuration, and borrows one engine per active core for each
/// run ([`EventLoop::run`]); read the result with
/// [`EventLoop::outcome`]. The run itself is allocation-free in steady
/// state (pinned by `crates/smp/tests/alloc.rs`); the allocating
/// report assembly lives in `outcome`.
pub struct EventLoop {
    cfg: SmpConfig,
    pipeline: bool,
    /// One per core that actually runs protocol code (`cfg.cores` of
    /// them for full-stack dispatch, ≤ under LayerAffinity).
    cores: Vec<CoreState>,
    shared: SharedL2,
    steer: Steerer,
    entry_cap: usize,
    clock_mhz: f64,
    cycles_per_s: f64,
    latencies_us: Vec<f64>,
    imisses: Vec<u64>,
    dmisses: Vec<u64>,
    offered: u64,
    last_finish: u64,
    handoff_msgs: u64,
    batches: u64,
    msg_seq: u64,
    /// Whether the current run is closed-loop: final-stage completions
    /// are buffered in `ready_acks` for the driver to classify against
    /// the client population instead of being counted immediately.
    closed: bool,
    /// Stale completions — the machine finished work whose client had
    /// already been acknowledged or had given up.
    abandoned: u64,
    /// Clean final-stage completions awaiting delivery to the client
    /// population, as `(finish_cycle, message_id, core)` in a min-heap
    /// (message id breaks finish-time ties deterministically).
    ready_acks: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// `(client, req)` by message id, for acknowledgement routing.
    closed_meta: Vec<(u32, u64)>,
    /// Shed / refused admission counts by traffic class.
    shed_by_class: [u64; Class::COUNT],
    drops_by_class: [u64; Class::COUNT],
    /// Per-class accounting: `MAX_WCLASS` entries when any
    /// workload-class profile is configured, empty otherwise — then
    /// `get_mut` makes every bump a no-op and the run is bit-identical
    /// to the class-blind simulator.
    wsamples: Vec<ClassSamples>,
}

impl EventLoop {
    /// Builds the queues, rings and fabric for `cfg`, to run on
    /// `engines` (one per active core, in stage order), and interns the
    /// loop's observability names in their sinks.
    pub fn new(cfg: &SmpConfig, engines: &mut [StackEngine]) -> EventLoop {
        assert!(cfg.cores > 0, "need at least one core");
        let pipeline = cfg.dispatch == DispatchPolicy::LayerAffinity;
        let entry_cores = if pipeline { 1 } else { cfg.cores };
        let entry_cap = (cfg.buffer_cap / entry_cores).max(1);
        let cores = (0..stage_layers(cfg).len())
            .map(|_| CoreState {
                pool: MessagePool::new(cfg.pool_bufs, cfg.pool_buf_bytes, cfg.placement_seed),
                entry: VecDeque::with_capacity(entry_cap),
                inbox: DescRing::new(cfg.handoff_cap),
                held: VecDeque::with_capacity(cfg.pool_bufs),
                held_since: 0,
                class_counts: [0; Class::COUNT],
                busy_until: 0,
                m0: 0,
                icache0: 0,
                dcache0: 0,
                replay0: ReplayStats::default(),
                obs: None,
                rep: CoreReport::default(),
                batch: Vec::with_capacity(cfg.pool_bufs),
                b_arr: Vec::with_capacity(cfg.pool_bufs),
                b_flow: Vec::with_capacity(cfg.pool_bufs),
                b_wclass: Vec::with_capacity(cfg.pool_bufs),
                b_imiss: Vec::with_capacity(cfg.pool_bufs),
                b_dmiss: Vec::with_capacity(cfg.pool_bufs),
                completions: Vec::with_capacity(cfg.pool_bufs),
            })
            .collect();
        let wtrack = cfg.wclass.iter().any(|p| *p != WClassProfile::default());
        let wsamples = if wtrack {
            (0..MAX_WCLASS).map(|_| ClassSamples::default()).collect()
        } else {
            Vec::new()
        };
        let clock_mhz = cfg.machine.clock_mhz;
        let mut lp = EventLoop {
            pipeline,
            cores,
            shared: SharedL2::new(cfg.shared),
            steer: Steerer::new(cfg.dispatch, entry_cores),
            entry_cap,
            clock_mhz,
            cycles_per_s: clock_mhz * 1e6,
            latencies_us: Vec::new(),
            imisses: Vec::new(),
            dmisses: Vec::new(),
            offered: 0,
            last_finish: 0,
            handoff_msgs: 0,
            batches: 0,
            msg_seq: 0,
            closed: false,
            abandoned: 0,
            ready_acks: BinaryHeap::new(),
            closed_meta: Vec::new(),
            shed_by_class: [0; Class::COUNT],
            drops_by_class: [0; Class::COUNT],
            wsamples,
            cfg: *cfg,
        };
        lp.resolve_obs(engines);
        lp
    }

    /// Runs one time-sorted arrival stream to drain on `engines` (one
    /// per active core, in stage order), charging `charge` per message
    /// at the top of the stack. Untagged streams (`Arrival`,
    /// `ImpairedArrival`) ride as flow 0, class 0. Per-run counters and samples reset first; caches,
    /// the replay memo table, the coherence directory, and
    /// flow-steering state stay warm across runs (like real silicon
    /// across seconds). Asserts the conservation law before returning.
    // analyze::hot_path(smp-event-loop)
    pub fn run<A: Copy + Into<FlowArrival>>(
        &mut self,
        engines: &mut [StackEngine],
        arrivals: &[A],
        mut charge: Option<&mut dyn MessageCharge>,
    ) {
        self.reset_run(engines);
        self.offered = arrivals.len() as u64;
        // At most one sample per arrival: size the sample columns once
        // (a no-op when a reused loop already holds the capacity).
        // analyze::allow(alloc-path, reason = "sample columns are sized once per stream; reuse keeps the capacity, so steady-state runs do not allocate")
        self.latencies_us.reserve(arrivals.len());
        // analyze::allow(alloc-path, reason = "sample columns are sized once per stream; reuse keeps the capacity, so steady-state runs do not allocate")
        self.imisses.reserve(arrivals.len());
        // analyze::allow(alloc-path, reason = "sample columns are sized once per stream; reuse keeps the capacity, so steady-state runs do not allocate")
        self.dmisses.reserve(arrivals.len());

        let mut next_arrival = 0usize;
        'event: loop {
            let mut best = self.scan_best();

            // Admissions happen in arrival order before any batch that
            // would start later (inclusive: a batch forming at t sees
            // everything that arrived by t). Each admission touches
            // exactly one core's entry queue, so `best` is maintained
            // incrementally — lexicographic (start, core) minimum,
            // matching the scan above — instead of rescanning every
            // core per arrival. The one case where an admission can
            // move a core's candidate *later* (the policy evicted
            // queued work, or the entry queue shadowed a non-empty
            // inbox) falls back to the full rescan.
            while next_arrival < arrivals.len() {
                let a: FlowArrival = arrivals[next_arrival].into();
                let t = to_cycles(a.time_s, self.cycles_per_s);
                if best.is_some_and(|(s, _)| t > s) {
                    break;
                }
                let (c, moved_later) = self.admit(&a, t);
                next_arrival += 1;
                if moved_later {
                    continue 'event;
                }
                if !self.blocked_downstream(c) && self.cores[c].held.is_empty() {
                    if let Some(ready) = self.next_ready(c) {
                        let start = ready.max(self.cores[c].busy_until);
                        if best.is_none_or(|(s, bc)| start < s || (start == s && c < bc)) {
                            best = Some((start, c));
                        }
                    }
                }
            }

            let Some((start, c)) = best else {
                // No runnable core and no arrivals left: drained.
                break;
            };
            self.run_batch(engines, c, start, &mut charge);
            self.flush_held(engines, c, start);
        }

        self.assert_conservation();
    }

    /// The earliest startable batch across cores — the strict `<`
    /// breaks ties toward the lowest core index. Cores stalled on a
    /// refused hand-off (non-empty held buffer) cannot start work.
    fn scan_best(&self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for c in 0..self.cores.len() {
            if !self.cores[c].held.is_empty() {
                continue;
            }
            let Some(ready) = self.next_ready(c) else {
                continue;
            };
            if self.blocked_downstream(c) {
                continue;
            }
            let start = ready.max(self.cores[c].busy_until);
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, c));
            }
        }
        best
    }

    /// Assembles the last run's [`SmpOutcome`] from the loop and the
    /// `engines` it ran on. Allocates — call it outside the measured
    /// window; `net` carries impairment-channel counters into the
    /// report (use `default()` for a clean channel).
    pub fn outcome(&mut self, engines: &[StackEngine], net: ImpairCounters) -> SmpOutcome {
        let rejected = self.total(|c| c.rep.rejected);
        let drops = self.total(|c| c.rep.drops);
        let shed = self.total(|c| c.rep.shed);
        let report = SimReport::from_samples(
            &mut self.latencies_us,
            &self.imisses,
            &self.dmisses,
            RunTally {
                offered: self.offered,
                rejected,
                drops,
                shed,
                in_flight: 0,
                abandoned: self.abandoned,
                duration_s: self.cfg.duration_s,
                span_s: self.last_finish as f64 / self.cycles_per_s,
                batches: self.batches,
                net,
            },
        );

        let mut per_core = Vec::with_capacity(self.cfg.cores);
        let mut replay = ReplayStats::default();
        for (core, engine) in self.cores.iter().zip(engines) {
            let stats = engine.machine().stats();
            let mut rep = core.rep;
            rep.imisses = stats.icache.misses - core.icache0;
            rep.dmisses = stats.dcache.misses - core.dcache0;
            per_core.push(rep);
            let r = engine.machine().replay_stats();
            replay.hits += r.hits - core.replay0.hits;
            replay.misses += r.misses - core.replay0.misses;
            replay.bypasses += r.bypasses - core.replay0.bypasses;
        }
        // Idle cores (LayerAffinity with more cores than layers).
        per_core.resize(self.cfg.cores, CoreReport::default());

        let classes: Vec<ClassReport> = self
            .wsamples
            .iter_mut()
            .zip(self.cfg.wclass.iter())
            .map(|(s, p)| s.report(p.slo_us))
            .collect();

        SmpOutcome {
            report,
            per_core,
            coherence: self.shared.stats(),
            handoff_msgs: self.handoff_msgs,
            replay,
            shed_by_class: self.shed_by_class,
            drops_by_class: self.drops_by_class,
            classes,
        }
    }

    /// Interns each core's observability names in its engine's sink
    /// (clearing them for engines whose sink is off).
    fn resolve_obs(&mut self, engines: &mut [StackEngine]) {
        for (core, engine) in self.cores.iter_mut().zip(engines) {
            core.obs = ObsIds::intern(engine, !self.wsamples.is_empty());
        }
    }

    fn reset_run(&mut self, engines: &[StackEngine]) {
        assert_eq!(
            engines.len(),
            self.cores.len(),
            "one engine per active core"
        );
        self.latencies_us.clear();
        self.imisses.clear();
        self.dmisses.clear();
        self.offered = 0;
        self.last_finish = 0;
        self.handoff_msgs = 0;
        self.batches = 0;
        self.msg_seq = 0;
        self.closed = false;
        self.abandoned = 0;
        self.ready_acks.clear();
        self.closed_meta.clear();
        self.shed_by_class = [0; Class::COUNT];
        self.drops_by_class = [0; Class::COUNT];
        for s in &mut self.wsamples {
            s.clear();
        }
        self.shared.reset_stats();
        for (core, engine) in self.cores.iter_mut().zip(engines) {
            core.rep = CoreReport::default();
            core.busy_until = 0;
            core.held_since = 0;
            core.class_counts = [0; Class::COUNT];
            core.m0 = engine.machine().cycles();
            let stats = engine.machine().stats();
            core.icache0 = stats.icache.misses;
            core.dcache0 = stats.dcache.misses;
            core.replay0 = engine.machine().replay_stats();
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            debug_assert!(core.entry.is_empty() && core.inbox.is_empty() && core.held.is_empty());
        }
    }

    fn next_ready(&self, c: usize) -> Option<u64> {
        let core = &self.cores[c];
        match core.entry.front() {
            Some(pkt) => Some(pkt.arr),
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            None => core.inbox.next_ready(),
        }
    }

    fn blocked_downstream(&self, c: usize) -> bool {
        // Under StallProducer a full downstream ring never gates batch
        // *start* — the producer runs, then stalls on the refused push.
        self.pipeline
            && c + 1 < self.cores.len()
            && self.cfg.flow_control == HandoffFlowControl::SizeToFree
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            && self.cores[c + 1].inbox.free() == 0
    }

    /// Steers one arrival into its entry queue. Returns the core index
    /// and whether the core's next-ready time may have moved *later*
    /// (front-of-queue eviction, or a previously-empty entry queue now
    /// shadowing a non-empty inbox) — the run loop's incremental `best`
    /// tracking is only sound when candidates move earlier.
    fn admit(&mut self, a: &FlowArrival, t: u64) -> (usize, bool) {
        let c = self.steer.core_for(&a.key);
        let core = &mut self.cores[c];
        let was_empty = core.entry.is_empty();
        // Per-workload-class books (no-ops when untracked: `wsamples`
        // is empty and `get_mut` always misses).
        let wi = usize::from(a.wclass) & (MAX_WCLASS - 1);
        if let Some(ws) = self.wsamples.get_mut(wi) {
            ws.offered += 1;
        }
        let (evict, admit) = self.cfg.admission.admit(core.entry.len(), self.entry_cap);
        for _ in 0..evict {
            if let Some(victim) = core.shed_at(0, &mut self.shed_by_class) {
                let vw = usize::from(victim.wclass) & (MAX_WCLASS - 1);
                if let Some(ws) = self.wsamples.get_mut(vw) {
                    ws.shed += 1;
                }
            }
        }
        if admit {
            core.class_counts[Class::Rpc.index()] += 1;
            // analyze::allow(alloc-path, reason = "pending queue is bounded by the arrival schedule; capacity is warm after the first batch")
            core.entry.push_back(EntryPkt {
                arr: t,
                bytes: a.bytes,
                corrupted: a.corrupted,
                flow_id: a.flow_id,
                req: 0,
                class: Class::Rpc,
                wclass: a.wclass,
            });
        } else {
            core.rep.drops += 1;
            self.drops_by_class[Class::Rpc.index()] += 1;
            if let Some(ws) = self.wsamples.get_mut(wi) {
                ws.drops += 1;
            }
        }
        // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
        (c, evict > 0 || (was_empty && !core.inbox.is_empty()))
    }

    /// Descriptor-ring slot `seq % cap` of the queue feeding `stage`.
    fn desc_region(handoff_cap: usize, stage: usize, seq: u64) -> Region {
        let cap = handoff_cap as u64;
        let ring = DESC_WINDOW_BASE + stage as u64 * cap * DESC_BYTES;
        // analyze::allow(panic-path, reason = "cap is the nonzero descriptor-ring size from SmpConfig")
        Region::new(ring + (seq % cap) * DESC_BYTES, DESC_BYTES)
    }

    fn run_batch(
        &mut self,
        engines: &mut [StackEngine],
        c: usize,
        start: u64,
        charge: &mut Option<&mut dyn MessageCharge>,
    ) {
        let has_down = self.pipeline && c + 1 < self.cores.len();
        let is_final = !has_down;
        let owns_bottom = !self.pipeline || c == 0;
        let owns_top = !self.pipeline || c + 1 == self.cores.len();
        let handoff_cap = self.cfg.handoff_cap;

        let stall_mode = self.cfg.flow_control == HandoffFlowControl::StallProducer;
        // Under StallProducer the batch is sized by the engine alone;
        // whatever the downstream ring refuses at push time is held and
        // the producer stalls.
        let downstream_free = if has_down && !stall_mode {
            self.cores[c + 1].inbox.free()
        } else {
            usize::MAX
        };

        let engine = &mut engines[c];
        let (left, right) = self.cores.split_at_mut(c + 1);
        let core = &mut left[c];
        let mut down = if has_down { right.first_mut() } else { None };

        // Candidate set: how many messages are takeable right now, and
        // how big the largest is (batch limits are sized conservatively
        // by the largest candidate). The ring scan reads only the
        // ready-time and buffer-length columns; the entry queue is only
        // scanned when the engine's limit depends on message size.
        let (avail, max_bytes) = if core.entry.is_empty() {
            core.inbox.takeable(start)
        } else if engine.batch_limit_sized() {
            (
                core.entry.len(),
                core.entry.iter().map(|p| u64::from(p.bytes)).max().unwrap_or(0),
            )
        } else {
            (core.entry.len(), 0)
        };
        debug_assert!(avail > 0, "scheduled a core with no takeable work");
        let limit = engine
            .batch_limit(max_bytes.max(1))
            .min(avail)
            .min(self.cfg.pool_bufs)
            .min(downstream_free);

        let m_before_abs = engine.machine().cycles();
        let m_before = m_before_abs - core.m0;
        debug_assert!(start >= m_before, "busy accounting lost cycles");
        // Machine stats and the event-list length before the batch, to
        // meter the batch span and rebase the engine's layer spans.
        let obs_before = core.obs.map(|_| {
            let mark = engine.sink_mut().recorder().map_or(0, |r| r.events().len());
            (engine.machine().stats(), mark)
        });

        // Form the batch. Entry cores materialize pool messages;
        // pipeline stages pop handed-off messages and pay the
        // consumer-side descriptor-ring read through the fabric.
        core.batch.clear();
        core.b_arr.clear();
        core.b_flow.clear();
        core.b_wclass.clear();
        core.b_imiss.clear();
        core.b_dmiss.clear();
        if core.entry.is_empty() {
            let popped0 = core.inbox.popped();
            for k in 0..limit as u64 {
                let Some(d) = core.inbox.pop(start) else {
                    break;
                };
                core.stage(d);
                let slot = Self::desc_region(handoff_cap, c, popped0 + k);
                self.shared.read(c as u8, slot, engine.machine_mut());
            }
        } else {
            for _ in 0..limit {
                let Some(pkt) = core.entry.pop_front() else {
                    break;
                };
                let pi = pkt.class.index();
                core.class_counts[pi] = core.class_counts[pi].saturating_sub(1);
                let mut msg = core.pool.make_message(self.msg_seq, u64::from(pkt.bytes));
                msg.arrival_cycles = pkt.arr;
                msg.corrupted = pkt.corrupted;
                self.msg_seq += 1;
                if self.closed {
                    // Route the eventual completion back to the client:
                    // `closed_meta[msg.id]` is `(client, req)`.
                    // analyze::allow(alloc-path, reason = "one entry per admitted message; capacity grows once per run")
                    self.closed_meta.push((pkt.flow_id, pkt.req));
                }
                core.stage(Desc {
                    msg,
                    arr: pkt.arr,
                    flow_id: pkt.flow_id,
                    wclass: pkt.wclass,
                    imiss: 0,
                    dmiss: 0,
                });
            }
        }

        // Shared mutable protocol state: the reassembly table at the
        // bottom of the stack, the call table at the top — one
        // read-modify-write per message each (a 0-slot table is
        // absent). Under full-stack dispatch every core does both, so
        // slots ping-pong through the fabric; under layer affinity each
        // table has one owning stage and its lines stop migrating after
        // warm-up. One-core runs have neither table.
        let reass_slots = if owns_bottom {
            self.cfg.reass_table_slots
        } else {
            0
        };
        let call_slots = if owns_top {
            self.cfg.call_table_slots
        } else {
            0
        };
        if reass_slots > 0 || call_slots > 0 {
            for &flow in &core.b_flow {
                let reass_bytes = netstack::ipfrag::REASSEMBLY_SLOT_BYTES;
                let reass = table_slot(REASS_TABLE_BASE, reass_slots, reass_bytes, flow);
                let call = table_slot(CALL_TABLE_BASE, call_slots, CALL_SLOT_BYTES, flow);
                for slot in reass.into_iter().chain(call) {
                    self.shared.read(c as u8, slot, engine.machine_mut());
                    self.shared.write(c as u8, slot, engine.machine_mut());
                }
            }
        }

        // Per-message service work rides with the top of the stack,
        // class by class (see [`MessageCharge`]): a mixed batch sweeps
        // each resident handler image once instead of thrashing the
        // I-cache in arrival order, and the memoizer sees class *sets*,
        // not class sequences. The first message of a class in the
        // batch absorbs the cold misses; followers ride warm.
        if let Some(charge) = charge.as_deref_mut().filter(|_| owns_top) {
            for w in 0..MAX_WCLASS {
                for k in 0..core.b_flow.len() {
                    if usize::from(core.b_wclass[k]) & (MAX_WCLASS - 1) != w {
                        continue;
                    }
                    let s0 = engine.machine().stats();
                    let (flow, wc) = (core.b_flow[k], core.b_wclass[k]);
                    charge.charge(c as u8, flow, wc, engine.machine_mut(), &mut self.shared);
                    // `process_batch_into` only meters layer sweeps.
                    let s1 = engine.machine().stats();
                    core.b_imiss[k] += s1.icache.misses - s0.icache.misses;
                    core.b_dmiss[k] += s1.dcache.misses - s0.dcache.misses;
                }
            }
        }

        engine.process_batch_into(&core.batch, &mut core.completions);

        // Producer-side descriptor writes for everything about to be
        // handed off — still inside this batch's busy window, so the
        // hand-off cost lands in the message's latency.
        if let Some(down) = down.as_deref() {
            let mut seq = down.inbox.pushed();
            for k in 0..core.completions.len() {
                if !core.completions[k].rejected {
                    let slot = Self::desc_region(handoff_cap, c + 1, seq);
                    self.shared.write(c as u8, slot, engine.machine_mut());
                    seq += 1;
                }
            }
        }

        let m_after_abs = engine.machine().cycles();
        let dur = m_after_abs - m_before_abs;
        let end_global = start + dur;
        let offset = start - m_before;
        core.busy_until = end_global;
        core.rep.busy_cycles += dur;
        core.rep.batches += 1;
        core.rep.msgs += core.batch.len() as u64;
        self.batches += 1;

        if let (Some(ids), Some((s0, mark))) = (core.obs, obs_before) {
            let s1 = engine.machine().stats();
            let queue_after = core.entry.len() as u64 + core.inbox.len() as u64;
            let batch_len = core.batch.len() as u32;
            if let Some(rec) = engine.sink_mut().on_mut() {
                // The engine stamps its layer spans on the machine's
                // busy-only clock; move them onto the simulated clock
                // the batch ran on.
                rec.rebase_since(mark, start.wrapping_sub(m_before_abs));
                rec.span(SpanEvent {
                    name: ids.batch,
                    start,
                    dur,
                    batch: batch_len,
                    aux: queue_after,
                    imisses: s1.icache.misses - s0.icache.misses,
                    dmisses: s1.dcache.misses - s0.dcache.misses,
                });
            }
        }

        for k in 0..core.completions.len() {
            let comp = core.completions[k];
            let arr = core.b_arr[k];
            let im = core.b_imiss[k] + comp.imisses;
            let dm = core.b_dmiss[k] + comp.dmisses;
            let finish = (comp.done_cycles - core.m0) + offset;
            let wi = usize::from(core.b_wclass[k]) & (MAX_WCLASS - 1);
            if comp.rejected || is_final {
                // The message leaves the pipeline: its cycles and misses
                // are spent whatever the outcome.
                // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
                self.imisses.push(im);
                // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
                self.dmisses.push(dm);
                self.last_finish = self.last_finish.max(finish);
                if let Some(ids) = core.obs {
                    if let Some(rec) = engine.sink_mut().on_mut() {
                        rec.record_value(ids.imiss, im);
                        rec.record_value(ids.dmiss, dm);
                    }
                }
            }
            if comp.rejected {
                core.rep.rejected += 1;
                if let Some(ws) = self.wsamples.get_mut(wi) {
                    ws.rejected += 1;
                    ws.imiss_sum += im;
                    ws.dmiss_sum += dm;
                }
            } else if is_final && self.closed {
                // Useful-vs-stale classification happens when the driver
                // feeds this completion back to the population: latency
                // and goodput are counted then.
                // analyze::allow(alloc-path, reason = "ack buffer is bounded by in-flight completions; capacity is warm in steady state")
                self.ready_acks.push(Reverse((finish, core.batch[k].id, c)));
            } else if is_final {
                core.rep.completed += 1;
                let lat_cycles = finish.saturating_sub(arr);
                let lat_us = lat_cycles as f64 / self.clock_mhz;
                if let Some(ws) = self.wsamples.get_mut(wi) {
                    ws.completed += 1;
                    ws.imiss_sum += im;
                    ws.dmiss_sum += dm;
                    // analyze::allow(alloc-path, reason = "per-class latency samples are bounded by completions; capacity is warm in steady state")
                    ws.latencies_us.push(lat_us);
                }
                // analyze::allow(alloc-path, reason = "per-core SoA batch/report buffers are reused across batches; capacity is warm in steady state")
                self.latencies_us.push(lat_us);
                if let Some(ids) = core.obs {
                    if let Some(rec) = engine.sink_mut().on_mut() {
                        rec.record_value(ids.latency, lat_us as u64);
                        if let Some(wid) = ids.wlat[wi] {
                            rec.record_value(wid, lat_us as u64);
                        }
                    }
                }
            } else if let Some(down) = down.as_deref_mut() {
                let (fl, wc) = (core.b_flow[k], core.b_wclass[k]);
                // analyze::allow(alloc-path, reason = "ring storage is preallocated at construction; push writes in place")
                let pushed = down.inbox.push(end_global, &core.batch[k], arr, fl, wc, im, dm);
                if pushed {
                    self.handoff_msgs += 1;
                } else {
                    // Only StallProducer sizes batches past downstream
                    // free space; the refused descriptor parks in the
                    // bounded held buffer — never lost — and the core
                    // stalls until the consumer pops.
                    debug_assert!(stall_mode, "batch was sized by downstream free space");
                    // analyze::allow(alloc-path, reason = "held buffer is bounded by one batch (pool_bufs); capacity is reserved at construction")
                    core.held.push_back(Desc {
                        msg: core.batch[k],
                        arr,
                        flow_id: fl,
                        wclass: wc,
                        imiss: im,
                        dmiss: dm,
                    });
                }
            }
        }

        if !core.held.is_empty() {
            // Stall episode: charged and surfaced when it resolves in
            // `flush_held`.
            core.rep.bp_stalls += 1;
            core.held_since = end_global;
        }
    }

    /// After core `c` ran a batch (popping its inbox at `start`), move
    /// as many of the upstream producer's held descriptors as now fit.
    /// When the buffer drains the producer's stall ends: the cycles it
    /// waited are charged to the core and emitted as a `bp_stall` span.
    fn flush_held(&mut self, engines: &mut [StackEngine], c: usize, start: u64) {
        if !self.pipeline || c == 0 || c >= self.cores.len() {
            return;
        }
        let (left, right) = self.cores.split_at_mut(c);
        let (Some(prod), Some(cons)) = (left.last_mut(), right.first_mut()) else {
            return;
        };
        if prod.held.is_empty() {
            return;
        }
        // The transfer happens when space frees (the consumer's pops at
        // `start`) or when the producer finished producing, whichever
        // is later.
        let t_flush = start.max(prod.held_since);
        let mut moved = 0u32;
        // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
        while cons.inbox.free() > 0 {
            let Some(d) = prod.held.pop_front() else {
                break;
            };
            // The descriptor bytes were already written (and charged)
            // during the producing batch; the stall was pure waiting.
            // analyze::allow(charge-coverage, reason = "descriptor slot bytes were charged via SharedL2 write during the producing batch; releasing a held descriptor is pure waiting, no new data movement")
            // analyze::allow(alloc-path, reason = "ring storage is preallocated at construction; push writes in place")
            let ok = cons.inbox.push(t_flush, &d.msg, d.arr, d.flow_id, d.wclass, d.imiss, d.dmiss);
            debug_assert!(ok, "free space was checked above");
            self.handoff_msgs += 1;
            moved += 1;
        }
        if prod.held.is_empty() {
            let stalled = t_flush - prod.held_since;
            prod.rep.bp_stall_cycles += stalled;
            prod.busy_until = prod.busy_until.max(t_flush);
            if stalled > 0 {
                if let (Some(ids), Some(rec)) = (prod.obs, engines[c - 1].sink_mut().on_mut()) {
                    rec.span(SpanEvent {
                        name: ids.bp_stall,
                        start: prod.held_since,
                        dur: stalled,
                        batch: moved,
                        aux: t_flush,
                        imisses: 0,
                        dmisses: 0,
                    });
                }
            }
        }
    }

    /// `f` summed over the cores.
    fn total(&self, f: impl Fn(&CoreState) -> u64) -> u64 {
        self.cores.iter().map(f).sum()
    }

    fn assert_conservation(&self) {
        let completed = self.total(|c| c.rep.completed);
        let rejected = self.total(|c| c.rep.rejected);
        let drops = self.total(|c| c.rep.drops);
        let shed = self.total(|c| c.rep.shed);
        let queued = self.total(|c| c.entry.len() as u64);
        // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
        let parked = self.total(|c| (c.inbox.len() + c.held.len()) as u64);
        let unacked = self.ready_acks.len() as u64;
        assert_eq!(
            self.offered,
            completed + rejected + drops + shed + queued + parked + unacked + self.abandoned,
            "conservation violated: offered {} != completed {completed} + \
             rejected {rejected} + drops {drops} + shed {shed} + entry-queued {queued} + \
             hand-off-parked {parked} + unacked {unacked} + abandoned {}",
            self.offered,
            self.abandoned
        );
    }

    /// Runs a closed-loop client population to drain: transmissions are
    /// pulled from `pop` up to the causality frontier (the earliest
    /// possible next batch start), completions are fed back as
    /// acknowledgements in finish order, and completions whose client
    /// already gave up or was already acknowledged count as `abandoned`
    /// — machine work done for nobody, the metastability signal
    /// `figure13` sweeps. `weights` are the per-class shares used when
    /// the admission policy is [`AdmissionPolicy::WeightedFair`]
    /// (ignored otherwise).
    ///
    /// Causal exactness: batches run in non-decreasing start order, so
    /// every acknowledgement that could cancel a client timer at time t
    /// is delivered before any event at t fires, and client events
    /// before an acknowledgement's finish time fire before the
    /// acknowledgement lands (`poll_sends` up to the frontier first).
    // analyze::hot_path(smp-closed-loop, rules = "panic-path, charge-coverage")
    fn run_closed(
        &mut self,
        engines: &mut [StackEngine],
        pop: &mut ClosedPopulation,
        weights: [u32; Class::COUNT],
        mut charge: Option<&mut dyn MessageCharge>,
    ) {
        self.reset_run(engines);
        self.closed = true;

        let mut sends: Vec<ClientSend> = Vec::new();
        // Transmissions not yet admitted, with their send cycle.
        let mut pending: VecDeque<(u64, ClientSend)> = VecDeque::new();
        let cycles_per_s = self.cycles_per_s;
        let queue = |pending: &mut VecDeque<(u64, ClientSend)>, sends: &mut Vec<ClientSend>| {
            pending.extend(sends.drain(..).map(|s| (to_cycles(s.time_s, cycles_per_s), s)));
        };
        // The next client event in seconds and cycles; only polls and
        // acks change it.
        let peek = |pop: &ClosedPopulation| {
            let t_s = pop.next_event_time();
            (t_s, t_s.map(|t| to_cycles(t, cycles_per_s)))
        };
        let (mut next_ev, mut next_ev_cyc) = peek(pop);

        loop {
            // Client-side fixpoint: fire every think/timer event,
            // deliver every acknowledgement, and admit every pending
            // transmission that happens at or before the earliest
            // possible next batch start. Events win finish-time ties
            // against acknowledgements (a timer due exactly when the
            // ack lands still fires), matching `signaling::recovery`.
            // Only admissions change core state, so the frontier is
            // rescanned after each one and not otherwise.
            let mut best = self.scan_best();
            loop {
                let frontier = best.map_or(u64::MAX, |(s, _)| s);
                let next_send = pending.front().map(|&(t, _)| t);
                let next_ack = self.ready_acks.peek().map(|Reverse(a)| a.0);

                let ev_le = |a: Option<u64>, b: Option<u64>| match (a, b) {
                    (Some(x), Some(y)) => x <= y,
                    (Some(_), None) => true,
                    _ => false,
                };
                if ev_le(next_ev_cyc, next_send) && ev_le(next_ev_cyc, next_ack) {
                    let (Some(t_s), Some(t)) = (next_ev, next_ev_cyc) else {
                        break; // nothing pending anywhere
                    };
                    if t > frontier {
                        break;
                    }
                    pop.poll_sends(t_s, &mut sends);
                    queue(&mut pending, &mut sends);
                    (next_ev, next_ev_cyc) = peek(pop);
                } else if ev_le(next_send, next_ack) {
                    let Some(t) = next_send else { break };
                    if t > frontier {
                        break;
                    }
                    let Some((_, s)) = pending.pop_front() else { break };
                    self.offered += 1;
                    self.admit_closed(&s, t, weights);
                    best = self.scan_best();
                } else {
                    let Some(t) = next_ack else { break };
                    if t > frontier {
                        break;
                    }
                    let Some(Reverse((finish, id, core_idx))) = self.ready_acks.pop() else {
                        break;
                    };
                    let finish_s = finish as f64 / self.cycles_per_s;
                    // Any boundary straggler events (cycle rounding)
                    // fire before the acknowledgement lands.
                    pop.poll_sends(finish_s, &mut sends);
                    queue(&mut pending, &mut sends);
                    let (client, req) =
                        self.closed_meta.get(id as usize).copied().unwrap_or((u32::MAX, 0));
                    match pop.ack(client, req, finish_s) {
                        AckKind::Useful { latency_us } => {
                            if let Some(core) = self.cores.get_mut(core_idx) {
                                core.rep.completed += 1;
                                let rec = engines[core_idx].sink_mut().on_mut();
                                if let (Some(ids), Some(rec)) = (core.obs, rec) {
                                    rec.record_value(ids.latency, latency_us as u64);
                                }
                            }
                            // analyze::allow(alloc-path, reason = "latency samples are bounded by useful completions; capacity is warm in steady state")
                            self.latencies_us.push(latency_us);
                        }
                        AckKind::Stale => self.abandoned += 1,
                    }
                    (next_ev, next_ev_cyc) = peek(pop);
                }
            }

            let Some((start, c)) = best else {
                // The fixpoint ran with an unbounded frontier and found
                // nothing: no events, no sends, no acks, no startable
                // core — the run has drained.
                break;
            };
            self.run_batch(engines, c, start, &mut charge);
            self.flush_held(engines, c, start);
        }

        self.assert_conservation();
    }

    /// Steers and admits one closed-loop transmission, maintaining
    /// per-class occupancy for weighted-fair admission and per-class
    /// shed/drop accounting for every policy.
    fn admit_closed(&mut self, s: &ClientSend, t: u64, weights: [u32; Class::COUNT]) {
        let key = FlowKey::synth(s.client, self.cfg.placement_seed);
        let c = self.steer.core_for(&key);
        let Some(core) = self.cores.get_mut(c) else {
            return;
        };
        let ci = s.class.index();
        let wfq = self.cfg.admission == AdmissionPolicy::WeightedFair;
        let (evict_class, admit) = if wfq {
            weighted_fair_admit(&core.class_counts, &weights, self.entry_cap, ci)
        } else {
            // Class-blind policies evict from the queue head; encode
            // that as "evict whatever class is at the front".
            let (evict, admit) = self.cfg.admission.admit(core.entry.len(), self.entry_cap);
            debug_assert!(evict <= core.entry.len());
            for _ in 0..evict {
                core.shed_at(0, &mut self.shed_by_class);
            }
            (None, admit)
        };
        if let Some(d) = evict_class {
            // Weighted-fair donor: shed the *oldest* queued packet of
            // the most over-share class.
            if let Some(pos) = core.entry.iter().position(|p| p.class.index() == d) {
                core.shed_at(pos, &mut self.shed_by_class);
            }
        }
        if admit {
            core.class_counts[ci] += 1;
            // analyze::allow(alloc-path, reason = "pending queue is bounded by the arrival schedule; capacity is warm after the first batch")
            core.entry.push_back(EntryPkt {
                arr: t,
                bytes: s.bytes,
                corrupted: s.corrupted,
                flow_id: s.client,
                req: s.req,
                class: s.class,
                wclass: 0,
            });
        } else {
            core.rep.drops += 1;
            self.drops_by_class[ci] += 1;
        }
    }
}

/// Simulated seconds to the nearest cycle at `cycles_per_s`.
fn to_cycles(t_s: f64, cycles_per_s: f64) -> u64 {
    (t_s * cycles_per_s).round() as u64
}

/// The multi-core simulator: the per-core engines (the paper stack,
/// partitioned across stages under LayerAffinity) and the workload-class
/// work of an [`SmpConfig`], lent to one [`EventLoop`]. Build once,
/// [`SmpSim::run`] per arrival stream, read the [`SmpSim::outcome`].
pub struct SmpSim {
    engines: Vec<StackEngine>,
    classes: Option<ClassWork>,
    lp: EventLoop,
}

impl SmpSim {
    /// Builds the engines, queues, and fabric for `cfg`.
    pub fn new(cfg: &SmpConfig) -> SmpSim {
        let pipeline = cfg.dispatch == DispatchPolicy::LayerAffinity;
        let mut offset = 0usize;
        let mut engines: Vec<StackEngine> = stage_layers(cfg)
            .into_iter()
            .map(|take| {
                // Every core maps the same kernel image: one placement
                // seed for all, so layer code/data addresses agree.
                let (machine, layers) = paper_stack(cfg.machine, cfg.placement_seed);
                let first = if pipeline { offset } else { 0 };
                offset += take;
                let layers = layers.into_iter().skip(first).take(take).collect();
                StackEngine::new(machine, layers, cfg.discipline)
            })
            .collect();
        SmpSim {
            lp: EventLoop::new(cfg, &mut engines),
            classes: ClassWork::new(cfg),
            engines,
        }
    }

    /// Number of cores that actually run protocol code.
    pub fn active_cores(&self) -> usize {
        self.engines.len()
    }

    /// Attaches one observability sink per active core, with `c<i>/`
    /// name prefixes. `collect_spans` keeps raw events for tracing;
    /// `false` folds into metrics accumulators only.
    pub fn set_sinks(&mut self, collect_spans: bool) {
        for (i, engine) in self.engines.iter_mut().enumerate() {
            engine.set_sink(obs::Sink::record(collect_spans), &format!("c{i}/"));
        }
        self.lp.resolve_obs(&mut self.engines);
    }

    /// Detaches and returns the per-core recorders as
    /// `("core<i>", recorder)` pairs — one trace track per core.
    pub fn take_recorders(&mut self) -> Vec<(String, Box<obs::Recorder>)> {
        let mut out = Vec::new();
        for (i, engine) in self.engines.iter_mut().enumerate() {
            if let Some(rec) = engine.take_sink().into_recorder() {
                out.push((format!("core{i}"), rec));
            }
        }
        self.lp.resolve_obs(&mut self.engines);
        out
    }

    /// Runs one arrival stream to drain (see [`EventLoop::run`]).
    pub fn run(&mut self, arrivals: &[FlowArrival]) {
        let charge = self.classes.as_mut().map(|c| c as &mut dyn MessageCharge);
        self.lp.run(&mut self.engines, arrivals, charge);
    }

    /// Runs a closed-loop client population to drain; completions whose
    /// client already gave up or was acknowledged count as `abandoned`.
    /// `weights` are the per-class shares of
    /// [`AdmissionPolicy::WeightedFair`] admission (ignored otherwise).
    pub fn run_closed(&mut self, pop: &mut ClosedPopulation, weights: [u32; Class::COUNT]) {
        let charge = self.classes.as_mut().map(|c| c as &mut dyn MessageCharge);
        self.lp.run_closed(&mut self.engines, pop, weights, charge);
    }

    /// Assembles the run's [`SmpOutcome`] (see [`EventLoop::outcome`]).
    pub fn outcome(&mut self, net: ImpairCounters) -> SmpOutcome {
        self.lp.outcome(&self.engines, net)
    }
}

/// One-shot convenience: build, run, report; `net` carries an
/// impairment channel's counters into the report.
pub fn run_smp(cfg: &SmpConfig, arrivals: &[FlowArrival], net: ImpairCounters) -> SmpOutcome {
    let mut sim = SmpSim::new(cfg);
    sim.run(arrivals);
    sim.outcome(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::{impair_arrivals, ImpairConfig};
    use crate::steer::tag_flows;
    use crate::traffic::{ConstantSource, PoissonSource, TrafficSource};
    use ldlp::BatchPolicy;

    fn engine(d: Discipline, seed: u64) -> StackEngine {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        StackEngine::new(m, layers, d)
    }

    #[test]
    fn light_load_latency_is_the_service_time() {
        // 100 msgs/s: every message is processed alone, immediately.
        let mut e = engine(Discipline::Conventional, 1);
        let arrivals = ConstantSource::new(0.01, 552).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert_eq!(r.completed, 49);
        assert_eq!(r.drops, 0);
        assert!(r.conservation_holds());
        // Service time: 5 x 1652 instruction cycles + ~1000 misses x 20
        // at 100 MHz => roughly 280 us; queueing is zero.
        assert!(
            (200.0..400.0).contains(&r.mean_latency_us),
            "latency {} us",
            r.mean_latency_us
        );
        assert!((r.mean_batch - 1.0).abs() < 1e-9, "no batching at light load");
        // The queue never builds up, so the span is the arrival window
        // (to within one service time) and goodput equals throughput.
        assert!(r.span_s < 0.5 + 0.001, "span {} s", r.span_s);
        assert_eq!(r.goodput, r.throughput);
    }

    #[test]
    fn overload_fills_buffer_and_drops() {
        // Conventional saturates near 3500 msg/s; at 8000 it must drop.
        let mut e = engine(Discipline::Conventional, 1);
        let arrivals = PoissonSource::new(8000.0, 552, 3).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.drops > 0, "expected drops at 2x capacity");
        assert!(r.conservation_holds());
        // Latency is bounded by the 500-packet buffer (~500 x 285 us).
        assert!(r.max_latency_us < 500.0 * 400.0);
        assert!(r.mean_latency_us > 10_000.0, "deep queueing expected");
    }

    #[test]
    fn overloaded_throughput_is_measured_over_the_drain_span() {
        // The 500-packet backlog drains past the arrival window; the
        // old accounting divided by the window and inflated throughput.
        let mut e = engine(Discipline::Conventional, 1);
        let arrivals = PoissonSource::new(8000.0, 552, 3).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.span_s > 0.5, "backlog must drain past the window");
        assert!(
            r.throughput < r.completed as f64 / cfg.duration_s,
            "span-based throughput must undercut the inflated figure"
        );
        assert!(r.offered_load > 7000.0, "offered {} msg/s", r.offered_load);
        assert!(r.throughput < 4000.0, "conventional saturates near 3500/s");
    }

    #[test]
    fn ldlp_sustains_loads_conventional_cannot() {
        let arrivals = PoissonSource::new(8000.0, 552, 3).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let mut conv = engine(Discipline::Conventional, 1);
        let rc = run_sim(&mut conv, &arrivals, &cfg);
        let mut ldlp = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let rl = run_sim(&mut ldlp, &arrivals, &cfg);
        assert!(rl.drops == 0, "LDLP should keep up at 8000/s, dropped {}", rl.drops);
        assert!(rl.throughput > rc.throughput);
        assert!(
            rl.mean_latency_us < rc.mean_latency_us / 10.0,
            "LDLP {} us vs conventional {} us",
            rl.mean_latency_us,
            rc.mean_latency_us
        );
        assert!(rl.mean_imiss < rc.mean_imiss / 2.0);
        assert!(rl.mean_batch > 2.0, "batching should engage under load");
    }

    #[test]
    fn empty_arrivals_yield_empty_report() {
        let mut e = engine(Discipline::Conventional, 1);
        let r = run_sim(&mut e, &[], &SimConfig::default());
        assert_eq!(r.completed, 0);
        assert_eq!(r.drops, 0);
        assert!(r.conservation_holds());
    }

    #[test]
    fn batch_sizes_respect_the_policy_cap() {
        let mut e = engine(Discipline::Ldlp(BatchPolicy::Fixed(4)), 1);
        let arrivals = PoissonSource::new(9000.0, 552, 9).take_until(0.2);
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.mean_batch <= 4.0 + 1e-9);
    }

    #[test]
    fn sim_records_batch_spans_and_value_histograms() {
        let arrivals = PoissonSource::new(4000.0, 552, 5).take_until(0.1);
        let cfg = SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        };
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        e.set_sink(obs::Sink::record(true), "ldlp/");
        let r = run_sim(&mut e, &arrivals, &cfg);
        let mut rec = e.take_sink().into_recorder().expect("sink was attached");

        // One span per batch, carrying the batch size.
        let batch_id = rec.intern("ldlp/batch");
        let lat_id = rec.intern("ldlp/latency_us");
        let im_id = rec.intern("ldlp/imiss_per_msg");
        let spans = rec.span_accum(batch_id).expect("batch spans recorded");
        assert!(spans.spans > 0);
        assert_eq!(
            spans.messages,
            r.completed + r.rejected,
            "batch sizes sum to the processed message count"
        );
        assert!(
            (spans.spans as f64 * r.mean_batch - spans.messages as f64).abs() < 1e-6,
            "span count agrees with the report's mean batch size"
        );

        // Value histograms mirror the report's aggregates.
        let lat = rec.value_hist(lat_id).expect("latency histogram recorded");
        assert_eq!(lat.count(), r.completed);
        let mean = lat.mean();
        assert!(
            (mean - r.mean_latency_us).abs() <= r.mean_latency_us * 0.05 + 1.0,
            "histogram mean {mean} vs report {}",
            r.mean_latency_us
        );
        let im = rec.value_hist(im_id).expect("imiss histogram recorded");
        assert_eq!(im.count(), r.completed + r.rejected);

        // Trace mode also kept the raw per-layer + per-batch events.
        assert!(
            rec.events().len() as u64 > spans.spans,
            "expected layer spans in addition to batch spans"
        );
    }

    #[test]
    fn sink_off_report_is_identical() {
        let arrivals = PoissonSource::new(4000.0, 552, 5).take_until(0.1);
        let cfg = SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        };
        let mut plain = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let r0 = run_sim(&mut plain, &arrivals, &cfg);
        let mut observed = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        observed.set_sink(obs::Sink::record(false), "ldlp/");
        let r1 = run_sim(&mut observed, &arrivals, &cfg);
        assert_eq!(r0.completed, r1.completed);
        assert_eq!(r0.mean_batch.to_bits(), r1.mean_batch.to_bits());
        assert_eq!(r0.mean_latency_us.to_bits(), r1.mean_latency_us.to_bits());
        assert_eq!(r0.mean_imiss.to_bits(), r1.mean_imiss.to_bits());
    }

    #[test]
    fn deterministic_given_seeds() {
        let arrivals = PoissonSource::new(4000.0, 552, 5).take_until(0.2);
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let mut e1 = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 2);
        let r1 = run_sim(&mut e1, &arrivals, &cfg);
        let mut e2 = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 2);
        let r2 = run_sim(&mut e2, &arrivals, &cfg);
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.mean_latency_us, r2.mean_latency_us);
        assert_eq!(r1.mean_imiss, r2.mean_imiss);
    }

    #[test]
    fn head_drop_bounds_the_latency_of_survivors() {
        // Same overload, two policies. Tail-drop keeps the oldest
        // packets (deep queueing for everything that completes);
        // head-drop keeps the freshest, so survivors wait less.
        let arrivals = PoissonSource::new(9000.0, 552, 7).take_until(0.4);
        let base = SimConfig {
            duration_s: 0.4,
            ..SimConfig::default()
        };
        let mut e1 = engine(Discipline::Conventional, 1);
        let tail = run_sim(&mut e1, &arrivals, &base);
        let cfg = SimConfig {
            admission: AdmissionPolicy::HeadDrop,
            ..base
        };
        let mut e2 = engine(Discipline::Conventional, 1);
        let head = run_sim(&mut e2, &arrivals, &cfg);
        assert!(tail.conservation_holds());
        assert!(head.conservation_holds());
        assert!(tail.drops > 0 && head.shed > 0, "both policies lose packets");
        assert_eq!(head.drops, 0, "head-drop always admits the arrival");
        assert!(
            head.mean_latency_us < tail.mean_latency_us,
            "head-drop survivors {} us should wait less than tail-drop {} us",
            head.mean_latency_us,
            tail.mean_latency_us
        );
    }

    #[test]
    fn shed_oldest_purges_in_sweeps_and_conserves() {
        let arrivals = PoissonSource::new(9000.0, 552, 7).take_until(0.3);
        let cfg = SimConfig {
            admission: AdmissionPolicy::ShedOldest { down_to: 100 },
            duration_s: 0.3,
            ..SimConfig::default()
        };
        let mut e = engine(Discipline::Conventional, 1);
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.conservation_holds());
        assert_eq!(r.drops, 0);
        assert!(r.shed > 0, "overload must trigger shedding");
        // Shedding happens 400-at-a-time, so the shed count is a
        // multiple of the purge size.
        assert_eq!(r.shed % 400, 0, "shed {} in sweeps of 400", r.shed);
    }

    /// A one-core run on a lent engine, with a per-message charge and
    /// impairment counters.
    fn run_one_core<A: Copy + Into<FlowArrival>>(
        engine: &mut StackEngine,
        arrivals: &[A],
        cfg: &SimConfig,
        charge: Option<&mut dyn MessageCharge>,
        net: ImpairCounters,
    ) -> SimReport {
        let machine = *engine.machine().config();
        let engines = std::slice::from_mut(engine);
        let mut lp = EventLoop::new(&cfg.one_core(machine), engines);
        lp.run(engines, arrivals, charge);
        lp.outcome(engines, net).report
    }

    #[test]
    fn lookup_charges_land_in_dmisses_and_latency() {
        let arrivals: Vec<FlowArrival> = ConstantSource::new(0.001, 552)
            .take_until(0.2)
            .into_iter()
            .enumerate()
            .map(|(i, a)| FlowArrival {
                flow_id: i as u32,
                ..a.into()
            })
            .collect();
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let mut plain = engine(Discipline::Conventional, 1);
        let base = run_one_core(&mut plain, &arrivals, &cfg, None, ImpairCounters::default());

        /// Two 64-byte slots per lookup, distinct per flow: every
        /// message pays 4 cold-line reads.
        struct Probes;
        impl MessageCharge for Probes {
            fn charge(&mut self, _: u8, flow_id: u32, _: u8, m: &mut Machine, _: &mut SharedL2) {
                m.read_data_probes(0x4000_0000, 64, &[flow_id * 2, flow_id * 2 + 1]);
            }
        }
        let mut e = engine(Discipline::Conventional, 1);
        let r = run_one_core(
            &mut e,
            &arrivals,
            &cfg,
            Some(&mut Probes),
            ImpairCounters::default(),
        );
        assert_eq!(r.completed, base.completed);
        assert!(r.conservation_holds());
        // Each lookup adds 4 cold-line misses of its own; pollution of
        // the stack's working set can only add more.
        assert!(
            r.mean_dmiss >= base.mean_dmiss + 4.0 - 1e-9,
            "lookup misses must be charged: {} vs {}",
            r.mean_dmiss,
            base.mean_dmiss
        );
        assert!(
            r.mean_latency_us > base.mean_latency_us,
            "lookup stalls must show up in latency"
        );
    }

    #[test]
    fn corrupted_deliveries_cost_cycles_but_do_not_complete() {
        let arrivals = ConstantSource::new(0.001, 552).take_until(0.3);
        let cfg = SimConfig {
            duration_s: 0.3,
            ..SimConfig::default()
        };
        let chan = ImpairConfig {
            corrupt_prob: 0.2,
            seed: 5,
            ..ImpairConfig::default()
        };
        let (deliveries, counters) = impair_arrivals(&arrivals, chan);
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let r = run_one_core(&mut e, &deliveries, &cfg, None, counters);
        assert!(r.conservation_holds());
        assert_eq!(r.rejected, counters.corrupted, "every corrupt delivery rejects");
        assert_eq!(r.completed + r.rejected, deliveries.len() as u64);
        assert_eq!(r.net_corrupted, counters.corrupted);
        assert!(r.goodput < r.throughput, "rejected work is not goodput");
    }

    fn arrivals(rate_hz: f64, duration_s: f64, flows: u32, seed: u64) -> Vec<FlowArrival> {
        let raw = ConstantSource::new(1.0 / rate_hz, 552).take_until(duration_s);
        tag_flows(&raw, flows, seed)
    }

    fn cfg(cores: usize, dispatch: DispatchPolicy, discipline: Discipline) -> SmpConfig {
        SmpConfig {
            duration_s: 0.2,
            ..SmpConfig::new(cores, dispatch, discipline)
        }
    }

    #[test]
    fn single_core_light_load_completes_everything() {
        let c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        let arr = arrivals(200.0, 0.2, 8, 1);
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert_eq!(out.report.completed, arr.len() as u64);
        assert_eq!(out.report.drops + out.report.shed, 0);
        assert!(out.report.conservation_holds());
        assert_eq!(out.per_core.len(), 1);
        assert_eq!(out.per_core[0].completed, arr.len() as u64);
        assert_eq!(out.handoff_msgs, 0, "one core, no hand-offs");
        // The shared tables were exercised through the fabric.
        assert!(out.coherence.reads > 0 && out.coherence.writes > 0);
        // One core: no cross-core transfers, ever.
        assert_eq!(out.coherence.transfers, 0);
        assert_eq!(out.coherence.invalidations, 0);
    }

    /// Table sizing: defaults reproduce the stock constants (so every
    /// pre-existing figure-9 cell is bit-identical), and
    /// `sized_for_flows` spreads per-message RMWs over a
    /// population-sized footprint, cutting slot ping-pong.
    #[test]
    fn shared_tables_size_with_the_flow_population() {
        let stock = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        assert_eq!(stock.call_table_slots, CALL_TABLE_SLOTS);
        assert_eq!(
            stock.reass_table_slots,
            netstack::ipfrag::REASSEMBLY_TABLE_BYTES / netstack::ipfrag::REASSEMBLY_SLOT_BYTES
        );
        let big = stock.sized_for_flows(1_000_000);
        assert_eq!(big.call_table_slots, 1 << 20);
        assert_eq!(big.reass_table_slots, 1 << 20);
        assert_eq!(
            stock.sized_for_flows(1).call_table_slots,
            CALL_TABLE_SLOTS,
            "sizing never shrinks below the stock port"
        );

        // 4096 flows hammering 64 slots ping-pong constantly; the same
        // flows over a 4096-slot table mostly own distinct lines.
        let arr = arrivals(2000.0, 0.2, 4096, 4);
        let out_small = run_smp(&stock, &arr, ImpairCounters::default());
        let out_big = run_smp(
            &stock.sized_for_flows(4096),
            &arr,
            ImpairCounters::default(),
        );
        assert!(out_small.report.conservation_holds());
        assert!(out_big.report.conservation_holds());
        assert_eq!(out_small.report.completed, out_big.report.completed);
        assert!(
            out_big.coherence.transfers + out_big.coherence.invalidations
                < out_small.coherence.transfers + out_small.coherence.invalidations,
            "population-sized tables must reduce slot ping-pong: {} vs {}",
            out_big.coherence.transfers + out_big.coherence.invalidations,
            out_small.coherence.transfers + out_small.coherence.invalidations
        );
    }

    #[test]
    fn full_stack_dispatch_spreads_flows_across_cores() {
        let c = cfg(4, DispatchPolicy::FlowHash, Discipline::Conventional);
        let arr = arrivals(2000.0, 0.2, 64, 2);
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.completed, arr.len() as u64);
        let active = out.per_core.iter().filter(|r| r.msgs > 0).count();
        assert!(active >= 3, "64 flows over 4 cores should hit most cores");
        // Different cores write the same table slots: coherence traffic.
        assert!(out.coherence.transfers + out.coherence.invalidations > 0);
    }

    #[test]
    fn layer_affinity_pipelines_across_stages() {
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let arr = arrivals(2000.0, 0.2, 16, 3);
        let n = arr.len() as u64;
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.completed, n);
        // 5 layers over 4 cores: 4 stages, every one of them worked.
        for s in 0..4 {
            assert!(out.per_core[s].msgs > 0, "stage {s} idle");
        }
        // Every message crossed 3 hand-off boundaries.
        assert_eq!(out.handoff_msgs, 3 * n);
        // Completions happen at the last stage only.
        assert_eq!(out.per_core[3].completed, n);
        assert_eq!(out.per_core[0].completed, 0);
    }

    #[test]
    fn more_cores_than_layers_leaves_extras_idle() {
        let c = cfg(
            8,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let out = run_smp(&c, &arrivals(1000.0, 0.2, 8, 4), ImpairCounters::default());
        assert_eq!(out.per_core.len(), 8);
        assert!(out.per_core[..5].iter().all(|r| r.msgs > 0));
        assert!(out.per_core[5..].iter().all(|r| r.msgs == 0));
    }

    #[test]
    fn corrupted_messages_reject_at_the_entry_stage() {
        let mut arr = arrivals(1000.0, 0.2, 8, 5);
        for a in arr.iter_mut().step_by(10) {
            a.corrupted = true;
        }
        let want_rejected = arr.iter().filter(|a| a.corrupted).count() as u64;
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert_eq!(out.report.rejected, want_rejected);
        assert_eq!(out.per_core[0].rejected, want_rejected, "verify is stage 0");
        assert_eq!(out.report.completed, arr.len() as u64 - want_rejected);
        assert!(out.report.conservation_holds());
    }

    #[test]
    fn runs_are_deterministic() {
        for dispatch in [
            DispatchPolicy::FlowHash,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LayerAffinity,
        ] {
            let c = cfg(4, dispatch, Discipline::Ldlp(BatchPolicy::DCacheFit));
            let arr = arrivals(3000.0, 0.2, 32, 6);
            let a = run_smp(&c, &arr, ImpairCounters::default());
            let b = run_smp(&c, &arr, ImpairCounters::default());
            assert_eq!(a.report, b.report, "{dispatch:?}");
            assert_eq!(a.per_core, b.per_core, "{dispatch:?}");
            assert_eq!(a.coherence, b.coherence, "{dispatch:?}");
        }
    }

    #[test]
    fn overload_drops_at_entry_never_mid_pipeline() {
        let mut c = cfg(
            2,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.buffer_cap = 16;
        c.handoff_cap = 8;
        let out = run_smp(
            &c,
            &arrivals(60_000.0, 0.2, 16, 7),
            ImpairCounters::default(),
        );
        assert!(out.report.drops > 0, "overload must drop");
        assert!(out.report.conservation_holds());
        // Everything admitted made it out the far end: drains are full.
        assert_eq!(
            out.report.offered,
            out.report.completed + out.report.rejected + out.report.drops + out.report.shed
        );
    }

    #[test]
    fn stall_producer_mode_loses_nothing_and_charges_stalls() {
        let mut c = cfg(
            2,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.buffer_cap = 64;
        c.handoff_cap = 4;
        c.flow_control = HandoffFlowControl::StallProducer;
        let arr = arrivals(60_000.0, 0.2, 16, 7);
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert!(out.report.conservation_holds());
        // Drained fully: nothing left in queues, rings, or held buffers.
        assert_eq!(
            out.report.offered,
            out.report.completed + out.report.rejected + out.report.drops + out.report.shed
        );
        assert!(out.report.completed > 0);
        let stage0 = out.per_core[0];
        assert!(stage0.bp_stalls > 0, "a 4-deep ring under overload must stall the producer");
        assert!(stage0.bp_stall_cycles > 0, "stalls cost cycles");
        // The final stage has no downstream and can never stall.
        let last = out.per_core[out.per_core.len() - 1];
        assert_eq!(last.bp_stalls + last.bp_stall_cycles, 0);
        // The stock mode never stalls anywhere.
        c.flow_control = HandoffFlowControl::SizeToFree;
        let base = run_smp(&c, &arr, ImpairCounters::default());
        assert!(base.per_core.iter().all(|r| r.bp_stalls == 0 && r.bp_stall_cycles == 0));
    }

    #[test]
    fn stall_producer_runs_are_deterministic() {
        let mut c = cfg(
            3,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.handoff_cap = 8;
        c.flow_control = HandoffFlowControl::StallProducer;
        let arr = arrivals(30_000.0, 0.2, 16, 9);
        let a = run_smp(&c, &arr, ImpairCounters::default());
        let b = run_smp(&c, &arr, ImpairCounters::default());
        assert_eq!(a.report, b.report);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.coherence, b.coherence);
    }

    fn closed_pop(clients: u32, think_s: f64, duration_s: f64, seed: u64) -> ClosedPopulation {
        ClosedPopulation::new(&crate::ClosedConfig::new(
            clients, think_s, duration_s, seed,
        ))
    }

    #[test]
    fn closed_loop_light_load_acks_every_request() {
        let c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        let mut pop = closed_pop(20, 0.01, 0.2, 5);
        let mut sim = SmpSim::new(&c);
        sim.run_closed(&mut pop, [1, 1, 1]);
        let out = sim.outcome(pop.channel_counters());
        let st = *pop.stats();
        assert!(st.useful > 50, "a light closed loop keeps cycling");
        assert_eq!(out.report.completed, st.useful, "every useful ack is a completion");
        assert_eq!(out.report.offered, st.offered, "server sees what the channel delivered");
        assert_eq!(out.report.abandoned, 0, "fast service leaves nothing stale");
        assert_eq!(st.abandoned_requests, 0);
        assert_eq!(st.transmissions, st.requests, "no retries at light load");
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.mean_latency_us, {
            let l = pop.latencies_us();
            l.iter().sum::<f64>() / l.len() as f64
        });
    }

    #[test]
    fn closed_overload_retries_amplify_and_stale_work_is_conserved() {
        // A deliberately slow server: one core, a deep client
        // population, and a hair-trigger client RTO. Retransmitted
        // copies pile into the queue; the first copy to complete acks
        // the client and the rest finish stale (`abandoned`).
        let mut c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.buffer_cap = 256;
        let mut pc = crate::ClosedConfig::new(300, 1e-4, 0.05, 11);
        pc.retry = crate::RetryPolicy {
            rto_s: 0.001,
            ..crate::RetryPolicy::default()
        };
        let mut pop = ClosedPopulation::new(&pc);
        let mut sim = SmpSim::new(&c);
        sim.run_closed(&mut pop, [1, 1, 1]);
        let out = sim.outcome(pop.channel_counters());
        let st = *pop.stats();
        assert!(st.retry_amplification() > 1.2, "overload must trigger retries");
        assert!(out.report.abandoned > 0, "duplicate copies complete stale");
        assert!(out.report.conservation_holds());
        // Drained: offered splits exactly into the terminal buckets.
        assert_eq!(
            out.report.offered,
            out.report.completed
                + out.report.rejected
                + out.report.drops
                + out.report.shed
                + out.report.abandoned
        );
        // Goodput counts useful acks only; throughput counts stale too.
        assert!(out.report.throughput > out.report.goodput);
    }

    #[test]
    fn closed_weighted_fair_sheds_the_overweight_class() {
        // Weights heavily favour call + dns; the rpc class is capped at
        // a sliver of the buffer, so under overload its packets are the
        // ones shed or refused.
        let mut c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.admission = AdmissionPolicy::WeightedFair;
        c.buffer_cap = 64;
        let mut pc = crate::ClosedConfig::new(300, 1e-4, 0.05, 13);
        pc.retry = crate::RetryPolicy {
            rto_s: 0.001,
            ..crate::RetryPolicy::default()
        };
        let weights = [8, 8, 1];
        let mut pop = ClosedPopulation::new(&pc);
        let mut sim = SmpSim::new(&c);
        sim.run_closed(&mut pop, weights);
        let out = sim.outcome(pop.channel_counters());
        let st = *pop.stats();
        assert!(out.report.conservation_holds());
        let rpc = Class::Rpc.index();
        let lost_rpc = out.shed_by_class[rpc] + out.drops_by_class[rpc];
        let lost_call = out.shed_by_class[0] + out.drops_by_class[0];
        assert!(
            lost_rpc > lost_call,
            "the 1-weight class must absorb the overload: rpc lost {lost_rpc}, call lost {lost_call}"
        );
        // The favoured classes resolve a larger fraction of their
        // requests than the squeezed one.
        let frac = |i: usize| st.per_class_useful[i] as f64 / st.per_class_requests[i].max(1) as f64;
        assert!(
            frac(0) >= frac(rpc),
            "call fraction {} vs rpc fraction {}",
            frac(0),
            frac(rpc)
        );
    }

    #[test]
    fn closed_runs_are_deterministic_across_modes() {
        for fc in [HandoffFlowControl::SizeToFree, HandoffFlowControl::StallProducer] {
            let mut c = cfg(
                4,
                DispatchPolicy::LayerAffinity,
                Discipline::Ldlp(BatchPolicy::DCacheFit),
            );
            c.handoff_cap = 8;
            c.flow_control = fc;
            let run = || {
                let mut pop = closed_pop(60, 5e-4, 0.1, 17);
                let mut sim = SmpSim::new(&c);
                sim.run_closed(&mut pop, [4, 1, 2]);
                (sim.outcome(pop.channel_counters()), *pop.stats())
            };
            let (o1, s1) = run();
            let (o2, s2) = run();
            assert_eq!(o1.report, o2.report, "{fc:?}");
            assert_eq!(o1.per_core, o2.per_core, "{fc:?}");
            assert_eq!(s1, s2, "{fc:?}");
        }
    }

    /// Tags a deterministic class rotation onto an arrival stream.
    fn tag_classes(arr: &mut [FlowArrival], classes: &[u8]) {
        for (i, a) in arr.iter_mut().enumerate() {
            a.wclass = classes[i % classes.len()];
        }
    }

    #[test]
    fn workload_classes_are_accounted_and_charged() {
        let mut c = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.wclass[1] = WClassProfile {
            handler_code_bytes: 4096,
            table_slots: 256,
            slo_us: 1e9,
        };
        c.wclass[2] = WClassProfile {
            handler_code_bytes: 512,
            table_slots: 16,
            slo_us: 1e-3,
        };
        let mut arr = arrivals(2000.0, 0.2, 32, 11);
        tag_classes(&mut arr, &[1, 2, 2]);
        let n1 = arr.iter().filter(|a| a.wclass == 1).count() as u64;
        let n2 = arr.iter().filter(|a| a.wclass == 2).count() as u64;
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert!(out.report.conservation_holds());
        assert_eq!(out.classes.len(), MAX_WCLASS);
        assert_eq!(out.classes[1].offered, n1);
        assert_eq!(out.classes[2].offered, n2);
        assert_eq!(out.classes[0].offered, 0, "no untagged traffic in this stream");
        // Light load: everything completes, and the per-class books
        // close exactly.
        for w in [1usize, 2] {
            let cl = &out.classes[w];
            assert_eq!(cl.offered, cl.completed + cl.rejected + cl.drops + cl.shed, "class {w}");
            assert!(cl.p99_latency_us >= cl.p50_latency_us && cl.p50_latency_us > 0.0);
        }
        // A generous SLO is met; an impossible one is not.
        assert_eq!(out.classes[1].slo_attainment, 1.0);
        assert_eq!(out.classes[2].slo_attainment, 0.0);
        // The big-handler class costs more I-misses per message than
        // the small-handler one (4 KB vs 0.5 KB swept per message).
        assert!(
            out.classes[1].mean_imiss > out.classes[2].mean_imiss,
            "class 1 ({}) should out-miss class 2 ({})",
            out.classes[1].mean_imiss,
            out.classes[2].mean_imiss
        );
    }

    #[test]
    fn class_tags_survive_pipeline_handoffs() {
        let mut c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.wclass[3] = WClassProfile {
            handler_code_bytes: 1024,
            table_slots: 64,
            slo_us: 0.0,
        };
        let mut arr = arrivals(2000.0, 0.2, 16, 12);
        tag_classes(&mut arr, &[3]);
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert!(out.report.conservation_holds());
        assert_eq!(out.classes[3].completed, out.report.completed);
        assert_eq!(out.classes[3].offered, arr.len() as u64);
    }

    #[test]
    fn untagged_runs_are_bit_identical_with_and_without_class_profiles() {
        // Class 0 keeps the default (all-zero) profile, so a stream of
        // untagged arrivals must produce the same report whether or not
        // other classes are configured — the class machinery adds no
        // work to traffic that doesn't opt in.
        let base = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        let mut tracked = base;
        tracked.wclass[5] = WClassProfile {
            handler_code_bytes: 8192,
            table_slots: 1024,
            slo_us: 100.0,
        };
        let arr = arrivals(3000.0, 0.2, 32, 13);
        let a = run_smp(&base, &arr, ImpairCounters::default());
        let b = run_smp(&tracked, &arr, ImpairCounters::default());
        assert_eq!(a.report, b.report);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.coherence, b.coherence);
        assert!(a.classes.is_empty(), "untracked run reports no classes");
        assert_eq!(b.classes[0].offered, arr.len() as u64, "untagged rides class 0");
        assert_eq!(b.classes[5].offered, 0);
    }

    #[test]
    fn reusing_the_simulator_keeps_accounting_exact() {
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let arr = arrivals(2000.0, 0.2, 16, 8);
        let mut sim = SmpSim::new(&c);
        sim.run(&arr);
        let first = sim.outcome(ImpairCounters::default());
        sim.run(&arr);
        let second = sim.outcome(ImpairCounters::default());
        assert_eq!(first.report.completed, second.report.completed);
        assert!(second.report.conservation_holds());
        // Warm caches can only help: the second pass is no slower.
        assert!(second.report.mean_latency_us <= first.report.mean_latency_us * 1.01);
    }

    /// One core's events from a traced run: every layer span lies
    /// inside the batch span that follows it, and the core's batch spans
    /// are disjoint and in non-decreasing simulated start order.
    fn assert_single_time_base(rec: &mut obs::Recorder, batch_name: &str) {
        let batch = rec.intern(batch_name);
        let mut layers: Vec<SpanEvent> = Vec::new();
        let mut prev_end = 0u64;
        let mut batches = 0;
        for ev in rec.events() {
            if ev.name != batch {
                layers.push(*ev);
                continue;
            }
            assert!(
                ev.start >= prev_end,
                "batch at {} overlaps {prev_end}",
                ev.start
            );
            prev_end = ev.start + ev.dur;
            for l in layers.drain(..) {
                assert!(
                    l.start >= ev.start && l.start + l.dur <= prev_end,
                    "{batch_name}: layer span [{}, +{}) outside batch [{}, {prev_end})",
                    l.start,
                    l.dur,
                    ev.start
                );
            }
            batches += 1;
        }
        assert!(
            layers.is_empty(),
            "{batch_name}: layer spans after the last batch"
        );
        assert!(batches > 0, "{batch_name}: no batches recorded");
    }

    #[test]
    fn spans_share_the_simulated_clock_on_one_core() {
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 3);
        e.set_sink(obs::Sink::record(true), "");
        let arrivals = PoissonSource::new(6000.0, 552, 4).take_until(0.1);
        let cfg = SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(
            r.mean_batch > 1.0,
            "the check must cover multi-message batches"
        );
        let mut rec = e.take_sink().into_recorder().expect("sink was attached");
        assert_single_time_base(&mut rec, "batch");
    }

    #[test]
    fn spans_share_the_simulated_clock_across_pipeline_stages() {
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let mut sim = SmpSim::new(&c);
        sim.set_sinks(true);
        sim.run(&arrivals(6000.0, 0.1, 16, 5));
        let mut recorders = sim.take_recorders();
        assert_eq!(recorders.len(), 4);
        for (i, (_, rec)) in recorders.iter_mut().enumerate() {
            assert_single_time_base(rec, &format!("c{i}/batch"));
        }
    }

    #[test]
    fn zero_slot_tables_are_not_charged() {
        let mut c = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.call_table_slots = 0;
        c.reass_table_slots = 0;
        let arr = arrivals(2000.0, 0.2, 32, 6);
        let out = run_smp(&c, &arr, ImpairCounters::default());
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.completed, arr.len() as u64);
        // Full-stack dispatch has no hand-off rings, so with both tables
        // absent nothing at all goes through the fabric.
        assert_eq!(out.coherence, CoherenceStats::default());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::traffic::{ConstantSource, TrafficSource};
    use ldlp::BatchPolicy;

    #[test]
    fn traced_run_records_every_batch() {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
        let mut e = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
        e.set_sink(obs::Sink::record(true), "");
        let arrivals = ConstantSource::new(0.01, 552).take_until(0.2);
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        let mut rec = e.take_sink().into_recorder().expect("sink was attached");
        let batch = rec.intern("batch");
        let spans: Vec<SpanEvent> = rec
            .events()
            .iter()
            .filter(|ev| ev.name == batch)
            .copied()
            .collect();
        assert_eq!(
            spans.len() as u64,
            r.completed,
            "light load: one batch per message"
        );
        assert!(spans.iter().all(|b| b.batch == 1));
        // Batch spans start on the simulated clock: at light load each
        // batch starts when its message arrives.
        let cycles_per_s = e.machine().config().clock_mhz * 1e6;
        for (b, a) in spans.iter().zip(&arrivals) {
            assert_eq!(b.start, (a.time_s * cycles_per_s).round() as u64);
        }
    }
}
