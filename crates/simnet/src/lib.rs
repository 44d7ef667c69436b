//! # simnet — load simulation for layer-processing schedules
//!
//! The experimental apparatus of the paper's Section 4: a discrete-event
//! simulation that feeds a stream of message arrivals through
//! `ldlp::StackEngine`s and measures latency, throughput, drops, and
//! cache misses per message — on one core, as the paper does, or on N
//! cores over a shared L2.
//!
//! * [`traffic`] — arrival processes: Poisson (Figures 5 and 6),
//!   deterministic, a self-similar superposition of Pareto ON/OFF sources
//!   standing in for the Bellcore Ethernet traces (Figure 7; Leland et
//!   al.'s traces are not redistributable, and Willinger et al. showed
//!   this construction converges to the same self-similar process), and
//!   trace files.
//! * [`sim`] — the one event loop: bounded entry queues (the NIC buffer,
//!   500 packets in the paper), batch admission per the engine's
//!   discipline ("process batches consisting of all available
//!   messages"), per-message latency accounting, and the multi-core
//!   model on top — per-core engines over a [`cachesim::SharedL2`]
//!   coherence fabric, bounded structure-of-arrays descriptor rings
//!   between pipeline stages (`ring`), and a conservation law asserted
//!   on every run. [`run_sim`] is its one-core case; [`SmpSim`] drives N
//!   cores.
//! * [`steer`] — deterministic flow synthesis and the three dispatch
//!   policies: RSS-style 5-tuple hashing, first-seen round-robin, and
//!   LDLP-aware layer affinity (software pipelining across cores).
//! * [`stats`] — report aggregation, percentiles, and a Hurst-parameter
//!   estimator (aggregated-variance method) used to validate the
//!   self-similar source.
//! * [`impair`] — a deterministic, seeded impairment channel composable
//!   in front of any traffic source: independent and Gilbert–Elliott
//!   burst loss, payload corruption, duplication, and bounded
//!   reordering, with counters threaded into the report.
//! * [`closed`] — a closed-loop source: a finite population of
//!   retrying clients (retransmit timers, exponential backoff, retry
//!   budgets, think times) whose feedback loop turns overload into the
//!   metastable collapse `figure13` measures.
//! * [`par`] — a deterministic parallel executor that fans independent
//!   (parameter, seed) simulation runs across host cores and returns
//!   results in index order, so sweep output is byte-identical to the
//!   serial path.

pub mod closed;
pub mod impair;
pub mod par;
mod ring;
pub mod sim;
pub mod stats;
pub mod steer;
pub mod traffic;

pub use closed::{
    AckKind, Class, ClientSend, ClosedConfig, ClosedPopulation, ClosedStats, RetransmitTimer,
    RetryPolicy,
};
pub use impair::{
    reorder_deliveries, GilbertElliott, ImpairConfig, ImpairCounters, ImpairedArrival,
    ImpairedSource,
};
pub use par::{resolve_threads, run_indexed};
pub use sim::{
    run_sim, run_smp, CoreReport, EventLoop, HandoffFlowControl, MessageCharge, SimConfig,
    SmpConfig, SmpOutcome, SmpSim, WClassProfile, MAX_WCLASS,
};
pub use stats::{RunTally, SimReport};
pub use steer::{tag_flows, DispatchPolicy, FlowArrival, FlowKey, Steerer};
pub use traffic::{
    Arrival, MmppSource, PoissonSource, SelfSimilarSource, TraceSource, TrafficSource,
    TrainSource,
};
