//! # ldlp — Locality-Driven Layer Processing
//!
//! The primary contribution of Blackwell, *Speeding up Protocols for Small
//! Messages* (SIGCOMM '96), as a reusable library.
//!
//! Protocol processing applies every layer of a stack to every message —
//! structurally a matrix computation (paper Figure 3). A **conventional**
//! stack walks one message through all layers before touching the next;
//! when the stack's code working set exceeds the primary instruction
//! cache, every message reloads every layer. **LDLP** *blocks* the
//! computation the way blocked matrix multiplication does: take all
//! currently-available messages, run layer 1 over all of them, then layer
//! 2, and so on. Each layer's code is loaded once per *batch* instead of
//! once per *message*; under light load batches degenerate to single
//! messages and nothing is lost.
//!
//! The crate provides:
//!
//! * [`layer`] — [`layer::SyntheticLayer`]: a protocol layer described
//!   by its code footprint, per-layer data, and instruction cost; the
//!   defaults are the paper's synthetic layer (6 KB code, 256 B data,
//!   1652 cycles for a 552-byte message).
//! * [`engine`] — [`engine::StackEngine`]: executes batches under one of
//!   the three disciplines of Figure 2 (Conventional, ILP, LDLP/blocked)
//!   against a `cachesim::Machine`, attributing cache misses and
//!   completion times to individual messages.
//! * [`policy`] — batch-sizing policies (Section 3.2): all-available,
//!   fit-the-data-cache, or a fixed block size.
//! * [`blocking`] — a Lam-style analytical estimate of the optimal
//!   blocking factor and the predicted misses-per-message curve.
//! * [`synth`] — constructors for the paper's five-layer synthetic stack
//!   with seeded random placement, and a message-buffer pool.
//!
//! ## Quick example
//!
//! ```
//! use ldlp::engine::{Discipline, StackEngine};
//! use ldlp::policy::BatchPolicy;
//! use ldlp::synth::{paper_stack, MessagePool};
//! use cachesim::MachineConfig;
//!
//! // The paper's synthetic benchmark machine and 5-layer stack, seed 1.
//! let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
//! let mut pool = MessagePool::new(64, 1536, 1);
//! let mut engine = StackEngine::new(machine, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
//!
//! // A batch of 8 waiting 552-byte messages.
//! let msgs: Vec<_> = (0..8).map(|i| pool.make_message(i, 552)).collect();
//! let completions = engine.process_batch(&msgs);
//! assert_eq!(completions.len(), 8);
//! // Blocked processing loads each layer's 6 KB of code once per batch,
//! // so per-message instruction misses are far below the ~960 a
//! // conventional schedule pays.
//! let avg_imiss: f64 = completions.iter().map(|c| c.imisses as f64).sum::<f64>() / 8.0;
//! assert!(avg_imiss < 400.0);
//! ```

pub mod blocking;
pub mod graph;
pub mod instrument;
pub mod engine;
pub mod layer;
pub mod policy;
pub mod synth;

pub use engine::{Completion, Discipline, StackEngine};
pub use layer::{SimMessage, SyntheticLayer};
pub use policy::{stage_partition, weighted_fair_admit, AdmissionPolicy, BatchPolicy};
