//! The multi-core simulator's names under the `smp` import path.
//!
//! The one event loop — single-core runs are its one-core case — lives
//! in [`simnet::sim`], with flow steering in [`simnet::steer`]. This
//! crate exists so the repository benchmark (`perfbench/`), which
//! imports these names from `smp`, keeps building unchanged; new code
//! imports from `simnet` directly. The crate's integration tests pin
//! the loop's allocation-free steady state and its multi-core
//! properties through `simnet`.

#![forbid(unsafe_code)]

pub use simnet::sim::{CoreReport, HandoffFlowControl, SmpConfig, SmpOutcome, SmpSim, MAX_WCLASS};
pub use simnet::steer::DispatchPolicy;
