//! Byte-level pins on the one-core simulation path: registry entries
//! that run caller-built engines through `simnet::run_sim`, compared
//! against committed outputs. `dynamics` at its default run must equal
//! `results/dynamics.csv` (its batch trace comes from the loop's obs
//! batch spans); `figure5`, `figure7` and `ablation_tlb` (an engine on
//! a non-default machine) at two seeds × 0.1 s must equal their
//! `results/*_pin_golden.csv` files.

use bench::{experiment, Observe, RunOpts};
use std::path::PathBuf;

fn committed(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `name`'s first CSV, run in-process.
fn csv(name: &str, opts: &RunOpts) -> String {
    let e = experiment(name).expect("registered");
    (e.run)(&e.resolve(opts), Observe::default())
        .csvs
        .remove(0)
        .text()
}

#[test]
fn dynamics_matches_the_committed_csv() {
    assert_eq!(
        csv("dynamics", &RunOpts::default()),
        committed("dynamics.csv")
    );
}

#[test]
fn one_core_sweeps_match_their_pin_goldens() {
    let opts = RunOpts {
        seeds: Some(2),
        duration_s: Some(0.1),
        threads: Some(1),
        ..RunOpts::default()
    };
    for name in ["figure5", "figure7", "ablation_tlb"] {
        assert_eq!(
            csv(name, &opts),
            committed(&format!("{name}_pin_golden.csv")),
            "{name} drifted from its pin golden"
        );
    }
}
