//! The driver's flag contract: every flag an experiment accepts changes
//! what it runs or writes, and every other flag is a usage error
//! (exit 2) — no flag is accepted and then ignored.

use bench::driver::{parse, Target};
use bench::{experiment, Flag, EXPERIMENTS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, not yet existing scratch directory.
fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bench-driver-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every file under `dir`, keyed by path relative to it.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under dir")
                    .display()
                    .to_string();
                out.insert(rel, std::fs::read(&path).expect("read output"));
            }
        }
    }
    out
}

/// Runs `bench args --out <fresh dir>`; returns the exit code and the
/// files written.
fn bench(args: &[&str]) -> (Option<i32>, BTreeMap<String, Vec<u8>>) {
    let dir = scratch();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("spawn bench");
    let written = files(&dir);
    std::fs::remove_dir_all(&dir).ok();
    (out.status.code(), written)
}

/// The files of `written` outside `perf/`.
fn results(written: &BTreeMap<String, Vec<u8>>) -> BTreeMap<&String, &Vec<u8>> {
    written
        .iter()
        .filter(|(k, _)| !k.starts_with("perf"))
        .collect()
}

#[test]
fn every_flag_is_honoured_or_rejected() {
    for e in EXPERIMENTS {
        // The reduced base run: one seed, a short duration, the smoke
        // grid, one worker thread — each where the entry takes it.
        let base_flags = [
            (Flag::Seeds, &["--seeds", "1"][..]),
            (Flag::Duration, &["--duration", "0.05"]),
            (Flag::Smoke, &["--smoke"]),
            (Flag::Threads, &["--threads", "1"]),
        ];
        // The base run with `flag`'s arguments replaced by (or, for a
        // flag not in the base, extended with) `with`.
        let args = |flag: Option<Flag>, with: &[&'static str]| {
            let mut v: Vec<&str> = vec![e.name];
            for (f, a) in base_flags {
                if e.supports(f) {
                    v.extend(if Some(f) == flag { with } else { a });
                }
            }
            if !base_flags.iter().any(|(f, _)| Some(*f) == flag) {
                v.extend(with);
            }
            v
        };
        let (code, base) = bench(&args(None, &[]));
        assert_eq!(code, Some(0), "{}: base run failed", e.name);
        assert!(
            !results(&base).is_empty(),
            "{}: --out received nothing",
            e.name
        );
        for flag in Flag::ALL {
            if !e.supports(flag) {
                let with: &[&str] = if flag.takes_value() { &["2"] } else { &[] };
                let mut a = args(None, &[]);
                a.push(flag.arg());
                a.extend(with);
                let (code, written) = bench(&a);
                assert_eq!(code, Some(2), "{} accepted {}", e.name, flag.arg());
                assert!(
                    written.is_empty(),
                    "{} wrote files on a usage error",
                    e.name
                );
                continue;
            }
            let changed: &[&str] = match flag {
                Flag::Seeds => &["--seeds", "2"],
                Flag::Duration => &["--duration", "0.1"],
                Flag::Threads => &["--threads", "2"],
                Flag::Smoke => &[],
                Flag::Metrics => &["--metrics"],
                Flag::Trace => &["--trace"],
            };
            let (code, written) = bench(&args(Some(flag), changed));
            assert_eq!(code, Some(0), "{} {} failed", e.name, flag.arg());
            let honoured = match flag {
                // The thread count lands in the perf fragment; the
                // results themselves must not move.
                Flag::Threads => written != base && results(&written) == results(&base),
                Flag::Metrics => written.contains_key(&format!("metrics/{}.json", e.name)),
                Flag::Trace => written.contains_key(&format!("trace/{}.json", e.name)),
                Flag::Seeds | Flag::Duration | Flag::Smoke => results(&written) != results(&base),
            };
            assert!(
                honoured,
                "{} accepts {} but it changes nothing",
                e.name,
                flag.arg()
            );
        }
    }
}

#[test]
fn named_contract_violations_are_rejected() {
    for args in [
        &["figure10", "--metrics"][..],
        &["figure13", "--trace"],
        &["table1", "--smoke"],
        &["figure5", "--seeds", "0"],
        &["figure5", "--seeds"],
        &["no_such_experiment"],
        &["goldens", "--smoke"],
        &[],
    ] {
        assert_eq!(bench(args).0, Some(2), "{args:?} must be a usage error");
    }
}

#[test]
fn explicit_seed_count_is_never_overridden() {
    let seeds = |argv: &[&str]| {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let args = parse(&argv).expect("valid command line");
        let Target::One(e) = args.target else {
            panic!("one experiment")
        };
        e.resolve(&args.opts).seeds()
    };
    // 20 used to be both the global default and the value a figure13
    // run silently replaced with its own default.
    assert_eq!(seeds(&["figure13", "--seeds", "20"]), 20);
    assert_eq!(seeds(&["figure13"]), 10);
    assert_eq!(seeds(&["figure13", "--smoke"]), 2);
    assert_eq!(seeds(&["figure13", "--smoke", "--seeds", "20"]), 20);
    assert_eq!(experiment("figure5").map(|e| e.seeds), Some(20));
}
