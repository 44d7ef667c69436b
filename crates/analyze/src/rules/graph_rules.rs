//! The call-graph taint rules (`panic-path`, `alloc-path`,
//! `charge-coverage`) plus the `graph-config` validity checks that
//! keep the rule configuration itself from rotting.
//!
//! All three rules share one mechanism: [`crate::graph::build`]
//! extracts function definitions, resolved call edges, and leaf facts;
//! this module BFS-propagates the facts to the functions marked
//! `// analyze::hot_path(<name>)` and reports every fact a hot path
//! can reach. The finding lands on the *fact's* line (the leaf), not
//! the root: that is where the fix or the `analyze::allow` belongs,
//! and one justified leaf neutralises every path through it.
//!
//! `charge-coverage` inverts the direction: for every function
//! reachable from a measured-window root that *touches* a charged
//! structure (see [`crate::graph::CHARGED_TYPES`]), some `cachesim`
//! charge call ([`crate::graph::CHARGE_FNS`]) must be forward-reachable
//! from it — through its own body or its callees. A touch whose
//! function can never reach a charge is an un-costed data-structure
//! access: the D-miss numbers silently lie about it.
//!
//! `graph-config` findings are not suppressible (like `allow-grammar`):
//! they mean the *configuration* is wrong — a required root that no
//! annotation provides, an annotation that attaches to no `fn`, a
//! `rules = "..."` list naming an unknown rule, or a stale
//! `PANIC_FREE_FILES`/crate-list entry pointing at a path that no
//! longer exists. Stale config must fail loudly, not rot silently.

use super::{
    RawFinding, RULE_ALLOC_PATH, RULE_CHARGE_COVERAGE, RULE_GRAPH_CONFIG, RULE_PANIC_PATH,
};
use crate::graph::{CodeGraph, Fact, FactKind, FnId};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// The graph rules a `hot_path` annotation may name in its
/// `rules = "..."` list. An annotation without a list seeds all three.
pub const GRAPH_RULES: &[&str] = &[RULE_PANIC_PATH, RULE_ALLOC_PATH, RULE_CHARGE_COVERAGE];

/// Root names that must exist somewhere in the workspace. If a
/// refactor renames or deletes an annotated function, the build fails
/// here instead of silently analyzing nothing.
pub const REQUIRED_ROOTS: &[&str] = &[
    "engine-batch-loop",
    "smp-event-loop",
    "netstack-rx",
    "oatable-probe",
    "smp-closed-loop",
    "signaling-call-path",
    "workload-dispatch",
];

/// Configuration for the graph rules, split out so tests and fixtures
/// can run with their own root/path lists while `scan_workspace` uses
/// the production [`GraphConfig::default`].
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Root names that must be attached to at least one `fn`.
    pub required_roots: Vec<String>,
    /// `panic-free-library` single-file entries; each must name an
    /// existing scanned file.
    pub panic_free_files: Vec<String>,
    /// `panic-free-library` crate list; each must name a scanned crate.
    pub panic_free_crates: Vec<String>,
    /// `nondeterminism` crate list; each must name a scanned crate.
    pub sim_crates: Vec<String>,
    /// Path substrings other rules scope by (e.g. `rng-draw-budget`
    /// applies to `impair` files); each must match at least one
    /// scanned library file so the scope cannot silently go empty.
    pub path_markers: Vec<String>,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            required_roots: REQUIRED_ROOTS.iter().map(|s| s.to_string()).collect(),
            panic_free_files: super::panic_free::PANIC_FREE_FILES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            panic_free_crates: super::panic_free::PANIC_FREE_CRATES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            sim_crates: super::nondeterminism::SIM_CRATES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            path_markers: vec!["impair".to_string(), "stream".to_string()],
        }
    }
}

/// A graph-level finding: `file` indexes into the scanned file slice,
/// or is `None` for workspace-level configuration errors.
#[derive(Debug, Clone)]
pub struct GraphFinding {
    /// Index into the file slice the graph was built from.
    pub file: Option<usize>,
    /// The finding itself.
    pub raw: RawFinding,
}

fn gf(file: Option<usize>, rule: &'static str, line: usize, message: String) -> GraphFinding {
    GraphFinding {
        file,
        raw: RawFinding { rule, line, message },
    }
}

/// Runs the configuration validity checks (`graph-config`).
pub fn check_config(
    files: &[SourceFile],
    graph: &CodeGraph,
    cfg: &GraphConfig,
) -> Vec<GraphFinding> {
    let mut out = Vec::new();

    // Malformed hot_path annotations.
    for (fi, file) in files.iter().enumerate() {
        for bad in &file.bad_hot_paths {
            out.push(gf(Some(fi), RULE_GRAPH_CONFIG, bad.line, bad.what.clone()));
        }
        // `rules = "..."` lists must name known graph rules.
        for hp in &file.hot_paths {
            for r in &hp.rules {
                if !GRAPH_RULES.contains(&r.as_str()) {
                    out.push(gf(
                        Some(fi),
                        RULE_GRAPH_CONFIG,
                        hp.line,
                        format!(
                            "hot_path `{}` names unknown graph rule `{r}` (known: {})",
                            hp.name,
                            GRAPH_RULES.join(", ")
                        ),
                    ));
                }
            }
        }
    }

    // Annotations that attached to no function.
    for (fi, line, name) in &graph.unattached_roots {
        out.push(gf(
            Some(*fi),
            RULE_GRAPH_CONFIG,
            *line,
            format!(
                "hot_path `{name}` attaches to no library `fn` below it \
                 (deleted, moved, or now test-only?)"
            ),
        ));
    }

    // Required roots must exist.
    let mut attached: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &graph.fns {
        for r in &f.roots {
            *attached.entry(r.name.as_str()).or_default() += 1;
        }
    }
    for req in &cfg.required_roots {
        if !attached.contains_key(req.as_str()) {
            out.push(gf(
                None,
                RULE_GRAPH_CONFIG,
                0,
                format!(
                    "required hot-path root `{req}` is annotated nowhere in the workspace \
                     — re-annotate the function or update REQUIRED_ROOTS"
                ),
            ));
        }
    }

    // Stale file/crate/scope configuration entries.
    let lib_paths: Vec<String> = files
        .iter()
        .map(|f| f.path.to_string_lossy().replace('\\', "/"))
        .collect();
    let crates: Vec<&str> = files.iter().map(|f| f.crate_dir.as_str()).collect();
    for p in &cfg.panic_free_files {
        if !lib_paths.iter().any(|lp| lp == p) {
            out.push(gf(
                None,
                RULE_GRAPH_CONFIG,
                0,
                format!("PANIC_FREE_FILES entry `{p}` matches no scanned file — stale path"),
            ));
        }
    }
    for (list, name) in [
        (&cfg.panic_free_crates, "PANIC_FREE_CRATES"),
        (&cfg.sim_crates, "SIM_CRATES"),
    ] {
        for c in list {
            if !crates.iter().any(|k| k == c) {
                out.push(gf(
                    None,
                    RULE_GRAPH_CONFIG,
                    0,
                    format!("{name} entry `{c}` matches no scanned crate — stale crate name"),
                ));
            }
        }
    }
    for m in &cfg.path_markers {
        if !lib_paths.iter().any(|lp| lp.contains(m.as_str())) {
            out.push(gf(
                None,
                RULE_GRAPH_CONFIG,
                0,
                format!(
                    "scoped-rule path marker `{m}` matches no scanned file — \
                     a path-scoped rule now covers nothing"
                ),
            ));
        }
    }
    out
}

/// Roots seeding `rule`: `(root name, fn)` pairs, name-sorted so
/// finding messages are deterministic.
fn roots_for(graph: &CodeGraph, rule: &str) -> Vec<(String, FnId)> {
    let mut out = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        for hp in &f.roots {
            if hp.rules.is_empty() || hp.rules.iter().any(|r| r == rule) {
                out.push((hp.name.clone(), id));
            }
        }
    }
    out.sort();
    out
}

/// BFS from `root`; returns a parent map over reached fns
/// (`parent[root] == root`).
fn reach_from(graph: &CodeGraph, root: FnId) -> BTreeMap<FnId, FnId> {
    let mut parent = BTreeMap::new();
    parent.insert(root, root);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(f) = queue.pop_front() {
        for &callee in &graph.calls[f] {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                e.insert(f);
                queue.push_back(callee);
            }
        }
    }
    parent
}

/// Reconstructs `root → ... → target` as qualified names, eliding the
/// middle of long chains.
fn path_string(graph: &CodeGraph, parent: &BTreeMap<FnId, FnId>, target: FnId) -> String {
    let mut chain = vec![target];
    let mut cur = target;
    while let Some(&p) = parent.get(&cur) {
        if p == cur {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    let names: Vec<String> = chain.iter().map(|&id| graph.fns[id].qual_name()).collect();
    if names.len() > 7 {
        let head = names[..3].join(" -> ");
        let tail = names[names.len() - 3..].join(" -> ");
        format!("{head} -> ... -> {tail}")
    } else {
        names.join(" -> ")
    }
}

/// For each fn reachable from any root of `rule`, the first root
/// (name-sorted) reaching it and that root's BFS parent map index.
fn reachable_map(
    graph: &CodeGraph,
    rule: &str,
) -> BTreeMap<FnId, (String, BTreeMap<FnId, FnId>)> {
    let mut out: BTreeMap<FnId, (String, BTreeMap<FnId, FnId>)> = BTreeMap::new();
    for (name, root) in roots_for(graph, rule) {
        let parent = reach_from(graph, root);
        for &f in parent.keys() {
            out.entry(f)
                .or_insert_with(|| (name.clone(), parent.clone()));
        }
    }
    out
}

/// Runs `panic-path` and `alloc-path`: every may-panic / may-allocate
/// fact inside a function reachable from a matching root is reported
/// at the fact's line.
pub fn check_taint(graph: &CodeGraph) -> Vec<GraphFinding> {
    let mut out = Vec::new();
    for (rule, kind, verb) in [
        (RULE_PANIC_PATH, FactKind::MayPanic, "may panic"),
        (RULE_ALLOC_PATH, FactKind::MayAlloc, "may allocate"),
    ] {
        let reach = reachable_map(graph, rule);
        for (&f, (root, parent)) in &reach {
            for fact in graph.facts[f].iter().filter(|fa| fa.kind == kind) {
                out.push(gf(
                    Some(graph.fns[f].file),
                    rule,
                    fact.line,
                    format!(
                        "{what} {verb} on hot path `{root}` \
                         (via {path})",
                        what = fact.what,
                        path = path_string(graph, parent, f),
                    ),
                ));
            }
        }
    }
    out
}

/// Runs `charge-coverage`: a function reachable from a
/// `charge-coverage` root that touches a charged structure must be
/// able to reach a cachesim charge call (its own body or a callee's).
pub fn check_charge_coverage(graph: &CodeGraph) -> Vec<GraphFinding> {
    let n = graph.fns.len();
    // Forward fixpoint: can `f` reach a Charge fact?
    let mut charges: Vec<bool> = (0..n)
        .map(|f| graph.facts[f].iter().any(|fa| fa.kind == FactKind::Charge))
        .collect();
    loop {
        let mut changed = false;
        for f in 0..n {
            if !charges[f] && graph.calls[f].iter().any(|&c| charges[c]) {
                charges[f] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let reach = reachable_map(graph, RULE_CHARGE_COVERAGE);
    let mut out = Vec::new();
    for (&f, (root, parent)) in &reach {
        if charges[f] {
            continue;
        }
        let touches: Vec<&Fact> = graph.facts[f]
            .iter()
            .filter(|fa| fa.kind == FactKind::Touch)
            .collect();
        for t in touches {
            out.push(gf(
                Some(graph.fns[f].file),
                RULE_CHARGE_COVERAGE,
                t.line,
                format!(
                    "`{}` touches `{touched}` inside measured window `{root}` \
                     (via {path}) but reaches no cachesim charge \
                     (read_data_probes/write_data_slot/stall) — un-costed access",
                    graph.fns[f].qual_name(),
                    touched = t.what,
                    path = path_string(graph, parent, f),
                ),
            ));
        }
    }
    out
}

/// Runs every graph-level check. Findings are returned unsorted; the
/// driver merges them with per-file findings and applies allows.
pub fn check(files: &[SourceFile], graph: &CodeGraph, cfg: &GraphConfig) -> Vec<GraphFinding> {
    let mut out = check_config(files, graph, cfg);
    out.extend(check_taint(graph));
    out.extend(check_charge_coverage(graph));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::source::FileRole;
    use std::path::PathBuf;

    fn lib(path: &str, crate_dir: &str, text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(path), crate_dir.into(), FileRole::Lib, text)
    }

    /// A config with nothing required, for focused taint tests.
    fn empty_cfg() -> GraphConfig {
        GraphConfig {
            required_roots: vec![],
            panic_free_files: vec![],
            panic_free_crates: vec![],
            sim_crates: vec![],
            path_markers: vec![],
        }
    }

    fn run(texts: &[(&str, &str, &str)], cfg: &GraphConfig) -> Vec<GraphFinding> {
        let files: Vec<SourceFile> = texts.iter().map(|(p, c, t)| lib(p, c, t)).collect();
        let g = graph::build(&files);
        check(&files, &g, cfg)
    }

    fn rules_of(fs: &[GraphFinding]) -> Vec<&str> {
        fs.iter().map(|f| f.raw.rule).collect()
    }

    #[test]
    fn panic_path_propagates_through_calls() {
        let fs = run(
            &[(
                "crates/x/src/lib.rs",
                "x",
                "// analyze::hot_path(loop-root, rules = \"panic-path\")\n\
                 pub fn root(v: &[u64]) -> u64 { middle(v) }\n\
                 fn middle(v: &[u64]) -> u64 { leaf(v) }\n\
                 fn leaf(v: &[u64]) -> u64 { *v.first().unwrap() }\n\
                 pub fn cold(v: &[u64]) -> u64 { *v.last().unwrap() }\n",
            )],
            &empty_cfg(),
        );
        let hits: Vec<_> = fs.iter().filter(|f| f.raw.rule == RULE_PANIC_PATH).collect();
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert_eq!(hits[0].raw.line, 4, "the finding lands on the leaf fact");
        assert!(hits[0].raw.message.contains("loop-root"));
        assert!(hits[0].raw.message.contains("root -> middle -> leaf"));
    }

    #[test]
    fn alloc_path_only_fires_for_its_rule_filter() {
        let fs = run(
            &[(
                "crates/x/src/lib.rs",
                "x",
                "// analyze::hot_path(loop-root, rules = \"panic-path\")\n\
                 pub fn root(out: &mut Vec<u64>) { out.push(1) }\n",
            )],
            &empty_cfg(),
        );
        assert!(
            !rules_of(&fs).contains(&RULE_ALLOC_PATH),
            "root seeds only panic-path, so the push is not reported: {fs:?}"
        );
        let fs = run(
            &[(
                "crates/x/src/lib.rs",
                "x",
                "// analyze::hot_path(loop-root)\n\
                 pub fn root(out: &mut Vec<u64>) { out.push(1) }\n",
            )],
            &empty_cfg(),
        );
        assert!(
            rules_of(&fs).contains(&RULE_ALLOC_PATH),
            "an unfiltered root seeds all rules: {fs:?}"
        );
    }

    #[test]
    fn charge_coverage_flags_uncharged_touch_and_passes_charged() {
        let bad = "\
pub struct OaTable { n: u64 }\n\
impl OaTable {\n    pub fn get(&self) -> u64 { self.n }\n}\n\
pub struct Machine;\n\
impl Machine {\n    pub fn read_data_probes(&mut self, _n: u64) {}\n}\n\
pub struct Sim { t: OaTable, m: Machine }\n\
impl Sim {\n\
    // analyze::hot_path(win, rules = \"charge-coverage\")\n\
    pub fn run(&mut self) -> u64 { self.t.get() }\n\
}\n";
        let fs = run(&[("crates/x/src/lib.rs", "x", bad)], &empty_cfg());
        let hits: Vec<_> = fs
            .iter()
            .filter(|f| f.raw.rule == RULE_CHARGE_COVERAGE)
            .collect();
        assert_eq!(hits.len(), 1, "{fs:?}");
        assert!(hits[0].raw.message.contains("OaTable::get"));

        let good = bad.replace(
            "pub fn run(&mut self) -> u64 { self.t.get() }",
            "pub fn run(&mut self) -> u64 { let v = self.t.get(); self.m.read_data_probes(1); v }",
        );
        let fs = run(&[("crates/x/src/lib.rs", "x", &good)], &empty_cfg());
        assert!(
            !rules_of(&fs).contains(&RULE_CHARGE_COVERAGE),
            "a charge in the same fn covers the touch: {fs:?}"
        );
    }

    #[test]
    fn charge_in_callee_covers_the_touch() {
        let text = "\
pub struct OaTable { n: u64 }\n\
impl OaTable {\n    pub fn get(&self) -> u64 { self.n }\n}\n\
pub struct Machine;\n\
impl Machine {\n    pub fn stall(&mut self, _n: u64) {}\n}\n\
pub struct Sim { t: OaTable, m: Machine }\n\
impl Sim {\n\
    fn cost(&mut self) { self.m.stall(3) }\n\
    // analyze::hot_path(win, rules = \"charge-coverage\")\n\
    pub fn run(&mut self) -> u64 { let v = self.t.get(); self.cost(); v }\n\
}\n";
        let fs = run(&[("crates/x/src/lib.rs", "x", text)], &empty_cfg());
        assert!(
            !rules_of(&fs).contains(&RULE_CHARGE_COVERAGE),
            "charge reached through a callee counts: {fs:?}"
        );
    }

    #[test]
    fn missing_required_root_and_stale_paths_fail_loudly() {
        let cfg = GraphConfig {
            required_roots: vec!["engine-batch-loop".into()],
            panic_free_files: vec!["crates/gone/src/table.rs".into()],
            panic_free_crates: vec!["gone".into()],
            sim_crates: vec!["x".into()],
            path_markers: vec!["impair".into()],
        };
        let fs = run(
            &[("crates/x/src/lib.rs", "x", "pub fn f() {}\n")],
            &cfg,
        );
        let msgs: Vec<&str> = fs
            .iter()
            .filter(|f| f.raw.rule == RULE_GRAPH_CONFIG)
            .map(|f| f.raw.message.as_str())
            .collect();
        assert!(
            msgs.iter().any(|m| m.contains("engine-batch-loop")),
            "missing root reported: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("crates/gone/src/table.rs")),
            "stale file entry reported: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("PANIC_FREE_CRATES entry `gone`")),
            "stale crate entry reported: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("`impair`")),
            "empty scope marker reported: {msgs:?}"
        );
        assert!(
            !msgs.iter().any(|m| m.contains("SIM_CRATES")),
            "crate `x` exists, SIM_CRATES is fine: {msgs:?}"
        );
    }

    #[test]
    fn dangling_annotation_and_unknown_rule_are_config_errors() {
        let fs = run(
            &[(
                "crates/x/src/lib.rs",
                "x",
                "// analyze::hot_path(tail-root)\n\
                 // (no fn follows)\n",
            )],
            &empty_cfg(),
        );
        assert!(
            fs.iter()
                .any(|f| f.raw.rule == RULE_GRAPH_CONFIG && f.raw.message.contains("tail-root")),
            "{fs:?}"
        );

        let fs = run(
            &[(
                "crates/x/src/lib.rs",
                "x",
                "// analyze::hot_path(r, rules = \"no-such-rule\")\n\
                 pub fn f() {}\n",
            )],
            &empty_cfg(),
        );
        assert!(
            fs.iter()
                .any(|f| f.raw.rule == RULE_GRAPH_CONFIG
                    && f.raw.message.contains("no-such-rule")),
            "{fs:?}"
        );
    }
}
