//! The workspace call graph and the H2 `hot-path-reach` and N1
//! `nondet-taint` passes.
//!
//! `CallGraph` maps function names (and `(owner, name)` pairs for
//! methods) to their defining fn items across every indexed file and
//! resolves every call site once into a callee adjacency. H2, N1 and
//! the abstract interpreter's summary fixpoint share it, and H2, N1 and
//! L3 share one deterministic breadth-first search, `shortest_path`,
//! whose chain becomes a finding's evidence (`via path:line \`name\``
//! hops).
//!
//! Resolution is deliberately conservative about *qualified* names:
//! `Vec::new(..)` only resolves to a workspace `impl Vec` (there is
//! none), never to every `new` in the tree, and `recv.route(..)` with a
//! declaration-typed receiver (`ws: &mut SolverWorkspace`) only resolves
//! within that type — so `SolverWorkspace::route` is not confused with
//! the allocating `Topology::route`. Unresolvable calls (std, closures,
//! trait objects) are skipped: H2 extends H1, it does not replace it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::findings::{Finding, Rule};
use crate::parse::{CallSite, FileIndex, NondetSite};

/// BFS depth cap: chains longer than this are beyond what a reviewer
/// can audit and almost certainly heuristic noise.
const MAX_CHAIN: usize = 8;

/// Sink-root fn names for N1: summary emission and accumulator merge
/// points. Anything these reach must be deterministic — they produce
/// the bytes the bit-identity contract is about.
const SINK_ROOTS: &[&str] = &["to_json", "merge", "snapshot"];

/// Method names ubiquitous on std types (`Option::expect`,
/// `Vec::push`, iterator adapters, ...). A method call with an
/// *unknown* receiver type never fans out to a same-named workspace
/// method for these — otherwise every `.expect("...")` in a fenced
/// region would resolve to e.g. a workspace `ParamKind::expect` and
/// fabricate an allocation chain. Typed receivers (`self`, declaration
/// heuristic, `Type::` qualification) still resolve these names
/// precisely.
const COMMON_STD_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "begin",
    "binary_search",
    "borrow",
    "borrow_mut",
    "chain",
    "chunks",
    "chunks_mut",
    "clear",
    "cmp",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "drain",
    "end",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_or",
    "max",
    "min",
    "next",
    "ok",
    "ok_or",
    "or_else",
    "or_insert_with",
    "parse",
    "pop",
    "position",
    "push",
    "remove",
    "resize",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_at_mut",
    "starts_with",
    "sum",
    "swap",
    "take",
    "trim",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "write",
    "zip",
];

/// A function key: (file index, fn index).
pub(crate) type FnKey = (usize, usize);

/// The workspace call graph: a conservative, deterministic symbol table
/// plus every non-test fn's callees, resolved once and shared by H2, N1
/// and the abstract interpreter's summary fixpoint ([`crate::absint`]).
pub(crate) struct CallGraph<'a> {
    pub(crate) files: &'a [(String, FileIndex)],
    /// name → definitions (test items excluded).
    by_name: BTreeMap<&'a str, Vec<FnKey>>,
    /// (owner, name) → definitions.
    by_owner: BTreeMap<(&'a str, &'a str), Vec<FnKey>>,
    /// `callees[file][fn]`: resolved targets in call-site order, each
    /// once; empty for test fns.
    callees: Vec<Vec<Vec<FnKey>>>,
}

impl<'a> CallGraph<'a> {
    pub(crate) fn build(files: &'a [(String, FileIndex)]) -> CallGraph<'a> {
        let mut graph = CallGraph {
            files,
            by_name: BTreeMap::new(),
            by_owner: BTreeMap::new(),
            callees: Vec::new(),
        };
        for (fi, (_, index)) in files.iter().enumerate() {
            for (gi, f) in index.fns.iter().enumerate().filter(|(_, f)| !f.is_test) {
                graph.by_name.entry(&f.name).or_default().push((fi, gi));
                if let Some(owner) = &f.owner {
                    let defs = graph.by_owner.entry((owner, &f.name)).or_default();
                    defs.push((fi, gi));
                }
            }
        }
        for (fi, (_, index)) in files.iter().enumerate() {
            let mut per_fn = Vec::new();
            for (gi, f) in index.fns.iter().enumerate() {
                let mut out: Vec<FnKey> = Vec::new();
                for call in f.calls.iter().filter(|_| !f.is_test) {
                    for key in graph.resolve(call, fi, (fi, gi)) {
                        if !out.contains(&key) {
                            out.push(key);
                        }
                    }
                }
                per_fn.push(out);
            }
            graph.callees.push(per_fn);
        }
        graph
    }

    /// Resolves one call site made from `caller` (used for `Self::` and
    /// `self.` receivers) in file `file_idx`. Deterministic order.
    pub(crate) fn resolve(&self, call: &CallSite, file_idx: usize, caller: FnKey) -> Vec<FnKey> {
        let caller_owner = self.files[caller.0].1.fns[caller.1].owner.as_deref();
        let owned = |owner: Option<&str>| -> Vec<FnKey> {
            owner
                .and_then(|o| self.by_owner.get(&(o, call.callee.as_str())))
                .cloned()
                .unwrap_or_default()
        };
        if let Some(q) = call.qual.as_deref() {
            // Qualified calls resolve only within the named type —
            // `Vec::new` must not match every workspace `new`.
            return owned(if q == "Self" { caller_owner } else { Some(q) });
        }
        if call.method {
            if let Some(r) = call.recv.as_deref() {
                if r == "self" {
                    return owned(caller_owner);
                }
                // Declaration-typed receiver: resolve within that type
                // only (even when empty — a `HashMap` receiver must not
                // fan out to every same-named workspace method).
                if let Some(ty) = self.files[file_idx].1.decls.declared_type(r) {
                    return owned(Some(ty));
                }
            }
            // Unknown receiver: a common std method name never fans out
            // (it would misattribute std calls to workspace code).
            if COMMON_STD_METHODS.contains(&call.callee.as_str()) {
                return Vec::new();
            }
        }
        // Unknown receiver: every non-test method with this name; bare
        // call: every free function with it.
        let defs = self.by_name.get(call.callee.as_str()).into_iter().flatten();
        defs.copied()
            .filter(|&(fi, gi)| self.files[fi].1.fns[gi].has_self == call.method)
            .collect()
    }

    pub(crate) fn callees(&self, (fi, gi): FnKey) -> &[FnKey] {
        &self.callees[fi][gi]
    }

    /// One evidence hop: `path:line \`Owner::name\``.
    fn hop(&self, (fi, gi): FnKey) -> String {
        let (path, index) = &self.files[fi];
        format!("{path}:{} `{}`", index.fns[gi].line, fn_label(index, gi))
    }
}

/// Deterministic breadth-first search: the shortest path, as the node
/// list `start..=goal` of at most `max_len` nodes, from one of `starts`
/// to a node `goal` accepts. Ties break by start order, then by `succ`
/// order. Shared by H2, N1 and L3.
pub(crate) fn shortest_path<N, I>(
    starts: &[N],
    max_len: usize,
    succ: impl Fn(N) -> I,
    goal: impl Fn(N) -> bool,
) -> Option<Vec<N>>
where
    N: Copy + Ord,
    I: IntoIterator<Item = N>,
{
    // Parent links double as the visited set; a start is its own parent.
    let mut parent: BTreeMap<N, N> = BTreeMap::new();
    let mut queue: VecDeque<(N, usize)> = VecDeque::new();
    let mut found = None;
    for &s in starts {
        if parent.contains_key(&s) {
            continue;
        }
        parent.insert(s, s);
        if goal(s) {
            found = Some(s);
            break;
        }
        queue.push_back((s, 1));
    }
    while found.is_none() {
        let Some((n, len)) = queue.pop_front() else {
            break;
        };
        if len >= max_len {
            continue;
        }
        for m in succ(n) {
            if parent.contains_key(&m) {
                continue;
            }
            parent.insert(m, n);
            if goal(m) {
                found = Some(m);
                break;
            }
            queue.push_back((m, len + 1));
        }
    }
    let mut n = found?;
    let mut path = vec![n];
    while parent[&n] != n {
        n = parent[&n];
        path.push(n);
    }
    path.reverse();
    Some(path)
}

/// Display name for a function: `Owner::name` or `name`.
fn fn_label(index: &FileIndex, gi: usize) -> String {
    let f = &index.fns[gi];
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Runs the H2 `hot-path-reach` pass (files sorted by path for
/// deterministic output). Emits one finding per fenced call site whose
/// callee transitively allocates, carrying the shortest call chain as
/// evidence.
pub(crate) fn check_reachable_allocs(graph: &CallGraph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, (path, index)) in graph.files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for call in f.calls.iter().filter(|c| c.in_fence) {
                let starts = graph.resolve(call, fi, (fi, gi));
                let Some(chain) = shortest_path(
                    &starts,
                    MAX_CHAIN,
                    |k| graph.callees(k).iter().copied(),
                    |(tfi, tgi)| !graph.files[tfi].1.fns[tgi].allocs.is_empty(),
                ) else {
                    continue;
                };
                let (tfi, tgi) = chain[chain.len() - 1];
                let (tpath, tindex) = &graph.files[tfi];
                let alloc = &tindex.fns[tgi].allocs[0];
                let mut evidence: Vec<String> = chain.iter().map(|&k| graph.hop(k)).collect();
                evidence.push(format!("{tpath}:{} {}", alloc.line, alloc.what));
                findings.push(
                    Finding::new(
                        Rule::HotPathReach,
                        path,
                        call.line,
                        format!(
                            "`{}` is called inside a `lint:hot-path` fence but reaches an allocation ({} in `{}`)",
                            call.callee,
                            alloc.what,
                            fn_label(tindex, tgi),
                        ),
                    )
                    .with_chain(evidence),
                );
            }
        }
    }
    findings
}

/// Runs the N1 `nondet-taint` pass (files sorted by path for
/// deterministic output).
///
/// Taint seeds are the parser's [`NondetSite`]s (plus hash-order sites
/// injected by the hash-iter rule), minus sources covered by a
/// *verified* `lint:order-invisible` fence. Seeds propagate backward
/// over the call graph (caller of tainted is tainted); every non-test
/// sink root — a fn named `to_json`/`merge`/`snapshot` — that ends up
/// tainted gets one finding carrying the shortest source chain as
/// H2-style `via` evidence.
pub(crate) fn check_nondet_taint(graph: &CallGraph<'_>) -> Vec<Finding> {
    let files = graph.files;
    // Active (un-suppressed) sources per fn.
    let mut sources: BTreeMap<FnKey, Vec<&NondetSite>> = BTreeMap::new();
    for (fi, (_, index)) in files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let active: Vec<&NondetSite> = f
                .nondet
                .iter()
                .filter(|n| !index.nondet_suppressed(gi, n.line))
                .collect();
            if !active.is_empty() {
                sources.insert((fi, gi), active);
            }
        }
    }
    if sources.is_empty() {
        return Vec::new();
    }

    let mut rev: BTreeMap<FnKey, Vec<FnKey>> = BTreeMap::new();
    for (fi, (_, index)) in files.iter().enumerate() {
        for gi in 0..index.fns.len() {
            for &o in graph.callees((fi, gi)) {
                rev.entry(o).or_default().push((fi, gi));
            }
        }
    }

    // Backward propagation: tainted = can reach a source.
    let mut tainted: BTreeSet<FnKey> = sources.keys().copied().collect();
    let mut work: VecDeque<FnKey> = tainted.iter().copied().collect();
    while let Some(k) = work.pop_front() {
        for &c in rev.get(&k).into_iter().flatten() {
            if tainted.insert(c) {
                work.push_back(c);
            }
        }
    }

    let mut findings = Vec::new();
    for (fi, (path, index)) in files.iter().enumerate() {
        for (gi, f) in index.fns.iter().enumerate() {
            let root = (fi, gi);
            if f.is_test || !SINK_ROOTS.contains(&f.name.as_str()) || !tainted.contains(&root) {
                continue;
            }
            // The root itself is hop 0, so the cap allows MAX_CHAIN
            // hops below it.
            let Some(chain) = shortest_path(
                &[root],
                MAX_CHAIN + 1,
                |k| {
                    graph
                        .callees(k)
                        .iter()
                        .copied()
                        .filter(|n| tainted.contains(n))
                },
                |k| sources.contains_key(&k),
            ) else {
                continue;
            };
            let last = chain[chain.len() - 1];
            let site = sources[&last][0];
            let mut evidence: Vec<String> = chain[1..].iter().map(|&k| graph.hop(k)).collect();
            evidence.push(format!("{}:{} {}", files[last.0].0, site.line, site.what));
            findings.push(
                Finding::new(
                    Rule::NondetTaint,
                    path,
                    f.line,
                    format!(
                        "`{}` emits summary/merged state but transitively reaches nondeterminism source {} ({}); make the value deterministic, fold in fixed order behind a `lint:order-invisible` fence, or waive with `// lint:allow(nondet-taint) <reason>`",
                        fn_label(index, gi),
                        site.what,
                        site.kind.name(),
                    ),
                )
                .with_chain(evidence),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::tokenizer::tokenize;

    fn index_all(sources: &[(&str, &str)]) -> Vec<(String, FileIndex)> {
        sources
            .iter()
            .map(|(p, s)| ((*p).to_string(), parse_file(p, &tokenize(s)).0))
            .collect()
    }

    #[test]
    fn two_hop_chain_is_reported_with_evidence() {
        let fenced = "\
fn hot(xs: &[u64], out: &mut [u64]) {
    // lint:hot-path
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = expand(x);
    }
    // lint:hot-path-end
}
";
        let helper = "\
pub fn expand(x: u64) -> u64 {
    widen(x) + 1
}
pub fn widen(x: u64) -> u64 {
    let scratch: Vec<u64> = Vec::new();
    scratch.len() as u64 + x
}
";
        let files = index_all(&[
            ("crates/x/src/fenced.rs", fenced),
            ("crates/x/src/helper.rs", helper),
        ]);
        let findings = check_reachable_allocs(&CallGraph::build(&files));
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, Rule::HotPathReach);
        assert_eq!(f.path, "crates/x/src/fenced.rs");
        assert_eq!(f.line, 4);
        assert_eq!(
            f.chain,
            vec![
                "crates/x/src/helper.rs:1 `expand`".to_string(),
                "crates/x/src/helper.rs:4 `widen`".to_string(),
                "crates/x/src/helper.rs:5 `Vec::new()`".to_string(),
            ]
        );
    }

    #[test]
    fn clean_helpers_do_not_fire() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
fn hot(x: u64) -> u64 {
    // lint:hot-path
    let y = double(x);
    // lint:hot-path-end
    y
}
fn double(x: u64) -> u64 { x * 2 }
",
        )]);
        assert!(check_reachable_allocs(&CallGraph::build(&files)).is_empty());
    }

    #[test]
    fn typed_receiver_does_not_cross_types() {
        // `ws.route(..)` must resolve to `Workspace::route` (clean), not
        // to the allocating `Topology::route`.
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
struct Workspace { routes: Vec<u32> }
impl Workspace {
    fn route(&self, i: usize) -> u32 { self.routes[i] }
}
struct Topology;
impl Topology {
    fn route(&self, i: usize) -> Vec<u32> { (0..i as u32).collect() }
}
fn hot(ws: &Workspace) -> u32 {
    // lint:hot-path
    let r = ws.route(3);
    // lint:hot-path-end
    r
}
",
        )]);
        assert!(check_reachable_allocs(&CallGraph::build(&files)).is_empty());
    }

    #[test]
    fn self_and_qualified_calls_resolve_within_owner() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
struct S;
impl S {
    fn hot(&self) {
        // lint:hot-path
        self.step();
        // lint:hot-path-end
    }
    fn step(&self) { S::scratch(); }
    fn scratch() { let v = Vec::new(); drop(v); }
}
",
        )]);
        let findings = check_reachable_allocs(&CallGraph::build(&files));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].chain.len(), 3);
        assert!(findings[0].chain[0].ends_with("`S::step`"));
        assert!(findings[0].chain[1].ends_with("`S::scratch`"));
    }

    #[test]
    fn nondet_taint_reports_two_hop_chain() {
        let source_file = "\
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
pub fn shard_plan(n: usize) -> usize {
    worker_count() + n
}
";
        let sink_file = "\
pub struct Summary { total: u64 }
impl Summary {
    pub fn to_json(&self) -> u64 {
        shard_plan(3) as u64 + self.total
    }
}
";
        let files = index_all(&[
            ("crates/x/src/sink.rs", sink_file),
            ("crates/x/src/source.rs", source_file),
        ]);
        let findings = check_nondet_taint(&CallGraph::build(&files));
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, Rule::NondetTaint);
        assert_eq!(f.path, "crates/x/src/sink.rs");
        assert_eq!(f.line, 3);
        assert_eq!(
            f.chain,
            vec![
                "crates/x/src/source.rs:4 `shard_plan`".to_string(),
                "crates/x/src/source.rs:1 `worker_count`".to_string(),
                "crates/x/src/source.rs:2 `available_parallelism()`".to_string(),
            ]
        );
    }

    #[test]
    fn honored_order_fence_suppresses_taint() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
pub struct Tally { parts: Vec<u64> }
impl Tally {
    pub fn merge(&self) -> u64 {
        // lint:order-invisible jobs only caps the worker count
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut acc = jobs.min(4) as u64 * 0;
        for p in &self.parts { acc += *p; }
        acc
    }
}
",
        )]);
        assert!(check_nondet_taint(&CallGraph::build(&files)).is_empty());
    }

    #[test]
    fn unfenced_source_in_sink_root_fires_directly() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
pub struct Tally { total: u64 }
impl Tally {
    pub fn merge(&self) -> u64 {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.total + jobs as u64
    }
}
",
        )]);
        let findings = check_nondet_taint(&CallGraph::build(&files));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert_eq!(
            findings[0].chain,
            vec!["crates/x/src/a.rs:4 `available_parallelism()`".to_string()]
        );
    }

    #[test]
    fn shortest_path_is_shortest_deterministic_and_capped() {
        // 0 → 1 → 2 → 9 (three hops) and 0 → 3 → 9 (two), plus a tie:
        // 4 → {5, 6} → 9 resolves by successor order.
        let adj: BTreeMap<u32, Vec<u32>> = BTreeMap::from([
            (0, vec![1, 3]),
            (1, vec![2]),
            (2, vec![9]),
            (3, vec![9]),
            (4, vec![6, 5]),
            (5, vec![9]),
            (6, vec![9]),
        ]);
        let succ = |n: u32| adj.get(&n).cloned().unwrap_or_default();
        let to_nine = |n: u32| n == 9;
        assert_eq!(
            shortest_path(&[0], MAX_CHAIN, succ, to_nine),
            Some(vec![0, 3, 9])
        );
        assert_eq!(
            shortest_path(&[4], MAX_CHAIN, succ, to_nine),
            Some(vec![4, 6, 9])
        );
        // Start order breaks ties between equally short starts.
        assert_eq!(
            shortest_path(&[6, 5], MAX_CHAIN, succ, to_nine),
            Some(vec![6, 9])
        );
        assert_eq!(shortest_path(&[9], MAX_CHAIN, succ, to_nine), Some(vec![9]));

        // A 9-node line 0 → 1 → .. → 8 is one node past the cap.
        let line = |n: u32| (n < 8).then_some(n + 1);
        let chain = shortest_path(&[0], MAX_CHAIN, line, |n| n == 7).expect("8 nodes fit");
        assert_eq!(chain.len(), MAX_CHAIN);
        assert_eq!(shortest_path(&[0], MAX_CHAIN, line, |n| n == 8), None);
    }

    #[test]
    fn recursion_terminates_and_test_fns_are_invisible() {
        let files = index_all(&[(
            "crates/x/src/a.rs",
            "\
fn hot() {
    // lint:hot-path
    ping();
    // lint:hot-path-end
}
fn ping() { pong(); }
fn pong() { ping(); }
#[cfg(test)]
mod tests {
    fn ping() { let v: Vec<u8> = Vec::new(); }
}
",
        )]);
        assert!(check_reachable_allocs(&CallGraph::build(&files)).is_empty());
    }
}
