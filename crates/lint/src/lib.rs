//! `ehp-lint`: the in-repo determinism & hot-path static analyzer
//! (DESIGN.md §10–§11).
//!
//! The simulator's headline guarantee — byte-identical `run_summary.json`
//! for a given seed, regardless of thread count — is carried by coding
//! invariants that `rustc` cannot check: no hash-order iteration feeding
//! results, no wall-clock reads in sim code, no f32 truncation in
//! accumulator paths, no allocation in (or reachable from) the fenced
//! hot paths, no shared mutable captures in worker closures, seeds
//! traceable to a scenario or named constant, and scenario specs that
//! match their experiment's parameter schema. This crate checks them,
//! offline, with its own lightweight tokenizer and item parser (the
//! same zero-dependency philosophy as `ehp_sim_core::json`).
//!
//! | rule              | code | invariant                                        |
//! |-------------------|------|--------------------------------------------------|
//! | `hash-iter`       | D1   | no `HashMap`/`HashSet` iteration in sim crates   |
//! | `wall-clock`      | D2   | no `Instant::now`/`SystemTime` outside bench     |
//! | `f32-truncation`  | D3   | f64 end-to-end in accumulator paths              |
//! | `seed-discipline` | D4   | seeds derive from config/constants, not literals |
//! | `hot-path-alloc`  | H1   | no allocation inside `// lint:hot-path` fences   |
//! | `hot-path-reach`  | H2   | no allocation reachable through fenced calls     |
//! | `thread-capture`  | R1   | no shared mutable capture in spawn closures      |
//! | `nondet-taint`    | N1   | no nondeterminism reaches summary/merge sinks    |
//! | `lock-discipline` | L1   | no fenced/nested/same-statement lock acquisition |
//! | `spawn-merge`     | L2   | spawn-stored sync state drains deterministically |
//! | `lock-order`      | L3   | no cycles in the lock acquisition-order graph    |
//! | `correlated-selectors` | B1 | placement selectors use disjoint address lanes |
//! | `lossy-narrowing` | B2   | selectors keep enough source bits for their range |
//! | `unit-mixing`     | U1   | no additive arithmetic across units of measure   |
//! | `scenario-schema` | S1   | `scenarios/*.json` match experiment schemas      |
//!
//! Each file is tokenized and walked once: [`parse::parse_file`] builds
//! the [`FileIndex`] (fn items, calls, allocation sites, bindings,
//! fences, lock and spawn sites, one declaration map) that the
//! single-file rules D1–D4, H1, R1, L1, L2 and U1 read. The cross-file
//! rules H2, N1, B1/B2 and L3 then share one resolved call graph and one
//! shortest-chain search ([`callgraph`], with the [`absint`] lane
//! summaries on top). Every run re-analyzes every file: there is no
//! incremental cache, because parsing and rewriting one cost more than
//! re-tokenizing the whole tree (DESIGN.md §11). The per-file work fans
//! out across threads ([`LintConfig::jobs`]) and merges by file index,
//! so the report is byte-identical across serial and parallel runs.
//!
//! Entry point: [`lint_workspace`]. The `ehp lint` CLI subcommand (in
//! `ehp-harness`, which owns the experiment registry and therefore the
//! schemas) is a thin wrapper around it.

pub mod absint;
pub mod callgraph;
pub mod findings;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod schema;
pub mod tokenizer;
pub mod waiver;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use findings::{Finding, Rule};
pub use parse::FileIndex;
pub use schema::{ExperimentSchema, ParamKind, ParamSpec};

/// Name of the file-level waiver file at the workspace root.
pub const WAIVER_FILE: &str = "lint.waivers";

/// What to lint and against which schemas.
#[derive(Debug)]
pub struct LintConfig<'a> {
    /// Workspace root (the directory holding `crates/` and `scenarios/`).
    pub root: PathBuf,
    /// Experiment parameter schemas for S1 (from the harness registry).
    pub schemas: &'a [ExperimentSchema],
    /// Worker threads for the per-file analysis:
    /// `1` = serial, `0` = one per core, `n` = exactly `n`. The merge
    /// is by file index either way, so the report bytes never depend
    /// on this.
    pub jobs: usize,
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, deterministically ordered; waived ones carry their
    /// reason and do not fail the build.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of scenario specs validated.
    pub scenarios_scanned: usize,
    /// `(rule, path)` of file-level waiver entries that matched no
    /// finding this run — the input to [`prune_waivers`]. Not part of
    /// the serialized report (the stale findings themselves are).
    pub stale_waivers: Vec<(Rule, String)>,
}

impl LintReport {
    /// Findings not covered by a waiver — these fail the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Count of unwaived findings.
    #[must_use]
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    /// Count of waived findings.
    #[must_use]
    pub fn waived_count(&self) -> usize {
        self.findings.len() - self.unwaived_count()
    }

    /// Machine-readable report (stable key order via `Json`'s BTreeMap).
    #[must_use]
    pub fn to_json(&self) -> ehp_sim_core::json::Json {
        use ehp_sim_core::json::{Json, ToJson};
        Json::object([
            ("files_scanned", Json::from(self.files_scanned as u64)),
            (
                "scenarios_scanned",
                Json::from(self.scenarios_scanned as u64),
            ),
            ("unwaived", Json::from(self.unwaived_count() as u64)),
            ("waived", Json::from(self.waived_count() as u64)),
            (
                "findings",
                Json::array(self.findings.iter().map(ToJson::to_json)),
            ),
        ])
    }
}

/// Finds the workspace root by walking up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints a set of in-memory sources: every single-file rule plus the
/// cross-file passes, with inline waivers applied. The pure core of
/// [`lint_workspace`], used directly by tests.
#[must_use]
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Finding> {
    let mut findings = analyze_sources(sources, 1);
    findings::sort_dedup(&mut findings);
    findings
}

/// Runs the single-file rules on `jobs` threads ([`LintConfig::jobs`]),
/// then the cross-file passes (H2 allocation reachability, N1 nondet
/// taint, B1/B2 bit-provenance, L3 lock-order) over one shared call
/// graph, applying each root file's inline waivers. Each worker owns a
/// contiguous slice of result slots and the merge walks files in index
/// order, so the findings never depend on `jobs`.
fn analyze_sources<S: AsRef<str> + Sync>(sources: &[(S, S)], jobs: usize) -> Vec<Finding> {
    let jobs = match jobs {
        // lint:order-invisible worker count only partitions the file list; the merge below folds results in file-index order
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(sources.len())
    .max(1);
    let mut analyses: Vec<Option<rules::Analysis>> = Vec::new();
    analyses.resize_with(sources.len(), || None);
    let analyze = |slots: &mut [Option<rules::Analysis>], files: &[(S, S)]| {
        for (slot, (rel, text)) in slots.iter_mut().zip(files) {
            *slot = Some(rules::analyze(rel.as_ref(), text.as_ref()));
        }
    };
    if jobs <= 1 {
        analyze(&mut analyses, sources);
    } else {
        let chunk = sources.len().div_ceil(jobs);
        std::thread::scope(|scope| {
            for (schunk, achunk) in sources.chunks(chunk).zip(analyses.chunks_mut(chunk)) {
                scope.spawn(move || analyze(achunk, schunk));
            }
        });
    }

    let mut findings = Vec::new();
    let mut indexes: Vec<(String, FileIndex)> = Vec::new();
    for ((rel, _), a) in sources.iter().zip(analyses) {
        let a = a.expect("every analysis slot is filled");
        findings.extend(a.findings);
        indexes.push((rel.as_ref().to_string(), a.index));
    }
    let graph = callgraph::CallGraph::build(&indexes);
    let mut cross = callgraph::check_reachable_allocs(&graph);
    cross.append(&mut callgraph::check_nondet_taint(&graph));
    cross.append(&mut absint::check_lanes(&graph));
    cross.append(&mut absint::check_lock_order(&indexes));
    for f in &mut cross {
        if let Some((_, index)) = indexes.iter().find(|(p, _)| *p == f.path) {
            waiver::apply_inline(std::slice::from_mut(f), &index.waivers);
        }
    }
    findings.append(&mut cross);
    findings
}

/// Lints every `crates/*/src/**/*.rs` file and every `scenarios/*.json`
/// under `config.root`, applies inline and file-level waivers, and
/// returns the deterministic report.
///
/// # Errors
/// Propagates I/O errors from walking the tree or reading files.
pub fn lint_workspace(config: &LintConfig) -> io::Result<LintReport> {
    let mut report = LintReport::default();

    // Source files: crates/*/src/**/*.rs, crate and file order sorted so
    // the report (and the call-graph walk) is byte-stable.
    let mut rs_files: Vec<PathBuf> = Vec::new();
    for krate in sorted_entries(&config.root.join("crates"))? {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut rs_files)?;
        }
    }
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &rs_files {
        sources.push((rel_path(&config.root, path), fs::read_to_string(path)?));
    }

    report.findings = analyze_sources(&sources, config.jobs);
    report.files_scanned = sources.len();

    // Scenario specs.
    let scen_dir = config.root.join("scenarios");
    if scen_dir.is_dir() {
        for path in sorted_entries(&scen_dir)? {
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let rel = rel_path(&config.root, &path);
            let text = fs::read_to_string(&path)?;
            report
                .findings
                .append(&mut schema::validate_scenario(&rel, &text, config.schemas));
            report.scenarios_scanned += 1;
        }
    }

    // File-level waivers; stale entries are findings so the file can't rot.
    let waiver_path = config.root.join(WAIVER_FILE);
    if waiver_path.is_file() {
        let text = fs::read_to_string(&waiver_path)?;
        let (waivers, mut errs) = waiver::parse_waiver_file(WAIVER_FILE, &text);
        report.findings.append(&mut errs);
        for idx in waiver::apply_file(&mut report.findings, &waivers) {
            report
                .stale_waivers
                .push((waivers[idx].rule, waivers[idx].path.clone()));
            report.findings.push(Finding::new(
                Rule::Waiver,
                WAIVER_FILE,
                0,
                format!(
                    "stale waiver: `{} {}` matches no finding — delete it",
                    waivers[idx].rule.name(),
                    waivers[idx].path
                ),
            ));
        }
    }

    findings::sort_dedup(&mut report.findings);
    Ok(report)
}

/// Outcome of a [`prune_waivers`] rewrite.
#[derive(Debug, Default)]
pub struct PruneOutcome {
    /// Parsed waiver entries still matching a finding (kept).
    pub kept: usize,
    /// Stale entries removed.
    pub dropped: usize,
    /// Whether the file was rewritten (only when something dropped).
    pub rewritten: bool,
}

/// Rewrites the workspace `lint.waivers`, dropping the entries `report`
/// found stale. Comments, blank lines, and malformed lines survive
/// verbatim; the file is only touched when at least one entry drops.
///
/// # Errors
/// Propagates I/O errors reading or rewriting the waiver file.
pub fn prune_waivers(root: &Path, report: &LintReport) -> io::Result<PruneOutcome> {
    let path = root.join(WAIVER_FILE);
    let mut outcome = PruneOutcome::default();
    if !path.is_file() {
        return Ok(outcome);
    }
    let text = fs::read_to_string(&path)?;
    let mut out = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        let mut stale = false;
        if !trimmed.is_empty() && !trimmed.starts_with('#') {
            let mut parts = trimmed.splitn(3, char::is_whitespace);
            if let (Some(rule_s), Some(path_s)) = (parts.next(), parts.next()) {
                if let Some(rule) = Rule::from_name(rule_s) {
                    if report
                        .stale_waivers
                        .iter()
                        .any(|(r, p)| *r == rule && p == path_s)
                    {
                        stale = true;
                    } else {
                        outcome.kept += 1;
                    }
                }
            }
        }
        if stale {
            outcome.dropped += 1;
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    if outcome.dropped > 0 {
        fs::write(&path, out)?;
        outcome.rewritten = true;
    }
    Ok(outcome)
}

/// Directory entries sorted by name (empty if the directory is missing).
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
