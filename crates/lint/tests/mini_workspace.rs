//! `lint_workspace` end to end on a throwaway mini workspace on disk:
//! cross-file H2 and B1 findings fire from the per-file indexes, a
//! callee edit clears them, and stale file-level waivers are pruned.

use std::fs;
use std::path::{Path, PathBuf};

use ehp_lint::{lint_workspace, prune_waivers, LintConfig, Rule};

const FENCED: &str = "\
pub fn hot(xs: &[u64], out: &mut [u64]) {
    // lint:hot-path
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = expand(x);
    }
    // lint:hot-path-end
}
";

const HELPER_ALLOCATING: &str = "\
pub fn expand(x: u64) -> u64 {
    let scratch: Vec<u64> = Vec::new();
    drop(scratch);
    x + 1
}
";

const HELPER_CLEAN: &str = "\
pub fn expand(x: u64) -> u64 {
    x + 1
}
";

const TRUNCATING: &str = "\
pub fn shrink(x: f64) -> f64 {
    x as f32 as f64
}
";

/// B1 caller: channel selector from bits 8–11, bank index delegated to
/// a helper in another file — the cross-file summary carries the lanes.
const B1_CALLER: &str = "\
pub fn place(addr: u64) -> (u64, u64) {
    let chan = (addr >> 8) & 0xF;
    let bank = pick_bank(addr);
    (chan, bank)
}
";

/// Correlated callee: bank from `row % 16` = address bits 10–13,
/// overlapping the caller's channel lanes.
const BANK_CORRELATED: &str = "\
pub fn pick_bank(addr: u64) -> u64 {
    let row = addr >> 10;
    row % 16
}
";

/// Decorrelated callee: the block fold mixes disjoint higher bits into
/// the lane before the modulus.
const BANK_DECORRELATED: &str = "\
pub fn pick_bank(addr: u64) -> u64 {
    let row = addr >> 10;
    let block = row >> 4;
    let mix = block ^ (block >> 5) ^ (block >> 9);
    (row + mix) % 16
}
";

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

fn mini_workspace(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    write(&root, "Cargo.toml", "[workspace]\n");
    write(&root, "crates/demo/src/hot.rs", FENCED);
    write(&root, "crates/demo/src/helper.rs", HELPER_ALLOCATING);
    write(&root, "crates/demo/src/shrink.rs", TRUNCATING);
    root
}

fn cfg(root: &Path) -> LintConfig<'static> {
    LintConfig {
        root: root.to_path_buf(),
        schemas: &[],
        jobs: 1,
    }
}

#[test]
fn cross_file_h2_and_b1_fire_and_clear_with_the_callee() {
    let root = mini_workspace("cross-file");
    write(&root, "crates/demo/src/place.rs", B1_CALLER);
    write(&root, "crates/demo/src/bank.rs", BANK_CORRELATED);
    let b1_lines = |report: &ehp_lint::LintReport| -> Vec<(String, u32)> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CorrelatedSelectors)
            .map(|f| (f.path.clone(), f.line))
            .collect()
    };

    let first = lint_workspace(&cfg(&root)).unwrap();
    assert_eq!(first.files_scanned, 5);
    assert!(
        first.findings.iter().any(|f| f.rule == Rule::HotPathReach),
        "{:?}",
        first.findings
    );
    assert!(first.findings.iter().any(|f| f.rule == Rule::F32Truncation));
    assert_eq!(
        b1_lines(&first),
        vec![("crates/demo/src/place.rs".to_string(), 3)],
        "the correlated callee's summary reaches the caller's selector pair"
    );

    // Clean both callees: the H2 chain and the B1 pair rooted in the
    // *unchanged* callers disappear, and the unrelated D3 stays.
    write(&root, "crates/demo/src/helper.rs", HELPER_CLEAN);
    write(&root, "crates/demo/src/bank.rs", BANK_DECORRELATED);
    let second = lint_workspace(&cfg(&root)).unwrap();
    assert!(
        !second.findings.iter().any(|f| f.rule == Rule::HotPathReach),
        "{:?}",
        second.findings
    );
    assert_eq!(b1_lines(&second), vec![], "{:?}", second.findings);
    assert!(second
        .findings
        .iter()
        .any(|f| f.rule == Rule::F32Truncation));
}

#[test]
fn prune_waivers_drops_stale_entries_and_round_trips() {
    let root = mini_workspace("prune-waivers");
    write(
        &root,
        "lint.waivers",
        "# comment survives the rewrite\n\
         \n\
         f32-truncation crates/demo/src/shrink.rs the oracle needs f32 precision loss\n\
         wall-clock crates/demo/src/hot.rs this site was deleted long ago\n\
         not-even-a-rule weird line kept verbatim\n",
    );
    let report = lint_workspace(&cfg(&root)).unwrap();
    // The wall-clock entry matches nothing: flagged stale, queued for prune.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == Rule::Waiver && f.message.contains("stale waiver")));
    assert_eq!(report.stale_waivers.len(), 1);

    let out = prune_waivers(&root, &report).unwrap();
    assert_eq!((out.kept, out.dropped), (1, 1));
    assert!(out.rewritten);
    let text = fs::read_to_string(root.join("lint.waivers")).unwrap();
    assert!(text.contains("# comment survives"));
    assert!(text.contains("f32-truncation crates/demo/src/shrink.rs"));
    assert!(text.contains("not-even-a-rule weird line"));
    assert!(!text.contains("wall-clock"));

    // Round trip: the pruned file is clean (no stale findings) and a
    // second prune is a no-op that leaves the bytes alone.
    let clean = lint_workspace(&cfg(&root)).unwrap();
    assert!(clean.stale_waivers.is_empty());
    assert!(!clean
        .findings
        .iter()
        .any(|f| f.rule == Rule::Waiver && f.message.contains("stale waiver")));
    let again = prune_waivers(&root, &clean).unwrap();
    assert_eq!((again.kept, again.dropped), (1, 0));
    assert!(!again.rewritten);
    assert_eq!(text, fs::read_to_string(root.join("lint.waivers")).unwrap());
}
