//! Per-rule fixture tests: every known-bad fixture MUST be flagged by
//! its rule family (and only where expected), and the clean fixture
//! must pass the strictest profile with zero diagnostics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use antalloc_audit::config::Config;
use antalloc_audit::rules;
use antalloc_audit::walk::FileInfo;
use antalloc_audit::{audit_source, Diagnostic};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read(name: &str) -> String {
    std::fs::read_to_string(fixtures().join(name)).unwrap()
}

/// A config that treats the file under test as maximally audited.
fn strict_config() -> Config {
    Config {
        sim_path_crates: vec!["foo".into()],
        relaxed_crates: vec![],
        cast_audit_files: vec!["crates/foo/src/hot.rs".into()],
        panic_path_files: vec!["crates/foo/src/hot.rs".into()],
        stream_registry: "crates/foo/src/stream.rs".into(),
        ant_index_ceiling: 0xFFFF_FFFF_0000_0000,
        checkpoint_source: "checkpoint.rs".into(),
        checkpoint_doc: "CHECKPOINTS.md".into(),
        stream_table_docs: vec!["ARCHITECTURE.md".into()],
        unsafe_allowlist: BTreeMap::new(),
    }
}

/// The strictest per-file profile: sim-path crate, cast-audited,
/// panic-path, crate root.
fn strict_info() -> FileInfo {
    FileInfo {
        rel: "crates/foo/src/hot.rs".into(),
        crate_name: "foo".into(),
        relaxed: false,
        is_crate_root: true,
    }
}

fn registry() -> Vec<rules::streams::ReservedConst> {
    let text = "pub mod reserved {\n    pub const ENGINE: u64 = u64::MAX;\n    \
                pub const NOISE: u64 = u64::MAX - 1;\n}\n";
    let mut diags = Vec::new();
    let consts = rules::streams::check_registry(text, &strict_config(), &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
    consts
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&str> {
    let mut rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn bad_nondet_is_flagged() {
    let mut info = strict_info();
    info.is_crate_root = false; // isolate the nondet family
    let diags = audit_source(&info, &read("bad_nondet.rs"), &strict_config(), &registry());
    assert_eq!(
        rules_fired(&diags),
        [
            "nondet-collection",
            "nondet-env",
            "nondet-thread",
            "nondet-time"
        ],
        "{diags:?}"
    );
    // The PROSE string-literal line and the #[cfg(test)] module must
    // not be flagged: everything sits above the test module.
    let text = read("bad_nondet.rs");
    let cfg_test_line = text
        .lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap()
        + 1;
    let prose_line = text.lines().position(|l| l.contains("PROSE")).unwrap() + 1;
    assert!(diags.iter().all(|d| d.line < cfg_test_line), "{diags:?}");
    assert!(diags.iter().all(|d| d.line != prose_line), "{diags:?}");
    // A `thread::Builder` spawn is as raw as `thread::spawn`.
    let builder_line = text
        .lines()
        .position(|l| l.contains("Builder::new"))
        .unwrap()
        + 1;
    assert!(
        diags
            .iter()
            .any(|d| d.line == builder_line && d.rule == "nondet-thread"),
        "{diags:?}"
    );
}

#[test]
fn bad_streams_is_flagged() {
    let mut info = strict_info();
    info.is_crate_root = false;
    // Not a cast-audit file: the legitimate `ant as u64` ant-index
    // expression below must only be judged by the stream rules.
    info.rel = "crates/foo/src/streams.rs".into();
    let text = read("bad_streams.rs");
    let diags = audit_source(&info, &text, &strict_config(), &registry());
    let literals = diags.iter().filter(|d| d.rule == "stream-literal").count();
    let unknowns = diags
        .iter()
        .filter(|d| d.rule == "stream-unknown-const")
        .count();
    assert_eq!(literals, 2, "decimal + hex literal ids: {diags:?}");
    assert_eq!(unknowns, 1, "reserved::BOGUS: {diags:?}");
    // The allowed shapes (ant-index expression, registered constant)
    // must not fire.
    let fine_line = text
        .lines()
        .position(|l| l.contains("fine_expression"))
        .unwrap()
        + 1;
    assert!(diags.iter().all(|d| d.line < fine_line), "{diags:?}");
    assert_eq!(diags.len(), literals + unknowns);
}

#[test]
fn bad_registry_is_flagged() {
    let mut diags = Vec::new();
    rules::streams::check_registry(&read("bad_registry.rs"), &strict_config(), &mut diags);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "stream-registry"));
    assert!(diags.iter().any(|d| d.message.contains("share id")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("below the ant-index ceiling")));
}

#[test]
fn bad_cast_is_flagged() {
    let mut info = strict_info();
    info.is_crate_root = false;
    let text = read("bad_cast.rs");
    let diags = audit_source(&info, &text, &strict_config(), &registry());
    assert_eq!(rules_fired(&diags), ["cast"], "{diags:?}");
    assert_eq!(
        diags.len(),
        2,
        "truncating + lossy, not idiom/pragma: {diags:?}"
    );
    let idiom_line = text.lines().position(|l| l.contains("count_ones")).unwrap() + 1;
    let pragma_target = text.lines().position(|l| l.contains("n as u64")).unwrap() + 1;
    assert!(diags
        .iter()
        .all(|d| d.line != idiom_line && d.line != pragma_target));
}

#[test]
fn bad_hygiene_is_flagged() {
    let diags = audit_source(
        &strict_info(),
        &read("bad_hygiene.rs"),
        &strict_config(),
        &registry(),
    );
    assert_eq!(
        rules_fired(&diags),
        ["forbid-unsafe", "panic-path"],
        "{diags:?}"
    );
    let panics = diags.iter().filter(|d| d.rule == "panic-path").count();
    assert_eq!(
        panics, 4,
        "unwrap + expect + panic! + todo!, not the excused/test ones"
    );
}

#[test]
fn bad_consistency_is_flagged() {
    let mut diags = Vec::new();
    rules::consistency::check(
        &fixtures().join("bad_consistency"),
        &strict_config(),
        &registry(),
        &mut diags,
    );
    let versions = diags.iter().filter(|d| d.rule == "doc-version").count();
    let tables = diags
        .iter()
        .filter(|d| d.rule == "doc-stream-table")
        .count();
    assert_eq!(
        versions, 2,
        "prose marker + missing table column: {diags:?}"
    );
    assert_eq!(tables, 1, "missing NOISE row: {diags:?}");
}

#[test]
fn clean_fixture_passes_the_strictest_profile() {
    let diags = audit_source(
        &strict_info(),
        &read("clean.rs"),
        &strict_config(),
        &registry(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn pragma_hygiene() {
    let mut info = strict_info();
    info.is_crate_root = false;
    let cfg = strict_config();
    let reg = registry();

    // A pragma that suppresses nothing rots and must be flagged.
    let diags = audit_source(
        &info,
        "// audit:allow(cast): stale\nlet x = 1;\n",
        &cfg,
        &reg,
    );
    assert_eq!(rules_fired(&diags), ["unused-pragma"], "{diags:?}");

    // Unknown rule names are typos, not suppressions.
    let diags = audit_source(
        &info,
        "// audit:allow(bogus-rule): x\nlet x = 1;\n",
        &cfg,
        &reg,
    );
    assert!(diags.iter().any(|d| d.rule == "bad-pragma"), "{diags:?}");

    // A reason is mandatory.
    let diags = audit_source(
        &info,
        "let x = n as u32; // audit:allow(cast)\n",
        &cfg,
        &reg,
    );
    assert!(diags.iter().any(|d| d.rule == "bad-pragma"), "{diags:?}");
}
