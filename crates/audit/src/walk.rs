//! Workspace file discovery and per-file audit profiles.

use std::path::{Path, PathBuf};

use crate::config::Config;

/// How a file is classified for rule selection.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Crate the file belongs to (`core`, `shims/proptest`, `tests`, …).
    pub crate_name: String,
    /// Relaxed profile: test/bench/example/shim code. Path rules
    /// (nondeterminism, streams, casts, panics) are skipped; crate-root
    /// hygiene still applies.
    pub relaxed: bool,
    /// True for `*/src/lib.rs` and `*/src/main.rs`.
    pub is_crate_root: bool,
}

impl FileInfo {
    /// Classifies a workspace-relative path under `cfg`.
    pub fn classify(rel: &str, cfg: &Config) -> FileInfo {
        let crate_name = if let Some(rest) = rel.strip_prefix("crates/shims/") {
            let name = rest.split('/').next().unwrap_or("");
            format!("shims/{name}")
        } else if let Some(rest) = rel.strip_prefix("crates/") {
            rest.split('/').next().unwrap_or("").to_string()
        } else {
            rel.split('/').next().unwrap_or("").to_string()
        };
        let relaxed = crate_name.starts_with("shims/")
            || cfg.relaxed_crates.contains(&crate_name)
            || rel.contains("/tests/")
            || rel.contains("/benches/");
        let is_crate_root = rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs");
        FileInfo {
            rel: rel.to_string(),
            crate_name,
            relaxed,
            is_crate_root,
        }
    }
}

/// Collects every workspace `.rs` file under `crates/`, `examples/` and
/// `tests/`, skipping build output and test fixtures (fixtures are
/// deliberately-bad inputs for the analyzer's own tests).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "examples", "tests"] {
        collect(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
