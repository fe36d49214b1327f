//! Nondeterminism sources forbidden in sim-path crates.
//!
//! Anything whose behavior varies across runs, machines, or thread
//! schedules breaks the bit-identity contract if it reaches a
//! simulation decision: default-hasher collections iterate in a
//! per-process-random order, wall clocks and environment variables
//! differ between hosts, and a raw `thread::spawn` or
//! `thread::Builder` spawn escapes the engine's deterministic
//! partitioning (scoped spawns through `std::thread::scope` are fine). Test modules and relaxed
//! crates (tests/benches/examples/shims) are exempt.

use super::find_word;
use crate::config::Config;
use crate::lexer::Lexed;
use crate::walk::FileInfo;
use crate::Emitter;

const PATTERNS: &[(&str, &str, &str)] = &[
    (
        "HashMap",
        "nondet-collection",
        "default-hasher `HashMap` iterates in arbitrary order — use `BTreeMap` (or a seeded hasher behind a pragma)",
    ),
    (
        "HashSet",
        "nondet-collection",
        "default-hasher `HashSet` iterates in arbitrary order — use `BTreeSet` (or a seeded hasher behind a pragma)",
    ),
    (
        "Instant::now",
        "nondet-time",
        "wall-clock reads are nondeterministic — simulation state must advance on rounds, not time",
    ),
    (
        "SystemTime",
        "nondet-time",
        "wall-clock reads are nondeterministic — simulation state must advance on rounds, not time",
    ),
    (
        "env::var",
        "nondet-env",
        "environment reads make a run depend on the host — thread configuration through `SimConfig`",
    ),
    (
        "env::args",
        "nondet-env",
        "process arguments make a run depend on the host — thread configuration through `SimConfig`",
    ),
    (
        "thread::spawn",
        "nondet-thread",
        "raw thread spawns escape the engine's deterministic partitioning — use the scoped worker pool",
    ),
    (
        "thread::Builder",
        "nondet-thread",
        "raw thread spawns escape the engine's deterministic partitioning — use the scoped worker pool",
    ),
];

/// Scans one file for forbidden nondeterminism sources.
pub fn check(info: &FileInfo, lexed: &Lexed, cfg: &Config, emitter: &mut Emitter<'_>) {
    if info.relaxed || !cfg.sim_path_crates.contains(&info.crate_name) {
        return;
    }
    for (i, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, rule, msg) in PATTERNS {
            if !find_word(&line.code, pat).is_empty() {
                emitter.emit(rule, i + 1, format!("`{pat}`: {msg}"));
            }
        }
    }
}
