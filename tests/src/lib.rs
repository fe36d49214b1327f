//! Shared fixtures for the integration-test package.
//!
//! The actual integration tests live in `tests/tests/*.rs` and span
//! multiple workspace crates; this library holds what they share so
//! each test file stays focused on one claim: the scenario catalogue
//! and generator ([`scenarios`]) and the contract oracle
//! ([`contract::check_contract`]).

#![forbid(unsafe_code)]

pub mod contract;
pub mod scenarios;

use antalloc_sim::RunOutcome;

/// A fresh on-disk store root unique to this test process and `tag`
/// (tests run in parallel).
pub fn scratch_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("antalloc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Panics unless two sweeps' outcomes agree job for job: coordinates,
/// regret summaries and final state.
pub fn assert_same_outcomes(label: &str, a: &[RunOutcome], b: &[RunOutcome]) {
    assert_eq!(a.len(), b.len(), "{label}: outcome counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{label}");
        assert_eq!(x.seed, y.seed, "{label}");
        assert_eq!(x.params, y.params, "{label}");
        assert_eq!(x.rounds, y.rounds, "{label}");
        assert_eq!(
            x.summary.total_regret(),
            y.summary.total_regret(),
            "{label}: job {} diverged",
            x.index
        );
        assert_eq!(x.summary.rounds(), y.summary.rounds(), "{label}");
        assert_eq!(
            x.summary.max_instant_regret(),
            y.summary.max_instant_regret(),
            "{label}"
        );
        assert_eq!(x.final_regret, y.final_regret, "{label}");
        assert_eq!(x.final_loads, y.final_loads, "{label}");
    }
}

/// A standard small colony used across integration tests: big enough for
/// concentration to visibly kick in, small enough to run in CI seconds.
pub struct SmallColony {
    /// Number of ants.
    pub n: usize,
    /// Task demands.
    pub demands: Vec<u64>,
    /// Sigmoid steepness.
    pub lambda: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SmallColony {
    fn default() -> Self {
        Self {
            n: 4000,
            demands: vec![400, 700, 300],
            lambda: 0.15,
            seed: 0xA17,
        }
    }
}

impl SmallColony {
    /// Starts a scenario builder preloaded with this fixture (sigmoid
    /// noise at the fixture's λ); tests chain their controller onto it.
    pub fn scenario(&self) -> antalloc_sim::ScenarioBuilder {
        antalloc_sim::SimConfig::builder(self.n, self.demands.clone())
            .noise(antalloc_noise::NoiseModel::Sigmoid {
                lambda: self.lambda,
            })
            .seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_colony_satisfies_slack() {
        let c = SmallColony::default();
        let sum: u64 = c.demands.iter().sum();
        assert!(sum <= c.n as u64 / 2);
    }
}
