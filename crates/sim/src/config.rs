//! Simulation configuration and controller construction.

use std::sync::Arc;

use antalloc_core::{
    AlgorithmAnt, AntBank, AntParams, AnyController, ControllerBank, ExactGreedy, ExactGreedyBank,
    ExactGreedyParams, FsmBank, FsmSpec, PreciseAdversarial, PreciseAdversarialBank,
    PreciseAdversarialParams, PreciseSigmoid, PreciseSigmoidBank, PreciseSigmoidParams,
    ProportionalBank, ProportionalController, ProportionalParams, TableFsm, Trivial,
};
use antalloc_env::{ArenaConfig, InitialConfig, Timeline};
use antalloc_noise::NoiseModel;
use antalloc_rng::{reserved, StreamSeeder};

use crate::engine::SyncEngine;
use crate::sequential::SequentialEngine;

/// Which algorithm every ant runs (plus its parameters).
///
/// A *spec* rather than a prototype instance so checkpoints can encode
/// it compactly and engines can rebuild controllers for spawned ants.
#[derive(Clone, Debug, PartialEq)]
pub enum ControllerSpec {
    /// §4 Algorithm Ant.
    Ant(AntParams),
    /// Algorithm Ant with desynchronized phases: ant `i` runs its
    /// two-round phase at offset `i mod 2`, so at any instant half the
    /// colony is first-sampling while the other half decides. This is
    /// §6's "less synchronization" open problem in its most basic form;
    /// `exp_open_desync` measures the cost.
    AntDesync(AntParams),
    /// §5 Algorithm Precise Sigmoid.
    PreciseSigmoid(PreciseSigmoidParams),
    /// Appendix C Algorithm Precise Adversarial.
    PreciseAdversarial(PreciseAdversarialParams),
    /// Appendix D trivial algorithm.
    Trivial,
    /// Exact-feedback baseline.
    ExactGreedy(ExactGreedyParams),
    /// Proportional-control rival: a gain/deadband threshold controller
    /// from the engineering-control family (join or quit with
    /// probability `gain` once a deficit signal persists past the
    /// deadband), racing the paper's algorithms under identical noise.
    Proportional(ProportionalParams),
    /// Single-task hysteresis FSM of the given depth; `lazy` makes the
    /// switching edges fire with that probability instead of 1.
    Hysteresis {
        /// Consecutive contrary signals required before switching.
        depth: u16,
        /// Optional switching probability (lazy machines).
        lazy: Option<f64>,
    },
    /// A heterogeneous colony: each ant runs one of the weighted
    /// sub-specs, racing the algorithms head-to-head *inside one
    /// colony*.
    ///
    /// Ant counts per sub-spec are exact largest-remainder quotas of the
    /// weights; which ant runs which sub-spec is a deterministic seeded
    /// shuffle (derived from the master seed via the reserved `MIX`
    /// stream), so mixed runs are as reproducible as homogeneous ones.
    /// Sub-specs may not themselves be `Mix`, weights must be positive
    /// and finite, and the list must be non-empty — all enforced by the
    /// scenario validation as typed [`crate::ConfigError`]s.
    Mix(Vec<(f64, ControllerSpec)>),
}

impl ControllerSpec {
    /// Builds one per-ant controller for a colony with `num_tasks` tasks
    /// — the reference form of what [`ControllerSpec::build_bank`]
    /// builds for every ant (engines only build banks).
    ///
    /// # Panics
    /// For `Mix`: a heterogeneous colony has no single controller;
    /// engines build one bank per sub-spec (validation guarantees they
    /// never reach this).
    pub fn build(&self, num_tasks: usize) -> AnyController {
        match self {
            ControllerSpec::Ant(p) => AlgorithmAnt::new(num_tasks, *p).into(),
            // A lone desync build gets offset 0; build_bank staggers.
            ControllerSpec::AntDesync(p) => AlgorithmAnt::new(num_tasks, *p).into(),
            ControllerSpec::PreciseSigmoid(p) => PreciseSigmoid::new(num_tasks, *p).into(),
            ControllerSpec::PreciseAdversarial(p) => PreciseAdversarial::new(num_tasks, *p).into(),
            ControllerSpec::Trivial => Trivial::new(num_tasks).into(),
            ControllerSpec::ExactGreedy(p) => ExactGreedy::new(num_tasks, *p).into(),
            ControllerSpec::Proportional(p) => ProportionalController::new(num_tasks, *p).into(),
            ControllerSpec::Hysteresis { depth, lazy } => {
                TableFsm::new(Arc::new(Self::hysteresis_spec(*depth, *lazy))).into()
            }
            ControllerSpec::Mix(_) => panic!("Mix has no single controller; build banks"),
        }
    }

    /// Builds one homogeneous bank for the ants with global ids `ids`.
    ///
    /// Every ant starts as [`ControllerSpec::build`] would, except that
    /// `AntDesync` staggers phase offsets by **global** ant id (so a
    /// desynchronized sub-population stays half-and-half however the
    /// mix interleaves it); hysteresis machines share one transition
    /// table per bank. `Trivial` runs as an exact-greedy bank with
    /// [`ExactGreedyParams::TRIVIAL`].
    ///
    /// # Panics
    /// For `Mix`: banks are built per sub-spec.
    pub fn build_bank(&self, num_tasks: usize, ids: &[u32]) -> ControllerBank {
        // An empty bank of the spec's layout, filled by `rebuild_bank`.
        let k = num_tasks;
        let mut bank = match self {
            ControllerSpec::Ant(p) | ControllerSpec::AntDesync(p) => {
                ControllerBank::Ant(AntBank::new(k, *p, 0))
            }
            ControllerSpec::PreciseSigmoid(p) => {
                ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(k, *p, 0))
            }
            ControllerSpec::PreciseAdversarial(p) => {
                ControllerBank::PreciseAdversarial(PreciseAdversarialBank::new(k, *p, 0))
            }
            ControllerSpec::Trivial => {
                ControllerBank::ExactGreedy(ExactGreedyBank::new(k, ExactGreedyParams::TRIVIAL, 0))
            }
            ControllerSpec::ExactGreedy(p) => {
                ControllerBank::ExactGreedy(ExactGreedyBank::new(k, *p, 0))
            }
            ControllerSpec::Proportional(p) => {
                ControllerBank::Proportional(ProportionalBank::new(k, *p, 0))
            }
            ControllerSpec::Hysteresis { depth, lazy } => ControllerBank::Table(FsmBank::new(
                Arc::new(Self::hysteresis_spec(*depth, *lazy)),
                0,
            )),
            ControllerSpec::Mix(_) => panic!("Mix builds one bank per sub-spec"),
        };
        self.rebuild_bank(num_tasks, ids, &mut bank);
        bank
    }

    /// Rebuilds `bank` in place to the state [`ControllerSpec::build_bank`]
    /// would produce for `ids`, reusing its allocations when the bank is
    /// already of the matching kind (the engine-reuse fast path for
    /// sweeps). On a kind mismatch the bank is rebuilt from scratch.
    ///
    /// # Panics
    /// For `Mix`: banks are rebuilt per sub-spec.
    pub fn rebuild_bank(&self, num_tasks: usize, ids: &[u32], bank: &mut ControllerBank) {
        let n = ids.len();
        match (self, &mut *bank) {
            (ControllerSpec::Ant(p), ControllerBank::Ant(b)) => b.reinit(num_tasks, *p, n),
            (ControllerSpec::AntDesync(p), ControllerBank::Ant(b)) => {
                b.reinit(num_tasks, *p, n);
                b.stagger(ids);
            }
            (ControllerSpec::PreciseSigmoid(p), ControllerBank::PreciseSigmoid(b)) => {
                b.reinit(num_tasks, *p, n);
            }
            (ControllerSpec::PreciseAdversarial(p), ControllerBank::PreciseAdversarial(b)) => {
                b.reinit(num_tasks, *p, n);
            }
            (ControllerSpec::Trivial, ControllerBank::ExactGreedy(b)) => {
                b.reinit(num_tasks, ExactGreedyParams::TRIVIAL, n);
            }
            (ControllerSpec::ExactGreedy(p), ControllerBank::ExactGreedy(b)) => {
                b.reinit(num_tasks, *p, n);
            }
            (ControllerSpec::Proportional(p), ControllerBank::Proportional(b)) => {
                b.reinit(num_tasks, *p, n);
            }
            (ControllerSpec::Hysteresis { depth, lazy }, ControllerBank::Table(b)) => {
                b.reinit(Arc::new(Self::hysteresis_spec(*depth, *lazy)), n);
            }
            (ControllerSpec::Mix(_), _) => panic!("Mix rebuilds one bank per sub-spec"),
            // Kind changed between jobs: fall back to a fresh build.
            (spec, slot) => *slot = spec.build_bank(num_tasks, ids),
        }
    }

    fn hysteresis_spec(depth: u16, lazy: Option<f64>) -> FsmSpec {
        match lazy {
            None => FsmSpec::hysteresis(depth),
            Some(p) => FsmSpec::lazy_hysteresis(depth, p),
        }
    }

    /// The phase length in rounds — the granularity at which the step
    /// probabilities repeat (checkpoints are exact at every round). For
    /// `Mix` this is
    /// the least common multiple of the sub-specs' phase lengths
    /// (saturating at `u64::MAX` for pathological combinations).
    #[allow(clippy::only_used_in_recursion)] // `num_tasks` is API surface
    pub fn phase_len(&self, num_tasks: usize) -> u64 {
        match self {
            ControllerSpec::Ant(_) | ControllerSpec::AntDesync(_) => 2,
            ControllerSpec::PreciseSigmoid(p) => p.phase_len(),
            ControllerSpec::PreciseAdversarial(p) => p.phase_len(),
            ControllerSpec::Trivial
            | ControllerSpec::ExactGreedy(_)
            | ControllerSpec::Proportional(_)
            | ControllerSpec::Hysteresis { .. } => 1,
            ControllerSpec::Mix(parts) => parts
                .iter()
                .map(|(_, spec)| spec.phase_len(num_tasks))
                .fold(1u64, lcm),
        }
    }

    /// The weighted sub-specs of a mix (`None` for homogeneous specs).
    pub fn mix_parts(&self) -> Option<&[(f64, ControllerSpec)]> {
        match self {
            ControllerSpec::Mix(parts) => Some(parts),
            _ => None,
        }
    }
}

/// Least common multiple, saturating at `u64::MAX`.
fn lcm(a: u64, b: u64) -> u64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    if a == 0 || b == 0 {
        return a.max(b).max(1);
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Everything needed to reproduce a run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of ants `n`.
    pub n: usize,
    /// Task demands `d(j)`.
    pub demands: Vec<u64>,
    /// The feedback generator in force at round 1 (timeline `set-noise`
    /// events may switch it mid-run).
    pub noise: NoiseModel,
    /// The algorithm every ant runs.
    pub controller: ControllerSpec,
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Scripted mid-run events: demand steps, population shocks,
    /// noise-regime switches (defaults to empty — a static
    /// environment).
    pub timeline: Timeline,
    /// Initial configuration (defaults to all-idle).
    pub initial: InitialConfig,
    /// Optional spatial arena: tasks pinned to sites, demand sensed
    /// locally, idle ants wandering between sites (defaults to `None` —
    /// the paper's well-mixed colony). A single-site arena is
    /// bit-identical to `None`.
    pub arena: Option<ArenaConfig>,
}

impl SimConfig {
    /// Builds the synchronous engine after structural validation.
    ///
    /// # Panics
    /// If the config is structurally invalid; prefer
    /// [`SimConfig::try_build`] (or constructing through
    /// [`crate::ScenarioBuilder`], which validates up front).
    pub fn build(&self) -> SyncEngine {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Builds the synchronous engine, reporting invalid configs as
    /// [`crate::ConfigError`] instead of panicking.
    pub fn try_build(&self) -> Result<SyncEngine, crate::ConfigError> {
        self.validate_structure()?;
        Ok(SyncEngine::new(self))
    }

    /// Builds the sequential-model engine (Appendix D.1) after the same
    /// structural validation as [`SimConfig::build`].
    ///
    /// # Panics
    /// If the config is structurally invalid; prefer
    /// [`SimConfig::try_build_sequential`].
    pub fn build_sequential(&self) -> SequentialEngine {
        self.try_build_sequential()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Builds the sequential-model engine, reporting invalid configs as
    /// [`crate::ConfigError`].
    pub fn try_build_sequential(&self) -> Result<SequentialEngine, crate::ConfigError> {
        self.validate_structure()?;
        if self.arena.is_some() {
            // The sequential model activates one ant per round against
            // live loads; there is no round-wise sensing pass to hang a
            // spatial arena on.
            return Err(crate::ConfigError::Arena(
                "the sequential model does not support spatial arenas".into(),
            ));
        }
        Ok(SequentialEngine {
            engine: SyncEngine::new(self),
            scheduler_rng: StreamSeeder::new(self.seed).stream(reserved::ENGINE),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_core::Controller as _;
    use antalloc_env::{Assignment, Event};

    #[test]
    fn build_constructs_each_variant() {
        for spec in [
            ControllerSpec::Ant(AntParams::default()),
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.03, 0.5)),
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.03, 0.5)),
            ControllerSpec::Trivial,
            ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ControllerSpec::Proportional(ProportionalParams::default()),
        ] {
            let c = spec.build(3);
            assert_eq!(c.assignment(), Assignment::Idle, "{spec:?}");
            assert!(spec.phase_len(3) >= 1);
        }
        // Hysteresis state 0 is W_0 (working), so a fresh machine starts
        // assigned to its single task.
        let fsm = ControllerSpec::Hysteresis {
            depth: 2,
            lazy: None,
        }
        .build(1);
        assert_eq!(fsm.assignment(), Assignment::Task(0));
    }

    #[test]
    fn both_engines_reject_the_same_invalid_timeline() {
        // `build_sequential` must route through the identical validated
        // path as `build`: a timeline the sync engine rejects can never
        // silently start sequentially.
        let cfg = SimConfig {
            n: 10,
            demands: vec![4, 4],
            noise: NoiseModel::Exact,
            controller: ControllerSpec::Trivial,
            seed: 1,
            timeline: Timeline::new().at(3, Event::SetDemands(vec![9])),
            initial: InitialConfig::AllIdle,
            arena: None,
        };
        let sync_err = cfg.try_build().err().expect("sync engine must reject");
        let seq_err = cfg
            .try_build_sequential()
            .err()
            .expect("sequential engine must reject");
        assert_eq!(sync_err, seq_err);
        assert!(matches!(sync_err, crate::ConfigError::Timeline(_)));
    }

    #[test]
    fn phase_lengths() {
        assert_eq!(ControllerSpec::Ant(AntParams::default()).phase_len(2), 2);
        assert_eq!(
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.03, 0.5)).phase_len(2),
            82
        );
        assert_eq!(ControllerSpec::Trivial.phase_len(2), 1);
        // Mix: LCM of the parts. lcm(2, 82) = 82; lcm(2, 1) = 2.
        assert_eq!(
            ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (
                    1.0,
                    ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.03, 0.5))
                ),
            ])
            .phase_len(2),
            82
        );
        assert_eq!(
            ControllerSpec::Mix(vec![
                (3.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, ControllerSpec::Trivial),
            ])
            .phase_len(2),
            2
        );
    }
}
