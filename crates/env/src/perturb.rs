//! Initial configurations and mid-run perturbations.
//!
//! Theorem 3.1 holds "for an arbitrary initial allocation at time 0";
//! the self-stabilization experiments exercise exactly that, plus the
//! population changes (§6) the algorithms are claimed to survive.

use antalloc_rng::{uniform_index, AntRng};

use crate::assignment::Assignment;
use crate::colony::ColonyState;

/// How the colony is configured at time 0.
#[derive(Clone, Debug, PartialEq)]
pub enum InitialConfig {
    /// Every ant idle (the natural cold start).
    AllIdle,
    /// Every ant piled on one task — the worst overload start.
    AllOnTask(usize),
    /// Each ant independently uniform over `{idle, 1..k}`.
    UniformRandom,
    /// Exactly demand-satisfying: tasks filled to demand in ant order,
    /// the rest idle. Useful as a "converged" control.
    Saturated,
    /// Demand plus a flat surplus: task `j` is filled to
    /// `d(j) + extra`. Places the colony inside (or just above) an
    /// algorithm's stable parking band — the starting point the
    /// steady-state experiments need, since a deficit of exactly zero
    /// sits in the grey zone where feedback is a coin flip.
    SaturatedPlus {
        /// Extra workers per task beyond the demand.
        extra: u64,
    },
    /// Anti-aligned: task `j` is filled to the demand of task `k−1−j`
    /// (as far as the population allows) — a structured adversarial
    /// start used by the self-stabilization benches.
    Inverted,
}

impl InitialConfig {
    /// Applies this configuration to a fresh colony.
    pub fn apply(&self, colony: &mut ColonyState, rng: &mut AntRng) {
        let n = colony.num_ants();
        let k = colony.num_tasks();
        // Reset to idle first so configs compose from a known state.
        for i in 0..n {
            colony.apply(i, Assignment::Idle);
        }
        match self {
            InitialConfig::AllIdle => {}
            InitialConfig::AllOnTask(j) => {
                assert!(*j < k, "task index out of range");
                for i in 0..n {
                    colony.apply(i, Assignment::Task(*j as u32));
                }
            }
            InitialConfig::UniformRandom => {
                for i in 0..n {
                    let pick = uniform_index(rng, k + 1);
                    let next = if pick == k {
                        Assignment::Idle
                    } else {
                        Assignment::Task(pick as u32)
                    };
                    colony.apply(i, next);
                }
            }
            InitialConfig::Saturated | InitialConfig::SaturatedPlus { .. } => {
                let extra = match self {
                    InitialConfig::SaturatedPlus { extra } => *extra,
                    _ => 0,
                };
                let demands: Vec<u64> = colony.demands().as_slice().to_vec();
                let mut ant = 0usize;
                for (j, &d) in demands.iter().enumerate() {
                    for _ in 0..d + extra {
                        if ant >= n {
                            return;
                        }
                        colony.apply(ant, Assignment::Task(j as u32));
                        ant += 1;
                    }
                }
            }
            InitialConfig::Inverted => {
                let demands: Vec<u64> = colony.demands().as_slice().to_vec();
                let mut ant = 0usize;
                for j in 0..k {
                    let want = demands[k - 1 - j];
                    for _ in 0..want {
                        if ant >= n {
                            return;
                        }
                        colony.apply(ant, Assignment::Task(j as u32));
                        ant += 1;
                    }
                }
            }
        }
    }
}

/// A mid-run shock to the colony.
#[derive(Clone, Debug, PartialEq)]
pub enum Perturbation {
    /// Kill `count` ants chosen uniformly at random.
    KillRandom {
        /// Number of ants to remove.
        count: usize,
    },
    /// Spawn `count` new idle ants.
    Spawn {
        /// Number of ants to add.
        count: usize,
    },
    /// Re-draw every ant's assignment uniformly over `{idle, 1..k}`
    /// (memory of controllers is *not* touched — that is the point:
    /// the environment moved under the algorithm's feet).
    Scramble,
    /// Force every ant onto one task.
    StampedeTo(usize),
}

impl Perturbation {
    /// Applies the perturbation to the colony.
    ///
    /// Returns a kill's victims in kill order, each as the id it had
    /// when it was swap-removed (the colony's last ant took that id, or
    /// the victim was the last ant): the engine must mirror every one of
    /// these removals, in this order, in its per-ant state. Other
    /// perturbations return no victims.
    pub fn apply(&self, colony: &mut ColonyState, rng: &mut AntRng) -> Vec<usize> {
        match self {
            Perturbation::KillRandom { count } => {
                let mut victims = Vec::with_capacity(*count);
                for _ in 0..*count {
                    let n = colony.num_ants();
                    if n <= 1 {
                        break;
                    }
                    let victim = uniform_index(rng, n);
                    colony.kill_ant(victim);
                    victims.push(victim);
                }
                victims
            }
            Perturbation::Spawn { count } => {
                for _ in 0..*count {
                    colony.spawn_ant();
                }
                Vec::new()
            }
            Perturbation::Scramble => {
                let n = colony.num_ants();
                let k = colony.num_tasks();
                for i in 0..n {
                    let pick = uniform_index(rng, k + 1);
                    let next = if pick == k {
                        Assignment::Idle
                    } else {
                        Assignment::Task(pick as u32)
                    };
                    colony.apply(i, next);
                }
                Vec::new()
            }
            Perturbation::StampedeTo(j) => {
                assert!(*j < colony.num_tasks());
                for i in 0..colony.num_ants() {
                    colony.apply(i, Assignment::Task(*j as u32));
                }
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandVector;
    use antalloc_rng::AntRng;

    fn colony() -> ColonyState {
        ColonyState::new(100, DemandVector::new(vec![20, 30]))
    }

    #[test]
    fn initial_configs_are_consistent() {
        let mut rng = AntRng::seed_from_u64(1);
        for config in [
            InitialConfig::AllIdle,
            InitialConfig::AllOnTask(1),
            InitialConfig::UniformRandom,
            InitialConfig::Saturated,
            InitialConfig::SaturatedPlus { extra: 3 },
            InitialConfig::Inverted,
        ] {
            let mut c = colony();
            config.apply(&mut c, &mut rng);
            assert!(c.recount_consistent(), "{config:?}");
            assert_eq!(c.num_ants(), 100);
        }
    }

    #[test]
    fn saturated_hits_demands_exactly() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut c = colony();
        InitialConfig::Saturated.apply(&mut c, &mut rng);
        assert_eq!(c.load(0), 20);
        assert_eq!(c.load(1), 30);
        assert_eq!(c.instant_regret(), 0);
    }

    #[test]
    fn saturated_plus_overfills_uniformly() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut c = colony();
        InitialConfig::SaturatedPlus { extra: 5 }.apply(&mut c, &mut rng);
        assert_eq!(c.load(0), 25);
        assert_eq!(c.load(1), 35);
        assert_eq!(c.instant_regret(), 10);
        assert!(c.recount_consistent());
        // Population-limited: a huge surplus stops at n.
        let mut c = colony();
        InitialConfig::SaturatedPlus { extra: 1000 }.apply(&mut c, &mut rng);
        assert_eq!(c.idle_count(), 0);
        assert!(c.recount_consistent());
    }

    #[test]
    fn inverted_crosses_demands() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut c = colony();
        InitialConfig::Inverted.apply(&mut c, &mut rng);
        // Task 0 gets demand of task 1 (30) and vice versa.
        assert_eq!(c.load(0), 30);
        assert_eq!(c.load(1), 20);
        assert_eq!(c.instant_regret(), 20);
    }

    #[test]
    fn all_on_task_overloads() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut c = colony();
        InitialConfig::AllOnTask(0).apply(&mut c, &mut rng);
        assert_eq!(c.load(0), 100);
        assert_eq!(c.deficit(0), -80);
    }

    #[test]
    fn kills_shrink_population_and_report_swaps() {
        let mut rng = AntRng::seed_from_u64(2);
        let mut c = colony();
        InitialConfig::Saturated.apply(&mut c, &mut rng);
        let victims = Perturbation::KillRandom { count: 40 }.apply(&mut c, &mut rng);
        assert_eq!(c.num_ants(), 60);
        assert!(c.recount_consistent());
        // One victim per kill, each a live id at its kill: the k-th
        // removal happened in a colony of 100 - k ants.
        assert_eq!(victims.len(), 40);
        for (k, victim) in victims.into_iter().enumerate() {
            assert!(victim < 100 - k);
        }
    }

    #[test]
    fn spawn_grows_idle() {
        let mut rng = AntRng::seed_from_u64(3);
        let mut c = colony();
        Perturbation::Spawn { count: 5 }.apply(&mut c, &mut rng);
        assert_eq!(c.num_ants(), 105);
        assert_eq!(c.idle_count(), 105);
    }

    #[test]
    fn scramble_and_stampede() {
        let mut rng = AntRng::seed_from_u64(4);
        let mut c = colony();
        Perturbation::Scramble.apply(&mut c, &mut rng);
        assert!(c.recount_consistent());
        // With 100 ants over 3 states, not everything stays idle.
        assert!(c.idle_count() < 100);
        Perturbation::StampedeTo(1).apply(&mut c, &mut rng);
        assert_eq!(c.load(1), 100);
        assert_eq!(c.idle_count(), 0);
    }
}
