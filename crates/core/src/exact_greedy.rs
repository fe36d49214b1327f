//! Exact-feedback baseline in the style of Cornejo et al. \[11\].
//!
//! The paper builds on \[11\], where feedback is noise-free (`lack` iff
//! `W ≤ d`) and a simple probabilistic join/leave protocol converges to
//! within one ant of every demand. \[11\]'s full algorithm is not restated
//! in this paper, so we implement a faithful-in-spirit *damped greedy*:
//! idle ants join a uniformly random lacking task with probability
//! `p_join`; workers on an overloaded task leave with probability
//! `p_leave`. What the experiments need from this baseline is exactly
//! what it has: it settles into a narrow band under exact feedback, and
//! it falls apart under sigmoid noise, where near `Δ = 0` half the
//! colony sees phantom overloads every round (bench
//! `exp_baseline_noise_fragility`).

use antalloc_env::Assignment;
use antalloc_noise::FeedbackProbe;
use antalloc_rng::{uniform_index, Bernoulli};

use crate::controller::Controller;

/// Parameters for [`ExactGreedy`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactGreedyParams {
    /// Probability an idle ant acts on a `lack` signal this round.
    pub p_join: f64,
    /// Probability a worker acts on an `overload` signal this round.
    pub p_leave: f64,
}

impl ExactGreedyParams {
    /// Acts on every signal: the Appendix D trivial algorithm
    /// ([`crate::Trivial`]). A probability-1 coin draws nothing, so an
    /// exact-greedy ant with these parameters consumes the same draws
    /// as a trivial ant and decides alike.
    pub const TRIVIAL: Self = Self {
        p_join: 1.0,
        p_leave: 1.0,
    };
}

impl Default for ExactGreedyParams {
    /// Damping that converges quickly under exact feedback without large
    /// overshoot at the colony sizes used in the experiments.
    fn default() -> Self {
        Self {
            p_join: 0.5,
            p_leave: 0.25,
        }
    }
}

/// The exact-feedback baseline controller for one ant.
#[derive(Clone, Debug)]
pub struct ExactGreedy {
    params: ExactGreedyParams,
    join: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    assignment: Assignment,
    lacking: Vec<bool>,
}

impl ExactGreedy {
    /// A controller for a colony with `num_tasks` tasks.
    pub fn new(num_tasks: usize, params: ExactGreedyParams) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            params,
            join: Bernoulli::new(params.p_join),
            leave: Bernoulli::new(params.p_leave),
            num_tasks,
            assignment: Assignment::Idle,
            lacking: vec![false; num_tasks],
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &ExactGreedyParams {
        &self.params
    }

    /// Number of tasks this controller observes.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }
}

impl Controller for ExactGreedy {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        match self.assignment {
            Assignment::Idle => {
                let mut count = 0usize;
                for j in 0..self.num_tasks {
                    let lack = probe.sample(j).is_lack();
                    self.lacking[j] = lack;
                    count += usize::from(lack);
                }
                if count > 0 && self.join.sample(probe.rng()) {
                    let pick = uniform_index(probe.rng(), count);
                    let j = self
                        .lacking
                        .iter()
                        .enumerate()
                        .filter(|(_, &l)| l)
                        .nth(pick)
                        .map(|(j, _)| j)
                        .expect("pick < count");
                    self.assignment = Assignment::Task(j as u32);
                }
            }
            Assignment::Task(j) => {
                if !probe.sample(j as usize).is_lack() && self.leave.sample(probe.rng()) {
                    self.assignment = Assignment::Idle;
                }
            }
        }
        self.assignment
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        self.assignment
    }

    fn reset_to(&mut self, a: Assignment) {
        self.assignment = a;
    }

    fn memory_bits(&self) -> u32 {
        crate::memory::assignment_memory_bits(self.num_tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_noise::{Feedback, NoiseModel, PreparedRound};
    use antalloc_rng::AntRng;

    use Feedback::{Lack as L, Overload as O};

    fn fixed_round(round: u64, signals: &[Feedback]) -> PreparedRound {
        let deficits: Vec<i64> = signals
            .iter()
            .map(|f| if f.is_lack() { 1 } else { -1 })
            .collect();
        NoiseModel::Exact.prepare(round, &deficits, &vec![100u64; signals.len()])
    }

    #[test]
    fn deterministic_extremes() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut ant = ExactGreedy::new(
            2,
            ExactGreedyParams {
                p_join: 1.0,
                p_leave: 1.0,
            },
        );
        let prep = fixed_round(1, &[O, L]);
        let mut probe = FeedbackProbe::new(&prep, &mut rng);
        assert_eq!(ant.step(&mut probe), Assignment::Task(1));
        let prep = fixed_round(2, &[O, O]);
        let mut probe = FeedbackProbe::new(&prep, &mut rng);
        assert_eq!(ant.step(&mut probe), Assignment::Idle);
    }

    #[test]
    fn zero_probabilities_freeze() {
        let mut rng = AntRng::seed_from_u64(2);
        let mut ant = ExactGreedy::new(
            1,
            ExactGreedyParams {
                p_join: 0.0,
                p_leave: 0.0,
            },
        );
        let prep = fixed_round(1, &[L]);
        let mut probe = FeedbackProbe::new(&prep, &mut rng);
        assert_eq!(ant.step(&mut probe), Assignment::Idle);
        ant.reset_to(Assignment::Task(0));
        let prep = fixed_round(2, &[O]);
        let mut probe = FeedbackProbe::new(&prep, &mut rng);
        assert_eq!(ant.step(&mut probe), Assignment::Task(0));
    }

    #[test]
    fn join_rate_matches_p_join() {
        let trials = 20_000u32;
        let mut joined = 0u32;
        for seed in 0..trials {
            let mut rng = AntRng::seed_from_u64(u64::from(seed));
            let mut ant = ExactGreedy::new(1, ExactGreedyParams::default());
            let prep = fixed_round(1, &[L]);
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            if !ant.step(&mut probe).is_idle() {
                joined += 1;
            }
        }
        let freq = f64::from(joined) / f64::from(trials);
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }
}
