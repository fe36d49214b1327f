//! Appendix D: the trivial single-sample algorithm.
//!
//! An idle ant that sees `lack` somewhere joins one such task uniformly
//! at random; a working ant keeps working until it sees `overload`, then
//! leaves immediately. The paper shows this is reasonable in the
//! *sequential* model (one random ant acts per round, D.1) but in the
//! *synchronous* model all `n` ants react to the same signal at once and
//! the colony flip-flops with amplitude `Θ(n)` for `e^{Ω(n)}` steps
//! (D.2) — the motivating failure for the two-sample design of §4.

use antalloc_env::Assignment;
use antalloc_noise::FeedbackProbe;
use antalloc_rng::uniform_index;

use crate::controller::Controller;

/// The trivial controller for one ant.
#[derive(Clone, Debug)]
pub struct Trivial {
    num_tasks: usize,
    assignment: Assignment,
    /// Scratch bitmap of lacking tasks (reused across rounds).
    lacking: Vec<bool>,
}

impl Trivial {
    /// A controller for a colony with `num_tasks` tasks.
    pub fn new(num_tasks: usize) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            num_tasks,
            assignment: Assignment::Idle,
            lacking: vec![false; num_tasks],
        }
    }

    /// Number of tasks this controller observes.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }
}

impl Controller for Trivial {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        match self.assignment {
            Assignment::Idle => {
                let mut count = 0usize;
                for j in 0..self.num_tasks {
                    let lack = probe.sample(j).is_lack();
                    self.lacking[j] = lack;
                    count += usize::from(lack);
                }
                if count > 0 {
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
                if !probe.sample(j as usize).is_lack() {
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

    fn step_with(
        ant: &mut Trivial,
        round: u64,
        signals: &[Feedback],
        rng: &mut AntRng,
    ) -> Assignment {
        let prep = fixed_round(round, signals);
        let mut probe = FeedbackProbe::new(&prep, rng);
        ant.step(&mut probe)
    }

    #[test]
    fn joins_immediately_on_lack() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut ant = Trivial::new(3);
        let a = step_with(&mut ant, 1, &[O, L, O], &mut rng);
        assert_eq!(a, Assignment::Task(1));
    }

    #[test]
    fn leaves_immediately_on_overload() {
        let mut rng = AntRng::seed_from_u64(2);
        let mut ant = Trivial::new(1);
        ant.reset_to(Assignment::Task(0));
        let a = step_with(&mut ant, 1, &[O], &mut rng);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn stays_while_lacking() {
        let mut rng = AntRng::seed_from_u64(3);
        let mut ant = Trivial::new(1);
        ant.reset_to(Assignment::Task(0));
        for t in 1..=10 {
            assert_eq!(step_with(&mut ant, t, &[L], &mut rng), Assignment::Task(0));
        }
    }

    #[test]
    fn idle_stays_idle_without_lack() {
        let mut rng = AntRng::seed_from_u64(4);
        let mut ant = Trivial::new(2);
        assert_eq!(step_with(&mut ant, 1, &[O, O], &mut rng), Assignment::Idle);
    }

    #[test]
    fn join_choice_is_uniform() {
        let mut counts = [0u32; 3];
        for seed in 0..6000u64 {
            let mut rng = AntRng::seed_from_u64(seed);
            let mut ant = Trivial::new(3);
            match step_with(&mut ant, 1, &[L, L, L], &mut rng) {
                Assignment::Task(j) => counts[j as usize] += 1,
                Assignment::Idle => panic!("must join"),
            }
        }
        for &c in &counts {
            let frac = f64::from(c) / 6000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.03, "frac {frac}");
        }
    }

    #[test]
    fn memory_is_log_k() {
        assert_eq!(Trivial::new(1).memory_bits(), 1);
        assert_eq!(Trivial::new(3).memory_bits(), 2);
        assert_eq!(Trivial::new(7).memory_bits(), 3);
    }
}
