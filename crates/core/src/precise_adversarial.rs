//! Appendix C Algorithm Precise Adversarial.
//!
//! Each phase has a *ramp* sub-phase of `r_1 = ⌈32/ε⌉` rounds and a
//! *frozen* sub-phase of `r_2 = 4·r_1` rounds. During the ramp, working
//! ants pause with probability `εγ/32` per round (and stay paused), so
//! the load decays in fine `εγ/32`-sized steps; each ant remembers what
//! it was doing at `r_min`, the first ramp round whose feedback said
//! `lack` — the moment the load crossed the demand. Through the frozen
//! sub-phase the ant replays exactly that state, parking the deficit
//! within `O(εγd)` of zero for 4× longer than the ramp took, which
//! amortizes the regret to `(1+ε)γΣd` (Theorem 3.6). Join and permanent
//! leave require unanimous `lack`/`overload` over the *whole* phase.
//!
//! Faithfulness notes (see DESIGN.md): the pseudocode's ramp line reads
//! as if paused ants re-decide each round; we implement the
//! stay-paused reading — under re-deciding, the load dip would be a
//! stationary `εγ/32` instead of a ramp and `r_min` would be
//! meaningless. For `r_min = r_1` (no lack seen) the pseudocode's
//! `a_{t'+r_min−1}` is self-referential; we freeze the ant's pre-decision
//! state at `r_1`, which is what the regret argument uses.

use antalloc_env::Assignment;
use antalloc_noise::FeedbackProbe;
use antalloc_rng::{uniform_index, Bernoulli};

use crate::controller::Controller;
use crate::params::PreciseAdversarialParams;

/// The mid-phase state of one Precise Adversarial ant: everything the
/// controller remembers between rounds besides its assignment. (A
/// first `lack` awaiting classification is resolved within the step
/// that sees it, so it is never pending between rounds.) Extracted for
/// bank transposition ([`crate::PreciseAdversarialBank`]), like
/// [`crate::SigmoidScratch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarialScratch {
    /// `currentTask`: the task this phase observes (kept across ramp
    /// pauses), or idle.
    pub current_task: Assignment,
    /// Whether the running phase was observed from its start.
    pub have_phase: bool,
    /// Idle path: per task, whether every sample this phase said `lack`.
    pub all_lack: Vec<bool>,
    /// Working path: whether every sample this phase said `overload`.
    pub all_overload: bool,
    /// At the first ramp `lack`, was the ant still working? `None`
    /// until a lack is seen (two flag bits of the bank's row).
    pub working_at_first_lack: Option<bool>,
    /// The frozen sub-phase-2 behaviour: work iff true.
    pub frozen_working: bool,
}

/// The Algorithm Precise Adversarial controller for one ant.
#[derive(Clone, Debug)]
pub struct PreciseAdversarial {
    params: PreciseAdversarialParams,
    r1: u64,
    phase_len: u64,
    ramp: Bernoulli,
    current_task: Assignment,
    assignment: Assignment,
    /// Idle path: per task, whether every sample this phase said `lack`.
    all_lack: Vec<bool>,
    /// Working path: whether every sample of the current task this phase
    /// said `overload`.
    all_overload: bool,
    /// Working path: at the first `lack` this phase, was the ant still
    /// working (not yet paused)? `None` until a lack is seen.
    working_at_first_lack: Option<bool>,
    /// Whether a lack is pending classification this round (sampled
    /// before the pause decision, resolved after it).
    pending_first_lack: bool,
    /// The frozen sub-phase-2 behaviour: work iff true.
    frozen_working: bool,
    /// Phase observed from its start (mid-phase reset guard).
    have_phase: bool,
}

impl PreciseAdversarial {
    /// A controller for a colony with `num_tasks` tasks.
    pub fn new(num_tasks: usize, params: PreciseAdversarialParams) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            params,
            r1: params.r1(),
            phase_len: params.phase_len(),
            ramp: Bernoulli::new(params.ramp_probability()),
            current_task: Assignment::Idle,
            assignment: Assignment::Idle,
            all_lack: vec![true; num_tasks],
            all_overload: true,
            working_at_first_lack: None,
            pending_first_lack: false,
            frozen_working: false,
            have_phase: false,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &PreciseAdversarialParams {
        &self.params
    }

    /// Number of tasks this controller observes.
    pub fn num_tasks(&self) -> usize {
        self.all_lack.len()
    }

    /// Samples the feedback relevant to this ant and folds it into the
    /// unanimity trackers and the first-lack detector.
    fn sample_and_track(&mut self, probe: &mut FeedbackProbe<'_>, in_ramp: bool) {
        match self.current_task {
            Assignment::Task(j) => {
                let lack = probe.sample(j as usize).is_lack();
                if lack {
                    self.all_overload = false;
                    if in_ramp && self.working_at_first_lack.is_none() {
                        // Classified after this round's pause decision.
                        self.pending_first_lack = true;
                    }
                }
            }
            Assignment::Idle => {
                for j in 0..self.all_lack.len() {
                    let lack = probe.sample(j).is_lack();
                    self.all_lack[j] &= lack;
                }
            }
        }
    }

    fn resolve_pending_first_lack(&mut self) {
        if self.pending_first_lack {
            self.working_at_first_lack = Some(self.assignment == self.current_task);
            self.pending_first_lack = false;
        }
    }

    /// Copies the mid-phase state out, for transposition into
    /// [`crate::PreciseAdversarialBank`]. Lossless together with
    /// [`PreciseAdversarial::apply_scratch`]: these fields are the
    /// controller's *entire* state between rounds beyond its assignment.
    pub fn scratch(&self) -> AdversarialScratch {
        AdversarialScratch {
            current_task: self.current_task,
            have_phase: self.have_phase,
            all_lack: self.all_lack.clone(),
            all_overload: self.all_overload,
            working_at_first_lack: self.working_at_first_lack,
            frozen_working: self.frozen_working,
        }
    }

    /// Overwrites the mid-phase state (restore path; the assignment is
    /// restored separately via [`crate::Controller::reset_to`] *before*
    /// this).
    ///
    /// # Panics
    /// If the scratch's task count disagrees with this controller's.
    pub fn apply_scratch(&mut self, s: &AdversarialScratch) {
        assert_eq!(s.all_lack.len(), self.all_lack.len(), "task count mismatch");
        self.current_task = s.current_task;
        self.have_phase = s.have_phase;
        self.all_lack.copy_from_slice(&s.all_lack);
        self.all_overload = s.all_overload;
        self.working_at_first_lack = s.working_at_first_lack;
        self.pending_first_lack = false;
        self.frozen_working = s.frozen_working;
    }
}

impl Controller for PreciseAdversarial {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        let r = probe.round() % self.phase_len;
        if r == 1 {
            // Phase start: adopt a_{t−1}, reset trackers.
            self.current_task = self.assignment;
            self.all_lack.fill(true);
            self.all_overload = true;
            self.working_at_first_lack = None;
            self.pending_first_lack = false;
            self.frozen_working = false;
            self.have_phase = true;
        }
        if !self.have_phase {
            return self.assignment;
        }

        let in_ramp = r >= 1 && r < self.r1;
        self.sample_and_track(probe, in_ramp);

        if (2..self.r1).contains(&r) {
            // Ramp: still-working ants pause w.p. εγ/32 and stay paused.
            if self.current_task != Assignment::Idle
                && self.assignment == self.current_task
                && self.ramp.sample(probe.rng())
            {
                self.assignment = Assignment::Idle;
            }
            self.resolve_pending_first_lack();
        } else if r == self.r1 {
            // Freeze the sub-phase-2 behaviour at r_min's state.
            self.resolve_pending_first_lack();
            if self.current_task != Assignment::Idle {
                let still_working = self.assignment == self.current_task;
                self.frozen_working = self.working_at_first_lack.unwrap_or(still_working);
                self.assignment = if self.frozen_working {
                    self.current_task
                } else {
                    Assignment::Idle
                };
            }
        } else if r == 1 {
            // Phase start round: sample only; no decision is taken.
            self.resolve_pending_first_lack();
        } else if r == 0 {
            // Phase end: unanimous-signal decisions.
            match self.current_task {
                Assignment::Idle => {
                    let count = self.all_lack.iter().filter(|&&x| x).count();
                    self.assignment = if count == 0 {
                        Assignment::Idle
                    } else {
                        let pick = uniform_index(probe.rng(), count);
                        let j = self
                            .all_lack
                            .iter()
                            .enumerate()
                            .filter(|(_, &x)| x)
                            .nth(pick)
                            .map(|(j, _)| j)
                            .expect("pick < count");
                        Assignment::Task(j as u32)
                    };
                }
                Assignment::Task(j) => {
                    self.assignment = if self.all_overload && self.ramp.sample(probe.rng()) {
                        Assignment::Idle
                    } else {
                        Assignment::Task(j)
                    };
                }
            }
            self.have_phase = false;
        } else {
            // Frozen sub-phase (r in (r1, phase_len−1]): replay r_min.
            if self.current_task != Assignment::Idle {
                self.assignment = if self.frozen_working {
                    self.current_task
                } else {
                    Assignment::Idle
                };
            }
            self.resolve_pending_first_lack();
        }
        self.assignment
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        self.assignment
    }

    fn reset_to(&mut self, a: Assignment) {
        self.assignment = a;
        self.current_task = a;
        self.have_phase = false;
    }

    fn memory_bits(&self) -> u32 {
        crate::memory::adversarial_memory_bits(self.all_lack.len())
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
        let demands = vec![100u64; signals.len()];
        NoiseModel::Exact.prepare(round, &deficits, &demands)
    }

    /// ε = 0.5 → r1 = 64, phase = 320. Ramp prob forced to 0 or 1.
    fn controller(ramp_one: bool) -> PreciseAdversarial {
        let mut p = PreciseAdversarialParams::new(0.05, 0.5);
        if ramp_one {
            // εγ/32 = 1 ⟺ γ = 64/ε — out of the validated range, fine
            // for unit tests that need determinism.
            p.gamma = 32.0 / p.eps;
        } else {
            p.gamma = 0.0;
        }
        PreciseAdversarial::new(2, p)
    }

    fn run_rounds(
        ant: &mut PreciseAdversarial,
        rounds: impl Iterator<Item = u64>,
        signals_fn: impl Fn(u64) -> Vec<Feedback>,
        seed: u64,
    ) -> Assignment {
        let mut rng = AntRng::seed_from_u64(seed);
        let mut last = ant.assignment();
        for t in rounds {
            let prep = fixed_round(t, &signals_fn(t));
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            last = ant.step(&mut probe);
        }
        last
    }

    #[test]
    fn geometry() {
        let ant = controller(false);
        assert_eq!(ant.r1, 64);
        assert_eq!(ant.phase_len, 320);
    }

    #[test]
    fn idle_joins_on_unanimous_lack() {
        let mut ant = controller(false);
        let a = run_rounds(&mut ant, 1..=320, |_| vec![L, O], 1);
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn one_dissenting_round_blocks_join() {
        let mut ant = controller(false);
        let a = run_rounds(
            &mut ant,
            1..=320,
            |t| if t == 200 { vec![O, O] } else { vec![L, O] },
            2,
        );
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn worker_leaves_on_unanimous_overload_with_prob_one() {
        let mut ant = controller(true);
        ant.reset_to(Assignment::Task(0));
        let a = run_rounds(&mut ant, 1..=320, |_| vec![O, O], 3);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn single_lack_prevents_leave() {
        let mut ant = controller(true);
        ant.reset_to(Assignment::Task(0));
        let a = run_rounds(
            &mut ant,
            1..=320,
            |t| if t == 100 { vec![L, L] } else { vec![O, O] },
            4,
        );
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn ramp_pauses_are_sticky() {
        // Ramp probability 1: the ant pauses at r = 2 and must stay idle
        // through the rest of the ramp.
        let mut ant = controller(true);
        ant.reset_to(Assignment::Task(0));
        let mut rng = AntRng::seed_from_u64(5);
        let mut assignments = Vec::new();
        for t in 1..=63u64 {
            let prep = fixed_round(t, &[O, O]);
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            assignments.push(ant.step(&mut probe));
        }
        assert_eq!(assignments[0], Assignment::Task(0), "r=1 never pauses");
        for (i, a) in assignments.iter().enumerate().skip(1) {
            assert_eq!(*a, Assignment::Idle, "round {}", i + 1);
        }
    }

    #[test]
    fn frozen_subphase_replays_state_at_first_lack() {
        // No pausing (ramp prob 0): the ant is working when the first
        // lack arrives at round 10 → works through the frozen sub-phase.
        let mut ant = controller(false);
        ant.reset_to(Assignment::Task(0));
        let a = run_rounds(
            &mut ant,
            1..=64,
            |t| if t >= 10 { vec![L, L] } else { vec![O, O] },
            6,
        );
        assert_eq!(a, Assignment::Task(0));
        // Frozen rounds keep working.
        let a = run_rounds(&mut ant, 65..=319, |_| vec![L, L], 7);
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn frozen_subphase_idles_if_paused_before_first_lack() {
        // Ramp prob 1: pause at r=2; first lack at r=10 (while paused) →
        // frozen sub-phase must be idle.
        let mut ant = controller(true);
        ant.reset_to(Assignment::Task(0));
        let a = run_rounds(
            &mut ant,
            1..=64,
            |t| if t >= 10 { vec![L, L] } else { vec![O, O] },
            8,
        );
        assert_eq!(a, Assignment::Idle);
        let a = run_rounds(&mut ant, 65..=319, |_| vec![L, L], 9);
        assert_eq!(a, Assignment::Idle);
        // But the phase saw a lack, so no permanent leave at r = 0…
        let a = run_rounds(&mut ant, 320..=320, |_| vec![L, L], 10);
        assert_eq!(a, Assignment::Task(0), "resumes currentTask at phase end");
    }

    #[test]
    fn reset_mid_phase_is_conservative() {
        let mut ant = controller(true);
        ant.reset_to(Assignment::Task(1));
        // Land mid-phase (round 100 of 320): nothing should fire at 0.
        let a = run_rounds(&mut ant, 100..=320, |_| vec![O, O], 11);
        assert_eq!(a, Assignment::Task(1));
    }

    #[test]
    fn scratch_roundtrips_mid_phase_exactly() {
        // Capture mid-ramp (pauses and trackers in flight), copy the
        // scratch into a fresh controller, and check both continue
        // bit-identically to the end of the phase.
        let mut ant = controller(true);
        ant.reset_to(Assignment::Task(0));
        run_rounds(
            &mut ant,
            1..=37,
            |t| if t >= 10 { vec![L, O] } else { vec![O, O] },
            21,
        );
        let scratch = ant.scratch();
        let mut copy = controller(true);
        copy.reset_to(ant.assignment());
        copy.apply_scratch(&scratch);
        assert_eq!(copy.scratch(), scratch);
        let a = run_rounds(&mut ant, 38..=320, |_| vec![L, O], 22);
        let b = run_rounds(&mut copy, 38..=320, |_| vec![L, O], 22);
        assert_eq!(a, b);
        assert_eq!(ant.scratch(), copy.scratch());
    }

    #[test]
    fn memory_is_small_and_k_linear() {
        let small = controller(false).memory_bits();
        let big =
            PreciseAdversarial::new(64, PreciseAdversarialParams::new(0.05, 0.5)).memory_bits();
        assert!(small < big);
        assert!(big <= 64 + 16);
    }
}
