//! §5 Algorithm Precise Sigmoid: median-amplified two-sample protocol.
//!
//! Identical in shape to Algorithm Ant, but each of the two "samples" is
//! the **median of m rounds** of feedback, with `m = ⌈2c_χ/ε + 1⌉`.
//! Median amplification (Theorem E.3) pushes the error probability of a
//! sample taken at deficit `≈ εγd/c_χ` back down to `n^{−8}`, so the
//! machinery of Theorem 3.1 applies at step size `γ' = εγ/c_χ` — and the
//! steady-state oscillation, hence the regret, shrinks by a factor `ε`
//! (Theorem 3.2), at the price of phases of length `2m = O(1/ε)` and
//! `O(log 1/ε)` extra memory for the counters.

use antalloc_env::Assignment;
use antalloc_noise::FeedbackProbe;
use antalloc_rng::{uniform_index, Bernoulli};

use crate::controller::Controller;
use crate::params::PreciseSigmoidParams;

/// The mid-phase counter state of one Precise Sigmoid ant: everything
/// the controller remembers besides its assignment, extracted for bank
/// transposition ([`crate::PreciseSigmoidBank`]) and for comparing a
/// rebuilt ant with its reference mid-phase (phases are `2m = O(1/ε)`
/// rounds long).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigmoidScratch {
    /// `currentTask`: the task this phase observes (kept across the
    /// half-phase pause), or idle.
    pub current_task: Assignment,
    /// Whether the running phase was observed from its start.
    pub have_phase: bool,
    /// Per-task `lack` counts of the first half-phase.
    pub count1: Vec<u16>,
    /// Per-task `lack` counts of the second half-phase.
    pub count2: Vec<u16>,
    /// First-half medians, frozen at `r = m`.
    pub shat1_lack: Vec<bool>,
}

/// The Algorithm Precise Sigmoid controller for one ant.
#[derive(Clone, Debug)]
pub struct PreciseSigmoid {
    params: PreciseSigmoidParams,
    m: u64,
    pause: Bernoulli,
    leave: Bernoulli,
    current_task: Assignment,
    assignment: Assignment,
    /// Per-task `lack` counts in the first half-phase (idle path uses all
    /// entries; the working path only its task's entry).
    count1: Vec<u16>,
    /// Per-task `lack` counts in the second half-phase.
    count2: Vec<u16>,
    /// First-half medians, frozen at `r = m` (`ŝ1`).
    shat1_lack: Vec<bool>,
    /// Whether this phase was observed from its start (stale-state guard
    /// after mid-phase resets).
    have_phase: bool,
}

impl PreciseSigmoid {
    /// A controller for a colony with `num_tasks` tasks.
    pub fn new(num_tasks: usize, params: PreciseSigmoidParams) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        let m = params.m();
        assert!(m <= u64::from(u16::MAX), "m too large for u16 counters");
        Self {
            params,
            m,
            pause: Bernoulli::new(params.pause_probability()),
            leave: Bernoulli::new(params.leave_probability()),
            current_task: Assignment::Idle,
            assignment: Assignment::Idle,
            count1: vec![0; num_tasks],
            count2: vec![0; num_tasks],
            shat1_lack: vec![false; num_tasks],
            have_phase: false,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &PreciseSigmoidParams {
        &self.params
    }

    /// Number of tasks this controller observes.
    pub fn num_tasks(&self) -> usize {
        self.count1.len()
    }

    /// Copies the mid-phase counter state out — for transposition into
    /// [`crate::PreciseSigmoidBank`]. Lossless together with
    /// [`PreciseSigmoid::apply_scratch`]: the counters and the frozen
    /// medians are the controller's *entire* state beyond its
    /// assignment.
    pub fn scratch(&self) -> SigmoidScratch {
        SigmoidScratch {
            current_task: self.current_task,
            have_phase: self.have_phase,
            count1: self.count1.clone(),
            count2: self.count2.clone(),
            shat1_lack: self.shat1_lack.clone(),
        }
    }

    /// Overwrites the mid-phase counter state (restore path; the
    /// assignment is restored separately via
    /// [`crate::Controller::reset_to`] *before* this).
    ///
    /// # Panics
    /// If the scratch's task count disagrees with this controller's.
    pub fn apply_scratch(&mut self, s: &SigmoidScratch) {
        assert_eq!(s.count1.len(), self.count1.len(), "task count mismatch");
        assert_eq!(s.count2.len(), self.count2.len(), "task count mismatch");
        assert_eq!(
            s.shat1_lack.len(),
            self.shat1_lack.len(),
            "task count mismatch"
        );
        self.current_task = s.current_task;
        self.have_phase = s.have_phase;
        self.count1.copy_from_slice(&s.count1);
        self.count2.copy_from_slice(&s.count2);
        self.shat1_lack.copy_from_slice(&s.shat1_lack);
    }

    /// Median threshold: a batch of `m` samples is `lack` iff strictly
    /// more than `m/2` were (tie-free because `m` is odd).
    #[inline]
    fn median_is_lack(&self, count: u16) -> bool {
        u64::from(count) * 2 > self.m
    }

    fn sample_into(&mut self, probe: &mut FeedbackProbe<'_>, second_half: bool) {
        match self.current_task {
            Assignment::Task(j) => {
                let j = j as usize;
                let lack = probe.sample(j).is_lack();
                let counts = if second_half {
                    &mut self.count2
                } else {
                    &mut self.count1
                };
                counts[j] += u16::from(lack);
            }
            Assignment::Idle => {
                for j in 0..self.count1.len() {
                    let lack = probe.sample(j).is_lack();
                    let counts = if second_half {
                        &mut self.count2
                    } else {
                        &mut self.count1
                    };
                    counts[j] += u16::from(lack);
                }
            }
        }
    }
}

impl Controller for PreciseSigmoid {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        let r = probe.round() % (2 * self.m);
        if r == 1 {
            // Phase start: adopt a_{t−1} as currentTask, reset counters.
            self.current_task = self.assignment;
            self.count1.fill(0);
            self.count2.fill(0);
            self.have_phase = true;
        }
        if !self.have_phase {
            // Joined mid-phase (reset); idle out the remainder.
            return self.assignment;
        }
        let first_half = (1..=self.m).contains(&r);
        self.sample_into(probe, !first_half);

        if r == self.m {
            // Freeze ŝ1 and take the temporary pause.
            for j in 0..self.count1.len() {
                self.shat1_lack[j] = self.median_is_lack(self.count1[j]);
            }
            if let Assignment::Task(j) = self.current_task {
                self.assignment = if self.pause.sample(probe.rng()) {
                    Assignment::Idle
                } else {
                    Assignment::Task(j)
                };
            }
        } else if r == 0 {
            // Phase end: compute ŝ2 and decide, exactly as Algorithm Ant.
            match self.current_task {
                Assignment::Idle => {
                    let joinable = |this: &Self, j: usize| {
                        this.shat1_lack[j] && this.median_is_lack(this.count2[j])
                    };
                    let count = (0..self.count1.len())
                        .filter(|&j| joinable(self, j))
                        .count();
                    self.assignment = if count == 0 {
                        Assignment::Idle
                    } else {
                        let pick = uniform_index(probe.rng(), count);
                        let j = (0..self.count1.len())
                            .filter(|&j| joinable(self, j))
                            .nth(pick)
                            .expect("pick < count");
                        Assignment::Task(j as u32)
                    };
                }
                Assignment::Task(j) => {
                    let ju = j as usize;
                    let both_overload =
                        !self.shat1_lack[ju] && !self.median_is_lack(self.count2[ju]);
                    self.assignment = if both_overload && self.leave.sample(probe.rng()) {
                        Assignment::Idle
                    } else {
                        Assignment::Task(j)
                    };
                }
            }
            self.have_phase = false;
        }
        // All other rounds: keep the current assignment (a_t ← a_{t−1}).
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
        // The shared accounting (see `memory::sigmoid_memory_bits`):
        // the bank layout reports through the same function, so the two
        // figures cannot drift apart.
        crate::memory::sigmoid_memory_bits(self.count1.len(), self.m)
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

    fn det_params(eps: f64, pause: bool, leave: bool) -> PreciseSigmoidParams {
        let mut p = PreciseSigmoidParams::new(0.05, eps);
        // Make the probabilistic branches deterministic:
        // pause prob = c_s·εγ/c_χ = 1 requires c_s = c_χ/(εγ).
        p.cs = if pause {
            p.c_chi / (eps * p.gamma)
        } else {
            0.0
        };
        // leave prob = εγ/(c_χ·c_d) = 1 requires c_d = εγ/c_χ.
        p.cd = if leave { eps * p.gamma / p.c_chi } else { 1e18 };
        p
    }

    fn run_phase(
        ant: &mut PreciseSigmoid,
        start: u64,
        signals_fn: impl Fn(u64) -> Vec<Feedback>,
    ) -> Assignment {
        let mut rng = AntRng::seed_from_u64(start ^ 0xABCD);
        let phase = ant.m * 2;
        let mut last = ant.assignment();
        for t in start..start + phase {
            let prep = fixed_round(t, &signals_fn(t));
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            last = ant.step(&mut probe);
        }
        last
    }

    #[test]
    fn geometry_small_eps() {
        let p = PreciseSigmoidParams::new(0.05, 0.5);
        let ant = PreciseSigmoid::new(2, p);
        assert_eq!(ant.m, 41);
    }

    #[test]
    fn idle_joins_when_both_medians_lack() {
        let mut ant = PreciseSigmoid::new(2, det_params(0.5, false, false));
        // Task 0 always lack, task 1 always overload.
        let a = run_phase(&mut ant, 1, |_| vec![L, O]);
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn median_tolerates_minority_noise() {
        // Task 0: lack in all but m/4 of the rounds → median lack → join.
        let mut ant = PreciseSigmoid::new(1, det_params(0.5, false, false));
        let m = ant.m;
        let a = run_phase(&mut ant, 1, |t| {
            let r = t % (2 * m);
            // A quarter of each half-phase disagrees.
            if r.is_multiple_of(4) {
                vec![O]
            } else {
                vec![L]
            }
        });
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn worker_leaves_when_both_medians_overload() {
        let mut ant = PreciseSigmoid::new(1, det_params(0.5, false, true));
        ant.reset_to(Assignment::Task(0));
        let a = run_phase(&mut ant, 1, |_| vec![O]);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn worker_stays_on_split_medians() {
        // First half lack, second half overload → stay.
        let mut ant = PreciseSigmoid::new(1, det_params(0.5, false, true));
        ant.reset_to(Assignment::Task(0));
        let m = ant.m;
        let a = run_phase(&mut ant, 1, |t| {
            let r = t % (2 * m);
            if (1..=m).contains(&r) {
                vec![L]
            } else {
                vec![O]
            }
        });
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn pause_happens_at_half_phase_and_is_temporary() {
        let mut ant = PreciseSigmoid::new(1, det_params(0.5, true, false));
        ant.reset_to(Assignment::Task(0));
        let m = ant.m;
        let mut rng = AntRng::seed_from_u64(3);
        let mut paused_at_half = false;
        for t in 1..=(2 * m) {
            let prep = fixed_round(t, &[L]);
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            let a = ant.step(&mut probe);
            let r = t % (2 * m);
            if r == m {
                paused_at_half = a.is_idle();
            } else if (1..m).contains(&r) {
                assert_eq!(a, Assignment::Task(0), "must keep working in first half");
            }
        }
        assert!(paused_at_half, "pause probability 1 must pause at r = m");
        // Mixed medians (L first half … here all lack) → resume at r = 0.
        assert_eq!(ant.assignment(), Assignment::Task(0));
    }

    #[test]
    fn reset_mid_phase_waits_for_next_phase() {
        let mut ant = PreciseSigmoid::new(1, det_params(0.5, false, true));
        ant.reset_to(Assignment::Task(0));
        let m = ant.m;
        let mut rng = AntRng::seed_from_u64(4);
        // Start stepping from the middle of a phase: no decision should
        // fire at the next r = 0 because the phase was partial.
        for t in (m + 2)..=(2 * m) {
            let prep = fixed_round(t, &[O]);
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            ant.step(&mut probe);
        }
        assert_eq!(ant.assignment(), Assignment::Task(0));
        // The next full phase of overloads does trigger the leave.
        let a = run_phase(&mut ant, 2 * m + 1, |_| vec![O]);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn memory_grows_logarithmically_in_one_over_eps() {
        let coarse = PreciseSigmoid::new(1, PreciseSigmoidParams::new(0.05, 0.5));
        let fine = PreciseSigmoid::new(1, PreciseSigmoidParams::new(0.05, 0.005));
        let ratio = f64::from(fine.memory_bits()) / f64::from(coarse.memory_bits());
        // 100× finer ε costs well under 10× the memory.
        assert!(ratio < 3.0, "ratio {ratio}");
    }
}
