//! Per-ant feedback probe with a debug-mode single-sample guard.
//!
//! The model defines one feedback random variable per (ant, task, round).
//! Controllers receive a [`FeedbackProbe`] wrapping the round's prepared
//! state and their own RNG; in debug builds the probe panics if the same
//! task is sampled twice in one round, which would silently give an
//! algorithm two independent looks at a variable the model says it sees
//! once.

use antalloc_rng::AntRng;

use crate::feedback::Feedback;
use crate::model::{PreparedRound, RoundView};

/// One ant's view of one round's feedback.
pub struct FeedbackProbe<'a> {
    view: RoundView<'a>,
    rng: &'a mut AntRng,
    #[cfg(debug_assertions)]
    sampled: u128,
    #[cfg(debug_assertions)]
    sampled_overflow: Vec<bool>,
}

impl<'a> FeedbackProbe<'a> {
    /// Wraps a prepared round and an ant's RNG.
    #[inline]
    pub fn new(prepared: &'a PreparedRound, rng: &'a mut AntRng) -> Self {
        Self::from_view(prepared.view(), rng)
    }

    /// Wraps an already-constructed [`RoundView`] and an ant's RNG.
    /// Bank loops use this to share one view across a whole bank.
    #[inline]
    pub fn from_view(view: RoundView<'a>, rng: &'a mut AntRng) -> Self {
        Self {
            view,
            rng,
            #[cfg(debug_assertions)]
            sampled: 0,
            #[cfg(debug_assertions)]
            sampled_overflow: Vec::new(),
        }
    }

    /// Number of tasks visible this round.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.view.num_tasks()
    }

    /// The current round index (drives the algorithms' phase clocks).
    #[inline]
    pub fn round(&self) -> u64 {
        self.view.round()
    }

    /// Draws this ant's signal for `task`.
    ///
    /// # Panics (debug builds)
    /// If the task was already sampled by this probe.
    #[inline]
    pub fn sample(&mut self, task: usize) -> Feedback {
        #[cfg(debug_assertions)]
        self.mark(task);
        self.view.sample(task, self.rng)
    }

    /// Draws signals for all tasks into `out` (cleared first).
    pub fn sample_all(&mut self, out: &mut Vec<Feedback>) {
        out.clear();
        for task in 0..self.num_tasks() {
            out.push(self.sample(task));
        }
    }

    /// Direct access to the ant's RNG for the algorithm's own coin flips
    /// (pause/leave/join decisions).
    #[inline]
    pub fn rng(&mut self) -> &mut AntRng {
        self.rng
    }

    #[cfg(debug_assertions)]
    fn mark(&mut self, task: usize) {
        if task < 128 {
            let bit = 1u128 << task;
            assert!(
                self.sampled & bit == 0,
                "task {task} sampled twice in round {}",
                self.view.round()
            );
            self.sampled |= bit;
        } else {
            if self.sampled_overflow.len() <= task {
                self.sampled_overflow.resize(task + 1, false);
            }
            assert!(
                !self.sampled_overflow[task],
                "task {task} sampled twice in round {}",
                self.view.round()
            );
            self.sampled_overflow[task] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NoiseModel;
    use antalloc_rng::AntRng;

    fn prep() -> PreparedRound {
        NoiseModel::Sigmoid { lambda: 0.5 }.prepare(7, &[0, 0, 0], &[10, 10, 10])
    }

    #[test]
    fn samples_all_tasks() {
        let p = prep();
        let mut rng = AntRng::seed_from_u64(1);
        let mut probe = FeedbackProbe::new(&p, &mut rng);
        assert_eq!(probe.round(), 7);
        let mut out = Vec::new();
        probe.sample_all(&mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sampled twice")]
    fn double_sampling_panics_in_debug() {
        let p = prep();
        let mut rng = AntRng::seed_from_u64(1);
        let mut probe = FeedbackProbe::new(&p, &mut rng);
        probe.sample(1);
        probe.sample(1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sampled twice")]
    fn double_sampling_panics_beyond_bitmask_width() {
        let deficits = vec![0i64; 200];
        let demands = vec![10u64; 200];
        let p = NoiseModel::Exact.prepare(0, &deficits, &demands);
        let mut rng = AntRng::seed_from_u64(1);
        let mut probe = FeedbackProbe::new(&p, &mut rng);
        probe.sample(150);
        probe.sample(150);
    }

    #[test]
    fn distinct_tasks_do_not_trip_guard() {
        let p = prep();
        let mut rng = AntRng::seed_from_u64(1);
        let mut probe = FeedbackProbe::new(&p, &mut rng);
        probe.sample(0);
        probe.sample(1);
        probe.sample(2);
    }
}
