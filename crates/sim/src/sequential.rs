//! The sequential model of Appendix D.1: one uniformly random ant acts
//! per round, seeing feedback of the round before.
//!
//! The contrast between this engine and [`crate::SyncEngine`] running
//! the same [`antalloc_core::Trivial`] controller *is* Appendix D: the
//! sequential colony settles near the demands, the synchronous one
//! flip-flops with amplitude `Θ(n)`.

use antalloc_env::{ColonyState, TriggerState};
use antalloc_rng::AntRng;

use crate::engine::SyncEngine;
use crate::observer::Observer;

/// The sequential-model engine.
///
/// A [`SyncEngine`] — built by the same code, holding the same banked
/// population, so `ControllerSpec::Mix` colonies run under the
/// sequential model too — plus the scheduler stream
/// ([`antalloc_rng::reserved::ENGINE`]) that picks the one ant (bank
/// slot) stepping each round. Timeline events fire at the start of
/// their round exactly as in the synchronous engine, drawing from the
/// same reserved per-round streams, so scripted scenarios are
/// model-portable.
pub struct SequentialEngine {
    pub(crate) engine: SyncEngine,
    pub(crate) scheduler_rng: AntRng,
}

impl SequentialEngine {
    /// The current round (1-based after the first step).
    pub fn round(&self) -> u64 {
        self.engine.round()
    }

    /// The colony's ground truth.
    pub fn colony(&self) -> &ColonyState {
        self.engine.colony()
    }

    /// The runtime state of every timeline trigger, in timeline order
    /// (empty for trigger-free scenarios).
    pub fn trigger_states(&self) -> &[TriggerState] {
        self.engine.trigger_states()
    }

    /// One sequential round: timeline events fire first (one-shots,
    /// cycles, then triggers armed at the end of the previous round),
    /// then a uniformly random ant observes and acts.
    pub fn step(&mut self, observer: &mut impl Observer) {
        self.engine.step_one_ant(&mut self.scheduler_rng, observer);
    }

    /// Runs `rounds` sequential rounds.
    pub fn run(&mut self, rounds: u64, observer: &mut impl Observer) {
        for _ in 0..rounds {
            self.step(observer);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{ControllerSpec, SimConfig};
    use crate::engine::RoundRecord;
    use crate::observer::{NullObserver, RunSummary};
    use antalloc_noise::NoiseModel;

    fn config() -> SimConfig {
        SimConfig::builder(400, vec![100])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Trivial)
            .seed(11)
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn one_ant_moves_per_round() {
        let mut e = config().build_sequential();
        let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
            assert!(r.switches <= 1);
        });
        e.run(200, &mut obs);
        assert_eq!(e.round(), 200);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn trivial_sequential_converges_to_demand_band() {
        let mut e = config().build_sequential();
        let mut obs = NullObserver;
        // Enough rounds for ~n joins.
        e.run(5_000, &mut obs);
        let mut tail = RunSummary::new();
        e.run(5_000, &mut tail);
        // D.1: the sequential trivial algorithm hovers near the demand;
        // a generous band (half the demand) suffices to separate it from
        // the synchronous Θ(n) oscillation.
        assert!(
            tail.average_regret() < 50.0,
            "avg regret {}",
            tail.average_regret()
        );
    }

    #[test]
    fn deterministic_across_reruns() {
        let mut a = config().build_sequential();
        let mut b = config().build_sequential();
        let mut obs = NullObserver;
        a.run(500, &mut obs);
        b.run(500, &mut obs);
        assert_eq!(a.colony().loads(), b.colony().loads());
    }
}
