//! The sequential model of Appendix D.1: one uniformly random ant acts
//! per round, seeing feedback of the round before.
//!
//! The contrast between this engine and [`crate::SyncEngine`] running
//! the same [`antalloc_core::Trivial`] controller *is* Appendix D: the
//! sequential colony settles near the demands, the synchronous one
//! flip-flops with amplitude `Θ(n)`.

use antalloc_env::{ColonyState, DemandVector, InitialConfig, Timeline, TriggerState};
use antalloc_noise::NoiseModel;
use antalloc_rng::{reserved, uniform_index, AntRng, StreamSeeder};

use crate::config::SimConfig;
use crate::engine::{apply_event, colony_view, event_seeder, RoundRecord};
use crate::observer::Observer;
use crate::population::Population;

/// The sequential-model engine.
///
/// Owns the same banked `Population` as [`crate::SyncEngine`] — one
/// homogeneous bank per controller kind plus the ant → (bank, slot)
/// index — so `ControllerSpec::Mix` colonies run under the sequential
/// model too; only one ant (bank slot) steps per round. Timeline
/// events fire at the start of their round exactly as in the
/// synchronous engine, drawing from the same reserved per-round
/// streams, so scripted scenarios are model-portable.
pub struct SequentialEngine {
    config: SimConfig,
    /// The config's timeline with generators expanded (see
    /// [`Timeline::compile`]); all stepping reads this one.
    compiled: Timeline,
    colony: ColonyState,
    population: Population,
    noise: NoiseModel,
    seeder: StreamSeeder,
    event_seeder: StreamSeeder,
    scheduler_rng: AntRng,
    init_rng: AntRng,
    round: u64,
    cursor: usize,
    trigger_states: Vec<TriggerState>,
    next_stream: u64,
    deficits: Vec<i64>,
    post_deficits: Vec<i64>,
}

impl SequentialEngine {
    pub(crate) fn new(config: SimConfig, demands: DemandVector) -> Self {
        let n = config.n;
        let k = demands.num_tasks();
        let seeder = StreamSeeder::new(config.seed);
        let population = Population::build(&config.controller, config.seed, k, n);
        let compiled = config.timeline.compile(config.seed, n, demands.as_slice());
        let trigger_states = compiled.initial_trigger_states();
        let mut engine = Self {
            colony: ColonyState::new(n, demands),
            population,
            noise: config.noise.clone(),
            seeder,
            event_seeder: event_seeder(config.seed),
            scheduler_rng: seeder.stream(reserved::ENGINE),
            init_rng: seeder.stream(reserved::INIT),
            round: 0,
            cursor: 0,
            trigger_states,
            next_stream: n as u64,
            deficits: vec![0; k],
            post_deficits: vec![0; k],
            compiled,
            config,
        };
        let initial = engine.config.initial.clone();
        engine.set_initial(&initial);
        engine
    }

    /// Applies an initial configuration and syncs controllers.
    pub fn set_initial(&mut self, initial: &InitialConfig) {
        initial.apply(&mut self.colony, &mut self.init_rng);
        self.population.reset_to_colony(&self.colony);
    }

    /// The current round (1-based after the first step).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The colony's ground truth.
    pub fn colony(&self) -> &ColonyState {
        &self.colony
    }

    /// The runtime state of every timeline trigger, in timeline order
    /// (empty for trigger-free scenarios).
    pub fn trigger_states(&self) -> &[TriggerState] {
        &self.trigger_states
    }

    /// One sequential round: timeline events fire first (one-shots,
    /// cycles, then triggers armed at the end of the previous round),
    /// then a uniformly random ant observes and acts.
    pub fn step(&mut self, observer: &mut impl Observer) {
        self.round += 1;
        let mut fired = Vec::new();
        self.compiled
            .fire_into(self.round, &mut self.cursor, &mut fired);
        self.compiled
            .fire_triggers_into(self.round, &mut self.trigger_states, &mut fired);
        if !fired.is_empty() {
            let mut rng = self.event_seeder.stream(self.round);
            for event in &fired {
                apply_event(
                    event,
                    &mut self.colony,
                    &mut self.population,
                    // The sequential engine rejects arena configs at
                    // build time (`SimConfig::try_build_sequential`).
                    None,
                    &mut self.noise,
                    &mut rng,
                    &mut self.next_stream,
                );
            }
        }
        self.colony.deficits_into(&mut self.deficits);
        let prepared =
            self.noise
                .prepare(self.round, &self.deficits, self.colony.demands().as_slice());
        let i = uniform_index(&mut self.scheduler_rng, self.population.len());
        let next = self
            .population
            .step_one(i, &prepared, self.seeder.round_key(self.round));
        let switches = u64::from(next != self.colony.assignment(i));
        self.colony.apply(i, next);
        self.colony.deficits_into(&mut self.post_deficits);
        let record = RoundRecord {
            round: self.round,
            deficits: &self.post_deficits,
            demands: self.colony.demands().as_slice(),
            loads: self.colony.loads(),
            idle: self.colony.idle_count(),
            switches,
        };
        observer.on_round(&record);
        if self.compiled.has_triggers() {
            let view = colony_view(
                self.round,
                &self.post_deficits,
                self.colony.num_ants(),
                &self.colony,
            );
            self.compiled
                .observe_triggers(&mut self.trigger_states, &view);
        }
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
    use super::*;
    use crate::config::ControllerSpec;
    use crate::observer::{NullObserver, RunSummary};

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
        let mut switched = 0u64;
        let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
            assert!(r.switches <= 1);
        });
        e.run(200, &mut obs);
        assert_eq!(e.round(), 200);
        assert!(e.colony().recount_consistent());
        let _ = &mut switched;
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
