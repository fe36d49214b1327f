//! The contract oracle: one [`check_contract`] that runs a config down
//! every stepping and rebuild path the engine offers and asserts that
//! each one yields the same [`Trace`].

use antalloc_env::{Assignment, ColonyState, Condition, Event, TriggerState};
use antalloc_sim::{Checkpoint, Observer, RoundRecord, RunOutcome, SimConfig, Sweep, SyncEngine};

use crate::scenarios;

/// Participant counts every pooled leg is forced at.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// One round's observable outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    /// The round just completed.
    pub round: u64,
    /// Its instantaneous regret.
    pub regret: u64,
    /// Ants whose assignment changed.
    pub switches: u64,
    /// Idle ants after the round.
    pub idle: u64,
    /// Per-task loads after the round.
    pub loads: Vec<u32>,
}

/// Everything a run shows: every round record, then the final
/// assignments, colony size and trigger states. Equality of traces is
/// the strongest observable statement of "same run".
///
/// A `Trace` is an [`Observer`]: run an engine into it, then
/// [`Trace::finish`] it with the engine's final state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Round records in order.
    pub rounds: Vec<Round>,
    /// Final assignment of every ant.
    pub assignments: Vec<Assignment>,
    /// Final colony size.
    pub num_ants: usize,
    /// Final runtime state of every trigger.
    pub triggers: Vec<TriggerState>,
}

impl Observer for Trace {
    fn on_round(&mut self, r: &RoundRecord<'_>) {
        self.rounds.push(Round {
            round: r.round,
            regret: r.instant_regret(),
            switches: r.switches,
            idle: r.idle,
            loads: r.loads.to_vec(),
        });
    }
}

impl Trace {
    /// Runs `engine` serially for `rounds` rounds and records the trace.
    pub fn of(engine: &mut SyncEngine, rounds: u64) -> Self {
        let mut trace = Self::default();
        engine.run(rounds, &mut trace);
        trace.finish(engine.colony(), engine.trigger_states())
    }

    /// Appends the final state of the run this trace observed.
    pub fn finish(mut self, colony: &ColonyState, triggers: &[TriggerState]) -> Self {
        self.assignments = colony.assignments();
        self.num_ants = colony.num_ants();
        self.triggers = triggers.to_vec();
        self
    }

    /// Panics unless `got` — a run of the same config, possibly resumed
    /// mid-way so that it holds only the last rounds — matches `self`.
    pub fn assert_matches(&self, got: &Trace, leg: &str) {
        let skip = self.rounds.len().saturating_sub(got.rounds.len());
        if let Some(i) = (0..got.rounds.len().max(self.rounds.len() - skip))
            .find(|&i| self.rounds.get(skip + i) != got.rounds.get(i))
        {
            panic!(
                "{leg}: round record differs from the serial run\n  serial: {:?}\n     leg: {:?}",
                self.rounds.get(skip + i),
                got.rounds.get(i)
            );
        }
        assert_eq!(self.num_ants, got.num_ants, "{leg}: final colony size");
        assert!(
            self.assignments == got.assignments,
            "{leg}: final assignments differ from the serial run"
        );
        assert_eq!(self.triggers, got.triggers, "{leg}: final trigger states");
    }
}

/// Runs `cfg` for `rounds` rounds down every path the engine's
/// bit-identity contract covers, panics at the first leg whose trace
/// differs from a plain serial run, and returns that serial trace.
///
/// The legs:
/// - [`SyncEngine::run_parallel_forced`] at 1, 2, 3, 4 and 8
///   participants;
/// - serial, then pooled up to a split round (the seed modulo
///   `rounds + 1`, so generated scenarios split anywhere, mid-phase
///   included; [`check_contract_at`] picks it instead), then serial
///   again on one engine;
/// - a checkpoint captured on that engine at the split, through
///   `to_bytes`/`from_bytes` (the decoded checkpoint must equal the
///   captured one), continued serially from [`Checkpoint::restore`] and
///   pooled from [`Checkpoint::restore_into`] a dirty decoy engine of
///   another shape, kind and arena; each restored engine must capture
///   back to the same checkpoint;
/// - [`SyncEngine::reset_from`] on another dirty decoy, which must
///   capture at round 0 exactly as a fresh engine does;
/// - TOML and JSON rebuilds, whose configs equal `cfg` and whose
///   canonical TOML is a fixed point (the JSON rebuild is the config the
///   decoy is reset to);
/// - a one-seed [`Sweep`] of the TOML rebuild.
///
/// No leg is skipped: checkpoints restore every kind exactly at every
/// round.
pub fn check_contract(cfg: &SimConfig, rounds: u64) -> Trace {
    check_contract_at(cfg, rounds, split_round(cfg, rounds))
}

/// [`check_contract`] with its checkpoint captured at round `split`
/// (`≤ rounds`), for scenarios whose point is where the capture lands.
pub fn check_contract_at(cfg: &SimConfig, rounds: u64, split: u64) -> Trace {
    assert!(
        split <= rounds,
        "split {split} past the run's {rounds} rounds"
    );
    // Two threads: the fully pooled runs beside everything else.
    let (serial, pooled_runs) = std::thread::scope(|scope| {
        let pooled_runs = scope.spawn(|| {
            THREADS.map(|threads| {
                let mut engine = cfg.build();
                let mut trace = Trace::default();
                pooled(&mut engine, rounds, threads, &mut trace);
                trace.finish(engine.colony(), engine.trigger_states())
            })
        });
        let serial = other_legs(cfg, rounds, split);
        let pooled_runs = pooled_runs
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (serial, pooled_runs)
    });
    for (threads, trace) in THREADS.iter().zip(&pooled_runs) {
        serial.assert_matches(trace, &format!("run_parallel_forced at P = {threads}"));
    }
    serial
}

/// Every leg of [`check_contract`] but the fully pooled runs, checked
/// against the serial run this returns.
fn other_legs(cfg: &SimConfig, rounds: u64, split: u64) -> Trace {
    let mut engine = cfg.build();
    let at_zero = Checkpoint::capture(&engine).expect("round 0 is a capture round");
    let serial = Trace::of(&mut engine, rounds);

    let threads = THREADS[1 + (cfg.seed % 4) as usize];
    let mut engine = cfg.build();
    let mut trace = Trace::default();
    engine.run(split / 2, &mut trace);
    pooled(&mut engine, split - split / 2, threads, &mut trace);
    let captured = Checkpoint::capture(&engine).expect("every round is a capture round");
    engine.run(rounds - split, &mut trace);
    serial.assert_matches(
        &trace.finish(engine.colony(), engine.trigger_states()),
        &format!("serial / pooled at P = {threads} / serial"),
    );

    {
        let decoded = Checkpoint::from_bytes(&captured.to_bytes()).expect("checkpoint decodes");
        assert!(
            decoded == captured,
            "checkpoint at round {split}: decoded differs"
        );
        let mut fresh = decoded.restore();
        let mut reused = decoy(cfg);
        decoded.restore_into(&mut reused);
        for (engine, how) in [(&mut fresh, "restore"), (&mut reused, "restore_into")] {
            assert!(
                matches!(Checkpoint::capture(engine), Ok(c) if c == captured),
                "{how} at round {split} does not capture back to its checkpoint"
            );
        }
        serial.assert_matches(
            &Trace::of(&mut fresh, rounds - split),
            &format!("restore at round {split}, serial"),
        );
        let mut trace = Trace::default();
        pooled(&mut reused, rounds - split, threads, &mut trace);
        serial.assert_matches(
            &trace.finish(reused.colony(), reused.trigger_states()),
            &format!("restore_into a decoy at round {split}, pooled at P = {threads}"),
        );
    }

    let text = cfg.to_toml();
    let from_toml = SimConfig::from_toml(&text).expect("canonical TOML parses");
    let from_json = SimConfig::from_json(&cfg.to_json()).expect("canonical JSON parses");
    for (rebuilt, how) in [(&from_toml, "TOML"), (&from_json, "JSON")] {
        assert!(rebuilt == cfg, "the {how} rebuild changed the config");
        assert!(
            rebuilt.to_toml() == text,
            "the {how} rebuild changed the canonical TOML"
        );
    }

    let mut reused = decoy(cfg);
    reused.reset_from(&from_json);
    assert!(
        matches!(Checkpoint::capture(&reused), Ok(c) if c == at_zero),
        "reset_from a decoy does not capture as a fresh engine"
    );
    serial.assert_matches(
        &Trace::of(&mut reused, rounds),
        "reset_from a decoy to the JSON rebuild",
    );

    let outcome = Sweep::new(from_toml)
        .rounds(rounds)
        .threads(1)
        .run()
        .expect("one-seed sweep runs");
    assert_outcome_matches(&outcome[0], &serial, 0);

    serial
}

/// Sweeps `cfg` over `seeds` (`warmup` then `rounds` measured rounds
/// each, on `threads` workers), panics unless every outcome matches a
/// serial run of its seed, and returns those serial traces in seed
/// order.
pub fn check_sweep_per_seed(
    cfg: &SimConfig,
    seeds: std::ops::Range<u64>,
    warmup: u64,
    rounds: u64,
    threads: usize,
) -> Vec<Trace> {
    let outcomes = Sweep::new(cfg.clone())
        .seeds(seeds.clone())
        .warmup(warmup)
        .rounds(rounds)
        .threads(threads)
        .run()
        .expect("sweep runs");
    assert_eq!(
        outcomes.len() as u64,
        seeds.end - seeds.start,
        "one outcome per seed"
    );
    seeds
        .zip(&outcomes)
        .map(|(seed, outcome)| {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            let trace = Trace::of(&mut cfg.build(), warmup + rounds);
            assert_outcome_matches(outcome, &trace, warmup);
            trace
        })
        .collect()
}

/// Panics unless a sweep's `outcome` summarizes `serial` past its first
/// `warmup` rounds.
fn assert_outcome_matches(outcome: &RunOutcome, serial: &Trace, warmup: u64) {
    let measured = &serial.rounds[warmup as usize..];
    let last = measured.last().expect("at least one measured round");
    let regrets = measured.iter().map(|r| r.regret);
    assert_eq!(
        (
            outcome.summary.rounds(),
            outcome.summary.total_regret(),
            outcome.summary.max_instant_regret(),
            outcome.final_regret,
            outcome.final_loads.clone(),
        ),
        (
            measured.len() as u64,
            regrets.clone().map(u128::from).sum(),
            regrets.max().unwrap_or(0),
            last.regret,
            last.loads.iter().map(|&w| u64::from(w)).collect(),
        ),
        "seed {}: the sweep's (rounds, total regret, max regret, final regret, \
         final loads) diverged from the serial run",
        outcome.seed
    );
}

/// The round [`check_contract`] splits its run at: any round of the
/// run, picked by the seed.
fn split_round(cfg: &SimConfig, rounds: u64) -> u64 {
    cfg.seed % (rounds + 1)
}

/// The one pooled stepping call: all `threads` participants however
/// small the colony.
fn pooled(engine: &mut SyncEngine, rounds: u64, threads: usize, trace: &mut Trace) {
    engine.run_parallel_forced(rounds, threads, trace);
}

/// An engine left mid-run in a state unrelated to `cfg`: another colony
/// size and task count, a catalogue spec other than `cfg`'s, an arena
/// where `cfg` has none (and none or another geometry where it has
/// one), and a fired kill, spawn and trigger behind it — so its
/// one-shot cursor, trigger states, bank layout and arena columns are
/// all stale.
fn decoy(cfg: &SimConfig) -> SyncEngine {
    let k = cfg.demands.len();
    let decoy_k = if k >= 3 { 2 } else { k + 2 };
    let n = if cfg.n > 100 { cfg.n / 3 } else { cfg.n * 3 };
    let specs: Vec<_> = scenarios::multi_task_specs()
        .into_iter()
        .filter(|s| *s != cfg.controller)
        .collect();
    let spec = &specs[(cfg.seed % specs.len() as u64) as usize];
    let site_of_task: Vec<u32> = match (&cfg.arena, cfg.seed % 2) {
        (None, _) => (0..decoy_k as u32).map(|j| j % 2).collect(),
        (Some(_), 0) => Vec::new(),
        (Some(_), _) => (0..decoy_k as u32).collect(),
    };
    let mut builder = scenarios::colony(spec, n, decoy_k, cfg.seed ^ 0xDEC0)
        .event(3, Event::Kill { count: n / 3 })
        .event(5, Event::Spawn { count: n / 4 })
        .trigger(antalloc_env::Trigger::once(
            Condition::RoundReached { round: 2 },
            Event::Scramble,
        ));
    if !site_of_task.is_empty() {
        builder = builder.arena(antalloc_env::ArenaConfig {
            site_of_task,
            travel_rounds: 2,
            wander_probability: 0.3,
        });
    }
    let mut engine = builder.build().expect("valid decoy").build();
    pooled(&mut engine, 17, 3, &mut Trace::default());
    engine
}
