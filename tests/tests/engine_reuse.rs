//! Engine reuse: [`SyncEngine::reset_from`] must be indistinguishable
//! from building a fresh engine — bit-identical per-round traces and
//! final state — for every controller kind, for mixes, for
//! timeline-bearing configs, and across shape changes (`n` and `k`
//! growing or shrinking between jobs). This is the contract the sweep
//! fast path leans on when it recycles one engine across a million
//! runs.

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{ArenaConfig, Condition, Event, GenShock, Timeline, TimelineGen, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_sim::{
    Checkpoint, ControllerSpec, FnObserver, NullObserver, RoundRecord, SimConfig, Sweep, SyncEngine,
};
use proptest::prelude::*;

/// How many specs [`spec_for`] draws from.
const KINDS: usize = 11;

/// Every banked controller kind, plus 2- and 4-way mixes (the last is
/// the benchmark's four-kind colony) — the full set of bank layouts
/// `reset_from` has to rebuild in place.
fn spec_for(which: usize) -> ControllerSpec {
    match which {
        0 => ControllerSpec::Ant(AntParams::new(1.0 / 16.0)),
        1 => ControllerSpec::AntDesync(AntParams::new(1.0 / 32.0)),
        2 => ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
        3 => ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
        4 => ControllerSpec::Trivial,
        5 => ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
        6 => ControllerSpec::Hysteresis {
            depth: 3,
            lazy: Some(0.5),
        },
        7 => ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (1.0, ControllerSpec::Trivial),
        ]),
        8 => ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ),
            (1.0, ControllerSpec::Trivial),
            (
                1.0,
                ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ),
        ]),
        9 => proportional(),
        _ => ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ),
            (1.0, proportional()),
            (
                1.0,
                ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ),
        ]),
    }
}

/// A proportional controller whose deadband streaks stay non-zero often
/// enough that captures carry them.
fn proportional() -> ControllerSpec {
    ControllerSpec::Proportional(ProportionalParams {
        gain: 0.5,
        deadband: 2,
    })
}

fn cfg_for(which: usize, n: usize, k: usize, seed: u64) -> SimConfig {
    // Hysteresis machines observe a single task.
    let k = if which == 6 { 1 } else { k };
    let demands: Vec<u64> = (0..k).map(|j| (n / (2 * k) + j + 1) as u64).collect();
    SimConfig::builder(n, demands)
        .noise(NoiseModel::Sigmoid { lambda: 1.5 })
        .controller(spec_for(which))
        .seed(seed)
        .build()
        .expect("valid scenario")
}

/// Per-round trace plus final state; equality here is the strongest
/// observable statement of "same engine".
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    rounds: Vec<(u64, u64, u64)>,
    assignments: Vec<antalloc_env::Assignment>,
    loads: Vec<u32>,
    idle: u64,
}

fn trace(engine: &mut SyncEngine, rounds: u64) -> Trace {
    let mut per_round = Vec::new();
    let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
        per_round.push((r.round, r.instant_regret(), r.switches));
    });
    engine.run(rounds, &mut obs);
    Trace {
        rounds: per_round,
        assignments: engine.colony().assignments(),
        loads: engine.colony().loads().to_vec(),
        idle: engine.colony().idle_count(),
    }
}

/// An engine left in a deliberately unrelated state: different shape,
/// different controller, mid-run. `reset_from` must erase all of it.
fn dirty_engine(which: usize) -> SyncEngine {
    decoy_engine(which, 173, false)
}

/// A decoy of another kind with `n` ants, in a two-site arena or
/// well-mixed, left mid-run (ants in transit included).
fn decoy_engine(which: usize, n: usize, arena: bool) -> SyncEngine {
    let mut decoy = cfg_for((which + 3) % KINDS, n, 2, 0xDEC0);
    if arena {
        decoy.arena = Some(two_sites(decoy.demands.len()));
    }
    let mut engine = decoy.build();
    engine.run(17, &mut NullObserver);
    engine
}

/// A two-site arena over `k` tasks (one site for a single task).
fn two_sites(k: usize) -> ArenaConfig {
    ArenaConfig {
        site_of_task: (0..k as u32).map(|j| j % 2).collect(),
        travel_rounds: 2,
        wander_probability: 0.3,
    }
}

proptest! {
    /// `reset_from` == fresh build, full-trace, for every bank layout.
    #[test]
    fn reset_matches_fresh_build_for_every_controller(
        which in 0usize..KINDS,
        n in 60usize..200,
        seed: u64,
        rounds in 1u64..40,
    ) {
        let cfg = cfg_for(which, n, 3, seed);
        let mut fresh = cfg.build();
        let mut reused = dirty_engine(which);
        reused.reset_from(&cfg);
        prop_assert_eq!(trace(&mut fresh, rounds), trace(&mut reused, rounds));
    }

    /// Timeline-bearing configs: fixed events, a state-dependent
    /// trigger, and a generated shock schedule all recompile against
    /// the reset engine's seed and shape.
    #[test]
    fn reset_matches_fresh_build_with_timelines(
        pick in 0usize..KINDS - 1,
        seed: u64,
        rounds in 50u64..120,
    ) {
        // All kinds except Hysteresis, whose single-task constraint is
        // incompatible with this timeline's 3-task demand step.
        let which = [0, 1, 2, 3, 4, 5, 7, 8, 9, 10][pick];
        let n = 240usize;
        let mut cfg = cfg_for(which, n, 3, seed);
        cfg.timeline = Timeline::new()
            .at(7, Event::Kill { count: 40 })
            .at(23, Event::SetDemands(vec![50, 30, 20]))
            .at(41, Event::Spawn { count: 25 })
            .trigger(Trigger {
                when: Condition::RegretBelow {
                    threshold: (n / 6) as u64,
                    for_rounds: 5,
                },
                event: Event::Scramble,
                cooldown: 30,
                max_firings: 2,
            })
            .generate(TimelineGen {
                start: 10,
                until: 110,
                mean_gap: 25.0,
                shock: GenShock::Kill {
                    min_frac: 0.02,
                    max_frac: 0.05,
                },
            });
        let mut fresh = cfg.build();
        let mut reused = dirty_engine(which);
        reused.reset_from(&cfg);
        prop_assert_eq!(trace(&mut fresh, rounds), trace(&mut reused, rounds));
        prop_assert_eq!(fresh.trigger_states(), reused.trigger_states());
    }

    /// Checkpoint-restore into a *reused* engine: `restore_into` on a
    /// dirty engine must land in exactly the state `restore` builds
    /// from scratch, and both must continue bit-identically — whatever
    /// the decoy's size (smaller or larger than the captured colony, so
    /// every reused column shrinks or grows) and whether either side has
    /// an arena.
    #[test]
    fn restore_into_reused_engine_matches_restore(
        pick in 0usize..8,
        seed: u64,
        round in 1u64..40,
        tail in 1u64..30,
        decoy in 0usize..4,
        arena in 0u8..2,
    ) {
        // Specs with exact restores (Adversarial's 320-round phase and
        // AntDesync's approximate restores are out of scope; Hysteresis
        // is single-task, incompatible with this 3-task demand step).
        let which = [0, 2, 4, 5, 7, 8, 9, 10][pick];
        let mut cfg = cfg_for(which, 120, 3, seed);
        cfg.timeline = Timeline::new()
            .at(5, Event::Kill { count: 30 })
            .at(13, Event::SetDemands(vec![40, 20, 15]))
            .at(29, Event::Spawn { count: 20 });
        if arena == 1 {
            cfg.arena = Some(two_sites(3));
        }
        // Kinds that carry their mid-phase state capture at any round,
        // odd ones included; the rest at their phase boundaries.
        let split = round - round % cfg.controller.capture_phase_len(3);

        let mut head = cfg.build();
        head.run(split, &mut NullObserver);
        let cp = Checkpoint::capture(&head).expect("capture round");

        let mut fresh = cp.restore();
        let (n, with_arena) = [(40, false), (40, true), (400, false), (400, true)][decoy];
        let mut reused = decoy_engine(which, n, with_arena);
        cp.restore_into(&mut reused);
        prop_assert_eq!(trace(&mut fresh, tail), trace(&mut reused, tail));
    }
}

/// `n` and `k` grow and shrink across consecutive reuses of a single
/// engine — the shape churn an axis over colony size or task count
/// produces in a sweep.
#[test]
fn reset_handles_shape_changes_in_both_directions() {
    // (controller, n, k): grow n, shrink n, grow k, shrink k.
    let jobs = [
        (0usize, 300usize, 3usize),
        (7, 80, 2),
        (2, 500, 4),
        (5, 140, 2),
        (8, 450, 5),
    ];
    let mut reused: Option<SyncEngine> = None;
    for (i, &(which, n, k)) in jobs.iter().enumerate() {
        let cfg = cfg_for(which, n, k, 1000 + i as u64);
        let mut fresh = cfg.build();
        let mut engine = match reused.take() {
            Some(mut e) => {
                e.reset_from(&cfg);
                e
            }
            None => cfg.build(),
        };
        assert_eq!(
            trace(&mut fresh, 60),
            trace(&mut engine, 60),
            "job {i}: n = {n}, k = {k}"
        );
        reused = Some(engine);
    }
}

/// The user-facing knob: a sweep with engine reuse on (the default)
/// must produce outcomes identical to one with reuse off.
#[test]
fn sweep_outcomes_identical_with_and_without_engine_reuse() {
    let base = cfg_for(0, 200, 3, 7);
    let run = |reuse: bool| {
        Sweep::new(base.clone())
            .axis_labeled(
                "controller",
                [
                    ("ant", spec_for(0)),
                    ("sigmoid", spec_for(2)),
                    ("mix4", spec_for(8)),
                ],
                |cfg, spec| cfg.controller = spec.clone(),
            )
            .axis_labeled(
                "shock",
                [
                    ("none", Timeline::new()),
                    ("kill", Timeline::new().at(10, Event::Kill { count: 50 })),
                ],
                |cfg, timeline| cfg.timeline = timeline.clone(),
            )
            .seeds([1, 2, 3])
            .rounds(40)
            .warmup(10)
            .threads(3)
            .engine_reuse(reuse)
            .run()
            .expect("sweep runs")
    };
    let reused = run(true);
    let cold = run(false);
    assert_eq!(reused.len(), cold.len());
    for (a, b) in reused.iter().zip(&cold) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.params, b.params);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.final_regret, b.final_regret);
        assert_eq!(a.final_loads, b.final_loads);
        assert_eq!(a.summary.rounds(), b.summary.rounds());
        assert_eq!(a.summary.total_regret(), b.summary.total_regret());
        assert_eq!(
            a.summary.max_instant_regret(),
            b.summary.max_instant_regret()
        );
    }
}

/// `reset_from` and `restore_into` keep an engine's arena columns and
/// rewrite them in place. An engine left mid-run in another arena
/// (other geometry, latency, wander rate, size and seed, ants in
/// transit) — or in none — must still match a fresh build and a fresh
/// restore, and dropping the arena must leave a well-mixed engine.
#[test]
fn arena_columns_are_reused_without_leaking_state() {
    use antalloc_env::ArenaConfig;

    let arena = |sites: u32, travel_rounds, wander_probability| ArenaConfig {
        site_of_task: (0..3).map(|j| j % sites).collect(),
        travel_rounds,
        wander_probability,
    };
    let with_arena = |n, seed, a: Option<ArenaConfig>| {
        let mut cfg = cfg_for(8, n, 3, seed);
        cfg.arena = a;
        cfg
    };
    let target = with_arena(300, 41, Some(arena(3, 2, 0.2)));
    let decoys = [
        with_arena(420, 7, Some(arena(2, 4, 0.5))),
        with_arena(90, 8, Some(arena(3, 1, 0.9))),
        with_arena(200, 9, None),
    ];
    let mut head = target.build();
    head.run(24, &mut NullObserver);
    let cp = Checkpoint::capture(&head).expect("phase boundary");
    for (i, decoy) in decoys.iter().enumerate() {
        let mut fresh = target.build();
        let mut reused = decoy.build();
        reused.run(11, &mut NullObserver);
        reused.reset_from(&target);
        assert_eq!(trace(&mut fresh, 40), trace(&mut reused, 40), "decoy {i}");

        let mut restored = cp.restore();
        let mut dirty = decoy.build();
        dirty.run(13, &mut NullObserver);
        cp.restore_into(&mut dirty);
        assert_eq!(trace(&mut restored, 40), trace(&mut dirty, 40), "decoy {i}");

        // Back to well-mixed on the same engine.
        let plain = with_arena(150, 3, None);
        dirty.reset_from(&plain);
        assert_eq!(
            trace(&mut plain.build(), 20),
            trace(&mut dirty, 20),
            "decoy {i}"
        );
    }
}
