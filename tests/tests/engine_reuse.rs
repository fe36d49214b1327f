//! Engine reuse: [`SyncEngine::reset_from`] and `restore_into` must be
//! indistinguishable from building a fresh engine — bit-identical
//! per-round traces and final state — for every controller kind, for
//! mixes, for timeline-bearing configs, across arenas, and across shape
//! changes (`n` and `k` growing or shrinking between jobs). This is the
//! contract the sweep fast path leans on when it recycles one engine
//! across a million runs. The shared oracle resets and restores dirty
//! decoys of another shape, kind and arena on every scenario.

use antalloc_env::{ArenaConfig, Condition, Event, GenShock, Timeline, TimelineGen, Trigger};
use antalloc_sim::{ControllerSpec, SimConfig, Sweep, SyncEngine};
use antalloc_tests::contract::{check_contract, check_contract_at, Trace};
use antalloc_tests::scenarios;

/// Every catalogue spec with `n` ants, seed `i`, over three tasks (one
/// for single-task specs).
fn each_spec(n: usize) -> impl Iterator<Item = SimConfig> {
    scenarios::specs()
        .into_iter()
        .enumerate()
        .map(move |(i, spec)| {
            let k = if scenarios::single_task(&spec) { 1 } else { 3 };
            scenarios::colony(&spec, n + 11 * i, k, i as u64)
                .build()
                .expect("valid scenario")
        })
}

/// `reset_from` == fresh build for every bank layout, from every
/// initial configuration.
#[test]
fn reset_matches_fresh_build_for_every_controller() {
    for (i, mut cfg) in each_spec(60).enumerate() {
        let initials = scenarios::initials(cfg.demands.len());
        cfg.initial = initials[i % initials.len()].clone();
        check_contract(&cfg, 39);
    }
}

/// Timeline-bearing configs: fixed events, a state-dependent trigger,
/// and a generated shock schedule all recompile against the reset
/// engine's seed and shape.
#[test]
fn reset_matches_fresh_build_with_timelines() {
    for mut cfg in each_spec(120).filter(|cfg| cfg.demands.len() == 3) {
        cfg.timeline = Timeline::new()
            .at(7, Event::Kill { count: 20 })
            .at(23, Event::SetDemands(vec![25, 15, 10]))
            .at(41, Event::Spawn { count: 25 })
            .trigger(Trigger {
                when: Condition::RegretBelow {
                    threshold: (cfg.n / 6) as u64,
                    for_rounds: 5,
                },
                event: Event::Scramble,
                cooldown: 30,
                max_firings: 2,
            })
            .generate(TimelineGen {
                start: 10,
                until: 55,
                mean_gap: 25.0,
                shock: GenShock::Kill {
                    min_frac: 0.02,
                    max_frac: 0.05,
                },
            });
        check_contract(&cfg, 60);
    }
}

/// Checkpoint-restore into a *reused* engine — smaller or larger than
/// the captured colony, so every reused column shrinks or grows, with
/// an arena on either side or neither — lands in exactly the state a
/// fresh restore builds, and both continue bit-identically.
#[test]
fn restore_into_reused_engine_matches_restore() {
    for (i, mut cfg) in each_spec(120).enumerate() {
        let k = cfg.demands.len();
        cfg.timeline = Timeline::new()
            .at(5, Event::Kill { count: 30 })
            .at(13, Event::SetDemands(vec![40; k]))
            .at(29, Event::Spawn { count: 20 });
        if i % 2 == 1 && k > 1 {
            cfg.arena = Some(ArenaConfig {
                site_of_task: (0..k as u32).map(|j| j % 2).collect(),
                travel_rounds: 2,
                wander_probability: 0.3,
            });
        }
        check_contract_at(&cfg, 40, 3 * i as u64 + 1);
    }
}

/// `n` and `k` grow and shrink across consecutive reuses of a single
/// engine — the shape churn an axis over colony size or task count
/// produces in a sweep.
#[test]
fn reset_handles_shape_changes_in_both_directions() {
    let (kinds, mixes) = (scenarios::kinds(), scenarios::mixes());
    // (controller, n, k): grow n, shrink n, grow k, shrink k.
    let jobs = [
        (&kinds[0], 300usize, 3usize),
        (&mixes[0], 80, 2),
        (&kinds[2], 500, 4),
        (&kinds[5], 140, 2),
        (&mixes[3], 450, 5),
    ];
    let mut reused: Option<SyncEngine> = None;
    for (i, &(spec, n, k)) in jobs.iter().enumerate() {
        let cfg = scenarios::colony(spec, n, k, 1000 + i as u64)
            .build()
            .expect("valid scenario");
        let mut engine = match reused.take() {
            Some(mut e) => {
                e.reset_from(&cfg);
                e
            }
            None => cfg.build(),
        };
        Trace::of(&mut cfg.build(), 60).assert_matches(
            &Trace::of(&mut engine, 60),
            &format!("job {i}: n = {n}, k = {k}"),
        );
        reused = Some(engine);
    }
}

/// The user-facing knob: a sweep with engine reuse on (the default)
/// must produce outcomes identical to one with reuse off.
#[test]
fn sweep_outcomes_identical_with_and_without_engine_reuse() {
    let (kinds, mixes) = (scenarios::kinds(), scenarios::mixes());
    let base = scenarios::colony(&kinds[0], 200, 3, 7)
        .build()
        .expect("valid scenario");
    let run = |reuse: bool| {
        Sweep::new(base.clone())
            .axis_labeled(
                "controller",
                [
                    ("ant", kinds[0].clone()),
                    ("sigmoid", kinds[2].clone()),
                    ("mix4", mixes[3].clone()),
                ],
                |cfg, spec: &ControllerSpec| cfg.controller = spec.clone(),
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
    antalloc_tests::assert_same_outcomes("engine reuse", &run(true), &run(false));
}

/// `reset_from` and `restore_into` keep an engine's arena columns and
/// rewrite them in place. The oracle's decoys are left mid-run in
/// another arena (other geometry, latency, wander rate, size and seed,
/// ants in transit) or in none: a 3-site target must match a fresh
/// build and a fresh restore from either, and a well-mixed target
/// reset on an arena decoy must leave a well-mixed engine.
#[test]
fn arena_columns_are_reused_without_leaking_state() {
    let three_sites = ArenaConfig {
        site_of_task: vec![0, 1, 2],
        travel_rounds: 2,
        wander_probability: 0.2,
    };
    for (seed, arena) in [
        (41u64, Some(&three_sites)),
        (42, Some(&three_sites)),
        (3, None),
    ] {
        let mut cfg = scenarios::colony(&scenarios::mixes()[3], 300, 3, seed)
            .build()
            .expect("valid scenario");
        cfg.arena = arena.cloned();
        check_contract_at(&cfg, 64, 24);
    }
}
