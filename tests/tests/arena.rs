//! The sensing layer's contract: a single-site zero-latency arena *is*
//! the well-mixed colony (bit-identical, for every controller kind),
//! multi-site arenas keep the full determinism contract (serial ==
//! parallel == checkpoint-restore), and the proportional controller
//! rides the same machinery end to end.

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};
use antalloc_env::{ArenaConfig, Condition, Event, Timeline, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_sim::{
    Checkpoint, ConfigError, ControllerSpec, FnObserver, NullObserver, RoundRecord, SimConfig,
};

/// One round's observable outcome.
type Trace = Vec<(u64, Vec<u32>, u64, u64)>; // (round, loads, idle, switches)

fn trace_of(engine: &mut antalloc_sim::SyncEngine, rounds: u64) -> Trace {
    let mut trace = Trace::new();
    {
        let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
            trace.push((r.round, r.loads.to_vec(), r.idle, r.switches));
        });
        engine.run(rounds, &mut obs);
    }
    trace
}

/// Every banked controller kind (the `banks.rs` matrix, including the
/// proportional rival and a mix containing it).
fn every_spec() -> Vec<(ControllerSpec, usize)> {
    vec![
        (ControllerSpec::Ant(AntParams::new(1.0 / 16.0)), 3),
        (ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)), 2),
        (
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            2,
        ),
        (
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
            2,
        ),
        (ControllerSpec::Trivial, 3),
        (ControllerSpec::ExactGreedy(ExactGreedyParams::default()), 2),
        (
            ControllerSpec::Proportional(ProportionalParams {
                gain: 0.25,
                deadband: 2,
            }),
            3,
        ),
        (
            ControllerSpec::Hysteresis {
                depth: 3,
                lazy: Some(0.5),
            },
            1,
        ),
        (
            ControllerSpec::Mix(vec![
                (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (
                    1.0,
                    ControllerSpec::Proportional(ProportionalParams::default()),
                ),
                (1.0, ControllerSpec::Trivial),
            ]),
            2,
        ),
    ]
}

fn config_for(
    spec: &ControllerSpec,
    k: usize,
    n: usize,
    seed: u64,
    arena: Option<ArenaConfig>,
) -> SimConfig {
    let demands: Vec<u64> = (0..k).map(|j| (n / (2 * k) + j + 1) as u64).collect();
    let mut builder = SimConfig::builder(n, demands)
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(spec.clone())
        .seed(seed);
    if let Some(arena) = arena {
        builder = builder.arena(arena);
    }
    builder.build().expect("valid scenario")
}

/// A 3-site arena over `k` tasks (`k % 3` distribution), with latency
/// and wandering turned on.
fn multi_site(k: usize) -> ArenaConfig {
    let num_sites = k.min(3) as u32;
    ArenaConfig {
        site_of_task: (0..k).map(|j| j as u32 % num_sites).collect(),
        travel_rounds: 3,
        wander_probability: 0.15,
    }
}

#[test]
fn single_site_zero_latency_arena_equals_well_mixed_for_every_spec() {
    // The degenerate geometry must compile to the shared well-mixed
    // view: identical traces, round for round, for every banked kind.
    for (spec, k) in every_spec() {
        for seed in [3u64, 71] {
            let mixed_cfg = config_for(&spec, k, 120, seed, None);
            let arena_cfg = config_for(&spec, k, 120, seed, Some(ArenaConfig::single_site(k)));
            let mixed = trace_of(&mut mixed_cfg.build(), 41);
            let arena = trace_of(&mut arena_cfg.build(), 41);
            assert_eq!(mixed, arena, "trace diverged: {spec:?} seed {seed}");
        }
    }
}

#[test]
fn single_site_arena_with_latency_still_equals_well_mixed() {
    // With one site there is nowhere to travel to, so even a nonzero
    // latency never engages; only the wander coin (its own reserved
    // stream) differs, which must stay invisible to the ants.
    let spec = ControllerSpec::Ant(AntParams::new(1.0 / 16.0));
    let mixed_cfg = config_for(&spec, 2, 200, 9, None);
    let arena_cfg = config_for(
        &spec,
        2,
        200,
        9,
        Some(ArenaConfig {
            site_of_task: vec![0, 0],
            travel_rounds: 5,
            wander_probability: 0.4,
        }),
    );
    let mixed = trace_of(&mut mixed_cfg.build(), 80);
    let arena = trace_of(&mut arena_cfg.build(), 80);
    assert_eq!(mixed, arena);
}

#[test]
fn multi_site_arena_serial_equals_parallel() {
    for (spec, k) in [
        (ControllerSpec::Ant(AntParams::new(1.0 / 16.0)), 3),
        (
            ControllerSpec::Proportional(ProportionalParams::default()),
            3,
        ),
        (
            ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (
                    1.0,
                    ControllerSpec::Proportional(ProportionalParams {
                        gain: 0.5,
                        deadband: 1,
                    }),
                ),
            ]),
            3,
        ),
    ] {
        let cfg = config_for(&spec, k, 600, 17, Some(multi_site(k)));
        let mut serial = cfg.build();
        let mut obs = NullObserver;
        serial.run(150, &mut obs);
        for threads in [2usize, 4] {
            let mut par = cfg.build();
            par.run_parallel_forced(150, threads, &mut obs);
            assert_eq!(
                serial.colony().assignments(),
                par.colony().assignments(),
                "{spec:?} threads = {threads}"
            );
            assert_eq!(serial.colony().loads(), par.colony().loads());
        }
    }
}

#[test]
fn multi_site_arena_checkpoint_restore_is_exact() {
    // Capture mid-run with travelers in flight (travel_rounds = 3,
    // wander on): the position and travel columns travel in the
    // checkpoint, so the continuation must be bit-identical.
    let spec = ControllerSpec::Mix(vec![
        (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
        (
            1.0,
            ControllerSpec::Proportional(ProportionalParams {
                gain: 0.5,
                deadband: 2,
            }),
        ),
    ]);
    let cfg = config_for(&spec, 3, 400, 23, Some(multi_site(3)));
    let mut obs = NullObserver;
    for split in [2u64, 10, 36] {
        let mut full = cfg.build();
        full.run(split + 60, &mut obs);

        let mut head = cfg.build();
        head.run(split, &mut obs);
        let cp = Checkpoint::capture(&head).expect("phase boundary");
        let decoded = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes");
        assert_eq!(decoded, cp, "arena columns round-trip");
        let mut resumed = decoded.restore();
        resumed.run(60, &mut obs);
        assert_eq!(
            full.colony().assignments(),
            resumed.colony().assignments(),
            "split = {split}"
        );
        assert_eq!(full.colony().loads(), resumed.colony().loads());

        // restore_into a dirty engine of a different shape agrees too.
        let mut reused = config_for(&ControllerSpec::Trivial, 2, 50, 99, None).build();
        reused.run(5, &mut obs);
        decoded.restore_into(&mut reused);
        reused.run(60, &mut obs);
        assert_eq!(
            resumed.colony().assignments(),
            reused.colony().assignments()
        );
        assert_eq!(resumed.colony().loads(), reused.colony().loads());
    }
}

#[test]
fn arena_survives_timeline_shocks_bit_identically() {
    // Kill / scramble / per-task demand step under a multi-site arena:
    // serial, parallel and a mid-timeline checkpoint must agree.
    let spec = ControllerSpec::Proportional(ProportionalParams::default());
    let demands = vec![80u64, 90, 100];
    let timeline = Timeline::new()
        .at(11, Event::Kill { count: 90 })
        .at(
            23,
            Event::SetTaskDemand {
                task: 2,
                demand: 150,
            },
        )
        .at(37, Event::Scramble)
        .at(49, Event::Spawn { count: 45 });
    let cfg = SimConfig::builder(450, demands)
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(spec)
        .seed(31)
        .arena(multi_site(3))
        .timeline(timeline)
        .build()
        .expect("valid scenario");

    let mut obs = NullObserver;
    let mut serial = cfg.build();
    serial.run(90, &mut obs);

    let mut par = cfg.build();
    par.run_parallel_forced(90, 4, &mut obs);
    assert_eq!(serial.colony().assignments(), par.colony().assignments());
    assert_eq!(serial.colony().loads(), par.colony().loads());

    // Checkpoint between the scramble and the spawn.
    let mut head = cfg.build();
    head.run(40, &mut obs);
    let cp = Checkpoint::from_bytes(&Checkpoint::capture(&head).unwrap().to_bytes()).unwrap();
    let mut resumed = cp.restore();
    resumed.run(50, &mut obs);
    assert_eq!(
        serial.colony().assignments(),
        resumed.colony().assignments()
    );
    assert_eq!(serial.colony().loads(), resumed.colony().loads());
}

#[test]
fn deficit_triggers_fire_identically_on_every_path() {
    // A deficit-above trigger answering a per-task demand step, plus a
    // rate trigger: firing rounds are part of the bit-identity contract.
    let timeline = Timeline::new()
        .at(
            15,
            Event::SetTaskDemand {
                task: 0,
                demand: 160,
            },
        )
        .trigger(Trigger {
            when: Condition::DeficitAbove {
                task: 0,
                threshold: 30,
                for_rounds: 4,
            },
            event: Event::Spawn { count: 60 },
            cooldown: 40,
            max_firings: 2,
        })
        .trigger(Trigger::once(
            Condition::DeficitRateAbove {
                task: 1,
                min_rise: 20,
                for_rounds: 1,
            },
            Event::SetTaskDemand {
                task: 1,
                demand: 70,
            },
        ));
    let cfg = SimConfig::builder(500, vec![90, 110])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Proportional(ProportionalParams::default()))
        .seed(61)
        .timeline(timeline)
        .build()
        .expect("valid scenario");

    let mut obs = NullObserver;
    let mut serial = cfg.build();
    serial.run(120, &mut obs);
    assert!(
        serial.trigger_states().iter().any(|t| t.firings > 0),
        "the deficit trigger never fired; the scenario is vacuous"
    );

    let mut par = cfg.build();
    par.run_parallel_forced(120, 4, &mut obs);
    assert_eq!(serial.colony().assignments(), par.colony().assignments());
    assert_eq!(serial.trigger_states(), par.trigger_states());

    // Mid-window capture: the previous-round deficits travel in the
    // checkpoint, so a restore inside a rate trigger's streak continues
    // exactly.
    for split in [10u64, 17, 30] {
        let mut head = cfg.build();
        head.run(split, &mut obs);
        let cp = Checkpoint::from_bytes(&Checkpoint::capture(&head).unwrap().to_bytes()).unwrap();
        let mut resumed = cp.restore();
        resumed.run(120 - split, &mut obs);
        assert_eq!(
            serial.colony().assignments(),
            resumed.colony().assignments(),
            "split = {split}"
        );
        assert_eq!(serial.trigger_states(), resumed.trigger_states());
    }
}

#[test]
fn invalid_arenas_are_rejected_with_typed_errors() {
    let build = |arena: ArenaConfig| {
        SimConfig::builder(100, vec![20, 30])
            .controller(ControllerSpec::Trivial)
            .arena(arena)
            .build()
            .unwrap_err()
    };
    // Wrong task count.
    let err = build(ArenaConfig::single_site(3));
    assert!(matches!(err, ConfigError::Arena(_)), "{err}");
    // Non-dense site ids (site 1 hosts no task).
    let err = build(ArenaConfig {
        site_of_task: vec![0, 2],
        travel_rounds: 0,
        wander_probability: 0.0,
    });
    assert!(matches!(err, ConfigError::Arena(_)), "{err}");
    // Wander probability outside [0, 1].
    for bad in [-0.1, 1.5, f64::NAN] {
        let err = build(ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 0,
            wander_probability: bad,
        });
        assert!(matches!(err, ConfigError::Arena(_)), "wander {bad}: {err}");
    }
}

#[test]
fn sequential_model_rejects_arenas() {
    let cfg = config_for(
        &ControllerSpec::Trivial,
        2,
        100,
        1,
        Some(ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 0,
            wander_probability: 0.0,
        }),
    );
    let err = match cfg.try_build_sequential() {
        Ok(_) => panic!("sequential build accepted an arena config"),
        Err(e) => e,
    };
    assert!(matches!(err, ConfigError::Arena(_)), "{err}");
}

#[test]
fn task_count_above_the_mask_cap_is_a_typed_error() {
    // The 64-task `lack_mask` fast path (and the 4096-task sensing row
    // cap) are enforced at build time, not by a kernel assert.
    let demands = vec![1u64; antalloc_sim::MAX_TASKS + 1];
    let err = SimConfig::builder(10_000, demands)
        .controller(ControllerSpec::Trivial)
        .noise(NoiseModel::Exact)
        .build()
        .unwrap_err();
    assert!(matches!(err, ConfigError::TooManyTasks { .. }), "{err}");
    assert!(err.to_string().contains("4096"), "{err}");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random spec × colony size × seed: the degenerate arena is
        /// bit-identical to the well-mixed colony for every banked kind.
        #[test]
        fn degenerate_arena_equals_well_mixed(
            which in 0usize..9,
            n in 20usize..160,
            seed: u64,
            rounds in 1u64..30,
        ) {
            let (spec, k) = every_spec().swap_remove(which);
            let mixed_cfg = config_for(&spec, k, n, seed, None);
            let arena_cfg = config_for(&spec, k, n, seed, Some(ArenaConfig::single_site(k)));
            let mixed = trace_of(&mut mixed_cfg.build(), rounds);
            let arena = trace_of(&mut arena_cfg.build(), rounds);
            prop_assert_eq!(mixed, arena);
        }

        /// Random multi-site geometry: serial and parallel stepping
        /// agree round for round, and a mid-run checkpoint continues
        /// exactly. With `shocks`, a scripted kill shrinks the colony
        /// below 16 ants per participant (so trailing parts are empty),
        /// a population trigger arms on the first round of the kill's
        /// scope and spawns ants back, and a scripted spawn regrows the
        /// rest: every repartition must match serial, trigger states
        /// included.
        #[test]
        fn multi_site_contract_holds(
            seed: u64,
            travel in 0u32..5,
            wander in 0.0f64..0.5,
            boundary in 1u64..20,
            tail in 1u64..20,
            sites in 2u32..4,
            shocks: bool,
            survivors in 1usize..32,
            kill_at in 1u64..30,
        ) {
            let arena = ArenaConfig {
                site_of_task: (0..3).map(|j| j % sites).collect(),
                travel_rounds: travel,
                wander_probability: wander,
            };
            let spec = ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (1.0, ControllerSpec::Proportional(ProportionalParams::default())),
            ]);
            let mut cfg = config_for(&spec, 3, 150, seed, Some(arena));
            if shocks {
                cfg.timeline = Timeline::new()
                    .at(kill_at, Event::Kill { count: 150 - survivors })
                    .at(kill_at + 4, Event::Spawn { count: 75 })
                    .trigger(Trigger::once(
                        Condition::PopulationBelow { threshold: 32 },
                        Event::Spawn { count: 50 },
                    ));
            }
            let split = boundary * 2; // mix capture phase is 2
            let total = split + tail;
            let mut obs = NullObserver;

            let mut serial = cfg.build();
            let serial_trace = trace_of(&mut serial, total);
            for threads in [2usize, 4, 8] {
                let mut par = cfg.build();
                let mut par_trace = Trace::new();
                {
                    let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
                        par_trace.push((r.round, r.loads.to_vec(), r.idle, r.switches));
                    });
                    par.run_parallel_forced(total, threads, &mut obs);
                }
                prop_assert_eq!(&serial_trace, &par_trace, "threads = {}", threads);
                prop_assert_eq!(serial.colony().assignments(), par.colony().assignments());
                prop_assert_eq!(serial.trigger_states(), par.trigger_states());
            }

            let mut head = cfg.build();
            head.run(split, &mut obs);
            let cp = Checkpoint::from_bytes(
                &Checkpoint::capture(&head).expect("phase boundary").to_bytes(),
            ).expect("decodes");
            let mut resumed = cp.restore();
            resumed.run(tail, &mut obs);
            prop_assert_eq!(serial.colony().assignments(), resumed.colony().assignments());
            prop_assert_eq!(serial.colony().loads(), resumed.colony().loads());
        }

        /// The proportional controller holds the full contract on its
        /// own: serial == parallel == checkpoint-restore, well-mixed
        /// and arena alike.
        #[test]
        fn proportional_full_contract(
            seed: u64,
            gain in 0.05f64..1.0,
            deadband in 0u16..6,
            use_arena: bool,
            boundary in 1u64..25,
            tail in 1u64..25,
        ) {
            let spec = ControllerSpec::Proportional(ProportionalParams { gain, deadband });
            let arena = use_arena.then(|| multi_site(2));
            let cfg = config_for(&spec, 2, 130, seed, arena);
            let total = boundary + tail; // capture phase is 1
            let mut obs = NullObserver;

            let mut serial = cfg.build();
            serial.run(total, &mut obs);

            let mut par = cfg.build();
            par.run_parallel_forced(total, 4, &mut obs);
            prop_assert_eq!(serial.colony().assignments(), par.colony().assignments());

            let mut head = cfg.build();
            head.run(boundary, &mut obs);
            let cp = Checkpoint::from_bytes(
                &Checkpoint::capture(&head).expect("any round").to_bytes(),
            ).expect("decodes");
            let mut resumed = cp.restore();
            resumed.run(tail, &mut obs);
            prop_assert_eq!(serial.colony().assignments(), resumed.colony().assignments());
            prop_assert_eq!(serial.colony().loads(), resumed.colony().loads());
        }
    }
}
