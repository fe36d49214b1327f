//! The bank-stepping contract: for **every** `ControllerSpec` variant,
//! the banked engine is bit-identical, round for round, to the per-ant
//! reference loop (the pre-bank engine semantics) — and mixed colonies
//! survive kill/spawn/checkpoint/restore with exact replays.

use antalloc_core::Controller as _;
use antalloc_env::{ColonyState, DemandVector, Event, Perturbation, Timeline};
use antalloc_noise::{FeedbackProbe, NoiseModel};
use antalloc_rng::{reserved, AntRng, StreamSeeder};
use antalloc_sim::{Checkpoint, ControllerSpec, FnObserver, NullObserver, RoundRecord, SimConfig};

use antalloc_core::{
    AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
    ProportionalParams,
};

/// One round's observable outcome.
type Trace = Vec<(u64, Vec<u32>, u64, u64)>; // (round, loads, idle, switches)

/// Replays `cfg` with the pre-bank semantics: a flat `Vec<AnyController>`
/// stepped per ant, each through its own probe on its stream for the
/// round, decisions applied in ant order as they are made. The
/// controllers themselves are cloned out of a freshly built engine
/// (`reference_controllers`), so mixed-colony membership matches by
/// construction.
fn reference_trace(cfg: &SimConfig, rounds: u64) -> (Trace, Vec<u32>) {
    let demands = DemandVector::new(cfg.demands.clone());
    let seeder = StreamSeeder::new(cfg.seed);
    let mut colony = ColonyState::new(cfg.n, demands);
    let mut init_rng = seeder.stream(reserved::INIT);
    cfg.initial.apply(&mut colony, &mut init_rng);
    let mut controllers = {
        let engine = cfg.build();
        engine.reference_controllers()
    };
    let mut deficits = vec![0i64; colony.num_tasks()];
    let mut trace = Trace::new();
    let mut cursor = 0usize;
    let mut fired: Vec<Event> = Vec::new();
    for round in 1..=rounds {
        // The per-ant reference models the pure environment events
        // (demand rewrites); population shocks are exercised by the
        // dedicated timeline replay tests instead.
        fired.clear();
        cfg.timeline.fire_into(round, &mut cursor, &mut fired);
        for event in fired.drain(..) {
            match event {
                Event::SetDemands(new) => colony.demands_mut().set(&new),
                other => panic!("reference trace cannot apply {other:?}"),
            }
        }
        colony.deficits_into(&mut deficits);
        let prepared = cfg
            .noise
            .prepare(round, &deficits, colony.demands().as_slice());
        let mut switches = 0u64;
        let key = seeder.round_key(round);
        for (i, controller) in controllers.iter_mut().enumerate() {
            let mut rng = AntRng::keyed(key, i as u64);
            let mut probe = FeedbackProbe::new(&prepared, &mut rng);
            let next = controller.step(&mut probe);
            if next != colony.assignment(i) {
                switches += 1;
                colony.apply(i, next);
            }
        }
        trace.push((
            round,
            colony.loads().to_vec(),
            colony.idle_count(),
            switches,
        ));
    }
    let final_loads = colony.loads().to_vec();
    (trace, final_loads)
}

/// Runs the banked engine and records the same observables.
fn banked_trace(cfg: &SimConfig, rounds: u64) -> (Trace, Vec<u32>) {
    let mut engine = cfg.build();
    let mut trace = Trace::new();
    {
        let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
            trace.push((r.round, r.loads.to_vec(), r.idle, r.switches));
        });
        engine.run(rounds, &mut obs);
    }
    let final_loads = engine.colony().loads().to_vec();
    (trace, final_loads)
}

fn every_spec() -> Vec<(ControllerSpec, usize)> {
    // (spec, task count) — hysteresis machines observe one task.
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
                    ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
                ),
                (1.0, ControllerSpec::Trivial),
            ]),
            2,
        ),
        (
            ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0))),
                (
                    1.0,
                    ControllerSpec::Hysteresis {
                        depth: 2,
                        lazy: None,
                    },
                ),
            ]),
            1,
        ),
        // Every SoA-banked kind at once: Ant, Precise Sigmoid, Trivial,
        // ExactGreedy and Proportional racing inside one colony.
        (
            ControllerSpec::Mix(vec![
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
                (
                    1.0,
                    ControllerSpec::Proportional(ProportionalParams::default()),
                ),
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
    noise: NoiseModel,
) -> SimConfig {
    let demands: Vec<u64> = (0..k).map(|j| (n / (2 * k) + j + 1) as u64).collect();
    SimConfig::builder(n, demands)
        .noise(noise)
        .controller(spec.clone())
        .seed(seed)
        .build()
        .expect("valid scenario")
}

#[test]
fn bank_stepping_equals_per_ant_stepping_for_every_spec() {
    for (spec, k) in every_spec() {
        for seed in [1u64, 99] {
            let cfg = config_for(&spec, k, 120, seed, NoiseModel::Sigmoid { lambda: 2.0 });
            let (reference, ref_loads) = reference_trace(&cfg, 41);
            let (banked, bank_loads) = banked_trace(&cfg, 41);
            assert_eq!(reference, banked, "trace diverged: {spec:?} seed {seed}");
            assert_eq!(ref_loads, bank_loads, "{spec:?} seed {seed}");
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random spec × noise × colony size × seed: bank-stepping must
        /// reproduce the per-ant reference round for round.
        #[test]
        fn bank_equals_reference(
            which in 0usize..11,
            noise_pick in 0usize..3,
            n in 20usize..160,
            seed: u64,
            rounds in 1u64..30,
        ) {
            let (spec, k) = every_spec().swap_remove(which);
            let noise = match noise_pick {
                0 => NoiseModel::Sigmoid { lambda: 1.5 },
                1 => NoiseModel::Exact,
                _ => NoiseModel::CorrelatedSigmoid { lambda: 1.0, rho: 0.4, seed: 7 },
            };
            let cfg = config_for(&spec, k, n, seed, noise);
            let (reference, ref_loads) = reference_trace(&cfg, rounds);
            let (banked, bank_loads) = banked_trace(&cfg, rounds);
            prop_assert_eq!(reference, banked);
            prop_assert_eq!(ref_loads, bank_loads);
        }

        /// Timeline-bearing specs: with a random demand-step script in
        /// the config, bank-stepping still matches the per-ant
        /// reference round for round (demand events are pure, so the
        /// reference can replay them).
        #[test]
        fn bank_equals_reference_under_demand_timelines(
            which in 0usize..11,
            n in 20usize..160,
            seed: u64,
            first_at in 1u64..12,
            gap in 1u64..12,
            rounds in 1u64..30,
        ) {
            let (spec, k) = every_spec().swap_remove(which);
            let mut cfg = config_for(&spec, k, n, seed, NoiseModel::Sigmoid { lambda: 1.5 });
            let bumped: Vec<u64> = cfg.demands.iter().map(|d| d + 1).collect();
            let original = cfg.demands.clone();
            cfg.timeline = Timeline::new()
                .at(first_at, Event::SetDemands(bumped))
                .at(first_at + gap, Event::SetDemands(original));
            let (reference, ref_loads) = reference_trace(&cfg, rounds);
            let (banked, bank_loads) = banked_trace(&cfg, rounds);
            prop_assert_eq!(reference, banked);
            prop_assert_eq!(ref_loads, bank_loads);
        }

        /// Timeline-bearing specs survive checkpoint-restore mid-script:
        /// capture at a random phase boundary between shocks (kills,
        /// spawns, demand steps), restore, and the continuation must be
        /// bit-identical to the uninterrupted run.
        #[test]
        fn mid_timeline_checkpoint_replay_is_exact(
            which in 0usize..6,
            seed: u64,
            boundary in 1u64..30,
            tail in 1u64..30,
        ) {
            // Capture-phase-2 specs so every even round is a capture
            // point (Precise Sigmoid contributes 1: its counters are
            // serialized, so its 82-round phase doesn't gate capture —
            // the last mix checkpoints mid-sigmoid-phase across kills,
            // spawns and scrambles).
            let specs: [(ControllerSpec, usize); 6] = [
                (ControllerSpec::Ant(AntParams::new(1.0 / 16.0)), 2),
                (ControllerSpec::Trivial, 2),
                (ControllerSpec::ExactGreedy(ExactGreedyParams::default()), 2),
                // Proportional contributes capture phase 1: its deadband
                // streaks travel in the checkpoint scratch section, so the
                // mix checkpoints mid-streak across kills and scrambles.
                (
                    ControllerSpec::Mix(vec![
                        (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                        (
                            1.0,
                            ControllerSpec::Proportional(ProportionalParams {
                                gain: 0.5,
                                deadband: 4,
                            }),
                        ),
                    ]),
                    2,
                ),
                (
                    ControllerSpec::Mix(vec![
                        (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                        (1.0, ControllerSpec::Trivial),
                    ]),
                    2,
                ),
                (
                    ControllerSpec::Mix(vec![
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
                    2,
                ),
            ];
            let (spec, k) = specs[which].clone();
            let mut cfg = config_for(&spec, k, 120, seed, NoiseModel::Sigmoid { lambda: 1.5 });
            cfg.timeline = Timeline::new()
                .at(7, Event::Kill { count: 30 })
                .at(19, Event::SetDemands(vec![40, 20]))
                .at(33, Event::Spawn { count: 25 })
                .at(47, Event::Scramble);
            let split = boundary * 2; // ant/mix phase length is 2
            let total = split + tail;

            let mut obs = NullObserver;
            let mut full = cfg.build();
            full.run(total, &mut obs);

            let mut head = cfg.build();
            head.run(split, &mut obs);
            let cp = Checkpoint::capture(&head).expect("phase boundary");
            let mut resumed = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes").restore();
            resumed.run(tail, &mut obs);

            prop_assert_eq!(full.colony().assignments(), resumed.colony().assignments());
            prop_assert_eq!(full.colony().loads(), resumed.colony().loads());
            prop_assert_eq!(full.colony().num_ants(), resumed.colony().num_ants());
        }

        /// Precise Sigmoid checkpoints capture at **any** round — the
        /// half-phase counters travel in the v5 scratch section — and
        /// the restored continuation is bit-identical to the
        /// uninterrupted run, wherever inside the 82-round phase the
        /// capture lands (phase start, first half, the pause round
        /// `r = m`, second half, decision round).
        #[test]
        fn sigmoid_mid_phase_checkpoint_restore_is_exact(
            seed: u64,
            split in 1u64..170,
            tail in 1u64..100,
        ) {
            let spec = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5));
            let cfg = config_for(&spec, 2, 100, seed, NoiseModel::Sigmoid { lambda: 1.5 });

            let mut obs = NullObserver;
            let mut full = cfg.build();
            full.run(split + tail, &mut obs);

            let mut head = cfg.build();
            head.run(split, &mut obs);
            let cp = Checkpoint::capture(&head).expect("any round is a capture point");
            let mut resumed = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes").restore();
            resumed.run(tail, &mut obs);

            prop_assert_eq!(full.colony().assignments(), resumed.colony().assignments());
            prop_assert_eq!(full.colony().loads(), resumed.colony().loads());
        }

        /// Precise Adversarial checkpoints capture at **any** round —
        /// the ramp/freeze trackers travel in the v6 scratch section —
        /// and the restored continuation is bit-identical to the
        /// uninterrupted run, wherever inside the 320-round phase the
        /// capture lands (ramp, the freeze round `r = r1`, the frozen
        /// sub-phase, the unanimity decision round). This mirrors the
        /// sigmoid coverage above: the last long-phase capture gap.
        #[test]
        fn adversarial_mid_phase_checkpoint_restore_is_exact(
            seed: u64,
            split in 1u64..340,
            tail in 1u64..100,
        ) {
            let spec = ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5));
            let cfg = config_for(&spec, 2, 100, seed, NoiseModel::Sigmoid { lambda: 1.5 });

            let mut obs = NullObserver;
            let mut full = cfg.build();
            full.run(split + tail, &mut obs);

            let mut head = cfg.build();
            head.run(split, &mut obs);
            let cp = Checkpoint::capture(&head).expect("any round is a capture point");
            // Pin both restore paths: a fresh engine and restore_into a
            // reused one that just ran something unrelated.
            let decoded = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes");
            let mut resumed = decoded.restore();
            resumed.run(tail, &mut obs);
            let mut reused = config_for(
                &ControllerSpec::Trivial, 2, 40, seed ^ 1, NoiseModel::Exact,
            ).build();
            reused.run(5, &mut obs);
            decoded.restore_into(&mut reused);
            reused.run(tail, &mut obs);

            prop_assert_eq!(full.colony().assignments(), resumed.colony().assignments());
            prop_assert_eq!(full.colony().loads(), resumed.colony().loads());
            prop_assert_eq!(resumed.colony().assignments(), reused.colony().assignments());
            prop_assert_eq!(resumed.colony().loads(), reused.colony().loads());
        }
    }
}

fn mixed_config(seed: u64) -> SimConfig {
    // Phase lengths 2 (Ant), 1 (greedy), 1 (hysteresis) → LCM 2.
    SimConfig::builder(500, vec![120])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ),
            (
                1.0,
                ControllerSpec::Hysteresis {
                    depth: 2,
                    lazy: Some(0.5),
                },
            ),
        ]))
        .seed(seed)
        .build()
        .expect("valid mixed scenario")
}

#[test]
fn mixed_colony_checkpoint_replay_after_kill_and_spawn_is_exact() {
    let mut obs = NullObserver;
    let mut engine = mixed_config(5).build();
    engine.run(20, &mut obs);
    engine.perturb(&Perturbation::KillRandom { count: 120 });
    engine.run(10, &mut obs);
    engine.perturb(&Perturbation::Spawn { count: 60 });
    engine.run(10, &mut obs); // round 40: a phase boundary (phase 2).

    let cp = Checkpoint::capture(&engine).expect("round 40 is a boundary");
    // The binary format round-trips the membership exactly.
    let restored = Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes");
    assert_eq!(cp, restored);

    // Continue the original; replay the restored copy; compare traces.
    let mut original_trace = Vec::new();
    {
        let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
            original_trace.push((r.round, r.loads.to_vec(), r.idle, r.switches));
        });
        engine.run(40, &mut obs);
    }
    let mut replay_trace = Vec::new();
    {
        let mut resumed = restored.restore();
        let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
            replay_trace.push((r.round, r.loads.to_vec(), r.idle, r.switches));
        });
        resumed.run(40, &mut obs);
        assert_eq!(
            engine.colony().assignments(),
            resumed.colony().assignments()
        );
        assert_eq!(engine.colony().loads(), resumed.colony().loads());
    }
    assert_eq!(original_trace, replay_trace);
}

#[test]
fn mixed_colony_spawn_after_restore_matches_uninterrupted_run() {
    // The spawn's sub-spec draw is keyed by (master seed, stream id),
    // both checkpointed — so perturbing after a restore must match
    // perturbing the uninterrupted engine.
    let mut obs = NullObserver;
    let mut uninterrupted = mixed_config(13).build();
    uninterrupted.run(20, &mut obs);
    let cp = Checkpoint::capture(&uninterrupted).unwrap();
    let mut resumed = cp.restore();

    uninterrupted.perturb(&Perturbation::Spawn { count: 40 });
    resumed.perturb(&Perturbation::Spawn { count: 40 });
    uninterrupted.run(20, &mut obs);
    resumed.run(20, &mut obs);
    assert_eq!(
        uninterrupted.colony().assignments(),
        resumed.colony().assignments()
    );
    assert_eq!(uninterrupted.colony().loads(), resumed.colony().loads());
    let a: Vec<usize> = uninterrupted.bank_census().iter().map(|b| b.ants).collect();
    let b: Vec<usize> = resumed.bank_census().iter().map(|b| b.ants).collect();
    assert_eq!(a, b, "spawns joined the same sub-specs");
}

#[test]
fn mixed_colony_runs_under_sequential_model() {
    let cfg = mixed_config(3);
    let mut a = cfg.build_sequential();
    let mut b = cfg.build_sequential();
    let mut obs = NullObserver;
    a.run(300, &mut obs);
    b.run(300, &mut obs);
    assert_eq!(a.colony().loads(), b.colony().loads());
    assert!(a.colony().recount_consistent());
}

#[test]
fn mix_scenario_roundtrips_through_toml_and_json() {
    let cfg = mixed_config(77);
    let toml = cfg.to_toml();
    assert_eq!(
        SimConfig::from_toml(&toml).expect("parses"),
        cfg,
        "\n{toml}"
    );
    let json = cfg.to_json();
    assert_eq!(
        SimConfig::from_json(&json).expect("parses"),
        cfg,
        "\n{json}"
    );
}

#[test]
fn invalid_mixes_are_rejected_with_typed_errors() {
    use antalloc_sim::ConfigError;
    let build = |spec: ControllerSpec| {
        SimConfig::builder(100, vec![20])
            .controller(spec)
            .build()
            .unwrap_err()
    };
    // Empty.
    let err = build(ControllerSpec::Mix(vec![]));
    assert!(matches!(err, ConfigError::Controller(_)), "{err}");
    // Zero and negative weights.
    for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let err = build(ControllerSpec::Mix(vec![(w, ControllerSpec::Trivial)]));
        assert!(matches!(err, ConfigError::Controller(_)), "w={w}: {err}");
    }
    // Nested mix.
    let err = build(ControllerSpec::Mix(vec![(
        1.0,
        ControllerSpec::Mix(vec![(1.0, ControllerSpec::Trivial)]),
    )]));
    assert!(err.to_string().contains("nested"), "{err}");
    // A sub-spec outside its admissible window is rejected strictly...
    let err = build(ControllerSpec::Mix(vec![(
        1.0,
        ControllerSpec::Ant(AntParams::new(0.125)),
    )]));
    assert!(matches!(err, ConfigError::Controller(_)), "{err}");
    // ...and waivable like any other out-of-spec parameter.
    SimConfig::builder(100, vec![20])
        .controller(ControllerSpec::Mix(vec![(
            1.0,
            ControllerSpec::Ant(AntParams::new(0.125)),
        )]))
        .out_of_spec_params()
        .build()
        .expect("out-of-spec mixes build relaxed");
}
