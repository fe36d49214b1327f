//! The timeline subsystem end to end: a pure-TOML shock script runs
//! under the sweep runner bit-identically to serial runs, survives
//! checkpoint-restore mid-timeline, fires identically under both
//! engines, and a frozen current-format checkpoint still loads and
//! continues exactly.
//!
//! The second half pins the PR-4 adversarial layer: a pure-TOML
//! scenario with a regret-*triggered* scramble and a *generated*
//! Poisson kill schedule runs under `Sweep` across 8 seeds bit-identical
//! to serial, and survives mid-timeline checkpoint-restore (trigger
//! state included).

use antalloc_core::{
    AntParams, PreciseAdversarialParams, PreciseSigmoidParams, ProportionalParams,
};
use antalloc_env::{ArenaConfig, Condition, Event, GenShock, Timeline, TimelineGen, Trigger};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use antalloc_sim::{
    Checkpoint, ControllerSpec, FnObserver, NullObserver, RoundRecord, Scenario, SimConfig,
};
use antalloc_tests::contract::{check_contract, check_sweep_per_seed, Trace};

/// A declarative shock script: kill-half → demand step → scramble →
/// noise switch → spawn. Five event kinds, two population changes.
const SHOCK_SCRIPT: &str = r#"
name = "shock-script"
n = 1200
demands = [200, 300]
seed = 42

[controller]
kind = "ant"
gamma = 0.0625

[noise]
kind = "sigmoid"
lambda = 2.0

[[timeline]]
at = 40
kind = "kill"
count = 600

[[timeline]]
at = 80
kind = "set-demands"
demands = [300, 100]

[[timeline]]
at = 120
kind = "scramble"

[[timeline]]
at = 160
kind = "set-noise"
noise = { kind = "exact" }

[[timeline]]
at = 200
kind = "spawn"
count = 400
"#;

fn shock_config() -> SimConfig {
    let scenario = Scenario::from_toml(SHOCK_SCRIPT).expect("shock script validates");
    assert_eq!(scenario.name.as_deref(), Some("shock-script"));
    assert_eq!(scenario.config.timeline.events.len(), 5);
    scenario.config
}

#[test]
fn toml_timeline_roundtrips_with_array_of_tables_syntax() {
    let config = shock_config();
    let toml = config.to_toml();
    assert!(toml.contains("[[timeline]]"), "{toml}");
    assert_eq!(SimConfig::from_toml(&toml).expect("reparses"), config);
    let json = config.to_json();
    assert_eq!(SimConfig::from_json(&json).expect("reparses"), config);
}

#[test]
fn toml_timeline_batch_across_8_seeds_is_bit_identical_to_serial_runs() {
    // The acceptance scenario: a pure-TOML timeline with population
    // changes, fanned over 8 seeds by the sweep runner; every per-seed
    // result must equal a by-hand serial run of that seed.
    for trace in check_sweep_per_seed(&shock_config(), 0..8, 0, 260, 4) {
        // The script really ran: 1200 − 600 + 400 ants remain.
        assert_eq!(trace.num_ants, 1000);
    }
}

#[test]
fn timeline_runs_are_bit_identical_across_serial_parallel_and_interleaving() {
    // The pooled path must re-partition around the five event rounds,
    // and switching paths mid-script must not matter either.
    let trace = check_contract(&shock_config(), 260);
    assert_eq!(trace.rounds.len(), 260);
    assert_eq!(trace.num_ants, 1000);
}

#[test]
fn mid_timeline_checkpoint_restore_replays_bit_identically() {
    let config = shock_config();
    let mut obs = NullObserver;

    // Uninterrupted reference over the whole script.
    let mut full = config.build();
    full.run(100, &mut obs);
    // Capture at round 100: the kill and the demand step have fired,
    // the scramble / noise switch / spawn are still ahead.
    let cp = Checkpoint::capture(&full).expect("round 100 is a phase boundary");
    let bytes = cp.to_bytes();
    let restored = Checkpoint::from_bytes(&bytes).expect("decodes");
    assert_eq!(cp, restored);
    assert_eq!(restored.config(), &config);

    let mut resumed = restored.restore();
    assert_eq!(resumed.round(), 100);
    let replay = Trace::of(&mut resumed, 160);
    assert_eq!(replay.num_ants, 1000, "spawn fired after restore");
    Trace::of(&mut full, 160).assert_matches(&replay, "restored at round 100");
}

#[test]
fn checkpoint_after_noise_switch_keeps_the_live_model() {
    // Capture *after* the set-noise event: the restored engine must
    // keep feeding ants from the switched model, not config.noise.
    let config = shock_config();
    let mut obs = NullObserver;
    let mut full = config.build();
    full.run(180, &mut obs); // past set-noise at 160
    let cp = Checkpoint::capture(&full).unwrap();
    let mut resumed = Checkpoint::from_bytes(&cp.to_bytes()).unwrap().restore();
    full.run(40, &mut obs);
    resumed.run(40, &mut obs);
    assert_eq!(full.colony().assignments(), resumed.colony().assignments());
}

#[test]
fn sequential_engine_consumes_the_same_timeline() {
    let mut config = shock_config();
    // The sequential model moves one ant per round; keep the script's
    // rounds but drop the steep demands so the run stays meaningful.
    config.controller = ControllerSpec::Trivial;
    let mut a = config.build_sequential();
    let mut b = config.build_sequential();
    let mut obs = NullObserver;
    a.run(260, &mut obs);
    b.run(260, &mut obs);
    assert_eq!(a.colony().assignments(), b.colony().assignments());
    assert_eq!(a.colony().num_ants(), 1000, "kill and spawn fired");
    assert!(a.colony().recount_consistent());
    // Demands were rewritten by the script.
    assert_eq!(a.colony().demands().as_slice(), &[300, 100]);
}

#[test]
fn cycles_subsume_alternating_demands() {
    // Demands alternating between two vectors are one two-event cycle,
    // and the engine must flip demands at every half-period.
    let timeline = Timeline::new().every(
        50,
        50,
        vec![
            Event::SetDemands(vec![90, 60]),
            Event::SetDemands(vec![60, 90]),
        ],
    );
    assert_eq!(timeline.cycles.len(), 1);
    assert!(timeline.events.is_empty());
    let cfg = SimConfig::builder(600, vec![60, 90])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(9)
        .timeline(timeline)
        .build()
        .unwrap();
    let mut engine = cfg.build();
    let mut demand_trace = Vec::new();
    let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
        if r.round.is_multiple_of(50) {
            demand_trace.push(r.demands.to_vec());
        }
    });
    engine.run(200, &mut obs);
    assert_eq!(
        demand_trace,
        vec![
            vec![90, 60], // flipped at 50
            vec![60, 90], // back at 100
            vec![90, 60],
            vec![60, 90],
        ]
    );
}

/// The PR-4 acceptance scenario: the adversary scrambles the colony
/// whenever it has looked settled for 10 straight rounds (at most 3
/// times, 60 rounds apart), while a seeded Poisson schedule kills
/// 5–15% of the initial colony every ~60 rounds. Pure TOML, table-form
/// timeline.
const ADVERSARIAL_SCRIPT: &str = r#"
name = "adversarial-acceptance"
n = 1000
demands = [150, 250]
seed = 4242

[controller]
kind = "ant"
gamma = 0.0625

[noise]
kind = "sigmoid"
lambda = 2.0

[initial]
kind = "saturated-plus"
extra = 3

[[timeline.events]]
at = 30
kind = "set-demands"
demands = [250, 150]

[[timeline.trigger]]
kind = "scramble"
when = { kind = "regret-below", threshold = 120, for_rounds = 10 }
cooldown = 60
max_firings = 3

[timeline.generate]
kind = "kill"
until = 240
mean_gap = 60.0
min_frac = 0.05
max_frac = 0.15
"#;

fn adversarial_config() -> SimConfig {
    let scenario = Scenario::from_toml(ADVERSARIAL_SCRIPT).expect("adversarial script validates");
    assert_eq!(scenario.name.as_deref(), Some("adversarial-acceptance"));
    assert_eq!(scenario.config.timeline.triggers.len(), 1);
    assert_eq!(scenario.config.timeline.generators.len(), 1);
    scenario.config
}

#[test]
fn adversarial_toml_roundtrips_with_trigger_and_generate_tables() {
    let config = adversarial_config();
    let toml = config.to_toml();
    assert!(toml.contains("[[timeline.events]]"), "{toml}");
    assert!(toml.contains("[[timeline.trigger]]"), "{toml}");
    assert!(toml.contains("[[timeline.generate]]"), "{toml}");
    assert_eq!(SimConfig::from_toml(&toml).expect("reparses"), config);
    let json = config.to_json();
    assert_eq!(SimConfig::from_json(&json).expect("reparses"), config);
}

#[test]
fn adversarial_toml_batch_across_8_seeds_is_bit_identical_to_serial_runs() {
    // The acceptance criterion: triggered + generated timelines, fanned
    // over 8 seeds by the sweep runner; every per-seed result must
    // equal a by-hand serial run of that seed. Every seed draws its own
    // kill schedule off the reserved TIMELINE stream and its own
    // trigger firing rounds.
    let traces = check_sweep_per_seed(&adversarial_config(), 0..8, 0, 260, 4);
    let shrunk = traces.iter().filter(|t| t.num_ants < 1000).count();
    let triggered = traces.iter().filter(|t| t.triggers[0].firings > 0).count();
    assert!(shrunk >= 6, "only {shrunk}/8 seeds saw a generated kill");
    assert!(
        triggered >= 6,
        "only {triggered}/8 seeds fired the regret trigger"
    );
}

#[test]
fn adversarial_runs_are_bit_identical_across_parallel_and_interleaving() {
    // The pooled path must end scopes at trigger arming rounds it
    // cannot predict from the config.
    check_contract(&adversarial_config(), 260);
}

#[test]
fn adversarial_mid_timeline_checkpoint_restore_replays_bit_identically() {
    let config = adversarial_config();
    let mut obs = NullObserver;

    let mut full = config.build();
    full.run(100, &mut obs);
    let cp = Checkpoint::capture(&full).expect("every round captures");
    let bytes = cp.to_bytes();
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        10,
        "current checkpoints are format v10"
    );
    let restored = Checkpoint::from_bytes(&bytes).expect("decodes");
    assert_eq!(cp, restored);
    assert_eq!(restored.config(), &config);

    let mut resumed = restored.restore();
    assert_eq!(resumed.round(), 100);
    Trace::of(&mut full, 160)
        .assert_matches(&Trace::of(&mut resumed, 160), "restored at round 100");
}

#[test]
fn sequential_engine_consumes_triggers_and_generators_deterministically() {
    let mut config = adversarial_config();
    config.controller = ControllerSpec::Trivial;
    let mut a = config.build_sequential();
    let mut b = config.build_sequential();
    let mut obs = NullObserver;
    a.run(260, &mut obs);
    b.run(260, &mut obs);
    assert_eq!(a.colony().assignments(), b.colony().assignments());
    assert_eq!(a.trigger_states(), b.trigger_states());
    assert!(a.colony().recount_consistent());
}

/// The scenario frozen in `fixtures/checkpoint_v10.ckpt`: a mixed
/// Precise Sigmoid + Proportional + AntDesync + Precise Adversarial
/// colony in a 3-site arena, with a `deficit-rate-above` trigger, a
/// generated kill schedule, and `set-noise` switches on both sides of
/// the captured round.
fn fixture_config() -> SimConfig {
    SimConfig::builder(150, vec![20, 25, 30])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Mix(vec![
            (
                1.0,
                ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            ),
            (
                1.0,
                ControllerSpec::Proportional(ProportionalParams {
                    gain: 0.5,
                    deadband: 2,
                }),
            ),
            (1.0, ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0))),
            (
                1.0,
                ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5)),
            ),
        ]))
        .arena(ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 2,
            wander_probability: 0.05,
        })
        .seed(0xF8C)
        .event(
            20,
            Event::SetNoise(NoiseModel::Adversarial {
                gamma_ad: 0.05,
                policy: GreyZonePolicy::RandomLack(0.25),
            }),
        )
        .event(60, Event::SetNoise(NoiseModel::Sigmoid { lambda: 2.0 }))
        .trigger(Trigger {
            when: Condition::DeficitRateAbove {
                task: 0,
                min_rise: 1,
                for_rounds: 2,
            },
            event: Event::Scramble,
            cooldown: 15,
            max_firings: 0,
        })
        .generate(TimelineGen {
            start: 10,
            until: 200,
            mean_gap: 25.0,
            shock: GenShock::Kill {
                min_frac: 0.02,
                max_frac: 0.05,
            },
        })
        .build()
        .expect("fixture scenario validates")
}

#[test]
fn checkpoint_fixture_loads_and_continues_exactly() {
    // A frozen v10 stream captured at round 37: mid-phase for every
    // bank (an odd round for AntDesync's offset half too), after the
    // first noise switch. It must decode to the same
    // config, re-encode to the same bytes (so a silent layout change
    // fails here), and continue bit-identically to an uninterrupted run
    // across later generated kills, trigger firings and the second
    // noise switch.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/checkpoint_v10.ckpt");
    let bytes = std::fs::read(&path).expect("v10 fixture present");
    let cp = Checkpoint::from_bytes(&bytes).expect("v10 fixture decodes");
    let config = fixture_config();
    assert_eq!(cp.round(), 37);
    assert_eq!(cp.config(), &config);
    assert_eq!(cp.to_bytes(), bytes, "the writer's layout drifted");

    let mut obs = NullObserver;
    let mut resumed = cp.restore();
    resumed.run(123, &mut obs);
    let mut fresh = config.build();
    fresh.run(160, &mut obs);
    assert_eq!(fresh.colony().assignments(), resumed.colony().assignments());
    assert_eq!(fresh.colony().loads(), resumed.colony().loads());
    assert_eq!(fresh.colony().demands(), resumed.colony().demands());
    assert_eq!(fresh.trigger_states(), resumed.trigger_states());
    assert_eq!(
        Checkpoint::capture(&fresh).unwrap(),
        Checkpoint::capture(&resumed).unwrap()
    );
}

#[test]
fn imperative_perturb_still_works_for_programmatic_use() {
    // engine.perturb stays for interactive exploration; scripted runs
    // use timelines. Both shrink/grow the same machinery.
    let cfg = SimConfig::builder(400, vec![60, 80])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(7)
        .build()
        .unwrap();
    let mut engine = cfg.build();
    let mut obs = NullObserver;
    engine.run(20, &mut obs);
    engine.perturb(&antalloc_env::Perturbation::KillRandom { count: 100 });
    engine.run(20, &mut obs);
    assert_eq!(engine.colony().num_ants(), 300);
    assert!(engine.colony().recount_consistent());
}

#[test]
fn event_rounds_match_between_timeline_and_legacy_schedule_semantics() {
    // A demand step at round `r` takes effect at the start of round `r`,
    // the firing round the retired `[schedule]` steps had, so an old
    // `{ at, demands }` step ports to a `set-demands` entry with the
    // same `at`.
    let cfg = SimConfig::builder(500, vec![80, 120])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(11)
        .timeline(
            Timeline::new()
                .at(30, Event::SetDemands(vec![120, 80]))
                .at(60, Event::SetDemands(vec![100, 100])),
        )
        .build()
        .unwrap();
    let mut engine = cfg.build();
    let mut demand_trace = Vec::new();
    let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
        if [1, 29, 30, 59, 60, 100].contains(&r.round) {
            demand_trace.push((r.round, r.demands.to_vec()));
        }
    });
    engine.run(100, &mut obs);
    assert_eq!(
        demand_trace,
        vec![
            (1, vec![80, 120]),
            (29, vec![80, 120]),
            (30, vec![120, 80]),
            (59, vec![120, 80]),
            (60, vec![100, 100]),
            (100, vec![100, 100]),
        ]
    );
}

proptest::proptest! {
    /// The checkpoint decoder bounds its cursor by `compiled_len`,
    /// which replays the generators' draws without building an event;
    /// on generated timelines — a scripted prefix and up to four
    /// generators of every shock kind, or a generated scenario's own —
    /// it is the compiled timeline's length.
    #[test]
    fn compiled_len_counts_the_compiled_events(
        seed: u64,
        k in 1usize..6,
        scripted in 0usize..4,
        generators in proptest::collection::vec((0usize..4, 1u64..40, 0u64..400, 1.0f64..30.0), 0..5),
        case in antalloc_tests::scenarios::scenarios(),
    ) {
        let (min, max) = (0.25, 1.5);
        let mut timeline = Timeline::new();
        for at in 0..scripted as u64 {
            timeline = timeline.at(1 + at, Event::Scramble);
        }
        for (kind, start, span, mean_gap) in generators {
            let shock = match kind {
                0 => GenShock::Kill { min_frac: 0.01, max_frac: 0.05 },
                1 => GenShock::Spawn { min_frac: min, max_frac: max },
                2 => GenShock::Scramble,
                _ => GenShock::DemandStep { min_factor: min, max_factor: max },
            };
            timeline = timeline.generate(TimelineGen { start, until: start + span, mean_gap, shock });
        }
        let demands = vec![50; k];
        let compiled = timeline.compile(seed, 1000, &demands);
        proptest::prop_assert_eq!(timeline.compiled_len(seed, k), compiled.events.len());
        let cfg = case.config;
        let compiled = cfg.timeline.compile(cfg.seed, cfg.n, &cfg.demands);
        proptest::prop_assert_eq!(
            cfg.timeline.compiled_len(cfg.seed, cfg.demands.len()),
            compiled.events.len()
        );
    }
}
