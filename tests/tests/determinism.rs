//! Determinism guarantees: the simulation is a pure function of its
//! config, independent of thread count and of checkpoint/restore. Each
//! contract check runs through the shared oracle, which holds serial,
//! pooled at 1, 2, 3, 4 and 8 participants, interleavings, a
//! checkpoint split, reused engines, rebuilds and a sweep to one trace.

use antalloc_core::AntParams;
use antalloc_env::{Condition, Event, InitialConfig, Timeline, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_sim::{ControllerSpec, NullObserver, SimConfig};
use antalloc_tests::contract::{check_contract, check_contract_at, Trace};
use antalloc_tests::scenarios;

fn config(seed: u64) -> SimConfig {
    SimConfig::builder(1500, vec![200, 300, 150])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(seed)
        .build()
        .expect("valid scenario")
}

#[test]
fn serial_and_parallel_trajectories_are_bit_identical() {
    check_contract(&config(1), 501);
}

#[test]
fn different_seeds_give_different_trajectories() {
    let mut a = config(1).build();
    let mut b = config(2).build();
    let mut obs = NullObserver;
    a.run(100, &mut obs);
    b.run(100, &mut obs);
    assert_ne!(a.colony().assignments(), b.colony().assignments());
}

#[test]
fn mixed_serial_parallel_interleaving_is_identical() {
    // Switching between serial and pooled stepping mid-run must not
    // change anything: determinism is per-ant, not per-schedule. The
    // oracle steps rounds 1–100 serially, 101–200 pooled, the rest
    // serially again.
    check_contract_at(&config(9), 300, 200);
}

#[test]
fn precise_sigmoid_parallel_determinism() {
    // A controller with long phases and heavier per-round state.
    let mut cfg = config(5);
    cfg.controller = scenarios::kinds()[2].clone();
    check_contract(&cfg, 250);
}

/// The fused-apply round loop: the pooled path's double-buffered column
/// writes and per-worker delta merges must be invisible at every
/// participant count, for chunk seams that cross bank seams, with
/// population shocks, state-dependent triggers and checkpoint-restore
/// in the mix. The generated scenarios of `tests/contract.rs` explore
/// the same ground at random.
mod fused_properties {
    use super::*;

    /// Every catalogue spec at a colony size that splits raggedly across
    /// workers (the chunk is rounded to cache-line multiples).
    #[test]
    fn fused_parallel_is_bit_identical_across_thread_counts() {
        for (i, spec) in scenarios::specs().iter().enumerate() {
            let k = if scenarios::single_task(spec) { 1 } else { 3 };
            let cfg = scenarios::colony(spec, 97 + 23 * i, k, i as u64)
                .build()
                .expect("valid scenario");
            check_contract(&cfg, 49);
        }
    }

    /// A state-dependent trigger arms mid-scope: the coordinator must
    /// observe it in the exclusive window (while the task column is on
    /// loan to the workers), end the scope on the same round the serial
    /// path does, and fire the event identically. With `shocks`, a
    /// scripted kill shrinks the colony below 16 ants per participant
    /// (so trailing parts are empty), a population trigger arms on the
    /// first round of the kill's scope and spawns ants back, and a
    /// scripted spawn regrows the rest.
    #[test]
    fn fused_parallel_triggers_arm_mid_segment_identically() {
        let n = 450;
        for (seed, shocks) in [(1u64, false), (2, true)] {
            let mut builder = SimConfig::builder(n, vec![(n / 6) as u64, (n / 4) as u64])
                .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                .controller(ControllerSpec::Ant(AntParams::default()))
                .seed(seed)
                .initial(InitialConfig::SaturatedPlus { extra: 2 })
                .trigger(Trigger {
                    when: Condition::RegretBelow {
                        threshold: (n / 8) as u64,
                        for_rounds: 6,
                    },
                    event: Event::StampedeTo(0),
                    cooldown: 40,
                    max_firings: 0,
                });
            if shocks {
                builder = builder
                    .event(31, Event::Kill { count: n - 7 })
                    .trigger(Trigger::once(
                        Condition::PopulationBelow { threshold: 32 },
                        Event::Spawn { count: n / 3 },
                    ))
                    .event(36, Event::Spawn { count: n / 2 });
            }
            let trace = check_contract(&builder.build().expect("valid scenario"), 200);
            if shocks {
                // The population trigger armed on the kill's round and
                // fired on the next.
                assert_eq!(trace.triggers[1].firings, 1);
            } else {
                // The stampede really fired (regret jumps to ~n scale).
                assert!(
                    trace.rounds.iter().any(|r| r.regret > (n / 2) as u64),
                    "trigger never fired — the case is vacuous"
                );
            }
        }
    }

    /// Checkpoint-restore mid-run across a timeline of kills, demand
    /// steps, spawns and scrambles, for homogeneous and mixed colonies,
    /// captured between the shocks.
    #[test]
    fn checkpoint_restore_mid_parallel_run_is_exact() {
        let kinds = scenarios::kinds();
        let mixes = scenarios::mixes();
        for (i, spec) in [&kinds[0], &kinds[2], &mixes[0], &mixes[3]]
            .iter()
            .enumerate()
        {
            let mut cfg = scenarios::colony(spec, 120, 3, i as u64)
                .build()
                .expect("valid scenario");
            cfg.timeline = Timeline::new()
                .at(7, Event::Kill { count: 30 })
                .at(19, Event::SetDemands(vec![40, 20, 15]))
                .at(33, Event::Spawn { count: 25 })
                .at(47, Event::Scramble);
            check_contract_at(&cfg, 60, 12 * i as u64 + 10);
        }
    }
}

#[test]
fn sequential_engine_is_deterministic() {
    let cfg = SimConfig::builder(500, vec![120])
        .noise(NoiseModel::Sigmoid { lambda: 1.0 })
        .controller(ControllerSpec::Trivial)
        .seed(77)
        .build()
        .expect("valid scenario");
    let mut a = cfg.build_sequential();
    let mut b = cfg.build_sequential();
    let mut obs = NullObserver;
    a.run(2000, &mut obs);
    b.run(2000, &mut obs);
    assert_eq!(a.colony().assignments(), b.colony().assignments());

    // A three-kind mix under scripted kills, spawns and a demand step,
    // plus a scramble trigger: the golden digest pins the sequential
    // model's round trace and final assignments bit for bit.
    use antalloc_env::{Condition, Event, Trigger};
    const GOLDEN: u64 = 0xc41f_3997_504c_32bc;
    let cfg = SimConfig::builder(300, vec![60, 90])
        .noise(NoiseModel::Sigmoid { lambda: 1.0 })
        .controller(ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Trivial),
            (1.0, ControllerSpec::Ant(AntParams::default())),
            (1.0, ControllerSpec::ExactGreedy(Default::default())),
        ]))
        .seed(31)
        .event(400, Event::Kill { count: 60 })
        .event(900, Event::SetDemands(vec![80, 50]))
        .event(1400, Event::Spawn { count: 90 })
        .trigger(Trigger {
            when: Condition::RegretBelow {
                threshold: 40,
                for_rounds: 50,
            },
            event: Event::Scramble,
            cooldown: 300,
            max_firings: 3,
        })
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build_sequential();
    let mut trace = Trace::default();
    engine.run(3000, &mut trace);
    let trace = trace.finish(engine.colony(), engine.trigger_states());
    assert_eq!(trace.num_ants, 330);
    assert_eq!(trace.triggers[0].firings, 3);
    assert_eq!(digest(&trace), GOLDEN);
}

/// A kill-heavy arena colony: generated kills (every ~6 rounds, 2–6% of
/// the colony), spawns and scrambles, a population floor that respawns
/// ants, and a mix with two banks of each of the four structure-of-
/// arrays kinds, so relocated ants cross banks and kinds.
const KILL_HEAVY_ARENA: &str = r#"
name = "kill_heavy_arena"
n = 3000
demands = [420, 380, 300, 250]
seed = 2024

[controller]
kind = "mix"
parts = [
    { weight = 1.0, controller = { kind = "ant", gamma = 0.0625 } },
    { weight = 1.0, controller = { kind = "precise-sigmoid", gamma = 0.05, eps = 0.5 } },
    { weight = 1.0, controller = { kind = "proportional", gain = 0.5 } },
    { weight = 1.0, controller = { kind = "exact-greedy" } },
    { weight = 0.5, controller = { kind = "ant", gamma = 0.0625 } },
    { weight = 0.5, controller = { kind = "precise-sigmoid", gamma = 0.05, eps = 0.5 } },
    { weight = 0.5, controller = { kind = "proportional", gain = 0.5 } },
    { weight = 0.5, controller = { kind = "exact-greedy" } },
]

[noise]
kind = "sigmoid"
lambda = 0.05

[arena]
sites = [0, 1, 2, 3]
travel_rounds = 2
wander_probability = 0.02

[[timeline.generate]]
kind = "kill"
start = 2
until = 400
mean_gap = 6.0
min_frac = 0.02
max_frac = 0.06

[[timeline.generate]]
kind = "spawn"
start = 30
until = 400
mean_gap = 15.0
min_frac = 0.005
max_frac = 0.02

[[timeline.generate]]
kind = "scramble"
start = 2
until = 400
mean_gap = 70.0

[[timeline.trigger]]
kind = "spawn"
count = 300
when = { kind = "population-below", threshold = 2400 }
cooldown = 5
max_firings = 0
"#;

/// Order-sensitive digest of every round record, then of the final
/// assignments.
fn digest(trace: &Trace) -> u64 {
    let mut digest = 0u64;
    let mut mix = |x: u64| {
        digest = (digest ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    };
    for r in &trace.rounds {
        mix(r.round);
        mix(r.regret);
        mix(r.switches);
        mix(r.idle);
        for &load in &r.loads {
            mix(u64::from(load));
        }
    }
    for a in &trace.assignments {
        mix(match a {
            antalloc_env::Assignment::Idle => u64::MAX,
            antalloc_env::Assignment::Task(j) => u64::from(*j),
        });
    }
    digest
}

/// Bank slot order is not an input to any draw or result: kills that
/// keep every bank in id order must give the bits that per-kill
/// swap-removal gave. The golden digest was recorded with swap-removal
/// (and re-recorded once when arena wander moved from one per-round
/// stream to per-ant keyed draws); the contract oracle pins every
/// stepping path (pooled at 1, 2, 3, 4 and 8 participants, a checkpoint
/// split, reused engines, rebuilds and a sweep) to the same trace.
#[test]
fn kill_heavy_arena_mix_matches_its_golden_digest() {
    const GOLDEN: u64 = 0x6ab2_0d28_57e4_3b1f;
    let cfg = antalloc_sim::Scenario::from_toml(KILL_HEAVY_ARENA)
        .expect("valid scenario")
        .config;
    let trace = check_contract(&cfg, 400);
    assert!(trace.num_ants < 3000, "kills outpace spawns");
    assert_eq!(digest(&trace), GOLDEN);
}

#[test]
fn a_kill_event_leaves_every_controller_on_its_ants_assignment() {
    // A kill event removes its victims one by one, each by swap-removal.
    // When a victim is the colony's last ant, a later swap in the same
    // event must not carry the dead ant's controller into a live ant's
    // id: after the kill every controller still holds its own ant's
    // assignment.
    use antalloc_core::Controller as _;
    use antalloc_env::Perturbation;

    for seed in 0..200 {
        let cfg = SimConfig::builder(12, vec![3, 3])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(seed)
            .build()
            .expect("valid scenario");
        let mut engine = cfg.build();
        engine.perturb(&Perturbation::Scramble);
        engine.perturb(&Perturbation::KillRandom { count: 6 });
        let controllers: Vec<_> = engine
            .reference_controllers()
            .iter()
            .map(|c| c.assignment())
            .collect();
        assert_eq!(controllers, engine.colony().assignments(), "seed {seed}");
    }
}

/// The golden digests of the kinds no other golden pins, each through
/// the contract oracle (checkpoint leg included). Recorded before these
/// kinds moved from per-ant controller structs to bank columns.
mod kind_goldens {
    use super::*;
    use antalloc_core::PreciseAdversarialParams;
    use antalloc_sim::Checkpoint;

    fn golden(cfg: &SimConfig, rounds: u64) -> u64 {
        digest(&check_contract(cfg, rounds))
    }

    /// AntDesync over three tasks: a kill relocates ants of both phase
    /// parities into other ids, a spawn adds offset-0 ants with ids of
    /// both parities, and a scramble resets every ant mid-phase.
    #[test]
    fn ant_desync_matches_its_golden_digest() {
        const GOLDEN: u64 = 0x0a25_09d7_5ab5_abe8;
        let cfg = SimConfig::builder(600, vec![120, 90, 60])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)))
            .seed(41)
            .event(37, Event::Kill { count: 90 })
            .event(70, Event::Spawn { count: 75 })
            .event(121, Event::Scramble)
            .build()
            .expect("valid scenario");
        assert_eq!(golden(&cfg, 240), GOLDEN);
    }

    fn adversarial(seed: u64) -> antalloc_sim::ScenarioBuilder {
        // ε = 0.5: r_1 = 64, phases of 320 rounds; the kill lands in
        // the second phase's ramp.
        SimConfig::builder(300, vec![60, 45, 30])
            .noise(NoiseModel::Sigmoid { lambda: 1.0 })
            .controller(ControllerSpec::PreciseAdversarial(
                PreciseAdversarialParams::new(0.05, 0.5),
            ))
            .seed(seed)
            .event(357, Event::Kill { count: 40 })
    }

    /// Precise Adversarial over three tasks, two full phases and part
    /// of a third, with a kill mid-ramp.
    #[test]
    fn precise_adversarial_matches_its_golden_digest() {
        const GOLDEN: u64 = 0xf06f_2f7a_b0a3_85da;
        let cfg = adversarial(42).build().expect("valid scenario");
        assert_eq!(golden(&cfg, 700), GOLDEN);
    }

    /// The bytes of a Precise Adversarial checkpoint captured mid-ramp,
    /// its phase trackers in flight. The hash pins the wire layout too,
    /// so it is re-recorded with each format version (this one: v10).
    #[test]
    fn precise_adversarial_mid_phase_checkpoint_matches_its_golden_hash() {
        const GOLDEN: u64 = 0xcf33_9030_c63e_3e15;
        let mut engine = adversarial(43).build().expect("valid scenario").build();
        engine.run(380, &mut NullObserver);
        let bytes = Checkpoint::capture(&engine)
            .expect("Precise Adversarial captures mid-phase")
            .to_bytes();
        // FNV-1a over the encoded bytes.
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(hash, GOLDEN);
    }

    /// Lazy depth-3 hysteresis machines on one task.
    #[test]
    fn hysteresis_matches_its_golden_digest() {
        const GOLDEN: u64 = 0x9d98_3fd8_a87e_3529;
        let cfg = SimConfig::builder(400, vec![150])
            .noise(NoiseModel::Sigmoid { lambda: 1.0 })
            .controller(ControllerSpec::Hysteresis {
                depth: 3,
                lazy: Some(0.5),
            })
            .seed(43)
            .event(90, Event::Kill { count: 50 })
            .event(140, Event::Spawn { count: 60 })
            .build()
            .expect("valid scenario");
        assert_eq!(golden(&cfg, 300), GOLDEN);
    }

    /// The trivial algorithm over three tasks, with a kill and a spawn.
    #[test]
    fn trivial_matches_its_golden_digest() {
        const GOLDEN: u64 = 0xabba_17a6_e454_6f9f;
        let cfg = SimConfig::builder(400, vec![80, 60, 40])
            .noise(NoiseModel::Sigmoid { lambda: 1.0 })
            .controller(ControllerSpec::Trivial)
            .seed(44)
            .event(50, Event::Kill { count: 60 })
            .event(90, Event::Spawn { count: 45 })
            .build()
            .expect("valid scenario");
        assert_eq!(golden(&cfg, 200), GOLDEN);
    }
}
