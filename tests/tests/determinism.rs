//! Determinism guarantees: the simulation is a pure function of its
//! config, independent of thread count and of checkpoint/restore.

use antalloc_core::{AntParams, PreciseSigmoidParams};
use antalloc_noise::NoiseModel;
use antalloc_sim::{Checkpoint, ControllerSpec, NullObserver, SimConfig};

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
    let mut serial = config(1).build();
    let mut obs = NullObserver;
    serial.run(501, &mut obs);

    for threads in [2usize, 3, 8] {
        let mut par = config(1).build();
        // Forced: production run_parallel would use one participant at
        // this colony size, which would make the test vacuous.
        par.run_parallel_forced(501, threads, &mut obs);
        assert_eq!(
            serial.colony().assignments(),
            par.colony().assignments(),
            "threads = {threads}"
        );
        assert_eq!(serial.colony().loads(), par.colony().loads());
    }
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
    // Switching between serial and parallel stepping mid-run must not
    // change anything: determinism is per-ant, not per-schedule.
    let mut pure = config(9).build();
    let mut mixed = config(9).build();
    let mut obs = NullObserver;
    pure.run(300, &mut obs);
    mixed.run(100, &mut obs);
    mixed.run_parallel_forced(100, 4, &mut obs);
    mixed.run(100, &mut obs);
    assert_eq!(pure.colony().assignments(), mixed.colony().assignments());
}

#[test]
fn precise_sigmoid_parallel_determinism() {
    // A controller with long phases and heavier per-round state.
    let spec = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5));
    let mut cfg = config(5);
    cfg.controller = spec;
    let mut serial = cfg.build();
    let mut par = cfg.build();
    let mut obs = NullObserver;
    serial.run(250, &mut obs);
    par.run_parallel_forced(250, 4, &mut obs);
    assert_eq!(serial.colony().assignments(), par.colony().assignments());
}

/// Property coverage for the fused-apply round loop: the parallel
/// path's double-buffered column writes and per-worker delta merges
/// must be invisible — bit-identical to serial — at every thread
/// count, for every chunk seam the partitioner can produce, with
/// population shocks, state-dependent triggers and checkpoint-restore
/// in the mix.
mod fused_properties {
    use super::*;
    use antalloc_core::{ExactGreedyParams, PreciseSigmoidParams};
    use antalloc_env::{Condition, Event, InitialConfig, Timeline, Trigger};
    use antalloc_sim::{Checkpoint, FnObserver, RoundRecord};
    use proptest::prelude::*;

    /// Thread counts the fused path is pinned at (1 is the driver's
    /// single-participant path, the same one `run` takes).
    const THREADS: [usize; 4] = [1, 2, 4, 8];

    /// Homogeneous and mixed colonies; mixes make bank boundaries land
    /// mid-chunk so worker seams cross bank seams.
    fn spec_for(which: usize) -> ControllerSpec {
        match which {
            0 => ControllerSpec::Ant(AntParams::new(1.0 / 16.0)),
            1 => ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5)),
            2 => ControllerSpec::Mix(vec![
                (2.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (1.0, ControllerSpec::Trivial),
            ]),
            _ => ControllerSpec::Mix(vec![
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
        }
    }

    fn cfg_for(which: usize, n: usize, seed: u64) -> SimConfig {
        let k = 3usize;
        let demands: Vec<u64> = (0..k).map(|j| (n / (2 * k) + j + 1) as u64).collect();
        SimConfig::builder(n, demands)
            .noise(NoiseModel::Sigmoid { lambda: 1.5 })
            .controller(spec_for(which))
            .seed(seed)
            .build()
            .expect("valid scenario")
    }

    proptest! {
        /// Serial vs forced-parallel at every thread count, with colony
        /// sizes drawn to split unevenly across workers (the chunk is
        /// rounded to cache-line multiples, so almost any n exercises a
        /// ragged tail chunk).
        #[test]
        fn fused_parallel_is_bit_identical_across_thread_counts(
            which in 0usize..4,
            n in 97usize..400,
            seed: u64,
            rounds in 1u64..50,
        ) {
            let mut obs = NullObserver;
            let mut serial = cfg_for(which, n, seed).build();
            serial.run(rounds, &mut obs);
            for threads in THREADS {
                let mut par = cfg_for(which, n, seed).build();
                par.run_parallel_forced(rounds, threads, &mut obs);
                prop_assert_eq!(
                    serial.colony().assignments(),
                    par.colony().assignments(),
                    "threads = {}", threads
                );
                prop_assert_eq!(serial.colony().loads(), par.colony().loads());
                prop_assert_eq!(serial.colony().idle_count(), par.colony().idle_count());
            }
        }

        /// A state-dependent trigger arms mid-scope: the coordinator
        /// must observe it in the exclusive window (while the task
        /// column is on loan to the workers), end the scope on the same
        /// round the serial path does, and fire the event identically.
        /// With `shocks`, a scripted kill shrinks the colony below 16
        /// ants per participant (so trailing parts are empty), a
        /// population trigger arms on the first round of the kill's
        /// scope and spawns ants back, and a scripted spawn regrows the
        /// rest: every repartition must match serial, trigger states
        /// included.
        #[test]
        fn fused_parallel_triggers_arm_mid_segment_identically(
            n in 300usize..600,
            seed: u64,
            for_rounds in 4u32..10,
            shocks: bool,
            survivors in 1usize..32,
            kill_at in 2u64..60,
        ) {
            let cfg = |()| {
                let mut builder = SimConfig::builder(n, vec![(n / 6) as u64, (n / 4) as u64])
                    .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                    .controller(ControllerSpec::Ant(AntParams::default()))
                    .seed(seed)
                    .initial(InitialConfig::SaturatedPlus { extra: 2 })
                    .trigger(Trigger {
                        when: Condition::RegretBelow {
                            threshold: (n / 8) as u64,
                            for_rounds,
                        },
                        event: Event::StampedeTo(0),
                        cooldown: 40,
                        max_firings: 0,
                    });
                if shocks {
                    builder = builder
                        .event(kill_at, Event::Kill { count: n - survivors })
                        .trigger(Trigger::once(
                            Condition::PopulationBelow { threshold: 32 },
                            Event::Spawn { count: n / 3 },
                        ))
                        .event(kill_at + 5, Event::Spawn { count: n / 2 });
                }
                builder.build().expect("valid scenario")
            };
            let mut serial_trace = Vec::new();
            let mut serial = cfg(()).build();
            {
                let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
                    serial_trace.push((r.round, r.instant_regret(), r.loads.to_vec(), r.idle, r.switches));
                });
                serial.run(200, &mut obs);
            }
            if shocks {
                // The population trigger armed on the kill's round and
                // fired on the next.
                prop_assert_eq!(serial.trigger_states()[1].firings, 1);
            } else {
                // The stampede really fired (regret jumps to ~n scale).
                prop_assert!(
                    serial_trace.iter().any(|&(_, regret, _, _, _)| regret > (n / 2) as u64),
                    "trigger never fired — the case is vacuous"
                );
            }
            for threads in THREADS {
                let mut par_trace = Vec::new();
                let mut engine = cfg(()).build();
                {
                    let mut obs = FnObserver::new(|r: &RoundRecord<'_>| {
                        par_trace.push((r.round, r.instant_regret(), r.loads.to_vec(), r.idle, r.switches));
                    });
                    engine.run_parallel_forced(200, threads, &mut obs);
                }
                prop_assert_eq!(&serial_trace, &par_trace, "threads = {}", threads);
                prop_assert_eq!(serial.trigger_states(), engine.trigger_states());
            }
        }

        /// Checkpoint-restore mid-run at each thread count, across a
        /// timeline of kills, demand steps, spawns and scrambles: the
        /// fused path must leave the engine in a state whose capture
        /// resumes bit-identically under both serial and parallel
        /// continuation.
        #[test]
        fn checkpoint_restore_mid_parallel_run_is_exact(
            which in 0usize..4,
            seed: u64,
            boundary in 1u64..26,
            tail in 1u64..40,
        ) {
            // Specs above all have capture phase 2 (Precise Sigmoid's
            // counters travel in the v5 scratch, so it doesn't gate).
            let n = 120usize;
            let mut cfg = cfg_for(which, n, seed);
            cfg.timeline = Timeline::new()
                .at(7, Event::Kill { count: 30 })
                .at(19, Event::SetDemands(vec![40, 20, 15]))
                .at(33, Event::Spawn { count: 25 })
                .at(47, Event::Scramble);
            let split = boundary * 2;
            let total = split + tail;

            let mut obs = NullObserver;
            let mut full = cfg.build();
            full.run(total, &mut obs);

            for threads in THREADS {
                let mut head = cfg.build();
                head.run_parallel_forced(split, threads, &mut obs);
                let cp = Checkpoint::capture(&head).expect("phase boundary");
                let mut resumed =
                    Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes").restore();
                resumed.run_parallel_forced(tail, threads, &mut obs);
                prop_assert_eq!(
                    full.colony().assignments(),
                    resumed.colony().assignments(),
                    "threads = {}", threads
                );
                prop_assert_eq!(full.colony().loads(), resumed.colony().loads());
                prop_assert_eq!(full.colony().num_ants(), resumed.colony().num_ants());
            }
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
    let mut digest = RecordDigest::default();
    engine.run(3000, &mut digest);
    assert_eq!(engine.colony().num_ants(), 330);
    assert_eq!(engine.trigger_states()[0].firings, 3);
    assert_eq!(digest.finish(engine.colony()), GOLDEN);
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
#[derive(Default)]
struct RecordDigest(u64);

impl RecordDigest {
    fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    fn finish(mut self, colony: &antalloc_env::ColonyState) -> u64 {
        for a in colony.assignments() {
            self.mix(match a {
                antalloc_env::Assignment::Idle => u64::MAX,
                antalloc_env::Assignment::Task(j) => u64::from(j),
            });
        }
        self.0
    }
}

impl antalloc_sim::Observer for RecordDigest {
    fn on_round(&mut self, r: &antalloc_sim::RoundRecord<'_>) {
        self.mix(r.round);
        self.mix(r.instant_regret());
        self.mix(r.switches);
        self.mix(r.idle);
        for &load in r.loads {
            self.mix(u64::from(load));
        }
    }
}

/// Bank slot order is not an input to any draw or result: kills that
/// keep every bank in id order must give the bits that per-kill
/// swap-removal gave. The golden digest was recorded with swap-removal
/// and pins serial, pooled at 2 and 3 participants, and a checkpoint
/// split alike.
#[test]
fn kill_heavy_arena_mix_matches_its_golden_digest() {
    const GOLDEN: u64 = 0x15da_7042_5bab_35c7;
    const ROUNDS: u64 = 400;
    let cfg = antalloc_sim::Scenario::from_toml(KILL_HEAVY_ARENA)
        .expect("valid scenario")
        .config;

    let mut serial = cfg.build();
    let mut digest = RecordDigest::default();
    serial.run(ROUNDS, &mut digest);
    assert!(serial.colony().num_ants() < 3000, "kills outpace spawns");
    let assignments = serial.colony().assignments();
    assert_eq!(digest.finish(serial.colony()), GOLDEN, "serial");

    for threads in [2usize, 3] {
        let mut pooled = cfg.build();
        let mut digest = RecordDigest::default();
        pooled.run_parallel_forced(ROUNDS, threads, &mut digest);
        assert_eq!(
            pooled.colony().assignments(),
            assignments,
            "threads = {threads}"
        );
        assert_eq!(
            digest.finish(pooled.colony()),
            GOLDEN,
            "threads = {threads}"
        );
    }

    let mut head = cfg.build();
    let mut digest = RecordDigest::default();
    head.run(ROUNDS / 2, &mut digest);
    let bytes = Checkpoint::capture(&head)
        .expect("phase boundary")
        .to_bytes();
    let mut resumed = Checkpoint::from_bytes(&bytes).expect("decodes").restore();
    resumed.run(ROUNDS / 2, &mut digest);
    assert_eq!(
        resumed.colony().assignments(),
        assignments,
        "checkpoint split"
    );
    assert_eq!(digest.finish(resumed.colony()), GOLDEN, "checkpoint split");
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
