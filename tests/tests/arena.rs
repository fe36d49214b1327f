//! The sensing layer's contract: a single-site arena *is* the
//! well-mixed colony (bit-identical, for every controller kind, under
//! any latency and wander rate, through any timeline), multi-site
//! arenas keep the full determinism contract (the shared oracle), and
//! invalid arenas are typed errors.

use antalloc_analysis::{chernoff_above, chernoff_below};
use antalloc_core::ProportionalParams;
use antalloc_env::{ArenaConfig, ArenaRound, Condition, Event, Positions, Timeline, Trigger};
use antalloc_noise::NoiseModel;
use antalloc_rng::StreamSeeder;
use antalloc_sim::{ConfigError, ControllerSpec, SimConfig};
use antalloc_tests::contract::{check_contract, check_contract_at, Trace};
use antalloc_tests::scenarios;

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

/// `spec` over `k` tasks of `n` ants in `arena` (sigmoid noise, λ = 2).
fn arena_config(
    spec: &ControllerSpec,
    k: usize,
    n: usize,
    seed: u64,
    arena: ArenaConfig,
) -> SimConfig {
    scenarios::colony(spec, n, k, seed)
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .arena(arena)
        .build()
        .expect("valid scenario")
}

/// Per-tail failure probability of the keyed-move statistics below.
const MOVE_TAIL: f64 = 1e-9;

/// The band a Binomial count of mean `mean` leaves with probability at
/// most `2 · MOVE_TAIL`, from Theorem E.2's tails (`chernoff_above`,
/// `chernoff_below`).
fn chernoff_band(mean: f64) -> (f64, f64) {
    let log = (1.0 / MOVE_TAIL).ln();
    let (above, below) = ((3.0 * log / mean).sqrt(), (2.0 * log / mean).sqrt());
    assert!(
        above <= 1.0 && below < 1.0,
        "mean {mean} is too small for the band"
    );
    assert!(chernoff_above(mean, above) <= MOVE_TAIL * (1.0 + 1e-9));
    assert!(chernoff_below(mean, below) <= MOVE_TAIL * (1.0 + 1e-9));
    ((1.0 - below) * mean, (1.0 + above) * mean)
}

#[test]
fn keyed_moves_depart_binomially_to_uniform_other_sites() {
    // One round of moves over 64 fixed keys, 2000 ants each, 4 sites:
    // ant `id` stands at site `id % 4`, is in transit (2 rounds left)
    // iff `id % 5 == 0`, and is idle iff `id % 3 != 0`. Only idle ants
    // settled after the tick may leave; departures must be
    // Binomial(eligible, p) and their destinations uniform over the
    // three other sites.
    const SITES: usize = 4;
    let arena = ArenaConfig {
        site_of_task: (0..SITES as u32).collect(),
        travel_rounds: 2,
        wander_probability: 0.1,
    };
    let n = 2_000u32;
    let mut prepared = NoiseModel::Exact.prepare(1, &[1; SITES], &[10; SITES]);
    prepared.localize(&arena.site_of_task);
    let (mut eligible, mut departed, mut offsets) = (0u64, 0u64, [0u64; SITES]);
    for seed in 0..64u64 {
        let mut positions = Positions::default();
        for id in 0..n {
            positions.push(id as usize % SITES, if id % 5 == 0 { 2 } else { 0 });
        }
        let key = StreamSeeder::new(seed).round_key(1);
        let round = ArenaRound::new(&arena, &positions, &prepared, key);
        for id in 0..n {
            let (from, _) = round.sense(id);
            let idle = id % 3 != 0;
            round.advance(id, from, idle);
            let to = positions.get(id);
            if idle && from.travel() == 0 {
                eligible += 1;
            }
            if to.site() == from.site() {
                // Stayed: only the counter ticked.
                assert_eq!(to.travel(), from.travel().saturating_sub(1), "ant {id}");
            } else {
                assert!(idle && from.travel() == 0, "ant {id} left while ineligible");
                assert_eq!(to.travel(), arena.travel_rounds);
                departed += 1;
                offsets[(usize::from(to.site()) + SITES - usize::from(from.site())) % SITES] += 1;
            }
        }
    }
    let (lo, hi) = chernoff_band(eligible as f64 * arena.wander_probability);
    assert!(
        (lo..=hi).contains(&(departed as f64)),
        "{departed} departures of {eligible} eligible ants, band [{lo:.0}, {hi:.0}]"
    );
    assert_eq!(offsets[0], 0, "a departure stayed at its site");
    let (lo, hi) = chernoff_band(departed as f64 / (SITES - 1) as f64);
    for (offset, &count) in offsets.iter().enumerate().skip(1) {
        assert!(
            (lo..=hi).contains(&(count as f64)),
            "offset {offset}: {count} of {departed} departures, band [{lo:.0}, {hi:.0}]"
        );
    }
}

#[test]
fn single_site_zero_latency_arena_equals_well_mixed_for_every_spec() {
    // The degenerate geometry must compile to the shared well-mixed
    // view: identical traces, round for round, for every banked kind.
    for spec in scenarios::specs() {
        let k = if scenarios::single_task(&spec) { 1 } else { 3 };
        for seed in [3u64, 71] {
            let arena_cfg = arena_config(&spec, k, 120, seed, ArenaConfig::single_site(k));
            let mut mixed_cfg = arena_cfg.clone();
            mixed_cfg.arena = None;
            let mixed = Trace::of(&mut mixed_cfg.build(), 41);
            let arena = Trace::of(&mut arena_cfg.build(), 41);
            assert_eq!(mixed, arena, "trace diverged: {spec:?} seed {seed}");
        }
    }
}

#[test]
fn single_site_arena_with_latency_still_equals_well_mixed() {
    // With one site there is nowhere to travel to, so even a nonzero
    // latency never engages; only the wander coin (its own reserved
    // stream) differs, which must stay invisible to the ants.
    let arena = ArenaConfig {
        site_of_task: vec![0, 0],
        travel_rounds: 5,
        wander_probability: 0.4,
    };
    let arena_cfg = arena_config(&scenarios::kinds()[0], 2, 200, 9, arena);
    let mut mixed_cfg = arena_cfg.clone();
    mixed_cfg.arena = None;
    assert_eq!(
        Trace::of(&mut mixed_cfg.build(), 80),
        Trace::of(&mut arena_cfg.build(), 80)
    );
}

#[test]
fn multi_site_arena_serial_equals_parallel() {
    // Ant, Proportional, and the two mixed in one colony.
    let (kinds, mixes) = (scenarios::kinds(), scenarios::mixes());
    for spec in [&kinds[0], &kinds[6], &mixes[2]] {
        check_contract(&arena_config(spec, 3, 600, 17, multi_site(3)), 150);
    }
}

#[test]
fn multi_site_arena_checkpoint_restore_is_exact() {
    // Capture mid-run with travelers in flight (travel_rounds = 3,
    // wander on): the position and travel columns travel in the
    // checkpoint, so both continuations — restore, and restore_into a
    // dirty engine of another shape — must be bit-identical.
    let cfg = arena_config(&scenarios::mixes()[2], 3, 400, 23, multi_site(3));
    for split in [2u64, 10, 36] {
        check_contract_at(&cfg, split + 60, split);
    }
}

#[test]
fn arena_survives_timeline_shocks_bit_identically() {
    // Kill / scramble / per-task demand step under a multi-site arena:
    // every path must agree, with a checkpoint between the scramble and
    // the spawn.
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

    check_contract_at(&cfg, 90, 40);
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

    // Mid-window captures: the previous-round deficits travel in the
    // checkpoint, so a restore inside a rate trigger's streak continues
    // exactly.
    for split in [10u64, 17, 30] {
        let trace = check_contract_at(&cfg, 120, split);
        assert!(
            trace.triggers.iter().any(|t| t.firings > 0),
            "the deficit trigger never fired; the scenario is vacuous"
        );
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
    let cfg = scenarios::colony(&ControllerSpec::Trivial, 100, 2, 1)
        .arena(ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 0,
            wander_probability: 0.0,
        })
        .build()
        .expect("valid scenario");
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
    use antalloc_tests::scenarios::{generate, scenarios};
    use proptest::prelude::*;

    proptest! {
        /// A generated scenario (any kind, noise, start and timeline) in
        /// a single-site arena with random latency and wander rate is
        /// bit-identical to the same scenario well-mixed.
        #[test]
        fn degenerate_arena_equals_well_mixed(
            case in scenarios(),
            travel_rounds in 0u32..6,
            wander_probability in 0.0f64..1.0,
        ) {
            let mut mixed_cfg = case.config;
            mixed_cfg.arena = None;
            let mut arena_cfg = mixed_cfg.clone();
            arena_cfg.arena = Some(ArenaConfig {
                site_of_task: vec![0; mixed_cfg.demands.len()],
                travel_rounds,
                wander_probability,
            });
            let mixed = Trace::of(&mut mixed_cfg.build(), case.rounds);
            let arena = Trace::of(&mut arena_cfg.build(), case.rounds);
            prop_assert_eq!(mixed, arena);
        }
    }

    /// Generated multi-task scenarios moved into a random 2- or 3-site
    /// geometry hold the whole contract; the generator's kills leave
    /// fewer than 16 ants per participant and its population triggers
    /// spawn ants back, so every repartition is exercised.
    #[test]
    fn multi_site_contract_holds() {
        let cases = (0..).map(generate).filter(|c| c.config.demands.len() >= 2);
        for (i, case) in cases.take(8).enumerate() {
            let mut cfg = case.config;
            let k = cfg.demands.len();
            let sites = 2 + i % (k.min(3) - 1);
            cfg.arena = Some(ArenaConfig {
                site_of_task: (0..k).map(|j| (j % sites) as u32).collect(),
                travel_rounds: i as u32 % 5,
                wander_probability: 0.05 * i as f64,
            });
            check_contract(&cfg, case.rounds);
        }
    }

    /// The proportional controller holds the full contract on its own,
    /// across gains and deadbands, well-mixed and in an arena.
    #[test]
    fn proportional_full_contract() {
        for (i, (gain, deadband)) in [(0.05, 0u16), (0.25, 1), (0.5, 3), (1.0, 5)]
            .into_iter()
            .enumerate()
        {
            let spec = ControllerSpec::Proportional(ProportionalParams { gain, deadband });
            let mut cfg = arena_config(&spec, 2, 130, 7 + 13 * i as u64, multi_site(2));
            if i % 2 == 0 {
                cfg.arena = None;
            }
            check_contract(&cfg, 50);
        }
    }
}
