//! Checkpoint/restore produces bit-identical continuations, including
//! for long-phase controllers and non-trivial noise models: each
//! scenario runs through the shared oracle, split where the test says.

use antalloc_core::{AntParams, PreciseAdversarialParams, PreciseSigmoidParams};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use antalloc_sim::{ControllerSpec, SimConfig, Sweep};
use antalloc_tests::contract::check_contract_at;

#[test]
fn ant_replays_exactly() {
    let cfg = SimConfig::builder(1000, vec![150, 200])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(3)
        .build()
        .expect("valid scenario");
    check_contract_at(&cfg, 1000, 600); // 600 % 2 == 0: phase boundary.
}

#[test]
fn precise_sigmoid_replays_exactly_at_phase_boundary() {
    let params = PreciseSigmoidParams::new(0.05, 0.5); // phase 82
    let cfg = SimConfig::builder(800, vec![100, 120])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::PreciseSigmoid(params))
        .seed(4)
        .build()
        .expect("valid scenario");
    check_contract_at(&cfg, 82 * 8, 82 * 5);
}

#[test]
fn precise_adversarial_replays_under_adversarial_noise() {
    let params = PreciseAdversarialParams::new(0.05, 0.5); // phase 320
    let cfg = SimConfig::builder(600, vec![100])
        .noise(NoiseModel::Adversarial {
            gamma_ad: 0.05,
            policy: GreyZonePolicy::AlternateByRound,
        })
        .controller(ControllerSpec::PreciseAdversarial(params))
        .seed(5)
        .build()
        .expect("valid scenario");
    check_contract_at(&cfg, 320 * 3, 320 * 2);
}

#[test]
fn precise_sigmoid_captures_mid_phase_and_replays_exactly() {
    // The half-phase counters travel in the checkpoint (format v5), so
    // a capture *between* phase boundaries — previously refused, and
    // silently lossy to restore — now resumes bit-identically. Round
    // 83 is one round into a fresh 82-round phase; round 123 is right
    // after the half-phase pause coin.
    let params = PreciseSigmoidParams::new(0.05, 0.5); // phase 82
    let cfg = SimConfig::builder(100, vec![20])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::PreciseSigmoid(params))
        .seed(6)
        .build()
        .expect("valid scenario");
    for split in [83u64, 123] {
        check_contract_at(&cfg, split + 200, split);
    }
}

/// One scenario per kind whose state outlives a round in ways the
/// assignment does not show: AntDesync (its phase parity and first
/// samples), Hysteresis (each machine's contrary-signal streak) and
/// Ant (first samples at odd rounds).
fn mid_phase_kinds(seed: u64) -> [SimConfig; 3] {
    let desync = SimConfig::builder(400, vec![60, 80, 100])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)))
        .seed(seed)
        .build()
        .expect("valid scenario");
    let hysteresis = SimConfig::builder(300, vec![100])
        .noise(NoiseModel::Sigmoid { lambda: 1.0 })
        .controller(ControllerSpec::Hysteresis {
            depth: 3,
            lazy: Some(0.5),
        })
        .seed(seed)
        .build()
        .expect("valid scenario");
    let mixed = SimConfig::builder(300, vec![50, 70])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (1.0, ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0))),
        ]))
        .seed(seed)
        .build()
        .expect("valid scenario");
    [desync, hysteresis, mixed]
}

#[test]
fn every_kind_restores_exactly_off_its_phase_boundary() {
    // Odd splits land mid-phase for every Ant bank and mid-streak for
    // the machines.
    for (i, cfg) in mid_phase_kinds(11).iter().enumerate() {
        for split in [47, 83] {
            check_contract_at(cfg, split + 60, split + i as u64 * 2);
        }
    }
}

#[test]
fn desync_and_hysteresis_forks_match_warmup_on_20_seeds() {
    // A sweep forked off round 47 equals a plain 47-round warm-up, seed
    // for seed, for AntDesync and Hysteresis colonies.
    for cfg in &mid_phase_kinds(0)[..2] {
        let sweep = |s: Sweep| {
            s.seeds(0..20)
                .rounds(30)
                .threads(2)
                .run()
                .expect("sweep runs")
        };
        let forked = sweep(Sweep::new(cfg.clone()).from_round(47));
        let plain = sweep(Sweep::new(cfg.clone()).warmup(47));
        let differing = forked
            .iter()
            .zip(&plain)
            .filter(|(a, b)| {
                (
                    a.final_loads.clone(),
                    a.final_regret,
                    a.summary.total_regret(),
                ) != (
                    b.final_loads.clone(),
                    b.final_regret,
                    b.summary.total_regret(),
                )
            })
            .count();
        assert_eq!(
            differing, 0,
            "{:?}: seeds whose fork differs",
            cfg.controller
        );
    }
}

#[test]
fn checkpoint_config_roundtrips_through_toml_and_rebuilds_identically() {
    // A checkpoint written under one scenario must rebuild a
    // bit-identical engine after its config makes a round trip through
    // the serialized scenario format: the oracle's TOML and JSON rebuilds
    // must equal the config the checkpoint embeds and replay the whole
    // trajectory, in lockstep with the binary restore path.
    let cfg = SimConfig::builder(900, vec![120, 180])
        .noise(NoiseModel::CorrelatedSigmoid {
            lambda: 2.0,
            rho: 0.4,
            seed: 77,
        })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(0x5CEA)
        .build()
        .expect("valid scenario");
    check_contract_at(&cfg, 600, 400);
}

#[test]
fn checkpoint_config_roundtrip_covers_schedules_and_initials() {
    // The restore path must survive a config whose optional sections
    // (a demand-alternating timeline, initial) are all non-default.
    let cfg = SimConfig::builder(500, vec![60, 90])
        .noise(NoiseModel::Sigmoid { lambda: 1.5 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(0x5CEB)
        .timeline(antalloc_env::Timeline::new().every(
            64,
            64,
            vec![
                antalloc_env::Event::SetDemands(vec![90, 60]),
                antalloc_env::Event::SetDemands(vec![60, 90]),
            ],
        ))
        .initial(antalloc_env::InitialConfig::Inverted)
        .build()
        .expect("valid scenario");
    check_contract_at(&cfg, 192, 128);
}

#[test]
fn correlated_noise_replays_exactly() {
    // CorrelatedSigmoid derives shared draws from (seed, round, task):
    // restores must regenerate the identical shared coins.
    let cfg = SimConfig::builder(700, vec![90, 110])
        .noise(NoiseModel::CorrelatedSigmoid {
            lambda: 2.0,
            rho: 0.5,
            seed: 99,
        })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(8)
        .build()
        .expect("valid scenario");
    check_contract_at(&cfg, 700, 400);
}
