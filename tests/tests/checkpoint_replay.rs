//! Checkpoint/restore produces bit-identical continuations, including
//! for long-phase controllers and non-trivial noise models: each
//! scenario runs through the shared oracle, split where the test says.

use antalloc_core::{AntParams, PreciseAdversarialParams, PreciseSigmoidParams};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use antalloc_sim::{Checkpoint, CheckpointError, ControllerSpec, NullObserver, SimConfig};
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

#[test]
fn off_boundary_capture_is_still_refused_without_a_scratch_codec() {
    // Kinds whose mid-phase scratch is *not* serialized (here: §4 Ant,
    // whose first-sample state lives only in the bank) keep the
    // phase-boundary rule.
    let cfg = SimConfig::builder(100, vec![20])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(6)
        .build()
        .expect("valid scenario");
    let mut engine = cfg.build();
    let mut obs = NullObserver;
    engine.run(3, &mut obs);
    match Checkpoint::capture(&engine) {
        Err(CheckpointError::NotAtPhaseBoundary { round: 3, phase: 2 }) => {}
        other => panic!("expected boundary refusal, got {other:?}"),
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
