//! Checkpoint/restore produces bit-identical continuations, including
//! for long-phase controllers and non-trivial noise models.

use antalloc_core::{AntParams, PreciseAdversarialParams, PreciseSigmoidParams};
use antalloc_noise::{GreyZonePolicy, NoiseModel};
use antalloc_sim::{Checkpoint, CheckpointError, ControllerSpec, NullObserver, SimConfig};

fn replay_equivalence(cfg: SimConfig, split: u64, tail: u64) {
    let mut obs = NullObserver;
    let mut full = cfg.build();
    full.run(split + tail, &mut obs);

    let mut head = cfg.build();
    head.run(split, &mut obs);
    let cp = Checkpoint::capture(&head).unwrap_or_else(|e| panic!("capture: {e}"));
    let bytes = cp.to_bytes();
    let cp2 = Checkpoint::from_bytes(&bytes).unwrap();
    let mut resumed = cp2.restore();
    resumed.run(tail, &mut obs);

    assert_eq!(full.round(), resumed.round());
    assert_eq!(full.colony().assignments(), resumed.colony().assignments());
    assert_eq!(full.colony().loads(), resumed.colony().loads());
}

#[test]
fn ant_replays_exactly() {
    let cfg = SimConfig::builder(1000, vec![150, 200])
        .noise(NoiseModel::Sigmoid { lambda: 2.0 })
        .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
        .seed(3)
        .build()
        .expect("valid scenario");
    replay_equivalence(cfg, 600, 400); // 600 % 2 == 0: phase boundary.
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
    replay_equivalence(cfg, 82 * 5, 82 * 3);
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
    replay_equivalence(cfg, 320 * 2, 320);
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
        replay_equivalence(cfg.clone(), split, 200);
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
    // the serialized scenario format: checkpoint → TOML → SimConfig →
    // fresh run must equal both the original uninterrupted run and the
    // binary checkpoint's own restore path.
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
    let mut obs = NullObserver;

    let mut original = cfg.build();
    original.run(400, &mut obs);
    let cp = Checkpoint::capture(&original).unwrap();

    // The embedded config survives text serialization exactly.
    let toml_text = cp.config().to_toml();
    let rebuilt_cfg = SimConfig::from_toml(&toml_text)
        .unwrap_or_else(|e| panic!("embedded config must reparse: {e}\n{toml_text}"));
    assert_eq!(&rebuilt_cfg, cp.config());
    let json_cfg = SimConfig::from_json(&cp.config().to_json()).unwrap();
    assert_eq!(&json_cfg, cp.config());

    // A fresh engine from the deserialized config replays the whole
    // trajectory bit-identically...
    let mut replayed = rebuilt_cfg.build();
    replayed.run(400, &mut obs);
    assert_eq!(
        original.colony().assignments(),
        replayed.colony().assignments()
    );
    assert_eq!(original.colony().loads(), replayed.colony().loads());

    // ...and continues in lockstep with the binary restore path.
    let mut restored = cp.restore();
    restored.run(200, &mut obs);
    replayed.run(200, &mut obs);
    original.run(200, &mut obs);
    assert_eq!(
        original.colony().assignments(),
        restored.colony().assignments()
    );
    assert_eq!(
        original.colony().assignments(),
        replayed.colony().assignments()
    );
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
    let mut obs = NullObserver;
    let mut engine = cfg.build();
    engine.run(128, &mut obs);
    let cp = Checkpoint::capture(&engine).unwrap();
    let back = SimConfig::from_toml(&cp.config().to_toml()).unwrap();
    assert_eq!(&back, cp.config());
    // Replay from text-config start matches the live engine.
    let mut replay = back.build();
    replay.run(128, &mut obs);
    assert_eq!(engine.colony().assignments(), replay.colony().assignments());
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
    replay_equivalence(cfg, 400, 300);
}
