//! The colony workloads (`wellmixed_mix`, `arena_shocks`): one large
//! colony stepped in blocks on three paths that must agree bit for bit.
//!
//! Every block of [`BLOCK`] rounds runs on
//! 1. the serial engine, one timed `step` per round;
//! 2. a second engine of the same scenario through
//!    `run_parallel(…, 2, …)`;
//! 3. a third engine that decodes the serial engine's block-start
//!    checkpoint, restores it and replays the block.
//!
//! Paths 2 and 3 are checked against path 1 after every block (final
//! loads and a digest of every round record), so every timed block is
//! also a correctness check.

use std::time::Instant;

use antalloc_env::Timeline;
use antalloc_sim::{Checkpoint, Observer, RoundRecord, SimConfig, SyncEngine};

use crate::calib::Calibrator;
use crate::probes::KernelProbe;
use crate::stats::{median, quantile};
use crate::trace::{close, open, timed, Tracer};
use crate::Report;

/// Rounds per block. Even, so every block starts on a capture boundary
/// of the mix (Algorithm Ant's phase is 2 rounds).
pub const BLOCK: u64 = 20;

/// Blocks every end-to-end run completes whatever `--seconds` says, so
/// the digest it prints is a function of the seed alone.
const DIGEST_BLOCKS: usize = 4;

/// Blocks of the traced window. Fixed, so the exact counts repeat.
pub const TRACE_BLOCKS: usize = 10;

/// `SyncEngine::run_parallel`'s floor: below this many ants per worker
/// it steps serially instead of pooling.
const POOL_MIN_ANTS_PER_WORKER: usize = 8_000;

/// Order-sensitive digest of round records.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
}

impl Observer for Digest {
    fn on_round(&mut self, r: &RoundRecord<'_>) {
        self.mix(r.round);
        self.mix(r.instant_regret());
        self.mix(r.switches);
        self.mix(r.idle);
        for &load in r.loads {
            self.mix(u64::from(load));
        }
    }
}

/// What one block measured. Times are as measured; each path's
/// `*_scale` (1 without a calibrator) converts them to the reference
/// machine speed of [`crate::calib`].
pub struct Block {
    pub ant_rounds: u64,
    pub serial_s: f64,
    pub pooled_s: f64,
    pub replay_s: f64,
    pub serial_scale: f64,
    pub pooled_scale: f64,
    pub replay_scale: f64,
    /// Serial step time of each round.
    pub round_s: Vec<f64>,
    /// Whether any timeline event fired at the start of each round.
    pub event: Vec<bool>,
    /// Timeline events applied during the block (scheduled + triggered).
    pub events_fired: u64,
    /// Noise-preparation seconds of the kernel probe (traced only).
    pub prepare_s: f64,
    /// Estimated kernel seconds of the serial rounds (traced only).
    pub kernel_s: f64,
}

/// The three engines of one colony scenario.
pub struct Colony {
    compiled: Timeline,
    pub serial: SyncEngine,
    pooled: SyncEngine,
    replay: SyncEngine,
    /// Running digest of the serial path's round records.
    pub digest: Digest,
}

impl Colony {
    pub fn new(cfg: &SimConfig) -> Result<Self, String> {
        let build = || cfg.try_build().map_err(|e| e.to_string());
        Ok(Self {
            compiled: cfg.timeline.compile(cfg.seed, cfg.n, &cfg.demands),
            serial: build()?,
            pooled: build()?,
            replay: build()?,
            digest: Digest::default(),
        })
    }

    /// Scripted (one-shot and cycle) events firing at `round`.
    fn scheduled(&self, round: u64) -> u64 {
        let events = &self.compiled.events;
        let from = events.partition_point(|e| e.at < round);
        let to = events.partition_point(|e| e.at <= round);
        let cycles = self.compiled.cycles.iter().filter(|c| c.fires_at(round));
        (to - from + cycles.count()) as u64
    }

    /// Runs one block on all three paths and checks them against each
    /// other. With a tracer, every layer call is a span and the kernel
    /// probe steps its side banks on each serial round's feedback. With
    /// a calibrator, the reference loop runs before each path.
    pub fn block(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        mut kernels: Option<&mut KernelProbe>,
        mut calib: Option<&mut Calibrator>,
        report: &mut Report,
    ) -> Block {
        // Each path's scale averages the reference loop run right
        // before it and right after it.
        let mut scale = || calib.as_deref_mut().map_or(1.0, Calibrator::time_scale);
        let before_serial = scale();
        let block = open(tracer.as_deref_mut(), "colony.block");
        let start_round = self.serial.round();
        let (captured, _) = timed(tracer.as_deref_mut(), "checkpoint.capture", block, || {
            Checkpoint::capture(&self.serial)
        });
        let bytes = match captured {
            Ok(ckpt) => Some(
                timed(tracer.as_deref_mut(), "checkpoint.encode", block, || {
                    ckpt.to_bytes()
                })
                .0,
            ),
            Err(e) => {
                report.check(false, || format!("capture at round {start_round}: {e}"));
                None
            }
        };

        let mut out = Block {
            ant_rounds: 0,
            serial_s: 0.0,
            pooled_s: 0.0,
            replay_s: 0.0,
            serial_scale: 1.0,
            pooled_scale: 1.0,
            replay_scale: 1.0,
            round_s: Vec::with_capacity(BLOCK as usize),
            event: Vec::with_capacity(BLOCK as usize),
            events_fired: 0,
            prepare_s: 0.0,
            kernel_s: 0.0,
        };
        let mut serial_digest = Digest::default();
        for _ in 0..BLOCK {
            let round = self.serial.round() + 1;
            let triggered = self
                .serial
                .trigger_states()
                .iter()
                .filter(|s| s.pending)
                .count() as u64;
            let fired = self.scheduled(round) + triggered;
            if let (Some(t), Some(k)) = (tracer.as_deref_mut(), kernels.as_deref_mut()) {
                let (prepare_s, kernel_s) = k.feed(&self.serial, t, block);
                out.prepare_s += prepare_s;
                out.kernel_s += kernel_s;
            }
            let ((), secs) = timed(tracer.as_deref_mut(), "sim.step", block, || {
                self.serial.step(&mut serial_digest)
            });
            out.round_s.push(secs);
            out.event.push(fired > 0);
            out.events_fired += fired;
            out.serial_s += secs;
            out.ant_rounds += self.serial.colony().num_ants() as u64;
        }

        out.serial_scale = (before_serial + scale()) / 2.0;
        let mut pooled_digest = Digest::default();
        let before_pooled = scale();
        let ((), pooled_s) = timed(tracer.as_deref_mut(), "sim.run_parallel_2t", block, || {
            self.pooled.run_parallel(BLOCK, 2, &mut pooled_digest)
        });
        out.pooled_s = pooled_s;
        out.pooled_scale = (before_pooled + scale()) / 2.0;
        report.check(
            pooled_digest == serial_digest
                && self.pooled.colony().loads() == self.serial.colony().loads(),
            || format!("2-thread block from round {start_round} diverged from serial"),
        );

        if let Some(bytes) = bytes {
            let before_replay = scale();
            let replay_start = Instant::now();
            let (decoded, _) = timed(tracer.as_deref_mut(), "checkpoint.decode", block, || {
                Checkpoint::from_bytes(&bytes)
            });
            match decoded {
                Ok(ckpt) => {
                    let replay = &mut self.replay;
                    timed(tracer.as_deref_mut(), "checkpoint.restore", block, || {
                        ckpt.restore_into(replay)
                    });
                    let mut replay_digest = Digest::default();
                    timed(tracer.as_deref_mut(), "sim.replay_run", block, || {
                        replay.run(BLOCK, &mut replay_digest)
                    });
                    out.replay_s = replay_start.elapsed().as_secs_f64();
                    out.replay_scale = (before_replay + scale()) / 2.0;
                    report.check(
                        replay_digest == serial_digest
                            && replay.colony().loads() == self.serial.colony().loads(),
                        || format!("checkpoint of round {start_round} replayed differently"),
                    );
                }
                Err(e) => report.check(false, || format!("decode of round {start_round}: {e}")),
            }
        }
        self.digest.mix(serial_digest.0);
        close(tracer, block);
        out
    }

    /// Digest of the run so far: every round record plus the final loads.
    pub fn state_digest(&self) -> u64 {
        let mut d = self.digest;
        d.mix(self.serial.round());
        for &load in self.serial.colony().loads() {
            d.mix(u64::from(load));
        }
        d.0
    }
}

/// Per-block ant-rounds per second at reference speed; `secs` gives a
/// path's measured seconds and scale.
fn rates(blocks: &[Block], secs: impl Fn(&Block) -> (f64, f64)) -> Vec<f64> {
    blocks
        .iter()
        .filter(|b| secs(b).0 > 0.0)
        .map(|b| b.ant_rounds as f64 / (secs(b).0 * secs(b).1))
        .collect()
}

/// The end-to-end loop: blocks until `seconds` have passed, with one
/// timed set-up (`setup(1)`) before each.
pub fn run_e2e(
    cfg: &SimConfig,
    seconds: f64,
    setup: &mut dyn FnMut(usize) -> Result<(), String>,
    report: &mut Report,
) -> Result<(), String> {
    let mut colony = Colony::new(cfg)?;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut blocks = Vec::new();
    let mut calib = Calibrator::new();
    while blocks.len() < DIGEST_BLOCKS || Instant::now() < deadline {
        setup(1)?;
        blocks.push(colony.block(None, None, Some(&mut calib), report));
        if blocks.len() == DIGEST_BLOCKS {
            report.notes.push(format!(
                "state digest after {} rounds: {:016x}",
                colony.serial.round(),
                colony.state_digest()
            ));
        }
    }
    report.set_median(
        "ant_rounds_per_s",
        &rates(&blocks, |b| (b.serial_s, b.serial_scale)),
    );
    report.set_median(
        "ant_rounds_per_s_2t",
        &rates(&blocks, |b| (b.pooled_s, b.pooled_scale)),
    );
    report.set_median(
        "replay_ant_rounds_per_s",
        &rates(&blocks, |b| (b.replay_s, b.replay_scale)),
    );
    let round_ms: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.round_s.iter().map(|s| s * b.serial_scale * 1e3))
        .collect();
    let speed: Vec<f64> = blocks.iter().map(|b| 1.0 / b.serial_scale).collect();
    report.notes.push(format!(
        "round_p99_ms {:.3} over {} serial rounds in {} blocks of {BLOCK}; \
         machine speed vs reference {:.3} (median over blocks)",
        quantile(&round_ms, 0.99),
        round_ms.len(),
        blocks.len(),
        median(&speed)
    ));
    Ok(())
}

/// Serial ant-rounds per second over a fixed window of fresh engines.
fn window_rate(blocks: &[Block]) -> f64 {
    let ant_rounds: u64 = blocks.iter().map(|b| b.ant_rounds).sum();
    let secs: f64 = blocks.iter().map(|b| b.serial_s).sum();
    ant_rounds as f64 / secs
}

/// The traced window: [`TRACE_BLOCKS`] blocks from round 0, each run
/// untraced on one set of engines and then traced (every layer call in
/// a span) on a second set. Reports the `sim.*`, `env.*`, `noise.*`,
/// `core.*` and `checkpoint.*` metrics and returns `(untraced, traced)`
/// serial ant-rounds per second over the identical rounds.
pub fn traced_window(
    cfg: &SimConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    // Untraced and traced blocks alternate, so both see the same
    // machine and allocator state over identical rounds.
    let mut untraced = Colony::new(cfg)?;
    let mut colony = Colony::new(cfg)?;
    let k = cfg.demands.len();
    let mut kernels = KernelProbe::new(k, (cfg.n / 4).max(256), cfg.seed)?;
    let (mut plain, mut blocks) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_BLOCKS {
        plain.push(untraced.block(None, None, None, report));
        blocks.push(colony.block(Some(&mut *tracer), Some(&mut kernels), None, report));
    }
    report.check(untraced.state_digest() == colony.state_digest(), || {
        "tracing changed the run".into()
    });
    drop(untraced);
    report.notes.push(format!(
        "traced window state digest after {} rounds: {:016x}",
        colony.serial.round(),
        colony.state_digest()
    ));
    kernels.report(report);

    let step_s: f64 = blocks.iter().map(|b| b.serial_s).sum();
    let kernel_s: f64 = blocks.iter().map(|b| b.kernel_s).sum();
    let prepare_s: f64 = blocks.iter().map(|b| b.prepare_s).sum();
    report.set("core.kernel_share", kernel_s / step_s);
    report.set(
        "sim.unattributed_share",
        1.0 - (prepare_s + kernel_s) / step_s,
    );

    let (mut quiet_ms, mut event_ms) = (Vec::new(), Vec::new());
    let (mut segments, mut fallback) = (0u64, 0u64);
    for b in &blocks {
        let mut in_segment = false;
        for (&secs, &event) in b.round_s.iter().zip(&b.event) {
            if event {
                event_ms.push(secs * 1e3);
                fallback += 1;
            } else {
                quiet_ms.push(secs * 1e3);
                segments += u64::from(!in_segment);
            }
            in_segment = !event;
        }
    }
    if colony.serial.colony().num_ants() < 2 * POOL_MIN_ANTS_PER_WORKER {
        // Too small to pool: run_parallel steps every round serially.
        fallback = (quiet_ms.len() + event_ms.len()) as u64;
        segments = 0;
    }
    let all_ms: Vec<f64> = quiet_ms.iter().chain(&event_ms).copied().collect();
    report.set("sim.round_p99_ms", quantile(&all_ms, 0.99));
    report.set("sim.quiet_round_ms", median(&quiet_ms));
    if event_ms.is_empty() {
        // No timeline event fired in the window (a static scenario):
        // time the nearest thing, one scramble and the round after it,
        // on the replay engine restored to the serial engine's state.
        let ckpt = Checkpoint::capture(&colony.serial).map_err(|e| e.to_string())?;
        for _ in 0..4 {
            ckpt.restore_into(&mut colony.replay);
            let replay = &mut colony.replay;
            let ((), secs) = timed(Some(&mut *tracer), "sim.event_probe", None, || {
                replay.perturb(&antalloc_env::Perturbation::Scramble);
                replay.step(&mut Digest::default());
            });
            event_ms.push(secs * 1e3);
        }
    }
    report.set("sim.event_round_ms", median(&event_ms));
    report.set(
        "env.events_fired",
        blocks.iter().map(|b| b.events_fired).sum::<u64>() as f64,
    );
    let trigger_firings: u64 = colony
        .serial
        .trigger_states()
        .iter()
        .map(|s| u64::from(s.firings))
        .sum();
    report.set("env.triggers_fired", trigger_firings as f64);
    report.set("sim.pooled_segments", segments as f64);
    report.set("sim.serial_fallback_rounds", fallback as f64);
    let pooled_s: f64 = blocks.iter().map(|b| b.pooled_s).sum();
    report.set("sim.pooled_speedup_2t", step_s / pooled_s);

    let us = |name| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e6).collect() };
    report.set_median("checkpoint.capture_us", &us("checkpoint.capture"));
    report.set_median("checkpoint.encode_us", &us("checkpoint.encode"));
    report.set_median("checkpoint.decode_us", &us("checkpoint.decode"));
    report.set_median("checkpoint.restore_us", &us("checkpoint.restore"));
    let bytes = Checkpoint::capture(&colony.serial)
        .map_err(|e| e.to_string())?
        .to_bytes()
        .len();
    report.set("checkpoint.bytes", bytes as f64);

    Ok((window_rate(&plain), window_rate(&blocks)))
}
