//! Versioned checkpoints: the canonical scenario text plus binary
//! runtime state.
//!
//! A checkpoint captures everything a [`SyncEngine`] needs to continue a
//! run bit-identically: the config (including noise model, controller
//! spec and the full event timeline — triggers and generators
//! included), the current demands, the noise model currently in force,
//! the timeline cursor, the runtime state of every trigger, every
//! ant's controller state, and the round counter — so a capture taken
//! at *any* round, mid-phase or mid-timeline (after kills, spawns,
//! demand steps, noise switches or trigger firings), resumes exactly
//! where the run left off.
//!
//! The config and the live noise model travel as the same canonical
//! TOML the scenario files and store fingerprints use
//! ([`SimConfig::to_toml`]), so the scenario codec is the one place a
//! config is serialized; everything else is a fixed little-endian
//! binary layout. The layout and the read-compat policy (current
//! version only) live in `docs/CHECKPOINTS.md`.
//!
//! No ant carries generator state: an ant's draws in a round are a pure
//! function of `(seed, round, ant id)` (see [`antalloc_rng::AntRng::keyed`]),
//! so the round counter and the ids are all the randomness a restore
//! needs.
//!
//! **Codec.** A checkpoint holds the engine's per-ant state as the
//! engine holds it (the engine's `Snapshot`): the colony's `u16` task
//! column, the `u16` membership column of a mix, every bank's columns
//! as its `soa_bank!` schema declares them — all but the assignment,
//! which equals the task column between rounds — and the arena's `u16`
//! site and `u32` travel columns. Capture, encode, decode and restore
//! are column copies; decode checks every column against its schema
//! domain (task ids, counter bounds, row padding, machine states,
//! membership, positions) once, so a restore never meets a value the
//! banks could not have held.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use antalloc_env::TriggerState;

use crate::config::{ControllerSpec, SimConfig};
use crate::engine::{Snapshot, SyncEngine};
use crate::scenario::{config_from_value, noise_from_value, noise_to_value, toml, ConfigError};

const MAGIC: u32 = 0x414E_5441; // "ANTA"
/// The format version: writers emit it and readers accept only it
/// (`docs/CHECKPOINTS.md` documents the layout and why older versions
/// are rejected rather than migrated).
const VERSION: u32 = 10;

/// Why a checkpoint could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream is a checkpoint of another format version: this
    /// build reads only its own (see `docs/CHECKPOINTS.md`).
    Version {
        /// The version the stream declares.
        found: u32,
    },
    /// The byte stream is not a valid checkpoint.
    Corrupt(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Version { found } => write!(
                f,
                "checkpoint format version {found}, but this build reads only version {VERSION}"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A captured simulation state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    state: Snapshot,
}

impl Checkpoint {
    /// Snapshots the engine, exactly, at whatever round it is.
    ///
    /// # Errors
    /// None today: every kind's state is captured at every round. The
    /// `Result` keeps callers ready for a state a future engine cannot
    /// capture.
    pub fn capture(engine: &SyncEngine) -> Result<Self, CheckpointError> {
        Ok(Self {
            state: engine.snapshot(),
        })
    }

    /// Rebuilds a running engine.
    pub fn restore(&self) -> SyncEngine {
        let mut engine = SyncEngine::empty();
        self.restore_into(&mut engine);
        engine
    }

    /// Restores the captured state into an existing engine in place,
    /// reusing its allocations (the sweep fast path's engine-reuse
    /// counterpart for resumed runs) — and its banks' id lists when it
    /// already holds the captured membership. Bit-identical to
    /// [`Checkpoint::restore`] regardless of what the engine ran
    /// before.
    pub fn restore_into(&self, engine: &mut SyncEngine) {
        engine.restore_from(&self.state, None);
    }
    /// Rebases the captured state onto a *different* configuration —
    /// the sweep warm-start path (`Sweep::from_round`): one prefix run
    /// of the base scenario is captured once, then forked into every
    /// grid point, whose parameters take effect from the captured
    /// round onward.
    ///
    /// Callers must have prechecked the fork (the sweep does): same
    /// controller, colony size, initial configuration, task count and
    /// arena, same triggers and generators, identical timeline prefix
    /// through the captured round, and the same seed as the prefix run. Within
    /// that envelope the rebase is mechanical: swept `demands`/`noise`
    /// replace the captured values only when the fork config actually
    /// changes them from the *base* config (a prefix timeline event
    /// that already overrode them wins otherwise, exactly as it would
    /// in an uninterrupted run), and the one-shot cursor is recomputed
    /// against the fork's compiled timeline. With an unchanged config
    /// this is [`Checkpoint::restore_into`] bit for bit.
    ///
    /// # Panics
    /// If `config`'s arena differs from the captured one: the captured
    /// positions belong to the captured arena.
    pub fn fork_into(&self, config: &SimConfig, engine: &mut SyncEngine) {
        assert!(
            config.arena == self.state.config.arena,
            "a fork must keep the captured arena"
        );
        engine.restore_from(&self.state, Some(config));
    }

    /// The captured round.
    pub fn round(&self) -> u64 {
        self.state.round
    }

    /// The configuration embedded in this checkpoint.
    ///
    /// Together with [`crate::SimConfig::to_toml`] this lets a
    /// checkpoint publish the scenario that produced it verbatim.
    pub fn config(&self) -> &SimConfig {
        &self.state.config
    }

    /// The byte length of each binary runtime section, in stream order:
    /// current demands, cursor, trigger states, task column, membership,
    /// bank columns and arena columns (0 when absent).
    fn runtime_section_lens(&self) -> [usize; 7] {
        let s = &self.state;
        let (ants, k) = (s.tasks.len(), s.demands.len());
        let triggers: usize = s
            .triggers
            .iter()
            .map(|t| 8 + 8 + 1 + 8 + 4 * t.streaks.len() + 8 + 8 * t.prev_deficits.len())
            .sum();
        let members = match s.config.controller {
            ControllerSpec::Mix(_) => 2 * ants,
            _ => 0,
        };
        let arena = match s.config.arena {
            Some(_) => 6 * ants,
            None => 0,
        };
        [
            8 + 8 * k,
            8,
            8 + triggers,
            8 + 2 * ants,
            members,
            s.banks.len(),
            arena,
        ]
    }

    /// Serializes to the versioned format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let s = &self.state;
        let config = s.config.to_toml();
        let noise = toml::write(&noise_to_value(&s.noise));
        // Sized exactly: growing a multi-megabyte buffer mid-encode
        // measurably raised peak RSS on 200k-ant colonies.
        let runtime: usize = self.runtime_section_lens().iter().sum();
        let mut out = Vec::with_capacity(40 + config.len() + noise.len() + runtime);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&s.round.to_le_bytes());
        out.extend_from_slice(&s.next_stream.to_le_bytes());
        put_text(&mut out, &config);
        put_text(&mut out, &noise);
        out.extend_from_slice(&(s.demands.len() as u64).to_le_bytes());
        put_le(&mut out, &s.demands, u64::to_le_bytes);
        out.extend_from_slice(&s.cursor.to_le_bytes());
        out.extend_from_slice(&(s.triggers.len() as u64).to_le_bytes());
        for state in &s.triggers {
            out.extend_from_slice(&u64::from(state.firings).to_le_bytes());
            out.extend_from_slice(&state.last_fired.to_le_bytes());
            out.push(u8::from(state.pending));
            out.extend_from_slice(&(state.streaks.len() as u64).to_le_bytes());
            put_le(&mut out, &state.streaks, u32::to_le_bytes);
            out.extend_from_slice(&(state.prev_deficits.len() as u64).to_le_bytes());
            put_le(&mut out, &state.prev_deficits, i64::to_le_bytes);
        }
        out.extend_from_slice(&(s.tasks.len() as u64).to_le_bytes());
        put_le(&mut out, &s.tasks, u16::to_le_bytes);
        // Per-ant bank membership, present iff the spec is a Mix.
        put_le(&mut out, &s.members, u16::to_le_bytes);
        // Every bank's columns, already little-endian.
        out.extend_from_slice(&s.banks);
        // Per-ant arena columns (site, then travel), present iff the
        // config carries an arena.
        put_le(&mut out, &s.arena_site, u16::to_le_bytes);
        put_le(&mut out, &s.arena_travel, u32::to_le_bytes);
        out
    }

    /// Deserializes from [`Checkpoint::to_bytes`] output.
    ///
    /// # Errors
    /// [`CheckpointError::Version`] for a stream of another format
    /// version, [`CheckpointError::Corrupt`] for anything else that is
    /// not a checkpoint this build wrote: every length, and every
    /// per-ant value against its column's domain, is checked here.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, CheckpointError> {
        let buf = &mut buf;
        if get_u32(buf)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = get_u32(buf)?;
        if version != VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        let round = get_u64(buf)?;
        let next_stream = get_u64(buf)?;
        // The config passes the same structural validation as
        // `SimConfig::build`: any captured config did, so a failure here
        // means crafted or corrupted bytes — and a crafted generator
        // (start = 0, absurd windows) must never drive the timeline
        // expansion below.
        let config = decode_text(buf, "config", |root| {
            let (config, _, _) = config_from_value(root)?;
            config.validate_structure()?;
            Ok(config)
        })?;
        let k = config.demands.len();
        let noise = decode_text(buf, "live noise", |root| {
            let noise = noise_from_value(root)?;
            noise.validate(k).map_err(ConfigError::Noise)?;
            Ok(noise)
        })?;
        let len = get_u64(buf)? as usize;
        if len != k {
            return Err(corrupt(format!("{len} current demands for {k} tasks")));
        }
        let demands = get_le(buf, k, u64::from_le_bytes)?;
        // The cursor indexes the *compiled* stream (generated events
        // included), whose length the generators' draws give without
        // building it.
        let cursor = get_u64(buf)?;
        let timeline = &config.timeline;
        let compiled_events = timeline.compiled_len(config.seed, k);
        if cursor as usize > compiled_events {
            return Err(corrupt(format!(
                "timeline cursor {cursor} exceeds {compiled_events} compiled events"
            )));
        }
        let count = get_u64(buf)? as usize;
        if count != timeline.triggers.len() {
            return Err(corrupt(format!(
                "{count} trigger states for {} triggers",
                timeline.triggers.len()
            )));
        }
        let mut triggers = Vec::with_capacity(count);
        for (i, trigger) in timeline.triggers.iter().enumerate() {
            let firings = get_u64(buf)?;
            let firings = u32::try_from(firings)
                .map_err(|_| corrupt(format!("implausible firing count {firings}")))?;
            let last_fired = get_u64(buf)?;
            let pending = get_bool(buf)?;
            let len = get_u64(buf)? as usize;
            let streaks = get_le(buf, len, u32::from_le_bytes)?;
            let len = get_u64(buf)? as usize;
            let prev_deficits = get_le(buf, len, i64::from_le_bytes)?;
            let state = TriggerState {
                streaks,
                firings,
                last_fired,
                pending,
                prev_deficits,
            };
            if !state.matches(trigger) {
                return Err(corrupt(format!(
                    "trigger state {i} disagrees with its condition shape"
                )));
            }
            triggers.push(state);
        }
        let ants = get_u64(buf)? as usize;
        // Validate the claimed count against the bytes actually present
        // (2 per task slot) before any allocation — a corrupted count
        // must not drive an allocation to OOM. A live colony never drops
        // below one ant.
        if ants == 0 || buf.len() / 2 < ants {
            return Err(corrupt(format!(
                "ant count {ants} is zero or exceeds remaining payload"
            )));
        }
        let tasks = get_le(buf, ants, u16::from_le_bytes)?;
        // Idle wraps to 0 and task `j` to `j + 1`, so one max decides.
        if let Some(top) = tasks.iter().map(|&t| t.wrapping_add(1)).max() {
            if usize::from(top) > k {
                return Err(corrupt(format!(
                    "task {} out of range ({k} tasks)",
                    top - 1
                )));
            }
        }
        let (members, sizes) = match &config.controller {
            ControllerSpec::Mix(parts) => {
                let members = get_le(buf, ants, u16::from_le_bytes)?;
                let mut sizes = vec![0usize; parts.len()];
                for &m in &members {
                    match sizes.get_mut(usize::from(m)) {
                        Some(size) => *size += 1,
                        None => {
                            return Err(corrupt(format!(
                                "membership {m} references unknown sub-spec"
                            )))
                        }
                    }
                }
                (members, sizes)
            }
            _ => (Vec::new(), vec![ants]),
        };
        // Each bank's columns, checked against a bank of its (sub-)spec.
        let subs = config
            .controller
            .mix_parts()
            .map_or(vec![&config.controller], |parts| {
                parts.iter().map(|(_, spec)| spec).collect()
            });
        let start = *buf;
        for (b, (spec, &size)) in subs.into_iter().zip(&sizes).enumerate() {
            let bank = spec.build_bank(k, &[]);
            let state = take(buf, bank.state_len(size))?;
            bank.check_state(size, state)
                .map_err(|e| corrupt(format!("bank {b}: {e}")))?;
        }
        let banks = start[..start.len() - buf.len()].to_vec();
        // The per-ant arena columns close the stream (present iff the
        // config carries an arena).
        let (arena_site, arena_travel) = match &config.arena {
            Some(arena) => {
                let site = get_le(buf, ants, u16::from_le_bytes)?;
                let sites = arena.num_sites();
                if let Some(s) = site.iter().max().filter(|&&s| usize::from(s) >= sites) {
                    return Err(corrupt(format!(
                        "arena site {s} out of range (the arena has {sites} sites)"
                    )));
                }
                let travel = get_le(buf, ants, u32::from_le_bytes)?;
                let latency = arena.travel_rounds;
                if let Some(t) = travel.iter().max().filter(|&&t| t > latency) {
                    return Err(corrupt(format!(
                        "arena travel {t} exceeds the travel latency {latency}"
                    )));
                }
                (site, travel)
            }
            None => (Vec::new(), Vec::new()),
        };
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Self {
            state: Snapshot {
                config,
                demands,
                noise,
                round,
                next_stream,
                cursor,
                triggers,
                tasks,
                members,
                banks,
                arena_site,
                arena_travel,
            },
        })
    }

    /// Writes the checkpoint to a file atomically: the bytes go to a
    /// uniquely named temp file in the same directory, which is then
    /// renamed over `path`, so an interrupted save leaves any previous
    /// checkpoint at `path` intact.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = path.parent().unwrap_or(Path::new(""));
        std::fs::create_dir_all(dir)?;
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{name}.tmp.{}.{seq}", std::process::id()));
        let saved =
            std::fs::write(&tmp, self.to_bytes()).and_then(|()| std::fs::rename(&tmp, path));
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes =
            std::fs::read(path).map_err(|e| corrupt(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---- text sections -------------------------------------------------------

fn put_text(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u64).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// Reads a length-prefixed TOML section and decodes it through the
/// scenario codec; parse and validation errors are corruption.
fn decode_text<T>(
    buf: &mut &[u8],
    what: &str,
    decode: impl FnOnce(&crate::scenario::Value) -> Result<T, ConfigError>,
) -> Result<T, CheckpointError> {
    let len = get_u64(buf)?;
    if len > buf.len() as u64 {
        return Err(corrupt(format!(
            "{what} section length {len} exceeds remaining payload"
        )));
    }
    let text = std::str::from_utf8(take(buf, len as usize)?)
        .map_err(|e| corrupt(format!("{what} section is not UTF-8: {e}")))?;
    toml::parse(text)
        .and_then(|root| decode(&root))
        .map_err(|e| corrupt(format!("invalid {what} section: {e}")))
}

// ---- fixed-width runs (readers are length-checked) -----------------------

/// Appends `xs` as one little-endian run, converted through a small
/// stack block so the output is written once (no zero-fill pass over
/// fresh memory).
fn put_le<T: Copy, const N: usize>(out: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; N]) {
    for chunk in xs.chunks(256) {
        let mut block = [[0u8; N]; 256];
        for (dst, &x) in block.iter_mut().zip(chunk) {
            *dst = to_le(x);
        }
        out.extend_from_slice(block[..chunk.len()].as_flattened());
    }
}

/// Splits `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    if buf.len() < n {
        return Err(corrupt(format!("truncated: need {n} more bytes")));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Reads `count` little-endian values of `N` bytes each as one run; the
/// length is checked before anything is allocated.
fn get_le<T, const N: usize>(
    buf: &mut &[u8],
    count: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, CheckpointError> {
    let bytes = take(buf, count.saturating_mul(N))?;
    Ok(bytes
        .as_chunks::<N>()
        .0
        .iter()
        .map(|&c| from_le(c))
        .collect())
}

fn get<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CheckpointError> {
    take(buf, N).map(|bytes| bytes.as_chunks::<N>().0[0])
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, CheckpointError> {
    get(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, CheckpointError> {
    get(buf).map(u64::from_le_bytes)
}

fn get_bool(buf: &mut &[u8]) -> Result<bool, CheckpointError> {
    get(buf).map(|[b]: [u8; 1]| b != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use antalloc_core::ControllerBank;
    use antalloc_core::{
        AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
        ProportionalParams,
    };
    use antalloc_env::{Condition, Event, InitialConfig, Timeline, Trigger};
    use antalloc_noise::{GreyZonePolicy, NoiseModel};

    /// The frozen fixture: a 3-site arena, a Precise Sigmoid +
    /// Proportional + AntDesync + Precise Adversarial mix captured
    /// mid-phase, a `deficit-rate-above` trigger, a generator and a
    /// `set-noise` switch — a stream with every section populated.
    const FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/checkpoint_v10.ckpt");

    fn config() -> SimConfig {
        SimConfig::builder(200, vec![30, 40])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(99)
            .build()
            .expect("valid scenario")
    }

    /// The config section's text (it follows the 24-byte header).
    fn config_text(bytes: &[u8]) -> &str {
        let len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        std::str::from_utf8(&bytes[32..32 + len]).unwrap()
    }

    /// `bytes` with its config section replaced by `text`.
    fn with_config_text(bytes: &[u8], text: &str) -> Vec<u8> {
        let old_len = config_text(bytes).len();
        let mut out = bytes[..24].to_vec();
        out.extend_from_slice(&(text.len() as u64).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
        out.extend_from_slice(&bytes[32 + old_len..]);
        out
    }

    /// The offsets at which each section of `cp.to_bytes()` ends.
    fn section_ends(cp: &Checkpoint) -> Vec<usize> {
        let noise = toml::write(&noise_to_value(&cp.state.noise));
        [8, 16, 8 + cp.state.config.to_toml().len(), 8 + noise.len()]
            .into_iter()
            .chain(cp.runtime_section_lens())
            .scan(0, |at, len| {
                *at += len;
                Some(*at)
            })
            .collect()
    }

    /// A reference encoder over the per-ant reference controllers, which
    /// `to_bytes` must match byte for byte: every ant's controller
    /// (`reference_controllers`, global order) is pushed into a fresh
    /// bank of its sub-spec in id order, and those banks are encoded;
    /// the task column comes from the colony's decoded assignments, one
    /// value at a time, and the scalar fields from the snapshot.
    fn reference_bytes(engine: &SyncEngine) -> Vec<u8> {
        let snap = engine.snapshot();
        let k = snap.demands.len();
        let members = engine.population().members();
        let subs: Vec<&ControllerSpec> = match snap.config.controller.mix_parts() {
            Some(parts) => parts.iter().map(|(_, spec)| spec).collect(),
            None => vec![&snap.config.controller],
        };
        let mut banks: Vec<ControllerBank> = subs.iter().map(|s| s.build_bank(k, &[])).collect();
        for (c, &b) in engine.reference_controllers().into_iter().zip(&members) {
            banks[usize::from(b)]
                .push(c)
                .expect("a controller of its bank's spec");
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&snap.round.to_le_bytes());
        out.extend_from_slice(&snap.next_stream.to_le_bytes());
        put_text(&mut out, &snap.config.to_toml());
        put_text(&mut out, &toml::write(&noise_to_value(&snap.noise)));
        out.extend_from_slice(&(snap.demands.len() as u64).to_le_bytes());
        for &d in &snap.demands {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&snap.cursor.to_le_bytes());
        out.extend_from_slice(&(snap.triggers.len() as u64).to_le_bytes());
        for state in &snap.triggers {
            out.extend_from_slice(&u64::from(state.firings).to_le_bytes());
            out.extend_from_slice(&state.last_fired.to_le_bytes());
            out.push(u8::from(state.pending));
            out.extend_from_slice(&(state.streaks.len() as u64).to_le_bytes());
            for &streak in &state.streaks {
                out.extend_from_slice(&streak.to_le_bytes());
            }
            out.extend_from_slice(&(state.prev_deficits.len() as u64).to_le_bytes());
            for &prev in &state.prev_deficits {
                out.extend_from_slice(&prev.to_le_bytes());
            }
        }
        let assignments = engine.colony().assignments();
        out.extend_from_slice(&(assignments.len() as u64).to_le_bytes());
        for a in assignments {
            out.extend_from_slice(&a.to_slot().to_le_bytes());
        }
        if matches!(snap.config.controller, ControllerSpec::Mix(_)) {
            for &m in &members {
                out.extend_from_slice(&m.to_le_bytes());
            }
        }
        for bank in &banks {
            bank.write_state(&mut out);
        }
        for &site in &snap.arena_site {
            out.extend_from_slice(&site.to_le_bytes());
        }
        for &travel in &snap.arena_travel {
            out.extend_from_slice(&travel.to_le_bytes());
        }
        out
    }

    /// A generated scenario over the kinds whose state outlives a
    /// round — Precise Sigmoid, Precise Adversarial and Proportional
    /// alone, AntDesync, the benchmark's four-kind mix, and a mix of
    /// two differently tuned Precise Sigmoid banks with the others —
    /// optionally under kills, spawns, scrambles, a trigger and a
    /// generator (so membership is permuted), and in an arena.
    fn generated(kind: usize, n: usize, seed: u64, shocks: bool, arena: bool) -> SimConfig {
        let sigmoid = |eps| ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, eps));
        let adversarial =
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.05, 0.5));
        let proportional = ControllerSpec::Proportional(ProportionalParams {
            gain: 0.5,
            deadband: 2,
        });
        let controller = match kind {
            0 => sigmoid(0.5),
            1 => adversarial,
            2 => proportional,
            3 => ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)),
            4 => ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                (1.0, sigmoid(0.5)),
                (1.0, proportional),
                (
                    1.0,
                    ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
                ),
            ]),
            _ => ControllerSpec::Mix(vec![
                (1.0, sigmoid(0.5)),
                (2.0, proportional),
                (1.0, adversarial),
                (1.0, sigmoid(0.3)),
                (1.0, ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0))),
            ]),
        };
        let mut builder = SimConfig::builder(n, vec![n as u64 / 8, n as u64 / 5, n as u64 / 4])
            .noise(NoiseModel::Sigmoid { lambda: 0.8 })
            .controller(controller)
            .seed(seed);
        if shocks {
            builder = builder
                .event(5, Event::Kill { count: n / 6 })
                .event(11, Event::Spawn { count: n / 4 })
                .event(13, Event::Scramble)
                .event(23, Event::Spawn { count: 3 })
                .trigger(Trigger {
                    when: Condition::RegretBelow {
                        threshold: n as u64 / 3,
                        for_rounds: 3,
                    },
                    event: Event::Kill { count: 2 },
                    cooldown: 9,
                    max_firings: 0,
                })
                .generate(antalloc_env::TimelineGen {
                    start: 2,
                    until: 90,
                    mean_gap: 15.0,
                    shock: antalloc_env::GenShock::Kill {
                        min_frac: 0.02,
                        max_frac: 0.06,
                    },
                });
        }
        if arena {
            builder = builder.arena(antalloc_env::ArenaConfig {
                site_of_task: vec![0, 1, 0],
                travel_rounds: 2,
                wander_probability: 0.1,
            });
        }
        builder.build().expect("generated scenario validates")
    }

    proptest::proptest! {
        /// The columnar capture and encoder write exactly the bytes the
        /// per-ant reference writes; decoding them gives back the same
        /// checkpoint, which continues exactly like the captured engine,
        /// restored fresh or into a reused engine. Captures land at any
        /// round, in both halves of Precise Sigmoid's 82-round phase (so
        /// both counter planes are live).
        #[test]
        fn to_bytes_matches_the_reference_encoder(
            kind in 0usize..6,
            n in 24usize..160,
            seed in 0u64..1 << 40,
            rounds in 1u64..130,
            shocks in 0u8..2,
            arena in 0u8..2,
        ) {
            let cfg = generated(kind, n, seed, shocks == 1, arena == 1);
            let mut engine = cfg.build();
            engine.run(rounds, &mut NullObserver);
            let cp = Checkpoint::capture(&engine).expect("capture");
            let bytes = cp.to_bytes();
            proptest::prop_assert_eq!(&bytes, &reference_bytes(&engine));
            let back = Checkpoint::from_bytes(&bytes).expect("decodes");
            proptest::prop_assert_eq!(&back, &cp);
            let mut fresh = back.restore();
            let mut reused = generated((kind + 2) % 6, 200 - n, !seed, shocks == 0, arena == 0).build();
            reused.run(7, &mut NullObserver);
            back.restore_into(&mut reused);
            for e in [&mut engine, &mut fresh, &mut reused] {
                e.run(30, &mut NullObserver);
            }
            for e in [&fresh, &reused] {
                proptest::prop_assert_eq!(e.colony().assignments(), engine.colony().assignments());
                proptest::prop_assert_eq!(e.colony().loads(), engine.colony().loads());
                proptest::prop_assert_eq!(
                    Checkpoint::capture(e).map(|cp| cp.to_bytes()),
                    Checkpoint::capture(&engine).map(|cp| cp.to_bytes())
                );
            }
        }
    }

    #[test]
    fn generated_engines_carry_every_scratch_kind() {
        // Guards the property above against vacuity: its generator
        // really produces a bank of every kind with state beyond the
        // assignment, each holding ants, under permuted membership.
        let mut engine = generated(5, 150, 3, true, true).build();
        engine.run(31, &mut NullObserver);
        let cp = Checkpoint::capture(&engine).unwrap();
        let census = engine.bank_census();
        assert_eq!(census.len(), 5);
        assert!(census.iter().all(|bank| bank.ants > 0), "{census:?}");
        assert!(!cp.state.members.is_sorted(), "membership is interleaved");
        assert!(cp.state.tasks.len() != 150, "shocks resized the colony");
        assert_eq!(cp.to_bytes(), reference_bytes(&engine));
    }

    #[test]
    fn capture_is_exact_at_every_round() {
        // Ant's two-round phase leaves first-sample state in flight at
        // every odd round; a capture there, or anywhere, continues like
        // the uninterrupted run.
        let mut full = config().build();
        full.run(12, &mut NullObserver);
        for split in 0..=5 {
            let mut head = config().build();
            head.run(split, &mut NullObserver);
            let cp = Checkpoint::capture(&head).expect("any round captures");
            let mut resumed = Checkpoint::from_bytes(&cp.to_bytes()).unwrap().restore();
            resumed.run(12 - split, &mut NullObserver);
            assert_eq!(
                resumed.colony().assignments(),
                full.colony().assignments(),
                "split {split}"
            );
            assert_eq!(Checkpoint::capture(&resumed), Checkpoint::capture(&full));
        }
    }

    #[test]
    #[should_panic(expected = "a fork must keep the captured arena")]
    fn fork_into_rejects_a_changed_arena() {
        // The captured colony has no positions to give a new arena.
        let mut e = config().build();
        e.run(2, &mut NullObserver);
        let cp = Checkpoint::capture(&e).unwrap();
        let mut fork = config();
        fork.arena = Some(antalloc_env::ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 1,
            wander_probability: 0.1,
        });
        cp.fork_into(&fork, &mut e);
    }

    #[test]
    fn arena_positions_past_the_geometry_are_typed_errors() {
        // Decode is where a restored position's sense row is made valid:
        // a site past the arena or a travel past its latency is corrupt.
        let mut cfg = config();
        cfg.arena = Some(antalloc_env::ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 2,
            wander_probability: 0.3,
        });
        let mut e = cfg.build();
        e.run(4, &mut NullObserver);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // The site (`u16`) then travel (`u32`) columns close the stream.
        let (sites, travels) = (bytes.len() - 6 * cfg.n, bytes.len() - 4 * cfg.n);
        for (at, value, expected) in [
            (
                sites,
                2u32.to_le_bytes(),
                "arena site 2 out of range (the arena has 2 sites)",
            ),
            (sites + 2 * 7, u32::MAX.to_le_bytes(), "out of range"),
            (
                travels,
                3u32.to_le_bytes(),
                "arena travel 3 exceeds the travel latency 2",
            ),
        ] {
            let mut bad = bytes.clone();
            let width = if at < travels { 2 } else { 4 };
            bad[at..at + width].copy_from_slice(&value[..width]);
            match Checkpoint::from_bytes(&bad) {
                Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(expected), "{msg}"),
                other => panic!("{value:?} at byte {at} decoded as {other:?}"),
            }
        }
    }

    /// The cursor may stand at, never past, the compiled timeline's end:
    /// the decoder counts the generated events without building them.
    #[test]
    fn cursor_past_the_compiled_events_is_corrupt() {
        let mut cfg = config();
        cfg.timeline = Timeline::new()
            .at(3, Event::Scramble)
            .generate(antalloc_env::TimelineGen {
                start: 1,
                until: 400,
                mean_gap: 9.0,
                shock: antalloc_env::GenShock::DemandStep {
                    min_factor: 0.5,
                    max_factor: 2.0,
                },
            });
        let compiled = cfg.timeline.compile(cfg.seed, cfg.n, &cfg.demands);
        let events = compiled.events.len() as u64;
        assert!(events > 20, "{events} events");
        let mut e = cfg.build();
        e.run(2, &mut NullObserver);
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        // The cursor follows the demands section.
        let at = section_ends(&cp)[4];
        for (cursor, ok) in [(events, true), (events + 1, false)] {
            let mut patched = bytes.clone();
            patched[at..at + 8].copy_from_slice(&cursor.to_le_bytes());
            match Checkpoint::from_bytes(&patched) {
                Ok(_) => assert!(ok, "cursor {cursor} decoded"),
                Err(CheckpointError::Corrupt(msg)) => {
                    assert!(!ok, "{msg}");
                    let expected = format!("cursor {cursor} exceeds {events} compiled events");
                    assert!(msg.contains(&expected), "{msg}");
                }
                Err(other) => panic!("cursor {cursor}: {other:?}"),
            }
        }
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(10, &mut obs);
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.round(), 10);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // Truncation.
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Checkpoint::from_bytes(&long).is_err());
        // Any version but the current one is a typed miss, named in
        // the error.
        assert_eq!(bytes[4..8], VERSION.to_le_bytes());
        for other in [2u32, 9, 11] {
            let mut stale = bytes.clone();
            stale[4..8].copy_from_slice(&other.to_le_bytes());
            let err = Checkpoint::from_bytes(&stale).expect_err("stale version");
            assert_eq!(err, CheckpointError::Version { found: other });
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {other}"))
                    && msg.contains(&format!("version {VERSION}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn restore_then_run_matches_uninterrupted_run() {
        let mut full = config().build();
        let mut obs = NullObserver;
        full.run(40, &mut obs);

        let mut half = config().build();
        half.run(20, &mut obs);
        let cp = Checkpoint::capture(&half).unwrap();
        let mut resumed = Checkpoint::restore(&cp);
        resumed.run(20, &mut obs);

        assert_eq!(full.colony().loads(), resumed.colony().loads());
        assert_eq!(full.colony().assignments(), resumed.colony().assignments());
        assert_eq!(full.round(), resumed.round());
    }

    #[test]
    fn file_roundtrip() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(4, &mut obs);
        let cp = Checkpoint::capture(&e).unwrap();
        let dir = std::env::temp_dir().join("antalloc_ckpt_test");
        let path = dir.join("state.ckpt");
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(cp, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_an_existing_checkpoint_atomically() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(4, &mut obs);
        let first = Checkpoint::capture(&e).unwrap();
        e.run(6, &mut obs);
        let second = Checkpoint::capture(&e).unwrap();
        let dir = std::env::temp_dir().join(format!("antalloc_ckpt_save_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("state.ckpt");
        first.save(&path).unwrap();
        second.save(&path).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.ckpt"], "no temp file is left behind");
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mix_checkpoints_roundtrip_with_membership() {
        let cfg = SimConfig::builder(60, vec![10, 10])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, ControllerSpec::Trivial),
            ]))
            .seed(5)
            .build()
            .unwrap();
        let mut e = cfg.build();
        let mut obs = NullObserver;
        e.run(7, &mut obs); // mid-phase for the Ant bank
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        // Membership corruption is detected: an out-of-range bank index
        // must fail cleanly. The bank columns follow the membership, so
        // its last entry ends where they start.
        let last = section_ends(&cp)[8] - 2;
        for value in [2u16, u16::MAX] {
            let mut bad = bytes.clone();
            bad[last..last + 2].copy_from_slice(&value.to_le_bytes());
            let err = Checkpoint::from_bytes(&bad).expect_err("unknown bank");
            assert!(err.to_string().contains("unknown sub-spec"), "{err}");
        }
    }

    #[test]
    fn random_byte_mutations_never_panic() {
        // Fuzz the decoder on the frozen fixture, whose stream populates
        // every section: flipping any byte of the two text sections, a
        // stride of bytes across the binary sections or any bit of the
        // per-ant columns, and truncating at every section boundary and
        // at every byte of the per-ant columns, must yield a checkpoint
        // that restores and steps, or `Corrupt` — never a panic.
        // (Length fields are validated before allocation.)
        let cp = Checkpoint::from_bytes(FIXTURE).expect("fixture decodes");
        let ends = section_ends(&cp);
        assert_eq!(ends.last(), Some(&FIXTURE.len()));
        let check = |bytes: &[u8]| match Checkpoint::from_bytes(bytes) {
            Ok(back) => back.restore().run(2, &mut NullObserver),
            Err(CheckpointError::Corrupt(_) | CheckpointError::Version { .. }) => {}
        };
        let texts = (ends[1] + 8..ends[2]).chain(ends[2] + 8..ends[3]);
        for i in texts {
            for mask in [0x01, 0x20, 0x5A] {
                let mut mutated = FIXTURE.to_vec();
                mutated[i] ^= mask;
                check(&mutated);
            }
        }
        for i in (0..FIXTURE.len()).step_by(7) {
            let mut mutated = FIXTURE.to_vec();
            mutated[i] ^= 0x5A;
            check(&mutated);
        }
        for &end in &ends {
            check(&FIXTURE[..end - 1]);
            check(&FIXTURE[..end]);
        }
        // The task column through the arena columns.
        for i in ends[6]..FIXTURE.len() {
            check(&FIXTURE[..i]);
            let mut mutated = FIXTURE.to_vec();
            mutated[i] ^= 1 << (i % 8);
            check(&mutated);
        }
    }

    #[test]
    fn scratch_for_non_sigmoid_colonies_is_rejected_not_panicked() {
        // A crafted stream that carries Precise Sigmoid columns for an
        // Ant colony (k = 2, one ant's worth: currentTask, two counter
        // planes and a bit row) must come back as a clean corrupt error.
        let mut e = config().build(); // Ant colony, 2 tasks
        e.run(2, &mut NullObserver);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 2 * 2 + 2 * 2 + 1]);
        let err = Checkpoint::from_bytes(&bytes).expect_err("must reject");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn scratch_counters_beyond_the_half_phase_are_rejected() {
        // Counter values above m could overflow the bank's u16 adds
        // during later stepping; the decoder bounds them.
        let cfg = SimConfig::builder(50, vec![10])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(
                0.05, 0.5,
            )))
            .seed(9)
            .build()
            .unwrap();
        let mut e = cfg.build();
        e.run(37, &mut NullObserver); // mid-phase: counters in flight
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), cp);
        // k = 1: the bank's columns are currentTask, count1, count2 (a
        // `u16` each per ant) and a one-byte bit row; patch ant 0's
        // count1 to one past m, then to u16::MAX.
        let m = PreciseSigmoidParams::new(0.05, 0.5).m();
        let count1 = bytes.len() - 7 * 50 + 2 * 50;
        for value in [m as u16 + 1, u16::MAX] {
            let mut bad = bytes.clone();
            bad[count1..count1 + 2].copy_from_slice(&value.to_le_bytes());
            let err = Checkpoint::from_bytes(&bad).expect_err("must reject");
            let msg = err.to_string();
            assert!(
                msg.contains("count1") && msg.contains(&format!("bound {m}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn adversarial_scratch_roundtrips_and_restores_mid_phase() {
        // ε = 0.5 → phase 320. Capture deep inside the ramp and inside
        // the frozen sub-phase: both must roundtrip and continue
        // bit-identically to an uninterrupted run.
        let cfg = SimConfig::builder(80, vec![12, 18])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::PreciseAdversarial(
                PreciseAdversarialParams::new(0.05, 0.5),
            ))
            .seed(17)
            .build()
            .unwrap();
        let mut obs = NullObserver;
        for split in [37u64, 150, 319] {
            let mut full = cfg.build();
            full.run(split + 200, &mut obs);
            let mut head = cfg.build();
            head.run(split, &mut obs);
            let cp = Checkpoint::capture(&head).expect("mid-phase capture");
            let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
            assert_eq!(cp, back, "split {split}");
            let mut resumed = back.restore();
            resumed.run(200, &mut obs);
            assert_eq!(
                full.colony().assignments(),
                resumed.colony().assignments(),
                "split {split}"
            );
            assert_eq!(full.colony().loads(), resumed.colony().loads());
        }
    }

    #[test]
    fn adversarial_scratch_for_wrong_colony_is_rejected() {
        // A Precise Adversarial colony's stream whose config section
        // claims an Ant colony: over 4 tasks an Adversarial row takes 2
        // bytes and an Ant row 1, so the bank section has the wrong
        // length for Ant's columns and decode fails cleanly.
        let cfg = |controller| {
            SimConfig::builder(30, vec![5, 7, 6, 4])
                .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                .controller(controller)
                .seed(5)
                .build()
                .unwrap()
        };
        let adversarial = cfg(ControllerSpec::PreciseAdversarial(
            PreciseAdversarialParams::new(0.05, 0.5),
        ));
        let mut e = adversarial.build();
        e.run(37, &mut NullObserver); // mid-ramp: trackers in flight
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        let ant = cfg(ControllerSpec::Ant(AntParams::default()));
        let crafted = with_config_text(&bytes, &ant.to_toml());
        let err = Checkpoint::from_bytes(&crafted).expect_err("must reject");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    /// Every per-ant column rejects a value past its domain with
    /// `Corrupt` naming it, however the bytes got there.
    #[test]
    fn every_column_rejects_values_past_its_domain() {
        // Patches `bytes[at..]` with `value` and expects a corrupt error
        // containing `expect`.
        fn rejects(bytes: &[u8], at: usize, value: &[u8], expect: &str) {
            let mut bad = bytes.to_vec();
            bad[at..at + value.len()].copy_from_slice(value);
            match Checkpoint::from_bytes(&bad) {
                Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("{value:?} at {at}: expected `{expect}`, got {other:?}"),
            }
        }
        let captured = |controller, k: usize, rounds| {
            let cfg = SimConfig::builder(40, vec![6; k])
                .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                .controller(controller)
                .seed(13)
                .build()
                .unwrap();
            let mut e = cfg.build();
            e.run(rounds, &mut NullObserver);
            let cp = Checkpoint::capture(&e).unwrap();
            let ends = section_ends(&cp);
            (cp.to_bytes(), ends)
        };
        let n = 40;
        // AntDesync over 2 tasks: the task column, then the bank's
        // currentTask (u16), bit row (1 byte: 2 samples + 2 flags) and
        // parity (1 byte) columns.
        let desync = ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0));
        let (bytes, ends) = captured(desync, 2, 7);
        let (tasks, bank) = (ends[6] + 8, ends[8]);
        rejects(
            &bytes,
            tasks,
            &2u16.to_le_bytes(),
            "task 2 out of range (2 tasks)",
        );
        rejects(&bytes, tasks + 6, &0xFFFEu16.to_le_bytes(), "out of range");
        rejects(
            &bytes,
            bank,
            &2u16.to_le_bytes(),
            "`current`: task 2 out of range",
        );
        rejects(
            &bytes,
            bank + 2 * n,
            &[0x10],
            "`bits`: a bit set past the row's 4 bits",
        );
        rejects(
            &bytes,
            bank + 3 * n + 5,
            &[2],
            "`parity`: 2 exceeds its bound 1",
        );
        // Hysteresis over 1 task: one `u16` state per ant.
        let hysteresis = ControllerSpec::Hysteresis {
            depth: 3,
            lazy: Some(0.5),
        };
        let (bytes, ends) = captured(hysteresis, 1, 9);
        rejects(
            &bytes,
            ends[8] + 2 * 3,
            &6u16.to_le_bytes(),
            "`state`: 6 exceeds its bound 5",
        );
        // Precise Sigmoid over 3 tasks: a counter past the half-phase.
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let (bytes, ends) = captured(ControllerSpec::PreciseSigmoid(params), 3, 30);
        let count2 = ends[8] + 2 * n + 2 * 3 * n;
        let past = params.m() as u16 + 1;
        rejects(&bytes, count2 + 2, &past.to_le_bytes(), "`count2`");
        // A Precise Adversarial row's padding: 3 tasks + 5 flags fill
        // the byte, so a 4-task colony has 7 stray bits.
        let adversarial = PreciseAdversarialParams::new(0.05, 0.5);
        let (bytes, ends) = captured(ControllerSpec::PreciseAdversarial(adversarial), 4, 30);
        let row = ends[8] + 2 * n + 2 * 4;
        rejects(&bytes, row + 1, &[0x80], "past the row's 9 bits");
    }

    #[test]
    fn trigger_state_roundtrips_and_rejects_shape_mismatch() {
        use antalloc_env::{Condition, GenShock, TimelineGen, Trigger};

        let cfg = SimConfig::builder(300, vec![40, 60])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(31)
            .trigger(Trigger {
                when: Condition::And(
                    Box::new(Condition::RegretBelow {
                        threshold: 30,
                        for_rounds: 4,
                    }),
                    Box::new(Condition::RoundReached { round: 10 }),
                ),
                event: Event::Scramble,
                cooldown: 25,
                max_firings: 3,
            })
            .generate(TimelineGen {
                start: 5,
                until: 500,
                mean_gap: 60.0,
                shock: GenShock::DemandStep {
                    min_factor: 0.5,
                    max_factor: 2.0,
                },
            })
            .build()
            .unwrap();
        let mut e = cfg.build();
        let mut obs = NullObserver;
        e.run(60, &mut obs);
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        assert_eq!(back.config(), &cfg, "triggers and generators survive");
        // The restored engine continues bit-identically through later
        // trigger firings and generated demand steps.
        let mut resumed = back.restore();
        e.run(120, &mut obs);
        resumed.run(120, &mut obs);
        assert_eq!(e.colony().assignments(), resumed.colony().assignments());
        assert_eq!(e.colony().demands(), resumed.colony().demands());
    }

    #[test]
    fn deeply_nested_condition_bytes_error_instead_of_overflowing() {
        // The deepest valid trigger condition — 64 nested `and`s —
        // round-trips; a config section nesting 100 000 of them comes
        // back as a clean corrupt error, not a stack overflow, and one
        // level past the validation cap is corrupt too.
        let leaf = || Condition::RoundReached { round: 1 };
        let chain = |depth: usize| {
            (0..depth).fold(leaf(), |a, _| Condition::And(Box::new(a), Box::new(leaf())))
        };
        let cfg = SimConfig::builder(50, vec![10])
            .noise(NoiseModel::Exact)
            .controller(ControllerSpec::Trivial)
            .trigger(Trigger::once(chain(64), Event::Scramble))
            .build()
            .unwrap();
        let mut e = cfg.build();
        e.run(2, &mut NullObserver);
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap().config(), &cfg);

        let text = config_text(&bytes);
        let when = text
            .lines()
            .find(|l| l.starts_with("when = "))
            .expect("the trigger's condition line");
        let leaf_text = "{ kind = \"round-reached\", round = 1 }";
        let deep = |depth: usize| {
            format!(
                "when = {}{leaf_text}{}",
                "{ kind = \"and\", a = ".repeat(depth),
                format!(", b = {leaf_text} }}").repeat(depth)
            )
        };
        for (depth, expect) in [(100_000, "nesting"), (65, "64")] {
            let crafted = with_config_text(&bytes, &text.replace(when, &deep(depth)));
            let err = Checkpoint::from_bytes(&crafted).expect_err("must reject");
            assert!(
                matches!(&err, CheckpointError::Corrupt(msg) if msg.contains(expect)),
                "depth {depth}: {err}"
            );
        }
        // And a truncated tail still errors cleanly end-to-end.
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn all_enum_variants_roundtrip() {
        // Round-trip every controller, noise, timeline and initial-config
        // shape via synthetic configs.
        let specs = [
            ControllerSpec::Trivial,
            ControllerSpec::ExactGreedy(ExactGreedyParams::default()),
            ControllerSpec::Hysteresis {
                depth: 3,
                lazy: Some(0.5),
            },
            ControllerSpec::Hysteresis {
                depth: 1,
                lazy: None,
            },
            ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.03, 0.5)),
            ControllerSpec::PreciseAdversarial(PreciseAdversarialParams::new(0.03, 0.5)),
            ControllerSpec::Proportional(ProportionalParams {
                gain: 0.5,
                deadband: 3,
            }),
        ];
        let noises = [
            NoiseModel::Exact,
            NoiseModel::CorrelatedSigmoid {
                lambda: 1.0,
                rho: 0.3,
                seed: 5,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::LoadThreshold(vec![9, 9]),
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::RandomLack(0.4),
            },
        ];
        let timelines: [Timeline; 3] = [
            Timeline::new().at(5, Event::SetDemands(vec![4, 4])),
            Timeline::new()
                .at(3, Event::Kill { count: 2 })
                .at(9, Event::SetNoise(NoiseModel::Exact))
                .at(9, Event::StampedeTo(1))
                .at(11, Event::Spawn { count: 4 })
                .at(12, Event::Scramble),
            Timeline::new().every(
                7,
                7,
                vec![Event::SetDemands(vec![4, 4]), Event::SetDemands(vec![3, 3])],
            ),
        ];
        for (i, spec) in specs.iter().enumerate() {
            let k = match spec {
                ControllerSpec::Hysteresis { .. } => 1,
                _ => 2,
            };
            let demands = vec![8u64; k];
            // Shape-dependent noise: threshold vectors must match k.
            let noise = match &noises[i % noises.len()] {
                NoiseModel::Adversarial {
                    gamma_ad,
                    policy: GreyZonePolicy::LoadThreshold(_),
                } => NoiseModel::Adversarial {
                    gamma_ad: *gamma_ad,
                    policy: GreyZonePolicy::LoadThreshold(vec![9; k]),
                },
                other => other.clone(),
            };
            let cfg = SimConfig {
                n: 20,
                demands: demands.clone(),
                noise,
                controller: spec.clone(),
                seed: i as u64,
                timeline: if k == 2 {
                    timelines[i % timelines.len()].clone()
                } else {
                    Timeline::new()
                },
                initial: [
                    InitialConfig::AllIdle,
                    InitialConfig::AllOnTask(0),
                    InitialConfig::UniformRandom,
                    InitialConfig::Saturated,
                    InitialConfig::Inverted,
                    InitialConfig::SaturatedPlus { extra: 2 },
                ][i % 6]
                    .clone(),
                arena: None,
            };
            let e = cfg.build();
            let cp = Checkpoint::capture(&e).unwrap();
            let bytes = cp.to_bytes();
            // The config section is the canonical scenario text.
            assert_eq!(config_text(&bytes), cfg.to_toml(), "spec {i}");
            let back = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(cp, back, "spec {i}");
        }
    }
}
