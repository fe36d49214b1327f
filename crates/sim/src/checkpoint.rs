//! Versioned checkpoints: the canonical scenario text plus binary
//! runtime state.
//!
//! A checkpoint captures everything a [`SyncEngine`] needs to continue a
//! run bit-identically: the config (including noise model, controller
//! spec and the full event timeline — triggers and generators
//! included), the current demands, the noise model currently in force,
//! the timeline cursor, the runtime state of every trigger, every
//! ant's assignment and RNG state, and the round counter — so a
//! capture taken *mid-timeline* (after kills, spawns, demand steps,
//! noise switches or trigger firings) resumes exactly where the script
//! left off.
//!
//! The config and the live noise model travel as the same canonical
//! TOML the scenario files and store fingerprints use
//! ([`SimConfig::to_toml`]), so the scenario codec is the one place a
//! config is serialized; everything else is a fixed little-endian
//! binary layout. The layout and the read-compat policy (current
//! version only) live in `docs/CHECKPOINTS.md`.
//!
//! **Exactness contract.** Controllers are rebuilt from their spec and
//! `reset_to(assignment)`, plus a per-kind **scratch section** carrying
//! mid-phase state for kinds that serialize it: Precise Sigmoid's
//! half-phase counters ([`SigmoidScratch`]), Precise Adversarial's
//! phase trackers ([`antalloc_core::AdversarialScratch`]) and
//! Proportional's deadband streaks, so those kinds capture at any
//! round. Kinds *without* a scratch codec capture only at their phase
//! boundaries (`round % capture_phase == 0`, see
//! [`crate::ControllerSpec::capture_phase_len`]), where their per-phase
//! scratch is empty by construction; [`Checkpoint::capture`] refuses to
//! snapshot anywhere else. Restored runs replay exactly
//! (`tests/checkpoint_replay.rs` and `tests/banks.rs` assert
//! bit-identical trajectories, including mid-phase Precise Sigmoid
//! restores).
//!
//! Exceptions: `ControllerSpec::AntDesync` has, by construction, no
//! global phase boundary — the offset half of the colony is always
//! mid-phase — so its restores are *approximate* (the offset half skips
//! one decision and self-stabilizes); likewise kill-perturbations
//! reshuffle which index carries which offset.

use std::path::Path;

use antalloc_core::{AdversarialScratch, ControllerScratch, SigmoidScratch};
use antalloc_env::{Assignment, DemandVector, TriggerState};
use antalloc_noise::NoiseModel;
use bytes::{Buf, BufMut};

use crate::config::{ControllerSpec, SimConfig};
use crate::engine::SyncEngine;
use crate::scenario::{config_from_value, noise_from_value, noise_to_value, toml, ConfigError};

const MAGIC: u32 = 0x414E_5441; // "ANTA"
/// The format version: writers emit it and readers accept only it
/// (`docs/CHECKPOINTS.md` documents the layout and why older versions
/// are rejected rather than migrated).
const VERSION: u32 = 8;

/// Why a checkpoint could not be captured or decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Capture attempted off a phase boundary.
    NotAtPhaseBoundary {
        /// The engine's round.
        round: u64,
        /// The controller's phase length.
        phase: u64,
    },
    /// The byte stream is not a valid checkpoint.
    Corrupt(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::NotAtPhaseBoundary { round, phase } => write!(
                f,
                "checkpoint requires round % phase == 0 (round {round}, phase {phase})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A captured simulation state.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    config: SimConfig,
    current_demands: Vec<u64>,
    /// The noise model in force at capture time (a timeline `SetNoise`
    /// event may have switched it away from `config.noise`).
    current_noise: NoiseModel,
    /// One-shot timeline events consumed before the captured round
    /// (indexes the *compiled* stream: scripted plus generated events).
    cursor: u64,
    /// Runtime state of every timeline trigger, in timeline order.
    trigger_states: Vec<TriggerState>,
    assignments: Vec<Assignment>,
    rng_states: Vec<[u64; 4]>,
    round: u64,
    next_stream: u64,
    /// Per-ant bank membership for `ControllerSpec::Mix` colonies
    /// (which sub-spec each global ant id runs); empty otherwise.
    members: Vec<u16>,
    /// Mid-phase controller scratch in ascending global-ant order. Only
    /// kinds with a scratch codec — Precise Sigmoid counters, Precise
    /// Adversarial phase trackers and Proportional overload/lack
    /// streaks — produce entries.
    scratch: Vec<(u32, ControllerScratch)>,
    /// Per-ant arena site column (empty unless the config pins tasks to
    /// arena sites).
    arena_site: Vec<u32>,
    /// Per-ant remaining travel rounds (same shape as `arena_site`).
    arena_travel: Vec<u32>,
}

impl Checkpoint {
    /// Snapshots the engine. Fails off *capture* phase boundaries —
    /// kinds whose mid-phase state is serialized (Precise Sigmoid) can
    /// capture at any round; the rest only where their per-phase
    /// scratch is empty (see module docs).
    pub fn capture(engine: &SyncEngine) -> Result<Self, CheckpointError> {
        let state = engine.state_parts();
        let phase = state
            .config
            .controller
            .capture_phase_len(state.colony.num_tasks());
        if !state.round.is_multiple_of(phase) {
            return Err(CheckpointError::NotAtPhaseBoundary {
                round: state.round,
                phase,
            });
        }
        Ok(Self {
            config: state.config.clone(),
            current_demands: state.colony.demands().as_slice().to_vec(),
            current_noise: state.noise.clone(),
            cursor: state.cursor,
            trigger_states: state.trigger_states,
            assignments: state.colony.assignments(),
            rng_states: state.rng_states,
            round: state.round,
            next_stream: state.next_stream,
            members: state.members.unwrap_or_default(),
            scratch: state.scratch,
            arena_site: state.arena_site,
            arena_travel: state.arena_travel,
        })
    }

    /// Rebuilds a running engine.
    pub fn restore(&self) -> SyncEngine {
        let mut engine = SyncEngine::new(
            self.config.clone(),
            DemandVector::new(self.config.demands.clone()),
        );
        self.restore_into(&mut engine);
        engine
    }

    /// Restores the captured state into an existing engine in place,
    /// reusing its allocations (the sweep fast path's engine-reuse
    /// counterpart for resumed runs). Bit-identical to
    /// [`Checkpoint::restore`] regardless of what the engine ran
    /// before.
    pub fn restore_into(&self, engine: &mut SyncEngine) {
        engine.restore_parts_in(
            &self.config,
            &self.current_demands,
            &self.current_noise,
            &self.assignments,
            &self.rng_states,
            self.round,
            self.next_stream,
            self.cursor,
            &self.members,
            &self.trigger_states,
            &self.scratch,
            self.arena_columns(),
        );
    }

    /// The captured arena site/travel columns, if any.
    fn arena_columns(&self) -> Option<(&[u32], &[u32])> {
        (!self.arena_site.is_empty())
            .then_some((self.arena_site.as_slice(), self.arena_travel.as_slice()))
    }

    /// Rebases the captured state onto a *different* configuration —
    /// the sweep warm-start path (`Sweep::from_round`): one prefix run
    /// of the base scenario is captured once, then forked into every
    /// grid point, whose parameters take effect from the captured
    /// round onward.
    ///
    /// Callers must have prechecked the fork (the sweep does): same
    /// controller, colony size, initial configuration and task count,
    /// same triggers and generators, identical timeline prefix through
    /// the captured round, and the same seed as the prefix run. Within
    /// that envelope the rebase is mechanical: swept `demands`/`noise`
    /// replace the captured values only when the fork config actually
    /// changes them from the *base* config (a prefix timeline event
    /// that already overrode them wins otherwise, exactly as it would
    /// in an uninterrupted run), and the one-shot cursor is recomputed
    /// against the fork's compiled timeline. With an unchanged config
    /// this is [`Checkpoint::restore_into`] bit for bit.
    pub fn fork_into(&self, config: &SimConfig, engine: &mut SyncEngine) {
        let demands = if config.demands != self.config.demands {
            &config.demands
        } else {
            &self.current_demands
        };
        let noise = if config.noise != self.config.noise {
            &config.noise
        } else {
            &self.current_noise
        };
        let compiled = config
            .timeline
            .compile(config.seed, config.n, &config.demands);
        let cursor = compiled.cursor_at(self.round) as u64;
        engine.restore_parts_in(
            config,
            demands,
            noise,
            &self.assignments,
            &self.rng_states,
            self.round,
            self.next_stream,
            cursor,
            &self.members,
            &self.trigger_states,
            &self.scratch,
            self.arena_columns(),
        );
    }

    /// The captured round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The configuration embedded in this checkpoint.
    ///
    /// Together with [`crate::SimConfig::to_toml`] this lets a
    /// checkpoint publish the scenario that produced it verbatim.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The byte length of each binary runtime section, in stream order:
    /// current demands, cursor, trigger states, assignments, RNG states,
    /// membership, scratch and arena columns (0 when absent).
    fn runtime_section_lens(&self) -> [usize; 8] {
        let ants = self.assignments.len();
        let triggers: usize = self
            .trigger_states
            .iter()
            .map(|s| 8 + 8 + 1 + 8 + 4 * s.streaks.len() + 8 + 8 * s.prev_deficits.len())
            .sum();
        let scratch: usize = self
            .scratch
            .iter()
            .map(|(_, scratch)| {
                4 + 1
                    + match scratch {
                        ControllerScratch::PreciseSigmoid(s) => {
                            4 + 1 + 2 * (s.count1.len() + s.count2.len()) + s.shat1_lack.len()
                        }
                        ControllerScratch::PreciseAdversarial(s) => 4 + 5 + s.all_lack.len(),
                        ControllerScratch::Proportional(_) => 2,
                    }
            })
            .sum();
        let members = match self.config.controller {
            ControllerSpec::Mix(_) => 8 + 2 * self.members.len(),
            _ => 0,
        };
        let arena = match self.config.arena {
            Some(_) => 4 * (self.arena_site.len() + self.arena_travel.len()),
            None => 0,
        };
        [
            8 + 8 * self.current_demands.len(),
            8,
            8 + triggers,
            8 + 4 * ants,
            32 * ants,
            members,
            8 + scratch,
            arena,
        ]
    }

    /// Serializes to the versioned format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let config = self.config.to_toml();
        let noise = toml::write(&noise_to_value(&self.current_noise));
        // Sized exactly: growing a multi-megabyte buffer mid-encode
        // measurably raised peak RSS on 200k-ant colonies.
        let runtime: usize = self.runtime_section_lens().iter().sum();
        let mut out = Vec::with_capacity(40 + config.len() + noise.len() + runtime);
        out.put_u32_le(MAGIC);
        out.put_u32_le(VERSION);
        out.put_u64_le(self.round);
        out.put_u64_le(self.next_stream);
        put_text(&mut out, &config);
        put_text(&mut out, &noise);
        put_u64s(&mut out, &self.current_demands);
        out.put_u64_le(self.cursor);
        out.put_u64_le(self.trigger_states.len() as u64);
        for state in &self.trigger_states {
            out.put_u64_le(u64::from(state.firings));
            out.put_u64_le(state.last_fired);
            out.put_u8(u8::from(state.pending));
            out.put_u64_le(state.streaks.len() as u64);
            for &streak in &state.streaks {
                out.put_u32_le(streak);
            }
            out.put_u64_le(state.prev_deficits.len() as u64);
            for &prev in &state.prev_deficits {
                out.put_i64_le(prev);
            }
        }
        out.put_u64_le(self.assignments.len() as u64);
        for &a in &self.assignments {
            put_task(&mut out, a);
        }
        for s in &self.rng_states {
            for &w in s {
                out.put_u64_le(w);
            }
        }
        // Per-ant bank membership, present iff the spec is a Mix.
        if matches!(self.config.controller, ControllerSpec::Mix(_)) {
            out.put_u64_le(self.members.len() as u64);
            for &m in &self.members {
                out.put_u16_le(m);
            }
        }
        // Per-kind controller scratch, ascending global-ant order.
        out.put_u64_le(self.scratch.len() as u64);
        for (ant, scratch) in &self.scratch {
            out.put_u32_le(*ant);
            match scratch {
                ControllerScratch::PreciseSigmoid(s) => {
                    out.put_u8(0);
                    put_task(&mut out, s.current_task);
                    out.put_u8(u8::from(s.have_phase));
                    for &c in s.count1.iter().chain(&s.count2) {
                        out.put_u16_le(c);
                    }
                    for &l in &s.shat1_lack {
                        out.put_u8(u8::from(l));
                    }
                }
                ControllerScratch::PreciseAdversarial(s) => {
                    out.put_u8(1);
                    put_task(&mut out, s.current_task);
                    out.put_u8(u8::from(s.have_phase));
                    out.put_u8(u8::from(s.all_overload));
                    out.put_u8(u8::from(s.frozen_working));
                    out.put_u8(u8::from(s.pending_first_lack));
                    out.put_u8(match s.working_at_first_lack {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    });
                    for &l in &s.all_lack {
                        out.put_u8(u8::from(l));
                    }
                }
                ControllerScratch::Proportional(streak) => {
                    out.put_u8(2);
                    out.put_u16_le(*streak);
                }
            }
        }
        // Per-ant arena columns (site, then travel), present iff the
        // config carries an arena; lengths equal the ant count.
        if self.config.arena.is_some() {
            for &site in self.arena_site.iter().chain(&self.arena_travel) {
                out.put_u32_le(site);
            }
        }
        out
    }

    /// Deserializes from [`Checkpoint::to_bytes`] output.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, CheckpointError> {
        let magic = get_u32(&mut buf)?;
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = get_u32(&mut buf)?;
        if version != VERSION {
            return Err(corrupt(format!(
                "format version {version}, but this build reads only version {VERSION}"
            )));
        }
        let round = get_u64(&mut buf)?;
        let next_stream = get_u64(&mut buf)?;
        // The config passes the same structural validation as
        // `SimConfig::build`: any captured config did, so a failure here
        // means crafted or corrupted bytes — and a crafted generator
        // (start = 0, absurd windows) must never drive the timeline
        // expansion below.
        let config = decode_text(&mut buf, "config", |root| {
            let (config, _, _) = config_from_value(root)?;
            config.validate_structure()?;
            Ok(config)
        })?;
        let k = config.demands.len();
        let current_noise = decode_text(&mut buf, "live noise", |root| {
            let noise = noise_from_value(root)?;
            noise.validate(k).map_err(ConfigError::Noise)?;
            Ok(noise)
        })?;
        let current_demands = get_u64s(&mut buf)?;
        if current_demands.len() != k {
            return Err(corrupt(format!(
                "{} current demands for {k} tasks",
                current_demands.len()
            )));
        }
        // The cursor indexes the *compiled* stream (generated events
        // included), which re-expands deterministically.
        let cursor = get_u64(&mut buf)?;
        let timeline = &config.timeline;
        let compiled_events = timeline
            .compile(config.seed, config.n, &config.demands)
            .events
            .len();
        if cursor as usize > compiled_events {
            return Err(corrupt(format!(
                "timeline cursor {cursor} exceeds {compiled_events} compiled events"
            )));
        }
        let count = get_u64(&mut buf)? as usize;
        if count != timeline.triggers.len() {
            return Err(corrupt(format!(
                "{count} trigger states for {} triggers",
                timeline.triggers.len()
            )));
        }
        let mut trigger_states = Vec::with_capacity(count);
        for (i, trigger) in timeline.triggers.iter().enumerate() {
            let firings = get_u64(&mut buf)?;
            let firings = u32::try_from(firings)
                .map_err(|_| corrupt(format!("implausible firing count {firings}")))?;
            let last_fired = get_u64(&mut buf)?;
            let pending = get_bool(&mut buf)?;
            let streak_len = get_u64(&mut buf)? as usize;
            if streak_len > 1 << 16 {
                return Err(corrupt("implausible streak count"));
            }
            let mut streaks = Vec::with_capacity(streak_len.min(1 << 10));
            for _ in 0..streak_len {
                streaks.push(get_u32(&mut buf)?);
            }
            let prev_len = get_u64(&mut buf)? as usize;
            if prev_len > 1 << 16 {
                return Err(corrupt("implausible prev-deficit count"));
            }
            let mut prev_deficits = Vec::with_capacity(prev_len.min(1 << 10));
            for _ in 0..prev_len {
                prev_deficits.push(get_i64(&mut buf)?);
            }
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
            trigger_states.push(state);
        }
        let ants = get_u64(&mut buf)? as usize;
        // Validate the claimed count against the bytes actually present
        // (4 per assignment + 32 per RNG state) before any allocation —
        // a corrupted count must not drive `with_capacity` to OOM.
        let per_ant = 4usize + 32;
        if buf.remaining() / per_ant < ants {
            return Err(corrupt(format!(
                "ant count {ants} exceeds remaining payload"
            )));
        }
        let mut assignments = Vec::with_capacity(ants);
        for _ in 0..ants {
            assignments.push(get_task(&mut buf, k)?);
        }
        let mut rng_states = Vec::with_capacity(ants);
        for _ in 0..ants {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = get_u64(&mut buf)?;
            }
            rng_states.push(s);
        }
        let members = if let ControllerSpec::Mix(parts) = &config.controller {
            let len = get_u64(&mut buf)? as usize;
            if len != ants {
                return Err(corrupt(format!(
                    "membership length {len} disagrees with ant count {ants}"
                )));
            }
            let mut members = Vec::with_capacity(len);
            for _ in 0..len {
                let m = get_u16(&mut buf)?;
                if usize::from(m) >= parts.len() {
                    return Err(corrupt(format!(
                        "membership {m} references unknown sub-spec"
                    )));
                }
                members.push(m);
            }
            members
        } else {
            Vec::new()
        };
        let scratch = get_scratch(&mut buf, &config.controller, &members, ants, k)?;
        // The per-ant arena columns close the stream (present iff the
        // config carries an arena).
        let (arena_site, arena_travel) = if let Some(arena) = &config.arena {
            let num_sites = arena.num_sites() as u32;
            if buf.remaining() / 8 < ants {
                return Err(corrupt("arena columns exceed remaining payload"));
            }
            let mut site = Vec::with_capacity(ants);
            for _ in 0..ants {
                let s = get_u32(&mut buf)?;
                if s >= num_sites {
                    return Err(corrupt(format!(
                        "arena site {s} out of range (the arena has {num_sites} sites)"
                    )));
                }
                site.push(s);
            }
            let mut travel = Vec::with_capacity(ants);
            for _ in 0..ants {
                let t = get_u32(&mut buf)?;
                if t > arena.travel_rounds {
                    return Err(corrupt(format!(
                        "arena travel {t} exceeds the travel latency {}",
                        arena.travel_rounds
                    )));
                }
                travel.push(t);
            }
            (site, travel)
        } else {
            (Vec::new(), Vec::new())
        };
        if !buf.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Self {
            config,
            current_demands,
            current_noise,
            cursor,
            trigger_states,
            assignments,
            rng_states,
            round,
            next_stream,
            members,
            scratch,
            arena_site,
            arena_travel,
        })
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes =
            std::fs::read(path).map_err(|e| corrupt(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// Decodes the scratch section. Each entry must belong to an ant that
/// runs the entry's kind — crafted bytes must fail here, not panic in
/// `restore()`.
fn get_scratch(
    buf: &mut &[u8],
    controller: &ControllerSpec,
    members: &[u16],
    ants: usize,
    k: usize,
) -> Result<Vec<(u32, ControllerScratch)>, CheckpointError> {
    let count = get_u64(buf)? as usize;
    // Minimum per-entry size across the scratch kinds: Precise Sigmoid
    // is ant id + tag + currentTask + have_phase + two u16 counter rows
    // + one median-bit row (10 + 5k); Precise Adversarial is ant id +
    // tag + currentTask + five flag bytes + one lack-bit row (14 + k);
    // Proportional is ant id + tag + streak (7). Validate the claimed
    // count against the bytes present before any allocation.
    let per_entry = (4 + 1 + 4 + 1 + k * 5)
        .min(4 + 1 + 4 + 5 + k)
        .min(4 + 1 + 2);
    if count > ants || buf.remaining() / per_entry < count {
        return Err(corrupt(format!(
            "scratch count {count} exceeds payload or ant count {ants}"
        )));
    }
    // The spec a given ant runs (its bank's sub-spec in a mix).
    let spec_of = |ant: u32| -> Option<&ControllerSpec> {
        match controller {
            ControllerSpec::Mix(parts) => {
                let bank = usize::from(*members.get(ant as usize)?);
                parts.get(bank).map(|(_, spec)| spec)
            }
            spec => Some(spec),
        }
    };
    let mut scratch: Vec<(u32, ControllerScratch)> = Vec::with_capacity(count);
    for _ in 0..count {
        let ant = get_u32(buf)?;
        if ant as usize >= ants {
            return Err(corrupt(format!("scratch ant {ant} out of range")));
        }
        if scratch.last().is_some_and(|&(prev, _)| ant <= prev) {
            return Err(corrupt("scratch entries out of order"));
        }
        let entry = match (get_u8(buf)?, spec_of(ant)) {
            (0, Some(ControllerSpec::PreciseSigmoid(p))) => {
                let m = p.m();
                let current_task = get_task(buf, k)?;
                let have_phase = get_bool(buf)?;
                let mut counts = [Vec::with_capacity(k), Vec::with_capacity(k)];
                for half in &mut counts {
                    for _ in 0..k {
                        let c = get_u16(buf)?;
                        if u64::from(c) > m {
                            return Err(corrupt(format!(
                                "scratch counter {c} exceeds half-phase length {m}"
                            )));
                        }
                        half.push(c);
                    }
                }
                let [count1, count2] = counts;
                ControllerScratch::PreciseSigmoid(SigmoidScratch {
                    current_task,
                    have_phase,
                    count1,
                    count2,
                    shat1_lack: get_bools(buf, k)?,
                })
            }
            (0, _) => {
                return Err(corrupt(format!(
                    "scratch for ant {ant}, which runs no Precise Sigmoid"
                )))
            }
            (1, Some(ControllerSpec::PreciseAdversarial(_))) => {
                let current_task = get_task(buf, k)?;
                let have_phase = get_bool(buf)?;
                let all_overload = get_bool(buf)?;
                let frozen_working = get_bool(buf)?;
                let pending_first_lack = get_bool(buf)?;
                let working_at_first_lack = match get_u8(buf)? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    t => return Err(corrupt(format!("unknown first-lack tri-state {t}"))),
                };
                ControllerScratch::PreciseAdversarial(AdversarialScratch {
                    current_task,
                    have_phase,
                    all_lack: get_bools(buf, k)?,
                    all_overload,
                    working_at_first_lack,
                    pending_first_lack,
                    frozen_working,
                })
            }
            (1, _) => {
                return Err(corrupt(format!(
                    "scratch for ant {ant}, which runs no Precise Adversarial"
                )))
            }
            (2, Some(ControllerSpec::Proportional(_))) => {
                ControllerScratch::Proportional(get_u16(buf)?)
            }
            (2, _) => {
                return Err(corrupt(format!(
                    "scratch for ant {ant}, which runs no Proportional controller"
                )))
            }
            (t, _) => return Err(corrupt(format!("unknown scratch tag {t}"))),
        };
        scratch.push((ant, entry));
    }
    Ok(scratch)
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

// ---- text sections -------------------------------------------------------

fn put_text(out: &mut Vec<u8>, text: &str) {
    out.put_u64_le(text.len() as u64);
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
    if len > buf.remaining() as u64 {
        return Err(corrupt(format!(
            "{what} section length {len} exceeds remaining payload"
        )));
    }
    let (text, rest) = buf.split_at(len as usize);
    *buf = rest;
    let text = std::str::from_utf8(text)
        .map_err(|e| corrupt(format!("{what} section is not UTF-8: {e}")))?;
    toml::parse(text)
        .and_then(|root| decode(&root))
        .map_err(|e| corrupt(format!("invalid {what} section: {e}")))
}

// ---- primitives (readers are length-checked) ----------------------------

fn need(buf: &&[u8], n: usize) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(corrupt(format!("truncated: need {n} more bytes")))
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, CheckpointError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, CheckpointError> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, CheckpointError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, CheckpointError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut &[u8]) -> Result<i64, CheckpointError> {
    need(buf, 8)?;
    Ok(buf.get_i64_le())
}

fn get_bool(buf: &mut &[u8]) -> Result<bool, CheckpointError> {
    Ok(get_u8(buf)? != 0)
}

fn get_bools(buf: &mut &[u8], len: usize) -> Result<Vec<bool>, CheckpointError> {
    (0..len).map(|_| get_bool(buf)).collect()
}

fn put_task(out: &mut Vec<u8>, assignment: Assignment) {
    out.put_u32_le(match assignment {
        Assignment::Idle => u32::MAX,
        Assignment::Task(j) => j,
    });
}

/// Reads an assignment (`u32::MAX` = idle), rejecting task indices
/// outside the colony's `k` tasks.
fn get_task(buf: &mut &[u8], k: usize) -> Result<Assignment, CheckpointError> {
    match get_u32(buf)? {
        u32::MAX => Ok(Assignment::Idle),
        j if (j as usize) < k => Ok(Assignment::Task(j)),
        j => Err(corrupt(format!("task {j} out of range ({k} tasks)"))),
    }
}

fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    out.put_u64_le(xs.len() as u64);
    for &x in xs {
        out.put_u64_le(x);
    }
}

fn get_u64s(buf: &mut &[u8]) -> Result<Vec<u64>, CheckpointError> {
    let len = get_u64(buf)? as usize;
    if buf.remaining() / 8 < len {
        return Err(corrupt(format!(
            "vector length {len} exceeds remaining payload"
        )));
    }
    (0..len).map(|_| get_u64(buf)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use antalloc_core::{
        AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
        ProportionalParams,
    };
    use antalloc_env::{Condition, DemandSchedule, Event, InitialConfig, Timeline, Trigger};
    use antalloc_noise::GreyZonePolicy;

    /// The frozen fixture: a 3-site arena, a Precise Sigmoid +
    /// Proportional mix captured mid-phase, a `deficit-rate-above`
    /// trigger, a generator and a `set-noise` switch — a stream with
    /// every section populated.
    const FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/checkpoint_v8.ckpt");

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
        let noise = toml::write(&noise_to_value(&cp.current_noise));
        [8, 16, 8 + cp.config.to_toml().len(), 8 + noise.len()]
            .into_iter()
            .chain(cp.runtime_section_lens())
            .scan(0, |at, len| {
                *at += len;
                Some(*at)
            })
            .collect()
    }

    #[test]
    fn capture_requires_phase_boundary() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.step(&mut obs); // round 1, phase 2 → not a boundary.
        assert!(matches!(
            Checkpoint::capture(&e),
            Err(CheckpointError::NotAtPhaseBoundary { round: 1, phase: 2 })
        ));
        e.step(&mut obs); // round 2 → boundary.
        assert!(Checkpoint::capture(&e).is_ok());
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
        // Any version but the current one, named in the error.
        assert_eq!(bytes[4..8], VERSION.to_le_bytes());
        for other in [2u32, 7, 9] {
            let mut stale = bytes.clone();
            stale[4..8].copy_from_slice(&other.to_le_bytes());
            let Err(CheckpointError::Corrupt(msg)) = Checkpoint::from_bytes(&stale) else {
                panic!("a v{other} stream must be rejected as corrupt");
            };
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
        e.run(6, &mut obs); // phase lcm(2, 1) = 2 → boundary.
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp, back);
        // Membership corruption is detected: an out-of-range bank index
        // must fail cleanly. The members vector is the last section, so
        // patch its final u16.
        let mut bad = bytes.clone();
        let last = bad.len() - 2;
        bad[last] = 0xFF;
        bad[last + 1] = 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
    }

    #[test]
    fn random_byte_mutations_never_panic() {
        // Fuzz the decoder on the frozen fixture, whose stream populates
        // every section: flipping any byte of the two text sections or a
        // stride of bytes across the binary sections, and truncating at
        // every section boundary, must yield a checkpoint that restores
        // and steps, or `Corrupt` — never a panic. (Length fields are
        // validated before allocation.)
        let cp = Checkpoint::from_bytes(FIXTURE).expect("fixture decodes");
        let ends = section_ends(&cp);
        assert_eq!(ends.last(), Some(&FIXTURE.len()));
        let check = |bytes: &[u8]| match Checkpoint::from_bytes(bytes) {
            Ok(back) => back.restore().run(2, &mut NullObserver),
            Err(CheckpointError::Corrupt(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
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
    }

    #[test]
    fn scratch_for_non_sigmoid_colonies_is_rejected_not_panicked() {
        // A crafted stream that claims Precise Sigmoid scratch for an
        // Ant colony must come back as a clean corrupt error — reaching
        // `restore()` would panic in `apply_scratch`.
        let mut e = config().build(); // Ant colony, 2 tasks
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // The scratch section is the stream's tail: count (u64) then
        // entries. Rewrite the zero count to 1 and append one entry.
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ant 0
        bytes.push(0); // tag: precise sigmoid
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // currentTask idle
        bytes.push(1); // have_phase
        bytes.extend_from_slice(&[0u8; 2 * 2 + 2 * 2 + 2]); // counters + medians, k = 2
        let err = Checkpoint::from_bytes(&bytes).expect_err("must reject");
        assert!(err.to_string().contains("no Precise Sigmoid"), "{err}");
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
        let mut obs = NullObserver;
        e.run(37, &mut obs); // mid-phase: every ant carries scratch
        let cp = Checkpoint::capture(&e).unwrap();
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), cp);
        // Patch ant 0's first counter (right after the scratch count,
        // ant id, tag, currentTask and have_phase) to u16::MAX.
        let k = 1usize;
        let entry_head = 4 + 1 + 4 + 1;
        let entries = 50 * (entry_head + k * 5);
        let first_counter = bytes.len() - entries - 8 + 8 + entry_head;
        let mut bad = bytes.clone();
        bad[first_counter..first_counter + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = Checkpoint::from_bytes(&bad).expect_err("must reject");
        assert!(err.to_string().contains("half-phase"), "{err}");
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
        // Tag-1 scratch claimed for an Ant colony must error cleanly.
        let mut e = config().build(); // Ant colony, 2 tasks
        let mut obs = NullObserver;
        e.run(2, &mut obs);
        let mut bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ant 0
        bytes.push(1); // tag: precise adversarial
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // currentTask idle
        bytes.extend_from_slice(&[1, 1, 0, 0, 0]); // flags + tri-state
        bytes.extend_from_slice(&[1u8; 2]); // all_lack, k = 2
        let err = Checkpoint::from_bytes(&bytes).expect_err("must reject");
        assert!(err.to_string().contains("no Precise Adversarial"), "{err}");
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
            DemandSchedule::Step {
                at: 5,
                demands: vec![4, 4],
            }
            .into(),
            Timeline::new()
                .at(3, Event::Kill { count: 2 })
                .at(9, Event::SetNoise(NoiseModel::Exact))
                .at(9, Event::StampedeTo(1))
                .at(11, Event::Spawn { count: 4 })
                .at(12, Event::Scramble),
            DemandSchedule::Alternating {
                a: vec![3, 3],
                b: vec![4, 4],
                half_period: 7,
            }
            .into(),
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
