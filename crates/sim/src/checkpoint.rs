//! Versioned checkpoints: the canonical scenario text plus binary
//! runtime state.
//!
//! A checkpoint captures everything a [`SyncEngine`] needs to continue a
//! run bit-identically: the config (including noise model, controller
//! spec and the full event timeline — triggers and generators
//! included), the current demands, the noise model currently in force,
//! the timeline cursor, the runtime state of every trigger, every
//! ant's assignment, and the round counter — so a capture taken
//! *mid-timeline* (after kills, spawns, demand steps, noise switches or
//! trigger firings) resumes exactly where the script left off.
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
//! **Codec.** A checkpoint holds the engine's state as columns in
//! global ant order (the engine's `Snapshot`): the raw task column, the
//! membership, fixed-stride per-kind scratch columns and the arena
//! columns. Capture copies them out of the colony and the banks,
//! restore copies them back, and every fixed-width section encodes and
//! decodes as one little-endian run that is validated once
//! (`docs/CHECKPOINTS.md`, "Codec").
//!
//! **Exactness contract.** Controllers are rebuilt from their spec and
//! `reset_to(assignment)`, plus a per-kind **scratch section** carrying
//! mid-phase state for kinds that serialize it: Precise Sigmoid's
//! half-phase counters ([`antalloc_core::SigmoidScratch`]), Precise
//! Adversarial's phase trackers ([`AdversarialScratch`]) and
//! Proportional's deadband streaks, so those kinds capture at any
//! round. Kinds *without* a scratch codec capture only at their phase
//! boundaries (`round % capture_phase == 0`, see
//! [`crate::ControllerSpec::capture_phase_len`]), where their per-phase
//! scratch is empty by construction; [`Checkpoint::capture`] refuses to
//! snapshot anywhere else. Restored runs replay exactly (the contract
//! oracle in the `antalloc-tests` package asserts bit-identical serial
//! and pooled continuations on every scenario it runs, mid-phase
//! Precise Sigmoid and Precise Adversarial captures included).
//!
//! Exceptions: `ControllerSpec::AntDesync` has, by construction, no
//! global phase boundary — the offset half of the colony is always
//! mid-phase — so its restores are *approximate* (the offset half skips
//! one decision and self-stabilizes); likewise kill-perturbations
//! reshuffle which index carries which offset. `ControllerSpec::Hysteresis`
//! machines' contrary-signal streaks are not serialized either, so a
//! capture taken mid-streak restores approximately.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use antalloc_core::AdversarialScratch;
use antalloc_env::{Assignment, TriggerState};

use crate::config::{ControllerSpec, SimConfig};
use crate::engine::{Snapshot, SyncEngine};
use crate::population::{AntColumns, TAG_ADVERSARIAL, TAG_SIGMOID, TAG_STREAK};
use crate::scenario::{config_from_value, noise_from_value, noise_to_value, toml, ConfigError};

const MAGIC: u32 = 0x414E_5441; // "ANTA"
/// The format version: writers emit it and readers accept only it
/// (`docs/CHECKPOINTS.md` documents the layout and why older versions
/// are rejected rather than migrated).
const VERSION: u32 = 9;

/// Wire bytes of one scratch entry with tag `tag` over `k` tasks, ant
/// id and tag included.
fn entry_len(tag: u8, k: usize) -> usize {
    5 + match tag {
        TAG_SIGMOID => 5 + 5 * k,
        TAG_ADVERSARIAL => 9 + k,
        _ => 2,
    }
}

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
    state: Snapshot,
}

impl Checkpoint {
    /// Snapshots the engine. Fails off *capture* phase boundaries —
    /// kinds whose mid-phase state is serialized (Precise Sigmoid) can
    /// capture at any round; the rest only where their per-phase
    /// scratch is empty (see module docs).
    pub fn capture(engine: &SyncEngine) -> Result<Self, CheckpointError> {
        let round = engine.round();
        let phase = engine
            .config()
            .controller
            .capture_phase_len(engine.colony().num_tasks());
        if !round.is_multiple_of(phase) {
            return Err(CheckpointError::NotAtPhaseBoundary { round, phase });
        }
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
    /// counterpart for resumed runs). Bit-identical to
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
    /// current demands, cursor, trigger states, assignments, membership,
    /// scratch and arena columns (0 when absent).
    fn runtime_section_lens(&self) -> [usize; 7] {
        let s = &self.state;
        let (ants, k) = (s.tasks.len(), s.demands.len());
        let triggers: usize = s
            .triggers
            .iter()
            .map(|t| 8 + 8 + 1 + 8 + 4 * t.streaks.len() + 8 + 8 * t.prev_deficits.len())
            .sum();
        let cols = &s.ants;
        let scratch = cols.sigmoid.ids.len() * entry_len(TAG_SIGMOID, k)
            + cols.adversarial_ids.len() * entry_len(TAG_ADVERSARIAL, k)
            + cols.streak_ids.len() * entry_len(TAG_STREAK, k);
        let members = match s.config.controller {
            ControllerSpec::Mix(_) => 8 + 2 * cols.members.len(),
            _ => 0,
        };
        let arena = match s.config.arena {
            Some(_) => 4 * (s.arena_site.len() + s.arena_travel.len()),
            None => 0,
        };
        [
            8 + 8 * k,
            8,
            8 + triggers,
            8 + 4 * ants,
            members,
            8 + scratch,
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
        put_le(&mut out, &s.tasks, u32::to_le_bytes);
        // Per-ant bank membership, present iff the spec is a Mix.
        if matches!(s.config.controller, ControllerSpec::Mix(_)) {
            out.extend_from_slice(&(s.ants.members.len() as u64).to_le_bytes());
            put_le(&mut out, &s.ants.members, u16::to_le_bytes);
        }
        put_scratch(&mut out, &s.ants, s.demands.len());
        // Per-ant arena columns (site, then travel), present iff the
        // config carries an arena; lengths equal the ant count.
        if s.config.arena.is_some() {
            put_le(&mut out, &s.arena_site, u32::to_le_bytes);
            put_le(&mut out, &s.arena_travel, u32::to_le_bytes);
        }
        out
    }

    /// Deserializes from [`Checkpoint::to_bytes`] output.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, CheckpointError> {
        let buf = &mut buf;
        if get_u32(buf)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = get_u32(buf)?;
        if version != VERSION {
            return Err(corrupt(format!(
                "format version {version}, but this build reads only version {VERSION}"
            )));
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
        // included), which re-expands deterministically.
        let cursor = get_u64(buf)?;
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
        // (4 per assignment) before any allocation — a corrupted count
        // must not drive an allocation to OOM. A live colony never drops
        // below one ant.
        if ants == 0 || buf.len() / 4 < ants {
            return Err(corrupt(format!(
                "ant count {ants} is zero or exceeds remaining payload"
            )));
        }
        let tasks = get_le(buf, ants, u32::from_le_bytes)?;
        check_tasks(&tasks, k)?;
        let mut cols = AntColumns::default();
        if let ControllerSpec::Mix(parts) = &config.controller {
            let len = get_u64(buf)? as usize;
            if len != ants {
                return Err(corrupt(format!(
                    "membership length {len} disagrees with ant count {ants}"
                )));
            }
            cols.members = get_le(buf, len, u16::from_le_bytes)?;
            if let Some(m) = cols
                .members
                .iter()
                .max()
                .filter(|&&m| usize::from(m) >= parts.len())
            {
                return Err(corrupt(format!(
                    "membership {m} references unknown sub-spec"
                )));
            }
        }
        get_scratch(buf, &config.controller, &mut cols, ants, k)?;
        // The per-ant arena columns close the stream (present iff the
        // config carries an arena).
        let (arena_site, arena_travel) = match &config.arena {
            Some(arena) => {
                let site = get_le(buf, ants, u32::from_le_bytes)?;
                let sites = arena.num_sites();
                if let Some(s) = site.iter().max().filter(|&&s| s as usize >= sites) {
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
                ants: cols,
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

/// Writes the scratch section: the per-kind columns merged into one
/// stream of entries in ascending global-ant order.
fn put_scratch(out: &mut Vec<u8>, cols: &AntColumns, k: usize) {
    // Indexed by tag.
    let ids = [&cols.sigmoid.ids, &cols.adversarial_ids, &cols.streak_ids];
    let total: usize = ids.iter().map(|ids| ids.len()).sum();
    out.extend_from_slice(&(total as u64).to_le_bytes());
    let mut next = [0usize; 3];
    for _ in 0..total {
        // Ids are distinct across kinds; an exhausted list never wins.
        let head = |t: usize| ids[t].get(next[t]).copied().unwrap_or(u32::MAX);
        let (a, b, c) = (head(0), head(1), head(2));
        let tag = if a < b && a < c {
            0
        } else if b < c {
            1
        } else {
            2
        };
        let e = next[tag];
        next[tag] += 1;
        out.extend_from_slice(&ids[tag][e].to_le_bytes());
        out.push(tag as u8);
        match tag as u8 {
            TAG_SIGMOID => {
                let (s, row) = (&cols.sigmoid.rows, e * k..e * k + k);
                out.extend_from_slice(&s.current[e].to_le_bytes());
                out.push(s.have_phase[e]);
                for &c in s.count1[row.clone()].iter().chain(&s.count2[row.clone()]) {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                out.extend_from_slice(&s.shat1[row]);
            }
            TAG_ADVERSARIAL => {
                let s = &cols.adversarial[e];
                out.extend_from_slice(&s.current_task.to_raw().to_le_bytes());
                out.push(u8::from(s.have_phase));
                out.push(u8::from(s.all_overload));
                out.push(u8::from(s.frozen_working));
                // A first lack is never pending between rounds.
                out.push(0);
                out.push(match s.working_at_first_lack {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
                out.extend(s.all_lack.iter().map(|&l| u8::from(l)));
            }
            _ => out.extend_from_slice(&cols.streaks[e].to_le_bytes()),
        }
    }
}

/// Decodes the scratch section into `cols` (whose membership is already
/// decoded). Ids must ascend strictly and each entry must belong to an
/// ant that runs the entry's kind, with Precise Sigmoid counters within
/// the half-phase — crafted bytes must fail here, not panic in restore.
fn get_scratch(
    buf: &mut &[u8],
    controller: &ControllerSpec,
    cols: &mut AntColumns,
    ants: usize,
    k: usize,
) -> Result<(), CheckpointError> {
    let count = get_u64(buf)? as usize;
    // Validate the claimed count against the bytes present before any
    // allocation (a Proportional entry is the shortest).
    if count > ants || buf.len() / entry_len(TAG_STREAK, k) < count {
        return Err(corrupt(format!(
            "scratch count {count} exceeds payload or ant count {ants}"
        )));
    }
    // What each bank admits — one bank, or one per mix part, named by
    // the ant's (validated) membership: its scratch tag and, for
    // Precise Sigmoid, the half-phase length bounding its counters.
    let admits = |spec: &ControllerSpec| match spec {
        ControllerSpec::PreciseSigmoid(p) => Some((TAG_SIGMOID, p.m())),
        ControllerSpec::PreciseAdversarial(_) => Some((TAG_ADVERSARIAL, 0)),
        ControllerSpec::Proportional(_) => Some((TAG_STREAK, 0)),
        _ => None,
    };
    let banks: Vec<Option<(u8, u64)>> = match controller {
        ControllerSpec::Mix(parts) => parts.iter().map(|(_, spec)| admits(spec)).collect(),
        spec => vec![admits(spec)],
    };
    let mut prev = None;
    for _ in 0..count {
        let ant = get_u32(buf)?;
        if ant as usize >= ants {
            return Err(corrupt(format!("scratch ant {ant} out of range")));
        }
        if prev.is_some_and(|prev| ant <= prev) {
            return Err(corrupt("scratch entries out of order"));
        }
        prev = Some(ant);
        let bank = cols
            .members
            .get(ant as usize)
            .map_or(0, |&b| usize::from(b));
        let tag = get_u8(buf)?;
        let Some((_, m)) = banks[bank].filter(|&(admitted, _)| admitted == tag) else {
            return Err(corrupt(match tag {
                TAG_SIGMOID => format!("scratch for ant {ant}, which runs no Precise Sigmoid"),
                TAG_ADVERSARIAL => {
                    format!("scratch for ant {ant}, which runs no Precise Adversarial")
                }
                TAG_STREAK => {
                    format!("scratch for ant {ant}, which runs no Proportional controller")
                }
                t => format!("unknown scratch tag {t}"),
            }));
        };
        match tag {
            TAG_SIGMOID => {
                if cols.sigmoid.ids.is_empty() {
                    // Once, for as many entries as the payload can hold.
                    let entries = count.min(1 + buf.len() / entry_len(TAG_SIGMOID, k));
                    cols.sigmoid.reserve(entries, k);
                }
                let s = &mut cols.sigmoid.rows;
                let mut entry = take(buf, entry_len(TAG_SIGMOID, k) - 5)?;
                s.current.push(get_task(&mut entry, k)?);
                s.have_phase.push(u8::from(get_bool(&mut entry)?));
                let (counts, shat1) = entry.split_at(4 * k);
                let (count1, count2) = counts.as_chunks::<2>().0.split_at(k);
                let at = s.count1.len();
                s.count1
                    .extend(count1.iter().map(|&c| u16::from_le_bytes(c)));
                s.count2
                    .extend(count2.iter().map(|&c| u16::from_le_bytes(c)));
                let counts = s.count1[at..].iter().chain(&s.count2[at..]);
                if let Some(c) = counts.max().filter(|&&c| u64::from(c) > m) {
                    return Err(corrupt(format!(
                        "scratch counter {c} exceeds half-phase length {m}"
                    )));
                }
                s.shat1.extend(shat1.iter().map(|&b| u8::from(b != 0)));
                cols.sigmoid.ids.push(ant);
            }
            TAG_ADVERSARIAL => {
                let current_task = Assignment::from_raw(get_task(buf, k)?);
                let have_phase = get_bool(buf)?;
                let all_overload = get_bool(buf)?;
                let frozen_working = get_bool(buf)?;
                if get_bool(buf)? {
                    // Classified within the step that sees it, a first
                    // lack is never pending between rounds.
                    return Err(corrupt(format!(
                        "scratch for ant {ant}: first lack pending between rounds"
                    )));
                }
                let working_at_first_lack = match get_u8(buf)? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    t => return Err(corrupt(format!("unknown first-lack tri-state {t}"))),
                };
                cols.adversarial_ids.push(ant);
                cols.adversarial.push(AdversarialScratch {
                    current_task,
                    have_phase,
                    all_lack: take(buf, k)?.iter().map(|&b| b != 0).collect(),
                    all_overload,
                    working_at_first_lack,
                    frozen_working,
                });
            }
            _ => {
                if cols.streak_ids.is_empty() {
                    cols.streak_ids.reserve_exact(count);
                    cols.streaks.reserve_exact(count);
                }
                cols.streak_ids.push(ant);
                cols.streaks.push(u16::from_le_bytes(get(buf)?));
            }
        }
    }
    Ok(())
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

fn get_u8(buf: &mut &[u8]) -> Result<u8, CheckpointError> {
    get(buf).map(|[b]| b)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, CheckpointError> {
    get(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, CheckpointError> {
    get(buf).map(u64::from_le_bytes)
}

fn get_bool(buf: &mut &[u8]) -> Result<bool, CheckpointError> {
    Ok(get_u8(buf)? != 0)
}

/// Checks that every raw assignment is idle (`u32::MAX`) or a task
/// below `k`: idle wraps to 0 and task `j` to `j + 1`, so one max over
/// the column decides.
fn check_tasks(tasks: &[u32], k: usize) -> Result<(), CheckpointError> {
    match tasks.iter().map(|&t| t.wrapping_add(1)).max() {
        Some(top) if top as usize > k => Err(corrupt(format!(
            "task {} out of range ({k} tasks)",
            top - 1
        ))),
        _ => Ok(()),
    }
}

/// Reads one raw assignment, rejecting task indices outside the
/// colony's `k` tasks.
fn get_task(buf: &mut &[u8], k: usize) -> Result<u32, CheckpointError> {
    let task = get_u32(buf)?;
    check_tasks(&[task], k)?;
    Ok(task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use antalloc_core::ControllerScratch;
    use antalloc_core::{
        AntParams, ExactGreedyParams, PreciseAdversarialParams, PreciseSigmoidParams,
        ProportionalParams,
    };
    use antalloc_env::{Condition, Event, InitialConfig, Timeline, Trigger};
    use antalloc_noise::{GreyZonePolicy, NoiseModel};

    /// The frozen fixture: a 3-site arena, a Precise Sigmoid +
    /// Proportional mix captured mid-phase, a `deficit-rate-above`
    /// trigger, a generator and a `set-noise` switch — a stream with
    /// every section populated.
    const FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/checkpoint_v9.ckpt");

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

    /// The array-of-structs encoder the columnar codec replaced, kept as
    /// the reference `to_bytes` must match byte for byte. It gathers the
    /// per-ant state through the per-ant accessors (decoded assignments
    /// and one `ControllerScratch` per ant) and writes it one integer at
    /// a time; the scalar fields come from the snapshot.
    fn reference_bytes(engine: &SyncEngine) -> Vec<u8> {
        let snap = engine.snapshot();
        let population = engine.population();
        let assignments = engine.colony().assignments();
        let members = population.members();
        let scratch = population.scratches();
        let put_task = |out: &mut Vec<u8>, a: Assignment| {
            let raw = match a {
                Assignment::Idle => u32::MAX,
                Assignment::Task(j) => j,
            };
            out.extend_from_slice(&raw.to_le_bytes());
        };
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
        out.extend_from_slice(&(assignments.len() as u64).to_le_bytes());
        for &a in &assignments {
            put_task(&mut out, a);
        }
        if matches!(snap.config.controller, ControllerSpec::Mix(_)) {
            out.extend_from_slice(&(members.len() as u64).to_le_bytes());
            for &m in &members {
                out.extend_from_slice(&m.to_le_bytes());
            }
        }
        out.extend_from_slice(&(scratch.len() as u64).to_le_bytes());
        for (ant, scratch) in &scratch {
            out.extend_from_slice(&ant.to_le_bytes());
            match scratch {
                ControllerScratch::PreciseSigmoid(s) => {
                    out.push(0);
                    put_task(&mut out, s.current_task);
                    out.push(u8::from(s.have_phase));
                    for &c in s.count1.iter().chain(&s.count2) {
                        out.extend_from_slice(&c.to_le_bytes());
                    }
                    for &l in &s.shat1_lack {
                        out.push(u8::from(l));
                    }
                }
                ControllerScratch::PreciseAdversarial(s) => {
                    out.push(1);
                    put_task(&mut out, s.current_task);
                    out.push(u8::from(s.have_phase));
                    out.push(u8::from(s.all_overload));
                    out.push(u8::from(s.frozen_working));
                    out.push(0);
                    out.push(match s.working_at_first_lack {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    });
                    for &l in &s.all_lack {
                        out.push(u8::from(l));
                    }
                }
                ControllerScratch::Proportional(streak) => {
                    out.push(2);
                    out.extend_from_slice(&streak.to_le_bytes());
                }
            }
        }
        if snap.config.arena.is_some() {
            for &x in snap.arena_site.iter().chain(&snap.arena_travel) {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// A generated scenario over the kinds that carry scratch: alone,
    /// in the benchmark's four-kind mix, and in a mix of two differently
    /// tuned Precise Sigmoid banks with the other scratch kinds —
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
            3 => ControllerSpec::Mix(vec![
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
        /// array-of-structs reference writes; decoding them gives back
        /// the same checkpoint, which continues exactly like the
        /// captured engine, restored fresh or into a reused engine.
        /// Captures land in both halves of Precise Sigmoid's 82-round
        /// phase (so both counter planes are live).
        #[test]
        fn to_bytes_matches_the_reference_encoder(
            kind in 0usize..5,
            n in 24usize..160,
            seed in 0u64..1 << 40,
            rounds in 1u64..130,
            shocks in 0u8..2,
            arena in 0u8..2,
        ) {
            let cfg = generated(kind, n, seed, shocks == 1, arena == 1);
            let mut engine = cfg.build();
            let phase = cfg.controller.capture_phase_len(cfg.demands.len());
            engine.run(rounds - rounds % phase, &mut NullObserver);
            let cp = Checkpoint::capture(&engine).expect("capture round");
            let bytes = cp.to_bytes();
            proptest::prop_assert_eq!(&bytes, &reference_bytes(&engine));
            let back = Checkpoint::from_bytes(&bytes).expect("decodes");
            proptest::prop_assert_eq!(&back, &cp);
            let mut fresh = back.restore();
            let mut reused = generated((kind + 2) % 5, 200 - n, !seed, shocks == 0, arena == 0).build();
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
        // really produces every scratch kind and permuted membership.
        let mut engine = generated(4, 150, 3, true, true).build();
        engine.run(31, &mut NullObserver);
        let cp = Checkpoint::capture(&engine).unwrap();
        let cols = &cp.state.ants;
        assert!(!cols.sigmoid.ids.is_empty());
        assert!(!cols.adversarial_ids.is_empty());
        assert!(!cols.streak_ids.is_empty());
        assert!(cp.state.tasks.len() != 150, "shocks resized the colony");
        assert_eq!(cp.to_bytes(), reference_bytes(&engine));
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
        for other in [2u32, 8, 10] {
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
        // `restore()` would panic writing the scratch back.
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
    fn adversarial_first_lack_pending_between_rounds_is_rejected() {
        // The wire keeps a pending-first-lack byte, which is 0 between
        // rounds by construction; the banks keep no such column, so a
        // set byte must decode to `Corrupt`, not be dropped.
        let k = 2usize;
        let cfg = SimConfig::builder(30, vec![5, 7])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::PreciseAdversarial(
                PreciseAdversarialParams::new(0.05, 0.5),
            ))
            .seed(5)
            .build()
            .unwrap();
        let mut e = cfg.build();
        e.run(37, &mut NullObserver); // mid-ramp: every ant carries scratch
        let bytes = Checkpoint::capture(&e).unwrap().to_bytes();
        // The scratch section is the stream's tail. Ant 0's entry: id,
        // tag, currentTask, have_phase, all_overload, frozen, then the
        // pending byte.
        let entry = 4 + 1 + 4 + 5 + k;
        let pending = bytes.len() - 30 * entry + 4 + 1 + 4 + 3;
        assert_eq!(bytes[pending], 0);
        let mut bad = bytes.clone();
        bad[pending] = 1;
        let err = Checkpoint::from_bytes(&bad).expect_err("must reject");
        assert!(err.to_string().contains("pending"), "{err}");
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
