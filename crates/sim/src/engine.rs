//! The synchronous round engine (§2.1), stepping bank-wise.
//!
//! ## Data-oriented core
//!
//! Ants live in homogeneous [`antalloc_core::ControllerBank`]s owned by
//! a [`crate::population::Population`] (see its docs for the
//! membership invariants): one bank per controller kind,
//! so a homogeneous colony pays its controller dispatch once per round
//! and the hot loop is monomorphic. `ControllerSpec::Mix` colonies are
//! simply several banks over one colony; every engine operation —
//! stepping, perturbation, checkpointing, parallel partitioning — is
//! bank-wise.
//!
//! ## The bit-identity contract
//!
//! The non-negotiable spine of the engine: for a fixed config and seed,
//! every stepping path produces **bit-identical** loads, assignments
//! and round traces —
//!
//! * serial [`SyncEngine::run`] versus multi-threaded
//!   [`SyncEngine::run_parallel`] at any thread count,
//! * bank-wise stepping versus per-ant reference stepping: every kind
//!   writes its per-ant step once, and one generic driver in
//!   `antalloc_core`'s bank module runs it on the fused, RNG-slice and
//!   sequential one-ant paths alike (each ant consumes only its own
//!   RNG stream, in the same order; see [`antalloc_core::ControllerBank`]),
//! * a fresh engine versus one reused through
//!   [`SyncEngine::reset_from`] (a fresh engine *is* an empty engine
//!   reset from its config),
//! * a checkpoint captured at a phase boundary, restored and resumed,
//!   versus the uninterrupted run.
//!
//! No ant carries generator state. Ant `id`'s stream in round `t` is
//! `AntRng::keyed(key, id)`, built on the stack by the fused driver from
//! the round's key (`key` = [`antalloc_rng::StreamSeeder::round_key`]
//! of `t`, derived once per round) — a pure function of
//! `(seed, round, id)`, the same on every path because every path
//! numbers the ants alike. Kills, spawns, resets and restores therefore
//! move no randomness, and checkpoints store none per ant.
//!
//! Rounds run through a fused apply on the colony's one
//! [`antalloc_env::TaskColumn`]: sub-round 1 steps kernels that read
//! each ant's prior assignment from its slot and write the next one
//! back in place (accumulating a commutative
//! [`antalloc_env::RoundDelta`]), sub-round 2 is an O(k) delta
//! application — there is no separate apply sweep. *Write* order is
//! immaterial: each slot is read, then written, by its one owner, no
//! kernel reads another ant's slot, load/idle transitions commute, and
//! the switch count is a sum. Consumption order of randomness is what
//! matters, and that is per-ant by construction.
//! The contract oracle of the `antalloc-tests` package
//! (`tests/src/contract.rs`) holds every clause above down on generated
//! scenarios, and `tests/banks.rs` the bank-wise versus per-ant one.
//!
//! ## One round driver
//!
//! Every stepping method runs the same private driver over P
//! participants: the calling thread (the coordinator, which also steps
//! part 0) plus P − 1 scoped workers. [`SyncEngine::run`] and
//! [`SyncEngine::step`] are P = 1, which spawns nothing and skips the
//! barriers; [`SyncEngine::run_parallel`] sizes P from the live colony.
//! A run splits into scopes that end where a timeline event is due:
//! the event fires in the coordinator's exclusive window against the
//! whole population, then the population is partitioned afresh, so
//! event rounds step on every participant. A trigger that arms ends its
//! scope the same way.
//!
//! ## The sequential model
//!
//! Appendix D.1's model differs from §2.1's only in which ants step, so
//! [`crate::SequentialEngine`] is a `SyncEngine` plus the scheduler
//! stream that picks the acting ant. Its rounds go through the same
//! event firing, round record and trigger tail as the synchronous
//! driver's (`step_one_ant` next to `run_scope`), and both engines are
//! built by the same [`SyncEngine::reset_from`].

use std::sync::{Arc, Mutex, PoisonError, RwLock};

use antalloc_core::AnyController;
use antalloc_env::{
    ArenaConfig, Assignment, ColonyState, ColonyView, ColumnWriter, DemandVector, Event,
    InitialConfig, Perturbation, RoundDelta, TaskColumn, Timeline, TriggerState,
};
use antalloc_noise::{NoiseModel, PreparedRound, SensedRound};
use antalloc_rng::{reserved, uniform_index, AntRng, StreamSeeder};

use crate::arena::ArenaState;
use crate::config::{ControllerSpec, SimConfig};
use crate::observer::Observer;
use crate::population::{AntColumns, Population, WorkerPart};

/// The sub-seeder every timeline-event draw derives from: a pure
/// function of the master seed, keyed per firing round, so scripted
/// shocks consume identical randomness on every stepping path.
fn event_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::EVENT).next_u64())
}

/// Applies a colony-level perturbation, keeping controllers, arena
/// positions and the environment mutually consistent. Shared by
/// [`SyncEngine::perturb`] and the timeline event executor; a free
/// function because `perturb` lends it the engine's own init stream.
fn apply_perturbation(
    p: &Perturbation,
    colony: &mut ColonyState,
    population: &mut Population,
    mut arena: Option<&mut ArenaState>,
    rng: &mut AntRng,
    next_stream: &mut u64,
) {
    let victims = p.apply(colony, rng);
    match p {
        Perturbation::KillRandom { .. } => {
            // Every removal in the colony's kill order, a victim that was
            // the last ant included: deferring those to the end would let
            // a later swap move the dead ant into a live ant's id.
            population.remove_batch(&victims);
            if let Some(a) = arena.as_deref_mut() {
                for &victim in &victims {
                    a.remove(victim);
                }
            }
        }
        Perturbation::Spawn { count } => {
            for _ in 0..*count {
                population.spawn(*next_stream);
                *next_stream += 1;
                if let Some(a) = arena.as_deref_mut() {
                    a.spawn();
                }
            }
        }
        Perturbation::Scramble | Perturbation::StampedeTo(_) => {
            population.reset_to_colony(colony);
            // Ants teleported onto a task stand at its site; idle ants
            // keep their position (and any in-flight travel).
            if let Some(a) = arena.as_deref_mut() {
                a.sync_to_colony(colony);
            }
        }
    }
    debug_assert!(colony.recount_consistent());
    debug_assert_eq!(population.len(), colony.num_ants());
    debug_assert!(population.check_invariants());
    debug_assert!(arena.is_none_or(|a| a.len() == colony.num_ants()));
}

/// One participant's share of a round: steps its part of the
/// population against the frozen feedback, each ant drawing from its
/// stream for the round keyed `round_key`, updating its ants' slots of
/// `column` in place and folding the transitions into `delta`.
fn step_part(
    part: &mut WorkerPart<'_>,
    prepared: &PreparedRound,
    round_key: u64,
    arena: Option<&RwLock<ArenaState>>,
    column: &TaskColumn,
    delta: &mut RoundDelta,
) {
    delta.reset(prepared.num_tasks());
    // The coordinator rebuilt the sense rows before this pass and
    // rewrites them only after it, so the read guard is uncontended.
    let arena = arena.map(|l| l.read().unwrap_or_else(PoisonError::into_inner));
    let sensed = match &arena {
        Some(a) => a.sensed(prepared),
        None => SensedRound::shared(prepared),
    };
    let mut writer = ColumnWriter::new(column, delta);
    for (slice, ids) in part.iter_mut() {
        slice
            .step_batch_fused(sensed, round_key, ids, &mut writer)
            // audit:allow(panic-path): `partition_mut` pairs every chunk with its own ascending ids, all below the column's length.
            .expect("a part's chunk and ids fit the task column");
    }
}

/// What an [`Observer`] sees after each round.
#[derive(Clone, Copy, Debug)]
pub struct RoundRecord<'a> {
    /// The round `t` just completed (1-based).
    pub round: u64,
    /// Post-decision deficits `Δ(j)_t`.
    pub deficits: &'a [i64],
    /// Demands `d(j)` in force this round.
    pub demands: &'a [u64],
    /// Post-decision loads `W(j)_t`.
    pub loads: &'a [u32],
    /// Idle ants after this round.
    pub idle: u64,
    /// Number of ants whose assignment changed this round.
    pub switches: u64,
}

impl RoundRecord<'_> {
    /// Instantaneous regret `r(t) = Σ|Δ(j)_t|`.
    pub fn instant_regret(&self) -> u64 {
        self.deficits.iter().map(|d| d.unsigned_abs()).sum()
    }
}

/// Everything a run needs to continue bit-identically, as columns in
/// global ant order: what [`crate::Checkpoint`] holds and encodes.
/// [`SyncEngine::snapshot`] copies it out of an engine and
/// [`SyncEngine::restore_from`] copies it back in.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Snapshot {
    /// The configuration (including the full timeline).
    pub config: SimConfig,
    /// The demands in force.
    pub demands: Vec<u64>,
    /// The noise model in force (a timeline `SetNoise` event may have
    /// switched it away from `config.noise`).
    pub noise: NoiseModel,
    /// The current round.
    pub round: u64,
    /// Next spawn stream id (picks a spawned ant's mix sub-spec).
    pub next_stream: u64,
    /// One-shot timeline events already consumed (indexes the
    /// *compiled* timeline: scripted plus generated events).
    pub cursor: u64,
    /// Runtime state of every timeline trigger, in timeline order.
    pub triggers: Vec<TriggerState>,
    /// Every ant's assignment, raw ([`antalloc_env::Assignment::RAW_IDLE`]
    /// = idle).
    pub tasks: Vec<u32>,
    /// Membership and controller scratch.
    pub ants: AntColumns,
    /// Arena site per ant; empty for well-mixed scenarios.
    pub arena_site: Vec<u32>,
    /// Arena transit rounds remaining per ant; empty for well-mixed
    /// scenarios.
    pub arena_travel: Vec<u32>,
}

/// One bank's slice of the colony, as seen by [`SyncEngine::bank_census`].
#[derive(Clone, Debug)]
pub struct BankCensus {
    /// The (non-`Mix`) spec this bank runs.
    pub spec: ControllerSpec,
    /// Ants currently in the bank.
    pub ants: usize,
    /// How many of them are working on some task.
    pub working: u64,
}

/// The synchronous simulation engine.
///
/// One [`SyncEngine::step`] is the paper's round: sub-round 1 exposes
/// the previous round's loads to every ant through its private noisy
/// feedback; sub-round 2 applies all decisions simultaneously.
pub struct SyncEngine {
    config: SimConfig,
    /// The config's timeline with random generators expanded into
    /// concrete one-shot events (identical to `config.timeline` when no
    /// generators are declared). All stepping reads this one.
    compiled: Timeline,
    colony: ColonyState,
    population: Population,
    noise: NoiseModel,
    seeder: StreamSeeder,
    event_seeder: StreamSeeder,
    init_rng: AntRng,
    round: u64,
    /// One-shot timeline events consumed so far (monotone cursor over
    /// the compiled stream).
    cursor: usize,
    /// Runtime state of every timeline trigger.
    trigger_states: Vec<TriggerState>,
    /// Deficits frozen at the end of the previous round (sensing input).
    pre_deficits: Vec<i64>,
    /// Deficits after this round's decisions (observation output).
    post_deficits: Vec<i64>,
    /// The round's feedback row, rebuilt in place every round
    /// (`NoiseModel::prepare_into`) so stepping allocates none. Pooled
    /// scopes publish it to the workers through the `Arc` and take the
    /// published handle back after each round's `done` barrier, so the
    /// next round finds it unique again.
    prepared: Arc<PreparedRound>,
    /// Spawn stream ids handed out so far (each spawned ant draws its
    /// mix sub-spec from a fresh one).
    next_stream: u64,
    /// Round-delta scratch, one slot per participant, slot 0 being the
    /// coordinator's. Grown on demand and reused across rounds and
    /// scopes (serial stepping opens a scope per round, so scope-local
    /// slots would allocate every round); each worker locks only its own
    /// slot between the round barriers, the coordinator merges in its
    /// exclusive window.
    deltas: Vec<DeltaSlot>,
    /// Spatial runtime for arena scenarios (`None` for well-mixed).
    /// Unlocked outside a scope; `run_scope` moves it behind an
    /// `RwLock` for the scope's duration, see there.
    arena: Option<ArenaState>,
}

/// One participant's delta slot, alone on its 128-byte block (the
/// adjacent-line prefetch pair on x86-64): the coordinator and the
/// workers write their slots on every assignment change, so slots that
/// shared a line would ping-pong it between cores.
#[repr(align(128))]
struct DeltaSlot(Mutex<RoundDelta>);

impl SyncEngine {
    /// A fresh engine for `config`: the empty engine rebuilt by
    /// [`SyncEngine::reset_from`], so fresh and reused engines share one
    /// construction path.
    pub(crate) fn new(config: &SimConfig) -> Self {
        let mut engine = Self::empty();
        engine.reset_from(config);
        engine
    }

    /// An engine holding no colony yet: placeholder values for
    /// [`SyncEngine::reset_from`] or [`SyncEngine::restore_from`] to
    /// overwrite.
    pub(crate) fn empty() -> Self {
        let config = SimConfig {
            n: 0,
            demands: Vec::new(),
            noise: NoiseModel::Exact,
            controller: ControllerSpec::Trivial,
            seed: 0,
            timeline: Timeline::new(),
            initial: InitialConfig::AllIdle,
            arena: None,
        };
        Self {
            compiled: Timeline::new(),
            colony: ColonyState::new(1, DemandVector::uniform(1, 1)),
            population: Population::default(),
            noise: NoiseModel::Exact,
            seeder: StreamSeeder::new(0),
            event_seeder: StreamSeeder::new(0),
            init_rng: AntRng::seed_from_u64(0),
            round: 0,
            cursor: 0,
            trigger_states: Vec::new(),
            pre_deficits: Vec::new(),
            post_deficits: Vec::new(),
            prepared: Arc::default(),
            next_stream: 0,
            deltas: Vec::new(),
            arena: None,
            config,
        }
    }

    /// Rebuilds this engine in place to the state `config.build()`
    /// would produce, reusing allocations wherever shapes allow (shrink
    /// keeps capacity, grow reallocates; a controller-kind change
    /// rebuilds just that bank). The result is **bit-identical** to a
    /// freshly built engine — the sweep runner leans on this to keep
    /// one engine per worker across an entire ensemble.
    ///
    /// Unlike [`SimConfig::build`] this performs no validation: callers
    /// (the sweep's per-grid-point precheck) are expected to have
    /// validated `config` already.
    pub fn reset_from(&mut self, config: &SimConfig) {
        let n = config.n;
        self.adopt(config);
        self.colony.rebuild_in(n, &config.demands);
        self.population
            .rebuild_in(&config.controller, config.seed, config.demands.len(), n);
        self.noise.clone_from(&config.noise);
        self.round = 0;
        self.cursor = 0;
        self.next_stream = n as u64;
        // The delta slots are pure scratch, reset before every use, so
        // stale capacity cannot leak state.
        self.arena = config.arena.as_ref().map(|a| {
            let mut arena = self.take_arena(a, config.seed);
            arena.reset(a, n, config.seed);
            arena
        });
        self.apply_initial();
    }

    /// The rebuild steps [`SyncEngine::reset_from`] and
    /// [`SyncEngine::restore_from`] share: takes `config` on, derives
    /// its seeders and init stream, compiles its timeline (a pure
    /// function of the config and seed: magnitudes scale off the
    /// *initial* colony size and demands) with fresh trigger states,
    /// and sizes the deficit scratch.
    fn adopt(&mut self, config: &SimConfig) {
        let k = config.demands.len();
        self.config.clone_from(config);
        self.seeder = StreamSeeder::new(config.seed);
        self.event_seeder = event_seeder(config.seed);
        self.init_rng = self.seeder.stream(reserved::INIT);
        self.compiled = config
            .timeline
            .compile(config.seed, config.n, &config.demands);
        self.trigger_states = self.compiled.initial_trigger_states();
        self.pre_deficits.clear();
        self.pre_deficits.resize(k, 0);
        self.post_deficits.clear();
        self.post_deficits.resize(k, 0);
    }

    /// Applies the config's initial configuration (Theorem 3.1's
    /// "arbitrary initial allocation") to the freshly reset colony,
    /// syncing controllers and arena positions to it.
    fn apply_initial(&mut self) {
        self.config
            .initial
            .apply(&mut self.colony, &mut self.init_rng);
        self.population.reset_to_colony(&self.colony);
        if let Some(arena) = &mut self.arena {
            arena.sync_to_colony(&self.colony);
        }
    }

    /// The current round number (rounds are 1-based; 0 before any step).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The colony's ground truth.
    pub fn colony(&self) -> &ColonyState {
        &self.colony
    }

    /// The configuration this engine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Total memory used by one ant's controller, in bits (ant 0; for
    /// mixed colonies see [`SyncEngine::bank_census`] per sub-spec).
    pub fn controller_memory_bits(&self) -> u32 {
        if self.population.len() == 0 {
            0
        } else {
            self.population.memory_bits(0)
        }
    }

    /// The runtime state of every timeline trigger, in timeline order
    /// (empty for trigger-free scenarios). Benches use this to report
    /// how many conditional shocks a run actually absorbed.
    pub fn trigger_states(&self) -> &[TriggerState] {
        &self.trigger_states
    }

    /// Per-bank population and load census: which controller kind holds
    /// how much of the colony right now. Homogeneous colonies report a
    /// single bank.
    pub fn bank_census(&self) -> Vec<BankCensus> {
        self.population
            .banks()
            .iter()
            .map(|bank| BankCensus {
                spec: bank.spec.clone(),
                ants: bank.len(),
                working: bank
                    .ants
                    .iter()
                    .filter(|&&i| !self.colony.assignment(i as usize).is_idle())
                    .count() as u64,
            })
            .collect()
    }

    /// Clones every controller into the per-ant dispatch enum, in
    /// global ant order — the *reference* representation. Bank-wise
    /// stepping is bit-identical to stepping these with
    /// [`antalloc_core::Controller::step`] against per-ant probes; the
    /// bank property tests and the `perf_engine` pre-bank baseline lean
    /// on this.
    pub fn reference_controllers(&self) -> Vec<AnyController> {
        self.population.reference_controllers()
    }

    /// Fires every timeline event scheduled for `round`, the round about
    /// to begin: one-shots past the cursor, then cycle generators, then
    /// triggers armed at the end of the previous round. All events of
    /// one round share a generator derived purely from `(master seed,
    /// round)`, so firing is stepping-path independent.
    fn fire_events(&mut self, round: u64) {
        let mut fired = Vec::new();
        self.compiled.fire_into(round, &mut self.cursor, &mut fired);
        self.compiled
            .fire_triggers_into(round, &mut self.trigger_states, &mut fired);
        if fired.is_empty() {
            return;
        }
        let mut rng = self.event_seeder.stream(round);
        for event in &fired {
            self.apply_event(event, &mut rng);
        }
    }

    /// Applies one timeline event. Population shocks route through
    /// [`apply_perturbation`]; demand and noise rewrites are pure.
    fn apply_event(&mut self, event: &Event, rng: &mut AntRng) {
        match event {
            Event::SetDemands(demands) => self.colony.demands_mut().set(demands),
            Event::SetTaskDemand { task, demand } => {
                self.colony.demands_mut().set_task(*task, *demand);
            }
            Event::SetNoise(model) => self.noise = model.clone(),
            shock => {
                let p = shock
                    .as_perturbation()
                    // audit:allow(panic-path): exhaustive by construction — the match above consumed every pure event kind.
                    .expect("non-pure events are perturbations");
                apply_perturbation(
                    &p,
                    &mut self.colony,
                    &mut self.population,
                    self.arena.as_mut(),
                    rng,
                    &mut self.next_stream,
                );
            }
        }
    }

    /// Runs one synchronous round on the calling thread.
    pub fn step(&mut self, observer: &mut impl Observer) {
        self.run(1, observer);
    }

    /// Runs `rounds` rounds on the calling thread.
    pub fn run(&mut self, rounds: u64, observer: &mut impl Observer) {
        self.drive(rounds, 1, 1, observer);
    }

    /// Runs `rounds` rounds with the ants partitioned across up to
    /// `threads` participants (the calling thread plus scoped workers),
    /// bit-identical to [`SyncEngine::run`].
    ///
    /// A colony too small to keep a participant busy runs on fewer of
    /// them, down to the calling thread alone; `threads == 0` counts as
    /// one. The count is chosen afresh whenever a timeline event may
    /// have resized the colony.
    pub fn run_parallel(&mut self, rounds: u64, threads: usize, observer: &mut impl Observer) {
        // Two barrier crossings cost ~10µs/round; a serial round of the
        // four-kind 200k-ant mix (perfbench's `wellmixed_mix`) costs
        // ~3.5ms, ~17ns per ant, on a 2-vCPU x86-64 host. Below ~8k
        // ants per participant the extra threads lose.
        self.drive(rounds, threads, 8_000, observer)
    }

    /// Like [`SyncEngine::run_parallel`] but uses all `threads`
    /// participants however small the colony. Exists so tests can
    /// exercise the worker machinery at small sizes; not useful for
    /// performance.
    #[doc(hidden)]
    pub fn run_parallel_forced(
        &mut self,
        rounds: u64,
        threads: usize,
        observer: &mut impl Observer,
    ) {
        self.drive(rounds, threads, 1, observer)
    }

    /// The round driver behind every stepping method.
    ///
    /// A run splits into *scopes*: maximal stretches of rounds at which
    /// no timeline event fires after the first. Each scope opens with
    /// the coordinator's exclusive window, where the first round's
    /// events fire against the whole population; only then is the live
    /// population partitioned, so event rounds step on every
    /// participant too. The participant count is sized here, per scope.
    fn drive(
        &mut self,
        rounds: u64,
        threads: usize,
        min_ants_per_worker: usize,
        observer: &mut impl Observer,
    ) {
        let mut remaining = rounds;
        while remaining > 0 {
            let first = self.round + 1;
            self.fire_events(first);
            let scope_len = match self.compiled.next_firing(first, self.cursor) {
                Some(next) => (next - first).min(remaining),
                None => remaining,
            };
            let workers = (self.population.len() / min_ants_per_worker)
                .min(threads)
                .max(1);
            remaining -= self.run_scope(scope_len, workers, observer);
        }
    }

    /// Runs up to `rounds` rounds on `workers` participants: the calling
    /// thread, which coordinates and steps part 0, plus `workers − 1`
    /// scoped threads spawned once for the scope (none when `workers`
    /// is 1, which also skips the barriers and the publish slot).
    /// Returns the rounds completed — fewer than `rounds` when a
    /// trigger arms, since its event mutates the population the parts
    /// borrow and must fire in the driver's exclusive window.
    ///
    /// `std::thread::scope` re-raises a worker's panic when the scope
    /// ends, not mid-round: the coordinator still waits at the round's
    /// `done` barrier, which a panicked worker never reaches.
    fn run_scope(&mut self, rounds: u64, workers: usize, observer: &mut impl Observer) -> u64 {
        use std::sync::atomic::{AtomicBool, Ordering};

        let n = self.population.len();
        if self.deltas.len() < workers {
            let k = self.colony.num_tasks();
            self.deltas
                .resize_with(workers, || DeltaSlot(Mutex::new(RoundDelta::new(k))));
        }
        // The population and the delta slots are lent to the participants
        // for the scope, like the column and the arena below, so the
        // coordinator's window may call the engine's own methods. Each
        // move is O(1).
        let mut population = core::mem::take(&mut self.population);
        let mut deltas = core::mem::take(&mut self.deltas);
        // The colony's task column, shared with every participant for
        // the scope: each updates only its own ants' slots, in place
        // (relaxed loads and stores; the `done` barrier orders them
        // before the merge), so the update *is* the apply pass.
        let column = self.colony.take_column();
        // The coordinator publishes each round's prepared feedback and
        // round key here — one Arc bump per round, no deep clone;
        // workers read it only between the two barriers of a round, and
        // the coordinator clears it after `done`.
        let shared: RwLock<Option<(Arc<PreparedRound>, u64)>> = RwLock::new(None);
        let start = std::sync::Barrier::new(workers);
        let done = std::sync::Barrier::new(workers);
        let stop = AtomicBool::new(false);

        // Each participant owns an equal, 16-ant-aligned share of every
        // bank as (bank chunk, ant-id chunk) pairs (parts of a small
        // colony may be empty), and one delta slot: the
        // coordinator's without a lock, each worker's behind an
        // uncontended one.
        let mut parts = population.partition_mut(workers).into_iter();
        // audit:allow(panic-path): the partitioner emits exactly `workers` >= 1 parts.
        let mut own_part = parts.next().expect("one part per participant");
        let (own_delta, worker_deltas) = deltas[..workers].split_at_mut(1);
        let own_delta = own_delta[0]
            .0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let worker_deltas = &*worker_deltas;
        // The arena is locked only for the scope: workers read the
        // frozen sense rows between the round barriers while the
        // coordinator writes them (sense-row rebuild, wander pass) in
        // its exclusive windows, so the lock is never contended. Moving
        // it in and out is O(1).
        let arena_lock = self.arena.take().map(RwLock::new);
        let arena = arena_lock.as_ref();
        let column_ref = &column;

        let completed = std::thread::scope(|scope| {
            for (mut part, slot) in parts.zip(worker_deltas) {
                let (shared, start, done, stop) = (&shared, &start, &done, &stop);
                scope.spawn(move || loop {
                    start.wait();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    {
                        // Both guards drop before `done`, so the
                        // coordinator's merge and next publish never
                        // wait on them.
                        let published = shared.read().unwrap_or_else(PoisonError::into_inner);
                        // audit:allow(panic-path): the coordinator publishes the round before releasing the start barrier.
                        let (prepared, key) = published.as_ref().expect("round published");
                        step_part(
                            &mut part,
                            prepared,
                            *key,
                            arena,
                            column_ref,
                            &mut slot.0.lock().unwrap_or_else(PoisonError::into_inner),
                        );
                    }
                    done.wait();
                });
            }

            let mut completed = 0u64;
            while completed < rounds {
                // Exclusive window: begin the round (its events, if any,
                // fired before the population was partitioned) and
                // freeze its feedback and sense rows.
                self.round += 1;
                self.colony.deficits_into(&mut self.pre_deficits);
                // Unique here (the last round's published handle was
                // cleared after its `done`), so `make_mut` never clones.
                self.noise.prepare_into(
                    Arc::make_mut(&mut self.prepared),
                    self.round,
                    &self.pre_deficits,
                    self.colony.demands().as_slice(),
                );
                if let Some(l) = arena {
                    l.write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .build_round(&self.prepared);
                }
                let round_key = self.seeder.round_key(self.round);
                if workers > 1 {
                    *shared.write().unwrap_or_else(PoisonError::into_inner) =
                        Some((Arc::clone(&self.prepared), round_key));
                    start.wait();
                }
                step_part(
                    &mut own_part,
                    &self.prepared,
                    round_key,
                    arena,
                    column_ref,
                    own_delta,
                );
                if workers > 1 {
                    done.wait();
                    // Every worker dropped its read guard before `done`.
                    *shared.write().unwrap_or_else(PoisonError::into_inner) = None;
                }
                // Exclusive window: merge the deltas (commutative, so
                // in any order); the column is already current.
                let mut switches = own_delta.switches();
                self.colony.apply_round_delta(own_delta);
                for slot in worker_deltas {
                    let delta = slot.0.lock().unwrap_or_else(PoisonError::into_inner);
                    switches += delta.switches();
                    self.colony.apply_round_delta(&delta);
                }
                if let Some(l) = arena {
                    l.write()
                        .unwrap_or_else(PoisonError::into_inner)
                        .wander(self.round, column_ref);
                }
                completed += 1;
                if self.end_round(n, switches, observer) {
                    break;
                }
            }
            if workers > 1 {
                stop.store(true, Ordering::Release);
                start.wait();
            }
            completed
        });
        self.arena = arena_lock.map(|l| l.into_inner().unwrap_or_else(PoisonError::into_inner));
        self.population = population;
        self.deltas = deltas;
        // An O(1) move; the deltas already applied every round.
        self.colony.restore_column(column);
        completed
    }

    /// One round of Appendix D.1's sequential model: the round's
    /// timeline events fire, then the one ant `scheduler` picks
    /// uniformly observes the live feedback and acts.
    pub(crate) fn step_one_ant(&mut self, scheduler: &mut AntRng, observer: &mut impl Observer) {
        self.round += 1;
        self.fire_events(self.round);
        self.colony.deficits_into(&mut self.pre_deficits);
        self.noise.prepare_into(
            Arc::make_mut(&mut self.prepared),
            self.round,
            &self.pre_deficits,
            self.colony.demands().as_slice(),
        );
        let n = self.population.len();
        let i = uniform_index(scheduler, n);
        let next = self
            .population
            .step_one(i, &self.prepared, self.seeder.round_key(self.round));
        let switches = u64::from(next != self.colony.assignment(i));
        self.colony.apply(i, next);
        // A trigger that arms fires at the start of the next step.
        self.end_round(n, switches, observer);
    }

    /// Closes the round just stepped, on every stepping path: records
    /// the post-decision deficits, shows the round to `observer`, and
    /// evaluates the timeline triggers over the colony's summary.
    /// Returns whether a trigger armed. `population` is passed in
    /// because a pooled scope lends the colony's task column out.
    fn end_round(
        &mut self,
        population: usize,
        switches: u64,
        observer: &mut impl Observer,
    ) -> bool {
        self.colony.deficits_into(&mut self.post_deficits);
        observer.on_round(&RoundRecord {
            round: self.round,
            deficits: &self.post_deficits,
            demands: self.colony.demands().as_slice(),
            loads: self.colony.loads(),
            idle: self.colony.idle_count(),
            switches,
        });
        if !self.compiled.has_triggers() {
            return false;
        }
        let view = ColonyView {
            round: self.round,
            regret: self.post_deficits.iter().map(|d| d.unsigned_abs()).sum(),
            population,
            idle: self.colony.idle_count(),
            deficits: &self.post_deficits,
        };
        self.compiled
            .observe_triggers(&mut self.trigger_states, &view)
    }

    /// Applies a mid-run perturbation, keeping controllers, arena
    /// positions and the environment mutually consistent.
    ///
    /// Imperative shocks draw from the engine's init stream; prefer
    /// scripting shocks in the config's [`antalloc_env::Timeline`],
    /// whose events draw from per-round reserved streams and therefore
    /// survive checkpoint-restore bit-identically.
    pub fn perturb(&mut self, p: &Perturbation) {
        apply_perturbation(
            p,
            &mut self.colony,
            &mut self.population,
            self.arena.as_mut(),
            &mut self.init_rng,
            &mut self.next_stream,
        );
    }

    /// The banked population (checkpoint reference tests).
    #[cfg(test)]
    pub(crate) fn population(&self) -> &Population {
        &self.population
    }

    /// Copies the engine's state out as columns (checkpoint capture).
    pub(crate) fn snapshot(&self) -> Snapshot {
        let (arena_site, arena_travel) = match &self.arena {
            Some(a) => (a.site().to_vec(), a.travel().to_vec()),
            None => (Vec::new(), Vec::new()),
        };
        Snapshot {
            config: self.config.clone(),
            demands: self.colony.demands().as_slice().to_vec(),
            noise: self.noise.clone(),
            round: self.round,
            next_stream: self.next_stream,
            cursor: self.cursor as u64,
            triggers: self.trigger_states.clone(),
            tasks: self
                .colony
                .task_column()
                .iter()
                .map(|slot| Assignment::from_slot(slot).to_raw())
                .collect(),
            ants: self.population.capture(self.colony.num_tasks()),
            arena_site,
            arena_travel,
        }
    }

    /// Rebuilds this engine in place from `snap`, reusing allocations
    /// like [`SyncEngine::reset_from`]: the colony is recounted from the
    /// task column, every bank is reset from it and takes the captured
    /// scratch, and the arena takes the captured columns.
    ///
    /// With `fork`, the state is rebased onto that config instead of the
    /// snapshot's own (`Checkpoint::fork_into`): its demands and noise
    /// replace the captured ones only where it changes them from the
    /// snapshot's config, and the one-shot cursor is recomputed against
    /// its compiled timeline.
    pub(crate) fn restore_from(&mut self, snap: &Snapshot, fork: Option<&SimConfig>) {
        let config = fork.unwrap_or(&snap.config);
        let demands = if config.demands != snap.config.demands {
            &config.demands
        } else {
            &snap.demands
        };
        let noise = if config.noise != snap.config.noise {
            &config.noise
        } else {
            &snap.noise
        };
        self.adopt(config);
        self.colony.restore_in(&snap.tasks, demands);
        self.population
            .restore_in(&config.controller, config.seed, &self.colony, &snap.ants);
        self.noise.clone_from(noise);
        self.round = snap.round;
        self.cursor = match fork {
            Some(_) => self.compiled.cursor_at(snap.round),
            None => snap.cursor as usize,
        };
        if !snap.triggers.is_empty() {
            debug_assert_eq!(snap.triggers.len(), self.compiled.triggers.len());
            self.trigger_states.clone_from(&snap.triggers);
        }
        self.next_stream = snap.next_stream;
        // A fork keeps the snapshot's arena (the sweep prechecks it), so
        // the captured columns always fit.
        self.arena = config.arena.as_ref().map(|a| {
            let mut arena = self.take_arena(a, config.seed);
            arena.restore(a, config.seed, &snap.arena_site, &snap.arena_travel);
            arena
        });
    }

    /// The engine's arena, taken out for an in-place reset or restore
    /// that reuses its column allocations, or an empty one if the
    /// engine had none.
    fn take_arena(&mut self, config: &ArenaConfig, seed: u64) -> ArenaState {
        self.arena
            .take()
            .unwrap_or_else(|| ArenaState::new(config, 0, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerSpec;
    use crate::observer::{NullObserver, RunSummary};
    use antalloc_core::AntParams;
    use antalloc_noise::NoiseModel;

    fn config() -> SimConfig {
        SimConfig::builder(800, vec![100, 150])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::default()))
            .seed(7)
            .build()
            .expect("valid scenario")
    }

    fn mixed_config() -> SimConfig {
        SimConfig::builder(600, vec![80, 120])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, ControllerSpec::ExactGreedy(Default::default())),
                (1.0, ControllerSpec::Trivial),
            ]))
            .seed(21)
            .build()
            .expect("valid mixed scenario")
    }

    #[test]
    fn rounds_advance_and_mass_is_conserved() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(10, &mut obs);
        assert_eq!(e.round(), 10);
        assert!(e.colony().recount_consistent());
        let mass: u64 = e.colony().idle_count()
            + (0..e.colony().num_tasks())
                .map(|j| e.colony().load(j))
                .sum::<u64>();
        assert_eq!(mass, 800);
    }

    #[test]
    fn ant_algorithm_fills_tasks_from_idle_start() {
        // From all-idle, every ant joins in phase 1 (the one-off Θ(n)
        // overshoot of Claim 4.5) and the excess then drains at rate
        // γ/c_d per phase (Claim 4.3): γ = 1/16 ⇒ ~300 phases from 400
        // down to ~110. Run well past that and check the band.
        let mut cfg = config();
        cfg.controller = ControllerSpec::Ant(AntParams::new(1.0 / 16.0));
        let mut e = cfg.build();
        let mut obs = RunSummary::new();
        e.run(3000, &mut obs);
        for j in 0..2 {
            let d = e.colony().demands().demand(j) as f64;
            let w = e.colony().load(j) as f64;
            assert!(
                (w - d).abs() < 0.3 * d,
                "task {j}: load {w} demand {d} after {} rounds",
                e.round()
            );
        }
        assert!(obs.rounds() == 3000);
    }

    #[test]
    fn worker_count_never_exceeds_requested_threads() {
        // Regression: with n just above one worker's minimum, the old
        // heuristic `threads.min(n / min).max(2)` ran 2 undersized
        // workers; the driver must instead run the calling thread
        // alone. We can't observe thread counts directly, but the path
        // must stay bit-identical to serial either way.
        let mut serial = config().build();
        let mut pooled = config().build();
        let mut obs = NullObserver;
        serial.run(20, &mut obs);
        // 800 ants / 8000 min = 0 workers → one participant.
        pooled.run_parallel(20, 8, &mut obs);
        assert_eq!(serial.colony().loads(), pooled.colony().loads());
        assert_eq!(serial.colony().assignments(), pooled.colony().assignments());
    }

    #[test]
    fn pooled_delta_slots_share_no_128_byte_block() {
        let mut e = config().build();
        e.run_parallel_forced(20, 3, &mut NullObserver);
        assert_eq!(e.deltas.len(), 3);
        // Per slot: the 128-byte blocks its inline bytes and its load
        // counters in use touch, as inclusive block-index ranges.
        let blocks = |addr: usize, len: usize| (addr / 128, (addr + len - 1) / 128);
        let touched: Vec<[(usize, usize); 2]> = e
            .deltas
            .iter_mut()
            .map(|slot| {
                let inline = blocks(std::ptr::from_ref(&*slot).addr(), size_of::<DeltaSlot>());
                let loads = slot.0.get_mut().unwrap().load_deltas();
                assert!(!loads.is_empty());
                [inline, blocks(loads.as_ptr().addr(), size_of_val(loads))]
            })
            .collect();
        for (i, a) in touched.iter().enumerate() {
            for (j, b) in touched.iter().enumerate().skip(i + 1) {
                for &(a0, a1) in a {
                    for &(b0, b1) in b {
                        assert!(a1 < b0 || b1 < a0, "slots {i} and {j} share a block");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_threads_counts_as_one() {
        let mut serial = config().build();
        let mut zero = config().build();
        let mut forced = config().build();
        let mut obs = NullObserver;
        serial.run(5, &mut obs);
        zero.run_parallel(5, 0, &mut obs);
        forced.run_parallel_forced(5, 0, &mut obs);
        for e in [&zero, &forced] {
            assert_eq!(e.round(), 5);
            assert_eq!(serial.colony().assignments(), e.colony().assignments());
            assert_eq!(serial.colony().loads(), e.colony().loads());
        }
    }

    #[test]
    fn initial_config_syncs_controllers() {
        let mut e = crate::ScenarioBuilder::from_config(config())
            .initial(InitialConfig::AllOnTask(1))
            .build()
            .expect("valid scenario")
            .build();
        assert_eq!(e.colony().load(1), 800);
        // Controllers believe it too: run a round; no panic, consistent.
        let mut obs = NullObserver;
        e.step(&mut obs);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn kills_and_spawns_keep_arrays_aligned() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(50, &mut obs);
        e.perturb(&Perturbation::KillRandom { count: 300 });
        assert_eq!(e.colony().num_ants(), 500);
        e.run(10, &mut obs);
        assert!(e.colony().recount_consistent());
        e.perturb(&Perturbation::Spawn { count: 100 });
        assert_eq!(e.colony().num_ants(), 600);
        e.run(10, &mut obs);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn mixed_colony_survives_kill_spawn_scramble() {
        let mut e = mixed_config().build();
        let mut obs = NullObserver;
        e.run(30, &mut obs);
        let before: usize = e.bank_census().iter().map(|b| b.ants).sum();
        assert_eq!(before, 600);
        e.perturb(&Perturbation::KillRandom { count: 200 });
        assert_eq!(e.colony().num_ants(), 400);
        let after: usize = e.bank_census().iter().map(|b| b.ants).sum();
        assert_eq!(after, 400);
        e.perturb(&Perturbation::Spawn { count: 150 });
        assert_eq!(e.colony().num_ants(), 550);
        e.perturb(&Perturbation::Scramble);
        e.run(30, &mut obs);
        assert!(e.colony().recount_consistent());
        // All three banks are still populated after the churn.
        let census = e.bank_census();
        assert_eq!(census.len(), 3);
        assert!(census.iter().all(|b| b.ants > 0), "{census:?}");
    }

    #[test]
    fn scramble_resyncs_controllers() {
        let mut e = config().build();
        let mut obs = NullObserver;
        e.run(20, &mut obs);
        e.perturb(&Perturbation::Scramble);
        assert!(e.colony().recount_consistent());
        e.run(20, &mut obs);
        assert!(e.colony().recount_consistent());
    }

    #[test]
    fn observer_sees_post_decision_state() {
        let mut e = config().build();
        let mut seen = Vec::new();
        let mut obs = crate::observer::FnObserver::new(|r: &RoundRecord<'_>| {
            let load_sum: u64 = r.loads.iter().map(|&w| u64::from(w)).sum();
            seen.push((r.round, load_sum + r.idle));
        });
        e.run(5, &mut obs);
        assert_eq!(seen.len(), 5);
        for (round, mass) in seen {
            assert!((1..=5).contains(&round));
            assert_eq!(mass, 800);
        }
    }

    #[test]
    fn generated_timelines_are_deterministic_and_seed_dependent() {
        use antalloc_env::{GenShock, TimelineGen};

        let cfg = |seed| {
            SimConfig::builder(600, vec![80, 120])
                .noise(NoiseModel::Sigmoid { lambda: 2.0 })
                .controller(ControllerSpec::Ant(AntParams::default()))
                .seed(seed)
                .generate(TimelineGen {
                    start: 1,
                    until: 150,
                    mean_gap: 30.0,
                    shock: GenShock::Kill {
                        min_frac: 0.05,
                        max_frac: 0.1,
                    },
                })
                .build()
                .unwrap()
        };
        let mut obs = NullObserver;
        let mut a = cfg(5).build();
        let mut b = cfg(5).build();
        a.run(200, &mut obs);
        b.run(200, &mut obs);
        assert_eq!(a.colony().assignments(), b.colony().assignments());
        // The generated kills really shrank the colony, and a different
        // master seed expands a different schedule.
        assert!(a.colony().num_ants() < 600, "no generated kill fired");
        let timeline = &cfg(5).timeline;
        assert_ne!(
            timeline.compile(5, 600, &[80, 120]),
            timeline.compile(6, 600, &[80, 120]),
        );
    }

    #[test]
    fn mixed_census_matches_quotas() {
        let e = mixed_config().build();
        let census = e.bank_census();
        assert_eq!(census.len(), 3);
        assert_eq!(census.iter().map(|b| b.ants).sum::<usize>(), 600);
        for b in &census {
            assert_eq!(b.ants, 200, "equal weights split 600 three ways");
        }
    }
}
