//! Multi-seed runs and parameter sweeps over OS threads.
//!
//! A [`Sweep`] fans one scenario out over a seed list and, optionally,
//! parameter axes (a full Cartesian grid); with no axes it is a plain
//! multi-seed batch. Runs execute on a pool of participants pulling
//! jobs from a shared queue: the calling thread is worker 0 and spawns
//! the other `threads − 1`, the same discipline as the engine's
//! `run_parallel`, so a 1-thread sweep spawns nothing. Each *run* steps
//! serially, so every per-seed result is bit-identical to running that
//! seed alone. Results stream to the caller in completion order via
//! [`Sweep::run_with`], [`Sweep::run_while`] or [`Sweep::stream_into`],
//! or arrive sorted in job order from [`Sweep::run`].
//!
//! ## The sweep fast path
//!
//! Jobs are never materialized: job `i` of the `grid × seeds` matrix is
//! *derived on demand* from (base config, axis setters, seed list), so
//! a million-run sweep holds O(workers) configs, not a million clones.
//! Each worker keeps one scratch [`SimConfig`] (re-derived only when
//! its grid point changes, together with its store-key text when a
//! store is attached), one shared per-grid-point `params` arc, and
//! one [`SyncEngine`] reused across jobs via
//! [`SyncEngine::reset_from`] — bit-identical to building a fresh
//! engine per job (a fresh engine *is* an empty one reset from its
//! config), which [`Sweep::engine_reuse`] can force for A/B
//! measurement. Setter-broken configs are caught by a
//! one-pass-per-grid-point structural precheck before any worker
//! starts. The caller, as worker 0, hands the outcomes it computes
//! straight to the callback, with no channel and no thread wake; only
//! the spawned workers' outcomes travel through a channel, which the
//! caller drains between its own jobs and, once the queue is empty,
//! with a blocking receive.
//!
//! ## The durable store
//!
//! [`Sweep::store`] attaches an `antalloc_store::CheckpointStore`:
//! each run's outcome is keyed by a fingerprint of (canonical scenario
//! TOML, seed, warmup, rounds), verified entries are served without
//! running, and computed results are written back per
//! [`CapturePolicy`] — so a sweep killed partway restarts and
//! recomputes only what is missing, bit-identically (cached outcomes
//! *are* the bytes the original run produced). Any unusable entry —
//! truncated, bit-flipped, version-skewed, torn — degrades to a
//! recomputed run under [`UsePolicy::IfFresh`]; only
//! [`UsePolicy::Require`] turns a miss into an error.
//! [`Sweep::from_round`] adds a warm start: one shared prefix run of
//! the base scenario per seed (itself cached as a checkpoint entry)
//! is forked into every grid point via [`Checkpoint::fork_into`]. See
//! docs/CHECKPOINTS.md § Durable store.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};

pub use antalloc_store::{CapturePolicy, UsePolicy};
use antalloc_store::{CheckpointStore, EntryKind, Fingerprint, FingerprintBuilder};

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::engine::SyncEngine;
use crate::observer::{NullObserver, RunSummary};
use crate::scenario::sink::RunSink;
use crate::scenario::{ConfigError, SeedSplitToml};

/// Domain tag of outcome fingerprints; bump when the outcome payload
/// layout changes so stale entries become misses, not misreads.
const OUTCOME_DOMAIN: &str = "antalloc.outcome.v1";

/// Domain tag of shared-prefix checkpoint fingerprints; bump when the
/// checkpoint format changes (or the key's inputs change meaning), so
/// entries in an older format become misses before they are decoded.
const PREFIX_DOMAIN: &str = "antalloc.prefix-checkpoint.v3";

/// One sweep-axis coordinate as recorded in a [`RunOutcome`].
///
/// Numeric axes ([`Sweep::axis`]) record the value itself; labeled
/// axes ([`Sweep::axis_labeled`] — controller kinds, timelines, mix
/// weights, anything non-numeric) record the point's label.
#[derive(Clone, Debug, PartialEq)]
pub enum AxisValue {
    /// A numeric grid point.
    Float(f64),
    /// A labeled (categorical) grid point.
    Text(String),
}

impl core::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AxisValue::Float(x) => write!(f, "{x}"),
            AxisValue::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<f64> for AxisValue {
    fn from(x: f64) -> Self {
        AxisValue::Float(x)
    }
}

impl From<String> for AxisValue {
    fn from(s: String) -> Self {
        AxisValue::Text(s)
    }
}

impl From<&str> for AxisValue {
    fn from(s: &str) -> Self {
        AxisValue::Text(s.to_string())
    }
}

/// The measured outcome of one run in a sweep.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Position in the sweep's job order (stable across thread counts).
    pub index: usize,
    /// The seed this run used.
    pub seed: u64,
    /// Sweep-axis values applied to the base config (empty for a sweep
    /// with no axes), as `(axis name, value)` pairs. Shared per grid point:
    /// every outcome of the same grid point holds the same arc rather
    /// than its own clone of the label vector.
    pub params: Arc<[(String, AxisValue)]>,
    /// Rounds measured (after warmup).
    pub rounds: u64,
    /// Regret summary over the measured window.
    pub summary: RunSummary,
    /// Instantaneous regret at the end of the run.
    pub final_regret: u64,
    /// Final per-task loads.
    pub final_loads: Vec<u64>,
    /// Whether this outcome was served from the durable store instead
    /// of being computed (always `false` without [`Sweep::store`]).
    pub cached: bool,
}

/// A prepared grid point: the recorded coordinate plus a rewriter
/// already bound to the point's value.
type AxisPoint = (AxisValue, Arc<dyn Fn(&mut SimConfig) + Send + Sync>);

/// One sweep dimension: a named list of prepared grid points. Numeric
/// and labeled axes both lower to this, so the grid machinery never
/// cares what a point *is* — controller kinds, whole timelines and mix
/// weights sweep exactly like `f64` parameters.
struct Axis {
    name: String,
    points: Vec<AxisPoint>,
}

/// Runs a scenario over a parameter grid × seed list.
///
/// ```
/// use antalloc_sim::{SimConfig, Sweep};
///
/// let base = SimConfig::builder(400, vec![60, 80]).build().unwrap();
/// let outcomes = Sweep::new(base)
///     .axis("lambda", [1.0, 4.0], |cfg, lambda| {
///         cfg.noise = antalloc_noise::NoiseModel::Sigmoid { lambda };
///     })
///     .seeds(0..2)
///     .rounds(50)
///     .threads(2)
///     .run()
///     .unwrap();
/// assert_eq!(outcomes.len(), 4); // 2 grid points × 2 seeds
/// ```
pub struct Sweep {
    base: SimConfig,
    axes: Vec<Axis>,
    seeds: Vec<u64>,
    warmup: u64,
    rounds: u64,
    threads: usize,
    reuse_engines: bool,
    store: Option<Arc<CheckpointStore>>,
    use_policy: UsePolicy,
    capture_policy: CapturePolicy,
    from_round: Option<u64>,
}

impl Sweep {
    /// A sweep with no axes yet: the config's own seed, 0 warmup and 0
    /// measured rounds, threads defaulting to the available
    /// parallelism. With no axes added it runs the scenario once per
    /// seed.
    pub fn new(base: SimConfig) -> Self {
        let seed = base.seed;
        Self {
            base,
            axes: Vec::new(),
            seeds: vec![seed],
            warmup: 0,
            rounds: 0,
            threads: default_threads(),
            reuse_engines: true,
            store: None,
            use_policy: UsePolicy::default(),
            capture_policy: CapturePolicy::default(),
            from_round: None,
        }
    }

    /// Adds a numeric grid axis: for each of `values`, `apply` rewrites
    /// the config before the run.
    pub fn axis(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = f64>,
        apply: impl Fn(&mut SimConfig, f64) + Send + Sync + 'static,
    ) -> Self {
        let apply = Arc::new(apply);
        self.axis_labeled(
            name,
            values.into_iter().map(|v| (AxisValue::Float(v), v)),
            move |cfg, &v| apply(cfg, v),
        )
    }

    /// Adds a labeled grid axis over arbitrary values: each point is a
    /// `(label, value)` pair and `apply` rewrites the config from the
    /// value. This is how non-`f64` dimensions sweep — controller
    /// *kinds*, whole timelines, mix weight vectors:
    ///
    /// ```
    /// use antalloc_core::{AntParams, ExactGreedyParams};
    /// use antalloc_sim::{ControllerSpec, SimConfig, Sweep};
    ///
    /// let base = SimConfig::builder(400, vec![60, 80]).build().unwrap();
    /// let outcomes = Sweep::new(base)
    ///     .axis_labeled(
    ///         "controller",
    ///         [
    ///             ("ant", ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
    ///             ("greedy", ControllerSpec::ExactGreedy(ExactGreedyParams::default())),
    ///         ],
    ///         |cfg, spec| cfg.controller = spec.clone(),
    ///     )
    ///     .rounds(20)
    ///     .threads(2)
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(outcomes.len(), 2);
    /// ```
    pub fn axis_labeled<T: Send + Sync + 'static>(
        mut self,
        name: impl Into<String>,
        points: impl IntoIterator<Item = (impl Into<AxisValue>, T)>,
        apply: impl Fn(&mut SimConfig, &T) + Send + Sync + 'static,
    ) -> Self {
        let apply = Arc::new(apply);
        self.axes.push(Axis {
            name: name.into(),
            points: points
                .into_iter()
                .map(|(label, value)| {
                    let apply = apply.clone();
                    let setter: Arc<dyn Fn(&mut SimConfig) + Send + Sync> =
                        Arc::new(move |cfg: &mut SimConfig| apply(cfg, &value));
                    (label.into(), setter)
                })
                .collect(),
        });
        self
    }

    /// Crosses two labeled point lists into the point list of a single
    /// labeled axis — the `(controller × timeline)` grids the
    /// robustness benches sweep, with one shared `a×b` label per cell
    /// instead of two separate columns.
    ///
    /// Use it when the two dimensions are *applied together* (one
    /// setter sees both values) or when downstream tooling groups by
    /// one combined key; use two [`Sweep::axis_labeled`] calls when the
    /// dimensions should stay separate outcome columns.
    ///
    /// ```
    /// use antalloc_core::{AntParams, ExactGreedyParams};
    /// use antalloc_env::{Event, Timeline};
    /// use antalloc_sim::{ControllerSpec, SimConfig, Sweep};
    ///
    /// let base = SimConfig::builder(400, vec![60, 80]).build().unwrap();
    /// let controllers = [
    ///     ("ant", ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
    ///     ("greedy", ControllerSpec::ExactGreedy(ExactGreedyParams::default())),
    /// ];
    /// let shocks = [
    ///     ("calm", Timeline::new()),
    ///     ("kill", Timeline::new().at(10, Event::Kill { count: 100 })),
    /// ];
    /// let outcomes = Sweep::new(base)
    ///     .axis_labeled(
    ///         "controller×shock",
    ///         Sweep::product(controllers, shocks),
    ///         |cfg, (spec, timeline)| {
    ///             cfg.controller = spec.clone();
    ///             cfg.timeline = timeline.clone();
    ///         },
    ///     )
    ///     .rounds(20)
    ///     .threads(2)
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(outcomes.len(), 4); // the full 2 × 2 grid
    /// ```
    pub fn product<A: Clone, B: Clone>(
        a: impl IntoIterator<Item = (impl Into<AxisValue>, A)>,
        b: impl IntoIterator<Item = (impl Into<AxisValue>, B)>,
    ) -> Vec<(AxisValue, (A, B))> {
        let b: Vec<(AxisValue, B)> = b
            .into_iter()
            .map(|(label, value)| (label.into(), value))
            .collect();
        let mut points = Vec::new();
        for (a_label, a_value) in a {
            let a_label = a_label.into();
            for (b_label, b_value) in &b {
                points.push((
                    AxisValue::Text(format!("{a_label}×{b_label}")),
                    (a_value.clone(), b_value.clone()),
                ));
            }
        }
        points
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Unobserved rounds before measurement.
    pub fn warmup(mut self, rounds: u64) -> Self {
        self.warmup = rounds;
        self
    }

    /// Measured rounds per run.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Participants (at least 1): the calling thread runs jobs itself
    /// and spawns `threads − 1` scoped workers, so `threads(1)` runs
    /// every job on the caller and spawns nothing. Each run steps
    /// serially on its participant, so per-seed results are
    /// bit-identical at any count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Whether each worker reuses its engine across jobs via
    /// [`SyncEngine::reset_from`] (default `true`). Reused engines are
    /// bit-identical to freshly built ones under the determinism
    /// contract; `false` replaces the worker's engine with an empty one
    /// before every job, so each job allocates afresh — the
    /// `perf_sweep` bench's baseline, kept as a knob so any reuse
    /// suspicion can be A/B-tested in place.
    pub fn engine_reuse(mut self, reuse: bool) -> Self {
        self.reuse_engines = reuse;
        self
    }

    /// Attaches a durable result store. Each run's outcome is keyed by
    /// a fingerprint of (canonical scenario TOML, seed, warmup,
    /// rounds); verified hits are delivered without running (with
    /// [`RunOutcome::cached`] set) and computed results are written
    /// back, so an interrupted sweep restarted with the same store
    /// recomputes only the missing runs — bit-identically, since
    /// cached entries hold exactly the bytes the original run
    /// produced. Corrupt or stale entries degrade to recomputed runs;
    /// see [`Sweep::use_policy`].
    pub fn store(mut self, store: Arc<CheckpointStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// When runs may be served from the store (default
    /// [`UsePolicy::IfFresh`]: use entries that verify end to end,
    /// recompute on any miss). [`UsePolicy::Require`] turns misses
    /// into [`ConfigError::Store`] and aborts — the replay-only mode
    /// where recomputation would hide an incomplete archive.
    pub fn use_policy(mut self, policy: UsePolicy) -> Self {
        self.use_policy = policy;
        self
    }

    /// When computed results are written back (default
    /// [`CapturePolicy::IfMissing`]). Write failures abort the sweep
    /// as [`ConfigError::Store`] — a full disk must not silently
    /// produce an archive that cannot resume.
    pub fn capture_policy(mut self, policy: CapturePolicy) -> Self {
        self.capture_policy = policy;
        self
    }

    /// Warm-starts every run from round `r` of the *base* scenario:
    /// one shared prefix run per seed (cached in the store as a
    /// checkpoint entry when one is attached) is forked into every
    /// grid point via [`Checkpoint::fork_into`], so a `g`-point grid
    /// pays for its common prefix once instead of `g` times. Grid
    /// parameters take effect from round `r`; the prefix itself must
    /// be shared, which [`Sweep::run`] prechecks — the controller,
    /// colony size, task count, initial configuration, arena, triggers,
    /// generators, and every timeline entry at or before `r` must be
    /// constant across the grid. Any round of any controller kind can
    /// be forked: checkpoints are exact at every round. With no axes
    /// this is bit-identical to a plain run of `r + warmup + rounds`
    /// rounds measured over the last `rounds`.
    pub fn from_round(mut self, round: u64) -> Self {
        self.from_round = Some(round);
        self
    }

    /// Runs the full grid × seed matrix; results in job order (grid
    /// outermost, seeds innermost).
    pub fn run(&self) -> Result<Vec<RunOutcome>, ConfigError> {
        self.run_with(|_| {})
    }

    /// Like [`Sweep::run`], streaming outcomes in completion order.
    pub fn run_with(
        &self,
        mut on_outcome: impl FnMut(&RunOutcome),
    ) -> Result<Vec<RunOutcome>, ConfigError> {
        let mut outcomes: Vec<Option<RunOutcome>> = Vec::new();
        let count = self.run_pool(|outcome| {
            on_outcome(&outcome);
            let slot = outcome.index;
            if outcomes.len() <= slot {
                outcomes.resize_with(slot + 1, || None);
            }
            outcomes[slot] = Some(outcome);
            true
        })?;
        // Structurally total: collect exactly the outcomes that were
        // delivered, so a future abort path shortens the list instead
        // of panicking on a hole.
        let collected: Vec<RunOutcome> = outcomes.into_iter().flatten().collect();
        debug_assert_eq!(count, collected.len());
        Ok(collected)
    }

    /// Streams outcomes (completion order) until `on_outcome` returns
    /// `false`, which aborts the pool: no further jobs are claimed and
    /// in-flight outcomes are discarded. Returns the number delivered.
    /// Nothing is accumulated, so a callback that always returns `true`
    /// is the constant-memory path for huge sweeps.
    /// This is the cancellation point a supervised sweep hangs its
    /// stop flag on — combined with [`Sweep::store`], a sweep stopped
    /// here resumes from where it left off.
    pub fn run_while(
        &self,
        mut on_outcome: impl FnMut(&RunOutcome) -> bool,
    ) -> Result<usize, ConfigError> {
        self.run_pool(|outcome| on_outcome(&outcome))
    }

    /// Streams every outcome into `sink` without accumulating; sink IO
    /// failures surface as [`ConfigError::Io`] and **abort the sweep**
    /// — a full disk must not burn the remaining million runs.
    pub fn stream_into(&self, sink: &mut dyn RunSink) -> Result<usize, ConfigError> {
        let mut io_error: Option<std::io::Error> = None;
        let count = self.run_pool(|outcome| match sink.on_outcome(&outcome) {
            Ok(()) => true,
            Err(e) => {
                io_error = Some(e);
                false
            }
        })?;
        if io_error.is_none() {
            if let Err(e) = sink.finish() {
                io_error = Some(e);
            }
        }
        match io_error {
            Some(e) => Err(ConfigError::Io(format!("run sink: {e}"))),
            None => Ok(count),
        }
    }

    /// The shared worker pool: runs every job of the `grid × seeds`
    /// matrix, handing each outcome to `on_outcome` in completion
    /// order. Returning `false` from the callback aborts the pool: no
    /// further jobs are claimed, and in-flight outcomes are discarded.
    /// The calling thread is worker 0 and hands its own outcomes
    /// straight to `on_outcome`; only the `workers − 1` spawned
    /// participants send theirs through a channel.
    ///
    /// Jobs are streamed, not materialized: each worker derives job
    /// `i`'s config on demand into its own scratch (see
    /// [`Sweep::run_job`]), so peak memory is O(workers) regardless of
    /// `grid × seeds`.
    fn run_pool(
        &self,
        mut on_outcome: impl FnMut(RunOutcome) -> bool,
    ) -> Result<usize, ConfigError> {
        let lens: Vec<usize> = self.axes.iter().map(|a| a.points.len()).collect();
        let grid_points: usize = lens.iter().product();
        let total = grid_points * self.seeds.len();

        // One-pass-per-grid-point structural precheck through a single
        // scratch config: a setter may have produced an unusable
        // config; catch it here once rather than panicking inside a
        // worker.
        {
            let mut probe = self.base.clone();
            for g in 0..grid_points {
                probe.clone_from(&self.base);
                self.apply_point(g, &lens, &mut probe);
                probe.validate_structure()?;
            }
        }
        if let Some(r) = self.from_round {
            self.fork_precheck(r, &lens, grid_points)?;
        }
        if total == 0 {
            return Ok(0);
        }

        let (tx, rx) = mpsc::channel::<Result<RunOutcome, ConfigError>>();
        let pool = Pool {
            lens,
            total,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            prefixes: Mutex::new(BTreeMap::new()),
            base_text: self.store.as_ref().map(|_| self.base.to_toml_around_seed()),
        };
        let workers = self.threads.min(total).max(1);
        let mut delivered = 0usize;
        let mut first_error: Option<ConfigError> = None;
        // Delivers one result; `false` once the sweep is aborted, after
        // which results are discarded. An abort raises the stop flag:
        // no participant claims another job, and at most `workers`
        // in-flight runs still finish.
        let mut live = true;
        let mut deliver = |result: Result<RunOutcome, ConfigError>| {
            if live {
                live = match result {
                    Ok(outcome) => on_outcome(outcome),
                    Err(e) => {
                        first_error = Some(e);
                        false
                    }
                };
                if live {
                    delivered += 1;
                } else {
                    pool.stop.store(true, Ordering::Release);
                }
            }
            live
        };

        std::thread::scope(|scope| {
            for _ in 1..workers {
                let tx = tx.clone();
                let pool = &pool;
                scope.spawn(move || self.work(pool, |result| tx.send(result).is_ok()));
            }
            drop(tx);
            // The calling thread is worker 0: after each of its jobs it
            // delivers what the spawned workers finished meanwhile, then
            // its own outcome.
            self.work(&pool, |result| {
                while let Ok(other) = rx.try_recv() {
                    if !deliver(other) {
                        return false;
                    }
                }
                deliver(result)
            });
            // No job left to claim: wait for the spawned workers.
            for result in rx {
                deliver(result);
            }
        });
        match first_error {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }

    /// One participant's loop: claims jobs until none is left or the
    /// stop flag is up, runs each on this participant's own state, and
    /// hands the result to `emit`, which returns `false` to stop this
    /// participant. An error raises the stop flag at once, and so does
    /// a panic as it unwinds, so the other participants stop claiming
    /// instead of finishing the sweep first.
    fn work(&self, pool: &Pool, mut emit: impl FnMut(Result<RunOutcome, ConfigError>) -> bool) {
        let _stop_on_panic = StopOnPanic(&pool.stop);
        let mut worker = WorkerState::new(&self.base);
        while !pool.stop.load(Ordering::Acquire) {
            let i = pool.next.fetch_add(1, Ordering::Relaxed);
            if i >= pool.total {
                return;
            }
            let result = self.run_job(i, pool, &mut worker);
            let failed = result.is_err();
            if failed {
                pool.stop.store(true, Ordering::Release);
            }
            if !emit(result) || failed {
                return;
            }
        }
    }

    /// Runs job `i` on a worker's local state: re-derives the scratch
    /// config (and, with a store, its key text) when the grid point
    /// changed, overwrites the seed, checks the store, and reuses the
    /// worker's engine unless [`Sweep::engine_reuse`] turned that off.
    fn run_job(
        &self,
        i: usize,
        pool: &Pool,
        worker: &mut WorkerState,
    ) -> Result<RunOutcome, ConfigError> {
        let g = i / self.seeds.len();
        let s = i % self.seeds.len();
        if worker.grid_point != Some(g) {
            worker.scratch.clone_from(&self.base);
            self.apply_point(g, &pool.lens, &mut worker.scratch);
            worker.params = self.point_params(g, &pool.lens);
            worker.grid_point = Some(g);
            // Jobs of one grid point differ only in the seed, so the
            // canonical text is rendered here once and spliced per job.
            worker.scenario_text = self
                .store
                .as_ref()
                .map(|_| worker.scratch.to_toml_around_seed());
        }
        worker.scratch.seed = self.seeds[s];
        let fp = match (&worker.scenario_text, &pool.base_text) {
            (Some(scenario), Some(base)) => Some(self.outcome_fingerprint(
                worker.scratch.seed,
                scenario,
                base,
                &mut worker.key_buf,
            )),
            _ => None,
        };
        if let Some(hit) = self.cached_outcome(i, fp.as_ref(), &worker.scratch, &worker.params)? {
            return Ok(hit);
        }
        if !self.reuse_engines {
            worker.engine = SyncEngine::empty();
        }
        match self.from_round {
            Some(r) => self.fork_prefix(r, pool, worker)?,
            None => worker.engine.reset_from(&worker.scratch),
        }
        let outcome = worker.measure(i, self.warmup, self.rounds);
        self.store_outcome(fp.as_ref(), &outcome)?;
        Ok(outcome)
    }

    /// The store key of one run: canonical scenario bytes (TOML
    /// re-emission normalizes key order), seed, and the measurement
    /// window. `from_round` folds in the fork round and the prefix
    /// scenario, since those change what the run computes; `threads`
    /// and `engine_reuse` do not (bit-identity contract) and are
    /// deliberately excluded. Both scenario texts are spliced from
    /// their seed-split renders into `buf`: the same bytes as
    /// `to_toml()` of the job's config and of the base config under
    /// the job's seed.
    fn outcome_fingerprint(
        &self,
        seed: u64,
        scenario: &SeedSplitToml,
        base: &SeedSplitToml,
        buf: &mut Vec<u8>,
    ) -> Fingerprint {
        let mut b = FingerprintBuilder::new(OUTCOME_DOMAIN)
            .bytes("scenario", scenario.splice(seed, buf))
            .u64("seed", seed)
            .u64("warmup", self.warmup)
            .u64("rounds", self.rounds);
        if let Some(r) = self.from_round {
            b = b
                .u64("from-round", r)
                .bytes("prefix-scenario", base.splice(seed, buf));
        }
        b.finish()
    }

    /// Serves job `i` from the store if policy and entry allow.
    /// Returns `Ok(None)` on any miss under [`UsePolicy::IfFresh`]
    /// (the caller recomputes); a miss under [`UsePolicy::Require`] is
    /// an error.
    fn cached_outcome(
        &self,
        index: usize,
        fp: Option<&Fingerprint>,
        cfg: &SimConfig,
        params: &Arc<[(String, AxisValue)]>,
    ) -> Result<Option<RunOutcome>, ConfigError> {
        let require = matches!(self.use_policy, UsePolicy::Require);
        let (Some(store), Some(fp)) = (self.store.as_deref(), fp) else {
            if require {
                return Err(ConfigError::Store(
                    "UsePolicy::Require needs an attached store (Sweep::store)".into(),
                ));
            }
            return Ok(None);
        };
        if matches!(self.use_policy, UsePolicy::Never) {
            return Ok(None);
        }
        // The reason is only formatted on the `Require` error path; a
        // cold pass under `IfFresh` misses on every job.
        let miss;
        let reason: &dyn core::fmt::Display = match store.load(fp, EntryKind::Outcome) {
            Ok(bytes) => match decode_outcome(&bytes) {
                Some(row) if row.seed == cfg.seed && row.rounds == self.rounds => {
                    return Ok(Some(row.into_outcome(index, params.clone())));
                }
                Some(_) => &"entry disagrees with the requested seed/rounds",
                None => &"outcome payload failed to decode (layout skew)",
            },
            Err(e) => {
                miss = e;
                &miss
            }
        };
        if require {
            return Err(ConfigError::Store(format!(
                "required entry {} unusable: {reason}",
                fp.short_hex()
            )));
        }
        Ok(None)
    }

    /// Writes a computed outcome back per [`CapturePolicy`].
    fn store_outcome(
        &self,
        fp: Option<&Fingerprint>,
        outcome: &RunOutcome,
    ) -> Result<(), ConfigError> {
        let (Some(store), Some(fp)) = (self.store.as_deref(), fp) else {
            return Ok(());
        };
        match self.capture_policy {
            CapturePolicy::Never => return Ok(()),
            CapturePolicy::Always => {}
            CapturePolicy::IfMissing => {
                // Reaching here after a consulted store means the entry
                // already failed verification; only `UsePolicy::Never`
                // left it unprobed.
                if matches!(self.use_policy, UsePolicy::Never)
                    && store.probe(fp, EntryKind::Outcome).is_ok()
                {
                    return Ok(());
                }
            }
        }
        store
            .save(fp, EntryKind::Outcome, &encode_outcome(outcome))
            .map_err(|e| ConfigError::Store(format!("writing outcome entry: {e}")))
    }

    /// Validates a [`Sweep::from_round`] warm start: round `r` state
    /// under the base scenario must be a faithful prefix of every grid
    /// point's uninterrupted run.
    fn fork_precheck(&self, r: u64, lens: &[usize], grid_points: usize) -> Result<(), ConfigError> {
        let k = self.base.demands.len();
        let mut probe = self.base.clone();
        for g in 0..grid_points {
            probe.clone_from(&self.base);
            self.apply_point(g, lens, &mut probe);
            let fail = |what: &str| {
                Err(ConfigError::Fork(format!(
                    "grid point {g}: {what} — the shared prefix through round {r} must be \
                     identical across the grid (sweep it without from_round instead)"
                )))
            };
            if probe.controller != self.base.controller {
                return fail("the controller axis changes the prefix");
            }
            if probe.n != self.base.n {
                return fail("the colony size changes the prefix");
            }
            if probe.demands.len() != k {
                return fail("the task count changes the prefix");
            }
            if probe.initial != self.base.initial {
                return fail("the initial configuration changes the prefix");
            }
            if probe.arena != self.base.arena {
                return fail("the arena changes the prefix");
            }
            if let Some(why) = self.base.timeline.prefix_divergence(&probe.timeline, r) {
                return fail(&why);
            }
            if !probe.timeline.generators.is_empty() && probe.demands != self.base.demands {
                return fail(
                    "swept demands with generators (generated magnitudes scale off demands)",
                );
            }
        }
        Ok(())
    }

    /// Positions the worker's engine at round `r` of its job by forking
    /// the shared prefix into the job's config — the compute path of
    /// [`Sweep::from_round`].
    fn fork_prefix(
        &self,
        r: u64,
        pool: &Pool,
        worker: &mut WorkerState,
    ) -> Result<(), ConfigError> {
        let seed = worker.scratch.seed;
        let memo = pool
            .prefixes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&seed)
            .cloned();
        let ckpt = match memo {
            Some(c) => c,
            None => {
                // Workers racing on the same fresh seed duplicate the
                // prefix run; both compute identical checkpoints, so
                // last-insert-wins is benign.
                let fp = pool.base_text.as_ref().map(|base| {
                    FingerprintBuilder::new(PREFIX_DOMAIN)
                        .bytes("scenario", base.splice(seed, &mut worker.key_buf))
                        .u64("seed", seed)
                        .u64("round", r)
                        .finish()
                });
                let c = self.prefix_checkpoint(seed, r, fp, &mut worker.engine)?;
                pool.prefixes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(seed, c.clone());
                c
            }
        };
        ckpt.fork_into(&worker.scratch, &mut worker.engine);
        Ok(())
    }

    /// The shared prefix state for `seed`: loaded from the store under
    /// key `fp` (the base scenario's text under `seed`, the seed and
    /// `r`) when a verified checkpoint entry exists, else computed by
    /// running the base scenario `r` rounds on `engine` and captured
    /// back per policy.
    fn prefix_checkpoint(
        &self,
        seed: u64,
        r: u64,
        fp: Option<Fingerprint>,
        engine: &mut SyncEngine,
    ) -> Result<Arc<Checkpoint>, ConfigError> {
        let mut base = self.base.clone();
        base.seed = seed;
        let mut known_missing = false;
        if let (Some(store), Some(fp)) = (self.store.as_deref(), fp.as_ref()) {
            if !matches!(self.use_policy, UsePolicy::Never) {
                known_missing = true;
                if let Ok(bytes) = store.load(fp, EntryKind::Checkpoint) {
                    // The checkpoint stream is self-validating; any
                    // residual shape skew degrades to recomputation.
                    if let Ok(ckpt) = Checkpoint::from_bytes(&bytes) {
                        if ckpt.round() == r && ckpt.config() == &base {
                            return Ok(Arc::new(ckpt));
                        }
                    }
                }
            }
        }
        engine.reset_from(&base);
        engine.run(r, &mut NullObserver);
        let ckpt = Checkpoint::capture(engine).map_err(|e| {
            ConfigError::Fork(format!("capturing the shared prefix at round {r}: {e}"))
        })?;
        if let (Some(store), Some(fp)) = (self.store.as_deref(), fp.as_ref()) {
            let write = match self.capture_policy {
                CapturePolicy::Never => false,
                CapturePolicy::Always => true,
                CapturePolicy::IfMissing => {
                    known_missing || store.probe(fp, EntryKind::Checkpoint).is_err()
                }
            };
            if write {
                store
                    .save(fp, EntryKind::Checkpoint, &ckpt.to_bytes())
                    .map_err(|e| {
                        ConfigError::Store(format!("writing prefix checkpoint entry: {e}"))
                    })?;
            }
        }
        Ok(Arc::new(ckpt))
    }

    /// Applies grid point `g`'s setters to `cfg` (first axis
    /// outermost, matching the job order `run` documents).
    fn apply_point(&self, g: usize, lens: &[usize], cfg: &mut SimConfig) {
        for (a, axis) in self.axes.iter().enumerate() {
            let (_, setter) = &axis.points[point_index(lens, a, g)];
            setter(cfg);
        }
    }

    /// The shared `(axis name, value)` labels of grid point `g`.
    fn point_params(&self, g: usize, lens: &[usize]) -> Arc<[(String, AxisValue)]> {
        let params: Vec<(String, AxisValue)> = self
            .axes
            .iter()
            .enumerate()
            .map(|(a, axis)| {
                let (label, _) = &axis.points[point_index(lens, a, g)];
                (axis.name.clone(), label.clone())
            })
            .collect();
        Arc::from(params)
    }
}

/// The point index of axis `a` at grid point `g`: the first axis is
/// the outermost loop of the flattened grid.
fn point_index(lens: &[usize], a: usize, g: usize) -> usize {
    let stride: usize = lens[a + 1..].iter().product();
    (g / stride) % lens[a]
}

/// What every worker of one pool shares.
struct Pool {
    /// Points per axis.
    lens: Vec<usize>,
    /// Jobs in the sweep (`grid × seeds`).
    total: usize,
    /// The next unclaimed job index.
    next: AtomicUsize,
    /// Raised on abort, error or panic: no further jobs are claimed.
    stop: AtomicBool,
    /// Shared-prefix checkpoints by seed: the in-process half of the
    /// `from_round` amortization (the durable store, when attached, is
    /// the cross-process half).
    prefixes: Mutex<BTreeMap<u64, Arc<Checkpoint>>>,
    /// With a store: the base config's canonical text split around its
    /// seed, rendered once per sweep for the prefix key parts.
    base_text: Option<SeedSplitToml>,
}

/// Raises the pool's stop flag if its participant unwinds.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// One worker's job-streaming state: a scratch config re-derived per
/// grid point, the grid point's shared params, the engine reused
/// across jobs (empty until the first job resets it), and, with a
/// store, the scratch config's seed-split key text plus the buffer
/// each job's key text is spliced into.
struct WorkerState {
    scratch: SimConfig,
    grid_point: Option<usize>,
    params: Arc<[(String, AxisValue)]>,
    engine: SyncEngine,
    scenario_text: Option<SeedSplitToml>,
    key_buf: Vec<u8>,
}

impl WorkerState {
    fn new(base: &SimConfig) -> Self {
        Self {
            scratch: base.clone(),
            grid_point: None,
            params: Arc::from(Vec::new()),
            engine: SyncEngine::empty(),
            scenario_text: None,
            key_buf: Vec::new(),
        }
    }

    /// Steps the positioned engine through the warmup and the measured
    /// window, serially, and reports them as job `index`'s outcome.
    fn measure(&mut self, index: usize, warmup: u64, rounds: u64) -> RunOutcome {
        let mut summary = RunSummary::new();
        self.engine.run(warmup, &mut NullObserver);
        self.engine.run(rounds, &mut summary);
        let colony = self.engine.colony();
        RunOutcome {
            index,
            seed: self.scratch.seed,
            params: self.params.clone(),
            rounds,
            summary,
            final_regret: colony.instant_regret(),
            final_loads: (0..colony.num_tasks()).map(|j| colony.load(j)).collect(),
            cached: false,
        }
    }
}

/// One decoded outcome entry, before the live sweep re-attaches its
/// positional `index` and shared `params`.
struct OutcomeRow {
    seed: u64,
    rounds: u64,
    summary: RunSummary,
    final_regret: u64,
    final_loads: Vec<u64>,
}

impl OutcomeRow {
    fn into_outcome(self, index: usize, params: Arc<[(String, AxisValue)]>) -> RunOutcome {
        RunOutcome {
            index,
            seed: self.seed,
            params,
            rounds: self.rounds,
            summary: self.summary,
            final_regret: self.final_regret,
            final_loads: self.final_loads,
            cached: true,
        }
    }
}

/// Outcome payload: every measured field, little-endian, in a fixed
/// order — `seed`, `rounds`, the summary's three counters, the final
/// regret, then the length-prefixed final loads. The store's manifest
/// already guards integrity (length + SHA-256), so decode failures
/// here mean layout skew and degrade to recomputation.
fn encode_outcome(o: &RunOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 8 * o.final_loads.len());
    out.extend_from_slice(&o.seed.to_le_bytes());
    out.extend_from_slice(&o.rounds.to_le_bytes());
    out.extend_from_slice(&o.summary.rounds().to_le_bytes());
    out.extend_from_slice(&o.summary.total_regret().to_le_bytes());
    out.extend_from_slice(&o.summary.max_instant_regret().to_le_bytes());
    out.extend_from_slice(&o.final_regret.to_le_bytes());
    out.extend_from_slice(&(o.final_loads.len() as u64).to_le_bytes());
    for &load in &o.final_loads {
        out.extend_from_slice(&load.to_le_bytes());
    }
    out
}

fn decode_outcome(bytes: &[u8]) -> Option<OutcomeRow> {
    let mut cur = bytes;
    let mut u64_field = || -> Option<u64> {
        let (head, tail) = cur.split_first_chunk::<8>()?;
        cur = tail;
        Some(u64::from_le_bytes(*head))
    };
    let seed = u64_field()?;
    let rounds = u64_field()?;
    let summary_rounds = u64_field()?;
    let (total, tail) = cur.split_first_chunk::<16>()?;
    let total_regret = u128::from_le_bytes(*total);
    cur = tail;
    let mut u64_field = || -> Option<u64> {
        let (head, tail) = cur.split_first_chunk::<8>()?;
        cur = tail;
        Some(u64::from_le_bytes(*head))
    };
    let max_instant_regret = u64_field()?;
    let final_regret = u64_field()?;
    let count = u64_field()?;
    // Hostile-length guard: the remaining bytes bound the load count.
    if count != (cur.len() / 8) as u64 {
        return None;
    }
    let final_loads: Vec<u64> = cur
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
        .collect();
    if !cur.chunks_exact(8).remainder().is_empty() {
        return None;
    }
    Some(OutcomeRow {
        seed,
        rounds,
        summary: RunSummary::from_parts(summary_rounds, total_regret, max_instant_regret),
        final_regret,
        final_loads,
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerSpec;
    use antalloc_core::AntParams;
    use antalloc_noise::NoiseModel;

    fn base() -> SimConfig {
        SimConfig::builder(300, vec![40, 60])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn batch_matches_individual_serial_runs() {
        // A sweep with no axes is a plain multi-seed batch.
        let outcomes = Sweep::new(base())
            .rounds(120)
            .seeds(0..8)
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(outcomes.len(), 8);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.seed, i as u64);
            let mut config = base();
            config.seed = outcome.seed;
            let mut engine = config.build();
            let mut summary = RunSummary::new();
            engine.run(120, &mut summary);
            assert_eq!(outcome.summary.total_regret(), summary.total_regret());
            assert_eq!(outcome.final_regret, engine.colony().instant_regret());
            let loads: Vec<u64> = (0..2).map(|j| engine.colony().load(j)).collect();
            assert_eq!(outcome.final_loads, loads);
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let batch = |threads| {
            Sweep::new(base())
                .rounds(80)
                .seeds(0..6)
                .threads(threads)
                .run()
                .unwrap()
        };
        let (one, many) = (batch(1), batch(8));
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.summary.total_regret(), b.summary.total_regret());
            assert_eq!(a.final_loads, b.final_loads);
        }
    }

    #[test]
    fn sweep_covers_the_full_grid_in_order() {
        let outcomes = Sweep::new(base())
            .axis("gamma", [0.03125, 0.0625], |cfg, g| {
                cfg.controller = ControllerSpec::Ant(AntParams::new(g));
            })
            .axis("lambda", [1.0, 2.0, 4.0], |cfg, lambda| {
                cfg.noise = NoiseModel::Sigmoid { lambda };
            })
            .seeds([7, 8])
            .rounds(40)
            .threads(3)
            .run()
            .unwrap();
        assert_eq!(outcomes.len(), 2 * 3 * 2);
        // Job order: gamma outermost, then lambda, then seeds.
        assert_eq!(
            &outcomes[0].params[..],
            &[
                ("gamma".into(), AxisValue::Float(0.03125)),
                ("lambda".into(), AxisValue::Float(1.0))
            ]
        );
        assert_eq!(outcomes[0].seed, 7);
        assert_eq!(outcomes[1].seed, 8);
        assert_eq!(
            &outcomes[5].params[..],
            &[
                ("gamma".into(), AxisValue::Float(0.03125)),
                ("lambda".into(), AxisValue::Float(4.0))
            ]
        );
        assert_eq!(
            &outcomes[11].params[..],
            &[
                ("gamma".into(), AxisValue::Float(0.0625)),
                ("lambda".into(), AxisValue::Float(4.0))
            ]
        );
        for o in &outcomes {
            assert_eq!(o.rounds, 40);
            assert!(o.summary.rounds() == 40);
        }
    }

    #[test]
    fn labeled_axes_sweep_controller_kinds_and_timelines() {
        use antalloc_env::{Event, Timeline};

        // Controller *kinds* and whole timelines as grid dimensions —
        // the non-f64 axes the old setter signature could not express.
        let outcomes = Sweep::new(base())
            .axis_labeled(
                "controller",
                [
                    ("ant", ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
                    ("greedy", ControllerSpec::ExactGreedy(Default::default())),
                ],
                |cfg, spec| cfg.controller = spec.clone(),
            )
            .axis_labeled(
                "shock",
                [
                    ("none", Timeline::new()),
                    (
                        "kill-a-third",
                        Timeline::new().at(10, Event::Kill { count: 100 }),
                    ),
                ],
                |cfg, timeline| cfg.timeline = timeline.clone(),
            )
            .seeds([1])
            .rounds(30)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(
            &outcomes[0].params[..],
            &[
                ("controller".into(), AxisValue::Text("ant".into())),
                ("shock".into(), AxisValue::Text("none".into()))
            ]
        );
        assert_eq!(
            &outcomes[3].params[..],
            &[
                ("controller".into(), AxisValue::Text("greedy".into())),
                ("shock".into(), AxisValue::Text("kill-a-third".into()))
            ]
        );
        // The timeline axis really applied: the kill shrank the colony.
        let total = |o: &RunOutcome| o.final_loads.iter().sum::<u64>();
        assert!(total(&outcomes[1]) <= total(&outcomes[0]));
    }

    #[test]
    fn product_crosses_labels_and_values() {
        let points = Sweep::product(
            [("a", 1u32), ("b", 2)],
            [("x", 10u32), ("y", 20), ("z", 30)],
        );
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].0, AxisValue::Text("a×x".into()));
        assert_eq!(points[0].1, (1, 10));
        assert_eq!(points[5].0, AxisValue::Text("b×z".into()));
        assert_eq!(points[5].1, (2, 30));
        // Order: the first list is the outer loop.
        assert_eq!(points[3].0, AxisValue::Text("b×x".into()));
    }

    #[test]
    fn product_axis_runs_the_full_grid() {
        let outcomes = Sweep::new(base())
            .axis_labeled(
                "controller×gamma",
                Sweep::product([("ant", ())], [("slow", 1.0 / 32.0), ("fast", 1.0 / 16.0)]),
                |cfg, (_, gamma)| {
                    cfg.controller = ControllerSpec::Ant(AntParams::new(*gamma));
                },
            )
            .seeds([1, 2])
            .rounds(20)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(
            &outcomes[0].params[..],
            &[(
                "controller×gamma".into(),
                AxisValue::Text("ant×slow".into())
            )]
        );
    }

    #[test]
    fn sweep_rejects_configs_broken_by_setters() {
        let err = Sweep::new(base())
            .axis("demand", [0.0], |cfg, d| {
                cfg.demands = vec![d as u64];
            })
            .rounds(10)
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ZeroDemand { .. }), "{err:?}");
    }

    #[test]
    fn run_with_streams_every_outcome() {
        let mut streamed = 0usize;
        let outcomes = Sweep::new(base())
            .rounds(30)
            .seeds(0..5)
            .threads(2)
            .run_with(|_o| streamed += 1)
            .unwrap();
        assert_eq!(streamed, 5);
        assert_eq!(outcomes.len(), 5);
    }

    #[test]
    fn run_while_streams_without_accumulating() {
        let mut seen = Vec::new();
        let count = Sweep::new(base())
            .rounds(25)
            .seeds(0..6)
            .threads(3)
            .run_while(|o| {
                seen.push(o.seed);
                true
            })
            .unwrap();
        assert_eq!(count, 6);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_at_one_thread_runs_every_job_on_the_caller() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = seen.clone();
        let outcomes = Sweep::new(base())
            .axis("lambda", [1.0, 2.0, 4.0], move |cfg, lambda| {
                record.lock().unwrap().push(std::thread::current().id());
                cfg.noise = NoiseModel::Sigmoid { lambda };
            })
            .seeds(0..2)
            .rounds(10)
            .threads(1)
            .run()
            .unwrap();
        assert_eq!(outcomes.len(), 6);
        let seen = seen.lock().unwrap();
        // The precheck derives each grid point once, then the jobs do.
        assert!(seen.len() >= 6, "{} setter calls", seen.len());
        let caller = std::thread::current().id();
        assert!(seen.iter().all(|&id| id == caller), "a job left the caller");
    }

    #[test]
    fn pool_delivers_every_index_once_and_matches_one_thread() {
        let sweep = |threads| {
            Sweep::new(base())
                .axis("lambda", [1.0, 4.0], |cfg, lambda| {
                    cfg.noise = NoiseModel::Sigmoid { lambda };
                })
                .seeds(0..7)
                .rounds(20)
                .threads(threads)
        };
        let mut arrived = Vec::new();
        let three = sweep(3).run_with(|o| arrived.push(o.index)).unwrap();
        arrived.sort_unstable();
        assert_eq!(arrived, (0..14).collect::<Vec<_>>());
        let one = sweep(1).run().unwrap();
        assert_eq!(three.len(), one.len());
        for (a, b) in three.iter().zip(&one) {
            same_outcome(a, b);
            assert_eq!(a.params, b.params);
        }
    }

    #[test]
    fn pool_panic_stops_the_sweep_promptly() {
        use std::sync::atomic::AtomicUsize;
        const POINTS: usize = 64;
        const BREAKS_AT: usize = POINTS + 2;
        /// Marks that the panicking setter has begun unwinding.
        struct Unwinding(Arc<AtomicBool>);
        impl Drop for Unwinding {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        for threads in [1, 2] {
            let calls = Arc::new(AtomicUsize::new(0));
            let unwinding = Arc::new(AtomicBool::new(false));
            let (counter, flag) = (calls.clone(), unwinding.clone());
            // Passes the precheck (one call per grid point), then
            // panics while deriving the sweep's third grid point.
            let sweep = Sweep::new(base())
                .axis(
                    "lambda",
                    (0..POINTS).map(|p| 1.0 + p as f64),
                    move |cfg, lambda| {
                        let call = counter.fetch_add(1, Ordering::Relaxed);
                        if call == BREAKS_AT {
                            let _unwinding = Unwinding(flag.clone());
                            panic!("setter broke mid-sweep");
                        }
                        if call > BREAKS_AT {
                            // The panic hook runs before unwinding starts;
                            // let the unwind reach the pool before going on,
                            // so the count below does not depend on how long
                            // the hook takes to print.
                            while !flag.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(50));
                        }
                        cfg.noise = NoiseModel::Sigmoid { lambda };
                    },
                )
                .seeds([1])
                .rounds(10)
                .threads(threads);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.run()));
            assert!(result.is_err(), "threads {threads}: the panic surfaces");
            // Every other participant stopped claiming: at most one more
            // derivation each, not the remaining ~60 grid points.
            let calls = calls.load(Ordering::Relaxed);
            assert!(
                calls < BREAKS_AT + 1 + threads,
                "threads {threads}: {calls} setter calls"
            );
        }
    }

    #[test]
    fn stream_into_writes_one_row_per_run() {
        use crate::scenario::sink::CsvSink;
        let mut sink = CsvSink::new(Vec::new());
        let count = Sweep::new(base())
            .rounds(20)
            .seeds(0..4)
            .threads(2)
            .stream_into(&mut sink)
            .unwrap();
        assert_eq!(count, 4);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 5, "header + 4 rows:\n{text}");
        assert!(text.starts_with("index,seed,"));
    }

    #[test]
    fn failing_sink_aborts_the_sweep_with_io_error() {
        struct FailingSink {
            rows: usize,
        }
        impl crate::scenario::sink::RunSink for FailingSink {
            fn on_outcome(&mut self, _o: &RunOutcome) -> std::io::Result<()> {
                self.rows += 1;
                if self.rows >= 2 {
                    Err(std::io::Error::other("disk full"))
                } else {
                    Ok(())
                }
            }
        }
        let mut sink = FailingSink { rows: 0 };
        let err = Sweep::new(base())
            .rounds(10)
            .seeds(0..64)
            .threads(2)
            .stream_into(&mut sink)
            .unwrap_err();
        assert!(matches!(err, ConfigError::Io(_)), "{err:?}");
        // The pool aborted: nowhere near all 64 outcomes were offered.
        assert!(sink.rows < 64, "sink saw {} rows", sink.rows);
    }

    fn same_outcome(a: &RunOutcome, b: &RunOutcome) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.summary.rounds(), b.summary.rounds());
        assert_eq!(a.summary.total_regret(), b.summary.total_regret());
        assert_eq!(
            a.summary.max_instant_regret(),
            b.summary.max_instant_regret()
        );
        assert_eq!(a.final_regret, b.final_regret);
        assert_eq!(a.final_loads, b.final_loads);
    }

    #[test]
    fn outcome_codec_roundtrips() {
        let o = RunOutcome {
            index: 3,
            seed: 0xDEAD,
            params: Arc::from(Vec::new()),
            rounds: 40,
            summary: RunSummary::from_parts(40, 123_456_789_000, 777),
            final_regret: 42,
            final_loads: vec![10, 0, 99],
            cached: false,
        };
        let bytes = encode_outcome(&o);
        let row = decode_outcome(&bytes).unwrap();
        let back = row.into_outcome(3, o.params.clone());
        same_outcome(&o, &back);
        assert!(back.cached);
        // Truncations and trailing garbage decode to None, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_outcome(&long).is_none());
    }

    #[test]
    fn store_serves_second_sweep_from_cache_bit_identically() {
        let store = Arc::new(antalloc_store::CheckpointStore::in_memory());
        let sweep = || {
            Sweep::new(base())
                .axis("lambda", [1.0, 3.0], |cfg, lambda| {
                    cfg.noise = NoiseModel::Sigmoid { lambda };
                })
                .seeds(0..3)
                .rounds(40)
                .threads(2)
        };
        let cold = sweep().store(store.clone()).run().unwrap();
        assert!(cold.iter().all(|o| !o.cached), "first pass computes");
        let warm = sweep().store(store.clone()).run().unwrap();
        assert!(warm.iter().all(|o| o.cached), "second pass is all hits");
        let plain = sweep().run().unwrap();
        for ((c, w), p) in cold.iter().zip(&warm).zip(&plain) {
            same_outcome(c, w);
            same_outcome(c, p);
        }
        // Hits replay under Require; an absent entry aborts instead of
        // silently recomputing.
        let replayed = sweep()
            .store(store.clone())
            .use_policy(UsePolicy::Require)
            .run()
            .unwrap();
        assert!(replayed.iter().all(|o| o.cached));
        let err = sweep()
            .seeds(100..101)
            .store(store)
            .use_policy(UsePolicy::Require)
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Store(_)), "{err:?}");
    }

    #[test]
    fn aborted_sweep_resumes_from_store_and_recomputes_only_the_rest() {
        for threads in [1, 2] {
            let store = Arc::new(antalloc_store::CheckpointStore::in_memory());
            let batch = || Sweep::new(base()).rounds(30).seeds(0..10).threads(threads);
            // Kill the sweep after 4 delivered outcomes.
            let mut seen = 0;
            let delivered = batch()
                .store(store.clone())
                .run_while(|_| {
                    seen += 1;
                    seen < 4
                })
                .unwrap();
            assert_eq!(delivered, 3, "callback aborted on the 4th outcome");
            let captured = store.entries().unwrap().len();
            if threads == 1 {
                // The caller runs every job and stops claiming at once:
                // exactly the four offered runs were computed.
                assert_eq!(captured, 4, "one participant");
            } else {
                assert!(captured >= 4, "aborted runs still captured ({captured})");
            }
            // The restart serves every captured run from the store and
            // computes only the remainder.
            let resumed = batch().store(store.clone()).run().unwrap();
            assert_eq!(resumed.len(), 10);
            assert_eq!(resumed.iter().filter(|o| o.cached).count(), captured);
            let fresh = batch().run().unwrap();
            for (r, f) in resumed.iter().zip(&fresh) {
                same_outcome(r, f);
            }
        }
    }

    #[test]
    fn corrupt_store_entries_degrade_to_recomputed_runs() {
        use antalloc_store::CheckpointStore;
        let store = Arc::new(CheckpointStore::in_memory());
        let batch = || Sweep::new(base()).rounds(25).seeds(0..4).threads(2);
        let cold = batch().store(store.clone()).run().unwrap();
        // Bit-flip every payload in place.
        for prefix in store.entries().unwrap() {
            let path = format!("entries/{prefix}/payload");
            let mut bytes = store.backend().read(&path).unwrap().unwrap();
            bytes[0] ^= 0xFF;
            store.backend().publish(&path, &bytes).unwrap();
        }
        let recomputed = batch().store(store.clone()).run().unwrap();
        assert!(
            recomputed.iter().all(|o| !o.cached),
            "nothing served corrupt"
        );
        for (a, b) in cold.iter().zip(&recomputed) {
            same_outcome(a, b);
        }
        // The recomputation healed the store (CapturePolicy::IfMissing).
        assert!(batch().store(store).run().unwrap().iter().all(|o| o.cached));
    }

    #[test]
    fn from_round_with_no_axes_matches_a_plain_run() {
        let outcomes = Sweep::new(base())
            .seeds(0..3)
            .from_round(100)
            .warmup(10)
            .rounds(50)
            .threads(2)
            .run()
            .unwrap();
        let plain = Sweep::new(base())
            .seeds(0..3)
            .warmup(110)
            .rounds(50)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        for (a, b) in outcomes.iter().zip(&plain) {
            same_outcome(a, b);
        }
    }

    #[test]
    fn from_round_fork_equals_a_set_noise_event_at_the_fork() {
        // Warm-started grid points take their swept noise from round
        // r+1 on — exactly a SetNoise timeline event there.
        use antalloc_env::{Event, Timeline};
        let r = 80;
        let forked = Sweep::new(base())
            .axis("lambda", [1.0, 4.0], |cfg, lambda| {
                cfg.noise = NoiseModel::Sigmoid { lambda };
            })
            .seeds([5, 6])
            .from_round(r)
            .rounds(60)
            .threads(2)
            .run()
            .unwrap();
        for (point, lambda) in [(0, 1.0), (1, 4.0)] {
            for (offset, seed) in [(0, 5u64), (1, 6u64)] {
                let mut cfg = base();
                cfg.timeline =
                    Timeline::new().at(r + 1, Event::SetNoise(NoiseModel::Sigmoid { lambda }));
                let scripted = Sweep::new(cfg)
                    .rounds(60)
                    .seeds([seed])
                    .warmup(r)
                    .threads(1)
                    .run()
                    .unwrap();
                let forked_one = &forked[point * 2 + offset];
                assert_eq!(forked_one.seed, seed);
                assert_eq!(
                    forked_one.summary.total_regret(),
                    scripted[0].summary.total_regret(),
                    "lambda {lambda} seed {seed}"
                );
                assert_eq!(forked_one.final_loads, scripted[0].final_loads);
            }
        }
    }

    #[test]
    fn from_round_prefix_is_shared_through_the_store() {
        let store = Arc::new(antalloc_store::CheckpointStore::in_memory());
        let sweep = || {
            Sweep::new(base())
                .axis("lambda", [1.0, 2.0, 4.0], |cfg, lambda| {
                    cfg.noise = NoiseModel::Sigmoid { lambda };
                })
                .seeds([3])
                .from_round(60)
                .rounds(30)
                .threads(2)
        };
        let cold = sweep().store(store.clone()).run().unwrap();
        // 3 outcome entries + 1 shared prefix checkpoint for the seed.
        assert_eq!(store.entries().unwrap().len(), 4);
        // Drop the outcomes but keep the checkpoint: the restart must
        // fork the *stored* prefix into freshly recomputed runs.
        for prefix in store.entries().unwrap() {
            let path = format!("entries/{prefix}/manifest");
            let manifest = store.backend().read(&path).unwrap().unwrap();
            if manifest[8] == 1 {
                store.backend().remove(&path).unwrap();
            }
        }
        let warm = sweep().store(store.clone()).run().unwrap();
        assert!(warm.iter().all(|o| !o.cached), "outcomes recomputed");
        for (a, b) in cold.iter().zip(&warm) {
            same_outcome(a, b);
        }
        let no_store = sweep().run().unwrap();
        for (a, b) in cold.iter().zip(&no_store) {
            same_outcome(a, b);
        }
    }

    #[test]
    fn fork_precheck_rejects_prefix_divergence() {
        use antalloc_env::{ArenaConfig, Event, Timeline};
        // A controller axis changes the prefix.
        let err = Sweep::new(base())
            .axis("gamma", [0.03125, 0.0625], |cfg, g| {
                cfg.controller = ControllerSpec::Ant(AntParams::new(g));
            })
            .from_round(50)
            .rounds(10)
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Fork(_)), "{err:?}");
        // A timeline event inside the prefix differs across the grid.
        let err = Sweep::new(base())
            .axis("kill", [10.0, 20.0], |cfg, count| {
                cfg.timeline = Timeline::new().at(
                    30,
                    Event::Kill {
                        count: count as usize,
                    },
                );
            })
            .from_round(50)
            .rounds(10)
            .run()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Fork(_)), "{err:?}");
        // The same event *after* the fork is fine.
        let ok = Sweep::new(base())
            .axis("kill", [10.0, 20.0], |cfg, count| {
                cfg.timeline = Timeline::new().at(
                    70,
                    Event::Kill {
                        count: count as usize,
                    },
                );
            })
            .from_round(50)
            .rounds(30)
            .run();
        assert!(ok.is_ok(), "{ok:?}");
        // Sites sense different rows from round 1, so any arena change
        // reshapes the prefix: a 4-site base swept to 2 sites, and a
        // well-mixed base swept into an arena.
        let arena = |site_of_task: Vec<u32>| ArenaConfig {
            site_of_task,
            travel_rounds: 2,
            wander_probability: 0.05,
        };
        let mut four_sites = SimConfig::builder(400, vec![40, 50, 60, 30])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
            .build()
            .unwrap();
        let well_mixed = four_sites.clone();
        four_sites.arena = Some(arena(vec![0, 1, 2, 3]));
        for base in [four_sites, well_mixed] {
            let err = Sweep::new(base)
                .axis("sites", [4.0, 2.0], move |cfg, sites| {
                    let site_of_task = (0..4).map(|j| j * sites as u32 / 4).collect();
                    cfg.arena = Some(arena(site_of_task));
                })
                .from_round(10)
                .rounds(10)
                .run()
                .unwrap_err();
            assert!(matches!(err, ConfigError::Fork(_)), "{err:?}");
        }
        // Every kind restores exactly, so AntDesync and Hysteresis
        // colonies, alone or in a mix, fork off any round into the
        // uninterrupted run.
        let desync = SimConfig::builder(400, vec![60, 80, 100])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0)))
            .build()
            .unwrap();
        let hysteresis = SimConfig::builder(300, vec![100])
            .noise(NoiseModel::Sigmoid { lambda: 2.0 })
            .controller(ControllerSpec::Hysteresis {
                depth: 3,
                lazy: Some(0.5),
            })
            .build()
            .unwrap();
        let mut mixed = base();
        mixed.controller = ControllerSpec::Mix(vec![
            (1.0, ControllerSpec::Ant(AntParams::new(1.0 / 16.0))),
            (1.0, ControllerSpec::AntDesync(AntParams::new(1.0 / 16.0))),
        ]);
        for (cfg, r) in [(desync, 47), (hysteresis, 47), (mixed, 49)] {
            let plain = Sweep::new(cfg.clone()).seeds(0..3).warmup(r).rounds(40);
            let forked = Sweep::new(cfg).seeds(0..3).from_round(r).rounds(40);
            for (a, b) in forked.run().unwrap().iter().zip(&plain.run().unwrap()) {
                same_outcome(a, b);
            }
        }
    }

    #[test]
    fn from_round_forks_off_a_phase_boundary_exactly() {
        use antalloc_core::PreciseSigmoidParams;
        // Ant's phase is 2 rounds and Precise Sigmoid's 82: a fork in
        // the middle of either matches the plain run.
        let mut sig = base();
        sig.controller = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5));
        for (cfg, r) in [(base(), 3), (sig, 7)] {
            assert_eq!(cfg.controller.phase_len(2) % 2, 0);
            let forked = Sweep::new(cfg.clone())
                .from_round(r)
                .rounds(30)
                .run()
                .unwrap();
            let plain = Sweep::new(cfg).warmup(r).rounds(30).run().unwrap();
            same_outcome(&forked[0], &plain[0]);
        }
    }
}
