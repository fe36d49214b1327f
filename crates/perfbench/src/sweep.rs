//! The `sweep_store` workload: a grid × seeds ensemble of short runs
//! through `Sweep` with a `CheckpointStore` and a shared `from_round`
//! prefix, captured cold and then replayed from the reopened archive.
//! The same pass machinery measures the sweep and store layers of every
//! workload in traced mode.
//!
//! The timed passes keep their archive in memory. On a local directory
//! the same passes ran between 380 and 2 400 runs/s from one process to
//! the next on an ext4 disk mounted with `discard` (file creation
//! stalls behind earlier deletions), which no run length averages
//! out. Every store operation but the file system calls still runs:
//! fingerprints, SHA-256 manifests, verification, the outcome and
//! checkpoint codecs. Traced mode times the same saves and loads
//! against a `LocalDirBackend` as `store.disk_save_us` and
//! `store.disk_load_us`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use antalloc_noise::NoiseModel;
use antalloc_sim::{Checkpoint, NullObserver, RunOutcome, SimConfig, Sweep};
use antalloc_store::{
    CheckpointStore, EntryKind, Fingerprint, FingerprintBuilder, MemBackend, StoreBackend,
};

use crate::calib::Calibrator;
use crate::colony::Digest;
use crate::scenarios::{SWEEP_FROM_ROUND, SWEEP_LAMBDAS, SWEEP_ROUNDS, SWEEP_SEEDS};
use crate::stats::{median, quantile};
use crate::trace::{close, open, timed, Tracer};
use crate::Report;

/// The store-key domain `Sweep` uses for outcome entries.
const OUTCOME_DOMAIN: &str = "antalloc.outcome.v1";

/// Jobs the traced component probe replays by hand.
const PROBED_JOBS: usize = 32;

/// One sweep: a `λ` grid over a base scenario, a seed list, and an
/// optional shared prefix.
pub struct Shape {
    pub base: SimConfig,
    pub lambdas: Vec<f64>,
    pub seeds: Vec<u64>,
    pub rounds: u64,
    pub from_round: Option<u64>,
}

impl Shape {
    /// The `sweep_store` ensemble for `seed`.
    pub fn sweep_store(base: SimConfig, seed: u64) -> Self {
        let first = seed.wrapping_mul(SWEEP_SEEDS);
        Self {
            base,
            lambdas: SWEEP_LAMBDAS.to_vec(),
            seeds: (0..SWEEP_SEEDS).map(|i| first.wrapping_add(i)).collect(),
            rounds: SWEEP_ROUNDS,
            from_round: Some(SWEEP_FROM_ROUND),
        }
    }

    /// A two-run sweep of a colony scenario as it stands: how the sweep
    /// and store layers handle that colony's size.
    pub fn probe_of(base: &SimConfig) -> Self {
        let lambda = match base.noise {
            NoiseModel::Sigmoid { lambda } => lambda,
            _ => 1.0,
        };
        Self {
            base: base.clone(),
            lambdas: vec![lambda],
            seeds: vec![base.seed, base.seed.wrapping_add(1)],
            rounds: 2,
            from_round: None,
        }
    }

    pub fn sweep(&self, workers: usize) -> Sweep {
        let sweep = Sweep::new(self.base.clone())
            .axis("lambda", self.lambdas.clone(), |cfg, lambda| {
                cfg.noise = NoiseModel::Sigmoid { lambda };
            })
            .seeds(self.seeds.clone())
            .rounds(self.rounds)
            .threads(workers);
        match self.from_round {
            Some(r) => sweep.from_round(r),
            None => sweep,
        }
    }

    pub fn jobs(&self) -> usize {
        self.lambdas.len() * self.seeds.len()
    }

    /// The config of job `i` (grid outermost, seeds innermost, as
    /// `Sweep` orders jobs).
    fn job_config(&self, i: usize) -> SimConfig {
        let mut cfg = self.base.clone();
        cfg.noise = NoiseModel::Sigmoid {
            lambda: self.lambdas[i / self.seeds.len()],
        };
        cfg.seed = self.seeds[i % self.seeds.len()];
        cfg
    }

    /// Ant-rounds one run's outcome stands for: its prefix plus the
    /// rounds it stepped itself.
    pub fn ant_rounds_per_run(&self) -> f64 {
        (self.base.n as u64 * (self.from_round.unwrap_or(0) + self.rounds)) as f64
    }

    /// The store key `Sweep` derives for a run, rebuilt from public
    /// parts; the traced probe loads real archive entries with it.
    fn fingerprint(&self, cfg: &SimConfig) -> Fingerprint {
        let b = FingerprintBuilder::new(OUTCOME_DOMAIN)
            .bytes("scenario", cfg.to_toml().as_bytes())
            .u64("seed", cfg.seed)
            .u64("warmup", 0)
            .u64("rounds", self.rounds);
        match self.from_round {
            Some(r) => {
                let mut base = self.base.clone();
                base.seed = cfg.seed;
                b.u64("from-round", r)
                    .bytes("prefix-scenario", base.to_toml().as_bytes())
                    .finish()
            }
            None => b.finish(),
        }
    }
}

/// An in-memory archive that outlives each `CheckpointStore` opened
/// over it, so a replay pass reopens the store as a restarted process
/// would.
#[derive(Clone, Default)]
pub struct Archive(Arc<MemBackend>);

impl Archive {
    pub fn open(&self) -> Arc<CheckpointStore> {
        Arc::new(CheckpointStore::with_backend(Box::new(self.clone())))
    }

    /// Bytes of every blob in the archive.
    fn bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for path in self.0.list("")? {
            total += self.0.read(&path)?.map_or(0, |b| b.len() as u64);
        }
        Ok(total)
    }
}

impl StoreBackend for Archive {
    fn read(&self, path: &str) -> io::Result<Option<Vec<u8>>> {
        self.0.read(path)
    }

    fn publish(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        self.0.publish(path, bytes)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.0.remove(path)
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        self.0.list(prefix)
    }
}

/// A store root under the scratch directory, emptied.
fn fresh_root(tag: &str) -> PathBuf {
    let root = crate::scratch_dir().join(format!("store-{}-{tag}", std::process::id()));
    wipe(&root);
    root
}

fn wipe(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
}

/// One timed sweep pass.
pub struct Pass {
    pub outcomes: Vec<RunOutcome>,
    pub secs: f64,
    /// Time between consecutive outcome arrivals (the first counted
    /// from the pass start): per-job time at 1 worker.
    pub gaps: Vec<f64>,
}

impl Pass {
    pub fn runs_per_s(&self) -> f64 {
        self.outcomes.len() as f64 / self.secs
    }

    fn cached(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }
}

pub fn pass(sweep: &Sweep, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let span = open(tracer.as_deref_mut(), "sweep.pass");
    let start = Instant::now();
    let mut last = start;
    let mut gaps = Vec::new();
    let outcomes = sweep
        .run_with(|_| {
            let now = Instant::now();
            gaps.push(now.duration_since(last).as_secs_f64());
            if let Some(t) = tracer.as_deref_mut() {
                t.record("sweep.job", span, last, now);
            }
            last = now;
        })
        .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    close(tracer, span);
    Ok(Pass {
        outcomes,
        secs,
        gaps,
    })
}

fn same(a: &RunOutcome, b: &RunOutcome) -> bool {
    (
        a.index,
        a.seed,
        a.rounds,
        a.summary.total_regret(),
        a.summary.max_instant_regret(),
        a.final_regret,
        &a.final_loads,
    ) == (
        b.index,
        b.seed,
        b.rounds,
        b.summary.total_regret(),
        b.summary.max_instant_regret(),
        b.final_regret,
        &b.final_loads,
    )
}

/// Checks a pass against the reference outcomes: one check per run.
/// With `served`, every run must also have come from the store.
fn check_pass(
    report: &mut Report,
    label: &str,
    got: &Pass,
    reference: &[RunOutcome],
    served: bool,
) {
    report.check(got.outcomes.len() == reference.len(), || {
        format!(
            "{label}: {} of {} runs",
            got.outcomes.len(),
            reference.len()
        )
    });
    for (o, r) in got.outcomes.iter().zip(reference) {
        report.check(same(o, r) && (!served || o.cached), || {
            format!(
                "{label}: run {} (seed {}) cached={}",
                o.index, o.seed, o.cached
            )
        });
    }
}

fn outcome_digest(outcomes: &[RunOutcome]) -> u64 {
    let mut d = Digest::default();
    for o in outcomes {
        d.mix(o.seed);
        d.mix(o.final_regret);
        d.mix(o.summary.total_regret() as u64);
        for &load in &o.final_loads {
            d.mix(load);
        }
    }
    d.0
}

/// Timed set-ups between two iterations of the end-to-end loop (a
/// set-up takes tens of microseconds, a pass a few hundred ms).
const SETUPS_PER_PASS: usize = 50;

/// Replays of each cold archive: one replay takes only milliseconds, so
/// several are timed together.
const REPLAYS_PER_PASS: usize = 4;

/// The end-to-end loop: cold pass at 1 worker, replay of the reopened
/// archive, cold pass at 2 workers, until `seconds` have passed, with
/// [`SETUPS_PER_PASS`] timed set-ups before each round of passes.
pub fn run_e2e(
    shape: &Shape,
    seconds: f64,
    setup: &mut dyn FnMut(usize) -> Result<(), String>,
    report: &mut Report,
) -> Result<(), String> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut cold, mut cold2, mut replay, mut pass_p99_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<RunOutcome>> = None;
    let mut calib = Calibrator::new();
    let mut speed = Vec::new();
    while reference.is_none() || Instant::now() < deadline {
        setup(SETUPS_PER_PASS)?;
        // Each pass's scale averages the reference loop run right
        // before it and right after it.
        let archive = Archive::default();
        let before = calib.time_scale();
        let c = pass(&shape.sweep(1).store(archive.open()), None)?;
        let cold_scale = (before + calib.time_scale()) / 2.0;
        report.check(c.cached() == 0, || "cold pass served runs".into());
        let reference = reference.get_or_insert_with(|| {
            report.notes.push(format!(
                "outcome digest of {} runs: {:016x}",
                c.outcomes.len(),
                outcome_digest(&c.outcomes)
            ));
            c.outcomes.clone()
        });
        check_pass(report, "cold pass", &c, reference, false);
        let (mut replay_s, mut replayed) = (0.0, 0);
        let before = calib.time_scale();
        for _ in 0..REPLAYS_PER_PASS {
            let r = pass(&shape.sweep(1).store(archive.open()), None)?;
            check_pass(report, "replay", &r, reference, true);
            replay_s += r.secs;
            replayed += r.outcomes.len();
        }
        let replay_scale = (before + calib.time_scale()) / 2.0;
        drop(archive);
        let before = calib.time_scale();
        let c2 = pass(&shape.sweep(2).store(Archive::default().open()), None)?;
        let cold2_scale = (before + calib.time_scale()) / 2.0;
        check_pass(report, "2-worker cold pass", &c2, reference, false);
        let gaps: Vec<f64> = c.gaps.iter().map(|s| s * cold_scale * 1e3).collect();
        pass_p99_ms.push(quantile(&gaps, 0.99));
        speed.push(1.0 / cold_scale);
        cold.push(c.runs_per_s() / cold_scale);
        replay.push(replayed as f64 / replay_s / replay_scale);
        cold2.push(c2.runs_per_s() / cold2_scale);
    }
    let per_run = shape.ant_rounds_per_run();
    let scaled = |v: &[f64]| v.iter().map(|x| x * per_run).collect::<Vec<_>>();
    report.set_median("ant_rounds_per_s", &scaled(&cold));
    report.set_median("ant_rounds_per_s_2t", &scaled(&cold2));
    report.set_median("replay_ant_rounds_per_s", &scaled(&replay));
    report.notes.push(format!(
        "machine speed vs reference: {:.3} (median over passes)",
        median(&speed)
    ));
    report.notes.push(format!(
        "runs_per_s {:.1} (cold, 1 worker), {:.1} (cold, 2 workers), replay_runs_per_s {:.1}; \
         {} passes of {} runs, {} ant-rounds per run; job p99 {:.3} ms (median over passes)",
        median(&cold),
        median(&cold2),
        median(&replay),
        cold.len(),
        shape.jobs(),
        per_run,
        median(&pass_p99_ms)
    ));
    Ok(())
}

/// Cold passes alternated untraced/traced for the overhead estimate.
const OVERHEAD_PAIRS: usize = 3;

/// Measures the sweep and store layers on `shape` in traced mode and
/// returns `(untraced, traced)` median cold-pass runs per second.
pub fn sweep_layers(
    shape: &Shape,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let reference = pass(&shape.sweep(1).store(Archive::default().open()), None)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut cold = None;
    for _ in 0..OVERHEAD_PAIRS {
        plain.push(pass(&shape.sweep(1).store(Archive::default().open()), None)?.runs_per_s());
        let archive = Archive::default();
        let c = pass(&shape.sweep(1).store(archive.open()), Some(&mut *tracer))?;
        check_pass(report, "traced cold pass", &c, &reference.outcomes, false);
        traced.push(c.runs_per_s());
        cold = Some((archive, c));
    }
    let (archive, cold) = cold.ok_or("no traced cold pass")?;
    report.set("store.cold_served", cold.cached() as f64);
    let bytes = archive.bytes().map_err(|e| e.to_string())?;
    report.set(
        "store.bytes_written",
        bytes as f64 / cold.outcomes.len() as f64,
    );

    let replay = pass(&shape.sweep(1).store(archive.open()), Some(&mut *tracer))?;
    check_pass(report, "traced replay", &replay, &reference.outcomes, true);
    let served = replay.cached();
    report.set("store.served", served as f64);
    report.set("store.recomputed", (replay.outcomes.len() - served) as f64);
    report.set(
        "store.hit_ratio",
        served as f64 / replay.outcomes.len() as f64,
    );

    let cold2 = pass(
        &shape.sweep(2).store(Archive::default().open()),
        Some(&mut *tracer),
    )?;
    check_pass(
        report,
        "traced 2-worker pass",
        &cold2,
        &reference.outcomes,
        false,
    );
    report.set("sweep.scaling_2w", cold2.runs_per_s() / cold.runs_per_s());
    let job_us: Vec<f64> = cold.gaps.iter().map(|s| s * 1e6).collect();
    report.set("sweep.job_us.p50", quantile(&job_us, 0.5));
    report.set("sweep.job_us.p99", quantile(&job_us, 0.99));

    // Replay the first jobs' components by hand on the same archive:
    // key derivation, verified load, a save of the same payload into a
    // fresh archive and into a local directory, and the engine work
    // (fork or reset, then the rounds).
    let archive = archive.open();
    let scratch = Archive::default().open();
    let disk_root = fresh_root("disk");
    let disk = CheckpointStore::local(&disk_root)
        .map_err(|e| format!("open store {}: {e}", disk_root.display()))?;
    let mut engine = shape.base.try_build().map_err(|e| e.to_string())?;
    let mut prefixes: Vec<(u64, Checkpoint)> = Vec::new();
    let mut spans: [Vec<f64>; 7] = Default::default();
    let [fp_s, load_s, save_s, disk_save_s, disk_load_s, reset_s, run_s] = &mut spans;
    for i in 0..shape.jobs().min(PROBED_JOBS) {
        let cfg = shape.job_config(i);
        let mut time = |name, out: &mut Vec<f64>, f: &mut dyn FnMut()| {
            out.push(timed(Some(&mut *tracer), name, None, f).1);
        };
        let mut fp = Fingerprint([0; 32]);
        time("store.fingerprint", fp_s, &mut || {
            fp = shape.fingerprint(&cfg)
        });
        let mut loaded = Err(antalloc_store::StoreMiss::NotFound);
        time("store.load", load_s, &mut || {
            loaded = archive.load(&fp, EntryKind::Outcome)
        });
        let payload = match loaded {
            Ok(p) => p,
            Err(e) => {
                report.check(false, || {
                    format!("job {i}: archived outcome not found: {e}")
                });
                continue;
            }
        };
        let mut saved = Ok(());
        time("store.save", save_s, &mut || {
            saved = scratch.save(&fp, EntryKind::Outcome, &payload)
        });
        let mut saved_disk = Ok(());
        time("store.disk_save", disk_save_s, &mut || {
            saved_disk = disk.save(&fp, EntryKind::Outcome, &payload)
        });
        let mut loaded_disk = Err(antalloc_store::StoreMiss::NotFound);
        time("store.disk_load", disk_load_s, &mut || {
            loaded_disk = disk.load(&fp, EntryKind::Outcome)
        });
        report.check(
            saved.is_ok() && saved_disk.is_ok() && loaded_disk.as_deref() == Ok(&payload[..]),
            || format!("job {i}: store round trip failed"),
        );

        match shape.from_round {
            Some(r) => {
                if !prefixes.iter().any(|(seed, _)| *seed == cfg.seed) {
                    let mut base = shape.base.clone();
                    base.seed = cfg.seed;
                    engine.reset_from(&base);
                    engine.run(r, &mut NullObserver);
                    let ckpt = Checkpoint::capture(&engine).map_err(|e| e.to_string())?;
                    prefixes.push((cfg.seed, ckpt));
                }
                let (_, ckpt) = prefixes
                    .iter()
                    .find(|(seed, _)| *seed == cfg.seed)
                    .ok_or("prefix just inserted")?;
                time("sweep.fork", reset_s, &mut || {
                    ckpt.fork_into(&cfg, &mut engine)
                });
            }
            None => time("sweep.reset", reset_s, &mut || engine.reset_from(&cfg)),
        }
        time("sweep.run", run_s, &mut || {
            engine.run(shape.rounds, &mut NullObserver)
        });
    }
    wipe(&disk_root);
    report.set_median("store.fingerprint_us", &us(fp_s));
    report.set_median("store.load_us", &us(load_s));
    report.set_median("store.save_us", &us(save_s));
    report.set_median("store.disk_save_us", &us(disk_save_s));
    report.set_median("store.disk_load_us", &us(disk_load_s));
    let parts = median(reset_s) + median(run_s) + median(fp_s) + median(save_s);
    report.set(
        "sweep.overhead_share",
        1.0 - parts / quantile(&cold.gaps, 0.5),
    );
    Ok((median(&plain), median(&traced)))
}

fn us(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e6).collect()
}
