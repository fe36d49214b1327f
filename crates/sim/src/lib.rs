//! Simulation engines and the scenario layer for *Self-Stabilizing Task
//! Allocation In Spite of Noise*.
//!
//! ## Describing a run
//!
//! Scenarios are built fluently and validated up front — everything
//! that used to panic mid-run is a typed [`ConfigError`] at build time:
//!
//! ```
//! use antalloc_core::AntParams;
//! use antalloc_noise::NoiseModel;
//! use antalloc_sim::{ControllerSpec, NullObserver, SimConfig};
//!
//! let config = SimConfig::builder(800, vec![100, 150])
//!     .noise(NoiseModel::Sigmoid { lambda: 2.0 })
//!     .controller(ControllerSpec::Ant(AntParams::new(1.0 / 16.0)))
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario");
//! let mut engine = config.build();
//! engine.run(100, &mut NullObserver);
//! assert_eq!(engine.round(), 100);
//! ```
//!
//! The same scenario is a declarative TOML (or JSON) document via
//! [`Scenario`], and [`Sweep`] fans a scenario out over seed
//! lists and parameter grids on OS threads with per-seed results
//! bit-identical to serial runs. See the [`scenario`] module docs.
//!
//! ## Running
//!
//! * [`SyncEngine`] — the paper's synchronous model (§2.1): every round,
//!   all ants observe feedback frozen at the end of the previous round,
//!   then act simultaneously. Supports deterministic multi-threaded
//!   stepping ([`SyncEngine::run_parallel`]) whose results are
//!   bit-identical to the serial path for any thread count.
//! * [`SequentialEngine`] — Appendix D.1's model: one uniformly random
//!   ant acts per round. It is a [`SyncEngine`] plus the stream that
//!   picks the acting ant, built and stepped by the same code.
//! * [`Observer`] — per-round measurement hook; [`BasicObserver`]
//!   bundles the standard metrics, [`TraceRecorder`] stores downsampled
//!   series and writes CSV.
//! * [`Checkpoint`] — versioned snapshots, exact at every round for
//!   every controller kind (see `checkpoint` module docs); the config travels as
//!   its canonical scenario TOML, so a checkpoint can always be
//!   re-exported as a scenario file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod checkpoint;
mod config;
mod engine;
mod observer;
mod population;
mod recorder;
pub mod scenario;
mod sequential;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{ControllerSpec, SimConfig};
pub use engine::{BankCensus, RoundRecord, SyncEngine};
pub use observer::{BasicObserver, Both, FnObserver, NullObserver, Observer, RunSummary};
pub use recorder::TraceRecorder;
pub use scenario::{
    AxisValue, CapturePolicy, ConfigError, CsvSink, JsonlSink, RunOutcome, RunSink, Scenario,
    ScenarioBuilder, Sweep, UsePolicy, MAX_TASKS,
};
pub use sequential::SequentialEngine;

/// Compiles the README's Rust snippet, so it cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
