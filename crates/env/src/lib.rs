//! The colony environment of §2.1: `n` ants, `k` tasks with demands
//! `d(j)`, loads `W(j)_t`, and deficits `Δ(j)_t = d(j) − W(j)_t`.
//!
//! This crate owns the *ground truth* the ants never see directly:
//! assignments, loads, demand vectors and their validation against
//! Assumptions 2.1, the perturbation vocabulary used by
//! self-stabilization experiments (arbitrary initial configurations,
//! ant death/birth), and the [`Timeline`] subsystem that scripts every
//! kind of mid-run dynamism — demand steps, population shocks and
//! noise-regime switches — as one ordered, cursor-consumed event
//! stream, extended with state-conditional [`Trigger`]s and seeded
//! random shock-schedule [`TimelineGen`]s.
//!
//! # Examples
//!
//! A timeline mixing every scheduling flavor: a scripted demand step, a
//! periodic scramble, a regret-reactive kill, and a randomized
//! Poisson kill schedule (expanded by [`Timeline::compile`] as a pure
//! function of the master seed):
//!
//! ```
//! use antalloc_env::{
//!     Condition, Event, GenShock, Timeline, TimelineGen, Trigger,
//! };
//!
//! let timeline = Timeline::new()
//!     .at(500, Event::SetDemands(vec![300, 100]))
//!     .every(2_000, 2_000, vec![Event::Scramble])
//!     .trigger(Trigger::once(
//!         Condition::RegretBelow { threshold: 40, for_rounds: 16 },
//!         Event::Kill { count: 200 },
//!     ))
//!     .generate(TimelineGen {
//!         start: 1,
//!         until: 10_000,
//!         mean_gap: 1_500.0,
//!         shock: GenShock::Kill { min_frac: 0.1, max_frac: 0.3 },
//!     });
//! assert!(timeline.validate(2, 1_000).is_ok());
//! assert!(timeline.validate_triggers(2).is_ok());
//! // Compilation expands the generator; scripted entries survive as-is.
//! let compiled = timeline.compile(0xC0FFEE, 1_000, &[200, 200]);
//! assert!(compiled.generators.is_empty());
//! assert!(compiled.events.len() > 1);
//! assert_eq!(compiled.triggers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod arena;
mod assignment;
mod colony;
mod demand;
mod gen;
mod ids;
mod perturb;
mod timeline;
mod trigger;

pub use apply::{ColumnWriter, RoundDelta, TaskColumn};
pub use arena::{ArenaConfig, ArenaRound, Position, Positions, SensedRound};
pub use assignment::Assignment;
pub use colony::ColonyState;
pub use demand::{AssumptionReport, DemandVector};
pub use gen::{GenShock, TimelineGen};
pub use ids::{AntIdSlice, AntIds, IdsOutOfOrder};
pub use perturb::{InitialConfig, Perturbation};
pub use timeline::{Cycle, Event, TimedEvent, Timeline};
pub use trigger::{ColonyView, Condition, Trigger, TriggerState};
