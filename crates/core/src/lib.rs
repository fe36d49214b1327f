//! The per-ant controllers of *Self-Stabilizing Task Allocation In Spite
//! of Noise* (SPAA 2020).
//!
//! Every algorithm in the paper is a small per-ant state machine driven
//! only by the noisy feedback vector: no communication, no access to
//! loads or demands. This crate implements them all:
//!
//! * [`AlgorithmAnt`] — §4: the constant-memory two-sample protocol
//!   (Theorem 3.1).
//! * [`PreciseSigmoid`] — §5: median-amplified samples, step size
//!   `εγ/c_χ` (Theorem 3.2).
//! * [`PreciseAdversarial`] — Appendix C: ramped first sub-phase and a
//!   frozen second sub-phase (Theorem 3.6).
//! * [`Trivial`] — Appendix D: the single-sample join/leave rule that
//!   works sequentially but oscillates synchronously.
//! * [`ExactGreedy`] — an exact-feedback baseline in the style of
//!   Cornejo et al. \[11\], the noise-free comparison point.
//! * [`ProportionalController`] — a control-theoretic rival
//!   (gain/deadband stochastic P-controller) to race against the
//!   paper's ants under the same noise models.
//! * [`TableFsm`] — an explicit finite-state machine with an
//!   Assumption 2.2 reachability checker, used by the Theorem 3.3
//!   memory-floor experiments.
//!
//! All controllers implement [`Controller`]: they are the readable
//! transcription of the paper and the reference the banks are tested
//! against. Engines store ants in homogeneous [`ControllerBank`]s — one
//! structure-of-arrays bank per controller kind, whose per-ant step one
//! generic driver runs in a tight monomorphic loop, bit-identical to
//! per-ant stepping; [`AnyController`] is the per-ant dispatch enum
//! used for reference replays and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial_bank;
mod ant;
mod ant_bank;
mod bank;
mod bit_row;
mod cast;
mod columns;
mod controller;
mod exact_greedy;
mod flat_bank;
mod memory;
mod params;
mod precise_adversarial;
mod precise_sigmoid;
mod proportional;
mod sigmoid_bank;
mod slot_map;
mod table_fsm;
mod trivial;

pub use adversarial_bank::{AdversarialSliceMut, PreciseAdversarialBank};
pub use ant::AlgorithmAnt;
pub use ant_bank::{AntBank, AntSliceMut};
pub use bank::{BankError, BankSliceMut, ControllerBank};
pub use cast::MAX_TASKS;
pub use controller::{AnyController, Controller};
pub use exact_greedy::{ExactGreedy, ExactGreedyParams};
pub use flat_bank::{ExactGreedyBank, ExactGreedySliceMut};
pub use memory::{bits_for_states, closeness_floor, MemoryFootprint};
pub use params::{AntParams, PreciseAdversarialParams, PreciseSigmoidParams};
pub use precise_adversarial::{AdversarialScratch, PreciseAdversarial};
pub use precise_sigmoid::{PreciseSigmoid, SigmoidScratch};
pub use proportional::{
    ProportionalBank, ProportionalController, ProportionalParams, ProportionalSliceMut,
};
pub use sigmoid_bank::{PreciseSigmoidBank, SigmoidSliceMut};
pub use slot_map::SlotMap;
pub use table_fsm::{FsmBank, FsmSliceMut, FsmSpec, ReachabilityError, TableFsm};
pub use trivial::Trivial;

/// Every ant's stream for `round`, keyed as the engine keys them: the
/// bank tests drive `step_batch` and the per-ant reference with these.
#[cfg(test)]
pub(crate) fn round_streams(
    seeder: &antalloc_rng::StreamSeeder,
    round: u64,
    n: usize,
) -> Vec<antalloc_rng::AntRng> {
    let key = seeder.round_key(round);
    (0..n as u64)
        .map(|i| antalloc_rng::AntRng::keyed(key, i))
        .collect()
}
