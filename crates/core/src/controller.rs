//! The controller abstraction and the static-dispatch enum.

use antalloc_env::Assignment;
use antalloc_noise::FeedbackProbe;

use crate::ant::AlgorithmAnt;
use crate::exact_greedy::ExactGreedy;
use crate::precise_adversarial::PreciseAdversarial;
use crate::precise_sigmoid::PreciseSigmoid;
use crate::proportional::ProportionalController;
use crate::table_fsm::TableFsm;
use crate::trivial::Trivial;

/// A per-ant task-allocation algorithm.
///
/// The engine drives one synchronous round as: freeze deficits → for each
/// ant build a [`FeedbackProbe`] → call [`Controller::step`] → apply the
/// returned assignment. Controllers see *only* the probe: the paper's
/// information model (no loads, no demands, no peers) is enforced by this
/// signature.
pub trait Controller {
    /// Observes this round's feedback and returns the assignment for the
    /// round (`a_t`). `probe.round()` carries the global clock `t` that
    /// the paper's synchronized phases rely on.
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment;

    /// The assignment as of the last `step` (or reset).
    fn assignment(&self) -> Assignment;

    /// Forces the controller into `a`, clearing transient per-phase state.
    ///
    /// Used to realize arbitrary initial configurations (Theorem 3.1's
    /// premise) and the scramble perturbation: the environment moves the
    /// ant, the algorithm must recover.
    fn reset_to(&mut self, a: Assignment);

    /// The controller's persistent memory in bits, per Theorem 3.3's
    /// accounting (phase position excluded: the paper provides the global
    /// clock via synchronization).
    fn memory_bits(&self) -> u32;
}

/// Static-dispatch union of every shipped controller.
///
/// The simulator stores `Vec<AnyController>`; an enum keeps the hot loop
/// free of virtual calls and keeps controllers `Clone` for checkpointing.
#[derive(Clone, Debug)]
pub enum AnyController {
    /// §4 Algorithm Ant.
    Ant(AlgorithmAnt),
    /// §5 Algorithm Precise Sigmoid.
    PreciseSigmoid(PreciseSigmoid),
    /// Appendix C Algorithm Precise Adversarial.
    PreciseAdversarial(PreciseAdversarial),
    /// Appendix D trivial algorithm.
    Trivial(Trivial),
    /// Exact-feedback baseline (\[11\]-style).
    ExactGreedy(ExactGreedy),
    /// Proportional-control rival (gain/deadband; see
    /// [`ProportionalController`]).
    Proportional(ProportionalController),
    /// Explicit finite-state machine (Theorem 3.3 experiments).
    Table(TableFsm),
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            AnyController::Ant($inner) => $body,
            AnyController::PreciseSigmoid($inner) => $body,
            AnyController::PreciseAdversarial($inner) => $body,
            AnyController::Trivial($inner) => $body,
            AnyController::ExactGreedy($inner) => $body,
            AnyController::Proportional($inner) => $body,
            AnyController::Table($inner) => $body,
        }
    };
}

impl Controller for AnyController {
    #[inline]
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        delegate!(self, c => c.step(probe))
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        delegate!(self, c => c.assignment())
    }

    fn reset_to(&mut self, a: Assignment) {
        delegate!(self, c => c.reset_to(a))
    }

    fn memory_bits(&self) -> u32 {
        delegate!(self, c => c.memory_bits())
    }
}

impl From<AlgorithmAnt> for AnyController {
    fn from(c: AlgorithmAnt) -> Self {
        AnyController::Ant(c)
    }
}
impl From<PreciseSigmoid> for AnyController {
    fn from(c: PreciseSigmoid) -> Self {
        AnyController::PreciseSigmoid(c)
    }
}
impl From<PreciseAdversarial> for AnyController {
    fn from(c: PreciseAdversarial) -> Self {
        AnyController::PreciseAdversarial(c)
    }
}
impl From<Trivial> for AnyController {
    fn from(c: Trivial) -> Self {
        AnyController::Trivial(c)
    }
}
impl From<ExactGreedy> for AnyController {
    fn from(c: ExactGreedy) -> Self {
        AnyController::ExactGreedy(c)
    }
}
impl From<ProportionalController> for AnyController {
    fn from(c: ProportionalController) -> Self {
        AnyController::Proportional(c)
    }
}
impl From<TableFsm> for AnyController {
    fn from(c: TableFsm) -> Self {
        AnyController::Table(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AntParams;

    #[test]
    fn enum_delegates() {
        let mut c: AnyController = AlgorithmAnt::new(3, AntParams::default()).into();
        assert_eq!(c.assignment(), Assignment::Idle);
        c.reset_to(Assignment::Task(2));
        assert_eq!(c.assignment(), Assignment::Task(2));
        assert!(c.memory_bits() > 0);
    }
}
