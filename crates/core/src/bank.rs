//! Homogeneous controller banks: the data-oriented engine core.
//!
//! A colony that runs one algorithm should pay its dispatch once per
//! **bank** per round, not once per ant. A [`ControllerBank`] stores all
//! ants of one controller kind contiguously. Each kind writes only its
//! per-ant step (plus a per-chunk prelude such as a scratch row); one
//! pair of generic drivers in this module runs that step over a chunk,
//! monomorphised per kind, on every stepping path. The per-ant
//! [`Controller`] impls are the reference semantics: bank-stepping is
//! bit-identical to per-ant stepping because every ant consumes only
//! its own RNG stream, in the same order. The engine's stream for ant
//! `id` in a round is `AntRng::keyed(round_key, id)`, built by the
//! fused driver.
//!
//! Every kind has one **structure-of-arrays layout**: [`AntBank`] for
//! §4 Ant colonies (desynchronized ones with a phase-parity column),
//! [`crate::PreciseSigmoidBank`] for §5 and
//! [`crate::PreciseAdversarialBank`] for Appendix C (transposed tracker
//! planes), the flat [`crate::ExactGreedyBank`] (one `u16` per ant — the
//! shape of Ant's idle path; it runs the trivial algorithm too),
//! [`crate::ProportionalBank`], and [`crate::FsmBank`] (one shared
//! machine, one `u16` state per ant). No bank holds per-ant structs:
//! task ids are `u16` columns (the colony's task-column encoding,
//! bounded by [`crate::MAX_TASKS`]) and per-ant booleans are bit rows
//! (see `bit_row.rs`).
//!
//! Heterogeneous (mixed-controller) colonies are a `Vec` of banks; the
//! engine layer owns the membership column that maps each ant to its
//! bank (its slot is its rank among the bank's ascending ids).
//! Parallel engines split a bank into disjoint [`BankSliceMut`] chunks,
//! one per worker.
//!
//! # Examples
//!
//! Stepping a two-ant bank by hand against exact feedback:
//!
//! ```
//! use antalloc_core::{AnyController, ControllerBank, ExactGreedy, ExactGreedyParams};
//! use antalloc_env::Assignment;
//! use antalloc_noise::NoiseModel;
//! use antalloc_rng::StreamSeeder;
//!
//! let params = ExactGreedyParams { p_join: 1.0, p_leave: 0.0 };
//! let mut bank: ControllerBank = (0..2)
//!     .map(|_| AnyController::from(ExactGreedy::new(1, params)))
//!     .collect();
//! assert_eq!(bank.len(), 2);
//! let seeder = StreamSeeder::new(7);
//! let mut rngs = vec![seeder.ant(0), seeder.ant(1)];
//! // Task 0 lacks two workers; deterministic joiners both sign up.
//! let prepared = NoiseModel::Exact.prepare(1, &[2], &[2]);
//! let mut out = vec![Assignment::Idle; 2];
//! bank.step_batch(prepared.view(), &mut rngs, &mut out);
//! assert_eq!(out, vec![Assignment::Task(0), Assignment::Task(0)]);
//! ```

use antalloc_env::{Assignment, ColumnWriter, TaskColumn};
use antalloc_noise::{RoundView, SensedRound};
use antalloc_rng::AntRng;

use crate::adversarial_bank::{AdversarialSliceMut, PreciseAdversarialBank};
use crate::ant_bank::{AntBank, AntSliceMut};
use crate::cast::{dec, enc};
use crate::controller::{AnyController, Controller};
use crate::exact_greedy::{ExactGreedy, ExactGreedyParams};
use crate::flat_bank::{ExactGreedyBank, ExactGreedySliceMut};
use crate::precise_adversarial::AdversarialScratch;
use crate::precise_sigmoid::SigmoidScratch;
use crate::proportional::{ProportionalBank, ProportionalSliceMut};
use crate::sigmoid_bank::{PreciseSigmoidBank, SigmoidSliceMut};
use crate::slot_map::SlotMap;
use crate::table_fsm::{FsmBank, FsmSliceMut};

/// Per-ant controller state beyond the assignment, extracted per kind —
/// what a checkpoint must carry to capture *between* the kind's phase
/// boundaries. Kinds whose entire state is the assignment (or whose
/// phase is short enough that boundary-only capture costs nothing)
/// have no scratch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControllerScratch {
    /// Precise Sigmoid's mid-phase counters (phases are `2m = O(1/ε)`
    /// rounds long, so boundary-only capture is a real restriction).
    PreciseSigmoid(SigmoidScratch),
    /// Precise Adversarial's mid-phase trackers (phases are
    /// `5·r_1 = O(1/ε)` rounds long — the last long-phase kind to gain
    /// mid-phase capture).
    PreciseAdversarial(AdversarialScratch),
    /// The proportional controller's persisted-error streak (emitted
    /// only when non-zero; restore defaults absent entries to 0).
    Proportional(u16),
}

/// A contiguous, homogeneous population of controllers of one kind.
///
/// One variant per bank layout; the enum dispatch happens once per bank
/// per round (in [`ControllerBank::step_batch`]), after which the kind's
/// monomorphic bank loop runs.
#[derive(Clone, Debug)]
pub enum ControllerBank {
    /// §4 Algorithm Ant, synchronized or desynchronized (`AntDesync`;
    /// see [`AntBank`]).
    Ant(AntBank),
    /// §5 Algorithm Precise Sigmoid (see [`PreciseSigmoidBank`]).
    PreciseSigmoid(PreciseSigmoidBank),
    /// Appendix C Algorithm Precise Adversarial (see
    /// [`PreciseAdversarialBank`]).
    PreciseAdversarial(PreciseAdversarialBank),
    /// Exact-feedback baseline, and with [`ExactGreedyParams::TRIVIAL`]
    /// the Appendix D trivial algorithm (see [`ExactGreedyBank`]).
    ExactGreedy(ExactGreedyBank),
    /// Proportional-control rival (see [`ProportionalBank`]).
    Proportional(ProportionalBank),
    /// Explicit finite-state machines (see [`FsmBank`]).
    Table(FsmBank),
}

/// Runs one body over whichever bank `$self` holds (every bank type
/// shares the per-slot surface).
macro_rules! each_bank {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            ControllerBank::Ant($b) => $body,
            ControllerBank::PreciseSigmoid($b) => $body,
            ControllerBank::PreciseAdversarial($b) => $body,
            ControllerBank::ExactGreedy($b) => $body,
            ControllerBank::Proportional($b) => $body,
            ControllerBank::Table($b) => $body,
        }
    };
}

impl ControllerBank {
    /// An empty bank of the same kind as `c` (for engines that create
    /// banks lazily from a prototype controller). A trivial controller
    /// gets an exact-greedy bank with [`ExactGreedyParams::TRIVIAL`].
    pub fn empty_like(c: &AnyController) -> Self {
        match c {
            AnyController::Ant(a) => {
                ControllerBank::Ant(AntBank::new(a.num_tasks(), *a.params(), 0))
            }
            AnyController::PreciseSigmoid(c) => ControllerBank::PreciseSigmoid(
                PreciseSigmoidBank::new(c.num_tasks(), *c.params(), 0),
            ),
            AnyController::PreciseAdversarial(c) => ControllerBank::PreciseAdversarial(
                PreciseAdversarialBank::new(c.num_tasks(), *c.params(), 0),
            ),
            AnyController::Trivial(c) => ControllerBank::ExactGreedy(ExactGreedyBank::new(
                c.num_tasks(),
                ExactGreedyParams::TRIVIAL,
                0,
            )),
            AnyController::ExactGreedy(c) => {
                ControllerBank::ExactGreedy(ExactGreedyBank::new(c.num_tasks(), *c.params(), 0))
            }
            AnyController::Proportional(c) => {
                ControllerBank::Proportional(ProportionalBank::new(c.num_tasks(), *c.params(), 0))
            }
            AnyController::Table(c) => ControllerBank::Table(FsmBank::new(c.spec().clone(), 0)),
        }
    }

    /// Number of ants in the bank.
    pub fn len(&self) -> usize {
        each_bank!(self, b => b.len())
    }

    /// True iff the bank holds no ants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steps every ant in the bank against one shared [`RoundView`],
    /// writing decisions into `out` (one slot per ant, bank order).
    ///
    /// Bit-identical to calling [`crate::Controller::step`] per ant.
    pub fn step_batch(&mut self, view: RoundView<'_>, rngs: &mut [AntRng], out: &mut [Assignment]) {
        self.as_slice_mut().step_batch(view, rngs, out)
    }

    /// The whole bank as a splittable mutable slice (for partitioning
    /// across workers).
    pub fn as_slice_mut(&mut self) -> BankSliceMut<'_> {
        match self {
            ControllerBank::Ant(b) => BankSliceMut::Ant(b.as_slice_mut()),
            ControllerBank::PreciseSigmoid(b) => BankSliceMut::PreciseSigmoid(b.as_slice_mut()),
            ControllerBank::PreciseAdversarial(b) => {
                BankSliceMut::PreciseAdversarial(b.as_slice_mut())
            }
            ControllerBank::ExactGreedy(b) => BankSliceMut::ExactGreedy(b.as_slice_mut()),
            ControllerBank::Proportional(b) => BankSliceMut::Proportional(b.as_slice_mut()),
            ControllerBank::Table(b) => BankSliceMut::Table(b.as_slice_mut()),
        }
    }

    /// Steps the single ant at `slot` (sequential-model engines): the
    /// bank's own kernel on a one-ant chunk.
    pub fn step_slot(&mut self, slot: usize, view: RoundView<'_>, rng: &mut AntRng) -> Assignment {
        let mut out = Assignment::Idle;
        let (_, rest) = self.as_slice_mut().split_at_mut(slot);
        rest.split_at_mut(1).0.step_batch(
            view,
            std::slice::from_mut(rng),
            std::slice::from_mut(&mut out),
        );
        out
    }

    /// The assignment of the ant at `slot`.
    pub fn assignment(&self, slot: usize) -> Assignment {
        each_bank!(self, b => b.assignment(slot))
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        each_bank!(self, b => b.reset_slot(slot, a))
    }

    /// Forces every ant into its colony assignment: slot `s` takes the
    /// raw value `column[ids[s]]` (see [`ControllerBank::reset_slot`]),
    /// with one dispatch for the whole bank.
    pub fn reset_to_column(&mut self, ids: &[u32], column: &TaskColumn) {
        each_bank!(self, b => for (s, &id) in ids.iter().enumerate() {
            b.reset_slot(s, dec(column.load(id)));
        })
    }

    /// Persistent memory of each ant of the bank, in bits.
    pub fn memory_bits(&self) -> u32 {
        each_bank!(self, b => b.memory_bits())
    }

    /// Bytes the bank's per-ant columns hold (length × element size,
    /// summed over the columns).
    #[cfg(test)]
    pub(crate) fn column_bytes(&self) -> usize {
        each_bank!(self, b => b.column_bytes())
    }

    /// The mid-phase scratch of the ant at `slot` — `Some` only for
    /// kinds a checkpoint must carry counters for (Precise Sigmoid,
    /// Precise Adversarial and a non-zero Proportional streak; see
    /// [`ControllerScratch`]).
    pub fn scratch(&self, slot: usize) -> Option<ControllerScratch> {
        match self {
            ControllerBank::PreciseSigmoid(b) => {
                Some(ControllerScratch::PreciseSigmoid(b.scratch(slot)))
            }
            ControllerBank::PreciseAdversarial(b) => {
                Some(ControllerScratch::PreciseAdversarial(b.scratch(slot)))
            }
            // Zero streaks are the reset state; omitting them keeps
            // checkpoints of settled colonies scratch-free.
            ControllerBank::Proportional(b) => match b.streak(slot) {
                0 => None,
                s => Some(ControllerScratch::Proportional(s)),
            },
            _ => None,
        }
    }

    /// Appends a fresh ant in the kind's initial state (a spawn): what
    /// the kind's per-ant constructor gives, at phase offset 0.
    pub fn push_fresh(&mut self) {
        each_bank!(self, b => b.push_fresh())
    }

    /// Appends a controller to the bank, transposing its state in.
    ///
    /// # Panics
    /// If the controller's kind does not match the bank's — banks are
    /// homogeneous by construction.
    pub fn push(&mut self, c: AnyController) {
        match (self, c) {
            (ControllerBank::Ant(b), AnyController::Ant(c)) => b.push_controller(&c),
            (ControllerBank::PreciseSigmoid(b), AnyController::PreciseSigmoid(c)) => {
                b.push_controller(&c)
            }
            (ControllerBank::PreciseAdversarial(b), AnyController::PreciseAdversarial(c)) => {
                b.push_controller(&c)
            }
            (ControllerBank::ExactGreedy(b), AnyController::Trivial(c))
                if b.params() == &ExactGreedyParams::TRIVIAL =>
            {
                let mut ant = ExactGreedy::new(c.num_tasks(), ExactGreedyParams::TRIVIAL);
                ant.reset_to(c.assignment());
                b.push_controller(&ant)
            }
            (ControllerBank::ExactGreedy(b), AnyController::ExactGreedy(c)) => {
                b.push_controller(&c)
            }
            (ControllerBank::Proportional(b), AnyController::Proportional(c)) => {
                b.push_controller(&c)
            }
            (ControllerBank::Table(b), AnyController::Table(c)) => b.push_controller(&c),
            // audit:allow(panic-path): documented precondition — Population routes controllers to the bank of their own kind.
            _ => panic!("controller kind does not match bank kind"),
        }
    }

    /// Reorders the bank's slots by `map` (see [`SlotMap`]): every
    /// column moves as run copies. Callers must apply the same map to
    /// any parallel per-slot arrays (ant-id maps).
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        each_bank!(self, b => b.apply_slot_map(map))
    }

    /// The ant at `slot` as a per-ant controller, boxed into the
    /// dispatch enum (reference extraction for tests and baseline
    /// replays).
    pub fn to_any(&self, slot: usize) -> AnyController {
        each_bank!(self, b => b.to_controller(slot).into())
    }
}

/// A disjoint mutable chunk of one bank, steppable independently.
///
/// Parallel engines split each bank's population once per run and hand
/// every worker its own set of chunks; bit-identity is unconditional
/// because each ant still consumes only its own RNG stream, keyed by
/// its colony id.
#[derive(Debug)]
pub enum BankSliceMut<'a> {
    /// Chunk of an Ant bank.
    Ant(AntSliceMut<'a>),
    /// Chunk of a Precise Sigmoid bank.
    PreciseSigmoid(SigmoidSliceMut<'a>),
    /// Chunk of a Precise Adversarial bank.
    PreciseAdversarial(AdversarialSliceMut<'a>),
    /// Chunk of a flat exact-greedy bank.
    ExactGreedy(ExactGreedySliceMut<'a>),
    /// Chunk of a flat proportional-control bank.
    Proportional(ProportionalSliceMut<'a>),
    /// Chunk of a table-machine bank.
    Table(FsmSliceMut<'a>),
}

/// Runs one body over whichever chunk `$self` holds (every chunk type
/// shares the `len`/`step_chunk` surface).
macro_rules! each_slice {
    ($self:ident, $v:ident => $body:expr) => {
        match $self {
            BankSliceMut::Ant($v) => $body,
            BankSliceMut::PreciseSigmoid($v) => $body,
            BankSliceMut::PreciseAdversarial($v) => $body,
            BankSliceMut::ExactGreedy($v) => $body,
            BankSliceMut::Proportional($v) => $body,
            BankSliceMut::Table($v) => $body,
        }
    };
}

/// Splits whichever chunk `$self` holds at `$mid` into two chunks of
/// its variant.
macro_rules! split_each {
    ($self:ident, $mid:ident, $($kind:ident),*) => {
        match $self {
            $(BankSliceMut::$kind(v) => {
                let (a, b) = v.split_at_mut($mid);
                (BankSliceMut::$kind(a), BankSliceMut::$kind(b))
            })*
        }
    };
}

impl<'a> BankSliceMut<'a> {
    /// Number of ants in the chunk.
    pub fn len(&self) -> usize {
        each_slice!(self, v => v.len())
    }

    /// True iff the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (BankSliceMut<'a>, BankSliceMut<'a>) {
        split_each!(
            self,
            mid,
            Ant,
            PreciseSigmoid,
            PreciseAdversarial,
            ExactGreedy,
            Proportional,
            Table
        )
    }

    /// Steps every ant in the chunk (same contract as
    /// [`ControllerBank::step_batch`]).
    pub fn step_batch(&mut self, view: RoundView<'_>, rngs: &mut [AntRng], out: &mut [Assignment]) {
        self.step(Stepping::Streams { view, rngs, out })
    }

    /// Fused-apply stepping: every ant's next assignment goes straight
    /// into its slot of the colony's shared task column (at `ids[i]`,
    /// the ant's colony id) and its transition into the writer's local
    /// delta — no decisions buffer, no apply sweep. The per-ant step is
    /// the one [`BankSliceMut::step_batch`] runs; only where each ant's
    /// draws come from (its stream for the round,
    /// `AntRng::keyed(round_key, ids[i])`, built on the stack) and where
    /// the result is stored differ.
    ///
    /// Takes the round as a [`SensedRound`]: a well-mixed round hoists
    /// its one shared view out of the loop, a per-ant round steps each
    /// ant against `sensed.view_for(ids[i])`.
    ///
    /// The call checks once, before any write, that there is one id per
    /// ant and that the largest id has a slot in the writer's column.
    ///
    /// # Errors
    /// [`BankError::IdCount`] or [`BankError::IdOutOfRange`]; nothing
    /// is stepped or written then.
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        round_key: u64,
        ids: &[u32],
        writer: &mut ColumnWriter<'_>,
    ) -> Result<(), BankError> {
        if ids.len() != self.len() {
            return Err(BankError::IdCount {
                ants: self.len(),
                ids: ids.len(),
            });
        }
        let column = writer.column_len();
        if let Some(&id) = ids
            .iter()
            .max()
            .filter(|&&id| crate::cast::wide(id) >= column)
        {
            return Err(BankError::IdOutOfRange { id, column });
        }
        self.step(Stepping::Fused {
            sensed,
            round_key,
            ids,
            writer,
        });
        Ok(())
    }

    fn step(&mut self, stepping: Stepping<'_, '_>) {
        each_slice!(self, v => v.step_chunk(stepping))
    }
}

/// Why [`BankSliceMut::step_batch_fused`] refused a call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BankError {
    /// The chunk and its id list differ in length.
    IdCount {
        /// Ants in the chunk.
        ants: usize,
        /// Ids passed.
        ids: usize,
    },
    /// The chunk's largest id has no slot in the task column.
    IdOutOfRange {
        /// The id.
        id: u32,
        /// Slots in the task column.
        column: usize,
    },
}

impl core::fmt::Display for BankError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BankError::IdCount { ants, ids } => {
                write!(f, "{ids} colony ids for a chunk of {ants} ants")
            }
            BankError::IdOutOfRange { id, column } => {
                write!(f, "colony id {id} is past a task column of {column} slots")
            }
        }
    }
}

impl std::error::Error for BankError {}

/// Splits a chunk struct (`self`, of type `$chunk`) into two: every
/// listed column at its own split point (`mid` for one entry per ant,
/// `mid * k` for a `k`-wide ant-major plane, `mid * w` for bit rows of
/// `w` bytes), every shared field copied
/// into both halves.
macro_rules! split_chunk {
    ($self:ident => $chunk:ident { $($shared:ident),* } $($col:ident: $at:expr),* $(,)?) => {{
        $(let $col = $self.$col.split_at_mut($at);)*
        (
            $chunk { $($shared: $self.$shared,)* $($col: $col.0,)* },
            $chunk { $($shared: $self.$shared,)* $($col: $col.1,)* },
        )
    }};
}
pub(crate) use split_chunk;

/// Where a chunk's per-ant steps draw from and write to. Every kind
/// hands its per-ant step, `(slot, view, rng) -> next assignment`, to
/// [`Stepping::run`]; the two drivers behind it are the only loops
/// over ants in the crate.
pub(crate) enum Stepping<'a, 'w> {
    /// Ant `i` draws from `rngs[i]`; its decision lands in `out[i]`.
    Streams {
        view: RoundView<'a>,
        rngs: &'a mut [AntRng],
        out: &'a mut [Assignment],
    },
    /// Ant `i` draws from `AntRng::keyed(round_key, ids[i])`; its
    /// decision goes through `writer` at colony id `ids[i]`.
    Fused {
        sensed: SensedRound<'a>,
        round_key: u64,
        ids: &'a [u32],
        writer: &'a mut ColumnWriter<'w>,
    },
}

impl Stepping<'_, '_> {
    /// The round being stepped (the global clock every ant shares).
    pub(crate) fn round(&self) -> u64 {
        match self {
            Stepping::Streams { view, .. } => view.round(),
            Stepping::Fused { sensed, .. } => sensed.round(),
        }
    }

    /// Runs `step` for slots `0..n` of the chunk, in slot order. A kind
    /// whose per-chunk branch picks a whole loop (Ant's sub-round
    /// parity) calls this once per branch, so each branch compiles to
    /// its own monomorphic loop.
    #[inline(always)]
    pub(crate) fn run<F>(self, n: usize, step: F)
    where
        F: FnMut(usize, RoundView<'_>, &mut AntRng) -> Assignment,
    {
        match self {
            Stepping::Streams { view, rngs, out } => drive_streams(n, view, rngs, out, step),
            Stepping::Fused {
                sensed,
                round_key,
                ids,
                writer,
            } => drive_fused(n, sensed, round_key, ids, writer, step),
        }
    }
}

/// The RNG-slice driver: ant `i` steps against `view` with `rngs[i]`,
/// its decision stored in `out[i]`.
#[inline(always)]
fn drive_streams<F>(
    n: usize,
    view: RoundView<'_>,
    rngs: &mut [AntRng],
    out: &mut [Assignment],
    mut step: F,
) where
    F: FnMut(usize, RoundView<'_>, &mut AntRng) -> Assignment,
{
    assert_eq!(n, rngs.len(), "one RNG stream per ant");
    assert_eq!(n, out.len(), "one decision slot per ant");
    for (i, (rng, slot)) in rngs.iter_mut().zip(out.iter_mut()).enumerate() {
        *slot = step(i, view, rng);
    }
}

/// The fused driver: ant `i` steps with its stream for the round,
/// `AntRng::keyed(round_key, ids[i])`, and its decision goes through
/// `writer` at `ids[i]`. A well-mixed round hoists its shared view out
/// of the loop; otherwise each ant senses `sensed.view_for(ids[i])`.
/// The per-ant draw order is the same either way.
#[inline(always)]
fn drive_fused<F>(
    n: usize,
    sensed: SensedRound<'_>,
    round_key: u64,
    ids: &[u32],
    writer: &mut ColumnWriter<'_>,
    step: F,
) where
    F: FnMut(usize, RoundView<'_>, &mut AntRng) -> Assignment,
{
    debug_assert_eq!(n, ids.len(), "one colony id per ant");
    match sensed.shared_view() {
        Some(view) => keyed_loop(round_key, ids, writer, step, |_| view),
        None => keyed_loop(round_key, ids, writer, step, |id| sensed.view_for(id)),
    }
}

/// The fused driver's loop, once per view source.
#[inline(always)]
fn keyed_loop<'v, F, V>(
    round_key: u64,
    ids: &[u32],
    writer: &mut ColumnWriter<'_>,
    mut step: F,
    view_of: V,
) where
    F: FnMut(usize, RoundView<'_>, &mut AntRng) -> Assignment,
    V: Fn(u32) -> RoundView<'v>,
{
    for (i, &id) in ids.iter().enumerate() {
        let next = step(i, view_of(id), &mut AntRng::keyed(round_key, id.into()));
        writer.write(id, enc(next));
    }
}

impl FromIterator<AnyController> for ControllerBank {
    /// Collects controllers into a bank; they must all be of one kind.
    ///
    /// # Panics
    /// On an empty iterator (the kind would be unknown) or a kind
    /// mismatch.
    fn from_iter<T: IntoIterator<Item = AnyController>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        // audit:allow(panic-path): documented precondition — FromIterator cannot name a kind for zero controllers.
        let first = iter.next().expect("cannot infer the kind of an empty bank");
        let mut bank = ControllerBank::empty_like(&first);
        bank.push(first);
        for c in iter {
            bank.push(c);
        }
        bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::AlgorithmAnt;
    use crate::params::{AntParams, PreciseSigmoidParams};
    use crate::precise_sigmoid::SigmoidScratch;
    use crate::sigmoid_bank::SigmoidRows;
    use crate::table_fsm::FsmBank;
    use crate::trivial::Trivial;
    use antalloc_env::RoundDelta;
    use antalloc_noise::{FeedbackProbe, NoiseModel, PreparedRound};
    use antalloc_rng::StreamSeeder;

    #[test]
    fn bank_stepping_matches_per_ant_stepping() {
        let n = 64;
        let seeder = StreamSeeder::new(42);
        let mut bank: ControllerBank = (0..n)
            .map(|_| AnyController::from(AlgorithmAnt::new(2, AntParams::default())))
            .collect();
        let mut reference: Vec<AnyController> = (0..n)
            .map(|_| AlgorithmAnt::new(2, AntParams::default()).into())
            .collect();
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=20u64 {
            let prepared = model.prepare(round, &[3, -2], &[10, 10]);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, c) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(c.step(&mut probe), out[i], "ant {i} round {round}");
            }
        }
    }

    #[test]
    fn split_chunks_cover_the_bank() {
        let mut bank = ControllerBank::ExactGreedy(ExactGreedyBank::new(1, Default::default(), 10));
        let slice = bank.as_slice_mut();
        assert_eq!(slice.len(), 10);
        let (a, b) = slice.split_at_mut(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_push_panics() {
        let mut bank = ControllerBank::ExactGreedy(ExactGreedyBank::new(1, Default::default(), 0));
        bank.push(AlgorithmAnt::new(1, AntParams::default()).into());
    }

    #[test]
    fn scratch_roundtrips_for_sigmoid_banks_only() {
        // What a checkpoint row writes is what `scratch` reports.
        let mut bank = PreciseSigmoidBank::new(2, PreciseSigmoidParams::new(0.05, 0.5), 3);
        let rows = SigmoidRows {
            current: vec![Assignment::Task(1).to_raw()],
            have_phase: vec![1],
            count1: vec![3, 4],
            count2: vec![5, 6],
            shat1: vec![1, 0],
        };
        bank.restore_row(1, &rows, 0);
        let scratch = SigmoidScratch {
            current_task: Assignment::Task(1),
            have_phase: true,
            count1: vec![3, 4],
            count2: vec![5, 6],
            shat1_lack: vec![true, false],
        };
        let mut captured = SigmoidRows::default();
        bank.capture_rows(1..2, &mut captured);
        assert_eq!(captured, rows);
        assert_eq!(
            ControllerBank::PreciseSigmoid(bank).scratch(1),
            Some(ControllerScratch::PreciseSigmoid(scratch))
        );
        // Scratch-free kinds report None.
        let bank: ControllerBank = (0..2)
            .map(|_| AnyController::from(Trivial::new(2)))
            .collect();
        assert_eq!(bank.scratch(0), None);
    }

    /// A one-task colony of `n` ants and an exact-greedy bank of `ants`.
    fn fused_fixture(n: usize, ants: usize) -> (TaskColumn, ControllerBank, PreparedRound) {
        let bank = ControllerBank::ExactGreedy(ExactGreedyBank::new(1, Default::default(), ants));
        let prepared = NoiseModel::Exact.prepare(1, &[2], &[2]);
        (TaskColumn::new(n), bank, prepared)
    }

    #[test]
    fn fused_step_rejects_an_id_count_mismatch_before_writing() {
        let (column, mut bank, prepared) = fused_fixture(4, 3);
        let mut delta = RoundDelta::new(1);
        let mut writer = ColumnWriter::new(&column, &mut delta);
        let err = bank
            .as_slice_mut()
            .step_batch_fused(SensedRound::shared(&prepared), 7, &[0, 1], &mut writer)
            .unwrap_err();
        assert_eq!(err, BankError::IdCount { ants: 3, ids: 2 });
        assert_eq!(err.to_string(), "2 colony ids for a chunk of 3 ants");
        assert_eq!(delta.switches(), 0);
        assert!(column.to_vec().iter().all(|&t| t == Assignment::SLOT_IDLE));
    }

    #[test]
    fn fused_step_rejects_an_id_past_the_column_before_writing() {
        let (column, mut bank, prepared) = fused_fixture(4, 3);
        let mut delta = RoundDelta::new(1);
        // Last or not: the largest id is checked, wherever it stands.
        for (ids, id) in [([0, 2, 4], 4), ([0, 9, 2], 9)] {
            let mut writer = ColumnWriter::new(&column, &mut delta);
            let err = bank
                .as_slice_mut()
                .step_batch_fused(SensedRound::shared(&prepared), 7, &ids, &mut writer)
                .unwrap_err();
            assert_eq!(err, BankError::IdOutOfRange { id, column: 4 });
            assert_eq!(delta.switches(), 0);
            assert!(column.to_vec().iter().all(|&t| t == Assignment::SLOT_IDLE));
        }
        assert_eq!(
            BankError::IdOutOfRange { id: 4, column: 4 }.to_string(),
            "colony id 4 is past a task column of 4 slots"
        );
        // In range, the same call steps every ant into the lacking task.
        let mut writer = ColumnWriter::new(&column, &mut delta);
        bank.as_slice_mut()
            .step_batch_fused(SensedRound::shared(&prepared), 7, &[0, 2, 3], &mut writer)
            .unwrap();
        assert_eq!(column.to_vec(), [0, Assignment::SLOT_IDLE, 0, 0]);
        assert_eq!(delta.switches(), 3);
    }

    /// The bank rows of docs/ARCHITECTURE.md § Bytes per ant, checked
    /// against the banks' own columns: each kind's bank of 64 ants at
    /// `k` = 4, its column bytes divided by its ants, must equal the
    /// table's value for this layout (the last column), so the table
    /// cannot drift from the code.
    #[test]
    fn bytes_per_ant_table_matches_the_bank_columns() {
        use crate::{
            AntParams, ExactGreedyParams, FsmSpec, PreciseAdversarialParams, ProportionalParams,
        };
        let (k, n) = (4, 64);
        let mut desync = AntBank::new(k, AntParams::default(), n);
        desync.stagger(&(0..n as u32).collect::<Vec<_>>());
        let banks: [(&str, ControllerBank); 7] = [
            (
                "Ant",
                ControllerBank::Ant(AntBank::new(k, AntParams::default(), n)),
            ),
            ("AntDesync", ControllerBank::Ant(desync)),
            (
                "Precise Sigmoid",
                ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(
                    k,
                    PreciseSigmoidParams::new(0.05, 0.5),
                    n,
                )),
            ),
            (
                "Precise Adversarial",
                ControllerBank::PreciseAdversarial(PreciseAdversarialBank::new(
                    k,
                    PreciseAdversarialParams::new(0.5, 0.5),
                    n,
                )),
            ),
            (
                "Proportional",
                ControllerBank::Proportional(ProportionalBank::new(
                    k,
                    ProportionalParams::default(),
                    n,
                )),
            ),
            (
                "Exact Greedy, Trivial",
                ControllerBank::ExactGreedy(ExactGreedyBank::new(k, ExactGreedyParams::TRIVIAL, n)),
            ),
            (
                "Hysteresis",
                ControllerBank::Table(FsmBank::new(FsmSpec::hysteresis(2).into(), n)),
            ),
        ];
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let table = &doc[doc
            .find("### Bytes per ant")
            .expect("the § Bytes per ant heading")..];
        for (kind, bank) in banks {
            let row = table
                .lines()
                .find(|l| l.starts_with(&format!("| {kind} (")))
                .unwrap_or_else(|| panic!("no table row for {kind}"));
            let cell = row
                .trim_end_matches('|')
                .rsplit('|')
                .next()
                .unwrap_or_default();
            let documented: f64 = cell
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("{kind}: last cell {cell:?}: {e}"));
            let measured = bank.column_bytes() as f64 / n as f64;
            assert_eq!(measured, documented, "{kind}: bytes per ant at k = {k}");
        }
    }
}
