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
//! [`crate::PreciseAdversarialBank`] for Appendix C,
//! [`crate::ExactGreedyBank`] (no column at all: the assignment is the
//! whole state; it runs the trivial algorithm too),
//! [`crate::ProportionalBank`], and [`crate::FsmBank`] (one shared
//! machine, one state per ant). No bank holds per-ant structs: task ids
//! are `u16` columns (the colony's task-column encoding, bounded by
//! [`crate::MAX_TASKS`]) and per-ant booleans are bit rows (see
//! `bit_row.rs`). No bank holds the ants' assignments: the colony's
//! task column is their one copy, and the drivers hand each ant's prior
//! assignment to its kind's per-ant step. Each kind declares its columns once, in a `soa_bank!`
//! schema (see `columns.rs`); sizing, spawning, slot maps and chunk
//! splits derive from it, and the dispatch below reaches them through
//! one list of the six kinds (`each_kind!`).
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
//! // `out` holds each ant's assignment in and its decision out.
//! let mut out = vec![Assignment::Idle; 2];
//! bank.step_batch(prepared.view(), &mut rngs, &mut out);
//! assert_eq!(out, vec![Assignment::Task(0), Assignment::Task(0)]);
//! ```

use antalloc_env::{AntIdSlice, Assignment, ColumnWriter, SensedRound, TaskColumn};
use antalloc_noise::RoundView;
use antalloc_rng::AntRng;

use crate::adversarial_bank::{AdversarialSliceMut, PreciseAdversarialBank};
use crate::ant_bank::{AntBank, AntSliceMut};
use crate::cast::{dec, enc};
use crate::controller::AnyController;
use crate::exact_greedy::{ExactGreedy, ExactGreedyParams};
use crate::flat_bank::{ExactGreedyBank, ExactGreedySliceMut};
use crate::proportional::{ProportionalBank, ProportionalSliceMut};
use crate::sigmoid_bank::{PreciseSigmoidBank, SigmoidSliceMut};
use crate::slot_map::SlotMap;
use crate::table_fsm::{FsmBank, FsmSliceMut};

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

/// Runs one body over whichever bank or chunk `$x` (a value of the
/// enum `$enum`) holds, bound to `$v`: every bank type shares the
/// per-slot surface, every chunk type the `len`/`step_chunk` one. With
/// `wrap $out(..)` the body's result goes back into the same kind's
/// variant of `$out` (a bank's chunk); with `split $out(..)` each half
/// of the body's pair does (a chunk's two halves).
macro_rules! each_kind {
    (@[$($kind:ident)*] $x:expr, $enum:ident($v:ident) => wrap $out:ident($body:expr)) => {
        match $x {
            $($enum::$kind($v) => $out::$kind($body),)*
        }
    };
    (@[$($kind:ident)*] $x:expr, $enum:ident($v:ident) => split $out:ident($body:expr)) => {
        match $x {
            $($enum::$kind($v) => {
                let (a, b) = $body;
                ($out::$kind(a), $out::$kind(b))
            })*
        }
    };
    (@[$($kind:ident)*] $x:expr, $enum:ident($v:ident) => $body:expr) => {
        match $x {
            $($enum::$kind($v) => $body,)*
        }
    };
    ($x:expr, $enum:ident($v:ident) => $($body:tt)*) => {
        each_kind!(
            @[Ant PreciseSigmoid PreciseAdversarial ExactGreedy Proportional Table]
            $x, $enum($v) => $($body)*
        )
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
        each_kind!(self, ControllerBank(b) => b.len())
    }

    /// True iff the bank holds no ants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steps every ant in the bank against one shared [`RoundView`].
    /// `out` (one slot per ant, bank order) holds each ant's assignment
    /// going in and its decision coming out.
    ///
    /// Bit-identical to calling [`crate::Controller::step`] per ant.
    pub fn step_batch(&mut self, view: RoundView<'_>, rngs: &mut [AntRng], out: &mut [Assignment]) {
        self.as_slice_mut().step_batch(view, rngs, out)
    }

    /// The whole bank as a splittable mutable slice (for partitioning
    /// across workers).
    pub fn as_slice_mut(&mut self) -> BankSliceMut<'_> {
        each_kind!(self, ControllerBank(b) => wrap BankSliceMut(b.as_slice_mut()))
    }

    /// Steps the single ant at `slot` from assignment `prior`
    /// (sequential-model engines): the kernel on a one-ant chunk.
    pub fn step_slot(
        &mut self,
        slot: usize,
        prior: Assignment,
        view: RoundView<'_>,
        rng: &mut AntRng,
    ) -> Assignment {
        let mut out = prior;
        let (_, rest) = self.as_slice_mut().split_at_mut(slot);
        rest.split_at_mut(1).0.step_batch(
            view,
            std::slice::from_mut(rng),
            std::slice::from_mut(&mut out),
        );
        out
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]), which the task column holds.
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        each_kind!(self, ControllerBank(b) => b.reset_slot(slot, a))
    }

    /// Forces every ant into its colony assignment: slot `s` takes the
    /// raw value `column[ids[s]]` (see [`ControllerBank::reset_slot`]),
    /// with one dispatch for the whole bank.
    pub fn reset_to_column(&mut self, ids: &[u32], column: &TaskColumn) {
        each_kind!(self, ControllerBank(b) => for (s, &id) in ids.iter().enumerate() {
            b.reset_slot(s, dec(column.load(id)));
        })
    }

    /// Persistent memory of each ant of the bank, in bits.
    pub fn memory_bits(&self) -> u32 {
        each_kind!(self, ControllerBank(b) => b.memory_bits())
    }

    /// Bytes the bank's per-ant columns hold (length × element size,
    /// summed over the columns).
    #[cfg(test)]
    pub(crate) fn column_bytes(&self) -> usize {
        each_kind!(self, ControllerBank(b) => b.column_bytes())
    }

    /// Bytes a checkpoint stores for `n` ants of the bank: its schema's
    /// columns (see `columns.rs`).
    pub fn state_len(&self, n: usize) -> usize {
        each_kind!(self, ControllerBank(b) => b.state_len(n))
    }

    /// Appends the bank's stored columns, in schema order,
    /// little-endian: a checkpoint's copy of the bank.
    pub fn write_state(&self, out: &mut Vec<u8>) {
        each_kind!(self, ControllerBank(b) => b.write_state(out))
    }

    /// Checks `bytes` as the stored columns of `n` ants of this bank's
    /// kind and parameters: their length and every column's domain
    /// (task ids, counter bounds, clear row padding, states).
    ///
    /// # Errors
    /// [`BankError::BadColumn`] naming the first column that fails.
    pub fn check_state(&self, n: usize, bytes: &[u8]) -> Result<(), BankError> {
        each_kind!(self, ControllerBank(b) => b.check_state(n, bytes))
    }

    /// Overwrites the bank with `n` ants from `bytes`, which
    /// [`ControllerBank::check_state`] accepted for `n` ants: every
    /// column is copied in. The bank keeps its kind and parameters.
    pub fn read_state(&mut self, n: usize, bytes: &[u8]) {
        each_kind!(self, ControllerBank(b) => b.read_state(n, bytes))
    }

    /// Appends a fresh ant in the kind's initial state (a spawn): what
    /// the kind's per-ant constructor gives, at phase offset 0.
    pub fn push_fresh(&mut self) {
        each_kind!(self, ControllerBank(b) => b.push_fresh())
    }

    /// Appends a controller to the bank, transposing its state in — all
    /// but its assignment, which the colony's task column holds.
    ///
    /// # Errors
    /// Banks are homogeneous: [`BankError::KindMismatch`] if the
    /// controller's kind differs from the bank's,
    /// [`BankError::ParamsMismatch`] if its parameters (a table
    /// machine's spec) do, and [`BankError::TaskCountMismatch`] if it
    /// observes another number of tasks. The bank is unchanged then.
    pub fn push(&mut self, c: AnyController) -> Result<(), BankError> {
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
                b.push_controller(&ExactGreedy::new(c.num_tasks(), ExactGreedyParams::TRIVIAL))
            }
            (ControllerBank::ExactGreedy(b), AnyController::ExactGreedy(c)) => {
                b.push_controller(&c)
            }
            (ControllerBank::Proportional(b), AnyController::Proportional(c)) => {
                b.push_controller(&c)
            }
            (ControllerBank::Table(b), AnyController::Table(c)) => b.push_controller(&c),
            _ => Err(BankError::KindMismatch),
        }
    }

    /// Reorders the bank's slots by `map` (see [`SlotMap`]): every
    /// column moves as run copies. Callers must apply the same map to
    /// any parallel per-slot arrays (ant-id maps).
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        each_kind!(self, ControllerBank(b) => b.apply_slot_map(map))
    }

    /// The ant at `slot`, with assignment `a`, as a per-ant controller
    /// boxed into the dispatch enum (reference extraction).
    pub fn to_any(&self, slot: usize, a: Assignment) -> AnyController {
        each_kind!(self, ControllerBank(b) => b.to_controller(slot, a).into())
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

impl<'a> BankSliceMut<'a> {
    /// Number of ants in the chunk.
    pub fn len(&self) -> usize {
        each_kind!(self, BankSliceMut(v) => v.len())
    }

    /// True iff the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (BankSliceMut<'a>, BankSliceMut<'a>) {
        each_kind!(self, BankSliceMut(v) => split BankSliceMut(v.split_at_mut(mid)))
    }

    /// Steps every ant in the chunk (same contract as
    /// [`ControllerBank::step_batch`]: `out` in and out).
    pub fn step_batch(&mut self, view: RoundView<'_>, rngs: &mut [AntRng], out: &mut [Assignment]) {
        self.step(Stepping::Streams { view, rngs, out })
    }

    /// Fused-apply stepping: every ant steps from its slot of the
    /// colony's shared task column (at `ids[i]`, its colony id) straight
    /// into it, its transition into the writer's local delta — no
    /// decisions buffer, no apply sweep. The per-ant step is
    /// the one [`BankSliceMut::step_batch`] runs; only where each ant's
    /// draws come from (its stream for the round,
    /// `AntRng::keyed(round_key, ids[i])`, built on the stack) and where
    /// the result is stored differ.
    ///
    /// Takes the round as a [`SensedRound`]: a well-mixed round hoists
    /// its one shared view out of the loop; an arena round steps each
    /// ant against the row its position selects and then moves it
    /// ([`antalloc_env::ArenaRound`]), in the same pass.
    ///
    /// The call checks once, before any write, that there is one id per
    /// ant and that the largest id — the last, as `ids` ascend — has a
    /// slot in the writer's column.
    ///
    /// # Errors
    /// [`BankError::IdCount`] or [`BankError::IdOutOfRange`]; nothing
    /// is stepped or written then.
    pub fn step_batch_fused(
        &mut self,
        sensed: SensedRound<'_>,
        round_key: u64,
        ids: AntIdSlice<'_>,
        writer: &mut ColumnWriter<'_>,
    ) -> Result<(), BankError> {
        if ids.len() != self.len() {
            return Err(BankError::IdCount {
                ants: self.len(),
                ids: ids.len(),
            });
        }
        let column = writer.column_len();
        if let Some(&id) = ids.last().filter(|&&id| crate::cast::wide(id) >= column) {
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
        each_kind!(self, BankSliceMut(v) => v.step_chunk(stepping))
    }
}

/// Why a bank refused a call ([`BankSliceMut::step_batch_fused`],
/// [`ControllerBank::push`], [`ControllerBank::check_state`]).
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
    /// A controller pushed into a bank of another kind.
    KindMismatch,
    /// A controller pushed into a bank of its kind that runs other
    /// parameters.
    ParamsMismatch,
    /// A controller pushed into a bank of its kind over another number
    /// of tasks.
    TaskCountMismatch {
        /// The bank's task count.
        bank: usize,
        /// The controller's.
        controller: usize,
    },
    /// A checkpointed column failed validation
    /// ([`ControllerBank::check_state`]).
    BadColumn {
        /// The column, as its bank's schema names it.
        column: &'static str,
        /// What is wrong with it.
        reason: String,
    },
}

/// Whether a per-ant controller over `controller_k` tasks running
/// `controller_params` fits a bank over `bank_k` tasks running
/// `bank_params` ([`ControllerBank::push`]).
pub(crate) fn fits<P: PartialEq>(
    (bank_k, bank_params): (usize, &P),
    (controller_k, controller_params): (usize, &P),
) -> Result<(), BankError> {
    if bank_params != controller_params {
        return Err(BankError::ParamsMismatch);
    }
    if bank_k != controller_k {
        return Err(BankError::TaskCountMismatch {
            bank: bank_k,
            controller: controller_k,
        });
    }
    Ok(())
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
            BankError::KindMismatch => f.write_str("controller kind does not match bank kind"),
            BankError::ParamsMismatch => {
                f.write_str("controller parameters do not match the bank's")
            }
            BankError::TaskCountMismatch { bank, controller } => write!(
                f,
                "a controller over {controller} tasks pushed into a bank over {bank}"
            ),
            BankError::BadColumn { column, reason } => write!(f, "column `{column}`: {reason}"),
        }
    }
}

impl std::error::Error for BankError {}

/// Where a chunk's per-ant steps draw from and write to. Every kind
/// hands its per-ant step, `(slot, prior assignment, view, rng) -> next
/// assignment` (both [`TaskColumn`]-encoded), to [`Stepping::run`]; the
/// two drivers behind it are the only loops over ants in the crate.
pub(crate) enum Stepping<'a, 'w> {
    /// Ant `i` draws from `rngs[i]` and steps from `out[i]` to its
    /// decision, stored there.
    Streams {
        view: RoundView<'a>,
        rngs: &'a mut [AntRng],
        out: &'a mut [Assignment],
    },
    /// Ant `i` draws from `AntRng::keyed(round_key, ids[i])` and steps
    /// from `writer`'s value at colony id `ids[i]` to its decision,
    /// written there; in an arena round it moves right after.
    Fused {
        sensed: SensedRound<'a>,
        round_key: u64,
        ids: AntIdSlice<'a>,
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
        F: FnMut(usize, u16, RoundView<'_>, &mut AntRng) -> u16,
    {
        match self {
            Stepping::Streams { view, rngs, out } => drive_streams(n, view, rngs, out, step),
            Stepping::Fused {
                sensed,
                round_key,
                ids,
                writer,
            } => drive_fused(n, sensed, round_key, &ids, writer, step),
        }
    }
}

/// The RNG-slice driver: ant `i` steps against `view` with `rngs[i]`
/// from the assignment in `out[i]`, its decision stored in its place.
#[inline(always)]
fn drive_streams<F>(
    n: usize,
    view: RoundView<'_>,
    rngs: &mut [AntRng],
    out: &mut [Assignment],
    mut step: F,
) where
    F: FnMut(usize, u16, RoundView<'_>, &mut AntRng) -> u16,
{
    assert_eq!(n, rngs.len(), "one RNG stream per ant");
    assert_eq!(n, out.len(), "one assignment slot per ant");
    for (i, (rng, slot)) in rngs.iter_mut().zip(out.iter_mut()).enumerate() {
        *slot = dec(step(i, enc(*slot), view, rng));
    }
}

/// The fused driver: ant `i` steps with its stream for the round,
/// `AntRng::keyed(round_key, ids[i])`, from its assignment in `writer`'s
/// column, and its decision goes through `writer` at `ids[i]`. A
/// well-mixed round hoists its shared view out of the loop; an arena
/// round reads each ant's sense row from its position slots and moves
/// the ant after its write. The per-ant draw order is the same either
/// way.
#[inline(always)]
fn drive_fused<F>(
    n: usize,
    sensed: SensedRound<'_>,
    round_key: u64,
    ids: &[u32],
    writer: &mut ColumnWriter<'_>,
    step: F,
) where
    F: FnMut(usize, u16, RoundView<'_>, &mut AntRng) -> u16,
{
    debug_assert_eq!(n, ids.len(), "one colony id per ant");
    match sensed {
        SensedRound::Shared(view) => {
            keyed_loop(round_key, ids, writer, step, |_| ((), view), |_, (), _| {});
        }
        SensedRound::Arena(arena) => keyed_loop(
            round_key,
            ids,
            writer,
            step,
            |id| arena.sense(id),
            |id, from, next| arena.advance(id, from, next == Assignment::SLOT_IDLE),
        ),
    }
}

/// Ants per block of the fused loop, which gathers a block's prior
/// assignments before stepping it: loading each just before its ant's
/// first branch ran ~12% slower on Exact Greedy.
const BLOCK: usize = 64;

/// The fused driver's loop, once per sensing form: `sense` gives ant
/// `id`'s view (and what `after` needs of its state before the step),
/// `after` runs once the ant's next assignment is written. The ids
/// ascend, so a gathered prior value is still current when its ant
/// steps.
#[inline(always)]
fn keyed_loop<'v, F, S, P, A>(
    round_key: u64,
    ids: &[u32],
    writer: &mut ColumnWriter<'_>,
    mut step: F,
    sense: S,
    after: A,
) where
    F: FnMut(usize, u16, RoundView<'_>, &mut AntRng) -> u16,
    S: Fn(u32) -> (P, RoundView<'v>),
    A: Fn(u32, P, u16),
{
    let mut prior = [0u16; BLOCK];
    for (b, block) in ids.chunks(BLOCK).enumerate() {
        for (p, &id) in prior.iter_mut().zip(block) {
            *p = writer.load(id);
        }
        for (j, (&id, &prev)) in block.iter().zip(&prior).enumerate() {
            let ((before, view), rng) = (sense(id), &mut AntRng::keyed(round_key, id.into()));
            let next = step(b * BLOCK + j, prev, view, rng);
            writer.write(id, prev, next);
            after(id, before, next);
        }
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
        for c in std::iter::once(first).chain(iter) {
            if let Err(e) = bank.push(c) {
                // audit:allow(panic-path): documented precondition — FromIterator has no error channel for a mixed-kind iterator.
                panic!("{e}");
            }
        }
        bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::AlgorithmAnt;
    use crate::controller::Controller;
    use crate::params::{AntParams, PreciseSigmoidParams};
    use crate::table_fsm::FsmBank;
    use crate::trivial::Trivial;
    use crate::{FsmSpec, PreciseAdversarialParams, ProportionalParams};
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
    fn mismatched_push_is_a_typed_error() {
        let mut bank = ControllerBank::ExactGreedy(ExactGreedyBank::new(1, Default::default(), 0));
        let err = bank
            .push(AlgorithmAnt::new(1, AntParams::default()).into())
            .unwrap_err();
        assert_eq!(err, BankError::KindMismatch);
        assert_eq!(err.to_string(), "controller kind does not match bank kind");
        // A trivial ant fits only an exact-greedy bank running its
        // parameters.
        let err = bank.push(Trivial::new(1).into()).unwrap_err();
        assert_eq!(err, BankError::KindMismatch);
        assert!(bank.is_empty(), "a refused push leaves the bank unchanged");
        bank.push(ExactGreedy::new(1, Default::default()).into())
            .unwrap();
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn scratch_roundtrips_for_sigmoid_banks_only() {
        // A Precise Sigmoid ant's mid-phase counters travel in its
        // bank's stored columns; a trivial bank stores nothing, its
        // assignment living in the task column alone.
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut ant = crate::PreciseSigmoid::new(2, params);
        let mut rng = StreamSeeder::new(3).ant(0);
        for round in 1..=37 {
            let prepared = NoiseModel::Sigmoid { lambda: 1.0 }.prepare(round, &[3, -3], &[9, 9]);
            ant.step(&mut FeedbackProbe::new(&prepared, &mut rng));
        }
        let bank: ControllerBank = [AnyController::from(ant.clone())].into_iter().collect();
        let mut state = Vec::new();
        bank.write_state(&mut state);
        assert_eq!(state.len(), bank.state_len(1));
        let mut back = ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(2, params, 5));
        back.check_state(1, &state).unwrap();
        back.read_state(1, &state);
        let AnyController::PreciseSigmoid(rebuilt) = back.to_any(0, ant.assignment()) else {
            unreachable!("a Precise Sigmoid bank rebuilds its own kind");
        };
        assert_eq!(rebuilt.scratch(), ant.scratch());
        let trivial: ControllerBank = [AnyController::from(Trivial::new(2))].into_iter().collect();
        assert_eq!(trivial.state_len(1), 0);
    }

    /// A push of a controller of the bank's kind but other parameters
    /// or another task count is refused, leaving the bank unchanged —
    /// for every bank shape.
    #[test]
    fn mismatched_params_and_task_counts_are_typed_errors() {
        let trivial =
            |k| ControllerBank::ExactGreedy(ExactGreedyBank::new(k, ExactGreedyParams::TRIVIAL, 2));
        let shapes = every_shape(3, 2)
            .into_iter()
            .chain([("Trivial", trivial(3))]);
        for ((kind, mut bank), (_, other)) in shapes.zip(
            every_shape(3, 1)
                .into_iter()
                .map(|(kind, bank)| (kind, retuned(&bank)))
                .chain([(
                    "Trivial",
                    ControllerBank::ExactGreedy(ExactGreedyBank::new(
                        3,
                        ExactGreedyParams::default(),
                        1,
                    )),
                )]),
        ) {
            let tasks = vec![Assignment::Idle; bank.len()];
            let before = snapshots(&bank, &tasks);
            let err = bank.push(other.to_any(0, Assignment::Idle)).unwrap_err();
            assert_eq!(err, BankError::ParamsMismatch, "{kind}");
            assert_eq!(
                err.to_string(),
                "controller parameters do not match the bank's"
            );
            assert_eq!(
                snapshots(&bank, &tasks),
                before,
                "{kind}: a refused push leaves the bank"
            );
            if kind == "Hysteresis" {
                // A machine's spec is its task count too.
                continue;
            }
            let wide = if kind == "Trivial" {
                trivial(4)
            } else {
                every_shape(4, 1)
                    .into_iter()
                    .find(|(k, _)| *k == kind)
                    .unwrap()
                    .1
            };
            let err = bank.push(wide.to_any(0, Assignment::Idle)).unwrap_err();
            assert_eq!(
                err,
                BankError::TaskCountMismatch {
                    bank: 3,
                    controller: 4
                },
                "{kind}"
            );
            assert_eq!(
                snapshots(&bank, &tasks),
                before,
                "{kind}: a refused push leaves the bank"
            );
            bank.push(bank.to_any(0, Assignment::Idle)).unwrap();
            assert_eq!(bank.len(), 3, "{kind}");
        }
    }

    /// A one-ant bank of `bank`'s kind whose parameters differ.
    fn retuned(bank: &ControllerBank) -> ControllerBank {
        let k = 3;
        match bank {
            ControllerBank::Ant(_) => ControllerBank::Ant(AntBank::new(k, AntParams::new(0.25), 1)),
            ControllerBank::PreciseSigmoid(_) => ControllerBank::PreciseSigmoid(
                PreciseSigmoidBank::new(k, PreciseSigmoidParams::new(0.5, 0.25), 1),
            ),
            ControllerBank::PreciseAdversarial(_) => ControllerBank::PreciseAdversarial(
                PreciseAdversarialBank::new(k, PreciseAdversarialParams::new(3.2, 0.25), 1),
            ),
            ControllerBank::ExactGreedy(_) => ControllerBank::ExactGreedy(ExactGreedyBank::new(
                k,
                ExactGreedyParams {
                    p_join: 0.1,
                    p_leave: 0.2,
                },
                1,
            )),
            ControllerBank::Proportional(_) => ControllerBank::Proportional(ProportionalBank::new(
                k,
                ProportionalParams {
                    gain: 0.25,
                    deadband: 1,
                },
                1,
            )),
            ControllerBank::Table(_) => {
                ControllerBank::Table(FsmBank::new(FsmSpec::hysteresis(2).into(), 1))
            }
        }
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
            .step_batch_fused(
                SensedRound::Shared(prepared.view()),
                7,
                AntIdSlice::new(&[0, 1]).unwrap(),
                &mut writer,
            )
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
        // The ids ascend, so the largest is the last; a list out of
        // order is refused before it reaches the bank.
        for (ids, id) in [([0, 2, 4], 4), ([0, 2, 9], 9)] {
            let mut writer = ColumnWriter::new(&column, &mut delta);
            let err = bank
                .as_slice_mut()
                .step_batch_fused(
                    SensedRound::Shared(prepared.view()),
                    7,
                    AntIdSlice::new(&ids).unwrap(),
                    &mut writer,
                )
                .unwrap_err();
            assert_eq!(err, BankError::IdOutOfRange { id, column: 4 });
            assert_eq!(delta.switches(), 0);
            assert!(column.to_vec().iter().all(|&t| t == Assignment::SLOT_IDLE));
        }
        assert_eq!(
            BankError::IdOutOfRange { id: 4, column: 4 }.to_string(),
            "colony id 4 is past a task column of 4 slots"
        );
        let err = AntIdSlice::new(&[0, 9, 2]).unwrap_err();
        assert_eq!(err, antalloc_env::IdsOutOfOrder { slot: 2 });
        assert_eq!(err.to_string(), "colony ids out of order at slot 2");
        // In range, the same call steps every ant into the lacking task.
        let mut writer = ColumnWriter::new(&column, &mut delta);
        bank.as_slice_mut()
            .step_batch_fused(
                SensedRound::Shared(prepared.view()),
                7,
                AntIdSlice::new(&[0, 2, 3]).unwrap(),
                &mut writer,
            )
            .unwrap();
        assert_eq!(column.to_vec(), [0, Assignment::SLOT_IDLE, 0, 0]);
        assert_eq!(delta.switches(), 3);
    }

    /// Every bank shape the engine builds, `n` fresh ants over `k` tasks
    /// each (AntDesync staggered by id).
    fn every_shape(k: usize, n: usize) -> [(&'static str, ControllerBank); 7] {
        let params = AntParams::new(1.0 / 16.0);
        let mut desync = AntBank::new(k, params, n);
        desync.stagger(&(0..n as u32).collect::<Vec<_>>());
        let proportional = ProportionalParams {
            gain: 0.4,
            deadband: 3,
        };
        [
            ("Ant", ControllerBank::Ant(AntBank::new(k, params, n))),
            ("AntDesync", ControllerBank::Ant(desync)),
            (
                "Precise Sigmoid",
                ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(
                    k,
                    PreciseSigmoidParams::new(0.5, 0.5),
                    n,
                )),
            ),
            (
                "Precise Adversarial",
                ControllerBank::PreciseAdversarial(PreciseAdversarialBank::new(
                    k,
                    PreciseAdversarialParams::new(3.2, 0.5),
                    n,
                )),
            ),
            (
                "Proportional",
                ControllerBank::Proportional(ProportionalBank::new(k, proportional, n)),
            ),
            (
                "Exact Greedy",
                ControllerBank::ExactGreedy(ExactGreedyBank::new(k, Default::default(), n)),
            ),
            (
                "Hysteresis",
                ControllerBank::Table(FsmBank::new(FsmSpec::lazy_hysteresis(3, 0.5).into(), n)),
            ),
        ]
    }

    /// What the ant at each slot is, given the bank and each slot's
    /// assignment: its per-ant controller, as text.
    fn snapshots(bank: &ControllerBank, tasks: &[Assignment]) -> Vec<String> {
        (0..bank.len())
            .map(|s| format!("{:?}", bank.to_any(s, tasks[s])))
            .collect()
    }

    /// A bank and its ants' assignments (their task column).
    type Shape = (&'static str, ControllerBank, Vec<Assignment>);

    /// Every bank shape over `k` tasks with 64 ants, stepped 70 rounds —
    /// past each kind's first phase boundaries and through two waves
    /// of resets — so every column holds state no fresh ant has and
    /// differs between ants.
    fn stepped_shapes(k: usize) -> [Shape; 7] {
        let seeder = StreamSeeder::new(k as u64);
        every_shape(k, 64).map(|(kind, mut bank)| {
            let mut tasks = vec![Assignment::Idle; bank.len()];
            for round in 1..=70 {
                if round % 35 == 1 {
                    // Mid-phase resets put every kind's ants on
                    // different tasks (a Precise Adversarial phase
                    // is 320 rounds, so none would work yet).
                    for s in (round as usize % 3..bank.len()).step_by(3) {
                        tasks[s] = Assignment::Task((s % k) as u32);
                        bank.reset_slot(s, tasks[s]);
                    }
                }
                let mut streams = crate::round_streams(&seeder, round, bank.len());
                step_round(bank.as_slice_mut(), k, round, &mut streams, &mut tasks);
            }
            (kind, bank, tasks)
        })
    }

    /// Every bank shape's stored columns, read back into a bank of the
    /// same kind that held other ants, give back every ant, given its
    /// assignment from the task column.
    #[test]
    fn stored_columns_restore_every_bank_shape() {
        for k in [3, 65] {
            let decoys = every_shape(k, 5);
            for ((kind, bank, tasks), (_, decoy)) in stepped_shapes(k).into_iter().zip(decoys) {
                let mut state = Vec::new();
                bank.write_state(&mut state);
                assert_eq!(state.len(), bank.state_len(bank.len()), "{kind}");
                let mut back = decoy;
                back.check_state(bank.len(), &state).unwrap();
                back.read_state(bank.len(), &state);
                assert_eq!(
                    snapshots(&back, &tasks),
                    snapshots(&bank, &tasks),
                    "{kind} k {k}"
                );
            }
        }
    }

    /// One round of sigmoid noise over `k` tasks, every ant of `chunk`
    /// drawing from `streams`, its assignment carried in `tasks`.
    fn step_round(
        mut chunk: BankSliceMut<'_>,
        k: usize,
        round: u64,
        streams: &mut [AntRng],
        tasks: &mut [Assignment],
    ) {
        let deficits: Vec<i64> = (0..k).map(|j| [4, -4, 1][j % 3]).collect();
        let prepared = NoiseModel::Sigmoid { lambda: 1.0 }.prepare(round, &deficits, &vec![12; k]);
        chunk.step_batch(prepared.view(), streams, tasks);
    }

    /// Every column of every bank shape follows its ant through every
    /// relocation: random slot maps (drops, lifts, refills), spawns and
    /// chunk splits, from the state of [`stepped_shapes`].
    #[test]
    fn every_column_follows_every_relocation() {
        use crate::slot_map::tests::random_map;
        use antalloc_rng::uniform_index;
        for k in [3, 65] {
            for (b, (kind, mut bank, mut tasks)) in stepped_shapes(k).into_iter().enumerate() {
                let fresh = snapshots(&every_shape(k, 1)[b].1, &[Assignment::Idle]);
                let seeder = StreamSeeder::new(k as u64);
                let mut rng = seeder.stream(b as u64);
                for i in 0..9u64 {
                    // A random slot map: new slot j holds old slot order[j].
                    let before = snapshots(&bank, &tasks);
                    let (map, order) = random_map(1000 * k as u64 + 10 * b as u64 + i, bank.len());
                    bank.apply_slot_map(&map);
                    map.apply(&mut tasks);
                    let after = snapshots(&bank, &tasks);
                    assert_eq!(after.len(), order.len(), "{kind} k {k} map {i}");
                    for (j, &from) in order.iter().enumerate() {
                        assert_eq!(
                            after[j], before[from],
                            "{kind} k {k} map {i}: slot {j} from {from}"
                        );
                    }
                    // A spawn appends a fresh ant and moves no other.
                    bank.push_fresh();
                    tasks.push(Assignment::Idle);
                    assert_eq!(
                        snapshots(&bank, &tasks),
                        [after, fresh.clone()].concat(),
                        "{kind} k {k}"
                    );
                    // Two chunks split at a random mid step as the whole.
                    let mid = uniform_index(&mut rng, bank.len() + 1);
                    let round = 71 + i;
                    let (mut whole, mut whole_tasks) = (bank.clone(), tasks.clone());
                    let mut streams = crate::round_streams(&seeder, round, bank.len());
                    step_round(
                        whole.as_slice_mut(),
                        k,
                        round,
                        &mut streams.clone(),
                        &mut whole_tasks,
                    );
                    let (left, right) = bank.as_slice_mut().split_at_mut(mid);
                    let (first, second) = streams.split_at_mut(mid);
                    let (left_tasks, right_tasks) = tasks.split_at_mut(mid);
                    step_round(left, k, round, first, left_tasks);
                    step_round(right, k, round, second, right_tasks);
                    assert_eq!(
                        snapshots(&bank, &tasks),
                        snapshots(&whole, &whole_tasks),
                        "{kind} k {k} split at {mid}"
                    );
                }
            }
        }
    }

    /// Each bank reports its per-ant reference controller's memory, the
    /// paper's state count, for every kind at 1, 4 and 65 tasks.
    #[test]
    fn bank_memory_bits_match_the_reference_controllers() {
        for k in [1, 4, 65] {
            for (kind, bank) in every_shape(k, 2) {
                let reference = bank.to_any(0, Assignment::Idle).memory_bits();
                assert_eq!(bank.memory_bits(), reference, "{kind} at k = {k}");
            }
            let trivial: ControllerBank =
                [AnyController::from(Trivial::new(k))].into_iter().collect();
            assert_eq!(
                trivial.memory_bits(),
                Trivial::new(k).memory_bits(),
                "Trivial at k = {k}"
            );
        }
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
