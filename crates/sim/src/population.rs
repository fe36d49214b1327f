//! The banked ant population shared by both engines.
//!
//! A [`Population`] owns one [`ControllerBank`] per controller kind
//! plus a stable **ant → (bank, slot) index**. All engine operations —
//! stepping, perturbations, checkpointing, parallel partitioning — are
//! bank-wise; the index is the only piece that thinks in global ant
//! ids.
//!
//! ## Index invariants
//!
//! For every global ant id `i` and every bank `b` with slot `s`:
//!
//! * `index.len()` equals the colony population `n`;
//! * `index[i] == (b, s)`  ⇔  `banks[b].ants[s] == i` (the two maps are
//!   mutual inverses);
//! * within a bank, `controllers` and `ants` share one length;
//! * within a bank, `ants` ascends by slot — so a homogeneous colony's
//!   single bank has `ants[s] == s`, and every kernel walks the
//!   colony's per-ant columns front to back;
//! * banks may be empty (a mix fraction can be killed off entirely) but
//!   are never dropped, so spawns can always rejoin their sub-spec.
//!
//! Kills mirror the colony's swap-removal in global ids: each victim's
//! id is taken over by the *global* last ant. A kill event applies all
//! its removals to the two maps first, in the colony's kill order —
//! O(1) each — and then rewrites the index in one pass and repairs each
//! bank in one streaming pass (see [`Population::remove_batch`]).
//! Spawns append the largest id, and builds and restores fill slots in
//! id order, so the order holds through every operation.
//!
//! No ant carries generator state: ant `i`'s draws in a round are
//! `AntRng::keyed(round_key, i)`, built inside the kernels, so kills,
//! spawns, resets and restores move no randomness around.
//!
//! ## Mixed-colony membership
//!
//! `ControllerSpec::Mix` assigns ants to sub-specs deterministically
//! from the master seed: exact largest-remainder quotas of the weights,
//! interleaved by a seeded Fisher–Yates shuffle (the dedicated
//! [`reserved::MIX`] stream). Spawned ants draw their sub-spec from a
//! stream keyed by their spawn stream id (the engine's checkpointed
//! `next_stream` counter), so checkpoint + spawn replays bit-identically
//! to an uninterrupted run.

use antalloc_core::{
    AdversarialScratch, AnyController, BankSliceMut, ControllerBank, SigmoidPlanes,
    SigmoidPlanesMut, SlotMap,
};
use antalloc_env::{Assignment, ColonyState};
use antalloc_noise::PreparedRound;
use antalloc_rng::{reserved, uniform_index, AntRng, StreamSeeder};

use crate::config::ControllerSpec;

/// One worker's share of the colony: disjoint (controller chunk,
/// global-id chunk) pairs (see [`Population::partition_mut`]).
pub(crate) type WorkerPart<'a> = Vec<(BankSliceMut<'a>, &'a [u32])>;

/// The population's checkpointed state as columns in ascending global
/// ant id — what a checkpoint copies out of the banks and back in. The
/// per-kind scratch columns hold only ants of kinds that carry
/// mid-phase state.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct AntColumns {
    /// Bank (sub-spec) index per ant for mixed colonies; empty
    /// otherwise.
    pub members: Vec<u16>,
    /// Precise Sigmoid counters, one row per ant of that kind.
    pub sigmoid: SigmoidColumns,
    /// Ids of the Precise Adversarial ants, one per `adversarial` entry.
    pub adversarial_ids: Vec<u32>,
    /// Precise Adversarial phase trackers.
    pub adversarial: Vec<AdversarialScratch>,
    /// Ids of the Proportional ants with a non-zero streak.
    pub streak_ids: Vec<u32>,
    /// Their deadband streaks.
    pub streaks: Vec<u16>,
}

impl AntColumns {
    /// Appends the scratch of ant `id`, slot `s` of `bank`.
    fn capture_row(&mut self, bank: &Bank, id: u32, s: usize, k: usize) {
        match &bank.controllers {
            ControllerBank::PreciseSigmoid(b) => self.sigmoid.push(id, &b.planes(), s, k),
            ControllerBank::PreciseAdversarial(b) => {
                self.adversarial_ids.push(id);
                self.adversarial.push(b.scratch(s));
            }
            // Zero streaks are the reset state; omitting them keeps
            // checkpoints of settled colonies scratch-free.
            ControllerBank::Proportional(b) if b.streak(s) != 0 => {
                self.streak_ids.push(id);
                self.streaks.push(b.streak(s));
            }
            _ => {}
        }
    }

    /// Appends the scratch of every ant of `bank`, whose ants ascend.
    fn capture_bank(&mut self, bank: &Bank) {
        match &bank.controllers {
            ControllerBank::PreciseSigmoid(b) => self.sigmoid.extend(&bank.ants, &b.planes()),
            ControllerBank::PreciseAdversarial(b) => {
                self.adversarial_ids.extend_from_slice(&bank.ants);
                self.adversarial.extend((0..b.len()).map(|s| b.scratch(s)));
            }
            ControllerBank::Proportional(b) => {
                // Branch-free compaction of the non-zero streaks.
                let at = self.streaks.len();
                self.streak_ids.resize(at + bank.len(), 0);
                self.streaks.resize(at + bank.len(), 0);
                let mut end = at;
                for (&id, &streak) in bank.ants.iter().zip(b.streaks()) {
                    self.streak_ids[end] = id;
                    self.streaks[end] = streak;
                    end += usize::from(streak != 0);
                }
                self.streak_ids.truncate(end);
                self.streaks.truncate(end);
            }
            _ => {}
        }
    }
}

/// The checkpoint scratch tags of the kinds that carry mid-phase state
/// (see `docs/CHECKPOINTS.md`).
pub(crate) const TAG_SIGMOID: u8 = 0;
pub(crate) const TAG_ADVERSARIAL: u8 = 1;
pub(crate) const TAG_STREAK: u8 = 2;

/// The scratch tag of a bank, if its controllers carry mid-phase state.
fn scratch_kind(bank: &ControllerBank) -> Option<u8> {
    match bank {
        ControllerBank::PreciseSigmoid(_) => Some(TAG_SIGMOID),
        ControllerBank::PreciseAdversarial(_) => Some(TAG_ADVERSARIAL),
        ControllerBank::Proportional(_) => Some(TAG_STREAK),
        _ => None,
    }
}

/// Precise Sigmoid scratch as fixed-stride columns shaped like the
/// bank's planes ([`SigmoidPlanes`]): entry `e` belongs to ant
/// `ids[e]` and owns `k` entries of each counter and median column.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SigmoidColumns {
    pub ids: Vec<u32>,
    /// `currentTask`, raw.
    pub current: Vec<u32>,
    /// Phase-observed flag (0 or 1).
    pub have_phase: Vec<u8>,
    /// First-half `lack` counts.
    pub count1: Vec<u16>,
    /// Second-half `lack` counts.
    pub count2: Vec<u16>,
    /// Frozen first-half medians (1 = lack).
    pub shat1: Vec<u8>,
}

impl SigmoidColumns {
    /// Reserves room for `entries` more rows over `k` tasks.
    pub fn reserve(&mut self, entries: usize, k: usize) {
        self.ids.reserve_exact(entries);
        self.current.reserve_exact(entries);
        self.have_phase.reserve_exact(entries);
        self.count1.reserve_exact(k * entries);
        self.count2.reserve_exact(k * entries);
        self.shat1.reserve_exact(k * entries);
    }

    /// Appends ant `id`'s row, slot `s` of `planes`.
    fn push(&mut self, id: u32, planes: &SigmoidPlanes<'_>, s: usize, k: usize) {
        let row = s * k..s * k + k;
        self.ids.push(id);
        self.current.push(planes.current[s]);
        self.have_phase.push(planes.have_phase[s]);
        // Copied element-wise: rows are a few entries long, too short
        // for a `memcpy` call to pay.
        self.count1
            .extend(planes.count1[row.clone()].iter().copied());
        self.count2
            .extend(planes.count2[row.clone()].iter().copied());
        self.shat1.extend(planes.shat1[row].iter().copied());
    }

    /// Appends every row of a bank whose ants are `ids`.
    fn extend(&mut self, ids: &[u32], planes: &SigmoidPlanes<'_>) {
        self.ids.extend_from_slice(ids);
        self.current.extend_from_slice(planes.current);
        self.have_phase.extend_from_slice(planes.have_phase);
        self.count1.extend_from_slice(planes.count1);
        self.count2.extend_from_slice(planes.count2);
        self.shat1.extend_from_slice(planes.shat1);
    }

    /// Writes entry `e` into slot `s` of `planes`.
    fn write(&self, e: usize, planes: &mut SigmoidPlanesMut<'_>, s: usize, k: usize) {
        let (from, to) = (e * k..e * k + k, s * k..s * k + k);
        planes.current[s] = self.current[e];
        planes.have_phase[s] = self.have_phase[e];
        planes.count1[to.clone()].copy_from_slice(&self.count1[from.clone()]);
        planes.count2[to.clone()].copy_from_slice(&self.count2[from.clone()]);
        planes.shat1[to].copy_from_slice(&self.shat1[from]);
    }
}

/// One homogeneous sub-population: controllers plus their ant ids.
pub(crate) struct Bank {
    /// The (non-`Mix`) spec this bank runs; used for the census.
    pub spec: ControllerSpec,
    /// The controllers, in slot order.
    pub controllers: ControllerBank,
    /// Slot → global ant id, ascending.
    pub ants: Vec<u32>,
}

impl Bank {
    pub fn len(&self) -> usize {
        self.ants.len()
    }
}

/// The banked population: banks plus the stable two-way ant index.
#[derive(Default)]
pub(crate) struct Population {
    banks: Vec<Bank>,
    /// Global ant id → (bank, slot).
    index: Vec<(u32, u32)>,
    /// Mixed-colony membership machinery (`None` for homogeneous).
    mix: Option<MixMembership>,
}

/// Deterministic sub-spec assignment for `ControllerSpec::Mix`.
struct MixMembership {
    weights: Vec<f64>,
    /// Sub-seeder derived from the master seed's `MIX` stream.
    seeder: StreamSeeder,
}

impl MixMembership {
    fn new(seed: u64, weights: Vec<f64>) -> Self {
        Self {
            weights,
            seeder: mix_seeder(seed),
        }
    }

    /// The sub-spec a *spawned* ant with spawn stream id `stream` joins:
    /// one weighted draw from a stream keyed by `(master seed, stream)`,
    /// so the pick depends on nothing but checkpointed state.
    fn pick_spawn(&self, stream: u64) -> usize {
        let total: f64 = self.weights.iter().sum();
        let x = self.seeder.stream(stream).next_f64() * total;
        let mut acc = 0.0;
        for (b, &w) in self.weights.iter().enumerate() {
            acc += w;
            if x < acc {
                return b;
            }
        }
        self.weights.len() - 1
    }
}

/// The sub-seeder every mixed-membership draw derives from.
fn mix_seeder(seed: u64) -> StreamSeeder {
    StreamSeeder::new(StreamSeeder::new(seed).stream(reserved::MIX).next_u64())
}

/// Exact largest-remainder quotas: `quotas[i]` ants for weight
/// `weights[i]`, summing to `n`. Ties go to the lower index.
pub(crate) fn mix_quotas(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|&x| x.floor() as usize).collect();
    let assigned: usize = quotas.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for i in 0..n.saturating_sub(assigned) {
        quotas[order[i % order.len()]] += 1;
    }
    quotas
}

/// The set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                64 * w + b
            })
        })
    })
}

/// Where participant `p` of `workers` starts its share of a bank of
/// `len` ants: the equal split `p · len / workers` rounded up to a
/// multiple of 16 (16 `u32`s are one 64-byte line of the next-state
/// column), capped at `len`. `part_boundary(len, 1, workers)` is
/// `len.div_ceil(workers).next_multiple_of(16)`, so two participants
/// split a bank at that chunk.
fn part_boundary(len: usize, p: usize, workers: usize) -> usize {
    ((p * len).div_ceil(16 * workers) * 16).min(len)
}

/// The bank participant `p` of `workers` steps first: the banks are
/// dealt out evenly as starting points.
fn first_bank(p: usize, num_banks: usize, workers: usize) -> usize {
    p * num_banks / workers
}

/// Deterministic initial membership: bank index per global ant id.
///
/// Quotas first, then a Fisher–Yates shuffle driven by the dedicated
/// mix sub-seeder — a pure function of `(seed, weights, n)`.
pub(crate) fn mix_members(seed: u64, weights: &[f64], n: usize) -> Vec<u16> {
    let quotas = mix_quotas(weights, n);
    let mut members = Vec::with_capacity(n);
    for (b, &q) in quotas.iter().enumerate() {
        members.extend(std::iter::repeat_n(b as u16, q));
    }
    let mut rng = mix_seeder(seed).stream(reserved::INIT);
    for i in (1..members.len()).rev() {
        members.swap(i, uniform_index(&mut rng, i + 1));
    }
    members
}

impl Population {
    /// Builds the population for `spec` with ants `0..n` (tests; engines
    /// rebuild theirs in place).
    #[cfg(test)]
    pub fn build(spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) -> Self {
        let mut population = Self::default();
        population.rebuild_in(spec, seed, num_tasks, n);
        population
    }

    /// Rebuilds this population in place for `spec` with ants `0..n` —
    /// the same state whatever it held before — reusing bank and index
    /// allocations (the engine-reuse fast path for sweeps; shrink keeps
    /// capacity, grow reallocates, a changed bank kind is rebuilt).
    pub fn rebuild_in(&mut self, spec: &ControllerSpec, seed: u64, num_tasks: usize, n: usize) {
        // Membership is a pure function of (seed, weights, n); the O(n)
        // vector is transient, unlike the banks.
        let members = spec.mix_parts().map(|parts| {
            let weights: Vec<f64> = parts.iter().map(|(w, _)| *w).collect();
            mix_members(seed, &weights, n)
        });
        self.regroup(
            spec,
            seed,
            num_tasks,
            members.as_deref().unwrap_or_default(),
            n,
        );
        debug_assert!(self.check_invariants());
    }

    /// Rebuilds this population in place from checkpointed columns:
    /// membership regroups the banks, every controller is reset to its
    /// ant's assignment in `colony` (already restored), and the scratch
    /// columns are scattered back. Reuses allocations like
    /// [`Population::rebuild_in`].
    pub fn restore_in(
        &mut self,
        spec: &ControllerSpec,
        seed: u64,
        colony: &ColonyState,
        cols: &AntColumns,
    ) {
        let (k, n) = (colony.num_tasks(), colony.num_ants());
        self.regroup(spec, seed, k, &cols.members, n);
        self.reset_to_colony(colony);
        let sigmoid = &cols.sigmoid;
        let sole_bank = self.banks.iter_mut().find(|bank| bank.ants == sigmoid.ids);
        if let Some(Bank {
            controllers: ControllerBank::PreciseSigmoid(bank),
            ..
        }) = sole_bank
        {
            // One bank holds exactly the captured ants, in order: copy
            // the planes whole.
            let planes = bank.planes_mut();
            planes.current.copy_from_slice(&sigmoid.current);
            planes.have_phase.copy_from_slice(&sigmoid.have_phase);
            planes.count1.copy_from_slice(&sigmoid.count1);
            planes.count2.copy_from_slice(&sigmoid.count2);
            planes.shat1.copy_from_slice(&sigmoid.shat1);
        } else {
            for (e, &id) in sigmoid.ids.iter().enumerate() {
                match self.slot_mut(id) {
                    (ControllerBank::PreciseSigmoid(bank), s) => {
                        sigmoid.write(e, &mut bank.planes_mut(), s, k);
                    }
                    // audit:allow(panic-path): the checkpoint decoder matches every scratch entry to a bank of its kind.
                    _ => unreachable!("Precise Sigmoid scratch for another kind"),
                }
            }
        }
        for (&id, scratch) in cols.adversarial_ids.iter().zip(&cols.adversarial) {
            match self.slot_mut(id) {
                (ControllerBank::PreciseAdversarial(bank), s) => bank.apply_scratch(s, scratch),
                // audit:allow(panic-path): the checkpoint decoder matches every scratch entry to a bank of its kind.
                _ => unreachable!("Precise Adversarial scratch for another kind"),
            }
        }
        for (&id, &streak) in cols.streak_ids.iter().zip(&cols.streaks) {
            match self.slot_mut(id) {
                (ControllerBank::Proportional(bank), s) => bank.set_streak(s, streak),
                // audit:allow(panic-path): the checkpoint decoder matches every scratch entry to a bank of its kind.
                _ => unreachable!("Proportional scratch for another kind"),
            }
        }
        debug_assert!(self.check_invariants());
    }

    /// Ant `id`'s bank controllers and slot.
    fn slot_mut(&mut self, id: u32) -> (&mut ControllerBank, usize) {
        let (b, s) = self.index[id as usize];
        (&mut self.banks[b as usize].controllers, s as usize)
    }

    /// Regroups ants `0..n` into one bank per (sub-)spec — ant `i` of a
    /// mix joins bank `members[i]`, a homogeneous colony's ants all
    /// join bank 0 — and rebuilds every bank's controllers fresh for its
    /// ants, reusing allocations.
    fn regroup(
        &mut self,
        spec: &ControllerSpec,
        seed: u64,
        num_tasks: usize,
        members: &[u16],
        n: usize,
    ) {
        let parts = spec.mix_parts();
        let sub = |b: usize| parts.map_or(spec, |parts| &parts[b].1);
        let num_banks = parts.map_or(1, <[_]>::len);
        self.banks.truncate(num_banks);
        for bank in &mut self.banks {
            bank.ants.clear();
        }
        while self.banks.len() < num_banks {
            let spec = sub(self.banks.len()).clone();
            self.banks.push(Bank {
                controllers: spec.build_bank(num_tasks, &[]),
                spec,
                ants: Vec::new(),
            });
        }
        self.index.clear();
        let mut lens = vec![0u32; num_banks];
        match parts {
            Some(_) => {
                assert_eq!(members.len(), n, "one membership per ant");
                self.index.extend(members.iter().map(|&b| {
                    let len = &mut lens[usize::from(b)];
                    *len += 1;
                    (u32::from(b), *len - 1)
                }));
            }
            None => {
                self.index.extend((0..n as u32).map(|s| (0, s)));
                lens[0] = n as u32;
            }
        }
        for (bank, &len) in self.banks.iter_mut().zip(&lens) {
            bank.ants.reserve_exact(len as usize);
        }
        // Slots fill in global ant order, so each bank's ids ascend.
        for (i, &(b, _)) in self.index.iter().enumerate() {
            self.banks[b as usize].ants.push(i as u32);
        }
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let sub = sub(b);
            if bank.spec != *sub {
                bank.spec = sub.clone();
            }
            sub.rebuild_bank(num_tasks, &bank.ants, &mut bank.controllers);
        }
        self.mix =
            parts.map(|parts| MixMembership::new(seed, parts.iter().map(|(w, _)| *w).collect()));
    }

    /// Number of ants.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// The banks (census, diagnostics).
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// The bank index of every ant, in global ant order — the
    /// checkpointed representation of mixed membership.
    pub fn members(&self) -> Vec<u16> {
        self.index.iter().map(|&(b, _)| b as u16).collect()
    }

    /// Whether this population carries mixed membership.
    pub fn is_mixed(&self) -> bool {
        self.mix.is_some()
    }

    /// Steps the single ant `i` (the sequential model's round), drawing
    /// from its stream for the round keyed `round_key`.
    pub fn step_one(&mut self, i: usize, prepared: &PreparedRound, round_key: u64) -> Assignment {
        let (b, s) = self.index[i];
        let rng = &mut AntRng::keyed(round_key, i as u64);
        self.banks[b as usize]
            .controllers
            .step_slot(s as usize, prepared.view(), rng)
    }

    /// Forces every controller to its colony assignment (initial
    /// configurations, scramble/stampede perturbations).
    pub fn reset_to_colony(&mut self, colony: &ColonyState) {
        for bank in &mut self.banks {
            bank.controllers
                .reset_to_column(&bank.ants, colony.task_column());
        }
    }

    /// Persistent memory of ant `i`'s controller, in bits.
    pub fn memory_bits(&self, i: usize) -> u32 {
        let (b, _) = self.index[i];
        self.banks[b as usize].controllers.memory_bits()
    }

    /// Removes a kill event's victims in the colony's kill order: each
    /// `victims` entry is removed in turn at the id it names at that
    /// moment. Every removal mirrors the colony's swap-removal — the
    /// global last ant takes over the victim's id, unless the victim is
    /// the last ant — so the result is the one a sequence of per-ant
    /// swap-removals gives, but every bank keeps its ids ascending.
    ///
    /// The removals touch only the two maps, O(1) each: the victim's
    /// bank slot is marked dead in a bitmap and the relocated ant
    /// relabelled in place. Only ants with ids at or past `len` are
    /// relocated, and they sit at the end of their banks (the *tail*).
    /// Once the banks ascend again, an ant's slot is its rank among its
    /// bank's ids, so one pass over the index in id order writes every
    /// new slot and meets the relocated ants in the order they rejoin
    /// their banks. One [`SlotMap`] per bank then keeps the live slots
    /// before the tail in order and drops each relocated ant in at its
    /// new slot — into a dead slot when one is there, as it always is in
    /// a one-bank colony. Applied as run copies to the controller
    /// columns and ids, it costs at most about one `memmove` of the
    /// bank.
    pub fn remove_batch(&mut self, victims: &[usize]) {
        if victims.is_empty() {
            return;
        }
        let len = self.index.len() - victims.len();
        let tails: Vec<usize> = (self.banks.iter())
            .map(|bank| bank.ants.partition_point(|&id| (id as usize) < len))
            .collect();
        // The dead slots before each bank's tail.
        let mut dead: Vec<Vec<u64>> = tails.iter().map(|&t| vec![0; t.div_ceil(64)]).collect();
        for &victim in victims {
            let last = self.index.len() - 1;
            let (b, s) = self.index[victim];
            let (b, s) = (b as usize, s as usize);
            if s < tails[b] {
                dead[b][s / 64] |= 1 << (s % 64);
            }
            let home = self.index[last];
            self.index.pop();
            if victim != last {
                self.index[victim] = home;
                self.banks[home.0 as usize].ants[home.1 as usize] = victim as u32;
            }
        }
        // (new slot, old slot) of each bank's relocated ants, ascending.
        let mut lifted: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.banks.len()];
        let mut ranks = vec![0usize; self.banks.len()];
        for (b, s) in &mut self.index {
            let (bank, rank) = (*b as usize, ranks[*b as usize]);
            if *s as usize >= tails[bank] {
                lifted[bank].push((rank, *s as usize));
            }
            *s = rank as u32;
            ranks[bank] = rank + 1;
        }
        let mut map = SlotMap::default();
        let banks = self.banks.iter_mut().zip(tails).zip(&dead);
        for (((bank, tail), dead), lifted) in banks.zip(&lifted) {
            map.clear();
            let mut dead_slots = set_bits(dead);
            let mut next_dead = || dead_slots.next().unwrap_or(tail);
            // Old slot, new slot, and the first dead slot at or past `at`.
            let (mut at, mut next, mut dead) = (0, 0, next_dead());
            for &(to, from) in lifted {
                while next < to {
                    let n = (dead - at).min(to - next);
                    map.keep(at, n);
                    (at, next) = (at + n, next + n);
                    if at == dead && next < to {
                        at += 1;
                        dead = next_dead();
                    }
                }
                if at == dead && dead < tail {
                    map.fill(at, from);
                    at += 1;
                    dead = next_dead();
                } else {
                    map.lift(from);
                }
                next += 1;
            }
            loop {
                map.keep(at, dead - at);
                if dead == tail {
                    break;
                }
                at = dead + 1;
                dead = next_dead();
            }
            map.finish();
            bank.controllers.apply_slot_map(&map);
            map.apply(&mut bank.ants);
        }
        debug_assert!(self.check_invariants());
    }

    /// Removes the ant with global id `victim` by swap-removal in its
    /// bank and in global ids — the per-kill removal
    /// [`Population::remove_batch`] replaced, kept as its reference. It
    /// leaves the bank out of id order.
    #[cfg(test)]
    fn remove(&mut self, victim: usize) {
        let last = self.index.len() - 1;
        let (b, s) = self.index[victim];
        let (b, s) = (b as usize, s as usize);
        let bank = &mut self.banks[b];
        let map = SlotMap::swap_remove(bank.len(), s);
        bank.controllers.apply_slot_map(&map);
        bank.ants.swap_remove(s);
        if s < bank.ants.len() {
            // The bank's last ant moved into slot `s`.
            self.index[bank.ants[s] as usize] = (b as u32, s as u32);
        }
        if victim != last {
            let home = self.index[last];
            self.index[victim] = home;
            self.banks[home.0 as usize].ants[home.1 as usize] = victim as u32;
        }
        self.index.pop();
    }

    /// Appends a freshly spawned ant (global id `len()`) with spawn
    /// stream id `stream`. Homogeneous colonies spawn into their single
    /// bank; mixes draw the sub-spec deterministically from `stream`.
    pub fn spawn(&mut self, stream: u64) {
        let b = match &self.mix {
            None => 0,
            Some(mix) => mix.pick_spawn(stream),
        };
        let id = self.index.len() as u32;
        let bank = &mut self.banks[b];
        // A fresh slot in the bank's columns (desync spawns get offset
        // 0, matching the pre-bank engines).
        bank.controllers.push_fresh();
        self.index.push((b as u32, bank.ants.len() as u32));
        bank.ants.push(id);
        debug_assert!(self.check_invariants());
    }

    /// The population's checkpointed columns over `num_tasks` tasks
    /// (see [`AntColumns`]).
    pub fn capture(&self, num_tasks: usize) -> AntColumns {
        let mut cols = AntColumns::default();
        if self.is_mixed() {
            cols.members = self.members();
        }
        // Each kind's rows ascend by ant id. A kind living in one bank
        // copies that bank's planes whole, since its ants ascend; a kind
        // spread over several banks takes one branch-free pass over the
        // index that picks its ants in id order, and their rows are
        // gathered. The pass compares plain bytes: comparing `Option`s
        // branched, and mispredicted, once per ant.
        let kinds: Vec<u8> = self
            .banks
            .iter()
            .map(|bank| scratch_kind(&bank.controllers).unwrap_or(u8::MAX))
            .collect();
        for kind in [TAG_SIGMOID, TAG_ADVERSARIAL, TAG_STREAK] {
            let banks: Vec<&Bank> = (self.banks.iter().zip(&kinds))
                .filter(|&(_, &of)| of == kind)
                .map(|(bank, _)| bank)
                .collect();
            match banks[..] {
                [] => continue,
                [bank] => {
                    debug_assert!(bank.ants.is_sorted());
                    cols.capture_bank(bank);
                    continue;
                }
                _ => {}
            }
            let len: usize = banks.iter().map(|bank| bank.len()).sum();
            if kind == TAG_SIGMOID {
                cols.sigmoid.reserve(len, num_tasks);
            }
            // Every ant is written at the cursor, which moves past picks
            // only, so one spare slot suffices.
            let mut picks = vec![(0, 0, 0); len + 1];
            let mut end = 0;
            for (id, &(b, s)) in self.index.iter().enumerate() {
                picks[end] = (id as u32, b, s);
                end += usize::from(kinds[b as usize] == kind);
            }
            for &(id, b, s) in &picks[..end] {
                cols.capture_row(&self.banks[b as usize], id, s as usize, num_tasks);
            }
        }
        cols
    }

    /// Every ant's mid-phase scratch through the per-slot accessor, in
    /// global ant order (the reference the columnar capture is tested
    /// against).
    #[cfg(test)]
    pub fn scratches(&self) -> Vec<(u32, antalloc_core::ControllerScratch)> {
        self.index
            .iter()
            .enumerate()
            .filter_map(|(i, &(b, s))| {
                let scratch = self.banks[b as usize].controllers.scratch(s as usize)?;
                Some((i as u32, scratch))
            })
            .collect()
    }

    /// Clones every controller into the per-ant dispatch enum, in
    /// global ant order — the reference representation the bank
    /// equivalence tests and the pre-bank baseline replay use.
    pub fn reference_controllers(&self) -> Vec<AnyController> {
        self.index
            .iter()
            .map(|&(b, s)| self.banks[b as usize].controllers.to_any(s as usize))
            .collect()
    }

    /// Splits the whole population into `workers` disjoint parts, each
    /// holding an equal share of *every* bank: participant `p` takes
    /// slots `[b(p), b(p + 1))` of a bank of `len` ants, where `b(p)`
    /// is `p · len / workers` rounded up to a 16-ant block and capped at
    /// `len` (see [`part_boundary`]). Each part is a list of
    /// (controller chunk, global-id chunk) pairs; the round driver hands
    /// one part to each participant for a whole scope.
    ///
    /// Each part lists its pairs starting from a different bank
    /// (participant `p` from bank `⌊p · banks / workers⌋`, wrapping
    /// around), so participants step different kinds at the same
    /// moment: on a 2-vCPU host, two participants stepping the same
    /// kind in lockstep each ran ~20% slower per round.
    ///
    /// Per-bank shares keep every participant's mix of kinds — and so
    /// its per-round cost — equal, and each share is within one block
    /// of `len / workers`. Every bank's slots ascend by id, so a
    /// homogeneous colony's participants write contiguous stretches of
    /// the next-state column, and a mix's participants, whose banks
    /// interleave over shuffled members, write mostly, not strictly,
    /// separate stretches — before and after any number of kills.
    /// Parts of a bank smaller than `16 · workers` may be empty.
    pub fn partition_mut(&mut self, workers: usize) -> Vec<WorkerPart<'_>> {
        assert!(workers >= 1);
        let num_banks = self.banks.len();
        let mut parts: Vec<WorkerPart<'_>> = (0..workers)
            .map(|_| Vec::with_capacity(num_banks))
            .collect();
        // Pairs of banks before participant `p`'s first bank, rotated to
        // the back of its list below.
        let mut lead = vec![0usize; workers];
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let len = bank.len();
            let mut slice = bank.controllers.as_slice_mut();
            let mut ids: &[u32] = &bank.ants;
            let mut from = 0;
            for (p, part) in parts.iter_mut().enumerate() {
                let to = part_boundary(len, p + 1, workers);
                if to == from {
                    continue;
                }
                let (head, tail) = slice.split_at_mut(to - from);
                let (id_head, id_tail) = ids.split_at(to - from);
                part.push((head, id_head));
                lead[p] += usize::from(b < first_bank(p, num_banks, workers));
                slice = tail;
                ids = id_tail;
                from = to;
            }
        }
        for (part, lead) in parts.iter_mut().zip(lead) {
            part.rotate_left(lead);
        }
        parts
    }

    /// Full invariant check (debug asserts and tests).
    pub fn check_invariants(&self) -> bool {
        if self.index.len() != self.banks.iter().map(Bank::len).sum::<usize>() {
            return false;
        }
        for (b, bank) in self.banks.iter().enumerate() {
            if bank.controllers.len() != bank.ants.len() {
                return false;
            }
            if !bank.ants.is_sorted_by(|a, b| a < b) {
                return false;
            }
            for (s, &id) in bank.ants.iter().enumerate() {
                if self.index.get(id as usize) != Some(&(b as u32, s as u32)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_core::{AntParams, ControllerScratch, PreciseSigmoidParams, ProportionalParams};
    use antalloc_env::{DemandVector, Perturbation};
    use antalloc_noise::NoiseModel;

    /// A population over an explicit membership vector.
    fn from_members(spec: &ControllerSpec, seed: u64, k: usize, members: &[u16]) -> Population {
        let mut p = Population::build(spec, seed, k, 0);
        p.regroup(spec, seed, k, members, members.len());
        p
    }

    fn mix_spec() -> ControllerSpec {
        ControllerSpec::Mix(vec![
            (2.0, ControllerSpec::Ant(AntParams::default())),
            (1.0, ControllerSpec::Trivial),
            (1.0, ControllerSpec::ExactGreedy(Default::default())),
        ])
    }

    #[test]
    fn quotas_are_exact_largest_remainder() {
        assert_eq!(mix_quotas(&[2.0, 1.0, 1.0], 100), vec![50, 25, 25]);
        assert_eq!(mix_quotas(&[1.0, 1.0, 1.0], 10), vec![4, 3, 3]);
        assert_eq!(mix_quotas(&[1.0], 7), vec![7]);
        let q = mix_quotas(&[0.7, 0.2, 0.1], 9);
        assert_eq!(q.iter().sum::<usize>(), 9);
    }

    #[test]
    fn membership_is_deterministic_and_matches_quotas() {
        let a = mix_members(7, &[2.0, 1.0, 1.0], 200);
        let b = mix_members(7, &[2.0, 1.0, 1.0], 200);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&m| m == 0).count(), 100);
        assert_eq!(a.iter().filter(|&&m| m == 1).count(), 50);
        // A different seed shuffles differently.
        assert_ne!(a, mix_members(8, &[2.0, 1.0, 1.0], 200));
        // ... but not sorted: the shuffle interleaves.
        assert!(a.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn build_upholds_invariants_through_kill_and_spawn() {
        let spec = mix_spec();
        let mut p = Population::build(&spec, 3, 2, 40);
        assert!(p.check_invariants());
        assert_eq!(p.banks().len(), 3);
        assert_eq!(p.len(), 40);
        // Kill a few ants from the middle and the end.
        p.remove_batch(&[5, 30, 37]);
        assert_eq!(p.len(), 37);
        assert!(p.check_invariants());
        // Spawn back; membership picks stay in range.
        for stream in 40..45u64 {
            p.spawn(stream);
        }
        assert_eq!(p.len(), 42);
        assert!(p.check_invariants());
    }

    #[test]
    fn invariants_reject_a_bank_out_of_id_order() {
        let mut p = Population::build(&ControllerSpec::Trivial, 1, 2, 4);
        assert!(p.check_invariants());
        // The two maps stay mutual inverses; only the order breaks.
        p.banks[0].ants.swap(1, 2);
        p.index.swap(1, 2);
        assert!(!p.check_invariants());
    }

    /// Partitions a population whose bank `b` holds `sizes[b]` ants
    /// into `workers` parts and checks that every ant lands in exactly
    /// one part and that each part's share of every bank is within one
    /// 16-ant block of `sizes[b] / workers`.
    fn check_partition(sizes: &[usize], workers: usize) {
        let spec = ControllerSpec::Mix(
            sizes
                .iter()
                .map(|_| (1.0, ControllerSpec::Ant(AntParams::default())))
                .collect(),
        );
        let mut members: Vec<u16> = Vec::new();
        for (b, &len) in sizes.iter().enumerate() {
            members.extend(std::iter::repeat_n(b as u16, len));
        }
        // Interleave the banks like a real mix.
        let mut rng = StreamSeeder::new(9).stream(0);
        for i in (1..members.len()).rev() {
            members.swap(i, uniform_index(&mut rng, i + 1));
        }
        let n = members.len();
        let mut p = from_members(&spec, 1, 2, &members);
        let parts = p.partition_mut(workers);
        assert_eq!(parts.len(), workers);
        let mut seen = vec![0u32; n];
        for (w, part) in parts.iter().enumerate() {
            // Participants start on different banks where they can.
            let first = first_bank(w, sizes.len(), workers);
            if let Some((_, ids)) = part.first() {
                let bank = members[ids[0] as usize] as usize;
                assert!(
                    bank == first
                        || part_boundary(sizes[first], w + 1, workers)
                            == part_boundary(sizes[first], w, workers)
                );
            }
            let mut share = vec![0usize; sizes.len()];
            for (slice, ids) in part {
                assert!(!ids.is_empty(), "empty pair in part {w}");
                assert_eq!(slice.len(), ids.len());
                for &id in *ids {
                    seen[id as usize] += 1;
                    share[members[id as usize] as usize] += 1;
                }
            }
            for (b, (&got, &len)) in share.iter().zip(sizes).enumerate() {
                let equal = len as f64 / workers as f64;
                assert!(
                    (got as f64 - equal).abs() < 16.0,
                    "sizes {sizes:?}, {workers} parts: part {w} got {got} of bank {b}"
                );
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "sizes {sizes:?}, {workers} parts"
        );
    }

    #[test]
    fn partition_edge_cases() {
        check_partition(&[0, 0, 0], 3); // no ants at all
        check_partition(&[0, 500, 0, 77], 4); // empty banks
        check_partition(&[5, 17, 31, 40], 4); // every bank < 16 · P
        check_partition(&[1, 2], 8); // P > n
        check_partition(&[1000], 8); // one 16-ant block of drift per part
    }

    #[test]
    fn homogeneous_two_way_split_is_one_rounded_half() {
        for n in [0, 1, 15, 16, 17, 33, 1000, 200_001] {
            let mut p = Population::build(&ControllerSpec::Trivial, 1, 2, n);
            let parts = p.partition_mut(2);
            let first: usize = parts[0].iter().map(|(_, ids)| ids.len()).sum();
            assert_eq!(first, n.div_ceil(2).next_multiple_of(16).min(n), "n = {n}");
            // A homogeneous colony's slots are its ids: contiguous halves.
            let ids: Vec<u32> = parts
                .iter()
                .flat_map(|part| part.iter().flat_map(|(_, ids)| ids.iter().copied()))
                .collect();
            assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        }
    }

    proptest::proptest! {
        #[test]
        fn partition_covers_every_ant_once_with_balanced_bank_shares(
            sizes in proptest::collection::vec(0usize..700, 1..5),
            workers in 1usize..10,
        ) {
            check_partition(&sizes, workers);
        }
    }

    /// Global id → (bank, controller scratch, assignment).
    type AntMap = Vec<(u32, Option<ControllerScratch>, Assignment)>;

    fn ant_map(p: &Population) -> AntMap {
        (p.index.iter())
            .map(|&(b, s)| {
                let controllers = &p.banks[b as usize].controllers;
                let s = s as usize;
                (b, controllers.scratch(s), controllers.assignment(s))
            })
            .collect()
    }

    /// Puts every bank of `p` back in id order by a plain gather through
    /// the per-ant controllers, leaving the id → ant map as it was.
    fn sort_banks(p: &mut Population) {
        for (b, bank) in p.banks.iter_mut().enumerate() {
            if bank.ants.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..bank.len()).collect();
            order.sort_by_key(|&s| bank.ants[s]);
            bank.controllers = order.iter().map(|&s| bank.controllers.to_any(s)).collect();
            bank.ants = order.iter().map(|&s| bank.ants[s]).collect();
            for (s, &id) in bank.ants.iter().enumerate() {
                p.index[id as usize] = (b as u32, s as u32);
            }
        }
    }

    /// A homogeneous colony, the benchmark's four-kind mix, and a mix
    /// with two banks of one kind.
    fn kill_spec(which: usize) -> ControllerSpec {
        let sigmoid = ControllerSpec::PreciseSigmoid(PreciseSigmoidParams::new(0.05, 0.5));
        let proportional = ControllerSpec::Proportional(ProportionalParams::default());
        match which {
            0 => sigmoid,
            1 => ControllerSpec::Mix(vec![
                (1.0, ControllerSpec::Ant(AntParams::default())),
                (1.0, sigmoid),
                (1.0, proportional),
                (1.0, ControllerSpec::ExactGreedy(Default::default())),
            ]),
            _ => ControllerSpec::Mix(vec![
                (1.0, sigmoid.clone()),
                (1.0, proportional),
                (1.0, sigmoid),
            ]),
        }
    }

    proptest::proptest! {
        /// Over random kill, spawn, scramble and step sequences, one
        /// `remove_batch` per kill event leaves every global id with the
        /// bank, scratch and assignment that the per-kill swap-removals
        /// give, and keeps every bank in id order.
        #[test]
        fn remove_batch_matches_sequential_swap_removal(
            which in 0usize..3,
            n in 2usize..300,
            seed: u64,
            events in proptest::collection::vec((0usize..4, 0usize..1000), 1..12),
        ) {
            let (spec, k) = (kill_spec(which), 3);
            let mut batch = Population::build(&spec, seed, k, n);
            let mut reference = Population::build(&spec, seed, k, n);
            let demands = DemandVector::new(vec![(n / 6) as u64 + 1; k]);
            let mut colony = ColonyState::new(n, demands);
            let seeder = StreamSeeder::new(seed);
            let mut rng = seeder.stream(reserved::EVENT);
            let mut next_stream = n as u64;
            let noise = NoiseModel::Sigmoid { lambda: 0.5 };
            let mut deficits = Vec::new();
            for (round, &(kind, size)) in events.iter().enumerate() {
                match kind {
                    0 => {
                        let count = size % colony.num_ants();
                        let victims = Perturbation::KillRandom { count }.apply(&mut colony, &mut rng);
                        batch.remove_batch(&victims);
                        for &victim in &victims {
                            reference.remove(victim);
                        }
                        sort_banks(&mut reference);
                    }
                    1 => {
                        let count = size % 64;
                        Perturbation::Spawn { count }.apply(&mut colony, &mut rng);
                        for _ in 0..count {
                            batch.spawn(next_stream);
                            reference.spawn(next_stream);
                            next_stream += 1;
                        }
                    }
                    2 => {
                        Perturbation::Scramble.apply(&mut colony, &mut rng);
                        batch.reset_to_colony(&colony);
                        reference.reset_to_colony(&colony);
                    }
                    _ => {
                        colony.deficits_into(&mut deficits);
                        let prepared =
                            noise.prepare(round as u64, &deficits, colony.demands().as_slice());
                        let key = seeder.round_key(round as u64);
                        for i in 0..colony.num_ants() {
                            let a = batch.step_one(i, &prepared, key);
                            proptest::prop_assert_eq!(a, reference.step_one(i, &prepared, key));
                            colony.apply(i, a);
                        }
                    }
                }
                proptest::prop_assert!(batch.check_invariants(), "event {}", round);
                proptest::prop_assert_eq!(ant_map(&batch), ant_map(&reference), "event {}", round);
            }
        }
    }

    #[test]
    fn members_roundtrip_through_from_members() {
        let spec = mix_spec();
        let p = Population::build(&spec, 11, 2, 30);
        let members = p.members();
        let q = from_members(&spec, 11, 2, &members);
        assert_eq!(q.members(), members);
        assert!(q.check_invariants());
    }
}
