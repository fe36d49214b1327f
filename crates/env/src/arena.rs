//! Spatial arenas: tasks pinned at sites, demand sensed locally.
//!
//! The paper's model is *well-mixed*: every ant samples the feedback of
//! every task every round. An [`ArenaConfig`] breaks that assumption
//! spatially — tasks are pinned to sites, an ant standing at site `s`
//! senses real feedback only for the tasks at `s` (everything else reads
//! as a saturated `Overload`, so no kernel ever joins a task it cannot
//! see), and idle ants drift between sites via a per-round wander coin
//! with a travel latency during which they sense nothing.
//!
//! The config is pure data. Where each ant stands lives in the per-id
//! [`Positions`] columns, next to the colony's task column and under the
//! same ownership rule: within a round, only the participant stepping an
//! ant touches its slots. An [`ArenaRound`] is one round's sensing and
//! movement over them: the fused kernel driver reads each ant's sense
//! row from its slots, steps it, and then moves it, all in one pass.
//! Two structural guarantees make the mode safe to layer under the
//! existing kernels:
//!
//! * Masked tasks are [`Fixed`](antalloc_noise::TaskFeedback::Fixed)
//!   feedback and consume **zero** RNG draws, so an ant's stream
//!   position depends only on its own decisions, never on where it
//!   stands — the bit-identity contract (serial == parallel ==
//!   checkpoint-restore) extends unchanged.
//! * A single-site arena with zero travel latency degenerates to the
//!   shared well-mixed view: every task is local, wandering has nowhere
//!   to go, and engines skip the sense-row indirection entirely, so the
//!   run is bit-identical to the same scenario without an arena.

use core::sync::atomic::{AtomicU16, AtomicU32, Ordering};

use antalloc_noise::{PreparedRound, RoundView};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

/// Static geometry of a spatial arena.
///
/// Sites are dense indices `0..num_sites`; `site_of_task[j]` pins task
/// `j` to its site. Movement is modeled coarsely: each round, right
/// after its decision, every *idle, non-traveling* ant flips a
/// `wander_probability` coin (ant `id` draws from its own stream for the
/// round, keyed under the reserved `ARENA` stream) and, on success,
/// departs for a uniformly chosen *other* site, arriving
/// `travel_rounds` rounds later. Working ants stay put —
/// they are at their task's site by construction — and travelers sense
/// all-`Overload` (they see no task, so every kernel keeps them idle
/// without consuming draws).
#[derive(Clone, Debug, PartialEq)]
pub struct ArenaConfig {
    /// Site of each task: `site_of_task[j]` is where task `j` lives.
    /// Length `k`; site ids must cover `0..num_sites` densely.
    pub site_of_task: Vec<u32>,
    /// Rounds an ant spends in transit between sites (0 = instant).
    pub travel_rounds: u32,
    /// Per-round probability that an idle, settled ant departs for a
    /// random other site. Must be in `[0, 1]`; 0 freezes everyone at
    /// their initial site.
    pub wander_probability: f64,
}

impl ArenaConfig {
    /// A single-site arena over `k` tasks — the well-mixed degenerate
    /// case (engines detect it and skip the sensing indirection).
    pub fn single_site(k: usize) -> Self {
        Self {
            site_of_task: vec![0; k],
            travel_rounds: 0,
            wander_probability: 0.0,
        }
    }

    /// Number of sites (`max(site_of_task) + 1`; 0 for no tasks).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.site_of_task
            .iter()
            .max()
            // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
            .map_or(0, |&m| m as usize + 1)
    }

    /// Whether every ant sees every task — the degenerate geometry
    /// engines compile down to the shared well-mixed view.
    #[inline]
    pub fn is_single_site(&self) -> bool {
        self.num_sites() <= 1
    }

    /// Site of task `j`.
    #[inline]
    pub fn site_of(&self, j: usize) -> u32 {
        self.site_of_task[j]
    }

    /// Checks the geometry against a colony with `num_tasks` tasks:
    /// one site per task, dense site ids (every site hosts at least one
    /// task), and a wander probability that is a probability.
    pub fn validate(&self, num_tasks: usize) -> Result<(), String> {
        if self.site_of_task.len() != num_tasks {
            return Err(format!(
                "arena pins {} tasks, colony has {num_tasks}",
                self.site_of_task.len()
            ));
        }
        let num_sites = self.num_sites();
        let mut seen = vec![false; num_sites];
        for &s in &self.site_of_task {
            // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets).
            seen[s as usize] = true;
        }
        if let Some(hole) = seen.iter().position(|&s| !s) {
            return Err(format!(
                "site ids must be dense: site {hole} hosts no task (max site id is {})",
                num_sites - 1
            ));
        }
        if !self.wander_probability.is_finite() || !(0.0..=1.0).contains(&self.wander_probability) {
            return Err(format!(
                "wander probability {} is not in [0, 1]",
                self.wander_probability
            ));
        }
        Ok(())
    }
}

/// Narrows a site index. Validation bounds site counts by the task
/// count, at most `MAX_TASKS` = 4096, so no site index truncates.
#[inline(always)]
fn site16(site: usize) -> u16 {
    debug_assert!(site < usize::from(u16::MAX), "site {site} past u16");
    // audit:allow(cast): site indices are < the validated task count, at most MAX_TASKS = 4096 < 2^16.
    site as u16
}

/// Converts an ant id to a column index.
#[inline(always)]
fn ix(id: u32) -> usize {
    id as usize // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets)
}

/// Where one ant stands: its site (its destination while traveling)
/// and the rounds of transit it has left (0 = settled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Position {
    site: u16,
    travel: u32,
}

impl Position {
    /// The ant's site, or its destination while traveling.
    #[inline]
    pub fn site(self) -> u16 {
        self.site
    }

    /// Rounds of transit left; 0 once settled.
    #[inline]
    pub fn travel(self) -> u32 {
        self.travel
    }
}

/// Per-id arena position columns: one `u16` site and one `u32` travel
/// counter per ant, indexed by colony id like the
/// [`crate::TaskColumn`].
///
/// Slots are atomics only so that scoped workers can move disjoint ants
/// of a shared table without `unsafe`; all per-round accesses are
/// `Relaxed` (each ant has one owner within a round, and the engine's
/// barriers provide the cross-thread ordering). Structural changes
/// (spawn, kill, restore) take `&mut self` in the engine's exclusive
/// window. Every writer keeps sites below the arena's site count: the
/// engine's home site, [`Positions::settle`]'s task site, the wander
/// pick, and a checkpoint decode that checks them.
#[derive(Debug, Default)]
pub struct Positions {
    site: Vec<AtomicU16>,
    travel: Vec<AtomicU32>,
}

impl Positions {
    /// Number of ants.
    #[inline]
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// True iff the table holds no ant.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }

    /// Drops every ant, keeping the allocations.
    pub fn clear(&mut self) {
        self.site.clear();
        self.travel.clear();
    }

    /// Keeps the first `n` ants.
    pub fn truncate(&mut self, n: usize) {
        self.site.truncate(n);
        self.travel.truncate(n);
    }

    /// Reserves room for `n` more ants.
    pub fn reserve(&mut self, n: usize) {
        self.site.reserve(n);
        self.travel.reserve(n);
    }

    /// Overwrites the table with one ant per `site` and `travel` entry,
    /// reusing the allocations (a checkpoint restore). Sites must be
    /// below the arena's site count.
    pub fn assign(&mut self, site: &[u16], travel: &[u32]) {
        debug_assert_eq!(site.len(), travel.len());
        self.clear();
        self.site.extend(site.iter().map(|&s| AtomicU16::new(s)));
        self.travel
            .extend(travel.iter().map(|&t| AtomicU32::new(t)));
    }

    /// Appends an ant at `site` with `travel` rounds of transit left.
    pub fn push(&mut self, site: usize, travel: u32) {
        self.site.push(AtomicU16::new(site16(site)));
        self.travel.push(AtomicU32::new(travel));
    }

    /// Swap-removes ant `i` (mirrors `Vec::swap_remove`: the last ant
    /// takes its id).
    pub fn swap_remove(&mut self, i: usize) {
        self.site.swap_remove(i);
        self.travel.swap_remove(i);
    }

    /// Puts ant `i` at `site`, settled.
    pub fn settle(&mut self, i: usize, site: usize) {
        *self.site[i].get_mut() = site16(site);
        *self.travel[i].get_mut() = 0;
    }

    /// Ant `id`'s position.
    #[inline(always)]
    pub fn get(&self, id: u32) -> Position {
        Position {
            site: self.site[ix(id)].load(Ordering::Relaxed),
            travel: self.travel[ix(id)].load(Ordering::Relaxed),
        }
    }

    /// Every ant's site, in id order.
    pub fn sites(&self) -> impl Iterator<Item = u16> + '_ {
        self.site.iter().map(|s| s.load(Ordering::Relaxed))
    }

    /// Every ant's remaining transit, in id order.
    pub fn travels(&self) -> impl Iterator<Item = u32> + '_ {
        self.travel.iter().map(|t| t.load(Ordering::Relaxed))
    }
}

/// One round of arena sensing and movement, handed to the fused kernel
/// driver: for each ant it steps, the driver takes the ant's
/// [`ArenaRound::sense`] view, steps it, writes its next assignment and
/// then calls [`ArenaRound::advance`] — every participant moves its own
/// ants in the pass that steps them.
///
/// Ant `id`'s wander coin and destination in round `t` come from
/// `AntRng::keyed(key, id)`, `key` being the arena's key for `t`: a
/// pure function of `(seed, round, id)`, so a move depends neither on
/// which participant makes it nor on any other ant.
#[derive(Clone, Copy, Debug)]
pub struct ArenaRound<'a> {
    prepared: &'a PreparedRound,
    positions: &'a Positions,
    key: u64,
    coin: Bernoulli,
    travel_rounds: u32,
    /// Site count; also the blind row's index.
    sites: u16,
}

impl<'a> ArenaRound<'a> {
    /// The round `prepared` describes over `positions`, for an arena of
    /// geometry `config` whose movement key for this round is `key`.
    /// `prepared` must carry `config`'s site rows
    /// ([`PreparedRound::localize`]). With a single site there is no
    /// other site to wander to, so nobody departs.
    pub fn new(
        config: &ArenaConfig,
        positions: &'a Positions,
        prepared: &'a PreparedRound,
        key: u64,
    ) -> Self {
        let sites = config.num_sites();
        let p = if sites > 1 {
            config.wander_probability
        } else {
            0.0
        };
        Self {
            prepared,
            positions,
            key,
            coin: Bernoulli::new(p),
            travel_rounds: config.travel_rounds,
            sites: site16(sites),
        }
    }

    /// The round being stepped.
    #[inline]
    pub fn round(&self) -> u64 {
        self.prepared.round()
    }

    /// Ant `id`'s position at the start of its step, and the view it
    /// senses from there: its site's row once settled, the blind row
    /// while traveling.
    #[inline(always)]
    pub fn sense(&self, id: u32) -> (Position, RoundView<'a>) {
        let at = self.positions.get(id);
        let row = if at.travel > 0 { self.sites } else { at.site };
        (at, self.prepared.site_view(usize::from(row)))
    }

    /// Moves ant `id`, which stood at `from` and has just decided: its
    /// travel counter ticks down, and if it is now settled and `idle`
    /// it flips the wander coin and, on success, departs for a
    /// uniformly chosen other site, `travel_rounds` away. Writes only
    /// the slots that change.
    #[inline(always)]
    pub fn advance(&self, id: u32, from: Position, idle: bool) {
        let travel = from.travel.saturating_sub(1);
        if travel == 0 && idle && !self.coin.never() {
            let mut rng = AntRng::keyed(self.key, id.into());
            if self.coin.sample(&mut rng) {
                let pick = site16(uniform_index(&mut rng, usize::from(self.sites) - 1));
                let site = pick + u16::from(pick >= from.site);
                self.positions.site[ix(id)].store(site, Ordering::Relaxed);
                self.positions.travel[ix(id)].store(self.travel_rounds, Ordering::Relaxed);
                return;
            }
        }
        if travel != from.travel {
            self.positions.travel[ix(id)].store(travel, Ordering::Relaxed);
        }
    }
}

/// One round as the colony senses it, handed to the fused kernel driver.
#[derive(Clone, Copy, Debug)]
pub enum SensedRound<'a> {
    /// Well-mixed: every ant senses the one view, and nobody moves.
    Shared(RoundView<'a>),
    /// Spatial: each ant senses its site's row and moves after its step.
    Arena(ArenaRound<'a>),
}

impl SensedRound<'_> {
    /// The round being stepped.
    #[inline]
    pub fn round(&self) -> u64 {
        match self {
            SensedRound::Shared(view) => view.round(),
            SensedRound::Arena(arena) => arena.round(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_follow_push_remove_and_settle() {
        let mut p = Positions::default();
        assert!(p.is_empty());
        for (site, travel) in [(0, 0), (1, 2), (2, 0)] {
            p.push(site, travel);
        }
        assert_eq!(p.get(1), Position { site: 1, travel: 2 });
        p.swap_remove(0); // the last ant takes id 0
        assert_eq!(p.sites().collect::<Vec<_>>(), vec![2, 1]);
        p.settle(1, 0);
        assert_eq!(p.get(1), Position { site: 0, travel: 0 });
        p.truncate(1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.travels().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn a_move_ticks_then_departs_only_idle_settled_ants() {
        let config = ArenaConfig {
            site_of_task: vec![0, 1, 2],
            travel_rounds: 4,
            wander_probability: 1.0,
        };
        let mut prepared = antalloc_noise::NoiseModel::Exact.prepare(1, &[1; 3], &[5; 3]);
        prepared.localize(&config.site_of_task);
        let mut positions = Positions::default();
        // Settled idle, settled working, arriving idle, in transit.
        for (site, travel) in [(1, 0), (1, 0), (2, 1), (0, 3)] {
            positions.push(site, travel);
        }
        let round = ArenaRound::new(&config, &positions, &prepared, 7);
        let moves: Vec<(Position, Position)> = (0..4)
            .map(|id| {
                let (from, view) = round.sense(id);
                // Settled ants sense their site's task, travelers nothing.
                let lacks = (0..3)
                    .filter(|&j| view.sample(j, &mut AntRng::seed_from_u64(0)).is_lack())
                    .count();
                assert_eq!(lacks, usize::from(from.travel == 0), "ant {id}");
                round.advance(id, from, id != 1);
                (from, positions.get(id))
            })
            .collect();
        for (id, &(from, to)) in moves.iter().enumerate() {
            match id {
                // p = 1: idle ants settled after the tick depart elsewhere.
                0 | 2 => {
                    assert_ne!(to.site, from.site, "ant {id}");
                    assert_eq!(to.travel, 4, "ant {id}");
                }
                // Working ants stay; travelers only tick.
                1 => assert_eq!(to, from),
                _ => assert_eq!(to, Position { site: 0, travel: 2 }),
            }
        }
    }

    #[test]
    fn a_single_site_round_moves_nobody() {
        let config = ArenaConfig {
            wander_probability: 1.0,
            ..ArenaConfig::single_site(2)
        };
        let mut prepared = antalloc_noise::NoiseModel::Exact.prepare(1, &[1; 2], &[5; 2]);
        prepared.localize(&config.site_of_task);
        let mut positions = Positions::default();
        positions.push(0, 0);
        let round = ArenaRound::new(&config, &positions, &prepared, 7);
        let (from, _) = round.sense(0);
        round.advance(0, from, true);
        assert_eq!(positions.get(0), from);
    }

    #[test]
    fn single_site_is_degenerate() {
        let a = ArenaConfig::single_site(3);
        assert_eq!(a.num_sites(), 1);
        assert!(a.is_single_site());
        assert!(a.validate(3).is_ok());
    }

    #[test]
    fn num_sites_and_site_of() {
        let a = ArenaConfig {
            site_of_task: vec![1, 0, 1, 2],
            travel_rounds: 3,
            wander_probability: 0.05,
        };
        assert_eq!(a.num_sites(), 3);
        assert!(!a.is_single_site());
        assert_eq!(a.site_of(0), 1);
        assert_eq!(a.site_of(3), 2);
        assert!(a.validate(4).is_ok());
    }

    #[test]
    fn validation_catches_each_defect() {
        let base = ArenaConfig {
            site_of_task: vec![0, 1],
            travel_rounds: 0,
            wander_probability: 0.1,
        };
        assert!(base.validate(2).is_ok());
        // Length mismatch.
        assert!(base.validate(3).unwrap_err().contains("2 tasks"));
        // Sparse site ids.
        let sparse = ArenaConfig {
            site_of_task: vec![0, 2],
            ..base.clone()
        };
        assert!(sparse.validate(2).unwrap_err().contains("dense"));
        // Bad probabilities.
        for p in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let bad = ArenaConfig {
                wander_probability: p,
                ..base.clone()
            };
            assert!(bad.validate(2).unwrap_err().contains("[0, 1]"), "p = {p}");
        }
    }
}
