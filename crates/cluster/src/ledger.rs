//! The rack ledger: the one home of the rack heat/water/pin-to-zero rule,
//! plus the fleet/per-class power tally and the `(time, rank, seq)`
//! min-heap the kernel's timed streams share.

use crate::catalog::ClassId;
use crate::dispatch::RackView;
use std::collections::BinaryHeap;
use tps_units::{Celsius, Watts};

/// Per-rack heat, tolerable-water and job-count bookkeeping — the coupling
/// the paper's mapping gain comes from. A rack's chiller cost depends on
/// its *summed* heat and on the *coldest* tolerable water among its
/// co-hosted jobs, so one cold-demanding job penalises the whole rack.
///
/// The rule, applied by this type and nowhere else:
///
/// * heat is a running `+=`/`-=` sum, viewed clamped non-negative;
/// * tolerable water is a multiset of `f64::to_bits` keys (monotone for
///   the non-negative temperatures in play, and an exact round trip), and
///   the rack's supply is its smallest key;
/// * a rack whose last job leaves is pinned back to exact `0.0` heat, so
///   float residue never perturbs a later comparison or energy window.
///
/// Three instances exist: the kernel's *committed* view inside
/// [`RackLoads`](crate::RackLoads) (running or queued placements — what
/// dispatch scores against), its *running* view (started, not finished —
/// telemetry and control samples) and the *energy* view
/// (`integrate_energy`'s post-run sweep). Each caller feeds the ledger in
/// its own event order, and every operation here is the same float
/// operation in the same order whichever caller drives it: keeping each
/// caller's order is what keeps every outcome, golden table and trace
/// bit-identical.
#[derive(Debug)]
pub(crate) struct RackLedger {
    /// Raw per-rack heat sums (may carry float residue while occupied).
    heat: Vec<f64>,
    /// Ascending `(water bits, count)` multiset per rack. A vector, not a
    /// tree: a handful of distinct keys per rack, and the capacity
    /// survives the rack draining — no node allocation on the hot paths.
    water: Vec<Vec<(u64, u32)>>,
    /// The maintained view per rack: clamped heat, coldest supply, count.
    views: Vec<RackView>,
}

impl RackLedger {
    /// An empty ledger over `racks` racks.
    pub(crate) fn new(racks: usize) -> Self {
        let idle = RackView {
            heat: Watts::ZERO,
            supply: None,
            committed: 0,
        };
        Self {
            heat: vec![0.0; racks],
            water: vec![Vec::new(); racks],
            views: vec![idle; racks],
        }
    }

    /// Adds one job's `heat` and tolerable-water key to `rack`; returns
    /// whether the rack was idle before (its occupancy flipped).
    pub(crate) fn add(&mut self, rack: usize, heat: f64, water_bits: u64) -> bool {
        self.heat[rack] += heat;
        let water = &mut self.water[rack];
        match water.binary_search_by_key(&water_bits, |e| e.0) {
            Ok(i) => water[i].1 += 1,
            Err(i) => water.insert(i, (water_bits, 1)),
        }
        self.views[rack].committed += 1;
        self.refresh(rack);
        self.views[rack].committed == 1
    }

    /// Removes one job added with the same `heat` and key; returns whether
    /// the rack drained (its occupancy flipped), in which case its heat is
    /// pinned to exact `0.0`.
    pub(crate) fn remove(&mut self, rack: usize, heat: f64, water_bits: u64) -> bool {
        self.heat[rack] -= heat;
        let water = &mut self.water[rack];
        if let Ok(i) = water.binary_search_by_key(&water_bits, |e| e.0) {
            water[i].1 -= 1;
            if water[i].1 == 0 {
                water.remove(i);
            }
        }
        self.views[rack].committed -= 1;
        let drained = self.views[rack].committed == 0;
        if drained {
            self.heat[rack] = 0.0;
        }
        self.refresh(rack);
        drained
    }

    fn refresh(&mut self, rack: usize) {
        let view = &mut self.views[rack];
        view.heat = Watts::new(self.heat[rack].max(0.0));
        view.supply = self.water[rack]
            .first()
            .map(|&(bits, _)| Celsius::new(f64::from_bits(bits)));
    }

    /// `rack`'s clamped heat, coldest supply and job count.
    pub(crate) fn view(&self, rack: usize) -> RackView {
        self.views[rack]
    }

    /// Every rack's view, in rack order.
    pub(crate) fn views(&self) -> &[RackView] {
        &self.views
    }
}

/// Running jobs and their summed package power, fleet-wide and per class;
/// a sum whose last job leaves is pinned back to exact `0.0`. Shared by
/// the kernel's running set and `integrate_energy`. The per-class sums
/// never feed the fleet-wide one.
#[derive(Debug)]
pub(crate) struct PowerTally {
    pub(crate) running: usize,
    pub(crate) power: f64,
    pub(crate) class_running: Vec<usize>,
    pub(crate) class_power: Vec<f64>,
}

impl PowerTally {
    pub(crate) fn new(classes: usize) -> Self {
        Self {
            running: 0,
            power: 0.0,
            class_running: vec![0; classes],
            class_power: vec![0.0; classes],
        }
    }

    pub(crate) fn add(&mut self, class: ClassId, power: f64) {
        self.running += 1;
        self.power += power;
        self.class_running[class] += 1;
        self.class_power[class] += power;
    }

    pub(crate) fn remove(&mut self, class: ClassId, power: f64) {
        self.running -= 1;
        self.power -= power;
        self.class_running[class] -= 1;
        self.class_power[class] -= power;
        if self.class_running[class] == 0 {
            self.class_power[class] = 0.0;
        }
        if self.running == 0 {
            self.power = 0.0;
        }
    }
}

/// A min-heap of items keyed `(time, rank, push order)`: the unique push
/// order makes the key total, so pops replay the exact order a sorted map
/// would, on a flat array. `f64::to_bits` is monotone for the non-negative
/// times in play. Load streams push at rank 0; the heap event queue ranks
/// by event class.
#[derive(Debug)]
pub(crate) struct TimedHeap<T> {
    heap: BinaryHeap<Timed<T>>,
    pushed: u64,
}

/// A heap entry: `(time bits, rank << 56 | push order)` (no run nears 2^56
/// pushes) and a payload the order ignores, reversed so the std max-heap
/// pops the smallest key.
#[derive(Debug)]
struct Timed<T>((u64, u64), T);

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T> Eq for Timed<T> {}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

impl<T> Default for TimedHeap<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            pushed: 0,
        }
    }
}

impl<T> TimedHeap<T> {
    /// Schedules `item` at `time`; equal times pop by `rank`, then in
    /// push order.
    pub(crate) fn push(&mut self, time: f64, rank: u8, item: T) {
        let order = (u64::from(rank) << 56) | self.pushed;
        self.heap.push(Timed((time.to_bits(), order), item));
        self.pushed += 1;
    }

    /// The earliest pending time, `None` while empty.
    pub(crate) fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|t| f64::from_bits(t.0 .0))
    }

    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|t| (f64::from_bits(t.0 .0), t.1))
    }

    /// Pops the earliest item if its time is `≤ now`.
    pub(crate) fn pop_due(&mut self, now: f64) -> Option<T> {
        if self.next_time()? > now {
            return None;
        }
        self.pop().map(|(_, item)| item)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Items pushed over the heap's lifetime.
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coldest_water_caps_the_rack_and_a_drain_pins_exact_zero() {
        let mut ledger = RackLedger::new(2);
        assert!(ledger.add(0, 0.1, 80f64.to_bits()));
        assert!(!ledger.add(0, 0.2, 60f64.to_bits()));
        assert_eq!(ledger.view(0).supply, Some(Celsius::new(60.0)));
        assert!(!ledger.remove(0, 0.2, 60f64.to_bits()));
        assert_eq!(ledger.view(0).supply, Some(Celsius::new(80.0)));
        // 0.1 + 0.2 - 0.2 leaves residue; the drain pins it away.
        assert_ne!(ledger.heat[0], 0.1);
        assert!(ledger.remove(0, 0.1, 80f64.to_bits()));
        assert_eq!(ledger.view(0).heat.value().to_bits(), 0);
        assert!(ledger.water[0].is_empty());
    }

    proptest! {
        /// Random add/remove interleavings — zero-heat jobs and repeated
        /// water keys included — keep every view equal to a from-scratch
        /// rebuild over the live jobs (heat up to float residue: `0.1` and
        /// `0.7` do not sum exactly), and every drained rack, class and
        /// fleet sum at exact zero with an empty multiset.
        #[test]
        fn ledger_matches_a_rebuild_over_live_jobs(
            racks in 1usize..4,
            classes in 1usize..3,
            ops in 1usize..80,
            seed in 0u64..1000,
        ) {
            const HEATS: [f64; 4] = [0.0, 0.1, 0.7, 50.0];
            let mut rng = proptest::TestRng::new(seed);
            let mut pick = |n: usize| rng.next_u64() as usize % n;
            let mut ledger = RackLedger::new(racks);
            let mut tally = PowerTally::new(classes);
            // (rack, class, heat, water bits) of every live job.
            let mut live: Vec<(usize, usize, f64, u64)> = Vec::new();
            for _ in 0..ops {
                if live.is_empty() || pick(5) < 3 {
                    let water = 45.0 + 10.0 * pick(3) as f64;
                    let job = (pick(racks), pick(classes), HEATS[pick(4)], water.to_bits());
                    let was_idle = live.iter().all(|j| j.0 != job.0);
                    prop_assert_eq!(ledger.add(job.0, job.2, job.3), was_idle);
                    tally.add(job.1, job.2);
                    live.push(job);
                } else {
                    let (rack, class, heat, water) = live.swap_remove(pick(live.len()));
                    let drained = live.iter().all(|j| j.0 != rack);
                    prop_assert_eq!(ledger.remove(rack, heat, water), drained);
                    tally.remove(class, heat);
                }
                for r in 0..racks {
                    let on: Vec<_> = live.iter().filter(|j| j.0 == r).collect();
                    let view = ledger.view(r);
                    let heat: f64 = on.iter().map(|j| j.2).sum();
                    prop_assert!((view.heat.value() - heat).abs() < 1e-9);
                    let coldest = on.iter().map(|j| j.3).min();
                    prop_assert_eq!(view.supply, coldest.map(|b| Celsius::new(f64::from_bits(b))));
                    prop_assert_eq!(view.committed, on.len());
                    if on.is_empty() {
                        prop_assert_eq!(view.heat.value().to_bits(), 0);
                        prop_assert!(ledger.water[r].is_empty());
                    }
                }
                for c in 0..classes {
                    if live.iter().all(|j| j.1 != c) {
                        prop_assert_eq!(tally.class_power[c].to_bits(), 0);
                    }
                }
                prop_assert_eq!(tally.running, live.len());
                if live.is_empty() {
                    prop_assert_eq!(tally.power.to_bits(), 0);
                }
            }
        }
    }
}
