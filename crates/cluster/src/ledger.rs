//! The rack ledger: the one home of the rack heat/water/pin-to-zero rule,
//! plus the fleet/per-class power tally, the exact fleet cooling sum and
//! the `(time, rank, seq)` min-heap the kernel's timed streams share.

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
/// Two instances exist: the kernel's *committed* view inside
/// [`RackLoads`](crate::RackLoads) (running or queued placements — what
/// dispatch scores against) and its *running* view (started, not
/// finished — what telemetry samples and energy is priced from). Each
/// caller feeds the ledger in its own event order, and every operation
/// here is the same float operation in the same order whichever caller
/// drives it: keeping each caller's order is what keeps every outcome,
/// golden table and trace bit-identical.
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
/// a sum whose last job leaves is pinned back to exact `0.0`. Plain f64
/// sums: the kernel's running set folds them in one fixed order (time,
/// then ends before starts, then placement order), which is what makes
/// their bits reproducible. The per-class sums never feed the fleet-wide
/// one.
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

/// One watt in [`CoolingSum`] units (2⁶⁴ per watt).
const UNITS_PER_WATT: f64 = 18_446_744_073_709_551_616.0;

/// The fleet's chiller draw as an exact sum. Each rack's f64 draw is held
/// as a whole count of 2⁻⁶⁴ W — exact for every draw of 2⁻¹¹ W and up —
/// so the total is the same integer whatever order racks are re-priced
/// in, is rounded to f64 only when read, and reads exactly 0 once every
/// rack drains.
#[derive(Debug)]
pub(crate) struct CoolingSum {
    racks: Vec<i128>,
    total: i128,
    /// The largest rack draw held, in units: `i128::MAX / (racks + 1)`,
    /// so every rack at the cap still sums without overflow — about
    /// 7 × 10¹⁴ W per rack on 12,500 racks, reached only by set-points
    /// far beyond any physical chiller.
    cap: f64,
    /// Racks whose draw is non-finite or past `cap`; while any is, the
    /// total reads infinite.
    beyond: usize,
}

impl CoolingSum {
    /// Marks a rack counted in `beyond` instead of `total`.
    const BEYOND: i128 = i128::MIN;

    pub(crate) fn new(racks: usize) -> Self {
        Self {
            racks: vec![0; racks],
            total: 0,
            cap: (i128::MAX / (racks as i128 + 1)) as f64,
            beyond: 0,
        }
    }

    /// Replaces `rack`'s draw with `watts`.
    pub(crate) fn set(&mut self, rack: usize, watts: f64) {
        let units = watts * UNITS_PER_WATT;
        let units = if units < self.cap {
            units as i128
        } else {
            Self::BEYOND
        };
        match std::mem::replace(&mut self.racks[rack], units) {
            Self::BEYOND => self.beyond -= 1,
            old => self.total -= old,
        }
        match units {
            Self::BEYOND => self.beyond += 1,
            new => self.total += new,
        }
    }

    /// The fleet total in watts, rounded once.
    pub(crate) fn watts(&self) -> f64 {
        if self.beyond > 0 {
            f64::INFINITY
        } else {
            self.total as f64 / UNITS_PER_WATT
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

    #[test]
    fn cooling_sum_is_exact_in_any_order_and_drains_to_zero() {
        // Draws whose f64 sum depends on the order they are added in.
        let draws = [0.1, 0.2, 0.3, 1e9 / 3.0, 7e-5, 1e11 / 7.0];
        let fold = |order: &[usize]| order.iter().fold(0.0, |s, &r| s + draws[r]);
        let read = |order: &[usize]| {
            let mut sum = CoolingSum::new(draws.len());
            for &r in order {
                sum.set(r, draws[r]);
            }
            sum.watts()
        };
        let (up, down) = ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]);
        assert_ne!(fold(&up).to_bits(), fold(&down).to_bits());
        assert_eq!(read(&up).to_bits(), read(&down).to_bits());
        let mut sum = CoolingSum::new(2);
        sum.set(0, 0.1);
        sum.set(1, f64::INFINITY);
        assert_eq!(sum.watts(), f64::INFINITY);
        sum.set(1, 0.2);
        sum.set(0, 0.0);
        sum.set(1, 0.0);
        assert_eq!(sum.watts().to_bits(), 0);
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
