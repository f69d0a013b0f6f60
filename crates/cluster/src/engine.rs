//! The discrete-event simulation kernel: a deterministic event queue, the
//! mutable `FleetState` it drives, and the main loop that turns a job
//! stream plus a [`ControlPolicy`](crate::ControlPolicy) into placements,
//! the energy they draw and (optionally) a telemetry trace.
//!
//! Everything in here is sequential and byte-deterministic: events are
//! ordered by a stable `(time, class, seq)` key, so two runs of the same
//! inputs — at any warm-up thread count, and under either event-queue
//! implementation ([`EventQueue`] heap or
//! [`CalendarQueue`](crate::CalendarQueue)) — replay the identical event
//! sequence and produce bit-identical floats. The four event kinds and
//! their same-instant ordering:
//!
//! 1. [`Event::JobCompletion`] — a server finishes a job; committed rack
//!    load expires *before* anything else sees that instant (a placement
//!    covers `[start, end)`).
//! 2. [`Event::SetpointChange`] — the chiller/heat-reuse set-point moves;
//!    later dispatch decisions and energy windows see the new chiller.
//! 3. [`Event::ControlTick`] — the control policy observes the fleet and
//!    may emit actions.
//! 4. [`Event::TelemetrySample`] — a [`FleetSample`] is recorded.
//! 5. [`Event::JobArrival`] — the dispatcher places the job against the
//!    settled fleet state.

use crate::cache::{OutcomeCache, SolveTable, SteadyState};
use crate::catalog::ClassId;
use crate::control::{ControlAction, ControlPolicy, ControlStatus, PlacementHint, RunContext};
use crate::dispatch::{
    ClassDemand, FleetDispatcher, FleetIndex, FleetView, JobDemand, RackView, ServerTable,
};
use crate::fleet::{Fleet, FleetConfig};
use crate::job::Job;
use crate::ledger::{CoolingSum, PowerTally, RackLedger, TimedHeap};
use crate::metrics::{
    FleetOutcome, FleetSample, FleetTrace, KernelStats, LatencyHistogram, Placement, RunEnergy,
    ServingOutcome, ServingSample, SimResult, TelemetryConfig,
};
use crate::queue::{CalendarQueue, KernelQueue, QueueStats};
use std::collections::BTreeSet;
use tps_core::{MinPowerSelector, RunError};
use tps_units::{Celsius, Seconds, Watts};
use tps_workload::{Benchmark, QosClass};

/// How many future arrivals the kernel keeps enqueued ahead of the event
/// horizon. Arrivals are streamed from the time-sorted order, one pushed
/// per arrival processed, so the queue holds O(`ARRIVAL_LOOKAHEAD` +
/// in-flight completions) events instead of the whole job stream. Any
/// positive window preserves pop order (see `run_impl`); this one is
/// large enough to keep the calendar queue's buckets well fed.
pub const ARRIVAL_LOOKAHEAD: usize = 1024;

/// A typed simulation event.
///
/// Events carry only identities; the payloads they act on (committed rack
/// load, running power, set-point) live in the kernel's `FleetState`, which settles
/// lazily to the event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A job finishes executing on a server (its committed rack load
    /// expires at this instant).
    JobCompletion {
        /// The completing job's id.
        job: usize,
        /// The global server index it ran on.
        server: usize,
    },
    /// The chiller/heat-reuse set-point changes to the given temperature.
    SetpointChange(Celsius),
    /// The control policy is evaluated against a fleet snapshot.
    ControlTick,
    /// A telemetry sample is recorded into the trace ring.
    TelemetrySample,
    /// A job (index into the simulated stream) arrives at the front-end.
    JobArrival(usize),
}

impl Event {
    /// Same-instant ordering class (lower runs first); see the module
    /// docs for the rationale of completion-before-arrival.
    pub(crate) fn class(&self) -> u8 {
        match self {
            Event::JobCompletion { .. } => 0,
            Event::SetpointChange(_) => 1,
            Event::ControlTick => 2,
            Event::TelemetrySample => 3,
            Event::JobArrival(_) => 4,
        }
    }
}

/// A deterministic event queue ordered by `(time, class, seq)`.
///
/// `seq` is the push order, so ties within one class pop first-in
/// first-out no matter how the queue is used — results never depend on
/// insertion patterns, hashing or thread count.
///
/// This is the original binary-heap kernel queue. Production runs use the
/// O(1)-common-case [`CalendarQueue`](crate::CalendarQueue); the heap is
/// kept as the ordering *oracle* the calendar queue is tested against
/// (identical pop order by construction of the shared key).
///
/// ```
/// use tps_cluster::{Event, EventQueue};
/// use tps_units::Seconds;
///
/// let mut q = EventQueue::new();
/// q.push(Seconds::new(5.0), Event::JobArrival(1));
/// q.push(Seconds::new(5.0), Event::JobCompletion { job: 0, server: 0 });
/// q.push(Seconds::new(1.0), Event::ControlTick);
/// // Earliest time first; at equal times completions precede arrivals.
/// assert_eq!(q.pop(), Some((Seconds::new(1.0), Event::ControlTick)));
/// assert!(matches!(q.pop(), Some((_, Event::JobCompletion { .. }))));
/// assert_eq!(q.pop(), Some((Seconds::new(5.0), Event::JobArrival(1))));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Min-heap over the full `(time, class, seq)` key — the tie-break is
    /// total, so heap-internal order never leaks into results.
    heap: TimedHeap<Event>,
    peak: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or not finite.
    pub fn push(&mut self, time: Seconds, event: Event) {
        assert!(
            time.value() >= 0.0 && time.value().is_finite(),
            "event time must be non-negative and finite, got {time}"
        );
        self.heap.push(time.value(), event.class(), event);
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Seconds, Event)> {
        self.heap.pop().map(|(t, e)| (Seconds::new(t), e))
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Lifetime counters: total pushes and peak depth. The heap has no
    /// arena, so its high-water mark is reported as the peak depth (every
    /// pending event owns one heap node).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.heap.pushed(),
            peak_depth: self.peak,
            arena_high_water: self.peak,
        }
    }
}

/// Incremental per-rack committed load: every placement that has not
/// finished (running or still queued) counts against its rack until its
/// end time expires. Keeps dispatch O(racks + log jobs) per arrival
/// instead of rescanning all placements.
///
/// Beyond the per-rack sums, the structure maintains the kernel's
/// *dispatch index* incrementally: the current [`RackView`] per rack, the
/// occupied racks ordered by `(heat bits, rack)`, the idle racks per rack
/// group, and a per-rack mutation stamp. Each placement or expiry touches
/// exactly one rack, so the index updates in O(log racks) — this is what
/// lets dispatchers skip the per-arrival full-fleet rescan. The per-rack
/// heat/water/count rule itself lives in the committed `RackLedger`.
///
/// The stamps are still bumped on every mutation and exported through
/// [`FleetIndex::stamps`](crate::FleetIndex::stamps) for external
/// callers, but no in-tree dispatcher reads them any more.
#[derive(Debug)]
pub struct RackLoads {
    /// The committed per-rack views.
    ledger: RackLedger,
    /// Pending expiries `(rack, heat, water bits)`, earliest end first —
    /// one per committed placement.
    expiry: TimedHeap<(u32, f64, u64)>,
    /// Racks with committed load, an ascending sorted vector keyed
    /// `(view-heat bits, rack)` — the clamped heat is non-negative, so
    /// `to_bits` sorts like the float. A vector, not a tree: dispatchers
    /// scan it on every arrival; a mutation shifts up to every entry (500
    /// at peak on 4k loaded servers, 3,215 on 100k at 15 % load, per
    /// perfbench's `index.peak_occupied_racks`). Each entry carries the
    /// rack's fold inputs (heat, supply, group) inline, so the dispatch
    /// hot loop reads one contiguous array instead of chasing four
    /// rack-indexed arrays across the cache.
    occupied: Vec<OccupiedRack>,
    /// Idle racks per rack group, ascending by rack index.
    idle: Vec<BTreeSet<u32>>,
    /// Cached per-group minimum idle rack — always exactly
    /// `idle[g].first()`, so the dispatch hot path reads each group's
    /// representative in O(1) instead of chasing B-tree nodes per
    /// arrival.
    idle_min: Vec<Option<u32>>,
    /// Rack → rack-group id.
    group_of: Vec<u32>,
    /// Rack → stamp of its last mutation (monotone clock).
    stamps: Vec<u64>,
    stamp_clock: u64,
}

/// One entry of the occupied-rack index: the sort key `(heat bits,
/// rack)` plus the rack's dispatch-fold inputs, denormalized inline so a
/// per-arrival candidate scan is a single contiguous read. The fields
/// replay the rack's [`RackView`] bit-for-bit: `heat_bits` is the view
/// heat's `to_bits` (clamped non-negative, so the sort order matches the
/// float) and `supply_bits` the view supply's, with [`Self::NO_SUPPLY`]
/// standing in for `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupiedRack {
    /// `to_bits` of the rack's clamped committed heat (key, major).
    pub heat_bits: u64,
    /// The rack id (key, minor — makes the key total).
    pub rack: u32,
    /// The rack's group id (its class pattern).
    pub group: u32,
    /// `to_bits` of the coldest committed water demand, or
    /// [`Self::NO_SUPPLY`] when the rack has none.
    pub supply_bits: u64,
}

impl OccupiedRack {
    /// Sentinel for "no settled supply" — an all-ones NaN pattern no real
    /// temperature produces.
    pub const NO_SUPPLY: u64 = u64::MAX;

    /// The sort key.
    #[inline]
    pub fn key(&self) -> (u64, u32) {
        (self.heat_bits, self.rack)
    }

    /// The rack's committed heat, exactly the [`RackView`]'s.
    #[inline]
    pub fn heat(&self) -> f64 {
        f64::from_bits(self.heat_bits)
    }

    /// The rack's settled supply, exactly the [`RackView`]'s.
    #[inline]
    pub fn supply(&self) -> Option<Celsius> {
        (self.supply_bits != Self::NO_SUPPLY)
            .then(|| Celsius::new(f64::from_bits(self.supply_bits)))
    }
}

impl RackLoads {
    /// Empty loads over `racks` racks, all in one rack group.
    pub fn new(racks: usize) -> Self {
        Self::with_groups(racks, vec![0; racks], 1)
    }

    /// Empty loads over `racks` racks partitioned into `groups` rack
    /// groups (`group_of[rack]` names each rack's group). Racks in one
    /// group must host the same class pattern — the dispatch fast path
    /// treats any idle rack of a group as interchangeable with the rest.
    ///
    /// # Panics
    ///
    /// Panics if `group_of` has the wrong length or names a group out of
    /// range.
    pub fn with_groups(racks: usize, group_of: Vec<u32>, groups: usize) -> Self {
        assert_eq!(group_of.len(), racks, "one group id per rack");
        assert!(
            group_of.iter().all(|&g| (g as usize) < groups.max(1)),
            "rack group out of range"
        );
        let mut idle = vec![BTreeSet::new(); groups.max(1)];
        for (r, &g) in group_of.iter().enumerate() {
            idle[g as usize].insert(r as u32);
        }
        let idle_min = idle.iter().map(|s| s.first().copied()).collect();
        Self {
            ledger: RackLedger::new(racks),
            expiry: TimedHeap::default(),
            occupied: Vec::new(),
            idle,
            idle_min,
            group_of,
            stamps: vec![0; racks],
            stamp_clock: 0,
        }
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.ledger.views().len()
    }

    /// Committed placements across all racks.
    pub fn total_committed(&self) -> usize {
        self.expiry.len()
    }

    /// Re-derives `rack`'s index membership after a ledger mutation that
    /// moved its view from `old`.
    fn sync_rack(&mut self, rack: usize, old: RackView) {
        let view = self.ledger.view(rack);
        let r = rack as u32;
        let entry = OccupiedRack {
            heat_bits: view.heat.value().to_bits(),
            rack: r,
            group: self.group_of[rack],
            supply_bits: view
                .supply
                .map_or(OccupiedRack::NO_SUPPLY, |s| s.value().to_bits()),
        };
        let (was, now) = (old.committed > 0, view.committed > 0);
        let old_key = (old.heat.value().to_bits(), r);
        let occupied = &mut self.occupied;
        let find = |occ: &[OccupiedRack], key| occ.binary_search_by_key(&key, |e| e.key());
        if was && now && old_key == entry.key() {
            // Heat unchanged but the supply may have moved (e.g. a
            // zero-heat placement changing the coldest water demand):
            // keep the inline fields in lockstep with the view.
            if let Ok(at) = find(occupied, old_key) {
                occupied[at] = entry;
            }
        } else {
            if was {
                if let Ok(at) = find(occupied, old_key) {
                    occupied.remove(at);
                }
            }
            if now {
                if let Err(at) = find(occupied, entry.key()) {
                    occupied.insert(at, entry);
                }
            }
        }
        let g = entry.group as usize;
        if !was && now {
            self.idle[g].remove(&r);
            if self.idle_min[g] == Some(r) {
                self.idle_min[g] = self.idle[g].first().copied();
            }
        } else if was && !now {
            self.idle[g].insert(r);
            if self.idle_min[g].map_or(true, |m| r < m) {
                self.idle_min[g] = Some(r);
            }
        }
        self.stamp_clock += 1;
        self.stamps[rack] = self.stamp_clock;
    }

    /// Commits `state`'s load to `rack` until `end`.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn add(&mut self, rack: usize, state: &SteadyState, end: Seconds) {
        let old = self.ledger.view(rack);
        let (heat, water_bits) = (state.heat.value(), state.max_water_temp.value().to_bits());
        self.ledger.add(rack, heat, water_bits);
        self.expiry
            .push(end.value(), 0, (rack as u32, heat, water_bits));
        self.sync_rack(rack, old);
    }

    /// Drops every placement with `end ≤ now` (it covered `[start, end)`),
    /// in `(end, insertion)` order so float accumulation is deterministic.
    /// Returns how many placements expired.
    pub fn expire_until(&mut self, now: Seconds) -> usize {
        let mut expired = 0;
        while let Some((rack, heat, water_bits)) = self.expiry.pop_due(now.value()) {
            let rack = rack as usize;
            expired += 1;
            let old = self.ledger.view(rack);
            self.ledger.remove(rack, heat, water_bits);
            self.sync_rack(rack, old);
        }
        expired
    }

    /// The earliest pending expiry, `None` while nothing is committed.
    pub fn next_expiry(&self) -> Option<f64> {
        self.expiry.next_time()
    }

    /// The maintained per-rack dispatch views — always equal to what a
    /// from-scratch rebuild would compute.
    pub fn view_slice(&self) -> &[RackView] {
        self.ledger.views()
    }

    /// Racks with committed load, ordered `(view-heat bits, rack)`, each
    /// entry carrying its fold inputs inline (see [`OccupiedRack`]).
    pub fn occupied_racks(&self) -> &[OccupiedRack] {
        &self.occupied
    }

    /// Idle racks per rack group, each ascending by rack index.
    pub fn idle_groups(&self) -> &[BTreeSet<u32>] {
        &self.idle
    }

    /// Per-group cached minimum idle rack, always equal to
    /// `idle_groups()[g].first()` (`None` while the group has no idle
    /// racks).
    pub fn idle_group_mins(&self) -> &[Option<u32>] {
        &self.idle_min
    }

    /// Rack → rack-group id.
    pub fn rack_groups(&self) -> &[u32] {
        &self.group_of
    }

    /// Rack → stamp of its last mutation; unchanged stamp ⇒ bit-identical
    /// [`RackView`]. No in-tree dispatcher reads these.
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// The per-rack dispatch views as a fresh vector (allocating
    /// convenience over [`view_slice`](Self::view_slice)).
    pub fn views(&self) -> Vec<RackView> {
        self.ledger.views().to_vec()
    }
}

/// One running placement's contribution, folded in at its start time and
/// out at its end time.
#[derive(Debug, Clone, Copy)]
struct RunningRec {
    rack: usize,
    class: ClassId,
    heat: f64,
    power: f64,
    water_bits: u64,
}

/// A timeline change the energy integral steps through.
#[derive(Debug)]
pub(crate) enum Change {
    /// A set-point change: the chiller every occupied rack is priced at.
    Chiller(tps_cooling::Chiller),
    /// An autoscale step: the servers whose idle floor counts.
    Active(usize),
}

/// The *running* (started, not finished) layer of the fleet and the one
/// place fleet power is priced. Every placement is committed here; the
/// set folds starts and ends in time order into the running
/// [`RackLedger`], the [`PowerTally`] and a [`CoolingSum`] of each
/// occupied rack's chiller draw, re-pricing only the rack whose load
/// moved. Energy is integrated as the set settles: each window between
/// consecutive boundaries — starts, ends, set-point and activation
/// changes, never a settle's own `now` — adds its power × dt, so the
/// totals do not depend on how often the kernel settles. Telemetry and
/// control read the same state. Distinct from [`RackLoads`], which
/// tracks *committed* (running or queued) load — the quantity dispatch
/// decisions are made against.
#[derive(Debug)]
pub(crate) struct RunningSet {
    /// Placements not yet started, earliest start first.
    starts: TimedHeap<RunningRec>,
    /// Placements started, not yet folded out, earliest end first.
    ends: TimedHeap<RunningRec>,
    /// Timeline changes not yet integrated past. A change no placement
    /// outlives stays here, so changes at or after the last end never
    /// stretch the integral.
    changes: TimedHeap<Change>,
    ledger: RackLedger,
    tally: PowerTally,
    cooling: CoolingSum,
    /// The chiller and active-server count in force for the open window.
    chiller: tps_cooling::Chiller,
    active: usize,
    idle_power: f64,
    /// Start of the open window; `None` before the first start.
    since: Option<f64>,
    energy: RunEnergy,
}

impl RunningSet {
    pub(crate) fn new(config: &FleetConfig, classes: usize) -> Self {
        Self {
            starts: TimedHeap::default(),
            ends: TimedHeap::default(),
            changes: TimedHeap::default(),
            ledger: RackLedger::new(config.racks),
            tally: PowerTally::new(classes),
            cooling: CoolingSum::new(config.racks),
            chiller: config.chiller.clone(),
            active: config.total_servers(),
            idle_power: config.idle_server_power.value(),
            since: None,
            energy: RunEnergy {
                class_it: vec![0.0; classes],
                ..RunEnergy::default()
            },
        }
    }

    /// Schedules a placement's `[start, end)`; one with `end ≤ start`
    /// never runs. `start` must not precede the last settle.
    pub(crate) fn commit(
        &mut self,
        rack: usize,
        class: ClassId,
        state: &SteadyState,
        start: Seconds,
        end: Seconds,
    ) {
        if end.value() <= start.value() {
            return;
        }
        let rec = RunningRec {
            rack,
            class,
            heat: state.heat.value(),
            power: state.package_power.value(),
            water_bits: state.max_water_temp.value().to_bits(),
        };
        self.starts.push(start.value(), 0, rec);
        self.ends.push(end.value(), 0, rec);
        self.energy.makespan = self.energy.makespan.max(end.value());
    }

    /// Applies a timeline change at `now`, after settling to it.
    pub(crate) fn change(&mut self, now: Seconds, change: Change) {
        self.changes.push(now.value(), 0, change);
        self.settle(now);
    }

    /// Walks every boundary at or before `now` in time order — at one
    /// instant ends, then changes, then starts (a placement covers
    /// `[start, end)`) — closing the open window at each.
    fn settle(&mut self, now: Seconds) {
        loop {
            let end = self.ends.next_time();
            let change = self.changes.next_time();
            let start = self.starts.next_time();
            let Some(t) = [end, change, start].into_iter().flatten().reduce(f64::min) else {
                return;
            };
            if t > now.value() {
                return;
            }
            if end == Some(t) {
                let (_, rec) = self.ends.pop().expect("peeked");
                self.close(t);
                self.ledger.remove(rec.rack, rec.heat, rec.water_bits);
                self.tally.remove(rec.class, rec.power);
                self.price(rec.rack);
            } else if change == Some(t) {
                if end.is_none() && start.is_none() {
                    return;
                }
                let (_, change) = self.changes.pop().expect("peeked");
                self.close(t);
                match change {
                    Change::Chiller(chiller) => {
                        self.chiller = chiller;
                        for rack in 0..self.ledger.views().len() {
                            self.price(rack);
                        }
                    }
                    Change::Active(n) => self.active = n,
                }
            } else {
                let (_, rec) = self.starts.pop().expect("peeked");
                self.close(t);
                self.since.get_or_insert(t);
                self.ledger.add(rec.rack, rec.heat, rec.water_bits);
                self.tally.add(rec.class, rec.power);
                let heat = self.ledger.view(rec.rack).heat.value();
                self.energy.peak_rack_heat = self.energy.peak_rack_heat.max(heat);
                self.price(rec.rack);
            }
        }
    }

    /// Integrates the open window up to `t` at the power in force:
    /// running packages plus the idle floor of active idle servers (a
    /// scale-down below the running count leaves no floor), per class,
    /// and the fleet's chiller draw.
    fn close(&mut self, t: f64) {
        let Some(since) = self.since else { return };
        let dt = t - since;
        if dt > 0.0 {
            let idle = self.active.saturating_sub(self.tally.running) as f64 * self.idle_power;
            let energy = &mut self.energy;
            energy.it += (self.tally.power + idle) * dt;
            for (sum, power) in energy.class_it.iter_mut().zip(&self.tally.class_power) {
                *sum += power * dt;
            }
            energy.cooling += self.cooling.watts() * dt;
        }
        self.since = Some(t);
    }

    /// Re-prices `rack` at its running heat and coldest running supply.
    fn price(&mut self, rack: usize) {
        let view = self.ledger.view(rack);
        let draw = view.supply.map_or(0.0, |supply| {
            self.chiller.electrical_power(view.heat, supply).value()
        });
        self.cooling.set(rack, draw);
    }

    /// Settles every remaining boundary and hands over the energy.
    pub(crate) fn finish(mut self) -> RunEnergy {
        self.settle(Seconds::new(f64::INFINITY));
        self.energy
    }
}

/// The kernel's mutable fleet state: per-rack committed load, the
/// structure-of-arrays server table, the running layer behind telemetry,
/// and the control surface (current chiller, shedding flag).
#[derive(Debug)]
pub(crate) struct FleetState {
    loads: RackLoads,
    running: RunningSet,
    servers: ServerTable,
    chiller: tps_cooling::Chiller,
    /// Bumped on every chiller change; dispatch score caches key on it.
    chiller_epoch: u64,
    setpoint: Celsius,
    shedding: bool,
    shed: usize,
    violations: usize,
    pending_arrivals: usize,
}

impl FleetState {
    fn new(
        config: &FleetConfig,
        classes: usize,
        pending_arrivals: usize,
        servers: ServerTable,
        loads: RackLoads,
    ) -> Self {
        Self {
            loads,
            running: RunningSet::new(config, classes),
            servers,
            chiller: config.chiller.clone(),
            chiller_epoch: 0,
            setpoint: config.chiller.ambient(),
            shedding: false,
            shed: 0,
            violations: 0,
            pending_arrivals,
        }
    }

    /// All arrivals processed and nothing committed: the simulation can
    /// stop re-arming periodic events.
    fn done(&self) -> bool {
        self.pending_arrivals == 0 && self.loads.total_committed() == 0
    }

    /// Moves the chiller to set-point `c` at `now`, for dispatch and
    /// for energy.
    fn set_setpoint(&mut self, config: &FleetConfig, now: Seconds, c: Celsius) {
        self.chiller = config.chiller.with_ambient(c);
        self.chiller_epoch += 1;
        self.setpoint = c;
        let chiller = self.chiller.clone();
        self.running.change(now, Change::Chiller(chiller));
    }

    /// Placed but not yet started.
    fn queued(&self) -> usize {
        self.loads.total_committed() - self.running.tally.running
    }
}

/// Runs the event loop with the production [`CalendarQueue`].
pub(crate) fn run(
    fleet: &Fleet,
    jobs: &[Job],
    dispatcher: &mut dyn FleetDispatcher,
    control: &mut dyn ControlPolicy,
    telemetry: Option<&TelemetryConfig>,
    cache: &OutcomeCache,
    table: Option<&SolveTable>,
) -> Result<SimResult, RunError> {
    run_impl::<CalendarQueue>(fleet, jobs, dispatcher, control, telemetry, cache, table)
}

/// Runs the event loop with the original binary-heap [`EventQueue`] — the
/// ordering oracle the determinism regression tests pit the calendar
/// queue against.
pub(crate) fn run_with_heap(
    fleet: &Fleet,
    jobs: &[Job],
    dispatcher: &mut dyn FleetDispatcher,
    control: &mut dyn ControlPolicy,
    telemetry: Option<&TelemetryConfig>,
    cache: &OutcomeCache,
    table: Option<&SolveTable>,
) -> Result<SimResult, RunError> {
    run_impl::<EventQueue>(fleet, jobs, dispatcher, control, telemetry, cache, table)
}

/// Runs the event loop: arrivals dispatched against settled state,
/// completions expiring committed load, control ticks and set-point
/// changes steering the chiller, telemetry sampled on its own cadence.
///
/// When a published [`SolveTable`] is supplied the run's demand states
/// resolve lock-free off the frozen epoch ([`Fleet::simulate_with`](crate::Fleet::simulate_with)
/// publishes a covering table first); keys the table lacks — and the
/// whole resolution when `table` is `None`, the mutex-map oracle path —
/// fall back to [`OutcomeCache::get_or_solve`], still correct, just
/// locked.
fn run_impl<Q: KernelQueue + Default>(
    fleet: &Fleet,
    jobs: &[Job],
    dispatcher: &mut dyn FleetDispatcher,
    control: &mut dyn ControlPolicy,
    telemetry: Option<&TelemetryConfig>,
    cache: &OutcomeCache,
    table: Option<&SolveTable>,
) -> Result<SimResult, RunError> {
    let config = fleet.config();
    let locks_at_entry = cache.lock_acquisitions();
    let selector = MinPowerSelector;
    let solvers = fleet.class_solvers();
    let class_of = fleet.server_classes();
    let n_servers = config.total_servers();

    // Structure-of-arrays server state: availability, class and rack ids
    // as flat columns indexed by server id.
    let servers = ServerTable::new(class_of.to_vec(), config.servers_per_rack);
    // Rack groups: racks hosting the same class pattern are
    // interchangeable while idle, which is what collapses the dispatch
    // ranking from O(racks) to O(occupied + groups) per arrival.
    let mut group_classes: Vec<Vec<ClassId>> = Vec::new();
    let group_of: Vec<u32> = (0..config.racks)
        .map(|r| {
            let classes = servers.classes_in_rack(r);
            match group_classes.iter().position(|g| g.as_slice() == classes) {
                Some(i) => i as u32,
                None => {
                    group_classes.push(classes.to_vec());
                    (group_classes.len() - 1) as u32
                }
            }
        })
        .collect();
    let loads = RackLoads::with_groups(config.racks, group_of, group_classes.len());

    // The per-(benchmark, QoS) demand states, solved once up front — a
    // million arrivals share a handful of distinct demand signatures, so
    // the per-arrival cache round-trip collapses to a slice index. The
    // per-job fields (runtime, wait budget) are derived per arrival from
    // the shared steady state with the exact same expressions as before.
    let mut pairs: Vec<(Benchmark, QosClass)> = jobs.iter().map(|j| (j.bench, j.qos)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    // With a published table, each class's `(policy, inlet)` solve slot
    // resolves once and every `(bench, qos)` lookup after that is pure
    // arithmetic on the shared frozen epoch — zero lock acquisitions.
    // Keys the table predates (or the oracle path, `table: None`) fall
    // back to the striped solve path.
    let class_slots: Vec<Option<usize>> = match table {
        Some(t) => solvers.iter().map(|s| t.class_slot(s)).collect(),
        None => Vec::new(),
    };
    let mut table_hits = 0usize;
    let mut miss_solves = 0usize;
    let mut pair_states: Vec<Vec<SteadyState>> = Vec::with_capacity(pairs.len());
    for &(bench, qos) in &pairs {
        let mut per_class = Vec::with_capacity(solvers.len());
        for (ci, solver) in solvers.iter().enumerate() {
            let frozen = table
                .and_then(|t| class_slots[ci].and_then(|slot| t.get(slot, solver.id, bench, qos)));
            per_class.push(match frozen {
                Some(state) => {
                    table_hits += 1;
                    state
                }
                None => {
                    if table.is_some() {
                        miss_solves += 1;
                    }
                    cache.get_or_solve(solver, bench, qos, &selector, config.t_case_max)?
                }
            });
        }
        pair_states.push(per_class);
    }
    if table_hits > 0 {
        cache.record_table_hits(table_hits);
    }
    if miss_solves > 0 {
        cache.record_miss_solves(miss_solves);
    }

    let mut queue = Q::default();
    // Arrivals in time order (id on ties), pushed in that order so the
    // queue's seq tie-break preserves it. Only a bounded lookahead window
    // is in the queue at once: each processed arrival streams the next
    // one in, so peak queue depth (and the calendar arena) stay O(window
    // + in-flight) instead of O(total jobs). Order is unaffected — every
    // unpushed arrival is no earlier than the latest pending one, and on
    // exact time ties the arrival class pops last anyway, so nothing can
    // pop before the window catches up to it.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .value()
            .total_cmp(&jobs[b].arrival.value())
            .then(jobs[a].id.cmp(&jobs[b].id))
    });
    for &ji in order.iter().take(ARRIVAL_LOOKAHEAD) {
        queue.push(jobs[ji].arrival, Event::JobArrival(ji));
    }
    let mut next_arrival = order.len().min(ARRIVAL_LOOKAHEAD);
    // The control policy's pre-scheduled set-point program…
    for (t, c) in control.setpoint_program() {
        queue.push(t, Event::SetpointChange(c));
    }
    // …its tick cadence, and the telemetry cadence (both re-armed from
    // their own handlers while work remains).
    let tick = control.tick_interval();
    if let Some(dt) = tick {
        assert!(dt.value() > 0.0, "control tick interval must be positive");
        queue.push(dt, Event::ControlTick);
    }
    if let Some(t) = telemetry {
        assert!(
            t.sample_interval.value() > 0.0,
            "telemetry sample interval must be positive"
        );
        queue.push(Seconds::ZERO, Event::TelemetrySample);
    }

    // Planning policies capture the job stream, the solved physics and
    // the rack layout before the first event; reactive policies no-op.
    control.begin_run(&RunContext {
        jobs,
        pairs: &pairs,
        pair_states: &pair_states,
        chiller: &config.chiller,
        servers: &servers,
        classes: solvers.len(),
    });
    let mut state = FleetState::new(config, solvers.len(), jobs.len(), servers, loads);
    dispatcher.begin_run();
    // Every placement feeds the running set, which integrates energy, and
    // every arrival settles it, so its heaps hold only in-flight jobs.
    // JobCompletion events exist to keep tick/sample re-arming honest and
    // to record the drained fleet; when nothing reads them (open loop: no
    // ticks, no telemetry) the kernel elides them, and the event stream
    // degenerates to arrivals only.
    let closed_loop = telemetry.is_some() || tick.is_some();
    let mut placements: Vec<Placement> = Vec::with_capacity(jobs.len());
    // Serving mode: per-request latency (dispatch wait + runtime, known
    // at placement time) feeds two integer-bucket sketches — the whole
    // run for reported percentiles, plus a per-tick window the
    // autoscaler reads and clears. The active-server timeline feeds the
    // serving summary; the running set integrates the idle floor.
    let serving = config.serving;
    let mut latency_all = LatencyHistogram::default();
    let mut latency_window = LatencyHistogram::default();
    let mut activations: Vec<(Seconds, usize)> = Vec::new();
    let mut trace = telemetry.map(|t| {
        let mut trace = FleetTrace::with_classes(config.racks, fleet.class_names(), t.capacity);
        if serving {
            trace.enable_serving();
        }
        trace
    });
    let mut final_sampled = false;
    // Scratch for the per-class demands (hot path: one buffer for the
    // whole run instead of one allocation per arrival).
    let mut class_scratch: Vec<ClassDemand> = Vec::with_capacity(solvers.len());

    while let Some((now, event)) = queue.pop() {
        let drains = matches!(event, Event::JobCompletion { .. } | Event::JobArrival(_));
        match event {
            Event::JobCompletion { .. } => {
                state.loads.expire_until(now);
                state.running.settle(now);
            }
            Event::SetpointChange(c) => state.set_setpoint(config, now, c),
            Event::ControlTick => {
                if !state.done() {
                    state.loads.expire_until(now);
                    state.running.settle(now);
                    let status = ControlStatus {
                        now,
                        committed: state.loads.total_committed(),
                        running: state.running.tally.running,
                        queued: state.queued(),
                        shed: state.shed,
                        violations: state.violations,
                        setpoint: state.setpoint,
                        shedding: state.shedding,
                        racks: state.loads.view_slice(),
                        active_servers: state.servers.active_servers(),
                        total_servers: n_servers,
                        recent_p99: if serving {
                            latency_window.quantile(0.99)
                        } else {
                            None
                        },
                    };
                    for action in control.on_tick(&status) {
                        match action {
                            ControlAction::SetSetpoint(c) => state.set_setpoint(config, now, c),
                            ControlAction::SetShedding(on) => state.shedding = on,
                            ControlAction::SetActiveServers(n) => {
                                let prev = state.servers.active_servers();
                                let actual = state.servers.set_active_servers(n);
                                if actual != prev {
                                    activations.push((now, actual));
                                    state.running.change(now, Change::Active(actual));
                                }
                            }
                        }
                    }
                    // Each tick reads a fresh latency window.
                    if serving {
                        latency_window.clear();
                    }
                    let dt = tick.expect("ticks only fire when an interval is set");
                    queue.push(now + dt, Event::ControlTick);
                }
            }
            Event::TelemetrySample => {
                if !state.done() {
                    state.running.settle(now);
                    let t = telemetry.expect("samples only fire when telemetry is on");
                    if let Some(trace) = trace.as_mut() {
                        trace.push(sample(&state, now, config, serving.then_some(&latency_all)));
                    }
                    queue.push(now + t.sample_interval, Event::TelemetrySample);
                }
            }
            Event::JobArrival(ji) => 'arrival: {
                // Stream the next arrival in to replace this one, keeping
                // the lookahead window full until the stream runs dry.
                if next_arrival < order.len() {
                    let nj = order[next_arrival];
                    queue.push(jobs[nj].arrival, Event::JobArrival(nj));
                    next_arrival += 1;
                }
                let job = &jobs[ji];
                state.pending_arrivals -= 1;
                state.loads.expire_until(now);
                state.running.settle(now);
                if state.shedding {
                    state.shed += 1;
                    break 'arrival;
                }
                // The job's demand on every catalog class: the same
                // workload runs hotter (or slower) on one hardware bin
                // than another, and the dispatcher ranks those options.
                let pair = pairs
                    .binary_search(&(job.bench, job.qos))
                    .expect("every (bench, qos) pair was precomputed")
                    as u32;
                class_scratch.clear();
                for steady in &pair_states[pair as usize] {
                    class_scratch.push(ClassDemand {
                        state: *steady,
                        runtime: job.service * steady.normalized_time,
                        wait_budget: job.wait_budget(steady.normalized_time),
                    });
                }
                let demand = JobDemand {
                    job,
                    classes: &class_scratch,
                    sig: pair,
                };
                let loads = &state.loads;
                let view = FleetView {
                    now,
                    racks: loads.view_slice(),
                    servers: &state.servers,
                    chiller: &state.chiller,
                    chiller_epoch: state.chiller_epoch,
                    index: Some(FleetIndex {
                        occupied: loads.occupied_racks(),
                        idle_min: loads.idle_group_mins(),
                        group_of: loads.rack_groups(),
                        group_classes: &group_classes,
                        stamps: loads.stamps(),
                    }),
                    halls: None,
                };
                // A planning control policy may have a placement hint for
                // this job; the kernel validates it against the live
                // fleet and falls back to the dispatcher when it's stale,
                // so hints can redirect placements but never add QoS
                // violations the dispatcher would have avoided.
                let placed = hinted_server(control.placement_hint(job), &demand, &view)
                    .unwrap_or_else(|| dispatcher.place(&demand, &view));
                assert!(
                    placed < state.servers.active_servers(),
                    "dispatcher placed outside the active fleet"
                );
                let class = state.servers.class_of(placed);
                let chosen = demand.classes[class];
                let steady = chosen.state;
                let start = Seconds::new(now.value().max(state.servers.free_at(placed).value()));
                let wait = start - now;
                if serving {
                    // Request latency is fully determined at placement:
                    // dispatch wait plus the chosen configuration's runtime.
                    let latency = wait + chosen.runtime;
                    latency_all.record(latency);
                    latency_window.record(latency);
                }
                let rack = state.servers.rack_of(placed);
                let end = start + chosen.runtime;
                let violated = wait.value() > chosen.wait_budget.value() + 1e-9;
                if violated {
                    state.violations += 1;
                }
                placements.push(Placement {
                    job: job.id,
                    server: placed,
                    rack,
                    class,
                    start,
                    end,
                    wait,
                    violated,
                    state: steady,
                });
                state.loads.add(rack, &steady, end);
                state.servers.set_free_at(placed, end);
                state.running.commit(rack, class, &steady, start, end);
                if closed_loop {
                    queue.push(
                        end,
                        Event::JobCompletion {
                            job: job.id,
                            server: placed,
                        },
                    );
                }
            }
        }
        // The trace ends exactly at the makespan: record the drained fleet
        // once, at the event that drains it — a completion, or a shed
        // arrival when the run ends on one (its row must carry the final
        // shed count). Both settled the running set to `now`.
        if drains && state.done() && !final_sampled {
            if let Some(trace) = trace.as_mut() {
                trace.push(sample(&state, now, config, serving.then_some(&latency_all)));
                final_sampled = true;
            }
        }
    }

    let qstats = queue.stats();
    let mut outcome = FleetOutcome::new(
        dispatcher.name(),
        control.name(),
        placements,
        state.shed,
        fleet.class_names(),
        state.running.finish(),
    );
    if serving {
        // Time-weighted mean of the active-server timeline over the run,
        // plus the envelope the autoscaler actually explored.
        let makespan = outcome.makespan.value();
        let mut mean = 0.0;
        let mut t_prev = 0.0;
        let mut cur = n_servers;
        let mut min_a = n_servers;
        let mut max_a = n_servers;
        for &(t, n) in &activations {
            let t = t.value().clamp(0.0, makespan);
            mean += cur as f64 * (t - t_prev);
            t_prev = t;
            cur = n;
            min_a = min_a.min(n);
            max_a = max_a.max(n);
        }
        mean += cur as f64 * (makespan - t_prev);
        let mean = if makespan > 0.0 {
            mean / makespan
        } else {
            cur as f64
        };
        outcome.serving = Some(ServingOutcome {
            requests: outcome.placements.len(),
            latency_p50: latency_all.quantile(0.5).unwrap_or(Seconds::ZERO),
            latency_p95: latency_all.quantile(0.95).unwrap_or(Seconds::ZERO),
            latency_p99: latency_all.quantile(0.99).unwrap_or(Seconds::ZERO),
            mean_active_servers: mean,
            min_active_servers: min_a,
            max_active_servers: max_a,
        });
    }
    Ok(SimResult {
        outcome,
        trace,
        stats: KernelStats {
            events: qstats.pushed,
            peak_queue_depth: qstats.peak_depth,
            arena_high_water: qstats.arena_high_water,
            table_hits,
            miss_solves,
            // Cache locks observed over this run. A steady-state replay
            // on a covering table reads 0 — the zero-lock smoke pins it.
            lock_acquisitions: cache.lock_acquisitions() - locks_at_entry,
        },
    })
}

/// Resolves a control-policy placement hint to a concrete server, or
/// `None` when the hint no longer holds: the rack left the active
/// prefix, the class id is unknown, the rack hosts no such class, or the
/// earliest free server of that class would blow the job's wait budget.
/// Falling back to the dispatcher in all of those cases means hints can
/// only redirect placements the fleet can absorb.
fn hinted_server(
    hint: Option<PlacementHint>,
    demand: &JobDemand<'_>,
    view: &FleetView<'_>,
) -> Option<usize> {
    let hint = hint?;
    if hint.rack >= view.servers.active_racks() || hint.class >= demand.classes.len() {
        return None;
    }
    let (server, _) = view.servers.earliest_free_of_class(hint.rack, hint.class)?;
    let wait = view.wait_on(server);
    (wait.value() <= demand.class(hint.class).wait_budget.value() + 1e-9).then_some(server)
}

/// Captures one telemetry sample from the settled running set: its rack
/// views, power tally and exact fleet cooling draw. In serving mode
/// `latency` carries the whole-run percentile sketch and the sample gains
/// the active-server count and latency quantiles.
fn sample(
    state: &FleetState,
    now: Seconds,
    config: &FleetConfig,
    latency: Option<&LatencyHistogram>,
) -> FleetSample {
    let running = &state.running;
    let (tally, views) = (&running.tally, running.ledger.views());
    let idle = state.servers.active_servers().saturating_sub(tally.running) as f64
        * config.idle_server_power.value();
    FleetSample {
        t: now,
        setpoint: state.setpoint,
        queued: state.queued(),
        running: tally.running,
        shed: state.shed,
        violations: state.violations,
        it_power: Watts::new(tally.power + idle),
        cooling_power: Watts::new(running.cooling.watts()),
        rack_heat: views.iter().map(|v| v.heat).collect(),
        rack_water: views.iter().map(|v| v.supply).collect(),
        class_running: tally.class_running.clone(),
        class_it_power: tally.class_power.iter().map(|&p| Watts::new(p)).collect(),
        serving: latency.map(|h| ServingSample {
            active_servers: state.servers.active_servers(),
            p50: h.quantile(0.5).unwrap_or(Seconds::ZERO),
            p95: h.quantile(0.95).unwrap_or(Seconds::ZERO),
            p99: h.quantile(0.99).unwrap_or(Seconds::ZERO),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_class_then_push_order() {
        let mut q = EventQueue::new();
        let t = Seconds::new(10.0);
        q.push(t, Event::JobArrival(0));
        q.push(t, Event::TelemetrySample);
        q.push(t, Event::ControlTick);
        q.push(t, Event::SetpointChange(Celsius::new(45.0)));
        q.push(t, Event::JobCompletion { job: 9, server: 1 });
        q.push(Seconds::new(2.0), Event::JobArrival(7));
        assert_eq!(q.len(), 6);

        // Earlier time first, regardless of class.
        assert_eq!(q.pop(), Some((Seconds::new(2.0), Event::JobArrival(7))));
        // Same instant: completion, set-point, tick, sample, arrival.
        assert_eq!(
            q.pop(),
            Some((t, Event::JobCompletion { job: 9, server: 1 }))
        );
        assert_eq!(
            q.pop(),
            Some((t, Event::SetpointChange(Celsius::new(45.0))))
        );
        assert_eq!(q.pop(), Some((t, Event::ControlTick)));
        assert_eq!(q.pop(), Some((t, Event::TelemetrySample)));
        assert_eq!(q.pop(), Some((t, Event::JobArrival(0))));
        assert!(q.is_empty());
        let stats = q.stats();
        assert_eq!(stats.pushed, 6);
        assert_eq!(stats.peak_depth, 6);
    }

    #[test]
    fn queue_ties_within_a_class_pop_in_push_order() {
        let mut q = EventQueue::new();
        let t = Seconds::new(3.0);
        for id in [4usize, 2, 9] {
            q.push(t, Event::JobArrival(id));
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            popped,
            vec![
                Event::JobArrival(4),
                Event::JobArrival(2),
                Event::JobArrival(9)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn queue_rejects_negative_times() {
        EventQueue::new().push(Seconds::new(-1.0), Event::ControlTick);
    }

    #[test]
    fn rack_loads_track_supply_and_drain_to_exact_zero() {
        let mut loads = RackLoads::new(2);
        let state = |heat: f64, water: f64| SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(water),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        };
        loads.add(0, &state(50.0, 80.0), Seconds::new(10.0));
        loads.add(0, &state(70.0, 60.0), Seconds::new(20.0));
        assert_eq!(loads.total_committed(), 2);
        let views = loads.views();
        assert_eq!(views[0].heat, Watts::new(120.0));
        // The coldest committed demand caps the shared supply.
        assert_eq!(views[0].supply, Some(Celsius::new(60.0)));
        assert_eq!(views[1].supply, None);

        loads.expire_until(Seconds::new(10.0));
        let views = loads.views();
        assert_eq!(views[0].heat, Watts::new(70.0));
        assert_eq!(views[0].supply, Some(Celsius::new(60.0)));

        loads.expire_until(Seconds::new(25.0));
        let views = loads.views();
        assert_eq!(views[0].heat.value(), 0.0);
        assert_eq!(views[0].supply, None);
        assert_eq!(loads.total_committed(), 0);
    }

    #[test]
    fn rack_loads_maintain_the_occupancy_index() {
        let mut loads = RackLoads::with_groups(4, vec![0, 0, 1, 1], 2);
        assert_eq!(loads.occupied_racks().len(), 0);
        assert_eq!(loads.idle_groups()[0].len(), 2);
        assert_eq!(loads.idle_groups()[1].len(), 2);

        let state = |heat: f64| SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(70.0),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        };
        loads.add(2, &state(50.0), Seconds::new(10.0));
        loads.add(0, &state(30.0), Seconds::new(20.0));
        // Occupied orders by heat (bits), not rack index.
        let occ: Vec<u32> = loads.occupied_racks().iter().map(|e| e.rack).collect();
        assert_eq!(occ, vec![0, 2]);
        assert_eq!(
            loads.idle_groups()[0].iter().copied().collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(
            loads.idle_groups()[1].iter().copied().collect::<Vec<_>>(),
            vec![3]
        );
        let stamp_before = loads.stamps()[2];

        loads.expire_until(Seconds::new(15.0));
        // Rack 2 drained: back to its group's idle set, stamp bumped.
        assert_eq!(loads.occupied_racks().len(), 1);
        assert_eq!(
            loads.idle_groups()[1].iter().copied().collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(loads.stamps()[2] > stamp_before);
        // Maintained views match a naive read of the drained state.
        assert_eq!(loads.view_slice()[2].heat.value(), 0.0);
        assert_eq!(loads.view_slice()[2].committed, 0);
        assert_eq!(loads.view_slice()[0].heat, Watts::new(30.0));
    }

    #[test]
    fn running_set_settles_starts_before_ends_and_pins_zero() {
        let mut run = RunningSet::new(&FleetConfig::new(1, 1), 2);
        let state = |heat: f64| SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(70.0),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        };
        run.commit(0, 0, &state(40.0), Seconds::new(0.0), Seconds::new(10.0));
        run.commit(0, 1, &state(60.0), Seconds::new(10.0), Seconds::new(20.0));
        run.settle(Seconds::new(5.0));
        assert_eq!(run.tally.running, 1);
        assert_eq!(run.tally.power, 40.0);
        assert_eq!(run.tally.class_running, vec![1, 0]);
        // At t = 10 the first job's end and the second's start coincide:
        // both fold, leaving exactly the second running.
        run.settle(Seconds::new(10.0));
        assert_eq!(run.tally.running, 1);
        assert_eq!(run.tally.power, 60.0);
        assert_eq!(run.tally.class_running, vec![0, 1]);
        assert_eq!(run.tally.class_power, vec![0.0, 60.0]);
        run.settle(Seconds::new(30.0));
        assert_eq!(run.tally.running, 0);
        assert_eq!(run.tally.power, 0.0);
        assert_eq!(run.ledger.view(0).heat.value(), 0.0);
        assert_eq!(run.tally.class_power, vec![0.0, 0.0]);
    }
}
