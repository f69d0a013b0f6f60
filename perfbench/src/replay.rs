//! Component replays through the public API, driven by the placements a
//! run produced: the event queue, the rack-load index and the dispatcher,
//! each timed on its own. The event loop and energy integration are
//! crate-private, so their layers are only reachable this way from
//! outside the kernel.

use crate::pipeline::Prepared;
use std::time::Instant;
use tps_cluster::{
    CalendarQueue, ClassDemand, ClassId, ClassSolve, ControlAction, Event, FleetIndex, FleetView,
    JobDemand, Placement, RackLoads, ServerTable, ARRIVAL_LOOKAHEAD,
};
use tps_units::{Celsius, Seconds};
use tps_workload::{Benchmark, QosClass};

/// Busy time and operation count of one replayed layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Seconds spent inside the layer's calls.
    pub busy_s: f64,
    /// Calls made.
    pub ops: u64,
}

impl Busy {
    /// Nanoseconds per call.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.busy_s * 1e9 / self.ops as f64
        }
    }
}

/// What the replays measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replays {
    /// `CalendarQueue::push`/`pop`.
    pub queue: Busy,
    /// `RackLoads::add`/`expire_until`.
    pub index: Busy,
    /// Most racks holding committed load at once.
    pub peak_occupied_racks: usize,
    /// `FleetDispatcher::place`.
    pub dispatch: Busy,
    /// Share of replayed picks equal to the kernel's.
    pub replay_match: f64,
}

/// Arrival order as the kernel processes it: by time, then id.
fn arrival_order(p: &Prepared) -> Vec<usize> {
    let mut order: Vec<usize> = (0..p.jobs.len()).collect();
    order.sort_by(|&a, &b| {
        let (ja, jb) = (&p.jobs[a], &p.jobs[b]);
        ja.arrival
            .value()
            .total_cmp(&jb.arrival.value())
            .then(ja.id.cmp(&jb.id))
    });
    order
}

/// Each job's placement, by job id (`None` for a shed job).
fn placement_of(jobs: usize, placements: &[Placement]) -> Vec<Option<Placement>> {
    let mut by_job = vec![None; jobs];
    for pl in placements {
        by_job[pl.job] = Some(*pl);
    }
    by_job
}

/// Rack groups exactly as the kernel forms them: racks hosting the same
/// class pattern share a group.
fn rack_groups(servers: &ServerTable) -> (Vec<u32>, Vec<Vec<ClassId>>) {
    let mut group_classes: Vec<Vec<ClassId>> = Vec::new();
    let group_of = (0..servers.racks())
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
    (group_of, group_classes)
}

/// Replays the run's event times through a `CalendarQueue` the way the
/// kernel feeds it: a bounded arrival window, a completion per placement
/// on the closed loop, re-armed ticks and samples while work remains.
fn replay_queue(p: &Prepared, placements: &[Option<Placement>], order: &[usize]) -> Busy {
    let control = p.scenario.control.instantiate();
    let tick = control.tick_interval();
    let sample = p.scenario.telemetry.map(|t| Seconds::new(t.sample_s));
    // The kernel's closed loop: completion events exist only when ticks
    // or samples need them.
    let closed = tick.is_some() || sample.is_some();
    let jobs = &p.jobs;
    let started = Instant::now();
    let mut q = CalendarQueue::new();
    let mut ops = 0u64;
    for &ji in order.iter().take(ARRIVAL_LOOKAHEAD) {
        q.push(jobs[ji].arrival, Event::JobArrival(ji));
        ops += 1;
    }
    let mut next = order.len().min(ARRIVAL_LOOKAHEAD);
    for (t, c) in control.setpoint_program() {
        q.push(t, Event::SetpointChange(c));
        ops += 1;
    }
    if let Some(dt) = tick {
        q.push(dt, Event::ControlTick);
        ops += 1;
    }
    if sample.is_some() {
        q.push(Seconds::ZERO, Event::TelemetrySample);
        ops += 1;
    }
    let mut pending = order.len();
    let mut in_flight = 0usize;
    while let Some((now, event)) = q.pop() {
        ops += 1;
        let done = pending == 0 && in_flight == 0;
        match event {
            Event::JobArrival(ji) => {
                if next < order.len() {
                    q.push(jobs[order[next]].arrival, Event::JobArrival(order[next]));
                    next += 1;
                    ops += 1;
                }
                pending -= 1;
                if let (true, Some(pl)) = (closed, placements[ji]) {
                    q.push(
                        pl.end,
                        Event::JobCompletion {
                            job: pl.job,
                            server: pl.server,
                        },
                    );
                    in_flight += 1;
                    ops += 1;
                }
            }
            Event::JobCompletion { .. } => in_flight -= 1,
            Event::ControlTick => {
                if let (false, Some(dt)) = (done, tick) {
                    q.push(now + dt, Event::ControlTick);
                    ops += 1;
                }
            }
            Event::TelemetrySample => {
                if let (false, Some(dt)) = (done, sample) {
                    q.push(now + dt, Event::TelemetrySample);
                    ops += 1;
                }
            }
            Event::SetpointChange(_) => {}
        }
    }
    Busy {
        busy_s: started.elapsed().as_secs_f64(),
        ops,
    }
}

/// Replays the run's placements through `RackLoads`: expire up to each
/// arrival, then commit the kernel's placement.
fn replay_index(
    p: &Prepared,
    placements: &[Option<Placement>],
    order: &[usize],
    groups: &(Vec<u32>, Vec<Vec<ClassId>>),
) -> (Busy, usize) {
    let racks = p.fleet.config().racks;
    let mut loads = RackLoads::with_groups(racks, groups.0.clone(), groups.1.len());
    let mut peak = 0usize;
    let mut ops = 0u64;
    let started = Instant::now();
    for &ji in order {
        loads.expire_until(p.jobs[ji].arrival);
        ops += 1;
        if let Some(pl) = placements[ji] {
            loads.add(pl.rack, &pl.state, pl.end);
            ops += 1;
            peak = peak.max(loads.occupied_racks().len());
        }
    }
    let busy = Busy {
        busy_s: started.elapsed().as_secs_f64(),
        ops,
    };
    (busy, peak)
}

/// A change to the fleet the dispatcher sees, at its instant.
enum Change {
    Setpoint(Celsius),
    Active(usize),
}

/// Replays every arrival through a fresh dispatcher of the run's kind,
/// on a `FleetView` built from a replayed `RackLoads` and server table
/// that follow the kernel's own placements, set-point moves and
/// active-server changes. Only `place` is timed. Returns the busy time
/// and the share of picks equal to the kernel's.
fn replay_dispatch(
    p: &Prepared,
    placements: &[Option<Placement>],
    order: &[usize],
    groups: &(Vec<u32>, Vec<Vec<ClassId>>),
    actions: &[(Seconds, ControlAction)],
) -> Result<(Busy, f64), String> {
    let config = p.fleet.config();
    let mut servers = ServerTable::new(p.fleet.server_classes().to_vec(), config.servers_per_rack);
    let mut loads = RackLoads::with_groups(config.racks, groups.0.clone(), groups.1.len());
    let mut changes: Vec<(Seconds, Change)> = p
        .scenario
        .control
        .instantiate()
        .setpoint_program()
        .into_iter()
        .map(|(t, c)| (t, Change::Setpoint(c)))
        .collect();
    // Program changes precede tick actions at one instant, as in the
    // kernel's event order; the sort is stable.
    changes.extend(actions.iter().filter_map(|&(t, a)| match a {
        ControlAction::SetSetpoint(c) => Some((t, Change::Setpoint(c))),
        ControlAction::SetActiveServers(n) => Some((t, Change::Active(n))),
        ControlAction::SetShedding(_) => None,
    }));
    changes.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));

    // Per-(bench, qos) demand states from the published table, indexed
    // like the kernel's demand signatures.
    let table = p.cache.table().ok_or("no published table")?;
    let class_count = p.fleet.class_names().len();
    if class_count != 1 {
        return Err("dispatch replay supports single-class fleets".into());
    }
    let class = ClassSolve {
        id: 0,
        server: p.fleet.server(),
        policy: config.policy,
    };
    let mut pairs: Vec<(Benchmark, QosClass)> = p.jobs.iter().map(|j| (j.bench, j.qos)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let states = pairs
        .iter()
        .map(|&(b, q)| table.lookup(&class, b, q).ok_or("table lacks a pair"))
        .collect::<Result<Vec<_>, _>>()?;

    let mut dispatcher = p.scenario.dispatcher.instantiate();
    dispatcher.begin_run();
    let mut chiller = config.chiller.clone();
    let mut epoch = 0u64;
    let mut next_change = 0;
    let mut busy = Busy::default();
    let mut matched = 0usize;
    let mut placed = 0usize;
    let mut demand_scratch: Vec<ClassDemand> = Vec::with_capacity(1);
    for &ji in order {
        let job = &p.jobs[ji];
        let now = job.arrival;
        while next_change < changes.len() && changes[next_change].0.value() <= now.value() {
            match changes[next_change].1 {
                Change::Setpoint(c) => {
                    chiller = config.chiller.with_ambient(c);
                    epoch += 1;
                }
                Change::Active(n) => {
                    servers.set_active_servers(n);
                }
            }
            next_change += 1;
        }
        loads.expire_until(now);
        let Some(pl) = placements[ji] else { continue };
        let sig = pairs
            .binary_search(&(job.bench, job.qos))
            .map_err(|_| "job pair missing")?;
        let steady = states[sig];
        demand_scratch.clear();
        demand_scratch.push(ClassDemand {
            state: steady,
            runtime: job.service * steady.normalized_time,
            wait_budget: job.wait_budget(steady.normalized_time),
        });
        let demand = JobDemand {
            job,
            classes: &demand_scratch,
            sig: sig as u32,
        };
        let view = FleetView {
            now,
            racks: loads.view_slice(),
            servers: &servers,
            chiller: &chiller,
            chiller_epoch: epoch,
            index: Some(FleetIndex {
                occupied: loads.occupied_racks(),
                idle_min: loads.idle_group_mins(),
                group_of: loads.rack_groups(),
                group_classes: &groups.1,
                stamps: loads.stamps(),
            }),
            halls: None,
        };
        let started = Instant::now();
        let pick = dispatcher.place(&demand, &view);
        busy.busy_s += started.elapsed().as_secs_f64();
        busy.ops += 1;
        placed += 1;
        matched += usize::from(pick == pl.server);
        // Follow the kernel, not the replay, so one drifted pick cannot
        // compound.
        loads.add(pl.rack, &pl.state, pl.end);
        servers.set_free_at(pl.server, pl.end);
    }
    Ok((busy, matched as f64 / placed.max(1) as f64))
}

/// Runs all three replays on one run's placements and control actions.
pub fn replay(
    p: &Prepared,
    placements: &[Placement],
    actions: &[(Seconds, ControlAction)],
    tracer: &mut crate::span::Tracer,
) -> Result<Replays, String> {
    let order = arrival_order(p);
    let by_job = placement_of(p.jobs.len(), placements);
    let servers = ServerTable::new(
        p.fleet.server_classes().to_vec(),
        p.fleet.config().servers_per_rack,
    );
    let groups = rack_groups(&servers);
    tracer.next_run();
    tracer.span("replay", |t| {
        let queue = t.span("queue.replay", |_| replay_queue(p, &by_job, &order));
        let (index, peak_occupied_racks) = t.span("index.replay", |_| {
            replay_index(p, &by_job, &order, &groups)
        });
        let (dispatch, replay_match) = t.span("dispatch.replay", |_| {
            replay_dispatch(p, &by_job, &order, &groups, actions)
        })?;
        Ok(Replays {
            queue,
            index,
            peak_occupied_racks,
            dispatch,
            replay_match,
        })
    })
}
