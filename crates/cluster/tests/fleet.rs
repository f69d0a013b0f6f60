//! End-to-end fleet scenarios: the headline energy ordering and the
//! determinism guarantees the CLI relies on.

use tps_cluster::{
    synthesize_jobs, ClassDemand, CoolestRackFirst, Fleet, FleetConfig, FleetDispatcher, FleetView,
    JobDemand, JobMix, OutcomeCache, PlannedDispatch, RackView, RoundRobin, SetpointScheduler,
    StaticControl, SteadyState, TelemetryConfig, ThermalAwareDispatch,
};
use tps_cooling::Chiller;
use tps_units::{Celsius, Seconds, Watts};
use tps_workload::{BurstyDemand, DiurnalDemand};

/// The shipped heat-reuse scenario, scaled down to 4 racks × 4 servers.
fn heat_reuse_fleet() -> Fleet {
    let mut config = FleetConfig::new(4, 4);
    config.grid_pitch_mm = 3.0;
    Fleet::new(config)
}

fn diurnal_jobs(count: usize, seed: u64) -> Vec<tps_cluster::Job> {
    let demand = DiurnalDemand::new(0.18 * 0.2, 0.18, Seconds::new(600.0));
    synthesize_jobs(count, &demand, JobMix::default(), seed)
}

#[test]
fn thermal_aware_beats_round_robin_on_the_heat_reuse_scenario() {
    let fleet = heat_reuse_fleet();
    let jobs = diurnal_jobs(120, 42);
    let cache = OutcomeCache::new();
    let rr = fleet
        .simulate(&jobs, &mut RoundRobin::default(), &cache)
        .unwrap();
    let coolest = fleet
        .simulate(&jobs, &mut CoolestRackFirst, &cache)
        .unwrap();
    let ta = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();

    // The headline: segregating thermally demanding jobs cuts chiller
    // energy, and with it total (IT + cooling) energy.
    assert!(
        ta.cooling_energy.value() < rr.cooling_energy.value() * 0.95,
        "thermal-aware cooling {} should undercut round-robin {}",
        ta.cooling_energy,
        rr.cooling_energy
    );
    assert!(
        ta.total_energy().value() < rr.total_energy().value(),
        "thermal-aware total {} should undercut round-robin {}",
        ta.total_energy(),
        rr.total_energy()
    );
    // Load balancing by heat sits between the two.
    assert!(ta.total_energy().value() <= coolest.total_energy().value() + 1e-9);
    // Same jobs, same servers: IT energy only drifts through idle time.
    let it_ratio = ta.it_energy / rr.it_energy;
    assert!((0.98..=1.02).contains(&it_ratio), "IT drifted: {it_ratio}");
    // QoS: the wait-budget-aware dispatcher violates no more than striping.
    assert!(ta.violations <= rr.violations);
    // The scenario is meaningfully loaded: PUE above free-cooling floor.
    assert!(rr.pue() > 1.05, "round-robin PUE {}", rr.pue());
}

#[test]
fn outcomes_are_independent_of_warmup_thread_count() {
    let jobs = diurnal_jobs(40, 7);
    let mut outcomes = Vec::new();
    for threads in [1, 8] {
        let mut config = FleetConfig::new(2, 3);
        config.grid_pitch_mm = 3.0;
        config.threads = threads;
        let fleet = Fleet::new(config);
        let cache = OutcomeCache::new();
        outcomes.push(
            fleet
                .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
                .unwrap(),
        );
    }
    // Byte-identical results: thread count only parallelizes the warm-up,
    // whose values are pure functions of their key.
    assert_eq!(outcomes[0], outcomes[1]);
}

#[test]
fn bursty_demand_runs_end_to_end() {
    let demand = BurstyDemand::new(0.05, 0.6, Seconds::new(60.0), Seconds::new(240.0), 11);
    let jobs = synthesize_jobs(60, &demand, JobMix::default(), 11);
    let mut config = FleetConfig::new(2, 4);
    config.grid_pitch_mm = 3.0;
    let fleet = Fleet::new(config);
    let cache = OutcomeCache::new();
    let out = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();
    assert_eq!(out.placements.len(), 60);
    assert!(out.it_energy.value() > 0.0);
    assert!(out.makespan.value() > 0.0);
    // Every placement lands inside the fleet.
    assert!(out.placements.iter().all(|p| p.rack < 2 && p.server < 8));
}

/// The heat-reuse dispatcher table, bit for bit, on the shipped
/// heat-reuse scenario under `StaticControl`. Violations, makespan, the
/// wait statistics, IT energy and peak rack heat are still the patterns
/// the pre-kernel simulator (the monolithic arrival loop) produced.
/// Cooling energy comes from the kernel's running set, which integrates
/// inside the event loop and holds the fleet's chiller draw as an exact
/// fixed-point sum rounded once per window. A refactor that perturbs
/// even the last mantissa bit of any energy sum, wait statistic or
/// makespan fails here; `energy_matches_a_double_double_reference`
/// (`tests/energy.rs`) bounds how accurate the energy sums are.
#[test]
fn static_control_reproduces_the_pre_kernel_heat_reuse_table_bit_for_bit() {
    // (dispatcher, it_energy, cooling_energy, violations, makespan,
    //  mean_wait, max_wait, peak_rack_heat) — f64s as raw bits.
    const GOLDEN: [(&str, u64, u64, usize, u64, u64, u64, u64); 3] = [
        (
            "round-robin",
            0x411a6e67f13ee294,
            0x40e04a2fc1efee6a,
            17,
            0x40966f404dc0f570,
            0x40187afc832dbc2d,
            0x4057fb67a570b2fc,
            0x406aed4bb2b5d3aa,
        ),
        (
            "coolest-rack-first",
            0x411a6e67f13ee29a,
            0x40de2e0215b9b441,
            8,
            0x40966f404dc0f570,
            0x40017c4b0482ad2d,
            0x404774fc68054d50,
            0x4066238f925c41be,
        ),
        (
            "thermal-aware",
            0x411a6e67f13ee294,
            0x40db498d234b79df,
            3,
            0x40966f404dc0f570,
            0x3fee0a0f56d3349a,
            0x4037cd6724651080,
            0x406b05631dd45e63,
        ),
    ];
    let fleet = heat_reuse_fleet();
    let jobs = diurnal_jobs(120, 42);
    let cache = OutcomeCache::new();
    let mut dispatchers: Vec<Box<dyn tps_cluster::FleetDispatcher>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(CoolestRackFirst),
        Box::new(ThermalAwareDispatch::default()),
    ];
    for (d, golden) in dispatchers.iter_mut().zip(GOLDEN) {
        let out = fleet.simulate(&jobs, d.as_mut(), &cache).unwrap();
        assert_eq!(out.dispatcher, golden.0);
        assert_eq!(out.control, "static");
        assert_eq!(
            out.it_energy.value().to_bits(),
            golden.1,
            "{}: IT energy drifted to {}",
            golden.0,
            out.it_energy
        );
        assert_eq!(
            out.cooling_energy.value().to_bits(),
            golden.2,
            "{}: cooling energy drifted to {}",
            golden.0,
            out.cooling_energy
        );
        assert_eq!(out.violations, golden.3, "{}: violations", golden.0);
        assert_eq!(out.makespan.value().to_bits(), golden.4, "{}", golden.0);
        assert_eq!(out.mean_wait.value().to_bits(), golden.5, "{}", golden.0);
        assert_eq!(out.max_wait.value().to_bits(), golden.6, "{}", golden.0);
        assert_eq!(
            out.peak_rack_heat.value().to_bits(),
            golden.7,
            "{}",
            golden.0
        );
    }
}

#[test]
fn trace_csv_is_byte_identical_across_warmup_thread_counts() {
    let jobs = diurnal_jobs(60, 9);
    let mut csvs = Vec::new();
    for threads in [1, 8] {
        let mut config = FleetConfig::new(2, 3);
        config.grid_pitch_mm = 3.0;
        config.threads = threads;
        let fleet = Fleet::new(config);
        let cache = OutcomeCache::new();
        let telemetry = TelemetryConfig {
            sample_interval: Seconds::new(15.0),
            capacity: 4096,
        };
        let result = fleet
            .simulate_with(
                &jobs,
                &mut ThermalAwareDispatch::default(),
                &mut StaticControl,
                Some(&telemetry),
                &cache,
            )
            .unwrap();
        csvs.push(result.trace.expect("telemetry was on").to_csv());
    }
    assert_eq!(csvs[0], csvs[1]);
    // The trace is a real time series: header plus multiple samples, the
    // last of which is the drained fleet at the makespan.
    assert!(csvs[0].lines().count() > 3, "{}", csvs[0]);
    let last = csvs[0].lines().last().unwrap();
    let fields: Vec<&str> = last.split(',').collect();
    assert_eq!(fields[2], "0", "queued at makespan: {last}");
    assert_eq!(fields[3], "0", "running at makespan: {last}");
}

#[test]
fn setpoint_scheduler_cuts_cooling_on_the_heat_reuse_scenario() {
    let fleet = heat_reuse_fleet();
    let jobs = diurnal_jobs(80, 21);
    let cache = OutcomeCache::new();
    let stat = fleet
        .simulate(&jobs, &mut ThermalAwareDispatch::default(), &cache)
        .unwrap();
    // Drop the heat-reuse loop from 70 °C to 45 °C for the middle of the
    // run: most supplies then free-cool, trading reuse-grade heat for
    // chiller electricity.
    let t1 = stat.makespan * 0.25;
    let t2 = stat.makespan * 0.75;
    let mut sched = SetpointScheduler::new(vec![
        (Seconds::new(t1.value()), Celsius::new(45.0)),
        (Seconds::new(t2.value()), Celsius::new(70.0)),
    ]);
    let ctrl = fleet
        .simulate_with(
            &jobs,
            &mut ThermalAwareDispatch::default(),
            &mut sched,
            None,
            &cache,
        )
        .unwrap()
        .outcome;
    assert!(
        ctrl.cooling_energy.value() < stat.cooling_energy.value(),
        "scheduled {} vs static {}",
        ctrl.cooling_energy,
        stat.cooling_energy
    );
    assert_eq!(ctrl.placements.len(), jobs.len());
}

#[test]
fn calendar_queue_matches_the_heap_oracle_end_to_end() {
    // Same jobs, same fleet, both queue disciplines, every dispatcher, in
    // a closed loop (telemetry plus a set-point program) so all five
    // event classes flow through the queue: the outcome and the trace
    // CSV must be byte-identical. `Debug` on the outcome prints floats
    // at round-trip precision, so equal strings pin the bit patterns.
    let jobs = diurnal_jobs(80, 11);
    for disp in 0..3usize {
        let run = |heap: bool| {
            let mut config = FleetConfig::new(2, 3);
            config.grid_pitch_mm = 3.0;
            let fleet = Fleet::new(config);
            let cache = OutcomeCache::new();
            let telemetry = TelemetryConfig {
                sample_interval: Seconds::new(15.0),
                capacity: 4096,
            };
            let mut control =
                SetpointScheduler::new(vec![(Seconds::new(40.0), Celsius::new(45.0))]);
            let mut dispatcher: Box<dyn tps_cluster::FleetDispatcher> = match disp {
                0 => Box::new(RoundRobin::default()),
                1 => Box::new(CoolestRackFirst),
                _ => Box::new(ThermalAwareDispatch::default()),
            };
            let result = if heap {
                fleet.simulate_with_heap_queue(
                    &jobs,
                    dispatcher.as_mut(),
                    &mut control,
                    Some(&telemetry),
                    &cache,
                )
            } else {
                fleet.simulate_with(
                    &jobs,
                    dispatcher.as_mut(),
                    &mut control,
                    Some(&telemetry),
                    &cache,
                )
            }
            .unwrap();
            (
                result.outcome,
                result.trace.expect("telemetry was on").to_csv(),
            )
        };
        let (cal_outcome, cal_csv) = run(false);
        let (heap_outcome, heap_csv) = run(true);
        assert_eq!(
            format!("{cal_outcome:?}"),
            format!("{heap_outcome:?}"),
            "outcome diverged for dispatcher {disp}"
        );
        assert_eq!(cal_csv, heap_csv, "trace diverged for dispatcher {disp}");
    }
}

/// Forces the full-enumeration oracle: forwards every arrival to the inner
/// dispatcher with the index stripped from the view. It also counts the
/// arrivals whose first-choice slot — the pick under unlimited wait
/// budgets — blows its real budget, i.e. the arrivals that exercise the
/// wait-budget fallback.
struct Unindexed<D> {
    inner: D,
    first_choice_failed: usize,
}

impl<D: FleetDispatcher> FleetDispatcher for Unindexed<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let scan = FleetView {
            index: None,
            ..*view
        };
        let unlimited: Vec<ClassDemand> = demand
            .classes
            .iter()
            .map(|c| ClassDemand {
                wait_budget: Seconds::new(f64::INFINITY),
                ..*c
            })
            .collect();
        let first = self.inner.place(
            &JobDemand {
                classes: &unlimited,
                ..*demand
            },
            &scan,
        );
        let budget = demand.class(view.servers.class_of(first)).wait_budget;
        if view.wait_on(first) > budget {
            self.first_choice_failed += 1;
        }
        self.inner.place(demand, &scan)
    }

    fn begin_run(&mut self) {
        self.inner.begin_run();
    }
}

/// Chiller electricity the rack pays per unit time if the job joins it.
fn marginal_power(chiller: &Chiller, rack: &RackView, state: &SteadyState) -> f64 {
    let current = match rack.supply {
        Some(supply) => chiller.electrical_power(rack.heat, supply),
        None => Watts::ZERO,
    };
    let joint_supply = rack
        .supply
        .map_or(state.max_water_temp, |s| s.min(state.max_water_temp));
    let joint = chiller.electrical_power(rack.heat + state.heat, joint_supply);
    (joint - current).value()
}

/// Total-energy dispatch written as a sorted ranking walked in order: the
/// reference [`PlannedDispatch`]'s single feasible-minimum pass must match.
#[derive(Default)]
struct SortedPlanned {
    first_choice_failed: usize,
}

impl FleetDispatcher for SortedPlanned {
    fn name(&self) -> &'static str {
        "planned"
    }

    fn place(&mut self, demand: &JobDemand<'_>, view: &FleetView<'_>) -> usize {
        let mut ranked: Vec<(f64, f64, usize, usize)> = Vec::new();
        for i in 0..view.servers.active_racks() {
            let rack = view.rack_view(i);
            for &class in view.classes_in_rack(i) {
                let d = demand.class(class);
                let energy = d.runtime.value()
                    * (d.state.package_power.value()
                        + marginal_power(view.chiller, rack, &d.state));
                ranked.push((energy, rack.heat.value(), i, class));
            }
        }
        ranked.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        for (k, &(_, _, rack, class)) in ranked.iter().enumerate() {
            let (server, _) = view.earliest_free_of_class(rack, class).unwrap();
            if view.wait_on(server) <= demand.class(class).wait_budget {
                return server;
            }
            if k == 0 {
                self.first_choice_failed += 1;
            }
        }
        let free = view.servers.free_slice();
        (0..view.servers.active_servers())
            .min_by(|&a, &b| free[a].value().total_cmp(&free[b].value()))
            .unwrap()
    }
}

#[test]
fn the_feasible_pass_matches_the_sorted_ranking_on_a_loaded_fleet() {
    // 64 racks × 4 servers, one diurnal cycle keeping about half the
    // fleet busy on average, under the 70 → 45 → 70 °C set-point program:
    // enough load that many arrivals find their cheapest slot queued past
    // its wait budget.
    let (racks, per_rack, jobs_n) = (64, 4, 1500);
    let demand = DiurnalDemand::new(0.6, 3.0, Seconds::new(1200.0));
    let jobs = synthesize_jobs(jobs_n, &demand, JobMix::default(), 5);
    let mut config = FleetConfig::new(racks, per_rack);
    config.grid_pitch_mm = 3.0;
    let fleet = Fleet::new(config);
    let cache = OutcomeCache::new();
    let span = jobs.last().unwrap().arrival.value();
    let program = || {
        SetpointScheduler::new(vec![
            (Seconds::new(span / 3.0), Celsius::new(45.0)),
            (Seconds::new(2.0 * span / 3.0), Celsius::new(70.0)),
        ])
    };
    let run = |d: &mut dyn FleetDispatcher| {
        fleet
            .simulate_with(&jobs, d, &mut program(), None, &cache)
            .unwrap()
            .outcome
    };

    let indexed = run(&mut ThermalAwareDispatch::default());
    let mut scan = Unindexed {
        inner: ThermalAwareDispatch::default(),
        first_choice_failed: 0,
    };
    let oracle = run(&mut scan);
    let mut planned_sorted = SortedPlanned::default();
    let planned = run(&mut PlannedDispatch);
    let planned_oracle = run(&mut planned_sorted);

    for (got, want) in [(&indexed, &oracle), (&planned, &planned_oracle)] {
        for (a, b) in got.placements.iter().zip(&want.placements) {
            assert_eq!(
                (a.job, a.server, a.class),
                (b.job, b.server, b.class),
                "{}",
                got.dispatcher
            );
        }
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{}",
            got.dispatcher
        );
    }
    // The fleet is really loaded…
    let busy: f64 = indexed
        .placements
        .iter()
        .map(|p| p.end.value() - p.start.value())
        .sum();
    let utilization = busy / ((racks * per_rack) as f64 * indexed.makespan.value());
    assert!(utilization >= 0.3, "mean utilization {utilization}");
    // …and the fallback really runs: each dispatcher's first choice blew
    // its budget on at least 5 % of arrivals.
    for (name, failed) in [
        ("thermal-aware", scan.first_choice_failed),
        ("planned", planned_sorted.first_choice_failed),
    ] {
        assert!(
            failed * 20 >= jobs_n,
            "{name}: first choice failed on only {failed} of {jobs_n} arrivals"
        );
    }
}
