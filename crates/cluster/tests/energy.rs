//! Fleet energy accounting end to end: the kernel's in-loop integration
//! against an independent double-double reference recomputed from the
//! public placements, and its independence of how often the kernel
//! settles.

use tps_cluster::{
    synthesize_jobs, ControlAction, ControlPolicy, ControlStatus, Fleet, FleetCatalog, FleetConfig,
    FleetDispatcher, FleetOutcome, JobMix, OutcomeCache, RoundRobin, ServerClass, TelemetryConfig,
    ThermalAwareDispatch,
};
use tps_units::{Celsius, Seconds, Watts};
use tps_workload::DiurnalDemand;

/// Two classes over three racks of four servers: one rack of each plus a
/// slot-interleaved rack.
fn two_class_fleet() -> Fleet {
    let mut config = FleetConfig::new(3, 4);
    config.grid_pitch_mm = 3.0;
    config.catalog = FleetCatalog::new(vec![
        ServerClass::new("dense"),
        ServerClass::new("sparse").pitch(3.5).inlet(35.0),
    ])
    .assign(vec![vec![0], vec![1], vec![0, 1]]);
    Fleet::new(config)
}

fn jobs(count: usize, seed: u64) -> Vec<tps_cluster::Job> {
    let demand = DiurnalDemand::new(0.05, 0.25, Seconds::new(600.0));
    synthesize_jobs(count, &demand, JobMix::default(), seed)
}

/// A set-point program with a pre-start change, two changes inside the
/// run and one long after it, plus an optional tick that either replays
/// a hand-written activation script (logging each change it makes) or
/// never acts.
struct Scripted {
    program: Vec<(Seconds, Celsius)>,
    tick: Option<Seconds>,
    /// Active-server targets, one per tick, cycled.
    script: Vec<usize>,
    ticks: usize,
    /// `(time, active servers)` of every change the script made.
    activations: Vec<(Seconds, usize)>,
}

impl Scripted {
    fn new(tick: Option<Seconds>, script: Vec<usize>) -> Self {
        Self {
            program: vec![
                (Seconds::ZERO, Celsius::new(65.0)),
                (Seconds::new(150.0), Celsius::new(45.0)),
                (Seconds::new(420.0), Celsius::new(70.0)),
                (Seconds::new(1e7), Celsius::new(40.0)),
            ],
            tick,
            script,
            ticks: 0,
            activations: Vec::new(),
        }
    }
}

impl ControlPolicy for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn setpoint_program(&self) -> Vec<(Seconds, Celsius)> {
        self.program.clone()
    }

    fn tick_interval(&self) -> Option<Seconds> {
        self.tick
    }

    fn on_tick(&mut self, status: &ControlStatus<'_>) -> Vec<ControlAction> {
        if self.script.is_empty() {
            return Vec::new();
        }
        let target = self.script[self.ticks % self.script.len()];
        self.ticks += 1;
        if target == status.active_servers {
            return Vec::new();
        }
        self.activations.push((status.now, target));
        vec![ControlAction::SetActiveServers(target)]
    }
}

/// A double-double: an unevaluated sum `hi + lo` carrying about 106
/// mantissa bits.
#[derive(Debug, Clone, Copy, Default)]
struct Dd(f64, f64);

impl Dd {
    fn add(self, x: Dd) -> Dd {
        let s = self.0 + x.0;
        let v = s - self.0;
        let e = (self.0 - (s - v)) + (x.0 - v) + self.1 + x.1;
        let hi = s + e;
        Dd(hi, e - (hi - s))
    }

    fn add_f(self, x: f64) -> Dd {
        self.add(Dd(x, 0.0))
    }

    fn mul_f(self, b: f64) -> Dd {
        let p = self.0 * b;
        let e = self.0.mul_add(b, -p) + self.1 * b;
        let hi = p + e;
        Dd(hi, e - (hi - p))
    }

    fn value(self) -> f64 {
        self.0 + self.1
    }
}

/// IT, per-class IT and cooling energy recomputed from the placements
/// alone: every window between consecutive boundaries is rebuilt from
/// scratch — running jobs, idle floor, per-rack summed heat at the
/// coldest co-hosted water — and summed in double-double.
fn reference(
    fleet: &Fleet,
    out: &FleetOutcome,
    setpoints: &[(Seconds, Celsius)],
    activations: &[(Seconds, usize)],
) -> (f64, Vec<f64>, f64) {
    let config = fleet.config();
    let runs: Vec<_> = out.placements.iter().filter(|p| p.end > p.start).collect();
    let first = runs
        .iter()
        .map(|p| p.start.value())
        .fold(f64::INFINITY, f64::min);
    let last = runs.iter().map(|p| p.end.value()).fold(0.0, f64::max);
    let mut bounds: Vec<f64> = runs
        .iter()
        .flat_map(|p| [p.start.value(), p.end.value()])
        .chain(setpoints.iter().map(|s| s.0.value()))
        .chain(activations.iter().map(|a| a.0.value()))
        .filter(|&t| t >= first && t <= last)
        .collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let classes = out.class_names.len();
    let (mut it, mut class_it, mut cooling) =
        (Dd::default(), vec![Dd::default(); classes], Dd::default());
    for w in bounds.windows(2) {
        let (a, dt) = (w[0], w[1] - w[0]);
        // The last change at or before the window start is in force.
        let chiller = setpoints
            .iter()
            .rev()
            .find(|s| s.0.value() <= a)
            .map_or(config.chiller.clone(), |s| config.chiller.with_ambient(s.1));
        let active = activations
            .iter()
            .rev()
            .find(|s| s.0.value() <= a)
            .map_or(config.total_servers(), |s| s.1);
        let on: Vec<_> = runs
            .iter()
            .filter(|p| p.start.value() <= a && a < p.end.value())
            .collect();
        let idle = active.saturating_sub(on.len()) as f64 * config.idle_server_power.value();
        let mut power = Dd(idle, 0.0);
        let mut class_power = vec![Dd::default(); classes];
        for p in &on {
            power = power.add_f(p.state.package_power.value());
            class_power[p.class] = class_power[p.class].add_f(p.state.package_power.value());
        }
        let mut draw = Dd::default();
        for rack in 0..config.racks {
            let here: Vec<_> = on.iter().filter(|p| p.rack == rack).collect();
            let Some(supply) = here
                .iter()
                .map(|p| p.state.max_water_temp)
                .reduce(Celsius::min)
            else {
                continue;
            };
            let heat = here
                .iter()
                .fold(Dd::default(), |h, p| h.add_f(p.state.heat.value()));
            let rack_draw = chiller.electrical_power(Watts::new(heat.value()), supply);
            draw = draw.add_f(rack_draw.value());
        }
        it = it.add(power.mul_f(dt));
        for (sum, p) in class_it.iter_mut().zip(&class_power) {
            *sum = sum.add(p.mul_f(dt));
        }
        cooling = cooling.add(draw.mul_f(dt));
    }
    (
        it.value(),
        class_it.iter().map(|d| d.value()).collect(),
        cooling.value(),
    )
}

fn assert_close(what: &str, got: f64, want: f64) {
    let rel = (got - want).abs() / want.abs();
    assert!(
        rel <= 1e-12,
        "{what}: {got} vs reference {want} ({rel:e} relative)"
    );
}

#[test]
fn energy_matches_a_double_double_reference() {
    let fleet = two_class_fleet();
    let jobs = jobs(150, 3);
    let cache = OutcomeCache::new();
    let mut dispatchers: Vec<Box<dyn FleetDispatcher>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(ThermalAwareDispatch::default()),
    ];
    for d in dispatchers.iter_mut() {
        let mut control = Scripted::new(Some(Seconds::new(40.0)), vec![12, 8, 4, 8]);
        let out = fleet
            .simulate_with(&jobs, d.as_mut(), &mut control, None, &cache)
            .unwrap()
            .outcome;
        let name = out.dispatcher;
        // The fixture exercises what it claims to: scale-downs inside
        // the run, both classes busy, co-hosted racks.
        assert!(
            control.activations.len() >= 3,
            "{name}: {:?}",
            control.activations
        );
        assert!(out.class_placements.iter().all(|&n| n > 0), "{name}");
        let (it, class_it, cooling) =
            reference(&fleet, &out, &control.program, &control.activations);
        assert_close(&format!("{name} IT"), out.it_energy.value(), it);
        assert_close(
            &format!("{name} cooling"),
            out.cooling_energy.value(),
            cooling,
        );
        for (c, (got, want)) in out.class_it_energy.iter().zip(&class_it).enumerate() {
            assert_close(&format!("{name} class {c} IT"), got.value(), *want);
        }
    }
}

/// Energies and peak heat as raw bits.
fn energy_bits(out: &FleetOutcome) -> Vec<u64> {
    let mut bits = vec![
        out.it_energy.value().to_bits(),
        out.cooling_energy.value().to_bits(),
        out.peak_rack_heat.value().to_bits(),
        out.makespan.value().to_bits(),
    ];
    bits.extend(out.class_it_energy.iter().map(|e| e.value().to_bits()));
    bits
}

#[test]
fn energy_bits_do_not_depend_on_how_often_the_kernel_settles() {
    let fleet = two_class_fleet();
    let jobs = jobs(150, 8);
    let cache = OutcomeCache::new();
    let sampled = |s: f64| TelemetryConfig {
        sample_interval: Seconds::new(s),
        capacity: 4096,
    };
    // (label, tick, telemetry, heap queue): every variant settles the
    // running set at different instants; none may move an energy bit.
    let variants = [
        ("telemetry off", None, None, false),
        ("samples every 7 s", None, Some(sampled(7.0)), false),
        ("samples every 60 s", None, Some(sampled(60.0)), false),
        (
            "ticks that never act",
            Some(Seconds::new(13.0)),
            None,
            false,
        ),
        ("heap queue", None, None, true),
        (
            "heap queue, samples and ticks",
            Some(Seconds::new(13.0)),
            Some(sampled(7.0)),
            true,
        ),
    ];
    let mut baseline: Option<Vec<u64>> = None;
    for (label, tick, telemetry, heap) in variants {
        let mut control = Scripted::new(tick, Vec::new());
        let mut dispatcher = ThermalAwareDispatch::default();
        let result = if heap {
            fleet.simulate_with_heap_queue(
                &jobs,
                &mut dispatcher,
                &mut control,
                telemetry.as_ref(),
                &cache,
            )
        } else {
            fleet.simulate_with(
                &jobs,
                &mut dispatcher,
                &mut control,
                telemetry.as_ref(),
                &cache,
            )
        }
        .unwrap();
        let bits = energy_bits(&result.outcome);
        match &baseline {
            None => baseline = Some(bits),
            Some(want) => assert_eq!(&bits, want, "{label}"),
        }
    }
}
