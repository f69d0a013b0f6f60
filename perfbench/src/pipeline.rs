//! The program as a user drives it: spec in, physics warmed and
//! published, job stream synthesized (set-up); then simulation, trace CSV
//! and report out (one run). Every call into a layer is timed here, from
//! the benchmark's side of the public API.

use crate::span::Tracer;
use crate::workload::Workload;
use std::path::Path;
use std::time::Instant;
use tps_cluster::{
    ClassSolve, ControlAction, ControlPolicy, ControlStatus, Fleet, FleetOutcome, Job,
    OutcomeCache, PlacementHint, RunContext, SimResult,
};
use tps_scenario::{Scenario, SweepReport, SweepRow};
use tps_units::{Celsius, Seconds};
use tps_workload::{Benchmark, QosClass};

/// A workload ready to run: parsed scenario, assembled fleet, published
/// physics and the synthesized job stream.
pub struct Prepared {
    /// The workload definition.
    pub workload: &'static Workload,
    /// The scenario, with the derived rate filled in.
    pub scenario: Scenario,
    /// The assembled fleet.
    pub fleet: Fleet,
    /// The warmed and published physics cache.
    pub cache: OutcomeCache,
    /// The job stream every run replays.
    pub jobs: Vec<Job>,
}

/// What a set-up cost: its wall time and the cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up, seconds.
    pub total_s: f64,
    /// Distinct solves the warm-up performed.
    pub solves: usize,
    /// Cache lock acquisitions during set-up.
    pub locks: usize,
}

/// The `(bench, qos)` pairs the workload's stream draws from, each with
/// its share of the stream: benchmarks are uniform, QoS classes follow
/// the mix weights.
fn mix(scenario: &Scenario) -> Vec<(Benchmark, QosClass, f64)> {
    let total: f64 = scenario.qos_weights.iter().sum();
    let qos: Vec<(QosClass, f64)> = QosClass::ALL
        .into_iter()
        .zip(scenario.qos_weights)
        .filter(|&(_, w)| w > 0.0)
        .map(|(q, w)| (q, w / total))
        .collect();
    let per_bench = 1.0 / Benchmark::ALL.len() as f64;
    Benchmark::ALL
        .into_iter()
        .flat_map(|b| qos.iter().map(move |&(q, w)| (b, q, w * per_bench)))
        .collect()
}

/// Set-up: parse the spec, assemble the fleet, warm and publish the
/// physics, derive the offered rate from the mean job runtime, then
/// synthesize the job stream.
pub fn setup(
    workload: &'static Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Prepared, SetupTimes), String> {
    tracer.next_run();
    let started = Instant::now();
    let (prepared, mut times) = tracer.span("setup", |t| {
        let spec = workload.spec(seed);
        let mut scenario = t
            .span("scenario.parse", |_| Scenario::parse(&spec, workload.name))
            .map_err(|e| format!("spec: {e}"))?;
        let fleet = t.span("fleet.build", |_| Fleet::new(scenario.fleet_config()));
        let cache = OutcomeCache::new();
        let mix = mix(&scenario);
        let pairs: Vec<_> = mix.iter().map(|&(b, q, _)| (b, q)).collect();
        t.span("cache.warm", |_| {
            fleet.warm(&pairs, &cache, scenario.threads)
        })
        .map_err(|e| format!("warm-up: {e}"))?;
        let table = t.span("cache.publish", |_| cache.publish());

        // Mean runtime over the mix: service × the selected
        // configuration's slowdown.
        let class = ClassSolve {
            id: 0,
            server: fleet.server(),
            policy: fleet.config().policy,
        };
        let mut slowdown = 0.0;
        for &(bench, qos, share) in &mix {
            let state = table
                .lookup(&class, bench, qos)
                .ok_or_else(|| format!("published table lacks {bench:?}/{qos:?}"))?;
            slowdown += share * state.normalized_time;
        }
        let mean_runtime_s = scenario.mean_service_s * slowdown;
        let (demand, control) = workload.demand(mean_runtime_s);
        scenario.demand = demand;
        if let Some(control) = control {
            scenario.control = control;
        }
        let jobs = t.span("workload.synth", |_| scenario.synthesize_jobs());
        let times = SetupTimes {
            total_s: 0.0,
            solves: cache.solves(),
            locks: cache.lock_acquisitions(),
        };
        Ok::<_, String>((
            Prepared {
                workload,
                scenario,
                fleet,
                cache,
                jobs,
            },
            times,
        ))
    })?;
    times.total_s = started.elapsed().as_secs_f64();
    Ok((prepared, times))
}

/// A control policy wrapper that records every action the wrapped
/// policy emits, with its tick instant, so component replays can
/// reproduce the set-point and active-server timeline.
pub struct Recorder {
    inner: Box<dyn ControlPolicy>,
    /// `(tick instant, action)` in emission order.
    pub actions: Vec<(Seconds, ControlAction)>,
}

impl Recorder {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ControlPolicy>) -> Self {
        Self {
            inner,
            actions: Vec::new(),
        }
    }
}

impl ControlPolicy for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setpoint_program(&self) -> Vec<(Seconds, Celsius)> {
        self.inner.setpoint_program()
    }

    fn tick_interval(&self) -> Option<Seconds> {
        self.inner.tick_interval()
    }

    fn on_tick(&mut self, status: &ControlStatus<'_>) -> Vec<ControlAction> {
        let actions = self.inner.on_tick(status);
        self.actions
            .extend(actions.iter().map(|&a| (status.now, a)));
        actions
    }

    fn begin_run(&mut self, ctx: &RunContext<'_>) {
        self.inner.begin_run(ctx);
    }

    fn placement_hint(&mut self, job: &Job) -> Option<PlacementHint> {
        self.inner.placement_hint(job)
    }
}

/// One run's result, the sizes of what it wrote, and its wall time.
pub struct RunOutput {
    /// Outcome, trace and kernel counters.
    pub result: SimResult,
    /// Control actions, for the replays.
    pub actions: Vec<(Seconds, ControlAction)>,
    /// Trace samples (0 with telemetry off).
    pub samples: usize,
    /// Trace CSV size.
    pub csv_bytes: usize,
    /// Report CSV + Markdown size.
    pub report_bytes: usize,
    /// From the warmed fleet to the written report.
    pub run_s: f64,
}

/// One run: simulate, emit the trace CSV (when telemetry is on) and the
/// report, writing both under `out_dir`.
pub fn run_once(p: &Prepared, out_dir: &Path, tracer: &mut Tracer) -> Result<RunOutput, String> {
    tracer.next_run();
    let started = Instant::now();
    let mut out = tracer.span("run", |t| {
        let mut dispatcher = p.scenario.dispatcher.instantiate();
        let mut control = Recorder::new(p.scenario.control.instantiate());
        let telemetry = p.scenario.telemetry.map(|s| s.to_config());
        let result = t
            .span("engine.simulate", |_| {
                p.fleet.simulate_with(
                    &p.jobs,
                    dispatcher.as_mut(),
                    &mut control,
                    telemetry.as_ref(),
                    &p.cache,
                )
            })
            .map_err(|e| format!("simulation: {e}"))?;
        // Timed even with telemetry off: then the span measures what the
        // untaken branch costs.
        let (samples, csv_bytes) = t
            .span("telemetry.csv", |_| {
                result.trace.as_ref().map(|trace| {
                    let csv = trace.to_csv();
                    std::fs::write(out_dir.join("trace.csv"), &csv)
                        .map(|()| (trace.len(), csv.len()))
                })
            })
            .transpose()
            .map_err(|e| format!("writing the trace: {e}"))?
            .unwrap_or((0, 0));
        let report_bytes = t
            .span("report.emit", |_| {
                emit_report(&p.scenario, &result, out_dir)
            })
            .map_err(|e| format!("writing the report: {e}"))?;
        Ok::<_, String>(RunOutput {
            result,
            actions: control.actions,
            samples,
            csv_bytes,
            report_bytes,
            run_s: 0.0,
        })
    })?;
    out.run_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// The one-row report a `tps sweep` of this scenario would write: CSV
/// plus Markdown. Returns the bytes written.
fn emit_report(scenario: &Scenario, result: &SimResult, out_dir: &Path) -> std::io::Result<usize> {
    let stats = &result.stats;
    let report = SweepReport {
        spec_name: scenario.name.clone(),
        axes: Vec::new(),
        rows: vec![SweepRow::new(scenario, &result.outcome)],
        baseline: 0,
        cache_solves: 0,
        cache_hits: 0,
        table_hits: stats.table_hits,
        miss_solves: stats.miss_solves,
        lock_acquisitions: stats.lock_acquisitions,
        peak_queue_depth: stats.peak_queue_depth,
        arena_high_water: stats.arena_high_water,
    };
    let csv = report.to_csv();
    let md = report.to_markdown();
    std::fs::write(out_dir.join("report.csv"), &csv)?;
    std::fs::write(out_dir.join("report.md"), &md)?;
    Ok(csv.len() + md.len())
}

/// The simulated (not host-timed) results of a run. These repeat bit for
/// bit for a given seed; a speed-only change must leave them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimSummary {
    /// IT + cooling energy, kWh.
    pub total_energy_kwh: f64,
    /// Cooling energy, kWh.
    pub cooling_energy_kwh: f64,
    /// Jobs that met their QoS deadline, as a share of all jobs (shed
    /// jobs count as missed).
    pub qos_met_share: f64,
    /// QoS violations.
    pub qos_violations: usize,
    /// 99th-percentile job latency (arrival to completion), seconds.
    pub latency_p99_s: f64,
    /// Mean utilization over the arrival window.
    pub mean_utilization: f64,
    /// A hash over every placement and the energies.
    pub fingerprint: u64,
}

/// Folds `x` into a running FNV-1a style hash.
fn fold_hash(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Summarizes a run's outcome against its job stream.
pub fn summarize(jobs: &[Job], servers: usize, outcome: &FleetOutcome) -> SimSummary {
    let window = jobs
        .iter()
        .map(|j| j.arrival.value())
        .fold(0.0_f64, f64::max);
    let mut busy = 0.0;
    let mut latencies = Vec::with_capacity(outcome.placements.len());
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for p in &outcome.placements {
        let (start, end) = (p.start.value(), p.end.value());
        busy += (end.min(window) - start.min(window)).max(0.0);
        latencies.push(end - jobs[p.job].arrival.value());
        for x in [
            p.job as u64,
            p.server as u64,
            start.to_bits(),
            end.to_bits(),
        ] {
            h = fold_hash(h, x);
        }
    }
    for x in [outcome.it_energy.value(), outcome.cooling_energy.value()] {
        h = fold_hash(h, x.to_bits());
    }
    let met = outcome.placements.len() - outcome.violations;
    SimSummary {
        total_energy_kwh: outcome.total_energy().to_kwh(),
        cooling_energy_kwh: outcome.cooling_energy.to_kwh(),
        qos_met_share: met as f64 / jobs.len().max(1) as f64,
        qos_violations: outcome.violations,
        latency_p99_s: crate::stats::nearest_rank(&latencies, 0.99).unwrap_or(0.0),
        mean_utilization: crate::stats::mean_utilization(busy, servers, window),
        fingerprint: h,
    }
}

/// The utilization guard: the reached utilization must sit in the
/// workload's band, or the benchmark has slid back to an idle fleet.
pub fn check_utilization(workload: &Workload, utilization: f64) -> Result<(), String> {
    let (lo, hi) = workload.band;
    if (lo..=hi).contains(&utilization) {
        Ok(())
    } else {
        Err(format!(
            "workload {}: mean utilization {utilization:.4} outside its band [{lo}, {hi}]",
            workload.name
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    #[test]
    fn utilization_guard_names_the_workload() {
        let w = by_name("rr_traced_100k").expect("known workload");
        assert_eq!(check_utilization(w, 0.15), Ok(()));
        let err = check_utilization(w, 0.0002).unwrap_err();
        assert!(err.contains("rr_traced_100k"), "{err}");
        assert!(check_utilization(w, 0.9).is_err());
    }
}
