//! Aggregate fleet metrics: a run's outcome — the energy the kernel's
//! running set integrated plus the wait and QoS statistics of its
//! placements — and the time-series telemetry sampled along the way.

use crate::cache::SteadyState;
use crate::catalog::ClassId;
use std::collections::VecDeque;
use tps_cooling::pue;
use tps_units::{Celsius, Joules, Seconds, Watts};

/// One job's placement and execution window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The job's id.
    pub job: usize,
    /// Global server index.
    pub server: usize,
    /// Rack index.
    pub rack: usize,
    /// Catalog class of the server it ran on.
    pub class: ClassId,
    /// Execution start (arrival + queueing).
    pub start: Seconds,
    /// Execution end.
    pub end: Seconds,
    /// Queueing delay.
    pub wait: Seconds,
    /// Whether the wait blew the job's QoS budget.
    pub violated: bool,
    /// The cached per-server outcome backing this placement.
    pub state: SteadyState,
}

/// A fixed-bucket latency histogram: the streaming percentile sketch for
/// serving mode. Integer bucket counts make every quantile a pure function
/// of the recorded multiset — no floating accumulation, so the answer is
/// byte-identical regardless of recording order, thread count or queue
/// backend.
///
/// Each recorded latency lands in the bucket `⌊latency / width⌋`; values
/// past the last bucket saturate into an overflow bucket. A quantile is
/// reported as the *upper edge* of the bucket holding the rank-`⌈q·n⌉`
/// sample (overflow saturates to the top edge), so reported percentiles
/// are conservative to within one bucket width.
///
/// ```
/// use tps_cluster::LatencyHistogram;
/// use tps_units::Seconds;
///
/// let mut h = LatencyHistogram::default(); // 10 ms × 6000 buckets
/// for ms in [5.0, 15.0, 15.0, 47.0] {
///     h.record(Seconds::new(ms / 1000.0));
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.quantile(0.5), Some(Seconds::new(0.02))); // 15 ms bucket edge
/// assert_eq!(h.quantile(1.0), Some(Seconds::new(0.05)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    width_ms: u32,
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    /// 10 ms buckets covering 60 s, plus the overflow bucket.
    fn default() -> Self {
        Self::new(10, 6_000)
    }
}

impl LatencyHistogram {
    /// A histogram of `buckets` regular buckets of `width_ms` milliseconds
    /// each, plus one overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `width_ms` or `buckets` is zero.
    pub fn new(width_ms: u32, buckets: usize) -> Self {
        assert!(width_ms > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Self {
            width_ms,
            counts: vec![0; buckets + 1],
            total: 0,
        }
    }

    /// The regular-bucket width in seconds.
    pub fn width(&self) -> Seconds {
        Seconds::new(f64::from(self.width_ms) / 1000.0)
    }

    /// Records one latency (negative values clamp to the first bucket,
    /// values past the range saturate into the overflow bucket).
    pub fn record(&mut self, latency: Seconds) {
        let width = f64::from(self.width_ms) / 1000.0;
        let regular = self.counts.len() - 1;
        let idx = ((latency.value() / width).max(0.0) as usize).min(regular);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Recorded latency count.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Resets all counts (the bucket layout is kept).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile as the upper edge of the bucket holding the
    /// rank-`max(1, ⌈q·n⌉)` recorded latency, or `None` while empty.
    /// Overflowed samples report the top regular edge (the sketch's
    /// saturation point).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q ≤ 1`.
    pub fn quantile(&self, q: f64) -> Option<Seconds> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let width = f64::from(self.width_ms) / 1000.0;
        let regular = self.counts.len() - 1;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Seconds::new((idx.min(regular - 1) + 1) as f64 * width));
            }
        }
        unreachable!("rank ≤ total is always reached")
    }
}

/// The serving-mode slice of a [`FleetOutcome`]: whole-run latency
/// percentiles from the [`LatencyHistogram`] sketch and the active-server
/// trajectory the autoscaler drove.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOutcome {
    /// Requests placed (same as the placement count).
    pub requests: usize,
    /// Median request latency (dispatch wait + service).
    pub latency_p50: Seconds,
    /// 95th-percentile request latency.
    pub latency_p95: Seconds,
    /// 99th-percentile request latency.
    pub latency_p99: Seconds,
    /// Time-weighted mean of the active-server count over the run.
    pub mean_active_servers: f64,
    /// Smallest active-server count the controller reached.
    pub min_active_servers: usize,
    /// Largest active-server count the controller reached.
    pub max_active_servers: usize,
}

/// The aggregate result of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The dispatcher that produced this outcome.
    pub dispatcher: &'static str,
    /// The control policy that steered the run (`"static"` for the
    /// open-loop simulator).
    pub control: &'static str,
    /// All placements, in dispatch order.
    pub placements: Vec<Placement>,
    /// End of the last execution.
    pub makespan: Seconds,
    /// IT energy: active packages plus the idle floor of empty servers.
    pub it_energy: Joules,
    /// Chiller electrical energy across all racks.
    pub cooling_energy: Joules,
    /// Jobs whose queueing delay blew their QoS budget.
    pub violations: usize,
    /// Arrivals rejected by admission control (never placed).
    pub shed: usize,
    /// Mean queueing delay.
    pub mean_wait: Seconds,
    /// Worst queueing delay.
    pub max_wait: Seconds,
    /// Highest instantaneous heat any rack carried.
    pub peak_rack_heat: Watts,
    /// Catalog class names, in class-id order (one entry on a
    /// homogeneous fleet).
    pub class_names: Vec<String>,
    /// Active package energy per class (the idle floor is fleet-wide and
    /// stays in [`it_energy`](Self::it_energy) only).
    pub class_it_energy: Vec<Joules>,
    /// QoS violations per class.
    pub class_violations: Vec<usize>,
    /// Placements per class.
    pub class_placements: Vec<usize>,
    /// Latency percentiles and active-server trajectory, filled only by
    /// serving-mode runs (`None` keeps batch outcomes bit-identical).
    pub serving: Option<ServingOutcome>,
}

/// The energy a run's running set integrated from its first start to its
/// last end, in joules (watts for the peak).
#[derive(Debug, Default)]
pub(crate) struct RunEnergy {
    /// End of the last execution.
    pub(crate) makespan: f64,
    pub(crate) it: f64,
    pub(crate) cooling: f64,
    pub(crate) class_it: Vec<f64>,
    pub(crate) peak_rack_heat: f64,
}

impl FleetOutcome {
    /// A run's outcome: `energy` as integrated, plus the wait, violation
    /// and per-class counts of its placements.
    pub(crate) fn new(
        dispatcher: &'static str,
        control: &'static str,
        placements: Vec<Placement>,
        shed: usize,
        class_names: Vec<String>,
        energy: RunEnergy,
    ) -> Self {
        let waits = placements.iter().map(|p| p.wait);
        let mean_wait = waits.clone().sum::<Seconds>() / placements.len().max(1) as f64;
        let max_wait = waits.fold(Seconds::ZERO, Seconds::max);
        let mut class_violations = vec![0usize; class_names.len()];
        let mut class_placements = vec![0usize; class_names.len()];
        for p in &placements {
            class_placements[p.class] += 1;
            class_violations[p.class] += usize::from(p.violated);
        }
        Self {
            dispatcher,
            control,
            violations: class_violations.iter().sum(),
            placements,
            makespan: Seconds::new(energy.makespan),
            it_energy: Joules::new(energy.it),
            cooling_energy: Joules::new(energy.cooling),
            shed,
            mean_wait,
            max_wait,
            peak_rack_heat: Watts::new(energy.peak_rack_heat),
            class_names,
            class_it_energy: energy.class_it.into_iter().map(Joules::new).collect(),
            class_violations,
            class_placements,
            serving: None,
        }
    }

    /// IT plus cooling energy.
    pub fn total_energy(&self) -> Joules {
        self.it_energy + self.cooling_energy
    }

    /// Energy-based power usage effectiveness over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the run consumed no IT energy (empty job stream).
    pub fn pue(&self) -> f64 {
        pue(
            Watts::new(self.it_energy.value()),
            Watts::new(self.cooling_energy.value()),
        )
    }
}

/// Event-kernel execution counters for one run: how much event traffic
/// the simulation generated and how deep the queue ran. Diagnostic only —
/// never part of the byte-determinism surface ([`FleetOutcome`] and the
/// trace CSV exclude it), so perf-motivated queue changes can move these
/// numbers without breaking golden outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events pushed (= processed: the kernel drains its queue).
    pub events: u64,
    /// Most events pending at once.
    pub peak_queue_depth: usize,
    /// High-water mark of the calendar queue's entry arena (equals the
    /// peak depth under the heap queue, which has no arena).
    pub arena_high_water: usize,
    /// Demand-state lookups served lock-free off the frozen
    /// [`SolveTable`](crate::SolveTable) epoch.
    pub table_hits: usize,
    /// Demand-state lookups the table lacked, solved through the striped
    /// miss path (always 0 once a covering table is published).
    pub miss_solves: usize,
    /// Cache lock acquisitions observed over the run — stripe and
    /// publication locks. A steady-state replay on a covering table
    /// reads **zero**; the determinism smoke asserts it.
    pub lock_acquisitions: usize,
}

/// One result of [`Fleet::simulate_with`](crate::Fleet::simulate_with):
/// the aggregate outcome plus the telemetry trace when sampling was on.
#[derive(Debug)]
pub struct SimResult {
    /// The aggregate outcome (energy, QoS, placements).
    pub outcome: FleetOutcome,
    /// The sampled time series (`None` when telemetry was off).
    pub trace: Option<FleetTrace>,
    /// Kernel execution counters (event count, queue depth, arena size).
    pub stats: KernelStats,
}

/// Telemetry sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Interval between [`FleetSample`]s.
    pub sample_interval: Seconds,
    /// Ring capacity: the trace keeps the most recent `capacity` samples
    /// and counts the rest as dropped (never silently).
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    /// A 30 s cadence with a 16 384-sample ring (≈ 5.7 simulated days).
    fn default() -> Self {
        Self {
            sample_interval: Seconds::new(30.0),
            capacity: 16_384,
        }
    }
}

/// One telemetry sample: the fleet as the kernel saw it at `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSample {
    /// Sample instant.
    pub t: Seconds,
    /// Chiller/heat-reuse set-point in force.
    pub setpoint: Celsius,
    /// Placements queued behind busy servers.
    pub queued: usize,
    /// Placements executing.
    pub running: usize,
    /// Arrivals shed so far.
    pub shed: usize,
    /// QoS violations so far.
    pub violations: usize,
    /// Instantaneous IT power (active packages + idle floor).
    pub it_power: Watts,
    /// Instantaneous chiller electrical power across all racks.
    pub cooling_power: Watts,
    /// Per-rack heat carried by *running* jobs.
    pub rack_heat: Vec<Watts>,
    /// Per-rack shared water temperature (coldest running demand), `None`
    /// while a rack is idle.
    pub rack_water: Vec<Option<Celsius>>,
    /// Running placements per catalog class.
    pub class_running: Vec<usize>,
    /// Active package power per catalog class.
    pub class_it_power: Vec<Watts>,
    /// Serving-mode columns (`None` in batch mode, keeping batch traces
    /// byte-identical to their pre-serving form).
    pub serving: Option<ServingSample>,
}

/// The serving-mode slice of one [`FleetSample`]: the active-server count
/// and cumulative latency percentiles as of the sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingSample {
    /// Servers currently active (eligible for placement).
    pub active_servers: usize,
    /// Cumulative median request latency so far.
    pub p50: Seconds,
    /// Cumulative 95th-percentile request latency so far.
    pub p95: Seconds,
    /// Cumulative 99th-percentile request latency so far.
    pub p99: Seconds,
}

/// A bounded ring of [`FleetSample`]s with deterministic fixed-precision
/// CSV emission (two runs of the same scenario — at any thread count —
/// emit byte-identical files; the CI smoke diffs them).
///
/// ```
/// use tps_cluster::{FleetSample, FleetTrace};
/// use tps_units::{Celsius, Seconds, Watts};
///
/// let mut trace = FleetTrace::new(1, 8);
/// trace.push(FleetSample {
///     t: Seconds::ZERO,
///     setpoint: Celsius::new(70.0),
///     queued: 0,
///     running: 1,
///     shed: 0,
///     violations: 0,
///     it_power: Watts::new(120.0),
///     cooling_power: Watts::new(8.5),
///     rack_heat: vec![Watts::new(95.0)],
///     rack_water: vec![Some(Celsius::new(61.5))],
///     class_running: vec![1],
///     class_it_power: vec![Watts::new(120.0)],
///     serving: None,
/// });
/// let csv = trace.to_csv();
/// assert!(csv.starts_with("t_s,setpoint_c,queued,running,shed,violations"));
/// assert!(csv.contains("0.000,70.00,0,1,0,0,120.000,8.500,95.000,61.50"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    samples: VecDeque<FleetSample>,
    racks: usize,
    /// Catalog class names; per-class columns are emitted only when the
    /// fleet declares more than one class, so homogeneous traces keep
    /// the exact pre-catalog column set.
    class_names: Vec<String>,
    capacity: usize,
    dropped: usize,
    /// Serving-mode columns on; batch traces never set this, keeping
    /// their column set byte-identical to the pre-serving format.
    serving: bool,
}

impl FleetTrace {
    /// An empty trace over `racks` racks keeping at most `capacity`
    /// samples (single-class fleet: no per-class columns).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(racks: usize, capacity: usize) -> Self {
        Self::with_classes(racks, vec!["default".to_owned()], capacity)
    }

    /// An empty trace over `racks` racks and the given catalog classes.
    /// Per-class `<name>_running`/`<name>_it_w` columns are emitted when
    /// more than one class is named.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `class_names` is empty.
    pub fn with_classes(racks: usize, class_names: Vec<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        assert!(!class_names.is_empty(), "a fleet has at least one class");
        Self {
            samples: VecDeque::with_capacity(capacity.min(1024)),
            racks,
            class_names,
            capacity,
            dropped: 0,
            serving: false,
        }
    }

    /// Turns on the serving-mode columns
    /// (`active_servers,lat_p50_s,lat_p95_s,lat_p99_s`). The serving
    /// kernel calls this; batch traces never do, so their CSV stays
    /// byte-identical to the pre-serving format.
    pub fn enable_serving(&mut self) {
        self.serving = true;
    }

    /// Whether the serving-mode columns are emitted.
    pub fn serving(&self) -> bool {
        self.serving
    }

    /// Appends a sample, dropping (and counting) the oldest when full.
    pub fn push(&mut self, sample: FleetSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &FleetSample> {
        self.samples.iter()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of racks each sample covers.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// The full trace as CSV: header plus one line per retained sample,
    /// floats at fixed precision, idle racks' water column empty.
    /// Heterogeneous fleets (more than one class) append per-class
    /// `<name>_running,<name>_it_w` columns; single-class traces keep the
    /// exact homogeneous column set.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,setpoint_c,queued,running,shed,violations,it_w,cool_w");
        for r in 0..self.racks {
            out.push_str(&format!(",rack{r}_heat_w,rack{r}_water_c"));
        }
        let classes = if self.class_names.len() > 1 {
            self.class_names.len()
        } else {
            0
        };
        for name in self.class_names.iter().take(classes) {
            let name: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            out.push_str(&format!(",{name}_running,{name}_it_w"));
        }
        if self.serving {
            out.push_str(",active_servers,lat_p50_s,lat_p95_s,lat_p99_s");
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{:.2},{},{},{},{},{:.3},{:.3}",
                s.t.value(),
                s.setpoint.value(),
                s.queued,
                s.running,
                s.shed,
                s.violations,
                s.it_power.value(),
                s.cooling_power.value(),
            ));
            for r in 0..self.racks {
                match s.rack_water.get(r).copied().flatten() {
                    Some(w) => {
                        out.push_str(&format!(",{:.3},{:.2}", s.rack_heat[r].value(), w.value()))
                    }
                    None => out.push_str(&format!(",{:.3},", s.rack_heat[r].value())),
                }
            }
            for c in 0..classes {
                out.push_str(&format!(
                    ",{},{:.3}",
                    s.class_running.get(c).copied().unwrap_or(0),
                    s.class_it_power.get(c).map_or(0.0, |p| p.value()),
                ));
            }
            if self.serving {
                match s.serving {
                    Some(sv) => out.push_str(&format!(
                        ",{},{:.3},{:.3},{:.3}",
                        sv.active_servers,
                        sv.p50.value(),
                        sv.p95.value(),
                        sv.p99.value(),
                    )),
                    None => out.push_str(",0,0.000,0.000,0.000"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Change, RunningSet};
    use crate::fleet::FleetConfig;
    use tps_units::Celsius;

    fn state(heat: f64, max_water: f64) -> SteadyState {
        SteadyState {
            package_power: Watts::new(heat),
            heat: Watts::new(heat),
            max_water_temp: Celsius::new(max_water),
            normalized_time: 1.0,
            n_cores: 8,
            die_max: Celsius::new(70.0),
        }
    }

    fn placement(server: usize, rack: usize, start: f64, end: f64, s: SteadyState) -> Placement {
        Placement {
            job: 0,
            server,
            rack,
            class: 0,
            start: Seconds::new(start),
            end: Seconds::new(end),
            wait: Seconds::ZERO,
            violated: false,
            state: s,
        }
    }

    fn tiny_config() -> FleetConfig {
        let mut cfg = FleetConfig::new(2, 1);
        cfg.idle_server_power = Watts::ZERO;
        cfg
    }

    fn names() -> Vec<String> {
        vec!["default".to_owned()]
    }

    /// Feeds `placements` to the kernel's running set, applies the
    /// set-point and activation timelines at their times, and assembles
    /// the outcome — the kernel's energy path without the event loop.
    fn integrate_with(
        placements: Vec<Placement>,
        cfg: &FleetConfig,
        control: &'static str,
        setpoints: &[(Seconds, Celsius)],
        activations: &[(Seconds, usize)],
    ) -> FleetOutcome {
        let mut run = RunningSet::new(cfg, 1);
        for p in &placements {
            run.commit(p.rack, p.class, &p.state, p.start, p.end);
        }
        let mut changes: Vec<(Seconds, Change)> = setpoints
            .iter()
            .map(|&(t, c)| (t, Change::Chiller(cfg.chiller.with_ambient(c))))
            .chain(activations.iter().map(|&(t, n)| (t, Change::Active(n))))
            .collect();
        changes.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));
        for (t, change) in changes {
            run.change(t, change);
        }
        FleetOutcome::new("test", control, placements, 0, names(), run.finish())
    }

    fn integrate(placements: Vec<Placement>, cfg: &FleetConfig) -> FleetOutcome {
        integrate_with(placements, cfg, "static", &[], &[])
    }

    #[test]
    fn it_energy_is_power_times_time() {
        let cfg = tiny_config();
        let out = integrate(vec![placement(0, 0, 0.0, 10.0, state(50.0, 80.0))], &cfg);
        assert!((out.it_energy.value() - 500.0).abs() < 1e-9);
        assert_eq!(out.makespan, Seconds::new(10.0));
        assert_eq!(out.peak_rack_heat, Watts::new(50.0));
        assert_eq!(out.control, "static");
        assert_eq!(out.shed, 0);
    }

    #[test]
    fn cold_job_contaminates_cohosted_heat() {
        // Same two jobs; on one rack the cold job forces *all* heat through
        // the compressor, on separate racks only its own.
        let cfg = tiny_config(); // chiller: 60 °C heat-reuse loop
        let cold = state(70.0, 60.0); // below the 65 °C bypass threshold
        let warm = state(70.0, 80.0); // free-cools
        let together = integrate(
            vec![
                placement(0, 0, 0.0, 10.0, cold),
                placement(0, 0, 0.0, 10.0, warm),
            ],
            &cfg,
        );
        let apart = integrate(
            vec![
                placement(0, 0, 0.0, 10.0, cold),
                placement(1, 1, 0.0, 10.0, warm),
            ],
            &cfg,
        );
        assert!(
            together.cooling_energy.value() > apart.cooling_energy.value() * 1.3,
            "together {} vs apart {}",
            together.cooling_energy,
            apart.cooling_energy
        );
        assert_eq!(together.it_energy, apart.it_energy);
    }

    #[test]
    fn idle_floor_counts_toward_it_energy() {
        let mut cfg = tiny_config();
        cfg.idle_server_power = Watts::new(10.0);
        let out = integrate(vec![placement(0, 0, 0.0, 10.0, state(50.0, 80.0))], &cfg);
        // One busy server at 50 W + one idle at 10 W over 10 s.
        assert!((out.it_energy.value() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn waits_and_violations_aggregate() {
        let cfg = tiny_config();
        let mut a = placement(0, 0, 5.0, 10.0, state(50.0, 80.0));
        a.wait = Seconds::new(5.0);
        a.violated = true;
        let b = placement(1, 1, 0.0, 10.0, state(50.0, 80.0));
        let out = integrate(vec![a, b], &cfg);
        assert_eq!(out.violations, 1);
        assert_eq!(out.max_wait, Seconds::new(5.0));
        assert!((out.mean_wait.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn setpoint_changes_swap_the_chiller_between_windows() {
        // One 70 W / 60 °C-tolerant job for 10 s. Under the default 70 °C
        // heat-reuse loop it pays compressor lift the whole time; a
        // mid-run set-point drop to 40 °C puts the second half in free
        // cooling (supply ≥ ambient + approach).
        let cfg = tiny_config();
        let job = state(70.0, 60.0);
        let fixed = integrate(vec![placement(0, 0, 0.0, 10.0, job)], &cfg);
        let stepped = integrate_with(
            vec![placement(0, 0, 0.0, 10.0, job)],
            &cfg,
            "setpoint",
            &[(Seconds::new(5.0), Celsius::new(40.0))],
            &[],
        );
        assert!(
            stepped.cooling_energy.value() < fixed.cooling_energy.value() * 0.7,
            "stepped {} vs fixed {}",
            stepped.cooling_energy,
            fixed.cooling_energy
        );
        // IT energy never depends on the chiller.
        assert_eq!(stepped.it_energy, fixed.it_energy);
        assert_eq!(stepped.control, "setpoint");

        // A half-COP check: the first 5 s match the fixed run's first
        // half; the second 5 s run at the free-cooling COP cap.
        let half_fixed = fixed.cooling_energy.value() / 2.0;
        let free_half = 70.0 / 20.0 * 5.0; // heat / max_cop × dt
        assert!(
            (stepped.cooling_energy.value() - (half_fixed + free_half)).abs() < 1e-9,
            "stepped {} vs expected {}",
            stepped.cooling_energy,
            half_fixed + free_half
        );
    }

    #[test]
    fn setpoints_before_the_first_start_set_the_initial_chiller() {
        let cfg = tiny_config();
        let job = state(70.0, 60.0);
        let programmed = integrate_with(
            vec![placement(0, 0, 10.0, 20.0, job)],
            &cfg,
            "setpoint",
            &[(Seconds::ZERO, Celsius::new(40.0))],
            &[],
        );
        // The whole run free-cools, and the pre-start change neither adds
        // an integration window nor any idle-floor energy before t = 10.
        let expected_cool = 70.0 / 20.0 * 10.0;
        assert!((programmed.cooling_energy.value() - expected_cool).abs() < 1e-9);
        assert!((programmed.it_energy.value() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn setpoints_past_the_makespan_are_ignored() {
        let cfg = tiny_config();
        let job = state(50.0, 80.0);
        let out = integrate_with(
            vec![placement(0, 0, 0.0, 10.0, job)],
            &cfg,
            "setpoint",
            &[(Seconds::new(10.0), Celsius::new(40.0))],
            &[],
        );
        let plain = integrate(vec![placement(0, 0, 0.0, 10.0, job)], &cfg);
        assert_eq!(out.makespan, Seconds::new(10.0));
        assert_eq!(out.it_energy, plain.it_energy);
        assert_eq!(out.cooling_energy, plain.cooling_energy);
    }

    #[test]
    fn trace_ring_drops_oldest_and_counts() {
        let mut trace = FleetTrace::new(1, 2);
        for i in 0..4 {
            trace.push(FleetSample {
                t: Seconds::new(f64::from(i)),
                setpoint: Celsius::new(70.0),
                queued: 0,
                running: 0,
                shed: 0,
                violations: 0,
                it_power: Watts::ZERO,
                cooling_power: Watts::ZERO,
                rack_heat: vec![Watts::ZERO],
                rack_water: vec![None],
                class_running: vec![0],
                class_it_power: vec![Watts::ZERO],
                serving: None,
            });
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 2);
        let times: Vec<f64> = trace.samples().map(|s| s.t.value()).collect();
        assert_eq!(times, vec![2.0, 3.0]);
        // Idle rack: empty water field, trailing comma preserved.
        assert!(trace.to_csv().lines().nth(1).unwrap().ends_with("0.000,"));
    }

    #[test]
    fn serving_columns_appear_only_when_enabled() {
        let sample = |serving| FleetSample {
            t: Seconds::ZERO,
            setpoint: Celsius::new(70.0),
            queued: 0,
            running: 0,
            shed: 0,
            violations: 0,
            it_power: Watts::ZERO,
            cooling_power: Watts::ZERO,
            rack_heat: vec![Watts::ZERO],
            rack_water: vec![None],
            class_running: vec![0],
            class_it_power: vec![Watts::ZERO],
            serving,
        };
        let mut batch = FleetTrace::new(1, 4);
        batch.push(sample(None));
        assert!(!batch.to_csv().contains("active_servers"));

        let mut serving = FleetTrace::new(1, 4);
        serving.enable_serving();
        serving.push(sample(Some(ServingSample {
            active_servers: 12,
            p50: Seconds::new(0.25),
            p95: Seconds::new(1.5),
            p99: Seconds::new(3.0),
        })));
        let csv = serving.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with(",active_servers,lat_p50_s,lat_p95_s,lat_p99_s"));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(",12,0.250,1.500,3.000"));
    }

    #[test]
    fn latency_histogram_quantiles_hit_bucket_edges() {
        let mut h = LatencyHistogram::new(100, 50); // 0.1 s × 50
        for v in [0.05, 0.15, 0.15, 0.32, 0.99, 7.0] {
            h.record(Seconds::new(v));
        }
        assert_eq!(h.len(), 6);
        // Rank math: ceil(0.5 × 6) = 3 → the second 0.15 s sample,
        // bucket [0.1, 0.2) → edge 0.2.
        assert_eq!(h.quantile(0.5), Some(Seconds::new(0.2)));
        assert_eq!(h.quantile(1.0 / 6.0), Some(Seconds::new(0.1)));
        // The 7 s outlier saturates into overflow: top edge 5 s.
        assert_eq!(h.quantile(1.0), Some(Seconds::new(5.0)));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), None);
    }

    #[test]
    fn latency_histogram_saturates_past_the_range() {
        let mut h = LatencyHistogram::new(10, 100); // covers 1 s
        h.record(Seconds::new(250.0));
        h.record(Seconds::new(f64::INFINITY));
        // Both land in overflow and report the 1 s saturation edge.
        assert_eq!(h.quantile(0.5), Some(Seconds::new(1.0)));
        // Negative clamps into the first bucket.
        h.record(Seconds::new(-3.0));
        assert_eq!(h.quantile(0.1), Some(Seconds::new(0.01)));
    }

    #[test]
    fn activation_timeline_shrinks_the_idle_floor() {
        let mut cfg = FleetConfig::new(2, 1);
        cfg.idle_server_power = Watts::new(10.0);
        let run = vec![placement(0, 0, 0.0, 10.0, state(50.0, 80.0))];
        let full = integrate(run.clone(), &cfg);
        // Deactivate the second server from t = 5: its idle power stops.
        let scaled = integrate_with(
            run.clone(),
            &cfg,
            "autoscale",
            &[],
            &[(Seconds::new(5.0), 1)],
        );
        // Full fleet: 50 W busy + 10 W idle over 10 s.
        assert!((full.it_energy.value() - 600.0).abs() < 1e-9);
        // Scaled: the idle floor only runs until the deactivation.
        assert!((scaled.it_energy.value() - 550.0).abs() < 1e-9);
        // Cooling never depends on the activation timeline.
        assert_eq!(scaled.cooling_energy, full.cooling_energy);

        // A pre-start activation sets the initial count; draining jobs on
        // deactivated servers never produce a negative idle floor.
        let drained = integrate_with(run, &cfg, "autoscale", &[], &[(Seconds::ZERO, 0)]);
        assert!((drained.it_energy.value() - 500.0).abs() < 1e-9);
    }
}
