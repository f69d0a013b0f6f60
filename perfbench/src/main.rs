//! Loaded-fleet benchmark for the tps simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload all [--seed N] [--seconds S]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs;
//! `--trace 1` records a span around every layer call and reports the
//! per-layer metrics, the component replays and the tracing overhead.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! every workload in both modes as child processes and prints every
//! metric by name with its unit. See `perfbench/README.md`.

mod check;
mod host;
mod pipeline;
mod replay;
mod span;
mod stats;
mod workload;

use pipeline::{Prepared, RunOutput, SetupTimes, SimSummary};
use span::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest measured runs per invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Most measured runs per invocation.
const MAX_RUNS: usize = 500;

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("total_energy_kwh", "kWh"),
    ("cooling_energy_kwh", "kWh"),
    ("qos_met_share", "share"),
    ("latency_p99_s", "s"),
];

/// The per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 39] = [
    ("scenario.parse_s", "s"),
    ("fleet.build_s", "s"),
    ("workload.synth_s", "s"),
    ("workload.jobs", "count"),
    ("cache.warm_s", "s"),
    ("cache.publish_s", "s"),
    ("cache.solves", "count"),
    ("cache.solve_ms", "ms"),
    ("cache.table_hits", "count"),
    ("cache.miss_solves", "count"),
    ("cache.lock_acquisitions", "count"),
    ("engine.simulate_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.peak_queue_depth", "count"),
    ("engine.arena_high_water", "count"),
    ("engine.mean_utilization", "share"),
    ("engine.qos_violations", "count"),
    ("queue.busy_s", "s"),
    ("queue.ops", "count"),
    ("queue.ns_per_op", "ns"),
    ("index.busy_s", "s"),
    ("index.ops", "count"),
    ("index.ns_per_op", "ns"),
    ("index.peak_occupied_racks", "count"),
    ("dispatch.busy_s", "s"),
    ("dispatch.ops", "count"),
    ("dispatch.ns_per_op", "ns"),
    ("dispatch.replay_match", "share"),
    ("telemetry.samples", "count"),
    ("telemetry.csv_s", "s"),
    ("telemetry.csv_bytes", "bytes"),
    ("report.emit_s", "s"),
    ("report.bytes", "bytes"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.run_self_s", "s"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be a whole number, got {value}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs `f`, turning a panic into an error so it counts as a failed run.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Attempted and failed runs, failures reported on standard error.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}

/// Checks a run's outputs: the outcome checks, the utilization guard, and
/// bit-identical simulated results across the invocation's repeats.
fn check_run(
    p: &Prepared,
    out: &RunOutput,
    reference: &mut Option<SimSummary>,
) -> Result<SimSummary, String> {
    let outcome = &out.result.outcome;
    check::check_outcome(&p.jobs, outcome)?;
    let summary = pipeline::summarize(&p.jobs, p.workload.servers(), outcome);
    pipeline::check_utilization(p.workload, summary.mean_utilization)?;
    match reference {
        Some(r) if *r != summary => Err(format!(
            "simulated results differ between repeats: {r:?} vs {summary:?}"
        )),
        Some(_) => Ok(summary),
        None => {
            *reference = Some(summary);
            Ok(summary)
        }
    }
}

/// One checked run, counted in `tally`.
fn measured_run(
    p: &Prepared,
    out_dir: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    reference: &mut Option<SimSummary>,
) -> Option<(RunOutput, SimSummary)> {
    let r = guarded(|| {
        let out = pipeline::run_once(p, out_dir, tracer)?;
        let summary = check_run(p, &out, reference)?;
        Ok((out, summary))
    });
    tally.record("run", r)
}

/// `SETUP_REPS` set-ups from scratch (fresh cache each), keeping the last.
fn setups(
    w: &'static Workload,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Option<Prepared>, Vec<SetupTimes>) {
    let mut prepared = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first so peak memory holds one.
        drop(prepared.take());
        if let Some((p, t)) = tally.record("set-up", guarded(|| pipeline::setup(w, seed, tracer))) {
            prepared = Some(p);
            times.push(t);
        }
    }
    (prepared, times)
}

/// Untraced runs: the end-to-end metrics.
fn end_to_end(
    w: &'static Workload,
    args: &Args,
    out_dir: &Path,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let mut tracer = Tracer::new(false);
    let (prepared, setup_times) = setups(w, args.seed, &mut tracer, tally);
    let setup_s: Vec<f64> = setup_times.iter().map(|t| t.total_s).collect();
    let mut reference = None;
    let mut runs: Vec<f64> = Vec::new();
    if let Some(p) = &prepared {
        // One untimed run lets lazy set-up and first-touch paging finish.
        measured_run(p, out_dir, &mut tracer, tally, &mut reference);
        let budget = Duration::from_secs_f64(args.seconds);
        let started = Instant::now();
        while runs.len() < MIN_RUNS || (started.elapsed() < budget && runs.len() < MAX_RUNS) {
            let Some((out, _)) = measured_run(p, out_dir, &mut tracer, tally, &mut reference)
            else {
                if tally.failed > MIN_RUNS {
                    break;
                }
                continue;
            };
            runs.push(out.run_s);
        }
    }
    let sim = reference.unwrap_or_default();
    eprintln!(
        "perfbench: {} seed {}: {} set-ups, {} runs {:?}, mean utilization {:.4}",
        w.name,
        args.seed,
        setup_s.len(),
        runs.len(),
        runs,
        sim.mean_utilization
    );
    vec![
        ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
        // The mean: window run time over runs completed. Other tenants of
        // a shared host slow runs in phases of seconds to minutes; the
        // mean weighs each phase by its share of the window (see
        // README.md, "Host noise").
        ("run_s", stats::mean(&runs).unwrap_or(0.0)),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0)),
        ("total_energy_kwh", sim.total_energy_kwh),
        ("cooling_energy_kwh", sim.cooling_energy_kwh),
        ("qos_met_share", sim.qos_met_share),
        ("latency_p99_s", sim.latency_p99_s),
    ]
}

/// Traced runs: per-layer self times from spans, counters, the
/// component replays and the tracing overhead.
fn per_layer(
    w: &'static Workload,
    args: &Args,
    out_dir: &Path,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let mut tracer = Tracer::new(true);
    let (prepared, setup_times) = setups(w, args.seed, &mut tracer, tally);
    let Some(p) = prepared else {
        return Vec::new();
    };
    let mut reference = None;
    tracer.set_enabled(false);
    measured_run(&p, out_dir, &mut tracer, tally, &mut reference);
    // Alternate untraced and traced runs so drift hits both alike.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while traced.len() < 2 || (started.elapsed() < budget && traced.len() < MAX_RUNS) {
        for on in [false, true] {
            tracer.set_enabled(on);
            if let Some((out, summary)) =
                measured_run(&p, out_dir, &mut tracer, tally, &mut reference)
            {
                if on {
                    traced.push(out.run_s);
                    last = Some((out, summary));
                } else {
                    untraced.push(out.run_s);
                }
            }
        }
        if tally.failed > MIN_RUNS {
            break;
        }
    }
    tracer.set_enabled(true);
    let Some((out, summary)) = last else {
        return Vec::new();
    };
    let replays = tally
        .record(
            "replay",
            guarded(|| {
                replay::replay(
                    &p,
                    &out.result.outcome.placements,
                    &out.actions,
                    &mut tracer,
                )
            }),
        )
        .unwrap_or_default();

    let spans = tracer.spans();
    let own = |name: &str| span::median_self(spans, name).unwrap_or(0.0);
    let stats = &out.result.stats;
    let setup = setup_times.last().copied().unwrap_or_default();
    let untraced_run_s = stats::mean(&untraced).unwrap_or(0.0);
    let traced_run_s = stats::mean(&traced).unwrap_or(0.0);
    let simulate_s = own("engine.simulate");
    let warm_s = own("cache.warm");
    let metrics = vec![
        ("scenario.parse_s", own("scenario.parse")),
        ("fleet.build_s", own("fleet.build")),
        ("workload.synth_s", own("workload.synth")),
        ("workload.jobs", p.jobs.len() as f64),
        ("cache.warm_s", warm_s),
        ("cache.publish_s", own("cache.publish")),
        ("cache.solves", setup.solves as f64),
        ("cache.solve_ms", warm_s * 1e3 / setup.solves.max(1) as f64),
        ("cache.table_hits", stats.table_hits as f64),
        ("cache.miss_solves", stats.miss_solves as f64),
        (
            "cache.lock_acquisitions",
            (setup.locks + stats.lock_acquisitions) as f64,
        ),
        ("engine.simulate_s", simulate_s),
        ("engine.events", stats.events as f64),
        (
            "engine.ns_per_event",
            simulate_s * 1e9 / stats.events.max(1) as f64,
        ),
        ("engine.peak_queue_depth", stats.peak_queue_depth as f64),
        ("engine.arena_high_water", stats.arena_high_water as f64),
        ("engine.mean_utilization", summary.mean_utilization),
        ("engine.qos_violations", summary.qos_violations as f64),
        ("queue.busy_s", replays.queue.busy_s),
        ("queue.ops", replays.queue.ops as f64),
        ("queue.ns_per_op", replays.queue.ns_per_op()),
        ("index.busy_s", replays.index.busy_s),
        ("index.ops", replays.index.ops as f64),
        ("index.ns_per_op", replays.index.ns_per_op()),
        (
            "index.peak_occupied_racks",
            replays.peak_occupied_racks as f64,
        ),
        ("dispatch.busy_s", replays.dispatch.busy_s),
        ("dispatch.ops", replays.dispatch.ops as f64),
        ("dispatch.ns_per_op", replays.dispatch.ns_per_op()),
        ("dispatch.replay_match", replays.replay_match),
        ("telemetry.samples", out.samples as f64),
        ("telemetry.csv_s", own("telemetry.csv")),
        ("telemetry.csv_bytes", out.csv_bytes as f64),
        ("report.emit_s", own("report.emit")),
        ("report.bytes", out.report_bytes as f64),
        ("trace.untraced_run_s", untraced_run_s),
        ("trace.traced_run_s", traced_run_s),
        ("trace.overhead_s", traced_run_s - untraced_run_s),
        ("trace.run_self_s", own("run")),
        ("trace.spans", spans.len() as f64),
    ];
    // Spans are written once, at exit.
    let path = out_dir.join(format!("spans-seed{}.jsonl", args.seed));
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}}}\n",
        w.name,
        args.seed,
        host::host_json()
    );
    if let Err(e) = std::fs::write(&path, meta + &tracer.to_json_lines()) {
        tally.record::<()>("writing spans", Err(e.to_string()));
    }
    eprintln!(
        "perfbench: {} seed {}: {} traced / {} untraced runs, spans in {}",
        w.name,
        args.seed,
        traced.len(),
        untraced.len(),
        path.display()
    );
    metrics
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(tally: &Tally, metrics: &[(&str, f64)], units: &[(&str, &str)]) -> String {
    let correct = tally.failed == 0 && metrics.len() == units.len();
    let body: Vec<String> = units
        .iter()
        .filter_map(|&(name, unit)| {
            metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// `--workload all`: every workload in both modes, each as its own
/// process (so peak memory is per workload), printed as a table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("host {}", host::host_json());
    let mut ok = true;
    for w in &workload::WORKLOADS {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!(
                        "perfbench: {} --trace {trace} exited with {}",
                        w.name, o.status
                    );
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {}: {e}", w.name);
                    ok = false;
                    continue;
                }
            };
            let line = stdout.lines().last().unwrap_or_default();
            let (attempted, failed) = (field(line, "attempted"), field(line, "failed"));
            ok &= line.contains("\"correct\": true");
            let (failed, attempted) = (failed.unwrap_or(f64::NAN), attempted.unwrap_or(f64::NAN));
            println!(
                "\n{} (trace {trace}): failed_runs {} ({failed} of {attempted} runs)",
                w.name,
                failed / attempted
            );
            for (name, value, unit) in metrics_of(line) {
                println!("  {name:<28} {value:>16.6} {unit}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A top-level numeric field of a result line.
fn field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// `(name, value, unit)` of every metric in a result line.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    let Some(at) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    line[at + 12..]
        .split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let (value, rest) = rest.split_once(", \"unit\": \"")?;
            let unit = rest.split('"').next()?;
            Some((name.to_owned(), value.parse().ok()?, unit.to_owned()))
        })
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let out_dir: PathBuf = Path::new("perfbench").join("out").join(w.name);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut tally = Tally::default();
    let (metrics, units) = if args.trace {
        (per_layer(w, &args, &out_dir, &mut tally), &PER_LAYER[..])
    } else {
        (end_to_end(w, &args, &out_dir, &mut tally), &END_TO_END[..])
    };
    println!("host {}", host::host_json());
    println!("{}", result_json(&tally, &metrics, units));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_table_parser() {
        let tally = Tally {
            attempted: 4,
            failed: 0,
        };
        let metrics: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(n, _))| (n, 1.5 + i as f64))
            .collect();
        let line = result_json(&tally, &metrics, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        let parsed = metrics_of(&line);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("setup_s".to_owned(), 1.5, "s".to_owned()));
        assert_eq!(field(&line, "attempted"), Some(4.0));
        assert_eq!(field(&line, "failed"), Some(0.0));
    }

    #[test]
    fn missing_metrics_or_failures_are_not_correct() {
        let ok = Tally {
            attempted: 1,
            failed: 0,
        };
        assert!(result_json(&ok, &[("setup_s", 1.0)], &END_TO_END).contains("\"correct\": false"));
        let failed = Tally {
            attempted: 2,
            failed: 1,
        };
        let all: Vec<(&str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
        assert!(result_json(&failed, &all, &END_TO_END).contains("\"correct\": false"));
    }

    #[test]
    fn arguments_are_validated() {
        let raw = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&raw(
            "--workload rr_traced_100k --seed 3 --seconds 5 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5.0, true));
        assert!(parse_args(&raw("--workload x --trace 2")).is_err());
        assert!(parse_args(&raw("--workload x --seconds 0")).is_err());
        assert!(parse_args(&raw("--seed 3")).is_err());
        assert!(parse_args(&raw("--workload")).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let count = |needle: &str| doc.matches(needle).count();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(count(&entry), 1, "{entry}");
        }
        for w in &workload::WORKLOADS {
            assert_eq!(count(&format!("\"name\": \"{}\"", w.name)), 1, "{}", w.name);
        }
        assert_eq!(
            count("\"unit\": "),
            END_TO_END.len() + PER_LAYER.len(),
            "no metric beyond the code's"
        );
    }
}
