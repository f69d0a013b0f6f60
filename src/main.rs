//! `tps` — command-line front end for the two-phase-cooling scheduling
//! simulator.
//!
//! ```text
//! tps run <benchmark> [--qos 1x|2x|3x] [--policy NAME] [--selector NAME] [--pitch MM]
//! tps profile <benchmark>
//! tps fleet [--servers N] [--racks N] [--jobs N] [--seed N] [--rate R] [--demand KIND]
//!           [--control POLICY] [--trace-out DIR]
//! tps sweep <spec.toml> [--out DIR] [--threads N] [--trace-out DIR]
//! tps list
//! ```
//!
//! Every subcommand accepts both `--flag value` and `--flag=value`
//! (parsed by the shared [`cliargs::CliArgs`] helper).

mod cliargs;

use cliargs::CliArgs;
use std::path::Path;
use std::process::ExitCode;
use tps::cluster::{Fleet, FleetConfig, FleetOutcome, OutcomeCache};
use tps::core::{
    check_grid_pitch, ConfigSelector, CoskunBalancing, InletFirstMapping, MappingPolicy,
    MinPowerSelector, PackAndCapSelector, PackedMapping, ProposedMapping, Server,
};
use tps::power::CState;
use tps::scenario::{
    policy_from_name, solver_from_name, ClassSpec, ControlKind, DemandKind, DispatcherKind,
    Scenario, ServingSpec, Sweep, TelemetrySpec,
};
use tps::workload::{profile_application, Benchmark, QosClass};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("list") => cmd_list(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "tps — two-phase-cooling-aware thermal workload mapping\n\n\
         USAGE:\n  \
         tps run <benchmark> [--qos 1x|2x|3x] [--policy proposed|coskun|inlet|packed]\n  \
         {:14}[--selector minpower|packcap] [--pitch <mm>]\n  \
         tps profile <benchmark>   print the 48-point P/Q configuration table\n  \
         tps fleet [--servers N] [--racks N] [--jobs N] [--seed N] [--rate JOBS/S]\n  \
         {:14}[--demand constant|diurnal|bursty] [--dispatcher all|rr|coolest|thermal|planned]\n  \
         {:14}[--policy NAME] [--ambient C] [--pitch MM] [--threads N]\n  \
         {:14}[--classes NAME[:PITCH[:INLET[:POLICY]]],...]  heterogeneous racks\n  \
         {:14}(classes cycle across racks; fields omitted inherit the fleet flags)\n  \
         {:14}[--control static|setpoint|shed|autoscale|planner] [--setpoints T:C,T:C,...] [--tick S]\n  \
         {:14}[--setpoint-grid C,C,...] [--horizon S] [--replan-ticks N]\n  \
         {:14}[--solver lp|anneal] [--anneal-iters N]  planner knobs (see docs/SCENARIOS.md)\n  \
         {:14}[--serving]  open-loop request stream with latency percentiles\n  \
         {:14}(autoscale requires --serving; steps the active set by whole racks)\n  \
         {:14}[--trace-out DIR] [--sample S]  write per-dispatcher telemetry CSVs\n  \
         {:14}[--stats]  per-dispatcher kernel timing (events/s, queue depth, arena)\n  \
         tps sweep <spec.toml> [--out DIR] [--threads N] [--trace-out DIR]\n  \
         {:14}expand a scenario spec's sweep grid, write CSV + Markdown reports\n  \
         {:14}(spec schema and cookbook: docs/SCENARIOS.md, examples: scenarios/)\n  \
         tps list                  list benchmarks, policies and selectors\n",
        "", "", "", "", "", "", "", "", "", "", "", "", "", ""
    );
}

/// Three significant digits with an SI prefix: `850`, `12.3k`, `4.56M`.
fn si3(x: f64) -> String {
    let (mut v, mut prefix) = (x, 0);
    while v >= 999.5 && prefix < 4 {
        v /= 1e3;
        prefix += 1;
    }
    let decimals = if v >= 99.95 {
        0
    } else if v >= 9.995 {
        1
    } else {
        2
    };
    format!("{v:.decimals$}{}", ["", "k", "M", "G", "T"][prefix])
}

/// A `main`-style error bridge: prints `error: …` and maps to an exit code.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn parse_bench(args: &CliArgs) -> Result<Benchmark, String> {
    let name = args
        .positional(0)
        .ok_or_else(|| "missing <benchmark> argument".to_owned())?;
    name.parse::<Benchmark>().map_err(|e| e.to_string())
}

fn parse_qos(args: &CliArgs) -> Result<QosClass, String> {
    match args.flag_or("qos", "2x") {
        "1x" => Ok(QosClass::OneX),
        "2x" => Ok(QosClass::TwoX),
        "3x" => Ok(QosClass::ThreeX),
        other => Err(format!("unknown QoS class `{other}` (use 1x, 2x or 3x)")),
    }
}

fn cmd_run(raw: &[String]) -> ExitCode {
    let args = match CliArgs::parse(raw, &["qos", "policy", "selector", "pitch"], 1) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let (bench, qos) = match (parse_bench(&args), parse_qos(&args)) {
        (Ok(b), Ok(q)) => (b, q),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let policy: Box<dyn MappingPolicy> = match args.flag_or("policy", "proposed") {
        "proposed" => Box::new(ProposedMapping),
        "coskun" => Box::new(CoskunBalancing),
        "inlet" => Box::new(InletFirstMapping),
        "packed" => Box::new(PackedMapping),
        other => return fail(format!("unknown policy `{other}`")),
    };
    let selector: Box<dyn ConfigSelector> = match args.flag_or("selector", "minpower") {
        "minpower" => Box::new(MinPowerSelector),
        "packcap" => Box::new(PackAndCapSelector::default()),
        other => return fail(format!("unknown selector `{other}`")),
    };
    let pitch: f64 = match args.parsed("pitch", 1.0) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if let Err(e) = check_grid_pitch(pitch) {
        return fail(format!("--pitch: {e}"));
    }

    println!(
        "simulating {bench} @ {qos} QoS ({} / {})…",
        selector.name(),
        policy.name()
    );
    let server = Server::xeon(pitch);
    match server.run(bench, qos, selector.as_ref(), policy.as_ref()) {
        Ok(out) => {
            println!("configuration : {}", out.profile.config);
            println!("slowdown      : {:.2}x", out.profile.normalized_time);
            println!("idle C-state  : {}", out.idle_cstate);
            println!("mapping       : {:?}", out.mapping);
            println!("package power : {:.1}", out.breakdown.total());
            println!(
                "T_sat / T_case: {:.1} / {:.1}",
                out.solution.t_sat, out.solution.t_case
            );
            println!("die           : {}", out.die);
            println!("package       : {}", out.package);
            println!();
            print!(
                "{}",
                tps::thermal::render_ascii(out.solution.thermal.die_layer())
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_profile(raw: &[String]) -> ExitCode {
    let args = match CliArgs::parse(raw, &[], 1) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let bench = match parse_bench(&args) {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    println!("{bench}: P/Q vectors (idle cores in POLL)\n");
    println!("{:>14}  {:>9}  {:>9}", "config", "power (W)", "slowdown");
    let mut rows = profile_application(bench, CState::Poll);
    rows.sort_by(|a, b| a.package_power.value().total_cmp(&b.package_power.value()));
    for row in rows {
        println!(
            "{:>14}  {:>9.1}  {:>8.2}x",
            row.config.to_string(),
            row.package_power.value(),
            row.normalized_time
        );
    }
    ExitCode::SUCCESS
}

fn cmd_list() -> ExitCode {
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!("  {b}");
    }
    println!("\npolicies:   proposed (paper), coskun [9], inlet [7], packed (scenario 3)");
    println!("selectors:  minpower (Algorithm 1), packcap [27]");
    println!("qos:        1x, 2x, 3x");
    println!(
        "dispatchers (tps fleet): rr (round-robin), coolest (coolest-rack-first), thermal, \
         planned (total-energy greedy)"
    );
    println!(
        "demand models (tps fleet): constant, diurnal, bursty (batch); --serving for requests"
    );
    println!(
        "control policies (tps fleet/sweep): static, setpoint (schedule), shed (admission), \
         autoscale (serving capacity), planner (joint placement + set-point)"
    );
    println!("scenario specs (tps sweep): scenarios/*.toml, schema in docs/SCENARIOS.md");
    ExitCode::SUCCESS
}

/// Parsed `tps fleet` arguments: the scenario the flags describe, plus
/// what only the command line has — the dispatchers to compare, the
/// requested server count (rounded up to full racks), `--stats` and
/// `--trace-out`.
struct FleetArgs {
    scenario: Scenario,
    servers: usize,
    dispatchers: Vec<DispatcherKind>,
    trace_out: Option<String>,
    stats: bool,
}

/// The flag that sets a scenario field, for error messages. Fields no
/// flag sets keep the schema default, which validation accepts.
fn flag_for(path: &'static str) -> String {
    match path {
        "fleet.grid_pitch_mm" => "--pitch",
        "fleet.threads" => "--threads",
        "server_class.grid_pitch_mm" => "--classes pitch",
        "server_class.water_inlet_c" => "--classes inlet",
        "cooling.heat_reuse_c" => "--ambient",
        "workload.jobs" => "--jobs",
        "workload.rate" => "--rate",
        "control.times_s" | "control.setpoints_c" => "--setpoints",
        "control.tick_s" => "--tick",
        "control.horizon_s" => "--horizon",
        "control.replan_ticks" => "--replan-ticks",
        "control.setpoint_grid" => "--setpoint-grid",
        "control.anneal_iters" => "--anneal-iters",
        "telemetry.sample_s" => "--sample",
        other => other,
    }
    .to_owned()
}

/// Parses a `--classes` entry list: `NAME[:PITCH[:INLET[:POLICY]]]`,
/// comma-separated. Omitted fields inherit the fleet-wide flags.
fn parse_classes(raw: &str) -> Result<Vec<ClassSpec>, String> {
    let mut classes: Vec<ClassSpec> = Vec::new();
    for entry in raw.split(',') {
        let mut fields = entry.split(':');
        let name = fields.next().unwrap_or("").trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!(
                "bad --classes entry `{entry}` (expected NAME[:PITCH[:INLET[:POLICY]]], \
                 name of letters, digits and `_`)"
            ));
        }
        if classes.iter().any(|c| c.name == name) {
            return Err(format!("duplicate --classes name `{name}`"));
        }
        let mut field = |what: &str| -> Result<Option<f64>, String> {
            match fields.next().map(str::trim).filter(|s| !s.is_empty()) {
                None => Ok(None),
                Some(raw) => raw
                    .parse()
                    .map(Some)
                    .map_err(|e| format!("bad --classes {what} `{raw}`: {e}")),
            }
        };
        let grid_pitch_mm = field("pitch")?;
        let water_inlet_c = field("inlet")?;
        let policy = match fields.next().map(str::trim).filter(|s| !s.is_empty()) {
            None => None,
            Some(p) => Some(policy_from_name(p).map_err(|e| format!("--classes: {e}"))?),
        };
        if let Some(extra) = fields.next() {
            return Err(format!("trailing `:{extra}` in --classes entry `{entry}`"));
        }
        classes.push(ClassSpec {
            name: name.to_owned(),
            grid_pitch_mm,
            water_inlet_c,
            policy,
        });
    }
    Ok(classes)
}

/// Parses `--setpoint-grid C,C,...` into the planner's candidate list.
fn parse_setpoint_grid(raw: &str) -> Result<Vec<f64>, String> {
    raw.split(',')
        .map(|entry| {
            entry
                .trim()
                .parse()
                .map_err(|e| format!("bad --setpoint-grid entry `{entry}`: {e}"))
        })
        .collect()
}

/// Parses `--setpoints T:C,T:C,...` into a set-point program's change
/// instants and set-points.
fn parse_setpoints(raw: &str) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut program = (Vec::new(), Vec::new());
    for entry in raw.split(',') {
        let Some((t, c)) = entry.split_once(':') else {
            return Err(format!(
                "bad --setpoints entry `{entry}` (expected TIME:CELSIUS, e.g. 300:45)"
            ));
        };
        program.0.push(
            t.trim()
                .parse()
                .map_err(|e| format!("bad --setpoints time `{t}`: {e}"))?,
        );
        program.1.push(
            c.trim()
                .parse()
                .map_err(|e| format!("bad --setpoints temperature `{c}`: {e}"))?,
        );
    }
    Ok(program)
}

/// Turns the `tps fleet` flags into a validated [`Scenario`]. Flag
/// syntax and which flags go together are checked here; every value
/// goes through [`Scenario::validate`], the check a spec gets too.
fn parse_fleet_args(raw: &[String]) -> Result<FleetArgs, String> {
    let args = CliArgs::parse_with_switches(
        raw,
        &[
            "servers",
            "racks",
            "jobs",
            "seed",
            "rate",
            "demand",
            "dispatcher",
            "policy",
            "ambient",
            "pitch",
            "threads",
            "classes",
            "control",
            "setpoints",
            "tick",
            "horizon",
            "replan-ticks",
            "setpoint-grid",
            "anneal-iters",
            "solver",
            "trace-out",
            "sample",
        ],
        &["stats", "serving"],
        0,
    )?;
    let serving: bool = args.parsed("serving", false)?;
    let control_name = args.flag_or("control", "static");
    // Mirror the spec layer: a policy-specific flag under the wrong
    // policy is an error, never silently dropped.
    if args.flag("setpoints").is_some() && control_name != "setpoint" {
        return Err(format!(
            "--setpoints only applies to --control setpoint (got --control {control_name})"
        ));
    }
    if args.flag("tick").is_some() && !matches!(control_name, "shed" | "autoscale" | "planner") {
        return Err(format!(
            "--tick only applies to --control shed, autoscale or planner \
             (got --control {control_name})"
        ));
    }
    for flag in [
        "horizon",
        "replan-ticks",
        "setpoint-grid",
        "anneal-iters",
        "solver",
    ] {
        if args.flag(flag).is_some() && control_name != "planner" {
            return Err(format!(
                "--{flag} only applies to --control planner (got --control {control_name})"
            ));
        }
    }
    if args.flag("sample").is_some() && args.flag("trace-out").is_none() {
        return Err("--sample only applies together with --trace-out DIR".to_owned());
    }
    if args.flag("demand").is_some() && serving {
        return Err(
            "--demand selects a batch demand model; --serving always runs the \
             diurnal + flash-crowd request stream"
                .to_owned(),
        );
    }

    // The schema defaults: every flag left out reads as the spec key it
    // sets would.
    let d = Scenario::parse("[fleet]\n", "fleet").expect("the all-defaults spec parses");
    let servers: usize = args.parsed("servers", d.racks * d.servers_per_rack)?;
    let racks = match args.flag("racks") {
        Some(_) => args.parsed("racks", 0usize)?,
        None => match servers {
            0..=1 => 1,
            2..=15 => 2,
            n => n / 8,
        },
    };
    if servers == 0 || racks == 0 {
        return Err("--servers and --racks must be positive".to_owned());
    }
    let servers_per_rack = servers.div_ceil(racks);

    let control = match control_name {
        "static" => ControlKind::Static,
        "setpoint" => {
            let raw = args
                .flag("setpoints")
                .ok_or("--control setpoint needs --setpoints T:C,T:C,...")?;
            let (times_s, setpoints_c) = parse_setpoints(raw)?;
            ControlKind::Setpoint {
                times_s,
                setpoints_c,
            }
        }
        "shed" => ControlKind::Shed {
            tick_s: args.parsed("tick", 60.0)?,
            high_watermark: 8,
            low_watermark: 2,
        },
        "autoscale" if !serving => {
            return Err(
                "--control autoscale needs --serving (it scales the active-server \
                        set against request latency)"
                    .to_owned(),
            )
        }
        // Activation is rack-granular: step and floor at whole racks.
        "autoscale" => ControlKind::Autoscale {
            tick_s: args.parsed("tick", 30.0)?,
            min_servers: servers_per_rack,
            step_servers: servers_per_rack,
            queue_high: 2.0,
            queue_low: 0.25,
            p99_slo_s: 10.0,
        },
        "planner" => ControlKind::Planner {
            tick_s: args.parsed("tick", 30.0)?,
            horizon_s: args.parsed("horizon", 120.0)?,
            replan_ticks: args.parsed("replan-ticks", 1)?,
            setpoint_grid: parse_setpoint_grid(args.flag("setpoint-grid").ok_or(
                "--control planner needs --setpoint-grid C,C,... (candidate set-points)",
            )?)?,
            anneal_iters: args.parsed("anneal-iters", 2_000)?,
            solver: solver_from_name(args.flag_or("solver", "lp"))
                .map_err(|e| format!("--solver: {e}"))?,
        },
        other => {
            return Err(format!(
                "--control: unknown control policy `{other}` \
                 (use static, setpoint, shed, autoscale or planner)"
            ))
        }
    };

    let rate = args.parsed("rate", d.demand.rate())?;
    let demand = match args.flag_or("demand", "diurnal") {
        "constant" => DemandKind::Constant { rate },
        "diurnal" => DemandKind::Diurnal {
            rate,
            base_fraction: 0.2,
            period_s: 600.0,
        },
        "bursty" => DemandKind::Bursty {
            rate,
            base_fraction: 0.2,
            burst_s: 60.0,
            gap_s: 240.0,
        },
        other => return Err(format!("--demand: unknown demand model `{other}`")),
    };
    let classes = match args.flag("classes") {
        None => Vec::new(),
        Some(raw) => parse_classes(raw)?,
    };
    let trace_out = args.flag("trace-out").map(str::to_owned);
    let telemetry = match trace_out {
        None => None,
        Some(_) => Some(TelemetrySpec {
            sample_s: args.parsed("sample", 30.0)?,
            ..TelemetrySpec::default()
        }),
    };
    let scenario = Scenario {
        racks,
        servers_per_rack,
        grid_pitch_mm: args.parsed("pitch", d.grid_pitch_mm)?,
        policy: policy_from_name(args.flag_or("policy", d.policy.spec_name()))
            .map_err(|e| format!("--policy: {e}"))?,
        threads: args.parsed("threads", d.threads)?,
        heat_reuse_c: args.parsed("ambient", d.heat_reuse_c)?,
        jobs: args.parsed("jobs", d.jobs)?,
        seed: args.parsed("seed", d.seed)?,
        demand,
        // Requests ride the diurnal envelope with 2.5× surges, 60 s long
        // and 420 s apart, and 2 s service: the CLI counterpart of
        // `scenarios/serving_diurnal.toml`.
        serving: serving.then_some(ServingSpec {
            surge: 2.5,
            surge_s: 60.0,
            surge_gap_s: 420.0,
        }),
        mean_service_s: if serving { 2.0 } else { d.mean_service_s },
        control,
        telemetry,
        // Classes cycle across racks: rack r is entirely class r mod k.
        rack_classes: match classes.len() {
            0 => Vec::new(),
            k => (0..racks).map(|r| vec![r % k]).collect(),
        },
        classes,
        ..d
    };
    scenario.validate(&flag_for).map_err(|e| e.message)?;
    let dispatchers = match args.flag_or("dispatcher", "all") {
        "all" => vec![
            DispatcherKind::RoundRobin,
            DispatcherKind::CoolestRackFirst,
            DispatcherKind::ThermalAware,
        ],
        name => vec![DispatcherKind::from_spec_name(match name {
            "round-robin" => "rr",
            "coolest-rack-first" => "coolest",
            "thermal-aware" => "thermal",
            other => other,
        })
        .map_err(|e| format!("--dispatcher: {e}, or all"))?],
    };
    Ok(FleetArgs {
        scenario,
        servers,
        dispatchers,
        trace_out,
        stats: args.parsed("stats", false)?,
    })
}

fn cmd_fleet(raw: &[String]) -> ExitCode {
    let a = match parse_fleet_args(raw) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let s = &a.scenario;
    let (racks, servers_per_rack) = (s.racks, s.servers_per_rack);
    if racks * servers_per_rack != a.servers {
        println!(
            "note: rounding {} servers up to {} ({racks} racks × {servers_per_rack}) so every rack is full",
            a.servers,
            racks * servers_per_rack
        );
    }
    let jobs = s.synthesize_jobs();
    if let Err(e) = s.check_stream(&jobs, s.telemetry.is_some(), &flag_for) {
        return fail(e.message);
    }
    let fleet = Fleet::new(s.fleet_config());

    println!(
        "fleet: {racks} racks × {servers_per_rack} servers, {} jobs ({} demand, rate {} jobs/s, seed {})",
        jobs.len(),
        if s.serving.is_some() {
            "serving"
        } else {
            s.demand.spec_name()
        },
        s.demand.rate(),
        s.seed
    );
    if !s.classes.is_empty() {
        let summary: Vec<String> = s
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{} (pitch {:.1} mm, inlet {:.1} °C, {})",
                    c.name,
                    c.grid_pitch_mm.unwrap_or(s.grid_pitch_mm),
                    c.water_inlet_c.unwrap_or(s.water_inlet_c),
                    c.policy.unwrap_or(s.policy).spec_name(),
                )
            })
            .collect();
        println!("classes: {} — cycled across racks", summary.join(", "));
    }
    println!(
        "scenario: heat-recovery loop at {:.1} °C, water inlet {:.1}, {:.1} mm grid, {} warm-up threads",
        s.heat_reuse_c,
        fleet.config().op.water_inlet(),
        s.grid_pitch_mm,
        s.threads,
    );
    println!(
        "control: {}{}\n",
        s.control.instantiate().name(),
        match (&a.trace_out, s.telemetry) {
            (Some(dir), Some(t)) => format!(", telemetry every {:.0} s → {dir}/", t.sample_s),
            _ => String::new(),
        }
    );

    let telemetry = s.telemetry.map(TelemetrySpec::to_config);
    if let Some(dir) = &a.trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create `{dir}`: {e}"));
        }
    }
    let cache = OutcomeCache::new();
    let mut outcomes: Vec<FleetOutcome> = Vec::new();
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>9} {:>9}",
        "dispatcher", "IT kWh", "cool kWh", "tot kWh", "PUE", "viol", "shed", "wait s", "span s"
    );
    let mut peak_queue_depth = 0usize;
    let mut arena_high_water = 0usize;
    for kind in &a.dispatchers {
        let mut d = kind.instantiate();
        let mut control = s.control.instantiate();
        let started = std::time::Instant::now();
        match fleet.simulate_with(
            &jobs,
            d.as_mut(),
            control.as_mut(),
            telemetry.as_ref(),
            &cache,
        ) {
            Ok(result) => {
                let elapsed = started.elapsed().as_secs_f64();
                peak_queue_depth = peak_queue_depth.max(result.stats.peak_queue_depth);
                arena_high_water = arena_high_water.max(result.stats.arena_high_water);
                let out = result.outcome;
                println!(
                    "{:<20} {:>9.3} {:>9.3} {:>9.3} {:>7.3} {:>6} {:>6} {:>9.1} {:>9.1}",
                    out.dispatcher,
                    out.it_energy.to_kwh(),
                    out.cooling_energy.to_kwh(),
                    out.total_energy().to_kwh(),
                    out.pue(),
                    out.violations,
                    out.shed,
                    out.mean_wait.value(),
                    out.makespan.value()
                );
                if a.stats {
                    println!(
                        "  kernel: {} events in {:.3} s ({} events/s), peak queue depth {}, arena high-water {}",
                        result.stats.events,
                        elapsed,
                        si3(result.stats.events as f64 / elapsed.max(1e-9)),
                        result.stats.peak_queue_depth,
                        result.stats.arena_high_water,
                    );
                    println!(
                        "  cache (this run): {} table hits, {} miss solves, {} lock acquisitions",
                        result.stats.table_hits,
                        result.stats.miss_solves,
                        result.stats.lock_acquisitions,
                    );
                }
                if let Some(s) = &out.serving {
                    println!(
                        "  serving: {} requests, latency p50 {:.2} s / p95 {:.2} s / p99 {:.2} s, \
                         active servers mean {:.1} (min {}, max {})",
                        s.requests,
                        s.latency_p50.value(),
                        s.latency_p95.value(),
                        s.latency_p99.value(),
                        s.mean_active_servers,
                        s.min_active_servers,
                        s.max_active_servers,
                    );
                }
                if out.class_names.len() > 1 {
                    let per_class: Vec<String> = out
                        .class_names
                        .iter()
                        .enumerate()
                        .map(|(i, name)| {
                            format!(
                                "{name} {} jobs / {} viol / {:.3} kWh",
                                out.class_placements[i],
                                out.class_violations[i],
                                out.class_it_energy[i].to_kwh(),
                            )
                        })
                        .collect();
                    println!("  per class: {}", per_class.join("; "));
                }
                if let (Some(dir), Some(trace)) = (&a.trace_out, result.trace) {
                    let path = Path::new(dir).join(format!("trace_{}.csv", out.dispatcher));
                    if let Err(e) = std::fs::write(&path, trace.to_csv()) {
                        return fail(format!("cannot write `{}`: {e}", path.display()));
                    }
                    if trace.dropped() > 0 {
                        println!(
                            "  note: trace ring dropped {} oldest samples (raise [telemetry] capacity)",
                            trace.dropped()
                        );
                    }
                }
                outcomes.push(out);
            }
            Err(e) => return fail(e),
        }
    }
    println!(
        "\nserver-physics cache (whole process): {} distinct solves, {} replays ({} table hits, {} miss solves, {} locks) — event queue: peak depth {}, arena high-water {}",
        cache.solves(),
        cache.hits(),
        cache.table_hits(),
        cache.miss_solves(),
        cache.lock_acquisitions(),
        peak_queue_depth,
        arena_high_water,
    );
    let find = |name: &str| outcomes.iter().find(|o| o.dispatcher == name);
    if let (Some(rr), Some(ta)) = (find("round-robin"), find("thermal-aware")) {
        let saved = 1.0 - ta.total_energy() / rr.total_energy();
        println!(
            "thermal-aware vs round-robin: {:+.1} % total energy ({:+.1} % cooling)",
            -100.0 * saved,
            -100.0 * (1.0 - ta.cooling_energy / rr.cooling_energy)
        );
    }
    ExitCode::SUCCESS
}

fn cmd_sweep(raw: &[String]) -> ExitCode {
    let args = match CliArgs::parse(raw, &["out", "threads", "trace-out"], 1) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let Some(spec_path) = args.positional(0) else {
        return fail("missing <spec.toml> argument (shipped specs live under scenarios/)");
    };
    let threads = match args.parsed("threads", FleetConfig::default_threads()) {
        Ok(n) if n > 0 => n,
        Ok(_) => return fail("--threads must be positive"),
        Err(e) => return fail(e),
    };
    let out_dir = Path::new(args.flag_or("out", "target/sweep")).to_owned();

    let source = match std::fs::read_to_string(spec_path) {
        Ok(s) => s,
        Err(e) => return fail(format!("cannot read `{spec_path}`: {e}")),
    };
    let stem = Path::new(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("sweep")
        .to_owned();
    let sweep = match Sweep::parse(&source, &stem) {
        Ok(s) => s,
        Err(e) => return fail(format!("{spec_path}: {e}")),
    };

    println!(
        "sweep `{}`: {} axis/axes → {} grid point(s), {} worker thread(s)",
        sweep.name,
        sweep.axes.len(),
        sweep.grid_len(),
        threads
    );
    for axis in &sweep.axes {
        let values: Vec<String> = axis
            .values
            .iter()
            .map(tps::scenario::toml::Value::display_compact)
            .collect();
        println!("  {} = [{}]", axis.path, values.join(", "));
    }
    let trace_out = args.flag("trace-out").map(str::to_owned);
    let started = std::time::Instant::now();
    let (report, traces) = if trace_out.is_some() {
        match sweep.run_traced(threads) {
            Ok((r, t)) => (r, t),
            Err(e) => return fail(format!("{spec_path}: {e}")),
        }
    } else {
        match sweep.run(threads) {
            Ok(r) => (r, Vec::new()),
            Err(e) => return fail(format!("{spec_path}: {e}")),
        }
    };
    println!(
        "executed {} grid point(s) in {:.2} s — server-physics cache (whole process): {} distinct solves, {} replays ({} table hits, {} miss solves, {} locks) — event queue: peak depth {}, arena high-water {}\n",
        report.rows.len(),
        started.elapsed().as_secs_f64(),
        report.cache_solves,
        report.cache_hits,
        report.table_hits,
        report.miss_solves,
        report.lock_acquisitions,
        report.peak_queue_depth,
        report.arena_high_water,
    );
    print!("{}", report.to_markdown());

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fail(format!("cannot create `{}`: {e}", out_dir.display()));
    }
    let csv_path = out_dir.join(format!("{stem}.csv"));
    let md_path = out_dir.join(format!("{stem}.md"));
    if let Err(e) = std::fs::write(&csv_path, report.to_csv()) {
        return fail(format!("cannot write `{}`: {e}", csv_path.display()));
    }
    if let Err(e) = std::fs::write(&md_path, report.to_markdown()) {
        return fail(format!("cannot write `{}`: {e}", md_path.display()));
    }
    println!(
        "\nreports: {} and {}",
        csv_path.display(),
        md_path.display()
    );
    if let Some(dir) = trace_out {
        let dir = Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create `{}`: {e}", dir.display()));
        }
        for (row, trace) in report.rows.iter().zip(&traces) {
            // Grid-point names carry `.`/`=`/`,`; keep file names plain.
            let stem: String = row
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("{stem}.csv"));
            if let Err(e) = std::fs::write(&path, trace.to_csv()) {
                return fail(format!("cannot write `{}`: {e}", path.display()));
            }
        }
        println!("traces: {} files under {}", traces.len(), dir.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn si3_keeps_three_significant_digits_across_prefixes() {
        let cases = [
            (850.0, "850"),
            (1234.0, "1.23k"),
            (9_996.0, "10.0k"),
            (12_345.0, "12.3k"),
            (999_600.0, "1.00M"),
            (4.56e6, "4.56M"),
            (1.234e8, "123M"),
        ];
        for (x, want) in cases {
            assert_eq!(super::si3(x), want, "{x}");
        }
    }
}
