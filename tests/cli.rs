//! Bad input must exit 1 with a named error, never panic (exit 101) or
//! abort (exit 134).

use std::process::Command;

fn tps(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .args(args)
        .output()
        .expect("the tps binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tps_fleet(args: &[&str]) -> (Option<i32>, String) {
    tps(&[&["fleet"], args].concat())
}

#[test]
fn a_rate_that_destroys_runtime_resolution_exits_1_naming_the_rate() {
    for rate in ["1e-20", "1e-300", "1e-17"] {
        let (code, err) = tps_fleet(&["--rate", rate, "--jobs", "10"]);
        assert_eq!(code, Some(1), "--rate {rate}: {err}");
        assert!(err.contains(&format!("--rate {rate} jobs/s")), "{err}");
    }
}

#[test]
fn a_set_point_below_absolute_zero_exits_1() {
    let (code, err) = tps_fleet(&["--control", "setpoint", "--setpoints", "0:-300"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("below absolute zero"), "{err}");
}

#[test]
fn a_grid_pitch_too_fine_to_allocate_exits_1_before_building() {
    // A 0.0001 mm pitch would need ~1.2e11 cells per layer; the check
    // must refuse it instead of letting the allocation abort the process.
    for args in [
        &[
            "fleet",
            "--servers",
            "8",
            "--jobs",
            "4",
            "--pitch",
            "0.0001",
        ][..],
        &[
            "fleet",
            "--servers",
            "8",
            "--jobs",
            "4",
            "--classes",
            "a:0.0001",
        ],
        &["run", "x264", "--pitch", "0.0001"],
    ] {
        let (code, err) = tps(args);
        assert_eq!(code, Some(1), "tps {args:?}: {err}");
        assert!(err.contains("grid pitch 0.0001 mm"), "{err}");
        assert!(err.contains("thermal cells"), "{err}");
    }
}

#[test]
fn run_rejects_non_finite_pitches_naming_the_flag() {
    for pitch in ["inf", "nan", "0"] {
        let (code, err) = tps(&["run", "x264", "--pitch", pitch]);
        assert_eq!(code, Some(1), "--pitch {pitch}: {err}");
        assert!(err.starts_with("error: --pitch: grid pitch"), "{err}");
    }
}

#[test]
fn the_shards_flag_is_gone() {
    let (code, err) = tps_fleet(&["--shards", "2"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown flag `--shards`"), "{err}");
}

#[test]
fn a_cadence_past_the_event_budget_exits_1_naming_the_flag() {
    // A nanosecond control tick or telemetry sample would schedule about
    // 1e11 events for 20 jobs — a run that never finishes.
    for args in [
        &["--control", "shed", "--tick", "1e-9"][..],
        &["--trace-out", "target/cadence-trace", "--sample", "1e-9"],
    ] {
        let (code, err) = tps_fleet(&[&["--servers", "16", "--jobs", "20"], args].concat());
        assert_eq!(code, Some(1), "tps fleet {args:?}: {err}");
        assert!(
            err.contains(&format!("{}: a 1e-9 s cadence", args[args.len() - 2])),
            "{err}"
        );
        assert!(err.contains("per job"), "{err}");
    }
}

#[test]
fn non_finite_and_sub_absolute_zero_flags_exit_1_naming_the_flag() {
    // Each of these used to panic (exit 101) or print a meaningless
    // report (exit 0); the shared validation pass now refuses them.
    let cases: [(&[&str], &str); 11] = [
        (&["--rate", "inf"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--control", "shed", "--tick", "nan"], "--tick"),
        (&["--control", "shed", "--tick", "inf"], "--tick"),
        (
            &["--trace-out", "target/nan-trace", "--sample", "inf"],
            "--sample",
        ),
        (
            &[
                "--control",
                "planner",
                "--setpoint-grid",
                "45",
                "--horizon",
                "inf",
            ],
            "--horizon",
        ),
        (&["--ambient", "nan"], "--ambient"),
        (&["--ambient", "inf"], "--ambient"),
        (&["--pitch", "inf"], "--pitch"),
        (&["--ambient", "-400"], "--ambient"),
        (
            &["--control", "planner", "--setpoint-grid", "-400"],
            "--setpoint-grid",
        ),
    ];
    let base = [
        "--servers",
        "4",
        "--jobs",
        "20",
        "--pitch",
        "3",
        "--dispatcher",
        "rr",
    ];
    for (args, flag) in cases {
        let (code, err) = tps_fleet(&[&base[..], args].concat());
        assert_eq!(code, Some(1), "tps fleet {args:?}: {err}");
        assert!(
            err.starts_with(&format!("error: {flag} ")),
            "{args:?}: {err}"
        );
    }
}

/// The outcome columns of `tps fleet`'s single dispatcher row, plus its
/// serving and per-class lines, as printed.
fn fleet_outcome(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .arg("fleet")
        .args(args)
        .output()
        .expect("the tps binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let row = stdout
        .lines()
        .find(|l| l.starts_with("thermal-aware"))
        .expect("one thermal-aware row");
    let mut cols: Vec<String> = row.split_whitespace().skip(1).map(str::to_owned).collect();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("  serving: ") {
            // `N requests, latency p50 A s / p95 B s / p99 C s, active
            // servers mean M (…)`: keep p50, p99 and the mean.
            let words: Vec<&str> = rest.split_whitespace().collect();
            cols.extend([words[4], words[12], words[17]].map(|w| w.trim_end_matches(',').into()));
        }
        if let Some(rest) = line.strip_prefix("  per class: ") {
            // `name N jobs / V viol / E kWh; …`: keep energy and violations.
            for class in rest.split("; ") {
                let words: Vec<&str> = class.split_whitespace().collect();
                cols.extend([words[7].to_owned(), words[4].to_owned()]);
            }
        }
    }
    cols
}

/// The same columns from `tps sweep`'s CSV report of a one-point spec,
/// at the fleet table's precision.
fn sweep_outcome(name: &str, spec: &str) -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.toml"));
    std::fs::write(&path, spec).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .args([
            "sweep",
            path.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("the tps binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let row: Vec<&str> = lines.next().unwrap().split(',').collect();
    let col = |key: &str, decimals: Option<usize>| {
        let raw = row[header.iter().position(|h| *h == key).unwrap()];
        match decimals {
            Some(d) => format!("{:.d$}", raw.parse::<f64>().unwrap()),
            None => raw.to_owned(),
        }
    };
    let mut cols = vec![
        col("it_kwh", Some(3)),
        col("cooling_kwh", Some(3)),
        col("total_kwh", Some(3)),
        col("pue", Some(3)),
        col("violations", None),
        col("shed", None),
        col("mean_wait_s", Some(1)),
        col("makespan_s", Some(1)),
    ];
    if header.contains(&"lat_p50_s") {
        cols.extend([
            col("lat_p50_s", Some(2)),
            col("lat_p99_s", Some(2)),
            col("mean_active_servers", None),
        ]);
    }
    for h in &header {
        if let Some(class) = h
            .strip_prefix("class_")
            .and_then(|c| c.strip_suffix("_it_kwh"))
        {
            cols.push(col(h, Some(3)));
            cols.push(col(&format!("class_{class}_viol"), None));
        }
    }
    cols
}

#[test]
fn fleet_flags_and_the_equivalent_spec_report_the_same_outcome() {
    // Both front ends build one `Scenario` and run it through the same
    // code, so every default and flag mapping must agree with the spec.
    let batch = fleet_outcome(&[
        "--servers",
        "8",
        "--jobs",
        "32",
        "--pitch",
        "3",
        "--threads",
        "2",
        "--dispatcher",
        "thermal",
        "--classes",
        "dense,sparse:3.5:35:coskun",
        "--control",
        "setpoint",
        "--setpoints",
        "0:70,120:45",
    ]);
    let spec = sweep_outcome(
        "equivalent_batch",
        "[fleet]\nracks = 2\nservers_per_rack = 4\ngrid_pitch_mm = 3.0\nthreads = 2\n\
         classes = [\"dense\", \"sparse\"]\n\
         [[server_class]]\nname = \"dense\"\n\
         [[server_class]]\nname = \"sparse\"\ngrid_pitch_mm = 3.5\nwater_inlet_c = 35\n\
         policy = \"coskun\"\n\
         [workload]\njobs = 32\n\
         [control]\npolicy = \"setpoint\"\ntimes_s = [0, 120]\nsetpoints_c = [70, 45]\n",
    );
    assert_eq!(batch.len(), 12, "{batch:?}");
    assert_eq!(batch, spec);

    let serving = fleet_outcome(&[
        "--servers",
        "16",
        "--jobs",
        "80",
        "--rate",
        "2",
        "--pitch",
        "3",
        "--threads",
        "2",
        "--dispatcher",
        "thermal",
        "--serving",
        "--control",
        "autoscale",
    ]);
    let spec = sweep_outcome(
        "equivalent_serving",
        "[fleet]\nracks = 2\nservers_per_rack = 8\ngrid_pitch_mm = 3.0\nthreads = 2\n\
         [workload]\nmode = \"serving\"\njobs = 80\nrate = 2.0\nmean_service_s = 2.0\n\
         [control]\npolicy = \"autoscale\"\nmin_servers = 8\nstep_servers = 8\n",
    );
    assert_eq!(serving.len(), 11, "{serving:?}");
    assert_eq!(serving, spec);
}
