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
