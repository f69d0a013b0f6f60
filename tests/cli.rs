//! Bad fleet input must exit 1 with a named error, never panic (exit 101).

use std::process::Command;

fn tps_fleet(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tps"))
        .arg("fleet")
        .args(args)
        .output()
        .expect("the tps binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
