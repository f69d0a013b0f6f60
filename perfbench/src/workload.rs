//! The benchmark's workloads: each one a scenario spec, a target mean
//! utilization the offered rate is derived from, and the band the
//! reached utilization must fall in.
//!
//! Load model: the host side is a closed loop (one simulation at a time,
//! in this process); inside a simulation arrivals are an open-loop
//! Poisson process at a fixed rate profile. The seed only shapes the job
//! stream — the program receives nothing but the generated jobs.

use tps_scenario::{ControlKind, DemandKind};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Rack count (8 servers each).
    pub racks: usize,
    /// Per-server thermal-grid pitch, mm.
    pub grid_pitch_mm: f64,
    /// Spec spelling of the dispatcher.
    pub dispatcher: &'static str,
    /// Arrival process of the batch jobs (default 20/40/40 % 1×/2×/3×
    /// QoS mix, 40 s mean native service time). `true`: raised-cosine
    /// day/night cycle (trough 20 % of peak) spanning the stream once,
    /// under the set-point program 70 → 45 → 70 °C; `false`: constant
    /// rate, no control.
    pub diurnal: bool,
    /// Jobs per simulated run.
    pub jobs: usize,
    /// Target mean utilization over the arrival window.
    pub target_utilization: f64,
    /// Accepted band for the reached mean utilization.
    pub band: (f64, f64),
    /// Telemetry at the 30 s default cadence, trace CSV written per run.
    pub telemetry: bool,
}

/// Servers per rack on every workload.
pub const SERVERS_PER_RACK: usize = 8;

/// Trough rate of the diurnal cycle as a fraction of the peak.
pub const BASE_FRACTION: f64 = 0.2;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        // 4k servers, not 10k: at 1,250 racks the fold's per-arrival
        // sweep outgrows L1, and on a 2-core shared Xeon VM its run time
        // spread about twice as much between invocations as on fewer
        // racks (see README.md, "Host noise").
        name: "thermal_loaded_4k",
        racks: 500,
        grid_pitch_mm: 2.0,
        dispatcher: "thermal",
        diurnal: true,
        jobs: 40_000,
        // Mean of the raised cosine is (1 + 0.2) / 2 of the peak, so a
        // 0.3 mean puts half the fleet busy at the peak.
        target_utilization: 0.3,
        band: (0.2, 0.4),
        telemetry: false,
    },
    Workload {
        name: "rr_traced_100k",
        racks: 12_500,
        grid_pitch_mm: 3.0,
        dispatcher: "rr",
        diurnal: false,
        jobs: 50_000,
        target_utilization: 0.15,
        band: (0.1, 0.2),
        telemetry: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Total servers.
    pub fn servers(&self) -> usize {
        self.racks * SERVERS_PER_RACK
    }

    /// Warm-up threads: the machine's parallelism, at most two, so the
    /// workload means the same thing on a bigger host.
    pub fn threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }

    /// The scenario spec, with the load left at a placeholder rate: the
    /// rate is derived from the solved physics ([`Self::demand`]) once
    /// the mean job runtime is known.
    pub fn spec(&self, seed: u64) -> String {
        let mut spec = format!(
            "name = \"{name}\"\n\
             [fleet]\n\
             racks = {racks}\n\
             servers_per_rack = {SERVERS_PER_RACK}\n\
             grid_pitch_mm = {pitch:?}\n\
             threads = {threads}\n\
             [cooling]\n\
             heat_reuse_c = 70.0\n\
             [workload]\n\
             jobs = {jobs}\n\
             seed = {seed}\n",
            name = self.name,
            racks = self.racks,
            pitch = self.grid_pitch_mm,
            threads = Self::threads(),
            jobs = self.jobs,
        );
        if self.diurnal {
            spec.push_str(&format!(
                "demand = \"diurnal\"\nrate = 1.0\nbase_fraction = {BASE_FRACTION:?}\n"
            ));
        } else {
            spec.push_str("demand = \"constant\"\nrate = 1.0\n");
        }
        spec.push_str(&format!(
            "[dispatch]\ndispatcher = \"{}\"\n",
            self.dispatcher
        ));
        if self.diurnal {
            // The set-point program 70 → 45 → 70 °C; its instants are
            // placeholders until the stream's span is known.
            spec.push_str(
                "[control]\npolicy = \"setpoint\"\ntimes_s = [1.0, 2.0]\nsetpoints_c = [45.0, 70.0]\n",
            );
        }
        if self.telemetry {
            spec.push_str("[telemetry]\nsample_s = 30.0\n");
        }
        spec
    }

    /// The demand model and control program that offer
    /// [`target_utilization`](Self::target_utilization) given the mean
    /// job runtime, with one diurnal cycle spanning the whole stream and
    /// the set-point moves at its thirds.
    pub fn demand(&self, mean_runtime_s: f64) -> (DemandKind, Option<ControlKind>) {
        let mean_rate =
            crate::stats::offered_rate(self.servers(), self.target_utilization, mean_runtime_s);
        // The stream spans jobs / mean rate seconds.
        let span_s = self.jobs as f64 / mean_rate;
        let cosine_mean = (1.0 + BASE_FRACTION) / 2.0;
        if !self.diurnal {
            return (DemandKind::Constant { rate: mean_rate }, None);
        }
        (
            DemandKind::Diurnal {
                rate: mean_rate / cosine_mean,
                base_fraction: BASE_FRACTION,
                period_s: span_s,
            },
            Some(ControlKind::Setpoint {
                times_s: vec![span_s / 3.0, 2.0 * span_s / 3.0],
                setpoints_c: vec![45.0, 70.0],
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_scenario::Scenario;

    #[test]
    fn every_spec_parses_to_its_workload() {
        for w in &WORKLOADS {
            let s = Scenario::parse(&w.spec(9), "x").expect("workload specs are valid");
            assert_eq!(s.name, w.name);
            assert_eq!(s.racks * s.servers_per_rack, w.servers());
            assert_eq!(s.jobs, w.jobs);
            assert_eq!(s.seed, 9);
            assert_eq!(s.dispatcher.spec_name(), w.dispatcher);
            assert_eq!(s.telemetry.is_some(), w.telemetry);
            assert!(s.serving.is_none());
            assert!(w.band.0 < w.target_utilization && w.target_utilization < w.band.1);
        }
        assert!(by_name("thermal_loaded_4k").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn derived_rate_offers_the_target_load() {
        let w = by_name("rr_traced_100k").expect("known workload");
        // 100k servers at 15 % with 70 s jobs: 214.3 jobs/s.
        let (demand, control) = w.demand(70.0);
        let DemandKind::Constant { rate } = demand else {
            panic!("rr runs a constant stream")
        };
        assert!((rate * 70.0 / w.servers() as f64 - 0.15).abs() < 1e-12);
        assert!(control.is_none());

        let w = by_name("thermal_loaded_4k").expect("known workload");
        let (demand, control) = w.demand(80.0);
        let DemandKind::Diurnal { rate, period_s, .. } = demand else {
            panic!("thermal runs a diurnal stream")
        };
        // Peak offered load is half the fleet; one cycle spans the jobs.
        assert!((rate * 80.0 / w.servers() as f64 - 0.5).abs() < 1e-12);
        let mean_rate = rate * (1.0 + BASE_FRACTION) / 2.0;
        assert!((period_s * mean_rate - w.jobs as f64).abs() < 1e-6);
        let Some(ControlKind::Setpoint {
            times_s,
            setpoints_c,
        }) = control
        else {
            panic!("thermal runs the set-point program")
        };
        assert_eq!(setpoints_c, vec![45.0, 70.0]);
        assert!(times_s[0] < times_s[1] && times_s[1] < period_s);
    }
}
