//! The end-to-end server simulation driver.

use crate::heat::breakdown_for_mapping;
use crate::mapping::{MappingContext, MappingPolicy};
use crate::select::ConfigSelector;
use core::fmt;
use tps_floorplan::{xeon_e5_v4, CoreTopology, Floorplan, PackageGeometry, ScalarField};
use tps_power::{power_field, CState, DiePowerBreakdown};
use tps_thermal::ThermalMetrics;
use tps_thermosyphon::{
    CoupledSimulation, CoupledSolution, CouplingError, OperatingPoint, ThermosyphonDesign,
};
use tps_workload::{Benchmark, ConfigProfile, QosClass};

/// A thermosyphon-cooled Xeon server: floorplan + package + coupled
/// thermal/thermosyphon simulation, ready to run workloads end to end.
#[derive(Debug, Clone)]
pub struct Server {
    floorplan: Floorplan,
    topology: CoreTopology,
    package: PackageGeometry,
    sim: CoupledSimulation,
}

/// The most thermal-grid cells per layer a server model may allocate:
/// 2^18, which a 0.0664 mm pitch just fits over the 36 × 32 mm package
/// (the 0.5 mm paper default needs 4,608).
const MAX_GRID_CELLS: f64 = (1u32 << 18) as f64;

/// Checks that `pitch_mm` is a positive, finite thermal-grid pitch whose
/// grid over the server package fits the cell budget, before anything is
/// allocated.
///
/// # Errors
///
/// Names the pitch, and the cell count it would need when that is what
/// fails.
pub fn check_grid_pitch(pitch_mm: f64) -> Result<(), String> {
    if pitch_mm <= 0.0 || pitch_mm.is_infinite() {
        return Err(format!(
            "grid pitch {pitch_mm} mm must be positive and finite"
        ));
    }
    let package = PackageGeometry::xeon(&xeon_e5_v4());
    let extent = package.spreader_rect();
    // `GridSpec::with_pitch`'s cell counts, in floats so a tiny pitch
    // cannot overflow them (a NaN pitch stays NaN and fails the bound).
    let pitch_m = pitch_mm * 1e-3;
    let cells =
        (extent.width().value() / pitch_m).ceil() * (extent.height().value() / pitch_m).ceil();
    if cells <= MAX_GRID_CELLS {
        Ok(())
    } else {
        Err(format!(
            "grid pitch {pitch_mm} mm needs {cells:.3e} thermal cells per layer, \
             more than the {MAX_GRID_CELLS} a server model may allocate"
        ))
    }
}

/// Builder for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    design: Option<ThermosyphonDesign>,
    op: OperatingPoint,
    grid_pitch_mm: f64,
}

/// Error running a workload on a server.
#[derive(Debug)]
pub enum RunError {
    /// No configuration satisfies the QoS constraint.
    NoFeasibleConfig {
        /// The application.
        bench: Benchmark,
        /// The violated constraint.
        qos: QosClass,
    },
    /// The coupled thermosyphon/thermal solve failed.
    Coupling(CouplingError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoFeasibleConfig { bench, qos } => {
                write!(
                    f,
                    "no configuration of `{bench}` meets the {qos} QoS constraint"
                )
            }
            RunError::Coupling(e) => write!(f, "coupled simulation failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Coupling(e) => Some(e),
            RunError::NoFeasibleConfig { .. } => None,
        }
    }
}

impl From<CouplingError> for RunError {
    fn from(e: CouplingError) -> Self {
        RunError::Coupling(e)
    }
}

/// The result of running one application on a [`Server`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The selected configuration and its profiled power/QoS row.
    pub profile: ConfigProfile,
    /// The cores the threads were mapped to (1-based).
    pub mapping: Vec<u8>,
    /// The C-state idle cores were parked in.
    pub idle_cstate: CState,
    /// The per-component heat estimate fed to the thermal model.
    pub breakdown: DiePowerBreakdown,
    /// The converged coupled solution (temperature fields, T_sat, T_case…).
    pub solution: CoupledSolution,
    /// Die metrics (die layer, die outline): the paper's "Die" rows.
    pub die: ThermalMetrics,
    /// Package metrics (spreader layer, spreader outline): "Package" rows.
    pub package: ThermalMetrics,
}

impl Server {
    /// Starts a builder with the paper defaults (paper thermosyphon design,
    /// 7 kg/h @ 30 °C water, 0.5 mm grid).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            design: None,
            op: OperatingPoint::paper(),
            grid_pitch_mm: 0.5,
        }
    }

    /// The paper's server at a given simulation grid pitch (mm).
    pub fn xeon(grid_pitch_mm: f64) -> Self {
        Self::builder().grid_pitch_mm(grid_pitch_mm).build()
    }

    /// The die floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The core-slot topology.
    pub fn topology(&self) -> &CoreTopology {
        &self.topology
    }

    /// The package geometry.
    pub fn package(&self) -> &PackageGeometry {
        &self.package
    }

    /// The coupled simulation (design, operating point, thermal model).
    pub fn simulation(&self) -> &CoupledSimulation {
        &self.sim
    }

    /// Returns a server identical to this one at a different operating
    /// point (shares the assembled thermal model).
    pub fn with_operating_point(&self, op: OperatingPoint) -> Self {
        Self {
            sim: self.sim.with_operating_point(op),
            floorplan: self.floorplan.clone(),
            topology: self.topology.clone(),
            package: self.package.clone(),
        }
    }

    /// Runs one application end to end: C-state choice → configuration
    /// selection → mapping → heat estimation → coupled thermal solve.
    ///
    /// # Errors
    ///
    /// [`RunError::NoFeasibleConfig`] if the selector finds nothing;
    /// [`RunError::Coupling`] if the physics solve fails.
    pub fn run(
        &self,
        bench: Benchmark,
        qos: QosClass,
        selector: &dyn ConfigSelector,
        policy: &dyn MappingPolicy,
    ) -> Result<RunOutcome, RunError> {
        let idle_cstate = CState::deepest_within(qos.idle_delay_tolerance());
        // The P_i vectors come from offline profiling, where idle cores sit
        // in the default POLL state (this reproduces the paper's
        // 40.5–79.3 W configuration power band); the *runtime* then parks
        // idle cores in the deepest C-state the QoS delay tolerance allows.
        let selected = selector
            .select(bench, qos, CState::Poll)
            .ok_or(RunError::NoFeasibleConfig { bench, qos })?;
        let profile = tps_workload::profile_config(bench, selected.config, idle_cstate);
        let ctx = MappingContext::new(&self.topology, self.sim.design().orientation(), idle_cstate);
        let mapping = policy.select_cores(profile.config.n_cores() as usize, &ctx);
        let breakdown = breakdown_for_mapping(&profile, &mapping);
        let (solution, die, package) = self.solve_breakdown(&breakdown)?;
        Ok(RunOutcome {
            profile,
            mapping,
            idle_cstate,
            breakdown,
            solution,
            die,
            package,
        })
    }

    /// Solves the coupled problem for an explicit per-component power
    /// breakdown (used by the figure binaries that bypass the scheduler).
    ///
    /// # Errors
    ///
    /// Propagates [`CouplingError`] from the physics solve.
    pub fn solve_breakdown(
        &self,
        breakdown: &DiePowerBreakdown,
    ) -> Result<(CoupledSolution, ThermalMetrics, ThermalMetrics), RunError> {
        let power = self.power_field(breakdown);
        let solution = self.sim.solve(&power)?;
        let die = self.die_metrics(&solution);
        let package = self.package_metrics(&solution);
        Ok((solution, die, package))
    }

    /// Rasterizes a breakdown onto the simulation grid (die coordinates are
    /// offset into the package).
    pub fn power_field(&self, breakdown: &DiePowerBreakdown) -> ScalarField {
        power_field(
            &self.floorplan,
            self.sim.grid(),
            self.package.die_offset(),
            breakdown,
        )
    }

    /// Die metrics: die layer restricted to the die outline.
    pub fn die_metrics(&self, solution: &CoupledSolution) -> ThermalMetrics {
        ThermalMetrics::in_rect(solution.thermal.die_layer(), &self.package.die_rect())
    }

    /// Package metrics: spreader layer over the whole spreader.
    pub fn package_metrics(&self, solution: &CoupledSolution) -> ThermalMetrics {
        let layer = solution
            .thermal
            .layer_by_name("spreader")
            .unwrap_or_else(|| solution.thermal.top_layer());
        ThermalMetrics::of_field(layer)
    }

    /// Mean temperature of each core's footprint on the die layer
    /// (°C, index 0 = Core1) — the history input for \[9\]-style policies.
    pub fn core_temperatures(&self, solution: &CoupledSolution) -> [f64; 8] {
        let die = solution.thermal.die_layer();
        let (ox, oy) = self.package.die_offset();
        let mut out = [0.0; 8];
        for (i, t) in out.iter_mut().enumerate() {
            let rect = self
                .floorplan
                .core(i as u8 + 1)
                .expect("xeon floorplan has cores 1..=8")
                .rect()
                .translated(ox, oy);
            *t = die.mean_in_rect(&rect).expect("core rect lies on the grid");
        }
        out
    }
}

impl ServerBuilder {
    /// Overrides the thermosyphon design (default: the paper design).
    pub fn design(mut self, design: ThermosyphonDesign) -> Self {
        self.design = Some(design);
        self
    }

    /// Sets the water-side operating point.
    pub fn operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Sets the simulation grid pitch in millimetres.
    ///
    /// # Panics
    ///
    /// Panics if non-positive.
    pub fn grid_pitch_mm(mut self, pitch: f64) -> Self {
        assert!(pitch > 0.0, "grid pitch must be positive");
        self.grid_pitch_mm = pitch;
        self
    }

    /// Assembles the server (builds the thermal model once).
    pub fn build(self) -> Server {
        let floorplan = xeon_e5_v4();
        let topology = CoreTopology::from_floorplan(&floorplan);
        let package = PackageGeometry::xeon(&floorplan);
        let design = self
            .design
            .unwrap_or_else(|| ThermosyphonDesign::paper_design(&package));
        let sim = CoupledSimulation::builder(design, self.op)
            .package(package.clone())
            .grid_pitch_mm(self.grid_pitch_mm)
            .build();
        Server {
            floorplan,
            topology,
            package,
            sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{CoskunBalancing, InletFirstMapping, ProposedMapping};
    use crate::select::MinPowerSelector;

    fn coarse_server() -> Server {
        Server::xeon(2.0)
    }

    #[test]
    fn grid_pitch_check_bounds_the_cell_count() {
        for ok in [0.0664, 0.5, 1.0, 2.0, 3.5, 1e9] {
            assert!(check_grid_pitch(ok).is_ok(), "{ok} mm rejected");
        }
        for bad in [0.0663, 0.0001, 1e-300, f64::NAN] {
            let e = check_grid_pitch(bad).expect_err("pitch accepted");
            assert!(e.contains("thermal cells"), "{e}");
        }
    }

    #[test]
    fn grid_pitch_check_rejects_non_positive_and_infinite_pitches() {
        for bad in [0.0, -0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let e = check_grid_pitch(bad).expect_err("pitch accepted");
            assert!(e.contains("must be positive and finite"), "{e}");
        }
    }

    #[test]
    fn run_pipeline_end_to_end() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::X264,
                QosClass::TwoX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        assert_eq!(out.mapping.len(), out.profile.config.n_cores() as usize);
        assert!(QosClass::TwoX.is_met_by(out.profile.normalized_time));
        // Die runs hotter than package; both above the 30 °C water.
        assert!(out.die.max > out.package.max);
        assert!(out.package.avg.value() > 30.0);
        // The breakdown total matches the profiled package power.
        assert!((out.breakdown.total().value() - out.profile.package_power.value()).abs() < 1e-9);
    }

    #[test]
    fn one_x_qos_uses_poll_and_all_cores() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::Ferret,
                QosClass::OneX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        assert_eq!(out.idle_cstate, CState::Poll);
        assert_eq!(out.profile.config.n_cores(), 8);
    }

    #[test]
    fn three_x_qos_uses_deep_sleep_and_fewer_cores() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::Swaptions,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        assert_eq!(out.idle_cstate, CState::C6);
        assert!(out.profile.config.n_cores() < 8);
    }

    #[test]
    fn proposed_beats_inlet_first_on_hotspots() {
        // The headline ordering of Table II, at one representative point.
        let server = coarse_server();
        let ours = server
            .run(
                Benchmark::Fluidanimate,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        let sabry = server
            .run(
                Benchmark::Fluidanimate,
                QosClass::ThreeX,
                &MinPowerSelector,
                &InletFirstMapping,
            )
            .unwrap();
        assert!(
            ours.die.max < sabry.die.max,
            "proposed {} should beat inlet-first {}",
            ours.die,
            sabry.die
        );
    }

    #[test]
    fn proposed_matches_or_beats_coskun_at_three_x() {
        let server = coarse_server();
        let ours = server
            .run(
                Benchmark::Bodytrack,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        let coskun = server
            .run(
                Benchmark::Bodytrack,
                QosClass::ThreeX,
                &MinPowerSelector,
                &CoskunBalancing,
            )
            .unwrap();
        assert!(
            ours.die.max.value() <= coskun.die.max.value() + 0.05,
            "proposed {} should not lose to coskun {}",
            ours.die,
            coskun.die
        );
    }

    #[test]
    fn core_temperatures_reflect_the_mapping() {
        let server = coarse_server();
        let out = server
            .run(
                Benchmark::Raytrace,
                QosClass::ThreeX,
                &MinPowerSelector,
                &ProposedMapping,
            )
            .unwrap();
        let temps = server.core_temperatures(&out.solution);
        let active_mean: f64 = out
            .mapping
            .iter()
            .map(|&c| temps[c as usize - 1])
            .sum::<f64>()
            / out.mapping.len() as f64;
        let idle: Vec<f64> = (1..=8u8)
            .filter(|c| !out.mapping.contains(c))
            .map(|c| temps[c as usize - 1])
            .collect();
        let idle_mean: f64 = idle.iter().sum::<f64>() / idle.len() as f64;
        assert!(
            active_mean > idle_mean + 2.0,
            "active cores {active_mean:.1} °C vs idle {idle_mean:.1} °C"
        );
    }
}
