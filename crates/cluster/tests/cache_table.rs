//! The two-tier cache's contract, end to end: the frozen dense
//! [`SolveTable`] must replay the striped-map oracle bit for bit under
//! any solve/publish interleaving, the kernel must produce byte-identical
//! outcomes and traces on either tier, and a
//! steady-state replay on a covering table must acquire **zero** cache
//! locks.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tps_cluster::{
    synthesize_jobs, ClassSolve, CoolestRackFirst, Fleet, FleetConfig, FleetDispatcher, JobMix,
    OutcomeCache, PolicyId, RoundRobin, StaticControl, SteadyState, TelemetryConfig,
    ThermalAwareDispatch,
};
use tps_core::{MinPowerSelector, Server, T_CASE_MAX};
use tps_thermosyphon::OperatingPoint;
use tps_units::{Celsius, Seconds};
use tps_workload::{Benchmark, DiurnalDemand, QosClass};

/// Collapses a [`SteadyState`] to raw bits so "equal" means *bit*-equal —
/// a table that perturbs even the last mantissa bit of any field fails.
fn bits(s: &SteadyState) -> [u64; 6] {
    [
        s.package_power.value().to_bits(),
        s.heat.value().to_bits(),
        s.max_water_temp.value().to_bits(),
        s.normalized_time.to_bits(),
        u64::from(s.n_cores),
        s.die_max.value().to_bits(),
    ]
}

/// SplitMix64, the same mix the workload layer uses — drives the
/// interleaving deterministically from a proptest-drawn seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drive one cache through a random interleaving of on-demand solves
    /// and mid-run republications, mirroring every solved value into a
    /// plain `BTreeMap` oracle. After every publication, each oracle key
    /// must read back from the dense table bit for bit, absent keys must
    /// fall through to `None`, and earlier epochs — still held by their
    /// `Arc`s — must not have moved.
    #[test]
    fn table_replays_the_oracle_bit_for_bit_across_republication(
        seed in 0u64..1000,
        ops in 4usize..24,
        inlet_step in 1u32..4,
    ) {
        // Two classes with *distinct* inlets (one off the paper design
        // point), crossed with distinct policies: exercises the
        // (policy, inlet_milli) solve-slot axis, not just class/bench/qos.
        let hot = Server::xeon(3.0).with_operating_point(
            OperatingPoint::paper().with_inlet(Celsius::new(30.0 + 2.5 * f64::from(inlet_step))),
        );
        let base = Server::xeon(3.0);
        let classes = [
            ClassSolve { id: 0, server: &base, policy: PolicyId::Proposed },
            ClassSolve { id: 1, server: &hot, policy: PolicyId::Coskun },
        ];
        let benches = [Benchmark::X264, Benchmark::Canneal, Benchmark::Dedup];
        let qoses = [QosClass::OneX, QosClass::TwoX, QosClass::ThreeX];

        let cache = OutcomeCache::new();
        let mut oracle: BTreeMap<(usize, Benchmark, QosClass), SteadyState> = BTreeMap::new();
        let mut epochs = Vec::new();
        for i in 0..ops as u64 {
            let r = mix(seed, i);
            if r % 4 == 0 {
                // Republish mid-run: freeze whatever the stripes hold now.
                epochs.push(cache.publish());
            } else {
                let ci = (r as usize / 4) % classes.len();
                let b = benches[(r as usize / 8) % benches.len()];
                let q = qoses[(r as usize / 32) % qoses.len()];
                let solved = cache
                    .get_or_solve(&classes[ci], b, q, &MinPowerSelector, T_CASE_MAX)
                    .unwrap();
                if let Some(prev) = oracle.insert((ci, b, q), solved) {
                    // Replays of one key are themselves bit-stable.
                    prop_assert_eq!(bits(&prev), bits(&solved));
                }
            }

            // The latest publication replays the oracle exactly — for the
            // keys it existed to see; later solves stay invisible to it.
            if let Some(table) = epochs.last() {
                for (&(ci, b, q), want) in &oracle {
                    if let Some(got) = table.lookup(&classes[ci], b, q) {
                        prop_assert_eq!(bits(&got), bits(want));
                    }
                }
            }
        }

        // A final publication covers everything ever solved, bit for bit…
        let last = cache.publish();
        prop_assert_eq!(last.len(), oracle.len());
        for (&(ci, b, q), want) in &oracle {
            let got = last
                .lookup(&classes[ci], b, q)
                .expect("every solved key is frozen into the final epoch");
            prop_assert_eq!(bits(&got), bits(want));
        }
        // …never-solved keys fall through instead of aliasing…
        for ci in 0..classes.len() {
            for &b in &benches {
                for &q in &qoses {
                    if !oracle.contains_key(&(ci, b, q)) {
                        prop_assert!(last.lookup(&classes[ci], b, q).is_none());
                    }
                }
            }
        }
        // …and every earlier epoch is immutable: still the bits the
        // oracle held at *its* publication (a subset of the final state).
        for table in &epochs {
            prop_assert!(table.epoch() < last.epoch() || table.len() == last.len());
            for (&(ci, b, q), want) in &oracle {
                if let Some(got) = table.lookup(&classes[ci], b, q) {
                    prop_assert_eq!(bits(&got), bits(want));
                }
            }
        }
    }
}

fn fleet(solve_table: bool) -> Fleet {
    let mut config = FleetConfig::new(8, 4);
    config.grid_pitch_mm = 3.0;
    config.solve_table = solve_table;
    Fleet::new(config)
}

fn jobs() -> Vec<tps_cluster::Job> {
    let demand = DiurnalDemand::new(0.18 * 0.2, 0.18, Seconds::new(600.0));
    synthesize_jobs(160, &demand, JobMix::default(), 42)
}

/// One full run with telemetry: `(outcome, trace CSV bytes)` — the whole
/// byte-determinism surface.
fn run(fleet: &Fleet, dispatcher: &mut dyn FleetDispatcher) -> (tps_cluster::FleetOutcome, String) {
    let cache = OutcomeCache::new();
    let result = fleet
        .simulate_with(
            &jobs(),
            dispatcher,
            &mut StaticControl,
            Some(&TelemetryConfig::default()),
            &cache,
        )
        .unwrap();
    (
        result.outcome,
        result.trace.expect("telemetry was on").to_csv(),
    )
}

/// The determinism matrix: dense-table path vs striped-map oracle path,
/// under all three dispatchers — every combination must agree on outcome
/// *and* trace CSV, byte for byte.
#[test]
fn table_and_oracle_paths_agree_across_dispatchers() {
    let mk: [(&str, fn() -> Box<dyn FleetDispatcher>); 3] = [
        ("round-robin", || Box::<RoundRobin>::default()),
        ("coolest-rack-first", || Box::new(CoolestRackFirst)),
        ("thermal-aware", || Box::<ThermalAwareDispatch>::default()),
    ];
    for (name, dispatcher) in mk {
        let (base_out, base_csv) = run(&fleet(true), dispatcher().as_mut());
        for solve_table in [true, false] {
            let (out, csv) = run(&fleet(solve_table), dispatcher().as_mut());
            assert_eq!(
                out, base_out,
                "{name}: outcome diverged at solve_table={solve_table}"
            );
            assert_eq!(
                csv, base_csv,
                "{name}: trace diverged at solve_table={solve_table}"
            );
        }
    }
}

/// A steady-state replay — second run, same cache, covering table — must
/// resolve every demand state lock-free: zero lock acquisitions, zero
/// miss solves, all table hits, identical outcome.
#[test]
fn steady_state_replay_acquires_zero_cache_locks() {
    let fleet = fleet(true);
    let cache = OutcomeCache::new();
    let jobs = jobs();
    let mut dispatcher = ThermalAwareDispatch::default();
    let first = fleet
        .simulate_with(&jobs, &mut dispatcher, &mut StaticControl, None, &cache)
        .unwrap();
    let second = fleet
        .simulate_with(&jobs, &mut dispatcher, &mut StaticControl, None, &cache)
        .unwrap();
    assert_eq!(second.outcome, first.outcome);
    assert!(second.stats.table_hits > 0);
    assert_eq!(
        second.stats.miss_solves, 0,
        "covering table must absorb every lookup"
    );
    assert_eq!(
        second.stats.lock_acquisitions, 0,
        "steady-state replay must touch no stripe or publication lock"
    );
}
