//! Property tests on the kernel's committed-load bookkeeping:
//! interleaved `add`/`expire_until` must never leave negative rack heat,
//! stale occupancy or a wrong shared-supply cap, no matter the order of
//! magnitudes or expiry times — the invariants every dispatch decision
//! and energy window depends on.

use proptest::prelude::*;
use tps_cluster::{RackLoads, SteadyState};
use tps_units::{Celsius, Seconds, Watts};

fn state(heat: f64, water: f64) -> SteadyState {
    SteadyState {
        package_power: Watts::new(heat),
        heat: Watts::new(heat),
        max_water_temp: Celsius::new(water),
        normalized_time: 1.0,
        n_cores: 8,
        die_max: Celsius::new(70.0),
    }
}

/// A tiny deterministic generator for the interleaving: SplitMix64, the
/// same mix the workload layer uses.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

proptest! {
    /// Drive `RackLoads` through a random interleaving of commits and
    /// expiries (including ties, out-of-order expiry times and heats
    /// spanning five orders of magnitude) and check it against a naive
    /// model that rescans the full placement list every step.
    #[test]
    fn interleaved_add_expire_matches_a_naive_rescan(
        racks in 1usize..5,
        ops in 1usize..60,
        seed in 0u64..500,
        magnitude in 0u32..3,
    ) {
        let mut loads = RackLoads::new(racks);
        // Naive model: (rack, heat, water, end) of every commit, kept
        // forever, filtered on demand.
        let mut naive: Vec<(usize, f64, f64, f64)> = Vec::new();
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            let r = unit(seed, 4 * i);
            if r < 0.6 || naive.is_empty() {
                // Commit to a random rack until a random end ≥ now.
                let rack = (unit(seed, 4 * i + 1) * racks as f64) as usize % racks;
                // Heats from milliwatts to hundreds of watts stress the
                // float accumulation.
                let heat = (0.001 + unit(seed, 4 * i + 2) * 200.0)
                    * 10f64.powi(-(magnitude as i32));
                let water = 40.0 + unit(seed, 4 * i + 3) * 45.0;
                let end = now + unit(seed, 4 * i + 2) * 50.0;
                loads.add(rack, &state(heat, water), Seconds::new(end));
                naive.push((rack, heat, water, end));
            } else {
                // Advance time (sometimes replaying an already-passed
                // instant: expire_until must be idempotent).
                let dt = unit(seed, 4 * i + 1) * 40.0 - 5.0;
                now = (now + dt).max(0.0);
                loads.expire_until(Seconds::new(now));
                naive.retain(|&(_, _, _, end)| end > now);
            }

            // Invariants after every step.
            loads.expire_until(Seconds::new(now));
            naive.retain(|&(_, _, _, end)| end > now);
            let views = loads.views();
            prop_assert_eq!(views.len(), racks);
            prop_assert_eq!(
                loads.total_committed(),
                naive.len(),
                "stale occupancy at step {}", i
            );
            for (rk, view) in views.iter().enumerate() {
                let live: Vec<&(usize, f64, f64, f64)> =
                    naive.iter().filter(|p| p.0 == rk).collect();
                // Occupancy matches exactly.
                prop_assert_eq!(view.committed, live.len());
                // Heat is never negative, and matches the naive sum far
                // beyond float-residue scale.
                prop_assert!(view.heat.value() >= 0.0, "negative rack heat");
                let expected: f64 = live.iter().map(|p| p.1).sum();
                prop_assert!(
                    (view.heat.value() - expected).abs() <= 1e-9 * expected.max(1.0),
                    "rack {} heat {} vs naive {}", rk, view.heat.value(), expected
                );
                // A drained rack is pinned to *exact* zero.
                if live.is_empty() {
                    prop_assert_eq!(view.heat.value(), 0.0);
                    prop_assert!(view.supply.is_none());
                } else {
                    // The shared supply is the coldest live demand,
                    // bit-exact (the multiset stores raw bits).
                    let coldest = live
                        .iter()
                        .map(|p| p.2)
                        .fold(f64::INFINITY, f64::min);
                    prop_assert_eq!(
                        view.supply.map(|c| c.value().to_bits()),
                        Some(coldest.to_bits())
                    );
                }
            }
        }
    }

    /// Expiring everything always returns every rack to the exact-zero
    /// idle state, regardless of the commit pattern.
    #[test]
    fn full_expiry_returns_to_pristine_state(
        racks in 1usize..4,
        commits in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut loads = RackLoads::new(racks);
        let mut horizon = 0.0f64;
        for i in 0..commits as u64 {
            let rack = (unit(seed, 3 * i) * racks as f64) as usize % racks;
            let heat = 0.01 + unit(seed, 3 * i + 1) * 300.0;
            let end = unit(seed, 3 * i + 2) * 100.0;
            horizon = horizon.max(end);
            loads.add(rack, &state(heat, 60.0), Seconds::new(end));
        }
        loads.expire_until(Seconds::new(horizon));
        prop_assert_eq!(loads.total_committed(), 0);
        for view in loads.views() {
            prop_assert_eq!(view.heat.value(), 0.0);
            prop_assert_eq!(view.committed, 0);
            prop_assert!(view.supply.is_none());
        }
    }
    /// A heterogeneous fleet commits per-class steady states — the same
    /// job carries a different (heat, water) on each hardware bin. Any
    /// class mix must conserve committed heat across interleaved
    /// `add`/`expire_until`: the rack totals always equal the sum of the
    /// live placements' class heats, and full expiry drains to exact
    /// zero.
    #[test]
    fn any_class_mix_conserves_committed_heat(
        racks in 1usize..4,
        n_classes in 1usize..5,
        ops in 1usize..60,
        seed in 0u64..500,
    ) {
        // A fixed catalog of per-class demands, as the cache would hand
        // the kernel: distinct heats and tolerable-water caps per class.
        let classes: Vec<(f64, f64)> = (0..n_classes as u64)
            .map(|c| (
                20.0 + unit(seed ^ 0xc1a5, c) * 150.0,
                45.0 + unit(seed ^ 0x7a7e, c) * 35.0,
            ))
            .collect();
        let mut loads = RackLoads::new(racks);
        // Naive model: (rack, class, end) of every commit.
        let mut naive: Vec<(usize, usize, f64)> = Vec::new();
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            if unit(seed, 5 * i) < 0.65 || naive.is_empty() {
                let rack = (unit(seed, 5 * i + 1) * racks as f64) as usize % racks;
                let class = (unit(seed, 5 * i + 2) * n_classes as f64) as usize % n_classes;
                let (heat, water) = classes[class];
                let end = now + unit(seed, 5 * i + 3) * 50.0;
                loads.add(rack, &state(heat, water), Seconds::new(end));
                naive.push((rack, class, end));
            } else {
                now += unit(seed, 5 * i + 4) * 40.0;
                loads.expire_until(Seconds::new(now));
                naive.retain(|&(_, _, end)| end > now);
            }

            // Committed heat equals the naive per-class sum on every rack.
            let views = loads.views();
            for (rk, view) in views.iter().enumerate() {
                let expected: f64 = naive
                    .iter()
                    .filter(|p| p.0 == rk)
                    .map(|p| classes[p.1].0)
                    .sum();
                prop_assert!(
                    (view.heat.value() - expected).abs() <= 1e-9 * expected.max(1.0),
                    "rack {} heat {} vs per-class sum {}", rk, view.heat.value(), expected
                );
                // The supply cap is the coldest live class on the rack.
                let coldest = naive
                    .iter()
                    .filter(|p| p.0 == rk)
                    .map(|p| classes[p.1].1)
                    .fold(f64::INFINITY, f64::min);
                if coldest.is_finite() {
                    prop_assert_eq!(
                        view.supply.map(|c| c.value().to_bits()),
                        Some(coldest.to_bits())
                    );
                } else {
                    prop_assert!(view.supply.is_none());
                    prop_assert_eq!(view.heat.value(), 0.0);
                }
            }
        }

        // Drain everything: exact zero no matter the class mix.
        let horizon = naive.iter().map(|p| p.2).fold(now, f64::max);
        loads.expire_until(Seconds::new(horizon));
        prop_assert_eq!(loads.total_committed(), 0);
        for view in loads.views() {
            prop_assert_eq!(view.heat.value(), 0.0);
            prop_assert!(view.supply.is_none());
        }
    }
}

proptest! {
    /// Drive the kernel's dispatch index (occupied set, idle groups) and
    /// the legacy full-fleet rescore through the same random interleaving
    /// of placements (zero wait budgets included), expiries, set-point
    /// changes and active-prefix resizes: every placement
    /// decision must be bit-identical. The incremental dispatcher keeps
    /// its signature slabs and COP cache warm across the whole
    /// interleaving while the rescore dispatcher starts cold each call —
    /// any stale cache entry or index drift shows up as a diverged pick.
    #[test]
    fn indexed_ranking_matches_a_full_rescore_after_any_interleaving(
        seed in 0u64..200,
        ops in 1usize..80,
    ) {
        use tps_cluster::{
            ClassDemand, CoolestRackFirst, FleetDispatcher, FleetIndex, FleetView, Job,
            JobDemand, ServerTable, ThermalAwareDispatch,
        };
        use tps_cooling::Chiller;
        use tps_workload::{Benchmark, QosClass};

        // Fleet shape: racks {0,1} host class 0 only, racks {2,3} host
        // classes {0,1} — two rack groups, 2 servers per rack.
        let group_classes = vec![vec![0usize], vec![0, 1]];
        let mut servers = ServerTable::new(vec![0, 0, 0, 0, 0, 1, 0, 1], 2);
        let mut loads = tps_cluster::RackLoads::with_groups(4, vec![0, 0, 1, 1], 2);
        let mut chiller = Chiller::new(Celsius::new(60.0));
        let mut chiller_epoch = 0u64;
        let mut warm = ThermalAwareDispatch::default();
        warm.begin_run();
        let job = Job {
            id: 0,
            bench: Benchmark::X264,
            qos: QosClass::TwoX,
            arrival: Seconds::ZERO,
            service: Seconds::new(30.0),
        };
        // A demand signature names a fixed pair of steady states (the
        // dispatcher caches per-signature slabs); only the job-specific
        // runtime and wait budget vary per arrival.
        let sig_states: Vec<[SteadyState; 2]> = (0..3u64)
            .map(|s| {
                let heat = 60.0 + 40.0 * s as f64;
                let water = 50.0 + 9.0 * s as f64;
                [state(heat, water), state(heat * 0.9, water + 6.0)]
            })
            .collect();
        let mut now = 0.0f64;
        for i in 0..ops as u64 {
            let r = mix(seed, i);
            match r % 8 {
                0 => {
                    now += unit(seed, 3 * i) * 40.0;
                    loads.expire_until(Seconds::new(now));
                }
                1 => {
                    chiller = chiller
                        .with_ambient(Celsius::new(40.0 + unit(seed, 3 * i) * 25.0));
                    chiller_epoch += 1;
                }
                2 => {
                    // Shrink or grow the active prefix, as the autoscaler
                    // does: between one rack and the whole fleet.
                    servers.set_active_servers(((r >> 8) % 9) as usize);
                }
                _ => {
                    let sig = ((r >> 8) % 3) as usize;
                    let runtime = 10.0 + unit(seed, 3 * i + 1) * 50.0;
                    // A quarter of the arrivals carry a zero budget, the
                    // floor `Job::wait_budget` can reach: only a free
                    // server is feasible.
                    let budget = if (r >> 16) % 4 == 0 {
                        0.0
                    } else {
                        unit(seed, 3 * i + 2) * 30.0
                    };
                    let classes: Vec<ClassDemand> = sig_states[sig]
                        .iter()
                        .map(|s| ClassDemand {
                            state: *s,
                            runtime: Seconds::new(runtime),
                            wait_budget: Seconds::new(budget),
                        })
                        .collect();
                    let demand = JobDemand { job: &job, classes: &classes, sig: sig as u32 };
                    let indexed = FleetView {
                        now: Seconds::new(now),
                        racks: loads.view_slice(),
                        servers: &servers,
                        chiller: &chiller,
                        chiller_epoch,
                        index: Some(FleetIndex {
                            occupied: loads.occupied_racks(),
                            idle_min: loads.idle_group_mins(),
                            group_of: loads.rack_groups(),
                            group_classes: &group_classes,
                            stamps: loads.stamps(),
                        }),
                        halls: None,
                    };
                    let scan = FleetView { index: None, ..indexed };
                    let chosen = warm.place(&demand, &indexed);
                    prop_assert_eq!(
                        chosen,
                        ThermalAwareDispatch::default().place(&demand, &scan),
                        "thermal pick diverged at op {} (sig {})", i, sig
                    );
                    prop_assert_eq!(
                        CoolestRackFirst.place(&demand, &indexed),
                        CoolestRackFirst.place(&demand, &scan),
                        "coolest pick diverged at op {}", i
                    );
                    // Commit exactly like the kernel: the fleet evolves
                    // along the (verified) incremental decision.
                    let class = servers.class_of(chosen);
                    let cd = classes[class];
                    let start = now.max(servers.free_at(chosen).value());
                    let end = start + cd.runtime.value();
                    let rack = servers.rack_of(chosen);
                    loads.add(rack, &cd.state, Seconds::new(end));
                    servers.set_free_at(chosen, Seconds::new(end));
                }
            }
        }
    }
}
