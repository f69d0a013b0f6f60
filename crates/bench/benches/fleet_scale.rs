//! Criterion: the million-job kernel's scale trajectory — fleet replay
//! wall time at 1k/10k/100k servers with proportionally sized job
//! streams, per dispatcher, on a warm physics cache.
//!
//! These are the same (servers, jobs, dispatcher) points the
//! `bench_kernel` binary measures into `BENCH_kernel.json`; run the
//! binary for the machine-readable trajectory and this bench for
//! criterion's interactive timings. The environment
//! variable `TPS_BENCH_SCALE=smoke` trims the grid to the 1k tier so CI
//! smoke jobs stay inside their time budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tps_cluster::{
    synthesize_jobs, ClassSolve, CoolestRackFirst, Fleet, FleetConfig, FleetDispatcher, JobMix,
    OutcomeCache, PolicyId, RoundRobin, ThermalAwareDispatch,
};
use tps_core::{MinPowerSelector, Server, T_CASE_MAX};
use tps_units::Seconds;
use tps_workload::{Benchmark, DiurnalDemand, QosClass};

/// The pinned scale grid: (servers, jobs). 100k × 1M is the headline
/// million-job point; smoke keeps only the first tier.
const SCALES: &[(usize, usize)] = &[(1_000, 10_000), (10_000, 100_000), (100_000, 1_000_000)];

fn dispatchers() -> Vec<(&'static str, Box<dyn FleetDispatcher>)> {
    vec![
        (
            "round-robin",
            Box::new(RoundRobin::default()) as Box<dyn FleetDispatcher>,
        ),
        ("coolest-rack-first", Box::new(CoolestRackFirst)),
        ("thermal-aware", Box::new(ThermalAwareDispatch::default())),
    ]
}

fn bench_fleet_scale(c: &mut Criterion) {
    let smoke = std::env::var("TPS_BENCH_SCALE").as_deref() == Ok("smoke");
    let scales: &[(usize, usize)] = if smoke { &SCALES[..1] } else { SCALES };
    let mut group = c.benchmark_group("fleet_scale");
    group.sample_size(10);
    for &(servers, jobs) in scales {
        // The CLI's rack shaping: 8 servers per rack past the toy sizes.
        let racks = servers / 8;
        let demand = DiurnalDemand::new(0.7 * 0.2, 0.7, Seconds::new(600.0));
        let stream = synthesize_jobs(jobs, &demand, JobMix::default(), 42);
        let cache = OutcomeCache::new();
        {
            let mut config = FleetConfig::new(racks, servers / racks);
            config.grid_pitch_mm = 3.0;
            Fleet::new(config)
                .simulate(&stream, &mut RoundRobin::default(), &cache)
                .expect("warm-up run");
        }
        let mut config = FleetConfig::new(racks, servers / racks);
        config.grid_pitch_mm = 3.0;
        let fleet = Fleet::new(config);
        for (name, mut dispatcher) in dispatchers() {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{servers}x{jobs}")),
                &stream,
                |b, stream| b.iter(|| fleet.simulate(stream, dispatcher.as_mut(), &cache).unwrap()),
            );
        }
    }
    group.finish();
}

/// The cache's two tiers head to head, per lookup: the striped-map
/// oracle read (`OutcomeCache::peek` — hash, lock, tree walk) against
/// the frozen dense table (`SolveTable::get` — pure index arithmetic
/// off a pre-resolved solve slot, the kernel's steady-state hot path),
/// on both a present key (hit) and an absent one (miss fall-through).
fn bench_cache_lookup(c: &mut Criterion) {
    let server = Server::xeon(3.0);
    let class = ClassSolve {
        id: 0,
        server: &server,
        policy: PolicyId::Proposed,
    };
    let pairs: Vec<(Benchmark, QosClass)> = [
        (Benchmark::X264, QosClass::OneX),
        (Benchmark::X264, QosClass::TwoX),
        (Benchmark::Canneal, QosClass::ThreeX),
        (Benchmark::Dedup, QosClass::TwoX),
    ]
    .to_vec();
    let cache = OutcomeCache::new();
    for &(b, q) in &pairs {
        cache
            .get_or_solve(&class, b, q, &MinPowerSelector, T_CASE_MAX)
            .expect("solve");
    }
    let table = cache.publish();
    let slot = table.class_slot(&class).expect("class is in the table");
    // An absent key on each tier: solved pairs never include this one.
    let miss = (Benchmark::Ferret, QosClass::OneX);

    let mut group = c.benchmark_group("fleet_scale");
    group.bench_function("cache_lookup/striped_map/hit", |bench| {
        bench.iter(|| {
            for &(b, q) in &pairs {
                black_box(cache.peek(black_box(&class), b, q));
            }
        })
    });
    group.bench_function("cache_lookup/striped_map/miss", |bench| {
        bench.iter(|| black_box(cache.peek(black_box(&class), miss.0, miss.1)))
    });
    group.bench_function("cache_lookup/solve_table/hit", |bench| {
        bench.iter(|| {
            for &(b, q) in &pairs {
                black_box(table.get(black_box(slot), class.id, b, q));
            }
        })
    });
    group.bench_function("cache_lookup/solve_table/miss", |bench| {
        bench.iter(|| black_box(table.get(black_box(slot), class.id, miss.0, miss.1)))
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_scale, bench_cache_lookup);
criterion_main!(benches);
