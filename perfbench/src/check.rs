//! Output checks applied to every simulated run. A failed check is
//! reported as an error string (counted as a failed run), never a panic.

use tps_cluster::{FleetOutcome, Job};

/// Checks one run's outcome against the job stream it was given:
///
/// * every job is placed or shed exactly once,
/// * no placement starts before its job arrives, and none ends before it
///   starts,
/// * execution windows on one server never overlap,
/// * energies are finite, IT and total energy positive, cooling not
///   negative, and PUE is at least 1.
pub fn check_outcome(jobs: &[Job], outcome: &FleetOutcome) -> Result<(), String> {
    let placements = &outcome.placements;
    if placements.len() + outcome.shed != jobs.len() {
        return Err(format!(
            "{} placed + {} shed != {} jobs",
            placements.len(),
            outcome.shed,
            jobs.len()
        ));
    }
    // Job ids are stream indices; map them back to be safe.
    let mut by_id = vec![usize::MAX; jobs.len()];
    for (i, j) in jobs.iter().enumerate() {
        if j.id >= jobs.len() || by_id[j.id] != usize::MAX {
            return Err(format!("job stream has a bad or duplicate id {}", j.id));
        }
        by_id[j.id] = i;
    }
    let mut seen = vec![false; jobs.len()];
    for p in placements {
        let Some(&ji) = by_id.get(p.job) else {
            return Err(format!("placement names unknown job {}", p.job));
        };
        if std::mem::replace(&mut seen[p.job], true) {
            return Err(format!("job {} placed more than once", p.job));
        }
        let (start, end) = (p.start.value(), p.end.value());
        if !(start.is_finite() && end.is_finite()) {
            return Err(format!("job {} has a non-finite window", p.job));
        }
        if start < jobs[ji].arrival.value() {
            return Err(format!(
                "job {} starts at {start} before it arrives at {}",
                p.job,
                jobs[ji].arrival.value()
            ));
        }
        if end < start {
            return Err(format!(
                "job {} ends at {end} before it starts at {start}",
                p.job
            ));
        }
    }
    let mut windows: Vec<(usize, f64, f64, usize)> = placements
        .iter()
        .map(|p| (p.server, p.start.value(), p.end.value(), p.job))
        .collect();
    windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for w in windows.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.0 == b.0 && b.1 < a.2 {
            return Err(format!(
                "server {}: job {} [{}, {}) overlaps job {} [{}, {})",
                a.0, a.3, a.1, a.2, b.3, b.1, b.2
            ));
        }
    }
    let it = outcome.it_energy.value();
    let cooling = outcome.cooling_energy.value();
    let total = outcome.total_energy().value();
    if !(it.is_finite() && cooling.is_finite() && total.is_finite()) {
        return Err(format!("non-finite energy: it {it} J, cooling {cooling} J"));
    }
    if it <= 0.0 || total <= 0.0 || cooling < 0.0 {
        return Err(format!(
            "energy out of range: it {it} J, cooling {cooling} J, total {total} J"
        ));
    }
    let pue = outcome.pue();
    if !(pue.is_finite() && pue >= 1.0) {
        return Err(format!("PUE {pue} is below 1"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_cluster::{synthesize_jobs, Fleet, FleetConfig, JobMix, OutcomeCache, RoundRobin};
    use tps_units::{Joules, Seconds};
    use tps_workload::ConstantDemand;

    /// A small real run: 2 racks × 2 servers on a coarse grid, enough
    /// jobs that servers queue work back to back.
    fn small_run() -> (Vec<Job>, FleetOutcome) {
        let mut config = FleetConfig::new(2, 2);
        config.grid_pitch_mm = 3.0;
        config.threads = 1;
        let fleet = Fleet::new(config);
        let jobs = synthesize_jobs(16, &ConstantDemand::new(1.0), JobMix::default(), 7);
        let outcome = fleet
            .simulate(&jobs, &mut RoundRobin::default(), &OutcomeCache::new())
            .expect("paper workloads are feasible");
        (jobs, outcome)
    }

    #[test]
    fn corrupted_outcomes_are_rejected() {
        let (jobs, good) = small_run();
        assert_eq!(check_outcome(&jobs, &good), Ok(()));

        // A duplicated placement (and so one job too many).
        let mut dup = good.clone();
        dup.placements.push(dup.placements[0]);
        assert!(check_outcome(&jobs, &dup).is_err());

        // The same job placed twice, the count kept right.
        let mut twice = good.clone();
        twice.placements[1].job = twice.placements[0].job;
        let err = check_outcome(&jobs, &twice).unwrap_err();
        assert!(err.contains("more than once"), "{err}");

        // A lost job.
        let mut lost = good.clone();
        lost.placements.pop();
        assert!(check_outcome(&jobs, &lost).is_err());

        // Overlapping windows: stretch the earliest job onto the next
        // job's server, past that job's start.
        let mut overlap = good.clone();
        overlap
            .placements
            .sort_by(|a, b| a.start.value().total_cmp(&b.start.value()));
        let next = overlap.placements[1];
        overlap.placements[0].server = next.server;
        overlap.placements[0].end = next.end;
        let err = check_outcome(&jobs, &overlap).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");

        // Starting before arrival.
        let mut early = good.clone();
        let last = early.placements.len() - 1;
        early.placements[last].start = Seconds::new(-1.0);
        let err = check_outcome(&jobs, &early).unwrap_err();
        assert!(err.contains("before it arrives"), "{err}");

        // Non-physical energy.
        let mut nan = good.clone();
        nan.cooling_energy = Joules::new(f64::NAN);
        assert!(check_outcome(&jobs, &nan).is_err());
        let mut negative = good;
        negative.it_energy = Joules::new(-1.0);
        assert!(check_outcome(&jobs, &negative).is_err());
    }
}
