//! §5.1 group-size sweep: `Pack_Disk_v` for `v = 1..8` on the bursty NERSC
//! workload, idleness threshold 0.5 h.
//!
//! The paper: "the results reveal 4 is the ideal number of disks to be
//! packed concurrently, because packing disks more than 4 in one time no
//! more reduces response time but degrades the capability of power saving."
//! The bursty arrivals (batches of similar-size files, §3.2) are what make
//! `v > 1` matter.

use spindown_core::{Planner, PlannerConfig};
use spindown_packing::Allocator;
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_workload::arrivals::BatchConfig;
use spindown_workload::nersc::{self, NerscConfig};

use crate::sweep::parallel_map;
use crate::{grid_seed, Figure, Scale};

/// The idleness threshold the paper fixes for this sweep (0.5 h).
pub const VSWEEP_THRESHOLD_S: f64 = 0.5 * 3600.0;

/// Run the sweep and build the figure.
pub fn vsweep(scale: Scale) -> Figure {
    let cfg = NerscConfig::paper_scaled(scale.nersc_factor());
    let seed = grid_seed(8, scale.nersc_factor() as u64, 1);
    // Bursts: ~1 burst per 2000 s of trace, 4–12 same-size files each —
    // the "many users request a batch of files of similar sizes" pattern.
    let batches = BatchConfig {
        burst_rate: 1.0 / 2000.0,
        min_batch: 4,
        max_batch: 12,
        intra_batch_gap_s: 0.0,
    };
    let workload = nersc::generate_with_batches(&cfg, Some(&batches), seed);
    let rate = cfg.arrival_rate();

    let vs: Vec<usize> = (1..=8).collect();
    let rows: Vec<Vec<f64>> = parallel_map(&vs, |_, &v| {
        let mut pcfg = PlannerConfig::default();
        pcfg.allocator = Allocator::PackDisksV(v as u32);
        let planner = Planner::new(pcfg);
        let plan = planner
            .plan(&workload.catalog, rate)
            .expect("bursty NERSC catalog packs");

        let sim =
            SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(VSWEEP_THRESHOLD_S));
        let report = Simulator::run(&workload.catalog, &workload.trace, &plan.assignment, &sim)
            .expect("vsweep run succeeds");

        let never = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let e_never = Simulator::run(&workload.catalog, &workload.trace, &plan.assignment, &never)
            .expect("baseline run succeeds")
            .energy
            .total_joules();

        vec![
            v as f64,
            report.saving_vs(e_never),
            report.responses.mean(),
            report.response_p95(),
            plan.disks_used() as f64,
        ]
    });

    let mut fig = Figure::new(
        "vsweep",
        "Pack_Disk_v: power saving and response time vs group size v (threshold 0.5 h)",
        vec![
            "v".into(),
            "power_saving".into(),
            "resp_s".into(),
            "resp_p95_s".into(),
            "disks_used".into(),
        ],
    );
    fig.notes.push(
        "bursty synthetic NERSC trace (batches of 4–12 similar-size files); paper finds v = 4 ideal"
            .into(),
    );
    for row in rows {
        fig.push_row(row);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_v_1_to_8_and_stays_feasible() {
        let fig = vsweep(Scale::Quick);
        assert_eq!(fig.rows.len(), 8);
        let v = fig.series("v").unwrap();
        assert_eq!(v, (1..=8).map(|x| x as f64).collect::<Vec<_>>());
        for s in fig.series("power_saving").unwrap() {
            assert!(s.is_finite() && s <= 1.0);
        }
        for r in fig.series("resp_s").unwrap() {
            assert!(r.is_finite() && r >= 0.0);
        }
        // disk counts grow at most mildly with v
        let disks = fig.series("disks_used").unwrap();
        assert!(disks.last().unwrap() <= &(disks.first().unwrap() + 16.0));
    }
}
