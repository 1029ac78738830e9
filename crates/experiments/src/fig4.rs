//! Figure 4: the power/response trade-off while varying the load
//! constraint `L` at fixed `R = 6`.
//!
//! Larger `L` packs the workload onto fewer disks — lower fleet power, but
//! higher per-disk utilisation and therefore longer queues. The figure
//! reports the Pack_Disks fleet's mean power (left axis, watts) and mean
//! response time (right axis, seconds), plus the M/G/1 response prediction
//! as an analytic cross-check.

use spindown_analysis::mg1::{mg1_mean_response, mixture_moments};
use spindown_core::{parallel_map, Planner, PlannerConfig};
use spindown_workload::{FileCatalog, Trace};

use crate::{grid_seed, Figure, Scale};

/// The fixed arrival rate of Figure 4.
pub const FIG4_RATE: f64 = 6.0;

/// Run the sweep and build the figure.
pub fn fig4(scale: Scale) -> Figure {
    let catalog = FileCatalog::paper_table1(scale.n_files(), 0);
    let fleet = scale.fleet();
    let seed = grid_seed(4, FIG4_RATE.to_bits(), 0);
    let trace = Trace::poisson(&catalog, FIG4_RATE, scale.sim_time(), seed);

    let loads = scale.fig4_loads();
    let rows: Vec<Vec<f64>> = parallel_map(&loads, |_, &load| {
        let mut cfg = PlannerConfig::default();
        cfg.load_constraint = load;
        let planner = Planner::new(cfg);
        let plan = planner
            .plan(&catalog, FIG4_RATE)
            .expect("Table 1 instance feasible");
        let report = planner
            .evaluate_with_fleet(&plan, &catalog, &trace, fleet)
            .expect("simulation succeeds");
        vec![
            load,
            report.mean_power_w(),
            report.responses.mean(),
            report.response_p95(),
            plan.disks_used() as f64,
            analytic_response(&planner, &catalog, plan.disks_used(), load),
        ]
    });

    let mut fig = Figure::new(
        "fig4",
        "Power cost and response time vs load constraint L (R = 6)",
        vec![
            "L".into(),
            "power_w".into(),
            "resp_s".into(),
            "resp_p95_s".into(),
            "disks_used".into(),
            "mg1_resp_s".into(),
        ],
    );
    fig.notes.push(format!(
        "Table 1 workload at R = {FIG4_RATE}/s, fleet of {fleet}, break-even threshold"
    ));
    fig.notes
        .push("mg1_resp_s: Pollaczek–Khinchine prediction at the mean per-disk load".into());
    for row in rows {
        fig.push_row(row);
    }
    fig
}

/// M/G/1 prediction for the busy disks: each of the `disks_used` disks
/// receives `R/disks_used` of the traffic (Pack_Disks balances load), with
/// the catalog's service mixture.
fn analytic_response(
    planner: &Planner,
    catalog: &FileCatalog,
    disks_used: usize,
    _load: f64,
) -> f64 {
    if disks_used == 0 {
        return 0.0;
    }
    let pops: Vec<f64> = catalog.iter().map(|f| f.popularity).collect();
    let services: Vec<f64> = catalog
        .iter()
        .map(|f| planner.service_time(f.size_bytes))
        .collect();
    let (es, es2) = mixture_moments(&pops, &services);
    let lambda_per_disk = FIG4_RATE / disks_used as f64;
    mg1_mean_response(lambda_per_disk, es, es2).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_shape_power_falls_response_rises() {
        // Shrunken version of the Figure 4 claim.
        let fig = fig4(Scale::Quick);
        let power = fig.series("power_w").unwrap();
        let resp = fig.series("resp_s").unwrap();
        let disks = fig.series("disks_used").unwrap();
        // Power at the loosest constraint is no higher than at the
        // tightest (fewer spinning disks).
        assert!(
            *power.last().unwrap() <= power.first().unwrap() + 1e-6,
            "power did not fall: {power:?}"
        );
        // Disks used shrink (weakly) as L grows.
        assert!(disks.last().unwrap() <= disks.first().unwrap());
        // Response at the loosest constraint is at least that at the
        // tightest (longer queues on fewer disks).
        assert!(
            *resp.last().unwrap() >= resp.first().unwrap() - 1e-6,
            "response did not rise: {resp:?}"
        );
    }

    #[test]
    fn analytic_prediction_is_finite_and_positive() {
        let fig = fig4(Scale::Quick);
        for v in fig.series("mg1_resp_s").unwrap() {
            assert!(v.is_finite() && v > 0.0, "mg1 prediction {v}");
        }
    }
}
