//! Empirical Theorem 1 check: Pack_Disks' disk counts against the packing
//! lower bound and the `max(Σs,Σl)/(1−ρ) + 1` budget, over random 2DVPP
//! instances of growing size and skew.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use spindown_core::parallel_map;
use spindown_packing::bounds::{fractional_lower_bound, theorem1_budget};
use spindown_packing::{pack_disks, Instance, PackItem};

use crate::{grid_seed, Figure, Scale};

/// Generate a uniform instance with coordinates in `[0, rho_cap]`.
pub fn uniform_instance(n: usize, rho_cap: f64, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let items = (0..n)
        .map(|_| PackItem {
            s: rng.random::<f64>() * rho_cap,
            l: rng.random::<f64>() * rho_cap,
        })
        .collect();
    Instance::new(items).expect("items in range")
}

/// Run the study.
pub fn bounds(scale: Scale) -> Figure {
    let sizes: Vec<usize> = match scale {
        Scale::Paper => vec![100, 1_000, 10_000, 40_000],
        Scale::Quick => vec![100, 1_000],
    };
    let rhos = [0.1, 0.3, 0.5];
    let grid: Vec<(usize, f64)> = sizes
        .iter()
        .flat_map(|&n| rhos.iter().map(move |&r| (n, r)))
        .collect();
    let rows: Vec<Vec<f64>> = parallel_map(&grid, |_, &(n, rho)| {
        let inst = uniform_instance(n, rho, grid_seed(10, n as u64, rho.to_bits()));
        let a = pack_disks(&inst);
        a.verify(&inst).expect("feasible");
        let used = a.disks_used() as f64;
        let lb = fractional_lower_bound(&inst);
        let budget = theorem1_budget(&inst);
        vec![n as f64, rho, lb, used, budget, used / lb.max(1.0)]
    });

    let mut fig = Figure::new(
        "bounds",
        "Pack_Disks vs lower bound and Theorem 1 budget (uniform random instances)",
        vec![
            "n".into(),
            "rho_cap".into(),
            "lower_bound".into(),
            "disks_used".into(),
            "theorem1_budget".into(),
            "ratio_vs_lb".into(),
        ],
    );
    fig.notes.push(
        "Theorem 1: disks_used ≤ max(Σs,Σl)/(1−ρ) + 1; ratios near 1 mean near-optimal packing"
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
    fn every_row_respects_theorem1() {
        let fig = bounds(Scale::Quick);
        let used = fig.series("disks_used").unwrap();
        let budget = fig.series("theorem1_budget").unwrap();
        let lb = fig.series("lower_bound").unwrap();
        for i in 0..used.len() {
            assert!(
                used[i] <= budget[i] + 1e-9,
                "row {i}: {} > {}",
                used[i],
                budget[i]
            );
            assert!(used[i] + 1e-9 >= lb[i].floor(), "row {i} below LB");
        }
    }

    #[test]
    fn packing_is_near_optimal_for_small_rho() {
        let fig = bounds(Scale::Quick);
        for row in &fig.rows {
            let rho = row[1];
            let ratio = row[5];
            if rho <= 0.1 {
                assert!(ratio < 1.35, "rho {rho}: ratio {ratio}");
            }
        }
    }
}
