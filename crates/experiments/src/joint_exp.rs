//! The standalone joint-planning experiment (`experiments joint`): search
//! the full (allocation × policy × discipline × ladder) quadruple space on
//! a seeded dense burst replay (bursts inside the break-even window, where
//! the allocation legs genuinely move energy and response) and print every
//! cell with its Pareto / winner flags — the detailed view behind the
//! shootout's part-5 bracket.
//!
//! The grid is [`JointConfig::default_grid`] (3 allocation strategies ×
//! 3 policies × 2 disciplines × 2 ladders, the paper's default quadruple
//! included) and the objective the energy×p95 product; the `frontier` and
//! `winner` columns are 0/1 flags so the CSV stays purely numeric.

use spindown_core::{JointConfig, JointPlanner};
use spindown_workload::FileCatalog;

use crate::shootout::joint_mix_trace;
use crate::{Figure, Scale};

/// Arrival rate of the planning instance (the shootout's R = 4).
const RATE: f64 = 4.0;

/// Run the joint search at R = 4, L = 0.7 on the dense burst replay.
pub fn joint(scale: Scale) -> Figure {
    let catalog = FileCatalog::paper_table1(scale.n_files(), 0);
    let trace = joint_mix_trace(&catalog, scale);
    let joint_cfg = {
        let mut cfg = JointConfig::default_grid();
        cfg.fleet = Some(scale.fleet());
        cfg
    };
    let planner = JointPlanner::new(joint_cfg);
    let outcome = planner
        .search(&catalog, &trace, RATE)
        .expect("joint grid simulates");

    let mut fig = Figure::new(
        "joint",
        "Joint (allocation × policy × discipline × ladder) planning at \
         R = 4, L = 0.7 on the dense burst replay (winner minimises \
         energy × p95)",
        vec![
            "row".into(),
            "disks_used".into(),
            "energy_j".into(),
            "resp_s".into(),
            "resp_p95_s".into(),
            "frontier".into(),
            "winner".into(),
        ],
    );
    for (j, cell) in outcome.cells.iter().enumerate() {
        fig.notes
            .push(format!("row {j} = {}", cell.candidate.label()));
        fig.push_row(vec![
            j as f64,
            cell.disks_used as f64,
            cell.energy_j,
            cell.mean_resp_s,
            cell.p95_s,
            f64::from(outcome.frontier.contains(&j)),
            f64::from(j == outcome.winner),
        ]);
    }
    fig.notes.push(format!(
        "winner: {} (energy {:.0} J, p95 {:.3} s)",
        outcome.winner_cell().candidate.label(),
        outcome.winner_cell().energy_j,
        outcome.winner_cell().p95_s,
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_figure_covers_the_grid_and_flags_one_winner() {
        let fig = joint(Scale::Quick);
        let n = JointConfig::default_grid().candidates().len();
        assert_eq!(fig.rows.len(), n);
        let winners = fig.series("winner").unwrap();
        assert_eq!(winners.iter().filter(|&&w| w == 1.0).count(), 1);
        let frontier = fig.series("frontier").unwrap();
        assert!(frontier.contains(&1.0));
        // The winner is on the frontier (the product objective is
        // monotone in both axes).
        let w = winners.iter().position(|&w| w == 1.0).unwrap();
        assert_eq!(frontier[w], 1.0);
        // Every row carries a label note.
        for j in 0..n {
            assert!(fig
                .notes
                .iter()
                .any(|note| note.starts_with(&format!("row {j} = "))));
        }
    }
}
