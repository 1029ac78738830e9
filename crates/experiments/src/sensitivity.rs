//! Drive-model sensitivity (extension, §6 "more detailed modeling"): run
//! the Figure 2 measurement on three drive classes — the paper's desktop
//! drive, a fast enterprise drive and a low-RPM archival drive — to see how
//! the power/response trade-off shifts with the hardware's break-even
//! characteristics.

use spindown_core::{compare, parallel_map, Planner, PlannerConfig};
use spindown_disk::{break_even_threshold, DiskSpec};
use spindown_packing::Allocator;
use spindown_workload::{FileCatalog, Trace};

use crate::{grid_seed, Figure, Scale};

/// The drive presets studied, with stable indices used in the figure.
pub fn presets() -> Vec<(&'static str, DiskSpec)> {
    vec![
        ("st3500630as", DiskSpec::seagate_st3500630as()),
        ("enterprise_15k", DiskSpec::enterprise_15k()),
        ("archival_5400", DiskSpec::archival_5400()),
    ]
}

/// Run the study at R = 4, L = 0.7 for every preset.
pub fn sensitivity(scale: Scale) -> Figure {
    let catalog = FileCatalog::paper_table1(scale.n_files(), 0);
    let rate = 4.0;
    let fleet = scale.fleet();
    let trace = Trace::poisson(&catalog, rate, scale.sim_time(), grid_seed(77, 0, 0));

    let presets = presets();
    let rows: Vec<Vec<f64>> = parallel_map(&presets, |idx, (_, spec)| {
        // One spec drives packing, policy construction and simulation.
        let cfg = PlannerConfig::default().with_disk(spec.clone());
        let planner = Planner::new(cfg.clone());
        let pack = planner.plan(&catalog, rate).expect("feasible");
        let mut rnd_cfg = cfg;
        rnd_cfg.allocator = Allocator::RandomFixed {
            disks: fleet as u32,
            seed: grid_seed(77, idx as u64, 1),
        };
        let random = Planner::new(rnd_cfg).plan(&catalog, rate).expect("fits");
        let cmp =
            compare(&planner, &pack, &random, &catalog, &trace, Some(fleet)).expect("simulates");
        vec![
            idx as f64,
            break_even_threshold(spec),
            cmp.power_saving(),
            cmp.candidate.responses.mean(),
            cmp.response_ratio().unwrap_or(f64::NAN),
            pack.disks_used() as f64,
        ]
    });

    let mut fig = Figure::new(
        "sensitivity",
        "Drive-class sensitivity at R = 4, L = 0.7 (Pack_Disks vs random)",
        vec![
            "preset".into(),
            "break_even_s".into(),
            "power_saving".into(),
            "pack_resp_s".into(),
            "resp_ratio".into(),
            "disks_used".into(),
        ],
    );
    for (idx, (name, _)) in presets.iter().enumerate() {
        fig.notes.push(format!("preset {idx} = {name}"));
    }
    for row in rows {
        fig.push_row(row);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_saves_power() {
        let fig = sensitivity(Scale::Quick);
        assert_eq!(fig.rows.len(), 3);
        for row in &fig.rows {
            let be = row[1];
            let saving = row[2];
            assert!(be > 0.0 && be.is_finite());
            assert!(saving > 0.1, "preset {} saving {saving}", row[0]);
        }
    }

    #[test]
    fn archival_drive_has_longer_break_even_than_enterprise() {
        // Archival drives spin up slowly (big overhead) but sleep deeply;
        // the derived thresholds must reflect the constants.
        let fig = sensitivity(Scale::Quick);
        let be: Vec<f64> = fig.series("break_even_s").unwrap();
        // presets: 0 = paper drive, 1 = enterprise, 2 = archival
        assert!(be[2] > 0.0 && be[1] > 0.0 && be[0] > 0.0);
        let names = presets();
        assert_eq!(names[2].0, "archival_5400");
    }

    #[test]
    fn faster_disk_serves_faster() {
        let fig = sensitivity(Scale::Quick);
        let resp = fig.series("pack_resp_s").unwrap();
        // enterprise (idx 1) responds faster than archival (idx 2)
        assert!(
            resp[1] < resp[2],
            "enterprise {} vs archival {}",
            resp[1],
            resp[2]
        );
    }
}
