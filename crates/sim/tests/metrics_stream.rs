//! Property tests of the streaming-histogram metrics mode: on random
//! workloads the histogram's quantiles stay within the documented relative
//! error bound of the exact sorted quantiles, and an engine run in
//! histogram mode reports the same exact scalar statistics (count, mean,
//! max) as the same run in exact mode.

use proptest::prelude::*;
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::SimConfig;
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::{MetricsMode, ResponseStats, StreamingHistogram};
use spindown_workload::{FileCatalog, Trace};

const QS: [f64; 9] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];

/// Absolute slack for samples at the histogram's ≈1 ns resolution floor.
const FLOOR: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    // The documented contract: every quantile of the histogram is within
    // RELATIVE_ERROR_BOUND (relative) of the exact nearest-rank quantile,
    // for arbitrary sample sets spanning the whole dynamic range the
    // simulator produces (sub-millisecond cache hits to multi-hour waits).
    #[test]
    fn histogram_quantiles_within_relative_error_of_exact(
        samples in prop::collection::vec(0.0f64..100_000.0, 1..400),
        scale_exp in 0u32..7,
    ) {
        // Spread the decade coverage: scale by 10^-scale_exp so some cases
        // exercise the fine-grained sub-second buckets.
        let scale = 10f64.powi(-(scale_exp as i32));
        let mut exact = ResponseStats::exact();
        let mut hist = ResponseStats::histogram();
        for &s in &samples {
            exact.record(s * scale);
            hist.record(s * scale);
        }
        // The scalar statistics are exact, not approximate. (Compared
        // before any quantile call: exact-mode quantiles sort the sample
        // vector in place, which changes the float summation order.)
        prop_assert_eq!(exact.len(), hist.len());
        prop_assert_eq!(exact.mean(), hist.mean());
        prop_assert_eq!(exact.max(), hist.max());
        let bound = hist.quantile_error_bound();
        prop_assert!(bound > 0.0 && bound <= 1.0 / 256.0 + 1e-15);
        for q in QS {
            let e = exact.quantile(q);
            let h = hist.quantile(q);
            prop_assert!(
                (h - e).abs() <= bound * e + FLOOR,
                "q={}: histogram {} vs exact {} (bound {})", q, h, e, bound
            );
        }
    }

    // Memory stays bucket-bound however many samples stream through.
    #[test]
    fn histogram_memory_is_independent_of_sample_count(
        samples in prop::collection::vec(0.0f64..1.0e6, 1..400),
    ) {
        let mut h = StreamingHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert!(h.buckets() <= StreamingHistogram::max_buckets());
    }
}

/// One shared fixture for the engine-level mode comparison.
fn fixture() -> (FileCatalog, Trace, Assignment) {
    let catalog = FileCatalog::paper_table1(64, 0);
    let trace = Trace::poisson(&catalog, 2.0, 600.0, 4242);
    let mut bins: Vec<DiskBin> = (0..4).map(|_| DiskBin::default()).collect();
    for file in 0..catalog.len() {
        bins[file % 4].items.push(file);
    }
    (catalog, trace, Assignment { disks: bins })
}

/// Both modes derive the global collector by folding the per-disk
/// collectors in ascending disk order and adding their running sums, so the
/// two global means are the same bits.
#[test]
fn engine_exact_and_histogram_global_means_are_bit_equal() {
    let (catalog, trace, assignment) = fixture();
    let exact_cfg = SimConfig::paper_default();
    let hist_cfg = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let exact = Simulator::run(&catalog, &trace, &assignment, &exact_cfg).unwrap();
    let hist = Simulator::run(&catalog, &trace, &assignment, &hist_cfg).unwrap();
    assert!(
        exact.responses.len() > 100,
        "fixture serves a real workload"
    );
    assert_eq!(
        exact.responses.mean().to_bits(),
        hist.responses.mean().to_bits()
    );
}

#[test]
fn engine_histogram_mode_matches_exact_mode_scalars_and_tails() {
    let (catalog, trace, assignment) = fixture();
    let exact_cfg = SimConfig::paper_default();
    let hist_cfg = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let exact = Simulator::run(&catalog, &trace, &assignment, &exact_cfg).unwrap();
    let hist = Simulator::run(&catalog, &trace, &assignment, &hist_cfg).unwrap();

    // Identical simulation, different aggregation: count and max are
    // bit-identical. The histogram-mode global mean is summed in the
    // canonical per-disk merge order (the derivation that makes sharded
    // reports bit-identical), not in completion order, so it agrees with
    // the exact-mode mean only up to float-summation reordering.
    assert_eq!(exact.responses.len(), hist.responses.len());
    let (me, mh) = (exact.responses.mean(), hist.responses.mean());
    assert!(
        (me - mh).abs() <= 1e-12 * me.abs(),
        "mean {me} vs {mh} beyond summation-order slack"
    );
    assert_eq!(exact.responses.max(), hist.responses.max());
    assert_eq!(exact.energy.total_joules(), hist.energy.total_joules());
    assert_eq!(exact.spin_downs, hist.spin_downs);
    assert_eq!(hist.responses.mode(), MetricsMode::Histogram);

    // Quantiles agree to the documented bound.
    let bound = hist.responses.quantile_error_bound();
    for q in QS {
        let e = exact.response_quantile(q);
        let h = hist.response_quantile(q);
        assert!(
            (h - e).abs() <= bound * e + FLOOR,
            "q={q}: histogram {h} vs exact {e}"
        );
    }

    // Per-disk collectors follow the configured mode too.
    for d in 0..hist.disks {
        assert_eq!(hist.per_disk_responses[d].mode(), MetricsMode::Histogram);
        assert_eq!(
            hist.per_disk_responses[d].len(),
            exact.per_disk_responses[d].len()
        );
    }
}
