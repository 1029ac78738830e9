//! Figure 6 (E7): NERSC-trace response times under a short vs long
//! idleness threshold (random placement needs ≥ 0.5 h to stay under 10 s in
//! the paper; Pack_Disks is threshold-insensitive).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spindown_core::{Planner, PlannerConfig};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_workload::nersc::{self, NerscConfig};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = NerscConfig::paper_scaled(40);
    let workload = nersc::generate(&cfg, 23);
    let rate = cfg.arrival_rate();
    let planner = Planner::new(PlannerConfig::default());
    let pack = planner.plan(&workload.catalog, rate).unwrap();

    for hours in [0.1, 2.0] {
        let sim = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(hours * 3600.0));
        let report =
            Simulator::run(&workload.catalog, &workload.trace, &pack.assignment, &sim).unwrap();
        println!(
            "[fig6] threshold {hours} h: Pack_Disk mean response {:.2} s",
            report.responses.mean()
        );
    }

    let mut group = c.benchmark_group("fig6_threshold_response");
    group.sample_size(10);
    for hours in [0.1, 2.0] {
        let sim = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(hours * 3600.0));
        group.bench_with_input(
            BenchmarkId::new("nersc_response_h", format!("{hours}")),
            &sim,
            |b, sim| {
                b.iter(|| {
                    black_box(
                        Simulator::run(&workload.catalog, &workload.trace, &pack.assignment, sim)
                            .unwrap()
                            .responses
                            .mean(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
