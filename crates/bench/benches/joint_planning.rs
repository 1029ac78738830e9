//! Joint-planner grid-evaluation throughput: the full default quadruple
//! grid (3 allocations × 3 policies × 2 disciplines × 2 ladders = 36
//! cells) searched against a NERSC-style batched replay through
//! `JointPlanner::search`, which fans the cells across threads exactly as
//! the shootout and CLI run it. Guards the planner assembly path (one
//! `DiskSpec`, ladder applied before policy construction) plus the
//! per-cell simulation cost; `scripts/bench_diff.py` diffs the means
//! against `BENCH_BASELINE.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spindown_core::{JointConfig, JointPlanner};
use spindown_workload::arrivals::BatchConfig;
use spindown_workload::{FileCatalog, Trace};
use std::hint::black_box;

const FILES: usize = 512;
const RATE: f64 = 0.5;

fn bench(c: &mut Criterion) {
    let catalog = FileCatalog::paper_table1(FILES, 7);
    // NERSC-style bursts of related requests (§3.2): inter-burst gaps
    // straddling the break-even thresholds, long enough a horizon that
    // every cell sees plenty of descend/wake cycles.
    let trace = Trace::batched(
        &catalog,
        &BatchConfig {
            burst_rate: 1.0 / 60.0,
            min_batch: 2,
            max_batch: 6,
            intra_batch_gap_s: 2.0,
        },
        20_000.0,
        4242,
    );
    let planner = JointPlanner::new(JointConfig::default_grid());
    let cells = planner.candidates().len() as u64;

    let mut group = c.benchmark_group("joint_planning/nersc_grid");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cells));
    group.bench_with_input(BenchmarkId::new("search", "fanned"), &trace, |b, t| {
        b.iter(|| {
            let out = planner.search(&catalog, black_box(t), RATE).unwrap();
            black_box(out.winner)
        })
    });
    group.finish();

    // One-shot report so `cargo bench` records the planning story next to
    // the timing story.
    let out = planner.search(&catalog, &trace, RATE).unwrap();
    println!(
        "joint_planning/outcome: winner {} ({:.0} J, p95 {:.3} s), {} frontier of {} cells",
        out.winner_cell().candidate.label(),
        out.winner_cell().energy_j,
        out.winner_cell().p95_s,
        out.frontier.len(),
        out.cells.len(),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
