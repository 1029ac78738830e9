//! Golden-trace regression fixture (tier-1): a small deterministic replay
//! whose per-disk `(energy_j, mean_response_s, p95_response_s)` table was
//! captured from the engine *before* the queue-discipline refactor, so the
//! default FIFO path is pinned bit-for-bit (to printed precision) to the
//! pre-discipline engine. Any engine change that perturbs service timing,
//! dispatch order, spin-down scheduling or energy integration fails here
//! with a readable expected-vs-actual diff.
//!
//! ## Updating the fixture (deliberate engine-semantics changes only)
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! git diff tests/fixtures/   # review, then commit
//! ```
//!
//! Each golden test rewrites its fixture from the current engine and fails
//! once (so an update can never silently pass CI); rerun without the
//! variable to verify. Never update to paper over an
//! unexplained diff — that is the regression this fixture exists to catch.
//!
//! The trace (`tests/fixtures/golden_trace.csv`) covers simultaneous
//! arrivals, queueing behind a large transfer, an arrival mid-spin-down,
//! and a multi-request pile-up during a spin-up — every engine code path
//! short of the cache.
//!
//! A second fixture, `tests/fixtures/golden_fault_expected.csv`, pins a
//! seeded replay under an active fault plan (see [`fault_fixture`]): the
//! per-disk table plus every availability counter.
//!
//! A third, `tests/fixtures/golden_figures_expected.txt`, pins the values
//! of the design-space figures (`shootout`, `joint`, `fig5`, `fig6`) at
//! quick scale: ids, titles, notes and columns exactly, every cell to
//! [`TOL`].

use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;

use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::hierarchy::{
    CacheHierarchyConfig, CachePolicyChoice, CacheScope, CacheTierConfig,
};
use spindown::workload::{FileCatalog, Trace};

const MB: u64 = 1_000_000;
const TRACE: &str = "tests/fixtures/golden_trace.csv";
const EXPECTED: &str = "tests/fixtures/golden_expected.csv";
/// Values are compared to the printed precision of the fixture.
const TOL: f64 = 1e-6;

/// Three disks, two files each, mixed sizes; fixed 20 s idleness
/// threshold so the trace exercises spin-downs and wake-ups.
fn fixture() -> (FileCatalog, Assignment, SimConfig) {
    let sizes = vec![72 * MB, 8 * MB, 300 * MB, 2 * MB, 100 * MB, 50 * MB];
    let catalog = FileCatalog::from_parts(sizes, vec![1.0 / 6.0; 6]);
    let layout = [0usize, 0, 1, 1, 2, 2];
    let mut bins: Vec<DiskBin> = (0..3).map(|_| DiskBin::default()).collect();
    for (file, &d) in layout.iter().enumerate() {
        bins[d].items.push(file);
    }
    let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(20.0));
    (catalog, Assignment { disks: bins }, cfg)
}

fn compute_rows() -> Vec<(f64, f64, f64)> {
    let (catalog, assignment, cfg) = fixture();
    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("simulates");
    assert_eq!(report.responses.len(), trace.len(), "requests dropped");
    (0..report.disks)
        .map(|d| {
            (
                report.per_disk_energy[d].total_joules(),
                report.per_disk_responses[d].mean(),
                report.per_disk_response_quantile(d, 0.95),
            )
        })
        .collect()
}

fn render(rows: &[(f64, f64, f64)]) -> String {
    let mut s = String::from("disk,energy_j,mean_response_s,p95_response_s\n");
    for (d, (e, mean, p95)) in rows.iter().enumerate() {
        writeln!(s, "{d},{e:.9},{mean:.9},{p95:.9}").unwrap();
    }
    s
}

/// With `UPDATE_GOLDEN` set, rewrite `path` from the current engine's
/// `actual` table and fail once, so an update can never silently pass CI.
fn update_golden_if_asked(path: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(Path::new(path), actual).expect("fixture writable");
        panic!(
            "golden fixture {path} rewritten from the current engine; review the diff, \
             commit it, and rerun without UPDATE_GOLDEN"
        );
    }
}

fn parse_expected(text: &str) -> Vec<(f64, f64, f64)> {
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<f64> = l
                .split(',')
                .skip(1)
                .map(|v| v.parse().expect("numeric fixture cell"))
                .collect();
            (f[0], f[1], f[2])
        })
        .collect()
}

#[test]
fn golden_trace_per_disk_table_matches_the_pre_discipline_engine() {
    let rows = compute_rows();
    update_golden_if_asked(EXPECTED, &render(&rows));
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);
    assert_eq!(expected.len(), rows.len(), "fixture row count");
    let mut diff = String::new();
    for (d, (exp, act)) in expected.iter().zip(&rows).enumerate() {
        for (col, e, a) in [
            ("energy_j", exp.0, act.0),
            ("mean_response_s", exp.1, act.1),
            ("p95_response_s", exp.2, act.2),
        ] {
            if (e - a).abs() > TOL * e.abs().max(1.0) {
                writeln!(diff, "  disk {d} {col}: expected {e:.9}, got {a:.9}").unwrap();
            }
        }
    }
    assert!(
        diff.is_empty(),
        "golden trace diverged from the recorded engine behaviour:\n{diff}\n\
         full expected table:\n{text}\nfull actual table:\n{}\n\
         If this change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_trace",
        render(&rows)
    );
}

/// The same fixture replayed through every `TraceSource` front — the
/// in-memory cursor and the buffered CSV streamer reading the fixture file
/// directly — must land on the identical per-disk table: the source layer
/// is a pure arrival feed, never a semantic change.
#[test]
fn golden_trace_table_is_trace_source_invariant() {
    use spindown::sim::engine::Simulator;
    use spindown::workload::{CsvTraceSource, InMemorySource};
    let (catalog, assignment, cfg) = fixture();
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);

    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let in_memory = Simulator::run_from_source(
        &catalog,
        InMemorySource::new(&trace),
        &assignment,
        &cfg,
        assignment.disk_slots(),
    )
    .expect("in-memory source simulates");
    let csv_streamed = Simulator::run_from_source(
        &catalog,
        CsvTraceSource::open(TRACE, Some(600.0)).expect("fixture opens"),
        &assignment,
        &cfg,
        assignment.disk_slots(),
    )
    .expect("csv source simulates");

    for report in [&in_memory, &csv_streamed] {
        assert_eq!(report.responses.len(), trace.len(), "requests dropped");
        for (d, exp) in expected.iter().enumerate() {
            assert!(
                (report.per_disk_energy[d].total_joules() - exp.0).abs() < TOL * exp.0.max(1.0)
            );
            assert!((report.per_disk_responses[d].mean() - exp.1).abs() < TOL);
            assert!((report.per_disk_response_quantile(d, 0.95) - exp.2).abs() < TOL);
        }
    }
}

/// The same fixture with the canonical two-state ladder set *explicitly*
/// on the spec must land on the identical table — the ladder refactor's
/// pin: an explicit `PowerLadder::two_state` is the derived default, not a
/// different engine.
#[test]
fn golden_trace_table_is_ladder_representation_invariant() {
    use spindown::disk::PowerLadder;
    let (catalog, assignment, cfg) = fixture();
    let cfg = cfg
        .clone()
        .with_ladder(Some(PowerLadder::two_state(&cfg.disk)));
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);
    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("simulates");
    assert_eq!(report.responses.len(), trace.len(), "requests dropped");
    for (d, exp) in expected.iter().enumerate() {
        assert!((report.per_disk_energy[d].total_joules() - exp.0).abs() < TOL * exp.0.max(1.0));
        assert!((report.per_disk_responses[d].mean() - exp.1).abs() < TOL);
        assert!((report.per_disk_response_quantile(d, 0.95) - exp.2).abs() < TOL);
    }
}

const FAULT_EXPECTED: &str = "tests/fixtures/golden_fault_expected.csv";

/// A seeded Poisson replay over six disks under a fault plan dense enough
/// to reach every injector path: crashes landing mid-service (disk 1 is
/// also fail-slow, so its services are long) and mid-descent, repairs
/// landing while a crashed disk still parks (`mttr` shorter than the
/// 10 s spin-down), wake failures escalating past the retry budget,
/// transient errors exhausting it, shedding behind wake pile-ups, and
/// per-disk cache slices that serve hits and are flushed by each crash.
fn fault_fixture() -> (FileCatalog, Trace, Assignment, SimConfig) {
    let files = 48;
    let sizes: Vec<u64> = (0..files).map(|i| (1 + (i % 96) as u64) * MB).collect();
    let catalog = FileCatalog::from_parts(sizes, vec![1.0 / files as f64; files]);
    let mut bins: Vec<DiskBin> = (0..6).map(|_| DiskBin::default()).collect();
    for f in 0..files {
        bins[f % 6].items.push(f);
    }
    let trace = Trace::poisson(&catalog, 0.3, 1200.0, 0xFA0175);
    let mut cfg = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_cache_hierarchy(Some(
            CacheHierarchyConfig::single(CacheTierConfig::dram(360 * MB, CachePolicyChoice::Lru))
                .with_scope(CacheScope::PerDisk),
        ));
    cfg.faults = spindown::workload::FaultPlan::parse(
        "transient:p=0.3 | wakefail:p=0.5 | retries=2 | failslow:d1:x8@100..700 | shed=3 \
         | mttr=8 | seed=13 | crash@t=150:d0 | crash@t=230:d1 | crash@t=310:d2 \
         | crash@t=390:d3 | crash@t=470:d4 | crash@t=555:d5 | crash@t=640:d1 \
         | crash@t=725:d0 | crash@t=810:d3 | crash@t=905:d2 | crash@t=990:d4 \
         | crash@t=1075:d1",
    )
    .expect("fixture plan parses");
    (catalog, trace, Assignment { disks: bins }, cfg)
}

/// Per-disk energy, downtime and response rows, then one fleet row with
/// every availability counter and the degraded p95.
fn render_faulted(report: &spindown::sim::metrics::SimReport) -> String {
    let a = report.availability.as_ref().expect("faulted run has stats");
    let mut s = String::from("disk,energy_j,downtime_s,mean_response_s,p95_response_s\n");
    for d in 0..report.disks {
        writeln!(
            s,
            "{d},{:.9},{:.9},{:.9},{:.9}",
            report.per_disk_energy[d].total_joules(),
            a.per_disk_downtime_s[d],
            report.per_disk_responses[d].mean(),
            report.per_disk_response_quantile(d, 0.95),
        )
        .unwrap();
    }
    s.push_str(
        "fleet,arrivals,completed,retried,shed,failed,wake_failures,crashes,in_flight,\
         availability,degraded_p95_s\n",
    );
    writeln!(
        s,
        "all,{},{},{},{},{},{},{},{},{:.9},{:.9}",
        a.arrivals,
        a.completed,
        a.retried,
        a.shed,
        a.failed,
        a.wake_failures,
        a.crashes,
        a.in_flight,
        a.availability,
        a.degraded_p95(),
    )
    .unwrap();
    s
}

/// Faulted behaviour pinned against its own past: the table was captured
/// from the engine before the fault hooks moved behind `FaultRuntime`'s
/// outcome API, and sharding must not move it either.
#[test]
fn golden_fault_table_matches_the_recorded_engine() {
    let (catalog, trace, assignment, cfg) = fault_fixture();
    let actual = render_faulted(&Simulator::run(&catalog, &trace, &assignment, &cfg).unwrap());
    update_golden_if_asked(FAULT_EXPECTED, &actual);
    let expected = std::fs::read_to_string(FAULT_EXPECTED).expect("fault fixture present");
    assert_eq!(
        actual, expected,
        "faulted golden replay diverged from the recorded engine behaviour"
    );
    for shards in [2usize, 4] {
        let cfg = cfg.clone().with_shards(shards);
        let sharded = Simulator::run(&catalog, &trace, &assignment, &cfg).unwrap();
        assert_eq!(render_faulted(&sharded), expected, "S={shards}");
    }
}

const FIGURES_EXPECTED: &str = "tests/fixtures/golden_figures_expected.txt";

/// One line per figure header, note, column list and row; cells print in
/// Rust's shortest round-trip form so the fixture holds them exactly.
fn render_figures(figures: &[spindown::experiments::Figure]) -> String {
    let mut s = String::new();
    for fig in figures {
        writeln!(s, "id {}", fig.id).unwrap();
        writeln!(s, "title {}", fig.title).unwrap();
        for note in &fig.notes {
            writeln!(s, "note {note}").unwrap();
        }
        writeln!(s, "columns {}", fig.columns.join(",")).unwrap();
        for row in &fig.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            writeln!(s, "row {}", cells.join(",")).unwrap();
        }
    }
    s
}

/// The design-space figures pinned against their own past: every grid
/// point they evaluate (allocator, policy, discipline, ladder, cache and
/// fault brackets, the joint search, the NERSC threshold replay) must keep
/// its value, and every label its bytes.
#[test]
fn golden_figures_match_the_recorded_experiments() {
    use spindown::experiments::{fig56, joint_exp, shootout, Scale};
    let (fig5, fig6) = fig56::fig56(Scale::Quick);
    let figures = [
        shootout::shootout(Scale::Quick),
        joint_exp::joint(Scale::Quick),
        fig5,
        fig6,
    ];
    let actual = render_figures(&figures);
    update_golden_if_asked(FIGURES_EXPECTED, &actual);
    let expected = std::fs::read_to_string(FIGURES_EXPECTED).expect("figures fixture present");
    let (exp_lines, act_lines): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    assert_eq!(
        exp_lines.len(),
        act_lines.len(),
        "figure fixture line count"
    );
    let mut diff = String::new();
    for (i, (e, a)) in exp_lines.iter().zip(&act_lines).enumerate() {
        let cells = e.strip_prefix("row ").zip(a.strip_prefix("row "));
        let same = match cells {
            Some((e, a)) => {
                let parse = |r: &str| -> Vec<f64> {
                    r.split(',')
                        .map(|v| v.parse().expect("numeric cell"))
                        .collect()
                };
                let (e, a) = (parse(e), parse(a));
                e.len() == a.len()
                    && e.iter().zip(&a).all(|(e, a)| {
                        (e.is_nan() && a.is_nan()) || (e - a).abs() <= TOL * e.abs().max(1.0)
                    })
            }
            None => e == a,
        };
        if !same {
            writeln!(
                diff,
                "  line {}:\n    expected {e}\n    got      {a}",
                i + 1
            )
            .unwrap();
        }
    }
    assert!(
        diff.is_empty(),
        "design-space figures diverged from the recorded experiments:\n{diff}"
    );
}
