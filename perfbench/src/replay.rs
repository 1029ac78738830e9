//! One replay through the public calls `experiments replay` makes, in its
//! order, with host-time marks between them; plus the output checks and
//! the output digest.

use std::error::Error;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spindown_core::{Plan, Planner};
use spindown_experiments::output::{render_csv, render_table, write_csv};
use spindown_experiments::{Figure, Scale};
use spindown_packing::Assignment;
use spindown_sim::engine::Simulator;
use spindown_sim::{SimReport, WindowedReport};
use spindown_workload::trace::TraceIoError;
use spindown_workload::{FileCatalog, Request, TraceSource};

use crate::workload::{catalog, Spec, Visit};

/// What one replay produced and how long each step took, seconds.
pub struct Replay {
    pub report: SimReport,
    pub figures: Vec<Figure>,
    pub disks_used: usize,
    pub catalog_s: f64,
    pub plan_s: f64,
    /// Catalog build plus `Planner::plan`.
    pub setup_s: f64,
    /// The `Simulator::run_from_source` call alone.
    pub run_s: f64,
    /// Time spent inside the source's methods during `run_s` (traced
    /// replays only; 0 otherwise).
    pub source_s: f64,
    pub render_s: f64,
    /// Setup, source build, replay, rendering and CSV writing.
    pub wall_s: f64,
}

/// Replay `spec`, writing the figures' CSVs into `out`. `traced` wraps
/// the source in a [`TimedSource`]; untraced replays run the bare source.
pub fn replay(spec: &Spec, out: &Path, traced: bool) -> Result<Replay, Box<dyn Error>> {
    let t0 = Instant::now();
    let set = setup(spec)?;
    let fleet = Scale::Paper.fleet().max(set.plan.disks_used());
    let (report, run_s, source_s) = spec.with_source(
        &set.catalog,
        Run {
            planner: &set.planner,
            catalog: &set.catalog,
            assignment: &set.plan.assignment,
            fleet,
            traced,
        },
    )?;
    let figures = figures(&report);
    let t_render = Instant::now();
    for fig in &figures {
        black_box(render_table(fig));
        write_csv(fig, out)?;
    }
    let render_s = t_render.elapsed().as_secs_f64();
    Ok(Replay {
        report,
        figures,
        disks_used: set.plan.disks_used(),
        catalog_s: set.catalog_s,
        plan_s: set.setup_s - set.catalog_s,
        setup_s: set.setup_s,
        run_s,
        source_s,
        render_s,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// The setup a replay pays, catalog build plus `Planner::plan`, with its
/// host time in seconds.
pub struct Setup {
    pub catalog: FileCatalog,
    pub planner: Planner,
    pub plan: Plan,
    pub catalog_s: f64,
    pub setup_s: f64,
}

pub fn setup(spec: &Spec) -> Result<Setup, Box<dyn Error>> {
    let t0 = Instant::now();
    let catalog = catalog();
    let catalog_s = t0.elapsed().as_secs_f64();
    let planner = spec.planner()?;
    let plan = planner.plan(&catalog, spec.plan_rate())?;
    Ok(Setup {
        catalog,
        planner,
        plan,
        catalog_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

struct Run<'a> {
    planner: &'a Planner,
    catalog: &'a FileCatalog,
    assignment: &'a Assignment,
    fleet: usize,
    traced: bool,
}

impl Visit for Run<'_> {
    type Out = (SimReport, f64, f64);

    fn visit<S: TraceSource + Send>(self, source: S) -> Result<Self::Out, Box<dyn Error>> {
        let cfg = &self.planner.config().sim;
        if self.traced {
            let nanos = Arc::new(AtomicU64::new(0));
            let timed = TimedSource::new(source, Arc::clone(&nanos));
            let t = Instant::now();
            let report =
                Simulator::run_from_source(self.catalog, timed, self.assignment, cfg, self.fleet)?;
            let run_s = t.elapsed().as_secs_f64();
            Ok((report, run_s, nanos.load(Ordering::Relaxed) as f64 * 1e-9))
        } else {
            let t = Instant::now();
            let report =
                Simulator::run_from_source(self.catalog, source, self.assignment, cfg, self.fleet)?;
            Ok((report, t.elapsed().as_secs_f64(), 0.0))
        }
    }
}

/// A [`TraceSource`] that estimates the host time spent in its inner
/// source. Every method times one call in [`STRIDE`] and counts it
/// `STRIDE` times, so the clock runs on few calls, and subtracts the
/// clock's own cost from each timed call. The estimate is added to
/// `total` on drop (the engine consumes the source; a statistic, so
/// `Relaxed` suffices).
struct TimedSource<S> {
    inner: S,
    /// (calls, estimated nanoseconds) per method: peek_time, next_request,
    /// peek_seq.
    clocks: [(u64, u64); 3],
    /// The shortest empty interval the clock measures, nanoseconds.
    floor: u64,
    total: Arc<AtomicU64>,
}

const STRIDE: u64 = 16;

impl<S> TimedSource<S> {
    fn new(inner: S, total: Arc<AtomicU64>) -> Self {
        let floor = (0..10_000)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .min()
            .unwrap_or(0);
        TimedSource {
            inner,
            clocks: [(0, 0); 3],
            floor,
            total,
        }
    }

    fn timed<T>(&mut self, method: usize, f: impl FnOnce(&mut S) -> T) -> T {
        let (calls, nanos) = &mut self.clocks[method];
        *calls += 1;
        if *calls % STRIDE != 0 {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let out = f(&mut self.inner);
        *nanos += (t.elapsed().as_nanos() as u64).saturating_sub(self.floor) * STRIDE;
        out
    }
}

impl<S> Drop for TimedSource<S> {
    fn drop(&mut self) {
        let nanos = self.clocks.iter().map(|c| c.1).sum();
        self.total.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        self.timed(0, |s| s.peek_time())
    }

    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        self.timed(1, |s| s.next_request())
    }

    fn peek_seq(&mut self) -> Option<u64> {
        self.timed(2, |s| s.peek_seq())
    }

    fn horizon(&self) -> f64 {
        self.inner.horizon()
    }
}

/// The figures `experiments replay` renders for this report: the one-row
/// `replay` summary and, with windows on, `replay_windows`. Rows and
/// columns follow the CLI's schema (the cross-check in `run.py` diffs the
/// CSVs against the CLI's own); the free-text notes are left out.
fn figures(report: &SimReport) -> Vec<Figure> {
    let mut columns: Vec<String> = [
        "requests",
        "resp_s",
        "resp_p95_s",
        "resp_p99_s",
        "energy_j",
        "peak_event_queue",
    ]
    .map(String::from)
    .to_vec();
    let q = report.response_quantiles(&[0.95, 0.99]);
    let mut row = vec![
        report.responses.len() as f64,
        report.responses.mean(),
        q[0],
        q[1],
        report.energy.total_joules(),
        report.peak_event_queue_max() as f64,
    ];
    if let Some(a) = &report.availability {
        columns.extend(
            [
                "completed",
                "retried",
                "shed",
                "failed",
                "availability",
                "degraded_p95_s",
            ]
            .map(String::from),
        );
        row.extend([
            a.completed as f64,
            a.retried as f64,
            a.shed as f64,
            a.failed as f64,
            a.availability,
            a.degraded_p95(),
        ]);
    }
    let mut summary = Figure::new("replay", "Streamed trace replay", columns);
    summary.push_row(row);
    let mut figs = vec![summary];
    if let Some(w) = &report.windows {
        figs.push(windows_figure(w));
    }
    figs
}

fn windows_figure(w: &WindowedReport) -> Figure {
    let mut columns: Vec<String> = [
        "window_start_s",
        "window_end_s",
        "completions",
        "resp_mean_s",
        "resp_p95_s",
        "resp_p99_s",
        "energy_j",
        "peak_backlog",
    ]
    .map(String::from)
    .to_vec();
    if w.faulted {
        columns.extend(["completed", "shed", "failed", "retried"].map(String::from));
    }
    let mut fig = Figure::new("replay_windows", "Windowed replay time series", columns);
    for r in &w.rows {
        let mut vals = vec![
            r.start_s,
            r.end_s,
            r.completions as f64,
            r.mean_s,
            r.p95_s,
            r.p99_s,
            r.energy_j,
            r.peak_queue as f64,
        ];
        if w.faulted {
            vals.extend([
                r.completions as f64,
                r.shed as f64,
                r.failed as f64,
                r.retried as f64,
            ]);
        }
        fig.push_row(vals);
    }
    fig
}

/// Arrivals the engine admitted: completions on a fault-free run, the
/// availability ledger's arrivals under a fault plan.
fn arrivals(report: &SimReport) -> u64 {
    report
        .availability
        .as_ref()
        .map_or(report.responses.len() as u64, |a| a.arrivals)
}

/// Completed over arrived; 1 on a fault-free run.
pub fn availability(report: &SimReport) -> f64 {
    report
        .availability
        .as_ref()
        .map_or(1.0, |a| a.completed as f64 / a.arrivals as f64)
}

/// The output checks; each failed one is named in the result.
/// `expected` is the number of requests the workload's source yields.
pub fn check(replay: &Replay, expected: Option<u64>) -> Vec<String> {
    let report = &replay.report;
    let completions = report.responses.len() as u64;
    let mut failed = Vec::new();
    if let Some(n) = expected {
        if arrivals(report) != n {
            failed.push(format!("arrivals {} != source yield {n}", arrivals(report)));
        }
    }
    if let Some(a) = &report.availability {
        if !a.conservation_holds() {
            failed.push("availability conservation broken".into());
        }
        if a.completed != completions {
            failed.push(format!(
                "completed {} != responses {completions}",
                a.completed
            ));
        }
    }
    if let Some(w) = &report.windows {
        let sum: u64 = w.rows.iter().map(|r| r.completions).sum();
        if sum != completions {
            failed.push(format!("window completions {sum} != {completions}"));
        }
        let energy: f64 = w.rows.iter().map(|r| r.energy_j).sum();
        let run = report.energy.total_joules();
        if !((energy - run).abs() <= 1e-6 * run) {
            failed.push(format!("window energy {energy} J != run energy {run} J"));
        }
    }
    if let Some(log) = &report.completion_log {
        if log.records != completions {
            failed.push(format!("log records {} != {completions}", log.records));
        }
    }
    if !replay
        .figures
        .iter()
        .flat_map(|f| f.rows.iter().flatten())
        .all(|v| v.is_finite())
    {
        failed.push("non-finite value in the figures".into());
    }
    let q = report.response_quantiles(&[0.95, 0.99]);
    if !(report.responses.mean() <= report.responses.max()) {
        failed.push("mean response above max".into());
    }
    if !(q[0] <= q[1]) {
        failed.push(format!("p95 {} above p99 {}", q[0], q[1]));
    }
    if completions == 0 {
        failed.push("no completions".into());
    }
    failed
}

/// FNV-1a 64 over the figures' CSV text and the completion log's own
/// digest: equal digests mean byte-identical simulated output.
pub fn digest(replay: &Replay) -> u64 {
    let mut text: String = replay.figures.iter().map(render_csv).collect();
    if let Some(log) = &replay.report.completion_log {
        text.push_str(&format!(
            "complog,{},{},{:#018x}\n",
            log.records, log.bytes, log.fnv1a
        ));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
