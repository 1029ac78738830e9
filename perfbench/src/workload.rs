//! The three benchmark workloads, each spelled as the `experiments replay`
//! flags it stands for, and the seeded inputs they read.

use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use spindown_core::{
    CacheChoice, FaultChoice, LadderChoice, MetricsMode, Planner, PlannerConfig, RateCurve,
};
use spindown_experiments::Scale;
use spindown_sim::CompletionLogMode;
use spindown_workload::{CsvTraceSource, FileCatalog, SyntheticSource, Trace, TraceSource};

/// Arrival rate of every workload, requests/s: the paper's R = 4 planning
/// point, the rate `experiments replay` generates and plans for.
const RATE: f64 = 4.0;

/// The named workloads (see `perfbench/NOTES.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `replay --shards 1`: stationary Poisson, no sink, cache or fault.
    PoissonPlain,
    /// `replay --workload diurnal:base=4,amp=3,period=86400 --window 3600
    /// --completion-log /dev/null`.
    DiurnalWindowsLog,
    /// `replay --trace-file F --cache-tiers lru:2+lru:16 --ladder 3
    /// --faults '…' --shards 2`.
    CsvCacheFaults,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "poisson_plain" => Some(Workload::PoissonPlain),
            "diurnal_windows_log" => Some(Workload::DiurnalWindowsLog),
            "csv_cache_faults" => Some(Workload::CsvCacheFaults),
            _ => None,
        }
    }
}

/// One configured replay: the workload, its seed and size, and the two
/// sinks the layer probes switch off to price them.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Expected arrivals (synthetic workloads: horizon = requests / rate)
    /// or rows of the CSV trace.
    pub requests: u64,
    pub trace_file: Option<PathBuf>,
    pub windows: bool,
    pub log: bool,
}

impl Spec {
    pub fn new(workload: Workload, seed: u64, requests: u64, trace_file: Option<PathBuf>) -> Self {
        let sinks = workload == Workload::DiurnalWindowsLog;
        Spec {
            workload,
            seed,
            requests,
            trace_file,
            windows: sinks,
            log: sinks,
        }
    }

    pub fn shards(&self) -> usize {
        match self.workload {
            Workload::CsvCacheFaults => 2,
            _ => 1,
        }
    }

    fn curve(&self) -> Option<RateCurve> {
        (self.workload == Workload::DiurnalWindowsLog)
            .then(|| RateCurve::diurnal(4.0, 3.0, 86_400.0))
    }

    pub fn cache(&self) -> CacheChoice {
        match self.workload {
            Workload::CsvCacheFaults => {
                CacheChoice::parse("lru:2+lru:16").expect("valid tier spec")
            }
            _ => CacheChoice::None,
        }
    }

    /// The fault regime: seeded from the benchmark seed, with disk 7's
    /// crash halfway through the trace so it always falls in the horizon.
    fn faults(&self) -> Result<FaultChoice, String> {
        if self.workload != Workload::CsvCacheFaults {
            return Ok(FaultChoice::None);
        }
        let crash_at = (self.requests as f64 / RATE / 2.0).round();
        FaultChoice::parse(&format!(
            "transient:p=1e-3 | wakefail:p=0.02 | crash@t={crash_at}:d7 | mttr=3600 | seed={}",
            self.seed
        ))
    }

    fn ladder(&self) -> LadderChoice {
        match self.workload {
            Workload::CsvCacheFaults => LadderChoice::ThreeState,
            _ => LadderChoice::TwoState,
        }
    }

    /// The planner `experiments replay` builds for these flags.
    pub fn planner(&self) -> Result<Planner, Box<dyn Error>> {
        let mut cfg = PlannerConfig::default();
        cfg.sim = cfg
            .sim
            .with_metrics(MetricsMode::Histogram)
            .with_shards(self.shards())
            .with_cache_hierarchy(self.cache().hierarchy());
        if self.windows {
            cfg.sim = cfg.sim.with_windows(3600.0);
        }
        if self.log {
            cfg.sim = cfg.sim.with_completion_log_mode(CompletionLogMode::Csv {
                path: "/dev/null".into(),
            });
        }
        cfg.sim.faults = self.faults()?.plan();
        self.ladder().apply(&mut cfg.sim.disk);
        Ok(Planner::new(cfg))
    }

    pub fn plan_rate(&self) -> f64 {
        self.curve().map_or(RATE, |c| c.mean_rate_hint())
    }

    /// Build the workload's source and hand it to `visit`, monomorphised
    /// on the concrete source type exactly as the CLI's replay is.
    pub fn with_source<V: Visit>(
        &self,
        catalog: &FileCatalog,
        visit: V,
    ) -> Result<V::Out, Box<dyn Error>> {
        let horizon = self.requests as f64 / self.plan_rate();
        match (self.workload, &self.trace_file) {
            (Workload::CsvCacheFaults, Some(path)) => {
                visit.visit(CsvTraceSource::open(path, None)?)
            }
            (Workload::CsvCacheFaults, None) => Err("csv_cache_faults needs --trace-file".into()),
            (Workload::DiurnalWindowsLog, _) => visit.visit(SyntheticSource::non_stationary(
                catalog,
                self.curve().expect("diurnal workload has a curve"),
                horizon,
                self.seed,
            )),
            (Workload::PoissonPlain, _) => {
                visit.visit(SyntheticSource::poisson(catalog, RATE, horizon, self.seed))
            }
        }
    }
}

/// A consumer of a workload's source, generic over the source type.
pub trait Visit {
    type Out;
    fn visit<S: TraceSource + Send>(self, source: S) -> Result<Self::Out, Box<dyn Error>>;
}

/// The Table 1 catalog every workload replays against.
pub fn catalog() -> FileCatalog {
    FileCatalog::paper_table1(Scale::Paper.n_files(), 0)
}

/// Write the `csv_cache_faults` input: `rows` expected Poisson arrivals
/// at R = 4/s over Table 1 popularity, in the CLI's `time_s,file_id` format.
pub fn write_trace(seed: u64, rows: u64, path: &Path) -> Result<u64, Box<dyn Error>> {
    let trace = Trace::poisson(&catalog(), RATE, rows as f64 / RATE, seed);
    let tmp = path.with_extension("tmp");
    let mut out = BufWriter::new(File::create(&tmp)?);
    trace.write_csv(&mut out)?;
    out.flush()?;
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(trace.len() as u64)
}
