//! The traced pass: per-layer numbers measured around calls into each
//! layer's public functions, from this crate only.

use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

use spindown_workload::{demux, FileId, TraceSource};

use crate::replay::{check, digest, replay, setup};
use crate::workload::{catalog, Spec, Visit};

/// Every per-layer metric of one traced pass, in the benchmark's order,
/// with the output digest and the failed checks.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub digest: u64,
    pub failed: Vec<String>,
}

pub fn layers(spec: &Spec, out: &Path, expected: Option<u64>) -> Result<Layers, Box<dyn Error>> {
    // The first replay warms the process's allocator and page cache; the
    // overhead compares the traced replay with the untraced one after it.
    let warm = replay(spec, out, false)?;
    let traced = replay(spec, out, true)?;
    let plain = replay(spec, out, false)?;
    let mut failed = check(&traced, expected);
    let traced_digest = digest(&traced);
    if digest(&warm) != traced_digest || digest(&plain) != traced_digest {
        failed.push("traced and untraced replays differ".into());
    }
    let report = &traced.report;
    let requests = report.responses.len() as f64;

    let catalog = catalog();
    let (yielded, drain_s) = spec.with_source(&catalog, Drain)?;
    let (pump_s, blocked_s) = if spec.shards() > 1 {
        let set = setup(spec)?;
        let file_to_disk = set.plan.assignment.item_to_disk(set.catalog.len());
        spec.with_source(
            &catalog,
            Demux {
                shards: spec.shards(),
                file_to_disk: &file_to_disk,
            },
        )?
    } else {
        (0.0, 0.0)
    };
    let cache_ns = match spec.cache().hierarchy() {
        Some(tiers) => {
            let files = spec.with_source(&catalog, Files)?;
            let sizes: Vec<u64> = catalog.iter().map(|f| f.size_bytes).collect();
            let mut cache = tiers.build(1);
            let t = Instant::now();
            for &f in &files {
                std::hint::black_box(cache.access(f, sizes[f.index()]));
            }
            ns_per(t.elapsed(), files.len() as f64)
        }
        None => 0.0,
    };
    // Each sink is priced as the untraced replay's extra time over the
    // same replay with that sink off.
    let extra_s = |off: Spec| -> Result<f64, Box<dyn Error>> {
        Ok(plain.run_s - replay(&off, &out.join("sink_off"), false)?.run_s)
    };
    let windows_ns = if spec.windows {
        let off = Spec {
            windows: false,
            ..spec.clone()
        };
        extra_s(off)? * 1e9 / requests
    } else {
        0.0
    };
    let log = report.completion_log;
    let records = log.map_or(0, |l| l.records) as f64;
    let log_ns = if spec.log {
        let off = Spec {
            log: false,
            ..spec.clone()
        };
        extra_s(off)? * 1e9 / records
    } else {
        0.0
    };

    let shards = spec.shards();
    let mut per_shard = vec![0u64; shards];
    for (disk, served) in report.per_disk_served.iter().enumerate() {
        per_shard[disk % shards] += served;
    }
    let mean_shard = per_shard.iter().sum::<u64>() as f64 / shards as f64;
    let imbalance = *per_shard.iter().max().expect("one shard at least") as f64 / mean_shard;
    let cache = report.cache.unwrap_or_default();
    let faults = report.availability.clone().unwrap_or_default();
    let (rows, cells) = report.windows.as_ref().map_or((0, 0), |w| {
        (w.rows.len(), w.per_disk.iter().map(|d| d.n_windows()).sum())
    });
    let metrics = vec![
        ("workload.catalog.build_s", traced.catalog_s),
        ("core.planner.plan_s", traced.plan_s),
        ("packing.disks_used", traced.disks_used as f64),
        (
            "workload.source.ns_per_req",
            ns_per(drain_s, yielded as f64),
        ),
        ("workload.source.requests", yielded as f64),
        ("workload.demux.pump_s", pump_s),
        ("workload.demux.recv_blocked_s", blocked_s),
        (
            "sim.engine.ns_per_req",
            (traced.run_s - traced.source_s) * 1e9 / requests,
        ),
        ("sim.engine.source_share", traced.source_s / traced.run_s),
        (
            "sim.engine.peak_event_queue",
            report.peak_event_queue_max() as f64,
        ),
        ("sim.engine.peak_disk_queue", report.peak_disk_queue as f64),
        ("sim.engine.spin_ups", report.spin_ups as f64),
        ("sim.engine.spin_downs", report.spin_downs as f64),
        ("sim.shard.load_imbalance", imbalance),
        ("sim.cache.ns_per_access", cache_ns),
        ("sim.cache.hits", cache.hits as f64),
        ("sim.cache.misses", cache.misses as f64),
        ("sim.cache.hit_ratio", cache.hit_ratio()),
        (
            "sim.cache.oversize_rejections",
            cache.oversize_rejections as f64,
        ),
        ("sim.fault.retried", faults.retried as f64),
        ("sim.fault.wake_failures", faults.wake_failures as f64),
        ("sim.fault.shed", faults.shed as f64),
        ("sim.fault.failed", faults.failed as f64),
        ("sim.windows.rows", rows as f64),
        ("sim.windows.resident_cells", cells as f64),
        ("sim.windows.ns_per_req", windows_ns),
        ("sim.complog.records", records),
        ("sim.complog.bytes", log.map_or(0, |l| l.bytes) as f64),
        (
            "sim.complog.peak_buffered",
            log.map_or(0, |l| l.peak_buffered) as f64,
        ),
        ("sim.complog.ns_per_record", log_ns),
        ("experiments.render_s", traced.render_s),
        (
            "bench.trace_overhead_frac",
            (traced.run_s - plain.run_s) / plain.run_s,
        ),
    ];
    Ok(Layers {
        metrics,
        digest: traced_digest,
        failed,
    })
}

fn ns_per(d: Duration, n: f64) -> f64 {
    d.as_secs_f64() * 1e9 / n
}

/// Drain the source alone: (requests yielded, time taken).
pub struct Drain;

impl Visit for Drain {
    type Out = (u64, Duration);

    fn visit<S: TraceSource + Send>(self, mut source: S) -> Result<Self::Out, Box<dyn Error>> {
        let t = Instant::now();
        let mut n = 0u64;
        while source.next_request()?.is_some() {
            n += 1;
        }
        Ok((n, t.elapsed()))
    }
}

/// The requested files, in arrival order.
struct Files;

impl Visit for Files {
    type Out = Vec<FileId>;

    fn visit<S: TraceSource + Send>(self, mut source: S) -> Result<Self::Out, Box<dyn Error>> {
        let mut files = Vec::new();
        while let Some(r) = source.next_request()? {
            files.push(r.file);
        }
        Ok(files)
    }
}

/// Pump the source through `demux` into drained receivers: (pump thread
/// time, receivers' summed time inside `next_request`, mostly blocked on
/// the pump), seconds.
struct Demux<'a> {
    shards: usize,
    file_to_disk: &'a [usize],
}

impl Visit for Demux<'_> {
    type Out = (f64, f64);

    fn visit<S: TraceSource + Send>(self, source: S) -> Result<Self::Out, Box<dyn Error>> {
        let (pump, receivers) = demux(source, self.shards);
        std::thread::scope(|scope| {
            let pumping = scope.spawn(|| {
                let t = Instant::now();
                pump.run(self.file_to_disk);
                t.elapsed().as_secs_f64()
            });
            let draining: Vec<_> = receivers
                .into_iter()
                .map(|mut rx| {
                    scope.spawn(move || {
                        let mut blocked = Duration::ZERO;
                        loop {
                            let t = Instant::now();
                            let next = rx.next_request();
                            blocked += t.elapsed();
                            match next {
                                Ok(Some(_)) => {}
                                Ok(None) => return Ok(blocked.as_secs_f64()),
                                Err(e) => return Err(e.to_string()),
                            }
                        }
                    })
                })
                .collect();
            let mut blocked = 0.0;
            for d in draining {
                blocked += d.join().expect("receiver thread panicked")?;
            }
            let pump_s = pumping.join().expect("pump thread panicked");
            Ok((pump_s, blocked))
        })
        .map_err(|e: String| e.into())
    }
}
