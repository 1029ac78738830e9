//! Sharded parallel replay and the one report assembly every run ends
//! in.
//!
//! ## Shard assignment
//!
//! Global disk `d` belongs to shard `d % S` and appears there as local
//! actor `d / S`; shard `s` therefore simulates `ceil((fleet − s) / S)`
//! disks and local actor `i` of shard `s` is global disk `i·S + s`. The
//! arrival stream splits the same way: the calling thread drains the
//! source once through [`demux`] into bounded per-shard channels. Each shard's
//! policy instance sees global ids through [`GlobalIds`], and the shard
//! count is clamped to the fleet so no shard is ever empty. An unsharded
//! run is the `S = 1` case of the same layout: one engine on the calling
//! thread, no demux, channel, merger or id translation.
//!
//! ## One report assembly
//!
//! Every run, at any shard count, ends in [`finish_run`]: each drained
//! engine finishes at the common end time `horizon.max(max over engines
//! of last event time)` and hands back its [`EngineParts`], the completion
//! log closes, and [`assemble`] — the only code that builds a
//! [`SimReport`] — reassembles every per-disk vector in ascending global
//! disk order and folds each fleet field over it in that order. That one
//! rule holds for both metrics modes and every shard count.
//!
//! ## Why the report is bit-identical at every shard count
//!
//! Disks interact through *nothing*: each disk's service, queueing,
//! power-transition, energy — and, under any cache scope, cache-slice —
//! trajectory is a function of its own arrival subsequence, which
//! sharding preserves in order. (A global-scope
//! hierarchy partitions its budget by file residency, so a file's cache
//! trajectory lives entirely on the shard hosting its disk; the
//! completion log streams through per-shard writers and a k-way merger —
//! see `complog`.) So every per-disk result is shard-invariant, and the
//! assembly's fixed fold order makes every fleet field shard-invariant:
//!
//! - the end time is the unsharded one, since the engines' events
//!   partition the run's events;
//! - fleet energy, the global response collector, the degraded-response
//!   collector and the windowed series fold the per-disk results in
//!   ascending global disk order (response collectors add running sums,
//!   so the global mean is one sum of per-disk sums in either mode);
//! - cache counters are integers summed tier by tier, and the aggregate
//!   follows [`CacheStats::of_tiers`];
//! - the completion log is emitted in canonical `(time, req)` order by
//!   both the unsharded writer and the sharded merger.
//!
//! Merged counters: spin-downs/ups and served counts are exact sums;
//! `peak_disk_queue` is the cross-shard **max** (each disk's queue
//! trajectory is identical to the unsharded run, so the fleet-wide peak
//! is the max over shards — never a sum); the per-shard event-heap peaks
//! are kept raw as `SimReport::per_shard_event_peaks` (see that field's
//! docs — and the `SimReport` doc section cataloguing exact-vs-bound
//! merged fields — for the max/sum aggregation trade-off).

use std::sync::mpsc::sync_channel;

use spindown_disk::energy::EnergyBreakdown;
use spindown_workload::shard::demux;
use spindown_workload::{FileCatalog, TraceSource};

use crate::cache::CacheStats;
use crate::complog::{merge_streams, CompletionLogSummary, CompletionSink};
use crate::config::SimConfig;
use crate::engine::{SimError, Simulator};
use crate::metrics::{AvailabilityStats, Completion, ResponseStats, SimReport};
use crate::policy::{DescentStep, PowerPolicy};
use crate::windows::{DiskWindows, WindowedReport};

/// Bounded depth of each shard→merger completion-log channel, in batches
/// of [`crate::complog::LOG_CHUNK`] — caps the merged log's resident
/// state at O(shards · depth · chunk) regardless of request count.
const LOG_DEPTH: usize = 4;

/// The shard count a run actually uses: `cfg.shards` clamped to at least 1
/// and at most the fleet (no empty shards).
pub(crate) fn effective_shards(cfg: &SimConfig, fleet: usize) -> usize {
    cfg.shards.max(1).min(fleet.max(1))
}

/// The round-robin fleet partition.
struct ShardPlan {
    shards: usize,
    fleet: usize,
}

impl ShardPlan {
    /// Number of disks shard `s` simulates.
    fn shard_fleet(&self, s: usize) -> usize {
        (self.fleet - s).div_ceil(self.shards)
    }

    /// Shard `s`'s file → local-actor map: `d / S` for this shard's disks,
    /// `usize::MAX` (the engine's unmapped sentinel) for everything else.
    fn local_map(&self, file_to_disk: &[usize], s: usize) -> Vec<usize> {
        file_to_disk
            .iter()
            .map(|&d| {
                if d != usize::MAX && d % self.shards == s {
                    d / self.shards
                } else {
                    usize::MAX
                }
            })
            .collect()
    }
}

/// Translates a shard engine's local actor indices back to global disk ids
/// before they reach the wrapped policy, so per-disk-state policies keep
/// their state keyed identically at every shard count.
struct GlobalIds {
    inner: Box<dyn PowerPolicy>,
    shard: usize,
    stride: usize,
}

impl GlobalIds {
    #[inline]
    fn global(&self, local: usize) -> usize {
        local * self.stride + self.shard
    }
}

impl PowerPolicy for GlobalIds {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep> {
        self.inner.settled(self.global(disk), level, t)
    }

    fn request_arrived(&mut self, disk: usize, t: f64) {
        self.inner.request_arrived(self.global(disk), t);
    }

    fn descent_started(&mut self, disk: usize, t: f64, to_level: u8) {
        self.inner.descent_started(self.global(disk), t, to_level);
    }
}

/// Sharded replay: the calling thread demultiplexes the source into
/// bounded per-shard channels (the source is read once) while every shard
/// drains on its own scoped thread, then the shared run tail finishes
/// them. Policies are built by `factory` in shard order on the calling
/// thread, so factory side effects (seed derivation, logging) are
/// deterministic.
pub(crate) fn replay<'a, S: TraceSource + Send>(
    catalog: &'a FileCatalog,
    source: S,
    file_to_disk: &[usize],
    cfg: &'a SimConfig,
    fleet: usize,
    shards: usize,
    factory: &mut dyn FnMut(usize) -> Box<dyn PowerPolicy>,
) -> Result<SimReport, SimError> {
    let plan = ShardPlan { shards, fleet };
    // Completion log: the merger thread owns the terminal sink (so e.g.
    // the CSV file is created once, here, not per shard); each shard
    // streams its canonical batches over a bounded channel.
    let merger_sink = CompletionSink::from_mode(&cfg.completion_log)?;
    let (log_txs, log_rxs): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| match merger_sink {
            Some(_) => {
                let (tx, rx) = sync_channel::<Vec<Completion>>(LOG_DEPTH);
                (Some(tx), Some(rx))
            }
            None => (None, None),
        })
        .unzip();
    let (pump, receivers) = demux(source, shards);
    let (results, merged_log) = std::thread::scope(|scope| {
        // The merger terminates once every shard's sender is dropped —
        // `run_drained` drops it on success (writer flush) and on error
        // (the writer is dropped with the engine), so joining it inside
        // the scope cannot deadlock.
        let merger = merger_sink.map(|sink| {
            let rxs = log_rxs.into_iter().flatten().collect();
            scope.spawn(move || merge_streams(rxs, sink))
        });
        let handles: Vec<_> = receivers
            .into_iter()
            .zip(log_txs)
            .enumerate()
            .map(|(s, (source, log_tx))| {
                let policy = Box::new(GlobalIds {
                    inner: factory(s),
                    shard: s,
                    stride: shards,
                });
                let (local_map, shard_fleet) =
                    (plan.local_map(file_to_disk, s), plan.shard_fleet(s));
                scope.spawn(move || {
                    Simulator::run_drained(
                        catalog,
                        source,
                        local_map,
                        cfg,
                        shard_fleet,
                        fleet,
                        s,
                        shards,
                        policy,
                        log_tx,
                    )
                })
            })
            .collect();
        // The calling thread reads the source while the shards replay it
        // (it would otherwise sit idle in the joins below).
        pump.run(file_to_disk);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        let merged_log = merger.map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        (results, merged_log)
    });
    let sims = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    finish_run(cfg, sims, merged_log.transpose()?)
}

/// One engine's results at the run's end time, every per-disk vector in
/// local actor order — what [`assemble`] folds into the report.
pub(crate) struct EngineParts {
    pub(crate) energy: Vec<EnergyBreakdown>,
    pub(crate) responses: Vec<ResponseStats>,
    pub(crate) served: Vec<u64>,
    /// Window collectors, when `SimConfig::windows` is set.
    pub(crate) windows: Option<Vec<DiskWindows>>,
    /// Per-disk-scope cache: each local disk's tier rows.
    pub(crate) cache_rows: Option<Vec<Vec<CacheStats>>>,
    /// Global-scope cache: the tier rows of this engine's budget slice.
    pub(crate) cache_tiers: Option<Vec<CacheStats>>,
    /// Fault counters and local downtimes, plus each local disk's
    /// degraded-response collector.
    pub(crate) faults: Option<(AvailabilityStats, Vec<ResponseStats>)>,
    pub(crate) spin_downs: u64,
    pub(crate) spin_ups: u64,
    pub(crate) peak_events: usize,
    pub(crate) peak_disk_queue: usize,
}

/// The run tail every run shares, at any shard count: finish each drained
/// engine at the common end time, close the completion log, assemble the
/// report. `merged_log` is the merger thread's sink and peak buffering
/// (sharded); unsharded, the one engine's writer still holds the sink.
pub(crate) fn finish_run<S: TraceSource>(
    cfg: &SimConfig,
    sims: Vec<Simulator<'_, S>>,
    merged_log: Option<(CompletionSink, usize)>,
) -> Result<SimReport, SimError> {
    // The engines' event sets partition the run's events, so this is the
    // unsharded `horizon.max(last event)` at any shard count.
    let t_end = sims.iter().fold(sims[0].source_horizon(), |acc, s| {
        acc.max(s.last_event_time())
    });
    let (mut sink, mut log_peak) = merged_log.map_or((None, 0), |(sink, peak)| (Some(sink), peak));
    let mut parts = Vec::with_capacity(sims.len());
    for mut sim in sims {
        log_peak += sim.completion_peak();
        sink = sink.or_else(|| sim.take_log_sink());
        parts.push(sim.finish_at(t_end)?);
    }
    let log = sink.map(|sink| sink.finish(log_peak)).transpose()?;
    Ok(assemble(cfg, t_end, parts, log))
}

/// Reassemble per-engine vectors (local actor order) into global disk
/// order: engine `s` of `S` holds global disks `s, s + S, …` ascending,
/// so popping the engines' vectors front to front in global order lands
/// every entry at its global index.
fn interleave<T>(per_engine: Vec<Vec<T>>) -> Vec<T> {
    let shards = per_engine.len();
    let fleet = per_engine.iter().map(Vec::len).sum();
    let mut engines: Vec<_> = per_engine.into_iter().map(Vec::into_iter).collect();
    (0..fleet)
        .map(|d| {
            engines[d % shards]
                .next()
                .expect("engine simulated its disk")
        })
        .collect()
}

/// Build the report from every engine's parts, in shard order — the only
/// place a [`SimReport`] is built. Each per-disk vector is reassembled in
/// ascending global disk order and every fleet field folds over it in
/// that order (see the module docs).
fn assemble(
    cfg: &SimConfig,
    t_end: f64,
    parts: Vec<EngineParts>,
    log: Option<(Option<Vec<Completion>>, CompletionLogSummary)>,
) -> SimReport {
    let shards = parts.len();
    let mut energy = Vec::with_capacity(shards);
    let mut responses = Vec::with_capacity(shards);
    let mut served = Vec::with_capacity(shards);
    let mut windows = Vec::with_capacity(shards);
    let mut cache_rows = Vec::with_capacity(shards);
    let mut engine_cache_tiers = Vec::with_capacity(shards);
    let mut faults = Vec::with_capacity(shards);
    let mut per_shard_event_peaks = Vec::with_capacity(shards);
    let (mut spin_downs, mut spin_ups, mut peak_disk_queue) = (0, 0, 0);
    for p in parts {
        energy.push(p.energy);
        responses.push(p.responses);
        served.push(p.served);
        windows.push(p.windows);
        cache_rows.push(p.cache_rows);
        engine_cache_tiers.extend(p.cache_tiers);
        faults.push(p.faults);
        per_shard_event_peaks.push(p.peak_events);
        spin_downs += p.spin_downs;
        spin_ups += p.spin_ups;
        peak_disk_queue = peak_disk_queue.max(p.peak_disk_queue);
    }
    let per_disk_energy = interleave(energy);
    let disks = per_disk_energy.len();
    let mut fleet_energy = EnergyBreakdown::default();
    for e in &per_disk_energy {
        fleet_energy.merge(e);
    }
    let per_disk_responses = interleave(responses);
    let mut global = ResponseStats::with_mode(cfg.metrics);
    for r in &per_disk_responses {
        global.merge(r);
    }
    // Every engine runs the same configuration, so each optional part is
    // present on all of them or on none.
    let per_disk_cache_tiers = cache_rows
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .map(interleave);
    let cache_tiers = cfg.cache_hierarchy.as_ref().map(|h| {
        let mut tiers = vec![CacheStats::default(); h.tiers.len()];
        for row in per_disk_cache_tiers
            .iter()
            .flatten()
            .chain(&engine_cache_tiers)
        {
            for (t, s) in tiers.iter_mut().zip(row) {
                t.absorb(s);
            }
        }
        tiers
    });
    let availability = faults
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .map(|engines| {
            let mut merged = AvailabilityStats {
                degraded: ResponseStats::with_mode(cfg.metrics),
                ..Default::default()
            };
            let mut downtime = Vec::with_capacity(engines.len());
            let mut degraded = Vec::with_capacity(engines.len());
            for (a, d) in engines {
                merged.arrivals += a.arrivals;
                merged.completed += a.completed;
                merged.retried += a.retried;
                merged.shed += a.shed;
                merged.failed += a.failed;
                merged.wake_failures += a.wake_failures;
                merged.crashes += a.crashes;
                merged.in_flight += a.in_flight;
                downtime.push(a.per_disk_downtime_s);
                degraded.push(d);
            }
            for d in &interleave(degraded) {
                merged.degraded.merge(d);
            }
            merged.per_disk_downtime_s = interleave(downtime);
            merged.recompute_availability(disks, t_end);
            merged
        });
    let windows = windows
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .map(|engines| {
            let width = cfg.windows.expect("collected only when configured");
            WindowedReport::derive(width, interleave(engines), availability.is_some())
        });
    let (completions, completion_log) = log.map_or((None, None), |(c, summary)| (c, Some(summary)));
    SimReport {
        sim_time_s: t_end,
        energy: fleet_energy,
        per_disk_energy,
        responses: global,
        per_disk_responses,
        completions,
        completion_log,
        spin_downs,
        spin_ups,
        cache: cache_tiers.as_deref().map(CacheStats::of_tiers),
        cache_tiers,
        per_disk_cache_tiers,
        disks,
        per_disk_served: interleave(served),
        per_shard_event_peaks,
        peak_disk_queue,
        availability,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{CacheHierarchyConfig, CacheScope};

    #[test]
    fn effective_shards_clamps_and_falls_back() {
        let cfg = SimConfig::paper_default().with_shards(4);
        assert_eq!(effective_shards(&cfg, 8), 4);
        assert_eq!(effective_shards(&cfg, 3), 3, "clamped to the fleet");
        assert_eq!(effective_shards(&cfg, 0), 1, "zero fleet runs unsharded");
        assert_eq!(effective_shards(&SimConfig::paper_default(), 8), 1);
        let global = cfg
            .clone()
            .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
        assert_eq!(
            effective_shards(&global, 8),
            4,
            "global-scope hierarchies shard by partitioned budget"
        );
        let per_disk = cfg.clone().with_cache_hierarchy(Some(
            CacheHierarchyConfig::paper_16gb().with_scope(CacheScope::PerDisk),
        ));
        assert_eq!(
            effective_shards(&per_disk, 8),
            4,
            "per-disk slices shard freely"
        );
        let logged = cfg.with_completion_log();
        assert_eq!(
            effective_shards(&logged, 8),
            4,
            "the completion log streams through the k-way merger"
        );
    }

    #[test]
    fn shard_plan_partitions_the_fleet_exactly() {
        for fleet in [1usize, 2, 5, 7, 16, 100] {
            for shards in 1..=fleet.min(9) {
                let plan = ShardPlan { shards, fleet };
                let total: usize = (0..shards).map(|s| plan.shard_fleet(s)).sum();
                assert_eq!(total, fleet, "{fleet} disks / {shards} shards");
                // Round-trip: every global disk id is local i of shard s
                // with i*S + s == d, within the shard's fleet.
                for d in 0..fleet {
                    let (s, i) = (d % shards, d / shards);
                    assert!(i < plan.shard_fleet(s));
                    assert_eq!(i * shards + s, d);
                }
            }
        }
    }

    #[test]
    fn local_maps_cover_every_mapped_file_once() {
        let file_to_disk = vec![0usize, 3, 1, 4, 2, usize::MAX, 0];
        let plan = ShardPlan {
            shards: 2,
            fleet: 5,
        };
        let maps: Vec<Vec<usize>> = (0..2).map(|s| plan.local_map(&file_to_disk, s)).collect();
        for (f, &d) in file_to_disk.iter().enumerate() {
            let owners: Vec<usize> = (0..2).filter(|&s| maps[s][f] != usize::MAX).collect();
            if d == usize::MAX {
                assert!(owners.is_empty(), "unmapped file {f} owned");
            } else {
                assert_eq!(owners, vec![d % 2], "file {f}");
                assert_eq!(maps[d % 2][f], d / 2, "file {f} local index");
            }
        }
    }

    /// A probe recording every callback's disk id.
    struct Probe {
        seen: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl PowerPolicy for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn settled(&mut self, disk: usize, _level: u8, _t: f64) -> Option<DescentStep> {
            self.seen.lock().unwrap().push(disk);
            None
        }
        fn request_arrived(&mut self, disk: usize, _t: f64) {
            self.seen.lock().unwrap().push(disk);
        }
        fn descent_started(&mut self, disk: usize, _t: f64, _to_level: u8) {
            self.seen.lock().unwrap().push(disk);
        }
    }

    #[test]
    fn global_ids_translates_local_actor_indices() {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut wrapped = GlobalIds {
            inner: Box::new(Probe { seen: seen.clone() }),
            shard: 2,
            stride: 3,
        };
        wrapped.settled(0, 0, 0.0);
        wrapped.request_arrived(1, 1.0);
        wrapped.descent_started(4, 2.0, 1);
        assert_eq!(*seen.lock().unwrap(), vec![2, 5, 14], "local i → i*3 + 2");
        assert_eq!(wrapped.name(), "probe");
    }
}
