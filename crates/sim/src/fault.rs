//! Runtime state and decisions for seeded deterministic fault injection.
//!
//! The [`FaultPlan`](spindown_workload::FaultPlan) (parsed in
//! `spindown_workload::fault`) *describes* a failure regime; the
//! `FaultRuntime` here holds the *live* per-engine state — per-disk RNG
//! streams, crash schedules, retry ledgers, downtime clocks and the
//! counters of [`AvailabilityStats`](crate::metrics::AvailabilityStats) —
//! and makes every fault decision.
//!
//! ## The outcome API
//!
//! The engine hands each hook the facts of one event and gets back a small
//! outcome: `service_done` → `Service` (completed, retry, failed),
//! `wake_done` → `Wake` (up, held by a backoff, dead), `crash` /
//! `take_pending_crash` → the repair time of a disk that went down,
//! `repair` / `take_pending_repair` → whether it came back, plus `admit`,
//! `cache_hit`, `stretch`, `is_down`, `wake_held` and `take_due_retries`.
//! The engine applies the effects on actors, events, timers and caches; it
//! never reads the runtime's fields.
//!
//! ## Determinism and shard invariance
//!
//! Every random draw comes from a per-disk `SmallRng` seeded from the
//! plan's seed combined with the disk's **global** id, and every draw
//! happens at an event on that disk's own timeline (a spin-up completion,
//! a service completion). Disk trajectories are independent of each other,
//! so a sharded run — where each shard owns a strided subset of the fleet
//! — makes exactly the same draws at exactly the same simulated times as
//! the unsharded run, and merged reports stay bit-identical across shard
//! counts.
//!
//! ## No plan, no runtime
//!
//! An engine whose config carries `FaultPlan::none()` holds no
//! `FaultRuntime` at all, and every hook takes the fault-free outcome (the
//! service completes, the wake succeeds, nothing is down) without calling
//! in here: the no-fault replay executes the identical sequence of
//! floating-point operations it did before fault injection existed.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use spindown_workload::FaultPlan;

use crate::discipline::QueueEntry;
use crate::metrics::{AvailabilityStats, MetricsMode, ResponseStats};

/// Per-disk seed spread: the same golden-ratio multiplier the stochastic
/// policies use to derive independent per-disk streams from one seed.
pub(crate) const DISK_SEED_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// What a finished service attempt comes to.
#[derive(Debug)]
pub(crate) enum Service {
    /// The request completed; the engine records its response.
    Completed,
    /// A transient error: the request re-enters the queue at `fire`.
    Retry { fire: f64 },
    /// A transient error past the retry budget: the request is dropped.
    Failed,
}

/// What a finished spin-up comes to.
#[derive(Debug)]
pub(crate) enum Wake {
    /// The disk is up.
    Up,
    /// The attempt failed: the disk falls back asleep until `until`.
    Held { until: f64 },
    /// The disk went offline at this boundary, until `repair`.
    Dead { repair: f64 },
}

/// Live fault-injection state for one engine instance (one shard, or the
/// whole fleet unsharded). Per-disk state is indexed by *local* disk id;
/// local disk `d` is global disk `d * stride + shard` (0/1 unsharded).
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    /// One independent stream per local disk, seeded from the plan seed
    /// and the disk's global id.
    rngs: Vec<SmallRng>,
    disks: Vec<DiskFaults>,
    /// The run's counters; the per-disk and derived fields are filled in
    /// by [`Self::into_stats`].
    stats: AvailabilityStats,
}

/// One local disk's fault state.
#[derive(Debug, Clone, Default)]
struct DiskFaults {
    /// Scheduled crash times, ascending.
    crash_times: Vec<f64>,
    /// Fail-slow windows: `(factor, from_s, to_s)`.
    failslow: Vec<(f64, f64, f64)>,
    /// Whether the disk is offline, and since when.
    down: bool,
    down_since: f64,
    /// Completed outage seconds.
    downtime: f64,
    /// A crash landed mid-phase and waits for the next phase boundary.
    pending_crash: bool,
    /// A repair completed mid-descent and waits for the disk to settle.
    pending_repair: bool,
    /// Consecutive failed spin-up attempts on the current wake pile-up.
    wake_attempts: u32,
    /// Do not retry a wake before this time (backoff hold).
    wake_hold_until: f64,
    /// Completion time of the disk's last repair (0 if never crashed).
    last_repair: f64,
    /// Whether the in-flight service was stretched by a fail-slow window.
    current_scaled: bool,
    /// Transient-retry attempts per in-flight request, keyed by trace
    /// index (entries are dropped on completion or budget exhaustion).
    attempts: HashMap<usize, u32>,
    /// Requests waiting out a transient backoff, in failure order, with
    /// the time the backoff expires. Each keeps its *original* arrival
    /// stamp: response time spans every retry.
    pending_retries: Vec<(f64, QueueEntry)>,
    /// Degraded-mode responses, merged in global disk order by the report
    /// assembly so the statistic is shard-stable.
    degraded: ResponseStats,
}

impl FaultRuntime {
    /// Build the runtime for `fleet` local disks of a (possibly sharded)
    /// engine. `shard`/`stride` position the local disks in the global
    /// fleet (`0`/`1` unsharded).
    pub fn new(
        plan: &FaultPlan,
        fleet: usize,
        shard: usize,
        stride: usize,
        mode: MetricsMode,
    ) -> Self {
        let stride = stride.max(1);
        // The local index of a global disk this engine owns.
        let local =
            |disk: usize| Some(disk / stride).filter(|&l| disk % stride == shard && l < fleet);
        let disk = DiskFaults {
            degraded: ResponseStats::with_mode(mode),
            ..Default::default()
        };
        let mut disks = vec![disk; fleet];
        for c in &plan.crashes {
            if let Some(l) = local(c.disk) {
                disks[l].crash_times.push(c.at_s);
            }
        }
        for f in &plan.failslow {
            if let Some(l) = local(f.disk) {
                disks[l].failslow.push((f.factor, f.from_s, f.to_s));
            }
        }
        for d in &mut disks {
            d.crash_times.sort_by(f64::total_cmp);
        }
        let rngs = (0..fleet)
            .map(|d| {
                let global = (d * stride + shard) as u64;
                SmallRng::seed_from_u64(
                    plan.seed
                        .wrapping_add(global.wrapping_mul(DISK_SEED_SPREAD)),
                )
            })
            .collect();
        FaultRuntime {
            plan: plan.clone(),
            rngs,
            disks,
            stats: AvailabilityStats::default(),
        }
    }

    /// The scheduled `(time, disk)` crashes due by `horizon`, by disk then
    /// time (later ones never happen: end effects must not depend on the
    /// drain order).
    pub fn crashes_until(&self, horizon: f64) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.disks.iter().enumerate().flat_map(move |(disk, d)| {
            d.crash_times
                .iter()
                .filter(move |&&t| t <= horizon)
                .map(move |&t| (t, disk))
        })
    }

    /// Whether disk `d` is offline.
    pub fn is_down(&self, d: usize) -> bool {
        self.disks[d].down
    }

    /// Whether a failed spin-up still holds sleeping disk `d` down at `t`.
    pub fn wake_held(&self, d: usize, t: f64) -> bool {
        t < self.disks[d].wake_hold_until
    }

    /// A request was served from the cache.
    pub fn cache_hit(&mut self) {
        self.stats.arrivals += 1;
        self.stats.completed += 1;
    }

    /// Count an arrival that missed the cache; `false` when admission
    /// control sheds it, its disk's queue holding `queue_len` already.
    pub fn admit(&mut self, queue_len: usize) -> bool {
        self.stats.arrivals += 1;
        let watermark = self.plan.shed_watermark;
        if watermark > 0 && queue_len >= watermark {
            self.stats.shed += 1;
            return false;
        }
        true
    }

    /// Stretch a service dispatched at `t` on disk `d`, due at `done`, by
    /// the fail-slow window covering `t` (a stretch counts as degraded).
    pub fn stretch(&mut self, d: usize, t: f64, done: f64) -> f64 {
        let factor = self.failslow_factor(d, t);
        self.disks[d].current_scaled = factor.is_some();
        factor.map_or(done, |factor| t + (done - t) * factor)
    }

    /// The request `entry` finished a service attempt on disk `d` at `t`.
    /// A transient I/O error spends the attempt's time and energy and
    /// discards the result: the request re-queues after backoff, or is
    /// dropped once its retry budget runs out.
    pub fn service_done(&mut self, d: usize, entry: QueueEntry, t: f64) -> Service {
        let req = entry.req;
        if self.draw_transient(d) {
            let disk = &mut self.disks[d];
            let attempts = disk.attempts.entry(req).or_insert(0);
            *attempts += 1;
            let n = *attempts;
            if n > self.plan.retry_budget {
                disk.attempts.remove(&req);
                self.stats.failed += 1;
                return Service::Failed;
            }
            self.stats.retried += 1;
            let fire = t + self.plan.backoff_s(n - 1);
            disk.pending_retries.push((fire, entry));
            return Service::Retry { fire };
        }
        self.stats.completed += 1;
        // Degraded: retried, stretched by a fail-slow window, or arrived
        // before the disk's last repair (it waited through an outage).
        let disk = &mut self.disks[d];
        let retried = disk.attempts.remove(&req).is_some();
        if retried || disk.current_scaled || entry.arrival_s < disk.last_repair {
            disk.degraded.record(t - entry.arrival_s);
        }
        Service::Completed
    }

    /// Disk `d` finished a spin-up at `t`. A crash deferred to this
    /// boundary applies now. Otherwise a failed attempt holds the disk
    /// asleep for an exponential backoff, and past the retry budget the
    /// drive is declared fail-stop dead until repair.
    pub fn wake_done(&mut self, d: usize, t: f64) -> Wake {
        if let Some(repair) = self.take_pending_crash(d, t) {
            return Wake::Dead { repair };
        }
        if !self.draw_wakefail(d) {
            self.disks[d].wake_attempts = 0;
            return Wake::Up;
        }
        self.stats.wake_failures += 1;
        self.disks[d].wake_attempts += 1;
        let n = self.disks[d].wake_attempts;
        if n > self.plan.retry_budget {
            return Wake::Dead {
                repair: self.take_down(d, t),
            };
        }
        let until = t + self.plan.backoff_s(n - 1);
        self.disks[d].wake_hold_until = until;
        Wake::Held { until }
    }

    /// A scheduled crash fires on disk `d` at `t`: a `settled` (idle or
    /// asleep) disk goes down now, answering its repair time; mid-phase the
    /// crash waits for the phase boundary; a disk already down ignores it.
    pub fn crash(&mut self, d: usize, t: f64, settled: bool) -> Option<f64> {
        if self.disks[d].down {
            return None;
        }
        if !settled {
            self.disks[d].pending_crash = true;
            return None;
        }
        Some(self.take_down(d, t))
    }

    /// Apply the crash deferred to this phase boundary of disk `d`, if
    /// any; the answer is the repair time.
    pub fn take_pending_crash(&mut self, d: usize, t: f64) -> Option<f64> {
        self.disks[d].pending_crash.then(|| self.take_down(d, t))
    }

    /// A repair of disk `d` completes at `t`: `true` when the disk is back
    /// online now. A disk still `descending` waits for the settle point.
    pub fn repair(&mut self, d: usize, t: f64, descending: bool) -> bool {
        if !self.disks[d].down {
            return false;
        }
        if descending {
            self.disks[d].pending_repair = true;
            return false;
        }
        self.bring_up(d, t);
        true
    }

    /// Apply the repair deferred to the settle point of disk `d`, if any:
    /// `true` when the disk is back online.
    pub fn take_pending_repair(&mut self, d: usize, t: f64) -> bool {
        let pending = self.disks[d].pending_repair;
        if pending {
            self.bring_up(d, t);
        }
        pending
    }

    /// Move the transient retries due by `t` out of disk `d`'s backlog,
    /// in the order they failed.
    pub fn take_due_retries(&mut self, d: usize, t: f64) -> Vec<QueueEntry> {
        self.disks[d]
            .pending_retries
            .extract_if(.., |&mut (fire, _)| fire <= t)
            .map(|(_, entry)| entry)
            .collect()
    }

    /// Take disk `d` offline at `t` and answer with its repair time.
    fn take_down(&mut self, d: usize, t: f64) -> f64 {
        let disk = &mut self.disks[d];
        debug_assert!(!disk.down, "disk {d} is already down");
        disk.pending_crash = false;
        disk.down = true;
        disk.down_since = t;
        disk.wake_attempts = 0;
        disk.wake_hold_until = 0.0;
        self.stats.crashes += 1;
        t + self.plan.mttr_s
    }

    /// Bring disk `d` back online at `t`.
    fn bring_up(&mut self, d: usize, t: f64) {
        let disk = &mut self.disks[d];
        disk.pending_repair = false;
        disk.down = false;
        disk.downtime += (t - disk.down_since).max(0.0);
        disk.last_repair = t;
    }

    /// Draw whether this service completion suffers a transient I/O error.
    fn draw_transient(&mut self, d: usize) -> bool {
        self.plan.transient_p > 0.0 && self.rngs[d].random_bool(self.plan.transient_p)
    }

    /// Draw whether this spin-up attempt fails.
    fn draw_wakefail(&mut self, d: usize) -> bool {
        self.plan.wakefail_p > 0.0 && self.rngs[d].random_bool(self.plan.wakefail_p)
    }

    /// The fail-slow factor covering time `t` on disk `d`, if any (the
    /// first matching window wins; factors do not compose).
    fn failslow_factor(&self, d: usize, t: f64) -> Option<f64> {
        self.disks[d]
            .failslow
            .iter()
            .find(|&&(_, from, to)| t >= from && t < to)
            .map(|&(factor, _, _)| factor)
    }

    /// Close the availability block at `t_end`. `queued` requests still
    /// sit in disk queues (a crashed-and-never-repaired disk keeps its
    /// backlog) and count as in flight, as do pending retries. Returns the
    /// counters and per-disk downtimes (local disk order, availability
    /// computed over these disks, `degraded` left empty) plus each local
    /// disk's degraded-response collector, which the report assembly folds
    /// in ascending global disk order.
    pub fn into_stats(self, t_end: f64, queued: u64) -> (AvailabilityStats, Vec<ResponseStats>) {
        let mut stats = self.stats;
        let fleet = self.disks.len();
        let mut degraded = Vec::with_capacity(fleet);
        for d in self.disks {
            let open = if d.down {
                (t_end - d.down_since).max(0.0)
            } else {
                0.0
            };
            stats.per_disk_downtime_s.push(d.downtime + open);
            stats.in_flight += d.pending_retries.len() as u64;
            degraded.push(d.degraded);
        }
        stats.in_flight += queued;
        stats.recompute_availability(fleet, t_end);
        debug_assert!(
            stats.conservation_holds(),
            "fault conservation violated: {stats:?}"
        );
        (stats, degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::{DisciplineChoice, RequestQueue};
    use spindown_workload::FaultPlan;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    #[test]
    fn crash_and_failslow_specs_land_on_the_owning_shard() {
        let p = plan("crash@t=500:d7 | failslow:d3:x4@200..900");
        // Unsharded: disk 7 crashes, disk 3 slows.
        let rt = FaultRuntime::new(&p, 10, 0, 1, MetricsMode::Exact);
        assert_eq!(rt.disks[7].crash_times, vec![500.0]);
        assert!(rt.disks[3].crash_times.is_empty());
        assert_eq!(rt.failslow_factor(3, 200.0), Some(4.0));
        assert_eq!(rt.failslow_factor(3, 900.0), None, "half-open window");
        assert_eq!(rt.failslow_factor(7, 500.0), None);
        // Sharded S=2: global disk 7 lives on shard 1 as local 3; global
        // disk 3 on shard 1 as local 1.
        let s1 = FaultRuntime::new(&p, 5, 1, 2, MetricsMode::Exact);
        assert_eq!(s1.disks[3].crash_times, vec![500.0]);
        assert_eq!(s1.failslow_factor(1, 300.0), Some(4.0));
        let s0 = FaultRuntime::new(&p, 5, 0, 2, MetricsMode::Exact);
        assert!(s0.disks.iter().all(|d| d.crash_times.is_empty()));
    }

    #[test]
    fn per_disk_streams_are_shard_invariant() {
        let p = plan("wakefail:p=0.5 | seed=42");
        let mut unsharded = FaultRuntime::new(&p, 8, 0, 1, MetricsMode::Exact);
        let mut shard0 = FaultRuntime::new(&p, 4, 0, 2, MetricsMode::Exact);
        let mut shard1 = FaultRuntime::new(&p, 4, 1, 2, MetricsMode::Exact);
        for d in 0..8usize {
            let want: Vec<bool> = (0..16).map(|_| unsharded.draw_wakefail(d)).collect();
            let sharded = if d % 2 == 0 { &mut shard0 } else { &mut shard1 };
            let got: Vec<bool> = (0..16).map(|_| sharded.draw_wakefail(d / 2)).collect();
            assert_eq!(want, got, "disk {d}");
        }
    }

    #[test]
    fn zero_probability_draws_never_touch_the_rng() {
        let p = plan("crash@t=10:d0");
        let mut rt = FaultRuntime::new(&p, 1, 0, 1, MetricsMode::Exact);
        assert!(!rt.draw_transient(0));
        assert!(!rt.draw_wakefail(0));
    }

    #[test]
    fn shed_watermark_gates_admission() {
        let p = plan("transient:p=0.1 | shed=4");
        let mut rt = FaultRuntime::new(&p, 1, 0, 1, MetricsMode::Exact);
        assert!(rt.admit(3));
        assert!(!rt.admit(4));
        let mut no_shed = FaultRuntime::new(&plan("transient:p=0.1"), 1, 0, 1, MetricsMode::Exact);
        assert!(no_shed.admit(1_000_000));
    }

    #[test]
    fn into_stats_accounts_open_outages_and_in_flight() {
        let p = plan("crash@t=100:d0 | mttr=300");
        let mut rt = FaultRuntime::new(&p, 2, 0, 1, MetricsMode::Exact);
        rt.stats.arrivals = 10;
        rt.stats.completed = 6;
        rt.stats.shed = 1;
        rt.stats.failed = 1;
        rt.disks[0].down = true;
        rt.disks[0].down_since = 100.0;
        rt.disks[1].downtime = 50.0;
        let mut queue = RequestQueue::new(DisciplineChoice::Fifo);
        queue.push(9, 1, 400.0, 0);
        let entry = queue.pop(400.0).expect("pushed").entry;
        rt.disks[1].pending_retries.push((500.0, entry));
        let (stats, _) = rt.into_stats(400.0, 1);
        assert_eq!(stats.per_disk_downtime_s, vec![300.0, 50.0]);
        assert_eq!(stats.in_flight, 2, "one queued + one pending retry");
        assert!(stats.conservation_holds());
        // 350 s of downtime over 2 disks × 400 s.
        assert!((stats.availability - (1.0 - 350.0 / 800.0)).abs() < 1e-12);
    }
}
