//! The simulation engine: ties the trace, the dispatcher (with an optional
//! cache hierarchy in front), the per-disk actors, the power policy and the
//! event queue together.
//!
//! ## Semantics (matching §4 of the paper)
//!
//! - A request is dispatched to the disk holding its file. If a cache
//!   [`CacheHierarchy`] is configured — §5.1's flat LRU or several tiers
//!   — the whole file is looked up first, tier by tier; a hit is served
//!   at the hit tier's bandwidth without touching the disk (in particular
//!   the disk's idle clock keeps running — a cache's entire contribution
//!   to the power model is lengthening idle gaps), and a miss is admitted
//!   to every tier probed *and* forwarded to the disk.
//! - Disks serve their queue per the configured
//!   [`DisciplineChoice`](crate::discipline::DisciplineChoice) — FIFO by
//!   default, matching the paper. Service = seek + rotation + transfer;
//!   elevator-batch followers pay an amortised seek. The discipline only
//!   reorders the *pending* queue: the two dispatch points (service
//!   completion and spin-up completion) both pop through it.
//! - Whenever a disk settles at a ladder level with an empty queue (level
//!   0 = just became idle) the configured [`PowerPolicy`] is consulted; it
//!   may arm a descent timer (fixed-threshold policies answer with a
//!   constant and descend straight to the deepest level — the paper's
//!   spin-down; multi-state policies descend the ladder step by step).
//!   Arrival of work cancels the timer (by generation check). After the
//!   timer fires the disk descends, paying each level's entry transition.
//! - A request reaching a sleeping disk triggers a wake from *that* level
//!   (deeper levels pay longer exits; the two-state ladder's 15 s
//!   spin-up). A request reaching a disk *mid-descent* waits for the
//!   in-flight entry transition to complete, settles, and then wakes from
//!   the level just reached — disks cannot abort transitions (Zedlewski
//!   et al.).
//! - Simulation ends when all events have drained; energy is integrated to
//!   `max(horizon, last event)`. Spin-down timers that would fire after the
//!   trace horizon are not armed (end effects would otherwise depend on the
//!   drain order).
//! - Response time = completion − arrival, including queueing and power
//!   transitions.
//!
//! ## Arrival scheduling
//!
//! Arrivals never enter the event heap. The engine reads them from a
//! [`TraceSource`] — an in-memory cursor over a [`Trace`], a buffered CSV
//! reader or a seeded synthetic generator — and, on every step, compares
//! the source's next arrival time against the next scheduled event,
//! processing whichever is earlier. **Arrivals win ties**: a request
//! arriving exactly at a spin-down deadline cancels the descent, and one
//! arriving exactly when a phase completes is queued before that
//! completion is handled. The heap then holds only the disks' own events
//! (`PhaseDone`, `SpinDownTimer` and the fault-injection events) —
//! O(disks), not O(requests) — so a multi-billion-request replay holds
//! O(disks) simulation state (plus O(buckets) for histogram metrics).
//! Response times come from the arrival stamp each queue entry carries,
//! never from indexing back into a materialised request list, and a
//! request for a file the assignment does not place fails with
//! [`SimError::UnmappedFile`] when it arrives.
//!
//! ## Entry points
//!
//! - [`Simulator::run`] — an in-memory [`Trace`] over exactly the disks
//!   the assignment uses, with the configured fixed-threshold policy.
//! - [`Simulator::run_from_source`] — any [`TraceSource`] over an explicit
//!   fleet (the paper's experiments keep 100 disks spinning however many
//!   the allocator loaded), with the configured fixed-threshold policy.
//! - [`Simulator::run_with_policy`] — the general form the other two call:
//!   any source, any fleet, and a [`PowerPolicy`] factory.
//!
//! ## Sharded replay
//!
//! After allocation every disk's request stream is independent, so
//! `cfg.shards > 1` partitions the fleet by disk id (`disk % shards`) and
//! runs one event loop per shard on its own thread. Every run, sharded or
//! not, ends in the same tail: each event loop finishes at the common end
//! time and hands back its per-disk results, and one assembly folds them
//! in ascending global disk order into the [`SimReport`]. Every entry
//! point shards the same way: the calling thread demultiplexes the source
//! into bounded per-shard channels ([`spindown_workload::demux`]), so the
//! trace is read exactly once.
//! Global-scope caches shard too: each shard owns the `shard_fleet /
//! fleet` slice of the configured budget that fronts its own disks'
//! files, keeping the tier walk lock-free. The completion log streams
//! through per-shard writers k-way merged by `(time, req)`
//! (`complog`). The report — energy, response statistics in both metrics
//! modes, cache statistics, windows and the completion log — is
//! bit-identical at every shard count.

use spindown_disk::state::TransitionError;
use spindown_packing::Assignment;
use spindown_workload::trace::TraceIoError;
use spindown_workload::{FileCatalog, FileId, InMemorySource, Request, Trace, TraceSource};

use crate::actor::{DiskActor, Phase};
use crate::complog::{CompletionOut, CompletionSink, CompletionWriter};
use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultRuntime, Service, Wake};
use crate::hierarchy::{CacheHierarchy, CacheScope};
use crate::metrics::{Completion, ResponseStats, SimReport};
use crate::policy::{DescentStep, PowerPolicy, TimeoutPolicy};
use crate::shard::EngineParts;

/// Simulation failures.
#[derive(Debug)]
pub enum SimError {
    /// The trace references a file the assignment does not place.
    UnmappedFile {
        /// The unplaced file.
        file: FileId,
    },
    /// The fleet is smaller than the assignment needs.
    FleetTooSmall {
        /// Disks required by the assignment.
        required: usize,
        /// Fleet size requested.
        fleet: usize,
    },
    /// `SimConfig::windows` holds a width that is not finite and positive.
    BadWindowWidth {
        /// The rejected width, seconds.
        width: f64,
    },
    /// A [`PowerPolicy`] answered with a descent delay that is not finite
    /// and non-negative.
    BadPolicyDelay {
        /// The policy's [`PowerPolicy::name`].
        policy: String,
        /// The rejected delay, seconds.
        delay: f64,
    },
    /// A `crash@…:dN` or `failslow:dN:…` clause of `SimConfig::faults`
    /// names a disk outside the simulated fleet.
    FaultTargetOutsideFleet {
        /// The global disk id the plan targets.
        disk: usize,
        /// Fleet size of the run.
        fleet: usize,
    },
    /// Internal state-machine violation (a bug — should never surface).
    Transition(TransitionError),
    /// The streaming trace source failed mid-replay (I/O error, malformed
    /// or out-of-order row).
    Source(TraceIoError),
    /// The streamed completion log could not be written (file creation or
    /// flush failure).
    CompletionLogIo(std::io::Error),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnmappedFile { file } => write!(f, "file {file} is not mapped to a disk"),
            SimError::FleetTooSmall { required, fleet } => {
                write!(f, "fleet of {fleet} disks < {required} required")
            }
            SimError::BadWindowWidth { width } => {
                write!(f, "window width must be finite and positive, got {width}")
            }
            SimError::BadPolicyDelay { policy, delay } => {
                write!(f, "policy {policy} returned bad descent delay {delay}")
            }
            SimError::FaultTargetOutsideFleet { disk, fleet } => write!(
                f,
                "fault plan targets disk {disk}, but the fleet has {fleet} disks"
            ),
            SimError::Transition(e) => write!(f, "disk state machine error: {e}"),
            SimError::Source(e) => write!(f, "trace source failed: {e}"),
            SimError::CompletionLogIo(e) => write!(f, "completion log I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::CompletionLogIo(e)
    }
}

impl From<TransitionError> for SimError {
    fn from(e: TransitionError) -> Self {
        SimError::Transition(e)
    }
}

impl From<TraceIoError> for SimError {
    fn from(e: TraceIoError) -> Self {
        SimError::Source(e)
    }
}

/// A live descent deadline: fire time, the idle generation it guards, the
/// ladder level the disk must still be settled at when it fires, and the
/// level to descend to.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    fire: f64,
    generation: u64,
    from_level: u8,
    to_level: u8,
}

/// Per-disk descent timer bookkeeping for lazy scheduling: the engine
/// keeps at most one *live* timer deadline per disk and (almost always) one
/// heap entry, rescheduling on pop instead of piling a heap entry onto
/// every idle period. `scheduled` is the sorted list of this disk's event
/// times currently in the heap — length 1 in steady state; a second entry
/// appears only when an online policy picks a deadline *earlier* than an
/// already-scheduled (now stale) one.
#[derive(Debug, Default, Clone)]
struct TimerState {
    /// The active deadline guarding the next descent step, if any.
    deadline: Option<Deadline>,
    /// Times of this disk's `SpinDownTimer` events in the heap, ascending.
    scheduled: Vec<f64>,
}

/// The cache stack fronting this engine instance, in the deployment shape
/// the configuration asked for. A cache hit serves the request at the hit
/// tier's bandwidth and — deliberately — never touches the disk's actor or
/// timers: hits must not reset the idle clock, because lengthening the
/// disks' idle gaps is precisely what a cache tier contributes to the
/// power model.
#[derive(Debug)]
enum CacheFront {
    /// No cache configured.
    None,
    /// One shared hierarchy in front of the dispatcher.
    Global(CacheHierarchy),
    /// One private slice per *local* disk, each `capacity / global fleet`
    /// of the configured budgets — indexed by actor, so a shard only holds
    /// slices for its own disks.
    PerDisk(Vec<CacheHierarchy>),
}

/// The discrete-event simulator, generic over the arrival feed so every
/// source — in-memory cursor, CSV reader, synthetic generator, demux
/// receiver — runs a monomorphised loop (no per-arrival dynamic dispatch).
pub struct Simulator<'a, S: TraceSource> {
    catalog: &'a FileCatalog,
    /// The streamed arrival cursor.
    source: S,
    cfg: &'a SimConfig,
    file_to_disk: Vec<usize>,
    actors: Vec<DiskActor>,
    timers: Vec<TimerState>,
    events: EventQueue,
    cache: CacheFront,
    /// One response collector per local disk: its completions and the
    /// cache hits on its files. The report's global collector is these
    /// merged in ascending global disk order.
    per_disk_responses: Vec<ResponseStats>,
    /// The completion-log front, when logging is on: canonicalises this
    /// engine's completion stream and forwards it to a terminal sink
    /// (unsharded) or the merger channel (sharded).
    complog: Option<CompletionWriter>,
    policy: Box<dyn PowerPolicy>,
    horizon: f64,
    last_event_time: f64,
    /// Requests consumed from the source so far — the arrival index.
    arrived: usize,
    /// This engine's position in the global fleet (local disk `d` =
    /// global `d * stride + shard`; `0`/`1` unsharded) — completion-log
    /// records carry global disk ids so the merged log is shard-invariant.
    shard: usize,
    stride: usize,
    peak_events: usize,
    peak_disk_queue: usize,
    /// Live fault-injection state. `None` (no fault plan): every hook takes
    /// the fault-free outcome without consulting a runtime.
    fault: Option<FaultRuntime>,
}

impl<'a> Simulator<'a, InMemorySource<'a>> {
    /// Run an in-memory trace over exactly the disks the assignment uses,
    /// with the fixed-threshold policy configured in `cfg.threshold`.
    pub fn run(
        catalog: &'a FileCatalog,
        trace: &'a Trace,
        assignment: &Assignment,
        cfg: &'a SimConfig,
    ) -> Result<SimReport, SimError> {
        Self::run_from_source(
            catalog,
            InMemorySource::new(trace),
            assignment,
            cfg,
            assignment.disk_slots(),
        )
    }
}

impl<'a, S: TraceSource + Send> Simulator<'a, S> {
    /// Run arrivals from any [`TraceSource`] over a fleet of `fleet` disks,
    /// with the fixed-threshold policy configured in `cfg.threshold`.
    pub fn run_from_source(
        catalog: &'a FileCatalog,
        source: S,
        assignment: &Assignment,
        cfg: &'a SimConfig,
        fleet: usize,
    ) -> Result<SimReport, SimError> {
        Self::run_with_policy(catalog, source, assignment, cfg, fleet, |_| {
            Box::new(TimeoutPolicy::from_config(cfg.threshold, &cfg.disk))
        })
    }

    /// The general entry point: arrivals from any [`TraceSource`], a fleet
    /// of `fleet` ≥ the assignment's disk slots (the extra disks hold no
    /// files and just go to standby), and a [`PowerPolicy`] factory.
    ///
    /// The run shards over `cfg.shards` threads (disk `d` → shard
    /// `d % shards`; the count is clamped to the fleet). `factory(s)`
    /// builds shard `s`'s policy; it is called once per shard, in shard
    /// order, on the calling thread — once in total for an unsharded run —
    /// and each instance sees *global* disk ids, so per-disk-state policies
    /// behave identically at any shard count. A fresh (identically seeded)
    /// policy per run is what makes randomised policies reproducible.
    /// (Policies sharing randomness *across* disks — one RNG stream
    /// consulted fleet-wide — see a different interleaving per shard count
    /// and are not shard-count-invariant.)
    ///
    /// The report is bit-identical for every shard count, in both metrics
    /// modes: every fleet field is a fold over the per-disk results in
    /// ascending global disk order.
    ///
    /// A fleet of exactly zero disks is accepted only for an assignment
    /// using zero slots (and, transitively, an empty trace): the simulation
    /// then covers no disks and reports `disks == 0`. A fault plan whose
    /// crash or fail-slow clause names a disk outside the fleet is rejected
    /// before any shard starts ([`SimError::FaultTargetOutsideFleet`]). A
    /// policy that answers with a non-finite or negative descent delay
    /// ends the run with [`SimError::BadPolicyDelay`].
    pub fn run_with_policy(
        catalog: &'a FileCatalog,
        source: S,
        assignment: &Assignment,
        cfg: &'a SimConfig,
        fleet: usize,
        mut factory: impl FnMut(usize) -> Box<dyn PowerPolicy>,
    ) -> Result<SimReport, SimError> {
        if let Some(width) = cfg.windows {
            if !(width.is_finite() && width > 0.0) {
                return Err(SimError::BadWindowWidth { width });
            }
        }
        let faults = &cfg.faults;
        let targets = faults.crashes.iter().map(|c| c.disk);
        if let Some(disk) = targets
            .chain(faults.failslow.iter().map(|f| f.disk))
            .find(|&disk| disk >= fleet)
        {
            return Err(SimError::FaultTargetOutsideFleet { disk, fleet });
        }
        let required = assignment.disk_slots();
        if fleet < required {
            return Err(SimError::FleetTooSmall { required, fleet });
        }
        let file_to_disk = assignment.item_to_disk(catalog.len());
        let shards = crate::shard::effective_shards(cfg, fleet);
        if shards > 1 {
            return crate::shard::replay(
                catalog,
                source,
                &file_to_disk,
                cfg,
                fleet,
                shards,
                &mut factory,
            );
        }
        let sim = Self::run_drained(
            catalog,
            source,
            file_to_disk,
            cfg,
            fleet,
            fleet,
            0,
            1,
            factory(0),
            None,
        )?;
        crate::shard::finish_run(cfg, vec![sim], None)
    }
}

impl<'a, S: TraceSource> Simulator<'a, S> {
    /// Construct the simulator, prime it and drive the event loop to
    /// exhaustion, returning the drained simulator *without* finishing it —
    /// the run tail needs every engine drained before the common end time
    /// (`horizon.max(`max over engines of [`Self::last_event_time`]`)`) is
    /// known. `file_to_disk` maps file index → actor index (possibly a
    /// shard-local index); `usize::MAX` marks unmapped files. `fleet` is
    /// the number of actors *this* engine instance simulates;
    /// `global_fleet` is the whole fleet (they differ only in a sharded
    /// run) and sizes each per-disk cache slice at `capacity /
    /// global_fleet`, so the slices partition the same configured budget
    /// at every shard count. `shard`/`stride` position this engine's
    /// actors in the global fleet (local `d` = global `d * stride +
    /// shard`; `0`/`1` unsharded) — the fault injector keys its per-disk
    /// RNG streams off global ids so fault draws are shard-invariant.
    /// `log_tx`, when given, routes this shard's completion-log stream to
    /// the merger thread instead of a terminal sink (the sharded path —
    /// the merger owns the sink; unsharded, [`Self::take_log_sink`] hands
    /// the sink to the run tail).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_drained(
        catalog: &'a FileCatalog,
        source: S,
        file_to_disk: Vec<usize>,
        cfg: &'a SimConfig,
        fleet: usize,
        global_fleet: usize,
        shard: usize,
        stride: usize,
        policy: Box<dyn PowerPolicy>,
        log_tx: Option<std::sync::mpsc::SyncSender<Vec<Completion>>>,
    ) -> Result<Self, SimError> {
        let cache = match &cfg.cache_hierarchy {
            None => CacheFront::None,
            Some(h) => match h.scope {
                // This engine instance fronts `fleet` of the
                // `global_fleet` disks, so it owns that fraction of the
                // shared budget — the whole budget unsharded.
                CacheScope::Global => {
                    let (num, den) = if global_fleet == 0 {
                        (1, 1)
                    } else {
                        (fleet as u64, global_fleet as u64)
                    };
                    CacheFront::Global(h.build_fraction(num, den))
                }
                CacheScope::PerDisk => {
                    CacheFront::PerDisk((0..fleet).map(|_| h.build(global_fleet as u64)).collect())
                }
            },
        };
        let complog = match log_tx {
            Some(tx) => Some(CompletionWriter::new(CompletionOut::Chan {
                tx,
                batch: Vec::new(),
            })),
            None => CompletionSink::from_mode(&cfg.completion_log)?
                .map(|sink| CompletionWriter::new(CompletionOut::Sink(sink))),
        };
        let horizon = source.horizon();
        let mut sim = Simulator {
            catalog,
            source,
            cfg,
            file_to_disk,
            actors: (0..fleet)
                .map(|_| DiskActor::with_discipline(cfg.disk.clone(), cfg.discipline))
                .collect(),
            timers: vec![TimerState::default(); fleet],
            events: EventQueue::new(),
            cache,
            per_disk_responses: vec![ResponseStats::with_mode(cfg.metrics); fleet],
            complog,
            policy,
            horizon,
            last_event_time: 0.0,
            arrived: 0,
            shard,
            stride: stride.max(1),
            peak_events: 0,
            peak_disk_queue: 0,
            fault: (!cfg.faults.is_none())
                .then(|| FaultRuntime::new(&cfg.faults, fleet, shard, stride, cfg.metrics)),
        };
        if let Some(width) = cfg.windows {
            for a in &mut sim.actors {
                a.enable_windows(width, cfg.metrics);
            }
        }
        sim.prime()?;
        sim.drive()?;
        if let Some(w) = &mut sim.complog {
            // Flush the writer (and, sharded, drop the merger channel's
            // sender) before this thread leaves the scope — the merger
            // joins inside the same scope and must see the channel close.
            w.finish()?;
        }
        Ok(sim)
    }

    /// Time of the last processed event (arrival or scheduled).
    pub(crate) fn last_event_time(&self) -> f64 {
        self.last_event_time
    }

    /// The horizon the arrival source declared.
    pub(crate) fn source_horizon(&self) -> f64 {
        self.horizon
    }

    /// Peak completion-log buffering in this engine's writer (0 when
    /// logging is off) — the run tail sums these into the
    /// [`crate::complog::CompletionLogSummary`].
    pub(crate) fn completion_peak(&self) -> usize {
        self.complog.as_ref().map_or(0, |w| w.peak_buffered())
    }

    /// The terminal completion-log sink this engine's writer feeds — `Some`
    /// only unsharded with logging on; sharded, the merger owns the sink.
    pub(crate) fn take_log_sink(&mut self) -> Option<CompletionSink> {
        self.complog.as_mut().and_then(CompletionWriter::take_sink)
    }

    /// Schedule the initial idle timers and any scheduled crashes.
    fn prime(&mut self) -> Result<(), SimError> {
        for disk in 0..self.actors.len() {
            self.arm_timer(disk, 0, 0.0)?;
        }
        if let Some(f) = &self.fault {
            for (t, disk) in f.crashes_until(self.horizon) {
                self.events.schedule(t, Event::Crash { disk });
            }
        }
        self.peak_events = self.peak_events.max(self.events.len());
        Ok(())
    }

    /// Consult the policy for `disk` settling at ladder `level` at time
    /// `t` and arm its next descent deadline, unless the policy holds at
    /// this level or the deadline would fall beyond the trace horizon.
    fn arm_timer(&mut self, disk: usize, level: u8, t: f64) -> Result<(), SimError> {
        let decision = self.policy.settled(disk, level, t);
        let deepest = self.actors[disk].deepest_level();
        let timer = &mut self.timers[disk];
        let Some(DescentStep { rest_s, to_level }) = decision else {
            timer.deadline = None;
            return Ok(());
        };
        if !(rest_s.is_finite() && rest_s >= 0.0) {
            return Err(SimError::BadPolicyDelay {
                policy: self.policy.name(),
                delay: rest_s,
            });
        }
        // Clamp ladder-oblivious targets (DescentStep::DEEPEST) to the
        // drive's ladder; a step that no longer goes anywhere after
        // clamping — the policy answered at the deepest level — means
        // hold, same as `None`.
        let to_level = to_level.min(deepest);
        if to_level <= level {
            timer.deadline = None;
            return Ok(());
        }
        let fire = t + rest_s;
        if fire > self.horizon {
            timer.deadline = None;
            return Ok(());
        }
        timer.deadline = Some(Deadline {
            fire,
            generation: self.actors[disk].idle_generation,
            from_level: level,
            to_level,
        });
        self.ensure_timer_event(disk, fire);
        Ok(())
    }

    /// Guarantee a `SpinDownTimer` heap entry popping no later than `fire`
    /// for `disk`, reusing an already-scheduled (possibly stale) entry when
    /// one pops early enough — this is what keeps the heap at O(disks).
    fn ensure_timer_event(&mut self, disk: usize, fire: f64) {
        let timer = &mut self.timers[disk];
        if timer.scheduled.first().is_some_and(|&t0| t0 <= fire) {
            return; // an earlier pop will re-check (and reschedule exactly).
        }
        self.events.schedule(fire, Event::SpinDownTimer { disk });
        let at = timer.scheduled.partition_point(|&x| x < fire);
        timer.scheduled.insert(at, fire);
    }

    fn drive(&mut self) -> Result<(), SimError> {
        loop {
            self.peak_events = self.peak_events.max(self.events.len());
            // Take the source head whenever it is due no later than the
            // next scheduled event: arrivals win ties.
            let arrival_due = match self.source.peek_time()? {
                Some(ta) => match self.events.peek_time() {
                    Some(te) => ta <= te,
                    None => true,
                },
                None => false,
            };
            if arrival_due {
                // Sources that know the request's ordinal in the original
                // (undemuxed) trace report it through `peek_seq`, so
                // sharded runs label requests with the ids an unsharded
                // run assigns — the tie-break key the merged completion
                // log sorts on. Blind sources fall back to the local
                // arrival counter, which equals the global ordinal
                // whenever this engine sees the whole stream.
                let seq = self.source.peek_seq();
                let r = self.source.next_request()?.expect("peeked arrival");
                let req = seq.map_or(self.arrived, |s| s as usize);
                self.arrived += 1;
                self.last_event_time = self.last_event_time.max(r.time);
                self.on_arrival(r.time, req, r)?;
                continue;
            }
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            self.last_event_time = self.last_event_time.max(t);
            match ev {
                Event::PhaseDone { disk } => self.on_phase_done(t, disk)?,
                Event::SpinDownTimer { disk } => self.on_timer(t, disk)?,
                Event::Crash { disk } => self.on_crash(t, disk)?,
                Event::Repair { disk } => self.on_repair(t, disk)?,
                Event::Retry { disk } => self.on_retry(t, disk)?,
            }
        }
        Ok(())
    }

    fn on_arrival(&mut self, t: f64, req: usize, r: Request) -> Result<(), SimError> {
        // Sources cannot be pre-validated without a second pass; check the
        // mapping as each request arrives.
        let disk = match self.file_to_disk.get(r.file.index()).copied() {
            Some(d) if d != usize::MAX => d,
            _ => return Err(SimError::UnmappedFile { file: r.file }),
        };
        let size = self.catalog.file(r.file).size_bytes;
        // A hit returns before the policy or actor hear about the request:
        // served without disk involvement, idle clock untouched. Hits —
        // global or per-disk slice — are attributed to the disk holding
        // the file, the same recording shape as disk completions, so the
        // histogram-mode global statistics (derived from the per-disk
        // collectors in disk order) are shard-invariant.
        let hit = match &mut self.cache {
            CacheFront::None => None,
            CacheFront::Global(hierarchy) => hierarchy.access(r.file, size),
            CacheFront::PerDisk(slices) => slices[disk].access(r.file, size),
        };
        if let Some(latency) = hit {
            self.record_response(t, disk, latency);
            if let Some(f) = &mut self.fault {
                f.cache_hit();
            }
            return Ok(());
        }
        // Admission control: past the backlog watermark the request is
        // shed (counted, never queued) so a degraded fleet saturates
        // gracefully instead of queueing unboundedly.
        let queue_len = self.actors[disk].queue_len();
        if self.fault.as_mut().is_some_and(|f| !f.admit(queue_len)) {
            self.actors[disk].window_shed(t);
            return Ok(());
        }
        self.policy.request_arrived(disk, t);
        self.actors[disk].enqueue(req, size, t, r.file.index() as u64);
        self.peak_disk_queue = self.peak_disk_queue.max(self.actors[disk].queue_len());
        self.actors[disk].window_queue_observation(t);
        self.kick(t, disk)
    }

    /// Make progress on a disk that has (or may have) pending work.
    fn kick(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        // An offline disk neither serves nor wakes; its backlog waits for
        // the repair.
        if self.fault.as_ref().is_some_and(|f| f.is_down(disk)) {
            return Ok(());
        }
        match self.actors[disk].phase() {
            Phase::Idle => {
                if let Some(done) = self.actors[disk].serve_next(t)? {
                    // Fail-slow windows stretch this dispatch's service
                    // time; the no-fault path passes `done` through with
                    // zero extra float operations.
                    let done = match &mut self.fault {
                        Some(f) => f.stretch(disk, t, done),
                        None => done,
                    };
                    self.events.schedule(done, Event::PhaseDone { disk });
                }
            }
            Phase::Asleep(_) => {
                // A failed spin-up holds the disk down for its backoff;
                // the Retry event scheduled at the hold expiry re-kicks.
                if self.fault.as_ref().is_some_and(|f| f.wake_held(disk, t)) {
                    return Ok(());
                }
                // Wake directly from whatever level the disk rests at.
                let done = self.actors[disk].begin_spin_up(t)?;
                self.events.schedule(done, Event::PhaseDone { disk });
            }
            // Busy: the queue drains at service completion.
            // Waking / Descending: the transition completion handler will
            // look at the queue.
            Phase::Busy | Phase::Waking(_) | Phase::Descending(_) => {}
        }
        Ok(())
    }

    fn on_phase_done(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        match self.actors[disk].phase() {
            Phase::Busy => {
                // The entry must be read before the completion clears it.
                let entry = self.actors[disk]
                    .in_service()
                    .expect("engine dispatch always goes through serve_next");
                let req = self.actors[disk].complete_service(t)?;
                let outcome = match &mut self.fault {
                    Some(f) => f.service_done(disk, entry, t),
                    None => Service::Completed,
                };
                match outcome {
                    Service::Completed => {
                        self.record_response(t, disk, t - entry.arrival_s);
                        if let Some(w) = self.complog.as_mut() {
                            w.push(Completion {
                                req,
                                disk: disk * self.stride + self.shard,
                                time_s: t,
                            })?;
                        }
                    }
                    // A transient I/O error: the attempt's time and energy
                    // are spent and the request re-queues after backoff —
                    // or, past its retry budget, is dropped.
                    Service::Retry { fire } => {
                        self.actors[disk].window_retried(t);
                        self.events.schedule(fire, Event::Retry { disk });
                    }
                    Service::Failed => self.actors[disk].window_failed(t),
                }
                let crashed = self
                    .fault
                    .as_mut()
                    .and_then(|f| f.take_pending_crash(disk, t));
                match crashed {
                    Some(repair) => self.take_offline(t, disk, repair),
                    None => self.resume(t, disk),
                }
            }
            Phase::Waking(_) => {
                let outcome = match &mut self.fault {
                    Some(f) => f.wake_done(disk, t),
                    None => Wake::Up,
                };
                match outcome {
                    Wake::Up => {}
                    // Failed spin-up: the attempt's transition energy is
                    // charged, the drive falls back asleep, and the Retry
                    // at the hold expiry re-kicks it.
                    Wake::Held { until } => {
                        self.actors[disk].fail_spin_up(t)?;
                        self.events.schedule(until, Event::Retry { disk });
                        return Ok(());
                    }
                    // A crash that landed mid-wake, or wake failures past
                    // the retry budget: the spin-up's energy is charged,
                    // then the disk goes offline.
                    Wake::Dead { repair } => {
                        self.actors[disk].complete_spin_up(t)?;
                        return self.take_offline(t, disk, repair);
                    }
                }
                self.actors[disk].complete_spin_up(t)?;
                self.resume(t, disk)
            }
            Phase::Descending(_) => {
                let level = self.actors[disk].complete_descend(t)?;
                // Settled now: a crash deferred to this boundary applies.
                let crashed = self
                    .fault
                    .as_mut()
                    .and_then(|f| f.take_pending_crash(disk, t));
                if let Some(repair) = crashed {
                    return self.take_offline(t, disk, repair);
                }
                if self.fault.as_ref().is_some_and(|f| f.is_down(disk)) {
                    // A crashed disk parks all the way down regardless of
                    // its backlog; a repair deferred to the settle point
                    // applies once it is there.
                    let deepest = self.actors[disk].deepest_level();
                    if level < deepest {
                        let done = self.actors[disk].begin_descend(t, deepest)?;
                        self.events.schedule(done, Event::PhaseDone { disk });
                    } else if self
                        .fault
                        .as_mut()
                        .is_some_and(|f| f.take_pending_repair(disk, t))
                    {
                        return self.resume(t, disk);
                    }
                    return Ok(());
                }
                if !self.actors[disk].queue_is_empty() {
                    // Work arrived mid-descent; wake from the level just
                    // reached (transitions cannot be aborted).
                    self.kick(t, disk)?;
                } else if level < self.actors[disk].descent_target() {
                    // The in-flight descent has deeper to go: chain the
                    // next entry transition immediately.
                    let target = self.actors[disk].descent_target();
                    let done = self.actors[disk].begin_descend(t, target)?;
                    self.events.schedule(done, Event::PhaseDone { disk });
                } else {
                    // Settled at the descent's target: ask the policy for
                    // the next step (multi-state policies may rest here
                    // and descend further later).
                    self.arm_timer(disk, level, t)?;
                }
                Ok(())
            }
            other => unreachable!("PhaseDone in phase {other:?}"),
        }
    }

    fn on_timer(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        // Retire this heap entry (per-disk entries pop in ascending time
        // order, so it is always the head of the sorted list).
        let timer = &mut self.timers[disk];
        debug_assert!(timer.scheduled.first().is_some_and(|&t0| t0 == t));
        if !timer.scheduled.is_empty() {
            timer.scheduled.remove(0);
        }
        let Some(deadline) = timer.deadline else {
            return Ok(()); // no live deadline: stale entry.
        };
        let actor = &mut self.actors[disk];
        if actor.phase().settled_level() != Some(deadline.from_level)
            || actor.idle_generation != deadline.generation
            || !actor.queue_is_empty()
        {
            // The rest period this deadline guarded is over.
            self.timers[disk].deadline = None;
            return Ok(());
        }
        if deadline.fire > t {
            // Popped a stale (early) entry while the live deadline is still
            // ahead: reschedule exactly at the deadline.
            self.ensure_timer_event(disk, deadline.fire);
            return Ok(());
        }
        self.timers[disk].deadline = None;
        self.policy.descent_started(disk, t, deadline.to_level);
        let done = self.actors[disk].begin_descend(t, deadline.to_level)?;
        self.events.schedule(done, Event::PhaseDone { disk });
        Ok(())
    }

    /// Record one served request's response on `disk` at `t` — a disk
    /// completion or a cache hit: the disk's collector and its window.
    fn record_response(&mut self, t: f64, disk: usize, response: f64) {
        self.per_disk_responses[disk].record(response);
        self.actors[disk].window_completion(t, response);
    }

    /// A scheduled fail-stop crash fires. Settled disks go offline now;
    /// a crash landing mid-phase (service, wake or descent in flight) is
    /// deferred to the next phase boundary — transitions cannot be
    /// aborted, and the in-flight attempt's energy stays charged.
    fn on_crash(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let settled = matches!(self.actors[disk].phase(), Phase::Idle | Phase::Asleep(_));
        match self.fault.as_mut().and_then(|f| f.crash(disk, t, settled)) {
            Some(repair) => self.take_offline(t, disk, repair),
            None => Ok(()),
        }
    }

    /// `disk` went offline at `t` (it is settled: idle or asleep). Its
    /// cache slice is flushed — it will return cold — and from idle it
    /// parks to the deepest sleep level (the descent chain in
    /// `on_phase_done` keeps going while the disk is down). The repair at
    /// `repair` is scheduled unless that falls beyond the horizon, in
    /// which case the disk stays down to the end of the run.
    fn take_offline(&mut self, t: f64, disk: usize, repair: f64) -> Result<(), SimError> {
        self.timers[disk].deadline = None;
        if let CacheFront::PerDisk(slices) = &mut self.cache {
            slices[disk].flush();
        }
        if self.actors[disk].phase() == Phase::Idle {
            let deepest = self.actors[disk].deepest_level();
            if deepest > 0 {
                let done = self.actors[disk].begin_descend(t, deepest)?;
                self.events.schedule(done, Event::PhaseDone { disk });
            }
        }
        if repair <= self.horizon {
            self.events.schedule(repair, Event::Repair { disk });
        }
        Ok(())
    }

    /// A repair completes. A disk still descending defers to the settle
    /// point; otherwise it comes back online, cold — parked at whatever
    /// sleep level it reached — and any backlog wakes it immediately.
    fn on_repair(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let descending = matches!(self.actors[disk].phase(), Phase::Descending(_));
        let back = self
            .fault
            .as_mut()
            .is_some_and(|f| f.repair(disk, t, descending));
        if back {
            return self.resume(t, disk);
        }
        Ok(())
    }

    /// Continue `disk`, settled at `t`: its backlog is served (or wakes
    /// it), otherwise the policy arms the next descent from its level.
    fn resume(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        if !self.actors[disk].queue_is_empty() {
            return self.kick(t, disk);
        }
        match self.actors[disk].phase().settled_level() {
            Some(level) => self.arm_timer(disk, level, t),
            None => Ok(()),
        }
    }

    /// A retry backoff expires: due transient retries re-enter the queue
    /// with their original arrival stamps, and a held wake attempt is
    /// allowed again (the kick re-tries the spin-up).
    fn on_retry(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let due = match &mut self.fault {
            Some(f) => f.take_due_retries(disk, t),
            None => Vec::new(),
        };
        for e in &due {
            self.policy.request_arrived(disk, t);
            self.actors[disk].enqueue(e.req, e.bytes, e.arrival_s, e.pos);
        }
        if !due.is_empty() {
            self.peak_disk_queue = self.peak_disk_queue.max(self.actors[disk].queue_len());
            self.actors[disk].window_queue_observation(t);
        }
        self.kick(t, disk)
    }

    /// Integrate energy to `t_end` and hand back this engine's results,
    /// per-disk vectors in local actor order, for the report assembly.
    pub(crate) fn finish_at(mut self, t_end: f64) -> Result<EngineParts, SimError> {
        let faults = self.fault.take().map(|f| {
            let queued: u64 = self.actors.iter().map(|a| a.queue_len() as u64).sum();
            f.into_stats(t_end, queued)
        });
        let disks = self.actors.len();
        let mut energy = Vec::with_capacity(disks);
        let mut served = Vec::with_capacity(disks);
        let mut windows = self.cfg.windows.map(|_| Vec::with_capacity(disks));
        let (mut spin_downs, mut spin_ups) = (0, 0);
        for mut actor in self.actors {
            spin_downs += actor.spin_downs();
            spin_ups += actor.spin_ups();
            served.push(actor.served());
            if let Some(v) = windows.as_mut() {
                v.push(
                    actor
                        .take_windows(t_end)
                        .expect("windows enabled on every actor"),
                );
            }
            energy.push(actor.finish(t_end)?);
        }
        let (cache_tiers, cache_rows) = match self.cache {
            CacheFront::None => (None, None),
            CacheFront::Global(h) => (Some(h.tier_stats()), None),
            CacheFront::PerDisk(slices) => (
                None,
                Some(slices.iter().map(CacheHierarchy::tier_stats).collect()),
            ),
        };
        Ok(EngineParts {
            energy,
            responses: self.per_disk_responses,
            served,
            windows,
            cache_rows,
            cache_tiers,
            faults,
            spin_downs,
            spin_ups,
            peak_events: self.peak_events,
            peak_disk_queue: self.peak_disk_queue,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThresholdPolicy;
    use crate::hierarchy::{CacheHierarchyConfig, CachePolicyChoice, CacheTierConfig};
    use spindown_disk::PowerState;
    use spindown_packing::{Assignment, DiskBin};
    use spindown_workload::trace::Request;
    use spindown_workload::MB;

    /// Catalog of `n` equally popular files of `size` bytes, one per disk or
    /// per explicit layout.
    pub(super) fn catalog(n: usize, size: u64) -> FileCatalog {
        FileCatalog::from_parts(vec![size; n], vec![1.0 / n as f64; n])
    }

    /// Assignment placing file i on disk `layout[i]`.
    pub(super) fn assignment(layout: &[usize]) -> Assignment {
        let disks = layout.iter().copied().max().map_or(0, |m| m + 1);
        let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
        for (file, &d) in layout.iter().enumerate() {
            bins[d].items.push(file);
        }
        Assignment { disks: bins }
    }

    pub(super) fn trace(reqs: &[(f64, u32)], horizon: f64) -> Trace {
        Trace::new(
            reqs.iter()
                .map(|&(time, f)| Request {
                    time,
                    file: FileId(f),
                })
                .collect(),
            horizon,
        )
    }

    fn service_time_72mb() -> f64 {
        1.0 + 0.0085 + 0.00416 // 72 MB at 72 MB/s + positioning
    }

    /// One global DRAM-speed LRU tier of `capacity_bytes`.
    fn lru(capacity_bytes: u64) -> Option<CacheHierarchyConfig> {
        Some(CacheHierarchyConfig::single(CacheTierConfig::dram(
            capacity_bytes,
            CachePolicyChoice::Lru,
        )))
    }

    /// [`Simulator::run_from_source`] over an in-memory trace.
    fn run_fleet(
        cat: &FileCatalog,
        tr: &Trace,
        a: &Assignment,
        cfg: &SimConfig,
        fleet: usize,
    ) -> Result<SimReport, SimError> {
        Simulator::run_from_source(cat, InMemorySource::new(tr), a, cfg, fleet)
    }

    #[test]
    fn single_request_response_is_service_time() {
        let cat = catalog(1, 72 * MB);
        let tr = trace(&[(5.0, 0)], 100.0);
        let cfg = SimConfig::paper_default();
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.responses.len(), 1);
        assert!((report.response_quantile(1.0) - service_time_72mb()).abs() < 1e-9);
    }

    #[test]
    fn fifo_queueing_delays_second_request() {
        let cat = catalog(1, 72 * MB);
        let tr = trace(&[(0.0, 0), (0.0, 0)], 100.0);
        let cfg = SimConfig::paper_default();
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.responses.len(), 2);
        let s = service_time_72mb();
        assert!((report.response_quantile(0.0) - s).abs() < 1e-9);
        assert!((report.response_quantile(1.0) - 2.0 * s).abs() < 1e-9);
    }

    #[test]
    fn standby_disk_pays_spin_up_penalty() {
        let cat = catalog(1, 72 * MB);
        // Threshold 10 s: disk idles from t=0, spins down 10→20, request at
        // t=100 finds standby → 15 s spin-up + service.
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        let tr = trace(&[(100.0, 0)], 200.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        // Two spin-downs: the initial idle period and the post-service one
        // (threshold 10 s, horizon 200 s leaves room for the second).
        assert_eq!(report.spin_downs, 2);
        assert_eq!(report.spin_ups, 1);
        assert!(
            (report.response_quantile(1.0) - (15.0 + service_time_72mb())).abs() < 1e-9,
            "response {}",
            report.response_quantile(1.0)
        );
    }

    #[test]
    fn request_mid_spin_down_waits_for_both_transitions() {
        let cat = catalog(1, 72 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        // Spin-down runs 10→20; request at t=12 waits 8 s + 15 s + service.
        let tr = trace(&[(12.0, 0)], 200.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let expected = 8.0 + 15.0 + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
    }

    #[test]
    fn never_policy_has_no_spin_downs() {
        let cat = catalog(2, 10 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let tr = trace(&[(1.0, 0), (500.0, 1)], 1000.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.spin_downs, 0);
        assert_eq!(report.spin_ups, 0);
        // Energy ≈ idle for the whole window per disk (service negligible
        // but strictly above pure idle).
        let idle_only = report.always_on_idle_joules(9.3);
        let e = report.energy.total_joules();
        assert!(e >= idle_only * 0.99 && e < idle_only * 1.05);
    }

    #[test]
    fn energy_time_conservation() {
        let cat = catalog(3, 50 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(30.0));
        let tr = trace(&[(0.0, 0), (10.0, 1), (700.0, 2), (800.0, 0)], 1000.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1, 2]), &cfg).unwrap();
        // Σ per-state seconds = disks × sim_time
        let expect = report.sim_time_s * report.disks as f64;
        assert!(
            (report.energy.total_seconds() - expect).abs() < 1e-6,
            "covered {} vs {}",
            report.energy.total_seconds(),
            expect
        );
        assert_eq!(report.responses.len(), 4);
    }

    #[test]
    fn spin_down_saves_energy_on_long_idle() {
        let cat = catalog(1, 10 * MB);
        let tr = trace(&[(1.0, 0)], 7200.0);
        let sleepy = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
        let awake = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let e_sleepy = Simulator::run(&cat, &tr, &assignment(&[0]), &sleepy)
            .unwrap()
            .energy
            .total_joules();
        let e_awake = Simulator::run(&cat, &tr, &assignment(&[0]), &awake)
            .unwrap()
            .energy
            .total_joules();
        assert!(
            e_sleepy < 0.25 * e_awake,
            "sleepy {e_sleepy} vs awake {e_awake}"
        );
    }

    #[test]
    fn cache_hit_skips_the_disk() {
        let cat = catalog(1, 100 * MB);
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Never)
            .with_cache_hierarchy(lru(1_000 * MB));
        let tr = trace(&[(0.0, 0), (50.0, 0)], 100.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let stats = report.cache.unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // one slow (disk) + one fast (cache) response
        let [lo, hi] = report.response_quantiles(&[0.0, 1.0])[..] else {
            unreachable!("two quantiles requested")
        };
        assert!(lo < 0.2); // 100 MB at 1 GB/s
        assert!(hi > 1.0);
        // disk served exactly one request
        assert_eq!(report.responses.len(), 2);
    }

    #[test]
    fn fleet_larger_than_assignment_spins_down_empties() {
        let cat = catalog(1, 10 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        let tr = trace(&[(1.0, 0)], 500.0);
        let report = run_fleet(&cat, &tr, &assignment(&[0]), &cfg, 5).unwrap();
        assert_eq!(report.disks, 5);
        // all 5 disks eventually spin down (the loaded one after its service)
        assert_eq!(report.spin_downs, 5);
        assert_eq!(report.spin_ups, 0);
        // standby time dominates
        assert!(report.fleet_seconds_in(PowerState::Standby) > 4.0 * 400.0);
    }

    #[test]
    fn unmapped_file_is_an_error() {
        let cat = catalog(6, MB);
        // Files 0–3 on disks 0–3; files 4 and 5 are unmapped. The first
        // unmapped request (file 4 at t=2) is the one reported, whether
        // the run is unsharded or demultiplexed over four shards.
        let mut a = assignment(&[0, 1, 2, 3]);
        a.disks[3].items.clear();
        a.disks[3].items.push(3);
        let tr = trace(&[(0.0, 0), (1.0, 3), (2.0, 4), (3.0, 5), (4.0, 1)], 10.0);
        for shards in [1, 4] {
            let cfg = SimConfig::paper_default().with_shards(shards);
            let err = Simulator::run(&cat, &tr, &a, &cfg).unwrap_err();
            assert!(
                matches!(err, SimError::UnmappedFile { file } if file == FileId(4)),
                "S={shards}: {err}"
            );
        }
    }

    #[test]
    fn fleet_too_small_is_an_error() {
        let cat = catalog(2, MB);
        let tr = trace(&[], 1.0);
        let cfg = SimConfig::paper_default();
        let a = assignment(&[0, 1]);
        let err = run_fleet(&cat, &tr, &a, &cfg, 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::FleetTooSmall {
                required: 2,
                fleet: 1
            }
        ));
    }

    #[test]
    fn empty_trace_runs_to_horizon() {
        let cat = catalog(1, MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let tr = trace(&[], 250.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.sim_time_s, 250.0);
        assert!((report.energy.total_joules() - 9.3 * 250.0).abs() < 1e-6);
    }

    #[test]
    fn per_disk_served_and_utilisation() {
        let cat = catalog(2, 72 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        // three requests to disk 0's file, none to disk 1's
        let tr = trace(&[(0.0, 0), (10.0, 0), (20.0, 0)], 100.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.per_disk_served, vec![3, 0]);
        assert_eq!(report.active_disks(), 1);
        // disk 0: 3 × (seek + rotation + 1 s transfer) over 100 s ≈ 3%
        let u0 = report.disk_utilisation(0);
        assert!(
            (u0 - 3.0 * service_time_72mb() / 100.0).abs() < 1e-6,
            "{u0}"
        );
        assert_eq!(report.disk_utilisation(1), 0.0);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let cat = catalog(4, 30 * MB);
        let tr = Trace::poisson(&cat, 1.0, 300.0, 5);
        let cfg = SimConfig::paper_default();
        let a = assignment(&[0, 1, 2, 3]);
        let r1 = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        let r2 = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        assert_eq!(r1.energy.total_joules(), r2.energy.total_joules());
        assert_eq!(r1.responses, r2.responses);
    }

    /// Reports must agree bit-for-bit.
    fn assert_reports_identical(a: &SimReport, b: &SimReport) {
        assert_eq!(a.sim_time_s, b.sim_time_s);
        assert_eq!(a.energy.total_joules(), b.energy.total_joules());
        assert_eq!(a.energy.total_seconds(), b.energy.total_seconds());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.spin_downs, b.spin_downs);
        assert_eq!(a.spin_ups, b.spin_ups);
        assert_eq!(a.disks, b.disks);
        assert_eq!(a.per_disk_served, b.per_disk_served);
        assert_eq!(a.per_disk_responses, b.per_disk_responses);
        for (x, y) in a.per_disk_energy.iter().zip(&b.per_disk_energy) {
            assert_eq!(x.total_joules(), y.total_joules());
        }
    }

    /// Arrivals win ties against same-time scheduled events, pinned with
    /// hand-computed numbers on one disk under a 30 s fixed threshold
    /// (spin-down 10 s, spin-up 15 s).
    #[test]
    fn arrivals_win_ties_against_same_time_events() {
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(30.0));
        let s = service_time_72mb();

        // Idle from t=0, so the spin-down deadline falls at exactly t=30.
        // The request arriving then is handled first and cancels the
        // descent: no spin-down, bare service time. (Horizon 60 keeps the
        // post-service deadline, 30 + s + 30, from arming.)
        let cat = catalog(1, 72 * MB);
        let tr = trace(&[(30.0, 0)], 60.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.spin_downs, 0);
        assert_eq!(report.spin_ups, 0);
        assert!((report.response_quantile(1.0) - s).abs() < 1e-9);

        // The disk spins down 30..40. A 72 MB request at t=100 wakes it;
        // the spin-up's PhaseDone falls at exactly t=115, when a 7.2 MB
        // request arrives. Handled first, the small request is already
        // queued when the spin-up completes, so shortest-job-first serves
        // it ahead of the large one (which waited only 15 s, inside the
        // 30 s aging bound). Had the PhaseDone gone first, the large
        // request would already be in service.
        let cat = FileCatalog::from_parts(vec![72 * MB, 72 * MB / 10], vec![0.5, 0.5]);
        let tr = trace(&[(100.0, 0), (115.0, 1)], 130.0);
        let sjf = cfg.with_discipline(crate::discipline::DisciplineChoice::sjf());
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 0]), &sjf).unwrap();
        let small = 0.1 + 0.0085 + 0.00416;
        let [lo, hi] = report.response_quantiles(&[0.0, 1.0])[..] else {
            unreachable!("two quantiles requested")
        };
        assert!((lo - small).abs() < 1e-9, "small request {lo} vs {small}");
        assert!(
            (hi - (15.0 + small + s)).abs() < 1e-9,
            "large request {hi} vs {}",
            15.0 + small + s
        );
        assert_eq!(report.spin_downs, 1);
        assert_eq!(report.spin_ups, 1);
    }

    #[test]
    fn streamed_and_preloaded_agree_with_cache_and_ties() {
        // Simultaneous arrivals (ties) in front of a cache that holds one
        // 40 MB file: arrivals process before any same-time disk event and
        // in trace order, so the LRU sees 0, 1, 0, 1, 1 — one hit.
        let cat = catalog(2, 40 * MB);
        let tr = trace(&[(0.0, 0), (0.0, 1), (0.0, 0), (30.0, 1), (30.0, 1)], 300.0);
        let a = assignment(&[0, 1]);
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Fixed(30.0))
            .with_cache_hierarchy(lru(50 * MB));
        let report = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        let cache = report.cache.as_ref().unwrap();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 4);
        assert_eq!(report.responses.len(), 5);
    }

    #[test]
    fn streamed_peak_queue_is_fleet_bound_not_trace_bound() {
        let cat = catalog(4, MB);
        let tr = Trace::poisson(&cat, 50.0, 400.0, 3);
        assert!(tr.len() > 10_000, "want a big trace, got {}", tr.len());
        let a = assignment(&[0, 1, 2, 3]);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
        let streamed = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        // Per disk: at most one PhaseDone plus a handful of pending (stale)
        // spin-down timers — nowhere near the trace length.
        assert!(
            streamed.peak_event_queue_max() <= 8 * streamed.disks,
            "streamed peak {} for {} disks",
            streamed.peak_event_queue_max(),
            streamed.disks
        );
        assert_eq!(streamed.per_shard_event_peaks.len(), 1, "one event loop");
    }

    #[test]
    fn zero_fleet_with_empty_assignment_is_explicit() {
        let cat = catalog(1, MB);
        let tr = Trace::new(vec![], 100.0);
        let cfg = SimConfig::paper_default();
        let empty = Assignment { disks: vec![] };
        let report = run_fleet(&cat, &tr, &empty, &cfg, 0).unwrap();
        assert_eq!(report.disks, 0);
        assert_eq!(report.energy.total_joules(), 0.0);
        assert_eq!(report.energy.total_seconds(), 0.0);
        assert_eq!(report.sim_time_s, 100.0);
        // `run` derives the fleet from the assignment: zero slots → zero
        // disks, not a silent single-actor fleet.
        let via_run = Simulator::run(&cat, &tr, &empty, &cfg).unwrap();
        assert_eq!(via_run.disks, 0);
    }

    #[test]
    fn zero_fleet_with_loaded_assignment_is_an_error() {
        let cat = catalog(1, MB);
        let tr = Trace::new(vec![], 100.0);
        let cfg = SimConfig::paper_default();
        let a = assignment(&[0]);
        let err = run_fleet(&cat, &tr, &a, &cfg, 0).unwrap_err();
        assert!(matches!(
            err,
            SimError::FleetTooSmall {
                required: 1,
                fleet: 0
            }
        ));
    }

    /// A policy that spins down instantly on every idle start and counts
    /// the engine's callbacks.
    struct EagerCounter {
        idles: u64,
        arrivals: u64,
        downs: u64,
    }

    impl crate::policy::PowerPolicy for EagerCounter {
        fn name(&self) -> String {
            "eager_counter".into()
        }
        fn settled(
            &mut self,
            _disk: usize,
            level: u8,
            _t: f64,
        ) -> Option<crate::policy::DescentStep> {
            if level > 0 {
                return None;
            }
            self.idles += 1;
            Some(crate::policy::DescentStep::to_deepest(0.0))
        }
        fn request_arrived(&mut self, _disk: usize, _t: f64) {
            self.arrivals += 1;
        }
        fn descent_started(&mut self, _disk: usize, _t: f64, _to_level: u8) {
            self.downs += 1;
        }
    }

    #[test]
    fn custom_policy_drives_spin_downs_through_the_trait() {
        let cat = catalog(1, 10 * MB);
        let tr = trace(&[(50.0, 0), (150.0, 0)], 400.0);
        let cfg = SimConfig::paper_default();
        let report = Simulator::run_with_policy(
            &cat,
            InMemorySource::new(&tr),
            &assignment(&[0]),
            &cfg,
            1,
            |_| {
                Box::new(EagerCounter {
                    idles: 0,
                    arrivals: 0,
                    downs: 0,
                })
            },
        )
        .unwrap();
        // Idle at t=0 → immediate spin-down; both requests find standby,
        // pay the spin-up, and each post-service idle spins down again.
        assert_eq!(report.spin_downs, 3);
        assert_eq!(report.spin_ups, 2);
        assert_eq!(report.responses.len(), 2);
        // First response: 15 s spin-up + service.
        assert!(report.response_quantile(0.0) > 15.0);
    }

    #[test]
    fn run_with_policy_timeout_matches_run_from_source() {
        let cat = catalog(3, 20 * MB);
        let tr = Trace::poisson(&cat, 1.0, 400.0, 21);
        let a = assignment(&[0, 1, 2]);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(40.0));
        let via_cfg = run_fleet(&cat, &tr, &a, &cfg, 3).unwrap();
        let via_policy =
            Simulator::run_with_policy(&cat, InMemorySource::new(&tr), &a, &cfg, 3, |_| {
                Box::new(crate::policy::TimeoutPolicy::fixed(40.0))
            })
            .unwrap();
        assert_reports_identical(&via_cfg, &via_policy);
    }

    #[test]
    fn per_disk_responses_partition_the_global_samples() {
        let cat = catalog(2, 40 * MB);
        let tr = trace(&[(0.0, 0), (1.0, 1), (2.0, 0), (3.0, 1)], 200.0);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.per_disk_responses.len(), 2);
        let split: usize = report.per_disk_responses.iter().map(|r| r.len()).sum();
        assert_eq!(split, report.responses.len());
        assert_eq!(report.per_disk_responses[0].len(), 2);
        assert_eq!(report.per_disk_responses[1].len(), 2);
    }

    #[test]
    fn completion_log_records_every_request_in_service_order() {
        let cat = catalog(2, 40 * MB);
        let tr = trace(&[(0.0, 0), (0.0, 0), (1.0, 1)], 200.0);
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Never)
            .with_completion_log();
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        let log = report.completions.as_ref().expect("log enabled");
        assert_eq!(log.len(), 3);
        let mut reqs: Vec<usize> = log.iter().map(|c| c.req).collect();
        reqs.sort_unstable();
        assert_eq!(reqs, vec![0, 1, 2]);
        // Canonical order: non-decreasing times, ties broken by request
        // ordinal.
        for w in log.windows(2) {
            assert!(
                w[0].time_s < w[1].time_s || (w[0].time_s == w[1].time_s && w[0].req < w[1].req)
            );
        }
        let summary = report.completion_log.as_ref().expect("summary present");
        assert_eq!(summary.records, 3);
        assert!(summary.bytes > 0);
        // Off by default.
        let plain =
            Simulator::run(&cat, &tr, &assignment(&[0, 1]), &SimConfig::paper_default()).unwrap();
        assert!(plain.completions.is_none());
        assert!(plain.completion_log.is_none());
    }

    #[test]
    fn elevator_wake_batch_beats_fifo_on_a_spin_up_pile_up() {
        // Disk sleeps; three requests pile up during standby/spin-up and
        // drain as one amortised pass — mean response can only improve.
        let cat = catalog(3, 72 * MB);
        let layout = assignment(&[0, 0, 0]);
        let tr = trace(&[(50.0, 0), (50.2, 2), (50.4, 1), (50.6, 2)], 300.0);
        let fifo = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(5.0));
        let elevator = fifo
            .clone()
            .with_discipline(crate::discipline::DisciplineChoice::ElevatorBatch);
        let rf = Simulator::run(&cat, &tr, &layout, &fifo).unwrap();
        let re = Simulator::run(&cat, &tr, &layout, &elevator).unwrap();
        assert_eq!(re.responses.len(), rf.responses.len());
        assert!(
            re.responses.mean() <= rf.responses.mean() + 1e-12,
            "elevator {} vs fifo {}",
            re.responses.mean(),
            rf.responses.mean()
        );
        // The batch saved three cold seeks' worth of positioning time.
        assert!(re.responses.mean() < rf.responses.mean());
    }

    /// A descent schedule stepping one level at a time: 5 s at idle, then
    /// low-RPM; 30 s at low-RPM, then standby.
    struct StepDown;

    impl crate::policy::PowerPolicy for StepDown {
        fn name(&self) -> String {
            "step_down".into()
        }
        fn settled(&mut self, _disk: usize, level: u8, _t: f64) -> Option<DescentStep> {
            match level {
                0 => Some(DescentStep::to_level(5.0, 1)),
                1 => Some(DescentStep::to_level(30.0, 2)),
                _ => None,
            }
        }
    }

    fn three_level_cfg() -> SimConfig {
        let cfg = SimConfig::paper_default();
        let ladder = spindown_disk::PowerLadder::with_low_rpm(&cfg.disk);
        cfg.with_ladder(Some(ladder))
    }

    #[test]
    fn ladder_wake_pays_the_exit_of_the_level_reached() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg();
        let lad = cfg.disk.power_ladder();
        // Idle from t=0: descends to low-RPM at t=5 (entry 3 s, settled at
        // 8), would descend to standby at t=38. The request at t=20 finds
        // the disk resting at low-RPM and pays only its (shorter) exit.
        let tr = trace(&[(20.0, 0)], 100.0);
        let report = Simulator::run_with_policy(
            &cat,
            InMemorySource::new(&tr),
            &assignment(&[0]),
            &cfg,
            1,
            |_| Box::new(StepDown),
        )
        .unwrap();
        let expected = lad.level(1).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        // Three completed descents: idle → low-RPM before the arrival,
        // then idle → low-RPM → standby after the service.
        assert_eq!(report.spin_downs, 3);
        assert_eq!(report.spin_ups, 1);
    }

    #[test]
    fn ladder_step_descent_reaches_standby_through_low_rpm() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg();
        let lad = cfg.disk.power_ladder();
        // Request at t=300: by then the disk stepped 0 → 1 (t=5..8) and
        // 1 → 2 (t=38..48); it wakes from standby paying the full exit.
        let tr = trace(&[(300.0, 0)], 400.0);
        let report = Simulator::run_with_policy(
            &cat,
            InMemorySource::new(&tr),
            &assignment(&[0]),
            &cfg,
            1,
            |_| Box::new(StepDown),
        )
        .unwrap();
        let expected = lad.level(2).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        // Energy accounted at every level the descent visited.
        assert!(report.fleet_seconds_in(PowerState::Sleeping(1)) > 0.0);
        assert!(report.fleet_seconds_in(PowerState::Sleeping(2)) > 0.0);
        assert!(report.fleet_seconds_in(PowerState::Descending(2)) > 0.0);
    }

    #[test]
    fn timeout_policy_chains_straight_to_the_deepest_level() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg().with_threshold(ThresholdPolicy::Fixed(10.0));
        let lad = cfg.disk.power_ladder();
        // Fixed timeout descends the whole ladder in one go: entries at
        // 10..13 (level 1) and 13..23 (level 2), charging each level's
        // entry transition back to back. (Horizon 120 keeps the
        // post-service timer, due ~126, from arming a second descent.)
        let tr = trace(&[(100.0, 0)], 120.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let expected = lad.level(2).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        // One full descent = two completed entry transitions; the
        // zero-length residency at level 1 costs nothing.
        assert_eq!(report.spin_ups, 1);
        assert!(report.fleet_seconds_in(PowerState::Sleeping(1)) == 0.0);
        assert!((report.fleet_seconds_in(PowerState::Descending(1)) - 3.0).abs() < 1e-9);
        assert!((report.fleet_seconds_in(PowerState::Descending(2)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_mid_descent_wakes_from_the_level_just_reached() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg().with_threshold(ThresholdPolicy::Fixed(10.0));
        let lad = cfg.disk.power_ladder();
        // Descent starts at 10; the level-1 entry completes at 13. A
        // request at t=11 waits out the entry, then wakes from level 1
        // (the deeper step is abandoned). Horizon 25 keeps the
        // post-service timer from starting a second, full descent.
        let tr = trace(&[(11.0, 0)], 25.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let expected = 2.0 + lad.level(1).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        assert!(report.fleet_seconds_in(PowerState::Sleeping(2)) == 0.0);
    }

    #[test]
    fn explicit_two_state_ladder_is_bit_identical_to_the_derived_default() {
        let cat = catalog(4, 30 * MB);
        let tr = Trace::poisson(&cat, 2.0, 500.0, 13);
        let a = assignment(&[0, 1, 2, 3]);
        for threshold in [
            ThresholdPolicy::BreakEven,
            ThresholdPolicy::Fixed(5.0),
            ThresholdPolicy::Never,
        ] {
            let derived = SimConfig::paper_default().with_threshold(threshold);
            let explicit = derived
                .clone()
                .with_ladder(Some(spindown_disk::PowerLadder::two_state(&derived.disk)));
            let rd = Simulator::run(&cat, &tr, &a, &derived).unwrap();
            let re = Simulator::run(&cat, &tr, &a, &explicit).unwrap();
            assert_reports_identical(&rd, &re);
        }
    }

    #[test]
    fn response_includes_queueing_after_spin_up() {
        // Two requests arrive while the disk is in standby; both pay the
        // spin-up, the second also queues behind the first.
        let cat = catalog(1, 72 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(5.0));
        let tr = trace(&[(100.0, 0), (100.0, 0)], 300.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let s = service_time_72mb();
        assert!((report.response_quantile(0.0) - (15.0 + s)).abs() < 1e-9);
        assert!((report.response_quantile(1.0) - (15.0 + 2.0 * s)).abs() < 1e-9);
    }

    #[test]
    fn bad_window_width_is_an_error_at_any_shard_count() {
        let (cat, tr) = (catalog(4, 10 * MB), trace(&[(1.0, 0), (2.0, 3)], 100.0));
        for width in [0.0, -1.0, f64::NAN] {
            for shards in [1usize, 4] {
                let mut cfg = SimConfig::paper_default().with_shards(shards);
                cfg.windows = Some(width);
                let err = run_fleet(&cat, &tr, &assignment(&[0, 1, 2, 3]), &cfg, 4).unwrap_err();
                assert!(
                    matches!(err, SimError::BadWindowWidth { .. }),
                    "{width} S={shards}"
                );
            }
        }
    }

    #[test]
    fn fault_targets_outside_the_fleet_are_an_error_at_any_shard_count() {
        let (cat, tr) = (catalog(4, 10 * MB), trace(&[(1.0, 0), (2.0, 3)], 100.0));
        for (spec, disk) in [
            ("crash@t=5:d999", 999),
            ("failslow:d4:x2@0..10", 4),
            ("crash@t=5:d3 | crash@t=9:d7", 7),
        ] {
            for shards in [1usize, 4] {
                let mut cfg = SimConfig::paper_default().with_shards(shards);
                cfg.faults = spindown_workload::FaultPlan::parse(spec).unwrap();
                let err = run_fleet(&cat, &tr, &assignment(&[0, 1, 2, 3]), &cfg, 4).unwrap_err();
                assert!(
                    matches!(err, SimError::FaultTargetOutsideFleet { disk: d, fleet: 4 } if d == disk),
                    "{spec} S={shards}: {err}"
                );
                assert!(err.to_string().contains(&format!("disk {disk}")), "{err}");
            }
        }
        // The last in-fleet disk is a valid target.
        let mut cfg = SimConfig::paper_default();
        cfg.faults = spindown_workload::FaultPlan::parse("crash@t=5:d3").unwrap();
        assert!(run_fleet(&cat, &tr, &assignment(&[0, 1, 2, 3]), &cfg, 4).is_ok());
    }

    /// Holds every disk at the start, then answers each later settle with
    /// a fixed (bad) delay — so the error surfaces from inside the event
    /// loop, on a shard thread when sharded.
    struct BadDelay(f64);

    impl PowerPolicy for BadDelay {
        fn name(&self) -> String {
            "bad_delay".into()
        }
        fn settled(&mut self, _disk: usize, _level: u8, t: f64) -> Option<DescentStep> {
            (t > 0.0).then(|| DescentStep::to_deepest(self.0))
        }
    }

    #[test]
    fn a_bad_policy_delay_is_an_error_at_any_shard_count() {
        let (cat, tr) = (catalog(2, 10 * MB), trace(&[(1.0, 0), (2.0, 1)], 100.0));
        for delay in [f64::NAN, -1.0, f64::INFINITY] {
            for shards in [1usize, 2] {
                let cfg = SimConfig::paper_default().with_shards(shards);
                let source = InMemorySource::new(&tr);
                let err =
                    Simulator::run_with_policy(&cat, source, &assignment(&[0, 1]), &cfg, 2, |_| {
                        Box::new(BadDelay(delay))
                    })
                    .unwrap_err();
                assert!(
                    matches!(&err, SimError::BadPolicyDelay { policy, delay: d }
                        if policy == "bad_delay" && d.to_bits() == delay.to_bits()),
                    "delay {delay} S={shards}: {err}"
                );
                assert!(err.to_string().contains("bad_delay"), "{err}");
            }
        }
    }
}

/// Integration tests for the fault injector: the [`FaultRuntime`] hooks in
/// dispatch, spin-up completion and service completion, exercised through
/// full engine runs (the unit-level draw/state tests live in `fault.rs`).
#[cfg(test)]
mod fault_tests {
    use super::tests::{assignment, catalog, trace};
    use super::*;
    use crate::config::ThresholdPolicy;
    use spindown_workload::{FaultPlan, MB};

    fn sleepy(spec: &str) -> SimConfig {
        let mut cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        cfg.faults = FaultPlan::parse(spec).unwrap();
        cfg
    }

    /// Five widely spaced requests each find the disk in standby; at a 90 %
    /// wake-failure rate the retry chains overflow the budget, the drive
    /// fail-stops, and the repair downtime shows up in availability.
    #[test]
    fn wake_failures_retry_then_fail_stop_and_repair() {
        let cat = catalog(1, 72 * MB);
        let cfg = sleepy("wakefail:p=0.9 | mttr=300 | seed=3");
        let tr = trace(
            &[(100.0, 0), (400.0, 0), (700.0, 0), (1000.0, 0), (1300.0, 0)],
            2000.0,
        );
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().expect("faults produce stats");
        assert_eq!(a.arrivals, 5);
        // Every request eventually completes: a crash repairs after the
        // MTTR and the queued request wakes the returned drive.
        assert_eq!(a.completed, 5);
        assert_eq!(a.failed, 0);
        assert!(a.wake_failures > 5, "repeated retries: {}", a.wake_failures);
        assert!(a.crashes >= 1, "budget exhaustion fail-stops the drive");
        let downtime = a.per_disk_downtime_s[0];
        assert!(
            (downtime - a.crashes as f64 * 300.0).abs() < 1e-6,
            "each crash is down for one MTTR: {downtime}"
        );
        assert!(a.availability < 1.0 && a.availability > 0.0);
        assert!(a.conservation_holds());
    }

    /// Each failed spin-up charges its transition energy: the same seed
    /// with wake failures must burn strictly more than the fault-free run,
    /// and the tail response absorbs the backoff + repeated spin-up time.
    #[test]
    fn failed_spin_ups_charge_transition_energy_and_delay() {
        let cat = catalog(1, 72 * MB);
        // Horizon far past the arrivals: every retry chain (and any
        // fail-stop repair) lands inside the run, so all three complete.
        let tr = trace(&[(100.0, 0), (250.0, 0), (400.0, 0)], 3000.0);
        let clean = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        let faulty = sleepy("wakefail:p=0.9 | seed=3");
        let clean_report = Simulator::run(&cat, &tr, &assignment(&[0]), &clean).unwrap();
        let fault_report = Simulator::run(&cat, &tr, &assignment(&[0]), &faulty).unwrap();
        let extra = fault_report
            .availability
            .as_ref()
            .map(|a| a.wake_failures + a.crashes)
            .unwrap();
        assert!(
            extra > 0,
            "seed 3 at p=0.9 fails at least one of three wakes"
        );
        assert_eq!(fault_report.availability.as_ref().unwrap().completed, 3);
        assert!(
            fault_report.energy.total_joules() > clean_report.energy.total_joules(),
            "failed attempts still pay the transition"
        );
        assert!(fault_report.response_quantile(1.0) > clean_report.response_quantile(1.0));
    }

    /// Transient I/O errors re-serve the request after backoff: time and
    /// energy are spent, the completion count stays exact, and the retried
    /// counter records every discarded attempt.
    #[test]
    fn transient_errors_retry_and_complete() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("transient:p=0.4 | seed=11").unwrap();
        let reqs: Vec<(f64, u32)> = (0..20).map(|i| (i as f64 * 30.0, 0)).collect();
        let tr = trace(&reqs, 700.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().unwrap();
        assert_eq!(a.arrivals, 20);
        assert_eq!(a.completed, 20, "budget 5 at p=0.4 outlasts every flake");
        assert!(a.retried > 0, "p=0.4 over 20 requests flakes some attempt");
        assert_eq!(report.responses.len(), 20);
        assert!(a.conservation_holds());
    }

    /// A retry budget of zero turns every transient flake into a counted
    /// failure — the request leaves the system without a response sample,
    /// and conservation still balances through the failed bucket.
    #[test]
    fn exhausted_retry_budget_counts_failures_not_panics() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("transient:p=0.5 | retries=0 | seed=7").unwrap();
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 10.0, 0)).collect();
        let tr = trace(&reqs, 500.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().unwrap();
        assert_eq!(a.arrivals, 40);
        assert!(a.failed > 0, "p=0.5 with no retries drops requests");
        assert_eq!(a.completed + a.failed, 40);
        assert_eq!(report.responses.len() as u64, a.completed);
        assert!(a.conservation_holds());
    }

    /// A scheduled crash takes the disk offline mid-run: requests arriving
    /// during the outage wait for the repair, the disk returns cold, and
    /// the downtime equals the MTTR.
    #[test]
    fn scheduled_crash_queues_work_until_repair() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("crash@t=50:d0 | mttr=200").unwrap();
        let tr = trace(&[(10.0, 0), (100.0, 0)], 600.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().unwrap();
        assert_eq!(a.crashes, 1);
        assert_eq!(a.completed, 2);
        assert!((a.per_disk_downtime_s[0] - 200.0).abs() < 1e-6);
        // The t=100 request arrived mid-outage (50..250) and waited for
        // the repair plus the cold spin-up.
        assert!(
            report.response_quantile(1.0) > 150.0,
            "p100 {}",
            report.response_quantile(1.0)
        );
        assert!(a.availability < 1.0);
    }

    /// The no-fault configuration leaves no availability stats and the
    /// legacy report untouched — the `FaultPlan::none()` path never
    /// constructs a runtime.
    #[test]
    fn no_fault_plan_reports_no_availability() {
        let cat = catalog(1, 72 * MB);
        let cfg = SimConfig::paper_default();
        let tr = trace(&[(5.0, 0)], 100.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert!(report.availability.is_none());
    }

    /// A fail-slow window stretches service: the same trace takes longer
    /// wall-clock inside the window than without the fault plan.
    #[test]
    fn failslow_window_stretches_service() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        // 4× slower service on disk 0 between t=0 and t=1000.
        cfg.faults = FaultPlan::parse("failslow:d0:x4@0..1000").unwrap();
        let tr = trace(&[(5.0, 0)], 100.0);
        let slow = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let clean =
            Simulator::run(&cat, &tr, &assignment(&[0]), &SimConfig::paper_default()).unwrap();
        assert!(
            slow.response_quantile(1.0) > 2.0 * clean.response_quantile(1.0),
            "slow {} vs clean {}",
            slow.response_quantile(1.0),
            clean.response_quantile(1.0)
        );
        assert!(slow.availability.as_ref().unwrap().conservation_holds());
    }
}
