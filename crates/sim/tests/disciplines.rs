//! Property-based tests of the queue-discipline layer: every discipline
//! only *reorders* work — it serves each request exactly once, per-disk
//! completions stay time-ordered, and the FIFO discipline is bit-identical
//! to the engine's default path.

use proptest::prelude::*;
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::discipline::DisciplineChoice;
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::SimReport;
use spindown_workload::trace::Request;
use spindown_workload::{FileCatalog, FileId, Trace};

/// A randomized mini-workload: 1–12 files over 1–6 disks, ≤ 60 requests.
#[derive(Debug, Clone)]
struct MiniWorkload {
    catalog: FileCatalog,
    trace: Trace,
    assignment: Assignment,
}

fn mini_workload() -> impl Strategy<Value = MiniWorkload> {
    let files = prop::collection::vec(1_000_000u64..2_000_000_000, 1..12);
    (
        files,
        1usize..6,
        prop::collection::vec((0.0f64..500.0, any::<u8>()), 0..60),
    )
        .prop_map(|(sizes, disks, raw_reqs)| {
            let n = sizes.len();
            let pop = vec![1.0 / n as f64; n];
            let catalog = FileCatalog::from_parts(sizes, pop);
            let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
            for i in 0..n {
                bins[i % disks].items.push(i);
            }
            let assignment = Assignment { disks: bins };
            let mut reqs: Vec<Request> = raw_reqs
                .into_iter()
                .map(|(time, f)| Request {
                    time,
                    file: FileId((f as usize % n) as u32),
                })
                .collect();
            reqs.sort_by(|a, b| a.time.total_cmp(&b.time));
            let trace = Trace::new(reqs, 500.0);
            MiniWorkload {
                catalog,
                trace,
                assignment,
            }
        })
}

fn discipline_strategy() -> impl Strategy<Value = DisciplineChoice> {
    prop_oneof![
        Just(DisciplineChoice::Fifo),
        (1.0f64..300.0)
            .prop_map(|aging_bound_s| DisciplineChoice::ShortestJobFirst { aging_bound_s }),
        Just(DisciplineChoice::ElevatorBatch),
    ]
}

fn threshold_strategy() -> impl Strategy<Value = ThresholdPolicy> {
    prop_oneof![
        Just(ThresholdPolicy::Never),
        Just(ThresholdPolicy::BreakEven),
        (1.0f64..300.0).prop_map(ThresholdPolicy::Fixed),
    ]
}

fn run(w: &MiniWorkload, cfg: &SimConfig) -> SimReport {
    Simulator::run(&w.catalog, &w.trace, &w.assignment, cfg).unwrap()
}

fn assert_bit_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.energy.total_joules(), b.energy.total_joules());
    assert_eq!(a.energy.total_seconds(), b.energy.total_seconds());
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.per_disk_responses, b.per_disk_responses);
    assert_eq!(a.spin_downs, b.spin_downs);
    assert_eq!(a.spin_ups, b.spin_ups);
    assert_eq!(a.per_disk_served, b.per_disk_served);
    assert_eq!(a.sim_time_s, b.sim_time_s);
    assert_eq!(a.completions, b.completions);
}

/// The pre-PR SJF implementation, verbatim: linear `min_by_key` over
/// `(bytes, seq)` with the aging bound probed at the front of the
/// arrival-ordered pending list. The heap-backed queue must pop in exactly
/// this sequence (including every aging escape) on any schedule.
mod sjf_reference {
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RefEntry {
        pub req: usize,
        pub bytes: u64,
        pub arrival_s: f64,
        pub seq: u64,
    }

    #[derive(Debug, Default)]
    pub struct LinearSjf {
        entries: Vec<RefEntry>,
        next_seq: u64,
    }

    impl LinearSjf {
        pub fn push(&mut self, req: usize, bytes: u64, arrival_s: f64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push(RefEntry {
                req,
                bytes,
                arrival_s,
                seq,
            });
        }

        pub fn pop(&mut self, now: f64, aging_bound_s: f64) -> Option<RefEntry> {
            let oldest = self.entries.first()?;
            if now - oldest.arrival_s >= aging_bound_s {
                return Some(self.entries.remove(0));
            }
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.bytes, e.seq))
                .expect("non-empty");
            Some(self.entries.remove(idx))
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Conservation: every discipline serves each request exactly once —
    // the completion log holds a permutation of the trace indices.
    #[test]
    fn every_discipline_serves_each_request_exactly_once(
        w in mini_workload(), d in discipline_strategy(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_discipline(d)
            .with_completion_log();
        let report = run(&w, &cfg);
        prop_assert_eq!(report.responses.len(), w.trace.len());
        let log = report.completions.as_ref().expect("log enabled");
        prop_assert_eq!(log.len(), w.trace.len());
        let mut served: Vec<usize> = log.iter().map(|c| c.req).collect();
        served.sort_unstable();
        let expected: Vec<usize> = (0..w.trace.len()).collect();
        prop_assert_eq!(served, expected, "not a permutation of the trace");
        // The per-disk response stats partition the global samples.
        let split: usize = report.per_disk_responses.iter().map(|r| r.len()).sum();
        prop_assert_eq!(split, report.responses.len());
    }

    // Per-disk completion times never go backwards (a disk serves one
    // request at a time), and no completion precedes its arrival.
    #[test]
    fn completions_are_time_ordered_per_disk(
        w in mini_workload(), d in discipline_strategy(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_discipline(d)
            .with_completion_log();
        let report = run(&w, &cfg);
        let log = report.completions.as_ref().expect("log enabled");
        let mut last_per_disk = vec![f64::NEG_INFINITY; report.disks];
        for c in log {
            prop_assert!(
                c.time_s >= last_per_disk[c.disk],
                "disk {} completed {} after {}", c.disk, c.time_s, last_per_disk[c.disk]
            );
            last_per_disk[c.disk] = c.time_s;
            prop_assert!(c.time_s >= w.trace.requests()[c.req].time,
                "request {} completed before it arrived", c.req);
        }
    }

    // The FIFO discipline serves each disk's requests in arrival order —
    // trace indices are increasing within each disk's completion
    // subsequence.
    #[test]
    fn fifo_serves_in_arrival_order_per_disk(
        w in mini_workload(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_completion_log();
        let report = run(&w, &cfg);
        let log = report.completions.as_ref().expect("log enabled");
        let mut last_req = vec![None::<usize>; report.disks];
        for c in log {
            if let Some(prev) = last_req[c.disk] {
                prop_assert!(c.req > prev, "disk {} served {} after {}", c.disk, c.req, prev);
            }
            last_req[c.disk] = Some(c.req);
        }
    }

    // Selecting `Fifo` explicitly is bit-identical to the engine default
    // — same energy, same per-request completions, same everything.
    #[test]
    fn explicit_fifo_is_bit_identical_to_the_default_engine(
        w in mini_workload(), th in threshold_strategy()
    ) {
        let default_cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_completion_log();
        let fifo_cfg = default_cfg.clone().with_discipline(DisciplineChoice::Fifo);
        let a = run(&w, &default_cfg);
        let b = run(&w, &fifo_cfg);
        assert_bit_identical(&a, &b);
    }

    // Reordering work never changes how much of it there is: every
    // discipline reports the same served counts per disk as FIFO.
    #[test]
    fn disciplines_only_reorder_per_disk_work(
        w in mini_workload(), d in discipline_strategy(), th in threshold_strategy()
    ) {
        let fifo = SimConfig::paper_default().with_threshold(th);
        let other = fifo.clone().with_discipline(d);
        let a = run(&w, &fifo);
        let b = run(&w, &other);
        prop_assert_eq!(a.per_disk_served, b.per_disk_served);
        prop_assert_eq!(a.responses.len(), b.responses.len());
        // Energy–time conservation holds regardless of discipline.
        let covered = b.energy.total_seconds();
        let expected = b.sim_time_s * b.disks as f64;
        prop_assert!((covered - expected).abs() < 1e-6 * expected.max(1.0));
    }

    // Every discipline is deterministic: identical runs replay
    // bit-identically.
    #[test]
    fn every_discipline_is_deterministic(
        w in mini_workload(), d in discipline_strategy(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_discipline(d)
            .with_completion_log();
        let a = run(&w, &cfg);
        let b = run(&w, &cfg);
        assert_bit_identical(&a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    // The heap-backed SJF queue pops bit-identically to the linear-scan
    // implementation it replaced: same (bytes, seq) order, same aging
    // escapes, on randomized interleaved push/pop schedules.
    #[test]
    fn heap_backed_sjf_matches_the_linear_scan_reference(
        // Each step: a request (size, inter-arrival gap) plus how many pops
        // follow it (0–3), so queues both deepen and drain mid-schedule.
        steps in prop::collection::vec(
            (1u64..5_000, 0.0f64..20.0, 0usize..4), 1..120),
        aging_bound_s in 1.0f64..60.0,
    ) {
        use spindown_sim::discipline::{DisciplineChoice, RequestQueue};

        let mut heap_q = RequestQueue::new(DisciplineChoice::ShortestJobFirst { aging_bound_s });
        let mut linear_q = sjf_reference::LinearSjf::default();
        let mut now = 0.0;
        for (req, &(bytes, gap, pops)) in steps.iter().enumerate() {
            now += gap;
            heap_q.push(req, bytes, now, req as u64);
            linear_q.push(req, bytes, now);
            for _ in 0..pops {
                let got = heap_q.pop(now);
                let want = linear_q.pop(now, aging_bound_s);
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        prop_assert_eq!(g.entry.req, w.req, "pop order diverged at t={}", now);
                        prop_assert!(!g.amortised, "SJF never amortises seeks");
                    }
                    (g, w) => prop_assert!(false, "emptiness diverged: heap {:?} vs linear {:?}", g, w),
                }
                prop_assert_eq!(heap_q.len(), linear_q.len());
            }
        }
        // Drain the remainder at a late enough time that aging also fires.
        loop {
            now += 7.0;
            let got = heap_q.pop(now);
            let want = linear_q.pop(now, aging_bound_s);
            match (got, want) {
                (None, None) => break,
                (Some(g), Some(w)) => prop_assert_eq!(g.entry.req, w.req),
                (g, w) => prop_assert!(false, "drain diverged: heap {:?} vs linear {:?}", g, w),
            }
        }
        prop_assert!(heap_q.is_empty());
        prop_assert_eq!(linear_q.len(), 0);
    }
}
