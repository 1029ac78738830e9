//! Windowed time-series metrics: tumbling-window collectors that turn the
//! end-of-run aggregate into a per-window series without disturbing it.
//!
//! The design mirrors the sharded-merge story everywhere else in this
//! crate: every disk owns its own [`DiskWindows`] collector, fed by the
//! actor (energy, split exactly across window boundaries) and the engine
//! (completions, backlog observations, fault counters) at event instants.
//! Because the per-disk event sequence is shard-invariant, each per-disk
//! collector is bit-identical at any shard count; the fleet-level series
//! is then a pure derivation — [`WindowedReport::derive`] folds the
//! per-disk collectors in ascending global disk order, window by window —
//! so the derived rows are bit-identical too. The report assembly every
//! run ends in derives the series once, from the per-disk collectors put
//! in global disk order, whatever the shard count.
//!
//! Window arithmetic: window `w` covers `[w·width, (w+1)·width)`. A run
//! that finishes at `t_end` pads every collector to
//! `floor(t_end / width) + 1` windows so an event stamped exactly `t_end`
//! (the common sharded finish instant) always has a window, and every
//! shard agrees on the series length.
//!
//! Empty-window contract: a window with zero completions reports
//! `completions = 0` and mean/p95/p99 of `0.0` — never NaN — inheriting
//! the [`ResponseStats`] empty contract. Rendering layers print such rows
//! as explicit empties rather than skipping them, so the series stays
//! dense and machine-diffable.

use crate::metrics::{MetricsMode, ResponseStats};
use serde::{Deserialize, Serialize};

/// Per-disk tumbling-window collector: one slot per elapsed window, each
/// tracking the energy charged into it, the response samples completed in
/// it, the peak backlog observed at event instants within it, and (under
/// fault injection) shed/failed/retried counters.
///
/// Merging two collectors (window-wise) is the same monoid the run-level
/// metrics use: response collectors merge, energy adds, peaks max,
/// counters add. `tests/windowed_merge_prop.rs` pins that an ordered
/// partition of disks merges to the same bits as the bulk fold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskWindows {
    width_s: f64,
    mode: MetricsMode,
    responses: Vec<ResponseStats>,
    energy_j: Vec<f64>,
    peak_queue: Vec<usize>,
    shed: Vec<u64>,
    failed: Vec<u64>,
    retried: Vec<u64>,
}

impl DiskWindows {
    /// Empty collector (the merge identity) with the given tumbling
    /// window width and response-aggregation mode.
    ///
    /// # Panics
    /// If `width_s` is not finite and positive.
    pub fn new(width_s: f64, mode: MetricsMode) -> Self {
        assert!(
            width_s.is_finite() && width_s > 0.0,
            "window width must be finite and positive, got {width_s}"
        );
        DiskWindows {
            width_s,
            mode,
            responses: Vec::new(),
            energy_j: Vec::new(),
            peak_queue: Vec::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            retried: Vec::new(),
        }
    }

    /// Tumbling window width in seconds.
    pub fn width_s(&self) -> f64 {
        self.width_s
    }

    /// Windows materialised so far (all slot vectors share this length).
    pub fn n_windows(&self) -> usize {
        self.responses.len()
    }

    /// Index of the window containing instant `t`.
    fn index(&self, t: f64) -> usize {
        debug_assert!(t.is_finite() && t >= 0.0, "bad window instant {t}");
        (t / self.width_s) as usize
    }

    /// Grow every slot vector to cover window `w`.
    fn ensure(&mut self, w: usize) {
        while self.responses.len() <= w {
            self.responses.push(ResponseStats::with_mode(self.mode));
            self.energy_j.push(0.0);
            self.peak_queue.push(0);
            self.shed.push(0);
            self.failed.push(0);
            self.retried.push(0);
        }
    }

    /// Record one completed request: bucketed by the instant `t` the
    /// engine records the response sample (arrival-processing time for
    /// cache hits, completion-event time for disk service).
    pub fn record_completion(&mut self, t: f64, response_s: f64) {
        let w = self.index(t);
        self.ensure(w);
        self.responses[w].record(response_s);
    }

    /// Record a shed request (fault injection) at instant `t`.
    pub fn record_shed(&mut self, t: f64) {
        let w = self.index(t);
        self.ensure(w);
        self.shed[w] += 1;
    }

    /// Record a permanently failed request (fault injection) at `t`.
    pub fn record_failed(&mut self, t: f64) {
        let w = self.index(t);
        self.ensure(w);
        self.failed[w] += 1;
    }

    /// Record a retried request (fault injection) at instant `t`.
    pub fn record_retried(&mut self, t: f64) {
        let w = self.index(t);
        self.ensure(w);
        self.retried[w] += 1;
    }

    /// Observe the backlog depth at an event instant; the per-window
    /// figure is the peak over these observations (the same enqueue-site
    /// discipline as the run-level `peak_disk_queue`).
    pub fn observe_queue(&mut self, t: f64, depth: usize) {
        let w = self.index(t);
        self.ensure(w);
        if depth > self.peak_queue[w] {
            self.peak_queue[w] = depth;
        }
    }

    /// Charge `power_w` watts over `[from, to)`, split exactly across
    /// window boundaries so each window integrates only the time spent
    /// inside it.
    pub fn add_energy(&mut self, from: f64, to: f64, power_w: f64) {
        if to <= from {
            return;
        }
        let mut t = from;
        let mut w = self.index(from);
        while t < to {
            let boundary = (w as f64 + 1.0) * self.width_s;
            // Guard against a degenerate boundary (possible only at
            // astronomical window counts where w+1 is not representable):
            // fall through to the segment end rather than spinning.
            let seg_end = if boundary > t { boundary.min(to) } else { to };
            self.ensure(w);
            self.energy_j[w] += power_w * (seg_end - t);
            t = seg_end;
            w += 1;
        }
    }

    /// Close the collector at the run's end instant: pads the slot
    /// vectors to `floor(t_end / width) + 1` windows so every shard (all
    /// of which finish at the same `t_end`) agrees on the series length.
    pub fn finish(&mut self, t_end: f64) {
        self.ensure(self.index(t_end));
    }

    /// Window-wise merge (the shard/disk fold): responses merge, energy
    /// adds, peaks max, counters add. Widths and modes must agree.
    pub fn merge(&mut self, other: &DiskWindows) {
        assert!(
            self.width_s == other.width_s,
            "window width mismatch: {} vs {}",
            self.width_s,
            other.width_s
        );
        assert!(self.mode == other.mode, "window metrics-mode mismatch");
        self.ensure(other.n_windows().saturating_sub(1));
        for w in 0..other.n_windows() {
            self.responses[w].merge(&other.responses[w]);
            self.energy_j[w] += other.energy_j[w];
            if other.peak_queue[w] > self.peak_queue[w] {
                self.peak_queue[w] = other.peak_queue[w];
            }
            self.shed[w] += other.shed[w];
            self.failed[w] += other.failed[w];
            self.retried[w] += other.retried[w];
        }
    }
}

/// One fleet-level window of the derived series. All quantities follow
/// the empty-window contract: a window with `completions == 0` reports
/// zeros (never NaN) for the response columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowRow {
    /// Window start instant (inclusive), `w * width`.
    pub start_s: f64,
    /// Window end instant (exclusive), `(w + 1) * width`. The final
    /// window's nominal end may extend past the run's `t_end`.
    pub end_s: f64,
    /// Requests whose response sample was recorded in this window.
    pub completions: u64,
    /// Mean response over the window's completions (0 when empty).
    pub mean_s: f64,
    /// 95th-percentile response over the window (0 when empty).
    pub p95_s: f64,
    /// 99th-percentile response over the window (0 when empty).
    pub p99_s: f64,
    /// Fleet energy integrated over the window, joules.
    pub energy_j: f64,
    /// Peak backlog depth observed at event instants in the window,
    /// maxed across disks.
    pub peak_queue: usize,
    /// Requests shed in the window (0 unless a fault plan is active).
    pub shed: u64,
    /// Requests permanently failed in the window (0 unless faulted).
    pub failed: u64,
    /// Retries scheduled in the window (0 unless faulted).
    pub retried: u64,
}

/// The windowed series attached to a [`crate::metrics::SimReport`] when
/// `SimConfig::windows` is set: the derived fleet-level rows plus the
/// per-disk collectors they were derived from, in ascending global disk
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedReport {
    /// Tumbling window width in seconds.
    pub width_s: f64,
    /// True when a fault plan was active — the availability columns
    /// (completed/shed/failed/retried) are only rendered in this case.
    pub faulted: bool,
    /// Fleet-level series, one row per window, dense from `t = 0`.
    pub rows: Vec<WindowRow>,
    /// Per-disk collectors in ascending global disk order.
    pub per_disk: Vec<DiskWindows>,
}

impl WindowedReport {
    /// Derive the fleet-level series from per-disk collectors by folding
    /// them in ascending global disk order, window by window. The report
    /// assembly calls it once per run, on the per-disk collectors in global
    /// order, which is what makes the series bit-identical at any shard
    /// count.
    pub fn derive(width_s: f64, per_disk: Vec<DiskWindows>, faulted: bool) -> Self {
        let mode = per_disk.first().map_or(MetricsMode::Exact, |d| d.mode);
        let mut fleet = DiskWindows::new(width_s, mode);
        for d in &per_disk {
            fleet.merge(d);
        }
        let mut rows = Vec::with_capacity(fleet.n_windows());
        for w in 0..fleet.n_windows() {
            let resp = &mut fleet.responses[w];
            let completions = resp.len() as u64;
            let mean_s = resp.mean();
            let p95_s = resp.quantile(0.95);
            let p99_s = resp.quantile(0.99);
            rows.push(WindowRow {
                start_s: w as f64 * width_s,
                end_s: (w as f64 + 1.0) * width_s,
                completions,
                mean_s,
                p95_s,
                p99_s,
                energy_j: fleet.energy_j[w],
                peak_queue: fleet.peak_queue[w],
                shed: fleet.shed[w],
                failed: fleet.failed[w],
                retried: fleet.retried[w],
            });
        }
        WindowedReport {
            width_s,
            faulted,
            rows,
            per_disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_splits_exactly_across_boundaries() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        // 4 W over [5, 25): 5 s in window 0, 10 s in window 1, 5 s in
        // window 2 — all dyadic, so the split is bit-exact.
        w.add_energy(5.0, 25.0, 4.0);
        assert_eq!(w.n_windows(), 3);
        assert_eq!(w.energy_j, vec![20.0, 40.0, 20.0]);
    }

    #[test]
    fn energy_segment_inside_one_window_does_not_split() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.add_energy(12.0, 18.0, 2.0);
        assert_eq!(w.n_windows(), 2);
        assert_eq!(w.energy_j, vec![0.0, 12.0]);
    }

    #[test]
    fn empty_segment_charges_nothing() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.add_energy(5.0, 5.0, 100.0);
        assert_eq!(w.n_windows(), 0);
    }

    #[test]
    fn finish_pads_to_common_length_including_t_end_instant() {
        let mut w = DiskWindows::new(60.0, MetricsMode::Exact);
        w.record_completion(30.0, 0.5);
        // t_end exactly on a boundary still owns a window, because a
        // sample stamped exactly t_end indexes into it.
        w.finish(600.0);
        assert_eq!(w.n_windows(), 11);
        w.record_completion(600.0, 0.25);
        assert_eq!(w.n_windows(), 11);
    }

    #[test]
    fn empty_windows_report_zeros_not_nan() {
        // A dead interval between two bursts: windows 1..=2 see nothing.
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.record_completion(3.0, 0.5);
        w.record_completion(35.0, 0.7);
        w.finish(39.0);
        let report = WindowedReport::derive(10.0, vec![w], false);
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows[1..3] {
            assert_eq!(row.completions, 0);
            assert_eq!(row.mean_s, 0.0);
            assert_eq!(row.p95_s, 0.0);
            assert_eq!(row.p99_s, 0.0);
            assert!(row.mean_s.is_finite() && row.p95_s.is_finite());
        }
        assert_eq!(report.rows[0].completions, 1);
        assert_eq!(report.rows[3].completions, 1);
    }

    #[test]
    fn merge_is_window_wise_and_identity_on_empty() {
        let mut a = DiskWindows::new(10.0, MetricsMode::Exact);
        a.record_completion(1.0, 0.5);
        a.add_energy(0.0, 10.0, 1.0);
        a.observe_queue(1.0, 3);
        let mut b = DiskWindows::new(10.0, MetricsMode::Exact);
        b.record_completion(12.0, 0.25);
        b.add_energy(10.0, 20.0, 2.0);
        b.observe_queue(12.0, 5);
        b.record_shed(12.0);

        let mut merged = DiskWindows::new(10.0, MetricsMode::Exact);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.n_windows(), 2);
        assert_eq!(merged.energy_j, vec![10.0, 20.0]);
        assert_eq!(merged.peak_queue, vec![3, 5]);
        assert_eq!(merged.shed, vec![0, 1]);

        // Merging the identity changes nothing.
        let before = merged.clone();
        merged.merge(&DiskWindows::new(10.0, MetricsMode::Exact));
        assert_eq!(merged, before);
    }

    #[test]
    #[should_panic(expected = "window width mismatch")]
    fn merge_rejects_width_mismatch() {
        let mut a = DiskWindows::new(10.0, MetricsMode::Exact);
        a.merge(&DiskWindows::new(20.0, MetricsMode::Exact));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_width_rejected() {
        let _ = DiskWindows::new(0.0, MetricsMode::Exact);
    }

    #[test]
    fn derive_folds_disks_in_order() {
        let mut d0 = DiskWindows::new(10.0, MetricsMode::Exact);
        d0.record_completion(1.0, 0.5);
        d0.add_energy(0.0, 10.0, 1.0);
        let mut d1 = DiskWindows::new(10.0, MetricsMode::Exact);
        d1.record_completion(2.0, 0.25);
        d1.add_energy(0.0, 10.0, 2.0);
        d0.finish(10.0);
        d1.finish(10.0);
        let report = WindowedReport::derive(10.0, vec![d0, d1], false);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].completions, 2);
        assert_eq!(report.rows[0].energy_j, 30.0);
        assert_eq!(report.rows[0].mean_s, 0.375);
        assert_eq!(report.per_disk.len(), 2);
    }
}
