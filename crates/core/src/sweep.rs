//! The parallel sweep primitive: an order-preserving map over a slice,
//! fanned across OS threads with `std::thread::scope` (no external
//! thread-pool dependency) and work-stealing via an atomic cursor. Every
//! grid the workspace evaluates — [`crate::JointPlanner::search`]'s cells,
//! the shootout's brackets, the figure sweeps — fans through
//! [`parallel_map`]. Determinism holds because every simulation is seeded
//! by its grid point, never by thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Order-preserving parallel map over `items`, using up to
/// `available_parallelism` scoped threads. Results arrive in input order
/// regardless of which thread computed them.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                // A panicking sibling poisons the mutex; recover the
                // guard so healthy workers still record their results and
                // the *original* panic — not a misleading secondary
                // "poisoned lock" message — propagates from
                // `thread::scope` when it joins the panicked thread.
                let mut slots = results.lock().unwrap_or_else(|e| e.into_inner());
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_indices() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    // A panicking worker poisons the shared results mutex. The map must
    // let that *original* panic propagate out of `thread::scope` (the test
    // harness reports it), not kill every sibling worker with a secondary
    // "poisoned lock" message.
    #[test]
    #[should_panic]
    fn parallel_map_propagates_a_worker_panic() {
        let items: Vec<u64> = (0..64).collect();
        let _ = parallel_map(&items, |_, &x| {
            if x == 13 {
                panic!("worker 13 exploded");
            }
            x
        });
    }

    // `thread::scope` wraps any worker panic in its own message, so the
    // `#[should_panic]` above cannot tell the fixed code from the old
    // `.expect("no poisoned worker")` path — both panic. Pin the fix
    // directly: count the panics the run actually raises via a scoped
    // panic hook. Exactly one worker must panic (the original); siblings
    // must survive the poisoned lock instead of raising secondaries.
    #[test]
    fn parallel_map_poisoned_lock_raises_no_secondary_panics() {
        use std::panic;
        use std::sync::atomic::AtomicUsize;
        static ORIGINAL: AtomicUsize = AtomicUsize::new(0);
        static OTHER_WORKER: AtomicUsize = AtomicUsize::new(0);
        // Forward to the previous hook after counting: the hook is
        // process-global, and tests in this binary run concurrently — a
        // swallowed panic elsewhere would report FAILED with no message.
        let prev = std::sync::Arc::new(panic::take_hook());
        let forward = std::sync::Arc::clone(&prev);
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if msg.contains("worker 29 detonated") {
                ORIGINAL.fetch_add(1, Ordering::SeqCst);
            } else if msg.contains("poisoned") {
                // the old `.expect("no poisoned worker")` message — a
                // sibling died on the lock instead of recovering it.
                // (scope's own "a scoped thread panicked" wrapper on the
                // main thread is expected either way and not counted.)
                OTHER_WORKER.fetch_add(1, Ordering::SeqCst);
            }
            forward(info);
        }));
        let items: Vec<u64> = (0..64).collect();
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            parallel_map(&items, |_, &x| {
                if x == 29 {
                    panic!("worker 29 detonated");
                }
                x
            })
        }));
        drop(panic::take_hook()); // releases the counting hook's Arc clone
        if let Ok(hook) = std::sync::Arc::try_unwrap(prev) {
            panic::set_hook(hook);
        }
        assert!(result.is_err(), "the worker panic must propagate");
        assert_eq!(ORIGINAL.load(Ordering::SeqCst), 1);
        assert_eq!(
            OTHER_WORKER.load(Ordering::SeqCst),
            0,
            "sibling workers died on the poisoned results lock"
        );
    }
}
