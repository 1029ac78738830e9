//! A fixed reference loop that calls none of the workspace's code, timed
//! to estimate how fast the host runs right now.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the table the loop updates at random: 256 KiB of `u64`,
/// so the loop runs from the core's caches.
const TABLE: usize = 1 << 15;
/// Events the loop pushes through its heap.
const STEPS: u64 = 5_000_000;

/// Host seconds of one pass of the reference loop: a 128-entry binary
/// heap of timed events (the shape of a discrete-event loop), an xorshift
/// generator, floating-point arithmetic and random read-modify-writes
/// across a cache-sized table.
pub fn calibrate() -> f64 {
    let mut table = vec![0u64; TABLE];
    let mut heap = BinaryHeap::with_capacity(256);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..128u64 {
        heap.push(Reverse((next() >> 11, i)));
    }
    let t = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        let Reverse((time, id)) = heap.pop().unwrap_or(Reverse((0, 0)));
        let r = next();
        let slot = (r as usize) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(id ^ time);
        acc += ((r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).ln_1p();
        heap.push(Reverse((time + (r & 0xffff), id)));
    }
    black_box((&table, acc));
    t.elapsed().as_secs_f64()
}
