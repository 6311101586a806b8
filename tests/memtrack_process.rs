//! Process-wide allocation accounting across threads.
//!
//! Each thread folds its share of the process-wide counters into the
//! shared atomics in batches of [`memtrack::FLUSH_BYTES`]. This suite
//! checks the documented bounds of that scheme with the tracking
//! allocator installed: nothing a thread allocated is lost once it has
//! exited, and the daemon-lifetime peak sees memory held concurrently
//! by many threads, short by at most one batch per thread.
//!
//! It lives in its own binary on purpose. The process-wide live figure
//! counts every thread in the process, so a sibling test freeing memory
//! it allocated before enablement would move it by more than the bound
//! under test.

use std::sync::{Arc, Barrier};

use cognicryptgen::core::memtrack::{self, TrackingAlloc, FLUSH_BYTES};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::new();

const THREADS: usize = 8;

/// The exact payload sizes one thread allocates and holds: one block
/// over the flush threshold plus many small ones, so some of each
/// thread's share is still pending while it holds.
fn chunk_sizes(thread: usize) -> Vec<usize> {
    let mut sizes = vec![64 * 1024 + thread * 1024];
    sizes.extend((0..300).map(|i| 16 + (i * 7 + thread) % 200));
    sizes
}

#[test]
fn process_stats_add_up_across_threads_within_the_flush_bound() {
    memtrack::enable_process_stats();
    let held: usize = (0..THREADS)
        .map(|t| chunk_sizes(t).iter().sum::<usize>())
        .sum();
    let before = memtrack::process_stats().expect("enabled");

    let holding = Arc::new(Barrier::new(THREADS + 1));
    let release = Arc::new(Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let holding = Arc::clone(&holding);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let sizes = chunk_sizes(thread);
                let mut blocks = Vec::with_capacity(sizes.len());
                for size in sizes {
                    blocks.push(vec![thread as u8; size]);
                }
                holding.wait();
                release.wait();
                drop(blocks);
            })
        })
        .collect();
    holding.wait();
    let during = memtrack::process_stats().expect("enabled");
    release.wait();
    for worker in workers {
        worker.join().expect("worker exits cleanly");
    }
    let after = memtrack::process_stats().expect("enabled");

    // Every worker has exited, so its whole share has been flushed.
    assert!(
        after.allocated_bytes >= before.allocated_bytes + held as u64,
        "allocated {} -> {}, held {held}",
        before.allocated_bytes,
        after.allocated_bytes
    );
    // While all of them held their blocks, at most one batch per worker
    // was still pending.
    let bound = THREADS as i64 * FLUSH_BYTES as i64;
    let floor = before.live_bytes + held as i64 - bound;
    assert!(
        during.live_bytes >= floor,
        "live while holding {} < {floor}",
        during.live_bytes
    );
    assert!(
        after.peak_live_bytes >= floor,
        "peak {} < {floor} (held {held}, bound {bound})",
        after.peak_live_bytes
    );
    assert!(after.peak_live_bytes >= during.live_bytes);
    // Freed and flushed: the held bytes no longer count as live.
    assert!(
        after.live_bytes < before.live_bytes + FLUSH_BYTES as i64,
        "live {} -> {} after every worker freed and exited",
        before.live_bytes,
        after.live_bytes
    );
}
