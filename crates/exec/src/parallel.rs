//! Deterministic work-stealing fan-out over index ranges.
//!
//! Metrics kernels process items (nodes, BFS sources, edges) that vary
//! wildly in cost on heavy-tailed graphs — a hub's neighbor scan can be
//! orders of magnitude more work than a fringe node's. Static even-split
//! chunking leaves threads idle behind whichever chunk drew the hubs, so
//! this module steals work dynamically instead: items are cut into a
//! **fixed chunk grid** that depends only on the item count, and worker
//! threads claim chunks from a shared [`AtomicUsize`] cursor.
//!
//! Because the grid never changes with the thread count, and per-chunk
//! results reach the caller **in chunk order** (a chunk that finishes ahead
//! of its turn waits in a reorder buffer), every
//! output — including floating-point accumulations, whose value depends on
//! summation order — is bit-identical for any `threads ≥ 1`. The
//! single-thread path runs the same chunks in the same order inline, so it
//! produces the same bits too.
//!
//! Worker panics are caught per chunk and re-raised on the calling thread
//! with the failing item range in the message, instead of an anonymous
//! "worker panicked".

use crate::cancel::{CancelToken, Cancelled};
use crate::fence::PanicFence;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the number of chunks in a grid. Small enough that
/// per-chunk partial buffers stay cheap, large enough that work stealing
/// can balance hub-heavy chunks across any realistic core count.
const MAX_CHUNKS: usize = 64;

/// Default worker count: the machine's available parallelism, clamped to
/// at least 1 when the capacity cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

/// Chunk length of the fixed grid for `len` items. Depends only on `len`.
pub fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(1)
}

/// The fixed chunk grid for `len` items: consecutive, non-overlapping
/// ranges covering `0..len`, at most `MAX_CHUNKS` of them. Empty for
/// `len == 0`.
pub fn chunk_grid(len: usize) -> Vec<Range<usize>> {
    let size = chunk_size(len);
    (0..len.div_ceil(size))
        .map(|c| c * size..((c + 1) * size).min(len))
        .collect()
}

/// Runs `work` over every chunk of the fixed grid for `len` items, fanning
/// chunks out across up to `threads` work-stealing workers, and returns the
/// per-chunk results **in chunk order**.
///
/// Each worker builds one scratch value with `make_scratch` and reuses it
/// for every chunk it claims, so expensive per-worker buffers (BFS queues,
/// distance arrays) are allocated `O(threads)` times, not `O(chunks)`.
///
/// The chunk grid and the returned order depend only on `len`, never on
/// `threads`, so callers that fold the returned partials in order get
/// bit-identical results for any thread count.
///
/// # Panics
///
/// If `work` panics, the panic is propagated on the calling thread with a
/// message naming the item range that failed.
pub fn fanout_ordered<S, T, FS, FW>(
    len: usize,
    threads: usize,
    make_scratch: FS,
    work: FW,
) -> Vec<T>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, Range<usize>) -> T + Sync,
{
    let mut parts = Vec::new();
    // Without a token no worker ever stops early, so the result is always
    // `Ok`.
    let _ = fanout_in_order(len, threads, None, make_scratch, work, |t| parts.push(t));
    parts
}

/// [`fanout_ordered`] with cooperative cancellation: workers poll `token`
/// **before claiming each chunk** and stop claiming once it is cancelled,
/// so cancel latency is bounded by one chunk of work.
///
/// Returns `Err(Cancelled)` if any chunk was left unprocessed because of
/// the cancellation. If the token fires after every chunk has already been
/// claimed, the complete, bit-identical result is returned as `Ok` — a
/// finished computation is never discarded.
pub fn try_fanout_ordered<S, T, FS, FW>(
    len: usize,
    threads: usize,
    token: &CancelToken,
    make_scratch: FS,
    work: FW,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, Range<usize>) -> T + Sync,
{
    let mut parts = Vec::new();
    fanout_in_order(len, threads, Some(token), make_scratch, work, |t| {
        parts.push(t)
    })?;
    Ok(parts)
}

/// [`fanout_ordered`] with the chunk partials folded instead of collected.
/// Returns `None` when `len == 0` (no chunks). The fold runs on the calling
/// thread in chunk order, so float accumulations stay bit-identical for any
/// thread count.
///
/// Partials are folded **as they arrive**: a chunk that finishes ahead of
/// its turn waits until every earlier chunk is folded, so only those
/// stragglers are alive at once instead of one partial per chunk.
pub fn fanout_reduce<S, T, FS, FW, FM>(
    len: usize,
    threads: usize,
    make_scratch: FS,
    work: FW,
    mut fold: FM,
) -> Option<T>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, Range<usize>) -> T + Sync,
    FM: FnMut(T, T) -> T,
{
    let mut acc: Option<T> = None;
    let _ = fanout_in_order(len, threads, None, make_scratch, work, |t| {
        acc = Some(match acc.take() {
            Some(a) => fold(a, t),
            None => t,
        })
    });
    acc
}

/// Shared work-stealing core: runs every chunk of the grid and hands each
/// result to `sink` on the calling thread, **in chunk order**, as soon as
/// every earlier chunk has been handed over. A chunk that finishes ahead of
/// its turn waits in a reorder buffer. With `token: None` the claim loop
/// never stops early and the result is always `Ok`.
fn fanout_in_order<S, T, FS, FW>(
    len: usize,
    threads: usize,
    token: Option<&CancelToken>,
    make_scratch: FS,
    work: FW,
    mut sink: impl FnMut(T),
) -> Result<(), Cancelled>
where
    T: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, Range<usize>) -> T + Sync,
{
    let grid = chunk_grid(len);
    let threads = threads.max(1).min(grid.len().max(1));
    let cancelled = || token.map(CancelToken::is_cancelled).unwrap_or(false);
    if threads <= 1 || grid.len() <= 1 {
        let mut scratch = make_scratch();
        for range in grid {
            if cancelled() {
                return Err(Cancelled);
            }
            sink(run_chunk(&work, &mut scratch, range));
        }
        return Ok(());
    }

    type Payload = Box<dyn std::any::Any + Send + 'static>;
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<T, Payload>)>();
    let (delivered, failure) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (cursor, grid, make_scratch, work) = (&cursor, &grid, &make_scratch, &work);
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    loop {
                        if cancelled() {
                            return;
                        }
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = grid.get(c).cloned() else {
                            return;
                        };
                        let attempt = catch_unwind(AssertUnwindSafe(|| work(&mut scratch, range)));
                        let failed = attempt.is_err();
                        if tx.send((c, attempt)).is_err() || failed {
                            return;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut pending = std::collections::BTreeMap::new();
        let mut next = 0usize;
        let mut failure: Option<(usize, Payload)> = None;
        for (c, attempt) in rx {
            match attempt {
                Ok(t) => {
                    pending.insert(c, t);
                    while let Some(t) = pending.remove(&next) {
                        sink(t);
                        next += 1;
                    }
                }
                // Report the earliest failing chunk so the message is
                // deterministic when several workers panic at once.
                Err(payload) => {
                    if failure.as_ref().map_or(true, |(f, _)| c < *f) {
                        failure = Some((c, payload));
                    }
                }
            }
        }
        // A panic outside `work` (in `make_scratch`) is re-raised as is.
        for h in handles {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
        (next, failure)
    });
    // Not a new failure mode: re-raises the caught worker panic with the
    // failing range attached, for the caller's containment layer.
    #[allow(clippy::panic)]
    if let Some((c, payload)) = failure {
        panic!(
            "parallel worker panicked on items {}..{}: {}",
            grid[c].start,
            grid[c].end,
            PanicFence::message(&*payload)
        );
    }
    // Only reachable under cancellation: every chunk is otherwise claimed
    // and delivered.
    if delivered < grid.len() {
        return Err(Cancelled);
    }
    Ok(())
}

/// Single-threaded chunk execution with the same range-naming panic
/// message as the threaded path.
fn run_chunk<S, T, FW>(work: &FW, scratch: &mut S, range: Range<usize>) -> T
where
    FW: Fn(&mut S, Range<usize>) -> T,
{
    match catch_unwind(AssertUnwindSafe(|| work(scratch, range.clone()))) {
        Ok(t) => t,
        // Same contract as the threaded path: re-raise with the range.
        #[allow(clippy::panic)]
        Err(payload) => panic!(
            "parallel worker panicked on items {}..{}: {}",
            range.start,
            range.end,
            PanicFence::message(&*payload)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_range_without_overlap() {
        for len in [0usize, 1, 5, 63, 64, 65, 1000, 12345] {
            let grid = chunk_grid(len);
            assert!(grid.len() <= MAX_CHUNKS, "len {len}: {} chunks", grid.len());
            let mut next = 0usize;
            for r in &grid {
                assert_eq!(r.start, next, "len {len}");
                assert!(r.end > r.start, "len {len}: empty chunk");
                next = r.end;
            }
            assert_eq!(next, len, "len {len}: grid must cover 0..len");
        }
    }

    #[test]
    fn grid_is_independent_of_thread_count() {
        // The grid is a pure function of len — this is what makes merged
        // float sums bit-identical across thread counts.
        assert_eq!(chunk_grid(777), chunk_grid(777));
    }

    #[test]
    fn ordered_results_match_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..1000u64).map(|i| i * i % 97).collect();
        let expect: Vec<u64> = chunk_grid(items.len())
            .into_iter()
            .map(|r| items[r].iter().sum())
            .collect();
        for threads in [1, 2, 3, 7, 16] {
            let got = fanout_ordered(
                items.len(),
                threads,
                || 0u64,
                |calls, r| {
                    *calls += 1;
                    items[r].iter().sum::<u64>()
                },
            );
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn reduce_folds_in_chunk_order() {
        // Collect chunk start indices through the fold; order must be the
        // grid order regardless of thread count.
        for threads in [1, 4] {
            let folded = fanout_reduce(
                300,
                threads,
                || (),
                |_, r| vec![r.start],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .expect("non-empty");
            let expect: Vec<usize> = chunk_grid(300).into_iter().map(|r| r.start).collect();
            assert_eq!(folded, expect, "threads {threads}");
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let got: Vec<u32> = fanout_ordered(0, 4, || (), |_, _| unreachable!());
        assert!(got.is_empty());
        assert_eq!(fanout_reduce(0, 4, || (), |_, _| 1u32, |a, b| a + b), None);
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // With 1 thread every chunk shares one scratch, so the counter sees
        // every chunk.
        let counts = fanout_ordered(
            640,
            1,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts.last().copied(), Some(chunk_grid(640).len()));
    }

    #[test]
    fn worker_panic_names_the_failing_range() {
        for threads in [1, 3] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                fanout_ordered(
                    100,
                    threads,
                    || (),
                    |_, r: Range<usize>| {
                        if r.contains(&42) {
                            panic!("boom on purpose");
                        }
                        0u8
                    },
                )
            }));
            let payload = result.expect_err("must propagate the panic");
            let msg = PanicFence::message(&*payload);
            assert!(
                msg.contains("parallel worker panicked on items") && msg.contains("boom"),
                "threads {threads}: message was {msg:?}"
            );
        }
    }

    #[test]
    fn reduce_panic_names_the_earliest_failing_range() {
        for threads in [1, 3] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                fanout_reduce(
                    100,
                    threads,
                    || (),
                    |_, r: Range<usize>| {
                        if r.start >= 40 {
                            panic!("boom on purpose");
                        }
                        r.len()
                    },
                    |a, b| a + b,
                )
            }));
            let payload = result.expect_err("must propagate the panic");
            let msg = PanicFence::message(&*payload);
            let first = chunk_grid(100).into_iter().find(|r| r.start >= 40).unwrap();
            let range = format!("items {}..{}:", first.start, first.end);
            assert!(
                msg.contains(&range) && msg.contains("boom"),
                "threads {threads}: message was {msg:?}"
            );
        }
    }

    #[test]
    fn reduce_folds_partials_as_they_arrive() {
        // Every chunk's partial holds a token that the fold drops. On one
        // thread only the accumulator and the newest partial are ever
        // alive, not one partial per chunk.
        use std::sync::Arc;

        /// Counts itself in `alive` until dropped.
        struct Token(Arc<AtomicUsize>);
        impl Drop for Token {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let alive = Arc::new(AtomicUsize::new(0));
        let mut peak = 0;
        let total = fanout_reduce(
            6400,
            1,
            || (),
            |_, r: Range<usize>| {
                alive.fetch_add(1, Ordering::SeqCst);
                (r.len(), Some(Token(Arc::clone(&alive))))
            },
            |(a, _), (b, _)| {
                peak = peak.max(alive.load(Ordering::SeqCst));
                (a + b, None)
            },
        )
        .map(|(n, _)| n);
        assert_eq!(total, Some(6400));
        assert_eq!(peak, 2);
        assert_eq!(alive.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
