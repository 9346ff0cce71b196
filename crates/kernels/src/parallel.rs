//! Thread-pool helpers for the multithreaded kernel variants.
//!
//! All parallel kernels partition their *output* rows into disjoint chunks
//! and hand each chunk to one scoped thread, so no synchronization beyond
//! the final join is needed and results are bit-identical to the
//! sequential variants.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Scoped [`with_workers`] override, highest precedence.
    static FORCED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `SPARSEFLEX_WORKERS` parsed once per process (invalid or zero values
/// are ignored).
fn env_workers() -> Option<usize> {
    static ENV_WORKERS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_WORKERS.get_or_init(|| {
        std::env::var("SPARSEFLEX_WORKERS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Number of worker threads to use for `work_items` independent units of
/// work, always in `1..=work_items.max(1)`.
///
/// Precedence of the thread-count source (highest first):
/// 1. a [`with_workers`] scope active on the calling thread — benches and
///    the parallel-vs-sequential equality tests pin exact counts this way;
/// 2. the `SPARSEFLEX_WORKERS` environment variable (parsed once per
///    process; zero or unparsable values are ignored) — CI runs set this
///    for reproducible behavior on any core count;
/// 3. the machine's [`std::thread::available_parallelism`].
pub fn worker_count(work_items: usize) -> usize {
    let base = FORCED_WORKERS
        .with(Cell::get)
        .or_else(env_workers)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    base.min(work_items).max(1)
}

/// Run `f` with [`worker_count`] pinned to exactly `n` on this thread
/// (still capped by each call site's work-item count). Scopes nest; the
/// previous value is restored on exit, including on unwind.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_WORKERS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED_WORKERS.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Split `data` into one disjoint mutable slice per partition range, where
/// each range covers `stride` elements per unit (`data[r.start * stride ..
/// r.end * stride]`). Ranges must be ascending and tile `0..data.len() /
/// stride` — exactly what the stream partitioners produce.
pub fn split_at_ranges<'a, T>(
    mut data: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        debug_assert_eq!(r.start, consumed, "ranges must tile contiguously");
        let take = (r.end - r.start) * stride;
        let (head, tail) = data.split_at_mut(take);
        out.push(head);
        data = tail;
        consumed = r.end;
    }
    debug_assert!(data.is_empty(), "ranges must cover the whole slice");
    out
}

/// `0..len` cut into at most `parts` contiguous ranges of near-equal
/// length (none when `len` is 0).
pub fn even_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let step = len.div_ceil(parts.max(1)).max(1);
    (0..len)
        .step_by(step)
        .map(|s| s..(s + step).min(len))
        .collect()
}

/// Run `f(range, slice)` for every partition range, one scoped thread per
/// range, where `slice` is the range's disjoint window of `data` cut by
/// [`split_at_ranges`] (`stride` elements per unit). A single range runs
/// on the calling thread.
pub fn par_chunks<T: Send, F>(data: &mut [T], ranges: &[Range<usize>], stride: usize, f: F)
where
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let slices = split_at_ranges(data, ranges, stride);
    if slices.len() <= 1 {
        for (range, slice) in ranges.iter().cloned().zip(slices) {
            f(range, slice);
        }
        return;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the generic chunked fan-out is a sanctioned spawn site"
    )]
    std::thread::scope(|s| {
        for (range, slice) in ranges.iter().cloned().zip(slices) {
            let f = &f;
            s.spawn(move || f(range, slice));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn with_workers_pins_and_restores() {
        let outside = worker_count(64);
        with_workers(7, || {
            assert_eq!(worker_count(64), 7);
            assert_eq!(worker_count(3), 3, "work cap still applies");
            with_workers(2, || assert_eq!(worker_count(64), 2));
            assert_eq!(worker_count(64), 7, "nested scope must restore");
        });
        assert_eq!(worker_count(64), outside);
        with_workers(0, || assert_eq!(worker_count(64), 1, "zero clamps to 1"));
    }

    #[test]
    fn split_at_ranges_yields_disjoint_strided_slices() {
        let mut v: Vec<usize> = (0..24).collect();
        let slices = split_at_ranges(&mut v, &[0..2, 2..3, 3..8], 3);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(slices[1], &[6, 7, 8]);
        assert_eq!(slices[2].len(), 15);
        let empty = split_at_ranges(&mut [] as &mut [usize], &[], 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn even_ranges_tile_the_length() {
        assert_eq!(even_ranges(10, 3), vec![0..4, 4..8, 8..10]);
        assert_eq!(even_ranges(2, 8), vec![0..1, 1..2]);
        assert!(even_ranges(0, 4).is_empty());
        assert_eq!(even_ranges(5, 0), vec![0..5], "zero parts clamps to one");
    }

    #[test]
    fn par_chunks_writes_disjoint() {
        let mut v = vec![0usize; 1000];
        par_chunks(&mut v, &even_ranges(500, 8), 2, |range, chunk| {
            assert_eq!(chunk.len(), range.len() * 2);
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = range.start * 2 + i;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_chunks_single_thread_path() {
        let mut v = vec![1u8; 3];
        par_chunks(&mut v, &even_ranges(3, 1), 1, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert_eq!(v, vec![2, 2, 2]);
    }
}
