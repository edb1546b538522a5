//! Offline API-compatible stand-in for the parts of [`rayon`] this workspace
//! uses: `par_iter()` on slices and vectors with the `map` / `filter` /
//! `map_init` adaptors and `collect` / `sum` reducers, plus
//! [`ThreadPoolBuilder`] + [`ThreadPool::install`] and
//! [`current_num_threads`] to control the degree of parallelism.
//!
//! Work is executed on real OS threads via [`std::thread::scope`]: the input
//! is split into one contiguous chunk per thread, the last chunk is mapped on
//! the calling thread and each other chunk on a scoped thread of its own
//! (with one `map_init` state per chunk, mirroring rayon's per-split init
//! semantics), and the per-chunk outputs are concatenated in input order.
//! There is no work stealing, so throughput is best for uniform workloads —
//! exactly the batch-query pattern this workspace uses.
//!
//! [`rayon`]: https://docs.rs/rayon

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::Cell;

thread_local! {
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of threads parallel iterators currently use: the innermost
/// [`ThreadPool::install`] override, else the `RAYON_NUM_THREADS` environment
/// variable, else the machine's available parallelism.
pub fn current_num_threads() -> usize {
    if let Some(n) = INSTALLED_THREADS.with(Cell::get) {
        return n;
    }
    if let Ok(value) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = value.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads; 0 means "use the default".
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            Some(0) | None => std::thread::available_parallelism().map_or(1, usize::from),
            Some(n) => n,
        };
        Ok(ThreadPool {
            num_threads: threads,
        })
    }
}

/// A scoped thread-count override, mirroring `rayon::ThreadPool`.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Number of threads this pool runs parallel iterators with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with parallel iterators on this pool's thread count.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let previous = INSTALLED_THREADS.with(|cell| cell.replace(Some(self.num_threads)));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|cell| cell.set(self.0));
            }
        }
        let _restore = Restore(previous);
        op()
    }
}

/// The traits to import for `.par_iter()`, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Conversion into a borrowing parallel iterator, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The borrowed item type.
    type Item: 'data;

    /// Returns a parallel iterator over `&self`'s items.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// A parallel iterator over borrowed items.
pub struct ParIter<'data, T> {
    items: Vec<&'data T>,
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Keeps only the items satisfying `predicate` (applied up front on the
    /// calling thread; the expensive stage is the map that follows).
    pub fn filter<P>(self, predicate: P) -> Self
    where
        P: Fn(&&'data T) -> bool,
    {
        ParIter {
            items: self
                .items
                .into_iter()
                .filter(|item| predicate(item))
                .collect(),
        }
    }

    /// Maps every item in parallel.
    pub fn map<F, R>(self, map: F) -> ParMap<'data, T, F>
    where
        F: Fn(&'data T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            map,
        }
    }

    /// Maps every item in parallel with per-chunk state built by `init` —
    /// rayon's estimator-factory pattern.
    pub fn map_init<INIT, S, F, R>(self, init: INIT, map: F) -> ParMapInit<'data, T, INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &'data T) -> R + Sync,
        R: Send,
    {
        ParMapInit {
            items: self.items,
            init,
            map,
        }
    }
}

/// The result of [`ParIter::map`].
pub struct ParMap<'data, T, F> {
    items: Vec<&'data T>,
    map: F,
}

impl<'data, T: Sync, F> ParMap<'data, T, F> {
    /// Runs the pipeline and collects the outputs in input order.
    pub fn collect<R, C>(self) -> C
    where
        F: Fn(&'data T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let map = self.map;
        run_chunked(self.items, &|chunk| {
            chunk.iter().map(|item| map(item)).collect()
        })
        .into_iter()
        .collect()
    }

    /// Runs the pipeline and sums the outputs.
    pub fn sum<R>(self) -> R
    where
        F: Fn(&'data T) -> R + Sync,
        R: Send + std::iter::Sum<R>,
    {
        self.collect::<R, Vec<R>>().into_iter().sum()
    }
}

/// The result of [`ParIter::map_init`].
pub struct ParMapInit<'data, T, INIT, F> {
    items: Vec<&'data T>,
    init: INIT,
    map: F,
}

impl<'data, T: Sync, INIT, F> ParMapInit<'data, T, INIT, F> {
    /// Runs the pipeline and collects the outputs in input order.
    pub fn collect<S, R, C>(self) -> C
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &'data T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let (init, map) = (self.init, self.map);
        run_chunked(self.items, &|chunk| {
            let mut state = init();
            chunk.iter().map(|item| map(&mut state, item)).collect()
        })
        .into_iter()
        .collect()
    }

    /// Runs the pipeline and sums the outputs.
    pub fn sum<S, R>(self) -> R
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &'data T) -> R + Sync,
        R: Send + std::iter::Sum<R>,
    {
        self.collect::<S, R, Vec<R>>().into_iter().sum()
    }
}

/// Splits `items` into one contiguous chunk per thread, runs `work` on the
/// last chunk on the calling thread and on each other chunk on its own
/// scoped thread, and concatenates the outputs in order.
fn run_chunked<'data, T, R>(
    items: Vec<&'data T>,
    work: &(dyn Fn(&[&'data T]) -> Vec<R> + Sync),
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = current_num_threads().max(1);
    if threads == 1 || items.len() <= 1 {
        return work(&items);
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut chunks = items.chunks(chunk_size);
    let last = chunks.next_back().expect("at least two items");
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        let tail = work(last);
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("parallel worker panicked"));
        }
        out.extend(tail);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::ThreadPoolBuilder;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_runs_init_per_chunk() {
        let input: Vec<u32> = (0..100).collect();
        let out: Vec<u32> = input
            .par_iter()
            .map_init(
                || 1u32,
                |state, &x| {
                    *state += 1;
                    x + *state - *state // value independent of chunk state
                },
            )
            .collect();
        assert_eq!(out, input);
    }

    #[test]
    fn filter_then_map_init() {
        let input: Vec<i64> = (-50..50).collect();
        let out: Vec<i64> = input
            .par_iter()
            .filter(|&&x| x >= 0)
            .map_init(|| (), |(), &x| x * x)
            .collect();
        assert_eq!(out, (0..50).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sum_matches_sequential() {
        let input: Vec<f64> = (0..257).map(|x| x as f64).collect();
        let total: f64 = input.par_iter().map_init(|| (), |(), &x| x).sum();
        assert_eq!(total, (0..257).map(|x| x as f64).sum::<f64>());
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(super::current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn one_thread_equals_many_threads() {
        let input: Vec<u64> = (0..333).collect();
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let many = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let a: Vec<u64> = single.install(|| input.par_iter().map(|&x| x * 3).collect());
        let b: Vec<u64> = many.install(|| input.par_iter().map(|&x| x * 3).collect());
        assert_eq!(a, b);
    }
}
