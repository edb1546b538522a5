//! Rayon thread-pool plumbing shared by the batch-mode commands.
//!
//! Commands take a `--threads N` option where `N > 0` pins a dedicated
//! worker pool and `0` (the default) means "use the rayon default pool".
//! Batch output is bit-identical either way (vertex-keyed RNG streams), so
//! the choice is purely about resource control.

use crate::CliError;

/// Builds the pinned pool for `--threads N`, or `None` for `N == 0` (run in
/// the rayon default pool).  Build the pool **once** per command run and
/// reuse it across rounds — pools spawn OS threads.
pub fn build_thread_pool(threads: usize) -> Result<Option<rayon::ThreadPool>, CliError> {
    if threads == 0 {
        return Ok(None);
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map(Some)
        .map_err(|e| CliError::new(format!("cannot build thread pool: {e}")))
}

/// Runs `f` inside the pinned pool when one was built, or inline (rayon
/// default pool) otherwise.
pub fn install_in<R>(pool: Option<&rayon::ThreadPool>, f: impl FnOnce() -> R) -> R {
    match pool {
        Some(pool) => pool.install(f),
        None => f(),
    }
}

/// The human-readable `threads = …` description used in command output.
pub fn describe_threads(threads: usize) -> String {
    if threads > 0 {
        threads.to_string()
    } else {
        "rayon default".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_means_no_pinned_pool() {
        assert!(build_thread_pool(0).unwrap().is_none());
        assert_eq!(describe_threads(0), "rayon default");
    }

    #[test]
    fn pinned_pool_runs_the_closure() {
        let pool = build_thread_pool(2).unwrap();
        assert!(pool.is_some());
        assert_eq!(install_in(pool.as_ref(), || 21 * 2), 42);
        assert_eq!(install_in(None, || 7), 7);
        assert_eq!(describe_threads(2), "2");
    }
}
