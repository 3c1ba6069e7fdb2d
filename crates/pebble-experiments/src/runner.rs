//! How many workers the experiment suite and the benchmark harness use.
//!
//! Both sweep independent DAG workloads on [`pebble_sched::par_map`], the
//! one scoped-thread work queue of the workspace: results come back *in
//! input order*, and a worker panic propagates to the caller (so a failing
//! experiment still fails the process). This module picks its thread count,
//! honouring the `PRBP_THREADS` override.

/// Parse a `PRBP_THREADS`-style override. Returns `Some(n)` for a parseable
/// value, clamped to at least 1 worker (`"0"` means "run sequentially", not
/// "run nothing"); `None` for an absent, empty or unparseable value, so the
/// caller falls back to the hardware default.
pub fn threads_from_env(value: Option<&str>) -> Option<usize> {
    let v = value?.trim();
    if v.is_empty() {
        return None;
    }
    v.parse::<usize>().ok().map(|n| n.max(1))
}

/// Number of worker threads to use by default: the `PRBP_THREADS` environment
/// variable when set to a positive integer (so CI and benchmark runs can pin
/// worker counts), otherwise the available hardware parallelism, or 1 if that
/// cannot be determined.
pub fn default_threads() -> usize {
    if let Some(n) = threads_from_env(std::env::var("PRBP_THREADS").ok().as_deref()) {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_sched::par_map;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..100).collect(), 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = par_map(vec!["a", "b"], 1, |s| s.to_uppercase());
        assert_eq!(out, vec!["A", "B"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map(Vec::<usize>::new(), 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped() {
        let out = par_map(vec![1, 2, 3], 64, |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_override_parses_positive_integers() {
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 12 ")), Some(12));
        assert_eq!(threads_from_env(Some("1")), Some(1));
    }

    #[test]
    fn env_override_clamps_zero_to_one() {
        assert_eq!(threads_from_env(Some("0")), Some(1));
    }

    #[test]
    fn env_override_rejects_garbage() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("  ")), None);
        assert_eq!(threads_from_env(Some("lots")), None);
        assert_eq!(threads_from_env(Some("-3")), None);
        assert_eq!(threads_from_env(Some("3.5")), None);
    }
}
