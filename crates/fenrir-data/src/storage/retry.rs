//! Bounded, jittered retry for storage operations.
//!
//! The serving layer's `ResilientClient` established the retry contract
//! this module reuses one layer down: a fixed attempt budget, jittered
//! exponential backoff (seed-deterministic, so tests replay exactly),
//! an overall deadline no sleep may cross, and **typed exhaustion** —
//! when the budget or deadline is spent the caller gets
//! [`Error::Exhausted`] carrying the last underlying failure, never a
//! hang and never a silent partial result.
//!
//! Only failures the backend marked retryable ([`Error::Storage`] with
//! `retryable: true`) are retried; permanent errors pass straight
//! through so a misconfigured key cannot burn a whole budget.

use super::is_retryable;
use fenrir_core::backoff;
use fenrir_core::error::{Error, Result};
use fenrir_core::rng::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic counters describing what a [`RetryPolicy`] has done —
/// attachable with [`RetryPolicy::with_stats`] so an observability
/// layer can export retry pressure without wrapping every call site.
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Attempts that failed retryably and were retried (each one
    /// backs off and runs again).
    pub retries: AtomicU64,
    /// Operations that spent their whole budget or deadline and
    /// surfaced [`Error::Exhausted`].
    pub exhausted: AtomicU64,
}

impl RetryStats {
    /// Retried attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Exhausted operations so far.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }
}

/// Retry budget and backoff shape for storage operations.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per operation (at least 1).
    pub max_attempts: u32,
    /// First backoff; doubles per attempt up to [`Self::backoff_max`].
    pub backoff_base: Duration,
    /// Backoff ceiling: no sleep, jitter included, exceeds this.
    pub backoff_max: Duration,
    /// Overall per-operation deadline; attempts and backoffs never
    /// sleep past it.
    pub deadline: Duration,
    /// Seed for backoff jitter (deterministic across runs).
    pub seed: u64,
    /// Optional retry/exhaustion counters shared with an observer.
    pub stats: Option<Arc<RetryStats>>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(100),
            deadline: Duration::from_secs(5),
            seed: 0,
            stats: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that tries exactly once — for callers that do their own
    /// degradation (e.g. a serving replica that would rather go stale
    /// than stall).
    pub fn once() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Attach shared retry/exhaustion counters (see [`RetryStats`]).
    pub fn with_stats(mut self, stats: Arc<RetryStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Reject budgets that admit no attempt.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::Config {
                name: "max_attempts",
                message: "the retry budget must admit at least one attempt".into(),
            });
        }
        if self.deadline.is_zero() {
            return Err(Error::Config {
                name: "deadline",
                message: "the overall deadline must be positive".into(),
            });
        }
        Ok(())
    }

    /// Run `f` until it succeeds, fails permanently, or the budget or
    /// deadline is spent. `what` names the operation in the
    /// [`Error::Exhausted`] raised on a spent budget.
    pub fn run<T>(&self, what: &'static str, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        self.validate()?;
        let overall = Instant::now() + self.deadline;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let e = match f() {
                Ok(v) => return Ok(v),
                Err(e) if is_retryable(&e) => e,
                // A permanent failure is the answer, not a reason to
                // spend budget.
                Err(e) => return Err(e),
            };
            if attempts >= self.max_attempts || Instant::now() >= overall {
                if let Some(stats) = &self.stats {
                    stats.exhausted.fetch_add(1, Ordering::Relaxed);
                }
                return Err(Error::Exhausted {
                    what,
                    attempts,
                    message: e.to_string(),
                });
            }
            if let Some(stats) = &self.stats {
                stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            let jittered = self.jittered_backoff(attempts, 0.5 + rng.gen::<f64>());
            let remaining = overall.saturating_duration_since(Instant::now());
            let sleep = jittered.min(remaining);
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
        }
    }

    /// The backoff before retrying after `attempts` failed tries, with
    /// `jitter` drawn from `[0.5, 1.5)`; never above `backoff_max`.
    fn jittered_backoff(&self, attempts: u32, jitter: f64) -> Duration {
        backoff::delay(self.backoff_base, self.backoff_max, attempts, Some(jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::super::storage_err;
    use super::*;

    fn quick() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_micros(500),
            deadline: Duration::from_secs(1),
            seed: 9,
            stats: None,
        }
    }

    #[test]
    fn retries_transient_failures_until_success() {
        let mut left = 2;
        let got = quick().run("test put", || {
            if left > 0 {
                left -= 1;
                Err(storage_err("put", "k", true, "SlowDown"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(got.unwrap(), 42);
    }

    #[test]
    fn exhaustion_is_typed_and_carries_the_last_failure() {
        let mut calls = 0u32;
        let e = quick()
            .run("test put", || -> Result<()> {
                calls += 1;
                Err(storage_err("put", "k", true, "SlowDown"))
            })
            .unwrap_err();
        assert_eq!(calls, 4);
        match e {
            Error::Exhausted {
                what,
                attempts,
                message,
            } => {
                assert_eq!(what, "test put");
                assert_eq!(attempts, 4);
                assert!(message.contains("SlowDown"));
            }
            other => panic!("expected Exhausted, got {other}"),
        }
    }

    #[test]
    fn permanent_failures_do_not_burn_the_budget() {
        let mut calls = 0u32;
        let e = quick()
            .run("test put", || -> Result<()> {
                calls += 1;
                Err(storage_err("put", "../k", false, "bad key"))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert!(matches!(
            e,
            Error::Storage {
                retryable: false,
                ..
            }
        ));
    }

    #[test]
    fn deadline_bounds_the_whole_loop() {
        let policy = RetryPolicy {
            max_attempts: 1_000_000,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(1),
            deadline: Duration::from_millis(50),
            seed: 0,
            stats: None,
        };
        let start = Instant::now();
        let e = policy
            .run("test put", || -> Result<()> {
                Err(storage_err("put", "k", true, "SlowDown"))
            })
            .unwrap_err();
        assert!(matches!(e, Error::Exhausted { .. }));
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    /// Regression: jitter used to be applied *after* the `backoff_max`
    /// clamp, so a 1.5× draw breached the documented ceiling.
    #[test]
    fn jittered_backoff_never_exceeds_the_ceiling() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(40),
            ..RetryPolicy::default()
        };
        for attempts in 1..24 {
            for jitter in [0.5, 1.0, 1.4999999] {
                let b = policy.jittered_backoff(attempts, jitter);
                assert!(
                    b <= policy.backoff_max,
                    "attempt {attempts} jitter {jitter}: {b:?} breaches the ceiling"
                );
            }
        }
        // Below the ceiling the jitter still spreads sleeps.
        assert_eq!(policy.jittered_backoff(1, 0.5), Duration::from_millis(5));
        assert_eq!(
            policy.jittered_backoff(1, 1.25),
            Duration::from_micros(12_500)
        );
    }

    #[test]
    fn attached_stats_count_retries_and_exhaustion() {
        let stats = Arc::new(RetryStats::default());
        let policy = quick().with_stats(Arc::clone(&stats));
        let _ = policy.run("test put", || -> Result<()> {
            Err(storage_err("put", "k", true, "SlowDown"))
        });
        assert_eq!(stats.retries(), 3, "4 attempts = 3 retries");
        assert_eq!(stats.exhausted(), 1);
        let mut left = 1;
        let _ = policy.run("test put", || {
            if left > 0 {
                left -= 1;
                Err(storage_err("put", "k", true, "SlowDown"))
            } else {
                Ok(())
            }
        });
        assert_eq!(stats.retries(), 4);
        assert_eq!(stats.exhausted(), 1, "success is not exhaustion");
    }

    #[test]
    fn zero_budgets_are_rejected() {
        let mut p = quick();
        p.max_attempts = 0;
        assert!(matches!(p.run("x", || Ok(())), Err(Error::Config { .. })));
    }
}
