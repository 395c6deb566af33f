//! Capped exponential backoff, the one delay rule behind every retry
//! loop: storage operations, serving-client rounds, and campaign probe
//! retries on the simulated sweep clock.

use std::time::Duration;

/// The delay before retry `attempt` (1-based): `base · 2^(attempt-1)`,
/// scaled by `jitter` when one is given, then clamped to `max`.
///
/// Every step saturates, so a large attempt count lands on the ceiling
/// instead of wrapping to a short delay, and the ceiling is applied
/// **after** the jitter, so no draw breaches it. Without jitter the
/// result is exact: whole milliseconds in, whole milliseconds out.
/// Callers draw `jitter` from `[0.5, 1.5)` to desynchronise retrying
/// peers without changing the expected delay.
pub fn delay(base: Duration, max: Duration, attempt: u32, jitter: Option<f64>) -> Duration {
    let doubling = 1u32
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u32::MAX);
    let exp = base.saturating_mul(doubling);
    let jittered = match jitter {
        None => exp,
        // Same arithmetic as `Duration::mul_f64`, minus its overflow panic.
        Some(j) => Duration::try_from_secs_f64(j * exp.as_secs_f64()).unwrap_or(max),
    };
    jittered.min(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: jitter used to be applied *after* the ceiling clamp,
    /// so a 1.5× draw breached the documented ceiling.
    #[test]
    fn jittered_backoff_never_exceeds_the_ceiling() {
        let (base, max) = (Duration::from_millis(10), Duration::from_millis(40));
        for attempt in 1..80 {
            for jitter in [0.5, 1.0, 1.4999999] {
                let b = delay(base, max, attempt, Some(jitter));
                assert!(
                    b <= max,
                    "attempt {attempt} jitter {jitter}: {b:?} breaches the ceiling"
                );
            }
        }
        // Below the ceiling the jitter still spreads sleeps.
        assert_eq!(delay(base, max, 1, Some(0.5)), Duration::from_millis(5));
        assert_eq!(
            delay(base, max, 1, Some(1.25)),
            Duration::from_micros(12_500)
        );
    }

    #[test]
    fn unjittered_delays_double_exactly_and_saturate_at_the_cap() {
        let ms = Duration::from_millis;
        let got: Vec<_> = [1, 2, 3, 4]
            .map(|n| delay(ms(100), ms(350), n, None))
            .to_vec();
        assert_eq!(got, [ms(100), ms(200), ms(350), ms(350)]);
        // Far past any representable doubling: still the cap, never 0.
        for attempt in [32, 33, 63, 64, 65, u32::MAX] {
            assert_eq!(delay(ms(100), ms(350), attempt, None), ms(350));
            assert_eq!(delay(ms(100), ms(350), attempt, Some(1.4)), ms(350));
        }
        // A zero attempt count is treated as the first retry.
        assert_eq!(delay(ms(100), ms(350), 0, None), ms(100));
    }
}
