//! Injectable time sources for task profiling.
//!
//! The engine stamps every task's lifecycle (submitted / started / finished)
//! through a [`Clock`], so what "time" means is the caller's choice:
//!
//! * `NullClock` — always 0. The default: profiles exist but every
//!   duration is zero, which keeps canonical JSON byte-identical across
//!   worker counts and runs.
//! * [`WallClock`] — nanoseconds since construction, for real profiling.
//! * `CountingClock` — a monotonically increasing counter, for tests that
//!   need non-zero but reproducible orderings.
//! * [`ManualClock`] — a clock the test advances by hand, for timeout logic
//!   (the serving layer's idle/stall deadlines run on this seam).
//!
//! The serving layer reuses the same seam for its connection timeouts: a
//! [`Deadline`] is a tick threshold derived from a `Clock`, so an event loop
//! can be driven by a [`ManualClock`] in tests (deterministic idle/stall
//! expiry) and a [`WallClock`] in production.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic tick source. Ticks are opaque `u64`s; only differences
/// between them are meaningful, and the unit is the implementation's choice.
/// [`Deadline`] assumes the [`WallClock`] convention of one tick per
/// nanosecond; deterministic clocks just need to advance consistently.
pub trait Clock: Send + Sync {
    /// The current tick.
    fn now(&self) -> u64;
}

/// A tick threshold on some [`Clock`]: "this much time past that reading".
///
/// Deadlines saturate instead of wrapping, so `Duration::MAX`-style "no
/// deadline" values behave as never-expiring rather than instantly expired.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Deadline {
    at: u64,
}

impl Deadline {
    /// A deadline `after` past the clock's current reading, using the
    /// one-tick-per-nanosecond convention of [`WallClock`].
    pub fn after(clock: &dyn Clock, after: Duration) -> Deadline {
        Deadline {
            at: clock
                .now()
                .saturating_add(u64::try_from(after.as_nanos()).unwrap_or(u64::MAX)),
        }
    }

    /// A deadline that never expires.
    #[cfg(test)]
    pub(crate) fn never() -> Deadline {
        Deadline { at: u64::MAX }
    }

    /// Whether the clock has reached this deadline.
    pub fn expired(&self, clock: &dyn Clock) -> bool {
        clock.now() >= self.at
    }
}

/// The deterministic default: every reading is 0, so every derived duration
/// is 0 and profiles carry no run-to-run noise.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NullClock;

impl Clock for NullClock {
    fn now(&self) -> u64 {
        0
    }
}

/// Real elapsed time: nanoseconds since the clock was created.
///
/// Readings are capped at `u64::MAX` nanoseconds (~584 years), which is not
/// a practical concern.
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the Clock seam itself: the one sanctioned ambient time read"
    )]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic test clock: each reading returns the next integer,
/// starting from 0. Readings taken from multiple threads are still unique
/// and monotone, though their interleaving follows the scheduler.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CountingClock {
    next: AtomicU64,
}

#[cfg(test)]
impl CountingClock {
    /// A counting clock starting at 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
impl Clock for CountingClock {
    fn now(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// A clock that only moves when told to: `now()` returns the last value set
/// or advanced to. Tests drive timeout logic through it deterministically —
/// nothing expires until the test says so.
#[derive(Debug, Default)]
pub struct ManualClock {
    ticks: AtomicU64,
}

impl ManualClock {
    /// A manual clock reading 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d` (one tick per nanosecond, saturating).
    pub fn advance(&self, d: Duration) {
        let ticks = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let mut cur = self.ticks.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_add(ticks);
            match self
                .ticks
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Clock for ManualClock {
    fn now(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_is_always_zero() {
        let c = NullClock;
        assert_eq!(c.now(), 0);
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn counting_clock_increments() {
        let c = CountingClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.now(), 1);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_only_on_command() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.now(), 0);
        c.advance(Duration::from_nanos(7));
        assert_eq!(c.now(), 7);
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), 1_000_000_007);
    }

    #[test]
    fn deadlines_expire_and_saturate() {
        let c = ManualClock::new();
        let d = Deadline::after(&c, Duration::from_nanos(10));
        assert!(!d.expired(&c));
        c.advance(Duration::from_nanos(9));
        assert!(!d.expired(&c));
        c.advance(Duration::from_nanos(1));
        assert!(d.expired(&c));
        let never = Deadline::never();
        c.advance(Duration::from_secs(1_000_000));
        assert!(!never.expired(&c));
        // Saturation: a huge offset never wraps into the past.
        let far = Deadline::after(&c, Duration::MAX);
        assert!(!far.expired(&c));
    }
}
