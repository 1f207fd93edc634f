//! Cooperative cancellation and wall-clock deadlines for long-running
//! campaigns.
//!
//! A Monte-Carlo sweep can run for hours; killing the process loses
//! everything since the last checkpoint and leaves its compute threads
//! to die mid-trial. A [`CancelToken`] gives the caller a clean way out:
//! the engine checks the token between trials, so flipping it (from a
//! Ctrl-C handler, another thread, or by arming a deadline at
//! construction) stops scheduling new trials and lets the in-flight
//! ones drain, yielding a partial-but-honest [`CampaignResult`]
//! (`cancelled = true`, statistics over the trials that completed).
//!
//! [`CampaignResult`]: crate::campaign::CampaignResult

#![expect(
    clippy::disallowed_types,
    reason = "deadlines must read the wall clock; cancellation timing decides \
              which trials run, never a completed trial's value"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag with an optional wall-clock deadline.
///
/// Clones share the same underlying state: cancelling any clone cancels
/// them all. The deadline is fixed at construction; a token with a
/// deadline reports itself cancelled once the deadline passes, with no
/// explicit [`CancelToken::cancel`] call needed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (cancel it explicitly).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that auto-cancels `budget` from now — a wall-clock budget
    /// for the whole run. A budget past the clock's range arms no
    /// deadline: the token then never fires on its own.
    pub fn with_timeout(budget: Duration) -> Self {
        match Instant::now().checked_add(budget) {
            Some(deadline) => Self::with_deadline(deadline),
            None => Self::new(),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline this token was armed with, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
    }

    #[test]
    fn deadline_in_the_past_reads_cancelled() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_in_the_future_reads_live() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
    }

    #[test]
    fn budget_past_the_clock_arms_no_deadline() {
        for budget in [Duration::MAX, Duration::from_secs(u64::MAX / 2)] {
            let t = CancelToken::with_timeout(budget);
            assert!(t.deadline().is_none());
            assert!(!t.is_cancelled());
        }
    }

    #[test]
    fn deadline_exactly_now_reads_cancelled() {
        // The boundary case: `is_cancelled` uses `now >= deadline`, and
        // Instant is monotonic, so a token armed with the current
        // instant can never report live — there is no instant at which
        // a later check reads a smaller clock.
        let t = CancelToken::with_deadline(Instant::now());
        assert!(t.is_cancelled());
    }

    #[test]
    fn zero_budget_is_cancelled_through_clones() {
        // `with_timeout(ZERO)` arms the deadline at construction time;
        // every clone shares it, so no clone can observe a live token.
        let t = CancelToken::with_timeout(Duration::ZERO);
        let u = t.clone();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
        // Explicit cancel on an already-expired token stays idempotent.
        u.cancel();
        assert!(t.is_cancelled());
    }
}
