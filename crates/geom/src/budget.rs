//! Cooperative wall-clock budgets and cancellation for long-running stages.
//!
//! The data-acquisition pipeline runs unbounded negotiation loops (rip-up
//! and reroute, maze search, legalization scans). A [`StageBudget`] turns
//! those into *budgeted* loops: the loop polls the budget at iteration
//! granularity through a [`Pacer`] (so the clock is read only every N
//! iterations) and reacts to the two interruption kinds differently:
//!
//! - **deadline expiry** asks the stage to *degrade* — finish with a cheaper
//!   fallback and report a degraded outcome;
//! - **cancellation** ([`CancelToken`]) asks the stage to *stop* — unwind
//!   cleanly with [`Interrupted`] so a supervisor can checkpoint and resume.
//!
//! Budget polling never consumes randomness, so a run under an unlimited
//! budget is bit-identical to the same run without budget plumbing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative cancellation flag.
///
/// Cloning yields a handle to the *same* flag; any clone can cancel, and all
/// observers see it. Cancellation is sticky — there is no reset.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// What a budget poll observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetState {
    /// Keep going.
    Within,
    /// The wall-clock deadline has passed: degrade and finish.
    DeadlineExpired,
    /// Cancellation was requested: unwind with [`Interrupted`].
    Cancelled,
}

/// The typed error a budgeted stage returns when its [`CancelToken`] fires.
///
/// Deadline expiry is deliberately *not* an error — stages degrade instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("stage cancelled by its cancel token")
    }
}

impl std::error::Error for Interrupted {}

/// A per-stage execution budget: an optional wall-clock deadline plus an
/// optional cancellation token.
#[derive(Debug, Clone, Default)]
pub struct StageBudget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl StageBudget {
    /// A budget that never interrupts (the default for legacy entry points).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now. A limit past the end of the
    /// clock's range sets no deadline.
    pub fn with_deadline(limit: Duration) -> Self {
        Self::unlimited().deadline_in(Some(limit))
    }

    /// Attaches a cancellation token (builder-style).
    pub fn cancelled_by(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deadline `limit` from now (builder-style); `None`, or a
    /// limit past the end of the clock's range, clears it.
    pub fn deadline_in(mut self, limit: Option<Duration>) -> Self {
        self.deadline = limit.and_then(|d| Instant::now().checked_add(d));
        self
    }

    /// Polls the budget. Cancellation takes precedence over the deadline.
    pub fn check(&self) -> BudgetState {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return BudgetState::Cancelled;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return BudgetState::DeadlineExpired;
        }
        BudgetState::Within
    }

    /// A pacer that forwards to [`check`](Self::check) every `every` ticks.
    pub fn pacer(&self, every: u32) -> Pacer {
        Pacer { every: every.max(1), count: 0 }
    }
}

/// Amortizes budget polls over hot loops: `tick` reads the clock only once
/// per `every` calls (the first call always polls, so a pre-expired budget
/// is seen before any work).
#[derive(Debug, Clone)]
pub struct Pacer {
    every: u32,
    count: u32,
}

impl Pacer {
    /// Counts one iteration; polls `budget` on the sampling boundary.
    #[inline]
    pub fn tick(&mut self, budget: &StageBudget) -> BudgetState {
        if self.count == 0 {
            self.count = self.every - 1;
            budget.check()
        } else {
            self.count -= 1;
            BudgetState::Within
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let b = StageBudget::unlimited();
        for _ in 0..1000 {
            assert_eq!(b.check(), BudgetState::Within);
        }
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let b = StageBudget::with_deadline(Duration::ZERO);
        assert_eq!(b.check(), BudgetState::DeadlineExpired);
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let token = CancelToken::new();
        let b = StageBudget::with_deadline(Duration::ZERO).cancelled_by(token.clone());
        assert_eq!(b.check(), BudgetState::DeadlineExpired);
        token.cancel();
        assert_eq!(b.check(), BudgetState::Cancelled);
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn pacer_polls_first_tick_and_then_samples() {
        let token = CancelToken::new();
        let budget = StageBudget::unlimited().cancelled_by(token.clone());
        token.cancel();
        let mut pacer = budget.pacer(8);
        // First tick always polls.
        assert_eq!(pacer.tick(&budget), BudgetState::Cancelled);
        // The next 7 ticks are sampled out.
        for _ in 0..7 {
            assert_eq!(pacer.tick(&budget), BudgetState::Within);
        }
        assert_eq!(pacer.tick(&budget), BudgetState::Cancelled);
    }

    #[test]
    fn deadline_in_none_clears_the_deadline() {
        let b = StageBudget::with_deadline(Duration::ZERO).deadline_in(None);
        assert_eq!(b.check(), BudgetState::Within);
    }

    #[test]
    fn a_deadline_past_the_clock_range_means_none() {
        assert_eq!(StageBudget::with_deadline(Duration::MAX).check(), BudgetState::Within);
        let b = StageBudget::with_deadline(Duration::ZERO).deadline_in(Some(Duration::MAX));
        assert_eq!(b.check(), BudgetState::Within);
    }

    #[test]
    fn interrupted_displays() {
        assert!(Interrupted.to_string().contains("cancelled"));
    }
}
