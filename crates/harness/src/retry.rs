//! The shared driver retry policy: exponential backoff with jitter, a
//! per-operation deadline, and a per-client retry budget.
//!
//! The paper's harness drivers looped with a fixed pause when the
//! provider refused an operation, which hangs the whole run when a
//! broker stays down or a fault plan keeps refusing connects. Every
//! logical client now paces its retries through one [`RetryPolicy`];
//! when a client exhausts its budget or blows its per-operation
//! deadline, the run is abandoned with an explicit reason instead of
//! hanging — the daemon prince reports the test `Inconclusive` over
//! whatever trace was salvaged.
//!
//! A "client" here is a logical producer or consumer, not a thread: a
//! closed-loop driver task owns exactly one [`RetryState`], while the
//! open-loop engine multiplexes thousands of virtual clients — each
//! with its own [`RetryState`] — onto a few workers, so one stalled
//! client exhausts only its own budget.

use jmst_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How drivers retry failed provider operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Backoff before the first retry of an operation.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Jitter fraction: each delay is scaled by a uniform factor in
    /// `[1 - jitter, 1 + jitter]`, so drivers do not retry in lockstep.
    pub jitter: f64,
    /// A single operation (one connect attempt sequence, one send) may
    /// not be retried past this deadline.
    pub op_deadline: Duration,
    /// Total retries one logical client (closed-loop driver or open-loop
    /// virtual client) may spend across the whole run. `0` disables
    /// retrying entirely: the first failure gives up.
    pub budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            multiplier: 2.0,
            jitter: 0.5,
            op_deadline: Duration::from_secs(2),
            budget: 64,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first provider failure a driver
    /// cannot absorb gives the run up.
    pub fn disabled() -> Self {
        Self {
            budget: 0,
            ..Self::default()
        }
    }

    /// `true` when the policy allows no retries at all.
    pub fn is_disabled(&self) -> bool {
        self.budget == 0
    }
}

/// Per-client retry state: consumes the budget, tracks the current
/// operation's deadline, and grows the backoff. Instantiated once per
/// closed-loop driver task and once per open-loop virtual client.
#[derive(Debug)]
pub(crate) struct RetryState {
    policy: RetryPolicy,
    rng: SimRng,
    remaining: u32,
    backoff: Duration,
    /// When the operation currently being retried first failed.
    op_started: Option<Instant>,
}

impl RetryState {
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Self {
            policy,
            rng: SimRng::seed_from_u64(seed),
            remaining: policy.budget,
            backoff: policy.initial_backoff,
            op_started: None,
        }
    }

    /// Marks the retried operation as having succeeded: the backoff and
    /// the per-operation deadline reset (the budget does not — it is
    /// per-client, not per-operation).
    pub fn succeeded(&mut self) {
        self.backoff = self.policy.initial_backoff;
        self.op_started = None;
    }

    /// Asks for the next retry delay, or the reason no retry is allowed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the driver's retry budget is
    /// exhausted or the current operation's deadline has passed.
    pub fn next_delay(&mut self) -> Result<Duration, String> {
        let op_started = *self.op_started.get_or_insert_with(Instant::now);
        if self.remaining == 0 {
            return Err(format!("retry budget of {} exhausted", self.policy.budget));
        }
        if op_started.elapsed() >= self.policy.op_deadline {
            return Err(format!(
                "operation still failing after its {:?} deadline",
                self.policy.op_deadline
            ));
        }
        self.remaining -= 1;
        let jitter = self.policy.jitter.clamp(0.0, 1.0);
        let scale = if jitter > 0.0 {
            self.rng.uniform(1.0 - jitter, 1.0 + jitter)
        } else {
            1.0
        };
        let delay = self.backoff.mul_f64(scale.max(0.0));
        self.backoff =
            (self.backoff.mul_f64(self.policy.multiplier.max(1.0))).min(self.policy.max_backoff);
        Ok(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let policy = RetryPolicy::default();
        assert!(policy.budget > 0);
        assert!(!policy.is_disabled());
        assert!(policy.initial_backoff < policy.max_backoff);
    }

    #[test]
    fn disabled_policy_gives_up_immediately() {
        let mut state = RetryState::new(RetryPolicy::disabled(), 7);
        let reason = state.next_delay().unwrap_err();
        assert!(reason.contains("budget"), "{reason}");
    }

    #[test]
    fn backoff_grows_to_the_ceiling_and_resets_on_success() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut state = RetryState::new(policy, 1);
        let first = state.next_delay().unwrap();
        assert_eq!(first, policy.initial_backoff);
        let mut last = first;
        for _ in 0..10 {
            last = state.next_delay().unwrap();
        }
        assert_eq!(last, policy.max_backoff);
        state.succeeded();
        assert_eq!(state.next_delay().unwrap(), policy.initial_backoff);
    }

    #[test]
    fn budget_is_per_client_not_per_operation() {
        let policy = RetryPolicy {
            budget: 3,
            ..RetryPolicy::default()
        };
        let mut state = RetryState::new(policy, 1);
        assert!(state.next_delay().is_ok());
        state.succeeded();
        assert!(state.next_delay().is_ok());
        state.succeeded();
        assert!(state.next_delay().is_ok());
        state.succeeded();
        let reason = state.next_delay().unwrap_err();
        assert!(reason.contains("budget of 3"), "{reason}");
    }

    #[test]
    fn jitter_keeps_delays_within_the_band() {
        let policy = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut state = RetryState::new(policy, 42);
        let delay = state.next_delay().unwrap();
        assert!(delay >= policy.initial_backoff.mul_f64(0.5));
        assert!(delay <= policy.initial_backoff.mul_f64(1.5));
    }

    #[test]
    fn op_deadline_cuts_off_even_with_budget_left() {
        let policy = RetryPolicy {
            op_deadline: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut state = RetryState::new(policy, 1);
        let reason = state.next_delay().unwrap_err();
        assert!(reason.contains("deadline"), "{reason}");
    }
}
