//! Deterministic failpoints for fault-injection testing.
//!
//! A *failpoint* is a named site in production code where a test harness
//! can inject a fault: a panic, a delay, or an in-band error. Sites are
//! compiled in unconditionally but cost **one relaxed atomic load** when
//! nothing is armed — the [`crate::failpoint!`] macro short-circuits on
//! [`enabled`] before touching the registry, so hot paths (the CSR
//! kernel, the incremental engine, the serve loop) pay nothing in normal
//! operation.
//!
//! # Scoping
//!
//! Fault-injection tests run concurrently with ordinary tests in the same
//! process, so a globally armed panic would detonate under innocent
//! threads. Every armed failpoint therefore carries an optional **scope
//! token**: it only fires on threads that have entered the same scope via
//! [`enter_scope`] (the serve worker pool enters its config's token, so a
//! fuzzer arms faults for *its* service instance and nobody else's).
//! Arming with scope `None` matches every thread — reserved for
//! single-purpose processes like `rsched fuzz --faults`.
//!
//! # Schedules
//!
//! Arming takes a `skip` (hits to ignore before firing) and a `count`
//! (how many times to fire; `None` = forever), so a seeded fuzzer can
//! plant "panic on the 3rd reschedule" deterministically. Hit counters
//! are global across threads; with a single-worker service the schedule
//! is fully deterministic.
//!
//! ```
//! use rsched_graph::failpoint::{self, FailAction};
//!
//! let _scope = failpoint::enter_scope(42);
//! let guard = failpoint::arm("docs::example", Some(42), FailAction::Error("boom".into()), 1, Some(1));
//! assert_eq!(failpoint::hit("docs::example"), None); // skipped
//! assert_eq!(failpoint::hit("docs::example"), Some("boom".to_owned()));
//! assert_eq!(failpoint::hit("docs::example"), None); // count exhausted
//! drop(guard); // disarmed
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a `failpoint '<site>' fired` message. The panic unwinds
    /// through the caller like any organic bug would.
    Panic,
    /// Sleep for the given duration, then continue normally — simulates a
    /// stall without corrupting anything.
    Delay(Duration),
    /// Return the message from [`hit`]; sites that check the return value
    /// surface it as an in-band error.
    Error(String),
}

struct Armed {
    id: u64,
    site: String,
    scope: Option<u64>,
    action: FailAction,
    /// Matching hits still to ignore before the first fire.
    skip: u64,
    /// Fires remaining; `None` = unlimited.
    remaining: Option<u64>,
}

static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

thread_local! {
    static SCOPE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// `true` when at least one failpoint is armed anywhere in the process.
/// This is the only check disabled sites perform.
#[inline]
pub fn enabled() -> bool {
    ARMED_COUNT.load(Ordering::Relaxed) != 0
}

/// Enters a failpoint scope on the current thread; armed sites carrying
/// the same token become visible to this thread until the guard drops.
/// Nesting restores the previous scope on drop.
pub fn enter_scope(token: u64) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.replace(Some(token)));
    ScopeGuard { prev }
}

/// The scope token the current thread runs under, if any.
pub fn current_scope() -> Option<u64> {
    SCOPE.with(Cell::get)
}

/// Restores the previous thread scope on drop; see [`enter_scope`].
#[must_use = "dropping the guard immediately exits the scope"]
pub struct ScopeGuard {
    prev: Option<u64>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Arms `site` with `action`, ignoring the first `skip` matching hits and
/// firing at most `count` times (`None` = until disarmed). Only threads
/// whose [`current_scope`] equals `scope` are affected (`None` matches
/// every thread). Disarms when the returned guard drops.
#[must_use = "dropping the guard immediately disarms the failpoint"]
pub fn arm(
    site: impl Into<String>,
    scope: Option<u64>,
    action: FailAction,
    skip: u64,
    count: Option<u64>,
) -> FailGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    registry().push(Armed {
        id,
        site: site.into(),
        scope,
        action,
        skip,
        remaining: count,
    });
    ARMED_COUNT.fetch_add(1, Ordering::Relaxed);
    FailGuard { id }
}

/// Disarms its failpoint on drop; see [`arm`].
pub struct FailGuard {
    id: u64,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        let mut reg = registry();
        if let Some(i) = reg.iter().position(|a| a.id == self.id) {
            reg.remove(i);
            ARMED_COUNT.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Records one hit of `site` on the current thread and executes the first
/// matching armed action. Returns `Some(message)` only for
/// [`FailAction::Error`]; [`FailAction::Panic`] unwinds and
/// [`FailAction::Delay`] sleeps then returns `None`.
///
/// Prefer the [`crate::failpoint!`] macro, which guards the call behind
/// [`enabled`].
pub fn hit(site: &str) -> Option<String> {
    let scope = current_scope();
    let action = {
        let mut reg = registry();
        let armed = reg.iter_mut().find(|a| {
            a.site == site && (a.scope.is_none() || a.scope == scope) && a.remaining != Some(0)
        })?;
        if armed.skip > 0 {
            armed.skip -= 1;
            return None;
        }
        if let Some(rem) = &mut armed.remaining {
            *rem -= 1;
        }
        armed.action.clone()
        // Lock released here: firing must never hold the registry.
    };
    match action {
        FailAction::Panic => panic!("failpoint '{site}' fired (injected panic)"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FailAction::Error(msg) => Some(msg),
    }
}

/// A panic inside [`hit`] (the whole point of [`FailAction::Panic`])
/// happens with the registry lock *released*, so poisoning can only come
/// from a panic within this module's own bookkeeping — recover the data
/// either way, as the registry holds no invariants a half-step could
/// break.
fn registry() -> std::sync::MutexGuard<'static, Vec<Armed>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Evaluates a failpoint site: a single relaxed load when nothing is
/// armed anywhere, a registry lookup otherwise. Expands to an expression
/// of type `Option<String>` — `Some(msg)` only when an
/// [`failpoint::FailAction::Error`](crate::failpoint::FailAction::Error)
/// fires, so plain fire-and-forget sites can ignore the value.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        if $crate::failpoint::enabled() {
            $crate::failpoint::hit($site)
        } else {
            None
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint tests share global registry state with each other; a
    // mutex keeps them serial without affecting unrelated tests (which
    // never arm anything and only pay the `enabled()` load).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_sites_are_inert() {
        let _t = serial();
        assert_eq!(crate::failpoint!("fp_tests::never_armed"), None);
    }

    #[test]
    fn skip_and_count_schedule() {
        let _t = serial();
        let _s = enter_scope(7);
        let _g = arm(
            "fp_tests::sched",
            Some(7),
            FailAction::Error("e".into()),
            2,
            Some(2),
        );
        assert_eq!(hit("fp_tests::sched"), None);
        assert_eq!(hit("fp_tests::sched"), None);
        assert_eq!(hit("fp_tests::sched"), Some("e".to_owned()));
        assert_eq!(hit("fp_tests::sched"), Some("e".to_owned()));
        assert_eq!(hit("fp_tests::sched"), None, "count exhausted");
    }

    #[test]
    fn scopes_isolate_threads() {
        let _t = serial();
        let _g = arm(
            "fp_tests::scoped",
            Some(99),
            FailAction::Error("x".into()),
            0,
            None,
        );
        // Wrong (or no) scope: invisible.
        assert_eq!(hit("fp_tests::scoped"), None);
        {
            let _s = enter_scope(99);
            assert_eq!(hit("fp_tests::scoped"), Some("x".to_owned()));
            {
                let _inner = enter_scope(5);
                assert_eq!(hit("fp_tests::scoped"), None, "nested scope shadows");
            }
            assert_eq!(hit("fp_tests::scoped"), Some("x".to_owned()), "restored");
        }
        assert_eq!(hit("fp_tests::scoped"), None, "scope exited");
    }

    #[test]
    fn panic_action_unwinds_and_guard_disarms() {
        let _t = serial();
        let _s = enter_scope(13);
        {
            let _g = arm("fp_tests::boom", Some(13), FailAction::Panic, 0, Some(1));
            let caught = std::panic::catch_unwind(|| hit("fp_tests::boom"));
            assert!(caught.is_err(), "panic action must unwind");
        }
        // Guard dropped: site fully disarmed, further hits are clean.
        assert_eq!(hit("fp_tests::boom"), None);
    }
}
