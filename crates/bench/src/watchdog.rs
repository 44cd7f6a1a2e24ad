//! Per-point watchdog: cooperative deadlines for sweep points.
//!
//! A sweep point that wedges (a pathological config, a livelocked search)
//! would otherwise hold its worker forever and hang the whole `run-all`
//! fleet. The watchdog gives every point a deadline derived from its
//! experiment's budget (see `registry::Experiment::budget_weight` and
//! `Scale::point_budget`): a single background thread tracks all armed
//! deadlines and, when one expires, *cancels* the point's
//! [`tmcc::RunHandle`]. The simulator polls the handle in its access loop
//! and unwinds with [`tmcc::TmccError::Cancelled`] — cooperative
//! cancellation, no thread killing, so worker state is never corrupted.
//!
//! Timed-out points re-enter the retry path like any other failure;
//! `--quick` runs additionally halve the point's footprint per prior
//! timeout (`SweepCtx::tune`) so a smoke sweep degrades instead of dying.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tmcc::RunHandle;

/// Test/ops hook: `TMCC_BENCH_POINT_BUDGET_MS=N` overrides every
/// computed point budget with `N` milliseconds.
pub const POINT_BUDGET_ENV: &str = "TMCC_BENCH_POINT_BUDGET_MS";

struct Entry {
    deadline: Instant,
    handle: RunHandle,
    fired: bool,
}

#[derive(Default)]
struct Board {
    entries: HashMap<u64, Entry>,
    next_id: u64,
    shutdown: bool,
}

/// The shared deadline tracker. One per sweep; arming is cheap (a map
/// insert under a lock), so per-point use from every worker is fine.
pub struct Watchdog {
    board: Arc<(Mutex<Board>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog thread.
    pub fn new() -> Self {
        let board = Arc::new((Mutex::new(Board::default()), Condvar::new()));
        let thread_board = Arc::clone(&board);
        let thread = std::thread::Builder::new()
            .name("tmcc-watchdog".into())
            .spawn(move || watch_loop(&thread_board))
            .expect("spawn watchdog thread");
        Self { board, thread: Some(thread) }
    }

    /// Arms a deadline `budget` from now for `handle`. Dropping the
    /// returned guard disarms it; [`WatchdogGuard::expired`] reports
    /// whether the watchdog fired first. A zero budget is a deadline that
    /// has already passed: the handle is cancelled before `arm` returns.
    pub fn arm(&self, budget: Duration, handle: &RunHandle) -> WatchdogGuard {
        let fired = budget.is_zero();
        if fired {
            handle.cancel();
        }
        let (lock, cvar) = &*self.board;
        let mut board = lock.lock().expect("watchdog board");
        let id = board.next_id;
        board.next_id += 1;
        board
            .entries
            .insert(id, Entry { deadline: Instant::now() + budget, handle: handle.clone(), fired });
        cvar.notify_one();
        WatchdogGuard { board: Arc::clone(&self.board), id }
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.board;
            lock.lock().expect("watchdog board").shutdown = true;
            cvar.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Disarms its deadline on drop.
pub struct WatchdogGuard {
    board: Arc<(Mutex<Board>, Condvar)>,
    id: u64,
}

impl WatchdogGuard {
    /// Whether the deadline fired (the handle was cancelled) before the
    /// guard was dropped.
    pub fn expired(&self) -> bool {
        let (lock, _) = &*self.board;
        lock.lock().expect("watchdog board").entries.get(&self.id).is_some_and(|e| e.fired)
    }
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        let (lock, _) = &*self.board;
        lock.lock().expect("watchdog board").entries.remove(&self.id);
    }
}

fn watch_loop(board: &(Mutex<Board>, Condvar)) {
    let (lock, cvar) = board;
    let mut guard = lock.lock().expect("watchdog board");
    loop {
        if guard.shutdown {
            return;
        }
        let now = Instant::now();
        let mut nearest: Option<Instant> = None;
        for entry in guard.entries.values_mut() {
            if entry.fired {
                continue;
            }
            if entry.deadline <= now {
                entry.handle.cancel();
                entry.fired = true;
            } else {
                nearest = Some(nearest.map_or(entry.deadline, |n| n.min(entry.deadline)));
            }
        }
        guard = match nearest {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(now);
                cvar.wait_timeout(guard, wait).expect("watchdog board").0
            }
            None => cvar.wait(guard).expect("watchdog board"),
        };
    }
}

/// Applies the [`POINT_BUDGET_ENV`] override to a computed budget.
pub fn effective_budget(computed: Duration) -> Duration {
    match std::env::var(POINT_BUDGET_ENV).ok().and_then(|v| v.parse::<u64>().ok()) {
        Some(ms) => Duration::from_millis(ms),
        None => computed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_deadline() {
        let dog = Watchdog::new();
        let handle = RunHandle::new();
        let guard = dog.arm(Duration::from_millis(20), &handle);
        assert!(!handle.is_cancelled());
        let start = Instant::now();
        while !handle.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.is_cancelled(), "watchdog never fired");
        assert!(guard.expired());
    }

    #[test]
    fn zero_budget_cancels_synchronously() {
        let dog = Watchdog::new();
        let handle = RunHandle::new();
        let guard = dog.arm(Duration::ZERO, &handle);
        assert!(handle.is_cancelled());
        assert!(guard.expired());
    }

    #[test]
    fn disarms_on_drop() {
        let dog = Watchdog::new();
        let handle = RunHandle::new();
        let guard = dog.arm(Duration::from_millis(30), &handle);
        drop(guard);
        std::thread::sleep(Duration::from_millis(80));
        assert!(!handle.is_cancelled(), "disarmed deadline still fired");
    }

    #[test]
    fn tracks_many_deadlines_independently() {
        let dog = Watchdog::new();
        let fast = RunHandle::new();
        let slow = RunHandle::new();
        let _fast_guard = dog.arm(Duration::from_millis(10), &fast);
        let _slow_guard = dog.arm(Duration::from_secs(600), &slow);
        let start = Instant::now();
        while !fast.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(fast.is_cancelled());
        assert!(!slow.is_cancelled());
    }
}
