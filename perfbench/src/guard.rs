//! Running a launch so that a panic or a hang becomes a number.
//!
//! Every timed launch runs on a thread of its own. The caller waits for
//! it with a deadline: a launch that panics reports the panic's message,
//! and a launch that misses its deadline is abandoned — its thread (and
//! any simulator workers it is blocked on) is left behind, detached,
//! because a spinning thread cannot be stopped from outside. The run
//! that owned it ends there, and the process exit reclaims the threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// How one guarded call ended.
pub enum Guarded<T> {
    /// Returned `T` after running for the given time.
    Done(T, Duration),
    /// Panicked; the first panic message seen while it ran.
    Panicked(String),
    /// Still running at the deadline; abandoned.
    TimedOut,
}

static MESSAGES: Mutex<Vec<String>> = Mutex::new(Vec::new());
static HOOK: Once = Once::new();

/// The message `std::thread::scope` re-raises on the joining thread
/// when one of its workers panicked; the worker's own message is the
/// informative one.
const SCOPE_REPANIC: &str = "a scoped thread panicked";

/// Name of the thread a guarded launch runs on. The simulator's workers
/// it spawns are unnamed.
const LAUNCH_THREAD: &str = "perfbench-launch";

/// Keep the messages of panics raised inside guarded launches for the
/// report instead of printing each one; panics on any other named thread
/// (`main`, a test) still go to the default hook.
fn install_hook() {
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().map(str::to_owned);
            if name.as_deref().is_some_and(|n| n != LAUNCH_THREAD) {
                return default(info);
            }
            let text = match info.payload().downcast_ref::<&str>() {
                Some(s) => s.to_string(),
                None => info.payload().downcast_ref::<String>().cloned().unwrap_or_default(),
            };
            let at = info.location().map(|l| format!(" at {}:{}", l.file(), l.line()));
            if let Ok(mut m) = MESSAGES.lock() {
                if m.len() < 256 {
                    m.push(format!("{text}{}", at.unwrap_or_default()));
                }
            }
        }));
    });
}

fn first_message() -> String {
    let mut m = MESSAGES.lock().unwrap_or_else(|e| e.into_inner());
    let pick = m
        .iter()
        .find(|s| !s.starts_with(SCOPE_REPANIC))
        .or(m.first())
        .cloned()
        .unwrap_or_else(|| "panic without a message".to_string());
    m.clear();
    pick
}

/// Run `f` on a fresh thread and wait at most `deadline` for it.
/// The time reported with [`Guarded::Done`] is measured on that thread,
/// around `f` alone.
pub fn run<T: Send + 'static>(
    deadline: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Guarded<T> {
    install_hook();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(LAUNCH_THREAD.into())
        .spawn(move || {
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(f));
            let took = t0.elapsed();
            let _ = tx.send(r.map(|v| (v, took)));
        })
        .expect("spawn a launch thread");
    match rx.recv_timeout(deadline) {
        Ok(Ok((v, took))) => {
            handle.join().expect("launch thread ends after sending its result");
            Guarded::Done(v, took)
        }
        Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Guarded::Panicked(first_message())
        }
        // Deliberately detached: the thread is stuck inside the launch.
        Err(RecvTimeoutError::Timeout) => Guarded::TimedOut,
    }
}

/// Failure accounting of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations the run issued or planned to issue.
    pub attempted: u64,
    /// NULLs returned for requests the heap could hold.
    pub nulls: u64,
    /// Payload stamps that did not read back (or graph edges missing).
    pub mismatches: u64,
    /// Operations of launches that panicked.
    pub panic_ops: u64,
    /// Operations of the launch that hung plus the run's remaining ones.
    pub deadline_ops: u64,
    /// Launches that panicked.
    pub panics: u64,
    /// Launches that missed their deadline (0 or 1: the run ends there).
    pub hangs: u64,
    /// First panic messages, for the report.
    pub panic_messages: Vec<String>,
    /// `check_invariants` errors (text).
    pub invariant_errors: Vec<String>,
    /// What else the report should say: why a check did not run, what a
    /// hung launch was doing.
    pub notes: Vec<String>,
}

impl Tally {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.nulls + self.mismatches + self.panic_ops + self.deadline_ops
    }

    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Charge a launch that panicked with `ops` operations.
    pub fn panicked(&mut self, ops: u64, message: String) {
        self.panics += 1;
        self.panic_ops += ops;
        if self.panic_messages.len() < 4 {
            self.panic_messages.push(message);
        }
    }

    /// Charge a launch that hung with `ops` operations, plus the ops the
    /// run would still have issued: its rate so far, over the time it had
    /// left.
    pub fn hung(&mut self, ops: u64, elapsed: Duration, budget: Duration) {
        self.hangs += 1;
        let left = budget.saturating_sub(elapsed).as_secs_f64();
        let rate = self.attempted as f64 / elapsed.as_secs_f64().max(1e-3);
        let remaining = (rate * left).round() as u64;
        self.attempted += remaining;
        self.deadline_ops += ops + remaining;
    }

    /// Add another run's accounting to this one.
    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.nulls += o.nulls;
        self.mismatches += o.mismatches;
        self.panic_ops += o.panic_ops;
        self.deadline_ops += o.deadline_ops;
        self.panics += o.panics;
        self.hangs += o.hangs;
        self.panic_messages.extend(o.panic_messages);
        self.invariant_errors.extend(o.invariant_errors);
        self.notes.extend(o.notes);
    }

    /// Record the result of a quiescent `check_invariants`.
    pub fn invariants(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.invariant_errors.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_and_hangs_are_reported_not_raised() {
        let _serial = crate::serial();
        let ok = run(Duration::from_secs(5), || 7);
        assert!(matches!(ok, Guarded::Done(7, _)));
        let p = run(Duration::from_secs(5), || -> u32 { panic!("boom in a launch") });
        match p {
            Guarded::Panicked(m) => assert!(m.contains("boom"), "{m}"),
            _ => panic!("expected a panic report"),
        }
        let h = run(Duration::from_millis(50), || loop {
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(matches!(h, Guarded::TimedOut));
    }
}
