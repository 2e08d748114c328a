//! The task vocabulary: named, scope-keyed units of fenced work.
//!
//! Every layer of the toolkit ultimately runs the same shape of thing — "a
//! unit of work that may panic, may be faulted by the chaos suite, and must
//! fail as a value, not a crash". A [`Task`] names that unit ([`Task::layer`]
//! says which subsystem, [`Task::scope`] which instance: kernel index, cell
//! index, stage index, retry attempt), and [`run_fenced`] executes it behind
//! the shared [`PanicFence`] and the `exec.task` failpoint.
//!
//! The `exec.task` failpoint is scope-keyed like every other failpoint, so a
//! chaos plan can fail one specific kernel/cell/stage/attempt regardless of
//! which thread happens to run it. It fires **inside** the fence: an
//! injected panic is contained exactly like a real one. Layer-specific
//! failpoints (`metrics.kernel`, `sweep.cell`, `pipeline.stage`,
//! `service.worker`) keep working — they run inside the closure the caller
//! passes, so both old and new fault plans reach the same code.
//!
//! [`Executor`] bundles a thread count and a [`CancelToken`] with the fence,
//! giving callers one handle for "run this batch deterministically, fenced,
//! cancellable" — the pool underneath is [`crate::parallel`], unchanged.

use crate::cancel::{CancelToken, Cancelled};
use crate::fence::PanicFence;
use crate::parallel;
use std::ops::Range;

/// A named, scope-keyed unit of fenced work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Which subsystem owns the task (e.g. `"metrics.kernel"`,
    /// `"sweep.cell"`, `"pipeline.stage"`, `"service.worker"`). Used for
    /// messages; the chaos scope key is `scope`.
    pub layer: &'static str,
    /// Deterministic instance key: kernel index, cell index, stage index,
    /// or retry attempt. Also the scope key of the `exec.task` failpoint,
    /// so injection is thread-schedule-independent.
    pub scope: u64,
}

impl Task {
    /// A task owned by `layer` with deterministic instance key `scope`.
    pub fn new(layer: &'static str, scope: u64) -> Self {
        Task { layer, scope }
    }
}

/// Why a fenced task did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The `exec.task` failpoint fired with an `Error` action.
    Fault(inet_fault::FaultError),
    /// The task (or an injected `Panic` action) panicked; the fence caught
    /// it and carries the message.
    Panicked(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Fault(e) => write!(f, "{e}"),
            TaskError::Panicked(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Runs `f` as `task`: behind the shared [`PanicFence`], with the
/// `exec.task` failpoint consulted (scope = [`Task::scope`]) inside the
/// fence. This is the single choke point every ported layer funnels
/// through, so the telemetry recorded here covers the whole workspace:
/// an `inet-obs` span named after the layer, the
/// `inet_task_latency_us{layer=...}` histogram, and the
/// `inet_task_panics_total{layer=...}` counter for fence-caught panics.
/// Telemetry observes wall time only — results are untouched, and the
/// `obs.record` failpoint inside the recorders proves a faulted (even
/// panicking) recorder costs at most its own record.
pub fn run_fenced<T>(task: &Task, f: impl FnOnce() -> T) -> Result<T, TaskError> {
    let span = inet_obs::span::enter(task.layer, task.scope);
    let started = std::time::Instant::now();
    let out = match PanicFence::run(|| inet_fault::check("exec.task", task.scope).map(|()| f())) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(TaskError::Fault(e)),
        Err(msg) => Err(TaskError::Panicked(msg)),
    };
    drop(span);
    let registry = inet_obs::default_registry();
    registry
        .histogram("inet_task_latency_us", &[("layer", task.layer)])
        .observe(started.elapsed().as_micros() as u64);
    if matches!(out, Err(TaskError::Panicked(_))) {
        registry
            .counter("inet_task_panics_total", &[("layer", task.layer)])
            .inc();
    }
    out
}

/// A thread count and a [`CancelToken`] bundled over the deterministic
/// work-stealing pool.
///
/// The executor adds no scheduling of its own — results are bit-identical
/// to calling [`crate::parallel`] directly, which is exactly the point: one
/// handle, same grid, same merge order, any thread count.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    threads: usize,
    cancel: CancelToken,
}

impl Executor {
    /// An executor fanning out over up to `threads` workers with a fresh
    /// (never-cancelled) token.
    pub fn new(threads: usize) -> Self {
        Executor {
            threads,
            cancel: CancelToken::new(),
        }
    }

    /// An executor whose pool polls `cancel` before claiming each chunk.
    pub fn with_cancel(threads: usize, cancel: CancelToken) -> Self {
        Executor { threads, cancel }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cancel token the pool polls.
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// [`run_fenced`] under this executor's identity — convenience so call
    /// sites hold one handle.
    pub fn run<T>(&self, task: &Task, f: impl FnOnce() -> T) -> Result<T, TaskError> {
        run_fenced(task, f)
    }

    /// [`parallel::fanout_ordered`] with this executor's thread count.
    /// Each fan-out records an `exec.fanout` span (scope = item count) and
    /// the `inet_exec_fanout_us` batch-wall-time histogram — one record
    /// per batch, never per item.
    pub fn map_ordered<S, T, FS, FW>(&self, len: usize, make_scratch: FS, work: FW) -> Vec<T>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        FW: Fn(&mut S, Range<usize>) -> T + Sync,
    {
        fanout_telemetry(len, || {
            parallel::fanout_ordered(len, self.threads, make_scratch, work)
        })
    }

    /// [`parallel::fanout_reduce`] with this executor's thread count: the
    /// chunk partials are folded in chunk order as they arrive. Records the
    /// same per-batch telemetry as [`Executor::map_ordered`].
    pub fn reduce_ordered<S, T, FS, FW, FM>(
        &self,
        len: usize,
        make_scratch: FS,
        work: FW,
        fold: FM,
    ) -> Option<T>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        FW: Fn(&mut S, Range<usize>) -> T + Sync,
        FM: FnMut(T, T) -> T,
    {
        fanout_telemetry(len, || {
            parallel::fanout_reduce(len, self.threads, make_scratch, work, fold)
        })
    }

    /// [`parallel::try_fanout_ordered`] with this executor's thread count
    /// and cancel token. Records the same per-batch telemetry as
    /// [`Executor::map_ordered`].
    pub fn try_map_ordered<S, T, FS, FW>(
        &self,
        len: usize,
        make_scratch: FS,
        work: FW,
    ) -> Result<Vec<T>, Cancelled>
    where
        T: Send,
        FS: Fn() -> S + Sync,
        FW: Fn(&mut S, Range<usize>) -> T + Sync,
    {
        fanout_telemetry(len, || {
            parallel::try_fanout_ordered(len, self.threads, &self.cancel, make_scratch, work)
        })
    }
}

/// Runs one fan-out of `len` items under an `exec.fanout` span and records
/// its wall time in the `inet_exec_fanout_us` histogram.
fn fanout_telemetry<R>(len: usize, fanout: impl FnOnce() -> R) -> R {
    let _span = inet_obs::span::enter("exec.fanout", len as u64);
    let started = std::time::Instant::now();
    let out = fanout();
    inet_obs::default_registry()
        .histogram("inet_exec_fanout_us", &[])
        .observe(started.elapsed().as_micros() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenced_task_returns_its_value() {
        let t = Task::new("test.layer", 0);
        assert_eq!(run_fenced(&t, || 7u32), Ok(7));
    }

    #[test]
    fn fenced_task_contains_panics() {
        let t = Task::new("test.layer", 1);
        let got = run_fenced(&t, || -> u32 { panic!("kernel died") });
        assert_eq!(got, Err(TaskError::Panicked("kernel died".to_string())));
        // The calling thread is healthy afterwards.
        assert_eq!(run_fenced(&t, || 1u32), Ok(1));
    }

    #[test]
    fn task_error_displays_the_raw_message() {
        let e = TaskError::Panicked("boom".to_string());
        assert_eq!(e.to_string(), "boom");
    }

    #[test]
    fn executor_map_matches_direct_pool_calls() {
        let items: Vec<u64> = (0..500).map(|i| i * 3 % 31).collect();
        let direct =
            parallel::fanout_ordered(items.len(), 3, || (), |_, r| items[r].iter().sum::<u64>());
        let exec = Executor::new(3);
        let via = exec.map_ordered(items.len(), || (), |_, r| items[r].iter().sum::<u64>());
        assert_eq!(via, direct);
        assert_eq!(exec.threads(), 3);
    }

    #[test]
    fn cancelled_executor_stops_the_pool() {
        let exec = Executor::with_cancel(2, CancelToken::new());
        exec.cancel().cancel();
        let got = exec.try_map_ordered(100, || (), |_, _| 0u8);
        assert_eq!(got, Err(Cancelled));
    }

    #[test]
    fn fresh_executor_completes_the_pool() {
        let exec = Executor::with_cancel(2, CancelToken::new());
        let got = exec.try_map_ordered(10, || (), |_, r| r.len());
        assert!(got.is_ok());
    }
}
