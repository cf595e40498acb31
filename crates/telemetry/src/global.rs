//! Process-wide recorder slot, free emission functions, and the scoped
//! [`SpanTimer`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use crate::recorder::Recorder;
use crate::Value;

/// Fast-path switch: emission functions check this with one relaxed load
/// before touching the lock, so uninstrumented runs pay essentially
/// nothing per call site.
static ENABLED: AtomicBool = AtomicBool::new(false);

static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the process-wide telemetry sink. Replaces any
/// previously installed recorder.
pub fn set_recorder(recorder: Arc<dyn Recorder>) {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes the installed recorder; emission becomes a no-op again.
pub fn clear_recorder() {
    ENABLED.store(false, Ordering::SeqCst);
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
}

/// True when a recorder is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` against the installed recorder, if any. This is the single
/// funnel every free emission function goes through; call it directly to
/// batch several emissions under one lock acquisition.
pub fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    let slot = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(recorder) = slot.as_ref() {
        f(recorder.as_ref());
    }
}

/// Adds `delta` to counter `name` on the installed recorder.
pub fn counter(name: &str, delta: u64) {
    with_recorder(|r| r.counter(name, delta));
}

/// Sets gauge `name` to `value` on the installed recorder.
pub fn gauge(name: &str, value: f64) {
    with_recorder(|r| r.gauge(name, value));
}

/// Records `seconds` into duration histogram `name` on the installed
/// recorder.
pub fn duration(name: &str, seconds: f64) {
    with_recorder(|r| r.duration(name, seconds));
}

/// Emits a structured event on the installed recorder.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    with_recorder(|r| r.event(name, fields));
}

/// A scoped timer: measures from construction to drop and records the
/// elapsed time into the duration histogram `name`.
///
/// When no recorder is installed at construction the timer is disarmed —
/// it never calls `Instant::now()`, so spans in hot paths are free in
/// uninstrumented runs.
///
/// ```
/// # fn predict() {}
/// {
///     let _span = fsda_telemetry::SpanTimer::new("pipeline.predict.seconds");
///     predict();
/// } // duration recorded here
/// ```
#[derive(Debug)]
pub struct SpanTimer<'a> {
    name: &'a str,
    start: Option<Instant>,
}

impl<'a> SpanTimer<'a> {
    /// Starts a span that records into histogram `name` on drop.
    pub fn new(name: &'a str) -> Self {
        let start = if enabled() {
            Some(Instant::now())
        } else {
            None
        };
        SpanTimer { name, start }
    }

    /// Stops the span early without recording anything.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            duration(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::memory::InMemoryRecorder;

    // The global slot is per-process; this single test exercises the whole
    // install → emit → clear life cycle so no other test has to touch it.
    #[test]
    fn global_install_emit_clear() {
        assert!(!enabled());
        counter("warmup", 1); // no-op: nothing installed

        let recorder = Arc::new(InMemoryRecorder::new());
        set_recorder(recorder.clone());
        assert!(enabled());

        counter("c", 2);
        gauge("g", 3.0);
        duration("d", 0.1);
        event("e", &[("ok", Value::from(true))]);
        {
            let _span = SpanTimer::new("span.seconds");
        }
        {
            let cancelled = SpanTimer::new("span.cancelled");
            cancelled.cancel();
        }

        let snap = recorder.snapshot_now();
        assert_eq!(snap.counter("warmup"), 0);
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.gauge("g"), Some(3.0));
        assert_eq!(snap.histogram("d").unwrap().count, 1);
        assert_eq!(snap.events_count("e"), 1);
        assert_eq!(snap.histogram("span.seconds").unwrap().count, 1);
        assert!(snap.histogram("span.cancelled").is_none());

        clear_recorder();
        assert!(!enabled());
        counter("c", 100);
        assert_eq!(recorder.snapshot_now().counter("c"), 2);

        // A span constructed while disabled stays disarmed even if a
        // recorder appears before it drops.
        let span = SpanTimer::new("late.seconds");
        set_recorder(recorder.clone());
        drop(span);
        assert!(recorder.snapshot_now().histogram("late.seconds").is_none());
        clear_recorder();
    }
}
