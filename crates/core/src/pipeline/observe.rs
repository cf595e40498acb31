//! Scoped telemetry spans for the [`DriftMitigator`] call surface.
//!
//! Every mitigator implementation wraps its fit entry points and its two
//! prediction bodies (`predict_batch_with`, `try_predict_batch_with`) in
//! a [`CallSpan`]: one per-method request counter on entry, one duration
//! histogram observation on drop. The span is fully disarmed when no
//! recorder is installed — no allocation, no `Instant::now()` — so the
//! unguarded serving hot path stays within the no-op overhead budget.
//!
//! [`DriftMitigator`]: crate::pipeline::DriftMitigator

use crate::method::Method;
use fsda_models::InferPrecision;
use fsda_telemetry as telemetry;
use std::time::Instant;

/// Which trait entry point a [`CallSpan`] wraps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Call {
    /// `fit` / `try_fit`.
    Fit,
    /// `predict_batch_with`, which `predict` and `predict_batch` forward
    /// to (the unguarded path).
    Predict,
    /// `try_predict_batch_with`, which `try_predict_batch` forwards to
    /// (the guarded serving path).
    TryPredictBatch,
}

impl Call {
    fn counter_prefix(self) -> &'static str {
        match self {
            Call::Fit => "pipeline.fit.",
            Call::Predict | Call::TryPredictBatch => "pipeline.predict.",
        }
    }

    fn histogram(self) -> &'static str {
        match self {
            Call::Fit => "pipeline.fit.seconds",
            Call::Predict => "pipeline.predict.seconds",
            Call::TryPredictBatch => "serve.predict_batch.seconds",
        }
    }
}

/// Drop guard recording one mitigator call: request counters on
/// construction, latency on drop.
#[derive(Debug)]
pub(crate) struct CallSpan {
    histogram: &'static str,
    start: Option<Instant>,
}

/// Opens a span for one mitigator call. Increments
/// `pipeline.{fit,predict}.{method-slug}` (and `serve.requests.{slug}`
/// for the guarded path) immediately; the matching latency histogram is
/// recorded when the returned guard drops.
pub(crate) fn call_span(call: Call, method: Method) -> CallSpan {
    if !telemetry::enabled() {
        return CallSpan {
            histogram: call.histogram(),
            start: None,
        };
    }
    let slug = method.slug();
    telemetry::with_recorder(|rec| {
        rec.counter(&format!("{}{slug}", call.counter_prefix()), 1);
        if matches!(call, Call::TryPredictBatch) {
            rec.counter(&format!("serve.requests.{slug}"), 1);
        }
    });
    CallSpan {
        histogram: call.histogram(),
        start: Some(Instant::now()),
    }
}

impl Drop for CallSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            telemetry::duration(self.histogram, start.elapsed().as_secs_f64());
        }
    }
}

/// Counts one prediction at its precision:
/// `pipeline.predict.precision.{f64_exact,f32_fast}`. Called exactly once
/// per prediction body, so the two counters partition every prediction.
pub(crate) fn note_precision(precision: InferPrecision) {
    if telemetry::enabled() {
        telemetry::counter(
            &format!("pipeline.predict.precision.{}", precision.label()),
            1,
        );
    }
}

/// Starts a per-stage fit timer when telemetry is enabled; pair with
/// [`finish_stage`].
pub(crate) fn start_stage() -> Option<Instant> {
    telemetry::enabled().then(Instant::now)
}

/// Records a `pipeline.fit.{stage}.seconds` observation for a timer opened
/// by [`start_stage`].
pub(crate) fn finish_stage(start: Option<Instant>, stage: &str) {
    if let Some(start) = start {
        telemetry::duration(
            &format!("pipeline.fit.{stage}.seconds"),
            start.elapsed().as_secs_f64(),
        );
    }
}
