//! Unified telemetry for the RaPiD reproduction: a metrics registry,
//! a cycle-level Chrome-trace event sink, and the machine-readable bench
//! record schema — all with zero dependencies and zero cost when disabled.
//!
//! # Design
//!
//! Instrumentation follows the fault layer's hook shape: producers take
//! `Option<&mut Telemetry>` and do plain integer arithmetic only when the
//! option is `Some`. There is no global state, no thread-locals, no
//! locking; a run with telemetry disabled executes the exact same
//! arithmetic as one compiled before this crate existed, so numeric
//! outputs stay bit-identical.
//!
//! - [`MetricsRegistry`] — named monotonic counters, gauges and
//!   power-of-two histograms over a `BTreeMap`, so every snapshot and
//!   JSON export is deterministic.
//! - [`TraceSink`] — bounded collector of Chrome `trace_event` records
//!   (Perfetto-viewable), with [`SpanCoalescer`] to turn per-cycle phase
//!   labels into spans. Gated at the binary level by `RAPID_TRACE=<path>`
//!   ([`TRACE_ENV`]).
//! - [`span`] — request-scoped distributed tracing: deterministic span
//!   contexts, a bounded [`SpanSink`], a per-class critical-path
//!   extractor, and Chrome-trace export so request spans and cycle
//!   tracks land in one Perfetto timeline.
//! - [`slo`] — streaming SLO monitoring with multi-window burn-rate
//!   rules over a virtual clock; [`Histogram::quantile`] supplies the
//!   sub-bucket-interpolated percentiles.
//! - [`openmetrics`] — OpenMetrics text exposition of registry
//!   snapshots plus a strict validating parser, gated at the binary
//!   level by `RAPID_METRICS=<path>` ([`METRICS_ENV`]).
//! - [`schema`] — the `rapid-bench-v1` record and aggregate validators
//!   used by `--json` bench output and `scripts/check.sh --telemetry`.
//! - [`Json`] — a minimal hand-rolled JSON value/renderer/parser (the
//!   workspace has no serialization dependency, so serialization is done
//!   here).

// unwrap/expect denial comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub mod health;
pub mod json;
pub mod openmetrics;
pub mod registry;
pub mod schema;
pub mod serve;
pub mod slo;
pub mod span;
pub mod trace;

pub use health::HealthCounters;
pub use json::{Json, JsonError};
pub use openmetrics::{metrics_path_from_env, validate as validate_openmetrics, METRICS_ENV};
pub use registry::{Histogram, Metric, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use schema::{validate_aggregate, validate_bench_record, AGGREGATE_SCHEMA, BENCH_SCHEMA};
pub use serve::ServeCounters;
pub use slo::{BurnAlert, SloConfig, SloMonitor, SloReport, SloRuleReport};
pub use span::{
    critical_path, derive_trace_id, spans_to_trace, validate_forest, SpanContext, SpanRecord,
    SpanSink,
};
pub use trace::{trace_path_from_env, Phase, SpanCoalescer, TraceEvent, TraceSink, TRACE_ENV};

/// The telemetry bundle a producer writes into: always a registry, plus a
/// trace sink when cycle-level tracing was requested and a span sink when
/// request-scoped tracing is on.
///
/// Pass as `Option<&mut Telemetry>`; `None` disables all instrumentation
/// at zero cost.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Named counters / gauges / histograms.
    pub registry: MetricsRegistry,
    /// Cycle-level event sink, when tracing is on.
    pub trace: Option<TraceSink>,
    /// Request/exchange span sink, when span recording is on.
    pub spans: Option<SpanSink>,
}

impl Telemetry {
    /// Counters only — no trace sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters plus a default-capacity trace sink.
    pub fn with_trace() -> Self {
        Self { registry: MetricsRegistry::new(), trace: Some(TraceSink::new()), spans: None }
    }

    /// Counters plus a default-capacity span sink.
    pub fn with_spans() -> Self {
        Self { registry: MetricsRegistry::new(), trace: None, spans: Some(SpanSink::new()) }
    }

    /// Whether a trace sink is attached.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Folds `other` into this bundle: registries merge, trace events
    /// append, spans append with disjoint ids (all must share a time
    /// base).
    pub fn merge(&mut self, other: Telemetry) {
        self.registry.merge(&other.registry);
        if let Some(t) = other.trace {
            match &mut self.trace {
                Some(mine) => mine.merge(t),
                None => self.trace = Some(t),
            }
        }
        if let Some(s) = other.spans {
            match &mut self.spans {
                Some(mine) => mine.merge(s),
                None => self.spans = Some(s),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_noop_when_none() {
        fn produce(mut tele: Option<&mut Telemetry>) -> u64 {
            let mut acc = 0u64;
            for i in 0..10 {
                acc += i;
                if let Some(t) = tele.as_deref_mut() {
                    t.registry.incr("iters");
                }
            }
            acc
        }
        let silent = produce(None);
        let mut tele = Telemetry::new();
        let counted = produce(Some(&mut tele));
        assert_eq!(silent, counted);
        assert_eq!(tele.registry.counter("iters"), 10);
    }

    #[test]
    fn merge_combines_registry_and_trace() {
        let mut a = Telemetry::with_trace();
        a.registry.add("x", 1);
        let mut b = Telemetry::with_trace();
        b.registry.add("x", 2);
        if let Some(t) = &mut b.trace {
            t.instant(0, 0, "sim", "e", 5);
        }
        a.merge(b);
        assert_eq!(a.registry.counter("x"), 3);
        assert_eq!(a.trace.unwrap().len(), 1);
    }
}
