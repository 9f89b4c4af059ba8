//! Request-scoped distributed tracing: deterministic span contexts,
//! a bounded span sink, a critical-path extractor, and Chrome-trace
//! export so request spans and cycle-level sim tracks render in one
//! Perfetto timeline.
//!
//! # Design
//!
//! A *trace* is one request's causal history; a *span* is one stage of
//! it (queue wait, batch execution, retry backoff, an elastic-ring
//! exchange). Everything is deterministic and wall-clock-free:
//!
//! - trace ids derive from a seed and the request id ([`derive_trace_id`]
//!   — a SplitMix64 finalizer, so consecutive ids spread uniformly);
//! - span ids are allocated sequentially by the [`SpanSink`];
//! - timestamps are whatever virtual clock the producer runs on
//!   (microseconds in the serving engine, cycles in the simulators).
//!
//! Spans are recorded *closed* (both endpoints known), so the sink is a
//! plain bounded vector — no open-span bookkeeping, no allocation beyond
//! the record itself. Producers that need to link children to a parent
//! allocate the parent's context first with [`SpanSink::open_root`] and
//! record the root last with [`SpanSink::close_root`].
//!
//! [`critical_path`] folds a span forest into per-request-class stage
//! attribution: for every class (e.g. `resnet50/fp16`), how many cycles
//! or microseconds went to each stage, and which stage dominates. Since
//! child spans partition their root by construction, attribution sums to
//! total request latency exactly; `obs_sweep` hard-asserts it within 1%.

use crate::trace::TraceSink;

/// SplitMix64 finalizer: a trace id from a stream seed and a request id.
/// Deterministic, uniform, and wall-clock-free; never returns 0 (0 is
/// the "no parent" sentinel).
pub fn derive_trace_id(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z | 1
}

/// The identity a producer threads through a request's call chain: which
/// trace this work belongs to and which span is the current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request's trace id (shared by every span of the request).
    pub trace_id: u64,
    /// The span new children attach to.
    pub span_id: u64,
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the sink).
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_id: u64,
    /// Stage label (static: `"request"`, `"queue"`, `"exec"`, ...).
    pub name: &'static str,
    /// Request class (`model/tier`), set on roots; empty on children.
    pub class: String,
    /// Start timestamp, producer time base.
    pub start: u64,
    /// End timestamp (≥ start).
    pub end: u64,
}

impl SpanRecord {
    /// Span duration in the producer's time base.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A bounded collector of closed spans. Past [`SpanSink::max_spans`],
/// further records are counted in [`SpanSink::dropped`] instead of
/// stored — never silent, never unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSink {
    spans: Vec<SpanRecord>,
    next_span_id: u64,
    /// Hard cap on stored spans.
    pub max_spans: usize,
    /// Spans rejected after the cap was reached.
    pub dropped: u64,
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanSink {
    /// A sink with the default quarter-million-span cap.
    pub fn new() -> Self {
        Self::with_capacity(250_000)
    }

    /// A sink capped at `max_spans` stored spans.
    pub(crate) fn with_capacity(max_spans: usize) -> Self {
        Self { spans: Vec::new(), next_span_id: 1, max_spans, dropped: 0 }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of stored spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_span_id;
        self.next_span_id += 1;
        id
    }

    fn push(&mut self, s: SpanRecord) {
        if self.spans.len() >= self.max_spans {
            self.dropped += 1;
        } else {
            self.spans.push(s);
        }
    }

    /// Allocates the root context for a new trace. Children recorded
    /// against the returned context link to the root; record the root
    /// itself with [`SpanSink::close_root`] once its end is known.
    pub fn open_root(&mut self, trace_id: u64) -> SpanContext {
        SpanContext { trace_id, span_id: self.alloc_id() }
    }

    /// Records a closed child span under `parent`.
    pub fn child(&mut self, parent: SpanContext, name: &'static str, start: u64, end: u64) {
        let span_id = self.alloc_id();
        self.push(SpanRecord {
            trace_id: parent.trace_id,
            span_id,
            parent_id: parent.span_id,
            name,
            class: String::new(),
            start,
            end: end.max(start),
        });
    }

    /// Records the root span for a context opened with
    /// [`SpanSink::open_root`].
    pub fn close_root(
        &mut self,
        ctx: SpanContext,
        name: &'static str,
        class: &str,
        start: u64,
        end: u64,
    ) {
        self.push(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: 0,
            name,
            class: class.to_string(),
            start,
            end: end.max(start),
        });
    }

    /// Appends every span of `other` (both sinks must share a time
    /// base), remapping nothing — span ids are made disjoint by offset
    /// so merged forests stay valid.
    pub(crate) fn merge(&mut self, other: SpanSink) {
        self.dropped += other.dropped;
        let offset = self.next_span_id;
        let mut top = self.next_span_id;
        for mut s in other.spans {
            s.span_id += offset;
            if s.parent_id != 0 {
                s.parent_id += offset;
            }
            top = top.max(s.span_id);
            self.push(s);
        }
        self.next_span_id = top + 1;
    }

    /// Renders every span as a Chrome-trace complete event into `sink`,
    /// under process `pid`: one thread track per trace (requests render
    /// side by side, stages nest within their request). Root spans carry
    /// their class in the event name so the viewer labels them usefully.
    pub fn to_trace(&self, sink: &mut TraceSink, pid: u32, cat: &'static str, process: &str) {
        spans_to_trace(&self.spans, sink, pid, cat, process);
    }
}

/// The slice form of [`SpanSink::to_trace`], for consumers holding
/// detached records (e.g. a sweep result's span vector).
pub fn spans_to_trace(
    spans: &[SpanRecord],
    sink: &mut TraceSink,
    pid: u32,
    cat: &'static str,
    process: &str,
) {
    if spans.is_empty() {
        return;
    }
    sink.track(pid, 0, process, "spans");
    for s in spans {
        let tid = (s.trace_id ^ (s.trace_id >> 32)) as u32;
        if s.parent_id == 0 && !s.class.is_empty() {
            let name = format!("{} {}", s.name, s.class);
            sink.complete(pid, tid, cat, &name, s.start, s.dur());
        } else {
            sink.complete(pid, tid, cat, s.name, s.start, s.dur());
        }
    }
}

/// Checks that `spans` form a well-nested forest: every parent exists in
/// the same trace, every child's range is contained in its parent's, and
/// siblings do not overlap.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_forest(spans: &[SpanRecord]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {} ends before it starts", s.span_id));
        }
        if by_id.insert(s.span_id, s).is_some() {
            return Err(format!("duplicate span id {}", s.span_id));
        }
    }
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if s.parent_id == 0 {
            continue;
        }
        let Some(parent) = by_id.get(&s.parent_id) else {
            return Err(format!("span {} links to missing parent {}", s.span_id, s.parent_id));
        };
        if parent.trace_id != s.trace_id {
            return Err(format!(
                "span {} and its parent {} are in different traces",
                s.span_id, s.parent_id
            ));
        }
        if s.start < parent.start || s.end > parent.end {
            return Err(format!(
                "span {} [{}, {}] escapes parent {} [{}, {}]",
                s.span_id, s.start, s.end, parent.span_id, parent.start, parent.end
            ));
        }
        children.entry(s.parent_id).or_default().push(s);
    }
    for (parent, mut kids) in children {
        kids.sort_by_key(|s| (s.start, s.end, s.span_id));
        for pair in kids.windows(2) {
            if pair[1].start < pair[0].end {
                return Err(format!(
                    "children {} and {} of span {parent} overlap",
                    pair[0].span_id, pair[1].span_id
                ));
            }
        }
    }
    Ok(())
}

/// Per-class critical-path attribution over a span forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassCriticalPath {
    /// Request class (root span class; `""` groups unclassed roots).
    pub class: String,
    /// Root spans (requests) in the class.
    pub requests: u64,
    /// Sum of root durations — total latency of the class.
    pub total: u64,
    /// Per-stage duration sums over direct children, name-sorted.
    pub stages: Vec<(&'static str, u64)>,
    /// Root time not covered by any child span.
    pub unattributed: u64,
}

impl ClassCriticalPath {
    /// Stage + child-attributed total (excludes [`Self::unattributed`]).
    pub fn attributed(&self) -> u64 {
        self.stages.iter().map(|(_, d)| d).sum()
    }

    /// The stage with the largest share, if any child time was recorded.
    pub fn dominant(&self) -> Option<(&'static str, u64)> {
        self.stages.iter().copied().max_by_key(|&(name, d)| (d, std::cmp::Reverse(name)))
    }
}

/// Folds a span forest into per-class stage attribution: direct children
/// of each root are charged to their stage name; whatever the children
/// do not cover shows up as `unattributed` (and must stay within 1% of
/// total for the E23 contract to hold).
pub fn critical_path(spans: &[SpanRecord]) -> Vec<ClassCriticalPath> {
    use std::collections::BTreeMap;
    // Root span id -> class index.
    let mut class_of_root: BTreeMap<u64, usize> = BTreeMap::new();
    let mut classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut out: Vec<ClassCriticalPath> = Vec::new();
    for s in spans {
        if s.parent_id != 0 {
            continue;
        }
        let idx = *classes.entry(s.class.clone()).or_insert_with(|| {
            out.push(ClassCriticalPath {
                class: s.class.clone(),
                requests: 0,
                total: 0,
                stages: Vec::new(),
                unattributed: 0,
            });
            out.len() - 1
        });
        class_of_root.insert(s.span_id, idx);
        out[idx].requests += 1;
        out[idx].total += s.dur();
        out[idx].unattributed += s.dur(); // children subtract below
    }
    for s in spans {
        if s.parent_id == 0 {
            continue;
        }
        let Some(&idx) = class_of_root.get(&s.parent_id) else { continue };
        let cp = &mut out[idx];
        cp.unattributed = cp.unattributed.saturating_sub(s.dur());
        match cp.stages.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, d)) => *d += s.dur(),
            None => cp.stages.push((s.name, s.dur())),
        }
    }
    for cp in &mut out {
        cp.stages.sort_by_key(|&(name, _)| name);
    }
    out.sort_by(|a, b| a.class.cmp(&b.class));
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn request(sink: &mut SpanSink, trace_seed: u64, id: u64, class: &str) {
        let ctx = sink.open_root(derive_trace_id(trace_seed, id));
        let t0 = id * 100;
        sink.child(ctx, "queue", t0, t0 + 30);
        sink.child(ctx, "exec", t0 + 30, t0 + 90);
        sink.close_root(ctx, "request", class, t0, t0 + 90);
    }

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        assert_eq!(derive_trace_id(7, 1), derive_trace_id(7, 1));
        assert_ne!(derive_trace_id(7, 1), derive_trace_id(7, 2));
        assert_ne!(derive_trace_id(7, 1), derive_trace_id(8, 1));
        assert_ne!(derive_trace_id(0, 0), 0);
    }

    #[test]
    fn forest_validates_and_attributes_exactly() {
        let mut sink = SpanSink::new();
        request(&mut sink, 1, 0, "m/fp16");
        request(&mut sink, 1, 1, "m/fp16");
        request(&mut sink, 1, 2, "m/int4");
        validate_forest(sink.spans()).unwrap();
        let cp = critical_path(sink.spans());
        assert_eq!(cp.len(), 2);
        let fp16 = &cp[0];
        assert_eq!(fp16.class, "m/fp16");
        assert_eq!(fp16.requests, 2);
        assert_eq!(fp16.total, 180);
        assert_eq!(fp16.attributed(), 180);
        assert_eq!(fp16.unattributed, 0);
        assert_eq!(fp16.dominant(), Some(("exec", 120)));
    }

    #[test]
    fn violations_are_reported() {
        let mut sink = SpanSink::new();
        let ctx = sink.open_root(derive_trace_id(1, 0));
        sink.child(ctx, "queue", 0, 50);
        sink.close_root(ctx, "request", "m", 10, 40); // child escapes root
        assert!(validate_forest(sink.spans()).is_err());

        let orphan = [SpanRecord {
            trace_id: 1,
            span_id: 5,
            parent_id: 99,
            name: "x",
            class: String::new(),
            start: 0,
            end: 1,
        }];
        assert!(validate_forest(&orphan).unwrap_err().contains("missing parent"));
    }

    #[test]
    fn merge_keeps_ids_disjoint_and_forests_valid() {
        let mut a = SpanSink::new();
        request(&mut a, 1, 0, "m/fp16");
        let mut b = SpanSink::new();
        request(&mut b, 2, 1, "m/hfp8");
        a.merge(b);
        validate_forest(a.spans()).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(critical_path(a.spans()).len(), 2);
    }

    #[test]
    fn cap_counts_drops() {
        let mut sink = SpanSink::with_capacity(2);
        request(&mut sink, 1, 0, "m");
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped, 1);
    }

    #[test]
    fn to_trace_renders_complete_events() {
        let mut sink = SpanSink::new();
        request(&mut sink, 1, 0, "m/fp16");
        let mut trace = TraceSink::new();
        sink.to_trace(&mut trace, 1000, "serve", "serve");
        // 2 metadata + 3 spans
        assert_eq!(trace.len(), 5);
        let root = trace.events().iter().find(|e| e.name.starts_with("request")).unwrap();
        assert_eq!(root.name, "request m/fp16");
        assert_eq!(root.dur, 90);
        assert_eq!(root.pid, 1000);
    }
}
