//! Cycle-level event tracing in the Chrome `trace_event` JSON format.
//!
//! A [`TraceSink`] collects events during a simulation; [`TraceSink::to_json`]
//! renders the `{"traceEvents": [...]}` document that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly. Simulator cycles map
//! one-to-one onto trace microseconds (`ts` is the cycle number), so a span
//! of `dur: 37` reads as 37 cycles.
//!
//! Tracks follow the viewer's process/thread model: a *process* (`pid`) is
//! a physical unit (a core, the ring, the SFU pool) and a *thread* (`tid`)
//! is one engine inside it (a sequencer, a corelet array). Name tracks up
//! front with [`TraceSink::track`] so the viewer shows real labels.
//!
//! The sink is bounded: past [`TraceSink::max_events`] further events are
//! counted in [`TraceSink::dropped`] instead of stored, so a runaway sim
//! cannot exhaust memory — and the drop count is visible, never silent.

use crate::json::Json;

/// Environment variable naming the Chrome-trace output path. Binaries that
/// support tracing check it via [`trace_path_from_env`].
pub const TRACE_ENV: &str = "RAPID_TRACE";

/// The trace path requested through [`TRACE_ENV`], if any (empty value
/// reads as unset).
pub fn trace_path_from_env() -> Option<std::path::PathBuf> {
    match std::env::var(TRACE_ENV) {
        Ok(p) if !p.trim().is_empty() => Some(std::path::PathBuf::from(p)),
        _ => None,
    }
}

/// Event phase, per the trace_event spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `"X"` — a complete span with a duration.
    Complete,
    /// `"i"` — an instant event.
    Instant,
    /// `"C"` — a counter sample.
    Counter,
    /// `"M"` — metadata (process/thread names).
    Metadata,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
            Phase::Metadata => "M",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (span label, counter name, or metadata kind).
    pub name: String,
    /// Category tag (`sim`, `ring`, `sfu`, ...).
    pub cat: &'static str,
    /// Phase.
    pub ph: Phase,
    /// Timestamp in cycles (rendered as trace microseconds).
    pub ts: u64,
    /// Duration in cycles (complete spans only).
    pub dur: u64,
    /// Process id — the physical unit's track group.
    pub pid: u32,
    /// Thread id — the engine's track within the group.
    pub tid: u32,
    /// Counter value / metadata payload.
    pub arg: Option<(String, Json)>,
}

/// A bounded in-memory collector of trace events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    /// Hard cap on stored events.
    pub max_events: usize,
    /// Events rejected after the cap was reached.
    pub dropped: u64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// A sink with the default one-million-event cap.
    pub fn new() -> Self {
        Self::with_capacity(1_000_000)
    }

    /// A sink capped at `max_events` stored events.
    pub(crate) fn with_capacity(max_events: usize) -> Self {
        Self { events: Vec::new(), max_events, dropped: 0 }
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, e: TraceEvent) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
        } else {
            self.events.push(e);
        }
    }

    /// Names a track: emits `process_name` and `thread_name` metadata so
    /// the viewer labels `pid`/`tid` with real unit names.
    pub fn track(&mut self, pid: u32, tid: u32, process: &str, thread: &str) {
        self.push(TraceEvent {
            name: "process_name".to_string(),
            cat: "__metadata",
            ph: Phase::Metadata,
            ts: 0,
            dur: 0,
            pid,
            tid,
            arg: Some(("name".to_string(), Json::str(process))),
        });
        self.push(TraceEvent {
            name: "thread_name".to_string(),
            cat: "__metadata",
            ph: Phase::Metadata,
            ts: 0,
            dur: 0,
            pid,
            tid,
            arg: Some(("name".to_string(), Json::str(thread))),
        });
    }

    /// Records a complete span of `dur` cycles starting at `ts`.
    pub fn complete(&mut self, pid: u32, tid: u32, cat: &'static str, name: &str, ts: u64, dur: u64) {
        self.push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: Phase::Complete,
            ts,
            dur,
            pid,
            tid,
            arg: None,
        });
    }

    /// Records an instant event at `ts`.
    pub fn instant(&mut self, pid: u32, tid: u32, cat: &'static str, name: &str, ts: u64) {
        self.push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: Phase::Instant,
            ts,
            dur: 0,
            pid,
            tid,
            arg: None,
        });
    }

    /// Appends every event of `other` (shifting nothing — both sinks must
    /// share a time base), accumulating its drop count.
    pub fn merge(&mut self, other: TraceSink) {
        self.dropped += other.dropped;
        for e in other.events {
            self.push(e);
        }
    }

    /// Renders the `{"traceEvents": [...]}` document.
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self.events.iter().map(event_json).collect();
        let mut fields = vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::str("ns")),
        ];
        if self.dropped > 0 {
            fields.push(("rapidDroppedEvents".to_string(), Json::u64(self.dropped)));
        }
        Json::Obj(fields)
    }

    /// Writes the trace document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render())
    }
}

fn event_json(e: &TraceEvent) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(&e.name)),
        ("cat".to_string(), Json::str(e.cat)),
        ("ph".to_string(), Json::str(e.ph.as_str())),
        ("ts".to_string(), Json::u64(e.ts)),
        ("pid".to_string(), Json::u64(u64::from(e.pid))),
        ("tid".to_string(), Json::u64(u64::from(e.tid))),
    ];
    if e.ph == Phase::Complete {
        fields.push(("dur".to_string(), Json::u64(e.dur)));
    }
    if e.ph == Phase::Instant {
        // Instant scope: thread-scoped keeps the marker on its track.
        fields.push(("s".to_string(), Json::str("t")));
    }
    if let Some((k, v)) = &e.arg {
        fields.push(("args".to_string(), Json::Obj(vec![(k.clone(), v.clone())])));
    }
    Json::Obj(fields)
}

/// A span builder that coalesces per-cycle activity labels into complete
/// spans: feed it one label per cycle (or `None` for an idle cycle) and it
/// emits a span each time the label changes. Used by the simulators to turn
/// phase-by-cycle state into well-nested track spans without storing an
/// event per cycle.
#[derive(Debug)]
pub struct SpanCoalescer {
    pid: u32,
    tid: u32,
    cat: &'static str,
    open: Option<(&'static str, u64)>,
}

impl SpanCoalescer {
    /// A coalescer writing to the given track.
    pub fn new(pid: u32, tid: u32, cat: &'static str) -> Self {
        Self { pid, tid, cat, open: None }
    }

    /// Observes the label active during `cycle` (`None` = idle).
    pub fn observe(&mut self, sink: &mut TraceSink, cycle: u64, label: Option<&'static str>) {
        match (self.open, label) {
            (Some((cur, _)), Some(new)) if cur == new => {}
            (Some((cur, start)), _) => {
                sink.complete(self.pid, self.tid, self.cat, cur, start, cycle - start);
                self.open = label.map(|l| (l, cycle));
            }
            (None, Some(l)) => self.open = Some((l, cycle)),
            (None, None) => {}
        }
    }

    /// Closes any open span at `cycle` (call when the simulation ends or
    /// deadlocks, so partial activity is flushed into the trace).
    pub fn finish(&mut self, sink: &mut TraceSink, cycle: u64) {
        if let Some((label, start)) = self.open.take() {
            sink.complete(self.pid, self.tid, self.cat, label, start, cycle.saturating_sub(start));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_metadata_render_as_trace_events() {
        let mut sink = TraceSink::new();
        sink.track(1, 2, "core0", "array");
        sink.complete(1, 2, "sim", "stream", 10, 5);
        sink.instant(1, 2, "sim", "deadlock", 20);
        let j = sink.to_json();
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        let span = &events[2];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(5.0));
        let text = j.render();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn cap_counts_drops_instead_of_growing() {
        let mut sink = TraceSink::with_capacity(2);
        for i in 0..5 {
            sink.instant(0, 0, "x", "e", i);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped, 3);
        assert!(sink.to_json().get("rapidDroppedEvents").is_some());
    }

    #[test]
    fn coalescer_merges_repeated_labels() {
        let mut sink = TraceSink::new();
        let mut sc = SpanCoalescer::new(0, 0, "sim");
        for (cycle, label) in
            [(0, Some("load")), (1, Some("load")), (2, Some("stream")), (3, None), (4, Some("stream"))]
        {
            sc.observe(&mut sink, cycle, label);
        }
        sc.finish(&mut sink, 6);
        let spans: Vec<(String, u64, u64)> = sink
            .events()
            .iter()
            .map(|e| (e.name.clone(), e.ts, e.dur))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("load".to_string(), 0, 2),
                ("stream".to_string(), 2, 1),
                ("stream".to_string(), 4, 2),
            ]
        );
    }

    #[test]
    fn merge_appends_and_sums_drops() {
        let mut a = TraceSink::with_capacity(10);
        a.instant(0, 0, "x", "a", 0);
        let mut b = TraceSink::with_capacity(1);
        b.instant(0, 0, "x", "b", 1);
        b.instant(0, 0, "x", "c", 2); // dropped in b
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped, 1);
    }
}
