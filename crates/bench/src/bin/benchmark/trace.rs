//! Span recorder: the benchmark times each layer from outside, by wrapping
//! its calls into the library crates in named spans.
//!
//! Spans stay in memory while the workload runs. At exit they become
//! per-layer totals ([`Profile`]) and, for a traced run, a Chrome trace
//! written through [`TraceSink`] so it opens in Perfetto next to the
//! `RAPID_TRACE` cycle tracks. A span opened while no other span is open is
//! a root: one inference, training step, simulated layer or request, with a
//! trace id of its own. A disabled recorder only calls the wrapped closure.

use rapid_telemetry::TraceSink;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Chrome-trace process id of the benchmark's wall-clock tracks. The other
/// tracks of a merged `RAPID_TRACE` use the core ids (simulator cycles),
/// 1000 (ring links, serve request spans), 1001 (SFU) and 2000 (elastic
/// allreduce spans).
const TRACE_PID: u32 = 3000;

/// Share of root time the layer spans must cover before the profile is
/// trusted without a warning.
pub const MIN_ATTRIBUTED_PCT: f64 = 95.0;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Shared by a root and everything under it.
    pub trace: u64,
    /// Work done inside the span: MACs for kernels, elements for the SFU.
    pub work: u64,
}

/// Collects spans for one thread.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_trace: u64,
}

impl Recorder {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self { on, epoch, spans: Vec::new(), open: Vec::new(), next_trace: 0 }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => {
                self.next_trace += 1;
                self.next_trace
            }
        };
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trace, work: 0 });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` units of work to the innermost open span.
    pub fn work(&mut self, n: u64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].work += n;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match run {
                    Some((ra, rb)) if a <= rb => run = Some((ra, rb.max(b))),
                    _ => {
                        covered += run.map_or(0, |(ra, rb)| rb - ra);
                        run = Some((a, b));
                    }
                }
            }
            covered += run.map_or(0, |(ra, rb)| rb - ra);
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals of one layer (span name) over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    pub self_ns: u64,
    pub work: u64,
}

/// Per-layer totals of a run, plus the root time they divide.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Number of root spans: the operations the layers are divided over.
    pub roots: u64,
}

impl Profile {
    /// Adds the spans of one recorder.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if s.parent.is_none() {
                self.roots += 1;
                self.root_ns += s.end_ns - s.start_ns;
            } else {
                let l = self.layers.entry(s.name).or_default();
                l.calls += 1;
                l.self_ns += own;
                l.work += s.work;
            }
        }
    }

    /// Share of root time covered by the self time of the layer spans, %.
    pub fn attributed_pct(&self) -> f64 {
        let layer_ns: u64 = self.layers.values().map(|l| l.self_ns).sum();
        if self.root_ns == 0 {
            0.0
        } else {
            layer_ns as f64 / self.root_ns as f64 * 100.0
        }
    }

    /// Share of root time spent in `layer`'s own code, %.
    pub fn share_pct(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(l) if self.root_ns > 0 => l.self_ns as f64 / self.root_ns as f64 * 100.0,
            _ => 0.0,
        }
    }
}

/// Writes the spans of several threads as one Chrome trace, one track per
/// thread. Root spans carry their trace id in the label.
pub fn write_chrome(path: &Path, tracks: &[(&str, &[Span])]) -> std::io::Result<()> {
    let mut sink = TraceSink::new();
    for (tid, (thread, spans)) in tracks.iter().enumerate() {
        let tid = tid as u32;
        sink.track(TRACE_PID, tid, "rapid-benchmark", thread);
        for s in spans.iter() {
            let label = match s.parent {
                None => format!("{}#{}", s.name, s.trace),
                Some(_) => s.name.to_string(),
            };
            let dur_us = (s.end_ns - s.start_ns) / 1000;
            sink.complete(TRACE_PID, tid, "benchmark", &label, s.start_ns / 1000, dur_us);
        }
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    sink.write(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, trace: 1, work: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: [10, 60] counts once
            span("a.inner", 15, 20, Some(1)),
            span("late", 90, 120, Some(0)), // clipped to the root's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 30]);
        let mut p = Profile::default();
        p.add(&spans);
        assert_eq!(p.root_ns, 100);
        assert_eq!(p.layers["a"].self_ns, 25);
        assert_eq!(p.layers["a.inner"].calls, 1);
    }

    #[test]
    fn recorder_nests_spans_and_counts_work() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("root", |r| {
            r.span("leaf", |r| r.work(7));
            r.span("leaf", |r| r.work(5));
        });
        rec.span("root", |_| {});
        let s = &rec.into_spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!((s[0].trace, s[1].trace, s[3].trace), (1, 1, 2));
        let mut p = Profile::default();
        p.add(s);
        assert_eq!(
            p.layers["leaf"],
            LayerStat { calls: 2, self_ns: p.layers["leaf"].self_ns, work: 12 }
        );
        assert!(p.attributed_pct() <= 100.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let v = rec.span("root", |r| r.span("leaf", |_| 3));
        assert_eq!(v, 3);
        assert!(rec.into_spans().is_empty());
    }
}
