//! The metrics registry: named monotonic counters, gauges and power-of-two
//! histograms behind plain integer arithmetic — no global state, no
//! locking, deterministic snapshots.
//!
//! Producers hold an `Option<&mut Telemetry>` (the same shape as the fault
//! layer's `Option<&mut FaultPlan>` hooks), so a disabled run never touches
//! the registry and stays bit-identical to pre-telemetry behaviour.

use crate::json::Json;
use std::collections::BTreeMap;

/// Number of power-of-two buckets a [`Histogram`] keeps (values ≥ 2^62 land
/// in the last bucket).
pub const HISTOGRAM_BUCKETS: usize = 63;

/// A power-of-two-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (u64::MAX when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `buckets[i]` counts samples with `floor(log2(v)) == i` (`v == 0`
    /// lands in bucket 0).
    pub buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: Box::new([0; HISTOGRAM_BUCKETS]) }
    }
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let bucket = if v == 0 { 0 } else { (63 - v.leading_zeros()) as usize };
        self.buckets[bucket.min(HISTOGRAM_BUCKETS - 1)] += 1;
    }

    /// Streaming quantile estimate with sub-bucket linear interpolation:
    /// the sample at rank `q * (count - 1)` is located in its power-of-two
    /// bucket, positioned within the bucket by midpoint-rank interpolation,
    /// and clamped to the observed `[min, max]` so estimates never escape
    /// the data. Exact for single-sample histograms; within one bucket
    /// width (≤ 2×) otherwise. `q` is clamped to `[0, 1]`; returns 0.0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let first_rank = seen as f64;
            seen += c;
            if rank < seen as f64 || seen == self.count {
                let lo = if i == 0 { 0.0 } else { (1u128 << i) as f64 };
                let hi = ((1u128 << (i + 1)) as f64) - 1.0;
                let frac = ((rank - first_rank + 0.5) / c as f64).clamp(0.0, 1.0);
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Arithmetic mean (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins floating-point gauge.
    Gauge(f64),
    /// A bucketed distribution.
    Histogram(Histogram),
}

/// A registry of named metrics. Names are dotted paths
/// (`sim.core0.corelet1.macs`); the map is a `BTreeMap`, so iteration —
/// and therefore every snapshot and JSON export — is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    /// A name previously used as a gauge/histogram is replaced (last
    /// writer wins; producers own disjoint prefixes by convention).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(v)) => *v += delta,
            _ => {
                self.metrics.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Raises the counter `name` to at least `v` (used for high-water
    /// marks like the largest backoff a retransmit waited).
    pub fn counter_max(&mut self, name: &str, v: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(cur)) => *cur = (*cur).max(v),
            _ => {
                self.metrics.insert(name.to_string(), Metric::Counter(v));
            }
        }
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), Metric::Gauge(v));
    }

    /// Records a sample into the histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            _ => {
                let mut h = Histogram::default();
                h.observe(v);
                self.metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// The counter's value (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge's value, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The raw metric, when present.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in name order (the deterministic snapshot order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in &other.metrics {
            match metric {
                Metric::Counter(v) => self.add(name, *v),
                Metric::Gauge(v) => self.set_gauge(name, *v),
                Metric::Histogram(h) => match self.metrics.get_mut(name) {
                    Some(Metric::Histogram(mine)) => mine.merge(h),
                    _ => {
                        self.metrics.insert(name.clone(), Metric::Histogram(h.clone()));
                    }
                },
            }
        }
    }

    /// A flat name → number JSON object: counters and gauges verbatim,
    /// histograms expanded to `.count`/`.sum`/`.min`/`.max`/`.mean`
    /// sub-keys. Key order is the registry's (sorted), so the export is
    /// deterministic.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(v) => fields.push((name.clone(), Json::u64(*v))),
                Metric::Gauge(v) => fields.push((name.clone(), Json::Num(*v))),
                Metric::Histogram(h) => {
                    fields.push((format!("{name}.count"), Json::u64(h.count)));
                    fields.push((format!("{name}.sum"), Json::u64(h.sum)));
                    fields.push((format!("{name}.min"), Json::u64(if h.count == 0 { 0 } else { h.min })));
                    fields.push((format!("{name}.max"), Json::u64(h.max)));
                    fields.push((format!("{name}.mean"), Json::Num(h.mean())));
                }
            }
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let mut r = MetricsRegistry::new();
        r.add("b.macs", 10);
        r.incr("a.flits");
        r.add("b.macs", 5);
        r.counter_max("b.peak", 7);
        r.counter_max("b.peak", 3);
        assert_eq!(r.counter("b.macs"), 15);
        assert_eq!(r.counter("b.peak"), 7);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.flits", "b.macs", "b.peak"]);
    }

    #[test]
    fn histograms_bucket_by_log2() {
        let mut r = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 1024] {
            r.observe("stall", v);
        }
        let h = r.histogram("stall").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.mean(), 206.0);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0); // empty
        h.observe(100);
        assert_eq!(h.quantile(0.0), 100.0); // single sample is exact
        assert_eq!(h.quantile(0.5), 100.0);
        assert_eq!(h.quantile(1.0), 100.0);

        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // Estimates stay within one power-of-two bucket of the truth and
        // inside [min, max].
        let p50 = h.quantile(0.5);
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((500.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.0) >= 1.0);
        assert!(h.quantile(1.0) <= 1000.0);
        // Monotone in q.
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = h.quantile(i as f64 / 20.0);
            assert!(v >= prev, "quantiles not monotone at {i}");
            prev = v;
        }
    }

    #[test]
    fn merge_folds_registries() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.observe("h", 4);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.set_gauge("g", 0.5);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(0.5));
        assert_eq!(a.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn json_export_is_flat_and_deterministic() {
        let mut r = MetricsRegistry::new();
        r.add("z", 1);
        r.set_gauge("a", 1.5);
        r.observe("m", 2);
        let j = r.to_json();
        let text = j.render();
        assert_eq!(
            text,
            r#"{"a":1.5,"m.count":1,"m.sum":2,"m.min":2,"m.max":2,"m.mean":2,"z":1}"#
        );
    }
}
