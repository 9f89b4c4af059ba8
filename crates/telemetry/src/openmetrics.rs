//! OpenMetrics text exposition: render a [`MetricsRegistry`] snapshot as
//! scrape-able text, and validate/parse such text back.
//!
//! The renderer emits one *metric family* per registry entry, in the
//! registry's deterministic (name-sorted) order:
//!
//! ```text
//! # TYPE serve_completed counter
//! serve_completed_total{job="rapid"} 42
//! # TYPE serve_latency_us histogram
//! serve_latency_us_bucket{job="rapid",le="1"} 2
//! serve_latency_us_bucket{job="rapid",le="+Inf"} 10
//! serve_latency_us_sum{job="rapid"} 12345
//! serve_latency_us_count{job="rapid"} 10
//! # EOF
//! ```
//!
//! Dotted registry names sanitize to underscores (`serve.completed` →
//! `serve_completed`); the power-of-two histogram buckets become
//! cumulative `le` buckets with upper bounds `2^(i+1) - 1`, always ending
//! in `+Inf`. Label values are escaped per the spec. Non-finite gauges
//! are skipped (nothing in this repo emits them; the bench layer already
//! filters non-finite metrics).
//!
//! [`validate`] is a strict line parser used by tests, `obs_sweep` and
//! `check.sh --obs`: it enforces `TYPE`-before-samples, the per-kind
//! sample-name suffix rules, cumulative non-decreasing buckets,
//! `_count` == `+Inf` bucket, and a single terminal `# EOF` — and
//! returns the parsed document so round-trip tests can compare values.

use crate::registry::{Metric, MetricsRegistry};

/// Environment variable naming the OpenMetrics snapshot output path.
/// Benches that support it write their merged registry there on exit.
pub const METRICS_ENV: &str = "RAPID_METRICS";

/// The snapshot path requested through [`METRICS_ENV`], if any (empty
/// value reads as unset).
pub fn metrics_path_from_env() -> Option<std::path::PathBuf> {
    match std::env::var(METRICS_ENV) {
        Ok(p) if !p.trim().is_empty() => Some(std::path::PathBuf::from(p)),
        _ => None,
    }
}

/// Maps a registry name onto the OpenMetrics charset: `[a-zA-Z0-9_:]`,
/// first char non-digit. Dots and dashes become underscores.
pub(crate) fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders `reg` as an OpenMetrics text snapshot, attaching `labels` to
/// every sample. Families appear in registry (name-sorted) order, so the
/// output is deterministic.
pub fn render_labeled(reg: &MetricsRegistry, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let plain = label_block(labels, None);
    for (name, metric) in reg.iter() {
        let fam = sanitize_name(name);
        match metric {
            Metric::Counter(v) => {
                out.push_str(&format!("# TYPE {fam} counter\n"));
                out.push_str(&format!("{fam}_total{plain} {v}\n"));
            }
            Metric::Gauge(v) => {
                if !v.is_finite() {
                    continue;
                }
                out.push_str(&format!("# TYPE {fam} gauge\n"));
                out.push_str(&format!("{fam}{plain} {}\n", fmt_f64(*v)));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {fam} histogram\n"));
                let last = h
                    .buckets
                    .iter()
                    .rposition(|&c| c != 0)
                    .map_or(0, |i| i + 1);
                let mut cum = 0u64;
                for (i, &c) in h.buckets.iter().enumerate().take(last) {
                    cum += c;
                    let le = format!("{}", (1u128 << (i + 1)) - 1);
                    let lb = label_block(labels, Some(("le", &le)));
                    out.push_str(&format!("{fam}_bucket{lb} {cum}\n"));
                }
                let lb = label_block(labels, Some(("le", "+Inf")));
                out.push_str(&format!("{fam}_bucket{lb} {}\n", h.count));
                out.push_str(&format!("{fam}_sum{plain} {}\n", h.sum));
                out.push_str(&format!("{fam}_count{plain} {}\n", h.count));
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Metric family kinds this exposition emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmKind {
    /// Monotonic counter (`_total` samples).
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct OmSample {
    /// Full sample name (family + suffix).
    pub name: String,
    /// Labels in emission order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

impl OmSample {
    /// The sample's `le` label, when present.
    pub(crate) fn le(&self) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == "le").map(|(_, v)| v.as_str())
    }
}

/// One parsed metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct OmFamily {
    /// Family name (without per-kind suffixes).
    pub name: String,
    /// Declared kind.
    pub kind: OmKind,
    /// Samples, in file order.
    pub samples: Vec<OmSample>,
}

/// A parsed, validated OpenMetrics document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OmDoc {
    /// Families in file order.
    pub families: Vec<OmFamily>,
}

impl OmDoc {
    /// The named family, when present.
    pub(crate) fn family(&self, name: &str) -> Option<&OmFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The single value of a counter family (`<name>_total`).
    pub fn counter(&self, name: &str) -> Option<f64> {
        let f = self.family(name)?;
        (f.kind == OmKind::Counter).then(|| f.samples.first().map(|s| s.value))?
    }

    /// The single value of a gauge family.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let f = self.family(name)?;
        (f.kind == OmKind::Gauge).then(|| f.samples.first().map(|s| s.value))?
    }

    /// A histogram family's `(count, sum)`.
    pub fn histogram(&self, name: &str) -> Option<(f64, f64)> {
        let f = self.family(name)?;
        if f.kind != OmKind::Histogram {
            return None;
        }
        let pick = |suffix: &str| {
            f.samples
                .iter()
                .find(|s| s.name == format!("{}{suffix}", f.name))
                .map(|s| s.value)
        };
        Some((pick("_count")?, pick("_sum")?))
    }

    /// A histogram family's cumulative bucket value at `le` (the reader
    /// the round-trip test checks rendered buckets with).
    #[cfg(test)]
    pub(crate) fn bucket(&self, name: &str, le: &str) -> Option<f64> {
        let f = self.family(name)?;
        f.samples
            .iter()
            .find(|s| s.name == format!("{}_bucket", f.name) && s.le() == Some(le))
            .map(|s| s.value)
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(|c: char| c.is_ascii_digit())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if !valid_name(&key) {
            return Err(format!("bad label name {key:?}"));
        }
        if out.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate label {key:?}"));
        }
        if chars.next() != Some('"') {
            return Err("label value must be quoted".to_string());
        }
        let mut val = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                _ => val.push(c),
            }
        }
        if !closed {
            return Err("unterminated label value".to_string());
        }
        out.push((key, val));
        match chars.next() {
            None => return Ok(out),
            Some(',') => continue,
            Some(c) => return Err(format!("unexpected {c:?} after label value")),
        }
    }
}

fn parse_sample(line: &str) -> Result<OmSample, String> {
    let (head, value_str) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unclosed label block")?;
            if close < open {
                return Err("malformed label block".to_string());
            }
            (
                (line[..open].to_string(), parse_labels(&line[open + 1..close])?),
                line[close + 1..].trim_start(),
            )
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap_or_default().to_string();
            ((name, Vec::new()), it.next().unwrap_or_default())
        }
    };
    let (name, labels) = head;
    if !valid_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let value_str = value_str.trim();
    if value_str.is_empty() || value_str.contains(' ') {
        // A second field would be a timestamp; this exposition never
        // emits one, so reject rather than mis-read it.
        return Err(format!("expected exactly one value on {line:?}"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        _ => value_str
            .parse::<f64>()
            .map_err(|_| format!("bad value {value_str:?}"))?,
    };
    Ok(OmSample { name, labels, value })
}

fn close_family(fam: &OmFamily) -> Result<(), String> {
    let n = &fam.name;
    match fam.kind {
        OmKind::Counter | OmKind::Gauge => {
            if fam.samples.is_empty() {
                return Err(format!("family {n} has no samples"));
            }
            if fam.kind == OmKind::Counter {
                for s in &fam.samples {
                    if !(s.value.is_finite() && s.value >= 0.0) {
                        return Err(format!("counter {n} has non-finite/negative value"));
                    }
                }
            }
        }
        OmKind::Histogram => {
            let buckets: Vec<&OmSample> =
                fam.samples.iter().filter(|s| s.name == format!("{n}_bucket")).collect();
            if buckets.is_empty() {
                return Err(format!("histogram {n} has no buckets"));
            }
            let mut prev = -1.0f64;
            for b in &buckets {
                if b.le().is_none() {
                    return Err(format!("histogram {n} bucket missing le label"));
                }
                if b.value < prev {
                    return Err(format!("histogram {n} buckets are not cumulative"));
                }
                prev = b.value;
            }
            let last = buckets.last().ok_or("empty buckets")?;
            if last.le() != Some("+Inf") {
                return Err(format!("histogram {n} must end with an +Inf bucket"));
            }
            let count = fam
                .samples
                .iter()
                .find(|s| s.name == format!("{n}_count"))
                .ok_or_else(|| format!("histogram {n} is missing _count"))?;
            fam.samples
                .iter()
                .find(|s| s.name == format!("{n}_sum"))
                .ok_or_else(|| format!("histogram {n} is missing _sum"))?;
            if count.value != last.value {
                return Err(format!("histogram {n}: _count != +Inf bucket"));
            }
        }
    }
    Ok(())
}

/// Parses and validates an OpenMetrics text snapshot.
///
/// Enforced: `TYPE` declared before a family's samples, per-kind sample
/// suffix rules, valid names and label syntax, cumulative non-decreasing
/// histogram buckets ending in `+Inf` with `_count` matching, finite
/// non-negative counters, no duplicate family declarations, and exactly
/// one `# EOF` as the final line.
///
/// # Errors
///
/// A description of the first violation, prefixed with its line number.
pub fn validate(text: &str) -> Result<OmDoc, String> {
    let mut doc = OmDoc::default();
    let mut current: Option<OmFamily> = None;
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut eof = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let ctx = |msg: String| format!("line {lineno}: {msg}");
        if eof {
            return Err(ctx("content after # EOF".to_string()));
        }
        if line.is_empty() {
            return Err(ctx("empty line".to_string()));
        }
        if line == "# EOF" {
            eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default();
            let kind = match it.next() {
                Some("counter") => OmKind::Counter,
                Some("gauge") => OmKind::Gauge,
                Some("histogram") => OmKind::Histogram,
                other => return Err(ctx(format!("unsupported family kind {other:?}"))),
            };
            if !valid_name(name) {
                return Err(ctx(format!("bad family name {name:?}")));
            }
            if !seen.insert(name.to_string()) {
                return Err(ctx(format!("duplicate family {name}")));
            }
            if let Some(fam) = current.take() {
                close_family(&fam).map_err(ctx)?;
                doc.families.push(fam);
            }
            current = Some(OmFamily { name: name.to_string(), kind, samples: Vec::new() });
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        if line.starts_with('#') {
            return Err(ctx(format!("unknown comment form {line:?}")));
        }
        let sample = parse_sample(line).map_err(&ctx)?;
        let Some(fam) = current.as_mut() else {
            return Err(ctx(format!("sample {} before any # TYPE", sample.name)));
        };
        let ok = match fam.kind {
            OmKind::Counter => sample.name == format!("{}_total", fam.name),
            OmKind::Gauge => sample.name == fam.name,
            OmKind::Histogram => {
                sample.name == format!("{}_bucket", fam.name)
                    || sample.name == format!("{}_sum", fam.name)
                    || sample.name == format!("{}_count", fam.name)
            }
        };
        if !ok {
            return Err(ctx(format!(
                "sample {} does not belong to family {} ({:?})",
                sample.name, fam.name, fam.kind
            )));
        }
        fam.samples.push(sample);
    }
    if let Some(fam) = current.take() {
        close_family(&fam)?;
        doc.families.push(fam);
    }
    if !eof {
        return Err("missing terminal # EOF".to_string());
    }
    Ok(doc)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.add("serve.completed", 42);
        r.set_gauge("serve.goodput-qps", 123.5);
        for v in [0u64, 1, 2, 3, 700, 1024] {
            r.observe("serve.latency_us", v);
        }
        r
    }

    #[test]
    fn render_validates_and_round_trips() {
        let reg = registry();
        let text = render_labeled(&reg, &[("job", "rapid")]);
        let doc = validate(&text).unwrap();
        assert_eq!(doc.counter("serve_completed"), Some(42.0));
        assert_eq!(doc.gauge("serve_goodput_qps"), Some(123.5));
        let (count, sum) = doc.histogram("serve_latency_us").unwrap();
        assert_eq!(count, 6.0);
        assert_eq!(sum, 1730.0);
        // Cumulative buckets: le=1 covers {0, 1}; le=3 adds {2, 3}.
        assert_eq!(doc.bucket("serve_latency_us", "1"), Some(2.0));
        assert_eq!(doc.bucket("serve_latency_us", "3"), Some(4.0));
        assert_eq!(doc.bucket("serve_latency_us", "+Inf"), Some(6.0));
        // Shared label survives with escaping-safe parsing.
        assert_eq!(
            doc.family("serve_completed").unwrap().samples[0].labels,
            vec![("job".to_string(), "rapid".to_string())]
        );
    }

    #[test]
    fn label_values_escape_and_parse_back() {
        let mut r = MetricsRegistry::new();
        r.add("c", 1);
        let text = render_labeled(&r, &[("path", "a\"b\\c\nd")]);
        let doc = validate(&text).unwrap();
        assert_eq!(doc.families[0].samples[0].labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn rejects_malformed_documents() {
        // Missing EOF.
        assert!(validate("# TYPE a counter\na_total 1\n").is_err());
        // Sample before TYPE.
        assert!(validate("a_total 1\n# EOF\n").is_err());
        // Wrong suffix for declared kind.
        assert!(validate("# TYPE a counter\na 1\n# EOF\n").is_err());
        // Non-cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n# EOF\n";
        assert!(validate(bad).unwrap_err().contains("cumulative"));
        // Count disagrees with +Inf bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n# EOF\n";
        assert!(validate(bad).unwrap_err().contains("_count"));
        // Duplicate family.
        let bad = "# TYPE a counter\na_total 1\n# TYPE a counter\na_total 2\n# EOF\n";
        assert!(validate(bad).unwrap_err().contains("duplicate"));
        // Content after EOF.
        assert!(validate("# EOF\n# TYPE a counter\na_total 1\n").is_err());
        // Negative counter.
        assert!(validate("# TYPE a counter\na_total -1\n# EOF\n").is_err());
    }

    #[test]
    fn sanitize_maps_onto_charset() {
        assert_eq!(sanitize_name("serve.latency-us"), "serve_latency_us");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn empty_registry_is_a_valid_snapshot() {
        let text = render_labeled(&MetricsRegistry::new(), &[]);
        assert_eq!(text, "# EOF\n");
        assert!(validate(&text).unwrap().families.is_empty());
    }
}
