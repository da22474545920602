//! Exposition: point-in-time registry snapshots rendered as Prometheus
//! text format or JSON.
//!
//! A [`Snapshot`] is plain data — taking one locks the registry briefly
//! and copies every metric, so renders and diffs never hold the lock.
//! The JSON form round-trips through [`Snapshot::from_json`] (a small
//! parser for exactly the format [`Snapshot::to_json`] emits), which is
//! what the interval-accounting tests build on, together with
//! [`Snapshot::delta_since`].

use std::fmt::Write as _;

use crate::hist::HistogramSpec;

/// A point-in-time copy of one registry, in registration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Every registered metric with its current value.
    pub metrics: Vec<MetricSnapshot>,
}

/// One metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered metric name (`bt_*` for the tree catalogue).
    pub name: String,
    /// Registered help text.
    pub help: String,
    /// The copied value.
    pub value: ValueSnapshot,
}

/// The value of one snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSnapshot {
    /// A monotone counter total.
    Counter(u64),
    /// A last-writer-wins gauge.
    Gauge(f64),
    /// A log-bucketed histogram (buckets underflow-first, overflow-last).
    Histogram {
        /// Bucket spec the histogram was registered with.
        spec: HistogramSpec,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: f64,
        /// Per-bucket (non-cumulative) tallies.
        buckets: Vec<u64>,
    },
}

impl Snapshot {
    /// The counter called `name`, or 0 if absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.find(name) {
            Some(ValueSnapshot::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge called `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.find(name) {
            Some(ValueSnapshot::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// `(count, sum)` of the histogram called `name`, or `(0, 0.0)` if
    /// absent.
    #[must_use]
    pub fn histogram_totals(&self, name: &str) -> (u64, f64) {
        match self.find(name) {
            Some(ValueSnapshot::Histogram { count, sum, .. }) => (*count, *sum),
            _ => (0, 0.0),
        }
    }

    fn find(&self, name: &str) -> Option<&ValueSnapshot> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// The interval `self - earlier`, matched by metric name: counters
    /// and histogram tallies subtract (saturating, so unrelated resets
    /// cannot underflow), gauges keep their later value.  Metrics absent
    /// from `earlier` pass through unchanged.
    #[must_use]
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .map(|m| {
                    let value = match (&m.value, earlier.find(&m.name)) {
                        (ValueSnapshot::Counter(now), Some(ValueSnapshot::Counter(then))) => {
                            ValueSnapshot::Counter(now.saturating_sub(*then))
                        }
                        (
                            ValueSnapshot::Histogram {
                                spec,
                                count,
                                sum,
                                buckets,
                            },
                            Some(ValueSnapshot::Histogram {
                                spec: then_spec,
                                count: then_count,
                                sum: then_sum,
                                buckets: then_buckets,
                            }),
                        ) if spec == then_spec => ValueSnapshot::Histogram {
                            spec: *spec,
                            count: count.saturating_sub(*then_count),
                            sum: sum - then_sum,
                            buckets: buckets
                                .iter()
                                .zip(then_buckets)
                                .map(|(now, then)| now.saturating_sub(*then))
                                .collect(),
                        },
                        _ => m.value.clone(),
                    };
                    MetricSnapshot {
                        name: m.name.clone(),
                        help: m.help.clone(),
                        value,
                    }
                })
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` preamble per metric, cumulative `_bucket{le}`
    /// series plus `_sum` / `_count` for histograms).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            match &m.value {
                ValueSnapshot::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", m.name);
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                ValueSnapshot::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {}", m.name, fmt_f64(*v));
                }
                ValueSnapshot::Histogram {
                    spec,
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = writeln!(out, "# TYPE {} histogram", m.name);
                    let mut cumulative = 0u64;
                    for (i, n) in buckets.iter().enumerate() {
                        cumulative += n;
                        let le = spec.upper_bound(i);
                        let le = if le == f64::INFINITY {
                            "+Inf".to_string()
                        } else {
                            fmt_f64(le)
                        };
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", m.name);
                    }
                    let _ = writeln!(out, "{}_sum {}", m.name, fmt_f64(*sum));
                    let _ = writeln!(out, "{}_count {count}", m.name);
                }
            }
        }
        out
    }

    /// Renders the snapshot as JSON (the exact shape
    /// [`Snapshot::from_json`] parses).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"name\": \"{}\", \"help\": \"{}\", ",
                escape(&m.name),
                escape(&m.help)
            );
            match &m.value {
                ValueSnapshot::Counter(v) => {
                    let _ = write!(out, "\"type\": \"counter\", \"value\": {v}");
                }
                ValueSnapshot::Gauge(v) => {
                    let _ = write!(out, "\"type\": \"gauge\", \"value\": {}", fmt_f64(*v));
                }
                ValueSnapshot::Histogram {
                    spec,
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = write!(
                        out,
                        "\"type\": \"histogram\", \"min_exp\": {}, \"max_exp\": {}, \
                         \"count\": {count}, \"sum\": {}, \"buckets\": [",
                        spec.min_exp,
                        spec.max_exp,
                        fmt_f64(*sum)
                    );
                    for (j, b) in buckets.iter().enumerate() {
                        let comma = if j + 1 < buckets.len() { ", " } else { "" };
                        let _ = write!(out, "{b}{comma}");
                    }
                    out.push(']');
                }
            }
            let _ = write!(out, "}}{comma}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the JSON emitted by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let mut p = Parser { text, pos: 0 };
        p.expect('{')?;
        p.expect_key("metrics")?;
        p.expect('[')?;
        let mut metrics = Vec::new();
        if !p.try_consume(']') {
            loop {
                metrics.push(p.metric()?);
                if !p.try_consume(',') {
                    p.expect(']')?;
                    break;
                }
            }
        }
        p.expect('}')?;
        Ok(Snapshot { metrics })
    }
}

/// Shortest-round-trip float rendering (`{:?}` keeps `128.0` a float
/// token and survives `str::parse::<f64>` bit-exactly).
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn unescape(s: &str) -> String {
    s.replace("\\\"", "\"").replace("\\\\", "\\")
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.try_consume(c) {
            Ok(())
        } else {
            Err(format!("expected `{c}` at byte {}", self.pos))
        }
    }

    fn try_consume(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    let raw = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(unescape(raw));
                }
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn expect_key(&mut self, key: &str) -> Result<(), String> {
        let found = self.string()?;
        if found != key {
            return Err(format!("expected key `{key}`, found `{found}`"));
        }
        self.expect(':')
    }

    fn number_token(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len()
            && matches!(
                bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'i' | b'n' | b'f' | b'N' | b'a'
            )
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        Ok(&self.text[start..self.pos])
    }

    fn u64(&mut self) -> Result<u64, String> {
        let tok = self.number_token()?;
        tok.parse().map_err(|e| format!("bad integer `{tok}`: {e}"))
    }

    fn i32(&mut self) -> Result<i32, String> {
        let tok = self.number_token()?;
        tok.parse().map_err(|e| format!("bad integer `{tok}`: {e}"))
    }

    fn f64(&mut self) -> Result<f64, String> {
        let tok = self.number_token()?;
        tok.parse().map_err(|e| format!("bad float `{tok}`: {e}"))
    }

    fn metric(&mut self) -> Result<MetricSnapshot, String> {
        self.expect('{')?;
        self.expect_key("name")?;
        let name = self.string()?;
        self.expect(',')?;
        self.expect_key("help")?;
        let help = self.string()?;
        self.expect(',')?;
        self.expect_key("type")?;
        let kind = self.string()?;
        self.expect(',')?;
        let value = match kind.as_str() {
            "counter" => {
                self.expect_key("value")?;
                ValueSnapshot::Counter(self.u64()?)
            }
            "gauge" => {
                self.expect_key("value")?;
                ValueSnapshot::Gauge(self.f64()?)
            }
            "histogram" => {
                self.expect_key("min_exp")?;
                let min_exp = self.i32()?;
                self.expect(',')?;
                self.expect_key("max_exp")?;
                let max_exp = self.i32()?;
                self.expect(',')?;
                self.expect_key("count")?;
                let count = self.u64()?;
                self.expect(',')?;
                self.expect_key("sum")?;
                let sum = self.f64()?;
                self.expect(',')?;
                self.expect_key("buckets")?;
                self.expect('[')?;
                let mut buckets = Vec::new();
                if !self.try_consume(']') {
                    loop {
                        buckets.push(self.u64()?);
                        if !self.try_consume(',') {
                            self.expect(']')?;
                            break;
                        }
                    }
                }
                if min_exp >= max_exp || min_exp < -1022 || max_exp > 1023 {
                    return Err(format!("bad spec for `{name}`"));
                }
                let spec = HistogramSpec::new(min_exp, max_exp);
                if buckets.len() != spec.buckets() {
                    return Err(format!("bucket count mismatch for `{name}`"));
                }
                ValueSnapshot::Histogram {
                    spec,
                    count,
                    sum,
                    buckets,
                }
            }
            other => return Err(format!("unknown metric type `{other}`")),
        };
        self.expect('}')?;
        Ok(MetricSnapshot { name, help, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            metrics: vec![
                MetricSnapshot {
                    name: "bt_x_total".into(),
                    help: "an \"escaped\" counter".into(),
                    value: ValueSnapshot::Counter(42),
                },
                MetricSnapshot {
                    name: "bt_height".into(),
                    help: "a gauge".into(),
                    value: ValueSnapshot::Gauge(3.5),
                },
                MetricSnapshot {
                    name: "bt_lat_ns".into(),
                    help: "a histogram".into(),
                    value: ValueSnapshot::Histogram {
                        spec: HistogramSpec::new(0, 2),
                        count: 3,
                        sum: 6.5,
                        buckets: vec![1, 0, 2, 0],
                    },
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::from_json(&snap.to_json()).expect("parses"), snap);
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE bt_lat_ns histogram"));
        assert!(text.contains("bt_lat_ns_bucket{le=\"1.0\"} 1"));
        assert!(text.contains("bt_lat_ns_bucket{le=\"2.0\"} 1"));
        assert!(text.contains("bt_lat_ns_bucket{le=\"4.0\"} 3"));
        assert!(text.contains("bt_lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("bt_lat_ns_sum 6.5"));
        assert!(text.contains("bt_lat_ns_count 3"));
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let before = sample();
        let mut after = sample();
        after.metrics[0].value = ValueSnapshot::Counter(50);
        after.metrics[2].value = ValueSnapshot::Histogram {
            spec: HistogramSpec::new(0, 2),
            count: 5,
            sum: 10.5,
            buckets: vec![1, 1, 3, 0],
        };
        let delta = after.delta_since(&before);
        assert_eq!(delta.counter("bt_x_total"), 8);
        assert_eq!(delta.gauge("bt_height"), Some(3.5));
        let (count, sum) = delta.histogram_totals("bt_lat_ns");
        assert_eq!(count, 2);
        assert!((sum - 4.0).abs() < 1e-12);
    }
}
