//! Process-global counters, gauges, and histograms.
//!
//! Metric handles are `Arc`s into a global registry keyed by name:
//! [`counter`], [`gauge`], and [`histogram`] return the existing metric
//! or create it. Updates are lock-free atomics, so hot loops can hold a
//! handle and bump it without contention beyond the cache line.
//! [`snapshot`] drains the registry into per-metric records for the
//! sinks (called by [`crate::shutdown`]).

use crate::sink::{Record, RecordKind};
use crate::{dispatch, unix_ms, Field, Level, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins measurement.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets. Bucket `i` covers
/// `[2^(i - SUB_UNIT_BUCKETS - 1), 2^(i - SUB_UNIT_BUCKETS))` with the
/// first and last buckets absorbing the tails, giving useful resolution
/// from ~1/512 up to ~2^54 in whatever unit the caller observes
/// (microseconds for the built-in timings).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// How many buckets sit below 1.0 (see [`HISTOGRAM_BUCKETS`]).
const SUB_UNIT_BUCKETS: i32 = 9;

/// A log₂-bucketed histogram over non-negative `f64` observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// Index of the bucket an observation falls into: `log₂(v)` shifted
    /// so values below `2^-9` land in bucket 0 and the top bucket
    /// absorbs everything beyond the range. Non-positive and non-finite
    /// values clamp into the edge buckets.
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        if v.is_infinite() {
            return HISTOGRAM_BUCKETS - 1;
        }
        let idx = v.log2().floor() as i32 + SUB_UNIT_BUCKETS + 1;
        idx.clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `i` (edge
    /// buckets extend to 0 and infinity).
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        let lo = if i == 0 { 0.0 } else { 2f64.powi(i as i32 - SUB_UNIT_BUCKETS - 1) };
        let hi = if i == HISTOGRAM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            2f64.powi(i as i32 - SUB_UNIT_BUCKETS)
        };
        (lo, hi)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        update_float(&self.sum_bits, |cur| cur + v);
        update_float(&self.min_bits, |cur| cur.min(v));
        update_float(&self.max_bits, |cur| cur.max(v));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observation (`None` before the first observe).
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// Largest observation (`None` before the first observe).
    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, compactly
    /// describing the distribution.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let c = self.bucket_count(i);
                (c > 0).then(|| (Self::bucket_bounds(i).1, c))
            })
            .collect()
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)` triples —
    /// the full bounds a consumer needs to re-derive quantiles from a
    /// flushed snapshot.
    pub fn nonzero_bucket_bounds(&self) -> Vec<(f64, f64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let c = self.bucket_count(i);
                (c > 0).then(|| {
                    let (lo, hi) = Self::bucket_bounds(i);
                    (lo, hi, c)
                })
            })
            .collect()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation inside the log₂ bucket holding the target rank.
    ///
    /// The continuous rank `q·count` is located in the cumulative bucket
    /// counts; the value is interpolated between the bucket's bounds at
    /// the rank's fractional position, then clamped to the observed
    /// `[min, max]` so the open-ended edge buckets (`[0, 2⁻⁹)` and
    /// `[2⁵⁴, ∞)`) cannot produce a value outside the data.
    ///
    /// Returns `None` before the first observation. The estimate is
    /// monotone in `q`, exact at `q = 0` (`min`) and `q = 1` (`max`),
    /// and within one bucket width (a factor of 2) everywhere else.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let (min, max) = (self.min()?, self.max()?);
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(min);
        }
        let target = q * count as f64;
        let mut cum = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let c = self.bucket_count(i);
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = (target - cum as f64) / c as f64;
                let v = if hi.is_finite() { lo + frac * (hi - lo) } else { max };
                return Some(v.clamp(min, max));
            }
            cum += c;
        }
        // Concurrent observes can leave `count` ahead of the bucket sum
        // for a moment; the largest observation is the right answer.
        Some(max)
    }
}

/// CAS loop for float-valued atomics (sum/min/max).
fn update_float(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let _ = bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        Some(f(f64::from_bits(cur)).to_bits())
    });
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns (creating on first use) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry().lock().expect("metric registry poisoned");
    match reg.entry(name.to_string()).or_insert_with(|| Metric::Counter(Arc::default())) {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric '{name}' already registered with a different kind"),
    }
}

/// Returns (creating on first use) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry().lock().expect("metric registry poisoned");
    match reg.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::default())) {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric '{name}' already registered with a different kind"),
    }
}

/// Returns (creating on first use) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry().lock().expect("metric registry poisoned");
    match reg.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Arc::default())) {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric '{name}' already registered with a different kind"),
    }
}

/// Point-in-time copy of one metric, ready to dispatch to the sinks.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: String,
    /// Which record type this flushes as.
    pub kind: RecordKind,
    /// The metric's state as structured fields.
    pub fields: Vec<Field>,
}

impl MetricSnapshot {
    /// Sends this snapshot to every registered sink as one record.
    pub(crate) fn dispatch(&self) {
        dispatch(&Record {
            kind: self.kind,
            level: Level::Info,
            name: &self.name,
            span_id: None,
            parent_id: None,
            elapsed_ns: None,
            fields: &self.fields,
            ts_ms: unix_ms(),
        });
    }

    /// Appends this metric in Prometheus text exposition format.
    ///
    /// Counters and gauges become one `# TYPE` header plus one sample.
    /// Histograms are rendered as a Prometheus `summary` (the quantiles
    /// are already computed server-side): `{quantile="0.5|0.99|0.999"}`
    /// samples plus `_sum` and `_count`. Dotted names are sanitized to
    /// the Prometheus charset (`serve.tick_us` → `serve_tick_us`).
    ///
    /// Shared by [`expose_text`] (live registry) and
    /// `cs-traffic-cli inspect --expose` (snapshots re-parsed from a
    /// metrics JSONL), so both render byte-identically.
    pub fn expose_text_into(&self, out: &mut String) {
        let name = sanitize_metric_name(&self.name);
        let field = |key: &str| self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let num = |key: &str| field(key).map_or_else(|| "0".to_string(), fmt_sample);
        match self.kind {
            RecordKind::Counter => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", num("value")));
            }
            RecordKind::Gauge => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", num("value")));
            }
            RecordKind::Histogram => {
                out.push_str(&format!(
                    "# TYPE {name} summary\n\
                     {name}{{quantile=\"0.5\"}} {}\n\
                     {name}{{quantile=\"0.99\"}} {}\n\
                     {name}{{quantile=\"0.999\"}} {}\n\
                     {name}_sum {}\n\
                     {name}_count {}\n",
                    num("p50"),
                    num("p99"),
                    num("p999"),
                    num("sum"),
                    num("count"),
                ));
            }
            // Spans/events/traces are not metrics; nothing to expose.
            _ => {}
        }
    }
}

/// Maps a dotted metric name onto the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        // A leading digit keeps the digit behind a '_' prefix.
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        out.push(if ok { ch } else { '_' });
    }
    out
}

/// One Prometheus sample value. Integral floats print without a
/// fraction (`42`, not `42.0`) so live and JSONL-round-tripped
/// snapshots agree; non-finite values use the Prometheus spellings.
fn fmt_sample(v: &Value) -> String {
    match v {
        Value::Float(f) if f.is_nan() => "NaN".to_string(),
        Value::Float(f) if *f == f64::INFINITY => "+Inf".to_string(),
        Value::Float(f) if *f == f64::NEG_INFINITY => "-Inf".to_string(),
        other => other.to_string(),
    }
}

/// Renders every registered metric, in name order, in Prometheus text
/// exposition format — the pull-based scrape surface of the exposition
/// plane (`cs-traffic-cli inspect --expose` renders the same format from
/// a flushed JSONL).
pub fn expose_text() -> String {
    let mut out = String::new();
    for snap in snapshot() {
        snap.expose_text_into(&mut out);
    }
    out
}

/// Snapshots every registered metric, in name order.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = registry().lock().expect("metric registry poisoned");
    reg.iter()
        .map(|(name, metric)| match metric {
            Metric::Counter(c) => MetricSnapshot {
                name: name.clone(),
                kind: RecordKind::Counter,
                fields: vec![("value".into(), Value::UInt(c.get()))],
            },
            Metric::Gauge(g) => MetricSnapshot {
                name: name.clone(),
                kind: RecordKind::Gauge,
                fields: vec![("value".into(), Value::Float(g.get()))],
            },
            Metric::Histogram(h) => {
                // `lo:hi:count` per non-empty bucket — both bounds, so a
                // consumer of the flushed JSONL can re-derive quantiles
                // without knowing the bucketing scheme.
                let buckets = h
                    .nonzero_bucket_bounds()
                    .iter()
                    .map(|(lo, hi, c)| format!("{lo}:{hi}:{c}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                MetricSnapshot {
                    name: name.clone(),
                    kind: RecordKind::Histogram,
                    fields: vec![
                        ("count".into(), Value::UInt(h.count())),
                        ("sum".into(), Value::Float(h.sum())),
                        ("min".into(), Value::Float(h.min().unwrap_or(0.0))),
                        ("max".into(), Value::Float(h.max().unwrap_or(0.0))),
                        ("p50".into(), Value::Float(h.quantile(0.50).unwrap_or(0.0))),
                        ("p99".into(), Value::Float(h.quantile(0.99).unwrap_or(0.0))),
                        ("p999".into(), Value::Float(h.quantile(0.999).unwrap_or(0.0))),
                        ("buckets".into(), Value::Str(buckets)),
                    ],
                }
            }
        })
        .collect()
}

/// Empties the registry (test-only; see [`crate::reset_for_tests`]).
pub(crate) fn clear_registry() {
    registry().lock().expect("metric registry poisoned").clear();
}
