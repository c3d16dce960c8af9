//! The deterministic metrics registry.
//!
//! A [`Registry`] holds named counters, gauges and fixed-bucket histograms
//! behind one mutex. The determinism contract (DESIGN.md §10): a metric
//! value may derive **only** from pipeline data — probe outcomes, pool
//! sizes, cache counters — never from wall clock, thread identity or
//! iteration order of an unordered map. Every recording site upholds that
//! by construction (per-probe increments are order-independent sums;
//! bulk exports read atomics or sorted collections), so a [`Snapshot`] is
//! byte-identical at any `probe_workers` count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One recorded metric value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level (a set size, a pool count).
    Gauge(i64),
    /// A fixed-bucket histogram; see [`HistogramValue`].
    Histogram(HistogramValue),
}

/// The frozen state of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramValue {
    /// Ascending upper bucket bounds (finite; the overflow bucket is
    /// implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts, one per bound.
    pub counts: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Observations rejected as NaN, infinite or negative.
    pub rejected: u64,
}

impl HistogramValue {
    /// An empty histogram with the given ascending finite upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        HistogramValue {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            rejected: 0,
        }
    }

    /// Accepted observations (all buckets plus the overflow bucket).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }

    /// Buckets one observation — the one bucketing rule behind
    /// [`Registry::observe`] and every off-registry accumulator that is
    /// later merged back with [`Registry::merge_histogram`].
    ///
    /// NaN, infinite and negative values are counted as rejected, never
    /// bucketed — comparisons use `total_cmp`, so `-0.0` lands in the
    /// first bucket rather than the reject pile. Returns `true` when the
    /// value was bucketed.
    pub fn observe(&mut self, value: f64) -> bool {
        if !value.is_finite() || value.total_cmp(&-0.0).is_lt() {
            self.rejected += 1;
            return false;
        }
        match self.bounds.iter().position(|b| value.total_cmp(b).is_le()) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        true
    }

    /// Adds `other`'s counts bound for bound. Histograms with different
    /// bounds are left unchanged (and debug-assert): their buckets do not
    /// line up, so no merge is exact.
    pub fn merge(&mut self, other: &HistogramValue) {
        debug_assert_eq!(
            self.bounds, other.bounds,
            "histogram merged with mismatched bounds"
        );
        if self.bounds != other.bounds {
            return;
        }
        for (c, add) in self.counts.iter_mut().zip(&other.counts) {
            *c += add;
        }
        self.overflow += other.overflow;
        self.rejected += other.rejected;
    }
}

enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramValue),
}

/// A thread-safe, name-keyed metrics store.
///
/// Names are fixed ASCII identifiers (`[a-z0-9_]`), chosen by the
/// recording sites; the snapshot orders them lexicographically, so the
/// exposition text is canonical.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
        let mut guard = match self.metrics.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Adds `by` to the counter `name`, creating it at zero first.
    ///
    /// Recording into a name already registered with a different kind is a
    /// programming error; the call is ignored in release builds. The name
    /// is copied only when the counter is created, never on a hit.
    pub fn inc(&self, name: &str, by: u64) {
        self.with(|m| match m.get_mut(name) {
            Some(Metric::Counter(c)) => *c += by,
            Some(_) => debug_assert!(false, "metric {name} is not a counter"),
            None => {
                m.insert(name.to_string(), Metric::Counter(by));
            }
        });
    }

    /// Sets the gauge `name` to `value`, creating it if absent.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.with(|m| match m.get_mut(name) {
            Some(Metric::Gauge(g)) => *g = value,
            Some(_) => debug_assert!(false, "metric {name} is not a gauge"),
            None => {
                m.insert(name.to_string(), Metric::Gauge(value));
            }
        });
    }

    /// Registers the histogram `name` with the given ascending finite
    /// upper bounds (idempotent; bounds of an existing histogram are kept).
    pub fn histogram(&self, name: &str, bounds: &[f64]) {
        debug_assert!(
            bounds.iter().all(|b| b.is_finite())
                && bounds.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()),
            "histogram {name} bounds must be finite and strictly ascending"
        );
        self.with(|m| {
            if !m.contains_key(name) {
                m.insert(
                    name.to_string(),
                    Metric::Histogram(HistogramValue::new(bounds)),
                );
            }
        });
    }

    /// Records one observation into the histogram `name`, by
    /// [`HistogramValue::observe`]'s rule (NaN, infinite and negative
    /// values are counted as rejected). Returns `true` when the value was
    /// bucketed.
    pub fn observe(&self, name: &str, value: f64) -> bool {
        self.with(|m| match m.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            _ => {
                debug_assert!(false, "histogram {name} is not registered");
                false
            }
        })
    }

    /// Merges pre-bucketed counts into the histogram `name` (which must
    /// already be registered with identical bounds).
    ///
    /// This is the bulk-replay half of the histogram API: probing rounds
    /// bucket their observations off-registry with
    /// [`HistogramValue::observe`] and fold them back once per round, and
    /// the delta engine replays cached per-probe-group counts. Bucket-count
    /// addition is commutative and bounds are fixed, so a replayed registry
    /// is byte-identical to one that observed each value live.
    pub fn merge_histogram(&self, name: &str, value: &HistogramValue) {
        self.with(|m| match m.get_mut(name) {
            Some(Metric::Histogram(h)) => h.merge(value),
            _ => debug_assert!(false, "histogram {name} is not registered"),
        });
    }

    /// Freezes the registry into an ordered, comparable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.with(|m| Snapshot {
            metrics: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(*c),
                        Metric::Gauge(g) => MetricValue::Gauge(*g),
                        Metric::Histogram(h) => MetricValue::Histogram(h.clone()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        })
    }
}

/// An ordered, frozen copy of a [`Registry`].
///
/// Equal registries produce equal snapshots and byte-identical
/// [`Snapshot::expose`] text, which is what the worker-sweep invariance
/// tests compare.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Name → value, lexicographically ordered.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The state of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramValue> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Overwrites (or creates) the counter `name` — a forging hook for
    /// mutation tests and external tallies, not used by recording sites.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.metrics
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Overwrites (or creates) the gauge `name` — the gauge counterpart
    /// of [`Snapshot::set_counter`], same mutation-test purpose.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.metrics
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Prometheus-style text exposition: a `# TYPE` line then the value
    /// lines for every metric, in name order. An empty histogram still
    /// renders all its `0` bucket lines, so the output shape never depends
    /// on whether anything was observed.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(&h.counts) {
                        cumulative += count;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    cumulative += h.overflow;
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{name}_count {cumulative}");
                    let _ = writeln!(out, "{name}_rejected {}", h.rejected);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        r.inc("probes_total", 3);
        r.inc("probes_total", 2);
        r.set_gauge("pool_cbis", 7);
        r.set_gauge("pool_cbis", 9);
        let s = r.snapshot();
        assert_eq!(s.counter("probes_total"), Some(5));
        assert_eq!(s.gauge("pool_cbis"), Some(9));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn histogram_buckets_values_on_total_cmp_boundaries() {
        let r = Registry::new();
        r.histogram("rtt_ms", &[1.0, 10.0]);
        assert!(r.observe("rtt_ms", 0.0));
        assert!(r.observe("rtt_ms", -0.0), "-0.0 buckets via total_cmp");
        assert!(r.observe("rtt_ms", 1.0), "bounds are inclusive");
        assert!(r.observe("rtt_ms", 5.0));
        assert!(r.observe("rtt_ms", 100.0), "overflow still counts");
        let s = r.snapshot();
        let h = s.histogram("rtt_ms").unwrap();
        assert_eq!(h.counts, vec![3, 1]);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.rejected, 0);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_rejects_nan_negative_and_infinite() {
        let r = Registry::new();
        r.histogram("rtt_ms", &[1.0]);
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY, f64::INFINITY] {
            assert!(!r.observe("rtt_ms", bad), "{bad} must be rejected");
        }
        let s = r.snapshot();
        let h = s.histogram("rtt_ms").unwrap();
        assert_eq!(h.rejected, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.counts, vec![0]);
    }

    #[test]
    fn empty_histogram_exposition_is_deterministic_zero_lines() {
        let r = Registry::new();
        r.histogram("hops", &[4.0, 8.0]);
        let text = r.snapshot().expose();
        assert_eq!(
            text,
            "# TYPE hops histogram\n\
             hops_bucket{le=\"4\"} 0\n\
             hops_bucket{le=\"8\"} 0\n\
             hops_bucket{le=\"+Inf\"} 0\n\
             hops_count 0\n\
             hops_rejected 0\n"
        );
        assert_eq!(text, r.snapshot().expose());
    }

    #[test]
    fn exposition_orders_names_and_marks_types() {
        let r = Registry::new();
        r.set_gauge("zeta", 1);
        r.inc("alpha", 2);
        let text = r.snapshot().expose();
        assert_eq!(
            text,
            "# TYPE alpha counter\nalpha 2\n# TYPE zeta gauge\nzeta 1\n"
        );
    }

    #[test]
    fn merged_histogram_equals_live_observation() {
        let live = Registry::new();
        let replay = Registry::new();
        for r in [&live, &replay] {
            r.histogram("hops", &[4.0, 8.0]);
        }
        for v in [1.0, 4.0, 5.0, 9.0, f64::NAN] {
            live.observe("hops", v);
        }
        let cached = live.snapshot().histogram("hops").unwrap().clone();
        replay.merge_histogram("hops", &cached);
        replay.merge_histogram("hops", &cached);
        let h = replay.snapshot().histogram("hops").unwrap().clone();
        assert_eq!(h.counts, vec![4, 2]);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.rejected, 2);
        // One merge of one live snapshot is byte-identical exposition.
        let one = Registry::new();
        one.histogram("hops", &[4.0, 8.0]);
        one.merge_histogram("hops", &cached);
        assert_eq!(one.snapshot().expose(), live.snapshot().expose());
    }

    #[test]
    fn off_registry_histogram_matches_live_observation() {
        let values = [0.0, -0.0, 1.0, 4.0, 4.5, 9.0, f64::NAN, -2.0, f64::INFINITY];
        let live = Registry::new();
        live.histogram("hops", &[4.0, 8.0]);
        let mut local = HistogramValue::new(&[4.0, 8.0]);
        for v in values {
            assert_eq!(
                live.observe("hops", v),
                local.observe(v),
                "rule differs at {v}"
            );
        }
        assert_eq!(live.snapshot().histogram("hops"), Some(&local));
        let flushed = Registry::new();
        flushed.histogram("hops", &[4.0, 8.0]);
        flushed.merge_histogram("hops", &local);
        assert_eq!(flushed.snapshot().expose(), live.snapshot().expose());
    }

    #[test]
    fn repeated_recording_updates_in_place() {
        let r = Registry::new();
        r.inc("probes_total", 0);
        r.inc("probes_total", 7);
        r.set_gauge("entries", 3);
        r.set_gauge("entries", -1);
        r.histogram("hops", &[4.0]);
        r.observe("hops", 2.0);
        r.histogram("hops", &[1.0, 2.0]);
        let s = r.snapshot();
        assert_eq!(s.metrics.len(), 3);
        assert_eq!(s.counter("probes_total"), Some(7));
        assert_eq!(s.gauge("entries"), Some(-1));
        let h = s.histogram("hops").unwrap();
        assert_eq!(h.bounds, vec![4.0], "re-registering keeps the first bounds");
        assert_eq!(h.counts, vec![1]);
    }

    #[test]
    fn snapshot_equality_tracks_contents() {
        let a = Registry::new();
        let b = Registry::new();
        a.inc("x", 1);
        b.inc("x", 1);
        assert_eq!(a.snapshot(), b.snapshot());
        b.inc("x", 1);
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn forged_counter_is_visible() {
        let mut s = Registry::new().snapshot();
        s.set_counter("probe_launched_total", 41);
        assert_eq!(s.counter("probe_launched_total"), Some(41));
    }
}
