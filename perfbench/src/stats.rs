//! Summary statistics and the traced run's span recorder.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `values` (NaN when empty), by the workspace's interpolating
/// quantile.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Type-7 quantile of unsorted `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    cm_bench::quantile(&cm_bench::sorted(values), q)
}

/// Latency quantiles of one round of batched queries.
///
/// Serve queries take tens of nanoseconds, so timing each one would make
/// the clock read a large share of what it measures. Each batch is timed
/// with one pair of clock reads and reduced to its mean per-query time;
/// the quantiles are taken over those batch means.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchQuantiles {
    /// Batch means the quantiles were taken over.
    pub samples: usize,
    /// Median batch mean, ns per query.
    pub p50_ns: f64,
    /// 99th-percentile batch mean, ns per query.
    pub p99_ns: f64,
}

impl BatchQuantiles {
    /// Quantiles of `batch_ns` (the wall time of each batch, ns), each
    /// batch holding `batch_len` queries.
    pub fn of(batch_ns: &[f64], batch_len: usize) -> BatchQuantiles {
        let means: Vec<f64> = batch_ns.iter().map(|ns| ns / batch_len as f64).collect();
        let sorted = cm_bench::sorted(&means);
        BatchQuantiles {
            samples: sorted.len(),
            p50_ns: cm_bench::quantile(&sorted, 0.50),
            p99_ns: cm_bench::quantile(&sorted, 0.99),
        }
    }

    /// Samples strictly above the p99 rank: the tail the p99 rests on.
    pub fn beyond_p99(&self) -> usize {
        let last = self.samples.saturating_sub(1);
        last - (0.99 * last as f64).floor() as usize
    }
}

/// One closed span of the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder: the benchmark opens a span around each call it
/// makes into a layer, and writes all spans out once the run is over.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns)
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval as a closed child of
    /// `parent` (used for the stage times a study returns).
    pub fn record(&mut self, parent: usize, name: &str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        id
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
        self.open.push(id);
        id
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Span `id`'s start, ns since the tracer was created.
    pub fn start_ns(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (lo, hi) in kids {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        parent.dur_ns() - covered
    }

    /// One JSON object per span: name, start, end, parent and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_quantiles_are_taken_over_batch_means() {
        // 100 batches of 4 queries: batch k took 4·(k+1) ns, so its
        // per-query mean is k+1 ns.
        let batches: Vec<f64> = (0..100).map(|k| 4.0 * (k + 1) as f64).collect();
        let q = BatchQuantiles::of(&batches, 4);
        assert_eq!(q.samples, 100);
        // Type-7: rank 0.5·99 = 49.5 → between 50 and 51.
        assert!((q.p50_ns - 50.5).abs() < 1e-9, "{q:?}");
        // Rank 0.99·99 = 98.01 → 99 + 0.01.
        assert!((q.p99_ns - 99.01).abs() < 1e-9, "{q:?}");
        // Only the top sample lies beyond rank 98.01.
        assert_eq!(q.beyond_p99(), 1);
        let big = BatchQuantiles::of(&vec![256.0; 4096], 256);
        assert_eq!((big.p50_ns, big.p99_ns), (1.0, 1.0));
        assert_eq!(big.beyond_p99(), 41);
    }

    #[test]
    fn batch_quantiles_ignore_batch_order() {
        let mut batches: Vec<f64> = (1..=500).map(|k| k as f64).collect();
        let a = BatchQuantiles::of(&batches, 1);
        batches.reverse();
        assert_eq!(a, BatchQuantiles::of(&batches, 1));
    }

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("study", None, 0, 100),
            span("sweep", Some(0), 10, 40),
            span("expansion", Some(0), 40, 90),
            // A grandchild counts against its parent only.
            span("probe", Some(2), 45, 85),
        ];
        assert_eq!(t.self_ns(0), 100 - 30 - 50);
        assert_eq!(t.self_ns(1), 30);
        assert_eq!(t.self_ns(2), 50 - 40);
        assert_eq!(t.self_ns(3), 40);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("parent", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 140, 160),
            span("c", Some(0), 190, 250),
        ];
        // Covered: [100,160) and [190,200) → 70 ns.
        assert_eq!(t.self_ns(0), 30);
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        let v = t.span("inner", || 7);
        t.close(outer);
        let rec = t.record(outer, "stage", t.start_ns(outer), t.start_ns(outer));
        assert_eq!(v, 7);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[rec].parent, Some(outer));
        assert!(t.self_ns(outer) <= t.spans()[outer].dur_ns());
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"name\":\"inner\",\"parent\":0"));
    }
}
