//! The span-scoped flight recorder.
//!
//! A [`Recorder`] accumulates an ordered stream of [`Event`]s —
//! `stage_start`, `stage_end`, nested `span_start`/`span_end`,
//! `counter_snapshot` and `note` — that reconstructs what the pipeline
//! did, in the order it did it. Every deterministic field derives from
//! pipeline data only; wall clocks are quarantined in the event's
//! `nondeterministic` JSONL section so the rest of the line is
//! byte-identical at any worker count.
//!
//! # Hierarchical spans
//!
//! Stages (`stage_start`/`stage_end`) and spans
//! ([`Recorder::span_start`]/[`Recorder::span_end`]) share one nesting
//! stack. A span's *path* is the `;`-joined chain of open frame names
//! (`"sweep;probe-round;region-2"`), the same shape a collapsed-stack
//! flamegraph line uses. Span IDs are **deterministic**: each ID is a
//! pure hash of `(parent span ID, frame name, occurrence index among
//! same-name siblings)`, so two runs producing the same event structure
//! produce the same IDs at any worker count — IDs never derive from
//! pointers, clocks or thread identity.
//!
//! A span carries named *cost counters* (probes launched, memo lookups,
//! bytes encoded, pool merges, …) that must themselves be deterministic;
//! its wall clock rides in the existing quarantined section.

use crate::registry::{MetricValue, Snapshot};
use std::fmt::Write as _;
use std::sync::Mutex;

/// What one [`Event`] records.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A pipeline stage began.
    StageStart {
        /// The stage name (the pipeline's own, e.g. `"sweep"`).
        stage: &'static str,
    },
    /// A pipeline stage finished.
    StageEnd {
        /// The stage name matching the preceding `StageStart`.
        stage: &'static str,
        /// Named groups of `(counter, value)` pairs attributed to this
        /// stage (route-memo deltas, fault-impact deltas), in recording
        /// order.
        groups: Vec<(&'static str, Vec<(&'static str, u64)>)>,
    },
    /// A nested span opened beneath the current stage/span frame.
    SpanStart {
        /// Full `;`-joined path, innermost frame last.
        path: String,
        /// Deterministic span ID (see module docs).
        id: u64,
    },
    /// The innermost open span closed.
    SpanEnd {
        /// Full `;`-joined path, matching the opening `SpanStart`.
        path: String,
        /// Deterministic span ID matching the opening `SpanStart`.
        id: u64,
        /// Deterministic cost counters attributed to this span, in
        /// recording order.
        costs: Vec<(&'static str, u64)>,
    },
    /// A full registry snapshot taken at this point of the stream.
    CounterSnapshot {
        /// The frozen registry state.
        snapshot: Snapshot,
    },
    /// A free-form annotation.
    Note {
        /// The annotation text.
        text: String,
    },
}

/// One entry of the flight-recorder stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Position in the stream, dense from zero.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock duration in milliseconds (stage-end events only).
    /// Nondeterministic: excluded from the deterministic JSONL rendering.
    pub wall_ms: Option<f64>,
    /// Counter groups whose values depend on execution interleaving —
    /// e.g. a shared cache's hit/miss split, where two workers can both
    /// miss the same key before either populates it. Rendered only inside
    /// the `nondeterministic` JSONL section, next to the wall clock.
    pub nondet_groups: Vec<(&'static str, Vec<(&'static str, u64)>)>,
}

/// One open frame of the span stack: a stage or a span that has started
/// but not yet ended.
#[derive(Debug)]
struct Frame {
    /// The frame's own name (one path component).
    name: String,
    /// The frame's deterministic span ID.
    id: u64,
    /// How many children of each name this frame has opened so far —
    /// the occurrence index that disambiguates same-name siblings in
    /// the ID derivation. A linear list: fan-out per frame is small.
    child_counts: Vec<(String, u64)>,
}

/// Recorder state behind one lock: the event stream plus the span stack
/// that events are recorded against. Index 0 is a permanent root frame
/// (empty name, ID 0) that anchors top-level stages and spans; it is
/// never popped and never rendered.
#[derive(Debug)]
struct State {
    events: Vec<Event>,
    stack: Vec<Frame>,
}

impl State {
    fn new() -> Self {
        State {
            events: Vec::new(),
            stack: vec![Frame {
                name: String::new(),
                id: 0,
                child_counts: Vec::new(),
            }],
        }
    }

    fn push_event(
        &mut self,
        kind: EventKind,
        wall_ms: Option<f64>,
        nondet_groups: Vec<(&'static str, Vec<(&'static str, u64)>)>,
    ) {
        let seq = self.events.len() as u64;
        self.events.push(Event {
            seq,
            kind,
            wall_ms,
            nondet_groups,
        });
    }

    /// Opens a frame under the current top: bumps the parent's
    /// occurrence count for `name`, derives the deterministic span ID
    /// and pushes the frame. Returns the new frame's `(path, id)`.
    fn open_frame(&mut self, name: &str) -> (String, u64) {
        let parent = match self.stack.last_mut() {
            Some(p) => p,
            // The root frame is never popped; defend anyway.
            None => {
                self.stack.push(Frame {
                    name: String::new(),
                    id: 0,
                    child_counts: Vec::new(),
                });
                match self.stack.last_mut() {
                    Some(p) => p,
                    // cm-lint: allow(S1_PANIC_PATH, the root frame was pushed on the line above, so last_mut is Some)
                    None => unreachable!("just pushed the root frame"),
                }
            }
        };
        let occurrence = match parent.child_counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => {
                let o = *c;
                *c += 1;
                o
            }
            None => {
                parent.child_counts.push((name.to_string(), 1));
                0
            }
        };
        let id = span_id(parent.id, name, occurrence);
        self.stack.push(Frame {
            name: name.to_string(),
            id,
            child_counts: Vec::new(),
        });
        (self.path(), id)
    }

    /// Closes the top frame, asserting (in debug builds) that it matches
    /// `name` — unbalanced nesting is a caller bug. Returns the closing
    /// frame's `(path, id)`; the path is computed *before* the pop so it
    /// includes the frame itself.
    fn close_frame(&mut self, name: &str) -> (String, u64) {
        let path = self.path();
        debug_assert!(
            self.stack.len() > 1,
            "unbalanced span nesting: close of {name:?} with no open frame"
        );
        debug_assert!(
            self.stack.last().is_none_or(|f| f.name == name),
            "unbalanced span nesting: close of {name:?} but {:?} is open",
            self.stack.last().map(|f| f.name.clone())
        );
        // Release builds degrade gracefully: pop whatever is on top (but
        // never the root), keeping the stream well-formed enough to read.
        let id = if self.stack.len() > 1 {
            match self.stack.pop() {
                Some(f) => f.id,
                None => 0,
            }
        } else {
            0
        };
        (path, id)
    }

    /// The `;`-joined names of every open frame, root excluded.
    fn path(&self) -> String {
        let names: Vec<&str> = self.stack[1..].iter().map(|f| f.name.as_str()).collect();
        names.join(";")
    }
}

/// One round of the splitmix64 finalizer — the same permutation
/// `cm-net::stablehash` builds on, reimplemented locally because
/// `cm-obs` is dependency-free by design.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic span-ID derivation: a pure function of the parent's
/// ID, the frame name and the occurrence index among same-name siblings.
fn span_id(parent: u64, name: &str, occurrence: u64) -> u64 {
    let mut h = splitmix64(parent ^ 0x005B_A71D);
    for b in name.as_bytes() {
        h = splitmix64(h ^ u64::from(*b));
    }
    splitmix64(h ^ occurrence)
}

/// An append-only, thread-safe event stream with a hierarchical span
/// stack (see the module docs).
pub struct Recorder {
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            state: Mutex::new(State::new()),
        }
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records the start of a stage and opens its span frame.
    pub fn stage_start(&self, stage: &'static str) {
        let mut state = self.lock();
        state.open_frame(stage);
        state.push_event(EventKind::StageStart { stage }, None, Vec::new());
    }

    /// Records the end of a stage: its wall clock, the deterministic
    /// per-stage counter groups, and any interleaving-dependent groups
    /// (quarantined with the wall clock). Closes the stage's span frame;
    /// debug builds assert every span opened inside the stage was closed.
    pub fn stage_end(
        &self,
        stage: &'static str,
        wall_ms: f64,
        groups: Vec<(&'static str, Vec<(&'static str, u64)>)>,
        nondet_groups: Vec<(&'static str, Vec<(&'static str, u64)>)>,
    ) {
        let mut state = self.lock();
        state.close_frame(stage);
        state.push_event(
            EventKind::StageEnd { stage, groups },
            Some(wall_ms),
            nondet_groups,
        );
    }

    /// Opens a span nested under the innermost open stage/span and
    /// records its `span_start` event. Returns the deterministic span ID.
    pub fn span_start(&self, name: &str) -> u64 {
        let mut state = self.lock();
        let (path, id) = state.open_frame(name);
        state.push_event(EventKind::SpanStart { path, id }, None, Vec::new());
        id
    }

    /// Closes the innermost open span — which must be named `name`
    /// (debug builds assert balance) — and records its `span_end` event
    /// carrying deterministic `costs`; the optional wall clock lands in
    /// the quarantined section.
    pub fn span_end(&self, name: &str, wall_ms: Option<f64>, costs: Vec<(&'static str, u64)>) {
        let mut state = self.lock();
        let (path, id) = state.close_frame(name);
        state.push_event(EventKind::SpanEnd { path, id, costs }, wall_ms, Vec::new());
    }

    /// Records a full registry snapshot.
    pub fn counter_snapshot(&self, snapshot: Snapshot) {
        self.lock()
            .push_event(EventKind::CounterSnapshot { snapshot }, None, Vec::new());
    }

    /// Records a free-form note.
    pub fn note(&self, text: impl Into<String>) {
        self.lock()
            .push_event(EventKind::Note { text: text.into() }, None, Vec::new());
    }

    /// A copy of the stream so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.clone()
    }
}

/// Minimal JSON string escaping (the recorder only ever holds ASCII
/// identifiers and short notes, but quotes and backslashes must not break
/// the line format).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn snapshot_json(snapshot: &Snapshot) -> String {
    let mut parts = Vec::with_capacity(snapshot.metrics.len());
    for (name, value) in &snapshot.metrics {
        let rendered = match value {
            MetricValue::Counter(c) => format!("\"{}\": {c}", json_escape(name)),
            MetricValue::Gauge(g) => format!("\"{}\": {g}", json_escape(name)),
            MetricValue::Histogram(h) => {
                let bounds: Vec<String> = h.bounds.iter().map(|b| format!("{b:?}")).collect();
                let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
                format!(
                    "\"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"overflow\": {}, \
                     \"rejected\": {}}}",
                    json_escape(name),
                    bounds.join(", "),
                    counts.join(", "),
                    h.overflow,
                    h.rejected
                )
            }
        };
        parts.push(rendered);
    }
    format!("{{{}}}", parts.join(", "))
}

/// Renders one event as a single JSONL line (no trailing newline).
///
/// Deterministic fields come first; when `include_nondeterministic` is set
/// and the event carries a wall clock, a final `"nondeterministic"` object
/// holds it. Rendering with the flag off is the *deterministic portion* of
/// the trace: byte-identical at any worker count.
pub fn event_jsonl(event: &Event, include_nondeterministic: bool) -> String {
    let mut line = format!("{{\"seq\": {}", event.seq);
    match &event.kind {
        EventKind::StageStart { stage } => {
            let _ = write!(line, ", \"event\": \"stage_start\", \"stage\": \"{stage}\"");
        }
        EventKind::StageEnd { stage, groups } => {
            let _ = write!(line, ", \"event\": \"stage_end\", \"stage\": \"{stage}\"");
            for (group, counters) in groups {
                let fields: Vec<String> = counters
                    .iter()
                    .map(|(name, v)| format!("\"{name}\": {v}"))
                    .collect();
                let _ = write!(line, ", \"{group}\": {{{}}}", fields.join(", "));
            }
        }
        EventKind::SpanStart { path, id } => {
            let _ = write!(
                line,
                ", \"event\": \"span_start\", \"path\": \"{}\", \"span_id\": \"{id:#018x}\"",
                json_escape(path)
            );
        }
        EventKind::SpanEnd { path, id, costs } => {
            let _ = write!(
                line,
                ", \"event\": \"span_end\", \"path\": \"{}\", \"span_id\": \"{id:#018x}\"",
                json_escape(path)
            );
            let fields: Vec<String> = costs
                .iter()
                .map(|(name, v)| format!("\"{name}\": {v}"))
                .collect();
            let _ = write!(line, ", \"costs\": {{{}}}", fields.join(", "));
        }
        EventKind::CounterSnapshot { snapshot } => {
            let _ = write!(
                line,
                ", \"event\": \"counter_snapshot\", \"metrics\": {}",
                snapshot_json(snapshot)
            );
        }
        EventKind::Note { text } => {
            let _ = write!(
                line,
                ", \"event\": \"note\", \"text\": \"{}\"",
                json_escape(text)
            );
        }
    }
    if include_nondeterministic && (event.wall_ms.is_some() || !event.nondet_groups.is_empty()) {
        let mut parts = Vec::with_capacity(1 + event.nondet_groups.len());
        if let Some(wall_ms) = event.wall_ms {
            parts.push(format!("\"wall_ms\": {wall_ms:?}"));
        }
        for (group, counters) in &event.nondet_groups {
            let fields: Vec<String> = counters
                .iter()
                .map(|(name, v)| format!("\"{name}\": {v}"))
                .collect();
            parts.push(format!("\"{group}\": {{{}}}", fields.join(", ")));
        }
        let _ = write!(line, ", \"nondeterministic\": {{{}}}", parts.join(", "));
    }
    line.push('}');
    line
}

/// Renders a whole stream as JSONL, one event per line.
pub fn render_jsonl(events: &[Event], include_nondeterministic: bool) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_jsonl(event, include_nondeterministic));
        out.push('\n');
    }
    out
}

/// Renders the stream as a human-readable stage tree: one row per stage
/// with its wall clock and counter groups, notes and snapshots indented
/// beneath the stage they follow.
pub fn stage_tree(events: &[Event]) -> String {
    let mut out = String::from("flight recorder\n");
    for event in events {
        match &event.kind {
            EventKind::StageStart { .. } => {}
            EventKind::StageEnd { stage, groups } => {
                let wall = event
                    .wall_ms
                    .map_or_else(|| "      -  ".to_string(), |ms| format!("{ms:>9.3}ms"));
                let _ = write!(out, "├─ {stage:<12} {wall}");
                for (group, counters) in groups.iter().chain(&event.nondet_groups) {
                    let fields: Vec<String> = counters
                        .iter()
                        .map(|(name, v)| format!("{name}={v}"))
                        .collect();
                    let _ = write!(out, "  {group}[{}]", fields.join(" "));
                }
                out.push('\n');
            }
            EventKind::SpanStart { .. } => {}
            EventKind::SpanEnd { path, costs, .. } => {
                // Indent one level per path component beyond the stage.
                let depth = path.matches(';').count();
                let _ = write!(out, "│  {}· {path}", "  ".repeat(depth));
                if !costs.is_empty() {
                    let fields: Vec<String> = costs
                        .iter()
                        .map(|(name, v)| format!("{name}={v}"))
                        .collect();
                    let _ = write!(out, " [{}]", fields.join(" "));
                }
                if let Some(ms) = event.wall_ms {
                    let _ = write!(out, " {ms:.3}ms");
                }
                out.push('\n');
            }
            EventKind::CounterSnapshot { snapshot } => {
                let _ = writeln!(out, "│    · snapshot: {} metrics", snapshot.metrics.len());
            }
            EventKind::Note { text } => {
                let _ = writeln!(out, "│    · note: {text}");
            }
        }
    }
    out
}

/// Renders the event stream as collapsed flamegraph stacks — one
/// `path value` line per distinct span path, inferno-compatible.
///
/// Each closing stage/span contributes its **self** value (inclusive
/// minus the sum of its children's inclusive values) so a flamegraph
/// tool summing the stacks does not double-count nesting. With
/// `counter = Some(name)` the value is that deterministic cost counter
/// (stages without it contribute only through their children); with
/// `None` the value is the quarantined wall clock in whole microseconds
/// — useful for profiling, but nondeterministic by nature. Same-path
/// frames (loops) aggregate; paths render in lexicographic order and
/// zero-self lines are dropped, so the output is deterministic whenever
/// the chosen values are.
pub fn collapsed_stacks(events: &[Event], counter: Option<&str>) -> String {
    let wall_us = |e: &Event| {
        e.wall_ms
            .map_or(0u64, |ms| (ms * 1000.0).max(0.0).round() as u64)
    };
    let mut stack: Vec<Open> = Vec::new();
    let mut totals: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for event in events {
        match &event.kind {
            EventKind::StageStart { stage } => stack.push(Open {
                path: (*stage).to_string(),
                child_sum: 0,
            }),
            EventKind::SpanStart { path, .. } => stack.push(Open {
                path: path.clone(),
                child_sum: 0,
            }),
            EventKind::StageEnd { groups, .. } => {
                let Some(frame) = stack.pop() else { continue };
                let inclusive = match counter {
                    Some(name) => groups
                        .iter()
                        .flat_map(|(_, counters)| counters.iter())
                        .filter(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                        .sum(),
                    None => wall_us(event),
                };
                settle(
                    &mut stack,
                    &mut totals,
                    frame.path,
                    inclusive,
                    frame.child_sum,
                );
            }
            EventKind::SpanEnd { costs, .. } => {
                let Some(frame) = stack.pop() else { continue };
                let inclusive = match counter {
                    Some(name) => costs
                        .iter()
                        .filter(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                        .sum(),
                    None => wall_us(event),
                };
                settle(
                    &mut stack,
                    &mut totals,
                    frame.path,
                    inclusive,
                    frame.child_sum,
                );
            }
            EventKind::CounterSnapshot { .. } | EventKind::Note { .. } => {}
        }
    }
    let mut out = String::new();
    for (path, value) in &totals {
        let _ = writeln!(out, "{path} {value}");
    }
    out
}

/// One open frame of the collapsed-stack replay in
/// [`collapsed_stacks`].
struct Open {
    path: String,
    child_sum: u64,
}

/// Folds one closing frame into the collapsed-stack accumulator: credits
/// the parent with the frame's inclusive value and the totals with its
/// self value.
fn settle(
    stack: &mut [Open],
    totals: &mut std::collections::BTreeMap<String, u64>,
    path: String,
    inclusive: u64,
    child_sum: u64,
) {
    // A parent whose own value is smaller than its children's sum (a
    // counter only recorded on leaves) still propagates the larger sum.
    let inclusive = inclusive.max(child_sum);
    if let Some(parent) = stack.last_mut() {
        parent.child_sum += inclusive;
    }
    let self_value = inclusive - child_sum;
    if self_value > 0 {
        *totals.entry(path).or_default() += self_value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Recorder {
        let rec = Recorder::new();
        let reg = Registry::new();
        reg.inc("probes", 2);
        rec.stage_start("sweep");
        rec.stage_end(
            "sweep",
            12.5,
            vec![("fault_impact", vec![("blackhole", 4)])],
            vec![("route_memo", vec![("hits", 3), ("misses", 1)])],
        );
        rec.counter_snapshot(reg.snapshot());
        rec.note("done");
        rec
    }

    #[test]
    fn events_are_ordered_and_dense() {
        let events = sample().events();
        assert_eq!(events.len(), 4);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn jsonl_segregates_wall_clock_and_nondet_groups() {
        let events = sample().events();
        let det = render_jsonl(&events, false);
        let full = render_jsonl(&events, true);
        assert!(!det.contains("nondeterministic"));
        assert!(!det.contains("wall_ms"));
        assert!(!det.contains("route_memo"), "cache split leaked:\n{det}");
        assert!(det.contains("\"fault_impact\": {\"blackhole\": 4}"));
        assert!(full.contains(
            "\"nondeterministic\": {\"wall_ms\": 12.5, \
             \"route_memo\": {\"hits\": 3, \"misses\": 1}}"
        ));
        // Stripping the nondeterministic section recovers the
        // deterministic rendering line for line.
        for (d, f) in det.lines().zip(full.lines()) {
            assert!(f.starts_with(d.trim_end_matches('}')));
        }
    }

    #[test]
    fn jsonl_renders_every_event_kind() {
        let events = sample().events();
        let full = render_jsonl(&events, true);
        assert!(full.contains("\"event\": \"stage_start\", \"stage\": \"sweep\""));
        assert!(full.contains("\"route_memo\": {\"hits\": 3, \"misses\": 1}"));
        assert!(full.contains("\"event\": \"counter_snapshot\", \"metrics\": {\"probes\": 2}"));
        assert!(full.contains("\"event\": \"note\", \"text\": \"done\""));
    }

    #[test]
    fn note_text_is_escaped() {
        let rec = Recorder::new();
        rec.note("say \"hi\"\\\n");
        let line = render_jsonl(&rec.events(), false);
        assert!(line.contains("\"text\": \"say \\\"hi\\\"\\\\\\n\""));
    }

    #[test]
    fn stage_tree_shows_stages_and_notes() {
        let tree = stage_tree(&sample().events());
        assert!(tree.contains("├─ sweep"));
        assert!(tree.contains("route_memo[hits=3 misses=1]"));
        assert!(tree.contains("· note: done"));
        assert!(tree.contains("· snapshot: 1 metrics"));
    }

    /// A stage with nested spans, a note interleaved inside the nesting,
    /// and per-span costs + wall clocks.
    fn nested() -> Recorder {
        let rec = Recorder::new();
        rec.stage_start("sweep");
        rec.span_start("targets");
        rec.span_end("targets", None, vec![("targets", 7)]);
        rec.span_start("probe-round");
        rec.note("inside a span");
        rec.span_start("region-0");
        rec.span_end("region-0", None, vec![("probes", 10)]);
        rec.span_start("region-1");
        rec.span_end("region-1", Some(1.25), vec![("probes", 20)]);
        rec.span_end("probe-round", Some(3.5), vec![("probes", 30)]);
        rec.stage_end("sweep", 12.5, Vec::new(), Vec::new());
        rec
    }

    #[test]
    fn span_paths_nest_under_stages() {
        let events = nested().events();
        let paths: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanEnd { path, .. } => Some(path.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            paths,
            [
                "sweep;targets",
                "sweep;probe-round;region-0",
                "sweep;probe-round;region-1",
                "sweep;probe-round",
            ]
        );
    }

    #[test]
    fn span_ids_are_deterministic_and_distinguish_siblings() {
        // Identical structure => identical streams, IDs included.
        assert_eq!(nested().events(), nested().events());
        let ids = |rec: &Recorder| -> Vec<(String, u64)> {
            rec.events()
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::SpanStart { path, id } => Some((path.clone(), *id)),
                    _ => None,
                })
                .collect()
        };
        // Same-name siblings under one parent get distinct IDs via the
        // occurrence index; distinct names differ trivially.
        let rec = Recorder::new();
        rec.stage_start("s");
        rec.span_start("g");
        rec.span_end("g", None, Vec::new());
        rec.span_start("g");
        rec.span_end("g", None, Vec::new());
        rec.stage_end("s", 0.0, Vec::new(), Vec::new());
        let got = ids(&rec);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, got[1].0, "same path for same-name siblings");
        assert_ne!(got[0].1, got[1].1, "occurrence index must split IDs");
    }

    #[test]
    fn span_jsonl_quarantines_wall_but_keeps_costs() {
        let events = nested().events();
        let det = render_jsonl(&events, false);
        let full = render_jsonl(&events, true);
        assert!(det.contains("\"event\": \"span_end\", \"path\": \"sweep;probe-round;region-1\""));
        assert!(det.contains("\"costs\": {\"probes\": 20}"));
        assert!(!det.contains("wall_ms"));
        assert!(
            full.contains("\"costs\": {\"probes\": 20}, \"nondeterministic\": {\"wall_ms\": 1.25}")
        );
        // A note inside nested spans renders as a plain note event.
        assert!(det.contains("\"event\": \"note\", \"text\": \"inside a span\""));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unbalanced span nesting")]
    fn unbalanced_span_nesting_debug_asserts() {
        let rec = Recorder::new();
        rec.stage_start("sweep");
        rec.span_start("outer");
        rec.span_start("inner");
        // Closing `outer` while `inner` is still open is a caller bug.
        rec.span_end("outer", None, Vec::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unbalanced span nesting")]
    fn span_end_without_open_frame_debug_asserts() {
        Recorder::new().span_end("ghost", None, Vec::new());
    }

    #[test]
    fn collapsed_stacks_attribute_self_cost_per_path() {
        let events = nested().events();
        let by_probes = collapsed_stacks(&events, Some("probes"));
        // probe-round's 30 probes are fully accounted by its two region
        // children (10 + 20): self is zero, so only leaves appear.
        assert_eq!(
            by_probes,
            "sweep;probe-round;region-0 10\nsweep;probe-round;region-1 20\n"
        );
        let by_wall = collapsed_stacks(&events, None);
        // Wall mode: 12.5ms stage minus 3.5ms probe-round = 9000µs self;
        // probe-round 3500µs minus region-1's 1250µs = 2250µs self.
        assert_eq!(
            by_wall,
            "sweep 9000\nsweep;probe-round 2250\nsweep;probe-round;region-1 1250\n"
        );
    }
}
