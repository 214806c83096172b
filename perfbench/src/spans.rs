//! Spans recorded around calls into the program's layers. They are kept
//! in memory and written out once the run ends.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: which layer, which op it served, and which span
/// enclosed it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, such as `core.profile`.
    pub name: &'static str,
    /// The op the call belonged to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder. A disabled recorder runs the timed
/// closures and records nothing, so untraced runs share the code path.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self time of one span name: its total minus the time its child spans
/// cover.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: usize,
    /// Sum of span lengths, in milliseconds.
    pub total_ms: f64,
    /// `total_ms` minus the lengths of direct children.
    pub self_ms: f64,
}

impl Recorder {
    /// A recorder whose times count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere, nested under `parent`; returns
    /// its index for use as a later parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Moves every span of `other` (which must share this epoch) in.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For each op that has spans named `name`, the sum of their lengths
    /// in milliseconds, in op order.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// For each span, the summed length of its direct children in ms.
    fn child_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        child_ms
    }

    /// For each span named `name`, the share of its length that its
    /// direct children cover.
    pub fn child_cover(&self, name: &str) -> Vec<f64> {
        let child_ms = self.child_ms();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns > s.start_ns)
            .map(|(i, s)| child_ms[i] / s.ms())
            .collect()
    }

    /// Self time per span name, sorted by name.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let child_ms = self.child_ms();
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_insert(SelfTime {
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.count += 1;
            e.total_ms += s.ms();
            e.self_ms += s.ms() - child_ms[i];
        }
        by_name.into_values().collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json::string(s.name),
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}
