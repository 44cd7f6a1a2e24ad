//! In-memory span recorder.
//!
//! Every call the benchmark makes into a simulator layer is wrapped in a
//! span: a name, start and end offsets from the recorder's origin, and the
//! index of the enclosing span. Spans stay in memory; a traced run writes
//! them out once, at exit. A span's *self time* is its duration minus the
//! time its direct children cover, so for every root operation
//! `Σ children + self == wall`, and the root's self time is the explicit
//! `unattributed` residual.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.system.try_new`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` — used after a caught panic
    /// left spans open.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open span");
            self.exit(id);
        }
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of every span named `name` inside
    /// span `root`.
    pub fn total_s(&self, name: &str, root: usize) -> f64 {
        // A fold from +0.0: `f64::sum` of nothing is -0.0.
        self.durations_s(name, root).iter().fold(0.0, |a, b| a + b)
    }

    /// Duration in seconds of each span named `name` inside span `root`.
    pub fn durations_s(&self, name: &str, root: usize) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.is_within(*i, root))
            .map(|(_, s)| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    fn is_within(&self, mut span: usize, root: usize) -> bool {
        loop {
            if span == root {
                return true;
            }
            match self.spans[span].parent {
                Some(p) => span = p,
                None => return false,
            }
        }
    }

    /// Self time of span `id`, ns: its duration minus its direct
    /// children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::dur_ns).sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Per-root ledger: each root's wall time, the self time of every
    /// layer below it summed by span name, and its own self time as the
    /// `unattributed` residual. Parts sum to the wall time exactly.
    pub fn ledger(&self) -> Vec<Ledger> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let mut out: Vec<Ledger> = Vec::new();
        let mut root_of = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns().saturating_sub(covered[i]);
            match s.parent {
                None => {
                    root_of[i] = out.len();
                    out.push(Ledger {
                        name: s.name,
                        wall_ns: s.dur_ns(),
                        self_ns: BTreeMap::new(),
                        unattributed_ns: self_ns,
                    });
                }
                Some(p) => {
                    root_of[i] = root_of[p];
                    *out[root_of[i]].self_ns.entry(s.name).or_default() += self_ns;
                }
            }
        }
        out
    }

    /// The full trace — spans and per-root ledgers — as a JSON value.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                ])
            })
            .collect();
        let ledgers = self.ledger().iter().map(Ledger::to_value).collect();
        Value::Map(vec![
            ("ledgers".into(), Value::Seq(ledgers)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// Where one root operation's wall time went.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Root span name.
    pub name: &'static str,
    /// Root span duration, ns.
    pub wall_ns: u64,
    /// Self time of every span below the root, summed by name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The root's own self time: wall time no layer span covers.
    pub unattributed_ns: u64,
}

impl Ledger {
    fn to_value(&self) -> Value {
        let parts =
            self.self_ns.iter().map(|(k, v)| (k.to_string(), Value::U64(*v))).collect::<Vec<_>>();
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.into())),
            ("wall_ns".into(), Value::U64(self.wall_ns)),
            ("self_ns".into(), Value::Map(parts)),
            ("unattributed_ns".into(), Value::U64(self.unattributed_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_parts_sum_to_wall_time() {
        let mut t = Tracer::new();
        let root = t.enter("op");
        let a = t.enter("a");
        let b = t.enter("b");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.exit(b);
        t.exit(a);
        t.time("c", || std::hint::black_box((0..1_000u64).sum::<u64>()));
        t.exit(root);
        let ledger = t.ledger();
        assert_eq!(ledger.len(), 1);
        let l = &ledger[0];
        assert_eq!(l.self_ns.values().sum::<u64>() + l.unattributed_ns, l.wall_ns);
        assert_eq!(t.total_s("b", root), t.spans()[b].dur_ns() as f64 * 1e-9);
    }

    #[test]
    fn unwind_closes_spans_left_open() {
        let mut t = Tracer::new();
        let root = t.enter("op");
        let depth = t.depth();
        t.enter("x");
        t.enter("y");
        t.unwind_to(depth);
        t.exit(root);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
    }
}
