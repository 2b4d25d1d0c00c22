//! In-memory span recording for the traced run, and the self-time
//! breakdown computed from the spans.
//!
//! A span is recorded around each call into a layer (name, start, end,
//! parent, thread, optional request id). Spans nest through a per-thread
//! stack of open spans, so a span opened inside another on the same
//! thread becomes its child. Spans are kept in memory and written out
//! once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Small per-process thread ordinal.
    pub thread: u64,
    /// Request id, for spans of one fleet request.
    pub id: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The span sink of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` as nanoseconds since the tracer was created.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, id: Option<u64>, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let thread = THREAD.with(|t| *t);
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span sink poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                thread,
                id,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span sink poisoned")[idx].end_ns = end_ns;
        out
    }

    /// Records a span whose bounds were measured elsewhere (e.g. a fleet
    /// reply's admission-to-answer interval). It has no parent.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, id: Option<u64>) {
        let thread = THREAD.with(|t| *t);
        self.spans.lock().expect("span sink poisoned").push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            thread,
            id,
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Calls and self time of one span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    pub self_ns: u64,
}

/// Where a root span's time went: the self time of every span name
/// nested under it, plus the root's own self time (the residual).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    pub root_ns: u64,
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub residual_ns: u64,
}

impl Breakdown {
    /// Self time of one layer as a share of the root.
    pub fn share(&self, name: &str) -> f64 {
        let self_ns = self.layers.get(name).map_or(0, |l| l.self_ns);
        ratio(self_ns as f64, self.root_ns as f64)
    }

    pub fn residual_share(&self) -> f64 {
        ratio(self.residual_ns as f64, self.root_ns as f64)
    }

    /// Layer self times plus the residual: equals `root_ns` when the
    /// spans nest properly.
    pub fn accounted_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum::<u64>() + self.residual_ns
    }

    /// `root=… s residual=… name=share …`: where the root's time went.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "breakdown root={:.4} s residual={:.4}",
            self.root_ns as f64 / 1e9,
            self.residual_share()
        );
        for name in self.layers.keys() {
            let _ = write!(out, " {name}={:.4}", self.share(name));
        }
        out
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The self-time breakdown of the span tree under `spans[root]`. A span's
/// self time is its duration minus the durations of its direct children
/// (children on one thread never overlap each other).
pub fn breakdown(spans: &[Span], root: usize) -> Breakdown {
    let mut in_tree = vec![false; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    in_tree[root] = true;
    // A parent is always opened, hence pushed, before its children.
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            if in_tree[p] {
                in_tree[i] = true;
                child_ns[p] += spans[i].dur_ns();
            }
        }
    }
    let self_ns = |i: usize| spans[i].dur_ns().saturating_sub(child_ns[i]);
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for i in root + 1..spans.len() {
        if in_tree[i] {
            let e = layers.entry(spans[i].name).or_default();
            e.calls += 1;
            e.self_ns += self_ns(i);
        }
    }
    Breakdown {
        root_ns: spans[root].dur_ns(),
        layers,
        residual_ns: self_ns(root),
    }
}

/// Durations in microseconds of every span named `name`, on any thread.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Writes the spans as a JSON array, one span per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let id = s.id.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"thread\":{},\"id\":{id}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            thread: 0,
            id: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_parts_add_up() {
        let spans = vec![
            span("run", 0, 100, None),
            span("nn.round", 10, 50, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("sync.step", 60, 70, Some(0)),
            span("elsewhere", 0, 1000, None),
        ];
        let b = breakdown(&spans, 0);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.layers["nn.round"].self_ns, 30);
        assert_eq!(b.layers["inner"].self_ns, 10);
        assert_eq!(b.layers["sync.step"].self_ns, 10);
        assert_eq!(b.residual_ns, 50);
        assert!(!b.layers.contains_key("elsewhere"));
        assert_eq!(b.accounted_ns(), b.root_ns);
    }

    #[test]
    fn nested_spans_on_one_thread_get_parents() {
        let t = Tracer::default();
        t.span("outer", None, || {
            t.span("a", None, || ());
            t.span("b", Some(7), || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].id, Some(7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let b = breakdown(&spans, 0);
        assert_eq!(b.accounted_ns(), b.root_ns);
    }
}
