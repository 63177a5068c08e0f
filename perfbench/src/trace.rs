//! Spans recorded from outside the program: the benchmark wraps each of
//! its own calls into a layer's public function in a span. Spans stay
//! in memory until the run ends, then reduce to per-name totals and
//! self times (duration minus the time child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// The span recorder. A disabled tracer costs one branch per call, so
/// the untraced runs execute the same code as the traced one. Clones
/// share one log.
#[derive(Clone)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    log: Rc<RefCell<Log>>,
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(Option<u32>);

/// Per-name reduction of the recorded spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Distinct ops that opened the name.
    pub ops: u64,
}

impl SpanTotals {
    /// Mean duration per span, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            log: Rc::new(RefCell::new(Log::default())),
        }
    }

    fn now_ns(&self) -> u64 {
        crate::stats::nanos(self.origin.elapsed())
    }

    /// Tags subsequently opened spans with `op`: the iteration of the
    /// workload's closed loop that opens them (an op, a session, a
    /// proof-stream cycle or a fleet tick).
    pub fn set_op(&self, op: u64) {
        if self.on {
            self.log.borrow_mut().op = op;
        }
    }

    /// Opens a span, nested under the innermost open one.
    pub fn begin(&self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut log = self.log.borrow_mut();
        let parent = log.stack.last().copied().unwrap_or(NO_PARENT);
        let id = u32::try_from(log.spans.len()).expect("span count fits u32");
        let op = log.op;
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        log.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let mut log = self.log.borrow_mut();
        log.spans[id as usize].end_ns = end_ns;
        if let Some(pos) = log.stack.iter().rposition(|&s| s == id) {
            log.stack.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Reduces the recorded spans to per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let log = self.log.borrow();
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        let mut last_op: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in log.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[i]);
            if last_op.insert(s.name, s.op) != Some(s.op) {
                t.ops += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.totals().is_empty());
    }
}
