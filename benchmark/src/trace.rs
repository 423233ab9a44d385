//! Spans recorded by the harness around its calls into each layer: name,
//! start, end, the span that caused it, and the operation it belongs to.
//! Kept in memory during the run and written out once at the end; spans
//! inside the engine are a later change.

use std::time::Instant;

use crate::json::Value;
use crate::stats::median;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-prefixed name, e.g. `plan.compile`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the parent span; `None` for an operation's root span.
    pub parent: Option<u32>,
    /// Operation id: every span of one operation shares it.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. One per thread; [`Tracer::absorb`] merges
/// them before writing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer sharing `self`'s epoch, for another thread.
    pub fn sibling(&self) -> Self {
        Self {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op`; close it with
    /// [`Tracer::close`] once its children ran.
    pub fn root(&mut self, name: &'static str, op: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Ends the span opened by [`Tracer::root`].
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` as a child span of `parent` and returns its result.
    pub fn child<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let op = self.spans[parent as usize].op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in the unit `per_ns`
    /// converts to (e.g. `1e-3` for microseconds); 0 when none ran.
    pub fn median_of(&self, name: &str, per_ns: f64) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * per_ns
        }
    }

    /// Share of root-span time its children account for: `Σ child time /
    /// Σ root time` over roots called `root_name`. What is left is the
    /// root's self time — harness bookkeeping between the calls.
    pub fn child_coverage(&self, root_name: &str) -> f64 {
        let mut per_parent = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                per_parent[p as usize] += s.ns();
            }
        }
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for (s, children) in self.spans.iter().zip(per_parent) {
            if s.parent.is_none() && s.name == root_name {
                root_ns += s.ns();
                child_ns += children;
            }
        }
        if root_ns == 0 {
            return 0.0;
        }
        child_ns as f64 / root_ns as f64
    }

    /// The span file: `{"workload", "spans": [{name,start_ns,end_ns,parent,op}]}`.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Value::obj();
                o.set("name", s.name)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                    )
                    .set("op", u64::from(s.op));
                o
            })
            .collect::<Vec<_>>();
        let mut doc = Value::obj();
        doc.set("workload", workload).set("spans", spans);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_their_root_and_share_its_op() {
        let mut t = Tracer::new();
        let root = t.root("op", 7);
        let x = t.child(root, "a", || 21 * 2);
        t.child(root, "b", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.close(root);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(t.child_coverage("op") > 0.5 && t.child_coverage("op") <= 1.0);
        assert!(t.median_of("b", 1e-6) >= 2.0);
        assert_eq!(t.median_of("missing", 1.0), 0.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Tracer::new();
        let r = main.root("op", 0);
        main.close(r);
        let mut other = main.sibling();
        let r2 = other.root("op", 1);
        other.child(r2, "c", || ());
        other.close(r2);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        let doc = main.to_json("w");
        assert_eq!(doc.get("spans").and_then(Value::as_arr).unwrap().len(), 3);
    }
}
