//! The harness-side span recorder of the traced run.
//!
//! Spans wrap the harness's *calls into* the library (the PR that defines
//! a benchmark measures every layer from outside). They are kept in
//! memory and written out once, after the last measurement. With tracing
//! off every method is a branch and a return, so the untraced run — the
//! one all end-to-end numbers come from — pays nothing for them.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op the span belongs to — the identifier every span of
    /// one op shares.
    pub op: u32,
    /// Id (index in the span list) of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// An *aggregated* child: time the library reports having spent inside
    /// the parent (scheduler callbacks, which interleave with the driver
    /// thousands of times per run). It is laid at the parent's start; only
    /// its duration is meaningful.
    pub agg: bool,
}

/// What one traced op spent and counted, keyed by span / counter name.
#[derive(Clone, Debug, Default)]
pub struct OpAcc {
    /// Wall seconds of the op's root span.
    pub wall: f64,
    /// Σ duration of the spans of each name, seconds.
    pub dur: BTreeMap<&'static str, f64>,
    /// Σ self time (duration minus children) of the spans of each name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Σ of the values counted under each name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl OpAcc {
    pub fn dur(&self, name: &str) -> f64 {
        self.dur.get(name).copied().unwrap_or(0.0)
    }
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counts: Vec<(u32, &'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            agg: false,
        });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = now;
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records `seconds` the library reports having spent inside the
    /// innermost open span as an aggregated child of it.
    pub fn agg_child(&mut self, name: &'static str, seconds: f64) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("agg_child outside any span");
        let start = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + (seconds * 1e9) as u64,
            agg: true,
        });
    }

    /// Adds `value` to the current op's counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((self.op, name, value));
        }
    }

    /// Ends the current op: later spans belong to the next one.
    pub fn next_op(&mut self) {
        debug_assert!(self.open.is_empty(), "op ended with open spans");
        self.op += 1;
    }

    /// Per-op sums of everything recorded so far.
    pub fn per_op(&self) -> Vec<OpAcc> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut ops: Vec<OpAcc> = vec![OpAcc::default(); self.op as usize];
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let Some(acc) = ops.get_mut(s.op as usize) else {
                continue;
            };
            let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
            if s.parent.is_none() {
                acc.wall += dur;
            }
            *acc.dur.entry(s.name).or_default() += dur;
            // Aggregated children are reported, not clocked on this
            // timeline: rounding may push them a hair past the parent.
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            *acc.self_s.entry(s.name).or_default() += self_ns as f64 * 1e-9;
        }
        for &(op, name, value) in &self.counts {
            if let Some(acc) = ops.get_mut(op as usize) {
                *acc.counts.entry(name).or_default() += value;
            }
        }
        ops
    }

    /// Writes one JSON object per span, in start order of recording.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("op", Json::Num(s.op as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("agg", Json::Bool(s.agg)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        tr.enter("op");
        tr.enter("sim.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.agg_child("sched.callback", 0.001);
        tr.exit();
        tr.count("sim.events", 7.0);
        tr.exit();
        tr.next_op();
        let ops = tr.per_op();
        assert_eq!(ops.len(), 1);
        let a = &ops[0];
        assert!(a.wall >= 0.002);
        assert!((a.dur("sched.callback") - 0.001).abs() < 1e-9);
        assert!((a.self_s("sim.run") - (a.dur("sim.run") - 0.001)).abs() < 1e-9);
        assert!(a.self_s("op") < a.dur("op") - 0.0019);
        assert_eq!(a.count("sim.events"), 7.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.enter("op");
        assert_eq!(tr.time("x", || 3), 3);
        tr.count("c", 1.0);
        tr.exit();
        tr.next_op();
        assert!(tr.per_op().iter().all(|a| a.dur.is_empty()));
    }
}
