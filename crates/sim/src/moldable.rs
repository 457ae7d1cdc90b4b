//! Moldable-task extension: tasks that may run on several processors.
//!
//! The paper's conclusion names this the major extension: "consider
//! parallel tasks rather than only sequential ones … we are confident that
//! the algorithm presented in this paper (or its adaptation) would still
//! provide an improvement". This module provides the platform side of that
//! adaptation: an engine where the scheduler assigns each started task a
//! processor *count*, with its running time scaled by a speedup model.
//!
//! The engine is a virtual-clock [`GangBackend`] under the shared
//! [`crate::driver`] gang loop — the same loop that backs the sequential
//! simulator and the threaded runtime (`memtree_runtime::execute_moldable`),
//! so precedence, processor capacity, booking and stall detection are
//! enforced identically wherever a moldable policy runs.
//!
//! Memory is charged exactly as in the sequential-task model (the paper
//! notes a parallel run would need extra workspace; modelling that extra
//! is orthogonal and left to the policy via inflated `n_i` if desired).

use crate::driver::{drive_gang_with, DriveConfig, DriveError, GangBackend, Rescheduler};
use crate::error::SimError;
use crate::trace::MemSample;
use memtree_tree::{NodeId, TaskTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How running time scales with allotted processors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpeedupModel {
    /// Perfect scaling: `t(q) = t / q`.
    Linear,
    /// Amdahl's law with the given serial fraction `f`:
    /// `t(q) = t · (f + (1 − f)/q)`.
    Amdahl {
        /// Serial fraction in `[0, 1]`.
        serial_fraction: f64,
    },
}

impl SpeedupModel {
    /// Running time of a task of sequential time `t` on `q` processors.
    pub fn time(&self, t: f64, q: usize) -> f64 {
        assert!(q >= 1, "a task needs at least one processor");
        match *self {
            SpeedupModel::Linear => t / q as f64,
            SpeedupModel::Amdahl { serial_fraction } => {
                assert!((0.0..=1.0).contains(&serial_fraction));
                t * (serial_fraction + (1.0 - serial_fraction) / q as f64)
            }
        }
    }
}

/// A scheduling policy for moldable tasks: like
/// [`crate::Scheduler`] but each started task carries an allotment.
pub trait MoldableScheduler {
    /// Policy name.
    fn name(&self) -> &str;
    /// React to completions; push `(task, processors)` pairs whose
    /// allotments must sum to at most `idle`.
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>);
    /// Memory currently booked.
    fn booked(&self) -> u64;
    /// Optional hook: called once by the driver before the first event.
    fn on_begin(&mut self) {}
    /// Tasks ready to start but held back (memory, caps, idle workers) —
    /// surfaced to a [`Rescheduler`] through `LiveStats::ready_depth`.
    /// Policies without a ready set report 0.
    fn ready_depth(&self) -> usize {
        0
    }
}

/// Blanket impl so `&mut S` can be passed where a moldable scheduler is
/// expected.
impl<S: MoldableScheduler + ?Sized> MoldableScheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        (**self).on_event(finished, idle, to_start)
    }
    fn booked(&self) -> u64 {
        (**self).booked()
    }
    fn on_begin(&mut self) {
        (**self).on_begin()
    }
    fn ready_depth(&self) -> usize {
        (**self).ready_depth()
    }
}

impl<S: MoldableScheduler + ?Sized> MoldableScheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        (**self).on_event(finished, idle, to_start)
    }
    fn booked(&self) -> u64 {
        (**self).booked()
    }
    fn on_begin(&mut self) {
        (**self).on_begin()
    }
    fn ready_depth(&self) -> usize {
        (**self).ready_depth()
    }
}

/// Start/finish record of a moldable task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoldableRecord {
    /// Start time.
    pub start: f64,
    /// Completion time.
    pub finish: f64,
    /// Processors allotted. On a malleable run (a [`Rescheduler`] resized
    /// gangs mid-flight) this is the task's **peak** allotment; the full
    /// history lives in [`MoldableTrace::segments`].
    pub procs: u32,
}

/// One constant-allotment stretch of a task's execution. A task that was
/// never resized has exactly one segment spanning start to finish.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllotmentSegment {
    /// The task.
    pub node: NodeId,
    /// Segment start time.
    pub start: f64,
    /// Segment end time (the next resize or the task's completion).
    pub end: f64,
    /// Processors held during the segment.
    pub procs: u32,
}

/// Outcome of a moldable simulation.
#[derive(Clone, Debug)]
pub struct MoldableTrace {
    /// Policy name.
    pub scheduler: String,
    /// Processor count simulated.
    pub processors: usize,
    /// Memory bound.
    pub memory: u64,
    /// Per-task records.
    pub records: Vec<MoldableRecord>,
    /// Total completion time.
    pub makespan: f64,
    /// Peak actual resident memory.
    pub peak_actual: u64,
    /// Peak booked memory.
    pub peak_booked: u64,
    /// Scheduler events processed (completion batches + the initial
    /// event).
    pub events: usize,
    /// Wall-clock seconds spent inside scheduler callbacks.
    pub scheduling_seconds: f64,
    /// Memory profile (always recorded; moldable runs are small).
    pub profile: Vec<MemSample>,
    /// Per-task allotment history, in execution order. Empty on a plain
    /// moldable run (no resizes possible); on a malleable run every task
    /// contributes one segment per constant-allotment stretch.
    pub segments: Vec<AllotmentSegment>,
    /// Peak sum of live allotments, from the driver's processor ledger.
    pub peak_busy: usize,
}

impl MoldableTrace {
    /// Per-task allotments in node-id order — the `q` each task actually
    /// got, for replaying the same gang decisions on another platform
    /// (e.g. the threaded runtime).
    pub fn allotments(&self) -> Vec<u32> {
        self.records.iter().map(|r| r.procs).collect()
    }

    /// The largest allotment any task received.
    pub fn max_allotment(&self) -> u32 {
        self.records.iter().map(|r| r.procs).max().unwrap_or(0)
    }

    /// Validates the trace: every task ran once, precedence held, the sum
    /// of allotments never exceeded `p`, and each task's duration matches
    /// the speedup model. Malleable traces (non-empty
    /// [`MoldableTrace::segments`]) are checked segment-wise through
    /// [`MoldableTrace::validate_malleable`] — the duration check becomes
    /// work conservation across resizes.
    pub fn validate(&self, tree: &TaskTree, model: SpeedupModel) -> Result<(), String> {
        if !self.segments.is_empty() {
            return self.validate_malleable(tree, model);
        }
        let n = tree.len();
        if self.records.len() != n {
            return Err("record count mismatch".into());
        }
        for i in tree.nodes() {
            let r = self.records[i.index()];
            if !r.start.is_finite() {
                return Err(format!("task {i:?} never ran"));
            }
            let expect = r.start + model.time(tree.time(i), r.procs as usize);
            if (r.finish - expect).abs() > 1e-9 * expect.abs().max(1.0) {
                return Err(format!("task {i:?} duration mismatch"));
            }
            for &c in tree.children(i) {
                if self.records[c.index()].finish > r.start + 1e-9 {
                    return Err(format!("precedence violated at {i:?}"));
                }
            }
        }
        // Allotment sweep.
        let mut events: Vec<(f64, i64)> = Vec::with_capacity(2 * n);
        for r in &self.records {
            events.push((r.start, r.procs as i64));
            events.push((r.finish, -(r.procs as i64)));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (_, d) in events {
            used += d;
            if used > self.processors as i64 {
                return Err(format!("{used} processors used with {}", self.processors));
            }
        }
        Ok(())
    }

    /// Validates a malleable trace from its allotment segments: per task,
    /// segments tile `[start, finish]` without gaps and conserve the
    /// sequential work under the speedup model (`Σ len/t(1, q) = t_seq` —
    /// both models are linear in `t`, so `t(t_seq, q) = t_seq · t(1, q)`);
    /// precedence holds on the records; the segment-wise occupancy sweep
    /// never exceeds `p` and matches [`MoldableTrace::peak_busy`].
    pub fn validate_malleable(&self, tree: &TaskTree, model: SpeedupModel) -> Result<(), String> {
        let n = tree.len();
        if self.records.len() != n {
            return Err("record count mismatch".into());
        }
        let mut segs: Vec<Vec<&AllotmentSegment>> = vec![Vec::new(); n];
        for s in &self.segments {
            if s.procs == 0 {
                return Err(format!("zero-processor segment for {:?}", s.node));
            }
            if s.end < s.start - 1e-12 {
                return Err(format!("segment of {:?} ends before it starts", s.node));
            }
            segs[s.node.index()].push(s);
        }
        for i in tree.nodes() {
            let r = self.records[i.index()];
            if !r.start.is_finite() {
                return Err(format!("task {i:?} never ran"));
            }
            for &c in tree.children(i) {
                if self.records[c.index()].finish > r.start + 1e-9 {
                    return Err(format!("precedence violated at {i:?}"));
                }
            }
            let list = &segs[i.index()];
            if list.is_empty() {
                return Err(format!("task {i:?} has no allotment segment"));
            }
            let eps = 1e-9 * r.finish.abs().max(1.0);
            if (list[0].start - r.start).abs() > eps {
                return Err(format!("task {i:?} first segment misses its start"));
            }
            if (list[list.len() - 1].end - r.finish).abs() > eps {
                return Err(format!("task {i:?} last segment misses its finish"));
            }
            let mut consumed = 0.0;
            let mut peak_q = 0u32;
            for (k, s) in list.iter().enumerate() {
                if k + 1 < list.len() && (s.end - list[k + 1].start).abs() > eps {
                    return Err(format!("task {i:?} has a gap between segments"));
                }
                consumed += (s.end - s.start) / model.time(1.0, s.procs as usize);
                peak_q = peak_q.max(s.procs);
            }
            let t = tree.time(i);
            if (consumed - t).abs() > 1e-6 * t.max(1.0) {
                return Err(format!(
                    "task {i:?} work not conserved: did {consumed}, needs {t}"
                ));
            }
            if peak_q != r.procs {
                return Err(format!("task {i:?} record procs is not the segment peak"));
            }
        }
        let peak = self.occupancy_peak();
        if peak > self.processors {
            return Err(format!("{peak} processors used with {}", self.processors));
        }
        if self.peak_busy > self.processors {
            return Err(format!(
                "driver ledger peak {} exceeds {} processors",
                self.peak_busy, self.processors
            ));
        }
        if peak > self.peak_busy {
            return Err(format!(
                "segment occupancy peak {peak} exceeds the driver ledger {}",
                self.peak_busy
            ));
        }
        Ok(())
    }

    /// Peak concurrent allotment replayed from the trace: a sweep over
    /// [`MoldableTrace::segments`] when present, over the records
    /// otherwise. Segment ends sort before segment starts at equal times,
    /// so back-to-back hand-offs and same-instant resizes never count both
    /// allotments at once. On a valid trace this never exceeds
    /// [`MoldableTrace::peak_busy`], and equals it whenever no resize lands
    /// in the same instant the resized task's current segment opened — the
    /// ledger additionally records that pre-resize transient (e.g. a
    /// zero-duration task, or a gang resized at the event that started it),
    /// which a zero-width segment cannot represent.
    pub fn occupancy_peak(&self) -> usize {
        let mut events: Vec<(f64, i64)> = Vec::new();
        if self.segments.is_empty() {
            for r in &self.records {
                events.push((r.start, r.procs as i64));
                events.push((r.finish, -(r.procs as i64)));
            }
        } else {
            for s in &self.segments {
                events.push((s.start, s.procs as i64));
                events.push((s.end, -(s.procs as i64)));
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            used += d;
            peak = peak.max(used);
        }
        peak.max(0) as usize
    }
}

/// Virtual-clock state of one running (possibly resized) task.
struct RunningTask {
    /// Sequential work left as of `segment_start`.
    remaining: f64,
    /// When the current constant-allotment segment began.
    segment_start: f64,
    /// Current allotment.
    procs: u32,
    /// Bumped on every resize; heap entries carry the generation they were
    /// pushed under, so stale completion times are skipped on pop.
    gen: u64,
}

/// The virtual-clock gang backend: gangs "run" on a completion-time heap
/// with the speedup model applied, and a batch is everything finishing at
/// the next instant. Resizes are exact: the model is linear in the
/// sequential time, so the work a segment consumed is `len / t(1, q)` and
/// the remainder reruns at the new allotment from the resize instant.
struct MoldableSimBackend<'t> {
    tree: &'t TaskTree,
    model: SpeedupModel,
    now: f64,
    heap: BinaryHeap<Reverse<(OrderedTime, NodeId, u64)>>,
    state: Vec<Option<RunningTask>>,
    records: Vec<MoldableRecord>,
    segments: Vec<AllotmentSegment>,
    profile: Vec<MemSample>,
}

impl<'t> MoldableSimBackend<'t> {
    fn new(tree: &'t TaskTree, model: SpeedupModel) -> Self {
        MoldableSimBackend {
            tree,
            model,
            now: 0.0,
            heap: BinaryHeap::new(),
            state: (0..tree.len()).map(|_| None).collect(),
            records: vec![
                MoldableRecord {
                    start: f64::NAN,
                    finish: f64::NAN,
                    procs: 0
                };
                tree.len()
            ],
            segments: Vec::new(),
            profile: Vec::new(),
        }
    }
}

impl GangBackend for MoldableSimBackend<'_> {
    fn launch(&mut self, i: NodeId, procs: usize, _epoch: u64) -> Result<(), DriveError> {
        let finish = self.now + self.model.time(self.tree.time(i), procs);
        self.records[i.index()] = MoldableRecord {
            start: self.now,
            finish,
            procs: procs as u32,
        };
        self.state[i.index()] = Some(RunningTask {
            remaining: self.tree.time(i),
            segment_start: self.now,
            procs: procs as u32,
            gen: 0,
        });
        self.heap.push(Reverse((OrderedTime(finish), i, 0)));
        Ok(())
    }

    fn resize(&mut self, i: NodeId, from: usize, to: usize, _epoch: u64) -> Result<(), DriveError> {
        let st = self.state[i.index()]
            .as_mut()
            .ok_or_else(|| DriveError::Backend(format!("resize of idle task {i:?}")))?;
        debug_assert_eq!(st.procs as usize, from, "driver and backend agree");
        let elapsed = self.now - st.segment_start;
        st.remaining = (st.remaining - elapsed / self.model.time(1.0, from)).max(0.0);
        self.segments.push(AllotmentSegment {
            node: i,
            start: st.segment_start,
            end: self.now,
            procs: st.procs,
        });
        st.segment_start = self.now;
        st.procs = to as u32;
        st.gen += 1;
        let finish = self.now + self.model.time(st.remaining, to);
        self.records[i.index()].finish = finish;
        self.records[i.index()].procs = self.records[i.index()].procs.max(to as u32);
        self.heap.push(Reverse((OrderedTime(finish), i, st.gen)));
        Ok(())
    }

    fn progress(&self, i: NodeId) -> Option<(u32, u32)> {
        const GRAIN: u32 = 1_000;
        let st = self.state[i.index()].as_ref()?;
        let total = self.tree.time(i);
        if total <= 0.0 {
            return Some((GRAIN, GRAIN));
        }
        let elapsed = self.now - st.segment_start;
        let remaining = (st.remaining - elapsed / self.model.time(1.0, st.procs as usize)).max(0.0);
        let done = ((1.0 - remaining / total).clamp(0.0, 1.0) * GRAIN as f64).round() as u32;
        Some((done, GRAIN))
    }

    fn observe(&mut self, actual: u64, booked: u64) {
        // Always recorded; moldable runs are small.
        self.profile.push(MemSample {
            time: self.now,
            actual,
            booked,
        });
    }

    fn await_batch(&mut self, _epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError> {
        // The next genuine completion: skip heap entries whose generation
        // a resize has outdated.
        let t = loop {
            let Some(&Reverse((OrderedTime(t), i, gen))) = self.heap.peek() else {
                // Unreachable through `drive_gang` (it checks in-flight > 0).
                return Err(DriveError::Backend("no task is running".into()));
            };
            if self.state[i.index()].as_ref().is_some_and(|s| s.gen == gen) {
                break t;
            }
            self.heap.pop();
        };
        self.now = t;
        while let Some(&Reverse((OrderedTime(ft), i, gen))) = self.heap.peek() {
            if ft > t {
                break;
            }
            self.heap.pop();
            if self.state[i.index()].as_ref().is_none_or(|s| s.gen != gen) {
                continue; // stale generation
            }
            let st = self.state[i.index()].take().expect("checked live");
            self.segments.push(AllotmentSegment {
                node: i,
                start: st.segment_start,
                end: t,
                procs: st.procs,
            });
            self.records[i.index()].finish = t;
            batch.push(i);
        }
        Ok(())
    }
}

/// Runs a moldable simulation under the shared gang driver.
pub fn simulate_moldable<S: MoldableScheduler>(
    tree: &TaskTree,
    processors: usize,
    memory: u64,
    model: SpeedupModel,
    scheduler: S,
) -> Result<MoldableTrace, SimError> {
    simulate_moldable_with(tree, processors, memory, model, scheduler, None)
}

/// [`simulate_moldable`] with an optional [`Rescheduler`]: the policy's
/// malleable decisions run against the virtual clock, predicting the
/// makespan the threaded/async backends should approach. The returned
/// trace carries the full [`MoldableTrace::segments`] history when a
/// rescheduler was supplied (and validates segment-wise).
pub fn simulate_moldable_with<S: MoldableScheduler>(
    tree: &TaskTree,
    processors: usize,
    memory: u64,
    model: SpeedupModel,
    scheduler: S,
    rescheduler: Option<&mut dyn Rescheduler>,
) -> Result<MoldableTrace, SimError> {
    if processors == 0 {
        return Err(SimError::BadConfig("zero processors".into()));
    }
    let malleable = rescheduler.is_some();
    let name = scheduler.name().to_string();
    let mut backend = MoldableSimBackend::new(tree, model);
    let stats = drive_gang_with(
        tree,
        DriveConfig::new(processors, memory),
        scheduler,
        &mut backend,
        rescheduler,
    )
    .map_err(|e| crate::engine::to_sim_error(e, tree))?;
    Ok(MoldableTrace {
        scheduler: name,
        processors,
        memory,
        records: backend.records,
        makespan: backend.now,
        peak_actual: stats.peak_actual,
        peak_booked: stats.peak_booked,
        events: stats.events,
        scheduling_seconds: stats.scheduling_seconds,
        profile: backend.profile,
        segments: if malleable {
            backend.segments
        } else {
            Vec::new()
        },
        peak_busy: stats.peak_busy,
    })
}

#[derive(Clone, Copy, PartialEq)]
struct OrderedTime(f64);

impl Eq for OrderedTime {}

impl PartialOrd for OrderedTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite times")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::{TaskSpec, TaskTree};

    #[test]
    fn speedup_models() {
        assert_eq!(SpeedupModel::Linear.time(8.0, 4), 2.0);
        let a = SpeedupModel::Amdahl {
            serial_fraction: 0.5,
        };
        assert_eq!(a.time(8.0, 1), 8.0);
        assert_eq!(a.time(8.0, 4), 8.0 * (0.5 + 0.125));
        // Monotone non-increasing in q.
        for q in 1..8 {
            assert!(a.time(8.0, q + 1) <= a.time(8.0, q));
        }
    }

    /// A trivial moldable policy: run the chain head on every processor.
    struct AllProcsChain<'a> {
        tree: &'a TaskTree,
        order: Vec<NodeId>,
        next: usize,
        bound: u64,
    }

    impl MoldableScheduler for AllProcsChain<'_> {
        fn name(&self) -> &str {
            "all-procs-chain"
        }
        fn on_event(&mut self, _: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
            if idle > 0 && self.next < self.order.len() {
                let i = self.order[self.next];
                // Only start when children finished (chain: previous node).
                if self.next == 0 || self.order[self.next - 1] != i {
                    // chains: previous in order is the child
                }
                let _ = self.tree;
                to_start.push((i, idle));
                self.next += 1;
            }
        }
        fn booked(&self) -> u64 {
            self.bound
        }
    }

    #[test]
    fn linear_chain_gets_full_speedup() {
        let tree = memtree_gen::shapes::chain(10, TaskSpec::new(0, 1, 4.0));
        // Chain postorder: leaf (id 9) up to root (id 0).
        let order: Vec<NodeId> = memtree_tree::traverse::postorder(&tree);
        let total = tree.total_time();
        let trace = simulate_moldable(
            &tree,
            4,
            1_000,
            SpeedupModel::Linear,
            AllProcsChain {
                tree: &tree,
                order,
                next: 0,
                bound: 1_000,
            },
        )
        .unwrap();
        trace.validate(&tree, SpeedupModel::Linear).unwrap();
        assert!((trace.makespan - total / 4.0).abs() < 1e-9);
        assert!(trace.records.iter().all(|r| r.procs == 4));
    }

    #[test]
    fn over_allotment_rejected() {
        struct Greedy;
        impl MoldableScheduler for Greedy {
            fn name(&self) -> &str {
                "greedy"
            }
            fn on_event(&mut self, _: &[NodeId], idle: usize, out: &mut Vec<(NodeId, usize)>) {
                out.push((NodeId(0), idle + 1));
            }
            fn booked(&self) -> u64 {
                u64::MAX
            }
        }
        let tree = TaskTree::from_parents(&[None], &[TaskSpec::default()]).unwrap();
        assert!(matches!(
            simulate_moldable(&tree, 2, 10, SpeedupModel::Linear, Greedy),
            Err(SimError::TooManyStarts { .. })
        ));
    }
}
