//! Independent re-validation of traces.
//!
//! [`validate_trace`] recomputes everything from the per-task records
//! without trusting the engine's incremental bookkeeping: it is the final
//! arbiter used by integration tests and the experiment harness — the one
//! oracle for sequential, moldable and malleable runs alike.

use crate::trace::{AllotmentSegment, Trace};
use memtree_tree::memory::LiveSet;
use memtree_tree::{NodeId, TaskTree};

/// The replay's record steps inside one epoch: completions, then starts.
const FINISH: usize = 0;
const START: usize = 1;

/// A replay step of a malleable trace: one running task's allotment
/// changes by `delta` at `time`, in the rescheduler tick of event `epoch`.
struct Resize {
    epoch: u64,
    delta: i64,
    time: f64,
}

/// Checks `trace` against `tree` and the platform limits it claims.
///
/// Verifies:
/// 1. every task ran exactly once on `1 ≤ procs ≤ p` processors, and its
///    duration is what [`Trace::speedup`] gives for its allotment — or,
///    on a malleable trace (non-empty [`Trace::segments`]), its segments
///    tile `[start, finish]` without gaps and conserve its sequential
///    work across resizes; every epoch is an event of the trace
///    (`≤` [`Trace::events`], itself at most one more than the task
///    count: every event after the first completes a task);
/// 2. precedence: every child finished no later than its parent started;
/// 3. replayed in epoch order — inside an epoch completions, then starts,
///    each by ascending id, then resizes by delta, so a tick's shrinks
///    come before its grows — time never runs backwards, the live
///    allotments never sum to more than `processors`, no two tasks overlap
///    on the same lane ([`crate::TaskRecord::processor`]), and the
///    occupancy peak is the recorded [`Trace::peak_busy`];
/// 4. replayed actual memory stays within `memory` at all times, and its
///    peak is the recorded [`Trace::peak_actual`];
/// 5. the recorded makespan is the latest finish time.
///
/// Epochs are event indices, so the replay is ordered by a counting sort
/// over them: linear in the trace. Because its times must not decrease,
/// that order is also the time order the records claim.
pub fn validate_trace(tree: &TaskTree, trace: &Trace) -> Result<(), String> {
    let n = tree.len();
    if trace.records.len() != n {
        return Err(format!("{} records for {n} tasks", trace.records.len()));
    }
    if trace.events > n + 1 {
        return Err(format!(
            "{} events for {n} tasks: every event after the first completes one",
            trace.events
        ));
    }
    trace.speedup.check()?;
    let malleable = !trace.segments.is_empty();

    // (1) Sane records.
    for i in tree.nodes() {
        let r = trace.record(i);
        if !r.start.is_finite() || !r.finish.is_finite() {
            return Err(format!("task {i:?} never ran"));
        }
        if r.procs == 0 {
            return Err(format!("task {i:?} ran on zero processors"));
        }
        if r.finish_epoch <= r.start_epoch {
            return Err(format!("task {i:?} finish epoch not after its start epoch"));
        }
        if r.finish_epoch > trace.events as u64 {
            return Err(format!(
                "task {i:?} finishes in epoch {} of a {}-event trace",
                r.finish_epoch, trace.events
            ));
        }
        if (r.processor as usize) >= trace.processors {
            return Err(format!("task {i:?} ran on ghost processor {}", r.processor));
        }
        if malleable {
            continue; // durations are checked segment-wise below
        }
        let expected = r.start + trace.speedup.time(tree.time(i), r.procs as usize);
        if (r.finish - expected).abs() > 1e-9 * expected.abs().max(1.0) {
            return Err(format!(
                "task {i:?} duration mismatch: {} -> {} with t = {} on {} processors",
                r.start,
                r.finish,
                tree.time(i),
                r.procs
            ));
        }
    }

    // (2) Precedence.
    for i in tree.nodes() {
        let r = trace.record(i);
        for &c in tree.children(i) {
            let rc = trace.record(c);
            if rc.finish > r.start + 1e-9 {
                return Err(format!(
                    "child {c:?} finishes at {} after parent {i:?} starts at {}",
                    rc.finish, r.start
                ));
            }
        }
    }

    // (3) Occupancy and per-lane exclusivity; (4) memory replay, in the
    // engine's causal order. Epochs disambiguate zero-duration tasks that
    // start and finish at the same instant.
    let mut resizes: Vec<Resize> = Vec::new();
    // The allotment each task was launched with and the one it finished
    // on: its record's, unless it was resized in between.
    let resized = match malleable {
        true => Some(check_segments(tree, trace, &mut resizes)?),
        false => None,
    };
    let ends = |i: NodeId| match &resized {
        Some(ends) => ends[i.index()],
        None => (trace.record(i).procs, trace.record(i).procs),
    };
    resizes.sort_unstable_by(|a, b| {
        (a.epoch, a.delta)
            .cmp(&(b.epoch, b.delta))
            .then(a.time.total_cmp(&b.time))
    });
    let mut resizes = resizes.into_iter().peekable();

    // Counting sort of the 2n record steps: bucket `2e + kind` holds
    // epoch e's completions or starts, ids ascending. Counted one bucket
    // up, so after the prefix sum `next[b]` is where bucket b begins, and
    // after the fill where it ends.
    let mut next = vec![0u32; 2 * (trace.events + 1) + 1];
    let bucket = |epoch: u64, kind: usize| 2 * epoch as usize + kind;
    for r in &trace.records {
        next[bucket(r.finish_epoch, FINISH) + 1] += 1;
        next[bucket(r.start_epoch, START) + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut steps = vec![NodeId(0); 2 * n];
    for (i, r) in tree.nodes().zip(&trace.records) {
        for b in [bucket(r.finish_epoch, FINISH), bucket(r.start_epoch, START)] {
            steps[next[b] as usize] = i;
            next[b] += 1;
        }
    }

    let mut live = LiveSet::new(tree);
    let mut lanes: Vec<Option<NodeId>> = vec![None; trace.processors];
    let mut busy = 0i64;
    let mut peak_busy = 0i64;
    let mut now = f64::NEG_INFINITY;
    let mut advance = |time: f64, epoch: usize| {
        if time.is_nan() || time < now {
            return Err(format!(
                "replay time runs backwards in epoch {epoch}: {time} after {now}"
            ));
        }
        now = time;
        Ok(())
    };
    let mut occupy = |busy: i64| {
        if busy > trace.processors as i64 {
            return Err(format!(
                "{busy} processors in use with {}",
                trace.processors
            ));
        }
        peak_busy = peak_busy.max(busy);
        Ok(())
    };
    let mut begin = 0;
    for (b, &end) in next[..next.len() - 1].iter().enumerate() {
        let (epoch, kind) = (b / 2, b % 2);
        for &i in &steps[begin..end as usize] {
            let r = trace.record(i);
            let p = r.processor as usize;
            if kind == START {
                advance(r.start, epoch)?;
                if let Some(other) = lanes[p] {
                    return Err(format!(
                        "tasks {other:?} and {i:?} overlap on processor {p}"
                    ));
                }
                lanes[p] = Some(i);
                busy += ends(i).0 as i64;
                live.start(i);
                if live.current() > trace.memory {
                    return Err(format!(
                        "resident memory {} exceeds bound {} when {i:?} starts",
                        live.current(),
                        trace.memory
                    ));
                }
            } else {
                advance(r.finish, epoch)?;
                if lanes[p] != Some(i) {
                    return Err(format!(
                        "task {i:?} finished on processor {p} it did not hold"
                    ));
                }
                lanes[p] = None;
                busy -= ends(i).1 as i64;
                live.finish(i);
            }
            occupy(busy)?;
        }
        begin = end as usize;
        if kind == START {
            while let Some(s) = resizes.next_if(|s| s.epoch == epoch as u64) {
                advance(s.time, epoch)?;
                busy += s.delta;
                occupy(busy)?;
            }
        }
    }
    debug_assert!(resizes.next().is_none(), "segments end before finishes");
    if peak_busy != trace.peak_busy as i64 {
        return Err(format!(
            "replayed occupancy peak {peak_busy} differs from recorded {}",
            trace.peak_busy
        ));
    }

    // (5) Makespan.
    let last = trace
        .records
        .iter()
        .map(|r| r.finish)
        .fold(f64::NEG_INFINITY, f64::max);
    if (last - trace.makespan).abs() > 1e-9 * last.abs().max(1.0) {
        return Err(format!(
            "makespan {} but last finish {}",
            trace.makespan, last
        ));
    }

    // Peak cross-check: replayed peak must equal the engine's.
    if live.peak() != trace.peak_actual {
        return Err(format!(
            "replayed peak {} differs from recorded {}",
            live.peak(),
            trace.peak_actual
        ));
    }

    Ok(())
}

/// The malleable half of check (1): per task, the allotment segments tile
/// `[start, finish]` in epoch order and conserve the sequential work under
/// the speedup model (`Σ len / t(1, q) = t_seq` — both models are linear
/// in `t`), and the record's `procs` is their peak. Pushes one [`Resize`]
/// per allotment change and returns every task's (launch, final)
/// allotment.
fn check_segments(
    tree: &TaskTree,
    trace: &Trace,
    resizes: &mut Vec<Resize>,
) -> Result<Vec<(u32, u32)>, String> {
    for s in &trace.segments {
        if s.node.index() >= tree.len() {
            return Err(format!("segment for unknown task {:?}", s.node));
        }
        if s.procs == 0 {
            return Err(format!("zero-processor segment for {:?}", s.node));
        }
        if s.end < s.start - 1e-12 {
            return Err(format!("segment of {:?} ends before it starts", s.node));
        }
    }
    // Stable: a task's segments stay in execution order.
    let mut by_task: Vec<&AllotmentSegment> = trace.segments.iter().collect();
    by_task.sort_by_key(|s| s.node);
    let mut ends = vec![(0u32, 0u32); tree.len()];
    for list in by_task.chunk_by(|a, b| a.node == b.node) {
        let (i, first, last) = (list[0].node, list[0], list[list.len() - 1]);
        let r = trace.record(i);
        let eps = 1e-9 * r.finish.abs().max(1.0);
        if (first.start - r.start).abs() > eps || first.epoch != r.start_epoch {
            return Err(format!("task {i:?} first segment misses its start"));
        }
        if (last.end - r.finish).abs() > eps || last.epoch >= r.finish_epoch {
            return Err(format!("task {i:?} last segment misses its finish"));
        }
        let mut consumed = 0.0;
        for (k, s) in list.iter().enumerate() {
            if let Some(next) = list.get(k + 1) {
                if (s.end - next.start).abs() > eps || next.epoch < s.epoch {
                    return Err(format!("task {i:?} has a gap between segments"));
                }
                resizes.push(Resize {
                    epoch: next.epoch,
                    delta: next.procs as i64 - s.procs as i64,
                    time: next.start,
                });
            }
            consumed += (s.end - s.start) / trace.speedup.time(1.0, s.procs as usize);
        }
        let t = tree.time(i);
        if (consumed - t).abs() > 1e-6 * t.max(1.0) {
            return Err(format!(
                "task {i:?} work not conserved: did {consumed}, needs {t}"
            ));
        }
        if list.iter().map(|s| s.procs).max() != Some(r.procs) {
            return Err(format!("task {i:?} record procs is not the segment peak"));
        }
        ends[i.index()] = (first.procs, last.procs);
    }
    match ends.iter().position(|&(q, _)| q == 0) {
        Some(i) => Err(format!("task NodeId({i}) has no allotment segment")),
        None => Ok(ends),
    }
}

/// The assignment value meaning "this node stays in the residual tree"
/// (mirrors `memtree_tree::partition::RESIDUAL`; redeclared here so the
/// validator depends only on the raw plan, not the partition types).
pub const RESIDUAL_SHARD: u32 = u32::MAX;

/// Shard-aware validation: checks that `assignment` (one entry per tree
/// node: a shard index below `shard_count`, or [`RESIDUAL_SHARD`]) is an
/// executable shard plan for `tree`.
///
/// Verifies:
/// 1. one assignment per node, every shard index in range;
/// 2. the tree root is residual (the merge tree always finishes the run);
/// 3. shards are **downward closed**: a shard node's children are in the
///    same shard — so a shard is executable without cross-shard waits;
/// 4. each shard is a single connected subtree: exactly one shard root,
///    and that root's parent is residual (the merge frontier);
/// 5. no shard is empty.
///
/// Sharded platforms run this before launching workers: a malformed plan
/// is a partitioner bug that must abort the run, not deadlock it.
pub fn validate_shard_plan(
    tree: &TaskTree,
    assignment: &[u32],
    shard_count: usize,
) -> Result<(), String> {
    if assignment.len() != tree.len() {
        return Err(format!(
            "{} assignments for {} nodes",
            assignment.len(),
            tree.len()
        ));
    }
    if assignment[tree.root().index()] != RESIDUAL_SHARD {
        return Err("the tree root must stay in the residual tree".into());
    }
    let mut shard_root: Vec<Option<NodeId>> = vec![None; shard_count];
    let mut shard_nodes = vec![0usize; shard_count];
    for i in tree.nodes() {
        let s = assignment[i.index()];
        if s == RESIDUAL_SHARD {
            continue;
        }
        if (s as usize) >= shard_count {
            return Err(format!("node {i:?} assigned to ghost shard {s}"));
        }
        shard_nodes[s as usize] += 1;
        let p = tree.parent(i).expect("non-residual nodes are not the root");
        let ps = assignment[p.index()];
        if ps == s {
            continue;
        }
        // A shard node whose parent is elsewhere is a shard root; its
        // parent must sit on the residual merge frontier, and each shard
        // has exactly one such root (connectivity).
        if ps != RESIDUAL_SHARD {
            return Err(format!(
                "shard {s} root {i:?} hangs under shard {ps}, not the residual tree"
            ));
        }
        if let Some(other) = shard_root[s as usize] {
            return Err(format!(
                "shard {s} is disconnected: roots {other:?} and {i:?}"
            ));
        }
        shard_root[s as usize] = Some(i);
    }
    for (s, (&root, &nodes)) in shard_root.iter().zip(&shard_nodes).enumerate() {
        if nodes == 0 {
            return Err(format!("shard {s} is empty"));
        }
        if root.is_none() {
            return Err(format!("shard {s} has no root under the residual tree"));
        }
    }
    // Downward closure, checked from the child side above, leaves one
    // gap: a residual node below a shard node. Sweep parents once more.
    for i in tree.nodes() {
        let s = assignment[i.index()];
        for &c in tree.children(i) {
            let cs = assignment[c.index()];
            if s != RESIDUAL_SHARD && cs != s {
                return Err(format!(
                    "shard {s} node {i:?} has child {c:?} outside the shard"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RescheduleAction;
    use crate::engine::{simulate, simulate_with, SimConfig};
    use crate::testutil::{fork, Greedy, InOrder, Script};
    use memtree_tree::{TaskSpec, TaskTree};

    /// Runs `tree` in postorder, one task at a time on `procs` processors
    /// of `p` (all idle ones for `None`), booking 1000.
    fn in_postorder(tree: &TaskTree, p: usize, procs: Option<usize>) -> Trace {
        let order = memtree_tree::traverse::postorder(tree);
        simulate(
            tree,
            SimConfig::new(p, 1000),
            InOrder::new(order, procs, 1000),
        )
        .unwrap()
    }

    #[test]
    fn serial_trace_validates() {
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(1, 2, 2.0),
                TaskSpec::new(2, 3, 3.0),
                TaskSpec::new(3, 4, 4.0),
            ],
        )
        .unwrap();
        let trace = in_postorder(&t, 1, Some(1));
        validate_trace(&t, &trace).unwrap();
        assert_eq!(trace.makespan, 10.0);
    }

    #[test]
    fn tampered_trace_rejected() {
        let t = TaskTree::from_parents(
            &[None, Some(0)],
            &[TaskSpec::new(0, 1, 1.0), TaskSpec::new(0, 1, 1.0)],
        )
        .unwrap();
        let mut trace = in_postorder(&t, 1, Some(1));
        validate_trace(&t, &trace).unwrap();

        // Break precedence: make the root start before the leaf ends.
        trace.records[0].start = 0.0;
        trace.records[0].finish = 1.0;
        assert!(validate_trace(&t, &trace).is_err());
    }

    /// Leaf 1 (f = 60) under root 0 (f = 50): the replayed peak is
    /// 60 + 50 = 110, while the root runs.
    fn heavy_pair() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0)],
            &[TaskSpec::new(0, 50, 1.0), TaskSpec::new(0, 60, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn memory_bound_violation_rejected() {
        let t = heavy_pair();
        // Claim a tighter bound than the replayed peak — on a sequential
        // trace and on a moldable one (every task a gang of 3).
        for procs in [Some(1), None] {
            let mut trace = in_postorder(&t, 3, procs);
            validate_trace(&t, &trace).unwrap();
            assert_eq!(trace.peak_actual, 110);
            trace.memory = 100;
            assert!(validate_trace(&t, &trace)
                .unwrap_err()
                .contains("exceeds bound"));
        }
    }

    /// A four-task chain (t = 4 each) run one gang of 2 at a time on
    /// p = 4, with the leaf grown to 4 in its launch tick and the next
    /// task shrunk to 1 in its own: a valid malleable trace with zero-width
    /// and proper segments.
    fn malleable_chain() -> (TaskTree, Trace) {
        let t = memtree_gen::shapes::chain(4, TaskSpec::new(1, 3, 4.0));
        let order = memtree_tree::traverse::postorder(&t);
        let (leaf, next) = (order[0], order[1]);
        let mut script = Script {
            plan: vec![
                (
                    1,
                    RescheduleAction::Grow {
                        node: leaf,
                        extra: 2,
                    },
                ),
                (
                    2,
                    RescheduleAction::Shrink {
                        node: next,
                        release: 1,
                    },
                ),
            ],
            ..Script::default()
        };
        let sched = InOrder::new(order, Some(2), 1000);
        let trace = simulate_with(&t, SimConfig::new(4, 1000), sched, Some(&mut script)).unwrap();
        validate_trace(&t, &trace).unwrap();
        assert_eq!(trace.segments.len(), 6, "two resized tasks, two plain ones");
        assert_eq!(
            (trace.peak_busy, trace.makespan),
            (4, 1.0 + 4.0 + 2.0 + 2.0)
        );
        (t, trace)
    }

    #[test]
    fn malleable_gap_between_segments_rejected() {
        let (t, mut trace) = malleable_chain();
        // The shrunk task's second segment opens half a unit late.
        let late = trace.segments.iter_mut().find(|s| s.procs == 1).unwrap();
        late.start += 0.5;
        let err = validate_trace(&t, &trace).unwrap_err();
        assert!(err.contains("gap between segments"), "{err}");
    }

    #[test]
    fn malleable_occupancy_over_p_rejected() {
        let (t, trace) = malleable_chain();
        // The grown leaf held 4 processors: one too many for p = 3 …
        let mut tight = trace.clone();
        tight.processors = 3;
        let err = validate_trace(&t, &tight).unwrap_err();
        assert!(err.contains("4 processors in use with 3"), "{err}");
        // … and more than a ledger that claims a peak of 3 saw.
        let mut short = trace;
        short.peak_busy = 3;
        let err = validate_trace(&t, &short).unwrap_err();
        assert!(err.contains("occupancy peak 4"), "{err}");
    }

    #[test]
    fn makespan_that_is_not_the_last_finish_rejected() {
        let (t, mut trace) = malleable_chain();
        trace.makespan -= 1.0;
        let err = validate_trace(&t, &trace).unwrap_err();
        assert!(err.contains("makespan"), "{err}");
        let t = heavy_pair();
        let mut trace = in_postorder(&t, 3, None);
        trace.makespan += 1.0;
        let err = validate_trace(&t, &trace).unwrap_err();
        assert!(err.contains("makespan"), "{err}");
    }

    #[test]
    fn epoch_beyond_the_trace_rejected_before_any_bucket() {
        let t = heavy_pair();
        let trace = in_postorder(&t, 1, Some(1));
        validate_trace(&t, &trace).unwrap();
        // An epoch no `Vec` could bucket: the bound check must refuse it
        // before the counting sort sizes anything by it.
        let mut far = trace.clone();
        far.records[0].finish_epoch = u64::MAX;
        let err = validate_trace(&t, &far).unwrap_err();
        assert!(err.contains("finishes in epoch"), "{err}");
        // One past the last event is already out of bounds.
        let mut late = trace.clone();
        late.records[0].finish_epoch = trace.events as u64 + 1;
        let err = validate_trace(&t, &late).unwrap_err();
        assert!(err.contains("-event trace"), "{err}");
        // The bound itself is checked: no event without a completion.
        let mut padded = trace;
        padded.events = usize::MAX;
        let err = validate_trace(&t, &padded).unwrap_err();
        assert!(err.contains("events for 2 tasks"), "{err}");
    }

    #[test]
    fn epoch_order_against_time_order_rejected() {
        // Leaves 1 (t = 2) and 2 (t = 3) run side by side and finish in
        // epochs 2 and 3; the root starts in epoch 3 at t = 3.
        let t = fork();
        let mut trace = simulate(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000)).unwrap();
        validate_trace(&t, &trace).unwrap();
        let (a, b) = (trace.records[1], trace.records[2]);
        assert!(a.finish < b.finish && a.finish_epoch < b.finish_epoch);
        // Swap the finish epochs: every record stays self-consistent, but
        // replayed in epoch order t = 3 comes before t = 2.
        trace.records[1].finish_epoch = b.finish_epoch;
        trace.records[2].finish_epoch = a.finish_epoch;
        let err = validate_trace(&t, &trace).unwrap_err();
        assert!(err.contains("runs backwards"), "{err}");
    }

    /// Root 0; children 1, 2; 1 has children 3, 4.
    fn plan_tree() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1), Some(1)],
            &[TaskSpec::new(1, 1, 1.0); 5],
        )
        .unwrap()
    }

    #[test]
    fn valid_shard_plans_pass() {
        let t = plan_tree();
        const R: u32 = RESIDUAL_SHARD;
        // Subtree of 1 is shard 0, node 2 is shard 1.
        validate_shard_plan(&t, &[R, 0, 1, 0, 0], 2).unwrap();
        // Everything residual is a valid zero-shard plan.
        validate_shard_plan(&t, &[R; 5], 0).unwrap();
    }

    #[test]
    fn malformed_shard_plans_rejected() {
        let t = plan_tree();
        const R: u32 = RESIDUAL_SHARD;
        // Root inside a shard.
        assert!(validate_shard_plan(&t, &[0, 0, 0, 0, 0], 1)
            .unwrap_err()
            .contains("root"));
        // Not downward closed: node 1 sharded, child 3 residual.
        assert!(validate_shard_plan(&t, &[R, 0, R, R, 0], 1)
            .unwrap_err()
            .contains("outside the shard"));
        // Disconnected shard: nodes 3 and 4 share a shard but their
        // parent 1 is residual.
        assert!(validate_shard_plan(&t, &[R, R, R, 0, 0], 1)
            .unwrap_err()
            .contains("disconnected"));
        // Empty shard.
        assert!(validate_shard_plan(&t, &[R, 0, R, 0, 0], 2)
            .unwrap_err()
            .contains("empty"));
        // Ghost shard index.
        assert!(validate_shard_plan(&t, &[R, 7, R, 7, 7], 1)
            .unwrap_err()
            .contains("ghost"));
        // Wrong length.
        assert!(validate_shard_plan(&t, &[R; 3], 0)
            .unwrap_err()
            .contains("assignments"));
    }
}
