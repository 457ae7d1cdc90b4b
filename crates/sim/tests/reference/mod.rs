//! The trace oracle as it was before its replay became a counting sort
//! over epochs: every step is a `(time, epoch, kind, payload)` tuple and
//! the replay is their comparison sort. `validate_trace` must give the
//! same verdict on every trace whose epochs are in time order — which
//! every trace the engine writes is. (The speedup model's own check is
//! crate-private and the same in both; it is left out here.)

use memtree_sim::{AllotmentSegment, Trace};
use memtree_tree::memory::LiveSet;
use memtree_tree::{NodeId, TaskTree};

type Step = (f64, u64, u8, i64);
const FINISH: u8 = 0;
const START: u8 = 1;
const RESIZE: u8 = 2;

pub fn validate_trace(tree: &TaskTree, trace: &Trace) -> Result<(), String> {
    let n = tree.len();
    if trace.records.len() != n {
        return Err(format!("{} records for {n} tasks", trace.records.len()));
    }
    let malleable = !trace.segments.is_empty();

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
        if (r.processor as usize) >= trace.processors {
            return Err(format!("task {i:?} ran on ghost processor {}", r.processor));
        }
        if malleable {
            continue;
        }
        let expected = r.start + trace.speedup.time(tree.time(i), r.procs as usize);
        if (r.finish - expected).abs() > 1e-9 * expected.abs().max(1.0) {
            return Err(format!("task {i:?} duration mismatch"));
        }
    }

    for i in tree.nodes() {
        let r = trace.record(i);
        for &c in tree.children(i) {
            if trace.record(c).finish > r.start + 1e-9 {
                return Err(format!("child {c:?} finishes after parent {i:?} starts"));
            }
        }
    }

    let mut steps: Vec<Step> = Vec::with_capacity(2 * n + trace.segments.len());
    let resized = match malleable {
        true => Some(check_segments(tree, trace, &mut steps)?),
        false => None,
    };
    let ends = |i: NodeId| match &resized {
        Some(ends) => ends[i.index()],
        None => (trace.record(i).procs, trace.record(i).procs),
    };
    for i in tree.nodes() {
        let r = trace.record(i);
        steps.push((r.finish, r.finish_epoch, FINISH, i.index() as i64));
        steps.push((r.start, r.start_epoch, START, i.index() as i64));
    }
    steps.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });

    let mut live = LiveSet::new(tree);
    let mut lanes: Vec<Option<NodeId>> = vec![None; trace.processors];
    let mut busy = 0i64;
    let mut peak_busy = 0i64;
    for (_, _, kind, payload) in steps {
        if kind == RESIZE {
            busy += payload;
        } else {
            let i = NodeId(payload as u32);
            let p = trace.record(i).processor as usize;
            if kind == START {
                if let Some(other) = lanes[p] {
                    return Err(format!("tasks {other:?} and {i:?} overlap on {p}"));
                }
                lanes[p] = Some(i);
                busy += ends(i).0 as i64;
                live.start(i);
                if live.current() > trace.memory {
                    return Err(format!("resident memory exceeds bound when {i:?} starts"));
                }
            } else {
                if lanes[p] != Some(i) {
                    return Err(format!(
                        "task {i:?} finished on a processor it did not hold"
                    ));
                }
                lanes[p] = None;
                busy -= ends(i).1 as i64;
                live.finish(i);
            }
        }
        if busy > trace.processors as i64 {
            return Err(format!("{busy} processors in use"));
        }
        peak_busy = peak_busy.max(busy);
    }
    if peak_busy != trace.peak_busy as i64 {
        return Err("replayed occupancy peak differs".into());
    }

    let last = trace
        .records
        .iter()
        .map(|r| r.finish)
        .fold(f64::NEG_INFINITY, f64::max);
    if (last - trace.makespan).abs() > 1e-9 * last.abs().max(1.0) {
        return Err("makespan is not the last finish".into());
    }
    if live.peak() != trace.peak_actual {
        return Err("replayed peak differs".into());
    }
    Ok(())
}

fn check_segments(
    tree: &TaskTree,
    trace: &Trace,
    steps: &mut Vec<Step>,
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
                let delta = next.procs as i64 - s.procs as i64;
                steps.push((next.start, next.epoch, RESIZE, delta));
            }
            consumed += (s.end - s.start) / trace.speedup.time(1.0, s.procs as usize);
        }
        let t = tree.time(i);
        if (consumed - t).abs() > 1e-6 * t.max(1.0) {
            return Err(format!("task {i:?} work not conserved"));
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
