//! Execution traces produced by the engine.

use crate::driver::DriveStats;
use crate::moldable::SpeedupModel;
use memtree_tree::NodeId;

/// Start/finish record of one task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskRecord {
    /// Simulated start time.
    pub start: f64,
    /// Simulated completion time.
    pub finish: f64,
    /// The task's lane: the processor that ran it, or — for a gang — the
    /// one named member of the `procs` processors it held. No two tasks
    /// overlap on a lane.
    pub processor: u32,
    /// Processors allotted (1 for a sequential task). On a malleable run
    /// (a [`crate::Rescheduler`] resized gangs mid-flight) this is the
    /// task's **peak** allotment; the full history lives in
    /// [`Trace::segments`].
    pub procs: u32,
    /// Engine event index at which the task started. Zero-duration tasks
    /// start and finish at the same simulated time; epochs disambiguate
    /// the causal order for trace validation.
    pub start_epoch: u64,
    /// Engine event index at which the completion took effect.
    pub finish_epoch: u64,
}

/// One constant-allotment stretch of a task's execution on a malleable
/// run. A task that was never resized has exactly one segment spanning
/// start to finish.
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
    /// Driver event index at which the segment opened: the task's
    /// [`TaskRecord::start_epoch`] for its first segment, the event whose
    /// rescheduler tick resized it for the others. Like the record epochs,
    /// it orders what happens at one simulated instant.
    pub epoch: u64,
}

/// The full outcome of a simulation.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Scheduler name.
    pub scheduler: String,
    /// Number of processors simulated.
    pub processors: usize,
    /// Memory bound.
    pub memory: u64,
    /// The speedup model task durations were scaled by.
    pub speedup: SpeedupModel,
    /// Per-task records, indexed by node id.
    pub records: Vec<TaskRecord>,
    /// Total completion time.
    pub makespan: f64,
    /// Peak of the actual resident memory.
    pub peak_actual: u64,
    /// Peak of the scheduler's booked memory.
    pub peak_booked: u64,
    /// Peak sum of live allotments, from the driver's processor ledger.
    pub peak_busy: usize,
    /// Estimated wall-clock seconds spent inside scheduler callbacks — the
    /// paper's "scheduling time" ([`crate::DriveStats::scheduling_seconds`]).
    pub scheduling_seconds: f64,
    /// Number of events processed (task completions + the initial event).
    pub events: usize,
    /// Per-task allotment history, in execution order. Empty unless a
    /// [`crate::Rescheduler`] was attached (no resizes possible); on a
    /// malleable run every task contributes one segment per
    /// constant-allotment stretch.
    pub segments: Vec<AllotmentSegment>,
}

impl Trace {
    /// The driver's aggregates of this run, as
    /// [`crate::simulate_summary`] returns them beside the makespan.
    pub fn stats(&self) -> DriveStats {
        DriveStats {
            events: self.events,
            scheduling_seconds: self.scheduling_seconds,
            peak_booked: self.peak_booked,
            peak_actual: self.peak_actual,
            completed: self.records.len(),
            peak_busy: self.peak_busy,
        }
    }

    /// The record of node `i`.
    #[inline]
    pub fn record(&self, i: NodeId) -> TaskRecord {
        self.records[i.index()]
    }

    /// Fraction of the memory bound actually used at peak
    /// (`peak_actual / M`) — the quantity of Figures 4 and 12.
    pub fn memory_fraction_used(&self) -> f64 {
        if self.memory == 0 {
            return 0.0;
        }
        self.peak_actual as f64 / self.memory as f64
    }

    /// Maximum number of tasks running simultaneously, recomputed from the
    /// records by a sweep.
    pub fn max_concurrency(&self) -> usize {
        let mut points: Vec<(f64, i32)> = Vec::with_capacity(self.records.len() * 2);
        for r in &self.records {
            points.push((r.start, 1));
            points.push((r.finish, -1));
        }
        // Process finishes before starts at equal times: a processor freed
        // at t can be reused at t.
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut cur = 0i32;
        let mut max = 0i32;
        for (_, d) in points {
            cur += d;
            max = max.max(cur);
        }
        max as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: f64, finish: f64, processor: u32) -> TaskRecord {
        TaskRecord {
            start,
            finish,
            processor,
            procs: 1,
            start_epoch: 0,
            finish_epoch: 1,
        }
    }

    fn trace(records: Vec<TaskRecord>) -> Trace {
        Trace {
            scheduler: "test".into(),
            processors: 2,
            memory: 100,
            speedup: SpeedupModel::Linear,
            makespan: records.iter().map(|r| r.finish).fold(0.0, f64::max),
            records,
            peak_actual: 60,
            peak_booked: 80,
            peak_busy: 2,
            scheduling_seconds: 1e-3,
            events: 3,
            segments: Vec::new(),
        }
    }

    #[test]
    fn fractions() {
        let t = trace(vec![rec(0.0, 1.0, 0)]);
        assert_eq!(t.memory_fraction_used(), 0.6);
    }

    #[test]
    fn concurrency_sweep() {
        let t = trace(vec![rec(0.0, 2.0, 0), rec(1.0, 3.0, 1), rec(2.0, 4.0, 0)]);
        assert_eq!(t.max_concurrency(), 2);
    }

    #[test]
    fn back_to_back_tasks_do_not_overlap() {
        let t = trace(vec![rec(0.0, 1.0, 0), rec(1.0, 2.0, 0)]);
        assert_eq!(t.max_concurrency(), 1);
    }
}
