//! Malleable allotments: the r2t2-style proportional feedback policy
//! over the gang driver's [`Rescheduler`] hook (DESIGN.md §6.10).
//!
//! `AllotmentCaps` fixes every allotment at launch from *estimated* work;
//! when the estimates are wrong, processors sit idle next to a gang with
//! a deep backlog. [`ProportionalRescheduler`] closes the loop at run
//! time: once per driver event it reads the [`LiveStats`] snapshot and
//! redistributes processors toward the running gangs with the largest
//! remaining work, in three stages borrowed from the r2t2/pbrt dynamic
//! scheduler lineage:
//!
//! 1. **root-first warm-up** — until the first completion, every idle
//!    processor is pushed into the single largest-backlog gang (there is
//!    no history yet to apportion by);
//! 2. **proportional** — targets are `p · backlog_i / Σ backlog`, floored
//!    at one processor per gang, with a hysteresis threshold so tiny
//!    imbalances don't thrash members across gangs;
//! 3. **static** — after two consecutive quiet ticks the policy stops
//!    issuing actions; any change in the running-gang set re-arms it.
//!
//! Backlog is `weight_i · remaining_fraction_i`: the task's sequential
//! time scaled by the unfinished payload share the backend reports. The
//! policy only ever moves processors — memory booking is untouched, so
//! every booking invariant holds through grow/shrink by construction.

use memtree_sim::{LiveStats, RescheduleAction, Rescheduler};
use memtree_tree::TaskTree;

/// Configuration of [`ProportionalRescheduler`] — a plain `Copy` value so
/// platforms stay `Copy` while carrying one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReschedulePolicy {
    /// Act every `interval` driver events (≥ 1; ticks in between observe
    /// but do not move processors).
    pub interval: u64,
    /// Hysteresis: a gang's allotment only changes by at least this many
    /// processors at once (≥ 1). Larger values trade reaction speed for
    /// fewer member migrations.
    pub min_move: usize,
}

impl Default for ReschedulePolicy {
    fn default() -> Self {
        ReschedulePolicy {
            interval: 1,
            min_move: 1,
        }
    }
}

impl ReschedulePolicy {
    /// The default policy: act every event, move any imbalance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the acting interval (in driver events).
    ///
    /// # Panics
    /// When `interval` is 0.
    pub fn with_interval(mut self, interval: u64) -> Self {
        assert!(interval >= 1, "the policy must act at least sometimes");
        self.interval = interval;
        self
    }

    /// Overrides the hysteresis threshold.
    ///
    /// # Panics
    /// When `min_move` is 0.
    pub fn with_min_move(mut self, min_move: usize) -> Self {
        assert!(min_move >= 1, "a move of zero processors is not a move");
        self.min_move = min_move;
        self
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    RootFirst,
    Proportional,
    Static,
}

/// The staged proportional feedback policy; see the module docs.
pub struct ProportionalRescheduler {
    policy: ReschedulePolicy,
    /// Per-task sequential-work weights (the backlog numerator). Indexed
    /// by the ids [`LiveStats`] names tasks by: the caller's, also when
    /// the run executes a renumbered tree.
    weights: Vec<f64>,
    stage: Stage,
    /// Consecutive acting ticks that moved nothing.
    quiet_ticks: u32,
    /// Node ids of the gangs seen running last tick, for change detection.
    prev_running: Vec<memtree_tree::NodeId>,
}

impl ProportionalRescheduler {
    /// A policy weighing backlog by the sequential times of `tree` — the
    /// tree the run executes, in whatever numbering: weights are filed
    /// under [`TaskTree::label`], the ids the driver publishes.
    pub fn new(tree: &TaskTree, policy: ReschedulePolicy) -> Self {
        let mut weights = vec![0.0; tree.len()];
        for i in tree.nodes() {
            weights[tree.label(i).index()] = tree.time(i).max(0.0);
        }
        Self::with_weights(weights, policy)
    }

    /// A policy with explicit per-task weights (by caller id) — how a
    /// caller whose work estimates differ from the tree's recorded times
    /// injects them.
    pub fn with_weights(weights: Vec<f64>, policy: ReschedulePolicy) -> Self {
        ProportionalRescheduler {
            policy,
            weights,
            stage: Stage::RootFirst,
            quiet_ticks: 0,
            prev_running: Vec::new(),
        }
    }

    /// The current stage, for tests and diagnostics.
    pub fn stage_name(&self) -> &'static str {
        match self.stage {
            Stage::RootFirst => "root-first",
            Stage::Proportional => "proportional",
            Stage::Static => "static",
        }
    }

    fn backlog(&self, g: &memtree_sim::GangSnapshot) -> f64 {
        let w = self
            .weights
            .get(g.node.index())
            .copied()
            .unwrap_or(1.0)
            .max(0.0);
        w * g.remaining_fraction()
    }
}

impl Rescheduler for ProportionalRescheduler {
    fn tick(&mut self, stats: &LiveStats, actions: &mut Vec<RescheduleAction>) {
        if stats.gangs.is_empty() {
            return;
        }
        // Re-arm a static policy when the set of running gangs changes —
        // the converged distribution no longer describes the work.
        let changed = stats.gangs.len() != self.prev_running.len()
            || stats
                .gangs
                .iter()
                .zip(&self.prev_running)
                .any(|(g, &prev)| g.node != prev);
        if changed {
            self.prev_running.clear();
            self.prev_running.extend(stats.gangs.iter().map(|g| g.node));
            self.quiet_ticks = 0;
            if self.stage == Stage::Static {
                self.stage = Stage::Proportional;
            }
        }
        if self.stage == Stage::Static {
            return;
        }
        if self.policy.interval > 1 && !stats.event.is_multiple_of(self.policy.interval) {
            return;
        }

        if self.stage == Stage::RootFirst {
            if stats.completed == 0 {
                // No history to apportion by yet: concentrate the idle
                // pool on the single deepest backlog (ties to the lowest
                // node id — deterministic).
                if stats.idle > 0 {
                    let g = stats
                        .gangs
                        .iter()
                        .max_by(|a, b| {
                            self.backlog(a)
                                .partial_cmp(&self.backlog(b))
                                .expect("finite backlog")
                                .then(b.node.cmp(&a.node))
                        })
                        .expect("non-empty gangs");
                    actions.push(RescheduleAction::Grow {
                        node: g.node,
                        extra: stats.idle,
                    });
                }
                return;
            }
            self.stage = Stage::Proportional;
        }

        // Proportional targets: p · backlog / Σ backlog, floored at 1.
        let g = stats.gangs.len();
        let mut backlog: Vec<f64> = stats.gangs.iter().map(|s| self.backlog(s)).collect();
        let mut total: f64 = backlog.iter().sum();
        if total <= 0.0 {
            // All-but-done everywhere: fall back to an even split.
            backlog.iter_mut().for_each(|b| *b = 1.0);
            total = g as f64;
        }
        // Largest backlog first (ties to the lowest node id), so floors
        // and leftovers favour the gangs that gate the makespan.
        let mut order: Vec<usize> = (0..g).collect();
        order.sort_by(|&a, &b| {
            backlog[b]
                .partial_cmp(&backlog[a])
                .expect("finite backlog")
                .then(stats.gangs[a].node.cmp(&stats.gangs[b].node))
        });
        let mut target = vec![0usize; g];
        let mut budget = stats.workers;
        for (k, &gi) in order.iter().enumerate() {
            let behind = order.len() - k - 1; // gangs still owed their floor
            let share = (stats.workers as f64 * backlog[gi] / total).floor() as usize;
            let alloc = share.max(1).min(budget - behind);
            target[gi] = alloc;
            budget -= alloc;
        }
        if budget > 0 {
            target[order[0]] += budget;
        }

        // Shrinks first (they free processors), then grows largest-backlog
        // first, both gated by the hysteresis threshold. Grows never
        // exceed what is actually free: the idle pool plus what the
        // shrinks this tick released.
        let mut moved = false;
        let mut available = stats.idle;
        for (gi, s) in stats.gangs.iter().enumerate() {
            let cur = s.allotment as usize;
            if target[gi] < cur {
                let release = cur - target[gi];
                if release >= self.policy.min_move {
                    actions.push(RescheduleAction::Shrink {
                        node: s.node,
                        release,
                    });
                    available += release;
                    moved = true;
                }
            }
        }
        for &gi in &order {
            let s = &stats.gangs[gi];
            let cur = s.allotment as usize;
            if target[gi] > cur {
                let extra = (target[gi] - cur).min(available);
                if extra >= self.policy.min_move {
                    actions.push(RescheduleAction::Grow {
                        node: s.node,
                        extra,
                    });
                    available -= extra;
                    moved = true;
                }
            }
        }

        if moved {
            self.quiet_ticks = 0;
        } else {
            self.quiet_ticks += 1;
            if self.quiet_ticks >= 2 {
                self.stage = Stage::Static;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sim::{GangSnapshot, LiveStats};
    use memtree_tree::NodeId;

    fn stats(event: u64, workers: usize, completed: usize, gangs: Vec<GangSnapshot>) -> LiveStats {
        let busy: usize = gangs.iter().map(|g| g.allotment as usize).sum();
        LiveStats {
            event,
            workers,
            busy,
            idle: workers - busy,
            completed,
            total: 100,
            booked: 0,
            actual: 0,
            gangs,
        }
    }

    fn gang(node: u32, allotment: u32, done: u32, shards: u32) -> GangSnapshot {
        GangSnapshot {
            node: NodeId(node),
            allotment,
            shards,
            shards_done: done,
        }
    }

    #[test]
    fn root_first_concentrates_the_idle_pool() {
        let mut r = ProportionalRescheduler::with_weights(
            vec![1.0, 10.0, 1.0],
            ReschedulePolicy::default(),
        );
        let mut actions = Vec::new();
        r.tick(
            &stats(1, 8, 0, vec![gang(1, 1, 0, 8), gang(2, 1, 0, 8)]),
            &mut actions,
        );
        assert_eq!(
            actions,
            vec![RescheduleAction::Grow {
                node: NodeId(1),
                extra: 6
            }],
            "all idle processors go to the heaviest gang before any completion"
        );
        assert_eq!(r.stage_name(), "root-first");
    }

    #[test]
    fn proportional_redistributes_toward_backlog() {
        let mut r =
            ProportionalRescheduler::with_weights(vec![0.0, 3.0, 1.0], ReschedulePolicy::default());
        let mut actions = Vec::new();
        // First completion flips the stage; gang 1 has 3× the backlog of
        // gang 2 but the allotments are even.
        r.tick(
            &stats(3, 8, 1, vec![gang(1, 4, 0, 8), gang(2, 4, 0, 8)]),
            &mut actions,
        );
        assert_eq!(r.stage_name(), "proportional");
        assert_eq!(
            actions,
            vec![
                RescheduleAction::Shrink {
                    node: NodeId(2),
                    release: 2
                },
                RescheduleAction::Grow {
                    node: NodeId(1),
                    extra: 2
                },
            ]
        );
    }

    #[test]
    fn progress_discounts_backlog() {
        // Equal weights, but gang 1 is 75% done: gang 2's effective
        // backlog is 4× larger and draws the processors.
        let mut r =
            ProportionalRescheduler::with_weights(vec![0.0, 4.0, 4.0], ReschedulePolicy::default());
        let mut actions = Vec::new();
        r.tick(
            &stats(3, 10, 1, vec![gang(1, 5, 6, 8), gang(2, 5, 0, 8)]),
            &mut actions,
        );
        assert!(
            actions.contains(&RescheduleAction::Grow {
                node: NodeId(2),
                extra: 3
            }),
            "got {actions:?}"
        );
    }

    #[test]
    fn hysteresis_blocks_tiny_moves() {
        let mut r = ProportionalRescheduler::with_weights(
            vec![0.0, 5.0, 4.0],
            ReschedulePolicy::default().with_min_move(2),
        );
        let mut actions = Vec::new();
        // Targets differ from current by one processor — under min_move.
        r.tick(
            &stats(3, 8, 1, vec![gang(1, 4, 0, 8), gang(2, 4, 0, 8)]),
            &mut actions,
        );
        assert!(actions.is_empty(), "got {actions:?}");
    }

    #[test]
    fn converges_to_static_and_rearms_on_gang_change() {
        let mut r =
            ProportionalRescheduler::with_weights(vec![0.0, 1.0, 1.0], ReschedulePolicy::default());
        let balanced = vec![gang(1, 4, 0, 8), gang(2, 4, 0, 8)];
        let mut actions = Vec::new();
        for e in 1..=3 {
            actions.clear();
            r.tick(&stats(e, 8, 1, balanced.clone()), &mut actions);
            assert!(actions.is_empty());
        }
        assert_eq!(r.stage_name(), "static");
        // A new gang set re-arms the policy.
        actions.clear();
        r.tick(
            &stats(4, 8, 2, vec![gang(1, 7, 0, 8), gang(3, 1, 0, 8)]),
            &mut actions,
        );
        assert_eq!(r.stage_name(), "proportional");
    }

    #[test]
    fn sim_malleable_beats_static_caps_on_a_skewed_chain() {
        // The tentpole's win case end to end on the virtual clock: a
        // chain whose caps came from estimates that saw every task as
        // equal and tiny (cap 1 each), so the static moldable run is
        // serial. The rescheduler observes the single running gang and
        // grows it to the whole machine.
        use crate::{AllotmentCaps, MoldableMemBooking};
        use memtree_order::mem_postorder;
        use memtree_sim::{simulate, simulate_with, validate::validate_trace, SimConfig};
        use memtree_tree::TaskSpec;

        let p = 4;
        let tree = memtree_gen::shapes::chain(20, TaskSpec::new(1, 3, 4.0));
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let caps = AllotmentCaps::uniform(&tree, 1); // skewed estimate: "tiny tasks"

        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps.clone()).unwrap();
        let fixed = simulate(&tree, SimConfig::new(p, m), sched).unwrap();

        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let mut resched = ProportionalRescheduler::new(&tree, ReschedulePolicy::default());
        let malleable =
            simulate_with(&tree, SimConfig::new(p, m), sched, Some(&mut resched)).unwrap();

        // The one oracle replays the driver's processor ledger exactly
        // from the allotment segments (`peak_busy` included).
        validate_trace(&tree, &malleable).unwrap();
        assert!(
            !malleable.segments.is_empty(),
            "gangs were actually resized"
        );
        assert!(
            malleable.makespan <= 0.9 * fixed.makespan,
            "malleable {} vs static {}",
            malleable.makespan,
            fixed.makespan
        );
        assert_eq!(malleable.peak_busy, p, "the gang grew to the whole machine");
        assert!(malleable.peak_booked <= m);
        assert!(malleable.peak_actual <= malleable.peak_booked);
    }
}
