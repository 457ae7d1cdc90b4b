//! Randomized-but-legal schedulers and the fixed tree of the shard fault
//! suites: whatever legal pattern comes out, the engine, the executor
//! and the one trace oracle must accept it.

use crate::SplitMix;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskSpec, TaskTree};

/// Books `bound` and starts a pseudo-random legal subset of the available
/// tasks at every event, one processor each: sometimes nothing at all
/// (as long as something is running), sometimes everything.
pub struct Chaos<'a> {
    tree: &'a TaskTree,
    bound: u64,
    draw: SplitMix,
    ready: Vec<NodeId>,
    remaining_children: Vec<usize>,
    running: usize,
}

impl<'a> Chaos<'a> {
    /// The policy over `tree`, booking `bound`, its choices drawn from
    /// `seed`.
    pub fn new(tree: &'a TaskTree, bound: u64, seed: u64) -> Self {
        Chaos {
            tree,
            bound,
            draw: SplitMix(seed),
            ready: tree.leaves().collect(),
            remaining_children: tree.nodes().map(|i| tree.degree(i)).collect(),
            running: 0,
        }
    }
}

impl Scheduler for Chaos<'_> {
    fn name(&self) -> &str {
        "chaos"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        self.running -= finished.len();
        for &j in finished {
            if let Some(p) = self.tree.parent(j) {
                self.remaining_children[p.index()] -= 1;
                if self.remaining_children[p.index()] == 0 {
                    self.ready.push(p);
                }
            }
        }
        if !self.ready.is_empty() {
            let k = self.draw.below(self.ready.len());
            self.ready.rotate_left(k);
        }
        let mut budget = idle;
        while budget > 0 && !self.ready.is_empty() {
            // Stop early at random, but never leave the machine idle with
            // nothing running: that would be a stall, not a bug.
            if self.running + to_start.len() > 0 && self.draw.below(3) == 0 {
                break;
            }
            to_start.push((self.ready.pop().expect("nonempty"), 1));
            budget -= 1;
        }
        self.running += to_start.len();
    }

    fn booked(&self) -> u64 {
        self.bound
    }
}

/// [`Chaos`] lifted to gangs: the inner policy picks which tasks start,
/// its draws untouched, and a second draw spreads the leftover idle
/// processors as allotments in `1..=cap`. With `cap == 1` nothing more is
/// drawn, so the decisions are bit for bit [`Chaos`]'s.
pub struct MoldChaos<'a> {
    inner: Chaos<'a>,
    cap: usize,
    draw: SplitMix,
}

impl<'a> MoldChaos<'a> {
    /// The policy over `tree`, booking `bound`, gangs of up to `cap`.
    pub fn new(tree: &'a TaskTree, bound: u64, seed: u64, cap: usize) -> Self {
        MoldChaos {
            inner: Chaos::new(tree, bound, seed),
            cap: cap.max(1),
            draw: SplitMix(seed.rotate_left(17)),
        }
    }
}

impl Scheduler for MoldChaos<'_> {
    fn name(&self) -> &str {
        "mold-chaos"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        self.inner.on_event(finished, idle, to_start);
        let mut leftover = idle - to_start.len();
        if self.cap > 1 {
            for (_, q) in to_start.iter_mut() {
                let extra = self.draw.below((self.cap - 1).min(leftover) + 1);
                *q += extra;
                leftover -= extra;
            }
        }
    }

    fn booked(&self) -> u64 {
        self.inner.booked()
    }
}

/// `Σ (n_i + f_i)` over `tree`, at least 1: a bound under which any
/// schedule's actual memory fits.
pub fn footprint(tree: &TaskTree) -> u64 {
    tree.nodes()
        .map(|i| tree.exec(i) + tree.output(i))
        .sum::<u64>()
        .max(1)
}

/// The shard fault suites' tree: root 0; a bushy 21-node subtree (node 1
/// with two chains of 10) plus two 13-node chains. Partitioned 4 ways it
/// yields exactly three shards, one of 21 nodes and two of 12, and a
/// 3-node residual, so a fault at local index 15 exists in exactly one
/// shard worker.
pub fn shard_chaos_tree() -> TaskTree {
    let mut parents: Vec<Option<usize>> = vec![None, Some(0)];
    for (root, chains, len) in [(1, 2, 10), (0, 2, 13)] {
        for _ in 0..chains {
            let mut prev = root;
            for _ in 0..len {
                parents.push(Some(prev));
                prev = parents.len() - 1;
            }
        }
    }
    let specs = vec![TaskSpec::new(1, 3, 1.0); parents.len()];
    TaskTree::from_parents(&parents, &specs).expect("a valid tree")
}
