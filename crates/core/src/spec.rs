//! **`PolicySpec`** — the single, declarative entry point for constructing
//! any of the paper's scheduling policies (DESIGN.md §6.2).
//!
//! A spec is a plain value: policy kind, activation/execution order kinds,
//! memory bound, optional moldable allotment caps. [`PolicySpec::instantiate`]
//! turns it into a [`PolicyInstance`] against a concrete tree, **owning any
//! tree transformation the policy needs**: the reduction-tree transform
//! (Section 3.2) happens inside `instantiate`, so the red-tree baseline is
//! constructible through the same call as every other policy.
//!
//! A [`PolicyInstance`] is cheap to clone (`Arc`-shared tree and orders)
//! and can mint any number of independent scheduler states via
//! [`PolicyInstance::scheduler`] — one per run, so the same instance can be
//! executed on a simulator, on real threads, or fanned out across a
//! parallel sweep.
//!
//! **One plan per tree and order pair.** The orders, `peak(AO)`, RedTree's
//! transform and the activation-order layout depend only on the tree and
//! the (AO, EO) kinds, so the instances of a pair over one tree share them
//! through a plan in the tree's [registry](TaskTree::plans): `instantiate`
//! takes a live plan, `relaid` (so every platform run) lays the tree out
//! once per plan, and RedTree's `min_feasible` shares a live transform.
//! Plans are held weakly — a plan lives exactly as long as an instance (a
//! clone, a `with_memory` copy, a relaid one) holds it — and builds are
//! deterministic, so a shared plan is what a fresh build would give.

use crate::activation::{check_lengths, foreign_orders};
use crate::error::SchedError;
use crate::moldable::{AllotmentCaps, MoldableMemBooking};
use crate::redtree::to_reduction_tree;
use crate::{Activation, HeuristicKind, MemBooking, MemBookingRef, RedTreeBooking, Sequential};
use memtree_order::po_mem::min_postorder_peak;
use memtree_order::{make_order, make_order_with_peak, Order, OrderKind};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// A declarative description of a scheduling policy: everything needed to
/// construct it against any tree.
#[derive(Clone, Debug)]
pub struct PolicySpec {
    /// Which heuristic to run.
    pub kind: HeuristicKind,
    /// Activation-order strategy (`AO`).
    pub ao: OrderKind,
    /// Execution-priority strategy (`EO`).
    pub eo: OrderKind,
    /// Memory bound `M` (model units).
    pub memory: u64,
    /// Optional moldable-task allotment caps; only meaningful for
    /// [`HeuristicKind::MemBooking`] (the moldable adaptation wraps it).
    pub caps: Option<AllotmentCaps>,
}

impl PolicySpec {
    /// A spec with the paper's default orders (memPO for both).
    pub fn new(kind: HeuristicKind, memory: u64) -> Self {
        PolicySpec {
            kind,
            ao: OrderKind::MemPostorder,
            eo: OrderKind::MemPostorder,
            memory,
            caps: None,
        }
    }

    /// Overrides the order pair.
    pub fn with_orders(mut self, ao: OrderKind, eo: OrderKind) -> Self {
        self.ao = ao;
        self.eo = eo;
        self
    }

    /// Overrides the memory bound (e.g. per sweep cell).
    pub fn with_memory(mut self, memory: u64) -> Self {
        self.memory = memory;
        self
    }

    /// Adds moldable allotment caps (MemBooking only).
    pub fn with_caps(mut self, caps: AllotmentCaps) -> Self {
        self.caps = Some(caps);
        self
    }

    /// A stable content fingerprint of the spec: every field that changes
    /// scheduling behaviour — kind, both order strategies, the memory
    /// bound, allotment caps — feeds a pinned FNV-1a digest
    /// ([`memtree_tree::Fnv64`]). Combined with a tree's
    /// [`content_hash`](memtree_tree::hash::content_hash) it addresses
    /// persisted experiment results: change any policy knob and exactly
    /// the cells run under that spec are invalidated, nothing else.
    pub fn fingerprint(&self) -> u64 {
        let mut h = memtree_tree::Fnv64::with_tag("memtree-policy-spec-v1");
        h.write_str(self.kind.label());
        h.write_str(self.ao.label());
        h.write_str(self.eo.label());
        h.write_u64(self.memory);
        match &self.caps {
            None => h.write_u64(0),
            Some(caps) => {
                h.write_u64(1 + caps.as_slice().len() as u64);
                for &c in caps.as_slice() {
                    h.write_u32(c);
                }
            }
        }
        h.finish()
    }

    /// The smallest memory bound at which this spec constructs against
    /// `tree` — the policy's feasibility threshold: the sequential peak
    /// of the spec's activation order, computed on the tree the policy
    /// actually schedules (the reduction-tree transform for RedTree,
    /// whose statically-booked subtree requirements raise the bar).
    ///
    /// Sharded platforms size per-shard ledger budgets with this, so a
    /// split that succeeds grants every shard a constructible policy.
    ///
    /// A memPO activation order needs no order at all: its sequential
    /// peak is Liu's `P(root)`, which the peak sweep computes directly.
    /// RedTree's comes from its instance, so a live transform is shared;
    /// `u64::MAX` when the transform does not fit in `u64`, so no bound
    /// constructs.
    pub fn min_feasible(&self, tree: &TaskTree) -> u64 {
        match (self.kind, self.ao) {
            (HeuristicKind::MemBookingRedTree, _) => {
                let spec = PolicySpec::new(self.kind, 0).with_orders(self.ao, self.ao);
                match spec.instantiate(tree) {
                    Ok(red) => RedTreeBooking::min_memory(red.exec_tree(tree), red.ao()).max(1),
                    Err(_) => u64::MAX,
                }
            }
            (_, OrderKind::MemPostorder) => min_postorder_peak(tree).max(1),
            _ => {
                let ao = make_order(tree, self.ao);
                ao.sequential_peak(tree).max(1)
            }
        }
    }

    /// The per-shard specs of a sharded execution: one spec per shard,
    /// same kind and orders, with the global bound split by `budget` over
    /// the shards' minimum feasible memories (`mins`). Allotment caps are
    /// cleared — they index the original tree's nodes, so a sharded
    /// platform projects them onto each shard's id space itself.
    ///
    /// # Errors
    /// [`SchedError::InfeasibleMemory`] when the minima alone exceed the
    /// global bound (see [`crate::ShardBudget::split`]).
    pub fn shard_specs(
        &self,
        budget: crate::ShardBudget,
        mins: &[u64],
    ) -> Result<Vec<PolicySpec>, SchedError> {
        Ok(budget
            .split(self.memory, mins)?
            .into_iter()
            .map(|memory| PolicySpec {
                kind: self.kind,
                ao: self.ao,
                eo: self.eo,
                memory,
                caps: None,
            })
            .collect())
    }

    /// Serialises the spec in the `memtree-spec v1` wire format — the
    /// policy half of the shard-worker handshake (the subtree travels as
    /// `memtree_tree::io`'s v1 text format alongside it).
    ///
    /// One `key value` line per field, kinds and orders spelled as their
    /// [`label`](HeuristicKind::label)s, `caps` (present only when the
    /// spec is moldable) as space-separated per-node caps. The format is
    /// pinned to [`PolicySpec::fingerprint`]: a round trip through
    /// [`spec_from_str`](PolicySpec::spec_from_str) is fingerprint-equal,
    /// so a serialized spec addresses exactly the cached cells its sender
    /// would.
    pub fn spec_to_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# memtree-spec v1\n");
        let _ = writeln!(out, "kind {}", self.kind.label());
        let _ = writeln!(out, "ao {}", self.ao.label());
        let _ = writeln!(out, "eo {}", self.eo.label());
        let _ = writeln!(out, "memory {}", self.memory);
        if let Some(caps) = &self.caps {
            out.push_str("caps");
            for &c in caps.as_slice() {
                let _ = write!(out, " {c}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the `memtree-spec v1` wire format written by
    /// [`PolicySpec::spec_to_string`].
    ///
    /// Strict, like the tree parser on the other half of the handshake:
    /// unknown keys, duplicate keys, missing required keys, malformed
    /// values and trailing data are all [`SchedError::InvalidSpec`] —
    /// across a process boundary a lenient parser turns corruption into
    /// a silently different policy.
    pub fn spec_from_str(s: &str) -> Result<PolicySpec, SchedError> {
        let bad = |msg: String| SchedError::InvalidSpec(format!("spec wire format: {msg}"));
        let mut kind: Option<HeuristicKind> = None;
        let mut ao: Option<OrderKind> = None;
        let mut eo: Option<OrderKind> = None;
        let mut memory: Option<u64> = None;
        let mut caps: Option<AllotmentCaps> = None;
        for (no, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("line {}: missing value in {line:?}", no + 1)))?;
            let value = value.trim();
            let dup = |k: &str| bad(format!("line {}: duplicate key {k:?}", no + 1));
            match key {
                "kind" => {
                    if kind
                        .replace(
                            HeuristicKind::from_label(value)
                                .ok_or_else(|| bad(format!("unknown kind {value:?}")))?,
                        )
                        .is_some()
                    {
                        return Err(dup("kind"));
                    }
                }
                "ao" | "eo" => {
                    let parsed = OrderKind::from_label(value)
                        .ok_or_else(|| bad(format!("unknown order {value:?}")))?;
                    let slot = if key == "ao" { &mut ao } else { &mut eo };
                    if slot.replace(parsed).is_some() {
                        return Err(dup(key));
                    }
                }
                "memory" => {
                    let parsed = value
                        .parse::<u64>()
                        .map_err(|_| bad(format!("bad memory {value:?}")))?;
                    if memory.replace(parsed).is_some() {
                        return Err(dup("memory"));
                    }
                }
                "caps" => {
                    let parsed: Result<Vec<u32>, _> =
                        value.split_whitespace().map(str::parse::<u32>).collect();
                    let parsed =
                        parsed.map_err(|_| bad(format!("bad caps list on line {}", no + 1)))?;
                    if parsed.is_empty() {
                        return Err(bad("empty caps list".into()));
                    }
                    if parsed.contains(&0) {
                        return Err(bad(format!("zero cap on line {}", no + 1)));
                    }
                    if caps.replace(AllotmentCaps::from_caps(parsed)).is_some() {
                        return Err(dup("caps"));
                    }
                }
                other => return Err(bad(format!("line {}: unknown key {other:?}", no + 1))),
            }
        }
        Ok(PolicySpec {
            kind: kind.ok_or_else(|| bad("missing kind".into()))?,
            ao: ao.ok_or_else(|| bad("missing ao".into()))?,
            eo: eo.ok_or_else(|| bad("missing eo".into()))?,
            memory: memory.ok_or_else(|| bad("missing memory".into()))?,
            caps,
        })
    }

    /// Resolves the spec against `tree`: applies any tree transformation
    /// the policy needs and takes its orders on the tree the policy will
    /// actually schedule from a live [plan](TaskTree::plans), computing
    /// only what no instance over `tree` holds.
    ///
    /// Feasibility (`M ≥` the policy's sequential booking peak) is checked
    /// when a scheduler state is minted, not here — an instance is pure
    /// preprocessed data.
    pub fn instantiate(&self, tree: &TaskTree) -> Result<PolicyInstance, SchedError> {
        if self.caps.is_some() && self.kind != HeuristicKind::MemBooking {
            return Err(SchedError::InvalidSpec(format!(
                "moldable allotment caps only apply to MemBooking, not {}",
                self.kind
            )));
        }
        let transformed = match self.kind {
            HeuristicKind::MemBookingRedTree => Some(tree.plans().get_or_try_insert_with(
                |_: &TaskTree| true,
                || Ok(to_reduction_tree(tree)?.tree),
            )?),
            _ => None,
        };
        let exec = transformed.as_deref().unwrap_or(tree);
        check_caps(exec, self.caps.as_ref())?;
        Ok(PolicyInstance {
            kind: self.kind,
            memory: self.memory,
            caps: self.caps.clone(),
            plan: Plan::of(exec, transformed.clone(), self.ao, self.eo),
            layout: None,
        })
    }
}

/// What the instances of one (AO, EO) pair over one tree share (DESIGN.md
/// §6.11), registered weakly in the [plans](TaskTree::plans) of the tree
/// it orders (RedTree's transform, for RedTree). The layout is laid out
/// the first time an instance of the plan is [relaid](PolicyInstance::relaid).
#[derive(Debug)]
struct Plan {
    /// Declared first, so a dying plan frees the layout before the
    /// orders: the other way round left a heap hole that raised
    /// `shard-merge`'s `peak_rss_mb` by ≈ 1.8 MB.
    layout: OnceLock<Arc<Layout>>,
    /// RedTree's reduction tree, which the orders are orders of.
    transformed: Option<Arc<TaskTree>>,
    ao: Arc<Order>,
    eo: Arc<Order>,
    /// `peak(AO)` on the exec tree, from the pass that built `ao` (memPO,
    /// OptSeq) or one replay: no mint replays AO for it.
    ao_peak: u64,
}

/// A plan's exec tree [renumbered](TaskTree::renumbered) along AO, with
/// AO (the identity) and EO in its ids, and `peak(AO)` there.
#[derive(Debug)]
struct Layout {
    tree: TaskTree,
    ao: Arc<Order>,
    eo: Arc<Order>,
    ao_peak: u64,
}

impl Plan {
    /// The live plan of `(ao, eo)` over `exec`, or a new one that shares
    /// the orders of other live plans: a live order of either kind, with
    /// its peak when it is that plan's AO.
    fn of(
        exec: &TaskTree,
        transformed: Option<Arc<TaskTree>>,
        ao: OrderKind,
        eo: OrderKind,
    ) -> Arc<Plan> {
        let live = |kind: OrderKind| {
            let p = exec
                .plans()
                .find(|p: &Plan| p.ao.kind() == kind || p.eo.kind() == kind)?;
            Some(match p.ao.kind() == kind {
                true => (p.ao.clone(), Some(p.ao_peak)),
                false => (p.eo.clone(), None),
            })
        };
        // RedTree's plans carry their transform: a plan over a tree that is
        // itself some instance's transform must not serve the other kind.
        let red = transformed.is_some();
        let same = |p: &Plan| (p.ao.kind(), p.eo.kind(), p.transformed.is_some()) == (ao, eo, red);
        let Ok(plan) = exec.plans().get_or_try_insert_with(same, || {
            let (ao_order, ao_peak) = live(ao).unwrap_or_else(|| {
                let (order, peak) = make_order_with_peak(exec, ao);
                (Arc::new(order), Some(peak))
            });
            let ao_peak = ao_peak.unwrap_or_else(|| ao_order.sequential_peak(exec));
            let eo = match eo == ao {
                true => ao_order.clone(),
                false => live(eo).map_or_else(|| Arc::new(make_order(exec, eo)), |(o, _)| o),
            };
            Ok::<_, Infallible>(Plan {
                transformed,
                ao: ao_order,
                eo,
                ao_peak,
                layout: OnceLock::new(),
            })
        });
        plan
    }

    /// The layout over `exec`, checking that the orders are orders of it
    /// (the renumbering checks AO, the layout's EO checks EO). Unless
    /// `exec` is `planned`, the tree of the plan's peak, AO is replayed.
    fn lay_out(&self, exec: &TaskTree, planned: bool) -> Result<Layout, SchedError> {
        check_lengths(exec, &self.ao, &self.eo)?;
        let tree = self.ao.layout(exec).map_err(foreign_orders)?;
        let ao = Arc::new(Order::identity(&tree, self.ao.kind()).map_err(foreign_orders)?);
        let eo = if Arc::ptr_eq(&self.ao, &self.eo) {
            ao.clone()
        } else {
            let seq = self.eo.sequence().iter();
            let seq = seq.map(|&i| NodeId(self.ao.rank(i))).collect();
            Arc::new(Order::new(&tree, seq, self.eo.kind()).map_err(foreign_orders)?)
        };
        let ao_peak = if planned {
            self.ao_peak
        } else {
            self.ao.sequential_peak(exec)
        };
        Ok(Layout {
            tree,
            ao,
            eo,
            ao_peak,
        })
    }
}

/// Allotment caps must name every task of the tree the policy
/// schedules, one cap each.
pub(crate) fn check_caps(exec: &TaskTree, caps: Option<&AllotmentCaps>) -> Result<(), SchedError> {
    match caps {
        Some(caps) if caps.as_slice().len() != exec.len() => Err(SchedError::InvalidSpec(format!(
            "{} allotment caps for {} tasks",
            caps.as_slice().len(),
            exec.len()
        ))),
        _ => Ok(()),
    }
}

/// A [`PolicySpec`] resolved against a concrete tree: the (possibly
/// transformed) tree the policy schedules plus its orders, shared with
/// every other instance of the same order pair over that tree through
/// their plan.
///
/// Cheap to clone; mint fresh scheduler state per run with
/// [`PolicyInstance::scheduler`].
#[derive(Clone, Debug)]
pub struct PolicyInstance {
    kind: HeuristicKind,
    memory: u64,
    caps: Option<AllotmentCaps>,
    plan: Arc<Plan>,
    /// `Some` when the instance is in activation-order numbering
    /// ([`PolicyInstance::relaid`]).
    layout: Option<Arc<Layout>>,
}

impl PolicyInstance {
    /// The same instance under another memory bound — how a sweep stamps
    /// each cell's `M` onto preprocessing it shares across cells.
    pub fn with_memory(&self, memory: u64) -> Self {
        PolicyInstance {
            memory,
            ..self.clone()
        }
    }

    /// The same policy in **activation-order numbering**: its
    /// [`exec_tree`](Self::exec_tree) is `self.exec_tree(original)`
    /// [renumbered](TaskTree::renumbered) along `AO`, so `AO` is the
    /// identity, `EO` and the allotment caps are carried over to the new
    /// ids, and every per-node array a scheduler or the driver keeps is
    /// laid out in the order the policies walk it — at 10⁶ nodes, the
    /// difference between a cache miss and a hit per touch
    /// (DESIGN.md §6.11).
    ///
    /// Node ids of the relaid instance are positions in `AO`;
    /// `exec_tree(..).label(i)` gives back the caller's id. Executions
    /// break id ties by label, so a relaid run produces the caller-space
    /// schedule record for record. Relaying a relaid instance is a clone.
    ///
    /// The layout is laid out once per plan: when `original`'s registry
    /// holds this instance's plan, every relay of every instance over it
    /// shares the first one's layout. Handed another tree, the instance
    /// takes the checked path and gets a layout of its own.
    ///
    /// # Errors
    /// [`SchedError::OrderMismatch`] / [`SchedError::InvalidSpec`] when
    /// the instance's orders or caps do not belong to `original`.
    pub fn relaid(&self, original: &TaskTree) -> Result<PolicyInstance, SchedError> {
        if self.layout.is_some() {
            return Ok(self.clone());
        }
        let exec = self.exec_tree(original);
        check_caps(exec, self.caps.as_ref())?;
        let (plan, planned) = (&self.plan, self.planned_on(original));
        let layout = match (planned, plan.layout.get()) {
            (true, Some(layout)) => layout.clone(),
            (true, None) => {
                let fresh = Arc::new(plan.lay_out(exec, true)?);
                plan.layout.get_or_init(|| fresh).clone()
            }
            (false, _) => Arc::new(plan.lay_out(exec, false)?),
        };
        let caps = self.caps.as_ref().map(|caps| {
            AllotmentCaps::from_caps(plan.ao.sequence().iter().map(|&i| caps.cap(i)).collect())
        });
        Ok(PolicyInstance {
            caps,
            layout: Some(layout),
            ..self.clone()
        })
    }

    /// Whether the plan's peak and layout hold on `original`: its registry
    /// holds the plan, or the plan orders RedTree's own transform.
    fn planned_on(&self, original: &TaskTree) -> bool {
        let ours = |p: &Plan| std::ptr::eq(p, &*self.plan);
        self.plan.transformed.is_some() || original.plans().find(ours).is_some()
    }

    /// Which heuristic this instance runs.
    pub fn kind(&self) -> HeuristicKind {
        self.kind
    }

    /// The memory bound `M`.
    pub fn memory(&self) -> u64 {
        self.memory
    }

    /// Whether this instance carries moldable allotment caps.
    pub fn is_moldable(&self) -> bool {
        self.caps.is_some()
    }

    /// The moldable allotment caps, when the instance carries any —
    /// lets a platform reconstruct the spec it was built from (sharded
    /// execution re-derives per-shard specs this way).
    pub fn caps(&self) -> Option<&AllotmentCaps> {
        self.caps.as_ref()
    }

    /// The activation order (on [`PolicyInstance::exec_tree`]).
    pub fn ao(&self) -> &Order {
        self.layout.as_ref().map_or(&self.plan.ao, |l| &l.ao)
    }

    /// The execution priority (on [`PolicyInstance::exec_tree`]).
    pub fn eo(&self) -> &Order {
        self.layout.as_ref().map_or(&self.plan.eo, |l| &l.eo)
    }

    /// The activation order's sequential peak on
    /// [`PolicyInstance::exec_tree`] — the feasibility floor every mint
    /// checks `M` against (RedTree's escrow raises its own above it).
    pub fn ao_peak(&self) -> u64 {
        self.layout
            .as_ref()
            .map_or(self.plan.ao_peak, |l| l.ao_peak)
    }

    /// The tree the policy actually schedules: the reduction-tree
    /// transform for RedTree, the renumbered tree for a
    /// [relaid](Self::relaid) instance, `original` otherwise.
    ///
    /// Platforms must simulate/execute *this* tree, not `original`.
    pub fn exec_tree<'t>(&'t self, original: &'t TaskTree) -> &'t TaskTree {
        match &self.layout {
            Some(layout) => &layout.tree,
            None => self.plan.transformed.as_deref().unwrap_or(original),
        }
    }

    /// Mints a fresh scheduler state for one run over `original` — the
    /// kind's policy, or its moldable adaptation ([`MoldableMemBooking`])
    /// when the instance carries allotment caps. Either way it is a
    /// [`Scheduler`]: drive it with `memtree_sim::simulate` (virtual time)
    /// or `memtree_runtime::execute` (real threads, gang-scheduled — it is
    /// `Send` because whichever worker finishes a task steps it).
    ///
    /// Fails with [`SchedError::InfeasibleMemory`] when the bound is below
    /// the policy's sequential booking peak (Theorem 1's feasibility
    /// condition), and [`SchedError::OrderMismatch`] when the instance's
    /// orders do not belong to the tree. The carried floor is trusted
    /// only on the tree it was computed on; handed another tree of the
    /// same shape, the mint replays AO there.
    pub fn scheduler<'t>(
        &'t self,
        original: &'t TaskTree,
    ) -> Result<Box<dyn Scheduler + Send + 't>, SchedError> {
        let tree = self.exec_tree(original);
        let (ao, eo, m) = (self.ao(), self.eo(), self.memory);
        let floor = match &self.layout {
            Some(layout) => Some(layout.ao_peak),
            None => self.planned_on(original).then_some(self.plan.ao_peak),
        };
        Ok(match self.kind {
            HeuristicKind::Activation => Box::new(Activation::with_floor(tree, ao, eo, m, floor)?),
            // Caps ride on MemBooking only (`instantiate` refuses the rest).
            HeuristicKind::MemBooking => match self.caps.clone() {
                Some(caps) => Box::new(MoldableMemBooking::with_floor(
                    tree, ao, eo, m, caps, floor,
                )?),
                None => Box::new(MemBooking::with_floor(tree, ao, eo, m, floor)?),
            },
            HeuristicKind::MemBookingRef => {
                Box::new(MemBookingRef::with_floor(tree, ao, eo, m, floor)?)
            }
            HeuristicKind::MemBookingRedTree => Box::new(RedTreeBooking::try_new(tree, ao, eo, m)?),
            HeuristicKind::Sequential => Box::new(Sequential::with_floor(tree, ao, m, floor)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sim::{simulate, SimConfig};

    #[test]
    fn every_kind_instantiates_and_runs() {
        let tree = memtree_gen::synthetic::paper_tree(150, 11);
        let ao = memtree_order::mem_postorder(&tree);
        let m = ao.sequential_peak(&tree) * 30; // roomy: RedTree needs slack
        for kind in [
            HeuristicKind::Activation,
            HeuristicKind::MemBooking,
            HeuristicKind::MemBookingRef,
            HeuristicKind::MemBookingRedTree,
            HeuristicKind::Sequential,
        ] {
            let inst = PolicySpec::new(kind, m).instantiate(&tree).unwrap();
            let sched = inst
                .scheduler(&tree)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            let exec = inst.exec_tree(&tree);
            let trace = simulate(exec, SimConfig::new(4, m), sched)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(trace.records.len(), exec.len(), "{kind}");
            memtree_sim::validate::validate_trace(exec, &trace).unwrap();
        }
    }

    #[test]
    fn redtree_instance_schedules_the_transformed_tree() {
        let tree = memtree_gen::synthetic::paper_tree(80, 3);
        let inst = PolicySpec::new(HeuristicKind::MemBookingRedTree, u64::MAX / 4)
            .instantiate(&tree)
            .unwrap();
        let exec = inst.exec_tree(&tree);
        assert!(exec.len() > tree.len(), "transform adds fictitious leaves");
        assert!(exec.nodes().all(|i| exec.exec(i) == 0));
        // Non-transforming kinds pass the original through.
        let plain = PolicySpec::new(HeuristicKind::MemBooking, 100)
            .instantiate(&tree)
            .unwrap();
        assert!(std::ptr::eq(plain.exec_tree(&tree), &tree));
    }

    #[test]
    fn infeasible_memory_surfaces_at_scheduler_minting() {
        let tree = memtree_gen::synthetic::paper_tree(60, 9);
        let ao = memtree_order::mem_postorder(&tree);
        let min = ao.sequential_peak(&tree);
        let inst = PolicySpec::new(HeuristicKind::MemBooking, min - 1)
            .instantiate(&tree)
            .unwrap();
        assert!(matches!(
            inst.scheduler(&tree),
            Err(SchedError::InfeasibleMemory { .. })
        ));
    }

    #[test]
    fn one_instance_mints_many_independent_schedulers() {
        let tree = memtree_gen::synthetic::paper_tree(100, 21);
        let ao = memtree_order::mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let inst = PolicySpec::new(HeuristicKind::MemBooking, m)
            .instantiate(&tree)
            .unwrap();
        let a = simulate(&tree, SimConfig::new(4, m), inst.scheduler(&tree).unwrap()).unwrap();
        let b = simulate(&tree, SimConfig::new(4, m), inst.scheduler(&tree).unwrap()).unwrap();
        assert_eq!(
            a.makespan, b.makespan,
            "runs are independent and deterministic"
        );
    }

    #[test]
    fn moldable_spec_builds() {
        let tree = memtree_gen::synthetic::paper_tree(60, 5);
        let ao = memtree_order::mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let caps = AllotmentCaps::uniform(&tree, 4);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
        let inst = spec.instantiate(&tree).unwrap();
        assert!(inst.is_moldable());
        let sched = inst.scheduler(&tree).unwrap();
        assert_eq!(sched.name(), "MoldableMemBooking");
        let trace = simulate(&tree, SimConfig::new(4, m), sched).unwrap();
        memtree_sim::validate::validate_trace(&tree, &trace).unwrap();
        assert!(trace.records.iter().any(|r| r.procs > 1), "gangs formed");
    }

    #[test]
    fn invalid_spec_combinations_error_instead_of_panicking() {
        let tree = memtree_gen::synthetic::paper_tree(40, 1);
        let caps = AllotmentCaps::uniform(&tree, 2);
        // Caps on a non-MemBooking kind: a clean error through the
        // fallible path, not an abort.
        let err = PolicySpec::new(HeuristicKind::Activation, 1_000)
            .with_caps(caps)
            .instantiate(&tree)
            .unwrap_err();
        assert!(matches!(err, SchedError::InvalidSpec(_)), "got {err}");
        // Caps of another tree: refused when the instance is made, not at
        // the mint.
        let other = memtree_gen::synthetic::paper_tree(41, 1);
        let foreign = AllotmentCaps::uniform(&other, 2);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, 1_000).with_caps(foreign);
        let err = spec.instantiate(&tree).unwrap_err();
        assert!(matches!(err, SchedError::InvalidSpec(_)), "got {err}");
    }

    #[test]
    fn fingerprint_tracks_every_behavioural_field() {
        let base = PolicySpec::new(HeuristicKind::MemBooking, 1_000);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let variants = [
            PolicySpec::new(HeuristicKind::Activation, 1_000),
            base.clone().with_memory(1_001),
            base.clone()
                .with_orders(OrderKind::CriticalPath, OrderKind::MemPostorder),
            base.clone()
                .with_orders(OrderKind::MemPostorder, OrderKind::CriticalPath),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
        // Caps change the fingerprint too.
        let tree = memtree_gen::synthetic::paper_tree(30, 2);
        let capped = base.clone().with_caps(AllotmentCaps::uniform(&tree, 2));
        assert_ne!(base.fingerprint(), capped.fingerprint());
    }

    #[test]
    fn spec_wire_roundtrip_is_fingerprint_equal() {
        let tree = memtree_gen::synthetic::paper_tree(30, 2);
        let specs = [
            PolicySpec::new(HeuristicKind::MemBooking, 12_345),
            PolicySpec::new(HeuristicKind::Activation, 1)
                .with_orders(OrderKind::OptSeq, OrderKind::CriticalPath),
            PolicySpec::new(HeuristicKind::MemBookingRedTree, u64::MAX),
            PolicySpec::new(HeuristicKind::Sequential, 7)
                .with_orders(OrderKind::PerfPostorder, OrderKind::AvgMemPostorder),
            PolicySpec::new(HeuristicKind::MemBooking, 999)
                .with_caps(AllotmentCaps::uniform(&tree, 4)),
        ];
        for spec in &specs {
            let text = spec.spec_to_string();
            let back = PolicySpec::spec_from_str(&text)
                .unwrap_or_else(|e| panic!("reparse of {text:?}: {e}"));
            assert_eq!(spec.fingerprint(), back.fingerprint(), "{text}");
        }
    }

    #[test]
    fn spec_wire_parser_is_strict() {
        let good = PolicySpec::new(HeuristicKind::MemBooking, 42).spec_to_string();
        PolicySpec::spec_from_str(&good).unwrap();
        let reject = |text: String, why: &str| {
            let err = PolicySpec::spec_from_str(&text)
                .err()
                .unwrap_or_else(|| panic!("{why}: accepted {text:?}"));
            assert!(matches!(err, SchedError::InvalidSpec(_)), "{why}: {err}");
        };
        reject(format!("{good}kind MemBooking\n"), "duplicate key");
        reject(format!("{good}bogus 1\n"), "unknown key");
        reject(good.replace("kind MemBooking\n", ""), "missing kind");
        reject(good.replace("memory 42", "memory forty-two"), "bad memory");
        reject(good.replace("ao memPO", "ao nosuchorder"), "unknown order");
        reject("kind\n".into(), "key without value");
        reject(format!("{good}caps 1 2 x\n"), "bad caps entry");
        reject(format!("{good}caps\n"), "caps without value");
        reject(format!("{good}caps 0 1\n"), "zero cap");
        // Comments and blank lines remain legal anywhere.
        PolicySpec::spec_from_str(&format!("# c\n\n{good}# tail\n")).unwrap();
    }

    #[test]
    fn relaid_instance_is_the_same_policy_in_activation_order_numbering() {
        let tree = memtree_gen::synthetic::paper_tree(90, 4);
        for kind in HeuristicKind::all() {
            let spec =
                PolicySpec::new(kind, 0).with_orders(OrderKind::OptSeq, OrderKind::CriticalPath);
            let inst = spec
                .clone()
                .with_memory(spec.min_feasible(&tree))
                .instantiate(&tree)
                .unwrap();
            let exec = inst.exec_tree(&tree);
            let relaid = inst.relaid(&tree).unwrap();
            let layout = relaid.exec_tree(&tree);
            assert_eq!(layout.len(), exec.len(), "{kind}");
            assert_eq!((relaid.kind(), relaid.memory()), (kind, inst.memory()));
            assert_eq!(relaid.ao().kind(), OrderKind::OptSeq);
            assert_eq!(relaid.eo().kind(), OrderKind::CriticalPath);
            for k in layout.nodes() {
                // AO is the identity; labels, specs and EO ranks carry over.
                assert_eq!(relaid.ao().rank(k), k.0);
                assert_eq!(layout.label(k), inst.ao().at(k.index()));
                assert_eq!(layout.spec(k), exec.spec(layout.label(k)));
                assert_eq!(relaid.eo().rank(k), inst.eo().rank(layout.label(k)));
            }
            // The policy's own feasibility floor is numbering-independent.
            assert!(relaid.scheduler(&tree).is_ok(), "{kind}");
            assert!(matches!(
                relaid.with_memory(inst.memory() - 1).scheduler(&tree),
                Err(SchedError::InfeasibleMemory { .. })
            ));
            // Idempotent: relaying again shares the layout tree.
            let again = relaid.relaid(&tree).unwrap();
            assert!(std::ptr::eq(again.exec_tree(&tree), layout));
        }
    }

    #[test]
    fn relaid_permutes_caps_and_shares_a_common_order() {
        let tree = memtree_gen::synthetic::paper_tree(60, 5);
        let caps = AllotmentCaps::sqrt_of_time(&tree, 6);
        let inst = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX / 4)
            .with_caps(caps.clone())
            .instantiate(&tree)
            .unwrap();
        let relaid = inst.relaid(&tree).unwrap();
        let layout = relaid.exec_tree(&tree);
        let relaid_caps = relaid.caps().expect("caps carried over");
        for k in layout.nodes() {
            assert_eq!(relaid_caps.cap(k), caps.cap(layout.label(k)));
        }
        // memPO/memPO: one identity order serves as AO and EO.
        assert!(std::ptr::eq(relaid.ao(), relaid.eo()));
        relaid.scheduler(&tree).unwrap();
    }

    #[test]
    fn relaid_refuses_orders_of_another_tree() {
        let tree = memtree_gen::synthetic::paper_tree(60, 5);
        let inst = PolicySpec::new(HeuristicKind::MemBooking, 1_000)
            .instantiate(&tree)
            .unwrap();
        let shorter = memtree_gen::synthetic::paper_tree(40, 5);
        assert!(matches!(
            inst.relaid(&shorter),
            Err(SchedError::OrderMismatch { .. })
        ));
        // Same size, other shape: a chain has a single topological order,
        // and the memPO of a branching tree is not it.
        let chain = memtree_gen::shapes::chain(60, memtree_tree::TaskSpec::default());
        assert!(matches!(
            inst.relaid(&chain),
            Err(SchedError::InvalidSpec(_))
        ));
    }

    #[test]
    fn a_plan_lives_as_long_as_an_instance_holds_it() {
        let tree = memtree_gen::synthetic::paper_tree(90, 6);
        let spec = PolicySpec::new(HeuristicKind::Activation, u64::MAX / 4)
            .with_orders(OrderKind::OptSeq, OrderKind::CriticalPath);
        let first = spec.instantiate(&tree).unwrap();
        let relaid = first.relaid(&tree).unwrap();
        // Every holder shares the plan: another kind, a copy, a relay.
        let other = PolicySpec {
            kind: HeuristicKind::MemBooking,
            ..spec.clone()
        };
        let shared = other.instantiate(&tree).unwrap();
        assert!(Arc::ptr_eq(&first.plan, &shared.plan));
        assert!(std::ptr::eq(
            shared.relaid(&tree).unwrap().exec_tree(&tree),
            relaid.exec_tree(&tree)
        ));
        let plan = Arc::downgrade(&first.plan);
        drop((first, shared));
        assert!(
            plan.upgrade().is_some(),
            "the relaid instance still holds it"
        );
        drop(relaid);
        assert!(plan.upgrade().is_none(), "the tree keeps nothing alive");
        assert!(tree.plans().find(|_: &Plan| true).is_none());
        // The dead entry pins its address, so a fresh plan is a new one.
        let fresh = spec.instantiate(&tree).unwrap();
        assert!(!std::ptr::addr_eq(Arc::as_ptr(&fresh.plan), plan.as_ptr()));
        let registered = tree.plans().find(|p: &Plan| std::ptr::eq(p, &*fresh.plan));
        assert!(registered.is_some());
        assert!(fresh.plan.layout.get().is_none(), "laid out on first use");
    }

    #[test]
    fn redtree_plans_share_one_live_transform() {
        let tree = memtree_gen::synthetic::paper_tree(80, 3);
        let spec = PolicySpec::new(HeuristicKind::MemBookingRedTree, u64::MAX / 4);
        let a = spec.instantiate(&tree).unwrap();
        let b = spec
            .clone()
            .with_orders(OrderKind::MemPostorder, OrderKind::CriticalPath)
            .instantiate(&tree)
            .unwrap();
        assert!(std::ptr::eq(a.exec_tree(&tree), b.exec_tree(&tree)));
        assert!(std::ptr::eq(a.ao(), b.ao()), "memPO of the transform once");
        assert_eq!(spec.min_feasible(&tree), {
            let red = to_reduction_tree(&tree).unwrap().tree;
            let ao = make_order(&red, OrderKind::MemPostorder);
            RedTreeBooking::min_memory(&red, &ao).max(1)
        });
        // The layout is the transform's, laid out once per order pair,
        // whatever tree the instance is handed.
        let relaid = a.relaid(&tree).unwrap();
        let other_pair = b.relaid(&tree).unwrap();
        assert!(!std::ptr::eq(
            other_pair.exec_tree(&tree),
            relaid.exec_tree(&tree)
        ));
        let copy = tree.clone();
        let apart = a.relaid(&copy).unwrap();
        assert!(std::ptr::eq(
            apart.exec_tree(&copy),
            relaid.exec_tree(&tree)
        ));
        assert!(std::ptr::eq(
            spec.instantiate(&tree)
                .unwrap()
                .relaid(&tree)
                .unwrap()
                .exec_tree(&tree),
            relaid.exec_tree(&tree)
        ));
    }

    #[test]
    fn a_floor_is_trusted_only_on_its_own_tree() {
        let tree = memtree_gen::synthetic::paper_tree(90, 2);
        let doubled = tree
            .map_specs(|_, s| memtree_tree::TaskSpec {
                output: s.output * 2,
                ..s
            })
            .unwrap();
        let floor = PolicySpec::new(HeuristicKind::MemBooking, 0).min_feasible(&tree);
        let inst = PolicySpec::new(HeuristicKind::MemBooking, floor)
            .instantiate(&tree)
            .unwrap();
        inst.scheduler(&tree).unwrap();
        // The same shape with other specs: the mint and the relay replay
        // AO there instead of carrying this tree's peak over.
        let peak = inst.ao().sequential_peak(&doubled);
        assert!(peak > floor);
        assert!(matches!(
            inst.scheduler(&doubled),
            Err(SchedError::InfeasibleMemory { required, .. }) if required == peak
        ));
        let relaid = inst.relaid(&doubled).unwrap();
        assert_eq!(relaid.ao_peak(), peak);
        assert!(relaid.scheduler(&doubled).is_err());
    }

    #[test]
    fn a_transform_handed_back_is_planned_as_a_tree_of_its_own() {
        let tree = memtree_gen::synthetic::paper_tree(70, 8);
        let red = PolicySpec::new(HeuristicKind::MemBookingRedTree, u64::MAX / 4)
            .instantiate(&tree)
            .unwrap();
        let transform = red.exec_tree(&tree);
        let plain = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX / 4)
            .instantiate(transform)
            .unwrap();
        assert!(!Arc::ptr_eq(&plain.plan, &red.plan));
        assert!(std::ptr::eq(plain.ao(), red.ao()), "the orders are shared");
        assert!(std::ptr::eq(plain.exec_tree(transform), transform));
        let again = PolicySpec::new(HeuristicKind::MemBookingRedTree, u64::MAX / 4)
            .instantiate(&tree)
            .unwrap();
        assert!(Arc::ptr_eq(&again.plan, &red.plan));
        assert!(std::ptr::eq(again.exec_tree(&tree), transform));
    }

    #[test]
    fn a_reduction_tree_past_u64_is_an_error() {
        // The fictitious leaf doubles the root's output: past `u64`.
        let spec = memtree_tree::TaskSpec::new(0, u64::MAX / 2 + 1, 1.0);
        let tree = TaskTree::from_parents(&[None], &[spec]).unwrap();
        let spec = PolicySpec::new(HeuristicKind::MemBookingRedTree, u64::MAX);
        let err = spec.instantiate(&tree).unwrap_err();
        assert!(matches!(err, SchedError::InvalidSpec(_)), "got {err}");
        assert_eq!(spec.min_feasible(&tree), u64::MAX);
    }

    #[test]
    fn order_kinds_are_respected() {
        let tree = memtree_gen::synthetic::paper_tree(90, 8);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX / 4)
            .with_orders(OrderKind::OptSeq, OrderKind::CriticalPath);
        let inst = spec.instantiate(&tree).unwrap();
        assert_eq!(inst.ao().kind(), OrderKind::OptSeq);
        assert_eq!(inst.eo().kind(), OrderKind::CriticalPath);
    }
}
