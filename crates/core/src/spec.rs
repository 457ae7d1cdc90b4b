//! **`PolicySpec`** — the single, declarative entry point for constructing
//! any of the paper's scheduling policies (DESIGN.md §6.2).
//!
//! A spec is a plain value: policy kind, activation/execution order kinds,
//! memory bound, optional moldable allotment caps. [`PolicySpec::instantiate`]
//! turns it into a [`PolicyInstance`] against a concrete tree, **owning any
//! tree transformation the policy needs**. That absorbs the old
//! `MemBookingRedTree` special case — the reduction-tree transform
//! (Section 3.2) happens inside `instantiate`, so the red-tree baseline is
//! constructible through exactly the same call as every other policy and
//! the old `SchedError::NeedsTransformedTree` escape hatch is gone.
//!
//! A [`PolicyInstance`] is cheap to clone (`Arc`-shared tree and orders)
//! and can mint any number of independent scheduler states via
//! [`PolicyInstance::scheduler`] — one per run, so the same instance can be
//! executed on a simulator, on real threads, or fanned out across a
//! parallel sweep.

use crate::activation::{check_lengths, check_orders, foreign_orders};
use crate::error::SchedError;
use crate::moldable::{AllotmentCaps, MoldableMemBooking};
use crate::redtree::to_reduction_tree;
use crate::{Activation, HeuristicKind, MemBooking, MemBookingRef, RedTreeBooking, Sequential};
use memtree_order::po_mem::min_postorder_peak;
use memtree_order::{make_order, make_order_with_peak, Order, OrderKind};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};
use std::sync::Arc;

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
    pub fn min_feasible(&self, tree: &TaskTree) -> u64 {
        match (self.kind, self.ao) {
            (HeuristicKind::MemBookingRedTree, _) => {
                let tr = to_reduction_tree(tree);
                let ao = make_order(&tr.tree, self.ao);
                RedTreeBooking::min_memory(&tr.tree, &ao).max(1)
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
    /// the policy needs and computes its orders on the tree the policy
    /// will actually schedule.
    ///
    /// Feasibility (`M ≥` the policy's sequential booking peak) is checked
    /// when a scheduler state is minted, not here — an instance is pure
    /// preprocessed data.
    pub fn instantiate(&self, tree: &TaskTree) -> Result<PolicyInstance, SchedError> {
        let transformed = match self.kind {
            HeuristicKind::MemBookingRedTree => Some(Arc::new(to_reduction_tree(tree).tree)),
            _ => None,
        };
        let exec = transformed.as_deref().unwrap_or(tree);
        let (ao, ao_peak) = make_order_with_peak(exec, self.ao);
        let ao = Arc::new(ao);
        let eo = if self.eo == self.ao {
            ao.clone()
        } else {
            Arc::new(make_order(exec, self.eo))
        };
        PolicyInstance::assemble(
            self.kind,
            self.memory,
            transformed,
            ao,
            eo,
            self.caps.clone(),
            ao_peak,
        )
    }
}

/// Free-function spelling of [`PolicySpec::spec_to_string`].
pub fn spec_to_string(spec: &PolicySpec) -> String {
    spec.spec_to_string()
}

/// Free-function spelling of [`PolicySpec::spec_from_str`].
///
/// # Errors
/// [`SchedError::InvalidSpec`] on any malformed, missing, duplicate or
/// trailing input — see [`PolicySpec::spec_from_str`].
pub fn spec_from_str(s: &str) -> Result<PolicySpec, SchedError> {
    PolicySpec::spec_from_str(s)
}

/// A [`PolicySpec`] resolved against a concrete tree: the (possibly
/// transformed) tree the policy schedules plus its precomputed orders.
///
/// Cheap to clone; mint fresh scheduler state per run with
/// [`PolicyInstance::scheduler`].
#[derive(Clone, Debug)]
pub struct PolicyInstance {
    kind: HeuristicKind,
    memory: u64,
    /// `Some` when the policy schedules a tree of its own rather than the
    /// caller's: RedTree's transform, and any [relaid](Self::relaid)
    /// instance's renumbered tree.
    transformed: Option<Arc<TaskTree>>,
    ao: Arc<Order>,
    eo: Arc<Order>,
    caps: Option<AllotmentCaps>,
    /// `peak(AO)`: the sequential peak of `ao` on the exec tree, from the
    /// pass that built `ao` (memPO, OptSeq) or one replay of it. Every
    /// mint checks `M` against it without replaying AO again.
    ao_peak: u64,
    /// Whether this instance is in activation-order numbering
    /// ([`PolicyInstance::relaid`]).
    relaid: bool,
}

impl PolicyInstance {
    /// Assembles an instance from preprocessed parts — the cache-friendly
    /// construction path used by sweep harnesses that share orders and
    /// transformed trees across many cells.
    ///
    /// `transformed` must be `Some` exactly for
    /// [`HeuristicKind::MemBookingRedTree`], and `ao`/`eo` must be orders
    /// *of the tree the policy schedules* (the transformed tree for
    /// RedTree, `original` otherwise) — checked here, along with one
    /// replay of AO for the instance's feasibility floor.
    ///
    /// # Errors
    /// [`SchedError::InvalidSpec`] for a kind/parts mismatch or orders of
    /// another tree, [`SchedError::OrderMismatch`] for orders of another
    /// length.
    pub fn from_parts(
        kind: HeuristicKind,
        memory: u64,
        original: &TaskTree,
        transformed: Option<Arc<TaskTree>>,
        ao: Arc<Order>,
        eo: Arc<Order>,
        caps: Option<AllotmentCaps>,
    ) -> Result<Self, SchedError> {
        let mut instance = Self::assemble(kind, memory, transformed, ao, eo, caps, 0)?;
        instance.ao_peak = {
            let exec = instance.exec_tree(original);
            check_orders(exec, &instance.ao, &instance.eo)?;
            instance.ao.sequential_peak(exec)
        };
        Ok(instance)
    }

    /// The instance of parts whose orders belong to the exec tree, with
    /// `peak(AO)` there; checks only that kind, transform and caps go
    /// together.
    fn assemble(
        kind: HeuristicKind,
        memory: u64,
        transformed: Option<Arc<TaskTree>>,
        ao: Arc<Order>,
        eo: Arc<Order>,
        caps: Option<AllotmentCaps>,
        ao_peak: u64,
    ) -> Result<Self, SchedError> {
        if transformed.is_some() != (kind == HeuristicKind::MemBookingRedTree) {
            return Err(SchedError::InvalidSpec(format!(
                "a transformed tree is required exactly for MemBookingRedTree, not {kind}"
            )));
        }
        if caps.is_some() && kind != HeuristicKind::MemBooking {
            return Err(SchedError::InvalidSpec(format!(
                "moldable allotment caps only apply to MemBooking, not {kind}"
            )));
        }
        Ok(PolicyInstance {
            kind,
            memory,
            transformed,
            ao,
            eo,
            caps,
            ao_peak,
            relaid: false,
        })
    }

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
    /// # Errors
    /// [`SchedError::OrderMismatch`] / [`SchedError::InvalidSpec`] when
    /// the instance's orders or caps do not belong to `original`.
    pub fn relaid(&self, original: &TaskTree) -> Result<PolicyInstance, SchedError> {
        if self.relaid {
            return Ok(self.clone());
        }
        let exec = self.exec_tree(original);
        // Topology is checked by the renumbering itself (AO) and by the
        // construction of the layout's EO.
        check_lengths(exec, &self.ao, &self.eo)?;
        let layout = self.ao.layout(exec).map_err(foreign_orders)?;
        let ao = Arc::new(Order::identity(&layout, self.ao.kind()).map_err(foreign_orders)?);
        let eo = if Arc::ptr_eq(&self.ao, &self.eo) {
            ao.clone()
        } else {
            let seq = self.eo.sequence().iter();
            let seq = seq.map(|&i| NodeId(self.ao.rank(i))).collect();
            Arc::new(Order::new(&layout, seq, self.eo.kind()).map_err(foreign_orders)?)
        };
        let caps = match &self.caps {
            Some(caps) if caps.as_slice().len() != exec.len() => {
                return Err(SchedError::InvalidSpec(format!(
                    "{} allotment caps for {} tasks",
                    caps.as_slice().len(),
                    exec.len()
                )));
            }
            Some(caps) => Some(AllotmentCaps::from_caps(
                self.ao.sequence().iter().map(|&i| caps.cap(i)).collect(),
            )),
            None => None,
        };
        Ok(PolicyInstance {
            kind: self.kind,
            memory: self.memory,
            transformed: Some(Arc::new(layout)),
            ao,
            eo,
            caps,
            // The same sequence over the same specs.
            ao_peak: self.ao_peak,
            relaid: true,
        })
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
        &self.ao
    }

    /// The execution priority (on [`PolicyInstance::exec_tree`]).
    pub fn eo(&self) -> &Order {
        &self.eo
    }

    /// The activation order's sequential peak on
    /// [`PolicyInstance::exec_tree`] — the feasibility floor every mint
    /// checks `M` against (RedTree's escrow raises its own above it).
    pub fn ao_peak(&self) -> u64 {
        self.ao_peak
    }

    /// The tree the policy actually schedules: the reduction-tree
    /// transform for RedTree, the renumbered tree for a
    /// [relaid](Self::relaid) instance, `original` otherwise.
    ///
    /// Platforms must simulate/execute *this* tree, not `original`.
    pub fn exec_tree<'t>(&'t self, original: &'t TaskTree) -> &'t TaskTree {
        self.transformed.as_deref().unwrap_or(original)
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
    /// orders do not belong to the tree.
    pub fn scheduler<'t>(
        &'t self,
        original: &'t TaskTree,
    ) -> Result<Box<dyn Scheduler + Send + 't>, SchedError> {
        let tree = self.exec_tree(original);
        let (ao, eo, m) = (&*self.ao, &*self.eo, self.memory);
        let floor = Some(self.ao_peak);
        Ok(match self.kind {
            HeuristicKind::Activation => Box::new(Activation::with_floor(tree, ao, eo, m, floor)?),
            // Caps ride on MemBooking only (`from_parts` refuses the rest).
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
            // The free-function spellings agree with the methods.
            assert_eq!(super::spec_to_string(spec), text);
            assert_eq!(
                super::spec_from_str(&text).unwrap().fingerprint(),
                spec.fingerprint()
            );
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
    fn order_kinds_are_respected() {
        let tree = memtree_gen::synthetic::paper_tree(90, 8);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX / 4)
            .with_orders(OrderKind::OptSeq, OrderKind::CriticalPath);
        let inst = spec.instantiate(&tree).unwrap();
        assert_eq!(inst.ao().kind(), OrderKind::OptSeq);
        assert_eq!(inst.eo().kind(), OrderKind::CriticalPath);
    }
}
