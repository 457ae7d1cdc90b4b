#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Task-tree data model for memory-aware tree scheduling.
//!
//! This crate provides the application model of Aupy, Brasseur and Marchal,
//! *Dynamic memory-aware task-tree scheduling* (IPDPS 2017): a rooted
//! **in-tree** whose vertices are sequential tasks and whose edges carry the
//! data produced by a child and consumed by its parent.
//!
//! Each task `i` is described by three quantities:
//!
//! * `n_i` — the size of its *execution data*, alive only while `i` runs,
//! * `f_i` — the size of its *output data*, alive from the completion of `i`
//!   until the completion of `parent(i)` (the root's output survives until
//!   the whole tree is done),
//! * `t_i` — its processing time.
//!
//! The memory needed to run task `i` is
//! `MemNeeded(i) = Σ_{j ∈ children(i)} f_j + n_i + f_i` (Equation (1) of the
//! paper); see [`TaskTree::mem_needed`].
//!
//! The central type is [`TaskTree`], an immutable, cache-friendly CSR
//! representation built through [`TreeBuilder`] or the convenience
//! constructors. Structural statistics (heights, levels, critical paths) live
//! in [`stats`], the sequential-memory semantics in [`memory`], sweeps and
//! postorders in [`traverse`], a plain-text serialisation format in [`io`],
//! canonical content hashing (the basis of sweep-level result caching)
//! in [`hash`] and forest partitioning for sharded execution (disjoint
//! shard subtrees plus a residual merge tree) in [`partition`](mod@partition).
//!
//! All algorithms in this crate are iterative, never recursive: assembly
//! trees of sparse factorizations routinely reach heights of 10⁵, which
//! would overflow any thread stack. Whole-tree passes are id sweeps along
//! [`TaskTree::children_first`].

pub mod bitset;
pub mod builder;
pub mod error;
pub mod hash;
pub mod io;
pub mod memory;
pub mod node;
pub mod partition;
pub mod plans;
pub mod stats;
pub mod traverse;
pub mod tree;
pub mod validate;

pub use bitset::BitSet;
pub use builder::TreeBuilder;
pub use error::TreeError;
pub use hash::Fnv64;
pub use memory::{mem_needed_slice, LiveSet, SequentialProfile};
pub use node::{NodeId, TaskSpec};
pub use partition::{partition, Partition, PartitionPolicy, ResidualPart, ShardPart};
pub use plans::Plans;
pub use stats::TreeStats;
pub use traverse::ChildrenFirst;
pub use tree::TaskTree;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TreeError>;
