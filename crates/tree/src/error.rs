//! Error type for tree construction and validation.

use crate::node::NodeId;
use std::fmt;

/// Errors raised while building, validating or parsing a task tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// More than one node has no parent.
    MultipleRoots(NodeId, NodeId),
    /// No node qualifies as a root (parent pointers form a cycle).
    NoRoot,
    /// A parent reference points outside `0..n`.
    ParentOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Its out-of-range parent index.
        parent: u32,
    },
    /// A node is its own ancestor.
    Cycle(NodeId),
    /// A node id appears twice during construction.
    DuplicateNode(NodeId),
    /// An order/permutation has the wrong length or repeats nodes.
    BadPermutation {
        /// Nodes the tree has.
        expected: usize,
        /// Entries the order supplied.
        got: usize,
    },
    /// An order is not a topological order of the tree (a parent precedes
    /// one of its children).
    NotTopological {
        /// The parent that appeared too early.
        parent: NodeId,
        /// The child that had not been listed yet.
        child: NodeId,
    },
    /// A processing time is negative, NaN or infinite.
    BadTime(NodeId),
    /// The total memory Σᵢ(nᵢ + fᵢ) of the tasks does not fit in `u64`.
    MemoryOverflow,
    /// Parse error in the text format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Underlying I/O failure (message only, to keep the error `Clone`).
    Io(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::MultipleRoots(a, b) => {
                write!(f, "multiple roots: {a:?} and {b:?}")
            }
            TreeError::NoRoot => write!(f, "no root (parent pointers form a cycle)"),
            TreeError::ParentOutOfRange { node, parent } => {
                write!(f, "node {node:?} has out-of-range parent {parent}")
            }
            TreeError::Cycle(n) => write!(f, "node {n:?} is its own ancestor"),
            TreeError::DuplicateNode(n) => write!(f, "node {n:?} defined twice"),
            TreeError::BadPermutation { expected, got } => {
                write!(
                    f,
                    "order must be a permutation of {expected} nodes, got {got}"
                )
            }
            TreeError::NotTopological { parent, child } => {
                write!(
                    f,
                    "order is not topological: {parent:?} precedes its child {child:?}"
                )
            }
            TreeError::BadTime(n) => {
                write!(f, "node {n:?} has a negative or non-finite processing time")
            }
            TreeError::MemoryOverflow => {
                write!(f, "the tasks' total memory does not fit in 64 bits")
            }
            TreeError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            TreeError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<std::io::Error> for TreeError {
    fn from(e: std::io::Error) -> Self {
        TreeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TreeError::MultipleRoots(NodeId(0), NodeId(3));
        assert!(e.to_string().contains("n0"));
        assert!(e.to_string().contains("n3"));
        let e = TreeError::Parse {
            line: 7,
            msg: "bad field".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: TreeError = io.into();
        assert!(matches!(e, TreeError::Io(_)));
    }
}
