//! Scheduler construction errors.

use std::fmt;

/// Errors raised when a scheduling policy cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The memory bound is below what the policy provably needs — the
    /// sequential peak of its activation order. Running anyway could
    /// deadlock, so construction is refused (this is the paper's
    /// feasibility condition in Theorem 1).
    InfeasibleMemory {
        /// Peak memory of the sequential activation order.
        required: u64,
        /// Memory bound requested.
        available: u64,
    },
    /// The orders passed do not belong to the tree (wrong length).
    OrderMismatch {
        /// Nodes in the tree.
        tree_len: usize,
        /// Nodes in the offending order.
        order_len: usize,
    },
    /// The policy-spec combination is invalid (e.g. moldable allotment
    /// caps on a policy other than MemBooking, or orders of another
    /// tree).
    InvalidSpec(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InfeasibleMemory {
                required,
                available,
            } => write!(
                f,
                "memory bound {available} below the sequential activation peak {required}"
            ),
            SchedError::OrderMismatch {
                tree_len,
                order_len,
            } => {
                write!(
                    f,
                    "order covers {order_len} nodes but the tree has {tree_len}"
                )
            }
            SchedError::InvalidSpec(msg) => write!(f, "invalid policy spec: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = SchedError::InfeasibleMemory {
            required: 100,
            available: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("50"));
    }
}
