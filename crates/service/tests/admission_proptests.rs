//! Property tests for the admission controller under random
//! arrival/completion churn (DESIGN.md §6.9): whatever interleaving of
//! submissions and completions —
//!
//! * every admitted session's budget is at least its feasibility floor
//!   and at most `min(requested, capacity)`;
//! * `Σ` running budgets equals the ledger's reservation and never
//!   exceeds `M`, at every step (the booking envelope, one level up);
//! * refused sessions are exactly those infeasible even with the whole
//!   machine to themselves — everything else is admitted or queued;
//! * once arrivals cease, draining the running set admits and completes
//!   every queued session: no feasible session starves.
//!
//! The controller is pure (no threads, no clocks), so these runs explore
//! thousands of interleavings the live coordinator would need races to
//! reach.

use memtree_service::{AdmissionController, Decision};
use proptest::prelude::*;

/// One random churn event: `kind` selects submit vs complete, the rest
/// parameterise the submission.
type Op = (u8, u64, u64);

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 1u64..300, 1u64..500), max_len)
}

/// `Σ` running budgets must equal the ledger and stay within `M`.
fn assert_books_balance(c: &AdmissionController) {
    let sum: u64 = c
        .running_sessions()
        .iter()
        .map(|&id| c.budget_of(id).unwrap())
        .sum();
    assert_eq!(sum, c.reserved(), "ledger drifted from the running set");
    assert!(c.reserved() <= c.capacity(), "Σ budgets over the bound");
    assert!(c.peak_reserved() <= c.capacity());
}

/// A freshly admitted grant's bounds.
fn assert_grant_bounds(c: &AdmissionController, budget: u64, floor: u64, requested: u64) {
    let floor = floor.max(1);
    assert!(budget >= floor, "granted {budget} below the floor {floor}");
    assert!(
        budget <= requested.min(c.capacity()),
        "granted {budget} over min(request {requested}, capacity {})",
        c.capacity()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full invariant set under random churn.
    #[test]
    fn churn_preserves_admission_invariants(
        capacity in 20u64..400,
        ops in arb_ops(60),
    ) {
        let mut c = AdmissionController::new(capacity);
        let mut next_id = 0u64;
        // floor/request of every submission, admitted or queued, for
        // re-checking grants at rebalance time.
        let mut asked: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new();

        for &(kind, floor, requested) in &ops {
            if kind == 0 && c.running() > 0 {
                // Complete a pseudo-random running session.
                let running = c.running_sessions();
                let victim = running[(floor as usize) % running.len()];
                let done = c.complete(victim).unwrap();
                prop_assert!(done.released >= 1);
                for g in &done.admitted {
                    let (f, r) = asked[&g.session];
                    assert_grant_bounds(&c, g.budget, f, r);
                }
            } else {
                let id = next_id;
                next_id += 1;
                let decision = c.submit(id, floor, requested).unwrap();
                let feasible =
                    floor.max(1) <= requested && floor.max(1) <= capacity;
                match decision {
                    Decision::Refused(_) => {
                        prop_assert!(
                            !feasible,
                            "refused a feasible session (floor {floor}, req {requested}, M {capacity})"
                        );
                    }
                    Decision::Admitted(g) => {
                        prop_assert!(feasible);
                        assert_grant_bounds(&c, g.budget, floor, requested);
                        asked.insert(id, (floor, requested));
                    }
                    Decision::Queued { .. } => {
                        prop_assert!(feasible, "queued an infeasible session");
                        asked.insert(id, (floor, requested));
                    }
                }
            }
            assert_books_balance(&c);
        }

        // Arrivals have ceased: drain. Every completion returns its
        // whole grant, so the queue must fully empty — no feasible
        // session starves.
        let mut steps = 0;
        while c.running() > 0 {
            let victim = c.running_sessions()[0];
            let done = c.complete(victim).unwrap();
            for g in &done.admitted {
                let (f, r) = asked[&g.session];
                assert_grant_bounds(&c, g.budget, f, r);
            }
            assert_books_balance(&c);
            steps += 1;
            prop_assert!(steps <= ops.len() + 1, "drain did not terminate");
        }
        prop_assert_eq!(c.queue_len(), 0, "a queued session starved");
        prop_assert_eq!(c.reserved(), 0u64, "budget leaked through the drain");

        // Counter bookkeeping closes: everyone submitted was refused
        // or admitted (queued sessions were admitted by the drain),
        // and everyone admitted completed.
        let s = c.stats();
        prop_assert_eq!(s.submitted, s.admitted + s.refused);
        prop_assert_eq!(s.admitted, s.completed);
    }

    /// The wait queue is FIFO: a completed machine readmits queued
    /// sessions by a greedy scan in arrival order, skipping (not waiting
    /// on) those that do not fit.
    #[test]
    fn rebalance_respects_arrival_order(
        capacity in 50u64..200,
        floors in proptest::collection::vec(1u64..100, 12),
    ) {
        let mut c = AdmissionController::new(capacity);
        // Fill the machine with one session, queue the rest; each asks
        // for exactly its floor, so each grant is its floor.
        c.submit(9999, capacity, capacity).unwrap();
        let mut queued: Vec<(u64, u64)> = Vec::new();
        for (i, &floor) in floors.iter().enumerate() {
            let id = i as u64;
            if let Decision::Queued { .. } = c.submit(id, floor, floor).unwrap() {
                queued.push((id, floor));
            }
        }
        let done = c.complete(9999).unwrap();
        let mut free = capacity;
        let mut expected = Vec::new();
        for &(id, floor) in &queued {
            if floor <= free {
                expected.push(id);
                free -= floor;
            }
        }
        let got: Vec<u64> = done.admitted.iter().map(|g| g.session).collect();
        prop_assert_eq!(got, expected);
    }
}
