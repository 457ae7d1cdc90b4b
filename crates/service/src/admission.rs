//! **`AdmissionController`** — the service's budgeted admission state
//! machine (DESIGN.md §6.9).
//!
//! The controller is deliberately **pure**: plain numbers in, decisions
//! out, no threads, no clocks. The [`Service`](crate::Service)
//! coordinator drives it with live sessions; the admission proptests
//! drive it with thousands of random arrival/completion interleavings.
//! Both see exactly the same machine, so the invariants the proptests
//! pin — every admitted budget within its bounds, `Σ` budgets ≤ `M` at
//! all times, refusals exactly the infeasible, the queue draining once
//! budget frees — are the invariants the live service enforces.
//!
//! The protocol, per session:
//!
//! 1. **Refuse** sessions that are infeasible *even alone*: the floor
//!    (its spec's [`min_feasible`](memtree_sched::PolicySpec::min_feasible))
//!    exceeds the requested bound or the whole machine. Running such a
//!    session could never construct its scheduler — refusing up front is
//!    the service-level analogue of the policies' construction-time
//!    feasibility refusal, and what keeps the machine from thrashing on
//!    work it can never finish.
//! 2. **Admit** when the floor fits the currently-free budget, granting
//!    `min(requested, available)` — a lone session gets exactly the bound
//!    a direct `Platform::run` would use, which is what makes the
//!    single-tenant differential test bit-for-bit — reserved against the
//!    shared hard-error [`BudgetLedger`].
//! 3. **Queue** otherwise: feasible, just not now.
//! 4. On **completion** the grant returns to the ledger and the freed
//!    budget is immediately rebalanced to the queue: waiting sessions are
//!    scanned in arrival order and every one whose floor now fits is
//!    admitted (work-conserving backfill — a small session behind a big
//!    one does not hold budget idle). Since every completed
//!    session returns its whole grant, once arrivals cease the ledger
//!    drains and every queued session eventually fits: no feasible
//!    session starves.

use memtree_sched::{BudgetLedger, LedgerError};
use std::collections::HashMap;
use std::fmt;

/// A service-wide session identity (assigned by the service front door).
pub type SessionId = u64;

/// Why a submission was refused outright (never queued): it could not
/// run even with nothing else on the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The session's own requested bound is below its spec's feasibility
    /// floor — a direct `Platform::run` of the same spec would refuse
    /// identically.
    SpecInfeasible {
        /// The spec's feasibility floor on its tree.
        required: u64,
        /// The bound the session requested.
        requested: u64,
    },
    /// The floor exceeds the whole machine's capacity — infeasible even
    /// granted every unit of memory the service owns.
    MachineInfeasible {
        /// The spec's feasibility floor on its tree.
        required: u64,
        /// The service's global memory bound `M`.
        capacity: u64,
    },
}

impl Refusal {
    /// The floor that could not be met.
    pub fn required(&self) -> u64 {
        match *self {
            Refusal::SpecInfeasible { required, .. } => required,
            Refusal::MachineInfeasible { required, .. } => required,
        }
    }

    /// The bound the floor was measured against (the request or the
    /// machine).
    pub fn limit(&self) -> u64 {
        match *self {
            Refusal::SpecInfeasible { requested, .. } => requested,
            Refusal::MachineInfeasible { capacity, .. } => capacity,
        }
    }
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::SpecInfeasible {
                required,
                requested,
            } => write!(
                f,
                "requested bound {requested} below the spec's feasibility floor {required}"
            ),
            Refusal::MachineInfeasible { required, capacity } => write!(
                f,
                "feasibility floor {required} exceeds the machine capacity {capacity}"
            ),
        }
    }
}

/// A session admitted with a concrete budget reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The admitted session.
    pub session: SessionId,
    /// Its reserved slice of the global bound — ≥ its floor, ≤ its
    /// request, `Σ` over running sessions ≤ `M`.
    pub budget: u64,
}

/// The controller's answer to one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Admitted now, with this reservation.
    Admitted(Grant),
    /// Feasible but not now; parked in the wait queue.
    Queued {
        /// Sessions ahead of it in arrival order.
        position: usize,
    },
    /// Infeasible even alone; never queued.
    Refused(Refusal),
}

/// One completion's outcome: the released reservation plus every queued
/// session the freed budget admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The budget returned to the ledger.
    pub released: u64,
    /// Queued sessions admitted by the rebalance, in admission order.
    pub admitted: Vec<Grant>,
}

/// Controller misuse — always a coordinator bug, mirroring the ledger's
/// hard-error stance on accounting drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// A session id submitted twice, or completed while queued.
    DuplicateSession(SessionId),
    /// A completion for a session the controller is not running — a
    /// double completion or a phantom id.
    UnknownSession(SessionId),
    /// The shared budget ledger refused an operation the controller's
    /// own invariants should have made impossible.
    Ledger(LedgerError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::DuplicateSession(id) => write!(f, "session {id} already known"),
            AdmissionError::UnknownSession(id) => {
                write!(f, "session {id} is not running (double completion?)")
            }
            AdmissionError::Ledger(e) => write!(f, "admission ledger: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<LedgerError> for AdmissionError {
    fn from(e: LedgerError) -> Self {
        AdmissionError::Ledger(e)
    }
}

/// Monotonic counters over the controller's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Sessions submitted (admitted + queued + refused).
    pub submitted: u64,
    /// Sessions ever admitted (immediately or from the queue).
    pub admitted: u64,
    /// Sessions that waited in the queue at least once.
    pub queued: u64,
    /// Sessions refused as infeasible.
    pub refused: u64,
    /// Sessions completed (their budgets returned).
    pub completed: u64,
}

/// A session parked in the wait queue.
#[derive(Clone, Copy, Debug)]
struct Waiting {
    id: SessionId,
    floor: u64,
    requested: u64,
}

/// The budgeted admission state machine; see the module docs.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    ledger: BudgetLedger,
    /// In arrival order — the admission scan order.
    queue: Vec<Waiting>,
    /// Running sessions and their reservations.
    running: HashMap<SessionId, u64>,
    peak_running: usize,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller over `capacity` memory units.
    pub fn new(capacity: u64) -> Self {
        AdmissionController {
            ledger: BudgetLedger::new(capacity),
            queue: Vec::new(),
            running: HashMap::new(),
            peak_running: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// The global memory bound `M`.
    pub fn capacity(&self) -> u64 {
        self.ledger.capacity()
    }

    /// Budget currently free for admission.
    pub fn available(&self) -> u64 {
        self.ledger.available()
    }

    /// `Σ` budgets of the running sessions.
    pub fn reserved(&self) -> u64 {
        self.ledger.reserved()
    }

    /// High-water mark of [`reserved`](AdmissionController::reserved) —
    /// the service-level booking peak, provably ≤ `M`.
    pub fn peak_reserved(&self) -> u64 {
        self.ledger.peak_reserved()
    }

    /// Running session count.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// High-water mark of concurrently running sessions.
    pub fn peak_running(&self) -> usize {
        self.peak_running
    }

    /// The budget granted to a running session, if it is running.
    pub fn budget_of(&self, id: SessionId) -> Option<u64> {
        self.running.get(&id).copied()
    }

    /// The running session ids, sorted (a deterministic snapshot for
    /// tests and introspection).
    pub fn running_sessions(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self.running.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Sessions waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Submits a session: `floor` is its spec's feasibility minimum on
    /// its tree, `requested` the bound it asked for.
    ///
    /// # Errors
    /// [`AdmissionError::DuplicateSession`] when `id` is already running
    /// or queued.
    pub fn submit(
        &mut self,
        id: SessionId,
        floor: u64,
        requested: u64,
    ) -> Result<Decision, AdmissionError> {
        if self.running.contains_key(&id) || self.queue.iter().any(|w| w.id == id) {
            return Err(AdmissionError::DuplicateSession(id));
        }
        self.stats.submitted += 1;
        let floor = floor.max(1);
        if floor > requested {
            self.stats.refused += 1;
            return Ok(Decision::Refused(Refusal::SpecInfeasible {
                required: floor,
                requested,
            }));
        }
        if floor > self.capacity() {
            self.stats.refused += 1;
            return Ok(Decision::Refused(Refusal::MachineInfeasible {
                required: floor,
                capacity: self.capacity(),
            }));
        }
        if floor <= self.available() {
            let grant = self.admit(id, requested)?;
            return Ok(Decision::Admitted(grant));
        }
        let position = self.queue.len();
        self.queue.push(Waiting {
            id,
            floor,
            requested,
        });
        self.stats.queued += 1;
        Ok(Decision::Queued { position })
    }

    /// Completes a running session: its budget returns to the ledger and
    /// the freed headroom is rebalanced to the queue.
    ///
    /// # Errors
    /// [`AdmissionError::UnknownSession`] on a double or phantom
    /// completion; [`AdmissionError::Ledger`] if the books stopped
    /// balancing (a controller bug, surfaced loudly).
    pub fn complete(&mut self, id: SessionId) -> Result<Completion, AdmissionError> {
        let budget = self
            .running
            .remove(&id)
            .ok_or(AdmissionError::UnknownSession(id))?;
        self.ledger.release(budget)?;
        self.stats.completed += 1;
        let admitted = self.rebalance()?;
        Ok(Completion {
            released: budget,
            admitted,
        })
    }

    /// Admits every queued session whose floor fits the free budget, in
    /// arrival order — the rebalance step run after every completion.
    /// Work-conserving: non-fitting sessions are
    /// skipped, not blocking the budget for fitting ones behind them.
    fn rebalance(&mut self) -> Result<Vec<Grant>, AdmissionError> {
        let mut admitted = Vec::new();
        let mut k = 0;
        while k < self.queue.len() {
            if self.queue[k].floor <= self.available() {
                let w = self.queue.remove(k);
                admitted.push(self.admit(w.id, w.requested)?);
            } else {
                k += 1;
            }
        }
        Ok(admitted)
    }

    /// Reserves `min(requested, available)` for `id`; callers have checked
    /// that its floor fits both.
    fn admit(&mut self, id: SessionId, requested: u64) -> Result<Grant, AdmissionError> {
        let budget = requested.min(self.available());
        self.ledger.reserve(budget)?;
        self.running.insert(id, budget);
        self.peak_running = self.peak_running.max(self.running.len());
        self.stats.admitted += 1;
        Ok(Grant {
            session: id,
            budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_queue_refuse_and_rebalance() {
        let mut c = AdmissionController::new(100);
        // Two tenants fit, each granted its whole request.
        assert_eq!(
            c.submit(1, 40, 40).unwrap(),
            Decision::Admitted(Grant {
                session: 1,
                budget: 40
            })
        );
        assert_eq!(
            c.submit(2, 60, 60).unwrap(),
            Decision::Admitted(Grant {
                session: 2,
                budget: 60
            })
        );
        assert_eq!(c.available(), 0);
        // The third queues; the fourth is refused (floor over capacity).
        assert_eq!(
            c.submit(3, 10, 10).unwrap(),
            Decision::Queued { position: 0 }
        );
        assert_eq!(
            c.submit(4, 101, 200).unwrap(),
            Decision::Refused(Refusal::MachineInfeasible {
                required: 101,
                capacity: 100
            })
        );
        // Completing tenant 1 rebalances the freed budget to tenant 3.
        let done = c.complete(1).unwrap();
        assert_eq!(done.released, 40);
        assert_eq!(
            done.admitted,
            vec![Grant {
                session: 3,
                budget: 10
            }]
        );
        assert_eq!(c.running(), 2);
        assert_eq!(c.peak_reserved(), 100);
        assert!(c.peak_reserved() <= c.capacity());
    }

    #[test]
    fn spec_infeasible_is_refused_like_a_direct_run() {
        let mut c = AdmissionController::new(1_000);
        // Floor 50 but the tenant only asked for 49: a direct
        // Platform::run at 49 would refuse with InfeasibleMemory too.
        assert_eq!(
            c.submit(1, 50, 49).unwrap(),
            Decision::Refused(Refusal::SpecInfeasible {
                required: 50,
                requested: 49
            })
        );
        assert_eq!(c.stats().refused, 1);
        assert_eq!(c.running(), 0);
    }

    #[test]
    fn all_available_grants_the_request_when_alone() {
        let mut c = AdmissionController::new(1_000);
        // Capped at the request, not the machine: the tenant's own bound
        // is what a direct run would use.
        let Decision::Admitted(g) = c.submit(1, 10, 300).unwrap() else {
            panic!("should admit")
        };
        assert_eq!(g.budget, 300);
        // A second tenant gets everything still free (capped at request).
        let Decision::Admitted(g) = c.submit(2, 10, 10_000).unwrap() else {
            panic!("should admit")
        };
        assert_eq!(g.budget, 700);
    }

    #[test]
    fn the_queue_admits_in_arrival_order() {
        let mut c = AdmissionController::new(100);
        c.submit(1, 100, 100).unwrap();
        for (id, floor, position) in [(2, 30, 0), (3, 30, 1), (4, 50, 2), (5, 40, 3)] {
            assert_eq!(
                c.submit(id, floor, floor).unwrap(),
                Decision::Queued { position }
            );
        }
        // Scanned in arrival order: 2 and 3 fit, 4 does not fit the 40
        // left and is skipped, 5 takes the rest.
        let done = c.complete(1).unwrap();
        let order: Vec<SessionId> = done.admitted.iter().map(|g| g.session).collect();
        assert_eq!(order, vec![2, 3, 5]);
        assert_eq!(c.queue_len(), 1, "4 still waiting (no budget left)");
    }

    #[test]
    fn backfill_skips_a_blocked_head() {
        let mut c = AdmissionController::new(100);
        c.submit(1, 80, 80).unwrap();
        // Both queue behind the running 80: floors 90 and 30 exceed the
        // free 20.
        c.submit(2, 90, 90).unwrap();
        c.submit(3, 30, 30).unwrap();
        let done = c.complete(1).unwrap();
        let order: Vec<SessionId> = done.admitted.iter().map(|g| g.session).collect();
        assert_eq!(order, vec![2], "the head admitted once budget freed");
        // 3 does not fit next to 2 (available 10 < 30) and stays queued —
        // but only until the next completion frees budget.
        assert_eq!(c.queue_len(), 1);
        let done = c.complete(2).unwrap();
        assert_eq!(done.admitted.len(), 1);
        assert_eq!(c.queue_len(), 0, "queue drains once budget frees");
    }

    #[test]
    fn a_fitting_newcomer_is_admitted_even_with_a_blocked_queue() {
        // Work-conserving admission: free budget never idles waiting for
        // a big queued session when a small newcomer fits right now.
        let mut c = AdmissionController::new(100);
        c.submit(1, 80, 80).unwrap();
        c.submit(2, 90, 90).unwrap(); // queued: 90 > 20 free
        let decision = c.submit(3, 20, 20).unwrap();
        assert!(
            matches!(decision, Decision::Admitted(_)),
            "got {decision:?}"
        );
        assert_eq!(c.queue_len(), 1);
    }

    #[test]
    fn duplicate_and_phantom_ids_are_hard_errors() {
        let mut c = AdmissionController::new(100);
        c.submit(7, 10, 10).unwrap();
        assert_eq!(
            c.submit(7, 10, 10).unwrap_err(),
            AdmissionError::DuplicateSession(7)
        );
        c.complete(7).unwrap();
        assert_eq!(
            c.complete(7).unwrap_err(),
            AdmissionError::UnknownSession(7)
        );
        assert_eq!(
            c.complete(8).unwrap_err(),
            AdmissionError::UnknownSession(8)
        );
    }

    #[test]
    fn zero_floor_is_clamped_to_one() {
        let mut c = AdmissionController::new(10);
        let Decision::Admitted(g) = c.submit(1, 0, 1).unwrap() else {
            panic!("should admit")
        };
        assert_eq!(g.budget, 1, "a session always reserves something");
        // Asking for nothing is below the clamped floor.
        assert_eq!(
            c.submit(2, 0, 0).unwrap(),
            Decision::Refused(Refusal::SpecInfeasible {
                required: 1,
                requested: 0
            })
        );
    }
}
