//! **MemBooking** — the paper's dynamic memory-aware scheduler (Section 4).
//!
//! Activation of a node `i` books only `MissingMem(i) = max(0,
//! MemNeeded(i) − BookedBySubtree(i))` — what the nodes below `i` cannot
//! supply later. When a node `j` completes, the memory it held is
//! re-dispatched upward **As Late As Possible**: an ancestor `i` receives
//! `C = min(B, max(0, MemNeeded(i) − (BookedBySubtree(i) − B)))` — only
//! what cannot be produced by descendants of `i` that will finish later —
//! and the remainder keeps flowing up (Algorithm 3 / lines 13–17 of
//! Algorithm 6).
//!
//! Theorem 1: if the tree can be executed sequentially within `M` following
//! the activation order `AO`, MemBooking processes the whole tree within
//! `M` on any number of processors. Construction therefore checks
//! `M ≥ peak(AO)` and refuses otherwise.
//!
//! Two interchangeable engines:
//! * [`MemBookingRef`] — literal transcription of Algorithms 2–4
//!   (sets-and-scans, `O(n²·H)` worst case), the executable specification;
//! * [`MemBooking`] — the optimised Appendix-B version (Algorithms 5–6)
//!   with a rank queue for `ACTf`, a cursor into AO for `CAND`, counter
//!   arrays and lazily materialised `BookedBySubtree`, running in
//!   `O(n(H + log n))` (Theorem 2).
//!
//! They produce bit-identical schedules; a property test in
//! `tests/equivalence.rs` enforces it.
//!
//! **Erratum note.** Algorithm 3 (line 5) of the paper also adds `f_j` to
//! `BookedBySubtree[parent(j)]`, which double-counts `f_j` against the
//! Lemma 3(3) invariant; the Appendix-B version (Algorithm 6, line 11)
//! updates only `Booked`/`MBooked`. Both implementations here follow
//! Appendix B, and the invariant is asserted in debug builds.

mod optimized;
mod reference;

pub use optimized::MemBooking;
pub use reference::MemBookingRef;

pub(crate) const BBS_UNSET: u64 = u64::MAX;
