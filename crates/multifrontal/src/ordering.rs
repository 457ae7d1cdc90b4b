//! Fill-reducing orderings.
//!
//! `perm[k]` is the original index eliminated at step `k` — the pattern is
//! then relabelled with [`crate::pattern::SparsePattern::permute`].

use crate::pattern::SparsePattern;

/// The identity ordering.
pub fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Nested dissection for a `k × k` grid: recursively split the wider axis
/// by a one-node-thick separator, ordering the two halves first and the
/// separator last. Produces the bushy, well-balanced elimination trees
/// typical of ND-ordered matrices.
pub fn nested_dissection_grid2d(k: usize) -> Vec<usize> {
    let idx = move |x: usize, y: usize| x * k + y;
    let mut perm = Vec::with_capacity(k * k);
    // Explicit work stack: regions in "post-order" with separator last.
    // Each frame: (x0, x1, y0, y1) half-open.
    enum Work {
        Region(usize, usize, usize, usize),
        Emit(Vec<usize>),
    }
    let mut stack = vec![Work::Region(0, k, 0, k)];
    while let Some(w) = stack.pop() {
        match w {
            Work::Emit(sep) => perm.extend(sep),
            Work::Region(x0, x1, y0, y1) => {
                let (dx, dy) = (x1 - x0, y1 - y0);
                if dx == 0 || dy == 0 {
                    continue;
                }
                if dx * dy <= 4 {
                    // Small base case: natural order.
                    for x in x0..x1 {
                        for y in y0..y1 {
                            perm.push(idx(x, y));
                        }
                    }
                    continue;
                }
                if dx >= dy {
                    let xm = x0 + dx / 2;
                    let sep: Vec<usize> = (y0..y1).map(|y| idx(xm, y)).collect();
                    stack.push(Work::Emit(sep));
                    stack.push(Work::Region(xm + 1, x1, y0, y1));
                    stack.push(Work::Region(x0, xm, y0, y1));
                } else {
                    let ym = y0 + dy / 2;
                    let sep: Vec<usize> = (x0..x1).map(|x| idx(x, ym)).collect();
                    stack.push(Work::Emit(sep));
                    stack.push(Work::Region(x0, x1, ym + 1, y1));
                    stack.push(Work::Region(x0, x1, y0, ym));
                }
            }
        }
    }
    perm
}

/// Nested dissection for a `k × k × k` grid (planar separators).
pub fn nested_dissection_grid3d(k: usize) -> Vec<usize> {
    let idx = move |x: usize, y: usize, z: usize| (x * k + y) * k + z;
    let mut perm = Vec::with_capacity(k * k * k);
    enum Work {
        Region([usize; 6]),
        Emit(Vec<usize>),
    }
    let mut stack = vec![Work::Region([0, k, 0, k, 0, k])];
    while let Some(w) = stack.pop() {
        match w {
            Work::Emit(sep) => perm.extend(sep),
            Work::Region([x0, x1, y0, y1, z0, z1]) => {
                let (dx, dy, dz) = (x1 - x0, y1 - y0, z1 - z0);
                if dx == 0 || dy == 0 || dz == 0 {
                    continue;
                }
                if dx * dy * dz <= 8 {
                    for x in x0..x1 {
                        for y in y0..y1 {
                            for z in z0..z1 {
                                perm.push(idx(x, y, z));
                            }
                        }
                    }
                    continue;
                }
                let dmax = dx.max(dy).max(dz);
                if dmax == dx {
                    let xm = x0 + dx / 2;
                    let sep = (y0..y1)
                        .flat_map(|y| (z0..z1).map(move |z| (y, z)))
                        .map(|(y, z)| idx(xm, y, z))
                        .collect();
                    stack.push(Work::Emit(sep));
                    stack.push(Work::Region([xm + 1, x1, y0, y1, z0, z1]));
                    stack.push(Work::Region([x0, xm, y0, y1, z0, z1]));
                } else if dmax == dy {
                    let ym = y0 + dy / 2;
                    let sep = (x0..x1)
                        .flat_map(|x| (z0..z1).map(move |z| (x, z)))
                        .map(|(x, z)| idx(x, ym, z))
                        .collect();
                    stack.push(Work::Emit(sep));
                    stack.push(Work::Region([x0, x1, ym + 1, y1, z0, z1]));
                    stack.push(Work::Region([x0, x1, y0, ym, z0, z1]));
                } else {
                    let zm = z0 + dz / 2;
                    let sep = (x0..x1)
                        .flat_map(|x| (y0..y1).map(move |y| (x, y)))
                        .map(|(x, y)| idx(x, y, zm))
                        .collect();
                    stack.push(Work::Emit(sep));
                    stack.push(Work::Region([x0, x1, y0, y1, zm + 1, z1]));
                    stack.push(Work::Region([x0, x1, y0, y1, z0, zm]));
                }
            }
        }
    }
    perm
}

/// Greedy minimum-degree ordering on a quotient graph.
///
/// At each step the vertex of minimum current degree is eliminated; its
/// neighbours become pairwise adjacent. The elimination graph is never
/// materialised. Following George–Liu and Amestoy–Davis–Duff, each live
/// *variable* `a` keeps `A_a`, its un-eliminated original neighbours, and
/// `E_a`, the *elements* (eliminated vertices) it is adjacent to; each
/// element `e` keeps its member list `L_e`. The neighbourhood of `a` in the
/// elimination graph is `A_a ∪ ⋃_{e∈E_a} L_e \ {a}`. Eliminating `v`:
///
/// 1. forms `L_v = A_v ∪ ⋃_{e∈E_v} L_e \ {v}` and frees `A_v`, `E_v` and
///    every absorbed `L_e` (each member of such an `e` is in `L_v`);
/// 2. for each member `a` of `L_v`: removes `L_v ∪ {v}` from `A_a`, drops
///    the absorbed elements from `E_a`, absorbs any other `e ∈ E_a` with
///    `L_e ⊆ L_v` (it adds nothing `v` does not), adds `v` to `E_a`, and
///    recounts the degree of `a`.
///
/// **Exactness and tie-breaks.** The recount is the true external degree
/// `|L_v| − 1 + |A_a| + |⋃_{e∈E_a∖{v}} L_e ∖ L_v|` (`A_a` is disjoint from
/// every `L_e`, `e ∈ E_a`, by step 2), not AMD's upper bound, and there are
/// no supervariables. Either would pick different vertices on ties, and
/// the ordering is load-bearing: corpus trees are rebuilt on demand and
/// addressed by content hash, so the permutation must stay a pure function
/// of the pattern, the same one the clique-elimination version this
/// replaced computed (`tests/reference`, compared in
/// `tests/minimum_degree.rs`). The tie-break is the bucket queue's:
/// vertices enter their degree bucket in index order, the members of each
/// `L_v` are re-pushed in ascending order, buckets pop last-in first-out,
/// and a popped entry whose degree has moved is re-pushed where it belongs.
///
/// **Cost.** Clique elimination inserts `|L_v|²` hash-set edges per step.
/// Step 2 instead reads each element next to `L_v` once, moving `L_e ∖ L_v`
/// to the front of `L_e`; a member with one such element takes its count,
/// and a member with several ORs their bitsets (`Union`) and counts the
/// bits. Adjacency storage (`A`, `E` and `L` together) starts at `nnz(A)`
/// and never grows: `L_v` fits in the space `A_v` and the absorbed lists
/// give up, and a member gains `v` in `E_a` only after losing `v` from
/// `A_a` or an absorbed element from `E_a`. Beside it are `O(n)` arrays,
/// the bucket queue, with one `u32` per re-push (`nnz(L)` in total), and
/// the union's word arena, at most the step's bitsets times its universe's
/// words: it peaked at 869, 6 744 and 18 717 words on
/// `random_connected(n, 3n/2, ·)` at n = 2 000, 8 000 and 16 000. On one
/// core of a 2-vCPU cloud VM those orderings take ≈ 9.4 ms, 89 ms and
/// 0.31 s, against 12.8 ms, 0.26 s and 1.37 s for the stamp-array scan of
/// the prefixes that the bitsets replaced.
pub fn minimum_degree(pattern: &SparsePattern) -> Vec<usize> {
    minimum_degree_with_degrees(pattern).0
}

/// [`minimum_degree`] plus, for each step `k`, the degree `perm[k]` had
/// when it was eliminated — `column_counts` of the permuted pattern minus
/// the diagonal, which is how the tests tie the ordering to `colcount`.
#[doc(hidden)]
pub fn minimum_degree_with_degrees(pattern: &SparsePattern) -> (Vec<usize>, Vec<usize>) {
    let n = pattern.order();
    let nnz = pattern.nnz_off_diagonal();

    // A_a lives in a[a_start[a]..a_end[a]], a copy of column `a` that only
    // ever shrinks; E_a is elems[a]; L_e is members[e], empty once absorbed.
    let mut a = Vec::with_capacity(nnz);
    let mut a_start = Vec::with_capacity(n);
    let mut a_end = Vec::with_capacity(n);
    for j in 0..n {
        a_start.push(a.len());
        a.extend_from_slice(pattern.column(j));
        a_end.push(a.len());
    }
    let mut elems: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut degree: Vec<usize> = (0..n).map(|j| a_end[j] - a_start[j]).collect();
    // For a variable x, mark[x] == in_lv: x ∈ L_v ∪ {v}. For an element e,
    // mark[e] ≥ in_lv: this step has put L_e ∖ L_v in members[e][..ext[e]].
    // `Union` stamps with in_lv + 1 (see there). Stamps only increase, so
    // nothing is ever reset.
    let mut mark = vec![0u64; n];
    let mut stamp = 0u64;
    let mut ext = vec![0usize; n];
    let mut union = Union::new(n);

    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    let mut degrees = Vec::with_capacity(n);

    // Bucket queue keyed by degree; lazily revalidated.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (j, &d) in degree.iter().enumerate() {
        buckets[d].push(j as u32);
    }
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the true minimum-degree vertex (lazy deletion).
        let v = loop {
            while buckets[cursor].is_empty() {
                cursor += 1;
            }
            let cand = buckets[cursor].pop().expect("bucket nonempty") as usize;
            if eliminated[cand] {
                continue;
            }
            let d = degree[cand];
            if d != cursor {
                buckets[d].push(cand as u32);
                cursor = cursor.min(d);
                continue;
            }
            break cand;
        };
        eliminated[v] = true;
        perm.push(v);
        degrees.push(cursor);

        // Step 1: L_v, sorted; A_v, E_v and the absorbed lists are freed.
        stamp += 2;
        let in_lv = stamp - 1;
        union.clear();
        mark[v] = in_lv;
        let mut lv = a[a_start[v]..a_end[v]].to_vec();
        a_end[v] = a_start[v];
        for &x in &lv {
            mark[x as usize] = in_lv;
        }
        for e in std::mem::take(&mut elems[v]) {
            for x in std::mem::take(&mut members[e as usize]) {
                if mark[x as usize] != in_lv {
                    mark[x as usize] = in_lv;
                    lv.push(x);
                }
            }
        }
        // Ascending, so the re-push order below (hence every tie-break)
        // is a pure function of the pattern.
        lv.sort_unstable();

        // Step 2, member by member.
        for &m in &lv {
            let m = m as usize;
            let mut end = a_start[m];
            for r in a_start[m]..a_end[m] {
                let x = a[r];
                a[end] = x;
                end += usize::from(mark[x as usize] != in_lv);
            }
            a_end[m] = end;

            let mut es = std::mem::take(&mut elems[m]);
            es.retain(|&e| {
                let e = e as usize;
                let le = &mut members[e];
                if mark[e] < in_lv && !le.is_empty() {
                    // First visit this step: move L_e ∖ L_v to the front.
                    let mut k = 0;
                    for i in 0..le.len() {
                        let x = le[i];
                        le.swap(k, i);
                        k += usize::from(mark[x as usize] != in_lv);
                    }
                    mark[e] = in_lv;
                    ext[e] = k;
                    if k == 0 {
                        *le = Vec::new(); // L_e ⊆ L_v: absorbed
                    }
                }
                !le.is_empty() // empty: absorbed, in step 1 or just now
            });
            let outside = match es[..] {
                [] => 0,
                [e] => ext[e as usize],
                _ => union.size(&es, &members, &ext, &mut mark, stamp),
            };
            es.push(v as u32);
            elems[m] = es;

            let d = lv.len() - 1 + (end - a_start[m]) + outside;
            degree[m] = d;
            buckets[d].push(m as u32);
            cursor = cursor.min(d);
        }
        members[v] = lv;

        debug_assert!(
            (0..n)
                .map(|x| a_end[x] - a_start[x] + elems[x].len() + members[x].len())
                .sum::<usize>()
                <= nnz,
            "quotient graph outgrew the pattern at step {}",
            perm.len()
        );
    }
    (perm, degrees)
}

/// Step 2's count of `|⋃_{e∈E_a} L_e ∖ L_v|` for a member with two or
/// more elements: the popcount of the OR of per-element bitsets. The
/// bitsets are over a per-step local universe — each vertex of some
/// `L_e ∖ L_v` gets the next local id the first time the step meets it —
/// and each element's bitset is built once per step, at its first use
/// here, into `words`, which every step reuses. An element built while the
/// universe was small has fewer words than one built later; the OR runs
/// over each element's own words.
///
/// With `ids` the step's second stamp (`in_lv + 1`): `mark[x] == ids`
/// means the variable `x` has local id `local[x]`, and `mark[e] == ids`
/// means the element `e`'s bitset is `words[span[e].0..][..span[e].1]`.
struct Union {
    local: Vec<u32>,
    span: Vec<(usize, usize)>,
    words: Vec<u64>,
    /// The OR being counted.
    acc: Vec<u64>,
    /// The size of the step's universe so far.
    next: u32,
}

impl Union {
    fn new(n: usize) -> Self {
        Union {
            local: vec![0; n],
            span: vec![(0, 0); n],
            words: Vec::new(),
            acc: Vec::new(),
            next: 0,
        }
    }

    /// Starts a step: an empty universe and no bitsets.
    fn clear(&mut self) {
        self.words.clear();
        self.next = 0;
    }

    /// `|⋃_{e∈es} members[e][..ext[e]]|`, stamping with `ids`.
    fn size(
        &mut self,
        es: &[u32],
        members: &[Vec<u32>],
        ext: &[usize],
        mark: &mut [u64],
        ids: u64,
    ) -> usize {
        self.acc.clear();
        for &e in es {
            let e = e as usize;
            if mark[e] != ids {
                mark[e] = ids;
                self.span[e] = self.build(&members[e][..ext[e]], mark, ids);
            }
            let (at, len) = self.span[e];
            let bits = &self.words[at..][..len];
            if self.acc.len() < bits.len() {
                self.acc.resize(bits.len(), 0);
            }
            for (a, b) in self.acc.iter_mut().zip(bits) {
                *a |= b;
            }
        }
        self.acc.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends the bitset of `xs` to `words`, giving each vertex not yet
    /// in the universe the next id; returns its span.
    fn build(&mut self, xs: &[u32], mark: &mut [u64], ids: u64) -> (usize, usize) {
        let mut top = 0;
        for &x in xs {
            let x = x as usize;
            if mark[x] != ids {
                mark[x] = ids;
                self.local[x] = self.next;
                self.next += 1;
            }
            top = top.max(self.local[x]);
        }
        let at = self.words.len();
        let len = top as usize / 64 + 1;
        self.words.resize(at + len, 0);
        let bits = &mut self.words[at..];
        for &x in xs {
            let id = self.local[x as usize] as usize;
            bits[id / 64] |= 1 << (id % 64);
        }
        (at, len)
    }
}

/// Checks `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcount::{column_counts, factor_nnz};
    use crate::etree::elimination_tree;

    #[test]
    fn nd2d_is_a_permutation() {
        for k in [2usize, 3, 5, 8, 13] {
            assert!(
                is_permutation(&nested_dissection_grid2d(k), k * k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn nd3d_is_a_permutation() {
        for k in [2usize, 3, 4, 6] {
            assert!(
                is_permutation(&nested_dissection_grid3d(k), k * k * k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn minimum_degree_is_a_permutation() {
        let p = SparsePattern::random_connected(60, 80, 3);
        assert!(is_permutation(&minimum_degree(&p), 60));
    }

    #[test]
    fn minimum_degree_is_deterministic() {
        // Two runs over the same pattern must tie-break identically —
        // corpus trees are rebuilt on demand by the streaming sweep and
        // addressed by content hash, so any run-to-run wobble here would
        // orphan every cached cell of the random-pattern corpus.
        let p = SparsePattern::random_connected(200, 300, 7);
        assert_eq!(minimum_degree(&p), minimum_degree(&p));
    }

    #[test]
    fn minimum_degree_matches_its_golden_digest() {
        // Determinism across *versions*, not just runs: any drift in a
        // tie-break changes every random corpus tree, hence its content
        // hash, hence every cached sweep cell. Captured from the
        // clique-elimination implementation this one replaced.
        let p = SparsePattern::random_connected(200, 300, 7);
        let mut h = memtree_tree::hash::Fnv64::new();
        for v in minimum_degree(&p) {
            h.write_u64(v as u64);
        }
        assert_eq!(h.finish(), 0x2d17_a101_3a39_6405);
    }

    #[test]
    fn a_one_word_bitset_ors_with_one_built_past_64_ids() {
        // Elements 0, 1 and 2 over the variables 100..195. Element 1's
        // prefix L_e ∖ L_v is its first 75 members, 105..180; the rest
        // stand in for members inside L_v and must not count.
        let n = 200;
        let mut members = vec![Vec::new(); n];
        members[0] = (100..110).collect();
        members[1] = (105..180).chain(190..195).collect();
        members[2] = (120..130).collect();
        let mut ext = vec![0; n];
        ext[0] = 10;
        ext[1] = 75;
        ext[2] = 10;
        let mut mark = vec![0u64; n];
        let mut union = Union::new(n);
        union.clear();
        // 0 and 2 are built first: 20 ids, one word each.
        assert_eq!(union.size(&[0, 2], &members, &ext, &mut mark, 1), 20);
        // 1 is built past 64 ids, so it spans two words; 0 keeps its one.
        assert_eq!(union.size(&[0, 1], &members, &ext, &mut mark, 1), 80);
        assert_eq!(union.size(&[1, 0, 2], &members, &ext, &mut mark, 1), 80);
        assert_eq!((union.span[0].1, union.span[1].1), (1, 2));
        // The next step starts over: new ids, new bitsets.
        union.clear();
        assert_eq!(union.size(&[2, 1], &members, &ext, &mut mark, 2), 75);
        assert_eq!(union.next, 75);
    }

    #[test]
    fn nd_reduces_fill_versus_natural_order() {
        let k = 12;
        let p = SparsePattern::grid2d(k);
        let natural = {
            let et = elimination_tree(&p);
            factor_nnz(&column_counts(&p, &et))
        };
        let nd = {
            let q = p.permute(&nested_dissection_grid2d(k));
            let et = elimination_tree(&q);
            factor_nnz(&column_counts(&q, &et))
        };
        assert!(
            nd < natural,
            "ND fill {nd} should beat natural-order fill {natural}"
        );
    }

    #[test]
    fn minimum_degree_reduces_fill_on_grid() {
        let p = SparsePattern::grid2d(10);
        let natural = {
            let et = elimination_tree(&p);
            factor_nnz(&column_counts(&p, &et))
        };
        let md = {
            let q = p.permute(&minimum_degree(&p));
            let et = elimination_tree(&q);
            factor_nnz(&column_counts(&q, &et))
        };
        assert!(md < natural, "MD fill {md} vs natural {natural}");
    }

    #[test]
    fn minimum_degree_on_tridiagonal_is_fill_free() {
        // A tridiagonal matrix has a perfect elimination order; MD must
        // find a no-fill ordering (factor nnz = 2n - 1).
        let n = 40;
        let p = SparsePattern::band(n, 1);
        let q = p.permute(&minimum_degree(&p));
        let et = elimination_tree(&q);
        assert_eq!(factor_nnz(&column_counts(&q, &et)), 2 * n as u64 - 1);
    }
}
