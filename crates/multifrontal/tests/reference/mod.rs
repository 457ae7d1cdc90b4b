//! The clique-elimination minimum degree that `ordering::minimum_degree`
//! replaced, kept verbatim as the oracle of the differential tests: it
//! materialises the elimination graph in hash sets, so its degrees are
//! exact by construction and its bucket mechanics define the tie-breaks
//! the quotient-graph version must reproduce. `O(Σ d²)` hash inserts and
//! `O(fill)` memory — test sizes only.

use memtree_multifrontal::SparsePattern;
use std::collections::HashSet;

/// `perm[k]` is the vertex eliminated at step `k`.
pub fn minimum_degree(pattern: &SparsePattern) -> Vec<usize> {
    let n = pattern.order();
    let mut adj: Vec<HashSet<u32>> = (0..n)
        .map(|j| pattern.column(j).iter().copied().collect())
        .collect();
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);

    // Bucket queue keyed by degree; lazily revalidated.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n.max(1)];
    for (j, a) in adj.iter().enumerate() {
        let d = a.len().min(n - 1);
        buckets[d].push(j as u32);
    }
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the true minimum-degree vertex (lazy deletion).
        let v = loop {
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let cand = buckets[cursor].pop().expect("bucket nonempty") as usize;
            if eliminated[cand] {
                continue;
            }
            let d = adj[cand].len().min(n - 1);
            if d != cursor {
                buckets[d].push(cand as u32);
                cursor = cursor.min(d);
                continue;
            }
            break cand;
        };

        eliminated[v] = true;
        perm.push(v);
        let mut neigh: Vec<u32> = adj[v].iter().copied().collect();
        // Sorted so the whole ordering is a pure function of the pattern:
        // `HashSet` iteration order varies per instance, and downstream
        // re-push order (hence tie-breaking) follows this loop. Corpus
        // builders must be deterministic — the sweep cache addresses cells
        // by tree content, so rebuilding a tree must reproduce it exactly.
        neigh.sort_unstable();
        // Clique the neighbourhood.
        for (ai, &a) in neigh.iter().enumerate() {
            let a = a as usize;
            adj[a].remove(&(v as u32));
            for &b in &neigh[ai + 1..] {
                if adj[a].insert(b) {
                    adj[b as usize].insert(a as u32);
                }
            }
            let d = adj[a].len().min(n - 1);
            buckets[d].push(a as u32);
            cursor = cursor.min(d);
        }
        adj[v].clear();
    }
    perm
}
