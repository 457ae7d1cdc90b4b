//! Symmetric sparse matrix patterns in compressed sparse column form.
//!
//! Only the pattern (structure) matters for symbolic analysis — no values
//! are stored. Patterns are symmetric; we store, for every column `j`, the
//! full set of row indices `i ≠ j` with `a_ij ≠ 0` (both triangles), plus
//! an implicit diagonal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A symmetric sparse pattern of order `n` (CSC, both triangles, implicit
/// diagonal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparsePattern {
    /// Matrix order.
    n: usize,
    /// CSC column pointers, length `n + 1`.
    col_ptr: Vec<usize>,
    /// Row indices per column, each strictly sorted, excluding the
    /// diagonal.
    rows: Vec<u32>,
}

impl SparsePattern {
    /// Builds a pattern from off-diagonal coordinate pairs; symmetrises
    /// and deduplicates automatically.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n > 0, "empty matrix");
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range for n={n}");
            if a == b {
                continue; // diagonal implicit
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut rows = Vec::new();
        col_ptr.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            rows.extend_from_slice(list);
            col_ptr.push(rows.len());
        }
        SparsePattern { n, col_ptr, rows }
    }

    /// Matrix order.
    #[inline]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored off-diagonal entries (both triangles).
    #[inline]
    pub fn nnz_off_diagonal(&self) -> usize {
        self.rows.len()
    }

    /// Off-diagonal row indices of column `j`, strictly sorted.
    #[inline]
    pub fn column(&self, j: usize) -> &[u32] {
        &self.rows[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Applies a permutation: entry `(i, j)` moves to
    /// `(perm_inv[i], perm_inv[j])`, i.e. `perm[k]` is the original index
    /// eliminated at step `k`.
    pub fn permute(&self, perm: &[usize]) -> SparsePattern {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut inv = vec![usize::MAX; self.n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(inv[old] == usize::MAX, "permutation repeats index {old}");
            inv[old] = new;
        }
        // Column `new` is column `perm[new]` relabelled: same length, and
        // `inv` is a bijection, so sorting is all that is left to do.
        let mut col_ptr = Vec::with_capacity(self.n + 1);
        let mut rows = Vec::with_capacity(self.rows.len());
        col_ptr.push(0);
        for &old in perm {
            let start = rows.len();
            rows.extend(self.column(old).iter().map(|&i| inv[i as usize] as u32));
            rows[start..].sort_unstable();
            col_ptr.push(rows.len());
        }
        SparsePattern {
            n: self.n,
            col_ptr,
            rows,
        }
    }

    /// The 5-point-stencil Laplacian of a `k × k` grid (order `k²`).
    pub fn grid2d(k: usize) -> SparsePattern {
        assert!(k > 0);
        let idx = |x: usize, y: usize| x * k + y;
        let mut edges = Vec::with_capacity(2 * k * k);
        for x in 0..k {
            for y in 0..k {
                if x + 1 < k {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < k {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        SparsePattern::from_edges(k * k, &edges)
    }

    /// The 7-point-stencil Laplacian of a `k × k × k` grid (order `k³`).
    pub fn grid3d(k: usize) -> SparsePattern {
        assert!(k > 0);
        let idx = |x: usize, y: usize, z: usize| (x * k + y) * k + z;
        let mut edges = Vec::new();
        for x in 0..k {
            for y in 0..k {
                for z in 0..k {
                    if x + 1 < k {
                        edges.push((idx(x, y, z), idx(x + 1, y, z)));
                    }
                    if y + 1 < k {
                        edges.push((idx(x, y, z), idx(x, y + 1, z)));
                    }
                    if z + 1 < k {
                        edges.push((idx(x, y, z), idx(x, y, z + 1)));
                    }
                }
            }
        }
        SparsePattern::from_edges(k * k * k, &edges)
    }

    /// A banded matrix of the given half-bandwidth (order `n`). Bandwidth 1
    /// is tridiagonal, whose elimination tree is a chain — the extreme
    /// heights of Figure 6.
    pub fn band(n: usize, half_bandwidth: usize) -> SparsePattern {
        assert!(n > 0 && half_bandwidth > 0);
        let mut edges = Vec::new();
        for i in 0..n {
            for d in 1..=half_bandwidth {
                if i + d < n {
                    edges.push((i, i + d));
                }
            }
        }
        SparsePattern::from_edges(n, &edges)
    }

    /// A connected random pattern: a random spanning tree plus `extra`
    /// random off-diagonal entries. Deterministic in `seed`.
    pub fn random_connected(n: usize, extra: usize, seed: u64) -> SparsePattern {
        assert!(n > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(n - 1 + extra);
        for i in 1..n {
            edges.push((rng.random_range(0..i), i));
        }
        for _ in 0..extra {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        SparsePattern::from_edges(n, &edges)
    }

    /// Vertex degrees (off-diagonal entries per column).
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n).map(|j| self.column(j).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_symmetrises_and_dedups() {
        let p = SparsePattern::from_edges(3, &[(0, 1), (1, 0), (1, 2), (1, 1)]);
        assert_eq!(p.column(0), &[1]);
        assert_eq!(p.column(1), &[0, 2]);
        assert_eq!(p.column(2), &[1]);
        assert_eq!(p.nnz_off_diagonal(), 4);
    }

    #[test]
    fn grid2d_structure() {
        let p = SparsePattern::grid2d(3);
        assert_eq!(p.order(), 9);
        // Corner has 2 neighbours, centre 4.
        assert_eq!(p.column(0).len(), 2);
        assert_eq!(p.column(4).len(), 4);
        // Laplacian of k×k grid has 2·k·(k−1) undirected edges.
        assert_eq!(p.nnz_off_diagonal(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn grid3d_structure() {
        let p = SparsePattern::grid3d(2);
        assert_eq!(p.order(), 8);
        assert!(p.degrees().iter().all(|&d| d == 3));
    }

    #[test]
    fn band_structure() {
        let p = SparsePattern::band(5, 1);
        assert_eq!(p.column(2), &[1, 3]);
        let p = SparsePattern::band(5, 2);
        assert_eq!(p.column(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn permute_identity_is_noop() {
        let p = SparsePattern::grid2d(3);
        let id: Vec<usize> = (0..9).collect();
        assert_eq!(p.permute(&id), p);
    }

    #[test]
    fn permute_preserves_edge_count() {
        let p = SparsePattern::grid2d(4);
        let perm: Vec<usize> = (0..16).rev().collect();
        let q = p.permute(&perm);
        assert_eq!(q.nnz_off_diagonal(), p.nnz_off_diagonal());
        // Entry (0,1) of the original appears as (15,14).
        assert!(q.column(15).contains(&14));
    }

    #[test]
    #[should_panic(expected = "permutation repeats index 1")]
    fn permute_rejects_a_repeated_index() {
        SparsePattern::grid2d(2).permute(&[0, 1, 1, 3]);
    }

    #[test]
    fn random_connected_is_deterministic() {
        let a = SparsePattern::random_connected(50, 30, 1);
        let b = SparsePattern::random_connected(50, 30, 1);
        assert_eq!(a, b);
        assert!(a.nnz_off_diagonal() >= 2 * 49);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        SparsePattern::from_edges(2, &[(0, 5)]);
    }
}
