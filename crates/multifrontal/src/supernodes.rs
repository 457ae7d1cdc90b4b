//! Fundamental supernodes and relaxed amalgamation.
//!
//! A fundamental supernode is a maximal run of consecutive columns
//! `{s, s+1, …, e}` (in a postordered matrix) where each column is the
//! only child of the next and the factor structures nest
//! (`cc[j+1] = cc[j] − 1`). Fronts are built per supernode; small
//! supernodes can optionally be amalgamated into their parent to fatten
//! fronts, as multifrontal codes do (at the price of logical fill).

/// A supernode: columns `first..first + width`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Supernode {
    /// First column of the supernode.
    pub first: usize,
    /// Number of columns (pivots).
    pub width: usize,
    /// Front order: pivots plus contribution-block rows
    /// (`= cc[first]` for fundamental supernodes).
    pub front: u64,
}

/// Partitions a postordered matrix into fundamental supernodes.
///
/// `parent` and `cc` must come from the **postordered** pattern (columns of
/// a supernode must be consecutive).
pub fn fundamental_supernodes(parent: &[Option<usize>], cc: &[u64]) -> Vec<Supernode> {
    let n = parent.len();
    assert_eq!(cc.len(), n);
    let mut n_children = vec![0u32; n];
    for &p in parent.iter().flatten() {
        n_children[p] += 1;
    }
    let mut out = Vec::new();
    let mut start = 0usize;
    for j in 1..=n {
        let extends =
            j < n && parent[j - 1] == Some(j) && n_children[j] == 1 && cc[j] + 1 == cc[j - 1];
        if !extends {
            out.push(Supernode {
                first: start,
                width: j - start,
                front: cc[start],
            });
            start = j;
        }
    }
    out
}

/// Parent supernode of each supernode (`None` for roots): the supernode
/// containing the elimination-tree parent of the supernode's last column.
pub fn supernode_parents(snodes: &[Supernode], parent: &[Option<usize>]) -> Vec<Option<usize>> {
    let n = parent.len();
    // Column -> supernode index.
    let mut of_col = vec![usize::MAX; n];
    for (s, sn) in snodes.iter().enumerate() {
        of_col[sn.first..sn.first + sn.width].fill(s);
    }
    snodes
        .iter()
        .map(|sn| {
            let last = sn.first + sn.width - 1;
            parent[last].map(|p| of_col[p])
        })
        .collect()
}

/// Relaxed amalgamation: absorb supernodes narrower than `min_width` into
/// their parent. The merged front is approximated as
/// `parent.front + child.width` (the child's pivots join the parent's
/// front; its contribution rows are assumed to nest in the parent's
/// structure — exact for fundamental chains, an upper-bounding
/// approximation otherwise). Returns new supernode list and parent map.
pub fn amalgamate(
    snodes: &[Supernode],
    sn_parent: &[Option<usize>],
    min_width: usize,
) -> (Vec<Supernode>, Vec<Option<usize>>) {
    let m = snodes.len();
    let mut absorbed_into: Vec<usize> = (0..m).collect();
    let mut width: Vec<usize> = snodes.iter().map(|s| s.width).collect();
    let mut front: Vec<u64> = snodes.iter().map(|s| s.front).collect();

    let find = |mut x: usize, map: &[usize]| {
        while map[x] != x {
            x = map[x];
        }
        x
    };

    // Children-before-parents: supernodes are postordered because columns
    // are, so a forward scan visits children first.
    for s in 0..m {
        let Some(p) = sn_parent[s] else { continue };
        if width[find(s, &absorbed_into)] >= min_width {
            continue;
        }
        let rs = find(s, &absorbed_into);
        let rp = find(p, &absorbed_into);
        if rs == rp {
            continue;
        }
        front[rp] += width[rs] as u64;
        width[rp] += width[rs];
        absorbed_into[rs] = rp;
    }

    // Rebuild compacted lists.
    let mut new_index = vec![usize::MAX; m];
    let mut out = Vec::new();
    for s in 0..m {
        if find(s, &absorbed_into) == s {
            new_index[s] = out.len();
            out.push(Supernode {
                first: snodes[s].first,
                width: width[s],
                front: front[s],
            });
        }
    }
    let mut parents = Vec::with_capacity(out.len());
    for s in 0..m {
        if new_index[s] != usize::MAX {
            let p = sn_parent[s].map(|p| find(p, &absorbed_into));
            parents.push(p.map(|p| new_index[p]));
        }
    }
    (out, parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcount::column_counts;
    use crate::etree::elimination_tree;
    use crate::pattern::SparsePattern;

    #[test]
    fn dense_matrix_is_one_supernode() {
        let p = SparsePattern::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        let sn = fundamental_supernodes(&et, &cc);
        assert_eq!(
            sn,
            vec![Supernode {
                first: 0,
                width: 4,
                front: 4
            }]
        );
    }

    #[test]
    fn tridiagonal_merges_into_one_chain_supernode() {
        // Tridiagonal: parent(j)=j+1, single children, cc = n-j+1? No:
        // cc = [2,2,...,2,1] so cc[j+1] = cc[j]-1 fails except at the end —
        // every column is its own supernode except the last pair.
        let p = SparsePattern::band(5, 1);
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        let sn = fundamental_supernodes(&et, &cc);
        assert_eq!(sn.len(), 4);
        assert_eq!(
            sn[3],
            Supernode {
                first: 3,
                width: 2,
                front: 2
            }
        );
    }

    #[test]
    fn supernode_parents_follow_etree() {
        let p = SparsePattern::band(5, 1);
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        let sn = fundamental_supernodes(&et, &cc);
        let par = supernode_parents(&sn, &et);
        assert_eq!(par, vec![Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn supernodes_partition_all_columns() {
        let p = SparsePattern::grid2d(6);
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        let sn = fundamental_supernodes(&et, &cc);
        let total: usize = sn.iter().map(|s| s.width).sum();
        assert_eq!(total, 36);
        // Contiguous and ordered.
        let mut next = 0;
        for s in &sn {
            assert_eq!(s.first, next);
            next += s.width;
        }
    }

    #[test]
    fn amalgamation_reduces_supernode_count() {
        let p = SparsePattern::band(20, 1);
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        let sn = fundamental_supernodes(&et, &cc);
        let par = supernode_parents(&sn, &et);
        let (merged, mpar) = amalgamate(&sn, &par, 4);
        assert!(merged.len() < sn.len());
        assert_eq!(mpar.len(), merged.len());
        let total: usize = merged.iter().map(|s| s.width).sum();
        assert_eq!(total, 20, "amalgamation must preserve the pivot count");
        // Root count preserved.
        assert_eq!(mpar.iter().filter(|p| p.is_none()).count(), 1);
    }

    #[test]
    fn amalgamate_with_zero_threshold_is_identity() {
        let p = SparsePattern::grid2d(5);
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        let sn = fundamental_supernodes(&et, &cc);
        let par = supernode_parents(&sn, &et);
        let (merged, mpar) = amalgamate(&sn, &par, 0);
        assert_eq!(merged, sn);
        assert_eq!(mpar, par);
    }
}
