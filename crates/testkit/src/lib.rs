#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The workspace's one test kit (DESIGN.md §7): every property draws its
//! trees from [`arb_tree`], and the helpers the suites share live here
//! once.
//!
//! * [`arb_tree`] draws a shape, task specs and an id layout. The paper's guarantees hold for every tree and every
//!   numbering, and assembly trees number parents above their children
//!   (DESIGN.md §3), so a property never narrows the generator: a
//!   failure on a new shape or layout is a finding, pinned as a fixed
//!   regression tree once mended. A property that truly needs narrower
//!   specs maps them at its call site and says why.
//! * [`id_layouts`] and [`random_topological`] renumber a given tree.
//! * [`roomy`] is the memory bound with headroom for every policy kind;
//!   [`counts_from_env`] reads the worker and shard counts a CI job pins.
//! * [`SplitMix`] is the one seeded draw of test code, and [`mutate()`] the
//!   one byte mutator of the text-boundary tests.
//! * [`Chaos`] and [`MoldChaos`] start random legal subsets of the ready
//!   tasks, as unit tasks or gangs.
//! * [`exhaustive`] holds the brute-force oracles of the sequential
//!   orders, and [`mod@reference`] the walk-based passes the id sweeps of
//!   `memtree_tree` and `memtree_order` must reproduce.
//!
//! Dev-only: no library crate depends on it.

pub mod chaos;
pub mod exhaustive;
pub mod mutate;
pub mod reference;

pub use chaos::{footprint, shard_chaos_tree, Chaos, MoldChaos};
pub use mutate::{arb_mutations, mutate, Mutation};

use memtree_gen::shapes;
use memtree_tree::{NodeId, TaskSpec, TaskTree};
use proptest::{Strategy, TestRng};

/// The tree shapes [`arb_tree`] draws, one in four each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Every node's parent uniform over the nodes built before it: about
    /// `ln n` deep.
    RandomRecursive,
    /// A chain with zero to two leaf legs on every spine node: `n` down
    /// to `n / 3` deep.
    Caterpillar,
    /// One root over `n − 1` leaves.
    Star,
    /// A balanced binary reduction: `log₂ n` deep.
    BinaryReduction,
}

/// The id layouts [`arb_tree`] draws, one in three each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// Every parent id below its children's, as `memtree_gen` grows
    /// trees.
    RootFirst,
    /// Every parent id above its children's, as assembly trees and every
    /// relaid run number them.
    ParentsAbove,
    /// A uniform shuffle of the ids: in general neither of the above.
    Shuffled,
}

const SHAPES: [Shape; 4] = [
    Shape::RandomRecursive,
    Shape::Caterpillar,
    Shape::Star,
    Shape::BinaryReduction,
];

const LAYOUTS: [Layout; 3] = [Layout::RootFirst, Layout::ParentsAbove, Layout::Shuffled];

/// The bounds a tree's specs are drawn below, one per tree: small ones
/// make ties and zeros common, large ones make them rare.
const SPEC_BOUNDS: [u64; 3] = [4, 16, 64];

/// Integer task times are drawn below `min(bound, MAX_TIME)`.
const MAX_TIME: u64 = 8;

/// The strategy [`arb_tree`] returns.
#[derive(Clone, Copy, Debug)]
pub struct ArbTree {
    max_n: usize,
}

/// A tree of `1..=max_n` nodes, one in four each a random recursive tree,
/// a caterpillar (a chain when legless), a star or a binary reduction.
/// Per tree a bound `b ∈ {4, 16, 64}` is drawn, and every task draws
/// `n_i, f_i ∈ 0..b` and an integer `t_i ∈ 0..min(b, 8)`. The ids are,
/// one in three each, root-first, parents-above or shuffled.
pub fn arb_tree(max_n: usize) -> ArbTree {
    assert!(max_n >= 1, "a tree has at least one node");
    ArbTree { max_n }
}

impl ArbTree {
    /// One draw, with the shape and layout it took.
    fn draw(&self, rng: &mut TestRng) -> (Shape, Layout, TaskTree) {
        let n = (1..=self.max_n).generate(rng);
        let shape = SHAPES[(0..SHAPES.len()).generate(rng)];
        let layout = LAYOUTS[(0..LAYOUTS.len()).generate(rng)];
        let bound = SPEC_BOUNDS[(0..SPEC_BOUNDS.len()).generate(rng)];
        let unit = TaskSpec::default();
        let built = match shape {
            Shape::RandomRecursive => {
                shapes::random_recursive(n, unit, (0..u64::MAX).generate(rng))
            }
            Shape::Caterpillar => {
                let legs = (0..n.min(3)).generate(rng);
                shapes::caterpillar(n / (legs + 1), legs, unit, unit)
            }
            Shape::Star => shapes::star(n, unit, unit),
            Shape::BinaryReduction => shapes::binary_reduction(n.div_ceil(2), 1, 1.0),
        };
        let specs = built
            .map_specs(|_, _| {
                let (exec, output) = ((0..bound).generate(rng), (0..bound).generate(rng));
                TaskSpec::new(exec, output, (0..bound.min(MAX_TIME)).generate(rng) as f64)
            })
            .expect("small specs sum within u64");
        let tree = laid_out(&specs, layout, &mut SplitMix((0..u64::MAX).generate(rng)));
        (shape, layout, tree)
    }
}

impl Strategy for ArbTree {
    type Value = TaskTree;

    fn generate(&self, rng: &mut TestRng) -> TaskTree {
        self.draw(rng).2
    }
}

/// `tree` renumbered into `layout`, every choice drawn from `draw`.
fn laid_out(tree: &TaskTree, layout: Layout, draw: &mut SplitMix) -> TaskTree {
    let n = tree.len();
    let mut perm: Vec<usize> = (0..n).collect();
    match layout {
        Layout::RootFirst | Layout::ParentsAbove => {
            let down = layout == Layout::RootFirst;
            for (k, i) in random_topological(tree, draw.next()).iter().enumerate() {
                perm[i.index()] = if down { n - 1 - k } else { k };
            }
        }
        Layout::Shuffled => {
            for k in (1..n).rev() {
                perm.swap(k, draw.below(k + 1));
            }
        }
    }
    relabelled(tree, &perm)
}

/// A topological order of `tree` drawn from `seed`: repeatedly emits a
/// pseudo-randomly chosen node whose children have all been emitted. Not
/// a postorder in general.
pub fn random_topological(tree: &TaskTree, seed: u64) -> Vec<NodeId> {
    let mut pending: Vec<usize> = tree.nodes().map(|i| tree.degree(i)).collect();
    let mut ready: Vec<NodeId> = tree.leaves().collect();
    let mut out = Vec::with_capacity(tree.len());
    let mut draw = SplitMix(seed);
    while !ready.is_empty() {
        let i = ready.swap_remove(draw.below(ready.len()));
        out.push(i);
        if let Some(p) = tree.parent(i) {
            pending[p.index()] -= 1;
            if pending[p.index()] == 0 {
                ready.push(p);
            }
        }
    }
    out
}

/// `tree` with node `i` renamed `perm[i]`: the same shape and specs, built
/// afresh (no labels), so its children lists are in the new ids' order.
fn relabelled(tree: &TaskTree, perm: &[usize]) -> TaskTree {
    let n = tree.len();
    let mut parents = vec![None; n];
    let mut specs = vec![TaskSpec::default(); n];
    for i in tree.nodes() {
        parents[perm[i.index()]] = tree.parent(i).map(|p| perm[p.index()]);
        specs[perm[i.index()]] = tree.spec(i);
    }
    TaskTree::from_parents(&parents, &specs).expect("a relabelling is a tree")
}

/// `tree` under the three layouts, drawn from `seed`: every parent id
/// below its children's, every parent id above them, and a uniformly
/// shuffled (in general mixed) numbering.
pub fn id_layouts(tree: &TaskTree, seed: u64) -> [TaskTree; 3] {
    LAYOUTS.map(|layout| laid_out(tree, layout, &mut SplitMix(seed)))
}

/// A memory bound with headroom for every policy kind on `tree`, the
/// reduction-tree baseline's transformed minimum and a per-shard split of
/// the bound included: 1000 × its minimum feasible memory.
pub fn roomy(tree: &TaskTree) -> u64 {
    memtree_sched::min_feasible_memory(tree) * 1000
}

/// The variable that pins the worker counts a test sweeps.
pub const WORKERS: &str = "MEMTREE_TEST_WORKERS";

/// The variable that pins the shard counts a test sweeps.
pub const SHARDS: &str = "MEMTREE_TEST_SHARDS";

/// The counts a test sweeps: the comma-separated environment variable
/// `var` ([`WORKERS`] or [`SHARDS`]) when set, `default` otherwise.
///
/// # Panics
/// When `var` is set but is not a comma-separated list of counts ≥ 1: a
/// typo in a CI matrix fails the job instead of narrowing its sweep.
pub fn counts_from_env(var: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(var) {
        Ok(text) => parse_counts(&text).unwrap_or_else(|e| panic!("{var}={text:?}: {e}")),
        Err(std::env::VarError::NotPresent) => default.to_vec(),
        Err(e) => panic!("{var}: {e}"),
    }
}

/// A comma-separated list of counts, each ≥ 1 and surrounded by any
/// whitespace. Any other entry refuses the whole list.
fn parse_counts(text: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|entry| match entry.trim().parse() {
            Ok(count) if count >= 1 => Ok(count),
            _ => Err(format!("{entry:?} is not a count ≥ 1")),
        })
        .collect()
}

/// SplitMix64 over one seed: the pseudo-random choices of test code that
/// draws outside a strategy.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A choice in `0..bound` (`bound ≥ 1`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// One of `from`'s elements (`from` not empty).
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng as _;

    /// 256 draws take every shape and every layout, and each tree is one
    /// `TaskTree::from_parents` accepts, laid out as drawn.
    #[test]
    fn arb_tree_draws_every_shape_and_layout() {
        let mut rng = TestRng::seed_from_u64(proptest::seed_of("arb_tree"));
        let (mut shapes, mut layouts) = (vec![], vec![]);
        for _ in 0..256 {
            let (shape, layout, tree) = arb_tree(40).draw(&mut rng);
            let parents: Vec<_> = tree
                .nodes()
                .map(|i| tree.parent(i).map(|p| p.index()))
                .collect();
            let specs: Vec<_> = tree.nodes().map(|i| tree.spec(i)).collect();
            assert_eq!(TaskTree::from_parents(&parents, &specs).unwrap(), tree);
            let above = tree.nodes().all(|i| tree.parent(i).is_none_or(|p| p > i));
            let below = tree.nodes().all(|i| tree.parent(i).is_none_or(|p| p < i));
            match layout {
                Layout::RootFirst => assert!(below, "{shape:?}"),
                Layout::ParentsAbove => assert!(above, "{shape:?}"),
                Layout::Shuffled => {}
            }
            shapes.push(shape);
            layouts.push(layout);
        }
        for shape in SHAPES {
            assert!(shapes.contains(&shape), "{shape:?} never drawn");
        }
        for layout in LAYOUTS {
            assert!(layouts.contains(&layout), "{layout:?} never drawn");
        }
    }

    #[test]
    fn counts_are_parsed_strictly() {
        assert_eq!(parse_counts("4"), Ok(vec![4]));
        assert_eq!(parse_counts(" 1, 2 ,8 "), Ok(vec![1, 2, 8]));
        for bad in ["4,8x", "", "0", "1,,2", "-1", "2.5", "four"] {
            assert!(parse_counts(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(counts_from_env("MEMTREE_TESTKIT_UNSET", &[3]), [3]);
    }
}
