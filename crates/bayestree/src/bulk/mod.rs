//! Bulk-loading strategies (Section 3).
//!
//! The paper investigates constructing the Bayes tree offline from a whole
//! training set instead of inserting object by object, and finds that good
//! bulk loads improve anytime classification accuracy by up to 13 %.  Four
//! families are implemented here:
//!
//! * [`BulkLoadMethod::Iterative`] — the baseline: insert objects one at a
//!   time ("Iterativ" in the figures),
//! * space-filling-curve / partitioning loads ([`BulkLoadMethod::Hilbert`],
//!   [`BulkLoadMethod::ZOrder`], [`BulkLoadMethod::Str`]) — classic R-tree
//!   packing applied to the kernels and, recursively, to the node means,
//! * [`BulkLoadMethod::Goldberger`] — bottom-up statistical reduction of the
//!   kernel mixture via regroup/refit (Goldberger & Roweis),
//! * [`BulkLoadMethod::EmTopDown`] — recursive top-down EM clustering of the
//!   training set, the paper's best performer.

pub mod em_topdown;
pub mod goldberger;
pub mod spacefilling;

use crate::insert::{check_points, or_panic, InputError};
use crate::leaf::PointColumns;
use crate::node::{Entry, KernelSummary, Node};
use crate::tree::{summarise, BayesCore, BayesTree};
use bt_index::PageGeometry;

pub use goldberger::GoldbergerBulkConfig;

/// The bulk-loading strategies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BulkLoadMethod {
    /// Iterative insertion — the paper's baseline ("Iterativ").
    Iterative,
    /// Sort by Hilbert value, pack leaves, repeat on node means.
    Hilbert,
    /// Sort by Z-order (Morton) value, pack leaves, repeat on node means.
    ZOrder,
    /// Sort-tile-recursive packing (Leutenegger et al.).
    Str,
    /// Goldberger & Roweis mixture reduction, bottom-up.
    Goldberger,
    /// Recursive top-down EM clustering — the paper's best performer.
    #[default]
    EmTopDown,
}

impl BulkLoadMethod {
    /// All methods, in the order they appear in the paper's figures.
    #[must_use]
    pub fn all() -> Vec<BulkLoadMethod> {
        vec![
            BulkLoadMethod::EmTopDown,
            BulkLoadMethod::Hilbert,
            BulkLoadMethod::ZOrder,
            BulkLoadMethod::Str,
            BulkLoadMethod::Goldberger,
            BulkLoadMethod::Iterative,
        ]
    }

    /// The four methods shown in Figures 2–4.
    #[must_use]
    pub fn paper_figures() -> Vec<BulkLoadMethod> {
        vec![
            BulkLoadMethod::EmTopDown,
            BulkLoadMethod::Hilbert,
            BulkLoadMethod::Goldberger,
            BulkLoadMethod::Iterative,
        ]
    }

    /// The name used for this method in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BulkLoadMethod::Iterative => "Iterativ",
            BulkLoadMethod::Hilbert => "Hilbert",
            BulkLoadMethod::ZOrder => "ZCurve",
            BulkLoadMethod::Str => "STR",
            BulkLoadMethod::Goldberger => "Goldberger",
            BulkLoadMethod::EmTopDown => "EMTopDown",
        }
    }

    /// Whether the method guarantees a balanced tree.  The EM top-down load
    /// may legally produce an unbalanced tree (Section 3.1).
    #[must_use]
    pub fn guarantees_balance(&self) -> bool {
        !matches!(self, BulkLoadMethod::EmTopDown)
    }
}

/// Builds a Bayes tree over `points` with the requested bulk-load method.
///
/// The kernel bandwidth is fitted with Silverman's rule after construction.
/// `seed` only affects the randomised methods (EM top-down); deterministic
/// methods ignore it.
///
/// # Panics
///
/// Panics if any point has a dimensionality other than `dims` or a
/// non-finite coordinate ([`try_build_tree`] returns the error instead).
#[must_use]
pub fn build_tree(
    points: &[Vec<f64>],
    dims: usize,
    geometry: PageGeometry,
    method: BulkLoadMethod,
    seed: u64,
) -> BayesTree {
    or_panic(try_build_tree(points, dims, geometry, method, seed))
}

/// Builds a Bayes tree as [`build_tree`] does, or rejects the batch: every
/// point is checked in one pass before any sorting, grouping or EM work.
///
/// # Errors
///
/// [`InputError::Dimensionality`] or [`InputError::NonFinite`] naming the
/// first offending point.
pub fn try_build_tree(
    points: &[Vec<f64>],
    dims: usize,
    geometry: PageGeometry,
    method: BulkLoadMethod,
    seed: u64,
) -> Result<BayesTree, InputError> {
    check_points(points, dims)?;
    Ok(match method {
        BulkLoadMethod::Iterative => BayesTree::build_iterative_checked(points, dims, geometry),
        BulkLoadMethod::Hilbert => {
            build_packed(points, dims, geometry, spacefilling::hilbert_groups)
        }
        BulkLoadMethod::ZOrder => build_packed(points, dims, geometry, spacefilling::zorder_groups),
        BulkLoadMethod::Str => build_packed(points, dims, geometry, bt_index::str_partition),
        BulkLoadMethod::Goldberger => goldberger::build_goldberger_checked(
            points,
            dims,
            geometry,
            &GoldbergerBulkConfig::default(),
        ),
        BulkLoadMethod::EmTopDown => {
            em_topdown::build_em_topdown_checked(points, dims, geometry, seed)
        }
    })
}

/// Shared bottom-up packer: turns groups of leaf points into leaf nodes and
/// stacks directory levels on top by repeatedly grouping the entries'
/// mean vectors with `group_fn(representatives, capacity)` until everything
/// fits into a single root node.
pub(crate) fn build_packed<G>(
    points: &[Vec<f64>],
    dims: usize,
    geometry: PageGeometry,
    group_fn: G,
) -> BayesTree
where
    G: Fn(&[Vec<f64>], usize) -> Vec<Vec<usize>>,
{
    let mut tree: BayesTree = BayesTree::new(dims, geometry);
    if points.is_empty() {
        return tree;
    }
    let core = tree.shard_mut(0);

    // Leaf level.
    let leaf_groups = group_fn(points, geometry.max_leaf);
    let entries: Vec<Entry> = leaf_groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|group| {
            let leaf = PointColumns::from_rows(dims, group.iter().map(|&i| points[i].as_slice()));
            push_entry(core, bt_anytree::Node::leaf(leaf))
        })
        .collect();

    finish_bottom_up(core, entries, &group_fn);
    tree.num_points = points.len();
    tree.fit_bandwidth();
    tree
}

/// Adds `node` to the shard under construction and returns the entry (MBR
/// + CF + pointer) describing it.
pub(crate) fn push_entry(core: &mut BayesCore<KernelSummary>, node: Node) -> Entry {
    let id = core.push_node(node);
    summarise(core, id)
}

/// Stacks directory levels over already-built leaf entries of `core` and
/// installs the root.  Shared by the packed loads and the Goldberger load.
pub(crate) fn finish_bottom_up<G>(
    core: &mut BayesCore<KernelSummary>,
    mut entries: Vec<Entry>,
    group_fn: &G,
) where
    G: Fn(&[Vec<f64>], usize) -> Vec<Vec<usize>>,
{
    let geometry = core.geometry();
    if entries.len() == 1 && core.node(entries[0].child).is_leaf() {
        // Special case: everything fits into one leaf — make it the root.
        core.set_root(entries[0].child, 1);
    } else if !entries.is_empty() {
        while entries.len() > geometry.max_fanout {
            let reps: Vec<Vec<f64>> = entries.iter().map(|e| e.cf.mean()).collect();
            let groups = group_fn(&reps, geometry.max_fanout);
            let mut next = Vec::with_capacity(groups.len());
            for group in groups {
                if group.is_empty() {
                    continue;
                }
                let node_entries: Vec<Entry> = group.iter().map(|&i| entries[i].clone()).collect();
                next.push(push_entry(
                    core,
                    bt_anytree::Node::inner(crate::node::entries_block(&node_entries)),
                ));
            }
            // A grouping that fails to reduce the entry count would loop
            // forever; fall back to a single extra level holding everything.
            if next.len() >= entries.len() {
                entries = next;
                break;
            }
            entries = next;
        }
        let root = core.push_node(bt_anytree::Node::inner(crate::node::entries_block(
            &entries,
        )));
        let height = core.measure_depth(root);
        core.set_root(root, height);
    }
    // The single commit point of every bottom-up bulk load: whatever the
    // branch above assembled is published as an epoch.
    core.publish_epoch();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.random::<f64>() * 20.0).collect())
            .collect()
    }

    #[test]
    fn every_method_builds_a_valid_tree() {
        let points = random_points(300, 3, 1);
        let geometry = PageGeometry::from_fanout(5, 8);
        for method in BulkLoadMethod::all() {
            let tree = build_tree(&points, 3, geometry, method, 7);
            assert_eq!(tree.len(), 300, "{method:?}");
            tree.validate(method.guarantees_balance())
                .unwrap_or_else(|e| panic!("{method:?}: {e}"));
            let total: f64 = tree.root_entries().iter().map(|e| e.weight()).sum();
            assert!((total - 300.0).abs() < 1e-6, "{method:?}");
        }
    }

    #[test]
    fn bulk_methods_agree_on_the_full_model() {
        // Whatever the construction, refining everything must converge to the
        // same kernel density estimate (same points, same bandwidth).
        let points = random_points(120, 2, 2);
        let geometry = PageGeometry::from_fanout(4, 6);
        let query = [10.0, 10.0];
        let mut densities = Vec::new();
        for method in BulkLoadMethod::all() {
            let mut tree = build_tree(&points, 2, geometry, method, 3);
            tree.set_bandwidth(vec![1.0, 1.0]);
            densities.push(tree.full_kernel_density(&query));
        }
        for d in &densities {
            assert!((d - densities[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let geometry = PageGeometry::from_fanout(4, 6);
        for method in BulkLoadMethod::all() {
            let tree = build_tree(&[], 2, geometry, method, 1);
            assert!(tree.is_empty(), "{method:?}");
        }
    }

    #[test]
    fn single_point_builds_leaf_root() {
        let geometry = PageGeometry::from_fanout(4, 6);
        for method in BulkLoadMethod::all() {
            let tree = build_tree(&[vec![1.0, 2.0]], 2, geometry, method, 1);
            assert_eq!(tree.len(), 1, "{method:?}");
            assert_eq!(tree.height(), 1, "{method:?}");
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(BulkLoadMethod::EmTopDown.name(), "EMTopDown");
        assert_eq!(BulkLoadMethod::Iterative.name(), "Iterativ");
        assert_eq!(BulkLoadMethod::Goldberger.name(), "Goldberger");
        assert_eq!(BulkLoadMethod::Hilbert.name(), "Hilbert");
    }

    #[test]
    fn paper_figures_selects_four_methods() {
        assert_eq!(BulkLoadMethod::paper_figures().len(), 4);
    }
}
