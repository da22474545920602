//! Space-filling-curve and partitioning bulk loads.
//!
//! These are the "traditional R-tree bulk loading algorithms" of Section 3.1:
//! order the kernels along a Hilbert or Z curve (or tile them with STR), cut
//! the ordering into leaf pages, and repeat the procedure on the node mean
//! vectors until a single root remains.

use crate::bulk::build_packed;
use crate::insert::{check_points, or_panic};
use crate::tree::BayesTree;
use bt_index::{hilbert_sort_order, str_partition, z_order_sort_order, PageGeometry};

/// Bits per dimension used when quantising points onto the space-filling
/// curves (capped automatically so keys fit into 128 bits).
const CURVE_BITS: u32 = 16;

/// Hilbert-curve bulk load.
///
/// # Panics
///
/// Panics if any point has the wrong dimensionality or a non-finite
/// coordinate.
#[must_use]
pub fn build_hilbert(points: &[Vec<f64>], dims: usize, geometry: PageGeometry) -> BayesTree {
    or_panic(check_points(points, dims));
    build_packed(points, dims, geometry, hilbert_groups)
}

/// Z-order (Morton) bulk load.
///
/// # Panics
///
/// Panics if any point has the wrong dimensionality or a non-finite
/// coordinate.
#[must_use]
pub fn build_zorder(points: &[Vec<f64>], dims: usize, geometry: PageGeometry) -> BayesTree {
    or_panic(check_points(points, dims));
    build_packed(points, dims, geometry, zorder_groups)
}

/// Sort-tile-recursive bulk load.
///
/// # Panics
///
/// Panics if any point has the wrong dimensionality or a non-finite
/// coordinate.
#[must_use]
pub fn build_str(points: &[Vec<f64>], dims: usize, geometry: PageGeometry) -> BayesTree {
    or_panic(check_points(points, dims));
    build_packed(points, dims, geometry, str_partition)
}

/// Groups of at most `capacity` consecutive points along the Hilbert curve.
pub(crate) fn hilbert_groups(points: &[Vec<f64>], capacity: usize) -> Vec<Vec<usize>> {
    chunk_order(&hilbert_sort_order(points, CURVE_BITS), capacity)
}

/// Groups of at most `capacity` consecutive points along the Z curve.
pub(crate) fn zorder_groups(points: &[Vec<f64>], capacity: usize) -> Vec<Vec<usize>> {
    chunk_order(&z_order_sort_order(points, CURVE_BITS), capacity)
}

/// Cuts an ordering of indices into consecutive groups of `capacity`.
fn chunk_order(order: &[usize], capacity: usize) -> Vec<Vec<usize>> {
    order
        .chunks(capacity.max(1))
        .map(<[usize]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let cx = (i % 4) as f64 * 50.0;
                vec![cx + rng.random::<f64>(), cx + rng.random::<f64>()]
            })
            .collect()
    }

    #[test]
    fn hilbert_load_is_balanced_and_complete() {
        let pts = clustered_points(500, 1);
        let tree = build_hilbert(&pts, 2, PageGeometry::from_fanout(5, 10));
        assert_eq!(tree.len(), 500);
        tree.validate(true).expect("balanced and consistent");
        assert!(tree.height() >= 3);
    }

    #[test]
    fn zorder_load_is_balanced_and_complete() {
        let pts = clustered_points(300, 2);
        let tree = build_zorder(&pts, 2, PageGeometry::from_fanout(4, 8));
        assert_eq!(tree.len(), 300);
        tree.validate(true).expect("balanced and consistent");
    }

    #[test]
    fn str_load_is_balanced_and_complete() {
        let pts = clustered_points(400, 3);
        let tree = build_str(&pts, 2, PageGeometry::from_fanout(4, 8));
        assert_eq!(tree.len(), 400);
        tree.validate(true).expect("balanced and consistent");
    }

    #[test]
    fn packed_leaves_are_fuller_than_iterative_ones() {
        // Bulk loading exists to produce a compact tree; the packed tree
        // should not have more nodes than the iteratively built one.
        let pts = clustered_points(600, 4);
        let geometry = PageGeometry::from_fanout(5, 10);
        let packed = build_hilbert(&pts, 2, geometry);
        let iterative: BayesTree = BayesTree::build_iterative(&pts, 2, geometry);
        assert!(packed.num_nodes() <= iterative.num_nodes());
    }

    #[test]
    fn chunk_order_covers_every_index_once() {
        let order = vec![4, 2, 0, 1, 3];
        let chunks = chunk_order(&order, 2);
        assert_eq!(chunks, vec![vec![4, 2], vec![0, 1], vec![3]]);
    }

    #[test]
    fn small_input_becomes_single_leaf_root() {
        let pts = clustered_points(5, 5);
        let tree = build_hilbert(&pts, 2, PageGeometry::from_fanout(4, 10));
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.len(), 5);
    }
}
