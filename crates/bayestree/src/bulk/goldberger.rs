//! Goldberger bulk load (Section 3.1).
//!
//! Bottom-up statistical construction: the training set is viewed as a fine
//! mixture model with one kernel per object; a coarser mixture with one
//! component per page is computed with the Goldberger & Roweis regroup/refit
//! iteration (initialised by the z-curve order of the component means,
//! `0.75 * capacity` fine components per coarse component); the coarse
//! components become Bayes-tree nodes and the procedure repeats one level up
//! until a single root remains.
//!
//! Because the converged mapping may assign more than the page capacity to a
//! single coarse component, a post-processing pass splits over-full groups
//! (two representatives obtained by shifting the group mean along its
//! highest-variance dimension, members re-assigned by KL divergence) and
//! merges under-full groups into their KL-closest neighbour.

use crate::bulk::{finish_bottom_up, push_entry};
use crate::node::{Entry, KernelSummary};
use crate::tree::{BayesCore, BayesTree};
use bt_index::{z_order_sort_order, PageGeometry};
use bt_stats::bandwidth::silverman_bandwidth;
use bt_stats::goldberger::{chunked_mapping, reduce_mixture, GoldbergerConfig};
use bt_stats::kl::kl_diag_gaussian;
use bt_stats::mixture::{GaussianMixture, WeightedComponent};
use bt_stats::DiagGaussian;

/// Tuning knobs of the Goldberger bulk load.
#[derive(Debug, Clone)]
pub struct GoldbergerBulkConfig {
    /// Fraction of the node capacity used for the initial mapping's group
    /// size (the paper uses 0.75).
    pub initial_fill: f64,
    /// Inner regroup/refit configuration.
    pub reduction: GoldbergerConfig,
    /// Bits per dimension for the z-curve used in the initial mapping.
    pub curve_bits: u32,
}

impl Default for GoldbergerBulkConfig {
    fn default() -> Self {
        Self {
            initial_fill: 0.75,
            reduction: GoldbergerConfig::default(),
            curve_bits: 16,
        }
    }
}

/// One fine component handed to the per-level partitioning step.
#[derive(Debug, Clone)]
struct Component {
    weight: f64,
    gaussian: DiagGaussian,
}

/// Builds a Bayes tree with the Goldberger bulk load.
///
/// # Panics
///
/// Panics if any point has a non-finite coordinate.
#[must_use]
pub fn build_goldberger(
    points: &[Vec<f64>],
    dims: usize,
    geometry: PageGeometry,
    config: &GoldbergerBulkConfig,
) -> BayesTree {
    crate::insert::assert_finite(points);
    let mut tree: BayesTree = BayesTree::new(dims, geometry);
    if points.is_empty() {
        return tree;
    }

    // Fine mixture at the leaf level: one kernel per training object, with
    // the Silverman bandwidth as its variance.
    let bandwidth = silverman_bandwidth(points, dims);
    let variance: Vec<f64> = bandwidth.iter().map(|h| h * h).collect();
    let kernel_components: Vec<Component> = points
        .iter()
        .map(|p| Component {
            weight: 1.0 / points.len() as f64,
            gaussian: DiagGaussian::new(p.clone(), variance.clone()),
        })
        .collect();

    // Partition the kernels into leaf pages.
    let leaf_groups = goldberger_partition(
        &kernel_components,
        geometry.max_leaf,
        geometry.min_leaf,
        config,
    );
    let core = tree.shard_mut(0);
    let entries: Vec<Entry> = leaf_groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|group| {
            let leaf_points: Vec<Vec<f64>> = group.iter().map(|&i| points[i].clone()).collect();
            push_entry(core, bt_anytree::Node::leaf(leaf_points))
        })
        .collect();

    // Stack directory levels, partitioning the entry Gaussians the same way.
    let entries = build_directory_levels(core, entries, config);
    finish_bottom_up(core, entries, &|reps, capacity| {
        // Final fallback grouping when a single root-level pass is still
        // needed: plain z-curve chunks (only reached for tiny inputs).
        let order = z_order_sort_order(reps, config.curve_bits);
        order
            .chunks(capacity.max(1))
            .map(<[usize]>::to_vec)
            .collect()
    });
    tree.num_points = points.len();
    tree.set_bandwidth(bandwidth);
    tree
}

/// Builds directory levels with Goldberger partitioning until the remaining
/// entries fit into a single root node.
fn build_directory_levels(
    core: &mut BayesCore<KernelSummary>,
    mut entries: Vec<Entry>,
    config: &GoldbergerBulkConfig,
) -> Vec<Entry> {
    let geometry = core.geometry();
    while entries.len() > geometry.max_fanout {
        let total_weight: f64 = entries.iter().map(|e| e.weight()).sum();
        let components: Vec<Component> = entries
            .iter()
            .map(|e| Component {
                weight: e.weight() / total_weight,
                gaussian: e.gaussian(),
            })
            .collect();
        let groups = goldberger_partition(
            &components,
            geometry.max_fanout,
            geometry.min_fanout,
            config,
        );
        let mut next = Vec::with_capacity(groups.len());
        for group in groups {
            if group.is_empty() {
                continue;
            }
            let node_entries: Vec<Entry> = group.iter().map(|&i| entries[i].clone()).collect();
            next.push(push_entry(core, bt_anytree::Node::inner(node_entries)));
        }
        // Guard against a degenerate partition that failed to reduce the
        // entry count (cannot normally happen, but protects against an
        // infinite loop on adversarial inputs).
        if next.len() >= entries.len() {
            break;
        }
        entries = next;
    }
    entries
}

/// Partitions fine components into groups of at most `capacity` (and, where
/// possible, at least `min_size`) following the paper's procedure.
fn goldberger_partition(
    components: &[Component],
    capacity: usize,
    min_size: usize,
    config: &GoldbergerBulkConfig,
) -> Vec<Vec<usize>> {
    assert!(capacity >= 2, "capacity must be at least 2");
    if components.len() <= capacity {
        return vec![(0..components.len()).collect()];
    }

    // Initial mapping: 0.75 * capacity consecutive components per group in
    // z-curve order of the means.
    let means: Vec<Vec<f64>> = components
        .iter()
        .map(|c| c.gaussian.mean().to_vec())
        .collect();
    let order = z_order_sort_order(&means, config.curve_bits);
    let group_size = ((capacity as f64 * config.initial_fill).floor() as usize).max(1);
    let initial_mapping = chunked_mapping(&order, group_size);

    // Regroup / refit.
    let fine = GaussianMixture::from_components(
        components
            .iter()
            .map(|c| WeightedComponent {
                weight: c.weight,
                gaussian: c.gaussian.clone(),
            })
            .collect(),
    );
    let result = reduce_mixture(&fine, &initial_mapping, &config.reduction);

    // Collect groups from the final mapping.
    let num_groups = result.mapping.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
    for (i, &g) in result.mapping.iter().enumerate() {
        groups[g].push(i);
    }
    groups.retain(|g| !g.is_empty());

    // Post-processing: split over-full groups...
    let mut final_groups: Vec<Vec<usize>> = Vec::new();
    for group in groups {
        if group.len() <= capacity {
            final_groups.push(group);
        } else {
            split_group(components, group, capacity, &mut final_groups);
        }
    }
    // ...and merge under-full groups into their KL-closest neighbour.
    merge_small_groups(components, &mut final_groups, capacity, min_size);
    final_groups
}

/// Recursively splits a group along its highest-variance dimension by placing
/// two representative Gaussians at `mean ± epsilon` and re-assigning members
/// by KL divergence.
fn split_group(
    components: &[Component],
    group: Vec<usize>,
    capacity: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if group.len() <= capacity {
        out.push(group);
        return;
    }
    let (mean, variance) = moment_match(components, &group);
    let split_dim = variance
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(d, _)| d);
    let epsilon = variance[split_dim].sqrt().max(1e-6);
    let mut low_mean = mean.clone();
    let mut high_mean = mean.clone();
    low_mean[split_dim] -= epsilon;
    high_mean[split_dim] += epsilon;
    let low_rep = DiagGaussian::new(low_mean, variance.clone());
    let high_rep = DiagGaussian::new(high_mean, variance);

    let mut low = Vec::new();
    let mut high = Vec::new();
    for &i in &group {
        let to_low = kl_diag_gaussian(&components[i].gaussian, &low_rep)
            <= kl_diag_gaussian(&components[i].gaussian, &high_rep);
        if to_low {
            low.push(i);
        } else {
            high.push(i);
        }
    }
    // Degenerate assignment (all members identical): cut in half.
    if low.is_empty() || high.is_empty() {
        let mid = group.len() / 2;
        low = group[..mid].to_vec();
        high = group[mid..].to_vec();
    }
    split_group(components, low, capacity, out);
    split_group(components, high, capacity, out);
}

/// Merges groups smaller than `min_size` into the KL-closest other group with
/// room, as long as such a group exists.
fn merge_small_groups(
    components: &[Component],
    groups: &mut Vec<Vec<usize>>,
    capacity: usize,
    min_size: usize,
) {
    loop {
        let Some(small_idx) = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.len() < min_size)
            .min_by_key(|(_, g)| g.len())
            .map(|(i, _)| i)
        else {
            return;
        };
        if groups.len() <= 1 {
            return;
        }
        let (small_mean, small_var) = moment_match(components, &groups[small_idx]);
        let small_gaussian = DiagGaussian::new(small_mean, small_var);
        let mut best: Option<(usize, f64)> = None;
        for (j, g) in groups.iter().enumerate() {
            if j == small_idx || g.len() + groups[small_idx].len() > capacity {
                continue;
            }
            let (m, v) = moment_match(components, g);
            let kl = kl_diag_gaussian(&small_gaussian, &DiagGaussian::new(m, v));
            if best.is_none_or(|(_, b)| kl < b) {
                best = Some((j, kl));
            }
        }
        let Some((target, _)) = best else {
            // Nothing has room: leave the small group as is.
            return;
        };
        let small = groups.remove(small_idx);
        let target = if target > small_idx {
            target - 1
        } else {
            target
        };
        groups[target].extend(small);
    }
}

/// Weight-respecting moment matching of a set of components.
fn moment_match(components: &[Component], group: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let dims = components[group[0]].gaussian.dims();
    let total: f64 = group.iter().map(|&i| components[i].weight).sum();
    let total = if total > 0.0 { total } else { 1.0 };
    let mut mean = vec![0.0; dims];
    for &i in group {
        for (m, g) in mean.iter_mut().zip(components[i].gaussian.mean()) {
            *m += components[i].weight * g;
        }
    }
    for m in &mut mean {
        *m /= total;
    }
    let mut var = vec![0.0; dims];
    for &i in group {
        let c = &components[i];
        for ((v, &m), (g_mean, g_var)) in var
            .iter_mut()
            .zip(&mean)
            .zip(c.gaussian.mean().iter().zip(c.gaussian.variance()))
        {
            let diff = g_mean - m;
            *v += c.weight * (g_var + diff * diff);
        }
    }
    for v in &mut var {
        *v = (*v / total).max(bt_stats::VARIANCE_FLOOR);
    }
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = (i % 3) as f64 * 30.0;
                (0..dims).map(|_| c + rng.random::<f64>() * 3.0).collect()
            })
            .collect()
    }

    #[test]
    fn goldberger_tree_is_valid_and_complete() {
        let pts = random_points(400, 3, 1);
        let tree = build_goldberger(
            &pts,
            3,
            PageGeometry::from_fanout(5, 10),
            &GoldbergerBulkConfig::default(),
        );
        assert_eq!(tree.len(), 400);
        tree.validate(true).expect("valid Goldberger tree");
    }

    #[test]
    fn leaf_capacity_is_respected() {
        let pts = random_points(300, 2, 2);
        let geometry = PageGeometry::from_fanout(4, 8);
        let tree = build_goldberger(&pts, 2, geometry, &GoldbergerBulkConfig::default());
        // validate() already checks leaf capacity; re-check the top level
        // fanout explicitly.
        assert!(tree.root_entries().len() <= geometry.max_fanout);
    }

    #[test]
    fn clustered_data_produces_tight_top_level_mbrs() {
        // Three well-separated clusters: the root entries should not all span
        // the whole data range.
        let pts = random_points(300, 2, 3);
        let tree = build_goldberger(
            &pts,
            2,
            PageGeometry::from_fanout(4, 12),
            &GoldbergerBulkConfig::default(),
        );
        let full_extent = 63.0; // roughly max coordinate
        let any_tight = tree
            .root_entries()
            .iter()
            .any(|e| e.mbr.extent(0) < full_extent * 0.75);
        assert!(
            any_tight,
            "expected at least one spatially confined root entry"
        );
    }

    #[test]
    fn partition_respects_capacity() {
        let pts = random_points(200, 2, 4);
        let components: Vec<Component> = pts
            .iter()
            .map(|p| Component {
                weight: 1.0 / 200.0,
                gaussian: DiagGaussian::new(p.clone(), vec![0.5, 0.5]),
            })
            .collect();
        let groups = goldberger_partition(&components, 16, 6, &GoldbergerBulkConfig::default());
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        assert!(groups.iter().all(|g| g.len() <= 16));
    }

    #[test]
    fn tiny_input_single_group() {
        let components: Vec<Component> = (0..3)
            .map(|i| Component {
                weight: 1.0 / 3.0,
                gaussian: DiagGaussian::new(vec![i as f64], vec![1.0]),
            })
            .collect();
        let groups = goldberger_partition(&components, 8, 3, &GoldbergerBulkConfig::default());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn split_group_handles_identical_members() {
        let components: Vec<Component> = (0..10)
            .map(|_| Component {
                weight: 0.1,
                gaussian: DiagGaussian::new(vec![5.0, 5.0], vec![0.1, 0.1]),
            })
            .collect();
        let mut out = Vec::new();
        split_group(&components, (0..10).collect(), 4, &mut out);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        assert!(out.iter().all(|g| g.len() <= 4));
    }
}
