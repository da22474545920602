//! Stream simulation.
//!
//! The paper distinguishes *constant* streams (fixed inter-arrival time) from
//! *varying* streams (fluctuating amount of data per time unit, e.g. Poisson
//! arrivals) — the case anytime algorithms are designed for (Section 1).  The
//! interruption model used throughout the evaluation counts *node reads*:
//! an object arriving `dt` time units before the next one may refine its
//! model by `floor(dt / cost_per_node)` nodes.
//!
//! [`StreamSimulator`] turns a [`Dataset`] into a sequence of
//! [`StreamItem`]s carrying that per-object node budget, either with constant
//! or exponentially distributed (Poisson process) inter-arrival times.
//! [`DriftingStream`] additionally moves the class centroids over time to
//! exercise the clustering extension's decay machinery.

use crate::dataset::Dataset;
use bt_stats::gaussian::standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One stream arrival: an observation, its label, its arrival time and the
/// node budget available before the next arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamItem {
    /// The observation.
    pub features: Vec<f64>,
    /// Its true class label (used for evaluation, not given to the classifier).
    pub label: usize,
    /// Arrival time in abstract time units.
    pub arrival_time: f64,
    /// Number of tree nodes that may be read before the next arrival.
    pub node_budget: usize,
}

/// Common interface of the stream simulators.
pub trait StreamSimulator {
    /// Produces the stream of arrivals for `dataset` in its current order.
    fn simulate(&self, dataset: &Dataset) -> Vec<StreamItem>;
}

/// A constant-rate stream: every object gets exactly the same node budget.
#[derive(Debug, Clone, Copy)]
pub struct ConstantStream {
    /// Inter-arrival time between consecutive objects.
    pub inter_arrival: f64,
    /// Time needed to read one node.
    pub cost_per_node: f64,
}

impl ConstantStream {
    /// Creates a constant stream with the given inter-arrival time and
    /// per-node cost.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    #[must_use]
    pub fn new(inter_arrival: f64, cost_per_node: f64) -> Self {
        assert!(inter_arrival > 0.0, "inter-arrival time must be positive");
        assert!(cost_per_node > 0.0, "per-node cost must be positive");
        Self {
            inter_arrival,
            cost_per_node,
        }
    }

    /// The node budget every object receives.
    #[must_use]
    pub fn budget(&self) -> usize {
        (self.inter_arrival / self.cost_per_node).floor() as usize
    }
}

impl StreamSimulator for ConstantStream {
    fn simulate(&self, dataset: &Dataset) -> Vec<StreamItem> {
        let budget = self.budget();
        dataset
            .iter()
            .enumerate()
            .map(|(i, (f, &l))| StreamItem {
                features: f.to_vec(),
                label: l,
                arrival_time: i as f64 * self.inter_arrival,
                node_budget: budget,
            })
            .collect()
    }
}

/// A Poisson-process stream: exponential inter-arrival times, so node budgets
/// vary from object to object (the "varying stream" of the paper).
#[derive(Debug, Clone, Copy)]
pub struct PoissonStream {
    /// Expected number of arrivals per time unit.
    pub rate: f64,
    /// Time needed to read one node.
    pub cost_per_node: f64,
    /// Maximum node budget handed to any single object (guards against the
    /// unbounded tail of the exponential distribution).
    pub max_budget: usize,
    /// RNG seed, so streams are reproducible.
    pub seed: u64,
}

impl PoissonStream {
    /// Creates a Poisson stream with the given arrival rate and per-node cost.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `cost_per_node` is not positive.
    #[must_use]
    pub fn new(rate: f64, cost_per_node: f64, seed: u64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        assert!(cost_per_node > 0.0, "per-node cost must be positive");
        Self {
            rate,
            cost_per_node,
            max_budget: 10_000,
            seed,
        }
    }
}

impl StreamSimulator for PoissonStream {
    fn simulate(&self, dataset: &Dataset) -> Vec<StreamItem> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut time = 0.0;
        let mut items = Vec::with_capacity(dataset.len());
        for (f, &l) in dataset.iter() {
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = 1.0 - rng.random::<f64>();
            let dt = -u.ln() / self.rate;
            let budget = ((dt / self.cost_per_node).floor() as usize).min(self.max_budget);
            items.push(StreamItem {
                features: f.to_vec(),
                label: l,
                arrival_time: time,
                node_budget: budget,
            });
            time += dt;
        }
        items
    }
}

/// A synthetic evolving stream for the clustering extension: `clusters`
/// Gaussian sources whose centres drift with constant random velocity.
#[derive(Debug, Clone)]
pub struct DriftingStream {
    /// Number of Gaussian sources.
    pub clusters: usize,
    /// Dimensionality of the generated points.
    pub dims: usize,
    /// Standard deviation of each source.
    pub spread: f64,
    /// Distance each centre moves per emitted point.
    pub drift_per_item: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DriftingStream {
    /// Creates a drifting stream generator.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` or `dims` is zero, or `spread` is not positive.
    #[must_use]
    pub fn new(clusters: usize, dims: usize, spread: f64, drift_per_item: f64, seed: u64) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(dims > 0, "need at least one dimension");
        assert!(spread > 0.0, "spread must be positive");
        Self {
            clusters,
            dims,
            spread,
            drift_per_item,
            seed,
        }
    }

    /// Generates `count` points; the returned label is the source cluster.
    #[must_use]
    pub fn generate(&self, count: usize) -> Vec<(Vec<f64>, usize)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Initial centres spread out on a coarse grid, velocities random.
        let mut centers: Vec<Vec<f64>> = (0..self.clusters)
            .map(|c| {
                (0..self.dims)
                    .map(|d| ((c * 7 + d * 3) % 10) as f64 + rng.random::<f64>())
                    .collect()
            })
            .collect();
        let velocities: Vec<Vec<f64>> = (0..self.clusters)
            .map(|_| {
                let v: Vec<f64> = (0..self.dims).map(|_| standard_normal(&mut rng)).collect();
                let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
                v.iter().map(|x| x / norm * self.drift_per_item).collect()
            })
            .collect();

        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let c = i % self.clusters;
            let point: Vec<f64> = (0..self.dims)
                .map(|d| centers[c][d] + self.spread * standard_normal(&mut rng))
                .collect();
            out.push((point, c));
            for d in 0..self.dims {
                centers[c][d] += velocities[c][d];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::generic_class_names;

    fn dataset(n: usize) -> Dataset {
        let features: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Dataset::from_parts("s", 1, generic_class_names(2), features, labels)
    }

    #[test]
    fn constant_stream_gives_uniform_budgets() {
        let stream = ConstantStream::new(10.0, 2.0);
        let items = stream.simulate(&dataset(5));
        assert_eq!(items.len(), 5);
        assert!(items.iter().all(|i| i.node_budget == 5));
        assert_eq!(items[3].arrival_time, 30.0);
    }

    #[test]
    fn poisson_stream_varies_budgets() {
        let stream = PoissonStream::new(0.5, 0.1, 42);
        let items = stream.simulate(&dataset(200));
        let budgets: Vec<usize> = items.iter().map(|i| i.node_budget).collect();
        let min = budgets.iter().min().unwrap();
        let max = budgets.iter().max().unwrap();
        assert!(max > min, "Poisson budgets should vary");
        // Mean budget should be near 1 / (rate * cost) = 20.
        let mean: f64 = budgets.iter().sum::<usize>() as f64 / budgets.len() as f64;
        assert!((mean - 20.0).abs() < 5.0, "mean budget {mean}");
    }

    #[test]
    fn poisson_stream_is_reproducible() {
        let a = PoissonStream::new(1.0, 1.0, 7).simulate(&dataset(50));
        let b = PoissonStream::new(1.0, 1.0, 7).simulate(&dataset(50));
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_arrival_times_increase() {
        let items = PoissonStream::new(2.0, 0.5, 3).simulate(&dataset(50));
        for w in items.windows(2) {
            assert!(w[1].arrival_time >= w[0].arrival_time);
        }
    }

    #[test]
    fn stream_preserves_labels_and_features() {
        let ds = dataset(10);
        let items = ConstantStream::new(1.0, 1.0).simulate(&ds);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.features, ds.feature(i));
            assert_eq!(item.label, ds.label(i));
        }
    }

    #[test]
    fn drifting_stream_centres_actually_move() {
        let gen = DriftingStream::new(2, 2, 0.1, 0.5, 11);
        let pts = gen.generate(400);
        // Average position of cluster 0 early vs late should differ clearly.
        let early: Vec<&Vec<f64>> = pts[..100]
            .iter()
            .filter(|(_, c)| *c == 0)
            .map(|(p, _)| p)
            .collect();
        let late: Vec<&Vec<f64>> = pts[300..]
            .iter()
            .filter(|(_, c)| *c == 0)
            .map(|(p, _)| p)
            .collect();
        let mean = |v: &[&Vec<f64>]| {
            let mut m = [0.0; 2];
            for p in v {
                m[0] += p[0];
                m[1] += p[1];
            }
            m.iter().map(|x| x / v.len() as f64).collect::<Vec<f64>>()
        };
        let em = mean(&early);
        let lm = mean(&late);
        let dist = ((em[0] - lm[0]).powi(2) + (em[1] - lm[1]).powi(2)).sqrt();
        assert!(dist > 5.0, "centres drifted only {dist}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonStream::new(0.0, 1.0, 0);
    }
}
