//! Sharded quickstart: the same anytime trees, spread over `K` shards that
//! descend in parallel.  `BayesTree::new` / `ClusTree::new` build one
//! shard; `BayesTree::sharded` / `ClusTree::sharded` build `K` of the same
//! type.
//!
//! Run with `cargo run --release --example sharded_quickstart`.
//!
//! Three things to see here:
//!
//! 1. **Stream clustering scales out**: a `ClusTree` of `K` shards inserts
//!    each mini-batch across all shards on scoped threads; purity holds
//!    while throughput follows the core count.
//! 2. **Classifier training scales out**: the per-class Bayes trees are
//!    independent, so `train_sharded` builds them on worker threads and the
//!    result is bit-identical to sequential training.
//! 3. **The density model does not care about sharding**: kernel densities
//!    are sums over kernels, so a `BayesTree` of `K` shards has the
//!    full-model estimate of a one-shard tree.

use anytime_stream_mining::bayestree::{AnytimeClassifier, BayesTree, ClassifierConfig};
use anytime_stream_mining::clustree::ClusTreeConfig;
use anytime_stream_mining::clustree::DbscanConfig;
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::data::synth::blobs::BlobConfig;
use anytime_stream_mining::eval::sharding::{
    classifier_shard_sweep, clustering_shard_sweep, format_classifier_shard_sweep,
    format_clustering_shard_sweep,
};
use anytime_stream_mining::index::PageGeometry;

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("running on {cpus} CPUs\n");

    // 1. Stream clustering across shards: quality and throughput per K.
    let stream = DriftingStream::new(4, 3, 0.3, 0.002, 17).generate(4_000);
    println!("sharded stream clustering (4000 objects, budget 8, batch 256):");
    let rows = clustering_shard_sweep(
        &stream,
        &[1, 2, 4, 8],
        8,
        256,
        &ClusTreeConfig::default(),
        &DbscanConfig {
            epsilon: 2.0,
            min_weight: 10.0,
        },
    );
    println!("{}", format_clustering_shard_sweep(&rows));

    // 2. Sharded classifier training: same model, parallel construction.
    let dataset = BlobConfig::new(4, 6)
        .samples_per_class(200)
        .clusters_per_class(2)
        .seed(7)
        .generate();
    println!("sharded classifier training (4 classes, budget 25):");
    let rows = classifier_shard_sweep(&dataset, &[1, 2, 4], 25, &ClassifierConfig::default());
    println!("{}", format_classifier_shard_sweep(&rows));
    let baseline = AnytimeClassifier::train(&dataset, &ClassifierConfig::default());
    let sharded = AnytimeClassifier::train_sharded(&dataset, &ClassifierConfig::default(), 4);
    assert_eq!(baseline.priors(), sharded.priors());
    println!("sharded training is bit-identical to sequential training\n");

    // 3. Sharded kernel density == single-tree kernel density.
    let geometry = PageGeometry::from_fanout(4, 8);
    let points: Vec<Vec<f64>> = dataset.features().to_vec();
    let mut single: BayesTree = BayesTree::new(dataset.dims(), geometry);
    let mut sharded: BayesTree = BayesTree::sharded(dataset.dims(), geometry, 4);
    for chunk in points.chunks(128) {
        single.insert_batch(chunk.to_vec());
        let _ = sharded.insert_batch(chunk.to_vec());
    }
    let bandwidth = vec![0.5; dataset.dims()];
    single.set_bandwidth(bandwidth.clone());
    sharded.set_bandwidth(bandwidth);
    let q = dataset.feature(0);
    let a = single.full_kernel_density(q);
    let b = sharded.full_kernel_density(q);
    println!(
        "full kernel density at a training point: single {a:.6}, sharded over {} shards {b:.6}",
        sharded.num_shards()
    );
    assert!((a - b).abs() < 1e-12 * (1.0 + a.abs()));
    println!("identical — sharding only changes how the kernel sum is organised");
}
