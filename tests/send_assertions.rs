//! Static `Send`/`Sync` assertions: the concurrency contract of the shared
//! core and both instantiations, checked at compile time so a stray `Rc`,
//! `RefCell` or raw pointer in a payload can never silently regress the
//! sharded trees' ability to cross threads.

use anytime_stream_mining::anytree::{
    AnytimeTree, CheapestRouter, DescentCursor, FixedPartitionRouter, QueryCursor,
    ShardedAnytimeTree, ShardedTreeSnapshot, TreeSnapshot,
};
use anytime_stream_mining::bayestree::{
    AnytimeClassifier, BayesTree, BayesTreeSnapshot, ClassifierSnapshot, KernelSummary,
    PointColumns,
};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeSnapshot, MicroCluster};
use anytime_stream_mining::data::Dataset;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn the_shared_core_is_send() {
    // The generic core with both real payload instantiations.
    assert_send::<AnytimeTree<KernelSummary, PointColumns>>();
    assert_send::<AnytimeTree<MicroCluster, Vec<MicroCluster>>>();
    // Cursors carry in-flight objects across steps (and, in sharded trees,
    // live on worker threads).
    assert_send::<DescentCursor<Vec<f64>>>();
    assert_send::<DescentCursor<MicroCluster>>();
    // Query cursors are per-shard worker state of the parallel query path:
    // the fold lends this thread's pooled cursors to its scoped workers.
    assert_send::<QueryCursor>();
}

#[test]
fn the_sharded_trees_are_send() {
    assert_send::<ShardedAnytimeTree<KernelSummary, PointColumns, CheapestRouter>>();
    assert_send::<ShardedAnytimeTree<MicroCluster, MicroCluster, FixedPartitionRouter>>();
    assert_send::<BayesTree<f64, FixedPartitionRouter>>();
    assert_send::<ClusTree<FixedPartitionRouter>>();
}

#[test]
fn the_workload_layers_are_send() {
    assert_send::<BayesTree>();
    assert_send::<ClusTree>();
    assert_send::<AnytimeClassifier>();
}

#[test]
fn shared_read_state_is_sync() {
    // Sharded training reads the data set and the trees from worker
    // threads; per-shard models read the clustering configuration; the
    // parallel query path shares every shard tree immutably across its
    // scoped workers.
    assert_sync::<Dataset>();
    assert_sync::<BayesTree>();
    assert_sync::<anytime_stream_mining::clustree::ClusTreeConfig>();
    assert_sync::<AnytimeTree<KernelSummary, PointColumns>>();
    assert_sync::<AnytimeTree<MicroCluster, Vec<MicroCluster>>>();
    assert_sync::<BayesTree<f64, FixedPartitionRouter>>();
    assert_sync::<ClusTree<FixedPartitionRouter>>();
}

#[test]
fn snapshots_are_send_and_sync() {
    // Epoch-pinned snapshots are the reader-side handoff of the pipelined
    // mode: they are sent to reader threads and shared across scoped
    // workers while the writers keep mutating the live trees.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TreeSnapshot<KernelSummary, PointColumns>>();
    assert_send_sync::<TreeSnapshot<MicroCluster, Vec<MicroCluster>>>();
    assert_send_sync::<ShardedTreeSnapshot<KernelSummary, PointColumns>>();
    assert_send_sync::<ShardedTreeSnapshot<MicroCluster, Vec<MicroCluster>>>();
    // One snapshot type per family covers the plain (one-shard) and the
    // sharded trees.
    assert_send_sync::<BayesTreeSnapshot>();
    assert_send_sync::<ClassifierSnapshot>();
    assert_send_sync::<ClusTreeSnapshot>();
}
