//! Pipelined stream processing: query every tree while batches are in
//! flight.
//!
//! Run with `cargo run --release --example pipelined_stream`.
//!
//! The epoch-versioned snapshot layer lets readers and writers overlap on
//! the same index without locks:
//!
//! 1. **Snapshots are frozen views**: a pinned snapshot keeps answering
//!    density queries bit-identically to the moment it was taken, while the
//!    writer commits batch after batch (the writer copies a node on write
//!    only while a snapshot still pins it).
//! 2. **The pipelined mode overlaps real work**: every
//!    `pipelined_batch` drains a mini-batch through per-shard writer
//!    threads while reader threads refine a query batch against the
//!    pre-batch snapshot — the answers are exactly the pre-batch answers.
//! 3. **Readers are cheap for writers**: the sweep compares solo insert
//!    throughput against insert-with-concurrent-readers at shards 1/2/4/8.

use anytime_stream_mining::bayestree::{BayesTree, DescentStrategy};
use anytime_stream_mining::data::stream::DriftingStream;
use anytime_stream_mining::eval::pipeline::{format_pipelined_sweep, pipelined_sweep};
use anytime_stream_mining::index::PageGeometry;

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("running on {cpus} CPUs\n");

    let stream: Vec<Vec<f64>> = DriftingStream::new(4, 3, 0.3, 0.002, 29)
        .generate(6_000)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let queries: Vec<Vec<f64>> = stream.iter().step_by(500).cloned().collect();
    let geometry = PageGeometry::from_fanout(4, 8);

    // 1. A pinned snapshot stays frozen while the writer moves on.
    let mut tree: BayesTree = BayesTree::sharded(3, geometry, 4);
    for chunk in stream[..3_000].chunks(256) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    let snapshot = tree.snapshot();
    let (frozen, _) = snapshot.density_batch(&queries, DescentStrategy::default(), 12);
    println!(
        "pinned a snapshot at epochs {:?} covering {} points",
        snapshot.epochs(),
        snapshot.len()
    );

    // 2. Keep streaming with the pipelined mode: readers answer against the
    //    pre-batch snapshot while writers drain the batch.
    let mut answered = 0usize;
    for chunk in stream[3_000..].chunks(256) {
        let outcome =
            tree.pipelined_batch(chunk.to_vec(), &queries, DescentStrategy::default(), 12);
        assert_eq!(outcome.insert.outcomes.len(), chunk.len());
        answered += outcome.answers.len();
    }
    let retired = tree.retired_nodes();
    let census = tree.arena_census();
    println!(
        "pipelined {} more points while answering {answered} snapshot queries \
         ({retired} nodes copied-on-write for the pinned snapshots; {} of the copies \
         recycled a version a released pin gave back, {} retired versions still held \
         by the long-held snapshot)",
        stream.len() - 3_000,
        census.versions_recycled,
        census.versions_held_by_pins
    );

    // The early snapshot still answers bit-identically to its pin time.
    let (again, _) = snapshot.density_batch(&queries, DescentStrategy::default(), 12);
    assert_eq!(again, frozen, "snapshot answers drifted under writes");
    println!(
        "snapshot isolation holds: {} frozen answers unchanged after {} live points",
        frozen.len(),
        tree.len()
    );
    drop(snapshot);
    let census = tree.arena_census();
    println!(
        "released the snapshot: {} node versions held for {} live nodes, {} held by pins\n",
        census.versions_live,
        tree.num_nodes(),
        census.versions_held_by_pins
    );

    // 3. Readers-vs-writers throughput at shard counts 1/2/4/8.
    println!("pipelined insert+query sweep (6000 objects, batch 256, query budget 8):");
    let rows = pipelined_sweep(&stream, &queries, &[1, 2, 4, 8], 256, 8, geometry);
    println!("{}", format_pipelined_sweep(&rows));
    for row in &rows {
        assert!(
            row.queries_per_sec > 0.0,
            "readers must make progress while writers insert"
        );
    }
    println!("done: readers and writers overlapped on every shard count");
}
