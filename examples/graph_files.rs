//! Generating, saving, loading and inspecting uncertain-graph files.
//!
//! Shows the two on-disk formats (text edge list and the checksummed CSR
//! snapshot), the dataset registry that mirrors Table II of the paper, and
//! the graph statistics used to calibrate the synthetic stand-ins.
//!
//! Run with `cargo run --release --example graph_files`.

use uncertain_simrank::datasets::{ci_registry, RmatGenerator};
use uncertain_simrank::graph::io;
use uncertain_simrank::graph::snapshot::{read_snapshot, read_snapshot_file, write_snapshot_file};
use uncertain_simrank::graph::stats::uncertain_graph_stats;
use uncertain_simrank::prelude::*;

fn main() {
    // The registry lists the paper's datasets (Table II) with laptop-scale
    // stand-in configurations.
    println!("dataset registry (CI scale):");
    for spec in ci_registry() {
        println!(
            "  {:<8} {:>8} vertices  ~{:>9} edges  (published: {} / {})",
            spec.name, spec.num_vertices, spec.num_edges, spec.paper_vertices, spec.paper_edges
        );
    }

    // Generate an R-MAT graph like the scalability experiment (Fig. 12).
    let graph = RmatGenerator {
        scale: 10,
        num_edges: 8_000,
        seed: 1,
        ..Default::default()
    }
    .generate();
    let stats = uncertain_graph_stats(&graph);
    println!(
        "\nR-MAT graph: {} vertices, {} arcs, mean degree {:.2}, mean probability {:.3}",
        stats.topology.num_vertices,
        stats.topology.num_arcs,
        stats.topology.average_out_degree,
        stats.mean_probability
    );

    // Save it in both formats and read the snapshot back.  A snapshot holds
    // the CSR arrays of both directions (plus an optional label table), so
    // it is larger than the edge list but loads without parsing or sorting;
    // `validate` re-checks every arc of a file from an untrusted source.
    let dir = std::env::temp_dir();
    let text_path = dir.join("usim_example_graph.tsv");
    let snapshot_path = dir.join("usim_example_graph.usim");
    io::write_edge_list_file(&graph, &[], &text_path).expect("write text edge list");
    write_snapshot_file(&graph, &[], &snapshot_path).expect("write snapshot");
    let text_size = std::fs::metadata(&text_path).unwrap().len();
    let snapshot_size = std::fs::metadata(&snapshot_path).unwrap().len();
    println!("saved as text ({text_size} bytes) and as a snapshot ({snapshot_size} bytes)");

    let snapshot = read_snapshot_file(&snapshot_path).expect("read snapshot");
    snapshot.validate().expect("every arc is valid");
    let reread = snapshot.graph;
    assert_eq!(reread, graph);

    // Corrupting the snapshot is detected by its checksum.
    let mut bytes = std::fs::read(&snapshot_path).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xff;
    match read_snapshot(bytes.as_slice()) {
        Err(error) => println!("corrupted copy rejected as expected: {error}"),
        Ok(_) => panic!("a flipped byte went undetected"),
    }

    // A quick similarity query on the re-read graph proves the round trip is
    // usable end to end.
    let config = SimRankConfig::default().with_samples(200).with_seed(3);
    let mut estimator = TwoPhaseEstimator::new(&reread, config);
    let (u, v) = (0, 1);
    println!(
        "s({u}, {v}) on the re-read graph = {:.6}",
        estimator.similarity(u, v)
    );

    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&snapshot_path).ok();
}
