//! Ablation of the descent and refinement strategies (Section 2.2): compares
//! breadth-first, depth-first and global-best descent (geometric and
//! probabilistic priority) and the qbk parameter on one workload.
//!
//! Usage: `ablation_descent [pendigits|letter|gender|covertype] [flags...]`

use bayestree::BulkLoadMethod;
use bayestree_bench::RunOptions;
use bt_data::synth::Benchmark;
use bt_eval::ablation::{descent_ablation, qbk_ablation};
use bt_eval::ascii_chart;

fn benchmark_by_name(name: &str) -> Benchmark {
    match name {
        "pendigits" => Benchmark::Pendigits,
        "letter" => Benchmark::Letter,
        "gender" => Benchmark::Gender,
        "covertype" => Benchmark::Covertype,
        other => panic!("unknown workload '{other}'"),
    }
}

fn main() {
    let options = RunOptions::from_env();
    let which = options
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("pendigits");
    let dataset = benchmark_by_name(which).generate_scaled(options.scale, options.seed);
    let config = options.curve_config_for(dataset.dims());

    println!("Descent-strategy ablation on {which} (EMTopDown trees)\n");
    let descent_curves = descent_ablation(&dataset, BulkLoadMethod::EmTopDown, &config);
    println!("{}", ascii_chart(&descent_curves, 18, 72));
    for c in &descent_curves {
        println!(
            "  {:<18} mean {:.3}  final {:.3}",
            c.label,
            c.mean(),
            c.final_accuracy
        );
    }

    println!("\nqbk-parameter ablation on {which} (EMTopDown trees)\n");
    let qbk_curves = qbk_ablation(&dataset, BulkLoadMethod::EmTopDown, &[1, 2, 3], &config);
    for c in &qbk_curves {
        println!(
            "  {:<6} mean {:.3}  final {:.3}",
            c.label,
            c.mean(),
            c.final_accuracy
        );
    }
}
