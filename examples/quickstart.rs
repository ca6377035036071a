//! Quickstart: make the paper's GCD loop execute out of order.
//!
//! Compiles the §2 running example (an outer loop computing GCDs of array
//! pairs) to an elastic dataflow circuit, runs the verified five-phase
//! pipeline, and simulates both circuits to show the speedup — with
//! identical results.
//!
//! Run with: `cargo run --release --example quickstart`

use graphiti::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // for i in 0..12 { (a, b) = (arr1[i], arr2[i]);
    //                  do { (a, b) = (b, a % b) } while b != 0;
    //                  result[i] = a; }
    let program = graphiti::bench::suite::gcd(12);
    let expected = run_program(&program)?;

    let compiled = compile(&program)?;
    let kernel = &compiled.kernels[0];
    println!(
        "compiled `{}`: {} dataflow components, inner loop has {} Muxes",
        kernel.name,
        kernel.graph.node_count(),
        kernel.inner_muxes.len()
    );

    // The verified pipeline: normalize, eliminate, pure-generate, apply the
    // out-of-order loop rewrite, re-expand the body.
    let opts = PipelineOptions { tags: 8, ..Default::default() };
    let (optimized, report) = optimize_loop(&kernel.graph, &kernel.inner_init, &opts)?;
    println!(
        "pipeline: transformed = {}, {} rewrites applied",
        report.transformed, report.rewrites
    );

    let feeds = [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let (seq, _) = place_buffers(&kernel.graph);
    let (ooo, _) = place_buffers(&optimized);
    let a = simulate(&seq, &feeds, program.arrays.clone(), SimConfig::default())?;
    let b = simulate(&ooo, &feeds, program.arrays.clone(), SimConfig::default())?;

    assert_eq!(a.memory["result"], expected["result"], "sequential circuit is correct");
    assert_eq!(b.memory["result"], expected["result"], "out-of-order circuit is correct");
    println!("results: {:?}", b.memory["result"].iter().map(|v| v.to_string()).collect::<Vec<_>>());
    println!(
        "cycles: {} sequential -> {} out-of-order ({:.2}x speedup)",
        a.cycles,
        b.cycles,
        a.cycles as f64 / b.cycles as f64
    );
    Ok(())
}
