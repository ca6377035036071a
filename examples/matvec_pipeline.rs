//! A full benchmark through all four flows of the paper's evaluation.
//!
//! Runs matvec through DF-IO, DF-OoO, GRAPHITI, and the Vericert-style
//! static baseline, printing a miniature of Table 2's row (cycles, clock
//! period, execution time) plus area and correctness.
//!
//! Run with: `cargo run --release --example matvec_pipeline`

use graphiti::bench::{evaluate, suite, Flow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = suite::matvec(16);
    println!("benchmark: {} (16x16 matrix-vector product, 24 tags)\n", program.name);

    let r = evaluate(&program)?;
    println!(
        "{:<10} {:>9} {:>9} {:>13} {:>8} {:>8} {:>5} {:>8}",
        "flow", "cycles", "CP (ns)", "exec (ns)", "LUT", "FF", "DSP", "correct"
    );
    for flow in [Flow::DfIo, Flow::DfOoo, Flow::Graphiti, Flow::Vericert] {
        let m = &r.flows[&flow];
        println!(
            "{:<10} {:>9} {:>9.2} {:>13.0} {:>8} {:>8} {:>5} {:>8}",
            flow.to_string(),
            m.cycles,
            m.clock_period_ns,
            m.exec_time_ns,
            m.lut,
            m.ff,
            m.dsp,
            m.correct
        );
    }
    println!("\nGRAPHITI pipeline: {} rewrites, refused = {}", r.rewrites, r.refused);
    let io = &r.flows[&Flow::DfIo];
    let gr = &r.flows[&Flow::Graphiti];
    println!(
        "cycle speedup vs DF-IO: {:.2}x (paper reports ~8x for matvec)",
        io.cycles as f64 / gr.cycles as f64
    );
    Ok(())
}
