//! Regenerates the paper's Figure 2d/2e: the execution trace of the modulo
//! unit in the GCD loop, in order vs out of order.
//!
//! Fig. 2d shows the sequential circuit unable to pipeline the modulo
//! operation (one loop execution at a time); Fig. 2e shows the tagged
//! circuit overlapping iterations of different loop executions. Here the
//! simulator's trace records every cycle the modulo unit accepts operands,
//! and the timeline prints which GCD instance (tag) occupied it — the
//! pipelining difference is directly visible.
//!
//! ```text
//! fig2_trace [--json] [--trace-out FILE]
//! ```
//!
//! * `--json` — print the timelines and cycle counts as a JSON document
//!   (runs with the `graphiti-obs` sink enabled and embeds its metrics
//!   snapshot, so fire/stall/occupancy counters ride along).
//! * `--trace-out FILE` — additionally write the simulations' Chrome
//!   trace-event file, loadable in Perfetto / `chrome://tracing`.

use graphiti_core::{optimize_loop, PipelineOptions};
use graphiti_frontend::{compile, Expr, InnerLoop, OuterLoop, Program, StoreStmt};
use graphiti_ir::{CompKind, ExprHigh, Op, Value};
use graphiti_sim::{place_buffers, simulate, SimConfig, TraceEvent};
use std::collections::BTreeMap;

/// The §2 GCD program over a handful of pairs chosen so the loop iterates
/// several times per pair.
fn gcd_program() -> Program {
    let inner = InnerLoop {
        vars: vec![
            ("a".into(), Expr::load("arr1", Expr::var("i"))),
            ("b".into(), Expr::load("arr2", Expr::var("i"))),
        ],
        update: vec![
            ("a".into(), Expr::var("b")),
            ("b".into(), Expr::bin(Op::Mod, Expr::var("a"), Expr::var("b"))),
        ],
        cond: Expr::un(Op::NeZero, Expr::var("b")),
        effects: vec![],
    };
    Program {
        name: "gcd".into(),
        arrays: [
            ("arr1".to_string(), vec![Value::Int(610), Value::Int(987), Value::Int(144)]),
            ("arr2".to_string(), vec![Value::Int(377), Value::Int(610), Value::Int(89)]),
            ("result".to_string(), vec![Value::Int(0); 3]),
        ]
        .into_iter()
        .collect(),
        kernels: vec![OuterLoop {
            var: "i".into(),
            trip: 3,
            inner,
            epilogue: vec![StoreStmt {
                array: "result".into(),
                index: Expr::var("i"),
                value: Expr::var("a"),
            }],
            ooo_tags: Some(3),
        }],
    }
}

/// The modulo component's node name in a circuit.
fn mod_node(g: &ExprHigh) -> String {
    g.nodes()
        .find(|(_, k)| matches!(k, CompKind::Operator { op: Op::Mod }))
        .map(|(n, _)| n.clone())
        .expect("circuit has a modulo unit")
}

/// The cycle count and the modulo unit's acceptances: its fires that
/// consumed operands (the node trace also records the fires that only
/// emit a result).
fn run_traced(g: &ExprHigh, arrays: &graphiti_sim::Memory) -> (u64, Vec<TraceEvent>) {
    let (placed, _) = place_buffers(g);
    let cfg = SimConfig { trace_nodes: vec![mod_node(&placed)], ..Default::default() };
    let feeds: BTreeMap<String, Vec<Value>> =
        [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let r = simulate(&placed, &feeds, arrays.clone(), cfg).expect("simulates");
    (r.cycles, r.trace.into_iter().filter(|e| !e.values.is_empty()).collect())
}

/// Which GCD instance a modulo acceptance belongs to: the tag when present,
/// otherwise inferred by termination order (in-order execution finishes
/// instance k before starting k+1).
fn timeline(events: &[TraceEvent], cycles: u64) -> String {
    let mut lanes: BTreeMap<u64, char> = BTreeMap::new();
    let mut seq_instance = 0u32;
    let mut last_b: Option<i64> = None;
    for ev in events {
        let (tag, _) = ev.values[0].untag();
        let instance = match tag {
            Some(t) => t,
            None => {
                // In-order inference: within one GCD chain the divisor `b`
                // strictly decreases (Euclid); a jump upward means a fresh
                // instance entered the unit.
                if let Some(b) = ev.values[1].untag().1.as_int() {
                    if let Some(prev) = last_b {
                        if b > prev {
                            seq_instance += 1;
                        }
                    }
                    last_b = Some(b);
                }
                seq_instance
            }
        };
        lanes.insert(ev.cycle, char::from(b'A' + (instance % 26) as u8));
    }
    let horizon = cycles.min(lanes.keys().max().copied().unwrap_or(0) + 2);
    let mut line = String::new();
    for c in 0..=horizon {
        line.push(lanes.get(&c).copied().unwrap_or('.'));
    }
    line
}

fn main() {
    let mut json_out = false;
    let mut trace_out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a file path")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: fig2_trace [--json] [--trace-out FILE]");
                std::process::exit(2);
            }
        }
    }
    if json_out || trace_out.is_some() {
        graphiti_obs::enable();
    }

    let p = gcd_program();
    let compiled = compile(&p).expect("compiles");
    let k = &compiled.kernels[0];

    let (seq_cycles, seq_trace) = run_traced(&k.graph, &p.arrays);
    let opts = PipelineOptions { tags: 3, ..Default::default() };
    let (ooo, _) = optimize_loop(&k.graph, &k.inner_init, &opts).expect("pipeline");
    let (ooo_cycles, ooo_trace) = run_traced(&ooo, &p.arrays);

    if let Some(path) = &trace_out {
        graphiti_obs::write_chrome_trace(path)
            .unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
    }
    if json_out {
        let esc = graphiti_bench::json::escape;
        println!("{{");
        println!("  \"benchmark\": \"gcd\",");
        println!(
            "  \"in_order\": {{\"cycles\": {seq_cycles}, \"acceptances\": {}, \"timeline\": \"{}\"}},",
            seq_trace.len(),
            esc(&timeline(&seq_trace, seq_cycles))
        );
        println!(
            "  \"out_of_order\": {{\"cycles\": {ooo_cycles}, \"acceptances\": {}, \"timeline\": \"{}\"}},",
            ooo_trace.len(),
            esc(&timeline(&ooo_trace, ooo_cycles))
        );
        println!("  \"metrics\": {}", graphiti_obs::metrics_json().trim_end());
        println!("}}");
        return;
    }

    println!("Figure 2d/2e: occupancy of the modulo unit, one character per cycle");
    println!("(letter = which GCD instance's iteration entered the unit, '.' = idle)\n");
    println!("in-order (Fig. 2d), {seq_cycles} cycles:");
    println!("  {}", timeline(&seq_trace, seq_cycles));
    println!("\nout-of-order (Fig. 2e), {ooo_cycles} cycles:");
    println!("  {}", timeline(&ooo_trace, ooo_cycles));
    println!(
        "\nmodulo acceptances: {} in-order vs {} out-of-order (same work),",
        seq_trace.len(),
        ooo_trace.len()
    );
    println!(
        "packed into {:.1}x fewer cycles by interleaving tagged iterations.",
        seq_cycles as f64 / ooo_cycles as f64
    );
}
