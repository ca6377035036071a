//! The paper's bicg finding (§6.2): the refusal, and a check for the
//! miscompile.
//!
//! The bicg kernel stores into `s[j]` *inside* its inner loop. The verified
//! pipeline refuses to make that loop out-of-order — pure generation cannot
//! turn a Store into a Pure component — while the unverified DF-OoO
//! transformation proceeds. The paper reports that DF-OoO then lets stores
//! from different outer iterations commit out of program order. With
//! `s[j] += r[i] * A[i][j]`, additions commute, so this example uses a
//! non-commutative update, under which a reordered commit would change
//! `s[]`, and compares both flows' `s[]` with the reference interpreter.
//! Here DF-OoO's `s[]` is correct: the kernel's stores go through the
//! in-order store queue, which commits them in program order, so the
//! miscompile does not show. The refusal is exactly how the paper's
//! authors discovered the bug in the original compilation scheme.
//!
//! Run with: `cargo run --release --example bicg_bug`

use graphiti::prelude::*;

/// bicg-like kernel, but with a non-commutative inner store
/// `s[j] = s[j] * 0.5 + A[i][j]`, so commit order is observable.
fn order_sensitive_bicg(n: i64) -> Program {
    let inner = InnerLoop {
        vars: vec![
            ("j".into(), Expr::int(0)),
            ("q".into(), Expr::f64(0.0)),
            ("off".into(), Expr::muli(Expr::var("i"), Expr::int(n))),
        ],
        update: vec![
            ("j".into(), Expr::addi(Expr::var("j"), Expr::int(1))),
            (
                "q".into(),
                Expr::addf(
                    Expr::var("q"),
                    Expr::load("A", Expr::addi(Expr::var("off"), Expr::var("j"))),
                ),
            ),
            ("off".into(), Expr::var("off")),
        ],
        cond: Expr::bin(Op::LtI, Expr::var("j"), Expr::int(n)),
        effects: vec![StoreStmt {
            array: "s".into(),
            index: Expr::var("j"),
            value: Expr::addf(
                Expr::mulf(Expr::load("s", Expr::var("j")), Expr::f64(0.5)),
                Expr::load("A", Expr::addi(Expr::var("off"), Expr::var("j"))),
            ),
        }],
    };
    Program {
        name: "bicg-ordered".into(),
        arrays: [
            ("A".to_string(), (0..n * n).map(|k| Value::from_f64((k % 5) as f64 + 1.0)).collect()),
            ("s".to_string(), vec![Value::from_f64(0.0); n as usize]),
            ("q".to_string(), vec![Value::from_f64(0.0); n as usize]),
        ]
        .into_iter()
        .collect(),
        kernels: vec![OuterLoop {
            var: "i".into(),
            trip: n,
            inner,
            epilogue: vec![StoreStmt {
                array: "q".into(),
                index: Expr::var("i"),
                value: Expr::var("q"),
            }],
            ooo_tags: Some(8),
        }],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = order_sensitive_bicg(8);
    let expected = run_program(&program)?;
    let compiled = compile(&program)?;
    let kernel = &compiled.kernels[0];
    let opts = PipelineOptions { tags: 8, ..Default::default() };

    // The verified pipeline refuses.
    let (untouched, report) = optimize_loop(&kernel.graph, &kernel.inner_init, &opts)?;
    println!("GRAPHITI: transformed = {}", report.transformed);
    match &report.refusal {
        Some(Refusal::ImpureBody(msg)) => println!("GRAPHITI refusal: {msg}"),
        other => println!("unexpected refusal state: {other:?}"),
    }
    assert_eq!(&untouched, &kernel.graph, "refusal leaves the circuit unchanged (= DF-IO)");

    // The unverified transformation proceeds.
    let dfooo = dfooo_loop(&kernel.graph, &kernel.inner_init, &opts)?;
    println!("DF-OoO: transformed anyway (no purity check)");

    let feeds = [("start".to_string(), vec![Value::Unit])].into_iter().collect();
    let (seq, _) = place_buffers(&untouched);
    let (ooo, _) = place_buffers(&dfooo);
    let a = simulate(&seq, &feeds, program.arrays.clone(), SimConfig::default())?;
    let b = simulate(&ooo, &feeds, program.arrays.clone(), SimConfig::default())?;

    println!("GRAPHITI/DF-IO s[] correct: {}", a.memory["s"] == expected["s"]);
    println!("DF-OoO      s[] correct: {}", b.memory["s"] == expected["s"]);
    if b.memory["s"] != expected["s"] {
        let i = expected["s"]
            .iter()
            .zip(&b.memory["s"])
            .position(|(x, y)| x != y)
            .expect("some element differs");
        println!(
            "  first mismatch at s[{i}]: expected {}, DF-OoO produced {}",
            expected["s"][i], b.memory["s"][i]
        );
        println!("  (stores from overlapping outer iterations committed out of order)");
    }
    Ok(())
}
