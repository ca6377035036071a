//! The tool-flow interface of the paper's Fig. 1: dot graph in, rewritten
//! dot graph out.
//!
//! Parses a Dynamatic-style dot description of a sequential GCD loop,
//! applies the out-of-order loop rewrite through the engine, and prints the
//! rewritten circuit back as dot — exactly the role of the command-line
//! program extracted from the Lean development (§6.3).
//!
//! Run with: `cargo run --release --example dot_roundtrip`

use graphiti::prelude::*;

const SEQUENTIAL_LOOP: &str = r#"
digraph gcd_loop {
  entry [type="entry"];
  exit  [type="exit"];
  mux   [type="mux"];
  body  [type="pure" func="comp(parf(id,op:nez),comp(parf(comp(parf(snd,op:mod),dup),op:mod),dup))"];
  split [type="split"];
  br    [type="branch"];
  fork  [type="fork" ways="2"];
  init  [type="init" initial="false"];
  entry -> mux  [to="f"];
  mux   -> body [from="out" to="in"];
  body  -> split [from="out" to="in"];
  split -> br   [from="out0" to="in"];
  split -> fork [from="out1" to="in"];
  fork  -> br   [from="out0" to="cond"];
  fork  -> init [from="out1" to="in"];
  init  -> mux  [from="out" to="cond"];
  br    -> mux  [from="t" to="t"];
  br    -> exit [from="f"];
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = parse_dot(SEQUENTIAL_LOOP)?;
    g.validate()?;
    println!("// parsed {} components from dot\n", g.node_count());

    let mut engine = Engine::new();
    let rewrite = catalog::ooo::loop_ooo(8);
    let mut g2 = g.clone();
    assert!(engine.apply_first(&mut g2, &rewrite)?, "the loop shape matches");
    println!("// applied `{}`; printing the rewritten circuit:\n", rewrite.name);
    let printed = print_dot(&g2);
    println!("{printed}");

    // The printed dot parses back to the same graph.
    let reparsed = parse_dot(&printed)?;
    assert_eq!(g2, reparsed);
    println!("\n// roundtrip OK: printed dot parses back identically");
    Ok(())
}
