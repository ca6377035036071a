//! The worked examples of the paper's §4, followed step by step.
//!
//! §4.3 defines the fork and modulo modules through `enq`/`deq`/`first`
//! relations; §4.5 denotes the Fig. 6 circuit (a Fork feeding both operands
//! of a `%`), forms their product `M_fork ⊎ M_mod`, and connects
//! `("f","0") ⇝ ("m","1")`, producing the internal transition
//! `modforkconn`. These tests replay that construction through the crate's
//! combinators and check each intermediate behaviour.

use graphiti_ir::{CompKind, ExprLow, Op, PortName, Value};
use graphiti_sem::{component_module, denote, Env};
use std::collections::BTreeMap;

fn local(a: &str, b: &str) -> PortName {
    PortName::local(a, b)
}

/// §4.3: the fork module — `fork.in0` enqueues the element into *both*
/// lists; `fork.out0`/`fork.out1` dequeue their list.
#[test]
fn fork_module_relations() {
    let m = component_module(&CompKind::Fork { ways: 2 });
    let s0 = m.init()[0].clone();
    // in0: enq to both lists.
    let s1 = m.input_step(&local("", "in"), &s0, &Value::Int(6)).remove(0);
    let s2 = m.input_step(&local("", "in"), &s1, &Value::Int(4)).remove(0);
    // out0 dequeues list 1 in FIFO order, independently of out1.
    let (v, s3) = m.output_step(&local("", "out0"), &s2).remove(0);
    assert_eq!(v, Value::Int(6));
    let (v, _) = m.output_step(&local("", "out0"), &s3).remove(0);
    assert_eq!(v, Value::Int(4));
    let (v, _) = m.output_step(&local("", "out1"), &s3).remove(0);
    assert_eq!(v, Value::Int(6), "list 2 still holds the first element");
}

/// §4.3: the modulo module — the operation is applied *in the output
/// transition*, once both operand lists are non-empty.
#[test]
fn mod_module_relations() {
    let m = component_module(&CompKind::Operator { op: Op::Mod });
    let s0 = m.init()[0].clone();
    let s1 = m.input_step(&local("", "in0"), &s0, &Value::Int(17)).remove(0);
    assert!(
        m.output_step(&local("", "out"), &s1).is_empty(),
        "no output until both operands arrived"
    );
    let s2 = m.input_step(&local("", "in1"), &s1, &Value::Int(5)).remove(0);
    let (v, s3) = m.output_step(&local("", "out"), &s2).remove(0);
    assert_eq!(v, Value::Int(2), "first₁ % first₂");
    assert!(m.output_step(&local("", "out"), &s3).is_empty(), "both operands consumed");
}

/// §4.5: the full Fig. 6 denotation: ⟦fork ⊗ mod⟧ with the connections
/// `("f","out0") ⇝ ("m","in0")` and `("f","out1") ⇝ ("m","in1")`; the
/// connects become internal transitions and the compound module computes
/// `x % x`... here with both fork outputs feeding the modulo, x mod x = 0.
#[test]
fn fig6_denotation_behaviour() {
    let expr = ExprLow::Product(
        Box::new(ExprLow::base("f", CompKind::Fork { ways: 2 })),
        Box::new(ExprLow::base("m", CompKind::Operator { op: Op::Mod })),
    )
    .connect_all([
        (local("f", "out0"), local("m", "in0")),
        (local("f", "out1"), local("m", "in1")),
    ]);
    let m = denote(&expr, &Env::standard());

    // The union ⊎ lifted the fork's input and the modulo's output; the two
    // connects removed four ports and added two internal transitions.
    assert_eq!(m.input_ports(), vec![local("f", "in")]);
    assert_eq!(m.output_ports(), vec![local("m", "out")]);
    assert_eq!(m.internal_count(), 2);

    // The state is the product of the two component states: one leaf per
    // component.
    assert_eq!(m.init()[0].leaves().len(), 2);

    // Behaviour: in(9); τ; τ; out(0).
    let s = m.input_step(&local("f", "in"), &m.init()[0], &Value::Int(9)).remove(0);
    // `modforkconn`-style steps: each internal transition moves one forked
    // copy into a modulo operand queue.
    let mut frontier = vec![s];
    let mut outputs = Vec::new();
    for _ in 0..4 {
        let mut next = Vec::new();
        for st in &frontier {
            outputs.extend(m.output_step(&local("m", "out"), st).into_iter().map(|(v, _)| v));
            next.extend(m.internal_step(st));
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    for st in &frontier {
        outputs.extend(m.output_step(&local("m", "out"), st).into_iter().map(|(v, _)| v));
    }
    assert!(outputs.contains(&Value::Int(0)), "9 % 9 = 0 after the internal steps: {outputs:?}");
}

/// §4.5's asymmetry: the connect's fused transition performs the output and
/// the input *atomically* — no internal transition interleaves. Observable
/// consequence: after one internal step of the Fig. 6 module, a forked copy
/// has already landed in the modulo's operand queue (there is no
/// intermediate state where it is in flight).
#[test]
fn connect_is_atomic() {
    let expr = ExprLow::Product(
        Box::new(ExprLow::base("f", CompKind::Fork { ways: 2 })),
        Box::new(ExprLow::base("m", CompKind::Operator { op: Op::Mod })),
    )
    .connect_all([
        (local("f", "out0"), local("m", "in0")),
        (local("f", "out1"), local("m", "in1")),
    ]);
    let m = denote(&expr, &Env::standard());
    let s = m.input_step(&local("f", "in"), &m.init()[0], &Value::Int(9)).remove(0);
    let succs = m.internal_step(&s);
    assert_eq!(succs.len(), 2, "one fused step per connection");
    for s2 in &succs {
        // Token conservation: the value moved, it did not fork into a
        // transient.
        assert_eq!(s2.token_count(), s.token_count());
    }
}

/// The denotation is compositional: denoting the product and connecting
/// via the module combinator directly gives the same behaviour as denoting
/// the `connect` expression.
#[test]
fn denotation_is_compositional() {
    let product = ExprLow::Product(
        Box::new(ExprLow::base("f", CompKind::Fork { ways: 2 })),
        Box::new(ExprLow::base("m", CompKind::Operator { op: Op::Mod })),
    );
    let via_expr = denote(
        &product.clone().connect_all([(local("f", "out0"), local("m", "in0"))]),
        &Env::standard(),
    );
    let via_combinator =
        denote(&product, &Env::standard()).connect(&local("f", "out0"), &local("m", "in0"));
    assert_eq!(via_expr.input_ports(), via_combinator.input_ports());
    assert_eq!(via_expr.output_ports(), via_combinator.output_ports());
    assert_eq!(via_expr.internal_count(), via_combinator.internal_count());
    // Behavioural spot check on a shared input.
    let feeds: BTreeMap<PortName, Vec<Value>> =
        [(local("f", "in"), vec![Value::Int(8)]), (local("m", "in1"), vec![Value::Int(3)])]
            .into_iter()
            .collect();
    let a = graphiti_sem::run_random(&via_expr, &feeds, 1, 500);
    let b = graphiti_sem::run_random(&via_combinator, &feeds, 1, 500);
    assert_eq!(a.outputs, b.outputs);
}
