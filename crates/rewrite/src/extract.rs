//! Symbolic extraction of a region's pure function.
//!
//! Pure generation needs an *oracle* to decide how to collapse a loop body
//! into a single Pure component (§3.2 — the paper uses egg to find the
//! rewrite order). This module provides a complementary oracle: it walks the
//! region DAG symbolically and computes, for every wire leaving the region,
//! the [`PureFn`] mapping the region's single input value to that wire's
//! value. The pipeline runs it once, on the loop body as phase 2 left it,
//! and turns the result into one region-to-Pure rewrite. The result is
//! *untrusted*: that rewrite's refinement obligation is discharged like any
//! other ([`crate::verify`]), and tests run both sides of gcd's obligation
//! on concrete inputs against the paper's Fig. 5 function.
//!
//! Extraction fails — and with it the whole out-of-order transformation, as
//! the paper's phase 3 does — when the region contains a Store (the bicg
//! bug), or any component that is not one-output-per-input (Merge, Mux,
//! Branch, ...).

use crate::egraph::simplify;
use graphiti_ir::{Attachment, CompKind, Endpoint, ExprHigh, NodeId, PureFn};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Why a region has no extractable pure function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The region contains a component with side effects (a Store): the
    /// paper's phase 3 refusal that surfaces the bicg bug.
    Impure(NodeId),
    /// The region contains a component that is not one-output-per-input.
    UnsupportedKind(NodeId, String),
    /// The region has several dangling inputs; a Pure has exactly one.
    MultipleInputs(Vec<Endpoint>),
    /// The region has no dangling input.
    NoInput,
    /// The region contains a cycle.
    Cyclic,
    /// A port asked of [`region_oracle`] is not one of the region's outputs.
    MissingOutput(Endpoint),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Impure(n) => write!(f, "region is impure: `{n}` has side effects"),
            ExtractError::UnsupportedKind(n, k) => {
                write!(f, "component `{n}` of kind {k} is not pure-extractable")
            }
            ExtractError::MultipleInputs(eps) => {
                write!(f, "region has {} inputs, expected one", eps.len())
            }
            ExtractError::NoInput => write!(f, "region has no input"),
            ExtractError::Cyclic => write!(f, "region contains a cycle"),
            ExtractError::MissingOutput(e) => write!(f, "region has no output at `{e}`"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// The pure function computed by a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionFunction {
    /// The region's single boundary input port.
    pub input: Endpoint,
    /// Each boundary output port with the function from the input value to
    /// the value leaving on that port, in port order.
    pub outputs: Vec<(Endpoint, PureFn)>,
}

/// Pure generation's oracle step, timed as one `oracle` span: extracts the
/// function of `region`, pairs the functions leaving it at `data` and
/// `cond`, and simplifies the pair with the e-graph. Returns the region's
/// input port and the simplified function.
///
/// # Errors
///
/// See [`ExtractError`]; [`ExtractError::MissingOutput`] when `data` or
/// `cond` is not one of the region's outputs.
pub fn region_oracle(
    g: &ExprHigh,
    region: &BTreeSet<NodeId>,
    data: &Endpoint,
    cond: &Endpoint,
) -> Result<(Endpoint, PureFn), ExtractError> {
    let _span = graphiti_obs::span("oracle");
    let rf = extract_region_function(g, region)?;
    let output = |port: &Endpoint| {
        let f = rf.outputs.iter().find(|(e, _)| e == port).map(|(_, f)| f.clone());
        f.ok_or_else(|| ExtractError::MissingOutput(port.clone()))
    };
    let f = PureFn::pair(output(data)?, output(cond)?);
    Ok((rf.input, simplify(&f, 6)))
}

/// Extracts the pure function of the `region` node set in `g`.
///
/// # Errors
///
/// See [`ExtractError`].
pub fn extract_region_function(
    g: &ExprHigh,
    region: &BTreeSet<NodeId>,
) -> Result<RegionFunction, ExtractError> {
    // Find boundary inputs and pre-validate component kinds.
    let mut boundary_ins = Vec::new();
    for n in region {
        let kind = g.kind(n).expect("region node exists");
        match kind {
            CompKind::Store { .. } => return Err(ExtractError::Impure(n.clone())),
            CompKind::Pure { .. }
            | CompKind::Join
            | CompKind::Split
            | CompKind::Fork { .. }
            | CompKind::Operator { .. }
            | CompKind::Constant { .. }
            | CompKind::Load { .. }
            | CompKind::Buffer { .. }
            | CompKind::Sink => {}
            other => return Err(ExtractError::UnsupportedKind(n.clone(), other.to_string())),
        }
        let (ins, _) = kind.interface();
        for p in ins {
            let here = Endpoint::new(n.clone(), p);
            match g.driver(&here) {
                Some(Attachment::Wire(src)) if region.contains(&src.node) => {}
                _ => boundary_ins.push(here),
            }
        }
    }
    if boundary_ins.is_empty() {
        return Err(ExtractError::NoInput);
    }
    if boundary_ins.len() > 1 {
        return Err(ExtractError::MultipleInputs(boundary_ins));
    }
    let input = boundary_ins.pop().expect("one input");

    // Label wires (out-ports) with functions of the region input by
    // processing nodes in topological order.
    let mut labels: BTreeMap<Endpoint, PureFn> = BTreeMap::new();
    let label_of = |labels: &BTreeMap<Endpoint, PureFn>, here: &Endpoint| -> Option<PureFn> {
        if *here == input {
            return Some(PureFn::Id);
        }
        match g.driver(here) {
            Some(Attachment::Wire(src)) => labels.get(&src).cloned(),
            _ => None,
        }
    };

    let mut pending: VecDeque<NodeId> = region.iter().cloned().collect();
    let mut stall = 0usize;
    while let Some(n) = pending.pop_front() {
        let kind = g.kind(&n).expect("region node exists");
        let (ins, outs) = kind.interface();
        let in_labels: Option<Vec<PureFn>> =
            ins.iter().map(|p| label_of(&labels, &Endpoint::new(n.clone(), p.clone()))).collect();
        let in_labels = match in_labels {
            Some(ls) => ls,
            None => {
                pending.push_back(n);
                stall += 1;
                if stall > pending.len() + 1 {
                    return Err(ExtractError::Cyclic);
                }
                continue;
            }
        };
        stall = 0;
        let out_labels: Vec<PureFn> = match kind {
            CompKind::Pure { func } => vec![PureFn::comp(func.clone(), in_labels[0].clone())],
            CompKind::Join => vec![PureFn::pair(in_labels[0].clone(), in_labels[1].clone())],
            CompKind::Split => vec![
                PureFn::comp(PureFn::Fst, in_labels[0].clone()),
                PureFn::comp(PureFn::Snd, in_labels[0].clone()),
            ],
            CompKind::Fork { ways } => vec![in_labels[0].clone(); *ways],
            CompKind::Operator { op } => {
                let encoded = match op.arity() {
                    1 => in_labels[0].clone(),
                    2 => PureFn::pair(in_labels[0].clone(), in_labels[1].clone()),
                    3 => PureFn::pair(
                        in_labels[0].clone(),
                        PureFn::pair(in_labels[1].clone(), in_labels[2].clone()),
                    ),
                    other => {
                        return Err(ExtractError::UnsupportedKind(
                            n.clone(),
                            format!("operator of arity {other}"),
                        ))
                    }
                };
                vec![PureFn::comp(PureFn::Op(*op), encoded)]
            }
            CompKind::Constant { value } => {
                vec![PureFn::comp(PureFn::Const(value.clone()), in_labels[0].clone())]
            }
            CompKind::Load { mem } => {
                vec![PureFn::comp(PureFn::Load(mem.clone()), in_labels[0].clone())]
            }
            CompKind::Buffer { .. } => vec![in_labels[0].clone()],
            CompKind::Sink => vec![],
            other => return Err(ExtractError::UnsupportedKind(n.clone(), other.to_string())),
        };
        for (p, l) in outs.iter().zip(out_labels) {
            labels.insert(Endpoint::new(n.clone(), p.clone()), l);
        }
    }

    // Boundary outputs: out-ports consumed outside the region (or by the
    // graph's external outputs).
    let mut outputs = Vec::new();
    for n in region {
        let (_, outs) = g.kind(n).expect("region node exists").interface();
        for p in outs {
            let here = Endpoint::new(n.clone(), p);
            let leaves = match g.consumer(&here) {
                Some(Attachment::Wire(dst)) => !region.contains(&dst.node),
                Some(Attachment::External(_)) => true,
                None => true,
            };
            if leaves {
                let label = labels.get(&here).expect("processed node has labels").clone();
                outputs.push((here, label));
            }
        }
    }
    Ok(RegionFunction { input, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_ir::{ep, Op, Value};

    /// Region computing `(a % b, (a % b) != 0)` from input `(a, b)`:
    /// split; mod with forked result; nez.
    fn gcd_step_region() -> (ExprHigh, BTreeSet<NodeId>) {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("m", CompKind::Operator { op: Op::Mod }).unwrap();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("nz", CompKind::Operator { op: Op::NeZero }).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("m", "in0")).unwrap();
        g.connect(ep("s", "out1"), ep("m", "in1")).unwrap();
        g.connect(ep("m", "out"), ep("f", "in")).unwrap();
        g.connect(ep("f", "out1"), ep("nz", "in0")).unwrap();
        g.expose_output("r", ep("f", "out0")).unwrap();
        g.expose_output("c", ep("nz", "out")).unwrap();
        g.validate().unwrap();
        let region = g.node_names();
        (g, region)
    }

    #[test]
    fn extracts_gcd_step() {
        let (g, region) = gcd_step_region();
        let rf = extract_region_function(&g, &region).unwrap();
        assert_eq!(rf.input, ep("s", "in"));
        assert_eq!(rf.outputs.len(), 2);
        let input = Value::pair(Value::Int(17), Value::Int(5));
        let by_port: BTreeMap<_, _> = rf.outputs.iter().cloned().collect();
        assert_eq!(by_port[&ep("f", "out0")].eval(&input).unwrap(), Value::Int(2));
        assert_eq!(by_port[&ep("nz", "out")].eval(&input).unwrap(), Value::Bool(true));
    }

    #[test]
    fn store_makes_region_impure() {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Split).unwrap();
        g.add_node("st", CompKind::Store { mem: "arr".into() }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("st", "addr")).unwrap();
        g.connect(ep("s", "out1"), ep("st", "data")).unwrap();
        g.connect(ep("st", "done"), ep("k", "in")).unwrap();
        let region = g.node_names();
        assert_eq!(extract_region_function(&g, &region), Err(ExtractError::Impure("st".into())));
    }

    #[test]
    fn load_is_extractable() {
        let mut g = ExprHigh::new();
        g.add_node("ld", CompKind::Load { mem: "arr".into() }).unwrap();
        g.expose_input("a", ep("ld", "addr")).unwrap();
        g.expose_output("d", ep("ld", "data")).unwrap();
        let region = g.node_names();
        let rf = extract_region_function(&g, &region).unwrap();
        let f = &rf.outputs[0].1;
        assert!(f.reads_memory());
        let mem = |name: &str, addr: i64| {
            assert_eq!(name, "arr");
            Value::Int(addr + 100)
        };
        assert_eq!(f.eval_with_mem(&Value::Int(7), &mem).unwrap(), Value::Int(107));
    }

    #[test]
    fn merge_is_not_extractable() {
        let mut g = ExprHigh::new();
        g.add_node("m", CompKind::Merge).unwrap();
        g.add_node("s", CompKind::Split).unwrap();
        g.expose_input("x", ep("s", "in")).unwrap();
        g.connect(ep("s", "out0"), ep("m", "in0")).unwrap();
        g.connect(ep("s", "out1"), ep("m", "in1")).unwrap();
        g.expose_output("y", ep("m", "out")).unwrap();
        let region = g.node_names();
        assert!(matches!(
            extract_region_function(&g, &region),
            Err(ExtractError::UnsupportedKind(_, _))
        ));
    }

    #[test]
    fn multiple_inputs_are_rejected() {
        let mut g = ExprHigh::new();
        g.add_node("j", CompKind::Join).unwrap();
        g.expose_input("a", ep("j", "in0")).unwrap();
        g.expose_input("b", ep("j", "in1")).unwrap();
        g.expose_output("y", ep("j", "out")).unwrap();
        let region = g.node_names();
        assert!(matches!(
            extract_region_function(&g, &region),
            Err(ExtractError::MultipleInputs(_))
        ));
    }

    #[test]
    fn cyclic_region_is_rejected() {
        let mut g = ExprHigh::new();
        g.add_node("j", CompKind::Join).unwrap();
        g.add_node("s", CompKind::Split).unwrap();
        g.expose_input("a", ep("j", "in0")).unwrap();
        g.connect(ep("j", "out"), ep("s", "in")).unwrap();
        g.connect(ep("s", "out1"), ep("j", "in1")).unwrap();
        g.expose_output("y", ep("s", "out0")).unwrap();
        let region = g.node_names();
        assert_eq!(extract_region_function(&g, &region), Err(ExtractError::Cyclic));
    }

    #[test]
    fn constants_synchronize_with_their_trigger() {
        let mut g = ExprHigh::new();
        g.add_node("c", CompKind::Constant { value: Value::Int(42) }).unwrap();
        g.expose_input("t", ep("c", "ctrl")).unwrap();
        g.expose_output("v", ep("c", "out")).unwrap();
        let region = g.node_names();
        let rf = extract_region_function(&g, &region).unwrap();
        assert_eq!(rf.outputs[0].1.eval(&Value::Unit).unwrap(), Value::Int(42));
    }
}
