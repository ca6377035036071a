//! Lowering [`ExprHigh`] to [`ExprLow`] and lifting back.
//!
//! The paper applies a rewrite by lowering the graph so that the matched node
//! set forms a *contiguous* sub-expression (the role of its proven
//! reassociation moves in §4.2), substituting on ExprLow, and lifting back to
//! ExprHigh. `lower_grouped` produces the grouped form and `lift`
//! reconstructs the graph; the rewriting engine splices on ExprHigh instead
//! and keeps this path as the spec its debug builds check every application
//! against. `lower_group` lowers the matched group alone, which is all a
//! refinement obligation needs.

use crate::high::{Attachment, Endpoint, ExprHigh, GraphError, NodeId};
use crate::low::{ExprLow, PortMaps, PortName};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised while lowering or lifting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A dangling fragment port has no assigned external name.
    MissingExternalName(Endpoint),
    /// The graph or fragment contains no nodes.
    EmptyGraph,
    /// Two base components share an instance name.
    DuplicateInstance(String),
    /// A connect refers to a port name that cannot be resolved to node
    /// endpoints.
    UnresolvedConnect(PortName, PortName),
    /// Graph reconstruction failed.
    Graph(GraphError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::MissingExternalName(e) => {
                write!(f, "dangling port `{e}` has no external name")
            }
            LowerError::EmptyGraph => write!(f, "cannot lower an empty graph"),
            LowerError::DuplicateInstance(i) => write!(f, "duplicate instance `{i}`"),
            LowerError::UnresolvedConnect(o, i) => {
                write!(f, "connect `{o}` -> `{i}` does not match any component port")
            }
            LowerError::Graph(g) => write!(f, "graph reconstruction failed: {g}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<GraphError> for LowerError {
    fn from(g: GraphError) -> Self {
        LowerError::Graph(g)
    }
}

/// The result of lowering: the expression plus the external-name tables
/// mapping ExprLow I/O indices back to ExprHigh external port names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lowered {
    /// The lowered expression.
    pub expr: ExprLow,
    /// Graph input names by I/O index.
    pub input_names: BTreeMap<u64, String>,
    /// Graph output names by I/O index.
    pub output_names: BTreeMap<u64, String>,
}

/// Assigns I/O indices to the graph's external ports, in name order.
fn io_indices(g: &ExprHigh) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let ins = g.inputs().enumerate().map(|(i, (n, _))| (n.clone(), i as u64)).collect();
    let outs = g.outputs().enumerate().map(|(i, (n, _))| (n.clone(), i as u64)).collect();
    (ins, outs)
}

/// Lowers a fragment of `g` consisting of `nodes`, where ports dangling out
/// of the fragment get external names from `ext_ins` / `ext_outs` (defaults
/// to the port's own `(node, port)` local name when absent and the port is
/// internal to the full graph).
fn lower_fragment(
    g: &ExprHigh,
    nodes: &BTreeSet<NodeId>,
    ext_ins: &BTreeMap<Endpoint, PortName>,
    ext_outs: &BTreeMap<Endpoint, PortName>,
) -> Result<ExprLow, LowerError> {
    if nodes.is_empty() {
        return Err(LowerError::EmptyGraph);
    }
    let mut bases = Vec::new();
    let mut internal_edges: Vec<(Endpoint, Endpoint)> = Vec::new();
    for name in nodes {
        let kind = g.kind(name).ok_or_else(|| GraphError::UnknownNode(name.clone()))?.clone();
        let (ins, outs) = kind.interface();
        let mut maps = PortMaps::default();
        for p in ins {
            let here = Endpoint::new(name.clone(), p.clone());
            let from_fragment = matches!(
                g.driver(&here),
                Some(Attachment::Wire(src)) if nodes.contains(&src.node)
            );
            let ext = if from_fragment {
                PortName::from(here.clone())
            } else if let Some(n) = ext_ins.get(&here) {
                n.clone()
            } else {
                PortName::from(here.clone())
            };
            maps.ins.insert(p, ext);
        }
        for p in outs {
            let here = Endpoint::new(name.clone(), p.clone());
            let ext = if let Some(n) = ext_outs.get(&here) {
                n.clone()
            } else {
                PortName::from(here.clone())
            };
            maps.outs.insert(p, ext);
        }
        bases.push(ExprLow::Base { inst: name.clone(), kind, maps });
    }
    for (from, to) in g.edges() {
        if nodes.contains(&from.node) && nodes.contains(&to.node) {
            internal_edges.push((from.clone(), to.clone()));
        }
    }
    internal_edges.sort();
    let expr = ExprLow::product_of(bases).connect_all(
        internal_edges.into_iter().map(|(from, to)| (PortName::from(from), PortName::from(to))),
    );
    Ok(expr)
}

/// External names for endpoints exposed as graph I/O.
type ExtPortMap = BTreeMap<Endpoint, PortName>;
/// Io-index back to the graph-level input/output name.
type IoNameMap = BTreeMap<u64, String>;

/// Computes the external-name assignment for ports of `g` that are graph
/// I/O, as `Io(index)` names.
fn io_name_maps(g: &ExprHigh) -> (ExtPortMap, ExtPortMap, IoNameMap, IoNameMap) {
    let (in_idx, out_idx) = io_indices(g);
    let mut ext_ins = BTreeMap::new();
    let mut ext_outs = BTreeMap::new();
    for (name, target) in g.inputs() {
        ext_ins.insert(target.clone(), PortName::Io(in_idx[name]));
    }
    for (name, source) in g.outputs() {
        ext_outs.insert(source.clone(), PortName::Io(out_idx[name]));
    }
    let input_names = in_idx.into_iter().map(|(n, i)| (i, n)).collect();
    let output_names = out_idx.into_iter().map(|(n, i)| (i, n)).collect();
    (ext_ins, ext_outs, input_names, output_names)
}

/// Lowers a complete graph to ExprLow.
///
/// # Errors
///
/// Fails on an empty graph.
pub fn lower(g: &ExprHigh) -> Result<Lowered, LowerError> {
    lower_grouped(g, &BTreeSet::new())
}

/// Lowers the node set `group` of `g` on its own, with the whole graph's
/// port naming: the group sub-expression that [`lower_grouped`] isolates
/// (the whole expression when `group` is every node), built without
/// lowering the rest of the graph.
///
/// # Errors
///
/// Fails on an empty group or unknown nodes.
pub fn lower_group(g: &ExprHigh, group: &BTreeSet<NodeId>) -> Result<ExprLow, LowerError> {
    let (ext_ins, ext_outs, _, _) = io_name_maps(g);
    lower_fragment(g, group, &ext_ins, &ext_outs)
}

/// Lowers `g` such that the nodes in `group` form a contiguous
/// sub-expression: the result has shape
/// `connect*(boundary ∪ rest edges, product(rest, connect*(group edges, product(group))))`.
///
/// When `group` is empty or covers the whole graph, this degenerates to a
/// single fragment.
///
/// # Errors
///
/// Fails on an empty graph or if `group` contains unknown nodes.
pub fn lower_grouped(g: &ExprHigh, group: &BTreeSet<NodeId>) -> Result<Lowered, LowerError> {
    let all = g.node_names();
    for n in group {
        if !all.contains(n) {
            return Err(LowerError::Graph(GraphError::UnknownNode(n.clone())));
        }
    }
    let (ext_ins, ext_outs, input_names, output_names) = io_name_maps(g);
    let rest: BTreeSet<NodeId> = all.difference(group).cloned().collect();

    let mut outer_edges: Vec<(Endpoint, Endpoint)> = Vec::new();
    for (from, to) in g.edges() {
        let both_in_group = group.contains(&from.node) && group.contains(&to.node);
        let both_in_rest = rest.contains(&from.node) && rest.contains(&to.node);
        if both_in_group || both_in_rest {
            continue; // handled inside the fragments
        }
        outer_edges.push((from.clone(), to.clone()));
    }
    outer_edges.sort();

    let expr = match (rest.is_empty(), group.is_empty()) {
        (true, true) => return Err(LowerError::EmptyGraph),
        (true, false) => lower_fragment(g, group, &ext_ins, &ext_outs)?,
        (false, true) => lower_fragment(g, &rest, &ext_ins, &ext_outs)?,
        (false, false) => {
            let rest_expr = lower_fragment(g, &rest, &ext_ins, &ext_outs)?;
            let group_expr = lower_fragment(g, group, &ext_ins, &ext_outs)?;
            ExprLow::Product(Box::new(rest_expr), Box::new(group_expr))
        }
    };
    let expr = expr.connect_all(
        outer_edges.into_iter().map(|(from, to)| (PortName::from(from), PortName::from(to))),
    );
    Ok(Lowered { expr, input_names, output_names })
}

/// Lifts an ExprLow expression back to an ExprHigh graph.
///
/// Io port names become external ports named from the provided tables (or
/// `in{i}` / `out{i}` when absent).
///
/// # Errors
///
/// Fails on duplicate instance names or connects that do not resolve to
/// component ports.
pub fn lift(lowered: &Lowered) -> Result<ExprHigh, LowerError> {
    lift_expr(&lowered.expr, &lowered.input_names, &lowered.output_names)
}

/// Lifts a bare expression with explicit I/O name tables; see [`lift`].
///
/// # Errors
///
/// Fails on duplicate instance names or unresolved connects.
pub fn lift_expr(
    expr: &ExprLow,
    input_names: &BTreeMap<u64, String>,
    output_names: &BTreeMap<u64, String>,
) -> Result<ExprHigh, LowerError> {
    let mut g = ExprHigh::new();
    // Index: external name -> (endpoint, is_input)
    let mut by_in_name: BTreeMap<PortName, Endpoint> = BTreeMap::new();
    let mut by_out_name: BTreeMap<PortName, Endpoint> = BTreeMap::new();
    for (inst, kind, maps) in expr.bases() {
        if g.kind(inst).is_some() {
            return Err(LowerError::DuplicateInstance(inst.to_string()));
        }
        g.add_node(inst, kind.clone())?;
        for (p, ext) in &maps.ins {
            by_in_name.insert(ext.clone(), Endpoint::new(inst, p.clone()));
        }
        for (p, ext) in &maps.outs {
            by_out_name.insert(ext.clone(), Endpoint::new(inst, p.clone()));
        }
    }
    let mut connected_ins: BTreeSet<PortName> = BTreeSet::new();
    let mut connected_outs: BTreeSet<PortName> = BTreeSet::new();
    for (o, i) in expr.connections() {
        let from = by_out_name
            .get(o)
            .ok_or_else(|| LowerError::UnresolvedConnect(o.clone(), i.clone()))?;
        let to =
            by_in_name.get(i).ok_or_else(|| LowerError::UnresolvedConnect(o.clone(), i.clone()))?;
        g.connect(from.clone(), to.clone())?;
        connected_outs.insert(o.clone());
        connected_ins.insert(i.clone());
    }
    // Dangling ports become external ports.
    for (ext, target) in &by_in_name {
        if connected_ins.contains(ext) {
            continue;
        }
        let name = match ext {
            PortName::Io(i) => input_names.get(i).cloned().unwrap_or_else(|| format!("in{i}")),
            PortName::Local(a, b) => format!("{a}:{b}"),
        };
        g.expose_input(name, target.clone())?;
    }
    for (ext, source) in &by_out_name {
        if connected_outs.contains(ext) {
            continue;
        }
        let name = match ext {
            PortName::Io(i) => output_names.get(i).cloned().unwrap_or_else(|| format!("out{i}")),
            PortName::Local(a, b) => format!("{a}:{b}"),
        };
        g.expose_output(name, source.clone())?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::CompKind;
    use crate::func::Op;
    use crate::high::ep;

    /// The fork/modulo example of the paper's Fig. 6.
    fn fork_mod() -> ExprHigh {
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("m", CompKind::Operator { op: Op::Mod }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("m", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
        g.expose_output("y", ep("m", "out")).unwrap();
        g
    }

    #[test]
    fn lower_then_lift_roundtrips() {
        let g = fork_mod();
        let lowered = lower(&g).unwrap();
        let g2 = lift(&lowered).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn lower_produces_expected_structure() {
        let g = fork_mod();
        let lowered = lower(&g).unwrap();
        assert_eq!(lowered.expr.base_count(), 2);
        assert_eq!(lowered.expr.connections().len(), 2);
        let (ins, outs) = lowered.expr.dangling();
        assert_eq!(ins, vec![PortName::Io(0)]);
        assert_eq!(outs, vec![PortName::Io(0)]);
    }

    #[test]
    fn grouped_lowering_isolates_subtree() {
        let g = fork_mod();
        let group: BTreeSet<NodeId> = ["m".to_string()].into_iter().collect();
        let lowered = lower_grouped(&g, &group).unwrap();
        // Shape: connect(connect(product(rest, group)))
        let mut cur = &lowered.expr;
        let mut connects = 0;
        while let ExprLow::Connect { inner, .. } = cur {
            connects += 1;
            cur = inner;
        }
        assert_eq!(connects, 2, "the two crossing edges are outer connects");
        match cur {
            ExprLow::Product(_, group_expr) => {
                assert_eq!(group_expr.base_count(), 1);
            }
            other => panic!("expected product, got {other}"),
        }
    }

    /// The group subtree of a grouped lowering, found the way
    /// `grouped_lowering_isolates_subtree` finds it: the right product child
    /// below the outer connects. A whole-graph group is the whole expression.
    fn group_subtree(expr: &ExprLow, whole: bool) -> &ExprLow {
        if whole {
            return expr;
        }
        let mut cur = expr;
        while let ExprLow::Connect { inner, .. } = cur {
            cur = inner;
        }
        match cur {
            ExprLow::Product(_, group_expr) => group_expr,
            other => panic!("expected product, got {other}"),
        }
    }

    #[test]
    fn lower_group_is_the_grouped_subtree() {
        let g = fork_mod();
        for group_nodes in [vec!["m"], vec!["f"], vec!["f", "m"]] {
            let group: BTreeSet<NodeId> = group_nodes.iter().map(|s| s.to_string()).collect();
            let lowered = lower_grouped(&g, &group).unwrap();
            let whole = group == g.node_names();
            assert_eq!(
                &lower_group(&g, &group).unwrap(),
                group_subtree(&lowered.expr, whole),
                "group {group_nodes:?}"
            );
        }
        assert_eq!(lower_group(&g, &BTreeSet::new()), Err(LowerError::EmptyGraph));
    }

    #[test]
    fn grouped_lowering_roundtrips() {
        let g = fork_mod();
        for group_nodes in [vec!["m"], vec!["f"], vec!["f", "m"], vec![]] {
            let group: BTreeSet<NodeId> = group_nodes.iter().map(|s| s.to_string()).collect();
            let lowered = lower_grouped(&g, &group).unwrap();
            let g2 = lift(&lowered).unwrap();
            assert_eq!(g, g2, "group {group_nodes:?}");
        }
    }

    #[test]
    fn substitute_group_subtree_and_lift() {
        // Replace the mod operator by an add operator via ExprLow
        // substitution, then lift and check the graph changed accordingly.
        let g = fork_mod();
        let group: BTreeSet<NodeId> = ["m".to_string()].into_iter().collect();
        let lowered = lower_grouped(&g, &group).unwrap();
        let lhs = group_subtree(&lowered.expr, false).clone();
        // Build an rhs exposing the same external names.
        let rhs = {
            let kind = CompKind::Operator { op: Op::AddI };
            let mut maps = PortMaps::default();
            maps.ins.insert("in0".into(), PortName::local("m", "in0"));
            maps.ins.insert("in1".into(), PortName::local("m", "in1"));
            maps.outs.insert("out".into(), PortName::Io(0));
            ExprLow::Base { inst: "m2".into(), kind, maps }
        };
        let expr = lowered.expr.substitute(&lhs, &rhs);
        let g2 = lift_expr(&expr, &lowered.input_names, &lowered.output_names).unwrap();
        assert_eq!(g2.kind("m2"), Some(&CompKind::Operator { op: Op::AddI }));
        assert!(g2.kind("m").is_none());
        g2.validate().unwrap();
    }

    #[test]
    fn lift_rejects_duplicate_instances() {
        let e = ExprLow::Product(
            Box::new(ExprLow::base("a", CompKind::Sink)),
            Box::new(ExprLow::base("a", CompKind::Sink)),
        );
        let err = lift_expr(&e, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(err, Err(LowerError::DuplicateInstance("a".into())));
    }

    #[test]
    fn lift_rejects_unresolved_connect() {
        let e = ExprLow::base("a", CompKind::Sink)
            .connect_all([(PortName::local("zz", "out"), PortName::local("a", "in"))]);
        assert!(matches!(
            lift_expr(&e, &BTreeMap::new(), &BTreeMap::new()),
            Err(LowerError::UnresolvedConnect(..))
        ));
    }

    #[test]
    fn lower_empty_graph_fails() {
        let g = ExprHigh::new();
        assert_eq!(lower(&g).unwrap_err(), LowerError::EmptyGraph);
    }
}
