//! ExprHigh: the named, graph-shaped circuit representation.
//!
//! ExprHigh is the higher-level language of Fig. 1 in the paper: a graph of
//! named component instances with point-to-point connections between ports,
//! plus dangling graph-level inputs and outputs. Rewrites are *matched* and
//! *applied* on ExprHigh: the engine splices each replacement into the graph
//! with the mutation API below. The paper's application, substitution on
//! [ExprLow](crate::low) and lifting back (§4.2), is the spec that debug
//! builds check every splice against.

use crate::component::CompKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A node (component instance) identifier.
pub type NodeId = String;

/// One end of a connection: a node and one of its ports.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The node name.
    pub node: NodeId,
    /// The port name on that node's interface.
    pub port: String,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(node: impl Into<NodeId>, port: impl Into<String>) -> Self {
        Endpoint { node: node.into(), port: port.into() }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.port)
    }
}

/// Shorthand for [`Endpoint::new`].
pub fn ep(node: impl Into<NodeId>, port: impl Into<String>) -> Endpoint {
    Endpoint::new(node, port)
}

/// What drives an input port, or what consumes an output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attachment {
    /// An edge to/from another component port.
    Wire(Endpoint),
    /// A graph-level external port with the given name.
    External(String),
}

/// Errors raised by graph construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node with this name already exists.
    DuplicateNode(NodeId),
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// The referenced port does not exist on the node's interface.
    UnknownPort(Endpoint),
    /// The input port is already driven.
    PortAlreadyDriven(Endpoint),
    /// The output port is already consumed.
    PortAlreadyConsumed(Endpoint),
    /// An external port with this name already exists.
    DuplicateExternal(String),
    /// A port is left unconnected.
    Unconnected(Endpoint),
    /// The two endpoints of a connection have incompatible types.
    TypeMismatch {
        /// Producer endpoint.
        from: Endpoint,
        /// Consumer endpoint.
        to: Endpoint,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateNode(n) => write!(f, "duplicate node `{n}`"),
            GraphError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            GraphError::UnknownPort(e) => write!(f, "unknown port `{e}`"),
            GraphError::PortAlreadyDriven(e) => write!(f, "input port `{e}` is already driven"),
            GraphError::PortAlreadyConsumed(e) => {
                write!(f, "output port `{e}` is already consumed")
            }
            GraphError::DuplicateExternal(n) => write!(f, "duplicate external port `{n}`"),
            GraphError::Unconnected(e) => write!(f, "port `{e}` is unconnected"),
            GraphError::TypeMismatch { from, to } => {
                write!(f, "type mismatch on connection `{from}` -> `{to}`")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A dataflow circuit as a graph of named components.
///
/// Invariants maintained by the mutation API:
/// * every edge connects an existing output port to an existing input port,
/// * each input port has at most one driver (edge or external input),
/// * each output port has at most one consumer (edge or external output).
///
/// A *complete* circuit (checked by [`ExprHigh::validate`]) additionally has
/// every port connected.
///
/// # Examples
///
/// ```
/// use graphiti_ir::{ep, CompKind, ExprHigh, Op};
/// let mut g = ExprHigh::new();
/// g.add_node("f", CompKind::Fork { ways: 2 })?;
/// g.add_node("m", CompKind::Operator { op: Op::Mod })?;
/// g.expose_input("x", ep("f", "in"))?;
/// g.connect(ep("f", "out0"), ep("m", "in0"))?;
/// g.connect(ep("f", "out1"), ep("m", "in1"))?;
/// g.expose_output("y", ep("m", "out"))?;
/// g.validate()?;
/// # Ok::<(), graphiti_ir::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExprHigh {
    nodes: BTreeMap<NodeId, CompKind>,
    /// Edges keyed by producer endpoint.
    edges: BTreeMap<Endpoint, Endpoint>,
    /// Reverse index keyed by consumer endpoint.
    redges: BTreeMap<Endpoint, Endpoint>,
    /// External inputs: name -> the input port they drive.
    inputs: BTreeMap<String, Endpoint>,
    /// External outputs: name -> the output port they consume.
    outputs: BTreeMap<String, Endpoint>,
}

impl ExprHigh {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of component instances.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over `(name, kind)` pairs in name order.
    pub fn nodes(&self) -> impl Iterator<Item = (&NodeId, &CompKind)> {
        self.nodes.iter()
    }

    /// The kind of a node, if present.
    pub fn kind(&self, node: &str) -> Option<&CompKind> {
        self.nodes.get(node)
    }

    /// Iterates over edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (&Endpoint, &Endpoint)> {
        self.edges.iter()
    }

    /// External inputs as `(name, driven input port)`.
    pub fn inputs(&self) -> impl Iterator<Item = (&String, &Endpoint)> {
        self.inputs.iter()
    }

    /// External outputs as `(name, consumed output port)`.
    pub fn outputs(&self) -> impl Iterator<Item = (&String, &Endpoint)> {
        self.outputs.iter()
    }

    /// Adds a node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if the name is taken.
    pub fn add_node(&mut self, name: impl Into<NodeId>, kind: CompKind) -> Result<(), GraphError> {
        let name = name.into();
        if self.nodes.contains_key(&name) {
            return Err(GraphError::DuplicateNode(name));
        }
        self.nodes.insert(name, kind);
        Ok(())
    }

    /// Replaces the kind of an existing node in place. The new kind must
    /// expose the same port interface, so every attached edge stays valid
    /// (e.g. retuning a Buffer's capacity).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a missing node and
    /// [`GraphError::UnknownPort`] when the interfaces differ.
    pub fn set_kind(&mut self, name: &str, kind: CompKind) -> Result<(), GraphError> {
        let old = self.nodes.get(name).ok_or_else(|| GraphError::UnknownNode(name.to_string()))?;
        if old.interface() != kind.interface() {
            return Err(GraphError::UnknownPort(ep(name, "<interface mismatch>")));
        }
        self.nodes.insert(name.to_string(), kind);
        Ok(())
    }

    /// Returns a node name starting with `prefix` that is not yet used.
    pub fn fresh(&self, prefix: &str) -> NodeId {
        if !self.nodes.contains_key(prefix) {
            return prefix.to_string();
        }
        let mut i = 0usize;
        loop {
            let cand = format!("{prefix}_{i}");
            if !self.nodes.contains_key(&cand) {
                return cand;
            }
            i += 1;
        }
    }

    fn check_out_port(&self, e: &Endpoint) -> Result<(), GraphError> {
        let kind =
            self.nodes.get(&e.node).ok_or_else(|| GraphError::UnknownNode(e.node.clone()))?;
        if !kind.has_out_port(&e.port) {
            return Err(GraphError::UnknownPort(e.clone()));
        }
        Ok(())
    }

    fn check_in_port(&self, e: &Endpoint) -> Result<(), GraphError> {
        let kind =
            self.nodes.get(&e.node).ok_or_else(|| GraphError::UnknownNode(e.node.clone()))?;
        if !kind.has_in_port(&e.port) {
            return Err(GraphError::UnknownPort(e.clone()));
        }
        Ok(())
    }

    /// Connects an output port to an input port.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is invalid or already connected.
    pub fn connect(&mut self, from: Endpoint, to: Endpoint) -> Result<(), GraphError> {
        self.check_out_port(&from)?;
        self.check_in_port(&to)?;
        if self.is_consumed(&from) {
            return Err(GraphError::PortAlreadyConsumed(from));
        }
        if self.is_driven(&to) {
            return Err(GraphError::PortAlreadyDriven(to));
        }
        self.redges.insert(to.clone(), from.clone());
        self.edges.insert(from, to);
        Ok(())
    }

    /// Declares a graph-level input named `name` driving input port `to`.
    ///
    /// # Errors
    ///
    /// Fails if the endpoint is invalid or already driven, or the name taken.
    pub fn expose_input(
        &mut self,
        name: impl Into<String>,
        to: Endpoint,
    ) -> Result<(), GraphError> {
        let name = name.into();
        self.check_in_port(&to)?;
        if self.inputs.contains_key(&name) {
            return Err(GraphError::DuplicateExternal(name));
        }
        if self.is_driven(&to) {
            return Err(GraphError::PortAlreadyDriven(to));
        }
        self.inputs.insert(name, to);
        Ok(())
    }

    /// Declares a graph-level output named `name` consuming output port
    /// `from`.
    ///
    /// # Errors
    ///
    /// Fails if the endpoint is invalid or already consumed, or the name
    /// taken.
    pub fn expose_output(
        &mut self,
        name: impl Into<String>,
        from: Endpoint,
    ) -> Result<(), GraphError> {
        let name = name.into();
        self.check_out_port(&from)?;
        if self.outputs.contains_key(&name) {
            return Err(GraphError::DuplicateExternal(name));
        }
        if self.is_consumed(&from) {
            return Err(GraphError::PortAlreadyConsumed(from));
        }
        self.outputs.insert(name, from);
        Ok(())
    }

    /// Whether input port `to` is driven, by an edge or an external input.
    fn is_driven(&self, to: &Endpoint) -> bool {
        self.redges.contains_key(to) || self.inputs.values().any(|e| e == to)
    }

    /// Whether output port `from` is consumed, by an edge or an external
    /// output.
    fn is_consumed(&self, from: &Endpoint) -> bool {
        self.edges.contains_key(from) || self.outputs.values().any(|e| e == from)
    }

    /// What drives input port `to`, if anything.
    pub fn driver(&self, to: &Endpoint) -> Option<Attachment> {
        if let Some(from) = self.redges.get(to) {
            return Some(Attachment::Wire(from.clone()));
        }
        self.inputs.iter().find(|(_, e)| *e == to).map(|(n, _)| Attachment::External(n.clone()))
    }

    /// What consumes output port `from`, if anything.
    pub fn consumer(&self, from: &Endpoint) -> Option<Attachment> {
        if let Some(to) = self.edges.get(from) {
            return Some(Attachment::Wire(to.clone()));
        }
        self.outputs.iter().find(|(_, e)| *e == from).map(|(n, _)| Attachment::External(n.clone()))
    }

    /// Removes the attachment of input port `to` (edge or external input),
    /// returning what drove it.
    pub fn detach_input(&mut self, to: &Endpoint) -> Option<Attachment> {
        if let Some(from) = self.redges.remove(to) {
            self.edges.remove(&from);
            return Some(Attachment::Wire(from));
        }
        let name = self.inputs.iter().find(|(_, e)| *e == to).map(|(n, _)| n.clone())?;
        self.inputs.remove(&name);
        Some(Attachment::External(name))
    }

    /// Removes the attachment of output port `from` (edge or external
    /// output), returning what consumed it.
    pub fn detach_output(&mut self, from: &Endpoint) -> Option<Attachment> {
        if let Some(to) = self.edges.remove(from) {
            self.redges.remove(&to);
            return Some(Attachment::Wire(to));
        }
        let name = self.outputs.iter().find(|(_, e)| *e == from).map(|(n, _)| n.clone())?;
        self.outputs.remove(&name);
        Some(Attachment::External(name))
    }

    /// Removes a node and detaches all its ports, returning its kind.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the node does not exist.
    pub fn remove_node(&mut self, name: &str) -> Result<CompKind, GraphError> {
        let kind =
            self.nodes.remove(name).ok_or_else(|| GraphError::UnknownNode(name.to_string()))?;
        let (ins, outs) = kind.interface();
        for p in ins {
            self.detach_input(&Endpoint::new(name, p));
        }
        for p in outs {
            self.detach_output(&Endpoint::new(name, p));
        }
        Ok(kind)
    }

    /// Checks that the circuit is complete: every port of every node is
    /// connected (to an edge or an external port).
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError::Unconnected`] port found, in node
    /// then port order.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.validate_except(&BTreeSet::new())
    }

    /// [`ExprHigh::validate`] over the nodes outside `skip`. The rewrite
    /// engine checks a graph this way before splicing out the matched
    /// nodes `skip`, whose ports its own checks cover.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError::Unconnected`] port found outside
    /// `skip`.
    pub fn validate_except(&self, skip: &BTreeSet<NodeId>) -> Result<(), GraphError> {
        let mut e = Endpoint::new(String::new(), String::new());
        for (name, kind) in self.nodes.iter().filter(|(n, _)| !skip.contains(*n)) {
            e.node.clone_from(name);
            let (ins, outs) = kind.interface();
            for p in ins {
                e.port = p;
                if !self.is_driven(&e) {
                    return Err(GraphError::Unconnected(e));
                }
            }
            for p in outs {
                e.port = p;
                if !self.is_consumed(&e) {
                    return Err(GraphError::Unconnected(e));
                }
            }
        }
        Ok(())
    }

    /// Checks edge-wise type compatibility using the components' declared
    /// port types ([`Ty::Any`](crate::Ty::Any) is a wildcard).
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError::TypeMismatch`] found.
    pub fn typecheck(&self) -> Result<(), GraphError> {
        for (from, to) in &self.edges {
            let fk = &self.nodes[&from.node];
            let tk = &self.nodes[&to.node];
            let (_, fouts) = fk.interface();
            let (tins, _) = tk.interface();
            let (_, ftys) = fk.port_types();
            let (ttys, _) = tk.port_types();
            let fi = fouts.iter().position(|p| *p == from.port).expect("validated port");
            let ti = tins.iter().position(|p| *p == to.port).expect("validated port");
            if !ftys[fi].compatible(&ttys[ti]) {
                return Err(GraphError::TypeMismatch { from: from.clone(), to: to.clone() });
            }
        }
        Ok(())
    }

    /// The set of node names.
    pub fn node_names(&self) -> BTreeSet<NodeId> {
        self.nodes.keys().cloned().collect()
    }

    /// A histogram of component type names, for reporting.
    ///
    /// ```
    /// use graphiti_ir::{CompKind, ExprHigh};
    /// let mut g = ExprHigh::new();
    /// g.add_node("a", CompKind::Sink)?;
    /// g.add_node("b", CompKind::Sink)?;
    /// g.add_node("m", CompKind::Merge)?;
    /// assert_eq!(g.kind_histogram()["sink"], 2);
    /// # Ok::<(), graphiti_ir::GraphError>(())
    /// ```
    pub fn kind_histogram(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut h = std::collections::BTreeMap::new();
        for (_, k) in self.nodes() {
            *h.entry(k.type_name()).or_insert(0) += 1;
        }
        h
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

impl fmt::Display for ExprHigh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {{")?;
        for (n, k) in &self.nodes {
            writeln!(f, "  {n}: {k}")?;
        }
        for (from, to) in &self.edges {
            writeln!(f, "  {from} -> {to}")?;
        }
        for (n, e) in &self.inputs {
            writeln!(f, "  in {n} -> {e}")?;
        }
        for (n, e) in &self.outputs {
            writeln!(f, "  out {e} -> {n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Op;

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
    fn build_and_validate() {
        let g = fork_mod();
        assert_eq!(g.node_count(), 2);
        g.validate().unwrap();
        g.typecheck().unwrap();
    }

    #[test]
    fn double_drive_rejected() {
        let mut g = fork_mod();
        assert_eq!(
            g.connect(ep("f", "out0"), ep("m", "in1")),
            Err(GraphError::PortAlreadyConsumed(ep("f", "out0")))
        );
        g.add_node("f2", CompKind::Fork { ways: 2 }).unwrap();
        assert_eq!(
            g.connect(ep("f2", "out0"), ep("m", "in0")),
            Err(GraphError::PortAlreadyDriven(ep("m", "in0")))
        );
    }

    #[test]
    fn unknown_ports_rejected() {
        let mut g = fork_mod();
        assert_eq!(
            g.connect(ep("f", "out7"), ep("m", "in0")),
            Err(GraphError::UnknownPort(ep("f", "out7")))
        );
        assert_eq!(
            g.connect(ep("zz", "out"), ep("m", "in0")),
            Err(GraphError::UnknownNode("zz".into()))
        );
    }

    #[test]
    fn incomplete_graph_fails_validation() {
        let mut g = ExprHigh::new();
        g.add_node("s", CompKind::Sink).unwrap();
        assert_eq!(g.validate(), Err(GraphError::Unconnected(ep("s", "in"))));
    }

    #[test]
    fn validation_reports_the_first_unconnected_port_in_node_then_port_order() {
        let mut g = fork_mod();
        g.detach_output(&ep("m", "out"));
        assert_eq!(g.validate(), Err(GraphError::Unconnected(ep("m", "out"))));
        // An edge's removal leaves both of its ends unconnected; `f` comes
        // before `m`.
        g.detach_output(&ep("f", "out1"));
        assert_eq!(g.validate(), Err(GraphError::Unconnected(ep("f", "out1"))));
        // A node's inputs come before its outputs.
        g.detach_input(&ep("f", "in"));
        assert_eq!(g.validate(), Err(GraphError::Unconnected(ep("f", "in"))));
        // Exposing ports reconnects them through the external tables.
        g.expose_input("x", ep("f", "in")).unwrap();
        g.expose_output("y1", ep("f", "out1")).unwrap();
        g.expose_input("z", ep("m", "in1")).unwrap();
        g.expose_output("y", ep("m", "out")).unwrap();
        g.validate().unwrap();
        assert_eq!(
            g.expose_output("y2", ep("f", "out1")),
            Err(GraphError::PortAlreadyConsumed(ep("f", "out1")))
        );
        assert_eq!(
            g.connect(ep("f", "out1"), ep("m", "in1")),
            Err(GraphError::PortAlreadyConsumed(ep("f", "out1")))
        );
    }

    #[test]
    fn remove_node_detaches_edges() {
        let mut g = fork_mod();
        g.remove_node("m").unwrap();
        assert!(g.consumer(&ep("f", "out0")).is_none());
        assert!(g.outputs().next().is_none());
    }

    #[test]
    fn driver_and_consumer_lookups() {
        let g = fork_mod();
        assert_eq!(g.driver(&ep("f", "in")), Some(Attachment::External("x".into())));
        assert_eq!(g.driver(&ep("m", "in0")), Some(Attachment::Wire(ep("f", "out0"))));
        assert_eq!(g.consumer(&ep("m", "out")), Some(Attachment::External("y".into())));
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let g = fork_mod();
        assert_eq!(g.fresh("z"), "z");
        let n = g.fresh("f");
        assert_ne!(n, "f");
        assert!(!g.node_names().contains(&n));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut g = ExprHigh::new();
        g.add_node("c", CompKind::Constant { value: Value::Bool(true) }).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddI }).unwrap();
        g.connect(ep("c", "out"), ep("a", "in0")).unwrap();
        assert!(matches!(g.typecheck(), Err(GraphError::TypeMismatch { .. })));
    }

    use crate::value::Value;
}
