//! Static timing analysis (the post-place-and-route clock-period substitute).
//!
//! Each component contributes either a pass-through combinational delay or,
//! for sequential components (pipelined functional units, opaque buffers,
//! Init registers, the Tagger), an input-side (setup + input logic) and
//! output-side (clock-to-q + output logic) delay. The clock period is the
//! longest register-to-register combinational path; buffer placement must
//! have cut every cycle first.
//!
//! The constants are calibrated so elastic circuits land in the 5–12 ns
//! range of the paper's Table 2 on a Kintex-7-class model; tagged circuits
//! come out slower because the Tagger's tag-allocation logic and the Merge
//! on the loop path are slow components, mirroring the paper's observation.

use graphiti_ir::{CompKind, Endpoint, ExprHigh, NodeId, Op, PureFn};
use std::collections::BTreeMap;
use std::fmt;

/// Per-component timing characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeTiming {
    /// Pass-through combinational delay (ns).
    Comb(f64),
    /// Sequential: `(input-side, output-side)` delays (ns).
    Seq(f64, f64),
}

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The circuit still has a cycle with no sequential element.
    CombinationalLoop,
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::CombinationalLoop => {
                write!(f, "combinational loop: run buffer placement first")
            }
        }
    }
}

impl std::error::Error for TimingError {}

fn comb_op_delay(op: Op) -> f64 {
    match op {
        Op::AddI | Op::SubI => 1.9,
        Op::LtI | Op::GeI | Op::EqI => 1.6,
        Op::NeZero => 0.9,
        Op::Not | Op::And | Op::Or => 0.4,
        Op::Select => 1.0,
        // Pipelined ops are sequential and never reach here.
        _ => 2.0,
    }
}

/// The timing characteristics of a component in an elastic circuit.
pub fn elastic_timing(kind: &CompKind) -> NodeTiming {
    use NodeTiming::{Comb, Seq};
    match kind {
        CompKind::Fork { ways } => Comb(0.25 + 0.05 * (*ways as f64)),
        CompKind::Join => Comb(0.6),
        CompKind::Split => Comb(0.4),
        CompKind::Mux => Comb(1.15),
        CompKind::Branch => Comb(0.95),
        CompKind::Merge => Comb(1.3),
        CompKind::Init { .. } => Seq(0.5, 0.6),
        CompKind::Buffer { transparent: true, .. } => Comb(0.5),
        CompKind::Buffer { transparent: false, .. } => Seq(0.7, 0.7),
        CompKind::Sink => Comb(0.0),
        CompKind::Constant { .. } => Comb(0.2),
        CompKind::Operator { op } => match op {
            Op::AddF | Op::SubF => Seq(2.9, 2.7),
            Op::MulF => Seq(2.8, 2.6),
            Op::DivF => Seq(3.1, 2.9),
            Op::GeF | Op::LtF => Seq(2.4, 2.2),
            Op::IToF => Seq(2.2, 2.0),
            Op::MulI => Seq(2.0, 1.8),
            Op::Mod | Op::DivI => Seq(3.3, 3.0),
            comb => Comb(comb_op_delay(*comb)),
        },
        CompKind::Pure { func } => {
            if crate::sim::purefn_latency(func) > 0 {
                Seq(2.9, 2.7)
            } else {
                Comb(0.8 + 0.9 * purefn_comb_ops(func) as f64)
            }
        }
        CompKind::TaggerUntagger { tags } => {
            // Tag allocation compares against the free pool and the reorder
            // buffer does an associative lookup; wider pools are slower, and
            // this path cannot be pipelined away — it is why tagged circuits
            // clock slower in the paper's Table 2.
            let w = (*tags as f64).log2().max(1.0);
            Seq(3.4 + 0.55 * w, 3.2 + 0.55 * w)
        }
        CompKind::Load { .. } => Seq(1.9, 2.0),
        CompKind::Store { .. } => Seq(1.7, 0.6),
        CompKind::StoreQueue { body_plan, epi_plan, .. } => {
            // The disambiguation CAM compares a load address against every
            // older store entry; wider windows are slower, like the
            // tagger's associative reorder lookup.
            let w = ((body_plan.len() + epi_plan.len()) as f64).max(1.0).log2().max(1.0);
            Seq(2.6 + 0.45 * w, 2.4 + 0.45 * w)
        }
    }
}

/// Estimated pure-function combinational size (used in [`elastic_timing`]).
pub fn purefn_comb_ops(f: &PureFn) -> usize {
    match f {
        PureFn::Comp(a, b) | PureFn::Par(a, b) => purefn_comb_ops(a) + purefn_comb_ops(b),
        PureFn::Op(_) => 1,
        _ => 0,
    }
}

/// A `(node index, port index)` pair of a [`TimingView`]; the port indexes
/// the node's interface in order.
pub(crate) type Port = (usize, usize);

/// One node of a [`TimingView`].
pub(crate) struct ViewNode {
    pub(crate) name: NodeId,
    pub(crate) timing: NodeTiming,
    pub(crate) ins: Vec<String>,
    pub(crate) outs: Vec<String>,
    /// The output driving each input port, when a wire does.
    pub(crate) drivers: Vec<Option<Port>>,
    /// The input consuming each output port, when a wire does.
    pub(crate) consumers: Vec<Option<Port>>,
    /// Whether some output port is an external output of the circuit.
    pub(crate) external_out: bool,
}

impl ViewNode {
    /// The path length a wire from this node carries, given the arrival
    /// time at its inputs: a sequential output starts a fresh path.
    pub(crate) fn out_time(&self, arrival: f64) -> f64 {
        match self.timing {
            NodeTiming::Seq(_, out_side) => out_side,
            NodeTiming::Comb(d) => arrival + d,
        }
    }

    /// The length of a path ending in this node.
    pub(crate) fn end_time(&self, arrival: f64) -> f64 {
        match self.timing {
            NodeTiming::Seq(in_side, _) => arrival + in_side,
            NodeTiming::Comb(d) => arrival + d,
        }
    }

    pub(crate) fn is_comb(&self) -> bool {
        matches!(self.timing, NodeTiming::Comb(_))
    }
}

/// The circuit indexed for timing and placement: nodes in a `Vec` with
/// their [`elastic_timing`] and wiring, plus their name order. Placement
/// splices buffers into the view and the graph alike, so one build serves
/// every timing pass of a placement run. Only `new` and `splice` change
/// it, so each wire appears as a driver entry and a consumer entry alike.
pub(crate) struct TimingView {
    nodes: Vec<ViewNode>,
    /// Node indices in name order.
    order: Vec<usize>,
}

impl TimingView {
    pub(crate) fn new(g: &ExprHigh) -> TimingView {
        let index: BTreeMap<&str, usize> =
            g.nodes().enumerate().map(|(i, (n, _))| (n.as_str(), i)).collect();
        let mut nodes: Vec<ViewNode> = g
            .nodes()
            .map(|(name, kind)| {
                let (ins, outs) = kind.interface();
                ViewNode {
                    name: name.clone(),
                    timing: elastic_timing(kind),
                    drivers: vec![None; ins.len()],
                    consumers: vec![None; outs.len()],
                    ins,
                    outs,
                    external_out: false,
                }
            })
            .collect();
        let port = |ports: &[String], p: &str| ports.iter().position(|q| q == p).expect("port");
        for (from, to) in g.edges() {
            let (f, t) = (index[from.node.as_str()], index[to.node.as_str()]);
            let (fp, tp) = (port(&nodes[f].outs, &from.port), port(&nodes[t].ins, &to.port));
            nodes[f].consumers[fp] = Some((t, tp));
            nodes[t].drivers[tp] = Some((f, fp));
        }
        for (_, e) in g.outputs() {
            nodes[index[e.node.as_str()]].external_out = true;
        }
        TimingView { order: (0..nodes.len()).collect(), nodes }
    }

    pub(crate) fn nodes(&self) -> &[ViewNode] {
        &self.nodes
    }

    /// Node indices in name order.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// The endpoint of an output port.
    pub(crate) fn output(&self, (node, port): Port) -> Endpoint {
        Endpoint::new(self.nodes[node].name.clone(), self.nodes[node].outs[port].clone())
    }

    /// The endpoint of an input port.
    pub(crate) fn input(&self, (node, port): Port) -> Endpoint {
        Endpoint::new(self.nodes[node].name.clone(), self.nodes[node].ins[port].clone())
    }

    /// Combinational arrival time at every node's inputs: one Kahn pass
    /// over the wires leaving combinational nodes.
    ///
    /// # Errors
    ///
    /// A node the pass never reaches lies on or behind a combinational
    /// loop.
    pub(crate) fn arrivals(&self) -> Result<Vec<f64>, TimingError> {
        let nodes = &self.nodes;
        let mut pending: Vec<usize> = nodes
            .iter()
            .map(|n| n.drivers.iter().flatten().filter(|(d, _)| nodes[*d].is_comb()).count())
            .collect();
        let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| pending[i] == 0).collect();
        let mut arrival = vec![0.0; nodes.len()];
        let mut reached = 0;
        while let Some(i) = ready.pop() {
            reached += 1;
            arrival[i] = nodes[i]
                .drivers
                .iter()
                .flatten()
                .fold(0.0, |best: f64, &(d, _)| best.max(nodes[d].out_time(arrival[d])));
            if nodes[i].is_comb() {
                for &(c, _) in nodes[i].consumers.iter().flatten() {
                    pending[c] -= 1;
                    if pending[c] == 0 {
                        ready.push(c);
                    }
                }
            }
        }
        if reached < nodes.len() {
            return Err(TimingError::CombinationalLoop);
        }
        Ok(arrival)
    }

    /// Splices a new one-input, one-output node into the wire leaving
    /// `from`, keeping the name order.
    pub(crate) fn splice(&mut self, from: Port, name: NodeId, kind: &CompKind) {
        let to = self.nodes[from.0].consumers[from.1].expect("a wire leaves the port");
        let new = self.nodes.len();
        let at = self.order.partition_point(|&i| self.nodes[i].name < name);
        self.order.insert(at, new);
        let (ins, outs) = kind.interface();
        self.nodes.push(ViewNode {
            name,
            timing: elastic_timing(kind),
            ins,
            outs,
            drivers: vec![Some(from)],
            consumers: vec![Some(to)],
            external_out: false,
        });
        self.nodes[from.0].consumers[from.1] = Some((new, 0));
        self.nodes[to.0].drivers[to.1] = Some((new, 0));
    }
}

/// The clock period under the elastic timing table: the longest path from
/// a sequential output or external input to a sequential input or
/// external output, and at least 1 ns.
///
/// # Errors
///
/// Fails if the circuit has a combinational loop.
pub fn elastic_clock_period(g: &ExprHigh) -> Result<f64, TimingError> {
    let _span = graphiti_obs::span("sim.sta");
    let view = TimingView::new(g);
    let arrival = view.arrivals()?;
    Ok(view
        .nodes()
        .iter()
        .zip(arrival)
        .filter(|(n, _)| !n.is_comb() || n.external_out)
        .fold(1.0, |cp, (n, a)| cp.max(n.end_time(a))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_ir::ep;

    #[test]
    fn chain_delay_accumulates() {
        // buffer(seq) -> mux -> branch -> buffer(seq):
        // CP = 0.7 (out) + 1.15 + 0.95 + 0.7 (in) = 3.5
        let mut g = ExprHigh::new();
        g.add_node("b1", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.add_node("m", CompKind::Mux).unwrap();
        g.add_node("br", CompKind::Branch).unwrap();
        g.add_node("b2", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        g.expose_input("c", ep("m", "cond")).unwrap();
        g.expose_input("x", ep("b1", "in")).unwrap();
        g.expose_input("y", ep("m", "f")).unwrap();
        g.expose_input("c2", ep("br", "cond")).unwrap();
        g.connect(ep("b1", "out"), ep("m", "t")).unwrap();
        g.connect(ep("m", "out"), ep("br", "in")).unwrap();
        g.connect(ep("br", "t"), ep("b2", "in")).unwrap();
        g.expose_output("o1", ep("br", "f")).unwrap();
        g.expose_output("o2", ep("b2", "out")).unwrap();
        let cp = elastic_clock_period(&g).unwrap();
        assert!((cp - 3.5).abs() < 1e-9, "cp = {cp}");
    }

    #[test]
    fn sequential_units_cut_paths() {
        // mux -> fadd (seq) -> branch: two short paths, not one long one.
        let mut g = ExprHigh::new();
        g.add_node("m", CompKind::Mux).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddF }).unwrap();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.expose_input("c", ep("m", "cond")).unwrap();
        g.expose_input("x", ep("m", "t")).unwrap();
        g.expose_input("y", ep("m", "f")).unwrap();
        g.connect(ep("m", "out"), ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("a", "in1")).unwrap();
        g.expose_output("o", ep("a", "out")).unwrap();
        let cp = elastic_clock_period(&g).unwrap();
        // Path: mux(1.15) + fork(0.35) + fadd.in(2.9) = 4.4
        assert!((cp - 4.4).abs() < 1e-9, "cp = {cp}");
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let mut g = ExprHigh::new();
        g.add_node("m", CompKind::Merge).unwrap();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("m", "in0")).unwrap();
        g.connect(ep("m", "out"), ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("k", "in")).unwrap();
        g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
        assert_eq!(elastic_clock_period(&g), Err(TimingError::CombinationalLoop));
        let (g2, _) = crate::place::place_buffers(&g);
        assert!(elastic_clock_period(&g2).is_ok());
    }

    #[test]
    fn tagger_slows_the_clock() {
        let mut small = ExprHigh::new();
        small.add_node("t", CompKind::TaggerUntagger { tags: 4 }).unwrap();
        small.expose_input("a", ep("t", "in")).unwrap();
        small.expose_input("b", ep("t", "retag")).unwrap();
        small.expose_output("c", ep("t", "tagged")).unwrap();
        small.expose_output("d", ep("t", "out")).unwrap();
        let mut big = small.clone();
        if big.kind("t").is_some() {
            big.remove_node("t").unwrap();
            big.add_node("t", CompKind::TaggerUntagger { tags: 64 }).unwrap();
            big.expose_input("a", ep("t", "in")).unwrap();
            big.expose_input("b", ep("t", "retag")).unwrap();
            big.expose_output("c", ep("t", "tagged")).unwrap();
            big.expose_output("d", ep("t", "out")).unwrap();
        }
        let cp_small = elastic_clock_period(&small).unwrap();
        let cp_big = elastic_clock_period(&big).unwrap();
        assert!(cp_big > cp_small);
    }
}
