//! Buffer placement (the substitute for Dynamatic's MILP-based placement
//! [40], in the deadlock-avoiding variant the paper uses).
//!
//! Every cycle in the circuit graph must contain a sequential element, both
//! for simulation throughput and so the timing model sees no combinational
//! loops. The heuristic inserts an opaque Buffer on every DFS back-edge.
//! Circuits containing a Tagger/Untagger get deeper buffers (capacity
//! `tags + 2`) so the out-of-order region can actually hold its in-flight
//! iterations — the paper likewise sizes buffers to the tag count.

use crate::timing::{Port, TimingView};
use graphiti_ir::{Attachment, CompKind, Endpoint, ExprHigh, NodeId};

/// Statistics of a placement run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Buffers inserted on back-edges.
    pub inserted: usize,
    /// Capacity used for the inserted buffers.
    pub slots: usize,
}

/// The tag budget of the circuit, if any tagger is present.
fn tag_budget(g: &ExprHigh) -> Option<u32> {
    g.nodes()
        .filter_map(|(_, k)| match k {
            CompKind::TaggerUntagger { tags } => Some(*tags),
            _ => None,
        })
        .max()
}

/// Finds DFS back-edges over the component graph, as `(output, input)`
/// port pairs: roots in name order, successors in output-port order.
fn back_edges(view: &TimingView) -> Vec<(Port, Port)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; view.nodes().len()];
    let mut back = Vec::new();
    for &root in view.order() {
        if color[root] != Color::White {
            continue;
        }
        // Iterative DFS; each frame holds a node and its next output port.
        let mut stack = vec![(root, 0)];
        color[root] = Color::Gray;
        while let Some((node, port)) = stack.last_mut() {
            let from = (*node, *port);
            let Some(&consumer) = view.nodes()[from.0].consumers.get(from.1) else {
                color[from.0] = Color::Black;
                stack.pop();
                continue;
            };
            *port += 1;
            let Some(to) = consumer else { continue };
            match color[to.0] {
                Color::White => {
                    color[to.0] = Color::Gray;
                    stack.push((to.0, 0));
                }
                Color::Gray => back.push((from, to)),
                Color::Black => {}
            }
        }
    }
    back
}

/// Splices a new `kind` node named `name` into the wire `from -> to`.
fn splice(out: &mut ExprHigh, from: Endpoint, to: Endpoint, name: NodeId, kind: CompKind) {
    out.add_node(name.clone(), kind).expect("fresh name");
    out.detach_output(&from);
    out.connect(from, Endpoint::new(name.clone(), "in")).expect("rewire");
    out.connect(Endpoint::new(name, "out"), to).expect("rewire");
}

/// Inserts opaque buffers on every back-edge and transparent *slack* FIFOs
/// on the inputs of synchronizing components (Joins, multi-operand
/// operators, Branches, Stores), sized to the tag budget.
///
/// The slack is what lets an out-of-order region actually overlap
/// iterations: without it, a 1-slot channel at a Join input back-pressures
/// the whole region while its sibling operand sits in a deep floating-point
/// pipeline. This mirrors the modified buffer-placement strategy the paper
/// uses to avoid deadlocks and sustain throughput in tagged circuits
/// (§6.1), and is applied identically to every flow for comparability.
pub fn place_buffers(g: &ExprHigh) -> (ExprHigh, PlacementStats) {
    let slots = tag_budget(g).map(|t| t as usize + 2).unwrap_or(2);
    let mut out = g.clone();
    let mut stats = PlacementStats { inserted: 0, slots };
    let view = TimingView::new(g);
    for (from, to) in back_edges(&view) {
        let (from, to) = (view.output(from), view.input(to));
        // Skip if the edge already ends or starts at a sequential buffer.
        let from_buf =
            matches!(out.kind(&from.node), Some(CompKind::Buffer { transparent: false, .. }));
        let to_buf =
            matches!(out.kind(&to.node), Some(CompKind::Buffer { transparent: false, .. }));
        if from_buf || to_buf {
            continue;
        }
        let name = out.fresh(&format!("bbuf_{}", stats.inserted));
        splice(&mut out, from, to, name, CompKind::Buffer { slots, transparent: false });
        stats.inserted += 1;
    }

    // Throughput slack on synchronizing inputs.
    let sync_edges: Vec<(Endpoint, Endpoint)> = out
        .nodes()
        .filter(|(_, k)| {
            let (ins, _) = k.interface();
            ins.len() >= 2 && !matches!(k, CompKind::Merge | CompKind::Mux)
        })
        .flat_map(|(n, k)| {
            let (ins, _) = k.interface();
            ins.into_iter().map(|p| Endpoint::new(n.clone(), p)).collect::<Vec<_>>()
        })
        .filter_map(|to| match out.driver(&to) {
            Some(Attachment::Wire(from))
                if !matches!(out.kind(&from.node), Some(CompKind::Buffer { .. })) =>
            {
                Some((from, to))
            }
            _ => None,
        })
        .collect();
    for (k, (from, to)) in sync_edges.into_iter().enumerate() {
        let name = out.fresh(&format!("slack_{k}"));
        splice(&mut out, from, to, name, CompKind::Buffer { slots, transparent: true });
        stats.inserted += 1;
    }
    (out, stats)
}

/// Timing-driven placement: runs [`place_buffers`] and then iteratively
/// registers the midpoint of the critical combinational path until the
/// clock period meets `target_ns` (or no further cut helps). This mirrors
/// the clock-period constraint the paper gives Vivado (4 ns there; the
/// elastic component delays here are coarser, so the default target is
/// higher).
///
/// Every cut goes into the placed graph and into one indexed timing view
/// of it alike, so each round's arrival times cost one topological pass.
pub fn place_buffers_targeted(g: &ExprHigh, target_ns: f64) -> (ExprHigh, PlacementStats) {
    let _span = graphiti_obs::span("sim.place");
    let (mut out, mut stats) = place_buffers(g);
    let mut view = TimingView::new(&out);
    for _ in 0..200 {
        let Ok(arrival) = view.arrivals() else { break };
        let nodes = view.nodes();
        // Worst path endpoint; the first in name order on a tie.
        let mut worst: Option<(f64, usize)> = None;
        for &i in view.order() {
            let end = nodes[i].end_time(arrival[i]);
            if worst.is_none_or(|(w, _)| end > w) {
                worst = Some((end, i));
            }
        }
        let Some((cp, mut cur)) = worst else { break };
        if cp <= target_ns {
            break;
        }
        // Walk the critical path backwards, through the first slowest input
        // in port order, to the edge whose running length crosses the
        // midpoint, and register it there.
        let cut = loop {
            let mut critical: Option<(f64, usize)> = None;
            for (p, driver) in nodes[cur].drivers.iter().enumerate() {
                if let Some((d, _)) = *driver {
                    let c = nodes[d].out_time(arrival[d]);
                    if critical.is_none_or(|(b, _)| c > b) {
                        critical = Some((c, p));
                    }
                }
            }
            let Some((c, p)) = critical else { break None };
            if c <= cp / 2.0 {
                break Some((cur, p));
            }
            let (pred, _) = nodes[cur].drivers[p].expect("critical input is wired");
            if !nodes[pred].is_comb() {
                // Entire path is one hop from a slow sequential output:
                // nothing to cut.
                break None;
            }
            cur = pred;
        };
        let Some(to) = cut else { break };
        let from = nodes[to.0].drivers[to.1].expect("critical input is wired");
        let (from_ep, to_ep) = (view.output(from), view.input(to));
        if matches!(out.kind(&from_ep.node), Some(CompKind::Buffer { transparent: false, .. })) {
            break; // cutting right after a register gains nothing
        }
        let name = out.fresh(&format!("tbuf_{}", stats.inserted));
        let kind = CompKind::Buffer { slots: 1, transparent: false };
        view.splice(from, name.clone(), &kind);
        splice(&mut out, from_ep, to_ep, name, kind);
        stats.inserted += 1;
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{elastic_clock_period, TimingError};
    use graphiti_ir::{ep, Op, PureFn};

    /// A merge/fork ring: one cycle, no sequential element.
    fn ring() -> ExprHigh {
        let mut g = ExprHigh::new();
        g.add_node("m", CompKind::Merge).unwrap();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("m", "in0")).unwrap();
        g.connect(ep("m", "out"), ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("k", "in")).unwrap();
        g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
        g
    }

    #[test]
    fn back_edge_gets_a_buffer() {
        let g = ring();
        assert_eq!(elastic_clock_period(&g), Err(TimingError::CombinationalLoop));
        let (g2, stats) = place_buffers(&g);
        assert_eq!(stats.inserted, 1);
        g2.validate().unwrap();
        assert!(elastic_clock_period(&g2).is_ok());
    }

    #[test]
    fn tag_budget_deepens_buffers() {
        let mut g = ring();
        g.add_node("t", CompKind::TaggerUntagger { tags: 16 }).unwrap();
        // Leave the tagger dangling; placement only reads the tag budget.
        let (_, stats) = place_buffers(&g);
        assert_eq!(stats.slots, 18);
    }

    #[test]
    fn acyclic_graphs_are_untouched() {
        let mut g = ExprHigh::new();
        g.add_node("b", CompKind::Buffer { slots: 1, transparent: true }).unwrap();
        g.expose_input("x", ep("b", "in")).unwrap();
        g.expose_output("y", ep("b", "out")).unwrap();
        let (g2, stats) = place_buffers(&g);
        assert_eq!(stats.inserted, 0);
        assert_eq!(g, g2);
    }

    /// Opaque buffer `a`, then `kinds` in a row (each wired through its
    /// first input and `out`), then opaque buffer `z`.
    fn chain(kinds: &[CompKind]) -> ExprHigh {
        let opaque = CompKind::Buffer { slots: 1, transparent: false };
        let mut g = ExprHigh::new();
        g.add_node("a", opaque.clone()).unwrap();
        g.add_node("z", opaque).unwrap();
        g.expose_input("x", ep("a", "in")).unwrap();
        g.expose_output("y", ep("z", "out")).unwrap();
        let mut prev = ep("a", "out");
        for (i, k) in kinds.iter().enumerate() {
            let n = format!("c{i:02}");
            let (ins, _) = k.interface();
            g.add_node(n.clone(), k.clone()).unwrap();
            g.connect(prev, ep(n.clone(), ins[0].clone())).unwrap();
            prev = ep(n, "out");
        }
        g.connect(prev, ep("z", "in")).unwrap();
        g
    }

    fn nots(n: usize) -> Vec<CompKind> {
        vec![CompKind::Operator { op: Op::Not }; n]
    }

    #[test]
    fn timing_driven_cuts_register_a_slow_chain_until_it_meets_the_target() {
        // 0.7 (out) + 40 × 0.4 + 0.7 (in) = 17.4 ns.
        let g = chain(&nots(40));
        assert!(elastic_clock_period(&g).unwrap() > 17.0);
        let (placed, stats) = place_buffers_targeted(&g, 6.5);
        placed.validate().unwrap();
        assert!(elastic_clock_period(&placed).unwrap() <= 6.5);
        // `place_buffers` adds nothing to an acyclic chain of one-input
        // nodes, so every inserted buffer is a cut.
        assert!(stats.inserted >= 2, "{stats:?}");
        assert_eq!(placed.node_count(), g.node_count() + stats.inserted);
        for i in 0..stats.inserted {
            let cut = placed.kind(&format!("tbuf_{i}"));
            assert_eq!(cut, Some(&CompKind::Buffer { slots: 1, transparent: false }));
        }
    }

    #[test]
    fn timing_driven_placement_keeps_a_circuit_under_the_target_as_placed() {
        for g in [ring(), chain(&nots(4))] {
            assert!(elastic_clock_period(&place_buffers(&g).0).unwrap() <= 6.5);
            assert_eq!(place_buffers_targeted(&g, 6.5), place_buffers(&g));
        }
    }

    #[test]
    fn timing_driven_placement_stops_where_no_cut_shortens_the_path() {
        // A 64-tag Tagger's output side (6.5 ns) feeds a register's input
        // (0.7 ns) directly: no combinational node lies between them.
        let mut tagger = ExprHigh::new();
        tagger.add_node("t", CompKind::TaggerUntagger { tags: 64 }).unwrap();
        tagger.add_node("b", CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        tagger.expose_input("x", ep("t", "in")).unwrap();
        tagger.expose_input("r", ep("t", "retag")).unwrap();
        tagger.connect(ep("t", "tagged"), ep("b", "in")).unwrap();
        tagger.expose_output("y", ep("b", "out")).unwrap();
        tagger.expose_output("o", ep("t", "out")).unwrap();
        // One 6.2 ns Pure between registers: the midpoint cut would land
        // right after register `a`, which gains nothing, so it is refused.
        let six_nots = (1..6).fold(PureFn::Op(Op::Not), |f, _| {
            PureFn::Comp(Box::new(PureFn::Op(Op::Not)), Box::new(f))
        });
        let pure = chain(&[CompKind::Pure { func: six_nots }]);
        for g in [tagger, pure] {
            let (placed, stats) = place_buffers_targeted(&g, 6.5);
            assert!(elastic_clock_period(&placed).unwrap() > 6.5);
            assert!(placed.nodes().all(|(n, _)| !n.starts_with("tbuf_")));
            assert_eq!((placed, stats), place_buffers(&g));
        }
    }
}
