//! Static timing against brute force on small random circuits.
//!
//! `elastic_clock_period` computes arrival times in one topological pass.
//! The oracles here share none of that: the clock period must equal the
//! longest path found by enumerating every path, register-to-register and
//! register-to-output, and a combinational loop must be reported exactly
//! when a reachability search from each combinational node returns to it.

use graphiti_ir::{Attachment, CompKind, Endpoint, ExprHigh, Op};
use graphiti_sim::{elastic_clock_period, elastic_timing, place_buffers, NodeTiming, TimingError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The kinds a random circuit draws from: combinational and sequential,
/// with one to three inputs and zero to two outputs.
fn kind(i: usize) -> CompKind {
    match i {
        0 => CompKind::Fork { ways: 2 },
        1 => CompKind::Join,
        2 => CompKind::Merge,
        3 => CompKind::Mux,
        4 => CompKind::Branch,
        5 => CompKind::Buffer { slots: 1, transparent: false },
        6 => CompKind::Buffer { slots: 1, transparent: true },
        7 => CompKind::Operator { op: Op::AddI },
        8 => CompKind::Operator { op: Op::MulF },
        9 => CompKind::TaggerUntagger { tags: 8 },
        _ => CompKind::Sink,
    }
}

/// One to seven random nodes. Each output port is wired to a random free
/// input port (its own node's included), exposed, or left dangling; each
/// input port left over is exposed or left dangling.
fn random_circuit(rng: &mut StdRng) -> ExprHigh {
    let mut g = ExprHigh::new();
    for i in 0..rng.gen_range(1..8usize) {
        g.add_node(format!("n{i}"), kind(rng.gen_range(0..11usize))).unwrap();
    }
    let ports = |outputs: bool| -> Vec<Endpoint> {
        g.nodes()
            .flat_map(|(n, k)| {
                let (ins, outs) = k.interface();
                let ports = if outputs { outs } else { ins };
                ports.into_iter().map(|p| Endpoint::new(n.clone(), p))
            })
            .collect()
    };
    let (mut free, outs) = (ports(false), ports(true));
    for (i, from) in outs.into_iter().enumerate() {
        match rng.gen_range(0..4u32) {
            0 => {}
            1 => g.expose_output(format!("o{i}"), from).unwrap(),
            _ if !free.is_empty() => {
                let to = free.swap_remove(rng.gen_range(0..free.len()));
                g.connect(from, to).unwrap();
            }
            _ => {}
        }
    }
    for (i, to) in free.into_iter().enumerate() {
        if rng.gen_bool(0.5) {
            g.expose_input(format!("i{i}"), to).unwrap();
        }
    }
    g
}

/// What `n`'s output ports are attached to, in port order.
fn consumers(g: &ExprHigh, n: &str) -> Vec<Attachment> {
    let (_, outs) = g.kind(n).unwrap().interface();
    outs.into_iter().filter_map(|p| g.consumer(&Endpoint::new(n, p))).collect()
}

/// The nodes `n`'s output ports are wired to.
fn successors(g: &ExprHigh, n: &str) -> Vec<String> {
    consumers(g, n)
        .into_iter()
        .filter_map(|a| match a {
            Attachment::Wire(to) => Some(to.node),
            Attachment::External(_) => None,
        })
        .collect()
}

fn timing(g: &ExprHigh, n: &str) -> NodeTiming {
    elastic_timing(g.kind(n).unwrap())
}

/// Whether some combinational node reaches itself through combinational
/// nodes alone.
fn has_combinational_cycle(g: &ExprHigh) -> bool {
    let comb = |n: &str| matches!(timing(g, n), NodeTiming::Comb(_));
    g.nodes().map(|(n, _)| n).filter(|n| comb(n)).any(|start| {
        let mut seen = BTreeSet::new();
        let mut todo = successors(g, start);
        while let Some(n) = todo.pop() {
            if n == *start {
                return true;
            }
            if comb(&n) && seen.insert(n.clone()) {
                todo.extend(successors(g, &n));
            }
        }
        false
    })
}

/// The longest path by enumeration, floored at 1 ns as the model floors
/// the period. A path starts at a sequential output, or at any node's
/// inputs at time 0 (an external input); it runs through combinational
/// nodes and ends at a sequential input or at an external output.
fn longest_path(g: &ExprHigh) -> f64 {
    fn walk(g: &ExprHigh, n: &str, len: f64, best: &mut f64) {
        match timing(g, n) {
            NodeTiming::Seq(in_side, _) => *best = best.max(len + in_side),
            NodeTiming::Comb(d) => {
                if consumers(g, n).iter().any(|a| matches!(a, Attachment::External(_))) {
                    *best = best.max(len + d);
                }
                for s in successors(g, n) {
                    walk(g, &s, len + d, best);
                }
            }
        }
    }
    let mut best = 1.0;
    for (n, _) in g.nodes() {
        walk(g, n, 0.0, &mut best);
        if let NodeTiming::Seq(_, out_side) = timing(g, n) {
            for s in successors(g, n) {
                walk(g, &s, out_side, &mut best);
            }
        }
    }
    best
}

#[test]
fn clock_period_and_loops_match_brute_force_on_random_circuits() {
    let (mut timed, mut loops) = (0, 0);
    for seed in 0..400 {
        let g = random_circuit(&mut StdRng::seed_from_u64(seed));
        // Placement must leave every random circuit loop-free; its output
        // is a second, larger input for the same oracles.
        let (placed, _) = place_buffers(&g);
        for (what, g) in [("random", &g), ("placed", &placed)] {
            let cycle = has_combinational_cycle(g);
            match elastic_clock_period(g) {
                Ok(cp) => {
                    assert!(!cycle, "seed {seed}, {what}: a loop went unreported\n{g:?}");
                    assert_eq!(cp, longest_path(g), "seed {seed}, {what}\n{g:?}");
                    timed += 1;
                }
                Err(TimingError::CombinationalLoop) => {
                    assert!(cycle, "seed {seed}, {what}: no loop to report\n{g:?}");
                    assert_eq!(what, "random", "seed {seed}: placement left a loop\n{g:?}");
                    loops += 1;
                }
            }
        }
    }
    // Both outcomes occur often, so neither oracle is checked vacuously.
    assert!(timed >= 400 && loops >= 40, "{timed} timed, {loops} loops");
}
