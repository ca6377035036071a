//! The netlist both simulator cores run on: the one numbering, naming and
//! wiring of a circuit's nodes and channels.
//!
//! [`Netlist::new`] is the only simulator code that lays a circuit out.
//! Nodes are numbered in `g.nodes()` order; channels as the graph's edges
//! in `g.edges()` order (the one-slot latches `0..n_slots`), then its
//! external inputs, then its external outputs (unbounded queues). Both
//! cores index their live state by these numbers, so every observation
//! that names a node or channel compares across them byte for byte.

use crate::sim::{op_latency, SimError};
use crate::stall::UnitClass;
use graphiti_ir::{CompKind, Endpoint, ExprHigh};
use std::collections::BTreeMap;

/// A `(start, len)` range into a flat pool.
pub(crate) type Range = (u32, u32);

/// Names packed into one buffer: one allocation per table instead of one
/// per name, which keeps a netlist small.
#[derive(Default)]
struct NameTable {
    buf: String,
    ends: Vec<u32>,
}

impl NameTable {
    fn push(&mut self, name: impl std::fmt::Display) {
        use std::fmt::Write as _;
        let _ = write!(self.buf, "{name}");
        self.ends.push(self.buf.len() as u32);
    }

    fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.buf[start..self.ends[i] as usize]
    }
}

/// A circuit's layout: what both cores read and neither writes.
pub(crate) struct Netlist {
    node_names: NameTable,
    /// Per channel: `from.port-to.port`, `in.x` or `out.y`.
    chan_names: NameTable,
    /// Every node's input channels, then its output channels, node by node.
    port_pool: Vec<u32>,
    /// Per node: its input and output ranges into the port pool.
    pub(crate) ports: Vec<(Range, Range)>,
    producer_of: Vec<Option<u32>>,
    consumer_of: Vec<Option<u32>>,
    class: Vec<UnitClass>,
    /// Channels `0..n_slots` are one-slot latches; the rest are unbounded
    /// external queues.
    pub(crate) n_slots: usize,
    input_chans: BTreeMap<String, u32>,
    output_chans: BTreeMap<String, u32>,
}

impl Netlist {
    /// Validates `g` and lays it out.
    ///
    /// # Errors
    ///
    /// Fails if the graph is incomplete, or has more nodes or channels
    /// than the `u32` indices both cores store in traces, stall paths and
    /// bitsets can tell apart.
    pub(crate) fn new(g: &ExprHigh) -> Result<Netlist, SimError> {
        g.validate().map_err(|e| SimError::BadGraph(e.to_string()))?;
        let mut chan_names = NameTable::default();
        let mut chan_of_out: BTreeMap<&Endpoint, u32> = BTreeMap::new();
        let mut chan_of_in: BTreeMap<&Endpoint, u32> = BTreeMap::new();
        for (from, to) in g.edges() {
            chan_of_out.insert(from, chan_names.ends.len() as u32);
            chan_of_in.insert(to, chan_names.ends.len() as u32);
            chan_names.push(format_args!("{}.{}-{}.{}", from.node, from.port, to.node, to.port));
        }
        let n_slots = chan_names.ends.len();
        let mut input_chans = BTreeMap::new();
        for (name, target) in g.inputs() {
            chan_of_in.insert(target, chan_names.ends.len() as u32);
            input_chans.insert(name.clone(), chan_names.ends.len() as u32);
            chan_names.push(format_args!("in.{name}"));
        }
        let mut output_chans = BTreeMap::new();
        for (name, source) in g.outputs() {
            chan_of_out.insert(source, chan_names.ends.len() as u32);
            output_chans.insert(name.clone(), chan_names.ends.len() as u32);
            chan_names.push(format_args!("out.{name}"));
        }
        let n_chans = chan_names.ends.len();

        let mut node_names = NameTable::default();
        let mut port_pool: Vec<u32> = Vec::new();
        let mut ports: Vec<(Range, Range)> = Vec::new();
        let mut producer_of: Vec<Option<u32>> = vec![None; n_chans];
        let mut consumer_of: Vec<Option<u32>> = vec![None; n_chans];
        let mut class: Vec<UnitClass> = Vec::new();
        for (i, (name, kind)) in g.nodes().enumerate() {
            let (ins, outs) = kind.interface();
            let start = port_pool.len() as u32;
            for p in ins {
                let c = chan_of_in[&Endpoint::new(name, p)];
                consumer_of[c as usize] = Some(i as u32);
                port_pool.push(c);
            }
            let mid = port_pool.len() as u32;
            for p in outs {
                let c = chan_of_out[&Endpoint::new(name, p)];
                producer_of[c as usize] = Some(i as u32);
                port_pool.push(c);
            }
            ports.push(((start, mid - start), (mid, port_pool.len() as u32 - mid)));
            // A zero-latency operator fires combinationally and is walked
            // through; a latency-bearing one holds tokens like Pure does.
            class.push(match kind {
                CompKind::Sink => UnitClass::Sink,
                CompKind::Load { .. } => UnitClass::Load,
                CompKind::Store { .. } => UnitClass::Store,
                CompKind::Buffer { slots, .. } => UnitClass::Buffer { slots: (*slots).max(1) },
                CompKind::Operator { op } if op_latency(*op) > 0 => UnitClass::Pipe,
                CompKind::Pure { .. } => UnitClass::Pipe,
                CompKind::TaggerUntagger { .. } => UnitClass::Tagger,
                CompKind::StoreQueue { .. } => UnitClass::Lsq,
                _ => UnitClass::Plain,
            });
            node_names.push(name);
        }
        // Ids above were narrowed with `as u32` before their counts were
        // checked; none escapes a graph that fails this check.
        for (what, n) in [("channel", n_chans), ("node", ports.len())] {
            if u32::try_from(n).is_err() {
                let msg = format!("{what} index {n} does not fit the simulator's u32 index space");
                return Err(SimError::BadGraph(msg));
            }
        }
        Ok(Netlist {
            node_names,
            chan_names,
            port_pool,
            ports,
            producer_of,
            consumer_of,
            class,
            n_slots,
            input_chans,
            output_chans,
        })
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.ports.len()
    }

    /// Number of channels (one-slot latches, then external inputs, then
    /// external outputs).
    pub(crate) fn chan_count(&self) -> usize {
        self.producer_of.len()
    }

    /// The channels a range of the port pool holds.
    #[inline]
    pub(crate) fn pool(&self, r: Range) -> &[u32] {
        &self.port_pool[r.0 as usize..(r.0 + r.1) as usize]
    }

    /// Input channels of node `i`, in port order.
    pub(crate) fn ins(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.pool(self.ports[i].0).iter().map(|&c| c as usize)
    }

    /// Output channels of node `i`, in port order.
    pub(crate) fn outs(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.pool(self.ports[i].1).iter().map(|&c| c as usize)
    }

    /// The node writing channel `c` (`None`: an external input).
    pub(crate) fn producer(&self, c: usize) -> Option<usize> {
        self.producer_of[c].map(|j| j as usize)
    }

    /// The node reading channel `c` (`None`: an external output).
    pub(crate) fn consumer(&self, c: usize) -> Option<usize> {
        self.consumer_of[c].map(|j| j as usize)
    }

    /// The class of node `i`.
    pub(crate) fn class(&self, i: usize) -> UnitClass {
        self.class[i]
    }

    /// Name of node `i`.
    pub(crate) fn node_name(&self, i: usize) -> &str {
        self.node_names.get(i)
    }

    /// Name of channel `c` (`from.port-to.port`, `in.x`, `out.y`).
    pub(crate) fn chan_name(&self, c: usize) -> &str {
        self.chan_names.get(c)
    }

    /// Per node: whether the node filter `names` keeps it. An empty filter
    /// keeps every node.
    pub(crate) fn listed(&self, names: &[String]) -> Vec<bool> {
        let keeps = |i| names.is_empty() || names.iter().any(|t| t == self.node_name(i));
        (0..self.node_count()).map(keeps).collect()
    }

    /// The channel of the external input `name`; a circuit without one is
    /// a [`SimError::BadGraph`].
    pub(crate) fn input(&self, name: &str) -> Result<usize, SimError> {
        let bad = || SimError::BadGraph(format!("no input named `{name}`"));
        self.input_chans.get(name).map(|&c| c as usize).ok_or_else(bad)
    }

    /// Every external output with its channel, by name.
    pub(crate) fn outputs(&self) -> impl Iterator<Item = (&str, usize)> {
        self.output_chans.iter().map(|(name, &c)| (name.as_str(), c as usize))
    }

    /// Per-node counts keyed by node name, leaving out the zero counts.
    pub(crate) fn by_name(&self, counts: &[u64]) -> BTreeMap<String, u64> {
        let named = |(i, &n): (usize, &u64)| (self.node_name(i).to_string(), n);
        counts.iter().enumerate().filter(|&(_, &n)| n > 0).map(named).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_ir::{ep, Op};

    #[test]
    fn lays_out_edges_then_inputs_then_outputs() {
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("m", CompKind::Operator { op: Op::MulF }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("m", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
        g.expose_output("y", ep("m", "out")).unwrap();
        let net = Netlist::new(&g).unwrap();

        let chans: Vec<&str> = (0..net.chan_count()).map(|c| net.chan_name(c)).collect();
        assert_eq!(chans, ["f.out0-m.in0", "f.out1-m.in1", "in.x", "out.y"]);
        assert_eq!(net.n_slots, 2, "two edges, two one-slot latches");
        assert_eq!((net.node_count(), net.node_name(0), net.node_name(1)), (2, "f", "m"));
        let wiring = |i| (net.ins(i).collect::<Vec<_>>(), net.outs(i).collect::<Vec<_>>());
        assert_eq!(wiring(0), (vec![2], vec![0, 1]));
        assert_eq!(wiring(1), (vec![0, 1], vec![3]));
        let producers: Vec<_> = (0..4).map(|c| net.producer(c)).collect();
        let consumers: Vec<_> = (0..4).map(|c| net.consumer(c)).collect();
        assert_eq!(producers, [Some(0), Some(0), None, Some(1)]);
        assert_eq!(consumers, [Some(1), Some(1), Some(0), None]);
        assert_eq!(net.class(0), UnitClass::Plain);
        assert_eq!(net.class(1), UnitClass::Pipe, "MulF has latency, so it holds tokens");
        assert_eq!(net.input("x"), Ok(2));
        assert_eq!(net.outputs().collect::<Vec<_>>(), [("y", 3)]);
        assert_eq!(net.input("z"), Err(SimError::BadGraph("no input named `z`".to_string())));
    }
}
