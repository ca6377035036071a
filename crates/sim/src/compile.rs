//! The compiled simulation backend
//! ([`Scheduler::Compiled`](crate::Scheduler::Compiled)).
//!
//! Instead of interpreting the dataflow graph node-by-node, a compile pass
//! lowers the circuit into a specialised simulator once per run. It starts
//! from the same `Netlist` the reference sweep runs on (node and channel
//! numbering, names, wiring, unit classes) and adds only what the fast
//! path needs:
//!
//! * every node kind is monomorphised into a direct-dispatch fire function
//!   over a flat arena — the hot loop calls through a per-node `fn` pointer
//!   and never matches on a unit enum;
//! * channel valid state and the scheduler's dirty/accepted/emitted/fired
//!   state are bit-packed into `u64` words and processed word-at-a-time;
//!   tags move out-of-band as raw `u32` words next to untagged payloads, so
//!   a token crossing a tagged region never allocates a `Value::Tagged`
//!   box;
//! * each node's scheduler marks are precomputed at compile time: a fire
//!   of node `i` re-arms `i` itself, the consumers of its outputs and the
//!   producers of its inputs, and no other node.
//!
//! Bit-identity with the reference sweep rests on two facts (DESIGN.md
//! §3.7). First, a round of the compiled core is a sweep pass restricted
//! to its dirty set: the word-at-a-time scan visits set bits in ascending
//! index order, and a fire marks the affected nodes `j > i` into the
//! current round (the sweep would still reach them this pass) and
//! `j <= i` into the next. A node fires only after one of its channels,
//! its per-cycle firing caps, or the clock changed since it last failed
//! to fire, and every such event marks it, so the compiled core fires
//! exactly the nodes the sweep fires, at the same `(pass, index)`
//! positions. Second, examining a *superset* of the dirty set in index
//! order is harmless: a node whose channels did not change cannot fire,
//! so the extra examinations are no-ops. The marks rely on that: they
//! re-arm every neighbour, whether or not the fire changed its channel.
//!
//! The compiled artifact ([`CompiledCircuit`]) is immutable; per-run
//! mutable state lives in [`rt::Rt`]. [`simulate`](crate::simulate)
//! lowers its circuit and drops the artifact when the run ends. A caller
//! that simulates one circuit many times holds a [`CompiledCircuit`] and
//! runs it directly.

mod fire;
mod rt;

use crate::memory::Memory;
use crate::netlist::{Netlist, Range};
use crate::sim::{op_latency, purefn_latency, SimConfig, SimError, SimResult, LOAD_LATENCY};
use fire::FireFn;
use graphiti_ir::{CompKind, ExprHigh, Op, PureFn, Value};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Out-of-band tag word meaning "untagged".
pub(crate) const NO_TAG: u32 = u32::MAX;
/// Sentinel for "this node has no internal queue".
pub(crate) const NO_IDX: u32 = u32::MAX;

/// One lowered node: its monomorphic fire function, port ranges, two
/// kind-specific parameter words, and the precomputed scheduler marks.
pub(crate) struct CNode {
    pub(crate) fire: FireFn,
    /// The netlist's port ranges, inline beside the fire pointer.
    pub(crate) ins: Range,
    pub(crate) outs: Range,
    /// Kind-specific: const/op/pure/tagger/mem index, or Init's initial.
    pub(crate) p0: u32,
    /// Kind-specific: pipe index (Piped/Pure/Load), unused otherwise.
    pub(crate) p1: u32,
    /// Word masks OR-ed into the current round on fire (indices `> i`).
    pub(crate) cur_marks: Range,
    /// Word masks OR-ed into the next round on fire (indices `<= i`).
    pub(crate) nxt_marks: Range,
}

/// Static shape of one internal queue (pipeline, buffer).
pub(crate) struct PipeSpec {
    /// Maximum occupancy (latency + 1 for pipelines, slots for buffers).
    pub(crate) cap: usize,
    /// Cycles between acceptance and the head turning ready (0 for
    /// transparent buffers, 1 for opaque ones).
    pub(crate) lat: u64,
}

/// Static shape of one store queue, shared by its fire function and the
/// run loop. The access plans come pre-split into `(is_store, site)`
/// lists by [`crate::sim::lsq_rounds`], so the compiled and interpreted
/// schedulers allocate byte-identical pending windows.
pub(crate) struct LsqSpec {
    /// Index into [`CompiledCircuit::mems`].
    pub(crate) mem: u32,
    /// Body-round accesses `(is_store, site)` in program order.
    pub(crate) body: Vec<(bool, u32)>,
    /// Epilogue-round accesses in program order.
    pub(crate) epi: Vec<(bool, u32)>,
    /// Store-site count (load ports start after the store ports).
    pub(crate) n_stores: u32,
    /// Pending-entry capacity ([`crate::sim::lsq_pending_cap`]).
    pub(crate) cap: usize,
}

/// A circuit lowered for [`Scheduler::Compiled`](crate::Scheduler::Compiled):
/// everything the run loop reads and never writes. Its layout, and so every
/// node and channel index, name and wire, is the one the reference sweep
/// runs on.
///
/// [`simulate`](crate::simulate) lowers its circuit on every call. A caller
/// that simulates one circuit many times (a benchmark timing the run
/// alone, say) lowers it once with [`CompiledCircuit::new`] and calls
/// [`run`](CompiledCircuit::run) for each simulation.
pub struct CompiledCircuit {
    /// The layout the reference sweep runs on too.
    pub(crate) net: Netlist,
    pub(crate) nodes: Vec<CNode>,
    /// Flat pool backing every node's mark lists: `(word, bits)` pairs.
    pub(crate) mark_pool: Vec<(u32, u64)>,
    pub(crate) pipe_specs: Vec<PipeSpec>,
    /// Per node: its pipe index, or [`NO_IDX`].
    pub(crate) pipe_of: Vec<u32>,
    /// `(node, pipe)` pairs for idle fast-forward and leftover counting.
    pub(crate) queued: Vec<(u32, u32)>,
    pub(crate) consts: Vec<Value>,
    pub(crate) ops: Vec<Op>,
    pub(crate) pures: Vec<PureFn>,
    /// Tag budgets, one per tagger.
    pub(crate) tagger_tags: Vec<u32>,
    /// Static store-queue shapes, one per `StoreQueue` node.
    pub(crate) lsqs: Vec<LsqSpec>,
    /// Distinct array names referenced by Load/Store ports.
    pub(crate) mems: Vec<String>,
    /// `u64` words needed for a bitset over nodes.
    pub(crate) words: usize,
}

thread_local! {
    /// Circuits lowered on this thread, for [`compile_cache_stats`].
    static LOWERINGS: Cell<u64> = const { Cell::new(0) };
}

impl CompiledCircuit {
    /// Lowers `g` under a `sim.compile` span, so causal profiles attribute
    /// compile time separately from simulation time. Every config field is
    /// read per run from the config passed to
    /// [`run`](CompiledCircuit::run).
    ///
    /// # Errors
    ///
    /// Fails like [`simulate`](crate::simulate) on graphs the simulator
    /// rejects.
    pub fn new(g: &ExprHigh) -> Result<CompiledCircuit, SimError> {
        let _span = graphiti_obs::span("sim.compile");
        let art = lower(g)?;
        LOWERINGS.with(|n| n.set(n.get() + 1));
        if graphiti_obs::enabled() {
            graphiti_obs::counter("sim.compile.lowerings").inc();
            graphiti_obs::counter("sim.compile.nodes").add(art.net.node_count() as u64);
            graphiti_obs::counter("sim.compile.chans").add(art.net.chan_count() as u64);
        }
        Ok(art)
    }

    /// Runs the circuit to quiescence. `cfg` supplies the observation
    /// flags, `max_cycles` and `cancel`; its `scheduler` is not read.
    ///
    /// # Errors
    ///
    /// Fails like [`simulate`](crate::simulate).
    pub fn run(
        &self,
        feeds: &BTreeMap<String, Vec<Value>>,
        memory: Memory,
        cfg: &SimConfig,
    ) -> Result<SimResult, SimError> {
        rt::run(self, feeds, memory, cfg)
    }

    #[inline]
    pub(crate) fn ports(&self, r: Range) -> &[u32] {
        self.net.pool(r)
    }

    #[inline]
    pub(crate) fn marks(&self, r: Range) -> &[(u32, u64)] {
        &self.mark_pool[r.0 as usize..(r.0 + r.1) as usize]
    }
}

/// Does nothing: there is no artifact cache to empty. Kept because
/// `pipebench` still calls it.
#[doc(hidden)]
pub fn compile_cache_clear() {}

/// `(0, circuits lowered on the calling thread)`. Kept because `pipebench`
/// reads it as `(cache hits, cache misses)` around each `simulate` call.
#[doc(hidden)]
pub fn compile_cache_stats() -> (u64, u64) {
    (0, LOWERINGS.with(Cell::get))
}

/// Splits a full interpreter-shaped value into the out-of-band `(tag,
/// payload)` channel representation: exactly `take_tag`, with the tag
/// narrowed to a raw word.
#[inline]
pub(crate) fn canon(tag: u32, v: Value) -> (u32, Value) {
    if tag == NO_TAG {
        match v {
            Value::Tagged(t, inner) => (t, *inner),
            v => (NO_TAG, v),
        }
    } else {
        (tag, v)
    }
}

/// Reassembles the full interpreter-shaped value (error messages, output
/// draining, tagger bookkeeping — cold paths only).
#[inline]
pub(crate) fn assemble(tag: u32, v: Value) -> Value {
    if tag == NO_TAG {
        v
    } else {
        Value::tagged(tag, v)
    }
}

/// The lowering pass: interprets the graph once so the run loop never has
/// to. The layout is the [`Netlist`]'s, the same the reference sweep
/// runs on, so the compiled core fires the nodes the sweep fires in the
/// same order, and every observable is bit-identical.
fn lower(g: &ExprHigh) -> Result<CompiledCircuit, SimError> {
    let net = Netlist::new(g)?;
    let mut nodes: Vec<CNode> = Vec::new();
    let mut consts: Vec<Value> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut pures: Vec<PureFn> = Vec::new();
    let mut pipe_specs: Vec<PipeSpec> = Vec::new();
    let mut pipe_of: Vec<u32> = Vec::new();
    let mut tagger_tags: Vec<u32> = Vec::new();
    let mut lsqs: Vec<LsqSpec> = Vec::new();
    let mut mems: Vec<String> = Vec::new();
    let mut queued: Vec<(u32, u32)> = Vec::new();

    let mem_id = |mems: &mut Vec<String>, name: &str| -> u32 {
        match mems.iter().position(|m| m == name) {
            Some(i) => i as u32,
            None => {
                mems.push(name.to_string());
                (mems.len() - 1) as u32
            }
        }
    };

    for (i, (_, kind)) in g.nodes().enumerate() {
        let (ins, outs) = net.ports[i];
        let mut pipe = NO_IDX;
        let add_pipe = |specs: &mut Vec<PipeSpec>, cap: usize, lat: u64| -> u32 {
            specs.push(PipeSpec { cap, lat });
            (specs.len() - 1) as u32
        };
        let (fire, p0, p1): (FireFn, u32, u32) = match kind {
            CompKind::Fork { .. } => (fire::fork, 0, 0),
            CompKind::Join => (fire::join, 0, 0),
            CompKind::Split => (fire::split, 0, 0),
            CompKind::Mux => (fire::mux, 0, 0),
            CompKind::Branch => (fire::branch, 0, 0),
            CompKind::Merge => (fire::merge, 0, 0),
            CompKind::Init { initial } => (fire::init, u32::from(*initial), 0),
            CompKind::Sink => (fire::sink, 0, 0),
            CompKind::Constant { value } => {
                consts.push(value.clone());
                (fire::constant, (consts.len() - 1) as u32, 0)
            }
            CompKind::Operator { op } => {
                let lat = op_latency(*op);
                ops.push(*op);
                let oid = (ops.len() - 1) as u32;
                if lat == 0 {
                    (fire::comb, oid, 0)
                } else {
                    pipe = add_pipe(&mut pipe_specs, lat as usize + 1, lat);
                    (fire::piped, oid, pipe)
                }
            }
            CompKind::Pure { func } => {
                let lat = purefn_latency(func);
                pures.push(func.clone());
                pipe = add_pipe(&mut pipe_specs, lat as usize + 1, lat);
                (fire::pure, (pures.len() - 1) as u32, pipe)
            }
            CompKind::Buffer { slots, transparent } => {
                pipe = add_pipe(&mut pipe_specs, (*slots).max(1), u64::from(!*transparent));
                (fire::buffer, pipe, 0)
            }
            CompKind::TaggerUntagger { tags } => {
                tagger_tags.push(*tags);
                (fire::tagger, (tagger_tags.len() - 1) as u32, 0)
            }
            CompKind::Load { mem } => {
                let mid = mem_id(&mut mems, mem);
                pipe = add_pipe(&mut pipe_specs, LOAD_LATENCY as usize + 1, LOAD_LATENCY);
                (fire::load, mid, pipe)
            }
            CompKind::Store { mem } => (fire::store, mem_id(&mut mems, mem), 0),
            CompKind::StoreQueue { mem, body_plan, epi_plan } => {
                let mid = mem_id(&mut mems, mem);
                let (body, epi) = crate::sim::lsq_rounds(body_plan, epi_plan);
                let (stores, _) = graphiti_ir::lsq_site_counts(body_plan, epi_plan);
                lsqs.push(LsqSpec {
                    mem: mid,
                    body,
                    epi,
                    n_stores: stores as u32,
                    cap: crate::sim::lsq_pending_cap(body_plan, epi_plan),
                });
                pipe = add_pipe(&mut pipe_specs, LOAD_LATENCY as usize + 1, LOAD_LATENCY);
                (fire::lsq, (lsqs.len() - 1) as u32, pipe)
            }
        };
        if pipe != NO_IDX {
            queued.push((i as u32, pipe));
        }
        pipe_of.push(pipe);
        nodes.push(CNode { fire, ins, outs, p0, p1, cur_marks: (0, 0), nxt_marks: (0, 0) });
    }

    let words = nodes.len().div_ceil(64);
    // Per-node scheduler marks: every node whose fireability a fire of `i`
    // can change — the node itself, the consumers of its outputs, the
    // producers of its inputs.
    let mut mark_pool: Vec<(u32, u64)> = Vec::new();
    let mut scratch_mask = vec![0u64; words];
    for (i, nd) in nodes.iter_mut().enumerate() {
        scratch_mask.fill(0);
        let consumers = net.outs(i).filter_map(|c| net.consumer(c));
        let producers = net.ins(i).filter_map(|c| net.producer(c));
        for j in std::iter::once(i).chain(consumers).chain(producers) {
            scratch_mask[j / 64] |= 1u64 << (j % 64);
        }
        // Split at index i: strictly greater bits re-arm the current
        // round, the rest the next one.
        let wi = i / 64;
        let bi = i % 64;
        let gt_in_word = if bi == 63 { 0 } else { !0u64 << (bi + 1) };
        let cur_start = mark_pool.len() as u32;
        for (w, &bits) in scratch_mask.iter().enumerate() {
            let gt = match w.cmp(&wi) {
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => bits & gt_in_word,
                std::cmp::Ordering::Greater => bits,
            };
            if gt != 0 {
                mark_pool.push((w as u32, gt));
            }
        }
        nd.cur_marks = (cur_start, mark_pool.len() as u32 - cur_start);
        let nxt_start = mark_pool.len() as u32;
        for (w, &bits) in scratch_mask.iter().enumerate() {
            let le = match w.cmp(&wi) {
                std::cmp::Ordering::Less => bits,
                std::cmp::Ordering::Equal => bits & !gt_in_word,
                std::cmp::Ordering::Greater => 0,
            };
            if le != 0 {
                mark_pool.push((w as u32, le));
            }
        }
        nd.nxt_marks = (nxt_start, mark_pool.len() as u32 - nxt_start);
    }

    Ok(CompiledCircuit {
        net,
        nodes,
        mark_pool,
        pipe_specs,
        pipe_of,
        queued,
        consts,
        ops,
        pures,
        tagger_tags,
        lsqs,
        mems,
        words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_ir::ep;

    #[test]
    fn a_fire_marks_itself_and_its_channel_neighbours_only() {
        // x -> b0 -> b1 -> b2 -> b3 -> y: node i's neighbours are i - 1
        // and i + 1, and all four nodes fit in one mark word.
        let mut g = ExprHigh::new();
        for i in 0..4 {
            g.add_node(format!("b{i}"), CompKind::Buffer { slots: 1, transparent: false }).unwrap();
        }
        g.expose_input("x", ep("b0", "in")).unwrap();
        for i in 0..3 {
            g.connect(ep(format!("b{i}"), "out"), ep(format!("b{}", i + 1), "in")).unwrap();
        }
        g.expose_output("y", ep("b3", "out")).unwrap();
        let art = CompiledCircuit::new(&g).unwrap();
        let bits = |r: Range| match art.marks(r) {
            [] => 0,
            [(0, bits)] => *bits,
            other => panic!("marks beyond word 0: {other:?}"),
        };
        for i in 0..4 {
            assert_eq!(art.net.node_name(i), format!("b{i}"));
            let own_and_neighbours = (0b111u64 << i >> 1) & 0b1111;
            let later = !0u64 << (i + 1);
            let nd = &art.nodes[i];
            assert_eq!(bits(nd.cur_marks), own_and_neighbours & later, "node {i}: current round");
            assert_eq!(bits(nd.nxt_marks), own_and_neighbours & !later, "node {i}: next round");
        }
    }
}
