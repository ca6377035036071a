//! Monomorphic fire functions — one per component kind.
//!
//! Each function is the compiled counterpart of one `step_unit` arm of the
//! reference sweep in `sim.rs` and must preserve its transaction semantics
//! *exactly*: the same gating order, the same error conditions raised at
//! the same points, the same channel pops and pushes. The hot loop
//! dispatches through the per-node `fn` pointer baked in at lowering time,
//! so no per-node kind match runs while simulating.
//!
//! Channel tokens live in the split `(u32 tag, payload)` representation
//! (see [`super::canon`]); error messages reassemble the interpreter-shaped
//! value so diagnostics stay byte-identical.

use super::rt::Rt;
use super::{assemble, canon, CompiledCircuit, NO_TAG};
use crate::sim::SimError;
use graphiti_ir::Value;

/// A compiled fire function: attempts every enabled transaction of node
/// `i`, returns whether any fired.
pub(super) type FireFn = fn(&CompiledCircuit, &mut Rt, u32) -> Result<bool, SimError>;

/// The common tag across all of `ins`, or `None` when the transaction is
/// disabled: a missing token, two different tags, or a tagged/untagged
/// mix. Mirrors `fronts_tag` in `sim.rs`; the returned word is [`NO_TAG`]
/// for an all-untagged front set.
fn fronts_tag(rt: &Rt, ins: &[u32]) -> Option<u32> {
    let mut tag = NO_TAG;
    let mut any_untagged = false;
    for &c in ins {
        if !rt.full(c) {
            return None;
        }
        let t = rt.front_tag(c);
        if t == NO_TAG {
            any_untagged = true;
        } else if tag == NO_TAG {
            tag = t;
        } else if tag != t {
            return None;
        }
    }
    if tag != NO_TAG && any_untagged {
        return None;
    }
    Some(tag)
}

pub(super) fn fork(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.full(ins[0]) || !outs.iter().all(|&o| rt.space(o)) {
        return Ok(false);
    }
    let (t, v) = rt.pop(ins[0]);
    for &out in &outs[1..] {
        rt.put(out, t, v.clone());
    }
    rt.put(outs[0], t, v);
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn join(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) {
        return Ok(false);
    }
    let Some(tag) = fronts_tag(rt, ins) else { return Ok(false) };
    let (_, a) = rt.pop(ins[0]);
    let (_, b) = rt.pop(ins[1]);
    rt.put(outs[0], tag, Value::pair(a, b));
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn split(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) || !rt.space(outs[1]) || !rt.full(ins[0]) {
        return Ok(false);
    }
    if !matches!(rt.front_payload(ins[0]), Value::Pair(..)) {
        let v = rt.front_value(ins[0]);
        return Err(SimError::Eval(format!("split received non-pair {v}")));
    }
    let (tag, payload) = rt.pop(ins[0]);
    let (a, b) = payload.into_pair().expect("checked pair");
    rt.put(outs[0], tag, a);
    rt.put(outs[1], tag, b);
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn mux(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.full(ins[0]) {
        return Ok(false);
    }
    let b = rt.front_payload(ins[0]).as_bool().ok_or_else(|| {
        SimError::Eval(format!("mux condition not boolean: {}", rt.front_value(ins[0])))
    })?;
    let data = if b { 1 } else { 2 };
    if !rt.full(ins[data]) || !rt.space(outs[0]) {
        return Ok(false);
    }
    rt.pop(ins[0]);
    let (t, v) = rt.pop(ins[data]);
    rt.put(outs[0], t, v);
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn branch(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.full(ins[1]) || !rt.full(ins[0]) {
        return Ok(false);
    }
    let b = rt.front_payload(ins[0]).as_bool().ok_or_else(|| {
        SimError::Eval(format!("branch condition not boolean: {}", rt.front_value(ins[0])))
    })?;
    let out = if b { 0 } else { 1 };
    if !rt.space(outs[out]) {
        return Ok(false);
    }
    rt.pop(ins[0]);
    let (t, v) = rt.pop(ins[1]);
    rt.put(outs[out], t, v);
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn merge(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) {
        return Ok(false);
    }
    // Prefer the second input: in generated loops it is the recirculating
    // path, and draining it avoids clogging.
    for k in [1usize, 0usize] {
        if k < ins.len() && rt.full(ins[k]) {
            let (t, v) = rt.pop(ins[k]);
            rt.put(outs[0], t, v);
            rt.set_accepted(i);
            return Ok(true);
        }
    }
    Ok(false)
}

pub(super) fn init(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) {
        return Ok(false);
    }
    if !rt.is_init_done(i) {
        rt.put(outs[0], NO_TAG, Value::Bool(nd.p0 != 0));
        rt.set_init_done(i);
        rt.set_accepted(i);
        Ok(true)
    } else if rt.full(ins[0]) {
        let (t, v) = rt.pop(ins[0]);
        rt.put(outs[0], t, v);
        rt.set_accepted(i);
        Ok(true)
    } else {
        Ok(false)
    }
}

pub(super) fn sink(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    if rt.is_accepted(i) || !rt.full(ins[0]) {
        return Ok(false);
    }
    rt.pop(ins[0]);
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn constant(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) || !rt.full(ins[0]) {
        return Ok(false);
    }
    let tag = rt.front_tag(ins[0]);
    rt.pop(ins[0]);
    rt.put(outs[0], tag, art.consts[nd.p0 as usize].clone());
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn comb(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) {
        return Ok(false);
    }
    let Some(tag) = fronts_tag(rt, ins) else { return Ok(false) };
    if rt.captures(i) {
        rt.captured = Some(ins.iter().map(|&c| rt.front_value(c)).collect());
    }
    let mut payloads = std::mem::take(&mut rt.scratch);
    payloads.extend(ins.iter().map(|&c| rt.pop(c).1));
    let r = art.ops[nd.p0 as usize].eval(&payloads).map_err(|e| SimError::Eval(e.to_string()))?;
    payloads.clear();
    rt.scratch = payloads;
    rt.put(outs[0], tag, r);
    rt.set_accepted(i);
    Ok(true)
}

/// The shared emit half of every latency-bearing unit (Piped, Pure,
/// Buffer, Load): pop a matured internal-queue head into the output.
#[inline]
fn emit_head(rt: &mut Rt, i: u32, pid: u32, out: u32) -> bool {
    if rt.is_emitted(i) {
        return false;
    }
    let Some(&(_, _, ready)) = rt.pipes[pid as usize].front() else { return false };
    if ready > rt.now || !rt.space(out) {
        return false;
    }
    let (t, v, _) = rt.pipes[pid as usize].pop_front().expect("checked front");
    rt.put(out, t, v);
    rt.set_emitted(i);
    true
}

pub(super) fn piped(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    let pid = nd.p1;
    let mut fired = emit_head(rt, i, pid, outs[0]);
    let spec = &art.pipe_specs[pid as usize];
    if !rt.is_accepted(i) && rt.pipes[pid as usize].len() < spec.cap {
        if let Some(tag) = fronts_tag(rt, ins) {
            if rt.captures(i) {
                rt.captured = Some(ins.iter().map(|&c| rt.front_value(c)).collect());
            }
            let mut payloads = std::mem::take(&mut rt.scratch);
            payloads.extend(ins.iter().map(|&c| rt.pop(c).1));
            let r = art.ops[nd.p0 as usize]
                .eval(&payloads)
                .map_err(|e| SimError::Eval(e.to_string()))?;
            payloads.clear();
            rt.scratch = payloads;
            let (t, r) = canon(tag, r);
            let ready = rt.now + spec.lat;
            rt.pipes[pid as usize].push_back((t, r, ready));
            rt.set_accepted(i);
            fired = true;
        }
    }
    Ok(fired)
}

pub(super) fn pure(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    let pid = nd.p1;
    let mut fired = emit_head(rt, i, pid, outs[0]);
    let spec = &art.pipe_specs[pid as usize];
    if !rt.is_accepted(i) && rt.pipes[pid as usize].len() < spec.cap && rt.full(ins[0]) {
        let tag = rt.front_tag(ins[0]);
        // Evaluate before popping, like the interpreter: an evaluation
        // fault leaves the operand on the channel.
        let r = art.pures[nd.p0 as usize]
            .eval_with_mem(rt.front_payload(ins[0]), &|name, addr| rt.mem.read_or_zero(name, addr))
            .map_err(|e| SimError::Eval(e.to_string()))?;
        rt.pop(ins[0]);
        let (t, r) = canon(tag, r);
        let ready = rt.now + spec.lat;
        rt.pipes[pid as usize].push_back((t, r, ready));
        rt.set_accepted(i);
        fired = true;
    }
    Ok(fired)
}

pub(super) fn buffer(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    let pid = nd.p0;
    let mut fired = emit_head(rt, i, pid, outs[0]);
    let spec = &art.pipe_specs[pid as usize];
    if !rt.is_accepted(i) && rt.pipes[pid as usize].len() < spec.cap && rt.full(ins[0]) {
        let (t, v) = rt.pop(ins[0]);
        let ready = rt.now + spec.lat;
        rt.pipes[pid as usize].push_back((t, v, ready));
        rt.set_accepted(i);
        fired = true;
    }
    Ok(fired)
}

pub(super) fn tagger(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    let tid = nd.p0 as usize;
    let mut fired = false;
    // Accept program-order input (bounded pending window).
    if !rt.is_accepted(i) && rt.taggers[tid].pending.len() < 2 && rt.full(ins[0]) {
        let (t, v) = rt.pop(ins[0]);
        rt.taggers[tid].pending.push_back(assemble(t, v));
        rt.set_accepted(i);
        fired = true;
    }
    // Accept a completion.
    if rt.full(ins[1]) {
        let tag = rt.front_tag(ins[1]);
        if tag == NO_TAG {
            let v = rt.front_value(ins[1]);
            return Err(SimError::Eval(format!("untagged completion {v}")));
        }
        if rt.taggers[tid].order.contains(&tag) && !rt.taggers[tid].done.contains_key(&tag) {
            let (_, payload) = rt.pop(ins[1]);
            rt.taggers[tid].done.insert(tag, payload);
            fired = true;
        }
    }
    // Emit a freshly tagged token into the region.
    if !rt.is_emitted(i) && rt.space(outs[0]) {
        if let (Some(&tag), false) =
            (rt.taggers[tid].free.iter().next(), rt.taggers[tid].pending.is_empty())
        {
            let v = rt.taggers[tid].pending.pop_front().expect("checked pending");
            rt.taggers[tid].free.remove(&tag);
            rt.taggers[tid].order.push_back(tag);
            rt.put(outs[0], tag, v);
            rt.set_emitted(i);
            fired = true;
        }
    }
    // Release the oldest completed token in program order.
    if rt.space(outs[1]) {
        if let Some(&tag) = rt.taggers[tid].order.front() {
            if let Some(v) = rt.taggers[tid].done.remove(&tag) {
                rt.taggers[tid].order.pop_front();
                rt.taggers[tid].free.insert(tag);
                rt.put(outs[1], NO_TAG, v);
                fired = true;
            }
        }
    }
    Ok(fired)
}

pub(super) fn load(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    let pid = nd.p1;
    let mut fired = emit_head(rt, i, pid, outs[0]);
    let spec = &art.pipe_specs[pid as usize];
    if !rt.is_accepted(i) && rt.pipes[pid as usize].len() < spec.cap && rt.full(ins[0]) {
        let tag = rt.front_tag(ins[0]);
        let v = rt.mem.read(art, nd.p0, rt.front_payload(ins[0]))?;
        rt.pop(ins[0]);
        let (t, v) = canon(tag, v);
        let ready = rt.now + spec.lat;
        rt.pipes[pid as usize].push_back((t, v, ready));
        rt.set_accepted(i);
        fired = true;
    }
    Ok(fired)
}

pub(super) fn store(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    if rt.is_accepted(i) || !rt.space(outs[0]) || fronts_tag(rt, ins).is_none() {
        return Ok(false);
    }
    let (tag, addr) = rt.pop(ins[0]);
    let (_, data) = rt.pop(ins[1]);
    rt.mem.write(art, nd.p0, &addr, &data)?;
    rt.put(outs[0], tag, Value::Unit);
    rt.set_accepted(i);
    Ok(true)
}

pub(super) fn lsq(art: &CompiledCircuit, rt: &mut Rt, i: u32) -> Result<bool, SimError> {
    let nd = &art.nodes[i as usize];
    let ins = art.ports(nd.ins);
    let outs = art.ports(nd.outs);
    let lid = nd.p0 as usize;
    let pid = nd.p1 as usize;
    let spec = &art.lsqs[lid];
    let ns = spec.n_stores as usize;
    let mut fired = false;
    // Emit one matured load result per cycle (mirrors Load). The parallel
    // site ring says which ldata port the pipe head belongs to.
    if !rt.is_emitted(i) {
        if let Some(&(_, _, ready)) = rt.pipes[pid].front() {
            let site = *rt.lsq_sites[lid].front().expect("site ring tracks pipe") as usize;
            if ready <= rt.now && rt.space(outs[ns + site]) {
                let (t, v, _) = rt.pipes[pid].pop_front().expect("checked front");
                rt.lsq_sites[lid].pop_front();
                rt.put(outs[ns + site], t, v);
                rt.set_emitted(i);
                fired = true;
            }
        }
    }
    // Allocate: one sequence token per cycle opens the next body round;
    // `false` (loop exit) also opens the epilogue round.
    if !rt.is_accepted(i) && rt.full(ins[0]) {
        let more = rt.front_payload(ins[0]).as_bool().ok_or_else(|| {
            SimError::Eval(format!("lsq sequence token not boolean: {}", rt.front_value(ins[0])))
        })?;
        let need = spec.body.len() + if more { 0 } else { spec.epi.len() };
        if rt.lsq_pending[lid].len() + need <= spec.cap {
            rt.pop(ins[0]);
            rt.lsq_pending[lid].extend(spec.body.iter().copied());
            if !more {
                rt.lsq_pending[lid].extend(spec.epi.iter().copied());
            }
            rt.lsq_stats.allocs += 1;
            rt.set_accepted(i);
            fired = true;
        }
    }
    // Commit the head access if it is a store with both operands present:
    // stores leave the queue strictly in program order.
    if let Some(&(true, site)) = rt.lsq_pending[lid].front() {
        let k = site as usize;
        let pair = [ins[1 + 2 * k], ins[2 + 2 * k]];
        if rt.space(outs[k]) && fronts_tag(rt, &pair).is_some() {
            let (tag, addr) = rt.pop(pair[0]);
            let (_, data) = rt.pop(pair[1]);
            rt.mem.write(art, spec.mem, &addr, &data)?;
            rt.put(outs[k], tag, Value::Unit);
            rt.lsq_pending[lid].pop_front();
            rt.lsq_stats.commits += 1;
            fired = true;
        }
    }
    // Issue the oldest load whose address provably misses every older
    // store (memory disambiguation): each store ahead must be the front
    // of its own site — so its address token is the one at the channel
    // head — and differ from the load's address.
    if rt.pipes[pid].len() < art.pipe_specs[pid].cap {
        'issue: for idx in 0..rt.lsq_pending[lid].len() {
            let (is_store, site) = rt.lsq_pending[lid][idx];
            if is_store {
                continue;
            }
            // Only the oldest entry of a load site owns the site's front
            // address token.
            if (0..idx).any(|j| rt.lsq_pending[lid][j] == (false, site)) {
                continue;
            }
            let k = site as usize;
            let laddr = ins[1 + 2 * ns + k];
            if !rt.full(laddr) {
                continue;
            }
            for j in 0..idx {
                let (s, ssite) = rt.lsq_pending[lid][j];
                if !s {
                    continue;
                }
                if (0..j).any(|j2| rt.lsq_pending[lid][j2] == (true, ssite)) {
                    continue 'issue;
                }
                let sa = ins[1 + 2 * ssite as usize];
                if !rt.full(sa) || rt.front_payload(sa) == rt.front_payload(laddr) {
                    continue 'issue;
                }
            }
            let (tag, addr) = rt.pop(laddr);
            let v = rt.mem.read(art, spec.mem, &addr)?;
            let (t, v) = canon(tag, v);
            rt.pipes[pid].push_back((t, v, rt.now + art.pipe_specs[pid].lat));
            rt.lsq_sites[lid].push_back(site);
            rt.lsq_pending[lid].remove(idx);
            rt.lsq_stats.issues += 1;
            fired = true;
            break;
        }
    }
    Ok(fired)
}
