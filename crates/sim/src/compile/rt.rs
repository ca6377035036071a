//! Per-run mutable state and the word-at-a-time drive loop of the
//! compiled backend.
//!
//! All per-node scheduler state (dirty current/next rounds, per-cycle
//! accepted/emitted caps, fired-this-cycle) is bit-packed into `u64`
//! words; the inner loop scans the current round's words low-to-high with
//! `trailing_zeros`, which visits set bits in ascending node-index order —
//! the order the reference sweep examines them in. Channel payloads
//! live in flat arrays with their tags out-of-band as raw `u32` words, so
//! tag moves are plain word copies instead of `Box` traffic.

use super::{assemble, canon, CompiledCircuit, NO_IDX, NO_TAG};
use crate::memory::{MemError, Memory};
use crate::sim::{SimConfig, SimError, SimResult, TraceEvent};
use crate::stall::{self, CircuitView, Observers, UnitClass};
use graphiti_ir::{Tag, Value};
use graphiti_sem::TaggerState;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Run-time memory: the interpreter's `BTreeMap` flattened into parallel
/// vectors, with Load/Store array names pre-resolved to indices so the
/// hot path never walks a string-keyed map.
pub(super) struct RtMem {
    names: Vec<String>,
    arrays: Vec<Vec<Value>>,
    /// Artifact memory id → array index (None: the run's memory lacks the
    /// array; accessing it raises the interpreter's exact error).
    resolved: Vec<Option<u32>>,
}

impl RtMem {
    fn new(art: &CompiledCircuit, memory: Memory) -> RtMem {
        let mut names = Vec::with_capacity(memory.len());
        let mut arrays = Vec::with_capacity(memory.len());
        for (name, arr) in memory {
            names.push(name);
            arrays.push(arr);
        }
        let resolved =
            art.mems.iter().map(|m| names.iter().position(|n| n == m).map(|i| i as u32)).collect();
        RtMem { names, arrays, resolved }
    }

    /// `mem_read` over the split representation: same checks, same error
    /// order (address shape, array existence, bounds), same messages.
    pub(super) fn read(
        &self,
        art: &CompiledCircuit,
        mid: u32,
        addr_payload: &Value,
    ) -> Result<Value, MemError> {
        let name = &art.mems[mid as usize];
        let i = addr_payload.as_int().ok_or_else(|| MemError::BadAddress(name.clone()))?;
        let ai = self.resolved[mid as usize].ok_or_else(|| MemError::UnknownArray(name.clone()))?;
        self.arrays[ai as usize]
            .get(i as usize)
            .cloned()
            .ok_or_else(|| MemError::OutOfBounds(name.clone(), i))
    }

    /// `mem_write` over the split representation (tags already stripped by
    /// the channel layout).
    pub(super) fn write(
        &mut self,
        art: &CompiledCircuit,
        mid: u32,
        addr_payload: &Value,
        data_payload: &Value,
    ) -> Result<(), MemError> {
        let name = &art.mems[mid as usize];
        let i = addr_payload.as_int().ok_or_else(|| MemError::BadAddress(name.clone()))?;
        let ai = self.resolved[mid as usize].ok_or_else(|| MemError::UnknownArray(name.clone()))?;
        let arr = &mut self.arrays[ai as usize];
        let slot = arr.get_mut(i as usize).ok_or_else(|| MemError::OutOfBounds(name.clone(), i))?;
        // The channel layout already stripped the one tag level
        // `mem_write` strips; the payload is stored as-is.
        *slot = data_payload.clone();
        Ok(())
    }

    /// The `Pure` closure's by-name read: any failure yields `Int(0)`,
    /// matching `mem_read(..).unwrap_or(Int(0))`.
    pub(super) fn read_or_zero(&self, name: &str, addr: i64) -> Value {
        self.names
            .iter()
            .position(|n| n == name)
            .and_then(|ai| self.arrays[ai].get(addr as usize))
            .cloned()
            .unwrap_or(Value::Int(0))
    }

    fn into_memory(self) -> Memory {
        self.names.into_iter().zip(self.arrays).collect()
    }
}

/// Mutable per-run state of a compiled circuit.
pub(crate) struct Rt {
    // -- channels --
    /// Valid bits of the one-slot latch channels, packed.
    slot_full: Vec<u64>,
    /// Out-of-band tag per slot ([`NO_TAG`]: untagged).
    slot_tag: Vec<u32>,
    /// Payload per slot (`Value::Unit` when vacant).
    slot_val: Vec<Value>,
    /// External queues (inputs, then outputs), indexed by `chan - n_slots`.
    queues: Vec<VecDeque<(u32, Value)>>,
    n_slots: usize,
    // -- per-node bitsets --
    accepted: Vec<u64>,
    emitted: Vec<u64>,
    fired: Vec<u64>,
    init_done: Vec<u64>,
    cur: Vec<u64>,
    nxt: Vec<u64>,
    // -- unit state --
    /// Internal queues as `(tag, payload, ready)` rings.
    pub(super) pipes: Vec<VecDeque<(u32, Value, u64)>>,
    pub(super) taggers: Vec<TaggerState>,
    /// Per store queue: allocated accesses `(is_store, site)` not yet
    /// committed/issued, oldest first.
    pub(super) lsq_pending: Vec<VecDeque<(bool, u32)>>,
    /// Per store queue: load site of each in-flight pipe entry, aligned
    /// with the queue's pipe ring (the pipe's tag word stays a real tag).
    pub(super) lsq_sites: Vec<VecDeque<u32>>,
    /// `sim.lsq.*` tallies across every store queue, flushed at finish.
    pub(super) lsq_stats: crate::sim::LsqStats,
    pub(super) mem: RtMem,
    pub(super) scratch: Vec<Value>,
    // -- clock and accounting --
    pub(super) now: u64,
    firings: u64,
    last_active: u64,
    firings_by_node: Vec<u64>,
    examined: u64,
    // -- observation --
    /// The run's observers (metrics, attribution, waveform), armed when
    /// the run starts and absent when it asks for none.
    observe: Option<Box<Observers>>,
    /// Whether fires are traced or counted — the one check the fire path
    /// pays when neither is.
    observing: bool,
    /// Per-node [`SimConfig::trace_nodes`] flags (empty unless
    /// `observing`).
    traced: Vec<bool>,
    /// Operand values the current fire consumed, when captured.
    pub(super) captured: Option<Vec<Value>>,
    /// Raw acceptance events `(cycle, node, consumed values)`.
    trace_buf: Vec<(u64, u32, Vec<Value>)>,
}

impl Rt {
    fn new(art: &CompiledCircuit, memory: Memory) -> Rt {
        let words = art.words;
        Rt {
            slot_full: vec![0; art.n_slots.div_ceil(64)],
            slot_tag: vec![NO_TAG; art.n_slots],
            slot_val: vec![Value::Unit; art.n_slots],
            queues: vec![VecDeque::new(); art.n_chans - art.n_slots],
            n_slots: art.n_slots,
            accepted: vec![0; words],
            emitted: vec![0; words],
            fired: vec![0; words],
            init_done: vec![0; words],
            cur: vec![0; words],
            nxt: vec![0; words],
            pipes: art
                .pipe_specs
                .iter()
                .map(|s| VecDeque::with_capacity(s.cap.min(1024)))
                .collect(),
            taggers: art.tagger_tags.iter().map(|&t| TaggerState::new(t)).collect(),
            lsq_pending: art.lsqs.iter().map(|l| VecDeque::with_capacity(l.cap)).collect(),
            lsq_sites: art.lsqs.iter().map(|_| VecDeque::new()).collect(),
            lsq_stats: crate::sim::LsqStats::default(),
            mem: RtMem::new(art, memory),
            scratch: Vec::new(),
            now: 0,
            firings: 0,
            last_active: 0,
            firings_by_node: vec![0; art.nodes.len()],
            examined: 0,
            observe: None,
            observing: false,
            traced: Vec::new(),
            captured: None,
            trace_buf: Vec::new(),
        }
    }

    /// Whether a fire of node `i` should capture the operand values it
    /// consumes (for the trace list or the per-fire trace events).
    #[inline]
    pub(super) fn captures(&self, i: u32) -> bool {
        self.observing
            && (self.traced[i as usize]
                || self.observe.as_ref().is_some_and(|o| o.traces(i as usize)))
    }

    /// Hands one fire of node `i`, and the values it captured, to the
    /// trace list and the shared observer.
    fn note_fire(&mut self, i: u32) {
        let values = self.captured.take();
        if let Some(o) = &mut self.observe {
            o.note_fire(i as usize, values.as_deref());
        }
        if let Some(values) = values {
            if self.traced[i as usize] {
                self.trace_buf.push((self.now, i, values));
            }
        }
    }

    // -- channel operations --

    /// Whether channel `c` holds a token at its front.
    #[inline]
    pub(super) fn full(&self, c: u32) -> bool {
        let cu = c as usize;
        if cu < self.n_slots {
            self.slot_full[cu / 64] & (1u64 << (cu % 64)) != 0
        } else {
            !self.queues[cu - self.n_slots].is_empty()
        }
    }

    /// Whether channel `c` can accept a token (external queues always can).
    #[inline]
    pub(super) fn space(&self, c: u32) -> bool {
        let cu = c as usize;
        cu >= self.n_slots || self.slot_full[cu / 64] & (1u64 << (cu % 64)) == 0
    }

    /// Tag word of the front token. Caller ensures the channel is full.
    #[inline]
    pub(super) fn front_tag(&self, c: u32) -> u32 {
        let cu = c as usize;
        if cu < self.n_slots {
            self.slot_tag[cu]
        } else {
            self.queues[cu - self.n_slots].front().expect("front of checked channel").0
        }
    }

    /// Payload of the front token. Caller ensures the channel is full.
    #[inline]
    pub(super) fn front_payload(&self, c: u32) -> &Value {
        let cu = c as usize;
        if cu < self.n_slots {
            &self.slot_val[cu]
        } else {
            &self.queues[cu - self.n_slots].front().expect("front of checked channel").1
        }
    }

    /// The front token reassembled into interpreter shape (error messages
    /// only).
    pub(super) fn front_value(&self, c: u32) -> Value {
        assemble(self.front_tag(c), self.front_payload(c).clone())
    }

    /// Removes and returns the front token. Caller ensures the channel is
    /// full.
    #[inline]
    pub(super) fn pop(&mut self, c: u32) -> (u32, Value) {
        let cu = c as usize;
        if cu < self.n_slots {
            self.slot_full[cu / 64] &= !(1u64 << (cu % 64));
            let tag = self.slot_tag[cu];
            self.slot_tag[cu] = NO_TAG;
            (tag, std::mem::replace(&mut self.slot_val[cu], Value::Unit))
        } else {
            self.queues[cu - self.n_slots].pop_front().expect("pop of checked channel")
        }
    }

    /// Appends a token, canonicalising the split representation (an
    /// untagged word whose payload is `Tagged` splits, so the stored pair
    /// always equals `take_tag` of the interpreter's value). Caller
    /// ensures space.
    #[inline]
    pub(super) fn put(&mut self, c: u32, tag: u32, v: Value) {
        let (tag, v) = canon(tag, v);
        let cu = c as usize;
        if cu < self.n_slots {
            self.slot_full[cu / 64] |= 1u64 << (cu % 64);
            self.slot_tag[cu] = tag;
            self.slot_val[cu] = v;
        } else {
            self.queues[cu - self.n_slots].push_back((tag, v));
        }
    }

    // -- per-node flags --

    #[inline]
    pub(super) fn is_accepted(&self, i: u32) -> bool {
        self.accepted[i as usize / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set_accepted(&mut self, i: u32) {
        self.accepted[i as usize / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub(super) fn is_emitted(&self, i: u32) -> bool {
        self.emitted[i as usize / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set_emitted(&mut self, i: u32) {
        self.emitted[i as usize / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub(super) fn is_init_done(&self, i: u32) -> bool {
        self.init_done[i as usize / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set_init_done(&mut self, i: u32) {
        self.init_done[i as usize / 64] |= 1u64 << (i % 64);
    }

    /// Ready cycle of node `i`'s internal queue head, if any.
    #[inline]
    fn front_ready(&self, art: &CompiledCircuit, i: usize) -> Option<u64> {
        let pid = art.pipe_of[i];
        if pid == NO_IDX {
            return None;
        }
        self.pipes[pid as usize].front().map(|&(_, _, t)| t)
    }

    /// Earliest future completion among all internal queues.
    fn next_pending(&self, art: &CompiledCircuit) -> Option<u64> {
        let mut min: Option<u64> = None;
        for &(_, pid) in &art.queued {
            if let Some(&(_, _, t)) = self.pipes[pid as usize].front() {
                if t > self.now {
                    min = Some(min.map_or(t, |m: u64| m.min(t)));
                }
            }
        }
        min
    }

    /// Sets bit `i` in `cur`.
    #[inline]
    fn wake(&mut self, i: usize) {
        self.cur[i / 64] |= 1u64 << (i % 64);
    }
}

/// Drives a compiled circuit to quiescence and folds the result into the
/// interpreter's [`SimResult`] shape.
pub(super) fn run(
    art: &CompiledCircuit,
    feeds: &BTreeMap<String, Vec<Value>>,
    memory: Memory,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    let mut rt = Rt::new(art, memory);
    for (name, vals) in feeds {
        let chan = *art
            .input_chans
            .get(name)
            .ok_or_else(|| SimError::BadGraph(format!("no input named `{name}`")))?;
        for v in vals {
            rt.put(chan, NO_TAG, v.clone());
        }
    }
    // Observers are armed once the inputs are fed; a run that asks for
    // none allocates none of this.
    rt.observe = Observers::arm(&Live { art, rt: &rt }, cfg);
    rt.observing = rt.observe.as_ref().is_some_and(|o| o.collects()) || !cfg.trace_nodes.is_empty();
    if rt.observing {
        rt.traced = art.names.iter().map(|n| cfg.trace_nodes.iter().any(|t| t == n)).collect();
    }
    graphiti_obs::flight::record("sim.start", || {
        format!("{} nodes, {} channels, scheduler=Compiled", art.nodes.len(), art.n_chans)
    });
    let outcome = drive(art, &mut rt, cfg);
    if let Err(e) = &outcome {
        graphiti_obs::flight::record("sim.error", || format!("cycle {}: {e}", rt.now));
        outcome?;
    }
    Ok(finish(art, rt))
}

/// The main loop: rounds within a cycle, cycles until quiescence, idle
/// fast-forward between pipeline maturities. Each round drains the dirty
/// set in ascending index order, like one pass of the reference sweep
/// (see the module docs of `compile.rs`).
fn drive(art: &CompiledCircuit, rt: &mut Rt, cfg: &SimConfig) -> Result<(), SimError> {
    let max_cycles = cfg.max_cycles;
    let n = art.nodes.len();
    let words = art.words;
    // Cycle 0 examines everything, like the interpreter's initial seed.
    for (w, word) in rt.cur.iter_mut().enumerate() {
        let remaining = n - (w * 64).min(n);
        *word = if remaining >= 64 { !0 } else { (1u64 << remaining) - 1 };
    }
    let mut timers: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    loop {
        let mut any = false;
        let examined_before = rt.examined;
        // Rounds: drain `cur` in ascending index order; marks with `j > i`
        // land back in `cur` (still ahead of the scan), the rest in `nxt`.
        loop {
            let mut w = 0;
            while w < words {
                let bits = rt.cur[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                let b = bits.trailing_zeros();
                rt.cur[w] = bits & (bits - 1);
                let i = (w * 64) as u32 + b;
                rt.examined += 1;
                let nd = &art.nodes[i as usize];
                if !(nd.fire)(art, rt, i)? {
                    continue;
                }
                any = true;
                rt.firings += 1;
                rt.firings_by_node[i as usize] += 1;
                rt.fired[w] |= 1u64 << b;
                if rt.observing {
                    rt.note_fire(i);
                }
                for &(mw, mask) in art.marks(nd.cur_marks) {
                    rt.cur[mw as usize] |= mask;
                }
                for &(mw, mask) in art.marks(nd.nxt_marks) {
                    rt.nxt[mw as usize] |= mask;
                }
                if let Some(t) = rt.front_ready(art, i as usize) {
                    if t > rt.now {
                        timers.push(Reverse((t, i)));
                    }
                }
            }
            if rt.nxt.iter().all(|&w| w == 0) {
                break;
            }
            std::mem::swap(&mut rt.cur, &mut rt.nxt);
        }
        if any {
            // Observe the post-fixpoint state of the cycle that just ended,
            // before the clock advances and the fired bits reset — the
            // instant the reference sweep observes.
            if let Some(mut o) = rt.observe.take() {
                o.end_cycle(&Live { art, rt }, rt.now, rt.examined - examined_before);
                rt.observe = Some(o);
            }
            rt.last_active = rt.now;
            rt.now += 1;
            // Firing caps reset for the nodes that fired; reseed them.
            for w in 0..words {
                let f = rt.fired[w];
                if f == 0 {
                    continue;
                }
                rt.accepted[w] &= !f;
                rt.emitted[w] &= !f;
                rt.cur[w] |= f;
                rt.fired[w] = 0;
            }
            // Wake nodes whose pipeline head matures this cycle.
            while let Some(&Reverse((t, j))) = timers.peek() {
                if t > rt.now {
                    break;
                }
                timers.pop();
                rt.wake(j as usize);
            }
        } else {
            match rt.next_pending(art) {
                Some(t) => {
                    rt.now = t;
                    for &(i, pid) in &art.queued {
                        if let Some(&(_, _, r)) = rt.pipes[pid as usize].front() {
                            if r <= rt.now {
                                rt.wake(i as usize);
                            }
                        }
                    }
                    while let Some(&Reverse((t2, _))) = timers.peek() {
                        if t2 > rt.now {
                            break;
                        }
                        timers.pop();
                    }
                }
                None => {
                    stall::deadlock_at_quiescence(&Live { art, rt }, cfg, rt.now)?;
                    break;
                }
            }
        }
        stall::boundary_check(&Live { art, rt }, cfg, rt.now, rt.last_active)?;
        if rt.now > max_cycles {
            return Err(SimError::Timeout(max_cycles));
        }
    }
    Ok(())
}

/// Folds run state into the reference sweep's result shape: reassembles
/// tagged outputs, reconstitutes the memory map, resolves per-node
/// firings to names, renders the waveform and stall report, and flushes
/// the run's metrics.
fn finish(art: &CompiledCircuit, mut rt: Rt) -> SimResult {
    let (waveform, stalls) = match rt.observe.take() {
        Some(o) => {
            if o.collects() {
                rt.lsq_stats.flush();
            }
            let live = Live { art, rt: &rt };
            o.finish(&live, rt.last_active + 1, &rt.firings_by_node, rt.examined)
        }
        None => (None, None),
    };
    let trace: Vec<TraceEvent> = std::mem::take(&mut rt.trace_buf)
        .into_iter()
        .map(|(cycle, i, values)| TraceEvent {
            cycle,
            node: art.names.get(i as usize).to_string(),
            values,
        })
        .collect();
    let firings_by_node: BTreeMap<String, u64> = art
        .names
        .iter()
        .zip(&rt.firings_by_node)
        .filter(|&(_, &c)| c > 0)
        .map(|(name, &c)| (name.to_string(), c))
        .collect();
    graphiti_obs::flight::record("sim.finish", || {
        format!("cycles={} firings={}", rt.last_active + 1, rt.firings)
    });
    let leftover_tokens = stall::tokens_in_flight(&Live { art, rt: &rt });
    let outputs: BTreeMap<String, Vec<Value>> = art
        .output_chans
        .iter()
        .map(|(name, &c)| {
            let q = std::mem::take(&mut rt.queues[c as usize - art.n_slots]);
            (name.clone(), q.into_iter().map(|(t, v)| assemble(t, v)).collect())
        })
        .collect();
    SimResult {
        cycles: rt.last_active + 1,
        outputs,
        memory: rt.mem.into_memory(),
        firings: rt.firings,
        leftover_tokens,
        firings_by_node,
        trace,
        waveform,
        stalls,
    }
}

/// The live runtime state seen through [`CircuitView`], for the shared
/// observers, deadlock tests, and leftover count.
struct Live<'a> {
    art: &'a CompiledCircuit,
    rt: &'a Rt,
}

impl CircuitView for Live<'_> {
    fn node_count(&self) -> usize {
        self.art.nodes.len()
    }

    fn chan_count(&self) -> usize {
        self.art.n_chans
    }

    fn ins(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.art.ports(self.art.nodes[i].ins).iter().map(|&c| c as usize)
    }

    fn outs(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.art.ports(self.art.nodes[i].outs).iter().map(|&c| c as usize)
    }

    fn producer(&self, c: usize) -> Option<usize> {
        self.art.producer_of[c].map(|j| j as usize)
    }

    fn consumer(&self, c: usize) -> Option<usize> {
        self.art.consumer_of[c].map(|j| j as usize)
    }

    fn class(&self, i: usize) -> UnitClass {
        self.art.class[i]
    }

    fn node_name(&self, i: usize) -> &str {
        self.art.names.get(i)
    }

    fn chan_name(&self, c: usize) -> &str {
        self.art.chan_names.get(c)
    }

    fn has_token(&self, c: usize) -> bool {
        self.rt.full(c as u32)
    }

    fn has_space(&self, c: usize) -> bool {
        self.rt.space(c as u32)
    }

    fn front_tag(&self, c: usize) -> Option<Tag> {
        let c = c as u32;
        let t = if self.rt.full(c) { self.rt.front_tag(c) } else { NO_TAG };
        (t != NO_TAG).then_some(t)
    }

    fn occupancy(&self, i: usize) -> usize {
        match (self.art.pipe_of[i], self.art.class[i]) {
            (NO_IDX, UnitClass::Tagger) => self.rt.taggers[self.art.nodes[i].p0 as usize].len(),
            (NO_IDX, _) => 0,
            (pid, _) => self.rt.pipes[pid as usize].len(),
        }
    }

    fn fired(&self, i: usize) -> bool {
        self.rt.fired[i / 64] >> (i % 64) & 1 != 0
    }

    fn queued(&self, c: usize) -> usize {
        match c.checked_sub(self.art.n_slots) {
            Some(q) => self.rt.queues[q].len(),
            None => usize::from(self.rt.full(c as u32)),
        }
    }
}
