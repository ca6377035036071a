//! Interned, memoised stepping of a flat module, for one refinement check.
//!
//! A refinement check meets the same leaf states over and over: the
//! specification side alone reaches about a million module states on the
//! larger gcd obligations, differing from each other in one or two slots. [`Stepper`] interns every leaf
//! state of a module to a dense per-slot `u32` id, so a module state is an
//! [`Ids`] (one id per slot), and memoises every component relation per
//! (relation, leaf id[, value id]): each relation runs at most once per
//! distinct leaf (and consumed value) in a check. Successors come out in
//! exactly the order the relations return them, wire by wire, so
//! exploring over ids visits states in the same order as exploring over
//! [`State`]s with [`Module::internal_step`] and friends.
//!
//! All tables belong to one check and are dropped when it returns.

use crate::module::{Module, Rel, Wire};
use crate::state::{CompState, State};
use graphiti_ir::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A module state as per-slot leaf ids.
pub(crate) type Ids = Box<[u32]>;

/// The multiply-rotate hash of rustc's `FxHasher`, for the checker's hot
/// tables, which are keyed by ids this module hands out (dense counters,
/// never input), so SipHash's collision resistance buys nothing there;
/// with SipHash those tables made a `checked-gcd` pass ~20% slower.
/// Tables keyed by leaf states or values, whose contents come from the
/// checked circuit, keep the default hasher.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A hash set with [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Values interned to dense ids. One table serves both modules of a check,
/// so an emitted value's id compares directly with an event's.
#[derive(Default)]
pub(crate) struct Values {
    list: Vec<Value>,
    ids: HashMap<Value, u32>,
}

impl Values {
    /// The id of `v`, interning it on first sight.
    pub(crate) fn id(&mut self, v: &Value) -> u32 {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = u32::try_from(self.list.len()).expect("fewer than 2^32 values");
        self.list.push(v.clone());
        self.ids.insert(v.clone(), id);
        id
    }

    /// The value with id `id`.
    pub(crate) fn get(&self, id: u32) -> &Value {
        &self.list[id as usize]
    }
}

/// A memoised step's successors: a run of a slot's arena.
#[derive(Clone, Copy)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    /// Marks a leaf whose step is not computed yet.
    const UNSET: Run = Run { start: u32::MAX, len: 0 };

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One slot's interned leaves and memoised relations.
#[derive(Default)]
struct Slot {
    leaves: Vec<CompState>,
    ids: HashMap<CompState, u32>,
    /// `max_queue_len` per leaf id.
    queue_len: Vec<u32>,
    /// Successors of memoised steps: leaf ids, or (value id, leaf id)
    /// pairs for outputs.
    arena: Vec<u32>,
    /// Per input relation: (leaf, value) → successors.
    inputs: Vec<FxHashMap<(u32, u32), Run>>,
    /// Per output relation, indexed by leaf id.
    outputs: Vec<Vec<Run>>,
}

impl Slot {
    fn intern(&mut self, leaf: CompState) -> u32 {
        if let Some(&id) = self.ids.get(&leaf) {
            return id;
        }
        let id = u32::try_from(self.leaves.len()).expect("fewer than 2^32 leaf states");
        self.queue_len.push(u32::try_from(leaf.max_queue_len()).unwrap_or(u32::MAX));
        self.leaves.push(leaf.clone());
        self.ids.insert(leaf, id);
        id
    }

    /// Closes a run opened at `start`.
    fn close(&self, start: usize) -> Run {
        let id = |n: usize| u32::try_from(n).expect("fewer than 2^32 memoised successors");
        Run { start: id(start), len: id(self.arena.len() - start) }
    }

    /// Interns successor leaves into a new run.
    fn record(&mut self, next: Vec<CompState>) -> Run {
        let start = self.arena.len();
        for l in next {
            let id = self.intern(l);
            self.arena.push(id);
        }
        self.close(start)
    }
}

/// The memo entry of `leaf` in a per-leaf table, growing the table.
fn entry(table: &mut Vec<Run>, leaf: u32) -> &mut Run {
    let i = leaf as usize;
    if table.len() <= i {
        table.resize(i + 1, Run::UNSET);
    }
    &mut table[i]
}

/// A module's steps over interned states, memoised per leaf.
pub(crate) struct Stepper<'m> {
    module: &'m Module,
    slots: Vec<Slot>,
}

impl<'m> Stepper<'m> {
    /// Empty tables for `module`.
    pub(crate) fn new(module: &'m Module) -> Stepper<'m> {
        let slots = module
            .slots
            .iter()
            .map(|r| Slot {
                inputs: vec![FxHashMap::default(); r.inputs.len()],
                outputs: vec![Vec::new(); r.outputs.len()],
                ..Slot::default()
            })
            .collect();
        Stepper { module, slots }
    }

    /// The module being stepped.
    pub(crate) fn module(&self) -> &'m Module {
        self.module
    }

    /// The ids of `s`, interning its leaves.
    pub(crate) fn intern_state(&mut self, s: &State) -> Ids {
        s.leaves().iter().zip(&mut self.slots).map(|(l, slot)| slot.intern(l.clone())).collect()
    }

    /// [`State::max_queue_len`] of an interned state.
    pub(crate) fn max_queue_len(&self, s: &[u32]) -> usize {
        s.iter().zip(&self.slots).map(|(&l, slot)| slot.queue_len[l as usize]).max().unwrap_or(0)
            as usize
    }

    fn input_run(&mut self, values: &Values, r: Rel, leaf: u32, v: u32) -> Run {
        let slot = &mut self.slots[r.slot];
        if let Some(&run) = slot.inputs[r.idx].get(&(leaf, v)) {
            return run;
        }
        let run = slot.record(self.module.input_rel(r, &slot.leaves[leaf as usize], values.get(v)));
        slot.inputs[r.idx].insert((leaf, v), run);
        run
    }

    fn output_run(&mut self, values: &mut Values, r: Rel, leaf: u32) -> Run {
        let slot = &mut self.slots[r.slot];
        let known = *entry(&mut slot.outputs[r.idx], leaf);
        if known.start != u32::MAX {
            return known;
        }
        let next = self.module.output_rel(r, &slot.leaves[leaf as usize]);
        let start = slot.arena.len();
        for (v, l) in next {
            let (v, l) = (values.id(&v), slot.intern(l));
            slot.arena.extend([v, l]);
        }
        let run = slot.close(start);
        slot.outputs[r.idx][leaf as usize] = run;
        run
    }

    /// Appends the successors of `s` consuming value `v` at input `r`.
    pub(crate) fn input_succs(
        &mut self,
        values: &Values,
        r: Rel,
        s: &[u32],
        v: u32,
        out: &mut Vec<Ids>,
    ) {
        let run = self.input_run(values, r, s[r.slot], v);
        for &l in &self.slots[r.slot].arena[run.range()] {
            out.push(with(s, r.slot, l));
        }
    }

    /// Appends the `(value id, successor)` pairs of `s` at output `r`.
    pub(crate) fn output_succs(
        &mut self,
        values: &mut Values,
        r: Rel,
        s: &[u32],
        out: &mut Vec<(u32, Ids)>,
    ) {
        let run = self.output_run(values, r, s[r.slot]);
        for pair in self.slots[r.slot].arena[run.range()].chunks_exact(2) {
            out.push((pair[0], with(s, r.slot, pair[1])));
        }
    }

    /// Appends the successors of `s` by one internal step, in the order of
    /// [`Module::internal_step`].
    pub(crate) fn internal_succs(&mut self, values: &mut Values, s: &[u32], out: &mut Vec<Ids>) {
        let module = self.module;
        for &Wire { out: o, inp } in &module.wires {
            let emitted = self.output_run(values, o, s[o.slot]);
            for k in emitted.range().step_by(2) {
                let (v, lo) = (self.slots[o.slot].arena[k], self.slots[o.slot].arena[k + 1]);
                // The input half sees the leaf the output half left.
                let li = if inp.slot == o.slot { lo } else { s[inp.slot] };
                let run = self.input_run(values, inp, li, v);
                for &l in &self.slots[inp.slot].arena[run.range()] {
                    let mut next = with(s, o.slot, lo);
                    next[inp.slot] = l;
                    out.push(next);
                }
            }
        }
    }
}

/// `s` with slot `slot` replaced by leaf `leaf`.
fn with(s: &[u32], slot: usize, leaf: u32) -> Ids {
    let mut next: Ids = s.into();
    next[slot] = leaf;
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denote::{denote, Env};
    use graphiti_ir::{CompKind, ExprLow, PortName};

    /// Exploring over ids yields, successor for successor, the states of
    /// the `State`-level step methods.
    #[test]
    fn interned_steps_match_state_steps() {
        let expr = ExprLow::product_of(vec![
            ExprLow::base("f", CompKind::Fork { ways: 2 }),
            ExprLow::base("m", CompKind::Merge),
            ExprLow::base("b", CompKind::Buffer { slots: 1, transparent: false }),
        ])
        .connect_all([
            (PortName::local("f", "out0"), PortName::local("m", "in0")),
            (PortName::local("f", "out1"), PortName::local("m", "in1")),
            (PortName::local("m", "out"), PortName::local("b", "in")),
        ]);
        let m = denote(&expr, &Env::standard());
        let mut st = Stepper::new(&m);
        let mut values = Values::default();
        let port = PortName::local("f", "in");
        let rel = m.inputs[&port];
        let mut frontier = vec![m.init()[0].clone()];
        for depth in 0..5 {
            let mut next = Vec::new();
            for s in &frontier {
                let ids = st.intern_state(s);
                let mut got = Vec::new();
                st.internal_succs(&mut values, &ids, &mut got);
                let v = values.id(&Value::Int(depth));
                st.input_succs(&values, rel, &ids, v, &mut got);
                let mut want = m.internal_step(s);
                want.extend(m.input_step(&port, s, &Value::Int(depth)));
                let want_ids: Vec<Ids> = want.iter().map(|w| st.intern_state(w)).collect();
                assert_eq!(got, want_ids, "depth {depth}");
                for w in &want {
                    let ids = st.intern_state(w);
                    assert_eq!(st.max_queue_len(&ids), w.max_queue_len());
                }
                next.extend(want);
            }
            frontier = next;
        }
    }
}
