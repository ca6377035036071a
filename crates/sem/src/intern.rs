//! Interned, memoised stepping of a flat module, for one refinement check.
//!
//! A refinement check meets the same leaf states over and over: the
//! specification side alone reaches about a million module states on the
//! larger gcd obligations, differing from each other in one or two slots.
//! [`Stepper`] interns every leaf state of a module to a dense per-slot
//! `u32` id, so a module state is a *row* of ids (one per slot), and
//! memoises every component relation per (relation, leaf id[, value id]):
//! each relation runs at most once per distinct leaf (and consumed value)
//! in a check. The successor routines append rows to one flat buffer of
//! `u32` words, in exactly the order the relations return them, wire by
//! wire, so exploring over rows visits states in the same order as
//! exploring over [`State`]s with [`Module::internal_step`] and friends.
//!
//! A slot keeps each leaf once, in its id-indexed `leaves`, and finds ids
//! through a [`Chains`] index (hash → newest id, id → next older id with
//! the same hash) that compares the stored leaf on every candidate, so a
//! hash collision costs a chain step and never a wrong id. Leaves come
//! from the checked circuit, so their hashes use std's randomly keyed
//! hasher; rows of ids, which this module hands out, use [`FxHasher`]. The
//! checker uses the same index to deduplicate a closure's rows, to intern
//! implementation states and to intern spec-state sets.
//!
//! All tables belong to one check and are dropped when it returns.

use crate::module::{Module, Rel, Wire};
use crate::state::{CompState, State};
use graphiti_ir::Value;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};

/// The multiply-rotate hash of rustc's `FxHasher`, for the checker's
/// tables whose keys are ids this module hands out or rows of them, never
/// input from outside the check, so SipHash's collision resistance buys
/// nothing there; with SipHash those tables made a `checked-gcd` pass ~20%
/// slower. `finish` rotates the well-mixed high bits of the last product
/// down to where hash tables take their bucket index (as rustc-hash 2
/// does): a [`Chains`] key is itself such a hash, and without the rotation
/// rows that differ only in the upper half of their last 8-byte chunk
/// would share their low 32 bits, and so their buckets.
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
        self.0.rotate_left(26)
    }
}

/// A hash map with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A hash set with [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// The [`FxHasher`] hash of `x`.
pub(crate) fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = FxHasher::default();
    x.hash(&mut h);
    h.finish()
}

/// Ends a chain of [`Chains`].
const END: u32 = u32::MAX;

/// An index of dense ids by hash, for a table that stores its items itself
/// in id order: the newest id per 64-bit hash, and per id the next older
/// id with the same hash. A lookup walks one chain and asks the table to
/// compare each candidate, so a collision costs a step, never a wrong id.
#[derive(Default)]
pub(crate) struct Chains {
    newest: FxHashMap<u64, u32>,
    older: Vec<u32>,
}

impl Chains {
    /// The id of the item with hash `hash`, found by asking `is_item` about
    /// each candidate, and whether it is new: when no candidate matches,
    /// the next id ([`Chains::len`]) is recorded and the caller must store
    /// the item under it.
    pub(crate) fn id(&mut self, hash: u64, is_item: impl Fn(u32) -> bool) -> (u32, bool) {
        let next = u32::try_from(self.older.len()).expect("fewer than 2^32 interned items");
        let older = match self.newest.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(next);
                END
            }
            Entry::Occupied(mut e) => {
                let mut id = *e.get();
                while id != END {
                    if is_item(id) {
                        return (id, false);
                    }
                    id = self.older[id as usize];
                }
                e.insert(next)
            }
        };
        self.older.push(older);
        (next, true)
    }

    /// The number of ids handed out.
    pub(crate) fn len(&self) -> usize {
        self.older.len()
    }

    /// Forgets every id, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.newest.clear();
        self.older.clear();
    }
}

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
    /// Leaf states by id, the only copy.
    leaves: Vec<CompState>,
    /// Leaf ids by hash.
    index: Chains,
    hasher: RandomState,
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
        let leaves = &self.leaves;
        let hash = self.hasher.hash_one(&leaf);
        let (id, new) = self.index.id(hash, |id| leaves[id as usize] == leaf);
        if new {
            self.queue_len.push(u32::try_from(leaf.max_queue_len()).unwrap_or(u32::MAX));
            self.leaves.push(leaf);
        }
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

    /// The words in a row: one leaf id per slot.
    pub(crate) fn width(&self) -> usize {
        self.module.slot_count()
    }

    /// Appends the row of `s`, interning its leaves.
    pub(crate) fn intern_state(&mut self, s: &State, out: &mut Vec<u32>) {
        out.extend(s.leaves().iter().zip(&mut self.slots).map(|(l, slot)| slot.intern(l.clone())));
    }

    /// [`State::max_queue_len`] of a row.
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

    /// Appends the rows of the successors of row `s` consuming value `v` at
    /// input `r`, in the order of [`Module::input_step`].
    pub(crate) fn input_succs(
        &mut self,
        values: &Values,
        r: Rel,
        s: &[u32],
        v: u32,
        out: &mut Vec<u32>,
    ) {
        let run = self.input_run(values, r, s[r.slot], v);
        for &l in &self.slots[r.slot].arena[run.range()] {
            push_row(out, s, r.slot, l);
        }
    }

    /// Appends, per emission of row `s` at output `r` and in the order of
    /// [`Module::output_step`], the emitted value's id followed by the
    /// successor's row.
    pub(crate) fn output_succs(
        &mut self,
        values: &mut Values,
        r: Rel,
        s: &[u32],
        out: &mut Vec<u32>,
    ) {
        let run = self.output_run(values, r, s[r.slot]);
        for pair in self.slots[r.slot].arena[run.range()].chunks_exact(2) {
            out.push(pair[0]);
            push_row(out, s, r.slot, pair[1]);
        }
    }

    /// Appends the rows of the successors of row `s` by one internal step,
    /// in the order of [`Module::internal_step`].
    pub(crate) fn internal_succs(&mut self, values: &mut Values, s: &[u32], out: &mut Vec<u32>) {
        let module = self.module;
        for &Wire { out: o, inp } in &module.wires {
            let emitted = self.output_run(values, o, s[o.slot]);
            for k in emitted.range().step_by(2) {
                let (v, lo) = (self.slots[o.slot].arena[k], self.slots[o.slot].arena[k + 1]);
                // The input half sees the leaf the output half left.
                let li = if inp.slot == o.slot { lo } else { s[inp.slot] };
                let run = self.input_run(values, inp, li, v);
                for &l in &self.slots[inp.slot].arena[run.range()] {
                    push_row(out, s, o.slot, lo);
                    let at = out.len() - s.len() + inp.slot;
                    out[at] = l;
                }
            }
        }
    }
}

/// Appends row `s` with slot `slot` replaced by leaf `leaf`.
fn push_row(out: &mut Vec<u32>, s: &[u32], slot: usize, leaf: u32) {
    let at = out.len() + slot;
    out.extend_from_slice(s);
    out[at] = leaf;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denote::{denote, Env};
    use graphiti_ir::{CompKind, ExprLow, PortName};

    /// The flat routines yield, successor for successor, the rows of the
    /// states that the `State`-level step methods return.
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
        let (inp, out) = (PortName::local("f", "in"), PortName::local("b", "out"));
        let (in_rel, out_rel) = (m.inputs[&inp], m.outputs[&out]);
        let row = |st: &mut Stepper, s: &State| {
            let mut row = Vec::new();
            st.intern_state(s, &mut row);
            row
        };
        let mut frontier = vec![m.init()[0].clone()];
        let mut emissions = 0;
        for depth in 0..6 {
            let mut next = Vec::new();
            for s in &frontier {
                let ids = row(&mut st, s);
                let v = Value::Int(depth % 2);

                let mut got = Vec::new();
                st.internal_succs(&mut values, &ids, &mut got);
                let internal = m.internal_step(s);
                let want: Vec<u32> = internal.iter().flat_map(|t| row(&mut st, t)).collect();
                assert_eq!(got, want, "internal successors at depth {depth}");

                got.clear();
                let vid = values.id(&v);
                st.input_succs(&values, in_rel, &ids, vid, &mut got);
                let input = m.input_step(&inp, s, &v);
                let want: Vec<u32> = input.iter().flat_map(|t| row(&mut st, t)).collect();
                assert_eq!(got, want, "input successors at depth {depth}");

                got.clear();
                st.output_succs(&mut values, out_rel, &ids, &mut got);
                let output = m.output_step(&out, s);
                let mut want = Vec::new();
                for (v, t) in &output {
                    want.push(values.id(v));
                    want.extend(row(&mut st, t));
                }
                assert_eq!(got, want, "output successors at depth {depth}");
                emissions += output.len();

                next.extend(
                    internal.into_iter().chain(input).chain(output.into_iter().map(|o| o.1)),
                );
            }
            for w in &next {
                let ids = row(&mut st, w);
                assert_eq!(st.max_queue_len(&ids), w.max_queue_len());
            }
            next.sort();
            next.dedup();
            frontier = next;
        }
        assert!(emissions > 0, "the exploration reaches the output");
    }

    /// A collision-free hash is not needed: items with one hash get
    /// distinct ids, and a repeat finds its own.
    #[test]
    fn chains_tell_items_with_one_hash_apart() {
        let items = ["a", "b", "a", "c", "b"];
        let mut stored: Vec<&str> = Vec::new();
        let mut chains = Chains::default();
        let ids: Vec<u32> = items
            .iter()
            .map(|item| {
                let (id, new) = chains.id(7, |id| stored[id as usize] == *item);
                if new {
                    stored.push(item);
                }
                id
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!((chains.len(), stored), (3, vec!["a", "b", "c"]));
    }
}
