//! Modules: the semantic objects denoted by circuits (Fig. 7 of the paper).
//!
//! A [`Module`] packages input transitions, output transitions, internal
//! transitions, and a set of initial states. Transitions are *relations*,
//! represented executably as functions from a state (and, for external
//! transitions, a value) to the set of successor states.
//!
//! Modules are flat and slot-indexed. Every base component is one *slot*
//! holding its own relations over its own [`CompState`] leaf; a module
//! state is one leaf per slot ([`State`]). Ports and internal transitions
//! refer to a slot's relations by index, so the combinators of §4.5 are
//! index wiring and never wrap a relation:
//!
//! * [`Module::product`] — the union `m₁ ⊎ m₂` concatenates the slots (the
//!   paired state is the concatenated leaf vector);
//! * [`Module::connect`] — `m[o ⇝ i]` removes the output `o` and the input
//!   `i` and records the fused internal transition as an (output, input)
//!   wire. Crucially, *no* internal transitions may fire between the output
//!   and input halves of the fused step, which is what makes the asymmetric
//!   refinement definitions of §4.4 compose;
//! * [`Module::rename`] rekeys the port tables.
//!
//! A step of the whole module touches only the slots it names (one, or two
//! for a wire), which is what lets the refinement checker memoise steps per
//! leaf state.

use crate::state::{CompState, State};
use graphiti_ir::{PortName, Value};
use std::collections::BTreeMap;
use std::rc::Rc;

/// An input transition relation of one component: `(leaf state, consumed
/// value) → successor leaf states`.
pub type InputFn = Rc<dyn Fn(&CompState, &Value) -> Vec<CompState>>;

/// An output transition relation of one component: `leaf state → (emitted
/// value, successor leaf state)` pairs.
pub type OutputFn = Rc<dyn Fn(&CompState) -> Vec<(Value, CompState)>>;

/// The relations of one slot's component. Ports and wires refer to them by
/// index; a relation whose port was connected away stays here, reachable
/// from its wire. Components have no internal transitions of their own:
/// every internal step of a module is a connect wire.
#[derive(Clone, Default)]
pub(crate) struct Relations {
    pub(crate) inputs: Vec<InputFn>,
    pub(crate) outputs: Vec<OutputFn>,
}

/// A relation of one slot: the slot index and the index into that slot's
/// relation list of the relevant direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rel {
    pub(crate) slot: usize,
    pub(crate) idx: usize,
}

impl Rel {
    fn shifted(self, by: usize) -> Rel {
        Rel { slot: self.slot + by, ..self }
    }
}

/// A connect wire, a module's internal transition: an emission of the
/// output relation consumed by the input relation in one atomic step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wire {
    pub(crate) out: Rel,
    pub(crate) inp: Rel,
}

impl Wire {
    fn shifted(self, by: usize) -> Wire {
        Wire { out: self.out.shifted(by), inp: self.inp.shifted(by) }
    }
}

/// A module `M(S)`: maps from port names to external transitions, a
/// collection of internal transitions, and the initial states, over flat
/// slot-indexed state.
#[derive(Clone)]
pub struct Module {
    /// One entry per base component.
    pub(crate) slots: Vec<Relations>,
    /// Input transitions by port.
    pub(crate) inputs: BTreeMap<PortName, Rel>,
    /// Output transitions by port.
    pub(crate) outputs: BTreeMap<PortName, Rel>,
    /// Internal transitions in denotation order: a product lists its left
    /// operand's wires before its right operand's, and a connect appends
    /// its wire.
    pub(crate) wires: Vec<Wire>,
    /// Initial states (usually a singleton).
    init: Vec<State>,
}

impl std::fmt::Debug for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Module")
            .field("slots", &self.slots.len())
            .field("inputs", &self.inputs.keys().collect::<Vec<_>>())
            .field("outputs", &self.outputs.keys().collect::<Vec<_>>())
            .field("wires", &self.wires.len())
            .field("init", &self.init)
            .finish()
    }
}

impl Module {
    /// A single-component module (one slot) with the given initial leaf
    /// state and no ports yet; add them with [`Module::add_input`] and
    /// [`Module::add_output`].
    pub fn leaf(init: CompState) -> Module {
        Module {
            slots: vec![Relations::default()],
            inputs: BTreeMap::new(),
            outputs: BTreeMap::new(),
            wires: Vec::new(),
            init: vec![State::new(vec![init])],
        }
    }

    /// The component relations of a single-component module.
    ///
    /// # Panics
    ///
    /// Panics if the module has more than one slot: relations are added to
    /// components before they are composed.
    fn only_slot(&mut self) -> &mut Relations {
        assert_eq!(self.slots.len(), 1, "relations are added to single-component modules");
        &mut self.slots[0]
    }

    /// Adds an input port to a single-component module.
    ///
    /// # Panics
    ///
    /// Panics if the module has more than one slot or already has input `p`.
    pub fn add_input(&mut self, p: PortName, f: InputFn) {
        let slot = self.only_slot();
        slot.inputs.push(f);
        let rel = Rel { slot: 0, idx: slot.inputs.len() - 1 };
        assert!(self.inputs.insert(p, rel).is_none(), "duplicate input port");
    }

    /// Adds an output port to a single-component module.
    ///
    /// # Panics
    ///
    /// Panics if the module has more than one slot or already has output `p`.
    pub fn add_output(&mut self, p: PortName, f: OutputFn) {
        let slot = self.only_slot();
        slot.outputs.push(f);
        let rel = Rel { slot: 0, idx: slot.outputs.len() - 1 };
        assert!(self.outputs.insert(p, rel).is_none(), "duplicate output port");
    }

    /// The initial states.
    pub fn init(&self) -> &[State] {
        &self.init
    }

    /// The number of slots (base components); every state has one leaf
    /// per slot.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The number of internal transitions: one per connect wire.
    pub fn internal_count(&self) -> usize {
        self.wires.len()
    }

    /// The input port names.
    pub fn input_ports(&self) -> Vec<PortName> {
        self.inputs.keys().cloned().collect()
    }

    /// The output port names.
    pub fn output_ports(&self) -> Vec<PortName> {
        self.outputs.keys().cloned().collect()
    }

    /// Renames ports according to `(old → new)` maps (the `rename` operation
    /// used when denoting a base component, §4.5).
    ///
    /// Ports not mentioned keep their names.
    ///
    /// # Panics
    ///
    /// Panics if two ports would collide after renaming.
    pub fn rename(
        mut self,
        in_map: &BTreeMap<PortName, PortName>,
        out_map: &BTreeMap<PortName, PortName>,
    ) -> Module {
        let mut inputs = BTreeMap::new();
        for (k, v) in std::mem::take(&mut self.inputs) {
            let nk = in_map.get(&k).cloned().unwrap_or(k);
            assert!(inputs.insert(nk, v).is_none(), "input port collision after rename");
        }
        let mut outputs = BTreeMap::new();
        for (k, v) in std::mem::take(&mut self.outputs) {
            let nk = out_map.get(&k).cloned().unwrap_or(k);
            assert!(outputs.insert(nk, v).is_none(), "output port collision after rename");
        }
        Module { inputs, outputs, ..self }
    }

    /// The union combinator `m₁ ⊎ m₂`: the slots and wires of `other`
    /// follow those of `self`, and the initial states are the cartesian
    /// product.
    ///
    /// # Panics
    ///
    /// Panics if the two modules share a port name (products in a circuit
    /// never do, because port names embed instance names).
    pub fn product(mut self, other: Module) -> Module {
        let by = self.slots.len();
        for (k, r) in other.inputs {
            assert!(
                self.inputs.insert(k, r.shifted(by)).is_none(),
                "input port collision in product"
            );
        }
        for (k, r) in other.outputs {
            assert!(
                self.outputs.insert(k, r.shifted(by)).is_none(),
                "output port collision in product"
            );
        }
        self.wires.extend(other.wires.into_iter().map(|w| w.shifted(by)));
        self.slots.extend(other.slots);
        self.init =
            self.init.iter().flat_map(|a| other.init.iter().map(|b| State::pair(a, b))).collect();
        self
    }

    /// The connect combinator `m[o ⇝ i]`: removes output `o` and input `i`
    /// and adds the internal transition
    /// `r(s, s') ⇔ ∃ v s''. out[o](s, v, s'') ∧ in[i](s'', v, s')`.
    ///
    /// If either port is missing the module is returned unchanged except
    /// that the present port (if any) is still removed; callers lowering
    /// well-formed circuits never hit that case.
    pub fn connect(mut self, o: &PortName, i: &PortName) -> Module {
        let out = self.outputs.remove(o);
        let inp = self.inputs.remove(i);
        if let (Some(out), Some(inp)) = (out, inp) {
            self.wires.push(Wire { out, inp });
        }
        self
    }

    /// Applies input relation `r` to its slot's leaf.
    pub(crate) fn input_rel(&self, r: Rel, leaf: &CompState, v: &Value) -> Vec<CompState> {
        (self.slots[r.slot].inputs[r.idx])(leaf, v)
    }

    /// Applies output relation `r` to its slot's leaf.
    pub(crate) fn output_rel(&self, r: Rel, leaf: &CompState) -> Vec<(Value, CompState)> {
        (self.slots[r.slot].outputs[r.idx])(leaf)
    }

    /// All successors of `s` by consuming `v` at input `p` (none when the
    /// module has no such input).
    pub fn input_step(&self, p: &PortName, s: &State, v: &Value) -> Vec<State> {
        match self.inputs.get(p) {
            Some(&r) => self
                .input_rel(r, &s.leaves()[r.slot], v)
                .into_iter()
                .map(|l| s.with(r.slot, l))
                .collect(),
            None => Vec::new(),
        }
    }

    /// All `(emitted value, successor)` pairs of `s` at output `p` (none
    /// when the module has no such output).
    pub fn output_step(&self, p: &PortName, s: &State) -> Vec<(Value, State)> {
        match self.outputs.get(p) {
            Some(&r) => self
                .output_rel(r, &s.leaves()[r.slot])
                .into_iter()
                .map(|(v, l)| (v, s.with(r.slot, l)))
                .collect(),
            None => Vec::new(),
        }
    }

    /// All successors of `s` by one internal step, wire by wire in
    /// denotation order.
    pub fn internal_step(&self, s: &State) -> Vec<State> {
        let mut next = Vec::new();
        for &Wire { out, inp } in &self.wires {
            for (v, l) in self.output_rel(out, &s.leaves()[out.slot]) {
                let mid = s.with(out.slot, l);
                next.extend(
                    self.input_rel(inp, &mid.leaves()[inp.slot], &v)
                        .into_iter()
                        .map(|l| mid.with(inp.slot, l)),
                );
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-queue pass-through module (a simple buffer) with ports `pin`
    /// and `pout`.
    fn queue_module(inst: &str) -> Module {
        let mut m = Module::leaf(CompState::queues(1));
        m.add_input(
            PortName::local(inst, "in"),
            Rc::new(|s, v| match s {
                CompState::Queues(qs) => {
                    let mut qs = qs.clone();
                    qs[0].push_back(v.clone());
                    vec![CompState::Queues(qs)]
                }
                _ => vec![],
            }),
        );
        m.add_output(
            PortName::local(inst, "out"),
            Rc::new(|s| match s {
                CompState::Queues(qs) => {
                    let mut qs = qs.clone();
                    match qs[0].pop_front() {
                        Some(v) => vec![(v, CompState::Queues(qs))],
                        None => vec![],
                    }
                }
                _ => vec![],
            }),
        );
        m
    }

    #[test]
    fn queue_roundtrip() {
        let m = queue_module("q");
        let s0 = m.init()[0].clone();
        let s1 = m.input_step(&PortName::local("q", "in"), &s0, &Value::Int(5));
        assert_eq!(s1.len(), 1);
        let outs = m.output_step(&PortName::local("q", "out"), &s1[0]);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, Value::Int(5));
    }

    #[test]
    fn product_lifts_both_sides() {
        let m = queue_module("a").product(queue_module("b"));
        assert_eq!(m.inputs.len(), 2);
        assert_eq!(m.outputs.len(), 2);
        assert_eq!(m.slot_count(), 2);
        let s0 = m.init()[0].clone();
        let s1 = &m.input_step(&PortName::local("a", "in"), &s0, &Value::Int(1))[0];
        let s2 = &m.input_step(&PortName::local("b", "in"), s1, &Value::Int(2))[0];
        let a_out = m.output_step(&PortName::local("a", "out"), s2);
        assert_eq!(a_out[0].0, Value::Int(1));
        let b_out = m.output_step(&PortName::local("b", "out"), s2);
        assert_eq!(b_out[0].0, Value::Int(2));
    }

    #[test]
    fn connect_fuses_output_to_input() {
        let m = queue_module("a")
            .product(queue_module("b"))
            .connect(&PortName::local("a", "out"), &PortName::local("b", "in"));
        assert_eq!(m.inputs.len(), 1);
        assert_eq!(m.outputs.len(), 1);
        assert_eq!(m.internal_count(), 1);
        let s0 = m.init()[0].clone();
        let s1 = &m.input_step(&PortName::local("a", "in"), &s0, &Value::Int(7))[0];
        // Before the internal fires, b has nothing to emit.
        assert!(m.output_step(&PortName::local("b", "out"), s1).is_empty());
        let s2 = &m.internal_step(s1)[0];
        let outs = m.output_step(&PortName::local("b", "out"), s2);
        assert_eq!(outs[0].0, Value::Int(7));
    }

    #[test]
    fn connect_within_one_slot_feeds_the_emitted_leaf() {
        // A self-loop wire: the input half sees the leaf the output half
        // left behind, as in the fused relation `out ; in`.
        let m =
            queue_module("q").connect(&PortName::local("q", "out"), &PortName::local("q", "in"));
        let mut s = m.init()[0].clone();
        let mut qs = vec![std::collections::VecDeque::new()];
        qs[0].extend([Value::Int(1), Value::Int(2)]);
        s = s.with(0, CompState::Queues(qs));
        let rotated = m.internal_step(&s);
        assert_eq!(rotated.len(), 1);
        let all: Vec<&Value> = rotated[0].all_values();
        assert_eq!(all, vec![&Value::Int(2), &Value::Int(1)]);
    }

    #[test]
    fn connect_with_missing_port_drops_silently() {
        let m =
            queue_module("a").connect(&PortName::local("zz", "out"), &PortName::local("a", "in"));
        assert!(m.inputs.is_empty(), "present input side is still removed");
        assert_eq!(m.internal_count(), 0);
    }

    #[test]
    fn rename_rekeys_ports() {
        let mut in_map = BTreeMap::new();
        in_map.insert(PortName::local("a", "in"), PortName::Io(0));
        let mut out_map = BTreeMap::new();
        out_map.insert(PortName::local("a", "out"), PortName::Io(0));
        let m = queue_module("a").rename(&in_map, &out_map);
        assert!(m.inputs.contains_key(&PortName::Io(0)));
        assert!(m.outputs.contains_key(&PortName::Io(0)));
    }

    #[test]
    fn product_initial_states_are_concatenated() {
        let m = queue_module("a").product(queue_module("b")).product(queue_module("c"));
        assert_eq!(m.init().len(), 1);
        assert_eq!(m.init()[0].leaves().len(), 3);
    }

    #[test]
    fn product_keeps_wires_in_denotation_order() {
        // (a ⊗ b)[a.out ⇝ b.in] ⊗ c, then [b.out ⇝ c.in]: the wire
        // recorded on the left operand comes first, shifted slots intact.
        let left = queue_module("a")
            .product(queue_module("b"))
            .connect(&PortName::local("a", "out"), &PortName::local("b", "in"));
        let m = left
            .product(queue_module("c"))
            .connect(&PortName::local("b", "out"), &PortName::local("c", "in"));
        let wires: Vec<(usize, usize)> = m.wires.iter().map(|w| (w.out.slot, w.inp.slot)).collect();
        assert_eq!(wires, vec![(0, 1), (1, 2)]);
    }
}
