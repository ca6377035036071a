//! Module states.
//!
//! The denotation of an ExprLow expression is a flat module: every base
//! component contributes one slot holding a [`CompState`] leaf, and a
//! product `e₁ ⊗ e₂` concatenates the slots of its operands (the paired
//! state of §4.5 of the paper). States are ordinary values with structural
//! equality so they can be compared and stored in sets.

use graphiti_ir::{Tag, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The state of a Tagger/Untagger region boundary: a tag allocator on entry
/// and a reorder buffer on exit.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaggerState {
    /// Unallocated tags.
    pub free: BTreeSet<Tag>,
    /// Allocated tags in allocation (program) order.
    pub order: VecDeque<Tag>,
    /// Untagged inputs waiting for a free tag.
    pub pending: VecDeque<Value>,
    /// Completed computations waiting to be released in order.
    pub done: BTreeMap<Tag, Value>,
}

impl TaggerState {
    /// A fresh tagger state with `tags` free tags.
    pub fn new(tags: u32) -> Self {
        TaggerState { free: (0..tags).collect(), ..Default::default() }
    }

    /// Total number of tokens resident in the region boundary.
    pub fn len(&self) -> usize {
        self.pending.len() + self.done.len()
    }

    /// Whether the boundary holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The state of a single component.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompState {
    /// A vector of FIFO queues (the representation used by most component
    /// semantics, mirroring the `enqᵢ`/`deqᵢ` relations of §4.3).
    Queues(Vec<VecDeque<Value>>),
    /// Init: its queue plus whether the pre-loaded token was emitted.
    Init {
        /// Queued condition tokens.
        queue: VecDeque<Value>,
        /// True once the initial token has been consumed.
        emitted_initial: bool,
    },
    /// Tagger/Untagger state.
    Tagger(TaggerState),
}

impl CompState {
    /// A state of `n` empty queues.
    pub fn queues(n: usize) -> Self {
        CompState::Queues(vec![VecDeque::new(); n])
    }

    /// The length of the longest queue in this state.
    pub fn max_queue_len(&self) -> usize {
        match self {
            CompState::Queues(qs) => qs.iter().map(|q| q.len()).max().unwrap_or(0),
            CompState::Init { queue, .. } => queue.len(),
            CompState::Tagger(t) => t.len(),
        }
    }

    /// Total number of queued tokens.
    pub fn token_count(&self) -> usize {
        match self {
            CompState::Queues(qs) => qs.iter().map(|q| q.len()).sum(),
            CompState::Init { queue, .. } => queue.len(),
            CompState::Tagger(t) => t.len(),
        }
    }
}

/// A module state: one [`CompState`] per slot, in slot order.
///
/// A module is a flat product of base components (see
/// [`Module`](crate::Module)): `⟦e₁ ⊗ e₂⟧` concatenates the slots of its
/// operands, so the paired state `(s₁, s₂)` of §4.5 is the concatenation of
/// their leaf vectors.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State(Box<[CompState]>);

impl State {
    /// A state with the given leaves, one per slot.
    pub fn new(leaves: Vec<CompState>) -> State {
        State(leaves.into_boxed_slice())
    }

    /// The paired state of a product: the leaves of `a` followed by those
    /// of `b`.
    pub(crate) fn pair(a: &State, b: &State) -> State {
        State(a.0.iter().chain(b.0.iter()).cloned().collect())
    }

    /// All component leaf states, in slot order.
    pub fn leaves(&self) -> &[CompState] {
        &self.0
    }

    /// This state with slot `slot` replaced by `leaf`.
    pub(crate) fn with(&self, slot: usize, leaf: CompState) -> State {
        let mut leaves = self.0.clone();
        leaves[slot] = leaf;
        State(leaves)
    }

    /// The length of the longest queue anywhere in the state, used by the
    /// refinement checker to bound exploration.
    pub fn max_queue_len(&self) -> usize {
        self.0.iter().map(CompState::max_queue_len).max().unwrap_or(0)
    }

    /// Total number of tokens resident in the circuit.
    pub fn token_count(&self) -> usize {
        self.0.iter().map(CompState::token_count).sum()
    }

    /// All values resident anywhere in the state (queues, pending/done maps).
    pub fn all_values(&self) -> Vec<&Value> {
        let mut out = Vec::new();
        for leaf in self.leaves() {
            match leaf {
                CompState::Queues(qs) => {
                    out.extend(qs.iter().flatten());
                }
                CompState::Init { queue, .. } => out.extend(queue.iter()),
                CompState::Tagger(t) => {
                    out.extend(t.pending.iter());
                    out.extend(t.done.values());
                }
            }
        }
        out
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, leaf) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{leaf:?}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_metrics() {
        let mut qs = vec![VecDeque::new(), VecDeque::new()];
        qs[0].push_back(Value::Int(1));
        qs[0].push_back(Value::Int(2));
        qs[1].push_back(Value::Int(3));
        let s = State::pair(
            &State::new(vec![CompState::Queues(qs)]),
            &State::new(vec![CompState::queues(1)]),
        );
        assert_eq!(s.leaves().len(), 2);
        assert_eq!(s.max_queue_len(), 2);
        assert_eq!(s.token_count(), 3);
    }

    #[test]
    fn tagger_state_allocation_pool() {
        let t = TaggerState::new(4);
        assert_eq!(t.free.len(), 4);
        assert!(t.is_empty());
    }

    #[test]
    fn states_are_ordered_and_hashable() {
        let a = State::new(vec![CompState::queues(1)]);
        let b = State::new(vec![CompState::queues(2)]);
        let mut set = BTreeSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(a);
        assert_eq!(set.len(), 2);
    }
}
