//! A small e-graph over pure functions — the stand-in for the paper's use
//! of egg [66] as an equality-saturation oracle.
//!
//! The paper uses egg to find the order in which to apply associativity /
//! commutativity / elimination rewrites that collapse the Split/Join residue
//! of pure generation. Here the same rule set is run as equality saturation
//! over [`PureFn`] terms, and extraction picks the smallest equivalent
//! function. The pipeline uses it to canonicalize and minimize the pure
//! functions produced by pure generation; like egg, it is an *untrusted*
//! oracle — the refinement obligations of the rewrites that use it and
//! randomized tests validate its output.

use graphiti_ir::{Op, PureFn, Value};
use std::collections::{BTreeMap, HashMap};

/// An e-class identifier.
pub type ClassId = usize;

/// A hash-consed node: a [`PureFn`] constructor with e-class children.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ENode {
    /// Identity.
    Id,
    /// Duplication.
    Dup,
    /// First projection.
    Fst,
    /// Second projection.
    Snd,
    /// Left reassociation.
    AssocL,
    /// Right reassociation.
    AssocR,
    /// Component swap.
    Swap,
    /// A primitive operator.
    Op(Op),
    /// A constant function.
    Const(Value),
    /// A memory read.
    Load(String),
    /// Composition `f ∘ g` of two classes.
    Comp(ClassId, ClassId),
    /// Parallel composition `f × g` of two classes.
    Par(ClassId, ClassId),
}

impl ENode {
    fn children(&self) -> Vec<ClassId> {
        match self {
            ENode::Comp(a, b) | ENode::Par(a, b) => vec![*a, *b],
            _ => vec![],
        }
    }

    fn map_children(&self, f: impl Fn(ClassId) -> ClassId) -> ENode {
        match self {
            ENode::Comp(a, b) => ENode::Comp(f(*a), f(*b)),
            ENode::Par(a, b) => ENode::Par(f(*a), f(*b)),
            other => other.clone(),
        }
    }
}

/// An e-graph over [`PureFn`] terms with equality saturation and smallest-
/// term extraction.
#[derive(Debug, Default)]
pub struct EGraph {
    parents: Vec<ClassId>,
    memo: HashMap<ENode, ClassId>,
    classes: BTreeMap<ClassId, Vec<ENode>>,
}

impl EGraph {
    /// An empty e-graph.
    pub fn new() -> EGraph {
        EGraph::default()
    }

    /// Canonical representative of a class.
    pub fn find(&self, mut id: ClassId) -> ClassId {
        while self.parents[id] != id {
            id = self.parents[id];
        }
        id
    }

    fn canonicalize(&self, node: &ENode) -> ENode {
        node.map_children(|c| self.find(c))
    }

    /// Adds a node, returning its class.
    pub fn add(&mut self, node: ENode) -> ClassId {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = self.parents.len();
        self.parents.push(id);
        self.memo.insert(node.clone(), id);
        self.classes.insert(id, vec![node]);
        id
    }

    /// Adds a whole [`PureFn`] term.
    pub fn add_term(&mut self, f: &PureFn) -> ClassId {
        let node = match f {
            PureFn::Id => ENode::Id,
            PureFn::Dup => ENode::Dup,
            PureFn::Fst => ENode::Fst,
            PureFn::Snd => ENode::Snd,
            PureFn::AssocL => ENode::AssocL,
            PureFn::AssocR => ENode::AssocR,
            PureFn::Swap => ENode::Swap,
            PureFn::Op(op) => ENode::Op(*op),
            PureFn::Const(v) => ENode::Const(v.clone()),
            PureFn::Load(m) => ENode::Load(m.clone()),
            PureFn::Comp(a, b) => {
                let ca = self.add_term(a);
                let cb = self.add_term(b);
                ENode::Comp(ca, cb)
            }
            PureFn::Par(a, b) => {
                let ca = self.add_term(a);
                let cb = self.add_term(b);
                ENode::Par(ca, cb)
            }
        };
        self.add(node)
    }

    /// Merges two classes.
    pub fn union(&mut self, a: ClassId, b: ClassId) -> ClassId {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parents[drop] = keep;
        let moved = self.classes.remove(&drop).unwrap_or_default();
        self.classes.entry(keep).or_default().extend(moved);
        keep
    }

    /// Restores congruence after unions: re-canonicalizes every node and
    /// merges classes containing identical nodes.
    pub fn rebuild(&mut self) {
        loop {
            let mut unions: Vec<(ClassId, ClassId)> = Vec::new();
            let mut new_memo: HashMap<ENode, ClassId> = HashMap::new();
            let mut new_classes: BTreeMap<ClassId, Vec<ENode>> = BTreeMap::new();
            for (&id, nodes) in &self.classes {
                let rid = self.find(id);
                for node in nodes {
                    let canon = self.canonicalize(node);
                    match new_memo.get(&canon) {
                        Some(&other) if self.find(other) != rid => {
                            unions.push((other, rid));
                        }
                        _ => {
                            new_memo.insert(canon.clone(), rid);
                        }
                    }
                    let entry = new_classes.entry(rid).or_default();
                    if !entry.contains(&canon) {
                        entry.push(canon);
                    }
                }
            }
            self.memo = new_memo;
            self.classes = new_classes;
            if unions.is_empty() {
                return;
            }
            for (a, b) in unions {
                self.union(a, b);
            }
        }
    }

    /// Nodes of a class.
    pub fn nodes(&self, id: ClassId) -> Vec<ENode> {
        self.classes.get(&self.find(id)).cloned().unwrap_or_default()
    }

    /// Unions two classes if distinct; returns whether anything changed.
    fn union_if(&mut self, a: ClassId, b: ClassId) -> bool {
        if self.find(a) != self.find(b) {
            self.union(a, b);
            true
        } else {
            false
        }
    }

    /// Runs one round of the rule set; returns true if anything changed.
    fn apply_rules_once(&mut self) -> bool {
        // Read-only snapshot: stale ids are fine, `add`/`union` canonicalize.
        let snapshot: Vec<(ClassId, Vec<ENode>)> =
            self.classes.iter().map(|(k, v)| (*k, v.clone())).collect();
        let by_id: HashMap<ClassId, Vec<ENode>> = snapshot.iter().cloned().collect();
        let nodes_of = |id: ClassId| -> Vec<ENode> { by_id.get(&id).cloned().unwrap_or_default() };
        let mut changed = false;
        for (c, nodes) in &snapshot {
            let c = *c;
            for node in nodes {
                match node {
                    ENode::Comp(f, g) => {
                        let (f, g) = (*f, *g);
                        for nf in nodes_of(f) {
                            match nf {
                                // comp(id, g) = g
                                ENode::Id => {
                                    changed |= self.union_if(c, g);
                                }
                                // comp(comp(a, b), g) = comp(a, comp(b, g))
                                ENode::Comp(a, b) => {
                                    let inner = self.add(ENode::Comp(b, g));
                                    let outer = self.add(ENode::Comp(a, inner));
                                    changed |= self.union_if(outer, c);
                                }
                                // comp(fst/snd, dup) = id
                                // comp(fst, par(x, y)) = comp(x, fst)
                                ENode::Fst | ENode::Snd => {
                                    let is_fst = nf == ENode::Fst;
                                    for ng in nodes_of(g) {
                                        if ng == ENode::Dup {
                                            let idc = self.add(ENode::Id);
                                            changed |= self.union_if(idc, c);
                                        }
                                        if let ENode::Par(x, y) = ng {
                                            let chosen = if is_fst { x } else { y };
                                            let proj = self.add(if is_fst {
                                                ENode::Fst
                                            } else {
                                                ENode::Snd
                                            });
                                            let t = self.add(ENode::Comp(chosen, proj));
                                            changed |= self.union_if(t, c);
                                        }
                                    }
                                }
                                // comp(swap, swap) = id; comp(swap, dup) = dup
                                ENode::Swap => {
                                    for ng in nodes_of(g) {
                                        if ng == ENode::Swap {
                                            let idc = self.add(ENode::Id);
                                            changed |= self.union_if(idc, c);
                                        }
                                        if ng == ENode::Dup {
                                            let d = self.add(ENode::Dup);
                                            changed |= self.union_if(d, c);
                                        }
                                    }
                                }
                                // comp(assocl, assocr) = id and vice versa
                                ENode::AssocL => {
                                    for ng in nodes_of(g) {
                                        if ng == ENode::AssocR {
                                            let idc = self.add(ENode::Id);
                                            changed |= self.union_if(idc, c);
                                        }
                                    }
                                }
                                ENode::AssocR => {
                                    for ng in nodes_of(g) {
                                        if ng == ENode::AssocL {
                                            let idc = self.add(ENode::Id);
                                            changed |= self.union_if(idc, c);
                                        }
                                    }
                                }
                                // comp(par(a, b), par(x, y)) = par(comp(a, x), comp(b, y))
                                ENode::Par(a, b) => {
                                    for ng in nodes_of(g) {
                                        if let ENode::Par(x, y) = ng {
                                            let ax = self.add(ENode::Comp(a, x));
                                            let by = self.add(ENode::Comp(b, y));
                                            let p = self.add(ENode::Par(ax, by));
                                            changed |= self.union_if(p, c);
                                        }
                                        // comp(par(f, g), dup) = comp(pairing, ..):
                                        // left unexpanded; pairing is already
                                        // in this form.
                                    }
                                }
                                _ => {}
                            }
                        }
                        // comp(f, id) = f
                        for ng in nodes_of(g) {
                            if ng == ENode::Id {
                                changed |= self.union_if(c, f);
                            }
                        }
                    }
                    ENode::Par(a, b) => {
                        // par(id, id) = id
                        let a_id = nodes_of(*a).contains(&ENode::Id);
                        let b_id = nodes_of(*b).contains(&ENode::Id);
                        if a_id && b_id {
                            let idc = self.add(ENode::Id);
                            changed |= self.union_if(idc, c);
                        }
                    }
                    _ => {}
                }
            }
        }
        if changed {
            self.rebuild();
        }
        changed
    }

    /// Runs equality saturation for at most `iters` rounds.
    pub fn saturate(&mut self, iters: usize) {
        for _ in 0..iters {
            if !self.apply_rules_once() {
                return;
            }
        }
    }

    /// Extracts the smallest term of a class.
    ///
    /// Returns `None` if the class is empty (should not happen for classes
    /// created via [`EGraph::add_term`]).
    pub fn extract(&self, id: ClassId) -> Option<PureFn> {
        // Fixpoint cost computation.
        let mut cost: BTreeMap<ClassId, (usize, ENode)> = BTreeMap::new();
        let mut changed = true;
        while changed {
            changed = false;
            for (&cid, nodes) in &self.classes {
                for node in nodes {
                    let child_cost: Option<usize> = node
                        .children()
                        .iter()
                        .map(|c| cost.get(&self.find(*c)).map(|(k, _)| *k))
                        .sum::<Option<usize>>();
                    if let Some(cc) = child_cost {
                        let total = 1 + cc;
                        let better = match cost.get(&cid) {
                            Some((old, _)) => total < *old,
                            None => true,
                        };
                        if better {
                            cost.insert(cid, (total, node.clone()));
                            changed = true;
                        }
                    }
                }
            }
        }
        self.rebuild_term(&cost, self.find(id))
    }

    fn rebuild_term(
        &self,
        cost: &BTreeMap<ClassId, (usize, ENode)>,
        id: ClassId,
    ) -> Option<PureFn> {
        let (_, node) = cost.get(&self.find(id))?;
        Some(match node {
            ENode::Id => PureFn::Id,
            ENode::Dup => PureFn::Dup,
            ENode::Fst => PureFn::Fst,
            ENode::Snd => PureFn::Snd,
            ENode::AssocL => PureFn::AssocL,
            ENode::AssocR => PureFn::AssocR,
            ENode::Swap => PureFn::Swap,
            ENode::Op(op) => PureFn::Op(*op),
            ENode::Const(v) => PureFn::Const(v.clone()),
            ENode::Load(m) => PureFn::Load(m.clone()),
            ENode::Comp(a, b) => PureFn::Comp(
                Box::new(self.rebuild_term(cost, *a)?),
                Box::new(self.rebuild_term(cost, *b)?),
            ),
            ENode::Par(a, b) => PureFn::Par(
                Box::new(self.rebuild_term(cost, *a)?),
                Box::new(self.rebuild_term(cost, *b)?),
            ),
        })
    }
}

/// Simplifies a pure function by equality saturation and smallest-term
/// extraction.
pub fn simplify(f: &PureFn, iters: usize) -> PureFn {
    let mut eg = EGraph::new();
    let root = eg.add_term(f);
    eg.saturate(iters);
    eg.extract(root).unwrap_or_else(|| f.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(f: PureFn, g: PureFn) -> PureFn {
        PureFn::Comp(Box::new(f), Box::new(g))
    }

    fn par(f: PureFn, g: PureFn) -> PureFn {
        PureFn::Par(Box::new(f), Box::new(g))
    }

    #[test]
    fn identity_compositions_collapse() {
        let f = comp(PureFn::Id, comp(PureFn::Op(Op::NeZero), PureFn::Id));
        assert_eq!(simplify(&f, 10), PureFn::Op(Op::NeZero));
    }

    #[test]
    fn projections_of_dup_cancel() {
        let f = comp(PureFn::Fst, PureFn::Dup);
        assert_eq!(simplify(&f, 10), PureFn::Id);
        let f = comp(PureFn::Snd, PureFn::Dup);
        assert_eq!(simplify(&f, 10), PureFn::Id);
    }

    #[test]
    fn swap_involution_cancels() {
        let f = comp(PureFn::Swap, PureFn::Swap);
        assert_eq!(simplify(&f, 10), PureFn::Id);
        let f = comp(PureFn::AssocL, PureFn::AssocR);
        assert_eq!(simplify(&f, 10), PureFn::Id);
    }

    #[test]
    fn par_fusion_reduces_size() {
        let f = comp(par(PureFn::Op(Op::NeZero), PureFn::Id), par(PureFn::Id, PureFn::Op(Op::Not)));
        let simplified = simplify(&f, 10);
        assert!(simplified.size() <= f.size());
        // Semantic preservation on a sample.
        let v = Value::pair(Value::Int(3), Value::Bool(true));
        assert_eq!(simplified.eval(&v), f.eval(&v));
    }

    #[test]
    fn simplification_preserves_semantics_randomly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // Random compositions of structural combinators applied to pairs.
        let atoms = [PureFn::Id, PureFn::Swap, PureFn::Dup];
        for _ in 0..50 {
            let mut f = PureFn::Id;
            for _ in 0..4 {
                let pick = atoms[rng.gen_range(0..atoms.len())].clone();
                f = if rng.gen_bool(0.5) { comp(pick, f) } else { comp(f, pick) };
            }
            let s = simplify(&f, 8);
            let v = Value::pair(
                Value::Int(rng.gen_range(-5i64..5)),
                Value::Int(rng.gen_range(-5i64..5)),
            );
            assert_eq!(s.eval(&v), f.eval(&v), "f = {f}, s = {s}");
        }
    }

    #[test]
    fn extraction_returns_smallest_known_form() {
        let f = comp(comp(PureFn::Fst, PureFn::Dup), comp(PureFn::Swap, PureFn::Swap));
        let s = simplify(&f, 12);
        assert_eq!(s, PureFn::Id);
    }
}
