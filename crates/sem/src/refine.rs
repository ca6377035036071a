//! Refinement checking.
//!
//! The paper proves refinements `m ⊑ m'` (Defs 4.1–4.5) in Lean. This crate
//! checks them *executably* on bounded domains:
//!
//! [`check_refinement`] checks trace inclusion over weak steps via an
//! on-the-fly subset construction: every trace of the implementation (with
//! internal steps erased) must be a trace of the specification. Refinement
//! implies trace inclusion, and for the finite, queue-capped state spaces
//! explored here the check is exhaustive up to the configured bounds.
//!
//! It returns [`Refinement::BoundReached`] instead of a verdict when a
//! resource bound is hit — carrying a [`BoundHit`] that says which bound
//! and at what count — so a bounded pass is never confused with a proof.

use crate::intern::{hash_of, Chains, FxHashMap, FxHashSet, Stepper, Values};
use crate::module::{Module, Rel};
use graphiti_ir::{PortName, Value};
use std::collections::BTreeMap;
use std::fmt;

/// An externally visible event of a module run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// A value consumed at an input port.
    In(PortName, Value),
    /// A value emitted at an output port.
    Out(PortName, Value),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::In(p, v) => write!(f, "in {p} {v}"),
            Event::Out(p, v) => write!(f, "out {p} {v}"),
        }
    }
}

/// Bounds and the input alphabet for refinement checking.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Values fed to every input port during exploration.
    pub domain: Vec<Value>,
    /// Implementation states whose longest queue exceeds this are pruned.
    pub queue_cap: usize,
    /// Maximum number of steps along an explored path.
    pub max_depth: usize,
    /// Maximum number of visited (state, spec-set) pairs.
    pub max_states: usize,
    /// Maximum size of a specification internal closure. Only the states
    /// a closure adds to its start count: the check stops when a closure
    /// grows larger than both this limit and its start set.
    pub closure_limit: usize,
    /// Assume the context only provides inputs the *specification* can
    /// accept (the paper's well-typed-graphs assumption, §6.3): when the
    /// spec rejects a value at a port outright, the input is skipped
    /// instead of counted as a violation. Rewrite checking needs this —
    /// e.g. replacing `Split; Join` by a wire widens the accepted value set
    /// from pairs to everything, but a well-typed context never sends a
    /// non-pair there.
    pub well_typed_inputs: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            domain: vec![Value::Bool(true), Value::Bool(false), Value::Int(0), Value::Int(1)],
            queue_cap: 2,
            max_depth: 10,
            max_states: 50_000,
            closure_limit: 512,
            well_typed_inputs: true,
        }
    }
}

impl RefineConfig {
    /// A configuration with the given input alphabet.
    pub fn with_domain(domain: Vec<Value>) -> Self {
        RefineConfig { domain, ..Default::default() }
    }
}

/// Which resource bound interrupted an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BoundKind {
    /// [`RefineConfig::max_states`]: the visited-state budget ran out.
    States,
    /// [`RefineConfig::max_depth`]: a path reached the depth limit.
    Depth,
    /// [`RefineConfig::queue_cap`]: a state grew a queue past the cap.
    QueueCap,
    /// [`RefineConfig::closure_limit`]: a spec internal closure overflowed.
    ClosureLimit,
}

impl BoundKind {
    /// A stable lowercase name (used as a metric label).
    pub fn name(self) -> &'static str {
        match self {
            BoundKind::States => "states",
            BoundKind::Depth => "depth",
            BoundKind::QueueCap => "queue_cap",
            BoundKind::ClosureLimit => "closure_limit",
        }
    }
}

impl fmt::Display for BoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured record of the first bound hit during an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundHit {
    /// Which configured bound was hit.
    pub kind: BoundKind,
    /// The count at the moment of the hit (visited states, path depth,
    /// queue length, or closure size — per `kind`).
    pub at: u64,
}

impl fmt::Display for BoundHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bound hit at {}", self.kind, self.at)
    }
}

/// The verdict of a bounded refinement check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refinement {
    /// No violation exists within the explored (bounded) space, and the
    /// bounds were not hit: the exploration was exhaustive.
    Holds,
    /// No violation found, but a resource bound was reached; the record
    /// says which bound and at what count.
    BoundReached(BoundHit),
    /// The modules do not expose the same ports, so they are not comparable.
    Incomparable(String),
    /// A violating trace: the implementation performs it, the specification
    /// cannot.
    Fails {
        /// The offending event sequence, ending with the unmatched event.
        trace: Vec<Event>,
    },
}

impl Refinement {
    /// Whether the check found no violation (exhaustively or up to bounds).
    pub fn is_ok(&self) -> bool {
        matches!(self, Refinement::Holds | Refinement::BoundReached(_))
    }
}

/// Exploration statistics of one refinement check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Distinct (implementation state, spec state set) pairs visited.
    pub visited_states: u64,
    /// Peak size of the exploration frontier.
    pub frontier_peak: u64,
    /// Closure steps of the subset construction (the spec's initial
    /// closure, then one per (spec set, event) the exploration asks for),
    /// memo hits included.
    pub closures: u64,
    /// Paths cut off by the depth bound.
    pub depth_prunes: u64,
    /// Successor states discarded by the queue cap.
    pub queue_prunes: u64,
}

/// Checks (bounded) trace inclusion of `imp` in `spec`.
///
/// Every weak trace of `imp` — inputs drawn from `cfg.domain`, queues capped
/// at `cfg.queue_cap`, paths of at most `cfg.max_depth` steps — must be a
/// weak trace of `spec`.
pub fn check_refinement(imp: &Module, spec: &Module, cfg: &RefineConfig) -> Refinement {
    check_refinement_with_stats(imp, spec, cfg).0
}

/// [`check_refinement`] plus exploration statistics (visited states,
/// frontier peak, prune counts). When `graphiti-obs` collection is
/// enabled, the statistics and any bound hit are also recorded as
/// `refine.*` metrics.
pub fn check_refinement_with_stats(
    imp: &Module,
    spec: &Module,
    cfg: &RefineConfig,
) -> (Refinement, RefineStats) {
    let mut stats = RefineStats::default();
    let verdict = check_refinement_inner(imp, spec, cfg, &mut stats);
    record_check_metrics(&verdict, &stats);
    (verdict, stats)
}

/// Records one check's outcome into the `refine.*` metrics (no-op when
/// collection is disabled).
///
/// The fixed-name handles are memoised per thread and re-fetched when the
/// obs registry generation changes (an `obs::reset()` detaches old
/// handles), so back-to-back checks on one worker don't pay a registry
/// lock per metric.
fn record_check_metrics(verdict: &Refinement, stats: &RefineStats) {
    if !graphiti_obs::enabled() {
        return;
    }
    struct Handles {
        generation: u64,
        checks: graphiti_obs::Counter,
        visited: graphiti_obs::Counter,
        visited_per_check: graphiti_obs::Histogram,
        frontier_peak: graphiti_obs::Histogram,
        /// Verdict classes: holds, bounded, fails, incomparable.
        verdicts: [graphiti_obs::Counter; 4],
    }
    fn fetch() -> Handles {
        Handles {
            generation: graphiti_obs::generation(),
            checks: graphiti_obs::counter("refine.checks"),
            visited: graphiti_obs::counter("refine.visited_states"),
            visited_per_check: graphiti_obs::histogram("refine.visited_states_per_check"),
            frontier_peak: graphiti_obs::histogram("refine.frontier_peak"),
            verdicts: [
                graphiti_obs::counter("refine.verdict.holds"),
                graphiti_obs::counter("refine.verdict.bounded"),
                graphiti_obs::counter("refine.verdict.fails"),
                graphiti_obs::counter("refine.verdict.incomparable"),
            ],
        }
    }
    thread_local! {
        static HANDLES: std::cell::RefCell<Option<Handles>> = const { std::cell::RefCell::new(None) };
    }
    HANDLES.with(|slot| {
        let mut slot = slot.borrow_mut();
        let generation = graphiti_obs::generation();
        if slot.as_ref().is_none_or(|h| h.generation != generation) {
            *slot = Some(fetch());
        }
        let h = slot.as_ref().expect("handles just ensured");
        h.checks.inc();
        h.visited.add(stats.visited_states);
        h.visited_per_check.record(stats.visited_states);
        h.frontier_peak.record(stats.frontier_peak);
        let class = match verdict {
            Refinement::Holds => 0,
            Refinement::BoundReached(_) => 1,
            Refinement::Fails { .. } => 2,
            Refinement::Incomparable(_) => 3,
        };
        h.verdicts[class].inc();
    });
    if let Refinement::BoundReached(hit) = verdict {
        graphiti_obs::counter(&format!("refine.bound_hits.{}", hit.kind.name())).inc();
        graphiti_obs::flight::record("refine.bound_hit", || {
            format!("{} at {}", hit.kind.name(), hit.at)
        });
    }
}

fn check_refinement_inner(
    imp: &Module,
    spec: &Module,
    cfg: &RefineConfig,
    stats: &mut RefineStats,
) -> Refinement {
    if imp.input_ports() != spec.input_ports() {
        return Refinement::Incomparable(format!(
            "input ports differ: {:?} vs {:?}",
            imp.input_ports(),
            spec.input_ports()
        ));
    }
    if imp.output_ports() != spec.output_ports() {
        return Refinement::Incomparable(format!(
            "output ports differ: {:?} vs {:?}",
            imp.output_ports(),
            spec.output_ports()
        ));
    }
    Explorer::new(imp, spec, cfg).run(stats)
}

/// An item of the exploration stack.
struct Item {
    /// The implementation state (an id into [`Explorer::states`]).
    state: u32,
    /// The spec states that can have produced the same events, closed
    /// under spec internal steps (an id into [`Explorer::sets`]).
    set: u32,
    depth: usize,
    /// The events so far (a node of [`Explorer::trace`]).
    trace: u32,
}

/// The trace node of the empty trace.
const NO_EVENTS: u32 = u32::MAX;

/// An event in the trace arena and in closure memo keys: the port's index
/// in name order and the value's id.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Step {
    In(u32, u32),
    Out(u32, u32),
}

/// Distinct rows of one width (see [`Stepper`]), stored flat and numbered
/// in insertion order.
struct Rows {
    width: usize,
    words: Vec<u32>,
    index: Chains,
}

impl Rows {
    fn new(width: usize) -> Rows {
        Rows { width, words: Vec::new(), index: Chains::default() }
    }

    /// Row `id`.
    fn row(&self, id: u32) -> &[u32] {
        &self.words[id as usize * self.width..][..self.width]
    }

    /// The id of `row`, and whether it is new.
    fn insert(&mut self, row: &[u32]) -> (u32, bool) {
        let (words, width) = (&self.words, self.width);
        let found = self.index.id(hash_of(row), |id| words[id as usize * width..][..width] == *row);
        if found.1 {
            self.words.extend_from_slice(row);
        }
        found
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        self.words.clear();
        self.index.clear();
    }
}

/// Spec-state sets interned by content: set `id` is the sorted
/// concatenation of its states' rows, `words[ends[id]..ends[id + 1]]`.
struct Sets {
    words: Vec<u32>,
    ends: Vec<usize>,
    index: Chains,
}

impl Sets {
    fn get(&self, id: u32) -> &[u32] {
        &self.words[self.ends[id as usize]..self.ends[id as usize + 1]]
    }

    /// The id of the set whose words were appended to `words` since the
    /// last set; a repeat's words are dropped again.
    fn intern_tail(&mut self) -> u32 {
        let (words, ends) = (&self.words, &self.ends);
        let start = *ends.last().expect("ends starts at 0");
        let tail = &words[start..];
        let (id, new) = self
            .index
            .id(hash_of(tail), |id| words[ends[id as usize]..ends[id as usize + 1]] == *tail);
        if new {
            self.ends.push(self.words.len());
        } else {
            self.words.truncate(start);
        }
        id
    }
}

/// One refinement check's exploration over interned states.
///
/// The implementation is explored depth-first over (state, spec-state set)
/// pairs — the on-the-fly subset construction — with the visited check at
/// pop time. Both modules step through their own memoised [`Stepper`].
/// Implementation states are interned rows, spec-state sets are interned
/// (sorted and flattened, one id per distinct set), and the closed
/// successor set of a (set, event) pair is memoised: it is a function of
/// that key alone, and a repeat would intern nothing new, so a memo hit
/// returns exactly what recomputing would. The events of a path live in a
/// parent-pointer arena rather than in a trace per stack item. Everything
/// is dropped when the check returns.
struct Explorer<'m> {
    imp: Stepper<'m>,
    spec: Stepper<'m>,
    cfg: &'m RefineConfig,
    values: Values,
    /// Implementation states by id.
    states: Rows,
    sets: Sets,
    /// `closure(step(set, event))` by (set, event).
    after: FxHashMap<(u32, Step), u32>,
    /// Spec rows a step produced, then the successors of one closure row.
    stepped: Vec<u32>,
    /// Spec emissions: value id, then row.
    emitted: Vec<u32>,
    /// The rows of the closure being computed.
    closure: Rows,
    /// Closure row ids in row order.
    order: Vec<u32>,
    /// Trace nodes: parent node and the event appended to it.
    trace: Vec<(u32, Step)>,
}

impl<'m> Explorer<'m> {
    fn new(imp: &'m Module, spec: &'m Module, cfg: &'m RefineConfig) -> Explorer<'m> {
        let (imp, spec) = (Stepper::new(imp), Stepper::new(spec));
        Explorer {
            states: Rows::new(imp.width()),
            closure: Rows::new(spec.width()),
            imp,
            spec,
            cfg,
            values: Values::default(),
            sets: Sets { words: Vec::new(), ends: vec![0], index: Chains::default() },
            after: FxHashMap::default(),
            stepped: Vec::new(),
            emitted: Vec::new(),
            order: Vec::new(),
            trace: Vec::new(),
        }
    }

    fn run(mut self, stats: &mut RefineStats) -> Refinement {
        let cfg = self.cfg;
        let closure_bound = Refinement::BoundReached(BoundHit {
            kind: BoundKind::ClosureLimit,
            at: cfg.closure_limit as u64,
        });
        stats.closures += 1;
        let (imp, spec) = (self.imp.module(), self.spec.module());
        for s in spec.init() {
            self.spec.intern_state(s, &mut self.stepped);
        }
        let Some(spec_init) = self.close() else {
            return closure_bound;
        };
        let domain: Vec<u32> = cfg.domain.iter().map(|v| self.values.id(v)).collect();
        // Ports pair up by position: both modules list the same names in
        // the same (name) order.
        let inputs: Vec<(Rel, Rel)> =
            imp.inputs.values().copied().zip(spec.inputs.values().copied()).collect();
        let outputs: Vec<(Rel, Rel)> =
            imp.outputs.values().copied().zip(spec.outputs.values().copied()).collect();

        let mut bound_hit: Option<BoundHit> = None;
        let note_bound = |slot: &mut Option<BoundHit>, kind: BoundKind, at: u64| {
            slot.get_or_insert(BoundHit { kind, at });
        };
        let mut visited: FxHashSet<(u32, u32)> = FxHashSet::default();
        // Depth-first exploration: counterexamples (when they exist) usually sit
        // deep along one path, and DFS reaches them without materializing every
        // shallower state first. Completeness up to the bounds is unchanged.
        let mut stack: Vec<Item> = Vec::new();
        let mut succs: Vec<u32> = Vec::new();
        for i0 in imp.init() {
            succs.clear();
            self.imp.intern_state(i0, &mut succs);
            let state = self.states.insert(&succs).0;
            stack.push(Item { state, set: spec_init, depth: 0, trace: NO_EVENTS });
        }
        let width = self.imp.width();
        let mut emitted: Vec<u32> = Vec::new();

        while let Some(item) = stack.pop() {
            stats.frontier_peak = stats.frontier_peak.max(stack.len() as u64 + 1);
            if !visited.insert((item.state, item.set)) {
                continue;
            }
            stats.visited_states = visited.len() as u64;
            if visited.len() > cfg.max_states {
                return Refinement::BoundReached(BoundHit {
                    kind: BoundKind::States,
                    at: visited.len() as u64,
                });
            }
            if item.depth >= cfg.max_depth {
                stats.depth_prunes += 1;
                note_bound(&mut bound_hit, BoundKind::Depth, item.depth as u64);
                continue;
            }
            let depth = item.depth + 1;
            let mut push = |stack: &mut Vec<Item>,
                            states: &mut Rows,
                            imp: &Stepper,
                            rows: &[u32],
                            set,
                            trace| {
                for row in rows.chunks_exact(width) {
                    let q = imp.max_queue_len(row);
                    if q > cfg.queue_cap {
                        stats.queue_prunes += 1;
                        note_bound(&mut bound_hit, BoundKind::QueueCap, q as u64);
                    } else {
                        stack.push(Item { state: states.insert(row).0, set, depth, trace });
                    }
                }
            };

            // Implementation internal steps: the spec set is already closed.
            succs.clear();
            let state = self.states.row(item.state);
            self.imp.internal_succs(&mut self.values, state, &mut succs);
            push(&mut stack, &mut self.states, &self.imp, &succs, item.set, item.trace);

            // Inputs.
            for (port, &(ri, rs)) in (0..).zip(&inputs) {
                for &v in &domain {
                    succs.clear();
                    let state = self.states.row(item.state);
                    self.imp.input_succs(&self.values, ri, state, v, &mut succs);
                    if succs.is_empty() {
                        continue;
                    }
                    stats.closures += 1;
                    let Some(closed) = self.after(item.set, Step::In(port, v), rs) else {
                        return closure_bound;
                    };
                    if self.sets.get(closed).is_empty() {
                        if cfg.well_typed_inputs {
                            // The spec cannot accept this value at all: a
                            // well-typed context never provides it.
                            continue;
                        }
                        return self.fails(item.trace, Step::In(port, v));
                    }
                    let trace = self.extend(item.trace, Step::In(port, v));
                    push(&mut stack, &mut self.states, &self.imp, &succs, closed, trace);
                }
            }

            // Outputs.
            for (port, &(ri, rs)) in (0..).zip(&outputs) {
                emitted.clear();
                let state = self.states.row(item.state);
                self.imp.output_succs(&mut self.values, ri, state, &mut emitted);
                for emission in emitted.chunks_exact(1 + width) {
                    let (v, row) = (emission[0], &emission[1..]);
                    stats.closures += 1;
                    let Some(closed) = self.after(item.set, Step::Out(port, v), rs) else {
                        return closure_bound;
                    };
                    if self.sets.get(closed).is_empty() {
                        return self.fails(item.trace, Step::Out(port, v));
                    }
                    let trace = self.extend(item.trace, Step::Out(port, v));
                    let state = self.states.insert(row).0;
                    stack.push(Item { state, set: closed, depth, trace });
                }
            }
        }

        match bound_hit {
            Some(hit) => Refinement::BoundReached(hit),
            None => Refinement::Holds,
        }
    }

    /// The interned spec states after `event` from some state of `set`,
    /// closed under spec internal steps (relation `r` performs the event);
    /// `None` when the closure exceeds the closure limit.
    fn after(&mut self, set: u32, event: Step, r: Rel) -> Option<u32> {
        if let Some(&closed) = self.after.get(&(set, event)) {
            return Some(closed);
        }
        let width = self.spec.width();
        self.stepped.clear();
        for t in self.sets.get(set).chunks_exact(width) {
            match event {
                Step::In(_, v) => self.spec.input_succs(&self.values, r, t, v, &mut self.stepped),
                Step::Out(_, v) => {
                    self.emitted.clear();
                    self.spec.output_succs(&mut self.values, r, t, &mut self.emitted);
                    for emission in self.emitted.chunks_exact(1 + width) {
                        if emission[0] == v {
                            self.stepped.extend_from_slice(&emission[1..]);
                        }
                    }
                }
            }
        }
        let closed = self.close()?;
        self.after.insert((set, event), closed);
        Some(closed)
    }

    /// The spec internal closure of the rows in `stepped`, interned. `None`
    /// when it grows past the closure limit: only states the closure adds
    /// count, so that is when it ends up larger than both the limit and
    /// its (deduplicated) start, whatever the visit order.
    fn close(&mut self) -> Option<u32> {
        let rows = &mut self.closure;
        rows.clear();
        for row in self.stepped.chunks_exact(rows.width) {
            rows.insert(row);
        }
        let mut next = 0;
        while (next as usize) < rows.len() {
            self.stepped.clear();
            self.spec.internal_succs(&mut self.values, rows.row(next), &mut self.stepped);
            for row in self.stepped.chunks_exact(rows.width) {
                if rows.insert(row).1 && rows.len() > self.cfg.closure_limit {
                    return None;
                }
            }
            next += 1;
        }
        self.order.clear();
        self.order.extend(0..next);
        self.order.sort_unstable_by(|&a, &b| rows.row(a).cmp(rows.row(b)));
        for &id in &self.order {
            self.sets.words.extend_from_slice(rows.row(id));
        }
        Some(self.sets.intern_tail())
    }

    /// A new trace node: `parent`'s events followed by `step`.
    fn extend(&mut self, parent: u32, step: Step) -> u32 {
        self.trace.push((parent, step));
        u32::try_from(self.trace.len() - 1).expect("fewer than 2^32 trace nodes")
    }

    /// The verdict for a path whose events `parent` end in the unmatched
    /// event `last`.
    fn fails(&self, parent: u32, last: Step) -> Refinement {
        let mut steps = vec![last];
        let mut node = parent;
        while node != NO_EVENTS {
            let (up, step) = self.trace[node as usize];
            steps.push(step);
            node = up;
        }
        let imp = self.imp.module();
        let port = |ports: &BTreeMap<PortName, Rel>, k: u32| {
            ports.keys().nth(k as usize).expect("port index in range").clone()
        };
        let trace = steps
            .into_iter()
            .rev()
            .map(|step| match step {
                Step::In(k, v) => Event::In(port(&imp.inputs, k), self.values.get(v).clone()),
                Step::Out(k, v) => Event::Out(port(&imp.outputs, k), self.values.get(v).clone()),
            })
            .collect();
        Refinement::Fails { trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::component_module;
    use crate::denote::{denote, Env};
    use graphiti_ir::{CompKind, ExprLow, Op};
    use std::collections::BTreeMap;

    fn buffer_chain(n: usize) -> Module {
        let bases: Vec<ExprLow> = (0..n)
            .map(|i| {
                ExprLow::base(format!("b{i}"), CompKind::Buffer { slots: 1, transparent: false })
            })
            .collect();
        let wires: Vec<_> = (0..n - 1)
            .map(|i| {
                (
                    PortName::local(format!("b{i}"), "out"),
                    PortName::local(format!("b{}", i + 1), "in"),
                )
            })
            .collect();
        let expr = ExprLow::product_of(bases).connect_all(wires);
        let mut in_map = BTreeMap::new();
        in_map.insert(PortName::local("b0", "in"), PortName::Io(0));
        let mut out_map = BTreeMap::new();
        out_map.insert(PortName::local(format!("b{}", n - 1), "out"), PortName::Io(0));
        denote(&expr, &Env::standard()).rename(&in_map, &out_map)
    }

    #[test]
    fn buffer_chains_refine_each_other() {
        // A two-buffer chain and a three-buffer chain have the same traces
        // (unbounded FIFO behaviour) up to the explored bound.
        let cfg = RefineConfig {
            domain: vec![Value::Int(0), Value::Int(1)],
            max_depth: 8,
            ..Default::default()
        };
        let two = buffer_chain(2);
        let three = buffer_chain(3);
        assert!(check_refinement(&three, &two, &cfg).is_ok());
        assert!(check_refinement(&two, &three, &cfg).is_ok());
    }

    /// The closure limit counts only the states a closure adds to its
    /// start: at limit 0, a spec without wires never has one to add, while
    /// a buffer chain's first input moves its token on at once.
    #[test]
    fn closure_limit_counts_only_the_states_a_closure_adds() {
        let cfg = RefineConfig {
            domain: vec![Value::Int(0), Value::Int(1)],
            closure_limit: 0,
            ..Default::default()
        };
        let (verdict, stats) =
            check_refinement_with_stats(&buffer_chain(2), &buffer_chain(1), &cfg);
        assert!(verdict.is_ok(), "{verdict:?}");
        assert!(
            !matches!(
                verdict,
                Refinement::BoundReached(BoundHit { kind: BoundKind::ClosureLimit, .. })
            ),
            "{verdict:?}"
        );
        assert!(stats.closures > 1 && stats.visited_states > 1, "{stats:?}");

        let (verdict, stats) =
            check_refinement_with_stats(&buffer_chain(1), &buffer_chain(2), &cfg);
        assert_eq!(
            verdict,
            Refinement::BoundReached(BoundHit { kind: BoundKind::ClosureLimit, at: 0 })
        );
        // The initial closure, then the first input's.
        assert_eq!((stats.closures, stats.visited_states), (2, 1));
    }

    #[test]
    fn buffer_does_not_refine_constant() {
        // A buffer emits what it received; a constant emits 9. The buffer's
        // trace in(0);out(0) is not a trace of the constant module.
        let buffer = {
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("", "in"), PortName::Io(0));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("", "out"), PortName::Io(0));
            component_module(&CompKind::Buffer { slots: 1, transparent: false })
                .rename(&in_map, &out_map)
        };
        let constant = {
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("", "ctrl"), PortName::Io(0));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("", "out"), PortName::Io(0));
            component_module(&CompKind::Constant { value: Value::Int(9) }).rename(&in_map, &out_map)
        };
        let cfg = RefineConfig::with_domain(vec![Value::Int(0)]);
        let io = PortName::Io(0);
        assert_eq!(
            check_refinement(&buffer, &constant, &cfg),
            Refinement::Fails {
                trace: vec![
                    Event::In(io.clone(), Value::Int(0)),
                    Event::Out(io.clone(), Value::Int(0))
                ]
            }
        );
        // The constant does not refine the buffer either (it emits 9 after
        // consuming 0).
        assert_eq!(
            check_refinement(&constant, &buffer, &cfg),
            Refinement::Fails {
                trace: vec![Event::In(io.clone(), Value::Int(0)), Event::Out(io, Value::Int(9))]
            }
        );
    }

    #[test]
    fn counterexample_trace_crosses_connect_steps() {
        // Three chained buffers against two buffers feeding a constant 9:
        // the chain's first output echoes an input, which the constant
        // never does. The counterexample is the first failing path of the
        // depth-first exploration, with the internal (connect) steps that
        // carried the tokens down the chain erased from the trace.
        let buffer = || CompKind::Buffer { slots: 1, transparent: false };
        let chain = |last: CompKind, last_in: &str| {
            let expr = ExprLow::product_of(vec![
                ExprLow::base("b0", buffer()),
                ExprLow::base("b1", buffer()),
                ExprLow::base("b2", last),
            ])
            .connect_all([
                (PortName::local("b0", "out"), PortName::local("b1", "in")),
                (PortName::local("b1", "out"), PortName::local("b2", last_in)),
            ]);
            denote(&expr, &Env::standard())
        };
        let three = chain(buffer(), "in");
        let to_constant = chain(CompKind::Constant { value: Value::Int(9) }, "ctrl");
        let cfg = RefineConfig::with_domain(vec![Value::Int(0), Value::Int(1)]);
        let feed = Event::In(PortName::local("b0", "in"), Value::Int(1));
        assert_eq!(
            check_refinement(&three, &to_constant, &cfg),
            Refinement::Fails {
                trace: vec![
                    feed.clone(),
                    feed.clone(),
                    feed,
                    Event::Out(PortName::local("b2", "out"), Value::Int(1)),
                ]
            }
        );
    }

    #[test]
    fn merge_refines_itself_but_not_buffer() {
        let mk_merge = || {
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("", "in0"), PortName::Io(0));
            in_map.insert(PortName::local("", "in1"), PortName::Io(1));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("", "out"), PortName::Io(0));
            component_module(&CompKind::Merge).rename(&in_map, &out_map)
        };
        let cfg = RefineConfig {
            domain: vec![Value::Int(0), Value::Int(1)],
            max_depth: 6,
            ..Default::default()
        };
        assert!(check_refinement(&mk_merge(), &mk_merge(), &cfg).is_ok());
    }

    #[test]
    fn port_mismatch_is_incomparable() {
        let a = buffer_chain(2);
        let mut b = buffer_chain(2);
        b.inputs.clear();
        assert!(matches!(
            check_refinement(&a, &b, &Default::default()),
            Refinement::Incomparable(_)
        ));
    }

    #[test]
    fn operator_refines_equivalent_pure() {
        // operator(add) ⊑ pure(op add ∘ join-encoding) — we build both as
        // two-input modules by prefixing a join in the pure version.
        let op_side = {
            let expr = ExprLow::base("a", CompKind::Operator { op: Op::AddI });
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("a", "in0"), PortName::Io(0));
            in_map.insert(PortName::local("a", "in1"), PortName::Io(1));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("a", "out"), PortName::Io(0));
            denote(&expr, &Env::standard()).rename(&in_map, &out_map)
        };
        let pure_side = {
            let expr = ExprLow::Product(
                Box::new(ExprLow::base("j", CompKind::Join)),
                Box::new(ExprLow::base(
                    "p",
                    CompKind::Pure { func: graphiti_ir::PureFn::Op(Op::AddI) },
                )),
            )
            .connect_all([(PortName::local("j", "out"), PortName::local("p", "in"))]);
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("j", "in0"), PortName::Io(0));
            in_map.insert(PortName::local("j", "in1"), PortName::Io(1));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("p", "out"), PortName::Io(0));
            denote(&expr, &Env::standard()).rename(&in_map, &out_map)
        };
        let cfg = RefineConfig {
            domain: vec![Value::Int(0), Value::Int(1)],
            max_depth: 8,
            ..Default::default()
        };
        assert!(check_refinement(&op_side, &pure_side, &cfg).is_ok());
        assert!(check_refinement(&pure_side, &op_side, &cfg).is_ok());
    }

    #[test]
    fn well_typedness_assumption_is_togglable() {
        // impl = buffer (accepts anything), spec = split;join (accepts only
        // pairs). Under the well-typed assumption the wire refines the
        // pair-plumbing; without it, feeding a non-pair is a counterexample.
        let wire = {
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("", "in"), PortName::Io(0));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("", "out"), PortName::Io(0));
            component_module(&CompKind::Buffer { slots: 1, transparent: true })
                .rename(&in_map, &out_map)
        };
        let split_join = {
            let expr = graphiti_ir::ExprLow::Product(
                Box::new(graphiti_ir::ExprLow::base("s", CompKind::Split)),
                Box::new(graphiti_ir::ExprLow::base("j", CompKind::Join)),
            )
            .connect_all([
                (PortName::local("s", "out0"), PortName::local("j", "in0")),
                (PortName::local("s", "out1"), PortName::local("j", "in1")),
            ]);
            let mut in_map = BTreeMap::new();
            in_map.insert(PortName::local("s", "in"), PortName::Io(0));
            let mut out_map = BTreeMap::new();
            out_map.insert(PortName::local("j", "out"), PortName::Io(0));
            crate::denote::denote(&expr, &crate::denote::Env::standard()).rename(&in_map, &out_map)
        };
        let mixed_domain = vec![Value::pair(Value::Int(0), Value::Int(1)), Value::Bool(true)];
        let typed = RefineConfig {
            domain: mixed_domain.clone(),
            max_depth: 6,
            well_typed_inputs: true,
            ..Default::default()
        };
        assert!(check_refinement(&wire, &split_join, &typed).is_ok());
        let untyped = RefineConfig { well_typed_inputs: false, ..typed };
        assert!(matches!(check_refinement(&wire, &split_join, &untyped), Refinement::Fails { .. }));
    }
}
