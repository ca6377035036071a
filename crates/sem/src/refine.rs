//! Refinement checking.
//!
//! The paper proves refinements `m ⊑ m'` (Defs 4.1–4.5) in Lean. This crate
//! checks them *executably* on bounded domains:
//!
//! * [`check_refinement`] — trace inclusion over weak steps via an on-the-fly
//!   subset construction: every trace of the implementation (with internal
//!   steps erased) must be a trace of the specification. Refinement implies
//!   trace inclusion, and for the finite, queue-capped state spaces explored
//!   here the check is exhaustive up to the configured bounds.
//! * [`check_simulation`] — verifies a user-supplied candidate relation φ
//!   against the three simulation diagrams of §4.4 (internal steps *after*
//!   inputs, *before* outputs) on all reachable related pairs.
//!
//! Both return [`Refinement::BoundReached`] instead of a verdict when a
//! resource bound is hit — carrying a [`BoundHit`] that says which bound
//! and at what count — so a bounded pass is never confused with a proof.

use crate::intern::{FxHashMap, FxHashSet, Ids, Stepper, Values};
use crate::module::{Module, Rel};
use crate::state::State;
use graphiti_ir::{PortName, Value};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

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
    /// Maximum size of a specification internal-closure set.
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
    /// Spec internal closures computed.
    pub closures: u64,
    /// Paths cut off by the depth bound.
    pub depth_prunes: u64,
    /// Successor states discarded by the queue cap.
    pub queue_prunes: u64,
}

/// The internal closure of a set of states: everything reachable via
/// internal transitions. `None` when the closure exceeds `limit`.
fn closure(m: &Module, start: BTreeSet<State>, limit: usize) -> Option<BTreeSet<State>> {
    let mut all = start.clone();
    let mut frontier: Vec<State> = start.into_iter().collect();
    while let Some(s) = frontier.pop() {
        for s2 in m.internal_step(&s) {
            if all.insert(s2.clone()) {
                if all.len() > limit {
                    return None;
                }
                frontier.push(s2);
            }
        }
    }
    Some(all)
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
    /// The implementation state.
    state: Ids,
    /// The spec states that can have produced the same events, closed
    /// under spec internal steps (an id into [`Explorer::sets`]).
    set: u32,
    depth: usize,
    /// The events so far (a node of [`Explorer::trace`]).
    trace: u32,
}

/// The trace node of the empty trace.
const NO_EVENTS: u32 = u32::MAX;

/// An event in the trace arena: the port's index in name order and the
/// value's id.
#[derive(Clone, Copy)]
enum Step {
    In(usize, u32),
    Out(usize, u32),
}

/// One refinement check's exploration over interned states.
///
/// The implementation is explored depth-first over (state, spec-state set)
/// pairs — the on-the-fly subset construction — with the visited check at
/// pop time. Both modules step through their own memoised [`Stepper`];
/// spec-state sets are interned (sorted and flattened, one id per distinct
/// set), and the events of a path live in a parent-pointer arena rather
/// than in a trace per stack item. Everything is dropped when the check
/// returns.
struct Explorer<'m> {
    imp: Stepper<'m>,
    spec: Stepper<'m>,
    cfg: &'m RefineConfig,
    values: Values,
    /// Spec-state sets by id: each the sorted concatenation of its states.
    sets: Vec<Rc<[u32]>>,
    set_ids: FxHashMap<Rc<[u32]>, u32>,
    /// Trace nodes: parent node and the event appended to it.
    trace: Vec<(u32, Step)>,
}

impl<'m> Explorer<'m> {
    fn new(imp: &'m Module, spec: &'m Module, cfg: &'m RefineConfig) -> Explorer<'m> {
        Explorer {
            imp: Stepper::new(imp),
            spec: Stepper::new(spec),
            cfg,
            values: Values::default(),
            sets: Vec::new(),
            set_ids: FxHashMap::default(),
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
        let spec_init: Vec<Ids> = spec.init().iter().map(|s| self.spec.intern_state(s)).collect();
        let Some(spec_init) = self.closure(spec_init) else {
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
        let mut visited: FxHashSet<(Ids, u32)> = FxHashSet::default();
        // Depth-first exploration: counterexamples (when they exist) usually sit
        // deep along one path, and DFS reaches them without materializing every
        // shallower state first. Completeness up to the bounds is unchanged.
        let mut stack: Vec<Item> = Vec::new();
        for i0 in imp.init() {
            let state = self.imp.intern_state(i0);
            stack.push(Item { state, set: spec_init, depth: 0, trace: NO_EVENTS });
        }
        let mut succs: Vec<Ids> = Vec::new();
        let mut emitted: Vec<(u32, Ids)> = Vec::new();

        while let Some(item) = stack.pop() {
            stats.frontier_peak = stats.frontier_peak.max(stack.len() as u64 + 1);
            if !visited.insert((item.state.clone(), item.set)) {
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
            let mut push = |stack: &mut Vec<Item>, imp: &Stepper, state: Ids, set, trace| {
                let q = imp.max_queue_len(&state);
                if q > cfg.queue_cap {
                    stats.queue_prunes += 1;
                    note_bound(&mut bound_hit, BoundKind::QueueCap, q as u64);
                } else {
                    stack.push(Item { state, set, depth, trace });
                }
            };

            // Implementation internal steps: the spec set is already closed.
            self.imp.internal_succs(&mut self.values, &item.state, &mut succs);
            for s2 in succs.drain(..) {
                push(&mut stack, &self.imp, s2, item.set, item.trace);
            }

            // Inputs.
            for (port, &(ri, rs)) in inputs.iter().enumerate() {
                for &v in &domain {
                    self.imp.input_succs(&self.values, ri, &item.state, v, &mut succs);
                    if succs.is_empty() {
                        continue;
                    }
                    let stepped = self.spec_after_input(item.set, rs, v);
                    stats.closures += 1;
                    let Some(closed) = self.closure(stepped) else {
                        return closure_bound;
                    };
                    if self.sets[closed as usize].is_empty() {
                        succs.clear();
                        if cfg.well_typed_inputs {
                            // The spec cannot accept this value at all: a
                            // well-typed context never provides it.
                            continue;
                        }
                        return self.fails(item.trace, Step::In(port, v));
                    }
                    let trace = self.extend(item.trace, Step::In(port, v));
                    for s2 in succs.drain(..) {
                        push(&mut stack, &self.imp, s2, closed, trace);
                    }
                }
            }

            // Outputs.
            for (port, &(ri, rs)) in outputs.iter().enumerate() {
                self.imp.output_succs(&mut self.values, ri, &item.state, &mut emitted);
                for (v, s2) in emitted.drain(..) {
                    let stepped = self.spec_after_output(item.set, rs, v);
                    stats.closures += 1;
                    let Some(closed) = self.closure(stepped) else {
                        return closure_bound;
                    };
                    if self.sets[closed as usize].is_empty() {
                        return self.fails(item.trace, Step::Out(port, v));
                    }
                    let trace = self.extend(item.trace, Step::Out(port, v));
                    stack.push(Item { state: s2, set: closed, depth, trace });
                }
            }
        }

        match bound_hit {
            Some(hit) => Refinement::BoundReached(hit),
            None => Refinement::Holds,
        }
    }

    /// The spec states after consuming `v` at input `r` from some state of
    /// set `set`.
    fn spec_after_input(&mut self, set: u32, r: Rel, v: u32) -> Vec<Ids> {
        let set = Rc::clone(&self.sets[set as usize]);
        let mut out = Vec::new();
        for t in set.chunks_exact(self.spec.module().slot_count()) {
            self.spec.input_succs(&self.values, r, t, v, &mut out);
        }
        out
    }

    /// The spec states after emitting `v` at output `r` from some state of
    /// set `set`.
    fn spec_after_output(&mut self, set: u32, r: Rel, v: u32) -> Vec<Ids> {
        let set = Rc::clone(&self.sets[set as usize]);
        let mut emitted = Vec::new();
        for t in set.chunks_exact(self.spec.module().slot_count()) {
            self.spec.output_succs(&mut self.values, r, t, &mut emitted);
        }
        emitted.into_iter().filter(|(v2, _)| *v2 == v).map(|(_, t)| t).collect()
    }

    /// The spec internal closure of `start`, interned. `None` when it
    /// exceeds the closure limit. Only states the closure adds count
    /// towards the limit, as in [`closure`].
    fn closure(&mut self, start: Vec<Ids>) -> Option<u32> {
        let mut all: FxHashSet<Ids> = FxHashSet::default();
        let mut frontier: Vec<Ids> = Vec::new();
        for s in start {
            if all.insert(s.clone()) {
                frontier.push(s);
            }
        }
        let mut succs = Vec::new();
        while let Some(s) = frontier.pop() {
            self.spec.internal_succs(&mut self.values, &s, &mut succs);
            for s2 in succs.drain(..) {
                if !all.contains(&s2) {
                    all.insert(s2.clone());
                    if all.len() > self.cfg.closure_limit {
                        return None;
                    }
                    frontier.push(s2);
                }
            }
        }
        let mut states: Vec<Ids> = all.into_iter().collect();
        states.sort_unstable();
        let flat: Vec<u32> = states.concat();
        if let Some(&id) = self.set_ids.get(&flat[..]) {
            return Some(id);
        }
        let flat: Rc<[u32]> = flat.into();
        let id = u32::try_from(self.sets.len()).expect("fewer than 2^32 spec-state sets");
        self.sets.push(Rc::clone(&flat));
        self.set_ids.insert(flat, id);
        Some(id)
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
        let port = |ports: &BTreeMap<PortName, Rel>, k: usize| {
            ports.keys().nth(k).expect("port index in range").clone()
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

/// Verifies a candidate simulation relation φ against the diagrams of §4.4:
/// inputs may be followed by spec internal steps, outputs preceded by them,
/// and internal steps matched by internal steps, on every reachable related
/// pair (Defs 4.1–4.4 plus the initial-state condition).
pub fn check_simulation(
    imp: &Module,
    spec: &Module,
    phi: &dyn Fn(&State, &State) -> bool,
    cfg: &RefineConfig,
) -> Refinement {
    let mut queue: VecDeque<(State, State, usize, Vec<Event>)> = VecDeque::new();
    for i0 in imp.init() {
        let mut matched = false;
        for s0 in spec.init() {
            if phi(i0, s0) {
                matched = true;
                queue.push_back((i0.clone(), s0.clone(), 0, Vec::new()));
            }
        }
        if !matched {
            return Refinement::Fails { trace: vec![] };
        }
    }

    let mut bound_hit: Option<BoundHit> = None;
    let note_bound = |slot: &mut Option<BoundHit>, kind: BoundKind, at: u64| {
        slot.get_or_insert(BoundHit { kind, at });
    };
    let closure_bound = Refinement::BoundReached(BoundHit {
        kind: BoundKind::ClosureLimit,
        at: cfg.closure_limit as u64,
    });
    let mut visited: HashSet<(State, State)> = HashSet::new();

    while let Some((i, s, depth, trace)) = queue.pop_front() {
        if !visited.insert((i.clone(), s.clone())) {
            continue;
        }
        if visited.len() > cfg.max_states {
            return Refinement::BoundReached(BoundHit {
                kind: BoundKind::States,
                at: visited.len() as u64,
            });
        }
        if depth >= cfg.max_depth {
            note_bound(&mut bound_hit, BoundKind::Depth, depth as u64);
            continue;
        }
        let spec_closure = match closure(spec, [s.clone()].into_iter().collect(), cfg.closure_limit)
        {
            Some(c) => c,
            None => return closure_bound,
        };

        // Internal diagram.
        for i2 in imp.internal_step(&i) {
            if i2.max_queue_len() > cfg.queue_cap {
                note_bound(&mut bound_hit, BoundKind::QueueCap, i2.max_queue_len() as u64);
                continue;
            }
            let matches: Vec<&State> = spec_closure.iter().filter(|s2| phi(&i2, s2)).collect();
            if matches.is_empty() {
                return Refinement::Fails { trace };
            }
            for s2 in matches {
                queue.push_back((i2.clone(), s2.clone(), depth + 1, trace.clone()));
            }
        }

        // Input diagram: spec does the input, then internal steps.
        for p in imp.input_ports() {
            if !spec.inputs.contains_key(&p) {
                return Refinement::Incomparable(format!("spec lacks input port {p}"));
            }
            for v in &cfg.domain {
                for i2 in imp.input_step(&p, &i, v) {
                    if i2.max_queue_len() > cfg.queue_cap {
                        note_bound(&mut bound_hit, BoundKind::QueueCap, i2.max_queue_len() as u64);
                        continue;
                    }
                    let after_in = spec.input_step(&p, &s, v).into_iter().collect();
                    let closed = match closure(spec, after_in, cfg.closure_limit) {
                        Some(c) => c,
                        None => return closure_bound,
                    };
                    let mut trace2 = trace.clone();
                    trace2.push(Event::In(p.clone(), v.clone()));
                    if closed.is_empty() && cfg.well_typed_inputs {
                        continue;
                    }
                    let matches: Vec<&State> = closed.iter().filter(|s2| phi(&i2, s2)).collect();
                    if matches.is_empty() {
                        return Refinement::Fails { trace: trace2 };
                    }
                    for s2 in matches {
                        queue.push_back((i2.clone(), s2.clone(), depth + 1, trace2.clone()));
                    }
                }
            }
        }

        // Output diagram: spec does internal steps, then the output.
        for p in imp.output_ports() {
            if !spec.outputs.contains_key(&p) {
                return Refinement::Incomparable(format!("spec lacks output port {p}"));
            }
            for (v, i2) in imp.output_step(&p, &i) {
                let candidates: BTreeSet<State> = spec_closure
                    .iter()
                    .flat_map(|t| spec.output_step(&p, t))
                    .filter_map(|(v2, t2)| if v2 == v { Some(t2) } else { None })
                    .collect();
                let mut trace2 = trace.clone();
                trace2.push(Event::Out(p.clone(), v.clone()));
                let matches: Vec<&State> = candidates.iter().filter(|s2| phi(&i2, s2)).collect();
                if matches.is_empty() {
                    return Refinement::Fails { trace: trace2 };
                }
                for s2 in matches {
                    queue.push_back((i2.clone(), s2.clone(), depth + 1, trace2.clone()));
                }
            }
        }
    }

    match bound_hit {
        Some(hit) => Refinement::BoundReached(hit),
        None => Refinement::Holds,
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
    fn simulation_identity_relation_on_equal_modules() {
        let m1 = buffer_chain(2);
        let m2 = buffer_chain(2);
        let cfg = RefineConfig { domain: vec![Value::Int(0)], max_depth: 6, ..Default::default() };
        let r = check_simulation(&m1, &m2, &|a, b| a == b, &cfg);
        assert!(r.is_ok(), "{r:?}");
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

    #[test]
    fn simulation_rejects_unrelatable_modules() {
        // impl = buffer (echoes its input), spec = constant 9: no relation
        // can make the output diagram commute when the buffer emits 0, and
        // in particular the total relation fails.
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
        let cfg = RefineConfig { domain: vec![Value::Int(0)], max_depth: 4, ..Default::default() };
        let r = check_simulation(&buffer, &constant, &|_, _| true, &cfg);
        assert!(matches!(r, Refinement::Fails { .. }), "{r:?}");
    }
}
