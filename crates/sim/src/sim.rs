//! The cycle-accurate elastic-circuit simulator (the ModelSim substitute).
//!
//! Model:
//!
//! * every wire is a one-slot transparent latch: a token written in cycle
//!   `c` can be consumed in cycle `c` (combinational forwarding), but a full
//!   latch back-pressures its producer;
//! * every component performs at most one transaction per port per cycle
//!   (initiation interval 1), so a token advances through an arbitrarily
//!   long combinational chain within one cycle, but a loop ring progresses
//!   one token per component per cycle;
//! * functional units with non-zero latency are fully pipelined; opaque
//!   Buffers register their tokens (one-cycle latency), transparent Buffers
//!   only add capacity;
//! * computation on tagged tokens is tag-transparent: operands must carry
//!   the same tag, the result re-attaches it;
//! * free-running Store ports commit to memory in arrival order (which is
//!   how the bicg bug of §6.2 manifests: an incorrectly reordered circuit
//!   produces wrong memory contents, not a simulator error), while arrays
//!   behind a store queue commit in program order, serialised by the
//!   queue's sequence stream.
//!
//! Within a cycle, components transact repeatedly until no one can fire;
//! per-cycle firing caps make this terminate. Idle stretches (waiting for a
//! deep FP pipeline) are fast-forwarded.
//!
//! Two cores implement that contract (selected by [`SimConfig::scheduler`],
//! see DESIGN.md §3.7):
//!
//! * [`Scheduler::Compiled`] (default) lowers the circuit once per run
//!   into a specialised simulator with a bit-packed dirty worklist (see
//!   `compile.rs`);
//! * [`Scheduler::ReferenceSweep`] is the sweep-until-fixpoint interpreter
//!   in this file, retained as the executable specification the compiled
//!   core is differentially tested against.
//!
//! Both observe through the same code: the stall walker, deadlock tests,
//! token counts, and per-cycle metrics in `stall.rs` and the waveform
//! recorder in `wave.rs` read either core's live state through one
//! `CircuitView` trait at the end of every active cycle, so every
//! observable is bit-identical across them.

use crate::memory::{mem_read, mem_write, MemError, Memory};
use crate::stall::{CircuitView, Observers, StallReport, UnitClass};
use graphiti_ir::{CompKind, ExprHigh, Op, PureFn, Tag, Value};
use graphiti_sem::{retag, TaggerState};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Which scheduling core drives the simulation. Both produce identical
/// results (cycles, outputs, memory, per-node firings, leftovers, and
/// every observation); the sweep exists as the executable specification
/// the compiled core is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Sweep-until-fixpoint interpreter: every node is examined every
    /// pass of every cycle.
    ReferenceSweep,
    /// Compiled core: each run lowers the circuit into a specialised
    /// simulator (monomorphic fire functions, bit-packed scheduler state,
    /// per-node wake marks precomputed from the channel adjacency), a
    /// [`CompiledCircuit`](crate::CompiledCircuit) that a caller may also
    /// hold and run many times. The observation flags arm the same
    /// observers the sweep uses (DESIGN.md §3.12).
    #[default]
    Compiled,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Abort after this many cycles.
    pub max_cycles: u64,
    /// Load port latency in cycles.
    pub load_latency: u64,
    /// Record per-cycle acceptance events for these components (empty: no
    /// tracing). Used to regenerate execution traces like the paper's
    /// Fig. 2d/2e. When `graphiti-obs` collection is enabled, the same
    /// list filters which components emit per-fire Chrome trace events
    /// (empty: all components).
    pub trace_nodes: Vec<String>,
    /// Scheduling core (compiled by default).
    pub scheduler: Scheduler,
    /// Capture every channel's valid/ready/tag handshake state per cycle
    /// and render it as a VCD document in [`SimResult::waveform`]. When
    /// [`trace_nodes`](SimConfig::trace_nodes) is non-empty, only
    /// channels touching a listed component are captured.
    pub waveform: bool,
    /// Classify every stalled/starved node-cycle by walking its
    /// blockage chain to the root cause and aggregate a
    /// [`StallReport`] in [`SimResult::stalls`].
    pub attribute_stalls: bool,
    /// Waveform sampling stride: capture the channel handshake state on
    /// every `N`-th active cycle (`0` and `1` both mean every cycle).
    /// Bounds log/VCD growth on long runs at the cost of skipping the
    /// cycles in between. Stall attribution stays cycle-exact at any
    /// stride. Both schedulers sample the same active-cycle indices, so
    /// dumps stay byte-identical across schedulers (see DESIGN.md §3.12).
    pub wave_sample: u64,
    /// Deadlock-detection window in cycles (`0`, the default, disables
    /// detection and preserves the historical behaviour of ending such
    /// runs as quiescence with leftover tokens). When set, a run that
    /// quiesces with a *stalled* node — all operands present, output
    /// permanently blocked, nothing pending that could ever drain it —
    /// returns [`SimError::Deadlock`] with the stuck wavefront; as a
    /// defensive cutoff, so does a run making no progress for this many
    /// consecutive cycles while tokens are in flight (pick a window
    /// larger than the deepest pipeline latency, which fast-forwards
    /// idle stretches anyway). Identical across both schedulers.
    pub deadlock_window: u64,
    /// Cooperative cancellation token, polled at cycle boundaries. When
    /// it trips, the run returns [`SimError::Cancelled`]. `None` (the
    /// default) costs nothing.
    pub cancel: Option<graphiti_obs::CancelToken>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 50_000_000,
            load_latency: 2,
            trace_nodes: Vec::new(),
            scheduler: Scheduler::default(),
            waveform: false,
            attribute_stalls: false,
            wave_sample: 1,
            deadlock_window: 0,
            cancel: None,
        }
    }
}

impl SimConfig {
    /// The effective waveform sampling stride (`wave_sample` with `0`
    /// normalised to `1`).
    pub fn wave_stride(&self) -> u64 {
        self.wave_sample.max(1)
    }
}

/// Pipeline latency of an operator, in cycles. Zero-latency operators are
/// combinational.
pub fn op_latency(op: Op) -> u64 {
    match op {
        Op::AddF | Op::SubF => 10,
        Op::MulF => 8,
        Op::DivF => 20,
        Op::GeF | Op::LtF => 2,
        Op::IToF => 3,
        Op::MulI => 1,
        Op::Mod | Op::DivI => 8,
        _ => 0,
    }
}

/// Worst-case latency of a symbolic pure function (used only when a Pure
/// component survives to simulation; the pipeline normally expands it back).
pub fn purefn_latency(f: &PureFn, load_latency: u64) -> u64 {
    match f {
        PureFn::Comp(a, b) => purefn_latency(a, load_latency) + purefn_latency(b, load_latency),
        PureFn::Par(a, b) => purefn_latency(a, load_latency).max(purefn_latency(b, load_latency)),
        PureFn::Op(op) => op_latency(*op),
        PureFn::Load(_) => load_latency,
        _ => 0,
    }
}

/// Errors raised during simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A memory access failed.
    Mem(MemError),
    /// An operator faulted (e.g. remainder by zero).
    Eval(String),
    /// The cycle bound was exceeded.
    Timeout(u64),
    /// The graph is not simulatable (validation failure).
    BadGraph(String),
    /// The circuit can never make progress again while tokens are still
    /// in flight (only raised when [`SimConfig::deadlock_window`] is
    /// set). Carries the stuck wavefront, identical across schedulers.
    Deadlock(Box<crate::stall::DeadlockReport>),
    /// The run was cut off by [`SimConfig::cancel`] tripping (deadline
    /// passed or supervisor cancelled).
    Cancelled,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(e) => write!(f, "memory error: {e}"),
            SimError::Eval(m) => write!(f, "evaluation fault: {m}"),
            SimError::Timeout(c) => write!(f, "simulation exceeded {c} cycles"),
            SimError::BadGraph(m) => write!(f, "graph not simulatable: {m}"),
            SimError::Deadlock(r) => write!(f, "{r}"),
            SimError::Cancelled => write!(f, "simulation cancelled (deadline or supervisor)"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total cycles until quiescence.
    pub cycles: u64,
    /// Tokens collected at each external output, in emission order.
    pub outputs: BTreeMap<String, Vec<Value>>,
    /// Final memory contents.
    pub memory: Memory,
    /// Total component firings (activity measure).
    pub firings: u64,
    /// Tokens still resident at quiescence (loop-priming tokens are
    /// expected leftovers).
    pub leftover_tokens: usize,
    /// Firings per component (utilization profile).
    pub firings_by_node: BTreeMap<String, u64>,
    /// Recorded trace events `(cycle, node, consumed values)` for the
    /// components listed in [`SimConfig::trace_nodes`].
    pub trace: Vec<TraceEvent>,
    /// The rendered VCD waveform (present iff [`SimConfig::waveform`]).
    pub waveform: Option<String>,
    /// Stall-cause attribution (present iff
    /// [`SimConfig::attribute_stalls`]).
    pub stalls: Option<StallReport>,
}

/// One recorded acceptance: a traced component consumed these input values
/// in this cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Cycle of the acceptance.
    pub cycle: u64,
    /// Component name.
    pub node: String,
    /// The values consumed (one per input port, in port order).
    pub values: Vec<Value>,
}

type ChanId = usize;

/// Narrows a node or channel count to the `u32` index space both cores
/// store in traces, stall paths, and bitsets. A graph too large for it is
/// a [`SimError::BadGraph`] — never a silent `as u32` truncation that
/// would alias two distinct indices. Once a count is validated, `as u32`
/// on any index below it is exact.
pub(crate) fn narrow(what: &str, i: usize) -> Result<u32, SimError> {
    u32::try_from(i).map_err(|_| {
        SimError::BadGraph(format!("{what} index {i} does not fit the simulator's u32 index space"))
    })
}

#[derive(Debug, Default)]
struct Channel {
    cap: usize,
    q: VecDeque<Value>,
}

impl Channel {
    fn front(&self) -> Option<&Value> {
        self.q.front()
    }

    fn has_space(&self) -> bool {
        self.q.len() < self.cap
    }
}

#[derive(Debug)]
enum Unit {
    Fork,
    Join,
    Split,
    Mux,
    Branch,
    Merge,
    Init {
        initial: bool,
        emitted: bool,
    },
    Sink,
    Constant(Value),
    Comb(Op),
    Piped {
        op: Op,
        lat: u64,
        pipe: VecDeque<(Value, u64)>,
    },
    Pure {
        func: PureFn,
        lat: u64,
        pipe: VecDeque<(Value, u64)>,
    },
    Buffer {
        slots: usize,
        transparent: bool,
        q: VecDeque<(Value, u64)>,
    },
    Tagger {
        state: TaggerState,
    },
    Load {
        mem: String,
        lat: u64,
        pipe: VecDeque<(Value, u64)>,
    },
    Store {
        mem: String,
    },
    Lsq {
        mem: String,
        /// Body-round accesses `(is_store, site)` in program order.
        body: Vec<(bool, u32)>,
        /// Epilogue-round accesses in program order.
        epi: Vec<(bool, u32)>,
        /// Store-site count (laddr/ldata ports start after the store ports).
        n_stores: u32,
        lat: u64,
        /// Pending-entry capacity (see [`lsq_pending_cap`]).
        cap: usize,
        /// Allocated accesses not yet committed/issued, oldest first.
        pending: VecDeque<(bool, u32)>,
        /// Issued loads in flight: `(site, value, ready)`.
        pipe: VecDeque<(u32, Value, u64)>,
        /// `sim.lsq.{allocs,commits,issues}` tallies, flushed at finish.
        stats: LsqStats,
    },
}

/// Store-queue activity tallies, reported as the `sim.lsq.*` counters.
/// Shared with the compiled backend so both finish paths flush the same
/// shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LsqStats {
    /// Sequence tokens consumed (allocation rounds opened).
    pub allocs: u64,
    /// Stores committed to memory in program order.
    pub commits: u64,
    /// Loads issued to memory after disambiguation.
    pub issues: u64,
}

impl LsqStats {
    pub(crate) fn flush(&self) {
        if self.allocs > 0 {
            graphiti_obs::counter("sim.lsq.allocs").add(self.allocs);
        }
        if self.commits > 0 {
            graphiti_obs::counter("sim.lsq.commits").add(self.commits);
        }
        if self.issues > 0 {
            graphiti_obs::counter("sim.lsq.issues").add(self.issues);
        }
    }
}

/// Pending-entry capacity of a store queue: enough for several full
/// allocation rounds so the sequence stream never throttles the loop.
/// Shared with the compiled backend so all schedulers agree.
pub(crate) fn lsq_pending_cap(body: &[bool], epi: &[bool]) -> usize {
    4 * (body.len() + epi.len()).max(1)
}

/// One planned access: `(is_store, site)`, sites numbered globally per
/// class (body first, then epilogue).
pub(crate) type LsqPlan = Vec<(bool, u32)>;

/// Splits a store queue's plans into `(is_store, site)` access lists with
/// globally numbered sites (body first, then epilogue, per class). Shared
/// with the compiled backend.
pub(crate) fn lsq_rounds(body: &[bool], epi: &[bool]) -> (LsqPlan, LsqPlan) {
    let (mut stores, mut loads) = (0u32, 0u32);
    let mut number = |plan: &[bool]| {
        plan.iter()
            .map(|&is_store| {
                let class = if is_store { &mut stores } else { &mut loads };
                let site = *class;
                *class += 1;
                (is_store, site)
            })
            .collect::<Vec<_>>()
    };
    let b = number(body);
    let e = number(epi);
    (b, e)
}

/// Mutable per-run state of the sweep.
struct RunState {
    /// Current cycle.
    now: u64,
    /// Total fires so far.
    firings: u64,
    /// Last cycle in which anything fired.
    last_active: u64,
    /// Fires per node, indexed by node id (folded into the
    /// `BTreeMap<String, u64>` API shape once at the end of the run).
    firings_by_node: Vec<u64>,
    /// Total node examinations (scheduler-efficiency metric).
    examined: u64,
    /// Node examinations in the current cycle.
    examined_cycle: u64,
}

#[derive(Debug)]
struct Node {
    name: String,
    unit: Unit,
    ins: Vec<ChanId>,
    outs: Vec<ChanId>,
    accepted: bool,
    emitted: bool,
}

/// A netlist instantiated for the reference sweep
/// ([`Scheduler::ReferenceSweep`]).
struct Sweep {
    nodes: Vec<Node>,
    chans: Vec<Channel>,
    input_chans: BTreeMap<String, ChanId>,
    output_chans: BTreeMap<String, ChanId>,
    memory: Memory,
    cfg: SimConfig,
    /// Raw trace events `(cycle, node index, consumed values)`; node names
    /// are resolved once at export instead of cloned per fire.
    trace: Vec<(u64, u32, Vec<Value>)>,
    /// Per node: does [`SimConfig::trace_nodes`] select it (precomputed so
    /// the fire path avoids a linear scan).
    traced: Vec<bool>,
    /// Per node: whether it fired in the current cycle.
    fired: Vec<bool>,
    /// Per channel: the node that reads it, if any (single-consumer).
    consumer_of: Vec<Option<u32>>,
    /// Per channel: the node that writes it, if any (single-producer).
    producer_of: Vec<Option<u32>>,
    /// Reusable operand buffer for multi-input fires (Comb/Piped), so the
    /// hot path performs no per-fire allocation after warm-up.
    scratch: Vec<Value>,
    /// The run's observers (metrics, attribution, waveform), armed when
    /// the run starts and absent when it asks for none.
    observe: Option<Box<Observers>>,
    /// Per channel: a human-readable name (`from.port-to.port`, `in.x`,
    /// `out.y`). Built only when waveforms, attribution, or deadlock
    /// reports need it.
    chan_names: Vec<String>,
}

/// The common tag across the front tokens of `ins`, by reference.
///
/// `None` means the transition is disabled: some input has no token, or the
/// operands mix tags (two different tags, or tagged alongside untagged) —
/// the same contract as [`graphiti_sem::untag_all`], without cloning any
/// payload.
fn fronts_tag(chans: &[Channel], ins: &[ChanId]) -> Option<Option<Tag>> {
    let mut tag: Option<Tag> = None;
    let mut any_untagged = false;
    for &c in ins {
        match chans[c].front()?.untag().0 {
            Some(t) => match tag {
                None => tag = Some(t),
                Some(t0) if t0 == t => {}
                Some(_) => return None,
            },
            None => any_untagged = true,
        }
    }
    if tag.is_some() && any_untagged {
        return None;
    }
    Some(tag)
}

/// Detaches a value's tag without cloning the payload.
fn take_tag(v: Value) -> (Option<Tag>, Value) {
    match v {
        Value::Tagged(t, inner) => (Some(t), *inner),
        v => (None, v),
    }
}

/// Inputs to [`Sweep::step_unit`] beyond the unit itself: the node's
/// per-cycle acceptance/emission caps, and whether consumed operand values
/// must be captured for the trace/observability layer.
#[derive(Clone, Copy)]
struct StepFlags {
    accepted: bool,
    emitted: bool,
    want_trace: bool,
}

/// What a [`Sweep::step_unit`] call produced: `(fired, accepted,
/// emitted, traced input values)`.
type StepOutcome = (bool, bool, bool, Option<Vec<Value>>);

impl Sweep {
    /// Builds the sweep for a circuit over the given memory.
    ///
    /// # Errors
    ///
    /// Fails if the graph is incomplete.
    fn new(g: &ExprHigh, memory: Memory, cfg: SimConfig) -> Result<Sweep, SimError> {
        g.validate().map_err(|e| SimError::BadGraph(e.to_string()))?;
        // Channel names feed the waveform signal list, the stall report,
        // and the deadlock wavefront; skipped entirely on plain runs.
        let want_names = cfg.waveform || cfg.attribute_stalls || cfg.deadlock_window > 0;
        let mut chan_names: Vec<String> = Vec::new();
        let mut chans: Vec<Channel> = Vec::new();
        let mut chan_of_out: BTreeMap<graphiti_ir::Endpoint, ChanId> = BTreeMap::new();
        let mut chan_of_in: BTreeMap<graphiti_ir::Endpoint, ChanId> = BTreeMap::new();
        for (from, to) in g.edges() {
            let id = chans.len();
            chans.push(Channel { cap: 1, q: VecDeque::new() });
            if want_names {
                chan_names.push(format!("{}.{}-{}.{}", from.node, from.port, to.node, to.port));
            }
            chan_of_out.insert(from.clone(), id);
            chan_of_in.insert(to.clone(), id);
        }
        let mut input_chans = BTreeMap::new();
        for (name, target) in g.inputs() {
            let id = chans.len();
            chans.push(Channel { cap: usize::MAX, q: VecDeque::new() });
            if want_names {
                chan_names.push(format!("in.{name}"));
            }
            chan_of_in.insert(target.clone(), id);
            input_chans.insert(name.clone(), id);
        }
        let mut output_chans = BTreeMap::new();
        for (name, source) in g.outputs() {
            let id = chans.len();
            chans.push(Channel { cap: usize::MAX, q: VecDeque::new() });
            if want_names {
                chan_names.push(format!("out.{name}"));
            }
            chan_of_out.insert(source.clone(), id);
            output_chans.insert(name.clone(), id);
        }
        let mut nodes = Vec::new();
        for (name, kind) in g.nodes() {
            let (ins_p, outs_p) = kind.interface();
            let ins = ins_p
                .iter()
                .map(|p| chan_of_in[&graphiti_ir::ep(name.clone(), p.clone())])
                .collect();
            let outs = outs_p
                .iter()
                .map(|p| chan_of_out[&graphiti_ir::ep(name.clone(), p.clone())])
                .collect();
            let unit = match kind {
                CompKind::Fork { .. } => Unit::Fork,
                CompKind::Join => Unit::Join,
                CompKind::Split => Unit::Split,
                CompKind::Mux => Unit::Mux,
                CompKind::Branch => Unit::Branch,
                CompKind::Merge => Unit::Merge,
                CompKind::Init { initial } => Unit::Init { initial: *initial, emitted: false },
                CompKind::Sink => Unit::Sink,
                CompKind::Constant { value } => Unit::Constant(value.clone()),
                CompKind::Operator { op } => {
                    let lat = op_latency(*op);
                    if lat == 0 {
                        Unit::Comb(*op)
                    } else {
                        Unit::Piped { op: *op, lat, pipe: VecDeque::new() }
                    }
                }
                CompKind::Pure { func } => Unit::Pure {
                    lat: purefn_latency(func, cfg.load_latency),
                    func: func.clone(),
                    pipe: VecDeque::new(),
                },
                CompKind::Buffer { slots, transparent } => Unit::Buffer {
                    slots: (*slots).max(1),
                    transparent: *transparent,
                    q: VecDeque::new(),
                },
                CompKind::TaggerUntagger { tags } => {
                    Unit::Tagger { state: TaggerState::new(*tags) }
                }
                CompKind::Load { mem } => {
                    Unit::Load { mem: mem.clone(), lat: cfg.load_latency, pipe: VecDeque::new() }
                }
                CompKind::Store { mem } => Unit::Store { mem: mem.clone() },
                CompKind::StoreQueue { mem, body_plan, epi_plan } => {
                    let (body, epi) = lsq_rounds(body_plan, epi_plan);
                    let (n_stores, _) = graphiti_ir::lsq_site_counts(body_plan, epi_plan);
                    Unit::Lsq {
                        mem: mem.clone(),
                        body,
                        epi,
                        n_stores: n_stores as u32,
                        lat: cfg.load_latency,
                        cap: lsq_pending_cap(body_plan, epi_plan),
                        pending: VecDeque::new(),
                        pipe: VecDeque::new(),
                        stats: LsqStats::default(),
                    }
                }
            };
            nodes.push(Node {
                name: name.clone(),
                unit,
                ins,
                outs,
                accepted: false,
                emitted: false,
            });
        }
        // Validate both counts once; every later `as u32` narrowing of an
        // in-range index is then exact.
        narrow("node", nodes.len())?;
        narrow("channel", chans.len())?;
        let mut consumer_of: Vec<Option<u32>> = vec![None; chans.len()];
        let mut producer_of: Vec<Option<u32>> = vec![None; chans.len()];
        for (i, n) in nodes.iter().enumerate() {
            for &c in &n.ins {
                consumer_of[c] = Some(i as u32);
            }
            for &c in &n.outs {
                producer_of[c] = Some(i as u32);
            }
        }
        let traced = nodes.iter().map(|n| cfg.trace_nodes.contains(&n.name)).collect();
        Ok(Sweep {
            fired: vec![false; nodes.len()],
            nodes,
            chans,
            input_chans,
            output_chans,
            memory,
            cfg,
            trace: Vec::new(),
            traced,
            consumer_of,
            producer_of,
            scratch: Vec::new(),
            observe: None,
            chan_names,
        })
    }

    /// Records an acceptance event if the node is traced.
    fn record(&mut self, i: usize, now: u64, values: Vec<Value>) {
        if self.traced[i] {
            self.trace.push((now, i as u32, values));
        }
    }

    fn push(&mut self, chan: ChanId, v: Value) {
        self.chans[chan].q.push_back(v);
    }

    fn pop(&mut self, chan: ChanId) -> Value {
        self.chans[chan].q.pop_front().expect("pop on checked channel")
    }

    /// Attempts all enabled transactions of node `i`; returns whether any
    /// fired.
    fn step(&mut self, i: usize, now: u64) -> Result<bool, SimError> {
        // Split borrows: temporarily take the unit and port lists out so
        // the transaction body can borrow channels and memory freely —
        // without cloning `ins`/`outs` on every candidate fire.
        let ins = std::mem::take(&mut self.nodes[i].ins);
        let outs = std::mem::take(&mut self.nodes[i].outs);
        let mut unit = std::mem::replace(&mut self.nodes[i].unit, Unit::Sink);
        let accepted = self.nodes[i].accepted;
        let emitted = self.nodes[i].emitted;
        // Consumed operand values are only materialised when someone will
        // look at them — the trace or the observability layer.
        let want_trace = self.traced[i] || self.observe.as_ref().is_some_and(|o| o.traces(i));
        let flags = StepFlags { accepted, emitted, want_trace };
        let res = self.step_unit(&mut unit, &ins, &outs, now, flags);
        let n = &mut self.nodes[i];
        n.unit = unit;
        n.ins = ins;
        n.outs = outs;
        let (fired, accepted, emitted, traced_values) = res?;
        let n = &mut self.nodes[i];
        n.accepted = accepted;
        n.emitted = emitted;
        if fired {
            if let Some(o) = &mut self.observe {
                o.note_fire(i, traced_values.as_deref());
            }
        }
        if let Some(values) = traced_values {
            self.record(i, now, values);
        }
        Ok(fired)
    }

    /// The transaction body of [`step`](Sweep::step): attempts every
    /// enabled sub-transaction of `unit`, returning `(fired, accepted,
    /// emitted, traced input values)`. Operand values are only cloned out
    /// when `want_trace` is set; otherwise every arm moves tokens without
    /// allocating.
    fn step_unit(
        &mut self,
        unit: &mut Unit,
        ins: &[ChanId],
        outs: &[ChanId],
        now: u64,
        flags: StepFlags,
    ) -> Result<StepOutcome, SimError> {
        let StepFlags { mut accepted, mut emitted, want_trace } = flags;
        let mut fired = false;

        macro_rules! space {
            ($k:expr) => {
                self.chans[outs[$k]].has_space()
            };
        }

        let mut traced_values: Option<Vec<Value>> = None;

        match unit {
            Unit::Fork => {
                if !accepted
                    && self.chans[ins[0]].front().is_some()
                    && (0..outs.len()).all(|k| space!(k))
                {
                    let v = self.pop(ins[0]);
                    for &out in &outs[1..] {
                        self.push(out, v.clone());
                    }
                    self.push(outs[0], v);
                    accepted = true;
                    fired = true;
                }
            }
            Unit::Join => {
                if !accepted && space!(0) {
                    if let Some(tag) = fronts_tag(&self.chans, ins) {
                        let (_, a) = take_tag(self.pop(ins[0]));
                        let (_, b) = take_tag(self.pop(ins[1]));
                        self.push(outs[0], retag(tag, Value::pair(a, b)));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Split => {
                if !accepted && space!(0) && space!(1) {
                    if let Some(v) = self.chans[ins[0]].front() {
                        if !matches!(v.untag().1, Value::Pair(..)) {
                            return Err(SimError::Eval(format!("split received non-pair {v}")));
                        }
                        let (tag, payload) = take_tag(self.pop(ins[0]));
                        let (a, b) = payload.into_pair().expect("checked pair");
                        self.push(outs[0], retag(tag, a));
                        self.push(outs[1], retag(tag, b));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Mux => {
                if !accepted {
                    if let Some(c) = self.chans[ins[0]].front() {
                        let b = c.untag().1.as_bool().ok_or_else(|| {
                            SimError::Eval(format!("mux condition not boolean: {c}"))
                        })?;
                        let data = if b { 1 } else { 2 };
                        if self.chans[ins[data]].front().is_some() && space!(0) {
                            self.pop(ins[0]);
                            let v = self.pop(ins[data]);
                            self.push(outs[0], v);
                            accepted = true;
                            fired = true;
                        }
                    }
                }
            }
            Unit::Branch => {
                if !accepted && self.chans[ins[1]].front().is_some() {
                    if let Some(c) = self.chans[ins[0]].front() {
                        let b = c.untag().1.as_bool().ok_or_else(|| {
                            SimError::Eval(format!("branch condition not boolean: {c}"))
                        })?;
                        let out = if b { 0 } else { 1 };
                        if space!(out) {
                            self.pop(ins[0]);
                            let v = self.pop(ins[1]);
                            self.push(outs[out], v);
                            accepted = true;
                            fired = true;
                        }
                    }
                }
            }
            Unit::Merge => {
                if !accepted && space!(0) {
                    // Prefer the second input: in generated loops it is the
                    // recirculating path, and draining it avoids clogging.
                    for k in [1usize, 0usize] {
                        if k < ins.len() && self.chans[ins[k]].front().is_some() {
                            let v = self.pop(ins[k]);
                            self.push(outs[0], v);
                            accepted = true;
                            fired = true;
                            break;
                        }
                    }
                }
            }
            Unit::Init { initial, emitted: init_done } => {
                if !accepted && space!(0) {
                    if !*init_done {
                        self.push(outs[0], Value::Bool(*initial));
                        *init_done = true;
                        accepted = true;
                        fired = true;
                    } else if self.chans[ins[0]].front().is_some() {
                        let v = self.pop(ins[0]);
                        self.push(outs[0], v);
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Sink => {
                if !accepted && self.chans[ins[0]].front().is_some() {
                    self.pop(ins[0]);
                    accepted = true;
                    fired = true;
                }
            }
            Unit::Constant(v) => {
                if !accepted && space!(0) {
                    if let Some(c) = self.chans[ins[0]].front() {
                        let tag = c.untag().0;
                        self.pop(ins[0]);
                        self.push(outs[0], retag(tag, v.clone()));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Comb(op) => {
                if !accepted && space!(0) {
                    if let Some(tag) = fronts_tag(&self.chans, ins) {
                        if want_trace {
                            traced_values = Some(
                                ins.iter()
                                    .map(|&c| self.chans[c].front().expect("checked front").clone())
                                    .collect(),
                            );
                        }
                        let mut payloads = std::mem::take(&mut self.scratch);
                        payloads.extend(ins.iter().map(|&c| take_tag(self.pop(c)).1));
                        let r = op.eval(&payloads).map_err(|e| SimError::Eval(e.to_string()))?;
                        payloads.clear();
                        self.scratch = payloads;
                        self.push(outs[0], retag(tag, r));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Piped { op, lat, pipe } => {
                if !emitted {
                    if let Some((_, ready)) = pipe.front() {
                        if *ready <= now && space!(0) {
                            let (v, _) = pipe.pop_front().expect("checked front");
                            self.push(outs[0], v);
                            emitted = true;
                            fired = true;
                        }
                    }
                }
                if !accepted && pipe.len() < (*lat as usize + 1) {
                    if let Some(tag) = fronts_tag(&self.chans, ins) {
                        if want_trace {
                            traced_values = Some(
                                ins.iter()
                                    .map(|&c| self.chans[c].front().expect("checked front").clone())
                                    .collect(),
                            );
                        }
                        let mut payloads = std::mem::take(&mut self.scratch);
                        payloads.extend(ins.iter().map(|&c| take_tag(self.pop(c)).1));
                        let r = op.eval(&payloads).map_err(|e| SimError::Eval(e.to_string()))?;
                        payloads.clear();
                        self.scratch = payloads;
                        pipe.push_back((retag(tag, r), now + *lat));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Pure { func, lat, pipe } => {
                if !emitted {
                    if let Some((_, ready)) = pipe.front() {
                        if *ready <= now && space!(0) {
                            let (v, _) = pipe.pop_front().expect("checked front");
                            self.push(outs[0], v);
                            emitted = true;
                            fired = true;
                        }
                    }
                }
                if !accepted && pipe.len() < (*lat as usize + 1) {
                    if let Some(v) = self.chans[ins[0]].front() {
                        let (tag, payload) = v.untag();
                        let mem = &self.memory;
                        let r = func
                            .eval_with_mem(payload, &|name, addr| {
                                mem_read(mem, name, &Value::Int(addr)).unwrap_or(Value::Int(0))
                            })
                            .map_err(|e| SimError::Eval(e.to_string()))?;
                        let r = retag(tag, r);
                        self.pop(ins[0]);
                        pipe.push_back((r, now + *lat));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Buffer { slots, transparent, q } => {
                if !emitted {
                    if let Some((_, ready)) = q.front() {
                        if *ready <= now && space!(0) {
                            let (v, _) = q.pop_front().expect("checked front");
                            self.push(outs[0], v);
                            emitted = true;
                            fired = true;
                        }
                    }
                }
                if !accepted && q.len() < *slots && self.chans[ins[0]].front().is_some() {
                    let v = self.pop(ins[0]);
                    let ready = if *transparent { now } else { now + 1 };
                    q.push_back((v, ready));
                    accepted = true;
                    fired = true;
                }
            }
            Unit::Tagger { state } => {
                // Four sub-transactions share the accepted/emitted flags
                // pairwise: (accept in | accept retag) and (emit tagged |
                // emit out) could each fire once per cycle; model them with
                // independent limits via small per-call loops.
                // Accept program-order input (bounded pending window).
                if !accepted && state.pending.len() < 2 && self.chans[ins[0]].front().is_some() {
                    let v = self.pop(ins[0]);
                    state.pending.push_back(v);
                    accepted = true;
                    fired = true;
                }
                // Accept a completion.
                if let Some(v) = self.chans[ins[1]].front() {
                    match v.untag().0 {
                        Some(tag) => {
                            if state.order.contains(&tag) && !state.done.contains_key(&tag) {
                                let (_, payload) = take_tag(self.pop(ins[1]));
                                state.done.insert(tag, payload);
                                fired = true;
                            }
                        }
                        None => return Err(SimError::Eval(format!("untagged completion {v}"))),
                    }
                }
                // Emit a freshly tagged token into the region.
                if !emitted && self.chans[outs[0]].has_space() {
                    if let (Some(&tag), true) =
                        (state.free.iter().next(), !state.pending.is_empty())
                    {
                        let v = state.pending.pop_front().expect("checked pending");
                        state.free.remove(&tag);
                        state.order.push_back(tag);
                        self.push(outs[0], Value::tagged(tag, v));
                        emitted = true;
                        fired = true;
                    }
                }
                // Release the oldest completed token in program order.
                if self.chans[outs[1]].has_space() {
                    if let Some(&tag) = state.order.front() {
                        if let Some(v) = state.done.remove(&tag) {
                            state.order.pop_front();
                            state.free.insert(tag);
                            self.push(outs[1], v);
                            fired = true;
                        }
                    }
                }
            }
            Unit::Load { mem, lat, pipe } => {
                if !emitted {
                    if let Some((_, ready)) = pipe.front() {
                        if *ready <= now && space!(0) {
                            let (v, _) = pipe.pop_front().expect("checked front");
                            self.push(outs[0], v);
                            emitted = true;
                            fired = true;
                        }
                    }
                }
                if !accepted && pipe.len() < (*lat as usize + 1) {
                    if let Some(addr) = self.chans[ins[0]].front() {
                        let tag = addr.untag().0;
                        let v = mem_read(&self.memory, mem, addr)?;
                        self.pop(ins[0]);
                        pipe.push_back((retag(tag, v), now + *lat));
                        accepted = true;
                        fired = true;
                    }
                }
            }
            Unit::Store { mem } => {
                if !accepted && space!(0) && fronts_tag(&self.chans, ins).is_some() {
                    let addr = self.pop(ins[0]);
                    let data = self.pop(ins[1]);
                    mem_write(&mut self.memory, mem, &addr, &data)?;
                    let tag = addr.untag().0;
                    self.push(outs[0], retag(tag, Value::Unit));
                    accepted = true;
                    fired = true;
                }
            }
            Unit::Lsq { mem, body, epi, n_stores, lat, cap, pending, pipe, stats } => {
                // Port layout: ins = [seq, (saddr, sdata) per store site,
                // laddr per load site]; outs = [sdone per store site, ldata
                // per load site].
                let ns = *n_stores as usize;
                // Emit one matured load result per cycle (mirrors Load).
                if !emitted {
                    if let Some((site, _, ready)) = pipe.front() {
                        let (site, ready) = (*site, *ready);
                        if ready <= now && space!(ns + site as usize) {
                            let (_, v, _) = pipe.pop_front().expect("checked front");
                            self.push(outs[ns + site as usize], v);
                            emitted = true;
                            fired = true;
                        }
                    }
                }
                // Allocate: one sequence token per cycle opens the next
                // body round; `false` (loop exit) also opens the epilogue
                // round. Program order is exactly the seq-token order.
                if !accepted {
                    if let Some(v) = self.chans[ins[0]].front() {
                        let more = v.untag().1.as_bool().ok_or_else(|| {
                            SimError::Eval(format!("lsq sequence token not boolean: {v}"))
                        })?;
                        let need = body.len() + if more { 0 } else { epi.len() };
                        if pending.len() + need <= *cap {
                            self.pop(ins[0]);
                            pending.extend(body.iter().copied());
                            if !more {
                                pending.extend(epi.iter().copied());
                            }
                            stats.allocs += 1;
                            accepted = true;
                            fired = true;
                        }
                    }
                }
                // Commit the head access if it is a store with both
                // operands present: stores leave the queue strictly in
                // program order.
                if let Some(&(true, site)) = pending.front() {
                    let k = site as usize;
                    let pair = [ins[1 + 2 * k], ins[2 + 2 * k]];
                    if space!(k) && fronts_tag(&self.chans, &pair).is_some() {
                        let addr = self.pop(pair[0]);
                        let data = self.pop(pair[1]);
                        mem_write(&mut self.memory, mem, &addr, &data)?;
                        let tag = addr.untag().0;
                        self.push(outs[k], retag(tag, Value::Unit));
                        pending.pop_front();
                        stats.commits += 1;
                        fired = true;
                    }
                }
                // Issue the oldest load whose address provably misses every
                // older store (memory disambiguation): each store ahead
                // must be the front of its own site — so its address token
                // is the one at the channel head — and differ from the
                // load's address. Issued loads leave the queue; stores
                // behind them can then commit without breaking the
                // load's program-order value (it already read memory).
                if pipe.len() < (*lat as usize + 1) {
                    'issue: for idx in 0..pending.len() {
                        let (is_store, site) = pending[idx];
                        if is_store {
                            continue;
                        }
                        // Only the oldest entry of a load site owns the
                        // site's front address token.
                        if (0..idx).any(|j| pending[j] == (false, site)) {
                            continue;
                        }
                        let k = site as usize;
                        let laddr = ins[1 + 2 * ns + k];
                        let Some(af) = self.chans[laddr].front() else { continue };
                        let la = af.untag().1.clone();
                        for j in 0..idx {
                            let (s, ssite) = pending[j];
                            if !s {
                                continue;
                            }
                            if (0..j).any(|j2| pending[j2] == (true, ssite)) {
                                continue 'issue;
                            }
                            match self.chans[ins[1 + 2 * ssite as usize]].front() {
                                Some(sa) if *sa.untag().1 != la => {}
                                _ => continue 'issue,
                            }
                        }
                        let addr = self.pop(laddr);
                        let tag = addr.untag().0;
                        let v = mem_read(&self.memory, mem, &addr)?;
                        pipe.push_back((site, retag(tag, v), now + *lat));
                        pending.remove(idx);
                        stats.issues += 1;
                        fired = true;
                        break;
                    }
                }
            }
        }

        Ok((fired, accepted, emitted, traced_values))
    }

    /// Earliest future completion among pipelines and buffers, if any.
    fn next_pending(&self, now: u64) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now {
                min = Some(min.map_or(t, |m: u64| m.min(t)));
            }
        };
        for n in &self.nodes {
            match &n.unit {
                Unit::Piped { pipe, .. } | Unit::Pure { pipe, .. } | Unit::Load { pipe, .. } => {
                    if let Some((_, t)) = pipe.front() {
                        consider(*t);
                    }
                }
                Unit::Buffer { q, .. } => {
                    if let Some((_, t)) = q.front() {
                        consider(*t);
                    }
                }
                Unit::Lsq { pipe, .. } => {
                    if let Some((_, _, t)) = pipe.front() {
                        consider(*t);
                    }
                }
                _ => {}
            }
        }
        min
    }

    /// Closes an active cycle: runs the shared observers (when armed),
    /// resets the fired flags, and advances the clock.
    fn end_active_cycle(&mut self, st: &mut RunState) {
        if let Some(mut o) = self.observe.take() {
            o.end_cycle(&*self, st.now, st.examined_cycle);
            self.observe = Some(o);
        }
        self.fired.fill(false);
        st.examined_cycle = 0;
        st.last_active = st.now;
        st.now += 1;
    }

    /// Runs to quiescence.
    ///
    /// # Errors
    ///
    /// Fails on memory faults, evaluation faults, or timeout.
    fn run(mut self, feeds: &BTreeMap<String, Vec<Value>>) -> Result<SimResult, SimError> {
        for (name, vals) in feeds {
            let chan = *self
                .input_chans
                .get(name)
                .ok_or_else(|| SimError::BadGraph(format!("no input named `{name}`")))?;
            for v in vals {
                self.chans[chan].q.push_back(v.clone());
            }
        }
        // Observers are armed once the inputs are fed; a run that asks for
        // none does none of this work.
        self.observe = Observers::arm(&self, &self.cfg);
        let mut st = RunState {
            now: 0,
            firings: 0,
            last_active: 0,
            firings_by_node: vec![0; self.nodes.len()],
            examined: 0,
            examined_cycle: 0,
        };
        graphiti_obs::flight::record("sim.start", || {
            format!(
                "{} nodes, {} channels, scheduler={:?}",
                self.nodes.len(),
                self.chans.len(),
                self.cfg.scheduler
            )
        });
        let run = self.run_sweep(&mut st);
        if let Err(e) = &run {
            graphiti_obs::flight::record("sim.error", || format!("cycle {}: {e}", st.now));
            run?;
        }
        Ok(self.finish(st))
    }

    /// The reference scheduler: sweeps all nodes in index order until a
    /// whole pass fires nothing, cycle by cycle. Kept as the executable
    /// specification for the compiled core.
    fn run_sweep(&mut self, st: &mut RunState) -> Result<(), SimError> {
        loop {
            for node in &mut self.nodes {
                node.accepted = false;
                node.emitted = false;
            }
            let mut any = false;
            loop {
                let mut progress = false;
                for i in 0..self.nodes.len() {
                    st.examined += 1;
                    st.examined_cycle += 1;
                    if self.step(i, st.now)? {
                        progress = true;
                        any = true;
                        st.firings += 1;
                        st.firings_by_node[i] += 1;
                        self.fired[i] = true;
                    }
                }
                if !progress {
                    break;
                }
            }
            if any {
                self.end_active_cycle(st);
            } else {
                st.examined_cycle = 0;
                match self.next_pending(st.now) {
                    Some(t) => st.now = t,
                    None => {
                        crate::stall::deadlock_at_quiescence(&*self, &self.cfg, st.now)?;
                        break;
                    }
                }
            }
            crate::stall::boundary_check(&*self, &self.cfg, st.now, st.last_active)?;
            if st.now > self.cfg.max_cycles {
                return Err(SimError::Timeout(self.cfg.max_cycles));
            }
        }
        Ok(())
    }

    /// Folds run state into the public [`SimResult`] shape: resolves node
    /// ids to names (trace events, per-node firings), drains the external
    /// output channels, and flushes scheduler metrics.
    fn finish(mut self, st: RunState) -> SimResult {
        let firings_by_node: BTreeMap<String, u64> = self
            .nodes
            .iter()
            .zip(&st.firings_by_node)
            .filter(|&(_, &c)| c > 0)
            .map(|(node, &c)| (node.name.clone(), c))
            .collect();
        let (waveform, stalls) = match self.observe.take() {
            Some(o) => {
                if o.collects() {
                    for node in &self.nodes {
                        if let Unit::Lsq { stats, .. } = &node.unit {
                            stats.flush();
                        }
                    }
                }
                o.finish(&self, st.last_active + 1, &st.firings_by_node, st.examined)
            }
            None => (None, None),
        };
        graphiti_obs::flight::record("sim.finish", || {
            format!("cycles={} firings={}", st.last_active + 1, st.firings)
        });
        let leftover = crate::stall::tokens_in_flight(&self);
        let output_chans = std::mem::take(&mut self.output_chans);
        let outputs = output_chans
            .into_iter()
            .map(|(name, c)| (name, Vec::from(std::mem::take(&mut self.chans[c].q))))
            .collect();
        let trace = std::mem::take(&mut self.trace)
            .into_iter()
            .map(|(cycle, i, values)| TraceEvent {
                cycle,
                node: self.nodes[i as usize].name.clone(),
                values,
            })
            .collect();
        SimResult {
            cycles: st.last_active + 1,
            outputs,
            memory: self.memory,
            firings: st.firings,
            leftover_tokens: leftover,
            firings_by_node,
            trace,
            waveform,
            stalls,
        }
    }
}

impl CircuitView for Sweep {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn chan_count(&self) -> usize {
        self.chans.len()
    }

    fn ins(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.nodes[i].ins.iter().copied()
    }

    fn outs(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.nodes[i].outs.iter().copied()
    }

    fn has_token(&self, c: usize) -> bool {
        self.chans[c].front().is_some()
    }

    fn has_space(&self, c: usize) -> bool {
        self.chans[c].has_space()
    }

    fn front_tag(&self, c: usize) -> Option<Tag> {
        self.chans[c].front().and_then(|v| v.untag().0)
    }

    fn producer(&self, c: usize) -> Option<usize> {
        self.producer_of[c].map(|j| j as usize)
    }

    fn consumer(&self, c: usize) -> Option<usize> {
        self.consumer_of[c].map(|j| j as usize)
    }

    fn class(&self, i: usize) -> UnitClass {
        match &self.nodes[i].unit {
            Unit::Sink => UnitClass::Sink,
            Unit::Load { .. } => UnitClass::Load,
            Unit::Store { .. } => UnitClass::Store,
            Unit::Buffer { slots, .. } => UnitClass::Buffer { slots: *slots },
            Unit::Piped { .. } | Unit::Pure { .. } => UnitClass::Pipe,
            Unit::Tagger { .. } => UnitClass::Tagger,
            Unit::Lsq { .. } => UnitClass::Lsq,
            _ => UnitClass::Plain,
        }
    }

    fn occupancy(&self, i: usize) -> usize {
        match &self.nodes[i].unit {
            Unit::Piped { pipe, .. } | Unit::Pure { pipe, .. } | Unit::Load { pipe, .. } => {
                pipe.len()
            }
            Unit::Buffer { q, .. } => q.len(),
            Unit::Tagger { state } => state.len(),
            Unit::Lsq { pipe, .. } => pipe.len(),
            _ => 0,
        }
    }

    fn fired(&self, i: usize) -> bool {
        self.fired[i]
    }

    fn node_name(&self, i: usize) -> &str {
        &self.nodes[i].name
    }

    fn chan_name(&self, c: usize) -> &str {
        &self.chan_names[c]
    }

    fn queued(&self, c: usize) -> usize {
        self.chans[c].q.len()
    }
}

/// Simulates circuit `g` to quiescence on the core
/// [`SimConfig::scheduler`] selects, feeding `feeds` to its inputs over
/// `memory`.
///
/// # Errors
///
/// Fails if the graph is incomplete, and on memory faults, evaluation
/// faults, timeout, deadlock (when `deadlock_window` is set) or
/// cancellation.
pub fn simulate(
    g: &ExprHigh,
    feeds: &BTreeMap<String, Vec<Value>>,
    memory: Memory,
    cfg: SimConfig,
) -> Result<SimResult, SimError> {
    match cfg.scheduler {
        Scheduler::Compiled => crate::CompiledCircuit::new(g, &cfg)?.run(feeds, memory, &cfg),
        Scheduler::ReferenceSweep => Sweep::new(g, memory, cfg)?.run(feeds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_ir::ep;

    fn feeds(name: &str, vals: Vec<Value>) -> BTreeMap<String, Vec<Value>> {
        [(name.to_string(), vals)].into_iter().collect()
    }

    #[test]
    fn combinational_chain_passes_in_one_cycle() {
        // x -> add(+1) -> add(+1) -> y, both combinational (AddI latency 0).
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("c", CompKind::Constant { value: Value::Int(1) }).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddI }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("c", "ctrl")).unwrap();
        g.connect(ep("c", "out"), ep("a", "in1")).unwrap();
        g.expose_output("y", ep("a", "out")).unwrap();
        let r = simulate(&g, &feeds("x", vec![Value::Int(4)]), Memory::new(), SimConfig::default())
            .unwrap();
        assert_eq!(r.outputs["y"], vec![Value::Int(5)]);
        assert_eq!(r.cycles, 1, "combinational flow completes in one cycle");
    }

    #[test]
    fn pipelined_unit_has_latency_and_full_throughput() {
        // Two fadds in sequence on a stream of 5 tokens: latency adds, but
        // II stays 1 so the makespan is latency + tokens - 1 + 1.
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddF }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("a", "in1")).unwrap();
        g.expose_output("y", ep("a", "out")).unwrap();
        let vals: Vec<Value> = (0..5).map(|i| Value::from_f64(i as f64)).collect();
        let r = simulate(&g, &feeds("x", vals), Memory::new(), SimConfig::default()).unwrap();
        assert_eq!(r.outputs["y"].len(), 5);
        assert_eq!(r.outputs["y"][2], Value::from_f64(4.0));
        // latency 10, 5 tokens at II=1: last emerges at cycle 10+4.
        assert_eq!(r.cycles, 15);
    }

    #[test]
    fn opaque_buffer_adds_a_cycle() {
        let mut g = ExprHigh::new();
        g.add_node("b", CompKind::Buffer { slots: 2, transparent: false }).unwrap();
        g.expose_input("x", ep("b", "in")).unwrap();
        g.expose_output("y", ep("b", "out")).unwrap();
        let r = simulate(&g, &feeds("x", vec![Value::Int(1)]), Memory::new(), SimConfig::default())
            .unwrap();
        assert_eq!(r.outputs["y"], vec![Value::Int(1)]);
        assert_eq!(r.cycles, 2);
    }

    #[test]
    fn memory_ports_load_and_store() {
        // y[i] = a[i] for one token i=1.
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("ld", CompKind::Load { mem: "a".into() }).unwrap();
        g.add_node("st", CompKind::Store { mem: "y".into() }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("i", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("ld", "addr")).unwrap();
        g.connect(ep("f", "out1"), ep("st", "addr")).unwrap();
        g.connect(ep("ld", "data"), ep("st", "data")).unwrap();
        g.connect(ep("st", "done"), ep("k", "in")).unwrap();
        let mem: Memory = [
            ("a".to_string(), vec![Value::Int(10), Value::Int(20)]),
            ("y".to_string(), vec![Value::Int(0), Value::Int(0)]),
        ]
        .into_iter()
        .collect();
        let r = simulate(&g, &feeds("i", vec![Value::Int(1)]), mem, SimConfig::default()).unwrap();
        assert_eq!(r.memory["y"], vec![Value::Int(0), Value::Int(20)]);
    }

    #[test]
    fn tagger_reorders_and_reuses_tags() {
        // in -> tagger.tagged -> buffer -> retag (identity region);
        // out releases in order. One token flows through.
        let mut g = ExprHigh::new();
        g.add_node("t", CompKind::TaggerUntagger { tags: 2 }).unwrap();
        g.add_node("b", CompKind::Buffer { slots: 4, transparent: true }).unwrap();
        g.expose_input("x", ep("t", "in")).unwrap();
        g.connect(ep("t", "tagged"), ep("b", "in")).unwrap();
        g.connect(ep("b", "out"), ep("t", "retag")).unwrap();
        g.expose_output("y", ep("t", "out")).unwrap();
        let r = simulate(
            &g,
            &feeds("x", vec![Value::Int(7), Value::Int(8), Value::Int(9)]),
            Memory::new(),
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.outputs["y"], vec![Value::Int(7), Value::Int(8), Value::Int(9)]);
        assert_eq!(r.leftover_tokens, 0);
    }

    #[test]
    fn branch_and_mux_steer_tokens() {
        // branch routes by condition; tokens alternate outputs.
        let mut g = ExprHigh::new();
        g.add_node("br", CompKind::Branch).unwrap();
        g.expose_input("c", ep("br", "cond")).unwrap();
        g.expose_input("d", ep("br", "in")).unwrap();
        g.expose_output("t", ep("br", "t")).unwrap();
        g.expose_output("f", ep("br", "f")).unwrap();
        let mut fs = feeds("c", vec![Value::Bool(true), Value::Bool(false)]);
        fs.insert("d".into(), vec![Value::Int(1), Value::Int(2)]);
        let r = simulate(&g, &fs, Memory::new(), SimConfig::default()).unwrap();
        assert_eq!(r.outputs["t"], vec![Value::Int(1)]);
        assert_eq!(r.outputs["f"], vec![Value::Int(2)]);
    }

    #[test]
    fn schedulers_agree_on_tagged_pipeline() {
        // Tagger + pipelined FU + buffer exercise every event source the
        // compiled worklist must cover: channel pushes/pops, per-cycle cap
        // resets, and pipeline maturities (including idle fast-forward).
        let mut g = ExprHigh::new();
        g.add_node("t", CompKind::TaggerUntagger { tags: 2 }).unwrap();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddF }).unwrap();
        g.add_node("b", CompKind::Buffer { slots: 4, transparent: false }).unwrap();
        g.expose_input("x", ep("t", "in")).unwrap();
        g.connect(ep("t", "tagged"), ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("a", "in1")).unwrap();
        g.connect(ep("a", "out"), ep("b", "in")).unwrap();
        g.connect(ep("b", "out"), ep("t", "retag")).unwrap();
        g.expose_output("y", ep("t", "out")).unwrap();
        let vals: Vec<Value> = (0..6).map(|i| Value::from_f64(i as f64)).collect();
        let run = |scheduler| {
            simulate(
                &g,
                &feeds("x", vals.clone()),
                Memory::new(),
                SimConfig { scheduler, ..Default::default() },
            )
            .unwrap()
        };
        let sw = run(Scheduler::ReferenceSweep);
        let co = run(Scheduler::Compiled);
        assert_eq!(sw.cycles, co.cycles);
        assert_eq!(sw.outputs, co.outputs);
        assert_eq!(sw.firings, co.firings);
        assert_eq!(sw.firings_by_node, co.firings_by_node);
        assert_eq!(sw.leftover_tokens, co.leftover_tokens);
    }

    #[test]
    fn compiled_scheduler_matches_on_memory_circuit() {
        // Load + Store + Mux/Branch/Merge exercise the memory ports, the
        // dynamic-region fallback, and idle fast-forward under Compiled.
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("ld", CompKind::Load { mem: "a".into() }).unwrap();
        g.add_node("st", CompKind::Store { mem: "y".into() }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("i", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("ld", "addr")).unwrap();
        g.connect(ep("f", "out1"), ep("st", "addr")).unwrap();
        g.connect(ep("ld", "data"), ep("st", "data")).unwrap();
        g.connect(ep("st", "done"), ep("k", "in")).unwrap();
        let mem: Memory = [
            ("a".to_string(), vec![Value::Int(10), Value::Int(20), Value::Int(30)]),
            ("y".to_string(), vec![Value::Int(0); 3]),
        ]
        .into_iter()
        .collect();
        let run = |scheduler| {
            simulate(
                &g,
                &feeds("i", vec![Value::Int(2), Value::Int(0), Value::Int(1)]),
                mem.clone(),
                SimConfig { scheduler, ..Default::default() },
            )
            .unwrap()
        };
        let sw = run(Scheduler::ReferenceSweep);
        let co = run(Scheduler::Compiled);
        assert_eq!(sw.cycles, co.cycles);
        assert_eq!(sw.memory, co.memory);
        assert_eq!(sw.firings_by_node, co.firings_by_node);
        assert_eq!(sw.leftover_tokens, co.leftover_tokens);
    }

    #[test]
    fn compiled_scheduler_observes_like_the_sweep() {
        let mut g = ExprHigh::new();
        g.add_node("b", CompKind::Buffer { slots: 1, transparent: true }).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddI }).unwrap();
        g.expose_input("x", ep("b", "in")).unwrap();
        g.expose_input("z", ep("a", "in1")).unwrap();
        g.connect(ep("b", "out"), ep("a", "in0")).unwrap();
        g.expose_output("y", ep("a", "out")).unwrap();
        let mut fs = feeds("x", vec![Value::Int(1), Value::Int(2)]);
        fs.insert("z".into(), vec![Value::Int(10), Value::Int(20)]);
        let run = |scheduler| {
            simulate(
                &g,
                &fs,
                Memory::new(),
                SimConfig {
                    scheduler,
                    waveform: true,
                    attribute_stalls: true,
                    trace_nodes: vec!["a".into()],
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let sw = run(Scheduler::ReferenceSweep);
        let co = run(Scheduler::Compiled);
        assert_eq!(sw.outputs, co.outputs);
        assert_eq!(sw.waveform, co.waveform, "VCD documents must be byte-identical");
        assert_eq!(sw.stalls, co.stalls, "stall reports must agree");
        assert_eq!(sw.trace, co.trace, "trace events must agree");
        let report = co.stalls.as_ref().unwrap();
        let attributed: u64 = report.cause_totals().values().sum();
        assert_eq!(attributed, report.stall_cycles + report.starved_cycles);
    }

    #[test]
    fn wave_sampling_matches_across_schedulers() {
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("a", CompKind::Operator { op: Op::AddF }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("a", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("a", "in1")).unwrap();
        g.expose_output("y", ep("a", "out")).unwrap();
        let vals: Vec<Value> = (0..8).map(|i| Value::from_f64(i as f64)).collect();
        let run = |scheduler, stride| {
            simulate(
                &g,
                &feeds("x", vals.clone()),
                Memory::new(),
                SimConfig { scheduler, waveform: true, wave_sample: stride, ..Default::default() },
            )
            .unwrap()
        };
        for stride in [1, 3, 7] {
            let sw = run(Scheduler::ReferenceSweep, stride);
            let co = run(Scheduler::Compiled, stride);
            assert_eq!(sw.waveform, co.waveform, "stride {stride}");
        }
        // A wider stride must not record more VCD bytes than stride 1.
        let full = run(Scheduler::Compiled, 1).waveform.unwrap();
        let sampled = run(Scheduler::Compiled, 7).waveform.unwrap();
        assert!(sampled.len() <= full.len());
    }

    #[test]
    fn compile_stats_count_the_lowered_circuit() {
        let mut g = ExprHigh::new();
        g.add_node("b", CompKind::Buffer { slots: 3, transparent: true }).unwrap();
        g.expose_input("x", ep("b", "in")).unwrap();
        g.expose_output("y", ep("b", "out")).unwrap();
        let stats = crate::CompiledCircuit::new(&g, &SimConfig::default()).unwrap().stats();
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.chans, 2, "one input queue, one output queue");
    }

    #[test]
    fn timeout_is_detected() {
        // A loop that never terminates: merge feeding itself through a
        // buffer, primed by one token.
        let mut g = ExprHigh::new();
        g.add_node("m", CompKind::Merge).unwrap();
        g.add_node("b", CompKind::Buffer { slots: 2, transparent: false }).unwrap();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("k", CompKind::Sink).unwrap();
        g.expose_input("x", ep("m", "in0")).unwrap();
        g.connect(ep("m", "out"), ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("b", "in")).unwrap();
        g.connect(ep("f", "out1"), ep("k", "in")).unwrap();
        g.connect(ep("b", "out"), ep("m", "in1")).unwrap();
        // The deadlock window is armed, yet a livelock keeps firing (the
        // clock never outruns `last_active` and quiescence never comes),
        // so the verdict stays Timeout — deadlock and timeout are
        // distinct diagnoses.
        let r = simulate(
            &g,
            &feeds("x", vec![Value::Int(1)]),
            Memory::new(),
            SimConfig { max_cycles: 1000, deadlock_window: 64, ..Default::default() },
        );
        assert_eq!(r.unwrap_err(), SimError::Timeout(1000));
    }
}
