//! Everything that reads a circuit's state without changing it: the
//! waiting predicate, stall-cause attribution, token counts, and the
//! per-cycle observability metrics.
//!
//! Both simulation cores run on the same `Netlist` and expose their live
//! state through `CircuitView` — the reference sweep its `Value`-shaped
//! channels, the compiled backend its bit-packed runtime. Each hands every
//! fire to `Observers` and runs it at the end of every active cycle, so
//! each observer below, the node trace included, has exactly one
//! implementation and the cores agree on what they observe by
//! construction.
//!
//! Stall attribution answers *why* a node lost a cycle. The metrics count
//! how many node-cycles were lost to back-pressure (`sim.stall_cycles`)
//! and missing operands (`sim.starved_cycles`), but a count cannot say
//! where the pressure came from. Attribution classifies every lost
//! node-cycle by walking the elastic handshake graph from the waiting node
//! to the root of its blockage (see DESIGN.md §3.8):
//!
//! * a **stalled** node (all operands present, no fire) is walked
//!   *downstream* along full channels until the walk reaches a Sink, a
//!   memory port, a full Buffer, or can go no further;
//! * a **starved** node (some operands present, some missing) is walked
//!   *upstream* along empty channels until it reaches a drained external
//!   input, a memory port, or a unit holding the missing token in a
//!   latency pipeline.
//!
//! Every waiting node-cycle receives exactly one cause and is booked as
//! stalled or starved by the same `waiting` predicate that drives the
//! `sim.stall_cycles` / `sim.starved_cycles` counters, so the report's
//! split equals the counters and the per-cause counters sum to their
//! total by construction — a property the test suite pins.

use crate::netlist::Netlist;
use crate::sim::{SimConfig, TraceEvent};
use crate::wave::WaveRecorder;
use graphiti_ir::{Tag, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Why a node lost a cycle. `BlockedBySink`, `BlockedByFullBuffer` and
/// `BlockedDownstream` end only downstream walks (stalled nodes);
/// `StarvedBySource`, `PipelineLatency` and `StarvedUpstream` end only
/// upstream walks (starved nodes). `MemoryDependency` and `LsqOrdering`
/// end walks in both directions, so a cause alone does not say whether
/// the node was stalled or starved — [`NodeWaitStats`] keeps that split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// The back-pressure chain ends at a Sink that has hit its per-cycle
    /// acceptance cap — the drain is the bottleneck.
    BlockedBySink,
    /// The chain ends at a Buffer whose slots are all occupied.
    BlockedByFullBuffer,
    /// The chain ends at a memory port (Load/Store) — an address or
    /// commit queue is the bottleneck, or the missing operand is a load
    /// still in flight.
    MemoryDependency,
    /// The chain ends at a store queue: the token is held back by
    /// program-order memory serialisation (an older store not yet
    /// committed, or a load awaiting disambiguation).
    LsqOrdering,
    /// The chain cannot be followed further (cyclic back-pressure around
    /// a loop ring, per-cycle firing caps, or tag exhaustion).
    BlockedDownstream,
    /// The starvation chain ends at a drained external input: there is
    /// simply no more work arriving.
    StarvedBySource,
    /// The missing operand is in flight inside a latency pipeline or an
    /// opaque buffer and will mature in a later cycle.
    PipelineLatency,
    /// The chain cannot be followed further upstream (the producer is
    /// itself blocked, or the chain is cyclic).
    StarvedUpstream,
}

/// All causes, in report order.
pub const STALL_CAUSES: [StallCause; 8] = [
    StallCause::BlockedBySink,
    StallCause::BlockedByFullBuffer,
    StallCause::MemoryDependency,
    StallCause::LsqOrdering,
    StallCause::BlockedDownstream,
    StallCause::StarvedBySource,
    StallCause::PipelineLatency,
    StallCause::StarvedUpstream,
];

impl StallCause {
    /// Stable kebab-case name (used in reports, JSON, and metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            StallCause::BlockedBySink => "blocked-by-sink",
            StallCause::BlockedByFullBuffer => "blocked-by-full-buffer",
            StallCause::MemoryDependency => "memory-dependency",
            StallCause::LsqOrdering => "lsq-ordering",
            StallCause::BlockedDownstream => "blocked-downstream",
            StallCause::StarvedBySource => "starved-by-source",
            StallCause::PipelineLatency => "pipeline-latency",
            StallCause::StarvedUpstream => "starved-upstream",
        }
    }

    /// Whether this cause can end a downstream (back-pressure) walk. The
    /// two memory causes also end upstream walks, so on circuits with
    /// memory ports summing causes by this predicate does not reproduce
    /// the stalled/starved split; [`StallReport`] carries that split.
    pub fn is_stall(self) -> bool {
        matches!(
            self,
            StallCause::BlockedBySink
                | StallCause::BlockedByFullBuffer
                | StallCause::MemoryDependency
                | StallCause::LsqOrdering
                | StallCause::BlockedDownstream
        )
    }

    fn index(self) -> usize {
        STALL_CAUSES.iter().position(|&c| c == self).expect("cause listed")
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Waiting statistics of one node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeWaitStats {
    /// Node-cycles lost to back-pressure (operands ready, no fire).
    pub stalled: u64,
    /// Node-cycles lost waiting on missing operands.
    pub starved: u64,
    /// Lost node-cycles per root cause. Sums to `stalled + starved`.
    pub causes: BTreeMap<StallCause, u64>,
}

/// One distinct blockage chain: the channel path from a waiting node to
/// the root of its blockage, with how many node-cycles it cost in total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallChain {
    /// Root cause at the end of the chain.
    pub cause: StallCause,
    /// Channel names from the waiting node towards the root.
    pub path: Vec<String>,
    /// Node-cycles attributed to this exact chain.
    pub lost_cycles: u64,
}

/// The aggregated attribution result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallReport {
    /// Total stalled node-cycles (equals `sim.stall_cycles`).
    pub stall_cycles: u64,
    /// Total starved node-cycles (equals `sim.starved_cycles`).
    pub starved_cycles: u64,
    /// Per-node waiting statistics (nodes that never waited are absent).
    pub by_node: BTreeMap<String, NodeWaitStats>,
    /// Channels ranked by the node-cycles lost along chains through
    /// them, descending.
    pub channels: Vec<(String, u64)>,
    /// Distinct blockage chains, ranked by lost node-cycles descending.
    pub chains: Vec<StallChain>,
    /// Chains dropped because the distinct-chain table overflowed.
    pub dropped_chains: u64,
}

impl StallReport {
    /// Total lost node-cycles per cause, summed over all nodes.
    pub fn cause_totals(&self) -> BTreeMap<StallCause, u64> {
        let mut totals = BTreeMap::new();
        for stats in self.by_node.values() {
            for (&cause, &n) in &stats.causes {
                *totals.entry(cause).or_insert(0) += n;
            }
        }
        totals
    }

    /// Renders the report as the human-readable `explain-stalls` text:
    /// totals, cause breakdown, the top-`k` chains, and the top-`k`
    /// critical channels.
    pub fn render(&self, k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.stall_cycles + self.starved_cycles;
        let _ = writeln!(
            out,
            "lost node-cycles: {total} ({} stalled, {} starved)",
            self.stall_cycles, self.starved_cycles
        );
        if total == 0 {
            return out;
        }
        out.push_str("causes:\n");
        let totals = self.cause_totals();
        let width = STALL_CAUSES.iter().map(|c| c.as_str().len()).max().unwrap_or(0);
        for cause in STALL_CAUSES {
            if let Some(&n) = totals.get(&cause) {
                let pct = n as f64 / total as f64 * 100.0;
                let _ = writeln!(out, "  {:<width$}  {n:>8}  {pct:>5.1}%", cause.as_str());
            }
        }
        let _ = writeln!(out, "top {k} stall chains:");
        for (i, ch) in self.chains.iter().take(k).enumerate() {
            let path =
                if ch.path.is_empty() { "(at node)".to_string() } else { ch.path.join(" -> ") };
            let _ = writeln!(
                out,
                "  {:>2}. {:>8} node-cycles  {:<width$}  via {path}",
                i + 1,
                ch.lost_cycles,
                ch.cause.as_str()
            );
        }
        if self.dropped_chains > 0 {
            let _ = writeln!(
                out,
                "  ({} node-cycles in chains beyond the {}-entry table)",
                self.dropped_chains, MAX_DISTINCT_CHAINS
            );
        }
        let _ = writeln!(out, "critical channels:");
        for (name, lost) in self.channels.iter().take(k) {
            let _ = writeln!(out, "  {lost:>8} node-cycles through {name}");
        }
        out
    }
}

/// The unit classes the stall walks tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitClass {
    /// Sink (back-pressure root: the drain is the bottleneck).
    Sink,
    /// Load port (memory dependency in both walk directions).
    Load,
    /// Store port (memory dependency downstream).
    Store,
    /// Buffer with this many slots (full: back-pressure root; non-empty:
    /// latency source).
    Buffer {
        /// Slot count (at least one).
        slots: usize,
    },
    /// Latency pipeline: an operator with non-zero latency, or a Pure
    /// unit (non-empty: latency source).
    Pipe,
    /// Tagger (non-empty: latency source).
    Tagger,
    /// Store queue (program-order memory serialisation in both walk
    /// directions).
    Lsq,
    /// Everything else (walked through).
    Plain,
}

/// Read-only access to a running circuit's state. The reference sweep and
/// the compiled backend's runtime each implement it, and every observer in
/// this module is written once against it. Both cores run on the same
/// [`Netlist`], so its node and channel indices, names and wiring mean
/// the same thing in either; the trait adds only the live state.
pub(crate) trait CircuitView {
    /// The circuit's layout.
    fn net(&self) -> &Netlist;
    /// Whether channel `c` holds a token.
    fn has_token(&self, c: usize) -> bool;
    /// Whether channel `c` can accept a token (external queues always
    /// can).
    fn has_space(&self, c: usize) -> bool;
    /// The tag of channel `c`'s front token (`None`: vacant or untagged).
    fn front_tag(&self, c: usize) -> Option<Tag>;
    /// Tokens held in node `i`'s internal queue (pipeline, buffer, tagger
    /// window; 0 for units without one).
    fn occupancy(&self, i: usize) -> usize;
    /// Whether node `i` fired in the cycle being observed.
    fn fired(&self, i: usize) -> bool;
    /// Tokens queued on channel `c` (0 or 1 on a one-slot latch).
    fn queued(&self, c: usize) -> usize;
}

/// How a node lost the cycle that just ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// All operands present, no fire: back-pressured by a full output.
    Stalled,
    /// Some operands present, some missing.
    Starved,
}

/// Whether node `i` lost the cycle being observed, and how. This single
/// predicate drives both the stall/starve counters and stall attribution.
fn waiting(v: &impl CircuitView, i: usize) -> Option<Waiting> {
    if v.fired(i) {
        return None;
    }
    let (mut ins, mut ready) = (0, 0);
    for c in v.net().ins(i) {
        ins += 1;
        ready += usize::from(v.has_token(c));
    }
    match ready {
        0 => None,
        r if r == ins => Some(Waiting::Stalled),
        _ => Some(Waiting::Starved),
    }
}

/// Follows the blockage chain of waiting node `start` to its root —
/// downstream along full channels for a stalled node, upstream along
/// empty channels for a starved one — filling `ss.path` with the channels
/// crossed.
fn walk(v: &impl CircuitView, start: usize, w: Waiting, ss: &mut StallState) -> StallCause {
    // Where a walk ends when it cannot be followed further: per-cycle
    // firing caps, a full internal pipeline, tag exhaustion, or cyclic
    // back-pressure downstream; a producer that is itself blocked, or a
    // cyclic chain, upstream.
    let stuck = match w {
        Waiting::Stalled => StallCause::BlockedDownstream,
        Waiting::Starved => StallCause::StarvedUpstream,
    };
    let net = v.net();
    ss.epoch += 1;
    ss.path.clear();
    ss.visited[start] = ss.epoch;
    let mut cur = start;
    loop {
        let next = match w {
            Waiting::Stalled => net.outs(cur).find(|&c| !v.has_space(c)),
            Waiting::Starved => net.ins(cur).find(|&c| !v.has_token(c)),
        };
        let Some(c) = next else { return stuck };
        ss.path.push(c as u32);
        let j = match w {
            Waiting::Stalled => net.consumer(c),
            Waiting::Starved => net.producer(c),
        };
        let Some(j) = j else {
            // Downstream: an external output never blocks, so this is
            // unreachable in practice. Upstream: a drained external input.
            return match w {
                Waiting::Stalled => stuck,
                Waiting::Starved => StallCause::StarvedBySource,
            };
        };
        let held = v.occupancy(j);
        let root = match (w, net.class(j)) {
            (Waiting::Stalled, UnitClass::Sink) => Some(StallCause::BlockedBySink),
            (Waiting::Stalled, UnitClass::Lsq) => Some(StallCause::LsqOrdering),
            (Waiting::Stalled, UnitClass::Store | UnitClass::Load) => {
                Some(StallCause::MemoryDependency)
            }
            (Waiting::Stalled, UnitClass::Buffer { slots }) if held >= slots => {
                Some(StallCause::BlockedByFullBuffer)
            }
            (Waiting::Starved, UnitClass::Lsq) if held > 0 => Some(StallCause::LsqOrdering),
            (Waiting::Starved, UnitClass::Load) if held > 0 => Some(StallCause::MemoryDependency),
            (Waiting::Starved, UnitClass::Pipe | UnitClass::Buffer { .. } | UnitClass::Tagger)
                if held > 0 =>
            {
                Some(StallCause::PipelineLatency)
            }
            _ => None,
        };
        if let Some(cause) = root {
            return cause;
        }
        if ss.visited[j] == ss.epoch {
            return stuck;
        }
        ss.visited[j] = ss.epoch;
        cur = j;
    }
}

/// One end-of-cycle attribution pass: classifies every waiting node-cycle
/// by walking its blockage chain (DESIGN.md §3.8).
fn attribute_cycle(v: &impl CircuitView, ss: &mut StallState) {
    for i in 0..v.net().node_count() {
        if let Some(w) = waiting(v, i) {
            let cause = walk(v, i, w, ss);
            ss.record(i, w, cause);
        }
    }
}

/// Tokens resident anywhere but the external outputs: channel latches,
/// external input queues, latency pipelines, buffers, and tagger windows.
/// At the end of a run this is the leftover count.
pub(crate) fn tokens_in_flight(v: &impl CircuitView) -> usize {
    let net = v.net();
    let chans: usize =
        (0..net.chan_count()).filter(|&c| net.consumer(c).is_some()).map(|c| v.queued(c)).sum();
    chans + (0..net.node_count()).map(|i| v.occupancy(i)).sum::<usize>()
}

/// Upper bound on distinct chains kept (beyond it, lost cycles are still
/// counted per cause/node/channel, only the exact path is dropped).
const MAX_DISTINCT_CHAINS: usize = 4096;

/// Mutable attribution state carried through a run (allocated only when
/// [`crate::SimConfig::attribute_stalls`] is set).
struct StallState {
    /// Per node × cause counts (indexed by [`StallCause::index`]).
    node_causes: Vec<[u64; STALL_CAUSES.len()]>,
    /// Per node stalled totals.
    node_stalled: Vec<u64>,
    /// Per node starved totals.
    node_starved: Vec<u64>,
    /// Per channel: node-cycles lost along chains through it.
    chan_lost: Vec<u64>,
    /// Distinct (cause, channel path) chains with lost node-cycles.
    chains: BTreeMap<(u8, Vec<u32>), u64>,
    /// Node-cycles whose chains overflowed the table.
    dropped_chains: u64,
    /// Epoch-marked visited set for the chain walks.
    visited: Vec<u64>,
    /// Current walk epoch.
    epoch: u64,
    /// Reusable path scratch buffer.
    path: Vec<u32>,
}

impl StallState {
    fn new(nodes: usize, chans: usize) -> StallState {
        StallState {
            node_causes: vec![[0; STALL_CAUSES.len()]; nodes],
            node_stalled: vec![0; nodes],
            node_starved: vec![0; nodes],
            chan_lost: vec![0; chans],
            chains: BTreeMap::new(),
            dropped_chains: 0,
            visited: vec![0; nodes],
            epoch: 0,
            path: Vec::new(),
        }
    }

    /// Records one attributed node-cycle: the waiting node, how it
    /// waited, its root cause, and the channel path walked to reach the
    /// root. The stalled/starved split follows the waiting state, not
    /// the cause (the memory causes root chains in both directions).
    fn record(&mut self, node: usize, w: Waiting, cause: StallCause) {
        self.node_causes[node][cause.index()] += 1;
        match w {
            Waiting::Stalled => self.node_stalled[node] += 1,
            Waiting::Starved => self.node_starved[node] += 1,
        }
        for &c in &self.path {
            self.chan_lost[c as usize] += 1;
        }
        let key = (cause.index() as u8, self.path.clone());
        if let Some(n) = self.chains.get_mut(&key) {
            *n += 1;
        } else if self.chains.len() < MAX_DISTINCT_CHAINS {
            self.chains.insert(key, 1);
        } else {
            self.dropped_chains += 1;
        }
    }

    /// Folds the state into the public report, resolving ids to the
    /// netlist's names.
    fn finish(self, net: &Netlist) -> StallReport {
        let mut by_node = BTreeMap::new();
        let (mut stall_cycles, mut starved_cycles) = (0u64, 0u64);
        for (i, causes) in self.node_causes.iter().enumerate() {
            stall_cycles += self.node_stalled[i];
            starved_cycles += self.node_starved[i];
            if self.node_stalled[i] + self.node_starved[i] == 0 {
                continue;
            }
            let cause_map = STALL_CAUSES
                .iter()
                .filter(|c| causes[c.index()] > 0)
                .map(|&c| (c, causes[c.index()]))
                .collect();
            by_node.insert(
                net.node_name(i).to_string(),
                NodeWaitStats {
                    stalled: self.node_stalled[i],
                    starved: self.node_starved[i],
                    causes: cause_map,
                },
            );
        }
        let mut channels: Vec<(String, u64)> = self
            .chan_lost
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(c, &n)| (net.chan_name(c).to_string(), n))
            .collect();
        channels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut chains: Vec<StallChain> = self
            .chains
            .into_iter()
            .map(|((cause, path), lost)| StallChain {
                cause: STALL_CAUSES[cause as usize],
                path: path.iter().map(|&c| net.chan_name(c as usize).to_string()).collect(),
                lost_cycles: lost,
            })
            .collect();
        chains.sort_by(|a, b| b.lost_cycles.cmp(&a.lost_cycles).then_with(|| a.path.cmp(&b.path)));
        StallReport {
            stall_cycles,
            starved_cycles,
            by_node,
            channels,
            chains,
            dropped_chains: self.dropped_chains,
        }
    }
}

/// Everything one run observes, shared by both cores: the metrics (when
/// `graphiti-obs` collection is enabled), stall attribution, waveform
/// capture, and the node trace. Each core hands it every fire while it
/// notes fires, and runs it at the end of every active cycle over the
/// core's live state. A run that asks for none of them builds none of it.
pub(crate) struct Observers {
    /// Metric handles, present iff collection is enabled.
    obs: Option<SimObs>,
    /// Attribution state, present iff [`SimConfig::attribute_stalls`].
    stall: Option<StallState>,
    /// Waveform recorder, present iff [`SimConfig::waveform`].
    wave: Option<WaveRecorder>,
    /// The per-fire record, present iff [`SimConfig::trace_nodes`] lists
    /// a node.
    trace: Option<NodeTrace>,
    /// Waveform sampling stride ([`SimConfig::wave_stride`]).
    stride: u64,
    /// Active cycles observed so far (the sampling phase; idle
    /// fast-forwarded cycles do not count).
    actives: u64,
}

impl Observers {
    /// Arms what `cfg` asks for over the circuit behind `v` — `None` when
    /// it asks for nothing. Call after the external inputs are fed.
    pub(crate) fn arm(v: &impl CircuitView, cfg: &SimConfig) -> Option<Box<Observers>> {
        let net = v.net();
        let obs = graphiti_obs::enabled().then(|| SimObs::new(v));
        let stall =
            cfg.attribute_stalls.then(|| StallState::new(net.node_count(), net.chan_count()));
        let wave = cfg.waveform.then(|| WaveRecorder::new(net, &cfg.trace_nodes));
        let trace = (!cfg.trace_nodes.is_empty()).then(|| NodeTrace {
            listed: net.listed(&cfg.trace_nodes),
            events: Vec::new(),
            emitted: graphiti_obs::enabled().then_some(0),
        });
        (obs.is_some() || stall.is_some() || wave.is_some() || trace.is_some()).then(|| {
            Box::new(Observers { obs, stall, wave, trace, stride: cfg.wave_stride(), actives: 0 })
        })
    }

    /// Whether metrics are collected (so the store-queue tallies are
    /// worth flushing).
    pub(crate) fn collects(&self) -> bool {
        self.obs.is_some()
    }

    /// Whether fires are worth noting: only the node trace records them.
    pub(crate) fn notes_fires(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether node `i`'s fires are recorded (so its consumed operand
    /// values are worth capturing).
    #[inline]
    pub(crate) fn traces(&self, i: usize) -> bool {
        self.trace.as_ref().is_some_and(|t| t.listed[i])
    }

    /// Notes one fire of node `i` in cycle `now`, with the operand values
    /// it consumed if the core captured them.
    pub(crate) fn note_fire(&mut self, i: usize, now: u64, values: Option<Vec<Value>>) {
        if let Some(t) = &mut self.trace {
            if t.listed[i] {
                t.events.push((now, i as u32, values.unwrap_or_default()));
            }
        }
    }

    /// Observes the post-fixpoint state of the active cycle `now`, in
    /// which the core examined `examined` nodes. Waveform capture honours
    /// the sampling stride; metrics and attribution stay per-cycle.
    pub(crate) fn end_cycle(&mut self, v: &impl CircuitView, now: u64, examined: u64) {
        if let Some(obs) = &mut self.obs {
            obs.end_cycle(v, now, examined);
        }
        if let Some(t) = &mut self.trace {
            t.emit_slices(v.net());
        }
        if let Some(ss) = &mut self.stall {
            attribute_cycle(v, ss);
        }
        if self.actives.is_multiple_of(self.stride) {
            if let Some(w) = &mut self.wave {
                w.sample(v, now);
            }
        }
        self.actives += 1;
    }

    /// Renders the waveform, the stall report and the node trace, and
    /// flushes the run totals (see [`SimObs::finish`]).
    pub(crate) fn finish(
        self,
        v: &impl CircuitView,
        cycles: u64,
        firings_by_node: &[u64],
        examined: u64,
    ) -> (Option<String>, Option<StallReport>, Vec<TraceEvent>) {
        let net = v.net();
        let waveform = self.wave.map(WaveRecorder::finish);
        let stalls = self.stall.map(|ss| ss.finish(net));
        if let Some(obs) = &self.obs {
            obs.finish(cycles, firings_by_node, examined, stalls.as_ref());
        }
        let trace = self.trace.map_or_else(Vec::new, |t| {
            let name = |i: u32| net.node_name(i as usize).to_string();
            t.events
                .into_iter()
                .map(|(cycle, i, values)| TraceEvent { cycle, node: name(i), values })
                .collect()
        });
        (waveform, stalls, trace)
    }
}

/// The simulator's one per-fire record: every fire of a listed node, in
/// firing order, with the operand values it consumed where the core
/// captured them. With collection on, each event is also a `PID_SIM`
/// trace slice (simulated-time track: 1 cycle = 1 µs, one lane per node).
struct NodeTrace {
    /// Per node: whether [`SimConfig::trace_nodes`] lists it.
    listed: Vec<bool>,
    /// `(cycle, node, consumed values)`, named at finish.
    events: Vec<(u64, u32, Vec<Value>)>,
    /// With collection on, how many events are already trace slices.
    emitted: Option<usize>,
}

impl NodeTrace {
    /// Emits the events recorded since the last call as trace slices, so
    /// a run cut off later still leaves the cycles it finished.
    fn emit_slices(&mut self, net: &Netlist) {
        let Some(from) = self.emitted.replace(self.events.len()) else { return };
        for (cycle, i, values) in &self.events[from..] {
            let args = match values.as_slice() {
                [] => Vec::new(),
                vs => {
                    let rendered: Vec<String> = vs.iter().map(Value::to_string).collect();
                    vec![("values".to_string(), rendered.join(", "))]
                }
            };
            let name = net.node_name(*i as usize);
            graphiti_obs::emit_complete(graphiti_obs::PID_SIM, *i, name, *cycle, 1, args);
        }
    }
}

/// Metric handles and per-run state of one instrumented run.
struct SimObs {
    /// Per node: `sim.buf_occupancy.{name}` for units with an internal
    /// queue (buffers, pipelines, memory ports, taggers, store queues).
    occupancy: Vec<Option<graphiti_obs::Histogram>>,
    /// Per node: `sim.stall_cycles.{name}`.
    stall_by_node: Vec<graphiti_obs::Counter>,
    /// `sim.stall_cycles`: node-cycles lost to back-pressure.
    stall_total: graphiti_obs::Counter,
    /// `sim.starved_cycles`: node-cycles waiting on missing operands.
    starved_total: graphiti_obs::Counter,
    /// `sim.token_latency_cycles`: source-to-sink latency distribution.
    latency: graphiti_obs::Histogram,
    /// `sim.sched.examined_per_cycle`: node examinations per active cycle.
    sched_examined: graphiti_obs::Histogram,
    /// Per node: `sim.fire.{name}` firing counters, flushed at finish.
    fire_by_node: Vec<graphiti_obs::Counter>,
    /// `sim.stall_cause.{cause}` counters indexed by [`StallCause::index`].
    stall_cause: Vec<graphiti_obs::Counter>,
    /// External input channels, then external output channels.
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    /// Tokens still waiting in the external input channels.
    in_remaining: usize,
    /// Tokens already counted at the external output channels.
    out_seen: usize,
    /// Consumption cycles of in-flight tokens, oldest first.
    consumed_at: VecDeque<u64>,
}

impl SimObs {
    /// Resolves every handle once for the circuit behind `v` — one
    /// registry pass per run instead of one name format and lock per
    /// metric event.
    fn new(v: &impl CircuitView) -> SimObs {
        let net = v.net();
        let nodes = 0..net.node_count();
        let occupancy = nodes
            .clone()
            .map(|i| {
                let queued =
                    !matches!(net.class(i), UnitClass::Sink | UnitClass::Store | UnitClass::Plain);
                queued.then(|| {
                    graphiti_obs::histogram(&format!("sim.buf_occupancy.{}", net.node_name(i)))
                })
            })
            .collect();
        let stall_by_node = nodes
            .clone()
            .map(|i| graphiti_obs::counter(&format!("sim.stall_cycles.{}", net.node_name(i))))
            .collect();
        let fire_by_node = nodes
            .map(|i| graphiti_obs::counter(&format!("sim.fire.{}", net.node_name(i))))
            .collect();
        let stall_cause = STALL_CAUSES
            .iter()
            .map(|c| graphiti_obs::counter(&format!("sim.stall_cause.{c}")))
            .collect();
        let chans = 0..net.chan_count();
        let inputs: Vec<usize> = chans.clone().filter(|&c| net.producer(c).is_none()).collect();
        let outputs: Vec<usize> = chans.filter(|&c| net.consumer(c).is_none()).collect();
        SimObs {
            occupancy,
            stall_by_node,
            stall_total: graphiti_obs::counter("sim.stall_cycles"),
            starved_total: graphiti_obs::counter("sim.starved_cycles"),
            latency: graphiti_obs::histogram("sim.token_latency_cycles"),
            sched_examined: graphiti_obs::histogram("sim.sched.examined_per_cycle"),
            fire_by_node,
            stall_cause,
            in_remaining: inputs.iter().map(|&c| v.queued(c)).sum(),
            out_seen: outputs.iter().map(|&c| v.queued(c)).sum(),
            inputs,
            outputs,
            consumed_at: VecDeque::new(),
        }
    }

    /// The metrics of an active cycle: the examination count, buffer
    /// occupancy, stall/starve counters, and source-to-sink token
    /// latencies.
    fn end_cycle(&mut self, v: &impl CircuitView, now: u64, examined: u64) {
        self.sched_examined.record(examined);
        for i in 0..v.net().node_count() {
            if let Some(h) = &self.occupancy[i] {
                h.record(v.occupancy(i) as u64);
            }
            match waiting(v, i) {
                Some(Waiting::Stalled) => {
                    self.stall_total.inc();
                    self.stall_by_node[i].inc();
                }
                Some(Waiting::Starved) => self.starved_total.inc(),
                None => {}
            }
        }
        // Source-to-sink latency: pair the k-th token drained from the
        // external inputs with the k-th token reaching an external output.
        let in_now: usize = self.inputs.iter().map(|&c| v.queued(c)).sum();
        for _ in in_now..self.in_remaining {
            self.consumed_at.push_back(now);
        }
        self.in_remaining = in_now;
        let out_now: usize = self.outputs.iter().map(|&c| v.queued(c)).sum();
        for _ in self.out_seen..out_now {
            if let Some(t) = self.consumed_at.pop_front() {
                self.latency.record(now - t);
            }
        }
        self.out_seen = out_now;
    }

    /// Flushes the run totals: firings, cycles, scheduler examinations,
    /// per-node fires, and the per-cause stall counters of the report (the
    /// stall/starve totals were counted cycle by cycle).
    fn finish(
        &self,
        cycles: u64,
        firings_by_node: &[u64],
        examined: u64,
        stalls: Option<&StallReport>,
    ) {
        let firings: u64 = firings_by_node.iter().sum();
        graphiti_obs::counter("sim.firings").add(firings);
        graphiti_obs::counter("sim.cycles").add(cycles);
        graphiti_obs::counter("sim.sched.examined").add(examined);
        for (i, &count) in firings_by_node.iter().enumerate() {
            if count > 0 {
                self.fire_by_node[i].add(count);
            }
        }
        if let Some(report) = stalls {
            for (cause, n) in report.cause_totals() {
                self.stall_cause[cause.index()].add(n);
            }
        }
    }
}
