//! The compiled simulation backend ([`Scheduler::Compiled`]).
//!
//! Instead of interpreting the dataflow graph node-by-node, a compile pass
//! lowers the circuit into a specialised simulator once and caches the
//! artifact per circuit content-hash:
//!
//! * every node kind is monomorphised into a direct-dispatch fire function
//!   over a flat arena — the hot loop calls through a per-node `fn` pointer
//!   and never matches on a unit enum;
//! * channel valid state and the scheduler's dirty/accepted/emitted/fired
//!   state are bit-packed into `u64` words and processed word-at-a-time;
//!   tags move out-of-band as raw `u32` words next to untagged payloads, so
//!   a token crossing a tagged region never allocates a `Value::Tagged`
//!   box;
//! * in-order (arbitration-free, untagged) regions get a *static firing
//!   schedule* precomputed at compile time: a fire inside such a region
//!   re-arms the whole region's precomputed word mask instead of computing
//!   fine-grained channel fanout marks, so the region replays its fixed
//!   index-order schedule round by round. Out-of-order regions (taggers and
//!   the tagged closure behind them, plus arbitrating merges) fall back to
//!   the dynamic per-fire worklist marks.
//!
//! Bit-identity with the reference sweep rests on two facts (DESIGN.md
//! §3.7). First, a round of the compiled core is a sweep pass restricted
//! to its dirty set: the word-at-a-time scan visits set bits in ascending
//! index order, and a fire marks the affected nodes `j > i` into the
//! current round (the sweep would still reach them this pass) and
//! `j <= i` into the next. A node fires only after one of its channels,
//! its per-cycle firing caps, or the clock changed since it last failed
//! to fire, and every such event marks it, so the compiled core fires
//! exactly the nodes the sweep fires, at the same `(pass, index)`
//! positions. Second, examining a *superset* of the dirty set in index
//! order is harmless: a node whose channels did not change cannot fire,
//! so the extra examinations are no-ops. The static-region masks exploit
//! exactly that latitude.
//!
//! The compiled artifact is immutable and shared (`Arc`) via a global
//! content-addressed cache, so bench suites compile once and simulate many;
//! per-run mutable state lives in [`rt::Rt`].

mod fire;
mod rt;

use crate::memory::Memory;
use crate::sim::{narrow, op_latency, purefn_latency, Scheduler, SimConfig, SimError, SimResult};
use crate::stall::UnitClass;
use fire::FireFn;
use graphiti_ir::{CompKind, ExprHigh, Op, PureFn, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Out-of-band tag word meaning "untagged".
pub(crate) const NO_TAG: u32 = u32::MAX;
/// Sentinel for "this node has no internal queue".
pub(crate) const NO_IDX: u32 = u32::MAX;

/// A `(start, len)` range into one of the artifact's flat pools.
pub(crate) type Range = (u32, u32);

/// One lowered node: its monomorphic fire function, port ranges, two
/// kind-specific parameter words, and the precomputed scheduler marks.
pub(crate) struct CNode {
    pub(crate) fire: FireFn,
    pub(crate) ins: Range,
    pub(crate) outs: Range,
    /// Kind-specific: const/op/pure/tagger/mem index, or Init's initial.
    pub(crate) p0: u32,
    /// Kind-specific: pipe index (Piped/Pure/Load), unused otherwise.
    pub(crate) p1: u32,
    /// Word masks OR-ed into the current round on fire (indices `> i`).
    pub(crate) cur_marks: Range,
    /// Word masks OR-ed into the next round on fire (indices `<= i`).
    pub(crate) nxt_marks: Range,
}

/// Names packed into one buffer: one allocation per table instead of one
/// per name, which keeps cached artifacts small.
#[derive(Default)]
pub(crate) struct NameTable {
    buf: String,
    ends: Vec<u32>,
}

impl NameTable {
    fn push(&mut self, name: impl std::fmt::Display) {
        use std::fmt::Write as _;
        let _ = write!(self.buf, "{name}");
        self.ends.push(self.buf.len() as u32);
    }

    /// The `i`-th name.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.buf[start..self.ends[i] as usize]
    }

    /// Every name, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| self.get(i))
    }

    fn bytes(&self) -> usize {
        self.buf.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

/// Static shape of one internal queue (pipeline, buffer).
pub(crate) struct PipeSpec {
    /// Maximum occupancy (latency + 1 for pipelines, slots for buffers).
    pub(crate) cap: usize,
    /// Cycles between acceptance and the head turning ready (0 for
    /// transparent buffers, 1 for opaque ones).
    pub(crate) lat: u64,
}

/// Static shape of one store queue, shared by its fire function and the
/// run loop. The access plans come pre-split into `(is_store, site)`
/// lists by [`crate::sim::lsq_rounds`], so the compiled and interpreted
/// schedulers allocate byte-identical pending windows.
pub(crate) struct LsqSpec {
    /// Index into [`CompiledCircuit::mems`].
    pub(crate) mem: u32,
    /// Body-round accesses `(is_store, site)` in program order.
    pub(crate) body: Vec<(bool, u32)>,
    /// Epilogue-round accesses in program order.
    pub(crate) epi: Vec<(bool, u32)>,
    /// Store-site count (load ports start after the store ports).
    pub(crate) n_stores: u32,
    /// Pending-entry capacity ([`crate::sim::lsq_pending_cap`]).
    pub(crate) cap: usize,
}

/// Compile-pass facts, kept for metrics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileStats {
    /// Lowered node count.
    pub nodes: u64,
    /// Lowered channel count (one-slot latches + external queues).
    pub chans: u64,
    /// Number of in-order regions that received a static schedule mask.
    pub regions: u64,
    /// Nodes covered by a static region schedule.
    pub static_nodes: u64,
    /// Nodes on the dynamic worklist fallback (taggers, the tagged
    /// closure behind them, and arbitrating merges).
    pub dynamic_nodes: u64,
}

/// An immutable compiled circuit: everything the run loop reads and never
/// writes. Shared via [`Arc`] through the content-hash cache.
pub(crate) struct CompiledCircuit {
    pub(crate) nodes: Vec<CNode>,
    pub(crate) names: NameTable,
    /// Flat pool backing every node's `ins`/`outs` channel-id lists.
    pub(crate) port_pool: Vec<u32>,
    /// Flat pool backing every node's mark lists: `(word, bits)` pairs.
    pub(crate) mark_pool: Vec<(u32, u64)>,
    /// Channels `0..n_slots` are internal one-slot latches; the rest are
    /// unbounded external queues (inputs first, then outputs), mirroring
    /// the reference sweep's channel layout exactly.
    pub(crate) n_slots: usize,
    pub(crate) n_chans: usize,
    pub(crate) input_chans: BTreeMap<String, u32>,
    pub(crate) output_chans: BTreeMap<String, u32>,
    pub(crate) pipe_specs: Vec<PipeSpec>,
    /// Per node: its pipe index, or [`NO_IDX`].
    pub(crate) pipe_of: Vec<u32>,
    /// `(node, pipe)` pairs for idle fast-forward and leftover counting.
    pub(crate) queued: Vec<(u32, u32)>,
    pub(crate) consts: Vec<Value>,
    pub(crate) ops: Vec<Op>,
    pub(crate) pures: Vec<PureFn>,
    /// Tag budgets, one per tagger.
    pub(crate) tagger_tags: Vec<u32>,
    /// Static store-queue shapes, one per `StoreQueue` node.
    pub(crate) lsqs: Vec<LsqSpec>,
    /// Distinct array names referenced by Load/Store ports.
    pub(crate) mems: Vec<String>,
    /// `u64` words needed for a bitset over nodes.
    pub(crate) words: usize,
    /// Per channel: a human-readable name in the reference sweep's exact
    /// format (`from.port-to.port`, `in.x`, `out.y`), feeding the VCD
    /// signal list, stall reports, and deadlock reports.
    pub(crate) chan_names: NameTable,
    /// Per channel: the node that reads it, if any (single-consumer).
    pub(crate) consumer_of: Vec<Option<u32>>,
    /// Per channel: the node that writes it, if any (single-producer).
    pub(crate) producer_of: Vec<Option<u32>>,
    /// Per node: the unit class the stall walks match on.
    pub(crate) class: Vec<UnitClass>,
    pub(crate) stats: CompileStats,
}

impl CompiledCircuit {
    #[inline]
    pub(crate) fn ports(&self, r: Range) -> &[u32] {
        &self.port_pool[r.0 as usize..(r.0 + r.1) as usize]
    }

    #[inline]
    pub(crate) fn marks(&self, r: Range) -> &[(u32, u64)] {
        &self.mark_pool[r.0 as usize..(r.0 + r.1) as usize]
    }

    /// Compile-pass facts (node/channel/region counts).
    pub(crate) fn stats(&self) -> CompileStats {
        self.stats
    }
}

/// One cached artifact with its LRU bookkeeping.
struct CacheEntry {
    art: Arc<CompiledCircuit>,
    /// Approximate resident bytes, charged against [`CACHE_MAX_BYTES`].
    bytes: usize,
    /// Last-touch tick; the minimum across entries is the LRU victim.
    tick: u64,
}

/// The artifact cache body behind the mutex: the key map plus the running
/// byte total and the monotonically increasing touch tick.
#[derive(Default)]
struct CacheState {
    map: HashMap<(u64, u64), CacheEntry>,
    bytes: usize,
    tick: u64,
}

/// The global artifact cache, keyed by 128-bit content hash.
type ArtifactCache = Mutex<CacheState>;

fn cache() -> &'static ArtifactCache {
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheState::default()))
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Entry cap: evicting least-recently-used artifacts above this count
/// bounds fuzzing runs, which compile thousands of distinct throwaway
/// circuits.
const CACHE_CAP: usize = 256;

/// Byte cap on resident artifacts (approximate accounting), so a
/// long-running suite over large kernels cannot exhaust memory even
/// before it reaches [`CACHE_CAP`] entries.
const CACHE_MAX_BYTES: usize = 64 << 20;

/// Approximate heap footprint of one artifact, for the byte cap. Counts
/// the large flat arrays and strings; per-element constants under-count a
/// little, which only makes eviction slightly lazier.
fn approx_bytes(art: &CompiledCircuit) -> usize {
    std::mem::size_of::<CompiledCircuit>()
        + art.nodes.len() * std::mem::size_of::<CNode>()
        + art.port_pool.len() * std::mem::size_of::<u32>()
        + art.mark_pool.len() * std::mem::size_of::<(u32, u64)>()
        + art.names.bytes()
        + art.chan_names.bytes()
        + (art.consumer_of.len() + art.producer_of.len() + art.pipe_of.len()) * 8
        + art.class.len() * std::mem::size_of::<UnitClass>()
        + art.lsqs.iter().map(|l| (l.body.len() + l.epi.len()) * 8).sum::<usize>()
}

/// Two independently seeded hashers fed identical bytes, so one graph
/// walk yields a 128-bit fingerprint. Doubles as a [`std::fmt::Write`]
/// sink: node kinds stream their `Debug` rendering straight into the
/// hashers without materialising the string, which matters because the
/// key is recomputed on every `Scheduler::Compiled` simulate call.
struct DualHasher(
    std::collections::hash_map::DefaultHasher,
    std::collections::hash_map::DefaultHasher,
);

impl DualHasher {
    fn with_seeds(s1: u64, s2: u64) -> Self {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        s1.hash(&mut h1);
        s2.hash(&mut h2);
        DualHasher(h1, h2)
    }

    fn finish_pair(&self) -> (u64, u64) {
        (self.0.finish(), self.1.finish())
    }
}

impl std::hash::Hasher for DualHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.1.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.finish_pair().0
    }
}

impl std::fmt::Write for DualHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        std::hash::Hasher::write(self, s.as_bytes());
        // Length-prefix framing is lost when streaming; a separator byte
        // keeps adjacent fragments from gluing into ambiguous strings.
        std::hash::Hasher::write(self, &[0xFF]);
        Ok(())
    }
}

/// A 128-bit structural fingerprint of the circuit plus the config facts
/// the lowering bakes in (`load_latency` feeds Load and Pure pipeline
/// depths). Two independently seeded 64-bit hashes make an accidental
/// collision across a fuzzing campaign negligible.
fn content_key(g: &ExprHigh, cfg: &SimConfig) -> (u64, u64) {
    use std::fmt::Write as _;
    let mut h = DualHasher::with_seeds(0xA5A5_5A5A_C0DE_0001, 0x5A5A_A5A5_C0DE_0002);
    cfg.load_latency.hash(&mut h);
    for (name, kind) in g.nodes() {
        name.hash(&mut h);
        let _ = write!(h, "{kind:?}");
    }
    for (from, to) in g.edges() {
        from.node.hash(&mut h);
        from.port.hash(&mut h);
        to.node.hash(&mut h);
        to.port.hash(&mut h);
    }
    for (name, target) in g.inputs() {
        name.hash(&mut h);
        target.node.hash(&mut h);
        target.port.hash(&mut h);
    }
    for (name, source) in g.outputs() {
        name.hash(&mut h);
        source.node.hash(&mut h);
        source.port.hash(&mut h);
    }
    h.finish_pair()
}

/// Returns the compiled artifact for `g`, lowering it on a cache miss.
/// The lowering runs under a `sim.compile` span, so causal profiles
/// attribute compile time separately from simulation time.
pub(crate) fn get_or_compile(
    g: &ExprHigh,
    cfg: &SimConfig,
) -> Result<Arc<CompiledCircuit>, SimError> {
    let key = content_key(g, cfg);
    {
        let mut guard = cache().lock().expect("compile cache poisoned");
        let state = &mut *guard;
        if let Some(entry) = state.map.get_mut(&key) {
            state.tick += 1;
            entry.tick = state.tick;
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            if graphiti_obs::enabled() {
                graphiti_obs::counter("sim.compile.cache_hits").inc();
            }
            return Ok(entry.art.clone());
        }
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let _span = graphiti_obs::span("sim.compile");
    let t0 = std::time::Instant::now();
    let art = Arc::new(lower(g, cfg)?);
    if graphiti_obs::enabled() {
        let stats = art.stats();
        graphiti_obs::counter("sim.compile.cache_misses").inc();
        graphiti_obs::counter("sim.compile.us").add(t0.elapsed().as_micros() as u64);
        graphiti_obs::counter("sim.compile.nodes").add(stats.nodes);
        graphiti_obs::counter("sim.compile.chans").add(stats.chans);
        graphiti_obs::counter("sim.sched.region.count").add(stats.regions);
        graphiti_obs::counter("sim.sched.region.static_nodes").add(stats.static_nodes);
        graphiti_obs::counter("sim.sched.region.dynamic_nodes").add(stats.dynamic_nodes);
    }
    let bytes = approx_bytes(&art);
    let mut state = cache().lock().expect("compile cache poisoned");
    state.tick += 1;
    let tick = state.tick;
    // Another worker may have lowered the same circuit while the lock was
    // dropped: keep its artifact, so the byte cap is charged once.
    if let Some(entry) = state.map.get_mut(&key) {
        entry.tick = tick;
        return Ok(entry.art.clone());
    }
    // LRU eviction against both caps before admitting the new artifact.
    while !state.map.is_empty()
        && (state.map.len() >= CACHE_CAP || state.bytes + bytes > CACHE_MAX_BYTES)
    {
        let victim = *state.map.iter().min_by_key(|(_, e)| e.tick).expect("non-empty map").0;
        let evicted = state.map.remove(&victim).expect("victim present");
        state.bytes = state.bytes.saturating_sub(evicted.bytes);
        CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        if graphiti_obs::enabled() {
            graphiti_obs::counter("sim.compile.evictions").inc();
        }
    }
    state.bytes += bytes;
    state.map.insert(key, CacheEntry { art: art.clone(), bytes, tick });
    Ok(art)
}

/// Lowers and caches the circuit without running it, so later
/// [`simulate`](crate::simulate) calls under [`Scheduler::Compiled`] hit
/// the artifact cache. Useful to price compile-once/simulate-many
/// amortisation in benchmarks. Returns the compile-pass facts (node,
/// channel, and static-region counts).
///
/// # Errors
///
/// Fails like [`Simulator::new`](crate::Simulator::new) on graphs the
/// simulator rejects.
pub fn precompile(g: &ExprHigh, cfg: &SimConfig) -> Result<CompileStats, SimError> {
    let mut cfg = cfg.clone();
    cfg.scheduler = Scheduler::Compiled;
    get_or_compile(g, &cfg).map(|art| art.stats())
}

/// Empties the compiled-artifact cache (benchmark and test hygiene).
pub fn compile_cache_clear() {
    let mut state = cache().lock().expect("compile cache poisoned");
    state.map.clear();
    state.bytes = 0;
}

/// `(hits, misses)` of the compiled-artifact cache since process start.
pub fn compile_cache_stats() -> (u64, u64) {
    (CACHE_HITS.load(Ordering::Relaxed), CACHE_MISSES.load(Ordering::Relaxed))
}

/// `(evictions, resident entries, resident bytes)` of the compiled-artifact
/// cache: the lifetime count of LRU evictions plus the current footprint.
pub fn compile_cache_detail() -> (u64, usize, usize) {
    let state = cache().lock().expect("compile cache poisoned");
    (CACHE_EVICTIONS.load(Ordering::Relaxed), state.map.len(), state.bytes)
}

/// Runs a compiled circuit to quiescence. The public entry point is
/// [`Simulator::run`](crate::Simulator::run), which delegates here when
/// the scheduler is [`Scheduler::Compiled`].
pub(crate) fn run(
    art: &CompiledCircuit,
    feeds: &BTreeMap<String, Vec<Value>>,
    memory: Memory,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    rt::run(art, feeds, memory, cfg)
}

/// Splits a full interpreter-shaped value into the out-of-band `(tag,
/// payload)` channel representation: exactly `take_tag`, with the tag
/// narrowed to a raw word.
#[inline]
pub(crate) fn canon(tag: u32, v: Value) -> (u32, Value) {
    if tag == NO_TAG {
        match v {
            Value::Tagged(t, inner) => (t, *inner),
            v => (NO_TAG, v),
        }
    } else {
        (tag, v)
    }
}

/// Reassembles the full interpreter-shaped value (error messages, output
/// draining, tagger bookkeeping — cold paths only).
#[inline]
pub(crate) fn assemble(tag: u32, v: Value) -> Value {
    if tag == NO_TAG {
        v
    } else {
        Value::tagged(tag, v)
    }
}

/// The lowering pass: interprets the graph's structure once so the run
/// loop never has to. Mirrors the interpreter's channel/node layout
/// exactly — node and channel indices coincide, which is what makes the
/// firing order (and thus every observable) bit-identical.
fn lower(g: &ExprHigh, cfg: &SimConfig) -> Result<CompiledCircuit, SimError> {
    g.validate().map_err(|e| SimError::BadGraph(e.to_string()))?;

    // Channel layout: one slot per edge, then unbounded queues for the
    // external inputs and outputs — the same order Simulator::new uses.
    let mut chan_of_out: BTreeMap<graphiti_ir::Endpoint, u32> = BTreeMap::new();
    let mut chan_of_in: BTreeMap<graphiti_ir::Endpoint, u32> = BTreeMap::new();
    // Channel names are baked into the (config-agnostic, cached) artifact
    // so an observed run never re-derives them; the format matches the
    // interpreter's byte for byte.
    let mut chan_names = NameTable::default();
    let mut n_chans: usize = 0;
    for (from, to) in g.edges() {
        let id = narrow("channel", n_chans)?;
        chan_of_out.insert(from.clone(), id);
        chan_of_in.insert(to.clone(), id);
        chan_names.push(format_args!("{}.{}-{}.{}", from.node, from.port, to.node, to.port));
        n_chans += 1;
    }
    let n_slots = n_chans;
    let mut input_chans = BTreeMap::new();
    for (name, target) in g.inputs() {
        let id = narrow("channel", n_chans)?;
        chan_of_in.insert(target.clone(), id);
        input_chans.insert(name.clone(), id);
        chan_names.push(format_args!("in.{name}"));
        n_chans += 1;
    }
    let mut output_chans = BTreeMap::new();
    for (name, source) in g.outputs() {
        let id = narrow("channel", n_chans)?;
        chan_of_out.insert(source.clone(), id);
        output_chans.insert(name.clone(), id);
        chan_names.push(format_args!("out.{name}"));
        n_chans += 1;
    }

    let mut names = NameTable::default();
    let mut port_pool: Vec<u32> = Vec::new();
    let mut nodes: Vec<CNode> = Vec::new();
    let mut consts: Vec<Value> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut pures: Vec<PureFn> = Vec::new();
    let mut pipe_specs: Vec<PipeSpec> = Vec::new();
    let mut pipe_of: Vec<u32> = Vec::new();
    let mut tagger_of: Vec<u32> = Vec::new();
    let mut tagger_tags: Vec<u32> = Vec::new();
    let mut lsqs: Vec<LsqSpec> = Vec::new();
    let mut mems: Vec<String> = Vec::new();
    let mut queued: Vec<(u32, u32)> = Vec::new();
    let mut class: Vec<UnitClass> = Vec::new();
    // Merges arbitrate between inputs and taggers reorder: both (plus the
    // tagged closure computed below) stay on the dynamic worklist.
    let mut dynamic: Vec<bool> = Vec::new();
    let mut tagger_nodes: Vec<usize> = Vec::new();

    let mem_id = |mems: &mut Vec<String>, name: &str| -> u32 {
        match mems.iter().position(|m| m == name) {
            Some(i) => i as u32,
            None => {
                mems.push(name.to_string());
                (mems.len() - 1) as u32
            }
        }
    };

    for (name, kind) in g.nodes() {
        let i = nodes.len();
        narrow("node", i)?;
        let (ins_p, outs_p) = kind.interface();
        let ins_start = port_pool.len() as u32;
        for p in &ins_p {
            port_pool.push(chan_of_in[&graphiti_ir::ep(name.clone(), p.clone())]);
        }
        let ins = (ins_start, ins_p.len() as u32);
        let outs_start = port_pool.len() as u32;
        for p in &outs_p {
            port_pool.push(chan_of_out[&graphiti_ir::ep(name.clone(), p.clone())]);
        }
        let outs = (outs_start, outs_p.len() as u32);

        let mut pipe = NO_IDX;
        let mut tagger = NO_IDX;
        let mut dyn_node = false;
        let add_pipe = |specs: &mut Vec<PipeSpec>, cap: usize, lat: u64| -> u32 {
            specs.push(PipeSpec { cap, lat });
            (specs.len() - 1) as u32
        };
        let (fire, p0, p1): (FireFn, u32, u32) = match kind {
            CompKind::Fork { .. } => (fire::fork, 0, 0),
            CompKind::Join => (fire::join, 0, 0),
            CompKind::Split => (fire::split, 0, 0),
            CompKind::Mux => (fire::mux, 0, 0),
            CompKind::Branch => (fire::branch, 0, 0),
            CompKind::Merge => {
                dyn_node = true;
                (fire::merge, 0, 0)
            }
            CompKind::Init { initial } => (fire::init, u32::from(*initial), 0),
            CompKind::Sink => (fire::sink, 0, 0),
            CompKind::Constant { value } => {
                consts.push(value.clone());
                (fire::constant, (consts.len() - 1) as u32, 0)
            }
            CompKind::Operator { op } => {
                let lat = op_latency(*op);
                ops.push(*op);
                let oid = (ops.len() - 1) as u32;
                if lat == 0 {
                    (fire::comb, oid, 0)
                } else {
                    pipe = add_pipe(&mut pipe_specs, lat as usize + 1, lat);
                    (fire::piped, oid, pipe)
                }
            }
            CompKind::Pure { func } => {
                let lat = purefn_latency(func, cfg.load_latency);
                pures.push(func.clone());
                pipe = add_pipe(&mut pipe_specs, lat as usize + 1, lat);
                (fire::pure, (pures.len() - 1) as u32, pipe)
            }
            CompKind::Buffer { slots, transparent } => {
                pipe = add_pipe(&mut pipe_specs, (*slots).max(1), u64::from(!*transparent));
                (fire::buffer, pipe, 0)
            }
            CompKind::TaggerUntagger { tags } => {
                tagger_tags.push(*tags);
                tagger = (tagger_tags.len() - 1) as u32;
                dyn_node = true;
                tagger_nodes.push(i);
                (fire::tagger, tagger, 0)
            }
            CompKind::Load { mem } => {
                let mid = mem_id(&mut mems, mem);
                pipe = add_pipe(&mut pipe_specs, cfg.load_latency as usize + 1, cfg.load_latency);
                (fire::load, mid, pipe)
            }
            CompKind::Store { mem } => (fire::store, mem_id(&mut mems, mem), 0),
            CompKind::StoreQueue { mem, body_plan, epi_plan } => {
                let mid = mem_id(&mut mems, mem);
                let (body, epi) = crate::sim::lsq_rounds(body_plan, epi_plan);
                let (stores, _) = graphiti_ir::lsq_site_counts(body_plan, epi_plan);
                lsqs.push(LsqSpec {
                    mem: mid,
                    body,
                    epi,
                    n_stores: stores as u32,
                    cap: crate::sim::lsq_pending_cap(body_plan, epi_plan),
                });
                pipe = add_pipe(&mut pipe_specs, cfg.load_latency as usize + 1, cfg.load_latency);
                (fire::lsq, (lsqs.len() - 1) as u32, pipe)
            }
        };
        if pipe != NO_IDX {
            queued.push((i as u32, pipe));
        }
        // The same classes the interpreter derives from its units: a
        // zero-latency operator lowers to `comb` and is walked through, a
        // latency-bearing one holds tokens like Pure does.
        class.push(match kind {
            CompKind::Sink => UnitClass::Sink,
            CompKind::Load { .. } => UnitClass::Load,
            CompKind::Store { .. } => UnitClass::Store,
            CompKind::Buffer { slots, .. } => UnitClass::Buffer { slots: (*slots).max(1) },
            CompKind::Operator { op } if op_latency(*op) > 0 => UnitClass::Pipe,
            CompKind::Pure { .. } => UnitClass::Pipe,
            CompKind::TaggerUntagger { .. } => UnitClass::Tagger,
            CompKind::StoreQueue { .. } => UnitClass::Lsq,
            _ => UnitClass::Plain,
        });
        names.push(name);
        pipe_of.push(pipe);
        tagger_of.push(tagger);
        dynamic.push(dyn_node);
        nodes.push(CNode { fire, ins, outs, p0, p1, cur_marks: (0, 0), nxt_marks: (0, 0) });
    }

    let n = nodes.len();
    narrow("channel", n_chans)?;
    let mut consumer_of: Vec<Option<u32>> = vec![None; n_chans];
    let mut producer_of: Vec<Option<u32>> = vec![None; n_chans];
    for (i, nd) in nodes.iter().enumerate() {
        for &c in &port_pool[nd.ins.0 as usize..(nd.ins.0 + nd.ins.1) as usize] {
            consumer_of[c as usize] = Some(i as u32);
        }
        for &c in &port_pool[nd.outs.0 as usize..(nd.outs.0 + nd.outs.1) as usize] {
            producer_of[c as usize] = Some(i as u32);
        }
    }

    // The tagged closure: everything downstream of a tagger's tagged
    // output (stopping at tagger nodes) carries reordered tokens and stays
    // on the dynamic worklist.
    let mut stack: Vec<u32> = Vec::new();
    for &t in &tagger_nodes {
        let outs =
            &port_pool[nodes[t].outs.0 as usize..(nodes[t].outs.0 + nodes[t].outs.1) as usize];
        if let Some(&tagged_out) = outs.first() {
            if let Some(j) = consumer_of[tagged_out as usize] {
                stack.push(j);
            }
        }
    }
    let mut seen = vec![false; n];
    while let Some(j) = stack.pop() {
        let ju = j as usize;
        if seen[ju] {
            continue;
        }
        seen[ju] = true;
        if tagger_of[ju] != NO_IDX {
            continue; // the region ends at the next tagger
        }
        dynamic[ju] = true;
        let nd = &nodes[ju];
        for &c in &port_pool[nd.outs.0 as usize..(nd.outs.0 + nd.outs.1) as usize] {
            if let Some(k) = consumer_of[c as usize] {
                stack.push(k);
            }
        }
    }

    // Static regions: connected components of the in-order nodes over the
    // channel adjacency. Each gets a shared schedule mask.
    let words = n.div_ceil(64);
    let mut region_of: Vec<u32> = vec![NO_IDX; n];
    let mut region_masks: Vec<Vec<u64>> = Vec::new();
    for start in 0..n {
        if dynamic[start] || region_of[start] != NO_IDX {
            continue;
        }
        let rid = region_masks.len() as u32;
        let mut mask = vec![0u64; words];
        let mut stack = vec![start as u32];
        region_of[start] = rid;
        while let Some(j) = stack.pop() {
            let ju = j as usize;
            mask[ju / 64] |= 1u64 << (ju % 64);
            let nd = &nodes[ju];
            let neighbours = port_pool[nd.ins.0 as usize..(nd.ins.0 + nd.ins.1) as usize]
                .iter()
                .filter_map(|&c| producer_of[c as usize])
                .chain(
                    port_pool[nd.outs.0 as usize..(nd.outs.0 + nd.outs.1) as usize]
                        .iter()
                        .filter_map(|&c| consumer_of[c as usize]),
                );
            for k in neighbours {
                let ku = k as usize;
                if !dynamic[ku] && region_of[ku] == NO_IDX {
                    region_of[ku] = rid;
                    stack.push(k);
                }
            }
        }
        region_masks.push(mask);
    }

    // Per-node scheduler marks. The fine affected set is every node whose
    // fireability a fire of `i` can change: the node itself, the consumers
    // of its outputs, the producers of its inputs. Static-region nodes
    // additionally re-arm their whole region (sound: index-order
    // examination of a superset is a no-op for unaffected nodes).
    let mut mark_pool: Vec<(u32, u64)> = Vec::new();
    let mut scratch_mask = vec![0u64; words];
    for i in 0..n {
        for w in scratch_mask.iter_mut() {
            *w = 0;
        }
        let set = |mask: &mut Vec<u64>, j: u32| {
            mask[j as usize / 64] |= 1u64 << (j % 64);
        };
        set(&mut scratch_mask, i as u32);
        let nd = &nodes[i];
        for &c in &port_pool[nd.outs.0 as usize..(nd.outs.0 + nd.outs.1) as usize] {
            if let Some(j) = consumer_of[c as usize] {
                set(&mut scratch_mask, j);
            }
        }
        for &c in &port_pool[nd.ins.0 as usize..(nd.ins.0 + nd.ins.1) as usize] {
            if let Some(j) = producer_of[c as usize] {
                set(&mut scratch_mask, j);
            }
        }
        // Static-region schedule: replace the fine set by the region's
        // precomputed mask when the region is barely wider — the shared
        // mask then costs (almost) nothing extra to examine and turns the
        // region's replay into a fixed word pattern. Wide regions keep
        // the fine dynamic-worklist marks: re-arming hundreds of idle
        // nodes per fire would swamp the win.
        if region_of[i] != NO_IDX {
            let region = &region_masks[region_of[i] as usize];
            let fine: u32 = scratch_mask.iter().map(|w| w.count_ones()).sum();
            let wide: u32 =
                region.iter().zip(&scratch_mask).map(|(r, f)| (r | f).count_ones()).sum();
            if wide <= fine + 2 {
                for (w, r) in scratch_mask.iter_mut().zip(region) {
                    *w |= r;
                }
            }
        }
        // Split at index i: strictly greater bits re-arm the current
        // round, the rest the next one.
        let wi = i / 64;
        let bi = i % 64;
        let gt_in_word = if bi == 63 { 0 } else { !0u64 << (bi + 1) };
        let cur_start = mark_pool.len() as u32;
        for (w, &bits) in scratch_mask.iter().enumerate() {
            let gt = match w.cmp(&wi) {
                std::cmp::Ordering::Less => 0,
                std::cmp::Ordering::Equal => bits & gt_in_word,
                std::cmp::Ordering::Greater => bits,
            };
            if gt != 0 {
                mark_pool.push((w as u32, gt));
            }
        }
        let cur_marks = (cur_start, mark_pool.len() as u32 - cur_start);
        let nxt_start = mark_pool.len() as u32;
        for (w, &bits) in scratch_mask.iter().enumerate() {
            let le = match w.cmp(&wi) {
                std::cmp::Ordering::Less => bits,
                std::cmp::Ordering::Equal => bits & !gt_in_word,
                std::cmp::Ordering::Greater => 0,
            };
            if le != 0 {
                mark_pool.push((w as u32, le));
            }
        }
        let nxt_marks = (nxt_start, mark_pool.len() as u32 - nxt_start);
        nodes[i].cur_marks = cur_marks;
        nodes[i].nxt_marks = nxt_marks;
    }

    let dynamic_nodes = dynamic.iter().filter(|&&d| d).count() as u64;
    let stats = CompileStats {
        nodes: n as u64,
        chans: n_chans as u64,
        regions: region_masks.len() as u64,
        static_nodes: n as u64 - dynamic_nodes,
        dynamic_nodes,
    };
    Ok(CompiledCircuit {
        nodes,
        names,
        port_pool,
        mark_pool,
        n_slots,
        n_chans,
        input_chans,
        output_chans,
        pipe_specs,
        pipe_of,
        queued,
        consts,
        ops,
        pures,
        tagger_tags,
        lsqs,
        mems,
        words,
        chan_names,
        consumer_of,
        producer_of,
        class,
        stats,
    })
}
