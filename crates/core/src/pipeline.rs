//! The five-phase out-of-order optimization pipeline (§3.1 of the paper).
//!
//! 1. **Normalize** — exhaustively combine Muxes and Branches that share a
//!    condition fork (Fig. 3a) and flatten fork trees, until the marked loop
//!    has a single Mux and a single Branch.
//! 2. **Eliminate** — remove the Split/Join pairs and degenerate forks the
//!    combining introduced (Fig. 3b).
//! 3. **Pure generation** — turn the loop body into a single Pure component
//!    (§3.2) in one oracle step: symbolic extraction + e-graph
//!    simplification (our egg stand-in) compute the body's function, and
//!    one checked region-to-Pure rewrite replaces the body by it. *A Store
//!    in the body aborts the transformation here* — this is the refusal
//!    that uncovered the paper's bicg bug.
//! 4. **Loop rewrite** — the verified out-of-order rewrite (Fig. 3d).
//! 5. **Expand** — re-materialize the recorded loop body inside the tagged
//!    region in place of the Pure component (the paper replays the phase-3
//!    rewrites backwards; splicing the recorded body is the same
//!    transformation performed at once, and the body's components are
//!    tag-transparent).

use crate::loops::{loop_body_region, loop_with_init, SeqLoop};
use graphiti_ir::{ep, CompKind, Endpoint, ExprHigh, NodeId, PureFn};
use graphiti_rewrite::{
    catalog, region_oracle, wire_consumer, wire_driver, CheckMode, Engine, ExtractError, Match,
    Obligation, Replacement, Rewrite, RewriteError,
};
use graphiti_sem::RefineConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Options controlling the pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Tag budget for the out-of-order region.
    pub tags: u32,
    /// Whether rewrite applications record their refinement
    /// obligations in [`PipelineReport::obligations`].
    pub check: CheckMode,
    /// The bounds callers discharge the recorded obligations at. The
    /// pipeline itself never reads them: it only records obligations (see
    /// [`graphiti_rewrite::verify::discharge`]).
    pub refine_cfg: RefineConfig,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { tags: 8, check: CheckMode::Off, refine_cfg: RefineConfig::default() }
    }
}

/// Why a loop was left untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The loop body has side effects (a Store) — the bicg case.
    ImpureBody(String),
    /// The loop body could not be reduced to a pure function.
    NotReducible(String),
    /// The loop skeleton was not found after normalization.
    LoopNotFound,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::ImpureBody(m) => write!(f, "loop body is impure: {m}"),
            Refusal::NotReducible(m) => write!(f, "loop body is not reducible to Pure: {m}"),
            Refusal::LoopNotFound => write!(f, "normalized loop skeleton not found"),
        }
    }
}

/// The outcome of optimizing one kernel.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Whether the out-of-order transformation was applied.
    pub transformed: bool,
    /// The refusal reason, if not transformed.
    pub refusal: Option<Refusal>,
    /// Total rewrites applied (the §6.3 statistic).
    pub rewrites: usize,
    /// Refinement obligations collected in [`CheckMode::Deferred`] (empty
    /// when checks are off), in application order. Discharge them with
    /// [`graphiti_rewrite::verify::discharge`] — the independent checks
    /// run on worker threads.
    pub obligations: Vec<Obligation>,
}

/// Pipeline errors (engine failures, not refusals).
#[derive(Debug)]
pub enum PipelineError {
    /// A rewrite application failed.
    Rewrite(RewriteError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RewriteError> for PipelineError {
    fn from(e: RewriteError) -> Self {
        PipelineError::Rewrite(e)
    }
}

fn engine_for(opts: &PipelineOptions) -> Engine {
    match opts.check {
        CheckMode::Off => Engine::new(),
        CheckMode::Deferred => Engine::deferring(),
    }
}

/// Why [`transform`] stopped short of phase 5.
enum Stop {
    /// The loop is left as it was, for this reason.
    Refused(Refusal),
    /// The engine failed.
    Failed(PipelineError),
}

impl From<Refusal> for Stop {
    fn from(r: Refusal) -> Self {
        Stop::Refused(r)
    }
}

impl From<PipelineError> for Stop {
    fn from(e: PipelineError) -> Self {
        Stop::Failed(e)
    }
}

impl From<RewriteError> for Stop {
    fn from(e: RewriteError) -> Self {
        Stop::Failed(e.into())
    }
}

/// The body's outputs in a normalized loop: the wires that drive
/// `branch.in` (data) and `fork.in` (condition).
pub(crate) fn body_outputs(g: &ExprHigh, l: &SeqLoop) -> Option<(Endpoint, Endpoint)> {
    Some((wire_driver(g, &ep(l.branch.clone(), "in"))?, wire_driver(g, &ep(l.fork.clone(), "in"))?))
}

/// A targeted rewrite replacing a whole region by `Pure(f); Split`, built
/// from the oracle's extraction result.
fn region_to_pure_rewrite(
    region: BTreeSet<NodeId>,
    input: Endpoint,
    data_out: Endpoint,
    cond_out: Endpoint,
    func: PureFn,
) -> Rewrite {
    Rewrite::new(
        "region-to-pure",
        move |_g| vec![Match { nodes: region.clone(), bindings: BTreeMap::new() }],
        move |_g, _m| {
            let mut frag = ExprHigh::new();
            frag.add_node("p", CompKind::Pure { func: func.clone() })
                .map_err(RewriteError::Graph)?;
            frag.add_node("s", CompKind::Split).map_err(RewriteError::Graph)?;
            frag.connect(ep("p", "out"), ep("s", "in")).map_err(RewriteError::Graph)?;
            frag.expose_input("in", ep("p", "in")).map_err(RewriteError::Graph)?;
            frag.expose_output("data", ep("s", "out0")).map_err(RewriteError::Graph)?;
            frag.expose_output("cond", ep("s", "out1")).map_err(RewriteError::Graph)?;
            Ok(Replacement::Subgraph {
                graph: frag,
                boundary_ins: [("in".to_string(), input.clone())].into_iter().collect(),
                boundary_outs: [
                    ("data".to_string(), data_out.clone()),
                    ("cond".to_string(), cond_out.clone()),
                ]
                .into_iter()
                .collect(),
            })
        },
    )
}

/// A targeted rewrite expanding `Pure; Split` back into the recorded body
/// (phase 5).
fn pure_expand_rewrite(
    pure_node: NodeId,
    split_node: NodeId,
    body: ExprHigh,
    body_input: Endpoint,
    body_data_out: Endpoint,
    body_cond_out: Endpoint,
) -> Rewrite {
    Rewrite::new(
        "pure-expand",
        move |_g| {
            vec![Match {
                nodes: [pure_node.clone(), split_node.clone()].into_iter().collect(),
                bindings: [
                    ("pure".to_string(), pure_node.clone()),
                    ("split".to_string(), split_node.clone()),
                ]
                .into_iter()
                .collect(),
            }]
        },
        move |_g, m| {
            let mut frag = body.clone();
            frag.expose_input("in", body_input.clone()).map_err(RewriteError::Graph)?;
            frag.expose_output("data", body_data_out.clone()).map_err(RewriteError::Graph)?;
            frag.expose_output("cond", body_cond_out.clone()).map_err(RewriteError::Graph)?;
            Ok(Replacement::Subgraph {
                graph: frag,
                boundary_ins: [("in".to_string(), ep(m.node("pure").clone(), "in"))]
                    .into_iter()
                    .collect(),
                boundary_outs: [
                    ("data".to_string(), ep(m.node("split").clone(), "out0")),
                    ("cond".to_string(), ep(m.node("split").clone(), "out1")),
                ]
                .into_iter()
                .collect(),
            })
        },
    )
}

/// Phases 1–2 on `g` in place, shared with the DF-OoO baseline: returns
/// the marked loop of the normalized graph.
pub(crate) fn normalize(
    engine: &mut Engine,
    g: &mut ExprHigh,
    init: &NodeId,
) -> Result<Option<SeqLoop>, PipelineError> {
    engine.exhaust(g, &catalog::normalize_phase())?;
    engine.exhaust(g, &catalog::eliminate_phase())?;
    Ok(loop_with_init(g, init))
}

/// Optimizes a single marked loop in `graph` (identified by its Init node),
/// introducing out-of-order execution if the body is pure.
///
/// On refusal the *original* graph is returned unchanged, as the paper's
/// flow does for bicg.
///
/// # Errors
///
/// Only on internal engine failures; refusals are reported, not errors.
pub fn optimize_loop(
    graph: &ExprHigh,
    init: &NodeId,
    opts: &PipelineOptions,
) -> Result<(ExprHigh, PipelineReport), PipelineError> {
    let mut engine = engine_for(opts);
    let (g, refusal) = match transform(&mut engine, graph, init, opts.tags) {
        Ok(g) => (g, None),
        Err(Stop::Refused(r)) => (graph.clone(), Some(r)),
        Err(Stop::Failed(e)) => return Err(e),
    };
    let report = PipelineReport {
        transformed: refusal.is_none(),
        refusal,
        rewrites: engine.rewrites_applied(),
        obligations: engine.obligations,
    };
    Ok((g, report))
}

/// The five phases on one copy of `graph`, rewritten in place.
fn transform(
    engine: &mut Engine,
    graph: &ExprHigh,
    init: &NodeId,
    tags: u32,
) -> Result<ExprHigh, Stop> {
    // A store queue serialises memory accesses by the *arrival order* of
    // its sequence stream; tagging the region around it would reorder that
    // stream and break the program-order commit guarantee. Until the
    // rewrite catalogue grows an LSQ-aware tagging rule, refuse outright —
    // the circuit stays correct, just in-order.
    if let Some((n, _)) = graph.nodes().find(|(_, k)| matches!(k, CompKind::StoreQueue { .. })) {
        return Err(Refusal::ImpureBody(format!("store queue at `{n}`")).into());
    }

    // Phases 1-2.
    let mut g = graph.clone();
    let l = normalize(engine, &mut g, init)?.ok_or(Refusal::LoopNotFound)?;

    // Record the normalized body for phase 5.
    let region = loop_body_region(&g, &l);
    if let Some(impure) = region.iter().find(|n| !g.kind(n).expect("node").is_effect_free()) {
        return Err(Refusal::ImpureBody(format!("store at `{impure}`")).into());
    }
    let body_input = wire_consumer(&g, &ep(l.mux.clone(), "out")).ok_or(Refusal::LoopNotFound)?;
    let (data_out, cond_out) = body_outputs(&g, &l).ok_or(Refusal::LoopNotFound)?;

    // Snapshot the body fragment for phase 5.
    let mut body_snapshot = ExprHigh::new();
    for n in &region {
        body_snapshot.add_node(n.clone(), g.kind(n).expect("node").clone()).expect("snapshot node");
    }
    for (from, to) in g.edges() {
        if region.contains(&from.node) && region.contains(&to.node) {
            body_snapshot.connect(from.clone(), to.clone()).expect("snapshot edge");
        }
    }

    // Phase 3: the oracle extracts the body's function symbolically and
    // simplifies it with the e-graph; one checked region-to-Pure rewrite
    // collapses the body.
    let (input, func) = region_oracle(&g, &region, &data_out, &cond_out).map_err(|e| match e {
        ExtractError::Impure(n) => Refusal::ImpureBody(format!("store at `{n}`")),
        ExtractError::MissingOutput(_) => {
            Refusal::NotReducible("region outputs do not line up with branch/fork".into())
        }
        e => Refusal::NotReducible(e.to_string()),
    })?;
    let rw = region_to_pure_rewrite(region, input, data_out.clone(), cond_out.clone(), func);
    assert!(engine.apply_first(&mut g, &rw)?, "targeted rewrite always matches");

    // Phase 4: the verified out-of-order loop rewrite. Phase 3 touched no
    // steering node, so the Mux is still `l.mux`.
    let rw = catalog::ooo::loop_ooo_at(tags, l.mux.clone());
    if !engine.apply_first(&mut g, &rw)? {
        return Err(Refusal::NotReducible("canonical loop shape not reached".into()).into());
    }

    // Phase 5: expand the Pure back into the recorded body inside the
    // tagged region. Locate the (merge -> pure -> split) chain.
    let (pure_node, split_node) = g
        .nodes()
        .filter(|(_, k)| matches!(k, CompKind::Merge))
        .find_map(|(n, _)| {
            let p = wire_consumer(&g, &ep(n.clone(), "out"))
                .filter(|p| matches!(g.kind(&p.node), Some(CompKind::Pure { .. })))?;
            let s = wire_consumer(&g, &ep(p.node.clone(), "out"))
                .filter(|s| matches!(g.kind(&s.node), Some(CompKind::Split)))?;
            Some((p.node, s.node))
        })
        .expect("phase 4 produced a merge->pure->split chain");
    let rw =
        pure_expand_rewrite(pure_node, split_node, body_snapshot, body_input, data_out, cond_out);
    assert!(engine.apply_first(&mut g, &rw)?, "targeted expansion always matches");
    Ok(g)
}
