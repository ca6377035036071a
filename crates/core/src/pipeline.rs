//! The five-phase out-of-order optimization pipeline (§3.1 of the paper).
//!
//! 1. **Normalize** — exhaustively combine Muxes and Branches that share a
//!    condition fork (Fig. 3a) and flatten fork trees, until the marked loop
//!    has a single Mux and a single Branch.
//! 2. **Eliminate** — remove the Split/Join pairs and degenerate forks the
//!    combining introduced (Fig. 3b).
//! 3. **Pure generation** — turn the loop body into a single Pure component
//!    (§3.2): first by exhaustively applying the pure-generation rewrites,
//!    then letting the oracle (symbolic extraction + e-graph simplification,
//!    our egg stand-in) finish the job as a checked region-to-Pure rewrite.
//!    *A Store in the body aborts the transformation here* — this is the
//!    refusal that uncovered the paper's bicg bug.
//! 4. **Loop rewrite** — the verified out-of-order rewrite (Fig. 3d).
//! 5. **Expand** — re-materialize the recorded loop body inside the tagged
//!    region in place of the Pure component (the paper replays the phase-3
//!    rewrites backwards; splicing the recorded body is the same
//!    transformation performed at once, and the body's components are
//!    tag-transparent).

use crate::loops::{loop_body_region, loop_with_init, SeqLoop};
use graphiti_ir::{ep, Attachment, CompKind, Endpoint, ExprHigh, NodeId, PureFn};
use graphiti_rewrite::{
    catalog, extract_region_function, simplify, wire_consumer, CheckMode, Engine, ExtractError,
    Match, Obligation, Replacement, Rewrite, RewriteError,
};
use graphiti_sem::RefineConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Options controlling the pipeline.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Tag budget for the out-of-order region.
    pub tags: u32,
    /// Whether verified rewrite applications record their refinement
    /// obligations in [`PipelineReport::obligations`].
    pub check: CheckMode,
    /// The bounds callers discharge the recorded obligations at. The
    /// pipeline itself never reads them: it only records obligations (see
    /// [`graphiti_rewrite::verify::discharge`]).
    pub refine_cfg: RefineConfig,
}

/// The iteration budget of each exhaustive rewrite pass (every
/// `exhaust`/`exhaust_in_region` call gets the whole budget).
const MAX_REWRITES: usize = 100_000;

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
    /// Whether phase 3 finished purely by catalogue rewrites (no oracle
    /// region collapse needed).
    pub pure_by_rewrites: bool,
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

/// Assembles a report, draining the engine's deferred obligations (if any)
/// into it.
fn report_of(
    engine: &mut Engine,
    transformed: bool,
    refusal: Option<Refusal>,
    pure_by_rewrites: bool,
) -> PipelineReport {
    PipelineReport {
        transformed,
        refusal,
        rewrites: engine.rewrites_applied(),
        pure_by_rewrites,
        obligations: std::mem::take(&mut engine.obligations),
    }
}

/// Applies rewrites exhaustively but only at matches fully inside `region`,
/// keeping the region set updated with freshly created nodes.
fn exhaust_in_region(
    engine: &mut Engine,
    mut g: ExprHigh,
    region: &mut BTreeSet<NodeId>,
    rws: &[Rewrite],
    max_iters: usize,
) -> Result<ExprHigh, PipelineError> {
    'outer: for _ in 0..max_iters {
        for rw in rws {
            let m = rw.matches(&g).into_iter().find(|m| m.nodes.iter().all(|n| region.contains(n)));
            if let Some(m) = m {
                g = engine.apply_at(&g, rw, &m)?;
                for n in &m.nodes {
                    region.remove(n);
                }
                let applied = engine.log.last().expect("a successful application is logged");
                region.extend(applied.created.iter().cloned());
                continue 'outer;
            }
        }
        return Ok(g);
    }
    Ok(g)
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
    let region2 = region.clone();
    Rewrite::new(
        "region-to-pure",
        true,
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
            let _ = &region2;
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
        true,
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

/// Phases 1–2, shared with the DF-OoO baseline: the normalized graph and
/// the marked loop.
pub(crate) fn normalize(
    engine: &mut Engine,
    g: ExprHigh,
    init: &NodeId,
) -> Result<(ExprHigh, Option<SeqLoop>), PipelineError> {
    let phase1 = [
        catalog::normalize::mux_combine(),
        catalog::normalize::branch_combine(),
        catalog::normalize::fork_flatten(),
    ];
    let refs: Vec<&Rewrite> = phase1.iter().collect();
    let g = engine.exhaust(g, &refs, MAX_REWRITES)?;
    let phase2 = [
        catalog::elim::fork1_elim(),
        catalog::elim::split_join_elim(),
        catalog::elim::fork_sink_prune(),
    ];
    let refs: Vec<&Rewrite> = phase2.iter().collect();
    let g = engine.exhaust(g, &refs, MAX_REWRITES)?;
    let l = loop_with_init(&g, init);
    Ok((g, l))
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
    let original = graph.clone();

    // A store queue serialises memory accesses by the *arrival order* of
    // its sequence stream; tagging the region around it would reorder that
    // stream and break the program-order commit guarantee. Until the
    // rewrite catalogue grows an LSQ-aware tagging rule, refuse outright —
    // the circuit stays correct, just in-order.
    if let Some(n) = graph
        .nodes()
        .find(|(_, k)| matches!(k, CompKind::StoreQueue { .. }))
        .map(|(n, _)| n.clone())
    {
        return Ok((
            original,
            report_of(
                &mut engine,
                false,
                Some(Refusal::ImpureBody(format!("store queue at `{n}`"))),
                false,
            ),
        ));
    }

    // Phases 1-2.
    let (g, l) = normalize(&mut engine, graph.clone(), init)?;
    let l = match l {
        Some(l) => l,
        None => {
            return Ok((
                original,
                report_of(&mut engine, false, Some(Refusal::LoopNotFound), false),
            ))
        }
    };

    // Record the normalized body for phase 5.
    let region0 = loop_body_region(&g, &l);
    if let Some(impure) = region0.iter().find(|n| !g.kind(n).expect("node").is_effect_free()) {
        return Ok((
            original,
            report_of(
                &mut engine,
                false,
                Some(Refusal::ImpureBody(format!("store at `{impure}`"))),
                false,
            ),
        ));
    }
    let body_input = match wire_consumer(&g, &ep(l.mux.clone(), "out")) {
        Some(e) => e,
        None => {
            return Ok((
                original,
                report_of(&mut engine, false, Some(Refusal::LoopNotFound), false),
            ))
        }
    };
    // Body outputs: the wires feeding branch.in and fork.in.
    let data_out = match g.driver(&ep(l.branch.clone(), "in")) {
        Some(Attachment::Wire(e)) => e,
        _ => {
            return Ok((
                original,
                report_of(&mut engine, false, Some(Refusal::LoopNotFound), false),
            ))
        }
    };
    let cond_out = match g.driver(&ep(l.fork.clone(), "in")) {
        Some(Attachment::Wire(e)) => e,
        _ => {
            return Ok((
                original,
                report_of(&mut engine, false, Some(Refusal::LoopNotFound), false),
            ))
        }
    };

    // Snapshot the body fragment for phase 5.
    let mut body_snapshot = ExprHigh::new();
    for n in &region0 {
        body_snapshot.add_node(n.clone(), g.kind(n).expect("node").clone()).expect("snapshot node");
    }
    for (from, to) in g.edges() {
        if region0.contains(&from.node) && region0.contains(&to.node) {
            body_snapshot.connect(from.clone(), to.clone()).expect("snapshot edge");
        }
    }

    // Phase 3a: rewrite-based pure generation inside the region.
    let mut region = region0.clone();
    let to_pure = [
        catalog::pure_gen::op_to_pure(),
        catalog::pure_gen::load_to_pure(),
        catalog::pure_gen::constant_to_pure(),
    ];
    let mut g = exhaust_in_region(&mut engine, g, &mut region, &to_pure, MAX_REWRITES)?;
    let absorb = [
        catalog::pure_gen::fork_to_pure(),
        catalog::pure_gen::pure_fuse(),
        catalog::pure_gen::pure_over_join_left(),
        catalog::pure_gen::pure_over_join_right(),
        catalog::pure_gen::pure_over_split_left(),
        catalog::pure_gen::pure_over_split_right(),
        catalog::pure_gen::split_fst(),
        catalog::pure_gen::split_snd(),
        catalog::elim::split_join_elim(),
        catalog::elim::split_join_swap(),
        catalog::elim::join_split_elim(),
        catalog::elim::sink_absorb_pure(),
    ];
    g = exhaust_in_region(&mut engine, g, &mut region, &absorb, MAX_REWRITES)?;

    // Re-locate the loop (rewrites did not touch the steering nodes).
    let l = match loop_with_init(&g, init) {
        Some(l) => l,
        None => {
            return Ok((
                original,
                report_of(&mut engine, false, Some(Refusal::LoopNotFound), false),
            ))
        }
    };
    let region_now = loop_body_region(&g, &l);

    // Is the region already the canonical `Pure; Split`?
    let is_canonical = {
        let mut pure_split = false;
        if region_now.len() == 2 {
            let mut kinds: Vec<&CompKind> =
                region_now.iter().map(|n| g.kind(n).expect("node")).collect();
            kinds.sort_by_key(|k| k.type_name());
            if matches!(kinds[0], CompKind::Pure { .. }) && matches!(kinds[1], CompKind::Split) {
                pure_split = true;
            }
        }
        pure_split
    };

    let pure_by_rewrites = is_canonical;
    if !is_canonical {
        // Phase 3b: oracle — extract the region function symbolically,
        // simplify it with the e-graph, and apply the checked
        // region-to-Pure rewrite.
        let rf = match extract_region_function(&g, &region_now) {
            Ok(rf) => rf,
            Err(ExtractError::Impure(n)) => {
                return Ok((
                    original,
                    report_of(
                        &mut engine,
                        false,
                        Some(Refusal::ImpureBody(format!("store at `{n}`"))),
                        false,
                    ),
                ))
            }
            Err(e) => {
                return Ok((
                    original,
                    report_of(
                        &mut engine,
                        false,
                        Some(Refusal::NotReducible(e.to_string())),
                        false,
                    ),
                ))
            }
        };
        // Identify the data and condition outputs.
        let data_now = match g.driver(&ep(l.branch.clone(), "in")) {
            Some(Attachment::Wire(e)) => e,
            _ => unreachable!("normalized loop has a branch input"),
        };
        let cond_now = match g.driver(&ep(l.fork.clone(), "in")) {
            Some(Attachment::Wire(e)) => e,
            _ => unreachable!("normalized loop has a fork input"),
        };
        let find = |target: &Endpoint| {
            rf.outputs.iter().find(|(e, _)| e == target).map(|(_, f)| f.clone())
        };
        let (f_data, f_cond) = match (find(&data_now), find(&cond_now)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Ok((
                    original,
                    report_of(
                        &mut engine,
                        false,
                        Some(Refusal::NotReducible(
                            "region outputs do not line up with branch/fork".into(),
                        )),
                        false,
                    ),
                ))
            }
        };
        let func = simplify(&PureFn::pair(f_data, f_cond), 6);
        let rw =
            region_to_pure_rewrite(region_now.clone(), rf.input.clone(), data_now, cond_now, func);
        match engine.apply_first(&g, &rw) {
            Ok(Some(g2)) => g = g2,
            Ok(None) => unreachable!("targeted rewrite always matches"),
            Err(e) => return Err(PipelineError::Rewrite(e)),
        }
    }

    // Phase 4: the verified out-of-order loop rewrite.
    let l = match loop_with_init(&g, init) {
        Some(l) => l,
        None => unreachable!("loop steering survived phase 3"),
    };
    let rw = catalog::ooo::loop_ooo_at(opts.tags, l.mux.clone());
    let g = match engine.apply_first(&g, &rw)? {
        Some(g2) => g2,
        None => {
            return Ok((
                original,
                report_of(
                    &mut engine,
                    false,
                    Some(Refusal::NotReducible("canonical loop shape not reached".into())),
                    pure_by_rewrites,
                ),
            ))
        }
    };

    // Phase 5: expand the Pure back into the recorded body inside the
    // tagged region. Locate the (merge -> pure -> split) chain.
    let (pure_node, split_node) = {
        let mut found = None;
        for (n, kind) in g.nodes() {
            if !matches!(kind, CompKind::Merge) {
                continue;
            }
            if let Some(p) = wire_consumer(&g, &ep(n.clone(), "out")) {
                if matches!(g.kind(&p.node), Some(CompKind::Pure { .. })) {
                    if let Some(s) = wire_consumer(&g, &ep(p.node.clone(), "out")) {
                        if matches!(g.kind(&s.node), Some(CompKind::Split)) {
                            found = Some((p.node.clone(), s.node.clone()));
                            break;
                        }
                    }
                }
            }
        }
        match found {
            Some(x) => x,
            None => unreachable!("phase 4 produced a merge->pure->split chain"),
        }
    };
    let rw =
        pure_expand_rewrite(pure_node, split_node, body_snapshot, body_input, data_out, cond_out);
    let g = match engine.apply_first(&g, &rw)? {
        Some(g2) => g2,
        None => unreachable!("targeted expansion always matches"),
    };

    Ok((g, report_of(&mut engine, true, None, pure_by_rewrites)))
}
