//! The rewriting engine.
//!
//! A [`Rewrite`] is a pair of a *matcher* (which finds instances of the
//! left-hand side in an [`ExprHigh`] graph) and a *builder* (which produces
//! the replacement for a concrete match). The paper defines applying a
//! rewrite as substitution on ExprLow (§3, §4.2):
//!
//! 1. the match designates a node set; the graph is lowered with
//!    [`lower_grouped`](graphiti_ir::lower_grouped) so those nodes form a
//!    contiguous ExprLow sub-expression `e_lhs`;
//! 2. the replacement is rendered as an ExprLow fragment `e_rhs` exposing
//!    exactly the same dangling port names;
//! 3. the substitution `e[e_lhs := e_rhs]` rewrites the expression, which is
//!    lifted back to ExprHigh.
//!
//! The engine reaches the same graph by splicing one [`ExprHigh`] in place:
//! it removes the matched nodes, adds the freshly named replacement and
//! re-attaches the match's old drivers and consumers to it, so an
//! application costs the size of the match rather than of the circuit.
//! Every check that can refuse an application runs first: the builder, the
//! boundary, the fragment, the obligation, the attachments the splice will
//! re-attach, and completeness of the nodes outside the match. So a refusal
//! leaves the graph as it was, and the splice itself cannot fail. A splice
//! keeps a complete graph complete, so completeness is checked once per
//! [`Engine::apply_at`], [`Engine::apply_first`] or [`Engine::exhaust`]
//! call, not per application.
//!
//! The substitution stays as the executable spec: debug builds clone the
//! graph before each splice, rebuild every [`Replacement::Subgraph`]
//! application from the clone through steps 1–3 and assert that the graphs
//! are equal, and validate the whole graph after every splice. Release
//! builds do neither. ExprLow is otherwise built only for refinement
//! obligations, and then only for the matched group
//! ([`lower_group`](graphiti_ir::lower_group)) and the replacement.
//!
//! In [`CheckMode::Deferred`] the engine records the premise of Theorem 4.6
//! for every application: the pair `(e_lhs, e_rhs)` whose refinement
//! `⟦e_rhs⟧ ⊑ ⟦e_lhs⟧` must hold, as an [`Obligation`]. The batch is
//! discharged after rewriting by [`crate::verify::discharge`].
//!
//! Rewrites whose right-hand side is pure wiring (e.g. eliminating a 1-way
//! fork) use a [`Replacement::Passthrough`], spliced the same way; their
//! check obligation models each wire as an elastic buffer.

#[cfg(debug_assertions)]
use graphiti_ir::{lift_expr, lower_grouped};
use graphiti_ir::{
    lower_group, Attachment, CompKind, Endpoint, ExprHigh, ExprLow, GraphError, LowerError, NodeId,
    PortMaps, PortName,
};

/// Bumps `rewrite.{kind}.{name}` when obs collection is enabled.
///
/// Counter handles are memoised in a thread-local cache, so the hot
/// rewriting loop pays the name format and registry lock once per
/// (kind, rewrite) rather than once per attempt. The cache is keyed on
/// [`graphiti_obs::generation`]: an `obs::reset()` detaches existing
/// handles from the registry, and the generation bump makes the cache
/// re-fetch instead of recording into detached metrics.
fn bump_rewrite_counter(kind: &'static str, name: &'static str) {
    if !graphiti_obs::enabled() {
        return;
    }
    thread_local! {
        #[allow(clippy::type_complexity)]
        static CACHE: std::cell::RefCell<(
            u64,
            BTreeMap<(&'static str, &'static str), graphiti_obs::Counter>,
        )> = const { std::cell::RefCell::new((0, BTreeMap::new())) };
    }
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let generation = graphiti_obs::generation();
        if cache.0 != generation {
            cache.1.clear();
            cache.0 = generation;
        }
        cache
            .1
            .entry((kind, name))
            .or_insert_with(|| graphiti_obs::counter(&format!("rewrite.{kind}.{name}")))
            .inc();
    });
}
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The applications one [`Engine::exhaust`] pass may make before it stops,
/// whether or not a rewrite still matches.
const EXHAUST_BUDGET: usize = 100_000;

/// A concrete occurrence of a rewrite's left-hand side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// The matched nodes (removed by the rewrite).
    pub nodes: BTreeSet<NodeId>,
    /// Pattern-role bindings, e.g. `"mux_a" → "mux3"`.
    pub bindings: BTreeMap<String, NodeId>,
}

impl Match {
    /// The node bound to `role`.
    ///
    /// # Panics
    ///
    /// Panics if the role is unbound — a rewrite implementation bug.
    pub fn node(&self, role: &str) -> &NodeId {
        &self.bindings[role]
    }
}

/// The right-hand side produced by a rewrite's builder for a match.
#[derive(Debug, Clone)]
pub enum Replacement {
    /// Replace the matched nodes by a fresh subgraph. The subgraph's
    /// external inputs/outputs name the boundary; the maps say which old
    /// boundary port each one takes over.
    Subgraph {
        /// The replacement fragment, with external ports at its boundary.
        graph: ExprHigh,
        /// Subgraph external input name → the old in-port (on a matched
        /// node) whose driver it inherits.
        boundary_ins: BTreeMap<String, Endpoint>,
        /// Subgraph external output name → the old out-port whose consumer
        /// it inherits.
        boundary_outs: BTreeMap<String, Endpoint>,
    },
    /// Replace the matched nodes by direct wires: each pair connects the
    /// driver of an old boundary in-port to the consumer of an old boundary
    /// out-port.
    Passthrough {
        /// `(old in-port, old out-port)` pairs.
        wires: Vec<(Endpoint, Endpoint)>,
    },
}

/// Errors raised while applying rewrites.
#[derive(Debug, Clone)]
pub enum RewriteError {
    /// Underlying graph manipulation failed.
    Graph(GraphError),
    /// Lowering or lifting failed.
    Lower(LowerError),
    /// The replacement does not cover the match's boundary exactly.
    BoundaryMismatch(String),
    /// The rewrite's builder rejected the match.
    BuilderFailed(String),
    /// A structural assumption did not hold.
    Unsupported(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Graph(e) => write!(f, "graph error: {e}"),
            RewriteError::Lower(e) => write!(f, "lowering error: {e}"),
            RewriteError::BoundaryMismatch(m) => write!(f, "boundary mismatch: {m}"),
            RewriteError::BuilderFailed(m) => write!(f, "builder failed: {m}"),
            RewriteError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<GraphError> for RewriteError {
    fn from(e: GraphError) -> Self {
        RewriteError::Graph(e)
    }
}

impl From<LowerError> for RewriteError {
    fn from(e: LowerError) -> Self {
        RewriteError::Lower(e)
    }
}

type MatcherFn = Box<dyn Fn(&ExprHigh) -> Vec<Match>>;
type BuilderFn = Box<dyn Fn(&ExprHigh, &Match) -> Result<Replacement, RewriteError>>;

/// A graph rewrite: a named matcher/builder pair. Every application
/// incurs a refinement obligation.
pub struct Rewrite {
    /// Rewrite name, e.g. `"mux-combine"`.
    pub name: &'static str,
    matcher: MatcherFn,
    builder: BuilderFn,
}

impl fmt::Debug for Rewrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite").field("name", &self.name).finish()
    }
}

impl Rewrite {
    /// Creates a rewrite.
    pub fn new(
        name: &'static str,
        matcher: impl Fn(&ExprHigh) -> Vec<Match> + 'static,
        builder: impl Fn(&ExprHigh, &Match) -> Result<Replacement, RewriteError> + 'static,
    ) -> Rewrite {
        Rewrite { name, matcher: Box::new(matcher), builder: Box::new(builder) }
    }

    /// All matches of the left-hand side in `g`, in deterministic order.
    pub fn matches(&self, g: &ExprHigh) -> Vec<Match> {
        (self.matcher)(g)
    }

    /// The replacement for a concrete match.
    ///
    /// # Errors
    ///
    /// Propagates the builder's rejection of the match.
    pub fn build(&self, g: &ExprHigh, m: &Match) -> Result<Replacement, RewriteError> {
        (self.builder)(g, m)
    }
}

/// Whether applications incur refinement obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Apply without semantic checks (fast path; the default for the
    /// benchmark pipeline, matching the extracted Lean code's behaviour).
    Off,
    /// Record each application's obligation (the lowered `lhs`/`rhs` pair)
    /// in [`Engine::obligations`]. Obligations are plain data, so the batch
    /// is discharged after rewriting on worker threads — see
    /// [`crate::verify::discharge`].
    Deferred,
}

/// A refinement obligation: one rewrite application, captured as the
/// lowered expression pair `⟦rhs⟧ ⊑ ⟦lhs⟧` is checked on. `ExprLow` is plain
/// data (`Send`), so obligations collected on the rewriting thread can be
/// discharged in parallel.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Name of the rewrite that incurred the obligation.
    pub rewrite: String,
    /// The matched left-hand side as a contiguous `ExprLow` group.
    pub lhs: ExprLow,
    /// The rendered replacement; the obligation is `⟦rhs⟧ ⊑ ⟦lhs⟧`.
    pub rhs: ExprLow,
}

/// One recorded rewrite application.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Name of the rewrite.
    pub rewrite: String,
    /// Nodes that were replaced.
    pub nodes: BTreeSet<NodeId>,
    /// Fresh names of the nodes the replacement added, in the order they
    /// were allocated (empty for a passthrough).
    pub created: Vec<NodeId>,
}

/// The rewriting engine: applies rewrites, keeps a log, and (optionally)
/// records refinement obligations.
#[derive(Debug)]
pub struct Engine {
    /// Whether refinement obligations are recorded.
    pub mode: CheckMode,
    /// Log of applications, in order.
    pub log: Vec<Applied>,
    /// Obligations collected in [`CheckMode::Deferred`], in application
    /// order; empty when checks are off.
    pub obligations: Vec<Obligation>,
    fresh_counter: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with checks off.
    pub fn new() -> Engine {
        Engine { mode: CheckMode::Off, log: Vec::new(), obligations: Vec::new(), fresh_counter: 0 }
    }

    /// An engine that records the obligation of every application.
    pub fn deferring() -> Engine {
        Engine { mode: CheckMode::Deferred, ..Engine::new() }
    }

    /// Number of rewrite applications so far.
    pub fn rewrites_applied(&self) -> usize {
        self.log.len()
    }

    /// Applies `rw` at its first match, rewriting `g` in place. Returns
    /// whether `rw` matched.
    ///
    /// # Errors
    ///
    /// Fails on builder rejection, boundary mistakes or an incomplete
    /// graph; `g` is then left as it was.
    pub fn apply_first(&mut self, g: &mut ExprHigh, rw: &Rewrite) -> Result<bool, RewriteError> {
        self.apply_first_in(g, rw, &mut false)
    }

    /// [`Engine::apply_first`]. Every try counts as `attempted` and the
    /// match taken as `matched`.
    fn apply_first_in(
        &mut self,
        g: &mut ExprHigh,
        rw: &Rewrite,
        complete: &mut bool,
    ) -> Result<bool, RewriteError> {
        bump_rewrite_counter("attempted", rw.name);
        let Some(m) = rw.matches(g).into_iter().next() else { return Ok(false) };
        bump_rewrite_counter("matched", rw.name);
        self.apply(g, rw, &m, complete)?;
        Ok(true)
    }

    /// Applies `rw` at the given match, rewriting `g` in place.
    ///
    /// # Errors
    ///
    /// See [`Engine::apply_first`].
    pub fn apply_at(
        &mut self,
        g: &mut ExprHigh,
        rw: &Rewrite,
        m: &Match,
    ) -> Result<(), RewriteError> {
        self.apply(g, rw, m, &mut false)
    }

    /// [`Engine::apply_at`]. `complete` says whether `g` is already known
    /// to be complete; the first application to check it sets it.
    fn apply(
        &mut self,
        g: &mut ExprHigh,
        rw: &Rewrite,
        m: &Match,
        complete: &mut bool,
    ) -> Result<(), RewriteError> {
        let r = {
            // Per-rewrite attribution: each application is its own span, so
            // `graphiti-cli profile` can cost rewrites individually.
            let _span = graphiti_obs::span(rw.name);
            self.apply_at_inner(g, rw, m, complete)
        };
        match &r {
            Ok(()) => {
                bump_rewrite_counter("applied", rw.name);
                graphiti_obs::flight::record("rewrite.applied", || {
                    format!(
                        "{} at [{}]",
                        rw.name,
                        m.nodes.iter().cloned().collect::<Vec<_>>().join(", ")
                    )
                });
            }
            Err(e) => {
                bump_rewrite_counter("refused", rw.name);
                graphiti_obs::flight::record("rewrite.refused", || format!("{}: {e}", rw.name));
            }
        }
        r
    }

    /// Checks the application, then splices it. Every check that can refuse
    /// runs before the first mutation, so a refusal leaves `g` as it was.
    fn apply_at_inner(
        &mut self,
        g: &mut ExprHigh,
        rw: &Rewrite,
        m: &Match,
        complete: &mut bool,
    ) -> Result<(), RewriteError> {
        let repl = rw.build(g, m)?;
        self.validate_boundary(g, m, &repl)?;
        let repl = match &repl {
            Replacement::Subgraph { graph, boundary_ins, boundary_outs } => {
                Resolved::Subgraph(self.fragment(g, graph, boundary_ins, boundary_outs)?)
            }
            Replacement::Passthrough { wires } => Resolved::Passthrough(wires),
        };

        let obligation = if self.mode == CheckMode::Deferred {
            // A passthrough with no wires has no expressible rhs.
            let rhs = render_rhs(g, &repl)
                .ok_or_else(|| RewriteError::Unsupported("rewrite with unrenderable rhs".into()))?;
            let lhs = lower_group(g, &m.nodes)?;
            Some(Obligation { rewrite: rw.name.to_string(), lhs, rhs })
        } else {
            None
        };

        let links = repl.links(g)?;
        // Every port this check can report lies outside the match: an open
        // port on a matched node was refused above. A splice of a checked
        // replacement keeps a complete graph complete, so later
        // applications of the same call skip the check.
        if !*complete {
            g.validate_except(&m.nodes)?;
            *complete = true;
        }

        // Nothing below can refuse.
        #[cfg(debug_assertions)]
        let before = g.clone();
        let created = repl.splice(g, m, links);
        #[cfg(debug_assertions)]
        {
            if let Err(e) = g.validate() {
                panic!("`{}` spliced an incomplete graph: {e}", rw.name);
            }
            if let Resolved::Subgraph(frag) = &repl {
                let spec = substituted(&before, m, frag).unwrap_or_else(|e| {
                    panic!("`{}` spliced, but e[lhs := rhs] (§4.2) fails: {e}", rw.name)
                });
                assert_eq!(
                    spec, *g,
                    "`{}` spliced a different graph than e[lhs := rhs] (§4.2)",
                    rw.name
                );
            }
        }

        self.obligations.extend(obligation);
        self.log.push(Applied { rewrite: rw.name.to_string(), nodes: m.nodes.clone(), created });
        Ok(())
    }

    /// Applies the rewrites exhaustively to `g` in place: repeatedly the
    /// first match of the first rewrite that has one, until none has (or
    /// after `EXHAUST_BUDGET` applications).
    ///
    /// # Errors
    ///
    /// See [`Engine::apply_first`]. The applications made before the
    /// refused one stay in `g`.
    pub fn exhaust(&mut self, g: &mut ExprHigh, rws: &[Rewrite]) -> Result<(), RewriteError> {
        let mut complete = false;
        'apply: for _ in 0..EXHAUST_BUDGET {
            for rw in rws {
                if self.apply_first_in(g, rw, &mut complete)? {
                    continue 'apply;
                }
            }
            return Ok(());
        }
        Ok(())
    }

    /// A node name unique in `g` and across this engine's applications.
    pub fn fresh_name(&mut self, g: &ExprHigh, stem: &str) -> NodeId {
        loop {
            self.fresh_counter += 1;
            let cand = format!("{stem}_{}", self.fresh_counter);
            if g.kind(&cand).is_none() {
                return cand;
            }
        }
    }

    /// The actual boundary ports of the matched node set.
    fn boundary_ports(&self, g: &ExprHigh, m: &Match) -> (BTreeSet<Endpoint>, BTreeSet<Endpoint>) {
        let mut b_ins = BTreeSet::new();
        let mut b_outs = BTreeSet::new();
        for n in &m.nodes {
            let kind = g.kind(n).expect("matched node exists");
            let (ins, outs) = kind.interface();
            for p in ins {
                let e = Endpoint::new(n.clone(), p);
                match g.driver(&e) {
                    Some(Attachment::Wire(src)) if m.nodes.contains(&src.node) => {}
                    _ => {
                        b_ins.insert(e);
                    }
                }
            }
            for p in outs {
                let e = Endpoint::new(n.clone(), p);
                match g.consumer(&e) {
                    Some(Attachment::Wire(dst)) if m.nodes.contains(&dst.node) => {}
                    _ => {
                        b_outs.insert(e);
                    }
                }
            }
        }
        (b_ins, b_outs)
    }

    fn validate_boundary(
        &self,
        g: &ExprHigh,
        m: &Match,
        repl: &Replacement,
    ) -> Result<(), RewriteError> {
        let (b_ins, b_outs) = self.boundary_ports(g, m);
        let (covered_ins, covered_outs): (BTreeSet<Endpoint>, BTreeSet<Endpoint>) = match repl {
            Replacement::Subgraph { boundary_ins, boundary_outs, .. } => (
                boundary_ins.values().cloned().collect(),
                boundary_outs.values().cloned().collect(),
            ),
            Replacement::Passthrough { wires } => (
                wires.iter().map(|(i, _)| i.clone()).collect(),
                wires.iter().map(|(_, o)| o.clone()).collect(),
            ),
        };
        if covered_ins != b_ins {
            return Err(RewriteError::BoundaryMismatch(format!(
                "inputs: expected {b_ins:?}, replacement covers {covered_ins:?}"
            )));
        }
        if covered_outs != b_outs {
            return Err(RewriteError::BoundaryMismatch(format!(
                "outputs: expected {b_outs:?}, replacement covers {covered_outs:?}"
            )));
        }
        Ok(())
    }

    /// Resolves a subgraph replacement against `g`: allocates the fragment's
    /// fresh names, once and in fragment node order, for the obligation, the
    /// splice and the debug spec check to share, and assigns each fragment
    /// port on the boundary the old port it takes over.
    ///
    /// # Errors
    ///
    /// Fails on an unconnected fragment port, a fragment external with no
    /// boundary assignment, or a boundary assignment no fragment external
    /// takes (the splice would drop that port's driver or consumer).
    fn fragment<'a>(
        &mut self,
        g: &ExprHigh,
        graph: &'a ExprHigh,
        boundary_ins: &'a BTreeMap<String, Endpoint>,
        boundary_outs: &'a BTreeMap<String, Endpoint>,
    ) -> Result<Fragment<'a>, RewriteError> {
        let rename = graph.nodes().map(|(n, _)| (n.clone(), self.fresh_name(g, n))).collect();
        let mut frag = Fragment { graph, rename, ins: BTreeMap::new(), outs: BTreeMap::new() };
        let unconnected = |here: &Endpoint| {
            RewriteError::BoundaryMismatch(format!("subgraph port `{here}` unconnected"))
        };
        for (n, kind) in graph.nodes() {
            let (ins, outs) = kind.interface();
            for p in ins {
                let here = Endpoint::new(n.clone(), p);
                match graph.driver(&here) {
                    Some(Attachment::Wire(_)) => {}
                    Some(Attachment::External(x)) => {
                        let old = boundary_ins.get(&x).ok_or_else(|| {
                            RewriteError::BoundaryMismatch(format!(
                                "subgraph input `{x}` has no boundary assignment"
                            ))
                        })?;
                        frag.ins.insert(here, old);
                    }
                    None => return Err(unconnected(&here)),
                }
            }
            for p in outs {
                let here = Endpoint::new(n.clone(), p);
                match graph.consumer(&here) {
                    Some(Attachment::Wire(_)) => {}
                    Some(Attachment::External(x)) => {
                        let old = boundary_outs.get(&x).ok_or_else(|| {
                            RewriteError::BoundaryMismatch(format!(
                                "subgraph output `{x}` has no boundary assignment"
                            ))
                        })?;
                        frag.outs.insert(here, old);
                    }
                    None => return Err(unconnected(&here)),
                }
            }
        }
        // Each fragment external took one assignment above, so a count short
        // of the maps means an assignment no external takes.
        if frag.ins.len() != boundary_ins.len() {
            let x = boundary_ins.keys().find(|x| graph.inputs().all(|(n, _)| n != *x));
            return Err(RewriteError::BoundaryMismatch(format!(
                "boundary input `{}` is not a subgraph input",
                x.expect("an unexposed assignment")
            )));
        }
        if frag.outs.len() != boundary_outs.len() {
            let y = boundary_outs.keys().find(|y| graph.outputs().all(|(n, _)| n != *y));
            return Err(RewriteError::BoundaryMismatch(format!(
                "boundary output `{}` is not a subgraph output",
                y.expect("an unexposed assignment")
            )));
        }
        Ok(frag)
    }
}

/// A replacement resolved against the graph it rewrites.
enum Resolved<'a> {
    /// A fresh subgraph with its names and boundary assignment.
    Subgraph(Fragment<'a>),
    /// Direct wires, `(old in-port, old out-port)`.
    Passthrough(&'a [(Endpoint, Endpoint)]),
}

/// What a splice re-attaches, read before it mutates anything: `(driver,
/// consumer)` pairs, each end a wire endpoint or an external port.
type Links = Vec<(Attachment, Attachment)>;

impl Resolved<'_> {
    /// The attachments the splice re-attaches, read from `g` without
    /// changing it: each boundary in-port's driver goes to the fragment port
    /// (or wire) that takes the port over, and each boundary out-port's
    /// consumer likewise.
    ///
    /// # Errors
    ///
    /// Fails on a boundary port with no driver or consumer left to inherit,
    /// and on a passthrough wire from an external input straight to an
    /// external output.
    fn links(&self, g: &ExprHigh) -> Result<Links, RewriteError> {
        let mut claims = Claims::default();
        match self {
            Resolved::Subgraph(frag) => {
                let mut links = Vec::with_capacity(frag.ins.len() + frag.outs.len());
                for (here, old) in &frag.ins {
                    links.push((claims.driver(g, old)?, Attachment::Wire(frag.renamed(here))));
                }
                for (here, old) in &frag.outs {
                    links.push((Attachment::Wire(frag.renamed(here)), claims.consumer(g, old)?));
                }
                Ok(links)
            }
            Resolved::Passthrough(wires) => {
                let links = wires
                    .iter()
                    .map(|(ep_in, ep_out)| {
                        Ok((claims.driver(g, ep_in)?, claims.consumer(g, ep_out)?))
                    })
                    .collect::<Result<Links, RewriteError>>()?;
                for link in &links {
                    if let (Attachment::External(x), Attachment::External(y)) = link {
                        return Err(RewriteError::Unsupported(format!(
                            "passthrough would wire external `{x}` directly to external `{y}`"
                        )));
                    }
                }
                Ok(links)
            }
        }
    }

    /// Splices the checked replacement into `g`: removes the matched nodes,
    /// adds the renamed fragment with its own wires and makes each of
    /// `links`. Returns the names of the nodes it added, in allocation
    /// order.
    fn splice(&self, g: &mut ExprHigh, m: &Match, links: Links) -> Vec<NodeId> {
        const CHECKED: &str = "an application is checked before its splice";
        for n in &m.nodes {
            g.remove_node(n).expect(CHECKED);
        }
        let created = match self {
            Resolved::Subgraph(frag) => {
                for (n, kind) in frag.graph.nodes() {
                    g.add_node(frag.rename[n].clone(), kind.clone()).expect(CHECKED);
                }
                for (from, to) in frag.graph.edges() {
                    g.connect(frag.renamed(from), frag.renamed(to)).expect(CHECKED);
                }
                frag.rename.values().cloned().collect()
            }
            Resolved::Passthrough(_) => Vec::new(),
        };
        for link in links {
            match link {
                (Attachment::Wire(from), Attachment::Wire(to)) => g.connect(from, to),
                (Attachment::External(x), Attachment::Wire(to)) => g.expose_input(x, to),
                (Attachment::Wire(from), Attachment::External(y)) => g.expose_output(y, from),
                (Attachment::External(_), Attachment::External(_)) => unreachable!("{CHECKED}"),
            }
            .expect(CHECKED);
        }
        created
    }
}

/// The boundary ports [`Resolved::links`] has read so far. A port read a
/// second time has nothing left to inherit, so it reports the same missing
/// driver or consumer that detaching it twice would.
#[derive(Default)]
struct Claims<'a> {
    ins: BTreeSet<&'a Endpoint>,
    outs: BTreeSet<&'a Endpoint>,
}

impl<'a> Claims<'a> {
    fn driver(&mut self, g: &ExprHigh, e: &'a Endpoint) -> Result<Attachment, RewriteError> {
        self.ins
            .insert(e)
            .then(|| g.driver(e))
            .flatten()
            .ok_or_else(|| RewriteError::BoundaryMismatch(format!("no driver for {e}")))
    }

    fn consumer(&mut self, g: &ExprHigh, e: &'a Endpoint) -> Result<Attachment, RewriteError> {
        self.outs
            .insert(e)
            .then(|| g.consumer(e))
            .flatten()
            .ok_or_else(|| RewriteError::BoundaryMismatch(format!("no consumer for {e}")))
    }
}

/// A subgraph replacement resolved by [`Engine::fragment`].
struct Fragment<'a> {
    /// The replacement, with its own node names.
    graph: &'a ExprHigh,
    /// Fragment node name → fresh name in the rewritten graph.
    rename: BTreeMap<NodeId, NodeId>,
    /// Fragment in-port on the boundary → the old in-port whose driver it
    /// inherits.
    ins: BTreeMap<Endpoint, &'a Endpoint>,
    /// Fragment out-port on the boundary → the old out-port whose consumer
    /// it inherits.
    outs: BTreeMap<Endpoint, &'a Endpoint>,
}

impl Fragment<'_> {
    /// A fragment endpoint under the fresh naming.
    fn renamed(&self, e: &Endpoint) -> Endpoint {
        Endpoint::new(self.rename[&e.node].clone(), e.port.clone())
    }

    /// The fragment as ExprLow exposing the old boundary names: the `rhs` of
    /// the application's obligation.
    fn render(&self, g: &ExprHigh) -> ExprLow {
        let mut bases = Vec::new();
        for (n, kind) in self.graph.nodes() {
            let (ins, outs) = kind.interface();
            let mut maps = PortMaps::default();
            for p in ins {
                let here = Endpoint::new(n.clone(), p.clone());
                let ext = match self.ins.get(&here) {
                    Some(old) => old_in_name(g, old),
                    None => PortName::from(self.renamed(&here)),
                };
                maps.ins.insert(p, ext);
            }
            for p in outs {
                let here = Endpoint::new(n.clone(), p.clone());
                let ext = match self.outs.get(&here) {
                    Some(old) => old_out_name(g, old),
                    None => PortName::from(self.renamed(&here)),
                };
                maps.outs.insert(p, ext);
            }
            bases.push(ExprLow::Base { inst: self.rename[n].clone(), kind: kind.clone(), maps });
        }
        let mut wires: Vec<(PortName, PortName)> = self
            .graph
            .edges()
            .map(|(from, to)| (self.renamed(from).into(), self.renamed(to).into()))
            .collect();
        wires.sort();
        ExprLow::product_of(bases).connect_all(wires)
    }
}

/// Renders the replacement as an ExprLow fragment exposing the old boundary
/// names. `None` for passthroughs with no wires to model.
fn render_rhs(g: &ExprHigh, repl: &Resolved<'_>) -> Option<ExprLow> {
    match repl {
        Resolved::Subgraph(frag) => Some(frag.render(g)),
        Resolved::Passthrough([]) => None,
        Resolved::Passthrough(wires) => {
            // Model each wire as an elastic buffer for the refinement
            // obligation (a wire is a capacity-zero buffer; traces
            // coincide).
            let bases = wires
                .iter()
                .enumerate()
                .map(|(k, (ep_in, ep_out))| {
                    let mut maps = PortMaps::default();
                    maps.ins.insert("in".into(), old_in_name(g, ep_in));
                    maps.outs.insert("out".into(), old_out_name(g, ep_out));
                    ExprLow::Base {
                        inst: format!("__wire{k}"),
                        kind: CompKind::Buffer { slots: 1, transparent: true },
                        maps,
                    }
                })
                .collect();
            Some(ExprLow::product_of(bases))
        }
    }
}

/// The ExprLow name an old boundary in-port has in the lowered whole graph.
fn old_in_name(g: &ExprHigh, e: &Endpoint) -> PortName {
    match g.driver(e) {
        Some(Attachment::External(nm)) => {
            let idx = g.inputs().position(|(n, _)| *n == nm).expect("external exists");
            PortName::Io(idx as u64)
        }
        _ => PortName::from(e.clone()),
    }
}

/// The ExprLow name an old boundary out-port has in the lowered whole graph.
fn old_out_name(g: &ExprHigh, e: &Endpoint) -> PortName {
    match g.consumer(e) {
        Some(Attachment::External(nm)) => {
            let idx = g.outputs().position(|(n, _)| *n == nm).expect("external exists");
            PortName::Io(idx as u64)
        }
        _ => PortName::from(e.clone()),
    }
}

/// The §4.2 definition of applying a subgraph replacement, which
/// [`Fragment::splice`] must reproduce exactly: lower `g` with the match
/// grouped, substitute the rendered fragment for the group, lift back.
#[cfg(debug_assertions)]
fn substituted(g: &ExprHigh, m: &Match, frag: &Fragment<'_>) -> Result<ExprHigh, RewriteError> {
    let lowered = lower_grouped(g, &m.nodes)?;
    let expr = lowered.expr.substitute(&lower_group(g, &m.nodes)?, &frag.render(g));
    Ok(lift_expr(&expr, &lowered.input_names, &lowered.output_names)?)
}

/// The wire (not external) driver of an input port.
pub fn wire_driver(g: &ExprHigh, e: &Endpoint) -> Option<Endpoint> {
    match g.driver(e) {
        Some(Attachment::Wire(src)) => Some(src),
        _ => None,
    }
}

/// The wire (not external) consumer of an output port.
pub fn wire_consumer(g: &ExprHigh, e: &Endpoint) -> Option<Endpoint> {
    match g.consumer(e) {
        Some(Attachment::Wire(dst)) => Some(dst),
        _ => None,
    }
}
