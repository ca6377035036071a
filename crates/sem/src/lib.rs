//! Semantics and refinement of dataflow circuits.
//!
//! This crate is the executable counterpart of §4 of the Graphiti paper
//! (ASPLOS 2026):
//!
//! * [`Module`] — the semantic object of Fig. 7: input/output/internal
//!   transition relations plus initial states, with the combinators
//!   [`Module::product`] (`⊎`) and [`Module::connect`] (`[o ⇝ i]`).
//! * [`component_module`] — the standard environment ε giving queue-based
//!   semantics to every component kind, including the locally
//!   nondeterministic Merge and the Tagger/Untagger reorder buffer.
//! * [`denote`] — the denotation `⟦·⟧ε` of ExprLow expressions.
//! * [`check_refinement`] — the bounded, executable counterpart of the
//!   paper's refinement proofs: trace inclusion via subset construction
//!   over weak steps. It checks trace inclusion, which refinement implies;
//!   it does not construct or verify the simulation relation φ of §4.4.
//! * [`run_random`] — seeded nondeterministic execution for property tests.
//!
//! # Example: a rewrite's semantic obligation
//!
//! ```
//! use graphiti_ir::{CompKind, ExprLow, PortName, Value};
//! use graphiti_sem::{check_refinement, denote, Env, RefineConfig};
//!
//! // Two chained buffers vs one buffer: same traces.
//! let one = ExprLow::base("a", CompKind::Buffer { slots: 1, transparent: false });
//! let two = ExprLow::Product(
//!     Box::new(ExprLow::base("a", CompKind::Buffer { slots: 1, transparent: false })),
//!     Box::new(ExprLow::base("b", CompKind::Buffer { slots: 1, transparent: false })),
//! )
//! .connect_all([(PortName::local("a", "out"), PortName::local("b", "in"))]);
//!
//! let env = Env::standard();
//! let m_one = denote(&one, &env);
//! let mut m_two = denote(&two, &env);
//! // Align port names: expose b.out as a.out.
//! let out_map = [(PortName::local("b", "out"), PortName::local("a", "out"))]
//!     .into_iter()
//!     .collect();
//! m_two = m_two.rename(&Default::default(), &out_map);
//!
//! let cfg = RefineConfig::with_domain(vec![Value::Int(0), Value::Int(1)]);
//! assert!(check_refinement(&m_two, &m_one, &cfg).is_ok());
//! ```

#![warn(missing_docs)]

mod components;
mod denote;
mod exec;
mod intern;
mod module;
mod refine;
mod state;
mod traces;

pub use components::{component_module, retag, untag_all};
pub use denote::{denote, denote_graph, Env};
pub use exec::{run_random, RunResult};
pub use module::{InputFn, Module, OutputFn};
pub use refine::{
    check_refinement, check_refinement_with_stats, BoundHit, BoundKind, Event, RefineConfig,
    RefineStats, Refinement,
};
pub use state::{CompState, State, TaggerState};
pub use traces::{bounded_traces, trace_subset};
