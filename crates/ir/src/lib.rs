//! Graph languages for dataflow circuits.
//!
//! This crate defines the two circuit representations at the heart of the
//! Graphiti rewriting framework (ASPLOS 2026):
//!
//! * [`ExprHigh`] — a named graph of dataflow components connected port to
//!   port, with graph-level inputs and outputs. Rewrites are *matched* here,
//!   and the engine applies them here too, by splicing the replacement in.
//! * [`ExprLow`] — an inductive expression language (`base | e ⊗ e |
//!   connect(o, i, e)`) suited to verification. The paper applies rewrites
//!   here by structural substitution and lifts the result back (§4.2); that
//!   path is the spec the engine's debug builds check every splice against,
//!   and refinement obligations are stated on ExprLow.
//!
//! It also defines the token [`Value`] domain (including tags), component
//! kinds ([`CompKind`]) with their port interfaces, primitive operators
//! ([`Op`]), the symbolic pure-function language ([`PureFn`]) used by pure
//! generation, conversion between the two representations
//! ([`lower`]/[`lower_grouped`]/[`lower_group`]/[`lift`]), and a
//! Dynamatic-style DOT interchange format ([`parse_dot`]/[`print_dot`]).
//!
//! # Example
//!
//! ```
//! use graphiti_ir::{ep, CompKind, ExprHigh, Op, lower, lift};
//! let mut g = ExprHigh::new();
//! g.add_node("f", CompKind::Fork { ways: 2 })?;
//! g.add_node("m", CompKind::Operator { op: Op::Mod })?;
//! g.expose_input("x", ep("f", "in"))?;
//! g.connect(ep("f", "out0"), ep("m", "in0"))?;
//! g.connect(ep("f", "out1"), ep("m", "in1"))?;
//! g.expose_output("y", ep("m", "out"))?;
//! let lowered = lower(&g)?;
//! assert_eq!(lift(&lowered)?, g);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod component;
mod dot;
mod func;
mod high;
mod low;
mod lower;
mod value;

pub use component::{lsq_site_counts, CompKind};
pub use dot::{
    parse_dot, parse_purefn, parse_value, print_dot, print_purefn, print_value, DotError,
};
pub use func::{EvalError, Op, PureFn};
pub use high::{ep, Attachment, Endpoint, ExprHigh, GraphError, NodeId};
pub use low::{ExprLow, PortMaps, PortName};
pub use lower::{lift, lift_expr, lower, lower_group, lower_grouped, LowerError, Lowered};
pub use value::{Tag, Ty, Value};
