//! A mini dynamic-HLS front-end: loop-nest programs lowered to elastic
//! dataflow circuits.
//!
//! This crate substitutes for the Dynamatic front-end in the paper's flow
//! (Fig. 1): benchmarks are written in a small normalized loop-nest language
//! ([`Program`] / [`OuterLoop`] / [`InnerLoop`]), interpreted directly for
//! reference results ([`run_program`]), and compiled to latency-insensitive
//! dataflow circuits in the fast-token-delivery style ([`compile`]) — the
//! exact sequential Mux/Branch loop shape of the paper's Fig. 2b that the
//! Graphiti rewrites then normalize and make out-of-order.
//!
//! # Example
//!
//! ```
//! use graphiti_frontend::{compile_kernel, Expr, InnerLoop, OuterLoop};
//! use graphiti_ir::Op;
//!
//! // for i in 0..4 { (a, b) = (i + 6, 4); do { (a, b) = (b, a % b) } while b != 0 }
//! let kernel = OuterLoop {
//!     var: "i".into(),
//!     trip: 4,
//!     inner: InnerLoop {
//!         vars: vec![
//!             ("a".into(), Expr::addi(Expr::var("i"), Expr::int(6))),
//!             ("b".into(), Expr::int(4)),
//!         ],
//!         update: vec![
//!             ("a".into(), Expr::var("b")),
//!             ("b".into(), Expr::bin(Op::Mod, Expr::var("a"), Expr::var("b"))),
//!         ],
//!         cond: Expr::un(Op::NeZero, Expr::var("b")),
//!         effects: vec![],
//!     },
//!     epilogue: vec![],
//!     ooo_tags: Some(8),
//! };
//! let circuit = compile_kernel(&kernel, "gcd")?;
//! circuit.graph.validate()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod codegen;
mod text;

pub use ast::{
    run_kernel, run_program, Expr, InnerLoop, InterpError, Memory, OuterLoop, Program, StoreStmt,
};
pub use codegen::{compile, compile_kernel, CodegenError, CompiledProgram, KernelCircuit};
pub use text::{parse_expr, parse_program, print_expr, print_program, TextError};
