//! Cycle-accurate simulation, buffer placement, timing, and area models for
//! elastic dataflow circuits.
//!
//! This crate is the performance substrate of the reproduction: it plays the
//! role of ModelSim (cycle counts), Vivado (clock period and LUT/FF/DSP
//! after place-and-route), and Dynamatic's buffer placement in the paper's
//! evaluation flow (§6.1):
//!
//! * [`simulate`] / [`CompiledCircuit`] — latency-insensitive cycle simulation
//!   with pipelined functional units, tag-transparent computation, a
//!   reorder-buffer Tagger/Untagger, and an arrival-order store model;
//! * [`place_buffers`] — deadlock-avoiding buffer placement (opaque buffers
//!   on every back-edge, sized to the tag budget);
//! * [`elastic_clock_period`] — longest register-to-register path;
//! * [`circuit_area`] — LUT/FF/DSP totals.
//!
//! # Example
//!
//! ```
//! use graphiti_ir::{ep, CompKind, ExprHigh, Op, Value};
//! use graphiti_sim::{simulate, Memory, SimConfig};
//! use std::collections::BTreeMap;
//!
//! let mut g = ExprHigh::new();
//! g.add_node("f", CompKind::Fork { ways: 2 })?;
//! g.add_node("m", CompKind::Operator { op: Op::MulF })?;
//! g.expose_input("x", ep("f", "in"))?;
//! g.connect(ep("f", "out0"), ep("m", "in0"))?;
//! g.connect(ep("f", "out1"), ep("m", "in1"))?;
//! g.expose_output("y", ep("m", "out"))?;
//!
//! let feeds: BTreeMap<String, Vec<Value>> =
//!     [("x".to_string(), vec![Value::from_f64(3.0)])].into_iter().collect();
//! let r = simulate(&g, &feeds, Memory::new(), SimConfig::default())?;
//! assert_eq!(r.outputs["y"], vec![Value::from_f64(9.0)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod area;
mod compile;
mod memory;
mod place;
mod sim;
pub mod stall;
mod timing;
mod wave;

pub use area::{circuit_area, component_area, op_area, Area};
pub use compile::{compile_cache_clear, compile_cache_stats, CompileStats, CompiledCircuit};
pub use memory::{mem_read, mem_write, MemError, Memory};
pub use place::{place_buffers, place_buffers_targeted, PlacementStats};
pub use sim::{
    op_latency, purefn_latency, simulate, Scheduler, SimConfig, SimError, SimResult, TraceEvent,
};
pub use stall::{
    DeadlockReport, NodeWaitStats, StallCause, StallChain, StallReport, StuckNode, STALL_CAUSES,
};
pub use timing::{elastic_clock_period, elastic_timing, NodeTiming, TimingError};
