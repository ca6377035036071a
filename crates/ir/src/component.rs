//! Dataflow component kinds and their port interfaces.
//!
//! These are the elastic components of Table 1 in the paper: loop steering
//! (Mux, Branch, Merge, Init), token plumbing (Fork, Join, Split, Buffer,
//! Sink, Constant), computation (operators and the symbolic Pure component),
//! the Tagger/Untagger region boundary of the out-of-order transformation,
//! and memory ports (Load/Store) whose presence makes a loop body impure.

use crate::func::{Op, PureFn};
use crate::value::{Ty, Value};
use std::fmt;

/// The kind (type plus static parameters) of a dataflow circuit component.
///
/// A component's dynamic behaviour is given by the semantics crate; its port
/// interface is defined here by [`CompKind::interface`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompKind {
    /// Duplicates each input token to `ways` outputs.
    Fork {
        /// Number of output copies (≥ 2 after normalization; 1-way forks are
        /// eliminated by `fork1-elim`).
        ways: usize,
    },
    /// Synchronizes two inputs into a pair token.
    Join,
    /// Splits a pair token into its two components.
    Split,
    /// Emits the `t` or `f` data input according to the condition token.
    Mux,
    /// Routes the data input to the `t` or `f` output according to the
    /// condition token.
    Branch,
    /// Emits whichever input arrives first (locally nondeterministic).
    Merge,
    /// A one-slot queue pre-loaded with an initial Boolean token, used on the
    /// condition path of a sequential loop.
    Init {
        /// The pre-loaded token's payload.
        initial: bool,
    },
    /// An elastic FIFO buffer.
    Buffer {
        /// Queue capacity in tokens.
        slots: usize,
        /// Transparent buffers forward a token in the cycle it arrives (no
        /// sequential boundary); opaque buffers register it.
        transparent: bool,
    },
    /// Consumes and discards tokens.
    Sink,
    /// Emits a constant each time the control input fires.
    Constant {
        /// The constant value.
        value: Value,
    },
    /// A primitive n-ary operator.
    Operator {
        /// The operation computed.
        op: Op,
    },
    /// Application of a symbolic pure function (one input, one output).
    Pure {
        /// The function applied to each token.
        func: PureFn,
    },
    /// The Tagger/Untagger pair guarding an out-of-order region: allocates
    /// tags on entry and reorders completions on exit.
    TaggerUntagger {
        /// Size of the tag pool (bounds the number of in-flight loop
        /// executions).
        tags: u32,
    },
    /// A load port to the named memory.
    Load {
        /// Memory (array) identifier.
        mem: String,
    },
    /// A store port to the named memory. Stores make a region impure.
    Store {
        /// Memory (array) identifier.
        mem: String,
    },
    /// An in-order load/store queue serialising every access to one memory.
    ///
    /// Each access *site* (a static load or store occurrence in the source
    /// kernel) gets its own port pair; the queue commits stores and issues
    /// loads in program order, recovered from the `seq` stream: one Boolean
    /// token per inner-loop iteration (the loop condition), where `false`
    /// additionally opens the epilogue round. A load may bypass older stores
    /// only once their addresses are known to differ (memory
    /// disambiguation); stores never reorder.
    StoreQueue {
        /// Memory (array) identifier.
        mem: String,
        /// Access sites inside one loop-body iteration, in program order
        /// (`true` = store site, `false` = load site).
        body_plan: Vec<bool>,
        /// Access sites of one epilogue pass, in program order.
        epi_plan: Vec<bool>,
    },
}

impl CompKind {
    /// Ordered input and output port names of this component.
    ///
    /// ```
    /// use graphiti_ir::CompKind;
    /// let (ins, outs) = CompKind::Mux.interface();
    /// assert_eq!(ins, ["cond", "t", "f"]);
    /// assert_eq!(outs, ["out"]);
    /// ```
    pub fn interface(&self) -> (Vec<String>, Vec<String>) {
        let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        match self {
            CompKind::Fork { ways } => {
                (s(&["in"]), (0..*ways).map(|i| format!("out{i}")).collect())
            }
            CompKind::Join => (s(&["in0", "in1"]), s(&["out"])),
            CompKind::Split => (s(&["in"]), s(&["out0", "out1"])),
            CompKind::Mux => (s(&["cond", "t", "f"]), s(&["out"])),
            CompKind::Branch => (s(&["cond", "in"]), s(&["t", "f"])),
            CompKind::Merge => (s(&["in0", "in1"]), s(&["out"])),
            CompKind::Init { .. } => (s(&["in"]), s(&["out"])),
            CompKind::Buffer { .. } => (s(&["in"]), s(&["out"])),
            CompKind::Sink => (s(&["in"]), vec![]),
            CompKind::Constant { .. } => (s(&["ctrl"]), s(&["out"])),
            CompKind::Operator { op } => {
                ((0..op.arity()).map(|i| format!("in{i}")).collect(), s(&["out"]))
            }
            CompKind::Pure { .. } => (s(&["in"]), s(&["out"])),
            CompKind::TaggerUntagger { .. } => (s(&["in", "retag"]), s(&["tagged", "out"])),
            CompKind::Load { .. } => (s(&["addr"]), s(&["data"])),
            CompKind::Store { .. } => (s(&["addr", "data"]), s(&["done"])),
            CompKind::StoreQueue { body_plan, epi_plan, .. } => {
                let (stores, loads) = lsq_site_counts(body_plan, epi_plan);
                let mut ins = s(&["seq"]);
                for k in 0..stores {
                    ins.push(format!("saddr{k}"));
                    ins.push(format!("sdata{k}"));
                }
                for k in 0..loads {
                    ins.push(format!("laddr{k}"));
                }
                let mut outs: Vec<String> = (0..stores).map(|k| format!("sdone{k}")).collect();
                outs.extend((0..loads).map(|k| format!("ldata{k}")));
                (ins, outs)
            }
        }
    }

    /// Whether `port` is one of [`CompKind::interface`]'s input ports,
    /// answered without building the port list.
    pub fn has_in_port(&self, port: &str) -> bool {
        match self {
            CompKind::Fork { .. }
            | CompKind::Split
            | CompKind::Init { .. }
            | CompKind::Buffer { .. }
            | CompKind::Sink
            | CompKind::Pure { .. } => port == "in",
            CompKind::Join | CompKind::Merge => indexed(port, "in", 2),
            CompKind::Mux => matches!(port, "cond" | "t" | "f"),
            CompKind::Branch => matches!(port, "cond" | "in"),
            CompKind::Constant { .. } => port == "ctrl",
            CompKind::Operator { op } => indexed(port, "in", op.arity()),
            CompKind::TaggerUntagger { .. } => matches!(port, "in" | "retag"),
            CompKind::Load { .. } => port == "addr",
            CompKind::Store { .. } => matches!(port, "addr" | "data"),
            CompKind::StoreQueue { body_plan, epi_plan, .. } => {
                let (stores, loads) = lsq_site_counts(body_plan, epi_plan);
                port == "seq"
                    || indexed(port, "saddr", stores)
                    || indexed(port, "sdata", stores)
                    || indexed(port, "laddr", loads)
            }
        }
    }

    /// Whether `port` is one of [`CompKind::interface`]'s output ports,
    /// answered without building the port list.
    pub fn has_out_port(&self, port: &str) -> bool {
        match self {
            CompKind::Fork { ways } => indexed(port, "out", *ways),
            CompKind::Split => indexed(port, "out", 2),
            CompKind::Branch => matches!(port, "t" | "f"),
            CompKind::Sink => false,
            CompKind::Join
            | CompKind::Mux
            | CompKind::Merge
            | CompKind::Init { .. }
            | CompKind::Buffer { .. }
            | CompKind::Constant { .. }
            | CompKind::Operator { .. }
            | CompKind::Pure { .. } => port == "out",
            CompKind::TaggerUntagger { .. } => matches!(port, "tagged" | "out"),
            CompKind::Load { .. } => port == "data",
            CompKind::Store { .. } => port == "done",
            CompKind::StoreQueue { body_plan, epi_plan, .. } => {
                let (stores, loads) = lsq_site_counts(body_plan, epi_plan);
                indexed(port, "sdone", stores) || indexed(port, "ldata", loads)
            }
        }
    }

    /// Best-effort port types `(inputs, outputs)`; polymorphic ports are
    /// [`Ty::Any`].
    pub fn port_types(&self) -> (Vec<Ty>, Vec<Ty>) {
        match self {
            CompKind::Fork { ways } => (vec![Ty::Any], vec![Ty::Any; *ways]),
            CompKind::Join => (vec![Ty::Any, Ty::Any], vec![Ty::pair(Ty::Any, Ty::Any)]),
            CompKind::Split => (vec![Ty::pair(Ty::Any, Ty::Any)], vec![Ty::Any, Ty::Any]),
            CompKind::Mux => (vec![Ty::Bool, Ty::Any, Ty::Any], vec![Ty::Any]),
            CompKind::Branch => (vec![Ty::Bool, Ty::Any], vec![Ty::Any, Ty::Any]),
            CompKind::Merge => (vec![Ty::Any, Ty::Any], vec![Ty::Any]),
            CompKind::Init { .. } => (vec![Ty::Bool], vec![Ty::Bool]),
            CompKind::Buffer { .. } => (vec![Ty::Any], vec![Ty::Any]),
            CompKind::Sink => (vec![Ty::Any], vec![]),
            CompKind::Constant { value } => (vec![Ty::Any], vec![value.ty()]),
            CompKind::Operator { op } => {
                let (ins, out) = op.signature();
                (ins, vec![out])
            }
            CompKind::Pure { .. } => (vec![Ty::Any], vec![Ty::Any]),
            CompKind::TaggerUntagger { .. } => (
                vec![Ty::Any, Ty::Tagged(Box::new(Ty::Any))],
                vec![Ty::Tagged(Box::new(Ty::Any)), Ty::Any],
            ),
            CompKind::Load { .. } => (vec![Ty::Int], vec![Ty::Any]),
            CompKind::Store { .. } => (vec![Ty::Int, Ty::Any], vec![Ty::Unit]),
            CompKind::StoreQueue { body_plan, epi_plan, .. } => {
                let (stores, loads) = lsq_site_counts(body_plan, epi_plan);
                let mut ins = vec![Ty::Bool];
                for _ in 0..stores {
                    ins.push(Ty::Int);
                    ins.push(Ty::Any);
                }
                ins.extend(std::iter::repeat_n(Ty::Int, loads));
                let mut outs = vec![Ty::Unit; stores];
                outs.extend(std::iter::repeat_n(Ty::Any, loads));
                (ins, outs)
            }
        }
    }

    /// Whether the component is free of side effects.
    ///
    /// Pure generation (phase 3 of the optimization pipeline) only succeeds
    /// on loop bodies built entirely from effect-free components; a
    /// [`CompKind::Store`] in the body aborts the transformation, which is
    /// how the paper's bicg bug is surfaced. A [`CompKind::Load`] is
    /// read-only and therefore effect-free (reordering it is safe as long as
    /// no store to the same memory sits in the region).
    pub fn is_effect_free(&self) -> bool {
        !matches!(self, CompKind::Store { .. } | CompKind::StoreQueue { .. })
    }

    /// Short name used as the DOT `type` attribute and as the environment
    /// key for the denotational semantics.
    pub fn type_name(&self) -> &'static str {
        match self {
            CompKind::Fork { .. } => "fork",
            CompKind::Join => "join",
            CompKind::Split => "split",
            CompKind::Mux => "mux",
            CompKind::Branch => "branch",
            CompKind::Merge => "merge",
            CompKind::Init { .. } => "init",
            CompKind::Buffer { .. } => "buffer",
            CompKind::Sink => "sink",
            CompKind::Constant { .. } => "constant",
            CompKind::Operator { .. } => "operator",
            CompKind::Pure { .. } => "pure",
            CompKind::TaggerUntagger { .. } => "tagger",
            CompKind::Load { .. } => "load",
            CompKind::Store { .. } => "store",
            CompKind::StoreQueue { .. } => "lsq",
        }
    }
}

/// Whether `port` is `{prefix}{k}` for some `k < n`, with `k` written as
/// [`CompKind::interface`] writes it: decimal, unsigned, no leading zero.
fn indexed(port: &str, prefix: &str, n: usize) -> bool {
    let Some(digits) = port.strip_prefix(prefix) else { return false };
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    canonical && digits.parse::<usize>().is_ok_and(|k| k < n)
}

/// `(store_sites, load_sites)` across the body and epilogue plans of a
/// [`CompKind::StoreQueue`].
pub fn lsq_site_counts(body_plan: &[bool], epi_plan: &[bool]) -> (usize, usize) {
    let stores = body_plan.iter().filter(|s| **s).count() + epi_plan.iter().filter(|s| **s).count();
    (stores, body_plan.len() + epi_plan.len() - stores)
}

impl fmt::Display for CompKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompKind::Fork { ways } => write!(f, "fork{ways}"),
            CompKind::Init { initial } => write!(f, "init({initial})"),
            CompKind::Buffer { slots, transparent } => {
                write!(f, "buffer({slots}{})", if *transparent { ",t" } else { "" })
            }
            CompKind::Constant { value } => write!(f, "constant({value})"),
            CompKind::Operator { op } => write!(f, "op:{op}"),
            CompKind::Pure { func } => write!(f, "pure[{func}]"),
            CompKind::TaggerUntagger { tags } => write!(f, "tagger({tags})"),
            CompKind::Load { mem } => write!(f, "load[{mem}]"),
            CompKind::Store { mem } => write!(f, "store[{mem}]"),
            CompKind::StoreQueue { mem, body_plan, epi_plan } => {
                let p = |plan: &[bool]| {
                    plan.iter().map(|s| if *s { 'S' } else { 'L' }).collect::<String>()
                };
                write!(f, "lsq[{mem};{};{}]", p(body_plan), p(epi_plan))
            }
            other => f.write_str(other.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interfaces_are_consistent_with_types() {
        let kinds = [
            CompKind::Fork { ways: 3 },
            CompKind::Join,
            CompKind::Split,
            CompKind::Mux,
            CompKind::Branch,
            CompKind::Merge,
            CompKind::Init { initial: false },
            CompKind::Buffer { slots: 2, transparent: false },
            CompKind::Sink,
            CompKind::Constant { value: Value::Int(1) },
            CompKind::Operator { op: Op::Mod },
            CompKind::Pure { func: PureFn::Id },
            CompKind::TaggerUntagger { tags: 8 },
            CompKind::Load { mem: "a".into() },
            CompKind::Store { mem: "a".into() },
            CompKind::StoreQueue {
                mem: "a".into(),
                body_plan: vec![false, true],
                epi_plan: vec![true],
            },
        ];
        for k in kinds {
            let (ins, outs) = k.interface();
            let (tins, touts) = k.port_types();
            assert_eq!(ins.len(), tins.len(), "{k}");
            assert_eq!(outs.len(), touts.len(), "{k}");
        }
    }

    #[test]
    fn port_membership_agrees_with_the_interface() {
        let mut kinds: Vec<CompKind> = (1..=12).map(|ways| CompKind::Fork { ways }).collect();
        kinds.extend(Op::ALL.map(|op| CompKind::Operator { op }));
        kinds.extend([
            CompKind::StoreQueue {
                mem: "a".into(),
                body_plan: vec![true, false],
                epi_plan: vec![true, false],
            },
            CompKind::Join,
            CompKind::Split,
            CompKind::Mux,
            CompKind::Branch,
            CompKind::Merge,
            CompKind::Init { initial: true },
            CompKind::Buffer { slots: 1, transparent: true },
            CompKind::Sink,
            CompKind::Constant { value: Value::Int(0) },
            CompKind::Pure { func: PureFn::Id },
            CompKind::TaggerUntagger { tags: 4 },
            CompKind::Load { mem: "a".into() },
            CompKind::Store { mem: "a".into() },
        ]);
        let mut names: Vec<String> =
            ["out01", "out+1", "in-0", "in00", "out12", ""].map(String::from).into();
        for k in &kinds {
            let (ins, outs) = k.interface();
            names.extend(ins.into_iter().chain(outs));
        }
        assert!(names.iter().any(|n| n == "out11"), "a 12-way fork exposes out11");
        for k in &kinds {
            let (ins, outs) = k.interface();
            for n in &names {
                assert_eq!(k.has_in_port(n), ins.contains(n), "{k} in-port `{n}`");
                assert_eq!(k.has_out_port(n), outs.contains(n), "{k} out-port `{n}`");
            }
        }
    }

    #[test]
    fn fork_ports_scale_with_ways() {
        let (ins, outs) = CompKind::Fork { ways: 4 }.interface();
        assert_eq!(ins.len(), 1);
        assert_eq!(outs, ["out0", "out1", "out2", "out3"]);
    }

    #[test]
    fn only_stores_are_effectful() {
        assert!(!CompKind::Store { mem: "m".into() }.is_effect_free());
        assert!(CompKind::Load { mem: "m".into() }.is_effect_free());
        assert!(CompKind::Operator { op: Op::AddF }.is_effect_free());
        let lsq =
            CompKind::StoreQueue { mem: "m".into(), body_plan: vec![true], epi_plan: vec![true] };
        assert!(!lsq.is_effect_free());
    }

    #[test]
    fn store_queue_ports_follow_the_plans() {
        let lsq = CompKind::StoreQueue {
            mem: "m".into(),
            body_plan: vec![false, true],
            epi_plan: vec![true],
        };
        let (ins, outs) = lsq.interface();
        assert_eq!(ins, ["seq", "saddr0", "sdata0", "saddr1", "sdata1", "laddr0"]);
        assert_eq!(outs, ["sdone0", "sdone1", "ldata0"]);
        assert_eq!(lsq.to_string(), "lsq[m;LS;S]");
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(CompKind::Mux.to_string(), "mux");
        assert_eq!(CompKind::Operator { op: Op::Mod }.to_string(), "op:mod");
    }
}
