//! Component semantics: the environment ε mapping component kinds to
//! modules (§4.3 of the paper).
//!
//! Each component's behaviour is a queue-based transition relation, directly
//! mirroring the paper's `enqᵢ`/`deqᵢ`/`firstᵢ` style: input transitions
//! enqueue tokens, output transitions compute on queue fronts and dequeue.
//! The Merge component is *locally nondeterministic* (it may emit from
//! either non-empty input queue), which is exactly the behaviour Kahnian
//! semantics cannot express and the reason the refinement theory exists.
//!
//! All computational components are *tag transparent*: when their operands
//! are tagged (inside a Tagger/Untagger region), they compute on the
//! payloads and re-attach the common tag. Operands with mismatched tags
//! leave the transition disabled.

use crate::module::{InputFn, Module, OutputFn};
use crate::state::{CompState, TaggerState};
use graphiti_ir::{CompKind, PortName, Tag, Value};
use std::rc::Rc;

/// Port name of a not-yet-renamed base component.
fn port(name: &str) -> PortName {
    PortName::local("", name)
}

/// Extracts the payloads of `vals` and their common tag.
///
/// Returns `None` when some operands are tagged and others are not, or when
/// two tags differ — in those cases the transition is disabled.
pub fn untag_all(vals: &[Value]) -> Option<(Option<Tag>, Vec<Value>)> {
    let mut tag: Option<Tag> = None;
    let mut any_untagged = false;
    let mut payloads = Vec::with_capacity(vals.len());
    for v in vals {
        match v.untag() {
            (Some(t), inner) => {
                match tag {
                    None => tag = Some(t),
                    Some(t0) if t0 == t => {}
                    Some(_) => return None,
                }
                payloads.push(inner.clone());
            }
            (None, inner) => {
                any_untagged = true;
                payloads.push(inner.clone());
            }
        }
    }
    if tag.is_some() && any_untagged {
        return None;
    }
    Some((tag, payloads))
}

/// Re-attaches a tag to a computed value.
pub fn retag(tag: Option<Tag>, v: Value) -> Value {
    match tag {
        Some(t) => Value::tagged(t, v),
        None => v,
    }
}

fn queues_of(s: &CompState) -> Option<&Vec<std::collections::VecDeque<Value>>> {
    match s {
        CompState::Queues(qs) => Some(qs),
        _ => None,
    }
}

/// Enqueues `v` into queue `idx`.
fn enq(s: &CompState, idx: usize, v: Value) -> Vec<CompState> {
    match queues_of(s) {
        Some(qs) => {
            let mut qs = qs.clone();
            qs[idx].push_back(v);
            vec![CompState::Queues(qs)]
        }
        None => vec![],
    }
}

/// An input transition that enqueues into queue `idx`.
fn enq_input(idx: usize) -> InputFn {
    Rc::new(move |s, v| enq(s, idx, v.clone()))
}

/// An output transition computed from the fronts of the queues in `deps`:
/// `f` receives the front values and returns `Some(result)` to fire (the
/// fronts of `deps` are then dequeued) or `None` to stay disabled.
fn front_output(deps: Vec<usize>, f: impl Fn(&[Value]) -> Option<Value> + 'static) -> OutputFn {
    Rc::new(move |s| {
        let qs = match queues_of(s) {
            Some(qs) => qs,
            None => return vec![],
        };
        let mut fronts = Vec::with_capacity(deps.len());
        for &d in &deps {
            match qs[d].front() {
                Some(v) => fronts.push(v.clone()),
                None => return vec![],
            }
        }
        match f(&fronts) {
            Some(result) => {
                let mut qs = qs.clone();
                for &d in &deps {
                    qs[d].pop_front();
                }
                vec![(result, CompState::Queues(qs))]
            }
            None => vec![],
        }
    })
}

fn fork_module(ways: usize) -> Module {
    let mut m = Module::leaf(CompState::queues(ways));
    let input: InputFn = Rc::new(move |s, v| {
        let qs = match queues_of(s) {
            Some(qs) => qs,
            None => return vec![],
        };
        let mut qs = qs.clone();
        for q in qs.iter_mut() {
            q.push_back(v.clone());
        }
        vec![CompState::Queues(qs)]
    });
    m.add_input(port("in"), input);
    for k in 0..ways {
        m.add_output(port(&format!("out{k}")), front_output(vec![k], |vs| Some(vs[0].clone())));
    }
    m
}

fn join_module() -> Module {
    let mut m = Module::leaf(CompState::queues(2));
    m.add_input(port("in0"), enq_input(0));
    m.add_input(port("in1"), enq_input(1));
    m.add_output(
        port("out"),
        front_output(vec![0, 1], |vs| {
            let (tag, payloads) = untag_all(vs)?;
            Some(retag(tag, Value::pair(payloads[0].clone(), payloads[1].clone())))
        }),
    );
    m
}

fn split_module() -> Module {
    let mut m = Module::leaf(CompState::queues(2));
    // The input transition distributes the pair into the two output queues,
    // in the style of the paper's fork.in0.
    let input: InputFn = Rc::new(|s, v| {
        let (tag, payload) = v.untag();
        let (a, b) = match payload.clone().into_pair() {
            Some(p) => p,
            None => return vec![],
        };
        let qs = match queues_of(s) {
            Some(qs) => qs,
            None => return vec![],
        };
        let mut qs = qs.clone();
        qs[0].push_back(retag(tag, a));
        qs[1].push_back(retag(tag, b));
        vec![CompState::Queues(qs)]
    });
    m.add_input(port("in"), input);
    m.add_output(port("out0"), front_output(vec![0], |vs| Some(vs[0].clone())));
    m.add_output(port("out1"), front_output(vec![1], |vs| Some(vs[0].clone())));
    m
}

fn mux_module() -> Module {
    let mut m = Module::leaf(CompState::queues(3));
    m.add_input(port("cond"), enq_input(0));
    m.add_input(port("t"), enq_input(1));
    m.add_input(port("f"), enq_input(2));
    let output: OutputFn = Rc::new(|s| {
        let qs = match queues_of(s) {
            Some(qs) => qs,
            None => return vec![],
        };
        let cond = match qs[0].front() {
            Some(c) => c,
            None => return vec![],
        };
        let b = match cond.untag().1.as_bool() {
            Some(b) => b,
            None => return vec![],
        };
        let data_q = if b { 1 } else { 2 };
        match qs[data_q].front() {
            Some(v) => {
                let v = v.clone();
                let mut qs = qs.clone();
                qs[0].pop_front();
                qs[data_q].pop_front();
                vec![(v, CompState::Queues(qs))]
            }
            None => vec![],
        }
    });
    m.add_output(port("out"), output);
    m
}

fn branch_module() -> Module {
    let mut m = Module::leaf(CompState::queues(2));
    m.add_input(port("cond"), enq_input(0));
    m.add_input(port("in"), enq_input(1));
    let make = |want: bool| -> OutputFn {
        front_output(vec![0, 1], move |vs| {
            let b = vs[0].untag().1.as_bool()?;
            if b == want {
                Some(vs[1].clone())
            } else {
                None
            }
        })
    };
    m.add_output(port("t"), make(true));
    m.add_output(port("f"), make(false));
    m
}

fn merge_module() -> Module {
    let mut m = Module::leaf(CompState::queues(2));
    m.add_input(port("in0"), enq_input(0));
    m.add_input(port("in1"), enq_input(1));
    // Locally nondeterministic: the output may come from either queue.
    let output: OutputFn = Rc::new(|s| {
        let qs = match queues_of(s) {
            Some(qs) => qs,
            None => return vec![],
        };
        let mut next = Vec::new();
        for idx in 0..2 {
            if let Some(v) = qs[idx].front() {
                let mut qs2 = qs.clone();
                qs2[idx].pop_front();
                next.push((v.clone(), CompState::Queues(qs2)));
            }
        }
        next
    });
    m.add_output(port("out"), output);
    m
}

fn init_module(initial: bool) -> Module {
    let mut m = Module::leaf(CompState::Init { queue: Default::default(), emitted_initial: false });
    let input: InputFn = Rc::new(|s, v| match s {
        CompState::Init { queue, emitted_initial } => {
            let mut queue = queue.clone();
            queue.push_back(v.clone());
            vec![CompState::Init { queue, emitted_initial: *emitted_initial }]
        }
        _ => vec![],
    });
    m.add_input(port("in"), input);
    let output: OutputFn = Rc::new(move |s| match s {
        CompState::Init { queue, emitted_initial } => {
            if !*emitted_initial {
                return vec![(
                    Value::Bool(initial),
                    CompState::Init { queue: queue.clone(), emitted_initial: true },
                )];
            }
            let mut queue = queue.clone();
            match queue.pop_front() {
                Some(v) => {
                    vec![(v, CompState::Init { queue, emitted_initial: true })]
                }
                None => vec![],
            }
        }
        _ => vec![],
    });
    m.add_output(port("out"), output);
    m
}

fn buffer_module() -> Module {
    let mut m = Module::leaf(CompState::queues(1));
    m.add_input(port("in"), enq_input(0));
    m.add_output(port("out"), front_output(vec![0], |vs| Some(vs[0].clone())));
    m
}

fn sink_module() -> Module {
    let mut m = Module::leaf(CompState::queues(0));
    let input: InputFn = Rc::new(|s, _| vec![s.clone()]);
    m.add_input(port("in"), input);
    m
}

fn constant_module(value: Value) -> Module {
    let mut m = Module::leaf(CompState::queues(1));
    m.add_input(port("ctrl"), enq_input(0));
    m.add_output(
        port("out"),
        front_output(vec![0], move |vs| {
            let (tag, _) = vs[0].untag();
            Some(retag(tag, value.clone()))
        }),
    );
    m
}

fn operator_module(op: graphiti_ir::Op) -> Module {
    let arity = op.arity();
    let mut m = Module::leaf(CompState::queues(arity));
    for k in 0..arity {
        m.add_input(port(&format!("in{k}")), enq_input(k));
    }
    m.add_output(
        port("out"),
        front_output((0..arity).collect(), move |vs| {
            let (tag, payloads) = untag_all(vs)?;
            op.eval(&payloads).ok().map(|r| retag(tag, r))
        }),
    );
    m
}

fn pure_module(func: graphiti_ir::PureFn) -> Module {
    let mut m = Module::leaf(CompState::queues(1));
    m.add_input(port("in"), enq_input(0));
    m.add_output(
        port("out"),
        front_output(vec![0], move |vs| {
            let (tag, payload) = vs[0].untag();
            func.eval(payload).ok().map(|r| retag(tag, r))
        }),
    );
    m
}

fn tagger_module(tags: u32) -> Module {
    let mut m = Module::leaf(CompState::Tagger(TaggerState::new(tags)));
    let tagger_of = |s: &CompState| -> Option<TaggerState> {
        match s {
            CompState::Tagger(t) => Some(t.clone()),
            _ => None,
        }
    };
    // Untagged program-order input.
    let t = tagger_of;
    let input: InputFn = Rc::new(move |s, v| {
        let mut ts = match t(s) {
            Some(ts) => ts,
            None => return vec![],
        };
        ts.pending.push_back(v.clone());
        vec![CompState::Tagger(ts)]
    });
    m.add_input(port("in"), input);
    // Tagged completion re-entering the boundary.
    let t = tagger_of;
    let retag_in: InputFn = Rc::new(move |s, v| {
        let mut ts = match t(s) {
            Some(ts) => ts,
            None => return vec![],
        };
        let (tag, payload) = match v.clone().into_tagged() {
            Some(x) => x,
            None => return vec![],
        };
        // The tag must be live (allocated and not yet completed).
        if !ts.order.contains(&tag) || ts.done.contains_key(&tag) {
            return vec![];
        }
        ts.done.insert(tag, payload);
        vec![CompState::Tagger(ts)]
    });
    m.add_input(port("retag"), retag_in);
    // Tagged output into the region: allocate the smallest free tag.
    let t = tagger_of;
    let tagged_out: OutputFn = Rc::new(move |s| {
        let mut ts = match t(s) {
            Some(ts) => ts,
            None => return vec![],
        };
        let tag = match ts.free.iter().next().copied() {
            Some(tag) => tag,
            None => return vec![],
        };
        let v = match ts.pending.pop_front() {
            Some(v) => v,
            None => return vec![],
        };
        ts.free.remove(&tag);
        ts.order.push_back(tag);
        vec![(Value::tagged(tag, v), CompState::Tagger(ts))]
    });
    m.add_output(port("tagged"), tagged_out);
    // In-order untagged release.
    let t = tagger_of;
    let out: OutputFn = Rc::new(move |s| {
        let mut ts = match t(s) {
            Some(ts) => ts,
            None => return vec![],
        };
        let tag = match ts.order.front().copied() {
            Some(tag) => tag,
            None => return vec![],
        };
        let v = match ts.done.remove(&tag) {
            Some(v) => v,
            None => return vec![],
        };
        ts.order.pop_front();
        ts.free.insert(tag);
        vec![(v, CompState::Tagger(ts))]
    });
    m.add_output(port("out"), out);
    m
}

fn load_module() -> Module {
    // The semantics crate models memory as constant zeros: it is only used
    // to reason about effect-free regions (pure generation refuses regions
    // with memory ports), and this total model keeps whole-graph denotation
    // defined.
    let mut m = Module::leaf(CompState::queues(1));
    m.add_input(port("addr"), enq_input(0));
    m.add_output(
        port("data"),
        front_output(vec![0], |vs| {
            let (tag, _) = vs[0].untag();
            Some(retag(tag, Value::Int(0)))
        }),
    );
    m
}

fn store_module() -> Module {
    let mut m = Module::leaf(CompState::queues(2));
    m.add_input(port("addr"), enq_input(0));
    m.add_input(port("data"), enq_input(1));
    m.add_output(
        port("done"),
        front_output(vec![0, 1], |vs| {
            let (tag, _) = untag_all(vs)?;
            Some(retag(tag, Value::Unit))
        }),
    );
    m
}

fn lsq_module(body_plan: &[bool], epi_plan: &[bool]) -> Module {
    // Like `load_module`/`store_module`, memory itself is abstracted away:
    // the denotational model only needs a total per-port behaviour. Queue
    // layout mirrors the port order: seq, then (saddr, sdata) per store
    // site, then laddr per load site.
    let (stores, loads) = graphiti_ir::lsq_site_counts(body_plan, epi_plan);
    let mut m = Module::leaf(CompState::queues(1 + 2 * stores + loads));
    m.add_input(port("seq"), enq_input(0));
    for k in 0..stores {
        m.add_input(port(&format!("saddr{k}")), enq_input(1 + 2 * k));
        m.add_input(port(&format!("sdata{k}")), enq_input(2 + 2 * k));
        m.add_output(
            port(&format!("sdone{k}")),
            front_output(vec![1 + 2 * k, 2 + 2 * k], |vs| {
                let (tag, _) = untag_all(vs)?;
                Some(retag(tag, Value::Unit))
            }),
        );
    }
    for k in 0..loads {
        m.add_input(port(&format!("laddr{k}")), enq_input(1 + 2 * stores + k));
        m.add_output(
            port(&format!("ldata{k}")),
            front_output(vec![1 + 2 * stores + k], |vs| {
                let (tag, _) = vs[0].untag();
                Some(retag(tag, Value::Int(0)))
            }),
        );
    }
    m
}

/// The standard environment: the module giving semantics to a component
/// kind. Ports are keyed `("", interface-port)`; denotation renames them
/// according to the base component's port maps.
pub fn component_module(kind: &CompKind) -> Module {
    match kind {
        CompKind::Fork { ways } => fork_module(*ways),
        CompKind::Join => join_module(),
        CompKind::Split => split_module(),
        CompKind::Mux => mux_module(),
        CompKind::Branch => branch_module(),
        CompKind::Merge => merge_module(),
        CompKind::Init { initial } => init_module(*initial),
        CompKind::Buffer { .. } => buffer_module(),
        CompKind::Sink => sink_module(),
        CompKind::Constant { value } => constant_module(value.clone()),
        CompKind::Operator { op } => operator_module(*op),
        CompKind::Pure { func } => pure_module(func.clone()),
        CompKind::TaggerUntagger { tags } => tagger_module(*tags),
        CompKind::Load { .. } => load_module(),
        CompKind::Store { .. } => store_module(),
        CompKind::StoreQueue { body_plan, epi_plan, .. } => lsq_module(body_plan, epi_plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use graphiti_ir::Op;

    fn feed(m: &Module, s: &State, p: &str, v: Value) -> State {
        m.input_step(&port(p), s, &v).remove(0)
    }

    fn emit(m: &Module, s: &State, p: &str) -> Vec<(Value, State)> {
        m.output_step(&port(p), s)
    }

    #[test]
    fn fork_duplicates() {
        let m = component_module(&CompKind::Fork { ways: 2 });
        let s = feed(&m, &m.init()[0], "in", Value::Int(3));
        assert_eq!(emit(&m, &s, "out0")[0].0, Value::Int(3));
        assert_eq!(emit(&m, &s, "out1")[0].0, Value::Int(3));
    }

    #[test]
    fn join_synchronizes_and_split_undoes() {
        let j = component_module(&CompKind::Join);
        let s = feed(&j, &j.init()[0], "in0", Value::Int(1));
        assert!(emit(&j, &s, "out").is_empty(), "join waits for both operands");
        let s = feed(&j, &s, "in1", Value::Bool(true));
        let (v, _) = emit(&j, &s, "out").remove(0);
        assert_eq!(v, Value::pair(Value::Int(1), Value::Bool(true)));

        let sp = component_module(&CompKind::Split);
        let s = feed(&sp, &sp.init()[0], "in", v);
        assert_eq!(emit(&sp, &s, "out0")[0].0, Value::Int(1));
        assert_eq!(emit(&sp, &s, "out1")[0].0, Value::Bool(true));
    }

    #[test]
    fn mux_selects_by_condition() {
        let m = component_module(&CompKind::Mux);
        let s = feed(&m, &m.init()[0], "cond", Value::Bool(false));
        let s = feed(&m, &s, "t", Value::Int(10));
        let s = feed(&m, &s, "f", Value::Int(20));
        assert_eq!(emit(&m, &s, "out")[0].0, Value::Int(20));
    }

    #[test]
    fn branch_routes_by_condition() {
        let m = component_module(&CompKind::Branch);
        let s = feed(&m, &m.init()[0], "cond", Value::Bool(true));
        let s = feed(&m, &s, "in", Value::Int(5));
        assert_eq!(emit(&m, &s, "t")[0].0, Value::Int(5));
        assert!(emit(&m, &s, "f").is_empty());
    }

    #[test]
    fn merge_is_nondeterministic() {
        let m = component_module(&CompKind::Merge);
        let s = feed(&m, &m.init()[0], "in0", Value::Int(1));
        let s = feed(&m, &s, "in1", Value::Int(2));
        let outs = emit(&m, &s, "out");
        let vals: Vec<_> = outs.iter().map(|(v, _)| v.clone()).collect();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn init_emits_initial_token_first() {
        let m = component_module(&CompKind::Init { initial: false });
        let s = feed(&m, &m.init()[0], "in", Value::Bool(true));
        let (v, s2) = emit(&m, &s, "out").remove(0);
        assert_eq!(v, Value::Bool(false), "pre-loaded token comes first");
        let (v2, _) = emit(&m, &s2, "out").remove(0);
        assert_eq!(v2, Value::Bool(true));
    }

    #[test]
    fn operator_is_tag_transparent() {
        let m = component_module(&CompKind::Operator { op: Op::AddI });
        let s = feed(&m, &m.init()[0], "in0", Value::tagged(4, Value::Int(2)));
        let s = feed(&m, &s, "in1", Value::tagged(4, Value::Int(3)));
        assert_eq!(emit(&m, &s, "out")[0].0, Value::tagged(4, Value::Int(5)));
    }

    #[test]
    fn operator_blocks_on_tag_mismatch() {
        let m = component_module(&CompKind::Operator { op: Op::AddI });
        let s = feed(&m, &m.init()[0], "in0", Value::tagged(1, Value::Int(2)));
        let s = feed(&m, &s, "in1", Value::tagged(2, Value::Int(3)));
        assert!(emit(&m, &s, "out").is_empty());
    }

    #[test]
    fn constant_triggered_by_control_keeps_tag() {
        let m = component_module(&CompKind::Constant { value: Value::Int(9) });
        let s = feed(&m, &m.init()[0], "ctrl", Value::tagged(2, Value::Unit));
        assert_eq!(emit(&m, &s, "out")[0].0, Value::tagged(2, Value::Int(9)));
    }

    #[test]
    fn tagger_allocates_and_reorders() {
        let m = component_module(&CompKind::TaggerUntagger { tags: 2 });
        let s = feed(&m, &m.init()[0], "in", Value::Int(10));
        let s = feed(&m, &s, "in", Value::Int(20));
        let (t0, s) = emit(&m, &s, "tagged").remove(0);
        let (t1, s) = emit(&m, &s, "tagged").remove(0);
        assert_eq!(t0, Value::tagged(0, Value::Int(10)));
        assert_eq!(t1, Value::tagged(1, Value::Int(20)));
        // Tag pool exhausted: a third input cannot be tagged yet.
        let s = feed(&m, &s, "in", Value::Int(30));
        assert!(emit(&m, &s, "tagged").is_empty());
        // Complete out of order: tag 1 first.
        let s = feed(&m, &s, "retag", Value::tagged(1, Value::Int(21)));
        assert!(emit(&m, &s, "out").is_empty(), "output is held until tag 0 completes");
        let s = feed(&m, &s, "retag", Value::tagged(0, Value::Int(11)));
        let (v0, s) = emit(&m, &s, "out").remove(0);
        let (v1, s) = emit(&m, &s, "out").remove(0);
        assert_eq!(v0, Value::Int(11));
        assert_eq!(v1, Value::Int(21));
        // The freed tag can now serve the third input.
        let (t2, _) = emit(&m, &s, "tagged").remove(0);
        assert!(matches!(t2, Value::Tagged(_, _)));
    }

    #[test]
    fn tagger_rejects_duplicate_completion() {
        let m = component_module(&CompKind::TaggerUntagger { tags: 2 });
        let s = feed(&m, &m.init()[0], "in", Value::Int(10));
        let (_, s) = emit(&m, &s, "tagged").remove(0);
        let s = feed(&m, &s, "retag", Value::tagged(0, Value::Int(1)));
        assert!(m.input_step(&port("retag"), &s, &Value::tagged(0, Value::Int(2))).is_empty());
        assert!(
            m.input_step(&port("retag"), &s, &Value::tagged(1, Value::Int(2))).is_empty(),
            "unallocated tags are rejected"
        );
    }

    #[test]
    fn sink_discards() {
        let m = component_module(&CompKind::Sink);
        let s = feed(&m, &m.init()[0], "in", Value::Int(1));
        assert_eq!(s, m.init()[0]);
    }

    #[test]
    fn pure_applies_function() {
        let m = component_module(&CompKind::Pure { func: graphiti_ir::PureFn::Dup });
        let s = feed(&m, &m.init()[0], "in", Value::Int(4));
        assert_eq!(emit(&m, &s, "out")[0].0, Value::pair(Value::Int(4), Value::Int(4)));
    }

    #[test]
    fn store_fires_when_both_operands_ready() {
        let m = component_module(&CompKind::Store { mem: "m".into() });
        let s = feed(&m, &m.init()[0], "addr", Value::Int(3));
        assert!(emit(&m, &s, "done").is_empty());
        let s = feed(&m, &s, "data", Value::Int(7));
        assert_eq!(emit(&m, &s, "done")[0].0, Value::Unit);
    }
}
