//! Denotation of ExprLow circuits into modules (§4.5 of the paper).
//!
//! `⟦base⟧ε = rename(maps, ε[kind])`, `⟦e₁ ⊗ e₂⟧ε = ⟦e₁⟧ε ⊎ ⟦e₂⟧ε`, and
//! `⟦connect(o, i, e)⟧ε = ⟦e⟧ε[o ⇝ i]`.

use crate::components::component_module;
use crate::module::Module;
use graphiti_ir::{lower, CompKind, ExprHigh, ExprLow, LowerError, PortName};
use std::collections::BTreeMap;
use std::rc::Rc;

/// An environment ε mapping component kinds to semantic modules.
///
/// The standard environment implements the queue semantics of §4.3; custom
/// environments let tests interpret a kind differently (the paper's
/// parameterized environments for the loop-rewrite proof play the same
/// role).
#[derive(Clone)]
pub struct Env {
    lookup: Rc<dyn Fn(&CompKind) -> Module>,
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Env(..)")
    }
}

impl Env {
    /// The standard component semantics.
    pub fn standard() -> Env {
        Env { lookup: Rc::new(component_module) }
    }

    /// An environment backed by an arbitrary interpretation function.
    pub fn custom(lookup: impl Fn(&CompKind) -> Module + 'static) -> Env {
        Env { lookup: Rc::new(lookup) }
    }

    /// The module interpreting `kind` (before port renaming).
    pub fn module(&self, kind: &CompKind) -> Module {
        (self.lookup)(kind)
    }
}

impl Default for Env {
    fn default() -> Self {
        Env::standard()
    }
}

/// Denotes an ExprLow expression as a module in environment `env`.
pub fn denote(expr: &ExprLow, env: &Env) -> Module {
    match expr {
        ExprLow::Base { kind, maps, .. } => {
            let base = env.module(kind);
            let in_map: BTreeMap<PortName, PortName> = maps
                .ins
                .iter()
                .map(|(iface, ext)| (PortName::local("", iface.clone()), ext.clone()))
                .collect();
            let out_map: BTreeMap<PortName, PortName> = maps
                .outs
                .iter()
                .map(|(iface, ext)| (PortName::local("", iface.clone()), ext.clone()))
                .collect();
            base.rename(&in_map, &out_map)
        }
        ExprLow::Product(a, b) => denote(a, env).product(denote(b, env)),
        ExprLow::Connect { out, inp, inner } => denote(inner, env).connect(out, inp),
    }
}

/// Lowers and denotes an ExprHigh circuit. The module's external ports are
/// the graph's `Io` indices; the returned name tables relate them to the
/// graph's port names.
///
/// # Errors
///
/// Propagates lowering failures (e.g. empty graphs).
pub fn denote_graph(g: &ExprHigh, env: &Env) -> Result<(Module, graphiti_ir::Lowered), LowerError> {
    let lowered = lower(g)?;
    let m = denote(&lowered.expr, env);
    Ok((m, lowered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use graphiti_ir::{ep, Op, Value};

    /// The paper's Fig. 6 circuit: fork feeding both operands of a modulo.
    fn fork_mod() -> ExprHigh {
        let mut g = ExprHigh::new();
        g.add_node("f", CompKind::Fork { ways: 2 }).unwrap();
        g.add_node("m", CompKind::Operator { op: Op::Mod }).unwrap();
        g.expose_input("x", ep("f", "in")).unwrap();
        g.connect(ep("f", "out0"), ep("m", "in0")).unwrap();
        g.connect(ep("f", "out1"), ep("m", "in1")).unwrap();
        g.expose_output("y", ep("m", "out")).unwrap();
        g
    }

    fn run_internals_to_fixpoint(m: &Module, s: &State) -> Vec<State> {
        // Small helper: explores internal steps exhaustively (for acyclic
        // examples this terminates).
        let mut frontier = vec![s.clone()];
        let mut all = frontier.clone();
        while let Some(s) = frontier.pop() {
            for s2 in m.internal_step(&s) {
                if !all.contains(&s2) {
                    all.push(s2.clone());
                    frontier.push(s2);
                }
            }
        }
        all
    }

    #[test]
    fn fork_mod_graph_computes_x_mod_x() {
        let (m, _) = denote_graph(&fork_mod(), &Env::standard()).unwrap();
        assert_eq!(m.input_ports(), vec![PortName::Io(0)]);
        assert_eq!(m.output_ports(), vec![PortName::Io(0)]);
        let s0 = m.init()[0].clone();
        let s1 = m.input_step(&PortName::Io(0), &s0, &Value::Int(7)).remove(0);
        // Two internal (connect) transitions move the forked copies into the
        // modulo operand queues.
        let states = run_internals_to_fixpoint(&m, &s1);
        let out: Vec<_> = states
            .iter()
            .flat_map(|s| m.output_step(&PortName::Io(0), s))
            .map(|(v, _)| v)
            .collect();
        assert!(out.contains(&Value::Int(0)), "7 % 7 == 0, got {out:?}");
    }

    #[test]
    fn custom_environment_overrides_interpretation() {
        // Interpret every operator as identity-on-first-operand by replacing
        // it with a merge; just check the env is consulted.
        let env = Env::custom(|kind| match kind {
            CompKind::Operator { .. } => component_module(&CompKind::Merge),
            other => component_module(other),
        });
        let m = env.module(&CompKind::Operator { op: Op::Mod });
        assert_eq!(m.inputs.len(), 2);
        assert!(m.outputs.contains_key(&PortName::local("", "out")));
    }

    #[test]
    fn denote_connect_removes_ports() {
        let expr = ExprLow::Product(
            Box::new(ExprLow::base("a", CompKind::Buffer { slots: 1, transparent: false })),
            Box::new(ExprLow::base("b", CompKind::Buffer { slots: 1, transparent: false })),
        )
        .connect_all([(PortName::local("a", "out"), PortName::local("b", "in"))]);
        let m = denote(&expr, &Env::standard());
        assert_eq!(m.input_ports(), vec![PortName::local("a", "in")]);
        assert_eq!(m.output_ports(), vec![PortName::local("b", "out")]);
        assert_eq!(m.internal_count(), 1);
    }
}
