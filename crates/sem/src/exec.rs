//! Randomized execution of modules.
//!
//! A module is a nondeterministic transition system; [`run_random`] drives
//! one with a seeded scheduler, feeding scripted inputs and collecting
//! outputs. Property-based tests use this to compare an optimized circuit
//! against its specification on unbounded value domains: any scheduling of
//! the out-of-order loop must produce the sequential loop's outputs.

use crate::module::Module;
use crate::state::State;
use graphiti_ir::{PortName, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The result of a randomized run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Values emitted per output port, in emission order.
    pub outputs: BTreeMap<PortName, Vec<Value>>,
    /// Number of scheduler steps taken.
    pub steps: usize,
    /// Whether all scripted inputs were consumed.
    pub inputs_exhausted: bool,
    /// The final state.
    pub final_state: State,
}

enum Action {
    Feed(PortName, State),
    Internal(State),
    Emit(PortName, Value, State),
}

/// Runs `m` with a seeded random scheduler.
///
/// At every step one enabled action — feeding the next scripted input on
/// some port, an internal transition, or an output emission — is chosen
/// uniformly at random. The run stops after `max_steps` steps or when no
/// action is enabled.
///
/// # Panics
///
/// Panics if the module has no initial state.
pub fn run_random(
    m: &Module,
    feeds: &BTreeMap<PortName, Vec<Value>>,
    seed: u64,
    max_steps: usize,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = m.init().first().expect("module has an initial state").clone();
    let mut positions: BTreeMap<PortName, usize> = BTreeMap::new();
    let mut outputs: BTreeMap<PortName, Vec<Value>> = BTreeMap::new();
    let mut steps = 0;

    while steps < max_steps {
        let mut actions: Vec<Action> = Vec::new();
        for (p, vals) in feeds {
            let pos = positions.get(p).copied().unwrap_or(0);
            if pos < vals.len() {
                for s2 in m.input_step(p, &state, &vals[pos]) {
                    actions.push(Action::Feed(p.clone(), s2));
                }
            }
        }
        for s2 in m.internal_step(&state) {
            actions.push(Action::Internal(s2));
        }
        for p in m.outputs.keys() {
            for (v, s2) in m.output_step(p, &state) {
                actions.push(Action::Emit(p.clone(), v, s2));
            }
        }
        if actions.is_empty() {
            break;
        }
        let idx = rng.gen_range(0..actions.len());
        match actions.swap_remove(idx) {
            Action::Feed(p, s2) => {
                *positions.entry(p).or_insert(0) += 1;
                state = s2;
            }
            Action::Internal(s2) => state = s2,
            Action::Emit(p, v, s2) => {
                outputs.entry(p).or_default().push(v);
                state = s2;
            }
        }
        steps += 1;
    }

    let inputs_exhausted =
        feeds.iter().all(|(p, vals)| positions.get(p).copied().unwrap_or(0) == vals.len());
    RunResult { outputs, steps, inputs_exhausted, final_state: state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::denote::{denote, Env};
    use graphiti_ir::{CompKind, ExprLow};

    #[test]
    fn buffer_preserves_fifo_order_under_any_schedule() {
        let expr = ExprLow::Product(
            Box::new(ExprLow::base("a", CompKind::Buffer { slots: 4, transparent: false })),
            Box::new(ExprLow::base("b", CompKind::Buffer { slots: 4, transparent: false })),
        )
        .connect_all([(PortName::local("a", "out"), PortName::local("b", "in"))]);
        let m = denote(&expr, &Env::standard());
        let feeds: BTreeMap<PortName, Vec<Value>> =
            [(PortName::local("a", "in"), vec![Value::Int(1), Value::Int(2), Value::Int(3)])]
                .into_iter()
                .collect();
        for seed in 0..20 {
            let r = run_random(&m, &feeds, seed, 200);
            assert!(r.inputs_exhausted, "seed {seed}");
            assert_eq!(
                r.outputs.get(&PortName::local("b", "out")),
                Some(&vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn run_stops_without_actions() {
        let m = denote(&ExprLow::base("s", CompKind::Sink), &Env::standard());
        let r = run_random(&m, &BTreeMap::new(), 0, 100);
        assert_eq!(r.steps, 0);
        assert!(r.inputs_exhausted);
    }
}
