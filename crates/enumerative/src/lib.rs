//! `enum-synth`: an EUSolver-style enumerative SyGuS baseline — bottom-up
//! size enumeration with observational-equivalence pruning
//! ([`TermEnumerator`]), decision-tree unification divide-and-conquer
//! ([`learn_decision_tree`]), and a CEGIS driver ([`BottomUpSolver`]).
//!
//! In the reproduction this crate plays two roles: the standalone "EUSolver"
//! comparison point of Figures 10–13, and the pluggable enumeration backend
//! of the Figure 16 ablation (EUSolver-backed DryadSynth).

#![warn(missing_docs)]

mod enumerate;
mod solver;
mod unify;

pub use enumerate::{EnumConfig, TermEnumerator};
pub use solver::{
    bind_params, constant_pool, counterexample_env, is_pointwise, BottomUpConfig, BottomUpSolver,
    SynthStatus,
};
// The shared resource-governance handle, re-exported for backend authors.
pub use sygus_ast::runtime::{Budget, BudgetError};
pub use unify::{learn_decision_tree, CoveredTerm};
