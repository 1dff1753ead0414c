//! Verifying the deduced `max_n` / `min_n` answers stays inside the
//! difference-logic engine. The negated spec's disequalities `f ≠ x_i`
//! are pinned by shortest paths through the ite purification variables,
//! so no validity query falls through to the full-model integer check
//! (`smt.conflicts` counts those fall-throughs). The counts are
//! machine-independent.

use dryadsynth::{DryadSynth, DryadSynthConfig, Engine, SolveRequest, SynthOutcome, Synthesizer};
use smtkit::{Budget, SmtConfig, SmtSession, SmtSolver, Validity};
use std::time::Duration;
use sygus_ast::{Problem, Term};

/// The answer pure deduction gives for `p`.
fn deduced(name: &str, p: &Problem) -> Term {
    let solver = DryadSynth::new(DryadSynthConfig {
        engine: Engine::DeductionOnly,
        ..DryadSynthConfig::default()
    });
    let request = SolveRequest::new(p).with_timeout(Duration::from_secs(60));
    match solver.solve(&request).outcome {
        SynthOutcome::Solved(body) => body,
        other => panic!("{name}: deduction should solve it: {other:?}"),
    }
}

/// Asserts that `budget`'s run proved the formula valid with the DL engine
/// dispatched and no full-model conflict.
fn assert_dl_only(name: &str, via: &str, verdict: Validity, budget: &Budget) {
    assert!(
        matches!(verdict, Validity::Valid),
        "{name} via {via}: {verdict:?}"
    );
    let metrics = budget.tracer().metrics();
    assert_eq!(
        metrics.counter("smt.conflicts"),
        0,
        "{name} via {via}: full-model conflicts"
    );
    assert!(
        metrics.counter("theory.dl_dispatched") > 0,
        "{name} via {via}: DL engine not dispatched"
    );
}

#[test]
fn deduced_max_min_answers_verify_without_full_model_conflicts() {
    let family = ["max4", "max5", "max6", "max7", "min5"];
    let mut checked = 0;
    for b in sygus_benchmarks::suite() {
        if !family.contains(&b.name.as_str()) {
            continue;
        }
        checked += 1;
        let (name, p) = (&b.name, b.problem());
        let formula = p.verification_formula(&deduced(name, &p));

        let budget = Budget::unlimited();
        let solver = SmtSolver::with_config(SmtConfig::builder().budget(budget.clone()).build());
        let verdict = solver.check_valid(&formula).expect("one-shot check");
        assert_dl_only(name, "SmtSolver", verdict, &budget);

        let budget = Budget::unlimited();
        let mut session = SmtSession::new(SmtConfig::builder().budget(budget.clone()).build());
        let verdict = session.check_valid(&formula).expect("session check");
        assert_dl_only(name, "SmtSession", verdict, &budget);
    }
    assert_eq!(checked, family.len(), "every family member is in the suite");
}
