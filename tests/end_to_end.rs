//! Cross-crate integration tests: the benchmark suite flows through the
//! parser, printer, and every solver engine; all solutions are
//! independently re-verified by the SMT substrate.

use dryadsynth::{
    certify_solution, competition_solvers, verify_solution, DryadSynth, EuSolverBaseline,
    SolveRequest, SynthOutcome, Synthesizer,
};
use std::time::Duration;
use sygus_ast::Problem;
use sygus_benchmarks::{suite, track_suite, Track};

/// Solves `p` under a wall-clock timeout through the unified request API.
fn solve(solver: &dyn Synthesizer, p: &Problem, secs: u64) -> SynthOutcome {
    let request = SolveRequest::new(p).with_timeout(Duration::from_secs(secs));
    solver.solve(&request).outcome
}

/// Every generated benchmark parses, and its reprint parses to the same
/// constraint set (parser ↔ printer round trip).
#[test]
fn suite_round_trips() {
    for b in suite() {
        let p = b.problem();
        let printed = sygus_parser::to_sygus(&p);
        let p2 = sygus_parser::parse_problem(&printed)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", b.name));
        assert_eq!(p.constraints, p2.constraints, "{}", b.name);
        assert_eq!(p.synth_fun.params, p2.synth_fun.params, "{}", b.name);
    }
}

/// DryadSynth smoke-solves the easiest tier of every track; every claimed
/// solution re-verifies.
#[test]
fn dryadsynth_solves_easy_tier_of_every_track() {
    let solver = DryadSynth::default();
    for t in Track::all() {
        let easy: Vec<_> = track_suite(t).into_iter().filter(|b| b.tier <= 1).collect();
        assert!(!easy.is_empty(), "track {t} has no tier-1 benchmarks");
        let mut solved = 0;
        for b in &easy {
            let p = b.problem();
            if let SynthOutcome::Solved(body) = solve(&solver, &p, 20) {
                assert!(
                    verify_solution(&p, &body, None),
                    "{}: unverified solution {body}",
                    b.name
                );
                solved += 1;
            }
        }
        assert!(
            solved > 0,
            "track {t}: DryadSynth solved none of the easy tier"
        );
    }
}

/// Representative benchmarks from each track solve and verify.
#[test]
fn representative_benchmarks_solve() {
    let names = ["max3", "abs_diff", "counter_to_8", "even_keeper", "qm_relu"];
    let solver = DryadSynth::default();
    for b in suite() {
        if !names.contains(&b.name.as_str()) {
            continue;
        }
        let p = b.problem();
        match solve(&solver, &p, 30) {
            SynthOutcome::Solved(body) => {
                assert!(verify_solution(&p, &body, None), "{}", b.name);
            }
            other => panic!("{}: {other:?}", b.name),
        }
    }
}

/// Solvers never return unverifiable solutions, whatever the benchmark
/// (sound-by-construction check across the lineup on a small sample).
#[test]
fn no_solver_returns_wrong_solutions() {
    let sample = ["max2", "counter_to_8", "qm_relu", "symmetric_constant"];
    let solvers = competition_solvers();
    for b in suite() {
        if !sample.contains(&b.name.as_str()) {
            continue;
        }
        let p = b.problem();
        for s in &solvers {
            if let SynthOutcome::Solved(body) = solve(s.as_ref(), &p, 10) {
                assert!(
                    verify_solution(&p, &body, None),
                    "{} returned a wrong solution for {}: {body}",
                    s.name(),
                    b.name
                );
            }
        }
    }
}

/// The CLI answer format round-trips through the parser as a definition.
#[test]
fn solution_printing_is_reparsable() {
    let b = sygus_benchmarks::max_n(2);
    let p = b.problem();
    let solver = DryadSynth::default();
    let SynthOutcome::Solved(body) = solve(&solver, &p, 20) else {
        panic!("max2 must solve");
    };
    let answer = sygus_parser::solution_to_sygus(&p, &body);
    // Embed the definition in a tiny script to check syntax.
    let script = format!("(set-logic LIA)\n{answer}\n(synth-fun g ((a Int)) Int)(constraint (= (g 0) 0))(check-synth)");
    let reparsed = sygus_parser::parse_problem(&script).expect("answer is valid SyGuS");
    assert!(reparsed.definitions.contains(p.synth_fun.name));
}

/// Grammar membership is enforced end to end on the General track:
/// solutions stay inside their custom grammars.
#[test]
fn general_track_solutions_respect_grammars() {
    let solver = DryadSynth::default();
    for b in track_suite(Track::General) {
        if b.tier > 2 {
            continue; // keep the test fast
        }
        let p = b.problem();
        if let SynthOutcome::Solved(body) = solve(&solver, &p, 20) {
            assert!(
                p.grammar_admits(&body),
                "{}: solution {body} escapes the grammar",
                b.name
            );
        }
    }
}

/// Parameters named unlike the declared variables: candidate terms range
/// over `p q` while the examples bind `v0 v1`, so enumeration must bind the
/// parameters at the application site to tell terms apart. The renamed
/// `qm_max2` solves and certifies under DryadSynth and the EUSolver
/// baseline.
#[test]
fn renamed_parameters_solve_under_enumeration() {
    let p = sygus_parser::parse_problem(
        "(set-logic LIA)\
         (define-fun qm ((a Int) (b Int)) Int (ite (< a 0) b a))\
         (synth-fun f ((p Int) (q Int)) Int ((S Int (p q 0 1 (+ S S) (- S S) (qm S S)))))\
         (declare-var v0 Int)(declare-var v1 Int)\
         (constraint (= (f v0 v1) (ite (>= v0 v1) v0 v1)))\
         (check-synth)",
    )
    .expect("parses");
    let solvers: [&dyn Synthesizer; 2] = [&DryadSynth::default(), &EuSolverBaseline];
    for solver in solvers {
        let SynthOutcome::Solved(body) = solve(solver, &p, 20) else {
            panic!("{} must solve the renamed qm_max2", solver.name());
        };
        let cert = certify_solution(&p, &body, None);
        assert!(
            cert.certified(),
            "{}: {body} fails certification: {:?}",
            solver.name(),
            cert.failure_reason()
        );
    }
}
