//! Constant-free custom grammars search heights sequentially whatever the
//! thread count: `--threads 2` runs the same backend as `--threads 1`, so
//! it solves the same problems with exactly the same machine-independent
//! work (CEGIS rounds, SMT queries).

use dryadsynth::{
    certify_solution, DryadSynth, DryadSynthConfig, SolveRequest, SynthOutcome, Synthesizer,
};
use std::time::Duration;
use sygus_ast::Problem;

fn benchmark(name: &str) -> Problem {
    sygus_benchmarks::suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("{name} is in the suite"))
        .problem()
}

/// Solves `p` with `threads` height workers; returns the certified
/// solution's CEGIS rounds and SMT queries.
fn solve_counts(name: &str, p: &Problem, threads: usize) -> (u64, u64) {
    let solver = DryadSynth::new(DryadSynthConfig {
        threads,
        ..DryadSynthConfig::default()
    });
    let request = SolveRequest::new(p).with_timeout(Duration::from_secs(60));
    let report = solver.solve(&request);
    let SynthOutcome::Solved(body) = &report.outcome else {
        panic!("{name} threads={threads}: {:?}", report.outcome);
    };
    let cert = certify_solution(p, body, None);
    assert!(
        cert.certified(),
        "{name} threads={threads}: {body} fails certification: {:?}",
        cert.failure_reason()
    );
    let rounds = request.budget.tracer().metrics().counter("cegis.rounds");
    (rounds, report.stats.smt_queries)
}

#[test]
fn two_threads_match_one_thread_on_enumerated_grammars() {
    for name in ["qm_abs", "qm_max2"] {
        let p = benchmark(name);
        let sequential = solve_counts(name, &p, 1);
        let threaded = solve_counts(name, &p, 2);
        assert!(sequential.0 > 0, "{name}: no CEGIS rounds counted");
        assert_eq!(
            threaded, sequential,
            "{name}: (cegis.rounds, smt.queries) differ between threads 2 and 1"
        );
    }
}
