//! Concrete enumeration obeys the run budget inside a layer: a deadline or
//! a cancellation stops a height-4/5 search of a constant-free custom
//! grammar within a bounded overrun, instead of after the layer finishes.

use dryadsynth::{Budget, ExamplePool, FixedHeightConfig, FixedHeightResult, FixedHeightSolver};
use std::time::{Duration, Instant};
use sygus_ast::Problem;

/// How far past the stop request a search may run before returning.
const OVERRUN: Duration = Duration::from_millis(150);

/// Second-largest of three in the qm grammar: a custom grammar with no
/// `(Constant Int)` holes, so every height is concretely enumerated, and
/// heights 4 and 5 take seconds.
fn qm_second_max3() -> Problem {
    sygus_benchmarks::suite()
        .into_iter()
        .find(|b| b.name == "qm_second_max3")
        .expect("qm_second_max3 is in the suite")
        .problem()
}

/// Runs one height on `pool` under `budget` and returns the result with its
/// wall time.
fn timed_height(
    p: &Problem,
    height: usize,
    budget: Budget,
    pool: &ExamplePool,
) -> (FixedHeightResult, Duration) {
    let solver = FixedHeightSolver::new(FixedHeightConfig {
        budget,
        ..FixedHeightConfig::default()
    });
    let started = Instant::now();
    let result = solver.solve_at_height(p, height, pool);
    (result, started.elapsed())
}

#[test]
fn enumeration_stops_at_the_deadline() {
    let p = qm_second_max3();
    let window = Duration::from_millis(300);
    for height in [4, 5] {
        let pool = ExamplePool::default();
        let (result, elapsed) = timed_height(&p, height, Budget::from_timeout(window), &pool);
        assert_eq!(result, FixedHeightResult::Timeout, "height {height}");
        assert!(
            elapsed <= window + OVERRUN,
            "height {height}: returned after {elapsed:?}, deadline {window:?}"
        );
    }
}

#[test]
fn enumeration_stops_on_cancellation() {
    let p = qm_second_max3();
    let delay = Duration::from_millis(100);
    for height in [4, 5] {
        // Five CEGIS rounds at this height grow the pool to the point where
        // the next round searches the large layers; counting rounds instead
        // of time keeps the warm-up the same on every machine.
        let pool = ExamplePool::default();
        let warm_up = FixedHeightSolver::new(FixedHeightConfig {
            max_cegis_rounds: 5,
            ..FixedHeightConfig::default()
        });
        assert!(matches!(
            warm_up.solve_at_height(&p, height, &pool),
            FixedHeightResult::Failed(_)
        ));
        let budget = Budget::unlimited();
        let canceller = {
            let budget = budget.clone();
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                budget.cancel();
            })
        };
        let (result, elapsed) = timed_height(&p, height, budget, &pool);
        canceller.join().expect("canceller thread");
        assert_eq!(result, FixedHeightResult::Timeout, "height {height}");
        assert!(
            elapsed <= delay + OVERRUN,
            "height {height}: returned after {elapsed:?}, cancelled at {delay:?}"
        );
    }
}
