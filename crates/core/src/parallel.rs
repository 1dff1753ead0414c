//! Enumeration backends for the cooperative loop, including the
//! parallelized height search of Section 5.1 and the EUSolver-backed
//! variant used by the Figure 16 ablation.

use crate::runtime::{panic_message, Budget};
use crate::{ExamplePool, FixedHeightConfig, FixedHeightResult, FixedHeightSolver};
use enum_synth::{BottomUpConfig, BottomUpSolver, SynthStatus};
use std::panic::{catch_unwind, AssertUnwindSafe};
use sygus_ast::{Problem, Term};

/// An enumeration backend pluggable into the cooperative loop: called with
/// increasing height steps until it solves, gives up, or times out.
pub trait EnumBackend: Send + Sync {
    /// Attempts the problem at height step `height` with the node's shared
    /// counterexample pool.
    fn solve_step(
        &self,
        problem: &Problem,
        height: usize,
        examples: &ExamplePool,
    ) -> FixedHeightResult;

    /// How many height steps the backend wants before the node is declared
    /// exhausted.
    fn max_steps(&self) -> usize;

    /// How many heights one step consumes (the parallel backend searches
    /// several heights per step).
    fn stride(&self) -> usize {
        1
    }

    /// A short name for tracing and the experiment harness.
    fn name(&self) -> &'static str;
}

/// The vanilla backend: sequential fixed-height synthesis.
#[derive(Clone, Debug)]
pub struct FixedHeightBackend {
    solver: FixedHeightSolver,
    max_height: usize,
}

impl FixedHeightBackend {
    /// Creates the backend with the given per-height configuration.
    pub fn new(config: FixedHeightConfig, max_height: usize) -> FixedHeightBackend {
        FixedHeightBackend {
            solver: FixedHeightSolver::new(config),
            max_height,
        }
    }
}

impl EnumBackend for FixedHeightBackend {
    fn solve_step(
        &self,
        problem: &Problem,
        height: usize,
        examples: &ExamplePool,
    ) -> FixedHeightResult {
        self.solver.solve_at_height(problem, height, examples)
    }

    fn max_steps(&self) -> usize {
        self.max_height
    }

    fn name(&self) -> &'static str {
        "fixed-height"
    }
}

/// The parallel backend (Section 5.1): one step searches `threads`
/// consecutive heights concurrently, all sharing the counterexample pool.
/// The first worker to solve cancels its siblings, so the step returns the
/// smallest height among the workers that finished solved, which need not
/// be the smallest solvable height of the band. The solver façade keeps
/// grammars searched by concrete enumeration at every height off this
/// backend (see `DryadSynth`).
#[derive(Clone, Debug)]
pub struct ParallelHeightBackend {
    config: FixedHeightConfig,
    max_height: usize,
    threads: usize,
}

impl ParallelHeightBackend {
    /// Creates the backend; `threads` is clamped to at least 1.
    pub fn new(
        config: FixedHeightConfig,
        max_height: usize,
        threads: usize,
    ) -> ParallelHeightBackend {
        ParallelHeightBackend {
            config,
            max_height,
            threads: threads.max(1),
        }
    }
}

impl EnumBackend for ParallelHeightBackend {
    fn solve_step(
        &self,
        problem: &Problem,
        height: usize,
        examples: &ExamplePool,
    ) -> FixedHeightResult {
        let top = (height + self.threads - 1).min(self.max_height);
        let heights: Vec<usize> = (height..=top).collect();
        if heights.len() <= 1 {
            let solver = FixedHeightSolver::new(self.config.clone());
            return solver.solve_at_height(problem, height, examples);
        }
        // Sibling cancellation uses a child budget: cancelling the band
        // stops only the band's workers, not the surrounding run; the run's
        // own deadline/fuel/cancellation still apply through the parent
        // link.
        let band: Budget = self.config.budget.child();
        let results: Vec<(usize, FixedHeightResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = heights
                .iter()
                .map(|&h| {
                    let mut cfg = self.config.clone();
                    cfg.budget = band.clone();
                    let band = band.clone();
                    scope.spawn(move || {
                        let tracer = band.tracer().clone();
                        let _span = tracer
                            .span(sygus_ast::trace::Stage::Worker)
                            .with_detail(|| format!("height={h}"));
                        tracer.progress().set_height(h as u64);
                        // A panicking worker is contained here: siblings keep
                        // running and the payload is reported as a fault.
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            let solver = FixedHeightSolver::new(cfg);
                            solver.solve_at_height(problem, h, examples)
                        }))
                        .unwrap_or_else(|payload| {
                            FixedHeightResult::Fault(format!(
                                "height-{h} worker panicked: {}",
                                panic_message(&*payload)
                            ))
                        });
                        if matches!(r, FixedHeightResult::Solved(_)) {
                            // First solution cancels the sibling heights.
                            band.cancel();
                        }
                        (h, r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|j| {
                    // The closure catches its own panics, so join can only
                    // fail on catastrophic unwinds; contain those too.
                    j.join().unwrap_or_else(|payload| {
                        (
                            usize::MAX,
                            FixedHeightResult::Fault(format!(
                                "worker join failed: {}",
                                panic_message(&*payload)
                            )),
                        )
                    })
                })
                .collect()
        });
        // Prefer the smallest solved height; then surface faults; then
        // propagate timeouts; then failures; else no solution in this band.
        let mut best: Option<(usize, Term)> = None;
        let mut timeout = false;
        let mut failure: Option<String> = None;
        let mut fault: Option<String> = None;
        for (h, r) in results {
            match r {
                FixedHeightResult::Solved(t) => match &best {
                    Some((bh, _)) if *bh <= h => {}
                    _ => best = Some((h, t)),
                },
                FixedHeightResult::Timeout => timeout = true,
                FixedHeightResult::Failed(m) => failure = Some(m),
                FixedHeightResult::Fault(m) => fault = Some(m),
                FixedHeightResult::NoSolution => {}
            }
        }
        match (best, fault) {
            (Some((_, t)), _) => FixedHeightResult::Solved(t),
            (None, Some(m)) => FixedHeightResult::Fault(m),
            (None, None) if timeout => FixedHeightResult::Timeout,
            (None, None) => match failure {
                Some(m) => FixedHeightResult::Failed(m),
                None => FixedHeightResult::NoSolution,
            },
        }
    }

    fn max_steps(&self) -> usize {
        self.max_height
    }

    fn stride(&self) -> usize {
        self.threads
    }

    fn name(&self) -> &'static str {
        "parallel-fixed-height"
    }
}

/// The EUSolver-backed backend of the Figure 16 ablation: each invocation
/// is an *unbounded* bottom-up enumerative search (the paper notes the
/// height cannot be controlled when delegating to EUSolver), so only one
/// step runs.
#[derive(Clone, Debug)]
pub struct BottomUpBackend {
    config: BottomUpConfig,
}

impl BottomUpBackend {
    /// Creates the backend.
    pub fn new(config: BottomUpConfig) -> BottomUpBackend {
        BottomUpBackend { config }
    }

    /// Sets the resource budget on the embedded solver.
    pub fn with_budget(mut self, budget: Budget) -> BottomUpBackend {
        self.config.budget = budget;
        self
    }
}

impl EnumBackend for BottomUpBackend {
    fn solve_step(
        &self,
        problem: &Problem,
        height: usize,
        _examples: &ExamplePool,
    ) -> FixedHeightResult {
        if height > 1 {
            // The search was already unbounded; retrying cannot help.
            return FixedHeightResult::NoSolution;
        }
        match BottomUpSolver::new(self.config.clone()).solve(problem) {
            SynthStatus::Solved(t) => FixedHeightResult::Solved(t),
            SynthStatus::Timeout => FixedHeightResult::Timeout,
            SynthStatus::Exhausted => FixedHeightResult::NoSolution,
            SynthStatus::Failed(m) => FixedHeightResult::Failed(m),
        }
    }

    fn max_steps(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "bottom-up"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus_parser::parse_problem;

    const MAX2: &str = "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
        (declare-var x Int)(declare-var y Int)\
        (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
        (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)";

    fn deadline_cfg(secs: u64) -> FixedHeightConfig {
        FixedHeightConfig {
            budget: Budget::from_timeout(std::time::Duration::from_secs(secs)),
            ..FixedHeightConfig::default()
        }
    }

    #[test]
    fn parallel_backend_finds_max2() {
        let p = parse_problem(MAX2).unwrap();
        let backend = ParallelHeightBackend::new(deadline_cfg(60), 4, 3);
        let pool = ExamplePool::default();
        match backend.solve_step(&p, 1, &pool) {
            FixedHeightResult::Solved(t) => {
                assert!(crate::verify_solution(&p, &t, None), "bad solution {t}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parallel_backend_prefers_smallest_height() {
        // Identity is solvable at height 1; the band [1..3] must return the
        // height-1 (linear) solution, not an ite tree.
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        )
        .unwrap();
        let backend = ParallelHeightBackend::new(deadline_cfg(60), 4, 3);
        let pool = ExamplePool::default();
        match backend.solve_step(&p, 1, &pool) {
            FixedHeightResult::Solved(t) => {
                assert!(!t.to_string().contains("ite"), "{t}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bottom_up_backend_single_step() {
        let p = parse_problem(MAX2).unwrap();
        let backend = BottomUpBackend::new(BottomUpConfig::default());
        let pool = ExamplePool::default();
        match backend.solve_step(&p, 1, &pool) {
            FixedHeightResult::Solved(t) => {
                assert!(crate::verify_solution(&p, &t, None));
            }
            other => panic!("{other:?}"),
        }
        // Step 2 is a no-op by design.
        assert_eq!(
            backend.solve_step(&p, 2, &pool),
            FixedHeightResult::NoSolution
        );
    }

    #[test]
    fn backend_names_and_strides() {
        let seq = FixedHeightBackend::new(FixedHeightConfig::default(), 5);
        assert_eq!(seq.name(), "fixed-height");
        assert_eq!(seq.stride(), 1);
        assert_eq!(seq.max_steps(), 5);
        let par = ParallelHeightBackend::new(FixedHeightConfig::default(), 6, 4);
        assert_eq!(par.stride(), 4);
        let bu = BottomUpBackend::new(BottomUpConfig::default());
        assert_eq!(bu.max_steps(), 1);
    }
}
