//! The EUSolver-style baseline synthesizer: CEGIS with bottom-up size
//! enumeration, observational-equivalence pruning, and decision-tree
//! unification (divide-and-conquer) for pointwise CLIA specifications.

use crate::{learn_decision_tree, CoveredTerm, EnumConfig, TermEnumerator};
use smtkit::{SmtConfig, SmtError, SmtSolver, Validity};
use std::cell::RefCell;
use std::collections::HashMap;
use sygus_ast::runtime::Budget;
use sygus_ast::{
    Env, FuncDef, GrammarFlavor, Problem, Sort, Symbol, Term, TermNode, Value,
};

/// Memoized per-point spec checks, shared across CEGIS rounds.
///
/// Each round re-enumerates candidates from size 1, so the same (candidate,
/// example) pairs are re-tested round after round; and the decision-tree
/// unifier re-tests every accumulated term against every example each time
/// it runs. The example pool is append-only, so an example's *index* names
/// the same environment for the whole run and `(term, index)` is a sound
/// cache key.
type EvalCache = RefCell<HashMap<(Term, usize), bool>>;

/// Configuration for [`BottomUpSolver`].
#[derive(Clone, Debug)]
pub struct BottomUpConfig {
    /// Enumeration limits.
    pub enum_config: EnumConfig,
    /// Shared resource governor (deadline, cancellation, fuel).
    pub budget: Budget,
    /// Maximum CEGIS iterations (counterexample rounds).
    pub max_cegis_rounds: usize,
    /// Whether decision-tree unification is attempted (requires the full
    /// CLIA grammar and a pointwise, single-invocation specification).
    pub unification: bool,
}

impl Default for BottomUpConfig {
    fn default() -> BottomUpConfig {
        BottomUpConfig {
            enum_config: EnumConfig::default(),
            budget: Budget::unlimited(),
            max_cegis_rounds: 64,
            unification: true,
        }
    }
}

/// Outcome of a synthesis attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthStatus {
    /// A verified solution (a term over the synth-fun parameters).
    Solved(Term),
    /// The search space was exhausted up to the configured limits.
    Exhausted,
    /// The deadline passed.
    Timeout,
    /// The background solver failed (resource limits, unsupported formula).
    Failed(String),
}

impl SynthStatus {
    /// The solution term, if solved.
    pub fn solution(&self) -> Option<&Term> {
        match self {
            SynthStatus::Solved(t) => Some(t),
            _ => None,
        }
    }
}

/// The bottom-up enumerative synthesizer (EUSolver analogue; Alur et al.,
/// *Scaling Enumerative Program Synthesis via Divide and Conquer*).
///
/// # Examples
///
/// ```
/// use enum_synth::{BottomUpConfig, BottomUpSolver, SynthStatus};
/// use sygus_parser::parse_problem;
/// let p = parse_problem(
///     "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
///      (constraint (= (f x) (+ x 1)))(check-synth)",
/// ).unwrap();
/// let solver = BottomUpSolver::new(BottomUpConfig::default());
/// match solver.solve(&p) {
///     SynthStatus::Solved(t) => assert_eq!(t.to_string(), "(+ x 1)"),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct BottomUpSolver {
    config: BottomUpConfig,
}

impl BottomUpSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: BottomUpConfig) -> BottomUpSolver {
        BottomUpSolver { config }
    }

    fn timed_out(&self) -> bool {
        self.config.budget.is_exhausted()
    }

    /// Runs CEGIS with bottom-up enumeration on `problem`.
    pub fn solve(&self, problem: &Problem) -> SynthStatus {
        let f = problem.synth_fun.name;
        let spec = problem.spec();
        // Pre-inline interpreted functions other than f so per-example
        // checks are pure evaluation.
        let mut examples = bind_params(problem, &initial_examples(problem));
        let pointwise = self.config.unification
            && problem.synth_fun.grammar.flavor() == GrammarFlavor::Clia
            && is_pointwise(problem);
        let smt = SmtSolver::with_config(SmtConfig {
            budget: self.config.budget.clone(),
            ..SmtConfig::default()
        });
        let constant_pool = constant_pool(problem, &self.config.enum_config);
        let eval_cache: EvalCache = RefCell::new(HashMap::new());

        let tracer = self.config.budget.tracer().clone();
        for round in 0..self.config.max_cegis_rounds {
            if self.timed_out() {
                return SynthStatus::Timeout;
            }
            let _ = self.config.budget.charge_fuel(1);
            tracer.metrics().bump("cegis.rounds");
            tracer.progress().note_cegis_round();
            let _span = tracer
                .span(sygus_ast::trace::Stage::BottomUp)
                .with_detail(|| format!("round={round} examples={}", examples.len()));
            let Some(candidate) = self.find_candidate(
                problem,
                &spec,
                &examples,
                pointwise,
                &constant_pool,
                &eval_cache,
            ) else {
                return if self.timed_out() {
                    SynthStatus::Timeout
                } else {
                    SynthStatus::Exhausted
                };
            };
            // Verify.
            let formula = problem.verification_formula(&candidate);
            match smt.check_valid(&formula) {
                Ok(Validity::Valid) => return SynthStatus::Solved(candidate),
                Ok(Validity::Invalid(model)) => {
                    let Some(env) = counterexample_env(problem, &model) else {
                        return SynthStatus::Failed("counterexample outside i64".into());
                    };
                    let fresh: Vec<Env> = bind_params(problem, std::slice::from_ref(&env))
                        .into_iter()
                        .filter(|e| !examples.contains(e))
                        .collect();
                    if fresh.is_empty() {
                        // The candidate passed all examples but the formula
                        // is falsified by a known point: evaluation and
                        // solving disagree (should not happen).
                        return SynthStatus::Failed(format!(
                            "stuck: duplicate counterexample {env} for candidate {candidate}"
                        ));
                    }
                    examples.extend(fresh);
                    tracer.progress().note_counterexample();
                }
                Err(SmtError::Timeout) => return SynthStatus::Timeout,
                Err(e) => return SynthStatus::Failed(e.to_string()),
            }
            let _ = f;
        }
        SynthStatus::Exhausted
    }

    /// Finds the smallest enumerated candidate consistent with `examples`,
    /// or a unification tree when whole-term search stalls.
    fn find_candidate(
        &self,
        problem: &Problem,
        spec: &Term,
        examples: &[Env],
        pointwise: bool,
        constant_pool: &[i64],
        cache: &EvalCache,
    ) -> Option<Term> {
        let sf = &problem.synth_fun;
        let tracer = self.config.budget.tracer().clone();
        let work_defs = RefCell::new(problem.definitions.clone());
        let eval_point = |t: &Term, env: &Env| -> bool {
            let mut defs = work_defs.borrow_mut();
            defs.define(sf.name, FuncDef::new(sf.params.clone(), sf.ret, t.clone()));
            spec.eval(env, &defs) == Ok(Value::Bool(true))
        };
        let point_ok = |t: &Term, idx: usize, env: &Env| -> bool {
            if let Some(&ok) = cache.borrow().get(&(t.clone(), idx)) {
                tracer.metrics().bump("enum.eval_cache_hits");
                return ok;
            }
            let ok = eval_point(t, env);
            cache.borrow_mut().insert((t.clone(), idx), ok);
            ok
        };
        let satisfies_all = |t: &Term| -> bool {
            examples
                .iter()
                .enumerate()
                .all(|(i, env)| point_ok(t, i, env))
        };
        let cfg = EnumConfig {
            constant_pool: constant_pool.to_vec(),
            budget: self.config.budget.clone(),
            ..self.config.enum_config.clone()
        };
        let mut en = TermEnumerator::new(&sf.grammar, &problem.definitions, examples.to_vec(), cfg);
        let mut int_terms: Vec<Term> = Vec::new();
        let mut conditions: Vec<Term> = Vec::new();
        let target_nt = sf.grammar.start();
        let bool_nt = (0..sf.grammar.nonterminals().len())
            .find(|&i| sf.grammar.nonterminal(i).sort == Sort::Bool);

        for size in 1..=self.config.enum_config.max_size {
            if self.timed_out() {
                return None;
            }
            self.config.budget.tracer().progress().set_height(size as u64);
            let _ = self.config.budget.charge_fuel(1);
            self.config
                .budget
                .tracer()
                .point(sygus_ast::trace::Stage::BottomUp, None, || {
                    format!("layer size={size}")
                });
            let layer = en.terms_of_nt_size(target_nt, size).to_vec();
            for t in &layer {
                if satisfies_all(t) {
                    return Some(t.clone());
                }
            }
            if pointwise {
                int_terms.extend(layer);
                if let Some(bnt) = bool_nt {
                    conditions.extend(en.terms_of_nt_size(bnt, size).to_vec());
                }
                // Attempt unification once enough material accumulated.
                if size >= 3 && !int_terms.is_empty() && !conditions.is_empty() {
                    let covered: Vec<CoveredTerm> = int_terms
                        .iter()
                        .map(|t| {
                            CoveredTerm::new(t.clone(), examples, |tt, env| {
                                // The unifier hands back a borrow from the
                                // pool; recover its index so the check hits
                                // the shared cache (the pool never holds
                                // duplicate points, so the position is
                                // unambiguous).
                                match examples.iter().position(|e| e == env) {
                                    Some(i) => point_ok(tt, i, env),
                                    None => eval_point(tt, env),
                                }
                            })
                        })
                        .collect();
                    if let Some(tree) =
                        learn_decision_tree(examples, &covered, &conditions, &problem.definitions)
                    {
                        if satisfies_all(&tree) {
                            return Some(tree);
                        }
                    }
                }
            }
        }
        None
    }
}

/// Deterministic starting examples: the all-zero point and one spread point.
fn initial_examples(problem: &Problem) -> Vec<Env> {
    let vars: Vec<(Symbol, Sort)> = problem.declared_vars.clone();
    let zeros: Env = vars
        .iter()
        .map(|&(v, s)| {
            let val = match s {
                Sort::Int => Value::Int(0),
                Sort::Bool => Value::Bool(false),
            };
            (v, val)
        })
        .collect();
    let spread: Env = vars
        .iter()
        .enumerate()
        .map(|(i, &(v, s))| {
            let val = match s {
                Sort::Int => Value::Int(if i % 2 == 0 {
                    i as i64 + 1
                } else {
                    -(i as i64) - 1
                }),
                Sort::Bool => Value::Bool(i % 2 == 0),
            };
            (v, val)
        })
        .collect();
    if zeros == spread {
        vec![zeros]
    } else {
        vec![zeros, spread]
    }
}

/// The example environments extended for evaluating candidate terms.
/// Examples bind the declared variables, while candidates range over the
/// synth-fun's parameters, which may be named differently. Each `env`
/// yields one environment per distinct application site of the function,
/// binding every parameter `env` leaves unbound to the site's evaluated
/// argument; duplicates are dropped. When every parameter is already bound
/// (the parameters are named like the declared variables) the examples
/// come back unchanged.
pub fn bind_params(problem: &Problem, envs: &[Env]) -> Vec<Env> {
    let sf = &problem.synth_fun;
    let unbound = |env: &Env| sf.params.iter().any(|&(p, _)| env.lookup(p).is_none());
    if !envs.iter().any(unbound) {
        return envs.to_vec();
    }
    let sites = problem.spec().application_sites(sf.name);
    if sites.is_empty() {
        return envs.to_vec();
    }
    let mut out: Vec<Env> = Vec::with_capacity(envs.len() * sites.len());
    for env in envs {
        for args in &sites {
            let mut bound = env.clone();
            for (&(p, _), arg) in sf.params.iter().zip(args) {
                if env.lookup(p).is_none() {
                    if let Ok(v) = arg.eval(env, &problem.definitions) {
                        bound.bind(p, v);
                    }
                }
            }
            if !out.contains(&bound) {
                out.push(bound);
            }
        }
    }
    out
}

/// A specification is pointwise when every application of the target
/// function uses the same argument tuple of distinct variables, so each
/// counterexample pins down exactly one function invocation.
pub fn is_pointwise(problem: &Problem) -> bool {
    let spec = problem.spec();
    let sites = spec.application_sites(problem.synth_fun.name);
    if sites.is_empty() {
        return false;
    }
    let first = &sites[0];
    if sites.iter().any(|s| s != first) {
        return false;
    }
    let mut seen = std::collections::BTreeSet::new();
    first.iter().all(|arg| match arg.node() {
        TermNode::Var(v, _) => seen.insert(*v),
        _ => false,
    })
}

/// Collects integer constants mentioned in the problem, merged with the
/// default pool — the standard EUSolver heuristic for `(Constant Int)`.
pub fn constant_pool(problem: &Problem, base: &EnumConfig) -> Vec<i64> {
    let mut pool = base.constant_pool.clone();
    let mut visit = |t: &Term| {
        for sub in t.subterms() {
            if let Some(n) = sub.as_int_const() {
                if !pool.contains(&n) {
                    pool.push(n);
                }
            }
        }
    };
    for c in &problem.constraints {
        visit(c);
    }
    for (_, def) in problem.definitions.iter() {
        visit(&def.body);
    }
    pool
}

/// Extracts a counterexample environment over the declared variables from an
/// SMT model (unconstrained variables default to 0 / false).
pub fn counterexample_env(problem: &Problem, model: &smtkit::Model) -> Option<Env> {
    let mut env = Env::new();
    for &(v, s) in &problem.declared_vars {
        let val = match s {
            Sort::Int => Value::Int(model.int(v).to_i64()?),
            Sort::Bool => Value::Bool(model.boolean(v)),
        };
        env.bind(v, val);
    }
    Some(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus_parser::parse_problem;

    fn solve(src: &str) -> SynthStatus {
        let p = parse_problem(src).unwrap();
        BottomUpSolver::new(BottomUpConfig::default()).solve(&p)
    }

    fn assert_solved(src: &str) -> Term {
        let p = parse_problem(src).unwrap();
        match BottomUpSolver::new(BottomUpConfig::default()).solve(&p) {
            SynthStatus::Solved(t) => {
                // Re-verify independently.
                let formula = p.verification_formula(&t);
                assert_eq!(
                    SmtSolver::new().check_valid(&formula),
                    Ok(Validity::Valid),
                    "solution {t} fails verification"
                );
                t
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn solves_identity() {
        let t = assert_solved(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        );
        assert_eq!(t.to_string(), "x");
    }

    #[test]
    fn solves_increment() {
        let t = assert_solved(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) (+ x 1)))(check-synth)",
        );
        assert_eq!(t.size(), 3);
    }

    /// Unbound parameters get one environment per application site; bound
    /// ones (named like the declared variables) leave examples unchanged.
    #[test]
    fn bind_params_binds_each_application_site() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var a Int)(declare-var b Int)\
             (constraint (= (f a) (f (+ b 1))))(check-synth)",
        )
        .unwrap();
        let (a, b, x) = (Symbol::new("a"), Symbol::new("b"), Symbol::new("x"));
        let env = Env::from_pairs(&[a, b], &[Value::Int(1), Value::Int(5)]);
        let bound = bind_params(&p, std::slice::from_ref(&env));
        let xs: Vec<Option<Value>> = bound.iter().map(|e| e.lookup(x)).collect();
        assert_eq!(xs, vec![Some(Value::Int(1)), Some(Value::Int(6))]);
        assert!(bound.iter().all(|e| e.lookup(a) == Some(Value::Int(1))));

        let same = parse_problem(
            "(set-logic LIA)(synth-fun f ((a Int)) Int)(declare-var a Int)\
             (constraint (= (f a) a))(check-synth)",
        )
        .unwrap();
        let env = Env::from_pairs(&[a], &[Value::Int(3)]);
        assert_eq!(bind_params(&same, std::slice::from_ref(&env)), vec![env]);
    }

    #[test]
    fn solves_max2_via_unification() {
        let t = assert_solved(
            "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
             (declare-var x Int)(declare-var y Int)\
             (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
             (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)",
        );
        assert!(t.to_string().contains("ite"), "expected a tree, got {t}");
    }

    #[test]
    fn solves_constant_function() {
        let t = assert_solved(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) 2))(check-synth)",
        );
        assert_eq!(t, Term::int(2));
    }

    #[test]
    fn solves_custom_grammar_problem() {
        // f must equal x + x but the grammar only has double.
        let t = assert_solved(
            "(set-logic LIA)\
             (define-fun double ((a Int)) Int (+ a a))\
             (synth-fun f ((x Int)) Int ((S Int (x (double S)))))\
             (declare-var x Int)\
             (constraint (= (f x) (+ x x)))(check-synth)",
        );
        assert_eq!(t.to_string(), "(double x)");
    }

    #[test]
    fn exhausts_on_unsolvable_in_grammar() {
        // Grammar can only produce x; spec wants x+1.
        let status = solve(
            "(set-logic LIA)(synth-fun f ((x Int)) Int ((S Int (x))))\
             (declare-var x Int)(constraint (= (f x) (+ x 1)))(check-synth)",
        );
        assert_eq!(status, SynthStatus::Exhausted);
    }

    #[test]
    fn pointwise_detection() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int) (y Int)) Int)\
             (declare-var a Int)(declare-var b Int)\
             (constraint (>= (f a b) a))(check-synth)",
        )
        .unwrap();
        assert!(is_pointwise(&p));
        let q = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)\
             (declare-var a Int)(declare-var b Int)\
             (constraint (= (f a) (f b)))(check-synth)",
        )
        .unwrap();
        assert!(!is_pointwise(&q));
        // Non-variable argument: not pointwise.
        let r = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)\
             (declare-var a Int)\
             (constraint (= (f (+ a 1)) a))(check-synth)",
        )
        .unwrap();
        assert!(!is_pointwise(&r));
    }

    #[test]
    fn constant_pool_includes_spec_constants() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) 42))(check-synth)",
        )
        .unwrap();
        let pool = constant_pool(&p, &EnumConfig::default());
        assert!(pool.contains(&42));
        assert!(pool.contains(&0));
    }

    #[test]
    fn multi_invocation_spec_solved_by_whole_term() {
        // f(a) = f(b) forces a constant function (or any symmetric one);
        // whole-term enumeration finds a constant.
        let t = assert_solved(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)\
             (declare-var a Int)(declare-var b Int)\
             (constraint (= (f a) (f b)))(check-synth)",
        );
        assert!(t.as_int_const().is_some(), "expected constant, got {t}");
    }

    #[test]
    fn timeout_respected() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int) (y Int) (z Int)) Int)\
             (declare-var x Int)(declare-var y Int)(declare-var z Int)\
             (constraint (>= (f x y z) (+ (+ x y) z)))\
             (constraint (>= (f x y z) (- (- x y) z)))\
             (constraint (>= (f x y z) 17))\
             (constraint (or (= (f x y z) (+ (+ x y) z)) (or (= (f x y z) (- (- x y) z)) (= (f x y z) 17))))\
             (check-synth)",
        )
        .unwrap();
        let cfg = BottomUpConfig {
            budget: Budget::from_timeout(std::time::Duration::ZERO),
            ..BottomUpConfig::default()
        };
        let status = BottomUpSolver::new(cfg).solve(&p);
        assert_eq!(status, SynthStatus::Timeout);
    }

    #[test]
    fn cancellation_respected() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        )
        .unwrap();
        let budget = Budget::unlimited();
        budget.cancel();
        let cfg = BottomUpConfig {
            budget,
            ..BottomUpConfig::default()
        };
        assert_eq!(BottomUpSolver::new(cfg).solve(&p), SynthStatus::Timeout);
    }
}
