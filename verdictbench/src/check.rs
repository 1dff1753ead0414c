//! Scoring one answer. An answer counts as solved only when it passes
//! `certify_solution` and an independent concrete check: membership in the
//! problem grammar, and evaluation of the verification formula on seeded
//! random and boundary inputs with `Term::eval`, which involves no SMT.

use crate::rng::SplitMix64;
use dryadsynth::certify_solution;
use std::time::Duration;
use sygus_ast::{Budget, Env, EvalError, Op, Problem, Sort, Symbol, Term, Value};
use sygus_parser::SExpr;

/// Wall-clock window of one certification, the same window the daemon
/// grants its own certification pass.
pub const CERTIFY_WINDOW: Duration = Duration::from_secs(10);

/// Concrete inputs evaluated per answer.
const CONCRETE_INPUTS: usize = 64;

/// Integers every variable takes in turn before random sampling.
const BOUNDARY: [i64; 11] = [0, 1, -1, 2, -2, 3, -3, 100, -100, 1 << 20, -(1 << 20)];

/// Why an answer returned as solved was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// `certify_solution` did not certify the answer.
    Certify(String),
    /// The grammar does not derive the answer.
    Grammar,
    /// The verification formula evaluated to false on this input.
    Counterexample(String),
    /// Evaluation failed for a reason other than arithmetic overflow.
    Eval(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Certify(why) => write!(f, "certify_solution: {why}"),
            Rejection::Grammar => f.write_str("answer is outside the problem grammar"),
            Rejection::Counterexample(env) => write!(f, "spec is false at {env}"),
            Rejection::Eval(why) => write!(f, "evaluation failed: {why}"),
        }
    }
}

/// Scores `body` against `problem`: certification first, then the
/// independent checks. `seed` fixes the random inputs.
pub fn score(problem: &Problem, body: &Term, seed: u64) -> Result<(), Rejection> {
    let budget = Budget::from_timeout(CERTIFY_WINDOW);
    let cert = certify_solution(problem, body, Some(&budget));
    if let Some(why) = cert.failure_reason() {
        return Err(Rejection::Certify(why));
    }
    concrete_check(problem, body, seed)
}

/// The checks that share no code with the solver's certifier: grammar
/// membership and concrete evaluation of the verification formula.
pub fn concrete_check(problem: &Problem, body: &Term, seed: u64) -> Result<(), Rejection> {
    if !problem.grammar_admits(body) {
        return Err(Rejection::Grammar);
    }
    let formula = problem.verification_formula(body);
    let vars = &problem.declared_vars;
    let mut rng = SplitMix64::new(seed);
    for i in 0..CONCRETE_INPUTS {
        let env: Env = vars
            .iter()
            .enumerate()
            .map(|(k, &(v, sort))| {
                let value = match sort {
                    Sort::Bool => Value::Bool(rng.next_u64() & 1 == 1),
                    Sort::Int if i < BOUNDARY.len() => {
                        // Variable k walks the boundary list from its own
                        // offset, so variables differ on most inputs.
                        Value::Int(BOUNDARY[(i + k) % BOUNDARY.len()])
                    }
                    Sort::Int => Value::Int(rng.below(2001) as i64 - 1000),
                };
                (v, value)
            })
            .collect();
        match formula.eval(&env, &problem.definitions) {
            Ok(Value::Bool(true)) | Err(EvalError::Overflow) => {}
            Ok(_) => return Err(Rejection::Counterexample(env.to_string())),
            Err(e) => return Err(Rejection::Eval(e.to_string())),
        }
    }
    Ok(())
}

/// Reads an answer printed by the solver back into terms, keeping its exact
/// shape: the parser's smart constructors would flatten `(+ (+ x x) x)`,
/// and grammar membership depends on the shape. The printer writes a
/// negative literal as `(- k)`, the same text as a negation of `k`, so the
/// answer is read both ways; the first reading is the literal one.
pub fn read_answer(problem: &Problem, answer: &str) -> Vec<Term> {
    let Ok(exprs) = sygus_parser::parse_sexprs(answer) else {
        return Vec::new();
    };
    let [expr] = exprs.as_slice() else {
        return Vec::new();
    };
    let mut readings: Vec<Term> = [true, false]
        .into_iter()
        .filter_map(|literal| shape(problem, expr, literal))
        .collect();
    readings.dedup();
    readings
}

fn shape(problem: &Problem, e: &SExpr, negative_literals: bool) -> Option<Term> {
    let items = match e {
        SExpr::Atom(token, _) => {
            if let Some(n) = e.as_int() {
                return Some(Term::int(n));
            }
            return match token.as_str() {
                "true" => Some(Term::bool(true)),
                "false" => Some(Term::bool(false)),
                name => {
                    let sym = Symbol::new(name);
                    match problem.synth_fun.params.iter().find(|(p, _)| *p == sym) {
                        Some(&(p, sort)) => Some(Term::var(p, sort)),
                        None => {
                            let def = problem.definitions.get(sym)?;
                            Some(Term::app(Op::Apply(sym, def.ret), Vec::new()))
                        }
                    }
                }
            };
        }
        SExpr::List(items, _) => items,
    };
    let (head, rest) = items.split_first()?;
    let head = head.as_atom()?;
    if negative_literals && head == "-" && rest.len() == 1 {
        if let Some(n) = rest[0].as_int() {
            return Some(Term::int(n.checked_neg()?));
        }
    }
    let args: Vec<Term> = rest
        .iter()
        .map(|a| shape(problem, a, negative_literals))
        .collect::<Option<_>>()?;
    let op = match head {
        "+" => Op::Add,
        "-" if args.len() == 1 => Op::Neg,
        "-" => Op::Sub,
        "*" => Op::Mul,
        "ite" => Op::Ite,
        "=" => Op::Eq,
        "<=" => Op::Le,
        "<" => Op::Lt,
        ">=" => Op::Ge,
        ">" => Op::Gt,
        "and" => Op::And,
        "or" => Op::Or,
        "not" => Op::Not,
        "=>" => Op::Implies,
        name => {
            let sym = Symbol::new(name);
            Op::Apply(sym, problem.definitions.get(sym)?.ret)
        }
    };
    Some(Term::app(op, args))
}
