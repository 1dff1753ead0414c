//! The term-level SMT solver: lazy DPLL(T) over the CDCL SAT core and the
//! branch-and-bound LIA theory solver.
//!
//! Pipeline: integer `ite`s are purified out of atoms with fresh variables,
//! the boolean skeleton is Tseitin-encoded with comparison atoms mapped to
//! SAT variables, and each propositional model's asserted theory literals
//! are checked by [`check_lia`]; theory conflicts come back as (greedily
//! minimized) blocking clauses.

use crate::theory::{fits_dl, TheorySelect, TheorySolver};
use crate::{check_lia_polled, BigInt, LiaResult, LinCon, Lit, Rel, SatResult, SatSolver};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Instant;
use sygus_ast::runtime::{Budget, BudgetError};
use sygus_ast::trace::Stage;
use sygus_ast::{Env, LinearExpr, Op, Sort, Symbol, Term, TermNode, Value};

/// Configuration for [`SmtSolver`].
///
/// Construct through [`SmtConfig::builder`] (or struct-update from
/// `SmtConfig::default()`). Direct exhaustive struct-literal construction
/// is **deprecated** as an API pattern: every new knob (most recently
/// [`theory`](SmtConfig::theory)) is a breaking change for such callers,
/// while builder and struct-update callers pick up defaults silently.
#[derive(Clone, Debug)]
pub struct SmtConfig {
    /// Shared resource governor: deadline, cancellation, and fuel. Queries
    /// past the deadline (or on a cancelled budget) fail with
    /// [`SmtError::Timeout`]; an exhausted fuel/memory allowance fails with
    /// [`SmtError::ResourceLimit`]. The budget also accumulates the query
    /// and retry-ladder telemetry surfaced by `--stats`.
    pub budget: Budget,
    /// Branch-and-bound node budget per theory check — the base rung of the
    /// retry ladder.
    pub lia_budget: u64,
    /// Maximum lazy-loop iterations (theory conflict rounds) — the base
    /// rung of the retry ladder.
    pub max_theory_rounds: u64,
    /// How many geometric retry-ladder escalations to take on
    /// [`SmtError::ResourceLimit`] before reporting it (each rung multiplies
    /// `lia_budget` and `max_theory_rounds` by 4). Escalation stops early
    /// when the budget itself is exhausted.
    pub retry_escalations: u32,
    /// Whether to greedily minimize theory conflicts before blocking.
    pub minimize_cores: bool,
    /// Maximum depth of lazy disequality splitting per theory check.
    pub max_diseq_split: usize,
    /// Whether to certify answers before reporting them: `unsat` is
    /// replayed through the independent DRAT/RUP checker ([`crate::drat`])
    /// and `sat` models are re-evaluated on the asserted formula with exact
    /// integer arithmetic. A failed certificate surfaces as
    /// [`SmtError::Certification`] — never as a wrong answer.
    pub certify: bool,
    /// Whether consumers that *can* keep a persistent [`crate::SmtSession`]
    /// (the CEGIS loops) should do so. Off means every query is solved from
    /// scratch — useful for A/B timing and as a bisection lever.
    pub session_reuse: bool,
    /// What a session does with clauses guarded by a popped scope.
    pub clause_gc: ClauseGcPolicy,
    /// Which theory engine serves the eager DPLL(T) partial checks:
    /// [`TheorySelect::Auto`] dispatches queries whose atoms all fit the
    /// difference-logic fragment to the specialized constraint-graph engine
    /// and everything else to the warm simplex. `Default` reads the
    /// process-wide default ([`crate::process_default_theory`]), which
    /// binaries set from `--theory`.
    pub theory: TheorySelect,
}

/// What [`crate::SmtSession::pop`] does with the clauses of the popped
/// scope (guarded inputs and lemmas learned under the scope's selector).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClauseGcPolicy {
    /// Drop them: once the selector is fixed false the clauses are
    /// permanently satisfied and only slow down propagation. Deletions are
    /// recorded in the DRAT trace.
    #[default]
    DropPopped,
    /// Keep them attached. Sound (they are satisfied, never unit) and
    /// occasionally useful for debugging trace differences, at the cost of
    /// watch-list bloat in long-running sessions.
    RetainAll,
}

impl Default for SmtConfig {
    fn default() -> SmtConfig {
        SmtConfig {
            budget: Budget::unlimited(),
            lia_budget: 12_000,
            max_theory_rounds: 100_000,
            retry_escalations: 2,
            minimize_cores: true,
            max_diseq_split: 24,
            certify: true,
            session_reuse: true,
            clause_gc: ClauseGcPolicy::DropPopped,
            theory: crate::process_default_theory(),
        }
    }
}

impl SmtConfig {
    /// Starts a builder over the default configuration, so new knobs can be
    /// added without widening positional constructors:
    /// `SmtConfig::builder().certify(true).retry_ladder(12_000, 100_000, 2).build()`.
    pub fn builder() -> SmtConfigBuilder {
        SmtConfigBuilder {
            cfg: SmtConfig::default(),
        }
    }
}

/// Builder for [`SmtConfig`]; obtained from [`SmtConfig::builder`].
#[derive(Clone, Debug)]
pub struct SmtConfigBuilder {
    cfg: SmtConfig,
}

impl SmtConfigBuilder {
    /// Sets the resource governor.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Configures the whole retry ladder in one call: the base
    /// branch-and-bound node budget, the base theory-round cap, and how
    /// many geometric escalations to take on resource exhaustion.
    pub fn retry_ladder(mut self, lia_budget: u64, max_theory_rounds: u64, escalations: u32) -> Self {
        self.cfg.lia_budget = lia_budget;
        self.cfg.max_theory_rounds = max_theory_rounds;
        self.cfg.retry_escalations = escalations;
        self
    }

    /// Sets whether theory cores are greedily minimized before blocking.
    pub fn minimize_cores(mut self, on: bool) -> Self {
        self.cfg.minimize_cores = on;
        self
    }

    /// Sets the maximum lazy disequality-splitting depth per theory check.
    pub fn max_diseq_split(mut self, depth: usize) -> Self {
        self.cfg.max_diseq_split = depth;
        self
    }

    /// Sets whether answers are certified before being reported.
    pub fn certify(mut self, on: bool) -> Self {
        self.cfg.certify = on;
        self
    }

    /// Sets whether CEGIS consumers keep persistent sessions.
    pub fn session_reuse(mut self, on: bool) -> Self {
        self.cfg.session_reuse = on;
        self
    }

    /// Sets the popped-scope clause GC policy for sessions.
    pub fn clause_gc(mut self, policy: ClauseGcPolicy) -> Self {
        self.cfg.clause_gc = policy;
        self
    }

    /// Sets the theory-engine selection for eager partial checks. Tests
    /// that need a specific engine must use this rather than
    /// [`crate::set_process_default_theory`] (the process default is shared
    /// across threads).
    pub fn theory(mut self, sel: TheorySelect) -> Self {
        self.cfg.theory = sel;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SmtConfig {
        self.cfg
    }
}

/// An error from the SMT solver. `Sat`/`Unsat`/`Valid` answers are exact;
/// errors mean "no answer", never a wrong one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtError {
    /// The formula uses features outside QF_LIA (e.g. uninstantiated
    /// function applications or nonlinear multiplication).
    Unsupported(String),
    /// A budget (LIA nodes, theory rounds, disequality splits) ran out.
    ResourceLimit(&'static str),
    /// The configured deadline passed.
    Timeout,
    /// An answer was produced but failed its independent certificate check
    /// (DRAT/RUP replay for `unsat`, exact model evaluation for `sat`).
    /// This indicates a solver bug; the answer is withheld.
    Certification(String),
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtError::Unsupported(what) => write!(f, "unsupported formula: {what}"),
            SmtError::ResourceLimit(which) => write!(f, "resource limit reached: {which}"),
            SmtError::Timeout => f.write_str("deadline exceeded"),
            SmtError::Certification(why) => write!(f, "answer failed certification: {why}"),
        }
    }
}

impl std::error::Error for SmtError {}

/// A first-order model: integer values for integer variables and booleans
/// for boolean variables. Variables absent from the maps are unconstrained
/// (read them as 0 / false).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Integer variable assignments.
    pub ints: BTreeMap<Symbol, BigInt>,
    /// Boolean variable assignments.
    pub bools: BTreeMap<Symbol, bool>,
}

impl Model {
    /// The integer value of `v` (0 when unconstrained).
    pub fn int(&self, v: Symbol) -> BigInt {
        self.ints.get(&v).cloned().unwrap_or_default()
    }

    /// The boolean value of `v` (false when unconstrained).
    pub fn boolean(&self, v: Symbol) -> bool {
        self.bools.get(&v).copied().unwrap_or(false)
    }

    /// Converts to an evaluation [`Env`]; `None` if an integer does not fit
    /// in `i64`.
    pub fn to_env(&self) -> Option<Env> {
        let mut env = Env::new();
        for (&s, b) in &self.ints {
            env.bind(s, Value::Int(b.to_i64()?));
        }
        for (&s, &b) in &self.bools {
            env.bind(s, Value::Bool(b));
        }
        Some(env)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (s, v) in &self.ints {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s} = {v}")?;
        }
        for (s, v) in &self.bools {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s} = {v}")?;
        }
        write!(f, "}}")
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

/// Result of a validity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The formula holds for all assignments.
    Valid,
    /// A counterexample assignment falsifying the formula.
    Invalid(Model),
}

/// The QF_LIA SMT solver (the paper's background decision procedure).
///
/// # Examples
///
/// ```
/// use smtkit::{SmtSolver, SmtResult, Validity};
/// use sygus_ast::Term;
/// let x = Term::int_var("x");
/// let solver = SmtSolver::new();
/// // x > 3 ∧ x < 5 has the single solution x = 4.
/// let f = Term::and([Term::gt(x.clone(), Term::int(3)), Term::lt(x.clone(), Term::int(5))]);
/// match solver.check(&f).unwrap() {
///     SmtResult::Sat(m) => assert_eq!(m.int("x".into()).to_i64(), Some(4)),
///     SmtResult::Unsat => unreachable!(),
/// }
/// // x >= x is valid.
/// assert_eq!(solver.check_valid(&Term::ge(x.clone(), x.clone())).unwrap(), Validity::Valid);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SmtSolver {
    cfg: SmtConfig,
}

// ---------------------------------------------------------------------------
// Atom canonicalization
// ---------------------------------------------------------------------------

/// Canonical integer atom: `Σ coeffs·vars ⋈ rhs` with `⋈ ∈ {≤, =}`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Atom {
    pub(crate) coeffs: Vec<(Symbol, i64)>,
    pub(crate) is_eq: bool,
    pub(crate) rhs: i64,
}

impl Atom {
    /// Positive occurrence as a [`LinCon`] over the given variable indexing.
    fn to_lincon(&self, index: &BTreeMap<Symbol, usize>) -> LinCon {
        LinCon {
            coeffs: self
                .coeffs
                .iter()
                .map(|&(s, c)| (index[&s], BigInt::from(c)))
                .collect(),
            rel: if self.is_eq { Rel::Eq } else { Rel::Le },
            rhs: BigInt::from(self.rhs),
        }
    }

    /// Negated occurrence: `¬(e ≤ r)` is `e ≥ r+1`; `¬(e = r)` has no single
    /// constraint (handled by disequality splitting), signalled by `None`.
    fn negated_lincon(&self, index: &BTreeMap<Symbol, usize>) -> Option<LinCon> {
        if self.is_eq {
            return None;
        }
        Some(LinCon {
            coeffs: self
                .coeffs
                .iter()
                .map(|&(s, c)| (index[&s], BigInt::from(c)))
                .collect(),
            rel: Rel::Ge,
            rhs: &BigInt::from(self.rhs) + &BigInt::one(),
        })
    }
}

/// Converts a comparison term into a canonical [`Atom`].
pub(crate) fn canonical_atom(op: Op, lhs: &Term, rhs: &Term) -> Result<Atom, SmtError> {
    let unsupported = |t: &Term| SmtError::Unsupported(format!("non-linear atom side: {t}"));
    let l = LinearExpr::from_term(lhs).map_err(|_| unsupported(lhs))?;
    let r = LinearExpr::from_term(rhs).map_err(|_| unsupported(rhs))?;
    let diff = l
        .checked_sub(&r)
        .map_err(|_| SmtError::Unsupported("coefficient overflow in atom".into()))?;
    let konst = diff.constant();
    // `Σ c·x + konst ⋈ 0`  ⇒  `Σ c·x ⋈ -konst` (rel and sign fixed below)
    let coeffs: Vec<(Symbol, i64)> = diff.iter().collect();
    let negate = |cs: &[(Symbol, i64)]| -> Result<Vec<(Symbol, i64)>, SmtError> {
        cs.iter()
            .map(|&(s, c)| {
                c.checked_neg()
                    .map(|n| (s, n))
                    .ok_or_else(|| SmtError::Unsupported("coefficient overflow".into()))
            })
            .collect()
    };
    let ovf = || SmtError::Unsupported("constant overflow in atom".into());
    // GCD tightening: dividing by the coefficient gcd (with floor on the
    // bound) is integer-equivalent but rationally stronger, which lets the
    // incremental rational engine catch integer conflicts early.
    fn tighten(mut atom: Atom) -> Atom {
        let mut g: i64 = 0;
        for &(_, c) in &atom.coeffs {
            g = gcd_i64(g, c);
        }
        if g > 1 {
            if atom.is_eq {
                if atom.rhs % g != 0 {
                    // Unsatisfiable equality: canonical ground-false atom.
                    return Atom {
                        coeffs: Vec::new(),
                        is_eq: true,
                        rhs: 1,
                    };
                }
                atom.rhs /= g;
            } else {
                atom.rhs = atom.rhs.div_euclid(g);
            }
            for c in &mut atom.coeffs {
                c.1 /= g;
            }
        }
        atom
    }
    fn gcd_i64(a: i64, b: i64) -> i64 {
        let (mut a, mut b) = (a.abs(), b.abs());
        // synthlint: allow(unpolled-loop) — Euclid on i64; at most ~47 iterations
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        a
    }
    let atom = match op {
        // e + konst <= 0  ⇔  e <= -konst
        Op::Le => Atom {
            coeffs,
            is_eq: false,
            rhs: konst.checked_neg().ok_or_else(ovf)?,
        },
        // e + konst < 0 over Z ⇔ e <= -konst - 1
        Op::Lt => Atom {
            coeffs,
            is_eq: false,
            rhs: konst
                .checked_neg()
                .and_then(|k| k.checked_sub(1))
                .ok_or_else(ovf)?,
        },
        // e + konst >= 0 ⇔ -e <= konst
        Op::Ge => Atom {
            coeffs: negate(&coeffs)?,
            is_eq: false,
            rhs: konst,
        },
        // e + konst > 0 ⇔ -e <= konst - 1
        Op::Gt => Atom {
            coeffs: negate(&coeffs)?,
            is_eq: false,
            rhs: konst.checked_sub(1).ok_or_else(ovf)?,
        },
        Op::Eq => Atom {
            coeffs,
            is_eq: true,
            rhs: konst.checked_neg().ok_or_else(ovf)?,
        },
        _ => unreachable!("caller checked comparison"),
    };
    Ok(tighten(atom))
}

// ---------------------------------------------------------------------------
// Purification: lift integer `ite` out of atoms
// ---------------------------------------------------------------------------

pub(crate) struct Purifier {
    pub(crate) side: Vec<Term>,
    cache: HashMap<Term, Term>,
}

impl Purifier {
    pub(crate) fn new() -> Purifier {
        Purifier {
            side: Vec::new(),
            cache: HashMap::new(),
        }
    }

    /// Rewrites an *integer* term so it contains no `ite`; encountered `ite`s
    /// become fresh variables constrained in `self.side`.
    fn purify_int(&mut self, t: &Term) -> Result<Term, SmtError> {
        if let Some(hit) = self.cache.get(t) {
            return Ok(hit.clone());
        }
        let result = match t.node() {
            TermNode::IntConst(_) | TermNode::Var(_, _) => t.clone(),
            TermNode::BoolConst(_) => {
                return Err(SmtError::Unsupported("boolean in integer position".into()))
            }
            TermNode::App(op, args) => match op {
                Op::Ite => {
                    let c = self.purify_bool(&args[0])?;
                    let a = self.purify_int(&args[1])?;
                    let b = self.purify_int(&args[2])?;
                    let fresh = Symbol::fresh("ite");
                    let v = Term::var(fresh, Sort::Int);
                    self.side
                        .push(Term::implies(c.clone(), Term::eq(v.clone(), a)));
                    self.side
                        .push(Term::implies(Term::not(c), Term::eq(v.clone(), b)));
                    v
                }
                Op::Add | Op::Sub | Op::Neg | Op::Mul => {
                    let new_args: Result<Vec<Term>, SmtError> =
                        args.iter().map(|a| self.purify_int(a)).collect();
                    Term::app(*op, new_args?)
                }
                Op::Apply(f, _) => {
                    return Err(SmtError::Unsupported(format!(
                        "uninterpreted function application `{f}`"
                    )))
                }
                _ => {
                    return Err(SmtError::Unsupported(format!(
                        "boolean operator `{op}` in integer position"
                    )))
                }
            },
        };
        self.cache.insert(t.clone(), result.clone());
        Ok(result)
    }

    /// Rewrites a boolean term, purifying the integer sides of its atoms.
    pub(crate) fn purify_bool(&mut self, t: &Term) -> Result<Term, SmtError> {
        match t.node() {
            TermNode::BoolConst(_) | TermNode::Var(_, Sort::Bool) => Ok(t.clone()),
            TermNode::Var(_, Sort::Int) | TermNode::IntConst(_) => {
                Err(SmtError::Unsupported("integer in boolean position".into()))
            }
            TermNode::App(op, args) => match op {
                Op::And | Op::Or | Op::Not | Op::Implies => {
                    let new_args: Result<Vec<Term>, SmtError> =
                        args.iter().map(|a| self.purify_bool(a)).collect();
                    Ok(Term::app(*op, new_args?))
                }
                Op::Ite => {
                    // Boolean-valued ite (condition + boolean branches).
                    let c = self.purify_bool(&args[0])?;
                    let a = self.purify_bool(&args[1])?;
                    let b = self.purify_bool(&args[2])?;
                    Ok(Term::app(Op::Ite, vec![c, a, b]))
                }
                Op::Eq if args[0].sort() == Sort::Bool => {
                    let a = self.purify_bool(&args[0])?;
                    let b = self.purify_bool(&args[1])?;
                    Ok(Term::app(Op::Eq, vec![a, b]))
                }
                Op::Eq | Op::Le | Op::Lt | Op::Ge | Op::Gt => {
                    let a = self.purify_int(&args[0])?;
                    let b = self.purify_int(&args[1])?;
                    Ok(Term::app(*op, vec![a, b]))
                }
                Op::Apply(f, _) => Err(SmtError::Unsupported(format!(
                    "uninterpreted predicate application `{f}`"
                ))),
                _ => Err(SmtError::Unsupported(format!(
                    "integer operator `{op}` in boolean position"
                ))),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Tseitin encoding
// ---------------------------------------------------------------------------

pub(crate) struct Encoder {
    pub(crate) sat: SatSolver,
    /// Canonical atom → SAT var.
    pub(crate) atoms: HashMap<Atom, u32>,
    pub(crate) atom_list: Vec<Atom>,
    pub(crate) bool_vars: HashMap<Symbol, u32>,
    cache: HashMap<Term, Lit>,
    true_lit: Lit,
    /// Term/atom encodings served from cache (the amortization a session
    /// buys; surfaced as the `smt.encode_cache_hits` metric).
    pub(crate) cache_hits: u64,
}

impl Encoder {
    pub(crate) fn new(log_proof: bool) -> Encoder {
        let mut sat = SatSolver::new();
        if log_proof {
            // Must precede the very first clause (the true-literal unit) or
            // the DRAT replay sees an incomplete database.
            sat.enable_proof();
        }
        let t = sat.new_var();
        sat.add_clause(vec![Lit::pos(t)]);
        Encoder {
            sat,
            atoms: HashMap::new(),
            atom_list: Vec::new(),
            bool_vars: HashMap::new(),
            cache: HashMap::new(),
            true_lit: Lit::pos(t),
            cache_hits: 0,
        }
    }

    fn atom_lit(&mut self, atom: Atom) -> Lit {
        if atom.coeffs.is_empty() {
            // Ground atom decided immediately.
            let holds = if atom.is_eq {
                atom.rhs == 0
            } else {
                0 <= atom.rhs
            };
            return if holds {
                self.true_lit
            } else {
                self.true_lit.negate()
            };
        }
        if let Some(&v) = self.atoms.get(&atom) {
            self.cache_hits += 1;
            return Lit::pos(v);
        }
        let v = self.sat.new_var();
        self.atoms.insert(atom.clone(), v);
        self.atom_list.push(atom);
        debug_assert_eq!(self.atom_list.len(), self.atoms.len());
        Lit::pos(v)
    }

    pub(crate) fn encode(&mut self, t: &Term) -> Result<Lit, SmtError> {
        if let Some(&l) = self.cache.get(t) {
            self.cache_hits += 1;
            return Ok(l);
        }
        let lit = match t.node() {
            TermNode::BoolConst(true) => self.true_lit,
            TermNode::BoolConst(false) => self.true_lit.negate(),
            TermNode::Var(s, Sort::Bool) => {
                let v = match self.bool_vars.get(s) {
                    Some(&v) => v,
                    None => {
                        let v = self.sat.new_var();
                        self.bool_vars.insert(*s, v);
                        v
                    }
                };
                Lit::pos(v)
            }
            TermNode::Var(_, Sort::Int) | TermNode::IntConst(_) => {
                return Err(SmtError::Unsupported(
                    "integer term in boolean position".into(),
                ))
            }
            TermNode::App(op, args) => match op {
                Op::Not => self.encode(&args[0])?.negate(),
                Op::And => {
                    let lits: Result<Vec<Lit>, SmtError> =
                        args.iter().map(|a| self.encode(a)).collect();
                    let lits = lits?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    let mut big: Vec<Lit> = vec![vp];
                    for &l in &lits {
                        self.sat.add_clause(vec![vp.negate(), l]);
                        big.push(l.negate());
                    }
                    self.sat.add_clause(big);
                    vp
                }
                Op::Or => {
                    let lits: Result<Vec<Lit>, SmtError> =
                        args.iter().map(|a| self.encode(a)).collect();
                    let lits = lits?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    let mut big: Vec<Lit> = vec![vp.negate()];
                    for &l in &lits {
                        self.sat.add_clause(vec![vp, l.negate()]);
                        big.push(l);
                    }
                    self.sat.add_clause(big);
                    vp
                }
                Op::Implies => {
                    let a = self.encode(&args[0])?;
                    let b = self.encode(&args[1])?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    // v ↔ (¬a ∨ b)
                    self.sat.add_clause(vec![vp.negate(), a.negate(), b]);
                    self.sat.add_clause(vec![vp, a]);
                    self.sat.add_clause(vec![vp, b.negate()]);
                    vp
                }
                Op::Eq if args[0].sort() == Sort::Bool => {
                    let a = self.encode(&args[0])?;
                    let b = self.encode(&args[1])?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    self.sat.add_clause(vec![vp.negate(), a.negate(), b]);
                    self.sat.add_clause(vec![vp.negate(), a, b.negate()]);
                    self.sat.add_clause(vec![vp, a, b]);
                    self.sat.add_clause(vec![vp, a.negate(), b.negate()]);
                    vp
                }
                Op::Ite => {
                    let c = self.encode(&args[0])?;
                    let a = self.encode(&args[1])?;
                    let b = self.encode(&args[2])?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    self.sat.add_clause(vec![vp.negate(), c.negate(), a]);
                    self.sat.add_clause(vec![vp.negate(), c, b]);
                    self.sat.add_clause(vec![vp, c.negate(), a.negate()]);
                    self.sat.add_clause(vec![vp, c, b.negate()]);
                    vp
                }
                Op::Eq | Op::Le | Op::Lt | Op::Ge | Op::Gt => {
                    let atom = canonical_atom(*op, &args[0], &args[1])?;
                    self.atom_lit(atom)
                }
                other => {
                    return Err(SmtError::Unsupported(format!(
                        "operator `{other}` in boolean position"
                    )))
                }
            },
        };
        self.cache.insert(t.clone(), lit);
        Ok(lit)
    }
}

/// Static theory lemmas ("eager propagation"): relations among atoms over
/// the same (or negated) linear form are encoded as clauses up front, so
/// the SAT core never proposes the bulk of theory-inconsistent assignments
/// and the lazy loop converges in few rounds.
///
/// Every emitted lemma is *binary*, so `seen` (a set of sorted literal
/// pairs) makes re-runs incremental: a session calls this after each
/// assertion and only genuinely new lemmas reach the SAT core. One-shot
/// callers pass a fresh set.
pub(crate) fn add_static_lemmas(enc: &mut Encoder, seen: &mut std::collections::HashSet<(Lit, Lit)>) {
    use std::collections::HashMap as Map;
    // Group atoms by coefficient vector.
    let mut groups: Map<Vec<(Symbol, i64)>, Vec<usize>> = Map::new();
    for (i, atom) in enc.atom_list.iter().enumerate() {
        groups.entry(atom.coeffs.clone()).or_default().push(i);
    }
    let var_of = |enc: &Encoder, i: usize| enc.atoms[&enc.atom_list[i]];
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for (coeffs, members) in &groups {
        // Within a group: `e ≤ r1 → e ≤ r2` for r1 ≤ r2; equality links.
        let mut les: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| !enc.atom_list[i].is_eq)
            .collect();
        les.sort_by_key(|&i| enc.atom_list[i].rhs);
        for w in les.windows(2) {
            let (a, b) = (w[0], w[1]);
            clauses.push(vec![Lit::neg(var_of(enc, a)), Lit::pos(var_of(enc, b))]);
        }
        let eqs: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| enc.atom_list[i].is_eq)
            .collect();
        for &e in &eqs {
            let er = enc.atom_list[e].rhs;
            // e = r implies the tightest e ≤ r' with r' ≥ r …
            if let Some(&above) = les.iter().find(|&&l| enc.atom_list[l].rhs >= er) {
                clauses.push(vec![Lit::neg(var_of(enc, e)), Lit::pos(var_of(enc, above))]);
            }
            // … and refutes the tightest e ≤ r' with r' < r.
            if let Some(&below) = les.iter().rev().find(|&&l| enc.atom_list[l].rhs < er) {
                clauses.push(vec![Lit::neg(var_of(enc, e)), Lit::neg(var_of(enc, below))]);
            }
            // Distinct equalities on the same form are mutually exclusive.
            for &e2 in &eqs {
                if e2 > e && enc.atom_list[e2].rhs != er {
                    clauses.push(vec![Lit::neg(var_of(enc, e)), Lit::neg(var_of(enc, e2))]);
                }
            }
        }
        // Across the negated form: `e ≤ r ∧ −e ≤ r'` needs `r + r' ≥ 0`;
        // `e = r` clashes with `−e ≤ r'` when `r < −r'`, and with
        // `−e = r'` when `r ≠ −r'`.
        let neg_coeffs: Vec<(Symbol, i64)> =
            coeffs.iter().map(|&(v, c)| (v, c.wrapping_neg())).collect();
        if neg_coeffs <= *coeffs {
            continue; // handle each pair once
        }
        let Some(opp) = groups.get(&neg_coeffs) else {
            continue;
        };
        if members.len() * opp.len() > 4096 {
            continue; // cap eager work on pathological inputs
        }
        for &i in members {
            for &j in opp {
                let (ai, aj) = (&enc.atom_list[i], &enc.atom_list[j]);
                let clash = match (ai.is_eq, aj.is_eq) {
                    (false, false) => ai.rhs.checked_add(aj.rhs).map(|s| s < 0).unwrap_or(false),
                    (true, false) => ai.rhs.checked_add(aj.rhs).map(|s| s < 0).unwrap_or(false),
                    (false, true) => aj.rhs.checked_add(ai.rhs).map(|s| s < 0).unwrap_or(false),
                    (true, true) => ai.rhs.checked_neg().map(|n| n != aj.rhs).unwrap_or(true),
                };
                if clash {
                    clauses.push(vec![Lit::neg(var_of(enc, i)), Lit::neg(var_of(enc, j))]);
                }
            }
        }
    }
    for c in clauses {
        debug_assert_eq!(c.len(), 2, "static lemmas are binary");
        let key = (c[0].min(c[1]), c[0].max(c[1]));
        if seen.insert(key) {
            enc.sat.add_clause(c);
        }
    }
}

// ---------------------------------------------------------------------------
// Theory checking
// ---------------------------------------------------------------------------

/// Outcome of checking a conjunction of theory literals.
pub(crate) enum TheoryOutcome {
    Sat(Vec<BigInt>),
    Unsat,
}

pub(crate) struct TheoryChecker<'a> {
    pub(crate) index: BTreeMap<Symbol, usize>,
    pub(crate) cfg: &'a SmtConfig,
    /// Branch-and-bound node budget (smaller during core minimization:
    /// dropping a constraint can make the integer problem vastly harder,
    /// and an Unknown there just means "keep the literal").
    pub(crate) lia_budget: u64,
}

impl TheoryChecker<'_> {
    /// Checks the conjunction of `(atom, polarity)` literals.
    pub(crate) fn check(&self, lits: &[(&Atom, bool)]) -> Result<TheoryOutcome, SmtError> {
        let mut base: Vec<LinCon> = Vec::new();
        let mut diseqs: Vec<&Atom> = Vec::new();
        for &(atom, polarity) in lits {
            if polarity {
                base.push(atom.to_lincon(&self.index));
            } else {
                match atom.negated_lincon(&self.index) {
                    Some(c) => base.push(c),
                    None => diseqs.push(atom),
                }
            }
        }
        self.split(&mut base, &diseqs)
    }

    /// Lazy disequality handling: solve the base system and branch only on
    /// disequalities the model actually violates, so a large set of mostly
    /// slack disequalities costs nothing.
    fn split(&self, base: &mut Vec<LinCon>, diseqs: &[&Atom]) -> Result<TheoryOutcome, SmtError> {
        self.split_depth(base, diseqs, 0)
    }

    fn split_depth(
        &self,
        base: &mut Vec<LinCon>,
        diseqs: &[&Atom],
        depth: usize,
    ) -> Result<TheoryOutcome, SmtError> {
        if depth > self.cfg.max_diseq_split.max(32) {
            return Err(SmtError::ResourceLimit("disequality splits"));
        }
        let mut poll = || poll_budget(&self.cfg.budget).is_ok();
        let m = match check_lia_polled(self.index.len(), base, self.lia_budget, &mut poll) {
            LiaResult::Sat(m) => m,
            LiaResult::Unsat => return Ok(TheoryOutcome::Unsat),
            LiaResult::Unknown => {
                // Branch-and-bound can wander on unbounded systems whose
                // integer solutions are nevertheless small. Retry inside a
                // generous box: a Sat answer there is still exact; only the
                // boxed-Unsat case stays inconclusive.
                let mut boxed = base.clone();
                for v in 0..self.index.len() {
                    boxed.push(LinCon {
                        coeffs: vec![(v, BigInt::from(1))],
                        rel: Rel::Le,
                        rhs: BigInt::from(1_000_000_000i64),
                    });
                    boxed.push(LinCon {
                        coeffs: vec![(v, BigInt::from(1))],
                        rel: Rel::Ge,
                        rhs: BigInt::from(-1_000_000_000i64),
                    });
                }
                match check_lia_polled(self.index.len(), &boxed, self.lia_budget, &mut poll) {
                    LiaResult::Sat(m) => m,
                    _ => return Err(SmtError::ResourceLimit("lia nodes")),
                }
            }
        };
        // Find a disequality violated by this model (its linear form equals
        // the forbidden value).
        let violated = diseqs.iter().find(|d| {
            let mut sum = BigInt::zero();
            for &(s, c) in &d.coeffs {
                sum += &(&BigInt::from(c) * &m[self.index[&s]]);
            }
            sum == BigInt::from(d.rhs)
        });
        let Some(d) = violated else {
            return Ok(TheoryOutcome::Sat(m));
        };
        // e ≠ rhs  ⇒  e ≤ rhs-1  ∨  e ≥ rhs+1
        let coeffs: Vec<(usize, BigInt)> = d
            .coeffs
            .iter()
            .map(|&(s, c)| (self.index[&s], BigInt::from(c)))
            .collect();
        let lo = LinCon {
            coeffs: coeffs.clone(),
            rel: Rel::Le,
            rhs: &BigInt::from(d.rhs) - &BigInt::one(),
        };
        let hi = LinCon {
            coeffs,
            rel: Rel::Ge,
            rhs: &BigInt::from(d.rhs) + &BigInt::one(),
        };
        base.push(lo);
        if let TheoryOutcome::Sat(m) = self.split_depth(base, diseqs, depth + 1)? {
            base.pop();
            return Ok(TheoryOutcome::Sat(m));
        }
        base.pop();
        base.push(hi);
        let r = self.split_depth(base, diseqs, depth + 1);
        base.pop();
        r
    }
}

// ---------------------------------------------------------------------------
// The solver proper
// ---------------------------------------------------------------------------

/// Pivot cap for the *eager* incremental feasibility check consulted from
/// inside the SAT search. Normal repair takes a handful of pivots; on
/// tableaus whose rational coefficients explode, the eager check gives up
/// at the cap and the authoritative (node- and pivot-budgeted) full-model
/// check decides instead — without this, a single `IncrementalLra::check`
/// can pivot for minutes while the deadline is never consulted.
pub(crate) const THEORY_PIVOT_CAP: u64 = 200_000;

/// The static counter name for a retry-ladder rung (allocation-free; the
/// ladder is short — the default config takes at most 2 escalations).
pub(crate) fn retry_rung_counter(escalation: u32) -> &'static str {
    match escalation {
        1 => "smt.retry.rung1",
        2 => "smt.retry.rung2",
        3 => "smt.retry.rung3",
        4 => "smt.retry.rung4",
        _ => "smt.retry.rung5+",
    }
}

impl SmtSolver {
    /// Creates a solver with default configuration.
    pub fn new() -> SmtSolver {
        SmtSolver::default()
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(cfg: SmtConfig) -> SmtSolver {
        SmtSolver { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmtConfig {
        &self.cfg
    }

    fn check_deadline(&self) -> Result<(), SmtError> {
        poll_budget(&self.cfg.budget)
    }

    /// Checks satisfiability of a quantifier-free CLIA formula.
    ///
    /// Internal resource exhaustion (LIA nodes, theory rounds, disequality
    /// splits) is retried up to `retry_escalations` times with geometrically
    /// escalated limits — bounded by the remaining [`Budget`] — before
    /// [`SmtError::ResourceLimit`] is reported; escalations are recorded on
    /// the budget's telemetry counters.
    ///
    /// # Errors
    ///
    /// [`SmtError::Unsupported`] for non-QF_LIA input (remaining function
    /// applications, nonlinear arithmetic), [`SmtError::Timeout`] /
    /// [`SmtError::ResourceLimit`] when budgets run out.
    pub fn check(&self, formula: &Term) -> Result<SmtResult, SmtError> {
        self.cfg.budget.note_smt_query();
        let tracer = self.cfg.budget.tracer().clone();
        tracer.progress().note_smt_check(formula.size() as u64);
        let span = tracer.span(Stage::Smt);
        let mut escalation: u32 = 0;
        let result = loop {
            // Each rung multiplies both base limits by 4.
            let factor = 1u64 << (2 * escalation.min(16));
            let lia_budget = self.cfg.lia_budget.max(1).saturating_mul(factor);
            let rounds = self.cfg.max_theory_rounds.max(1).saturating_mul(factor);
            match self.check_once(formula, lia_budget, rounds) {
                Err(SmtError::ResourceLimit(which)) => {
                    // Climb the ladder only while the governing budget has
                    // headroom. A tripped budget is what stopped the rung (a
                    // polled LIA search reports it as a node limit), so
                    // report the trip itself: a deadline or cancellation
                    // surfaces as a timeout.
                    if let Err(e) = poll_budget(&self.cfg.budget) {
                        break Err(e);
                    }
                    if escalation >= self.cfg.retry_escalations {
                        break Err(SmtError::ResourceLimit(which));
                    }
                    escalation += 1;
                    self.cfg.budget.note_smt_retry();
                    tracer.metrics().bump(retry_rung_counter(escalation));
                }
                other => break other,
            }
        };
        let answer = match &result {
            Ok(SmtResult::Sat(_)) => "sat",
            Ok(SmtResult::Unsat) => "unsat",
            Err(_) => "unknown",
        };
        tracer.metrics().bump(match answer {
            "sat" => "smt.sat",
            "unsat" => "smt.unsat",
            _ => "smt.unknown",
        });
        drop(span.with_detail(|| format!("answer={answer} rung={escalation}")));
        result
    }

    /// One attempt of the lazy DPLL(T) loop under explicit limits.
    fn check_once(
        &self,
        formula: &Term,
        lia_budget: u64,
        max_theory_rounds: u64,
    ) -> Result<SmtResult, SmtError> {
        if formula.sort() != Sort::Bool {
            return Err(SmtError::Unsupported("formula must be boolean".into()));
        }
        self.check_deadline()?;
        // Fast path for constants.
        match formula.as_bool_const() {
            Some(true) => return Ok(SmtResult::Sat(Model::default())),
            Some(false) => return Ok(SmtResult::Unsat),
            None => {}
        }
        // Purify integer ites, then conjoin the side constraints.
        let mut pur = Purifier::new();
        let main = pur.purify_bool(formula)?;
        let full = Term::and(std::iter::once(main).chain(pur.side.drain(..)));
        match full.as_bool_const() {
            Some(true) => return Ok(SmtResult::Sat(Model::default())),
            Some(false) => return Ok(SmtResult::Unsat),
            None => {}
        }

        let mut enc = Encoder::new(self.cfg.certify);
        let root = enc.encode(&full)?;
        enc.sat.add_clause(vec![root]);
        add_static_lemmas(&mut enc, &mut std::collections::HashSet::new());

        // Index every integer variable mentioned in atoms.
        let mut index: BTreeMap<Symbol, usize> = BTreeMap::new();
        for atom in &enc.atom_list {
            for &(s, _) in &atom.coeffs {
                let next = index.len();
                index.entry(s).or_insert(next);
            }
        }
        let checker = TheoryChecker {
            index: index.clone(),
            cfg: &self.cfg,
            lia_budget,
        };
        let min_checker = TheoryChecker {
            index: index.clone(),
            cfg: &self.cfg,
            lia_budget: (lia_budget / 64).max(200),
        };

        // Partial-assignment theory propagation (DPLL(T)): whenever SAT
        // propagation settles, the newly (un)assigned atoms are pushed into
        // an incremental rational simplex; conflicts come back as Farkas
        // cores and become learned clauses immediately. Rational reasoning
        // under-approximates integer infeasibility, so every clause is
        // sound; the complete integer check still runs on full models.
        let atom_vars: Vec<(u32, Atom)> = enc
            .atom_list
            .iter()
            .map(|a| (enc.atoms[a], a.clone()))
            .collect();
        let inc_atoms: Vec<crate::inc_lra::LinearAtom> = enc
            .atom_list
            .iter()
            .map(|a| {
                (
                    a.coeffs.iter().map(|&(s, c)| (index[&s], c)).collect(),
                    a.is_eq,
                    a.rhs,
                )
            })
            .collect();
        // Theory-engine dispatch: the specialized difference-logic engine
        // when the configuration allows it and *every* atom of the query
        // fits the fragment (it is exact over the integers there); the
        // general warm simplex otherwise. Queries with no theory atoms are
        // pure boolean and count toward neither dispatch metric.
        let want_dl = self.cfg.theory != TheorySelect::Simplex && !inc_atoms.is_empty();
        let use_dl = want_dl && inc_atoms.iter().all(fits_dl);
        let mut inc: Box<dyn TheorySolver> = if use_dl {
            self.cfg.budget.tracer().metrics().bump("theory.dl_dispatched");
            Box::new(crate::DifferenceLogic::new(index.len(), &inc_atoms))
        } else {
            if want_dl {
                self.cfg.budget.tracer().metrics().bump("theory.dl_fallbacks");
            }
            Box::new(crate::IncrementalLra::new(index.len(), &inc_atoms))
        };
        let deadline_hit = std::cell::Cell::new(false);
        // Search-analytics accumulators for theory work. The callback runs
        // after every propagation settle — far too hot for the registry's
        // counter mutex — so it writes plain `Cell`s and the driver flushes
        // them to `search.*` counters at conflict-chunk boundaries.
        let theory_checks = std::cell::Cell::new(0u64);
        let theory_conflicts = std::cell::Cell::new(0u64);
        let theory_cert_lits = std::cell::Cell::new(0u64);
        let theory_work_seen = std::cell::Cell::new(0u64);
        let theory_work_flushed = std::cell::Cell::new(0u64);
        let mut theory_cb = |assign: &[Option<bool>]| -> Option<Vec<Lit>> {
            if deadline_hit.get() {
                return None;
            }
            if self.check_deadline().is_err() {
                deadline_hit.set(true);
                return None;
            }
            let t_theory = use_dl.then(Instant::now);
            // Sync the incremental state with the current assignment.
            for (i, &(v, _)) in atom_vars.iter().enumerate() {
                match assign[v as usize] {
                    Some(b) => inc.assert_atom(i, b),
                    None => inc.retract_atom(i),
                }
            }
            let verdict = inc.check(THEORY_PIVOT_CAP, &mut || self.check_deadline().is_ok());
            theory_checks.set(theory_checks.get() + 1);
            theory_work_seen.set(inc.search_work());
            if let Some(t) = t_theory {
                self.cfg
                    .budget
                    .tracer()
                    .metrics()
                    .stage(Stage::Dl)
                    .record_micros(t.elapsed().as_micros() as u64);
            }
            match verdict {
                None => {
                    // The eager check gave up (deadline, or a pathological
                    // pivot sequence): report no conflict and let the
                    // authoritative budgeted full-model check decide.
                    if self.check_deadline().is_err() {
                        deadline_hit.set(true);
                    }
                    None
                }
                Some(Ok(())) => None,
                Some(Err(core)) => {
                    theory_conflicts.set(theory_conflicts.get() + 1);
                    theory_cert_lits.set(theory_cert_lits.get() + core.len() as u64);
                    Some(
                        core.iter()
                            .map(|&i| {
                                let pol = inc.polarity(i).expect("core atoms are asserted");
                                Lit::new(atom_vars[i].0, pol)
                            })
                            .collect(),
                    )
                }
            }
        };
        // Flushes the theory-work cells into `search.*` counters (the work
        // counter lands under the dispatched engine's name).
        let flush_theory = |m: &sygus_ast::trace::MetricsRegistry| {
            let checks = theory_checks.take();
            if checks > 0 {
                m.add("search.theory_checks_total", checks);
            }
            let conflicts = theory_conflicts.take();
            if conflicts > 0 {
                m.add("search.theory_conflicts_total", conflicts);
            }
            let lits = theory_cert_lits.take();
            if lits > 0 {
                m.add("search.theory_cert_lits_total", lits);
            }
            let delta = theory_work_seen.get() - theory_work_flushed.get();
            theory_work_flushed.set(theory_work_seen.get());
            if delta > 0 {
                let name = if use_dl {
                    "search.dl_relaxations_total"
                } else {
                    "search.simplex_pivots_total"
                };
                m.add(name, delta);
            }
        };

        let mut rounds: u64 = 0;
        loop {
            self.check_deadline()?;
            // One fuel unit per lazy round keeps `--fuel` meaningful down to
            // the decision-procedure layer.
            let _ = self.cfg.budget.charge_fuel(1);
            self.cfg.budget.tracer().metrics().bump("smt.theory_rounds");
            rounds += 1;
            if rounds > max_theory_rounds {
                return Err(SmtError::ResourceLimit("theory rounds"));
            }
            // Solve the propositional abstraction in conflict chunks so the
            // deadline is honored; within a chunk the conflict-stride poll
            // lets cancellation land mid-search.
            let poll_handle = self.cfg.budget.clone();
            let bool_model = loop {
                let step = enc.sat.solve_with_theory_polled(
                    Some(20_000),
                    || poll_handle.exceeded().is_none(),
                    &mut theory_cb,
                );
                // Chunk boundary: drain closed search intervals and the
                // theory-work cells (a terminal answer also closes the
                // open tail so nothing is lost).
                let done = step.is_some();
                crate::search::drain_search(
                    &mut enc.sat,
                    self.cfg.budget.tracer().metrics(),
                    done,
                );
                flush_theory(self.cfg.budget.tracer().metrics());
                match step {
                    Some(SatResult::Unsat) => {
                        self.certify_unsat(&enc.sat)?;
                        return Ok(SmtResult::Unsat);
                    }
                    Some(SatResult::Sat(m)) => break m,
                    None => self.check_deadline()?,
                }
            };
            // Collect asserted theory literals.
            let asserted: Vec<(usize, bool)> = enc
                .atom_list
                .iter()
                .enumerate()
                .map(|(i, atom)| {
                    let v = enc.atoms[atom];
                    (i, bool_model[v as usize])
                })
                .collect();
            let lits: Vec<(&Atom, bool)> = asserted
                .iter()
                .map(|&(i, pol)| (&enc.atom_list[i], pol))
                .collect();
            match checker.check(&lits)? {
                TheoryOutcome::Sat(point) => {
                    let mut model = Model::default();
                    for (&s, &vi) in &index {
                        model.ints.insert(s, point[vi].clone());
                    }
                    for (&s, &v) in &enc.bool_vars {
                        model.bools.insert(s, bool_model[v as usize]);
                    }
                    // Certify on the *full* (purification vars included)
                    // model: the asserted formula must evaluate to true
                    // under exact integer arithmetic.
                    self.certify_sat(&full, &model)?;
                    // Drop purification-internal variables from the model.
                    model.ints.retain(|s, _| !s.as_str().starts_with("ite!"));
                    return Ok(SmtResult::Sat(model));
                }
                TheoryOutcome::Unsat => {
                    self.cfg.budget.tracer().metrics().bump("smt.conflicts");
                    self.cfg.budget.tracer().progress().note_smt_conflict();
                    // Core minimization: binary-search the minimal failing
                    // prefix ("prefix is unsat" is monotone, so O(log n)
                    // checks locate it), then greedy deletion on the
                    // survivor when it is small enough.
                    let mut core: Vec<(usize, bool)> = asserted.clone();
                    if self.cfg.minimize_cores && core.len() > 1 {
                        let unsat_prefix = |k: usize| -> Result<bool, SmtError> {
                            self.check_deadline()?;
                            let lits: Vec<(&Atom, bool)> = asserted[..k]
                                .iter()
                                .map(|&(i, pol)| (&enc.atom_list[i], pol))
                                .collect();
                            Ok(matches!(min_checker.check(&lits), Ok(TheoryOutcome::Unsat)))
                        };
                        // Find the smallest k with prefix[..k] unsat.
                        let (mut lo, mut hi) = (1usize, asserted.len());
                        if unsat_prefix(hi)? {
                            // synthlint: allow(unpolled-loop) — O(log n) core binary search; every probe calls check_deadline
                            while lo < hi {
                                let mid = lo + (hi - lo) / 2;
                                if unsat_prefix(mid)? {
                                    hi = mid;
                                } else {
                                    lo = mid + 1;
                                }
                            }
                            core = asserted[..lo].to_vec();
                        }
                        // Deletion pass, back to front, only when affordable.
                        if core.len() <= 40 {
                            let mut i = core.len();
                            while i > 0 {
                                i -= 1;
                                self.check_deadline()?;
                                if core.len() <= 1 {
                                    break;
                                }
                                let mut trial = core.clone();
                                trial.remove(i);
                                let trial_lits: Vec<(&Atom, bool)> = trial
                                    .iter()
                                    .map(|&(k, pol)| (&enc.atom_list[k], pol))
                                    .collect();
                                if matches!(
                                    min_checker.check(&trial_lits),
                                    Ok(TheoryOutcome::Unsat)
                                ) {
                                    core = trial; // literal was redundant
                                }
                            }
                        }
                    }
                    let clause: Vec<Lit> = core
                        .iter()
                        .map(|&(i, pol)| {
                            let v = enc.atoms[&enc.atom_list[i]];
                            Lit::new(v, pol) // negation of the asserted literal
                        })
                        .collect();
                    // Full-model conflicts are theory conflicts too; the
                    // blocking clause is the certificate (cold path, so the
                    // registry mutex is fine here).
                    let m = self.cfg.budget.tracer().metrics();
                    m.add("search.theory_conflicts_total", 1);
                    m.add("search.theory_cert_lits_total", clause.len() as u64);
                    enc.sat.add_clause(clause);
                }
            }
        }
    }

    /// Replays the SAT core's DRAT trace through the independent RUP
    /// checker before an `unsat` answer is allowed out.
    fn certify_unsat(&self, sat: &SatSolver) -> Result<(), SmtError> {
        certify_unsat_steps(&self.cfg, sat.proof_steps())
    }

    /// Re-evaluates the asserted formula under the model with exact integer
    /// arithmetic before a `sat` answer is allowed out.
    fn certify_sat(&self, formula: &Term, model: &Model) -> Result<(), SmtError> {
        certify_sat_model(&self.cfg, formula, model)
    }

    /// Checks validity: `Valid` iff `¬formula` is unsatisfiable; otherwise
    /// returns the falsifying model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`].
    pub fn check_valid(&self, formula: &Term) -> Result<Validity, SmtError> {
        match self.check(&Term::not(formula.clone()))? {
            SmtResult::Unsat => Ok(Validity::Valid),
            SmtResult::Sat(m) => Ok(Validity::Invalid(m)),
        }
    }

    /// Convenience: `true` iff `formula` is valid.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`].
    pub fn is_valid(&self, formula: &Term) -> Result<bool, SmtError> {
        Ok(matches!(self.check_valid(formula)?, Validity::Valid))
    }

    /// Convenience: `true` iff `a` and `b` are equivalent CLIA terms of the
    /// same sort.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`].
    pub fn equivalent(&self, a: &Term, b: &Term) -> Result<bool, SmtError> {
        if a.sort() != b.sort() {
            return Ok(false);
        }
        self.is_valid(&Term::eq(a.clone(), b.clone()))
    }
}

/// Maps a [`Budget`] poll onto [`SmtError`]: stop conditions (deadline,
/// cancellation) become [`SmtError::Timeout`], exhausted allowances become
/// [`SmtError::ResourceLimit`]. Shared by the one-shot solver and sessions.
pub(crate) fn poll_budget(budget: &Budget) -> Result<(), SmtError> {
    match budget.exceeded() {
        None => Ok(()),
        Some(e) if e.is_stop() => Err(SmtError::Timeout),
        Some(BudgetError::FuelExhausted) => Err(SmtError::ResourceLimit("fuel allowance")),
        Some(_) => Err(SmtError::ResourceLimit("memory allowance")),
    }
}

/// Replays a DRAT trace through the independent RUP checker (when
/// `cfg.certify` is on) before an `unsat` answer is allowed out.
pub(crate) fn certify_unsat_steps(
    cfg: &SmtConfig,
    steps: &[crate::drat::ProofStep],
) -> Result<(), SmtError> {
    if !cfg.certify {
        return Ok(());
    }
    let tracer = cfg.budget.tracer().clone();
    match crate::drat::check_refutation(steps) {
        Ok(_) => {
            tracer.metrics().bump("smt.certified_unsat");
            Ok(())
        }
        Err(e) => {
            tracer.metrics().bump("smt.certification_failures");
            Err(SmtError::Certification(format!("unsat proof rejected: {e}")))
        }
    }
}

/// Re-evaluates the asserted formula under the model with exact integer
/// arithmetic (when `cfg.certify` is on) before a `sat` answer is allowed
/// out.
pub(crate) fn certify_sat_model(
    cfg: &SmtConfig,
    formula: &Term,
    model: &Model,
) -> Result<(), SmtError> {
    if !cfg.certify {
        return Ok(());
    }
    let tracer = cfg.budget.tracer().clone();
    match eval_exact(formula, model) {
        Ok(BigVal::Bool(true)) => {
            tracer.metrics().bump("smt.certified_sat");
            Ok(())
        }
        Ok(_) => {
            tracer.metrics().bump("smt.certification_failures");
            Err(SmtError::Certification(
                "model does not satisfy the asserted formula".into(),
            ))
        }
        Err(why) => {
            tracer.metrics().bump("smt.certification_failures");
            Err(SmtError::Certification(format!(
                "model evaluation failed: {why}"
            )))
        }
    }
}

/// An exact value during certification-time model evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum BigVal {
    Int(BigInt),
    Bool(bool),
}

/// Evaluates a purified QF_LIA term under `model` with arbitrary-precision
/// integers — deliberately independent of [`Term::eval`] (which computes in
/// `i64` and can overflow). Unconstrained variables read as 0 / `false`;
/// that cannot flip the verdict, because any variable whose value matters
/// to the formula's truth is pinned by the model.
pub(crate) fn eval_exact(t: &Term, model: &Model) -> Result<BigVal, String> {
    use BigVal::{Bool, Int};
    let ints = |args: &[Term]| -> Result<Vec<BigInt>, String> {
        args.iter()
            .map(|a| match eval_exact(a, model)? {
                Int(n) => Ok(n),
                Bool(_) => Err(format!("expected an integer operand in {t}")),
            })
            .collect()
    };
    let bools = |args: &[Term]| -> Result<Vec<bool>, String> {
        args.iter()
            .map(|a| match eval_exact(a, model)? {
                Bool(b) => Ok(b),
                Int(_) => Err(format!("expected a boolean operand in {t}")),
            })
            .collect()
    };
    match t.node() {
        TermNode::IntConst(n) => Ok(Int(BigInt::from(*n))),
        TermNode::BoolConst(b) => Ok(Bool(*b)),
        TermNode::Var(s, Sort::Int) => Ok(Int(model.int(*s))),
        TermNode::Var(s, Sort::Bool) => Ok(Bool(model.boolean(*s))),
        TermNode::App(op, args) => match op {
            Op::Add => Ok(Int(ints(args)?
                .into_iter()
                .fold(BigInt::zero(), |a, b| &a + &b))),
            Op::Mul => Ok(Int(ints(args)?
                .into_iter()
                .fold(BigInt::one(), |a, b| &a * &b))),
            Op::Sub => {
                let vs = ints(args)?;
                let (first, rest) = vs
                    .split_first()
                    .ok_or_else(|| "empty subtraction".to_owned())?;
                Ok(Int(rest.iter().fold(first.clone(), |a, b| &a - b)))
            }
            Op::Neg => {
                let vs = ints(args)?;
                match vs.as_slice() {
                    [n] => Ok(Int(-n)),
                    _ => Err(format!("negation arity in {t}")),
                }
            }
            Op::Ite => {
                if args.len() != 3 {
                    return Err(format!("ite arity in {t}"));
                }
                match eval_exact(&args[0], model)? {
                    Bool(c) => eval_exact(&args[if c { 1 } else { 2 }], model),
                    Int(_) => Err(format!("non-boolean ite condition in {t}")),
                }
            }
            Op::Eq => {
                if args.len() != 2 {
                    return Err(format!("equality arity in {t}"));
                }
                match (eval_exact(&args[0], model)?, eval_exact(&args[1], model)?) {
                    (Int(a), Int(b)) => Ok(Bool(a == b)),
                    (Bool(a), Bool(b)) => Ok(Bool(a == b)),
                    _ => Err(format!("mixed-sort equality in {t}")),
                }
            }
            Op::Le | Op::Lt | Op::Ge | Op::Gt => {
                let vs = ints(args)?;
                match vs.as_slice() {
                    [a, b] => Ok(Bool(match op {
                        Op::Le => a <= b,
                        Op::Lt => a < b,
                        Op::Ge => a >= b,
                        _ => a > b,
                    })),
                    _ => Err(format!("comparison arity in {t}")),
                }
            }
            Op::And => Ok(Bool(bools(args)?.into_iter().all(|b| b))),
            Op::Or => Ok(Bool(bools(args)?.into_iter().any(|b| b))),
            Op::Not => {
                let vs = bools(args)?;
                match vs.as_slice() {
                    [b] => Ok(Bool(!b)),
                    _ => Err(format!("negation arity in {t}")),
                }
            }
            Op::Implies => {
                let vs = bools(args)?;
                match vs.as_slice() {
                    [a, b] => Ok(Bool(!a || *b)),
                    _ => Err(format!("implication arity in {t}")),
                }
            }
            Op::Apply(f, _) => Err(format!("unexpanded function application `{f}`")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::int_var("sx")
    }
    fn y() -> Term {
        Term::int_var("sy")
    }

    fn solver() -> SmtSolver {
        SmtSolver::new()
    }

    fn expect_sat(f: &Term) -> Model {
        match solver().check(f).expect("no error") {
            SmtResult::Sat(m) => m,
            SmtResult::Unsat => panic!("expected sat: {f}"),
        }
    }

    fn expect_unsat(f: &Term) {
        assert_eq!(
            solver().check(f).expect("no error"),
            SmtResult::Unsat,
            "expected unsat: {f}"
        );
    }

    #[test]
    fn constants() {
        assert!(matches!(
            solver().check(&Term::tt()).unwrap(),
            SmtResult::Sat(_)
        ));
        expect_unsat(&Term::ff());
    }

    #[test]
    fn single_interval() {
        let f = Term::and([Term::gt(x(), Term::int(3)), Term::lt(x(), Term::int(5))]);
        let m = expect_sat(&f);
        assert_eq!(m.int(Symbol::new("sx")).to_i64(), Some(4));
    }

    #[test]
    fn empty_int_interval() {
        let f = Term::and([Term::gt(x(), Term::int(3)), Term::lt(x(), Term::int(4))]);
        expect_unsat(&f);
    }

    #[test]
    fn model_satisfies_formula() {
        let f = Term::or([
            Term::and([Term::ge(x(), Term::int(10)), Term::le(y(), Term::int(-3))]),
            Term::eq(Term::add(x(), y()), Term::int(7)),
        ]);
        let m = expect_sat(&f);
        let mut env = m.to_env().expect("small model");
        let defs = sygus_ast::Definitions::new();
        for s in ["sx", "sy"] {
            if env.lookup(Symbol::new(s)).is_none() {
                env.bind(Symbol::new(s), Value::Int(0));
            }
        }
        assert_eq!(f.eval(&env, &defs), Ok(Value::Bool(true)));
    }

    #[test]
    fn disequality_splitting() {
        // x ≠ 0 ∧ 0 ≤ x ≤ 1 → x = 1
        let f = Term::and([
            Term::not(Term::eq(x(), Term::int(0))),
            Term::ge(x(), Term::int(0)),
            Term::le(x(), Term::int(1)),
        ]);
        let m = expect_sat(&f);
        assert_eq!(m.int(Symbol::new("sx")).to_i64(), Some(1));
        // x ≠ 0 ∧ x ≠ 1 ∧ 0 ≤ x ≤ 1 → unsat
        let g = Term::and([
            Term::not(Term::eq(x(), Term::int(0))),
            Term::not(Term::eq(x(), Term::int(1))),
            Term::ge(x(), Term::int(0)),
            Term::le(x(), Term::int(1)),
        ]);
        expect_unsat(&g);
    }

    #[test]
    fn parity_reasoning() {
        // 2x = 2y + 1 unsat over integers.
        let f = Term::eq(
            Term::scale(2, x()),
            Term::add(Term::scale(2, y()), Term::int(1)),
        );
        expect_unsat(&f);
    }

    #[test]
    fn boolean_structure() {
        let p = Term::var("sp", Sort::Bool);
        let q = Term::var("sq", Sort::Bool);
        let f = Term::and([Term::or([p.clone(), q.clone()]), Term::not(p.clone())]);
        let m = expect_sat(&f);
        assert!(!m.boolean(Symbol::new("sp")));
        assert!(m.boolean(Symbol::new("sq")));
    }

    #[test]
    fn mixed_bool_int() {
        let p = Term::var("smb", Sort::Bool);
        // (p → x ≥ 5) ∧ (¬p → x ≤ -5) ∧ x = 3: unsat
        let f = Term::and([
            Term::implies(p.clone(), Term::ge(x(), Term::int(5))),
            Term::implies(Term::not(p.clone()), Term::le(x(), Term::int(-5))),
            Term::eq(x(), Term::int(3)),
        ]);
        expect_unsat(&f);
    }

    #[test]
    fn ite_purification() {
        let max = Term::ite(Term::ge(x(), y()), x(), y());
        let f = Term::and([
            Term::eq(x(), Term::int(3)),
            Term::eq(y(), Term::int(8)),
            Term::eq(max.clone(), Term::int(8)),
        ]);
        let m = expect_sat(&f);
        assert_eq!(m.int(Symbol::new("sx")).to_i64(), Some(3));
        assert!(
            !m.ints.keys().any(|s| s.as_str().starts_with("ite!")),
            "purification variables must not leak into models"
        );
        let g = Term::and([
            Term::eq(x(), Term::int(3)),
            Term::eq(y(), Term::int(8)),
            Term::eq(max, Term::int(3)),
        ]);
        expect_unsat(&g);
    }

    #[test]
    fn nested_ite() {
        let z = Term::int_var("sz");
        let max3 = Term::ite(
            Term::and([Term::ge(x(), y()), Term::ge(x(), z.clone())]),
            x(),
            Term::ite(Term::ge(y(), z.clone()), y(), z.clone()),
        );
        let f = Term::and([
            Term::eq(x(), Term::int(9)),
            Term::eq(y(), Term::int(1)),
            Term::eq(z.clone(), Term::int(5)),
            Term::eq(max3, Term::int(9)),
        ]);
        expect_sat(&f);
    }

    #[test]
    fn validity_of_max_spec() {
        let max = Term::ite(Term::ge(x(), y()), x(), y());
        assert_eq!(
            solver().check_valid(&Term::ge(max, x())).unwrap(),
            Validity::Valid
        );
    }

    #[test]
    fn invalidity_gives_counterexample() {
        let f = Term::ge(x(), y());
        match solver().check_valid(&f).unwrap() {
            Validity::Invalid(m) => {
                assert!(m.int(Symbol::new("sx")) < m.int(Symbol::new("sy")));
            }
            Validity::Valid => panic!("x >= y is not valid"),
        }
    }

    #[test]
    fn equivalence() {
        let a = Term::add(x(), x());
        let b = Term::scale(2, x());
        assert!(solver().equivalent(&a, &b).unwrap());
        assert!(!solver().equivalent(&a, &Term::scale(3, x())).unwrap());
        assert!(!solver()
            .equivalent(&a, &Term::ge(x(), Term::int(0)))
            .unwrap());
    }

    #[test]
    fn unsupported_function_application() {
        let f = Term::ge(Term::apply("unk_f", Sort::Int, vec![x()]), Term::int(0));
        assert!(matches!(solver().check(&f), Err(SmtError::Unsupported(_))));
    }

    #[test]
    fn nonlinear_rejected() {
        let f = Term::ge(Term::app(Op::Mul, vec![x(), y()]), Term::int(0));
        assert!(matches!(solver().check(&f), Err(SmtError::Unsupported(_))));
    }

    #[test]
    fn timeout_honored() {
        let cfg = SmtConfig {
            budget: Budget::with_deadline(Instant::now() - std::time::Duration::from_secs(1)),
            ..SmtConfig::default()
        };
        let s = SmtSolver::with_config(cfg);
        let f = Term::ge(x(), Term::int(0));
        assert_eq!(s.check(&f), Err(SmtError::Timeout));
    }

    #[test]
    fn cancellation_honored() {
        let budget = Budget::unlimited();
        budget.cancel();
        let s = SmtSolver::with_config(SmtConfig {
            budget,
            ..SmtConfig::default()
        });
        assert_eq!(s.check(&Term::ge(x(), Term::int(0))), Err(SmtError::Timeout));
    }

    /// `x = y ∧ 2x + 3y ∈ [6, 7]`: rationally feasible (`x = y = 1.3`) so
    /// the incremental LRA never objects, but integrally unsat — after
    /// equality elimination `5y ∈ [6, 7]` needs a root plus two
    /// branch-and-bound children (~3 nodes) to refute.
    fn branching_unsat_formula() -> Term {
        let lhs = Term::add(Term::scale(2, x()), Term::scale(3, y()));
        Term::and([
            Term::ge(Term::sub(x(), y()), Term::int(0)),
            Term::le(Term::sub(x(), y()), Term::int(0)),
            Term::ge(lhs.clone(), Term::int(6)),
            Term::le(lhs, Term::int(7)),
        ])
    }

    #[test]
    fn retry_ladder_escalates_and_recovers() {
        // A 1-node LIA budget cannot refute the branching formula; the
        // ladder must escalate past it and record the escalations on the
        // budget's telemetry.
        let budget = Budget::unlimited();
        let s = SmtSolver::with_config(SmtConfig {
            budget: budget.clone(),
            lia_budget: 1,
            retry_escalations: 4,
            ..SmtConfig::default()
        });
        assert_eq!(
            s.check(&branching_unsat_formula())
                .expect("ladder reaches a verdict"),
            SmtResult::Unsat
        );
        assert!(
            budget.smt_retries() >= 1,
            "expected at least one recorded escalation, got {}",
            budget.smt_retries()
        );
        assert_eq!(budget.smt_queries(), 1);
    }

    #[test]
    fn retry_ladder_stops_when_out_of_escalations() {
        // With zero allowed escalations the first ResourceLimit surfaces.
        let s = SmtSolver::with_config(SmtConfig {
            lia_budget: 1,
            retry_escalations: 0,
            ..SmtConfig::default()
        });
        assert!(matches!(
            s.check(&branching_unsat_formula()),
            Err(SmtError::ResourceLimit(_))
        ));
    }

    #[test]
    fn bool_equality_encoding() {
        let p = Term::var("xp", Sort::Bool);
        let q = Term::var("xq", Sort::Bool);
        let f = Term::and([Term::app(Op::Eq, vec![p.clone(), q.clone()]), p.clone()]);
        let m = expect_sat(&f);
        assert!(m.boolean(Symbol::new("xq")));
    }

    #[test]
    fn big_conjunction_of_bounds() {
        // c0 < c1 < ... < c7, c0 >= 0, c7 <= 7 → unique chain 0..7
        let vars: Vec<Term> = (0..8)
            .map(|i| Term::int_var(format!("c{i}").as_str()))
            .collect();
        let mut cs: Vec<Term> = vars
            .windows(2)
            .map(|w| Term::lt(w[0].clone(), w[1].clone()))
            .collect();
        cs.push(Term::ge(vars[0].clone(), Term::int(0)));
        cs.push(Term::le(vars[7].clone(), Term::int(7)));
        let m = expect_sat(&Term::and(cs));
        for (i, v) in vars.iter().enumerate() {
            let s = v.as_var().expect("var");
            assert_eq!(m.int(s).to_i64(), Some(i as i64), "chain position {i}");
        }
    }

    #[test]
    fn structured_formulas_model_eval() {
        let defs = sygus_ast::Definitions::new();
        let formulas = vec![
            Term::and([
                Term::ge(Term::add(x(), Term::scale(3, y())), Term::int(10)),
                Term::le(Term::sub(x(), y()), Term::int(2)),
            ]),
            Term::or([
                Term::eq(x(), Term::int(-7)),
                Term::and([Term::lt(x(), y()), Term::lt(y(), Term::int(0))]),
            ]),
            Term::implies(
                Term::ge(x(), Term::int(0)),
                Term::gt(Term::add(x(), y()), Term::sub(y(), Term::int(1))),
            ),
        ];
        for f in formulas {
            match solver().check(&f).unwrap() {
                SmtResult::Sat(m) => {
                    let mut env = m.to_env().expect("fits");
                    for s in ["sx", "sy"] {
                        if env.lookup(Symbol::new(s)).is_none() {
                            env.bind(Symbol::new(s), Value::Int(0));
                        }
                    }
                    assert_eq!(f.eval(&env, &defs), Ok(Value::Bool(true)), "formula {f}");
                }
                SmtResult::Unsat => panic!("expected sat: {f}"),
            }
        }
    }
}
