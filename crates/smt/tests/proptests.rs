//! Property-based tests: arithmetic laws against `i128` references,
//! SAT-solver agreement with brute force, LIA agreement with box
//! enumeration, and model soundness of the full SMT pipeline.

use proptest::prelude::*;
use smtkit::{
    check_lia, BigInt, LiaResult, LinCon, Lit, Rat, Rel, SatResult, SatSolver, SmtResult, SmtSolver,
};
use sygus_ast::{Definitions, Env, Symbol, Term, Value};

// ---------------------------------------------------------------------------
// BigInt vs i128
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn bigint_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = i128::from(a) + i128::from(b);
        prop_assert_eq!(&BigInt::from(a) + &BigInt::from(b), BigInt::from(expect));
    }

    #[test]
    fn bigint_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = i128::from(a) * i128::from(b);
        prop_assert_eq!(&BigInt::from(a) * &BigInt::from(b), BigInt::from(expect));
    }

    #[test]
    fn bigint_divrem_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |b| *b != 0)) {
        let (q, r) = BigInt::from(a).div_rem(&BigInt::from(b));
        prop_assert_eq!(q, BigInt::from(i128::from(a) / i128::from(b)));
        prop_assert_eq!(r, BigInt::from(i128::from(a) % i128::from(b)));
    }

    #[test]
    fn bigint_floor_div_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |b| *b != 0)) {
        let expect = i128::from(a).div_euclid(i128::from(b))
            + if i128::from(b) < 0 && i128::from(a).rem_euclid(i128::from(b)) != 0 { -1 } else { 0 };
        // div_euclid rounds toward -inf only for positive divisors; compute
        // floor directly instead:
        let fa = i128::from(a);
        let fb = i128::from(b);
        let mut fl = fa / fb;
        if fa % fb != 0 && ((fa < 0) != (fb < 0)) {
            fl -= 1;
        }
        let _ = expect;
        prop_assert_eq!(BigInt::from(a).div_floor(&BigInt::from(b)), BigInt::from(fl));
    }

    #[test]
    fn bigint_ordering_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(BigInt::from(a).cmp(&BigInt::from(b)), a.cmp(&b));
    }

    #[test]
    fn bigint_display_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let big = &BigInt::from(a) * &BigInt::from(b);
        prop_assert_eq!(big.to_string(), (i128::from(a) * i128::from(b)).to_string());
    }

    #[test]
    fn bigint_gcd_divides_both(a in any::<i32>(), b in any::<i32>()) {
        let g = BigInt::from(i64::from(a)).gcd(&BigInt::from(i64::from(b)));
        if !g.is_zero() {
            prop_assert!((&BigInt::from(i64::from(a)) % &g).is_zero());
            prop_assert!((&BigInt::from(i64::from(b)) % &g).is_zero());
        } else {
            prop_assert_eq!(a, 0);
            prop_assert_eq!(b, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Rat laws
// ---------------------------------------------------------------------------

fn rat_strategy() -> impl Strategy<Value = Rat> {
    (any::<i32>(), 1i32..1000).prop_map(|(n, d)| Rat::new(i64::from(n).into(), i64::from(d).into()))
}

proptest! {
    #[test]
    fn rat_add_commutes(a in rat_strategy(), b in rat_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn rat_mul_distributes(a in rat_strategy(), b in rat_strategy(), c in rat_strategy()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn rat_sub_then_add_roundtrips(a in rat_strategy(), b in rat_strategy()) {
        prop_assert_eq!(&(&a - &b) + &b, a);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in rat_strategy()) {
        let fl = Rat::from(a.floor());
        let ce = Rat::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rat::one());
    }

    #[test]
    fn rat_recip_of_nonzero(a in rat_strategy().prop_filter("nonzero", |a| !a.is_zero())) {
        prop_assert_eq!(&a * &a.recip(), Rat::one());
    }
}

// ---------------------------------------------------------------------------
// SAT vs brute force
// ---------------------------------------------------------------------------

fn clause_strategy(nvars: u32) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..nvars, any::<bool>()), 1..=3)
        .prop_map(|lits| lits.into_iter().map(|(v, n)| Lit::new(v, n)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sat_matches_bruteforce(
        nvars in 2u32..8,
        clauses in proptest::collection::vec(clause_strategy(8), 1..24),
    ) {
        let clauses: Vec<Vec<Lit>> = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|l| Lit::new(l.var() % nvars, l.is_neg())).collect())
            .collect();
        let mut brute_sat = false;
        'outer: for bits in 0u32..(1 << nvars) {
            for c in &clauses {
                if !c.iter().any(|l| ((bits >> l.var()) & 1 == 1) != l.is_neg()) {
                    continue 'outer;
                }
            }
            brute_sat = true;
            break;
        }
        let mut s = SatSolver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.clone());
        }
        match s.solve(None) {
            SatResult::Sat(m) => {
                prop_assert!(brute_sat);
                for c in &clauses {
                    prop_assert!(c.iter().any(|l| m[l.var() as usize] != l.is_neg()));
                }
            }
            SatResult::Unsat => prop_assert!(!brute_sat),
        }
    }
}

// ---------------------------------------------------------------------------
// Proof-logged SAT: every unsat answer carries a checkable refutation, every
// sat answer a model the trace's live clauses accept.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sat_answers_are_certified(
        nvars in 2u32..8,
        clauses in proptest::collection::vec(clause_strategy(8), 1..24),
    ) {
        let clauses: Vec<Vec<Lit>> = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|l| Lit::new(l.var() % nvars, l.is_neg())).collect())
            .collect();
        let mut s = SatSolver::new();
        s.enable_proof();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.clone());
        }
        match s.solve(None) {
            SatResult::Unsat => {
                let stats = smtkit::check_refutation(s.proof_steps())
                    .expect("unsat trace must pass the DRAT checker");
                prop_assert_eq!(stats.inputs, clauses.len());
            }
            SatResult::Sat(m) => {
                prop_assert!(
                    smtkit::model_satisfies(s.proof_steps(), &m),
                    "model must satisfy every live traced clause"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LIA vs box enumeration
// ---------------------------------------------------------------------------

fn lincon_strategy(nvars: usize) -> impl Strategy<Value = LinCon> {
    (
        proptest::collection::vec((-3i64..=3).prop_map(|c| c), nvars),
        prop_oneof![Just(Rel::Le), Just(Rel::Ge), Just(Rel::Eq)],
        -6i64..=6,
    )
        .prop_map(move |(coeffs, rel, rhs)| {
            LinCon::new(
                &coeffs.into_iter().enumerate().collect::<Vec<_>>(),
                rel,
                rhs,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn lia_matches_box_enumeration(
        cons in proptest::collection::vec(lincon_strategy(2), 1..6),
    ) {
        // Brute force over the box [-8, 8]^2; restrict the solver to the
        // same box so the answers are comparable.
        let mut boxed = cons.clone();
        for v in 0..2 {
            boxed.push(LinCon::new(&[(v, 1)], Rel::Ge, -8));
            boxed.push(LinCon::new(&[(v, 1)], Rel::Le, 8));
        }
        let mut brute_sat = false;
        'outer: for x in -8i64..=8 {
            for y in -8i64..=8 {
                let point = [BigInt::from(x), BigInt::from(y)];
                if cons.iter().all(|c| c.holds_on(&point)) {
                    brute_sat = true;
                    break 'outer;
                }
            }
        }
        match check_lia(2, &boxed, 200_000) {
            LiaResult::Sat(m) => {
                prop_assert!(brute_sat, "solver sat but box has no solution");
                for c in &boxed {
                    prop_assert!(c.holds_on(&m), "model violates {c}");
                }
            }
            LiaResult::Unsat => prop_assert!(!brute_sat, "solver unsat but box has a solution"),
            LiaResult::Unknown => prop_assert!(false, "budget must suffice for this size"),
        }
    }
}

// ---------------------------------------------------------------------------
// Full SMT pipeline: random small formulas, model soundness + agreement with
// exhaustive evaluation over a box.
// ---------------------------------------------------------------------------

fn var_x() -> Term {
    Term::int_var("px")
}
fn var_y() -> Term {
    Term::int_var("py")
}

fn atom_strategy() -> impl Strategy<Value = Term> {
    (-3i64..=3, -3i64..=3, -5i64..=5, 0usize..5).prop_map(|(a, b, c, rel)| {
        let lhs = Term::add(
            Term::scale(a, var_x()),
            Term::add(Term::scale(b, var_y()), Term::int(c)),
        );
        let rhs = Term::int(0);
        match rel {
            0 => Term::le(lhs, rhs),
            1 => Term::lt(lhs, rhs),
            2 => Term::ge(lhs, rhs),
            3 => Term::gt(lhs, rhs),
            _ => Term::eq(lhs, rhs),
        }
    })
}

fn formula_strategy() -> impl Strategy<Value = Term> {
    let leaf = atom_strategy();
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::and),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::or),
            inner.clone().prop_map(Term::not),
            (inner.clone(), inner).prop_map(|(a, b)| Term::implies(a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn smt_agrees_with_box_enumeration(f in formula_strategy()) {
        // Constrain to a box so brute force is exact.
        let bounded = Term::and([
            f.clone(),
            Term::ge(var_x(), Term::int(-6)),
            Term::le(var_x(), Term::int(6)),
            Term::ge(var_y(), Term::int(-6)),
            Term::le(var_y(), Term::int(6)),
        ]);
        let defs = Definitions::new();
        let mut brute_sat = false;
        'outer: for x in -6i64..=6 {
            for y in -6i64..=6 {
                let env = Env::from_pairs(
                    &[Symbol::new("px"), Symbol::new("py")],
                    &[Value::Int(x), Value::Int(y)],
                );
                if f.eval(&env, &defs) == Ok(Value::Bool(true)) {
                    brute_sat = true;
                    break 'outer;
                }
            }
        }
        match SmtSolver::new().check(&bounded) {
            Ok(SmtResult::Sat(m)) => {
                prop_assert!(brute_sat, "solver sat, brute unsat: {}", f);
                let mut env = m.to_env().expect("boxed model fits i64");
                for s in ["px", "py"] {
                    if env.lookup(Symbol::new(s)).is_none() {
                        env.bind(Symbol::new(s), Value::Int(0));
                    }
                }
                prop_assert_eq!(bounded.eval(&env, &defs), Ok(Value::Bool(true)));
            }
            Ok(SmtResult::Unsat) => prop_assert!(!brute_sat, "solver unsat, brute sat: {}", f),
            Err(e) => prop_assert!(false, "solver error {e} on {}", f),
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental sessions vs from-scratch solving: over randomized
// push/pop/assert scripts, a persistent session must give the same
// sat/unsat answer as a fresh solver on the conjunction of the active
// assertions — and (with certification on by default) both answers carry
// certifiable evidence.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum ScriptOp {
    Push,
    Pop,
    Assert(Term),
    Check,
}

fn script_strategy() -> impl Strategy<Value = Vec<ScriptOp>> {
    // The vendored `prop_oneof` is unweighted; repetition biases the mix
    // toward assertions.
    let op = prop_oneof![
        Just(ScriptOp::Push),
        Just(ScriptOp::Pop),
        atom_strategy().prop_map(ScriptOp::Assert),
        atom_strategy().prop_map(ScriptOp::Assert),
        formula_strategy().prop_map(ScriptOp::Assert),
        Just(ScriptOp::Check),
        Just(ScriptOp::Check),
    ];
    proptest::collection::vec(op, 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn session_agrees_with_from_scratch(script in script_strategy()) {
        use smtkit::{SmtConfig, SmtSession};

        let mut session = SmtSession::new(SmtConfig::default());
        // Reference scope stack maintained independently of the session.
        let mut stack: Vec<Vec<Term>> = vec![Vec::new()];
        let mut checks = script.iter().filter(|op| matches!(op, ScriptOp::Check)).count();
        for op in script {
            match op {
                ScriptOp::Push => {
                    session.push();
                    stack.push(Vec::new());
                }
                ScriptOp::Pop => {
                    session.pop();
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
                ScriptOp::Assert(t) => {
                    // Keep the problems box-bounded so every check is cheap.
                    let t = Term::and([
                        t,
                        Term::ge(var_x(), Term::int(-6)),
                        Term::le(var_x(), Term::int(6)),
                        Term::ge(var_y(), Term::int(-6)),
                        Term::le(var_y(), Term::int(6)),
                    ]);
                    session.assert_term(&t).expect("CLIA assertion");
                    stack.last_mut().unwrap().push(t);
                }
                ScriptOp::Check => {
                    checks -= 1;
                    let active = Term::and(stack.iter().flatten().cloned());
                    let incremental = session.check_sat().expect("session check");
                    let scratch = SmtSolver::new().check(&active).expect("one-shot check");
                    prop_assert_eq!(
                        matches!(incremental, SmtResult::Sat(_)),
                        matches!(scratch, SmtResult::Sat(_)),
                        "divergence at depth {} on {}",
                        session.depth(),
                        active
                    );
                    // Session models must satisfy the active conjunction
                    // under exact evaluation (beyond the built-in certifier).
                    if let SmtResult::Sat(m) = &incremental {
                        let mut env = m.to_env().expect("boxed model fits i64");
                        for s in ["px", "py"] {
                            if env.lookup(Symbol::new(s)).is_none() {
                                env.bind(Symbol::new(s), Value::Int(0));
                            }
                        }
                        prop_assert_eq!(
                            active.eval(&env, &Definitions::new()),
                            Ok(Value::Bool(true))
                        );
                    }
                }
            }
        }
        // Every script ends with a final agreement check even if the random
        // tail had none.
        if checks == 0 {
            let active = Term::and(stack.iter().flatten().cloned());
            let incremental = session.check_sat().expect("session check");
            let scratch = SmtSolver::new().check(&active).expect("one-shot check");
            prop_assert_eq!(
                matches!(incremental, SmtResult::Sat(_)),
                matches!(scratch, SmtResult::Sat(_)),
                "final divergence on {}",
                active
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Difference logic vs simplex: over randomized assert/retract/push/pop
// scripts in the DL fragment, the two incremental theory engines must give
// the same verdict at every check; DL conflict cores must be independently
// refuted by fresh simplexes, on both sides of every disequality they
// contain; and DL models must satisfy every active atom under exact i128
// evaluation.
// ---------------------------------------------------------------------------

use smtkit::{DifferenceLogic, IncrementalLra, LinearAtom, TheorySolver};

/// One atom from the DL fragment over `nvars` integer variables.
fn dl_atom_strategy(nvars: usize) -> impl Strategy<Value = LinearAtom> {
    let v = 0..nvars;
    (v.clone(), 0..nvars, -8i64..=8, 0usize..4, any::<bool>()).prop_map(
        |(u, v, w, shape, is_eq)| {
            let coeffs = match shape {
                0 => vec![(u, 1i64)],
                1 => vec![(u, -1i64)],
                _ if u != v => {
                    if shape == 2 {
                        vec![(u, 1), (v, -1)]
                    } else {
                        vec![(u, -1), (v, 1)]
                    }
                }
                _ => vec![(u, 1)],
            };
            (coeffs, is_eq, w)
        },
    )
}

#[derive(Clone, Debug)]
enum DlOp {
    Assert(usize, bool),
    Retract(usize),
    Push,
    Pop,
    Check,
}

fn dl_script_strategy(natoms: usize) -> impl Strategy<Value = Vec<DlOp>> {
    let op = prop_oneof![
        (0..natoms, any::<bool>()).prop_map(|(i, p)| DlOp::Assert(i, p)),
        (0..natoms, any::<bool>()).prop_map(|(i, p)| DlOp::Assert(i, p)),
        (0..natoms, any::<bool>()).prop_map(|(i, p)| DlOp::Assert(i, p)),
        (0..natoms).prop_map(DlOp::Retract),
        Just(DlOp::Push),
        Just(DlOp::Pop),
        Just(DlOp::Check),
        Just(DlOp::Check),
    ];
    proptest::collection::vec(op, 1..24)
}

/// Exact evaluation of `atom` under `model` with the DL engine's negation
/// semantics: positive `e <= w` / `e == w`, negative `e >= w + 1`.
/// Negative equalities (disequalities) are not enforced by the partial
/// check, so callers skip them.
fn atom_holds(atom: &LinearAtom, polarity: bool, model: &[smtkit::BigInt]) -> bool {
    let (coeffs, is_eq, w) = atom;
    let mut sum = 0i128;
    for (var, c) in coeffs {
        let v = model[*var].to_i64().expect("small model");
        sum += i128::from(*c) * i128::from(v);
    }
    match (is_eq, polarity) {
        (false, true) => sum <= i128::from(*w),
        (false, false) => sum > i128::from(*w),
        (true, true) => sum == i128::from(*w),
        (true, false) => unreachable!("disequalities are skipped"),
    }
}

/// Whether fresh simplexes refute the conjunction of `(atom, polarity)`
/// pairs in `core` over the integers. A disequality `e ≠ w` in it is split
/// into `e ≤ w - 1` and `e ≥ w + 1`, and each side must be refuted on its
/// own (recursively, for further disequalities): a single simplex sees a
/// disequality only when one bound pins it, while the DL engine refutes
/// disequalities that whole shortest paths pin.
fn simplex_refutes(nvars: usize, atoms: &[LinearAtom], core: &[(usize, bool)]) -> bool {
    let Some(k) = core.iter().position(|&(i, p)| atoms[i].1 && !p) else {
        let mut fresh = IncrementalLra::new(nvars, atoms);
        for &(i, p) in core {
            TheorySolver::assert_atom(&mut fresh, i, p);
        }
        return TheorySolver::check(&mut fresh, 1_000_000, &mut || true)
            .expect("core budget")
            .is_err();
    };
    let (coeffs, _, w) = &atoms[core[k].0];
    let negated: Vec<(usize, i64)> = coeffs.iter().map(|&(v, c)| (v, -c)).collect();
    let mut split = atoms.to_vec();
    split.push((coeffs.clone(), false, w - 1)); // e ≤ w - 1
    split.push((negated, false, -w - 1)); // -e ≤ -w - 1, i.e. e ≥ w + 1
    [atoms.len(), atoms.len() + 1].into_iter().all(|side| {
        let mut rest = core.to_vec();
        rest[k] = (side, true);
        simplex_refutes(nvars, &split, &rest)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn dl_and_simplex_agree_on_dl_scripts(
        atoms in proptest::collection::vec(dl_atom_strategy(4), 1..10),
        script in dl_script_strategy(10),
    ) {
        const NVARS: usize = 4;
        let mut dl = DifferenceLogic::new(NVARS, &atoms);
        let mut lra = IncrementalLra::new(NVARS, &atoms);
        let mut depth = 0usize;
        for op in &script {
            match *op {
                DlOp::Assert(i, p) => {
                    if i < atoms.len() {
                        TheorySolver::assert_atom(&mut dl, i, p);
                        TheorySolver::assert_atom(&mut lra, i, p);
                    }
                }
                DlOp::Retract(i) => {
                    if i < atoms.len() {
                        TheorySolver::retract_atom(&mut dl, i);
                        TheorySolver::retract_atom(&mut lra, i);
                    }
                }
                DlOp::Push => {
                    TheorySolver::push(&mut dl);
                    TheorySolver::push(&mut lra);
                    depth += 1;
                }
                DlOp::Pop => {
                    if depth > 0 {
                        TheorySolver::pop(&mut dl);
                        TheorySolver::pop(&mut lra);
                        depth -= 1;
                    }
                }
                DlOp::Check => {
                    let dv = TheorySolver::check(&mut dl, 1_000_000, &mut || true)
                        .expect("dl budget");
                    let sv = TheorySolver::check(&mut lra, 1_000_000, &mut || true)
                        .expect("lra budget");
                    // Disequality detection differs in strength (the DL
                    // engine sees disequalities pinned by shortest paths,
                    // the simplex only those pinned by a single bound, and
                    // neither sees jointly infeasible ones), so exact
                    // agreement is only required without active diseqs.
                    let any_diseq = (0..atoms.len())
                        .any(|i| atoms[i].1 && TheorySolver::polarity(&dl, i) == Some(false));
                    if !any_diseq {
                        prop_assert_eq!(
                            dv.is_ok(),
                            sv.is_ok(),
                            "engines diverge: dl={:?} simplex={:?} atoms={:?}",
                            dv,
                            sv,
                            atoms
                        );
                    }
                    if let Err(core) = &dv {
                        // The DL conflict core must be unsat on its own,
                        // independently re-checked by fresh simplexes.
                        prop_assert!(!core.is_empty());
                        let signed: Vec<(usize, bool)> = core
                            .iter()
                            .map(|&i| {
                                (i, TheorySolver::polarity(&dl, i).expect("core atom asserted"))
                            })
                            .collect();
                        prop_assert!(
                            simplex_refutes(NVARS, &atoms, &signed),
                            "dl core {:?} not refuted by simplex; atoms={:?}",
                            core,
                            atoms
                        );
                        // And the engine's certificate must describe it.
                        let cert = TheorySolver::explain_conflict(&dl).expect("certificate");
                        prop_assert_eq!(&cert.atoms, core);
                    }
                    if dv.is_ok() {
                        // Exact model check: every active atom holds under
                        // the integral model (diseqs excepted — the partial
                        // check does not enforce them).
                        let model = dl.model();
                        for (i, atom) in atoms.iter().enumerate() {
                            match TheorySolver::polarity(&dl, i) {
                                Some(false) if atom.1 => {}
                                Some(p) => prop_assert!(
                                    atom_holds(atom, p, &model),
                                    "model violates atom {} ({:?}, polarity {})",
                                    i,
                                    atom,
                                    p
                                ),
                                None => {}
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A chain `x0 … xk` whose links pin every `x(i+1) - x(i)` to a constant,
/// closed by a disequality between the chain's ends that contradicts the
/// sum: as atoms, the index of the disequality, and the number of
/// variables. Each link is an equality in either orientation, a pair of
/// opposite bounds, or unary pins of both ends through the zero node.
fn pinned_chain_strategy() -> impl Strategy<Value = (Vec<LinearAtom>, usize, usize)> {
    (
        -5i64..=5,
        proptest::collection::vec((0usize..4, -5i64..=5), 1..6),
        any::<bool>(),
    )
        .prop_map(|(start, links, flip)| {
            let mut atoms: Vec<LinearAtom> = Vec::new();
            let mut value = start;
            for (i, &(shape, c)) in links.iter().enumerate() {
                let (a, b) = (i, i + 1);
                match shape {
                    0 => atoms.push((vec![(b, 1), (a, -1)], true, c)),
                    1 => atoms.push((vec![(a, 1), (b, -1)], true, -c)),
                    2 => {
                        atoms.push((vec![(b, 1), (a, -1)], false, c));
                        atoms.push((vec![(a, 1), (b, -1)], false, -c));
                    }
                    _ => {
                        atoms.push((vec![(a, 1)], true, value));
                        atoms.push((vec![(b, 1)], true, value + c));
                    }
                }
                value += c;
            }
            let (k, sum) = (links.len(), value - start);
            let diseq = if flip {
                (vec![(0, 1), (k, -1)], true, -sum)
            } else {
                (vec![(k, 1), (0, -1)], true, sum)
            };
            atoms.push(diseq);
            let diseq_idx = atoms.len() - 1;
            (atoms, diseq_idx, k + 1)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn dl_refutes_path_pinned_disequalities(
        chain in pinned_chain_strategy(),
        keys in proptest::collection::vec(any::<u32>(), 11), // one per atom at most
    ) {
        let (atoms, diseq, nvars) = chain;
        // Assert in a scrambled order so paths are found whatever order
        // the edges arrived in.
        let mut order: Vec<usize> = (0..atoms.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut dl = DifferenceLogic::new(nvars, &atoms);
        for &i in &order {
            TheorySolver::assert_atom(&mut dl, i, i != diseq);
        }
        let core = TheorySolver::check(&mut dl, 1_000_000, &mut || true)
            .expect("dl budget")
            .expect_err("the chain pins the disequality");
        prop_assert!(core.contains(&diseq), "core {:?} lacks the disequality", core);
        let cert = TheorySolver::explain_conflict(&dl).expect("certificate");
        prop_assert_eq!(cert.kind, "pinned-diseq");
        prop_assert_eq!(&cert.atoms, &core);
        let signed: Vec<(usize, bool)> = core.iter().map(|&i| (i, i != diseq)).collect();
        prop_assert!(
            simplex_refutes(nvars, &atoms, &signed),
            "dl core {:?} not refuted by simplex; atoms={:?}",
            core,
            atoms
        );
        // Without the disequality the chain itself is consistent.
        TheorySolver::retract_atom(&mut dl, diseq);
        prop_assert!(TheorySolver::check(&mut dl, 1_000_000, &mut || true)
            .expect("dl budget")
            .is_ok());
    }
}

// ---------------------------------------------------------------------------
// End-to-end differential: on random boolean combinations of DL-fragment
// atoms, a solver pinned to the DL engine and one pinned to simplex must
// agree sat/unsat. Certification defaults on, so every unsat answer has
// been replayed through the DRAT checker (with `t`-tagged theory lemmas)
// and every sat answer model-checked before it reaches the assertion.
// ---------------------------------------------------------------------------

fn dl_term_atom() -> impl Strategy<Value = Term> {
    (0usize..3, 0usize..3, -6i64..=6, 0usize..4).prop_map(|(u, v, c, rel)| {
        let name = |i: usize| Term::int_var(["dx", "dy", "dz"][i]);
        let lhs = if u == v {
            name(u)
        } else {
            Term::sub(name(u), name(v))
        };
        let rhs = Term::int(c);
        match rel {
            0 => Term::le(lhs, rhs),
            1 => Term::lt(lhs, rhs),
            2 => Term::ge(lhs, rhs),
            _ => Term::eq(lhs, rhs),
        }
    })
}

fn dl_formula_strategy() -> impl Strategy<Value = Term> {
    let leaf = dl_term_atom();
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::and),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::or),
            inner.clone().prop_map(Term::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn solver_theory_dl_matches_simplex(f in dl_formula_strategy()) {
        use smtkit::{SmtConfig, TheorySelect};

        let dl = SmtSolver::with_config(
            SmtConfig::builder().theory(TheorySelect::DifferenceLogic).build(),
        );
        let simplex = SmtSolver::with_config(
            SmtConfig::builder().theory(TheorySelect::Simplex).build(),
        );
        let a = dl.check(&f).expect("dl-pinned solver");
        let b = simplex.check(&f).expect("simplex-pinned solver");
        prop_assert_eq!(
            matches!(a, SmtResult::Sat(_)),
            matches!(b, SmtResult::Sat(_)),
            "theory engines disagree on {}",
            f
        );
    }
}
