//! Bottom-up term enumeration from an expression grammar, by term size,
//! with observational-equivalence pruning — the enumeration core of the
//! EUSolver-style baseline.

use std::collections::HashMap;
use sygus_ast::runtime::Budget;
use sygus_ast::{
    Definitions, Env, GTerm, Grammar, NonterminalId, SizeFeasibility, Sort, Term, Value,
};

/// Configuration for a [`TermEnumerator`].
#[derive(Clone, Debug)]
pub struct EnumConfig {
    /// Largest term size (node count) to enumerate.
    pub max_size: usize,
    /// Integer constants substituted for `(Constant Int)` productions.
    pub constant_pool: Vec<i64>,
    /// Hard cap on terms kept per (non-terminal, size) layer.
    pub max_terms_per_layer: usize,
    /// Shared resource governor, polled every few hundred emitted
    /// candidates; when it trips, layer construction stops, even
    /// inside a layer (already-built layers stay queryable, the unfinished
    /// one is dropped). Each kept term charges one fuel unit.
    pub budget: Budget,
}

impl Default for EnumConfig {
    fn default() -> EnumConfig {
        EnumConfig {
            max_size: 20,
            constant_pool: vec![0, 1, -1, 2],
            max_terms_per_layer: 50_000,
            budget: Budget::unlimited(),
        }
    }
}

/// Emitted candidates between two budget polls inside a layer: rare enough
/// that the poll stays off the profile, frequent enough that a trip stops
/// the layer within milliseconds.
const BUDGET_POLL_INTERVAL: u32 = 256;

/// The observational signature of a term: its value on each example
/// environment (`None` when evaluation fails, e.g. on overflow).
type Signature = Vec<Option<Value>>;

/// Bottom-up enumerator producing grammar terms in non-decreasing size
/// order, deduplicated by behaviour on a set of example environments.
///
/// With no examples, deduplication is purely syntactic (every term has the
/// empty signature — so pruning is disabled and terms are kept distinct).
///
/// # Examples
///
/// ```
/// use enum_synth::{EnumConfig, TermEnumerator};
/// use sygus_ast::{Definitions, Env, Grammar, Sort, Symbol, Value};
/// let g = Grammar::clia(&[(Symbol::new("x"), Sort::Int)], Sort::Int);
/// let defs = Definitions::new();
/// let examples = vec![Env::from_pairs(&[Symbol::new("x")], &[Value::Int(3)])];
/// let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
/// let layer1 = e.terms_of_size(1).to_vec();
/// assert!(!layer1.is_empty()); // x and the constant pool
/// ```
pub struct TermEnumerator<'a> {
    grammar: &'a Grammar,
    defs: &'a Definitions,
    examples: Vec<Env>,
    config: EnumConfig,
    /// `layers[nt][size]` = distinct-behaviour terms of that exact size.
    layers: Vec<Vec<Vec<Term>>>,
    /// Seen signatures per non-terminal (disabled when `examples` is empty).
    seen: Vec<HashMap<Signature, Term>>,
    /// Grammar dataflow table: which (production, exact size) slots can be
    /// non-empty at all. Provably-empty slots are skipped without expansion.
    feasible: SizeFeasibility,
    built_size: usize,
    /// Candidates emitted since the last budget poll.
    since_poll: u32,
    /// Latched once the budget trips: no further layer is built.
    stopped: bool,
}

impl<'a> TermEnumerator<'a> {
    /// Creates an enumerator. `examples` drive observational-equivalence
    /// pruning; `defs` interpret applied functions during evaluation.
    pub fn new(
        grammar: &'a Grammar,
        defs: &'a Definitions,
        examples: Vec<Env>,
        config: EnumConfig,
    ) -> TermEnumerator<'a> {
        let n = grammar.nonterminals().len();
        TermEnumerator {
            grammar,
            defs,
            examples,
            config,
            layers: vec![vec![Vec::new()]; n], // index 0 unused
            seen: vec![HashMap::new(); n],
            feasible: SizeFeasibility::new(grammar),
            built_size: 0,
            since_poll: 0,
            stopped: false,
        }
    }

    /// The example environments driving pruning.
    pub fn examples(&self) -> &[Env] {
        &self.examples
    }

    /// Terms of the start non-terminal with exactly the given size,
    /// building layers on demand.
    pub fn terms_of_size(&mut self, size: usize) -> &[Term] {
        self.build_to(size);
        &self.layers[self.grammar.start()][size]
    }

    /// Terms of a specific non-terminal with exactly the given size.
    pub fn terms_of_nt_size(&mut self, nt: NonterminalId, size: usize) -> &[Term] {
        self.build_to(size);
        &self.layers[nt][size]
    }

    /// The observational signature of a term on the current examples.
    pub fn signature(&self, t: &Term) -> Signature {
        self.examples
            .iter()
            .map(|env| t.eval(env, self.defs).ok())
            .collect()
    }

    fn build_to(&mut self, requested: usize) {
        let size = requested.min(self.config.max_size);
        let mut pruned = 0u64;
        while self.built_size < size && !self.stopped {
            // Budget checkpoint in the hot loop: stop growing the table the
            // moment the governor trips (deadline, cancellation, or fuel).
            if self.config.budget.is_exhausted() {
                self.stopped = true;
                break;
            }
            let next = self.built_size + 1;
            for nt in 0..self.grammar.nonterminals().len() {
                let mut layer: Vec<Term> = Vec::new();
                let prods = self.grammar.nonterminal(nt).productions.clone();
                for prod in &prods {
                    // Dataflow pre-check: when the fixpoint proves no term of
                    // exactly `next` nodes can come from this production,
                    // skip the whole expansion for the slot.
                    if !self.feasible.pattern_feasible(prod, next) {
                        pruned += 1;
                        continue;
                    }
                    self.expand(prod, next, &mut |t, me| {
                        if me.poll_budget() || layer.len() >= me.config.max_terms_per_layer {
                            return;
                        }
                        if me.examples.is_empty() {
                            if !layer.contains(&t) {
                                layer.push(t);
                            }
                            return;
                        }
                        let sig = me.signature(&t);
                        if let std::collections::hash_map::Entry::Vacant(e) =
                            me.seen[nt].entry(sig)
                        {
                            e.insert(t.clone());
                            layer.push(t);
                        }
                    });
                }
                // One fuel unit per kept (behaviourally distinct) term.
                let _ = self.config.budget.charge_fuel(layer.len() as u64);
                self.layers[nt].push(layer);
            }
            if self.stopped {
                // The budget tripped inside this size: drop its unfinished
                // layers so every stored layer is complete.
                for layers in &mut self.layers {
                    layers.truncate(next);
                }
                break;
            }
            self.built_size = next;
        }
        if pruned > 0 {
            self.config
                .budget
                .tracer()
                .metrics()
                .add("enum.slots_pruned", pruned);
        }
        // Pad layers when the request exceeds max_size (or the budget
        // stopped the build) so indexing stays in range; those layers are
        // empty.
        for nt in 0..self.layers.len() {
            while self.layers[nt].len() <= requested {
                self.layers[nt].push(Vec::new());
            }
        }
    }

    /// Counts one emitted candidate and polls the budget every
    /// [`BUDGET_POLL_INTERVAL`] of them; returns whether construction must
    /// stop.
    fn poll_budget(&mut self) -> bool {
        if !self.stopped {
            self.since_poll += 1;
            if self.since_poll >= BUDGET_POLL_INTERVAL {
                self.since_poll = 0;
                self.stopped = self.config.budget.is_exhausted();
            }
        }
        self.stopped
    }

    /// Calls `emit` for every instantiation of `prod` with exactly `size`
    /// nodes.
    fn expand(&mut self, prod: &GTerm, size: usize, emit: &mut dyn FnMut(Term, &mut Self)) {
        match prod {
            GTerm::Const(n) => {
                if size == 1 {
                    emit(Term::int(*n), self);
                }
            }
            GTerm::BoolConst(b) => {
                if size == 1 {
                    emit(Term::bool(*b), self);
                }
            }
            GTerm::Var(v, s) => {
                if size == 1 {
                    emit(Term::var(*v, *s), self);
                }
            }
            GTerm::AnyConst(Sort::Int) => {
                if size == 1 {
                    for &c in &self.config.constant_pool.clone() {
                        emit(Term::int(c), self);
                    }
                }
            }
            GTerm::AnyConst(Sort::Bool) => {
                if size == 1 {
                    emit(Term::tt(), self);
                    emit(Term::ff(), self);
                }
            }
            GTerm::AnyVar(s) => {
                if size == 1 {
                    // All example-scope variables of the sort.
                    let mut vars: Vec<(sygus_ast::Symbol, Sort)> = Vec::new();
                    for env in &self.examples {
                        for (sym, val) in env.iter() {
                            if val.sort() == *s && !vars.iter().any(|&(w, _)| w == sym) {
                                vars.push((sym, *s));
                            }
                        }
                    }
                    for (sym, sort) in vars {
                        emit(Term::var(sym, sort), self);
                    }
                }
            }
            GTerm::Nonterminal(id) => {
                // Terms of this exact size from the table (must already be
                // built: productions only reference sizes < current).
                let terms = self.layers[*id].get(size).cloned().unwrap_or_default();
                for t in terms {
                    emit(t, self);
                }
            }
            GTerm::App(op, children) => {
                if size < 1 + children.len() {
                    return;
                }
                // Distribute size-1 among children.
                let op = *op;
                let children = children.clone();
                self.expand_children(&children, size - 1, Vec::new(), &mut |args, me| {
                    emit(Term::app(op, args.to_vec()), me);
                });
            }
        }
    }

    fn expand_children(
        &mut self,
        children: &[GTerm],
        remaining: usize,
        acc: Vec<Term>,
        emit: &mut dyn FnMut(&[Term], &mut Self),
    ) {
        match children.split_first() {
            None => {
                if remaining == 0 {
                    emit(&acc, self);
                }
            }
            Some((first, rest)) => {
                // Minimum size of the remaining children is 1 each.
                let max_here = remaining.saturating_sub(rest.len());
                for sz in 1..=max_here {
                    let mut collected: Vec<Term> = Vec::new();
                    self.expand(first, sz, &mut |t, _| collected.push(t));
                    for t in collected {
                        if self.stopped {
                            return;
                        }
                        let mut acc2 = acc.clone();
                        acc2.push(t);
                        self.expand_children(rest, remaining - sz, acc2, emit);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus_ast::{Op, Symbol};

    fn x_sym() -> Symbol {
        Symbol::new("x")
    }

    fn simple_grammar() -> Grammar {
        // S -> x | 0 | 1 | (+ S S)
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(s, GTerm::Const(0));
        g.add_production(s, GTerm::Const(1));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Nonterminal(s)]),
        );
        g
    }

    #[test]
    fn size_one_terms() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t1: Vec<String> = e.terms_of_size(1).iter().map(|t| t.to_string()).collect();
        assert_eq!(t1, vec!["x", "0", "1"]);
    }

    #[test]
    fn size_three_sums() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t3 = e.terms_of_size(3).to_vec();
        // Pairs of size-1 terms under +: 3 × 3 = 9 raw applications.
        assert_eq!(t3.len(), 9);
        assert!(t3.iter().any(|t| t.to_string() == "(+ x x)"));
    }

    #[test]
    fn observational_pruning_collapses_equivalents() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let examples = vec![
            Env::from_pairs(&[x_sym()], &[Value::Int(2)]),
            Env::from_pairs(&[x_sym()], &[Value::Int(-5)]),
        ];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        let _ = e.terms_of_size(1);
        let t3 = e.terms_of_size(3).to_vec();
        // (+ 0 0) ≡ 0, (+ x 0) ≡ x, (+ 0 1) ≡ 1 … only genuinely new
        // behaviours survive: x+x, x+1, 1+1.
        let strs: Vec<String> = t3.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs.len(), 3, "{strs:?}");
    }

    #[test]
    fn no_size_two_terms_in_binary_grammar() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        assert!(e.terms_of_size(2).is_empty());
    }

    #[test]
    fn clia_grammar_enumerates_conditions() {
        let g = Grammar::clia(&[(x_sym(), Sort::Int)], Sort::Int);
        let defs = Definitions::new();
        let examples = vec![Env::from_pairs(&[x_sym()], &[Value::Int(1)])];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        // StartBool is non-terminal 1; size-3 conditions include (>= x 0).
        let _ = e.terms_of_size(3);
        let bools = e.terms_of_nt_size(1, 3).to_vec();
        assert!(
            bools.iter().any(|t| t.sort() == Sort::Bool),
            "expected boolean layer, got {bools:?}"
        );
    }

    #[test]
    fn interpreted_functions_evaluated_in_signatures() {
        // S -> x | 0 | qm(S, S); qm(a,b) = ite(a<0, b, a)
        let mut defs = Definitions::new();
        let a = Symbol::new("ea");
        let b = Symbol::new("eb");
        defs.define(
            Symbol::new("qm"),
            sygus_ast::FuncDef::new(
                vec![(a, Sort::Int), (b, Sort::Int)],
                Sort::Int,
                Term::ite(
                    Term::lt(Term::var(a, Sort::Int), Term::int(0)),
                    Term::var(b, Sort::Int),
                    Term::var(a, Sort::Int),
                ),
            ),
        );
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(s, GTerm::Const(0));
        g.add_production(
            s,
            GTerm::App(
                Op::Apply(Symbol::new("qm"), Sort::Int),
                vec![GTerm::Nonterminal(s), GTerm::Nonterminal(s)],
            ),
        );
        let examples = vec![Env::from_pairs(&[x_sym()], &[Value::Int(-3)])];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        let _ = e.terms_of_size(1);
        let t3 = e.terms_of_size(3).to_vec();
        // qm(x, 0) on x = -3 gives 0 ≡ constant 0 → pruned; qm(0, x) gives 0
        // → pruned; qm(x, x) gives -3 ≡ x → pruned. Everything collapses.
        assert!(t3.is_empty(), "{t3:?}");
    }

    #[test]
    fn constant_pool_honored() {
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::AnyConst(Sort::Int));
        let defs = Definitions::new();
        let cfg = EnumConfig {
            constant_pool: vec![7, 9],
            ..EnumConfig::default()
        };
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        let t1: Vec<String> = e.terms_of_size(1).iter().map(|t| t.to_string()).collect();
        assert_eq!(t1, vec!["7", "9"]);
    }

    #[test]
    fn tripped_budget_keeps_built_layers_and_builds_no_more() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let cfg = EnumConfig::default();
        let budget = cfg.budget.clone();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        assert_eq!(e.terms_of_size(3).len(), 9);
        budget.cancel();
        assert!(e.terms_of_size(5).is_empty());
        assert_eq!(e.terms_of_size(3).len(), 9, "built layers stay queryable");
        assert_eq!(e.terms_of_size(1).len(), 3);
    }

    #[test]
    fn max_size_respected() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let cfg = EnumConfig {
            max_size: 3,
            ..EnumConfig::default()
        };
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        assert!(e.terms_of_size(5).is_empty());
    }

    #[test]
    fn infeasible_slots_are_pruned_without_changing_results() {
        // S -> x | (+ S S): every even size slot is provably empty, so each
        // production is skipped there; odd slots still enumerate fully.
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Nonterminal(s)]),
        );
        let defs = Definitions::new();
        let cfg = EnumConfig::default();
        let budget = cfg.budget.clone();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        assert!(e.terms_of_size(2).is_empty());
        assert!(e.terms_of_size(4).is_empty());
        assert_eq!(e.terms_of_size(3).len(), 1); // (+ x x)
        assert!(
            budget.tracer().metrics().counter("enum.slots_pruned") > 0,
            "expected the dataflow pre-check to skip empty slots"
        );
    }

    #[test]
    fn unproductive_nonterminal_is_always_pruned() {
        // S -> x | (+ S U); U -> U : the dead production never expands.
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        let u = g.add_nonterminal("U", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Nonterminal(u)]),
        );
        g.add_production(u, GTerm::Nonterminal(u));
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t1: Vec<String> = e.terms_of_size(1).iter().map(|t| t.to_string()).collect();
        assert_eq!(t1, vec!["x"]);
        for size in 2..=6 {
            assert!(e.terms_of_size(size).is_empty(), "size {size}");
        }
    }

    #[test]
    fn nested_pattern_production() {
        // S -> (+ S 1) | x : production with an embedded constant child.
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Const(1)]),
        );
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t3: Vec<String> = e.terms_of_size(3).iter().map(|t| t.to_string()).collect();
        assert_eq!(t3, vec!["(+ x 1)"]);
        let t5: Vec<String> = e.terms_of_size(5).iter().map(|t| t.to_string()).collect();
        assert_eq!(t5, vec!["(+ (+ x 1) 1)"]);
    }
}
