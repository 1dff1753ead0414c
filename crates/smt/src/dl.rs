//! An incremental difference-logic theory engine: the specialized fast
//! path for the octagonal/difference constraints that dominate INV-track
//! verification conditions.
//!
//! Constraints `x - y ≤ w` become weighted edges `y → x` of a constraint
//! graph over one node per variable plus a distinguished *zero node* for
//! unary bounds (`x ≤ c` is `x - 0 ≤ c`). The asserted conjunction is
//! satisfiable over the integers iff the graph has no negative-weight
//! cycle, and shortest-path potentials `π` (with `π(x) ≤ π(y) + w` for
//! every edge) give an integral model `x = π(x) - π(zero)` directly — no
//! branch-and-bound needed, which is why DL-dispatched queries skip the
//! simplex entirely.
//!
//! Incrementality (Cotton & Maler, "Fast and flexible difference constraint
//! propagation"): asserting an edge that the current potentials already
//! satisfy is free; a violated new edge triggers a localized relaxation
//! from its head, and a negative cycle exists iff that relaxation wraps
//! around to the edge's own tail. Retraction only *loosens* the constraint
//! system, so the potentials stay feasible and retracting is O(1) — the
//! property that makes the engine cheap under the churn of DPLL(T)
//! assignment sync. Conflicts latch the engine (potentials may be stale);
//! the first check after the assertion set changes re-validates with a
//! full budgeted Bellman–Ford pass.
//!
//! Disequalities `x - y ≠ w` assert no edges. `check` refutes one when
//! shortest paths pin it: `d(y→x) = w` and `d(x→y) = -w` make `x - y = w`
//! forced, and the conflict core is the disequality plus the atoms of
//! both paths. A pin forces the current model to violate the disequality
//! and every edge on both paths to be tight under the potentials, so the
//! search is a walk over tight edges. Disequalities that are only jointly
//! infeasible (`x - y ∈ [0, 1]`, `x - y ≠ 0`, `x - y ≠ 1`) stay with the
//! solver's complete full-model check.
//!
//! Per ordered node pair the engine keeps *all* asserted bounds in a
//! [`BTreeMap`] keyed by weight; the effective edge is the tightest, and
//! the atom justifying it is the explanation entering conflict cores —
//! exactly the bookkeeping [`IncrementalLra`](crate::IncrementalLra) uses
//! for simplex bounds, transplanted to graph edges.
//!
//! Arithmetic is `i128` throughout: atom bounds are `i64`, so negated
//! bounds (`-w - 1`) and path sums (at most `nodes · max|w|`) stay far
//! from the `i128` range ends and never wrap.

use crate::inc_lra::LinearAtom;
use crate::theory::{TheoryCertificate, TheorySolver};
use crate::BigInt;
use std::collections::BTreeMap;

/// One registered atom, pre-compiled to difference form `x_p - x_q ⋈ w`
/// over graph nodes (`0` is the zero node, variable `i` is node `i + 1`).
#[derive(Clone, Copy, Debug)]
struct DlAtom {
    /// Node of the positively-signed variable.
    p: u32,
    /// Node of the negatively-signed variable (or the zero node).
    q: u32,
    /// The bound: `x_p - x_q ≤ w` (`= w` when `is_eq`).
    w: i64,
    is_eq: bool,
}

/// A directed constraint edge `tail → head` of weight `w`, encoding
/// `x_head - x_tail ≤ w`.
#[derive(Clone, Copy, Debug)]
struct Edge {
    tail: u32,
    head: u32,
    w: i128,
}

/// An assertion-trail entry: atom index and its polarity before the first
/// change inside the current frame.
type TrailEntry = (usize, Option<bool>);

/// Relaxation steps between cancellation polls during revalidation.
const POLL_STRIDE: u64 = 64;

/// The incremental difference-logic engine. See the module docs for the
/// algorithm; see [`TheorySolver`] for the interface contract.
#[derive(Clone, Debug)]
pub struct DifferenceLogic {
    /// Number of graph nodes (variables + 1 for the zero node).
    nodes: usize,
    atoms: Vec<DlAtom>,
    /// `asserted[atom] = Some(polarity)` mirrors the boolean assignment.
    asserted: Vec<Option<bool>>,
    /// Active bounds per ordered pair `(tail, head)`: weight → asserting
    /// atom ids (multiplicity = length). The effective edge has the
    /// smallest key; the last id under it is the justification.
    bounds: BTreeMap<(u32, u32), BTreeMap<i128, Vec<usize>>>,
    /// Outgoing adjacency: for each tail, the heads with at least one
    /// bound ever registered (kept sorted; pairs are only deactivated,
    /// never removed, so this is registration-stable).
    out: Vec<Vec<u32>>,
    /// Shortest-path potentials; feasible (`π(head) ≤ π(tail) + w` for
    /// every active effective edge) whenever `conflict` and `dirty` are
    /// both clear.
    pi: Vec<i128>,
    /// Latched conflict core from the last failed check.
    conflict: Option<Vec<usize>>,
    /// Kind tag of the latched conflict (for [`TheoryCertificate`]).
    conflict_kind: &'static str,
    /// Set when the potentials can no longer be trusted (an assert landed
    /// while a conflict was latched, or a retract may have resolved one):
    /// the next check runs a full Bellman–Ford revalidation.
    dirty: bool,
    /// Open trail frames for push/pop; each records the pre-frame polarity
    /// of every atom first touched inside it.
    frames: Vec<(u64, Vec<TrailEntry>)>,
    /// Monotone frame counter (frame ids are never reused, so stale stamps
    /// cannot alias a reopened frame).
    next_frame: u64,
    /// `stamp[atom]`: id of the frame that already recorded this atom.
    stamp: Vec<u64>,
    /// Lifetime count of successful label relaxations (potential
    /// improvements) across incremental repair and full revalidation — the
    /// engine's unit of search work for analytics.
    relaxations_total: u64,
}

impl DifferenceLogic {
    /// Builds the engine for `atoms` over variables `0..num_vars`.
    ///
    /// # Panics
    ///
    /// Panics if any atom lies outside the difference-logic fragment; gate
    /// construction on [`fits_dl`](crate::theory::fits_dl).
    pub fn new(num_vars: usize, atoms: &[LinearAtom]) -> DifferenceLogic {
        let mut dl = DifferenceLogic {
            nodes: num_vars + 1,
            atoms: Vec::with_capacity(atoms.len()),
            asserted: Vec::with_capacity(atoms.len()),
            bounds: BTreeMap::new(),
            out: vec![Vec::new(); num_vars + 1],
            pi: vec![0; num_vars + 1],
            conflict: None,
            conflict_kind: "neg-cycle",
            dirty: false,
            frames: Vec::new(),
            next_frame: 0,
            stamp: Vec::with_capacity(atoms.len()),
            relaxations_total: 0,
        };
        for atom in atoms {
            dl.try_add_atom(atom)
                .expect("atom outside the difference-logic fragment");
        }
        dl
    }

    /// Registers an atom, returning `None` (and registering nothing) when
    /// it does not fit the fragment or mentions an unregistered variable.
    pub fn try_add_atom(&mut self, atom: &LinearAtom) -> Option<usize> {
        let (coeffs, is_eq, rhs) = atom;
        let node = |v: usize| -> u32 { (v + 1) as u32 };
        let (p, q) = match coeffs.as_slice() {
            [(v, 1)] => (node(*v), 0),
            [(v, -1)] => (0, node(*v)),
            [(u, 1), (v, -1)] if u != v => (node(*u), node(*v)),
            [(u, -1), (v, 1)] if u != v => (node(*v), node(*u)),
            _ => return None,
        };
        if p.max(q) as usize >= self.nodes {
            return None;
        }
        self.atoms.push(DlAtom {
            p,
            q,
            w: *rhs,
            is_eq: *is_eq,
        });
        self.asserted.push(None);
        self.stamp.push(u64::MAX);
        Some(self.atoms.len() - 1)
    }

    /// The full integral model, in variable order. Only meaningful right
    /// after a successful [`check`](TheorySolver::check).
    pub fn model(&self) -> Vec<BigInt> {
        (0..self.nodes - 1)
            .map(|v| BigInt::from(self.pi[v + 1] - self.pi[0]))
            .collect()
    }

    /// Records `idx`'s pre-change polarity in the innermost open frame
    /// (first touch per frame only).
    fn note(&mut self, idx: usize) {
        if let Some((id, entries)) = self.frames.last_mut() {
            if self.stamp[idx] != *id {
                self.stamp[idx] = *id;
                entries.push((idx, self.asserted[idx]));
            }
        }
    }

    /// The edge constraints asserted by `(atom, polarity)`. Disequalities
    /// assert no edges (they are handled by shortest-path pin detection
    /// here and by disequality splitting in the full-model check).
    fn edges_of(atom: &DlAtom, polarity: bool) -> [Option<Edge>; 2] {
        let (p, q, w) = (atom.p, atom.q, atom.w as i128);
        let fwd = Edge {
            tail: q,
            head: p,
            w,
        };
        match (atom.is_eq, polarity) {
            (false, true) => [Some(fwd), None],
            // ¬(e ≤ w) ⇔ e ≥ w + 1 ⇔ -e ≤ -w - 1 over the integers.
            (false, false) => [
                Some(Edge {
                    tail: p,
                    head: q,
                    w: -w - 1,
                }),
                None,
            ],
            (true, true) => [
                Some(fwd),
                Some(Edge {
                    tail: p,
                    head: q,
                    w: -w,
                }),
            ],
            (true, false) => [None, None],
        }
    }

    /// The effective (tightest) weight and justifying atom of the edge
    /// `tail → head`, if any bound on it is active.
    fn effective(&self, tail: u32, head: u32) -> Option<(i128, usize)> {
        let cell = self.bounds.get(&(tail, head))?;
        let (&w, ids) = cell.iter().next()?;
        Some((w, *ids.last().expect("non-empty bound cell")))
    }

    /// Activates one edge bound, justifed by `atom_idx`; propagates
    /// incrementally when it tightens the effective edge.
    fn add_edge(&mut self, e: Edge, atom_idx: usize) {
        let cell = self.bounds.entry((e.tail, e.head)).or_default();
        let was_effective = cell.keys().next().copied();
        cell.entry(e.w).or_default().push(atom_idx);
        let adj = &mut self.out[e.tail as usize];
        if let Err(pos) = adj.binary_search(&e.head) {
            adj.insert(pos, e.head);
        }
        if self.conflict.is_some() || self.dirty {
            // Cannot propagate from an untrusted base; revalidate lazily.
            self.dirty = true;
            return;
        }
        if was_effective.is_some_and(|prev| prev <= e.w) {
            return; // not the new tightest bound: nothing changed
        }
        if let Err(core) = self.relax_from(e, atom_idx) {
            self.conflict = Some(core);
            self.conflict_kind = "neg-cycle";
        }
    }

    /// Deactivates one edge bound. Pure loosening: the potentials stay
    /// feasible, so no propagation is needed; a latched conflict may have
    /// been resolved, so it is cleared and the engine marked dirty.
    fn remove_edge(&mut self, e: Edge, atom_idx: usize) {
        if let Some(cell) = self.bounds.get_mut(&(e.tail, e.head)) {
            if let Some(ids) = cell.get_mut(&e.w) {
                if let Some(pos) = ids.iter().position(|&a| a == atom_idx) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    cell.remove(&e.w);
                }
            }
        }
        if self.conflict.take().is_some() {
            self.dirty = true;
        }
    }

    /// Incremental propagation after tightening `e` (Cotton–Maler). On
    /// success the potentials are repaired in place; on a negative cycle
    /// its justifying atoms are returned and the potentials are left stale
    /// (the caller latches the conflict; the next check after a retraction
    /// revalidates from scratch).
    fn relax_from(&mut self, e: Edge, atom_idx: usize) -> Result<(), Vec<usize>> {
        if self.pi[e.tail as usize] + e.w >= self.pi[e.head as usize] {
            return Ok(()); // already satisfied by the current potentials
        }
        // parent[n] = (predecessor, justifying atom) of the relaxation
        // that last improved n, for cycle extraction.
        let mut parent: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
        self.pi[e.head as usize] = self.pi[e.tail as usize] + e.w;
        self.relaxations_total += 1;
        parent.insert(e.head, (e.tail, atom_idx));
        let mut queue: Vec<u32> = vec![e.head];
        // Cotton–Maler relaxation: with a feasible base, every improvement
        // chain either dies out (the rest of the graph has no negative
        // cycle) or wraps to the new edge's tail, detected on pop.
        // synthlint: allow(unpolled-loop) — terminates by the Cotton–Maler argument above; budget polling happens in recompute, the slow path
        while let Some(n) = queue.pop() {
            if n == e.tail {
                // The wave wrapped around to the new edge's tail: a
                // negative cycle through `e`.
                return Err(trace_core(&parent, e.tail, Some(e.head), atom_idx));
            }
            let heads: Vec<u32> = self.out[n as usize].clone();
            for h in heads {
                let Some((we, ja)) = self.effective(n, h) else {
                    continue;
                };
                let cand = self.pi[n as usize] + we;
                if cand < self.pi[h as usize] {
                    self.pi[h as usize] = cand;
                    self.relaxations_total += 1;
                    parent.insert(h, (n, ja));
                    queue.push(h);
                }
            }
        }
        Ok(())
    }

    /// Detects the disequality conflicts visible without splitting: an
    /// asserted `x_p - x_q ≠ w` that the active bounds pin to exactly `w`,
    /// i.e. whose shortest paths give `d(q→p) = w` and `d(p→q) = -w`. The
    /// core is the disequality plus the justifying atom of every edge on
    /// both paths. Requires feasible potentials (no latched conflict, not
    /// dirty).
    ///
    /// The paths are searched with Dijkstra on reduced costs
    /// `π(tail) + w - π(head) ≥ 0`, stopped once the reduced distance
    /// exceeds the pinning value. Since `d(q→p) ≥ π(p) - π(q)` and
    /// `d(p→q) ≥ π(q) - π(p)`, a pin forces `π(p) - π(q) = w`: only
    /// disequalities the current model violates can be pinned, and for
    /// them the stopping value is zero on both sides. Dijkstra then only
    /// ever settles zero-reduced-cost (*tight*) edges, so the search is a
    /// plain reachability walk over those.
    fn pinned_diseq(&self) -> Option<Vec<usize>> {
        for (idx, atom) in self.atoms.iter().enumerate() {
            if self.asserted[idx] != Some(false) || !atom.is_eq {
                continue;
            }
            let (p, q) = (atom.p, atom.q);
            if self.pi[p as usize] - self.pi[q as usize] != atom.w as i128 {
                continue; // the model already satisfies the disequality
            }
            let Some(up) = self.tight_path(q, p) else {
                continue;
            };
            let Some(lo) = self.tight_path(p, q) else {
                continue;
            };
            let mut core = vec![idx];
            for a in up.into_iter().chain(lo) {
                if !core.contains(&a) {
                    core.push(a);
                }
            }
            return Some(core);
        }
        None
    }

    /// The justifying atoms of a path `from → … → to` made only of tight
    /// active effective edges (`π(tail) + w = π(head)`), found by
    /// breadth-first search; `None` when `to` is unreachable that way.
    fn tight_path(&self, from: u32, to: u32) -> Option<Vec<usize>> {
        // parent[n] = (predecessor, justifying atom) of the edge that
        // first reached n.
        let mut parent: Vec<Option<(u32, usize)>> = vec![None; self.nodes];
        let mut queue = std::collections::VecDeque::from([from]);
        // synthlint: allow(unpolled-loop) — each node is enqueued at most once (the parent check below), so the walk is bounded by the node count
        while let Some(n) = queue.pop_front() {
            for &h in &self.out[n as usize] {
                if h == from || parent[h as usize].is_some() {
                    continue;
                }
                let Some((w, ja)) = self.effective(n, h) else {
                    continue;
                };
                if self.pi[n as usize] + w != self.pi[h as usize] {
                    continue; // slack edge: positive reduced cost
                }
                parent[h as usize] = Some((n, ja));
                if h == to {
                    let mut atoms = Vec::new();
                    let mut m = to;
                    // synthlint: allow(unpolled-loop) — walks the BFS tree back to its root, at most one hop per node
                    while m != from {
                        let (prev, a) = parent[m as usize].expect("BFS tree edge");
                        atoms.push(a);
                        m = prev;
                    }
                    return Some(atoms);
                }
                queue.push_back(h);
            }
        }
        None
    }

    /// Full Bellman–Ford revalidation over all active effective edges,
    /// restarting the potentials from zero (which also keeps their
    /// magnitude bounded by `nodes · max|w|`). Returns `None` when
    /// `max_steps` or `poll` ran out mid-pass, leaving the engine dirty.
    fn recompute(
        &mut self,
        max_steps: u64,
        poll: &mut dyn FnMut() -> bool,
    ) -> Option<Result<(), Vec<usize>>> {
        self.pi.iter_mut().for_each(|p| *p = 0);
        let edges: Vec<(Edge, usize)> = self
            .bounds
            .iter()
            .filter_map(|(&(tail, head), cell)| {
                cell.iter().next().map(|(&w, ids)| {
                    (
                        Edge { tail, head, w },
                        *ids.last().expect("non-empty bound cell"),
                    )
                })
            })
            .collect();
        let mut steps: u64 = 0;
        let mut parent: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
        // Bellman–Ford with an implicit virtual source (the all-zero
        // start): `nodes` full passes settle every improvement unless a
        // negative cycle exists, which a further improving pass witnesses.
        for round in 0..=self.nodes {
            let mut improved: Option<u32> = None;
            for &(e, atom) in &edges {
                steps += 1;
                if steps.is_multiple_of(POLL_STRIDE) && (!poll() || steps > max_steps) {
                    self.dirty = true; // pass incomplete: stay untrusted
                    return None;
                }
                let cand = self.pi[e.tail as usize] + e.w;
                if cand < self.pi[e.head as usize] {
                    self.pi[e.head as usize] = cand;
                    self.relaxations_total += 1;
                    parent.insert(e.head, (e.tail, atom));
                    improved = Some(e.head);
                }
            }
            match improved {
                None => return Some(Ok(())),
                Some(witness) if round == self.nodes => {
                    // An improvement after `nodes` settled passes proves a
                    // negative cycle somewhere in the parent graph.
                    let core = trace_core(&parent, witness, None, usize::MAX);
                    let core = if core.is_empty() {
                        // Extraction found no closed cycle from this
                        // witness (possible only in degenerate parent
                        // states); fall back to the full active edge set,
                        // which provably contains the cycle.
                        edges.iter().map(|&(_, a)| a).collect()
                    } else {
                        core
                    };
                    return Some(Err(core));
                }
                Some(_) => {}
            }
        }
        unreachable!("the final round either settles or witnesses a cycle")
    }

    /// Deactivates `idx`'s edges and clears its polarity (callers manage
    /// the trail; this is the raw state change shared by retract and pop).
    fn apply_retract(&mut self, idx: usize) {
        let Some(polarity) = self.asserted[idx].take() else {
            return;
        };
        let atom = self.atoms[idx];
        for edge in Self::edges_of(&atom, polarity).into_iter().flatten() {
            self.remove_edge(edge, idx);
        }
        // Disequalities assert no edges, so `remove_edge` never sees them;
        // clear a latched pinned-diseq conflict here instead.
        if atom.is_eq && !polarity && self.conflict.take().is_some() {
            self.dirty = true;
        }
    }

    /// Asserts `idx` at `polarity` without recording a trail entry (shared
    /// by the public assert and pop's replay).
    fn apply_assert(&mut self, idx: usize, polarity: bool) {
        if self.asserted[idx].is_some() {
            self.apply_retract(idx);
        }
        self.asserted[idx] = Some(polarity);
        let atom = self.atoms[idx];
        for edge in Self::edges_of(&atom, polarity).into_iter().flatten() {
            self.add_edge(edge, idx);
        }
        // A freshly asserted disequality can be conflicting immediately if
        // the current bounds already pin it; detection is deferred to the
        // next `check`, which always re-derives pins from the bound maps.
    }
}

/// Walks the parent map from `start`, collecting justifying atoms. Stops
/// with success when `stop` is reached (adding `extra` to close the cycle
/// through the newly added edge), or when a node repeats (a parent-graph
/// cycle, itself a negative cycle — the standard Bellman–Ford argument).
/// Returns an empty vector if the chain dead-ends first.
fn trace_core(
    parent: &BTreeMap<u32, (u32, usize)>,
    start: u32,
    stop: Option<u32>,
    extra: usize,
) -> Vec<usize> {
    let mut seen: Vec<u32> = vec![start];
    let mut hops: Vec<usize> = Vec::new();
    let mut n = start;
    // synthlint: allow(unpolled-loop) — each iteration visits a distinct node (the repeat check below fires otherwise), so the walk is bounded by the node count
    loop {
        let Some(&(prev, atom)) = parent.get(&n) else {
            return Vec::new(); // dead end: no closed cycle via this chain
        };
        hops.push(atom);
        n = prev;
        if stop == Some(n) {
            let mut core = hops;
            if extra != usize::MAX && !core.contains(&extra) {
                core.push(extra);
            }
            core.dedup();
            return core;
        }
        if let Some(i) = seen.iter().position(|&m| m == n) {
            // Nodes seen[i..] form a cycle; its edge atoms are the hops
            // taken since first visiting seen[i].
            let mut core: Vec<usize> = hops[i..].to_vec();
            core.sort_unstable();
            core.dedup();
            return core;
        }
        seen.push(n);
    }
}

impl TheorySolver for DifferenceLogic {
    fn name(&self) -> &'static str {
        "dl"
    }

    fn add_var(&mut self) -> usize {
        self.nodes += 1;
        self.pi.push(0);
        self.out.push(Vec::new());
        self.nodes - 2 // dense variable index (node id minus the zero node)
    }

    fn num_vars(&self) -> usize {
        self.nodes - 1
    }

    fn add_atom(&mut self, atom: &LinearAtom) -> Option<usize> {
        self.try_add_atom(atom)
    }

    fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    fn assert_atom(&mut self, idx: usize, polarity: bool) {
        if self.asserted[idx] == Some(polarity) {
            return;
        }
        self.note(idx);
        self.apply_assert(idx, polarity);
    }

    fn retract_atom(&mut self, idx: usize) {
        if self.asserted[idx].is_none() {
            return;
        }
        self.note(idx);
        self.apply_retract(idx);
    }

    fn polarity(&self, idx: usize) -> Option<bool> {
        self.asserted[idx]
    }

    fn push(&mut self) {
        let id = self.next_frame;
        self.next_frame += 1;
        self.frames.push((id, Vec::new()));
    }

    fn pop(&mut self) {
        let Some((_, entries)) = self.frames.pop() else {
            return;
        };
        for (idx, prev) in entries.into_iter().rev() {
            // Replay without noting: the enclosing frame's view of these
            // atoms (recorded before the popped frame opened, if it
            // touched them at all) is already correct.
            match prev {
                Some(pol) => {
                    if self.asserted[idx] != Some(pol) {
                        self.apply_assert(idx, pol);
                    }
                }
                None => self.apply_retract(idx),
            }
        }
    }

    fn check(
        &mut self,
        max_steps: u64,
        poll: &mut dyn FnMut() -> bool,
    ) -> Option<Result<(), Vec<usize>>> {
        if let Some(core) = &self.conflict {
            return Some(Err(core.clone()));
        }
        if self.dirty {
            match self.recompute(max_steps, poll)? {
                Ok(()) => self.dirty = false,
                Err(core) => {
                    self.conflict = Some(core.clone());
                    self.conflict_kind = "neg-cycle";
                    return Some(Err(core));
                }
            }
        }
        if let Some(core) = self.pinned_diseq() {
            self.conflict = Some(core.clone());
            self.conflict_kind = "pinned-diseq";
            return Some(Err(core));
        }
        Some(Ok(()))
    }

    fn explain_conflict(&self) -> Option<TheoryCertificate> {
        self.conflict.as_ref().map(|atoms| TheoryCertificate {
            kind: self.conflict_kind,
            atoms: atoms.clone(),
        })
    }

    fn search_work(&self) -> u64 {
        self.relaxations_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unlimited(dl: &mut DifferenceLogic) -> Result<(), Vec<usize>> {
        dl.check(u64::MAX, &mut || true)
            .expect("unlimited check cannot give up")
    }

    /// x - y ≤ -1 (x < y), y - z ≤ -1, z - x ≤ -1: a classic 3-cycle.
    #[test]
    fn three_cycle_conflict() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], false, -1),
            (vec![(1, 1), (2, -1)], false, -1),
            (vec![(2, 1), (0, -1)], false, -1),
        ];
        let mut dl = DifferenceLogic::new(3, &atoms);
        dl.assert_atom(0, true);
        dl.assert_atom(1, true);
        assert!(unlimited(&mut dl).is_ok());
        dl.assert_atom(2, true);
        let core = unlimited(&mut dl).expect_err("negative 3-cycle");
        let mut sorted = core.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "core must cite the whole cycle");
        let cert = dl.explain_conflict().expect("latched certificate");
        assert_eq!(cert.kind, "neg-cycle");
        // Retracting any cycle edge restores feasibility.
        dl.retract_atom(1);
        assert!(unlimited(&mut dl).is_ok());
    }

    /// Zero-weight cycles (x ≤ y ∧ y ≤ x) are satisfiable — equality, not
    /// conflict — and the model must realize it.
    #[test]
    fn zero_weight_cycle_is_sat() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], false, 0),
            (vec![(1, 1), (0, -1)], false, 0),
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        dl.assert_atom(0, true);
        dl.assert_atom(1, true);
        assert!(unlimited(&mut dl).is_ok());
        let m = dl.model();
        assert_eq!(m[0], m[1], "x = y is forced by the zero cycle");
    }

    /// Strict vs non-strict: over the integers `¬(e ≤ 0)` is `e ≥ 1`, not
    /// `e ≥ 0`. Both atoms negated (`x > y ∧ y > x`) must conflict, while
    /// both asserted (`x ≤ y ∧ y ≤ x`) is satisfiable — a naive non-strict
    /// negation would wrongly accept the former.
    #[test]
    fn strict_negation_semantics() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], false, 0),  // x - y <= 0
            (vec![(1, 1), (0, -1)], false, 0),  // y - x <= 0
            (vec![(1, 1), (0, -1)], false, -1), // y - x <= -1 (y < x)
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        dl.assert_atom(0, false); // x ≥ y + 1
        dl.assert_atom(1, false); // y ≥ x + 1
        let core = unlimited(&mut dl).expect_err("x > y and y > x");
        assert_eq!(core.len(), 2);
        // Flip to the non-strict polarities: x ≤ y and y ≤ x is sat.
        dl.assert_atom(0, true);
        dl.assert_atom(1, true);
        assert!(unlimited(&mut dl).is_ok());
        assert_eq!(dl.model()[0], dl.model()[1]);
        // Mixed strict/non-strict: x ≤ y together with y < x conflicts
        // (weights 0 and -1 sum to a negative cycle).
        dl.assert_atom(2, true);
        let core = unlimited(&mut dl).expect_err("x <= y and y < x");
        assert!(core.contains(&2));
    }

    /// Unary bounds route through the zero node: x ≤ 3 ∧ x ≥ 5 conflicts,
    /// and the model respects one-sided bounds exactly.
    #[test]
    fn unary_bounds_via_zero_node() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1)], false, 3),  // x <= 3
            (vec![(0, -1)], false, -5), // -x <= -5, i.e. x >= 5
        ];
        let mut dl = DifferenceLogic::new(1, &atoms);
        dl.assert_atom(0, true);
        assert!(unlimited(&mut dl).is_ok());
        assert!(dl.model()[0] <= BigInt::from(3));
        dl.assert_atom(1, true);
        let core = unlimited(&mut dl).expect_err("x <= 3 and x >= 5");
        let mut sorted = core;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        dl.retract_atom(0);
        assert!(unlimited(&mut dl).is_ok());
        assert!(dl.model()[0] >= BigInt::from(5));
    }

    /// Equality asserts both directions; its negation participates via
    /// pinned-bounds detection.
    #[test]
    fn equality_and_pinned_disequality() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], true, 4), // x - y = 4
            (vec![(0, 1), (1, -1)], false, 4), // x - y <= 4
            (vec![(1, 1), (0, -1)], false, -4), // y - x <= -4 (x - y >= 4)
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        dl.assert_atom(0, true);
        assert!(unlimited(&mut dl).is_ok());
        let m = dl.model();
        assert_eq!(&m[0] - &m[1], BigInt::from(4));
        dl.retract_atom(0);
        // Pin x - y to 4 through bounds, then assert the disequality.
        dl.assert_atom(1, true);
        dl.assert_atom(2, true);
        assert!(unlimited(&mut dl).is_ok());
        dl.assert_atom(0, false); // x - y ≠ 4
        let core = unlimited(&mut dl).expect_err("pinned disequality");
        let mut sorted = core;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(dl.explain_conflict().expect("latched").kind, "pinned-diseq");
        dl.retract_atom(2);
        assert!(unlimited(&mut dl).is_ok());
    }

    /// Sorted copy of a core, for order-insensitive comparison.
    fn sorted(mut core: Vec<usize>) -> Vec<usize> {
        core.sort_unstable();
        core
    }

    /// `x = y ∧ y = z` pins `x - z` to 0 through the variable chain, with
    /// no single edge between `x` and `z`. The core is exactly the path
    /// atoms plus the disequality, slack and unrelated atoms excluded, and
    /// the certificate cites the same atoms.
    #[test]
    fn disequality_pinned_through_a_chain() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], true, 0),  // x - y = 0
            (vec![(1, 1), (2, -1)], true, 0),  // y - z = 0
            (vec![(0, 1), (2, -1)], true, 0),  // x - z = 0 (asserted ≠)
            (vec![(0, 1), (2, -1)], false, 9), // x - z <= 9: slack
            (vec![(3, 1)], false, 5),          // w <= 5: unrelated
        ];
        let mut dl = DifferenceLogic::new(4, &atoms);
        for i in [0, 1, 3, 4] {
            dl.assert_atom(i, true);
        }
        assert!(unlimited(&mut dl).is_ok());
        dl.assert_atom(2, false);
        let core = unlimited(&mut dl).expect_err("x = y = z pins x - z");
        assert_eq!(core[0], 2, "the disequality leads the core");
        assert_eq!(sorted(core.clone()), vec![0, 1, 2]);
        let cert = dl.explain_conflict().expect("latched certificate");
        assert_eq!(cert.kind, "pinned-diseq");
        assert_eq!(cert.atoms, core);
        // Retracting one path edge clears the conflict.
        dl.retract_atom(1);
        assert!(unlimited(&mut dl).is_ok());
        assert!(dl.explain_conflict().is_none());
    }

    /// Unary pins route the path through the zero node: `x = 2 ∧ y = 1`
    /// pins `x - y` to 1.
    #[test]
    fn disequality_pinned_through_the_zero_node() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1)], true, 2),          // x = 2
            (vec![(1, 1)], true, 1),          // y = 1
            (vec![(0, 1), (1, -1)], true, 1), // x - y = 1 (asserted ≠)
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        dl.assert_atom(2, false);
        dl.assert_atom(0, true);
        assert!(unlimited(&mut dl).is_ok());
        dl.assert_atom(1, true);
        let core = unlimited(&mut dl).expect_err("x = 2, y = 1 pin x - y");
        assert_eq!(sorted(core.clone()), vec![0, 1, 2]);
        assert_eq!(dl.explain_conflict().expect("latched").atoms, core);
        dl.retract_atom(0);
        assert!(unlimited(&mut dl).is_ok());
    }

    /// Bounds that pin only one side, or disequalities that are only
    /// jointly infeasible, are not pins: the engine answers consistent
    /// and leaves them to the solver's full-model check.
    #[test]
    fn unpinned_disequalities_stay_consistent() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], false, 1), // x - y <= 1
            (vec![(1, 1), (0, -1)], false, 0), // y - x <= 0
            (vec![(0, 1), (1, -1)], true, 0),  // x - y = 0 (asserted ≠)
            (vec![(0, 1), (1, -1)], true, 1),  // x - y = 1 (asserted ≠)
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        for i in 0..2 {
            dl.assert_atom(i, true);
        }
        dl.assert_atom(2, false);
        assert!(unlimited(&mut dl).is_ok(), "x - y ∈ [0, 1] allows 1");
        dl.assert_atom(3, false);
        assert!(
            unlimited(&mut dl).is_ok(),
            "joint infeasibility is not a pin"
        );
    }

    /// A pin inside a frame is undone by `pop`, which restores every
    /// polarity and the consistent verdict.
    #[test]
    fn push_pop_around_a_path_pin() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], false, 3),  // x - y <= 3
            (vec![(1, 1), (2, -1)], false, 4),  // y - z <= 4
            (vec![(2, 1), (0, -1)], false, -7), // z - x <= -7
            (vec![(0, 1), (2, -1)], true, 7),   // x - z = 7 (asserted ≠)
        ];
        let mut dl = DifferenceLogic::new(3, &atoms);
        dl.assert_atom(0, true);
        dl.assert_atom(1, true);
        dl.assert_atom(3, false);
        assert!(unlimited(&mut dl).is_ok());
        let before: Vec<Option<bool>> = (0..4).map(|i| dl.polarity(i)).collect();
        dl.push();
        dl.assert_atom(2, true); // x - z >= 7 closes the pin
        let core = unlimited(&mut dl).expect_err("x - z pinned to 7");
        assert_eq!(sorted(core), vec![0, 1, 2, 3]);
        dl.pop();
        let after: Vec<Option<bool>> = (0..4).map(|i| dl.polarity(i)).collect();
        assert_eq!(after, before);
        assert!(unlimited(&mut dl).is_ok());
        assert!(dl.explain_conflict().is_none());
        // Re-entering the frame reproduces the same conflict.
        dl.push();
        dl.assert_atom(2, true);
        assert!(unlimited(&mut dl).is_err());
        dl.pop();
        assert!(unlimited(&mut dl).is_ok());
    }

    /// Push/pop must restore the exact assertion state, including across
    /// polarity flips and conflicts inside the frame.
    #[test]
    fn push_pop_restores_exact_state() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1), (1, -1)], false, -1), // x - y <= -1
            (vec![(1, 1), (0, -1)], false, -1), // y - x <= -1
            (vec![(0, 1)], false, 10),          // x <= 10
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        dl.assert_atom(0, true);
        dl.assert_atom(2, true);
        assert!(unlimited(&mut dl).is_ok());
        dl.push();
        dl.assert_atom(1, true); // completes the negative cycle
        dl.assert_atom(2, false); // and flips x <= 10 to x >= 11
        assert!(unlimited(&mut dl).is_err());
        dl.pop();
        assert_eq!(dl.polarity(0), Some(true));
        assert_eq!(dl.polarity(1), None);
        assert_eq!(dl.polarity(2), Some(true));
        assert!(unlimited(&mut dl).is_ok());
        assert!(dl.model()[0] <= BigInt::from(10));
        // Nested frames unwind independently.
        dl.push();
        dl.retract_atom(0);
        dl.push();
        dl.assert_atom(1, true);
        dl.pop();
        assert_eq!(dl.polarity(1), None);
        assert_eq!(dl.polarity(0), None);
        dl.pop();
        assert_eq!(dl.polarity(0), Some(true));
        assert!(unlimited(&mut dl).is_ok());
    }

    /// The budget surfaces as `None` and leaves the engine re-checkable.
    #[test]
    fn budget_exhaustion_is_recoverable() {
        let n = 40usize;
        let mut atoms: Vec<LinearAtom> = Vec::new();
        for i in 0..n - 1 {
            atoms.push((vec![(i, 1), (i + 1, -1)], false, -1)); // x_i < x_{i+1}
        }
        atoms.push((vec![(n - 1, 1), (0, -1)], false, -1)); // wrap: negative cycle
        let mut dl = DifferenceLogic::new(n, &atoms);
        for i in 0..atoms.len() {
            dl.assert_atom(i, true);
        }
        // Force the full revalidation path with a tiny budget.
        dl.dirty = true;
        dl.conflict = None;
        assert_eq!(dl.check(1, &mut || true), None, "budget must bite");
        let verdict = dl.check(u64::MAX, &mut || true).expect("budget is ample");
        assert!(verdict.is_err(), "the wrapped chain is a negative cycle");
    }

    /// Extreme bounds exercise the i128 arithmetic (negating i64::MIN-ish
    /// weights and long path sums must not wrap).
    #[test]
    fn extreme_weights_do_not_overflow() {
        let atoms: Vec<LinearAtom> = vec![
            (vec![(0, 1)], false, i64::MIN),      // x <= i64::MIN
            (vec![(0, -1)], false, i64::MIN),     // -x <= i64::MIN: x >= -i64::MIN
            (vec![(0, 1), (1, -1)], true, i64::MAX), // x - y = i64::MAX
        ];
        let mut dl = DifferenceLogic::new(2, &atoms);
        dl.assert_atom(0, true);
        dl.assert_atom(2, true);
        assert!(unlimited(&mut dl).is_ok());
        let m = dl.model();
        assert_eq!(&m[0] - &m[1], BigInt::from(i64::MAX));
        assert!(m[0] <= BigInt::from(i64::MIN));
        // x ≥ 2^63 (as -x ≤ i64::MIN) against x ≤ i64::MIN: conflict.
        dl.assert_atom(1, true);
        assert!(unlimited(&mut dl).is_err());
    }
}
