//! The embedding search: filtered depth-limited search (FDLS).
//!
//! EDM transplants a mapped circuit onto alternative qubit subsets by
//! enumerating embeddings of the circuit's interaction graph into the device
//! coupling graph (§5.2 of the paper, which uses the VF2 algorithm of
//! Cordella et al.). This module implements that enumeration from scratch:
//! a backtracking search ordered so that each pattern vertex (after the
//! first of its component) is matched adjacent to already matched vertices.
//! The match is *non-induced*: every pattern edge must map to a target edge,
//! but extra target edges between mapped vertices are allowed — exactly
//! what qubit mapping needs.
//!
//! Exhaustive enumeration explodes on the 27/65/127-qubit heavy-hex
//! presets: their long degree-2 chains admit astronomically many embeddings
//! of even a small footprint. Following the approach of Li, Zhou & Feng
//! (*Qubit Mapping Based on Subgraph Isomorphism and Filtered Depth-Limited
//! Search*), the search keeps useful at that scale with three mechanisms:
//!
//! 1. **Candidate filtering** — each pattern vertex is restricted up front
//!    to target qubits whose degree *and* sorted neighbor-degree signature
//!    dominate the pattern vertex's. No embedding lies below a filtered-out
//!    candidate, so the filter never changes which embeddings are found or
//!    their order; it only spares the search the dead branches.
//! 2. **Depth-limited backtracking** — under one root placement, once the
//!    search retreats more than [`FdlsConfig::backtrack_depth`] levels below
//!    the deepest point it reached, the root is abandoned: near-duplicate
//!    local permutations are skipped in favor of the next root, which
//!    spreads the returned embeddings across the device — exactly the
//!    footprint diversity EDM's top-K selection wants.
//! 3. **Node-expansion budgets** — a global [`FdlsConfig::node_budget`] and
//!    a per-root [`FdlsConfig::root_budget`] bound the work regardless of
//!    how adversarial the instance is.
//!
//! Every early exit is reported through [`SearchOutcome::Truncated`].
//! [`FdlsConfig::exhaustive`] disables the limits of 2 and 3, and the
//! search then enumerates every embedding: that is the paper's exhaustive
//! enumeration, which [`crate::mapper::MapperSelection::Exhaustive`] runs.
//! A budgeted search walks the same tree in the same order and only skips
//! parts of it, so its embeddings are a subsequence of the exhaustive ones.
//!
//! The search is deterministic: the matching order is fixed, roots and
//! candidates are visited in ascending target-qubit id, and no randomness
//! is involved — the same inputs always produce the same embedding
//! sequence.
//!
//! # Examples
//!
//! ```
//! use qdevice::fdls::FdlsConfig;
//! use qdevice::mapper::{self, MapperSelection};
//! use qdevice::presets;
//! // A 10-qubit path footprint on the 127-qubit Eagle lattice: exhaustive
//! // enumeration would be enormous; FDLS returns a budgeted, diverse set.
//! let pattern = presets::line(10);
//! let target = presets::eagle127();
//! let filtered = MapperSelection::Filtered(FdlsConfig::default());
//! let set = mapper::enumerate_embeddings(&pattern, &target, 64, filtered);
//! assert!(set.embeddings.len() >= 5);
//! ```

use crate::mapper::{SearchOutcome, Weights};
use crate::Topology;

/// Budgets for one filtered depth-limited search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdlsConfig {
    /// Total search-tree node expansions before the search stops (and
    /// reports [`SearchOutcome::Truncated`]).
    pub node_budget: u64,
    /// Node expansions under a single root placement before rotating to
    /// the next root.
    pub root_budget: u64,
    /// How many levels the search may retreat below the deepest point
    /// reached under a root before that root is abandoned.
    pub backtrack_depth: u32,
}

impl Default for FdlsConfig {
    /// Budgets sized for interactive use on a 127-qubit device: a couple
    /// hundred thousand expansions total, ten thousand per root — enough
    /// for dozens of distinct roots to contribute embeddings.
    fn default() -> Self {
        FdlsConfig {
            node_budget: 200_000,
            root_budget: 10_000,
            backtrack_depth: 8,
        }
    }
}

impl FdlsConfig {
    /// No budgets at all: the search visits the entire tree and hands over
    /// every embedding, in the one enumeration order every budgeted search
    /// follows too. [`crate::mapper::MapperSelection::Exhaustive`] runs
    /// the search with these budgets.
    pub fn exhaustive() -> Self {
        FdlsConfig {
            node_budget: u64::MAX,
            root_budget: u64::MAX,
            backtrack_depth: u32::MAX,
        }
    }
}

/// Hands each embedding of `pattern` into `target` under `config` to
/// `visit` with its running product of `weights`, in search order:
/// injective, non-induced (every pattern edge maps to a target edge; extra
/// target edges are fine), isolated pattern vertices land on any unused
/// target qubit, and an empty pattern yields one empty embedding.
///
/// `visit` sees at most `max_results` embeddings. The search runs one
/// embedding past the cap: the `(max_results + 1)`-th embedding is never
/// visited, it only marks the outcome [`SearchOutcome::Truncated`], so a
/// pool of exactly `max_results` embeddings is still
/// [`SearchOutcome::Complete`].
///
/// `visit` returns the cut. With no budgets and no result cap (nothing
/// counts the embeddings below a placement) a placement whose running
/// product falls below the last cut is not extended. Returns the outcome,
/// the number of embeddings visited and the number of placements cut.
pub(crate) fn search<W: Weights>(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    config: &FdlsConfig,
    weights: &W,
    mut visit: impl FnMut(&[u32], f64) -> f64,
) -> (SearchOutcome, usize, u64) {
    let pn = pattern.num_qubits() as usize;
    let tn = target.num_qubits() as usize;
    if pn == 0 {
        if max_results == 0 {
            return (SearchOutcome::Complete, 0, 0);
        }
        visit(&[], 1.0);
        return (SearchOutcome::Complete, 1, 0);
    }
    if pn > tn {
        return (SearchOutcome::Complete, 0, 0);
    }

    // Stage 1: candidate filtering. A target qubit can host a pattern
    // vertex only if its neighbor-degree signature dominates the vertex's
    // (sorted greedy matching — necessary for any injective neighbor
    // assignment, and it subsumes the plain degree check).
    let p_sig = degree_signatures(pattern);
    let t_sig = degree_signatures(target);
    let mut cand_list: Vec<Vec<u32>> = Vec::with_capacity(pn);
    let mut cand_mask: Vec<Vec<bool>> = Vec::with_capacity(pn);
    for sig in p_sig.iter().take(pn) {
        let mut mask = vec![false; tn];
        let mut list = Vec::new();
        for t in 0..tn {
            if dominates(&t_sig[t], sig) {
                mask[t] = true;
                list.push(t as u32);
            }
        }
        if list.is_empty() {
            // Some pattern vertex has no viable host: no embedding exists,
            // and the filter proved it without any search.
            return (SearchOutcome::Complete, 0, 0);
        }
        cand_list.push(list);
        cand_mask.push(mask);
    }

    // Search one past the cap: finding max_results + 1 embeddings proves
    // the cap actually clipped the pool.
    let order = matching_order(pattern);
    let (pattern_adj, target_adj) = (Adjacency::new(pattern), Adjacency::new(target));
    let mut s = Search {
        pattern: &pattern_adj,
        target: &target_adj,
        order: &order,
        cand_list: &cand_list,
        cand_mask: &cand_mask,
        mapping: vec![u32::MAX; pn],
        used: vec![false; tn],
        visit,
        weights,
        // Only an unbudgeted, uncapped search may skip embeddings: a
        // budget or a cap would still count the skipped ones.
        prunes: max_results == usize::MAX && *config == FdlsConfig::exhaustive(),
        cut: 0.0,
        pruned: 0,
        found: 0,
        max_results,
        limit: max_results.saturating_add(1),
        expansions: 0,
        budget_end: 0,
        deepest: 0,
        config: *config,
        stop: false,
        abandon: false,
        truncated: false,
    };

    let root_v = order[0];
    for &root in &cand_list[root_v as usize] {
        s.budget_end = config
            .node_budget
            .min(s.expansions.saturating_add(config.root_budget));
        s.deepest = 0;
        s.abandon = false;
        // A stop ends the search; an abandoned root (root budget or
        // backtrack limit) merely rotates to the next root.
        if !s.place(0, root_v, root, 1.0) && s.stop {
            break;
        }
    }

    let outcome = if s.truncated {
        SearchOutcome::Truncated {
            explored: s.expansions,
        }
    } else {
        SearchOutcome::Complete
    };
    (outcome, s.found.min(max_results), s.pruned)
}

/// Computes a matching order: vertices sorted so that every vertex after the
/// first of its connected component has at least one earlier neighbor.
/// Components are visited by descending maximum degree, which narrows the
/// candidate sets early.
fn matching_order(pattern: &Topology) -> Vec<u32> {
    let n = pattern.num_qubits();
    let mut order = Vec::with_capacity(n as usize);
    let mut placed = vec![false; n as usize];
    loop {
        // Pick the highest-degree unplaced vertex as the next component seed.
        let seed = (0..n)
            .filter(|&v| !placed[v as usize])
            .max_by_key(|&v| pattern.degree(v));
        let Some(seed) = seed else { break };
        // Grow the component greedily: always add the unplaced vertex with
        // the most already-placed neighbors (ties broken by degree).
        placed[seed as usize] = true;
        order.push(seed);
        loop {
            let next = (0..n)
                .filter(|&v| !placed[v as usize])
                .map(|v| {
                    let placed_neighbors = pattern
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| placed[u as usize])
                        .count();
                    (placed_neighbors, pattern.degree(v), v)
                })
                .filter(|&(pn_count, _, _)| pn_count > 0)
                .max();
            match next {
                Some((_, _, v)) => {
                    placed[v as usize] = true;
                    order.push(v);
                }
                None => break,
            }
        }
    }
    order
}

/// Per-vertex neighbor degrees, sorted descending.
fn degree_signatures(topo: &Topology) -> Vec<Vec<usize>> {
    (0..topo.num_qubits())
        .map(|v| {
            let mut sig: Vec<usize> = topo.neighbors(v).iter().map(|&u| topo.degree(u)).collect();
            sig.sort_unstable_by(|a, b| b.cmp(a));
            sig
        })
        .collect()
}

/// True when every pattern neighbor (by descending degree) can be assigned
/// a distinct target neighbor of at least its degree.
fn dominates(target_sig: &[usize], pattern_sig: &[usize]) -> bool {
    pattern_sig.len() <= target_sig.len() && pattern_sig.iter().zip(target_sig).all(|(p, t)| p <= t)
}

/// A topology's adjacency flattened for the search loop: neighbour slices
/// in ascending order (the order [`Topology::neighbors`] iterates in, so
/// the search order is unchanged) and a dense edge matrix, so the inner
/// loop never walks a `BTreeSet`.
struct Adjacency {
    num_qubits: u32,
    neighbors: Vec<Vec<u32>>,
    edge: Vec<bool>,
}

impl Adjacency {
    fn new(topology: &Topology) -> Self {
        let n = topology.num_qubits();
        let mut edge = vec![false; (n as usize) * (n as usize)];
        for e in topology.edges() {
            edge[(e.lo() * n + e.hi()) as usize] = true;
            edge[(e.hi() * n + e.lo()) as usize] = true;
        }
        Adjacency {
            num_qubits: n,
            neighbors: (0..n)
                .map(|q| topology.neighbors(q).iter().copied().collect())
                .collect(),
            edge,
        }
    }

    fn neighbors(&self, q: u32) -> &[u32] {
        &self.neighbors[q as usize]
    }

    /// True if `a` and `b` (both in range) are coupled.
    fn has_edge(&self, a: u32, b: u32) -> bool {
        self.edge[(a * self.num_qubits + b) as usize]
    }
}

struct Search<'a, W, F> {
    pattern: &'a Adjacency,
    target: &'a Adjacency,
    order: &'a [u32],
    cand_list: &'a [Vec<u32>],
    cand_mask: &'a [Vec<bool>],
    mapping: Vec<u32>,
    used: Vec<bool>,
    visit: F,
    weights: &'a W,
    /// Whether a placement whose running product falls below `cut` is
    /// left unextended.
    prunes: bool,
    /// The cut `visit` last returned.
    cut: f64,
    /// Placements left unextended.
    pruned: u64,
    /// Complete embeddings found so far (visited or not).
    found: usize,
    /// Embeddings handed to `visit`; the next one only proves truncation.
    max_results: usize,
    /// `max_results + 1`: the search stops once this many are found.
    limit: usize,
    expansions: u64,
    /// The expansion count at which the node budget or the current
    /// root's budget runs out, whichever comes first.
    budget_end: u64,
    deepest: usize,
    config: FdlsConfig,
    /// Global stop: node budget exhausted or result cap overflowed.
    stop: bool,
    /// Abandon the current root (root budget or backtrack limit), and
    /// raised together with `stop`.
    abandon: bool,
    truncated: bool,
}

impl<W: Weights, F: FnMut(&[u32], f64) -> f64> Search<'_, W, F> {
    /// Counts one node expansion against both budgets. Returns false (and
    /// raises the corresponding flags) when a budget is exhausted.
    #[inline(always)]
    fn charge_expansion(&mut self) -> bool {
        self.expansions += 1;
        if self.expansions < self.budget_end {
            return true;
        }
        self.truncated = true;
        self.abandon = true;
        self.stop = self.expansions >= self.config.node_budget;
        false
    }

    /// Searches below a partial embedding of `depth` vertices whose
    /// running product is `product`.
    fn dfs(&mut self, depth: usize, product: f64) {
        if depth == self.order.len() {
            self.found += 1;
            if self.found <= self.max_results {
                self.cut = (self.visit)(&self.mapping, product);
            }
            if self.found >= self.limit {
                self.truncated = true;
                self.stop = true;
                self.abandon = true;
            }
            return;
        }
        self.deepest = self.deepest.max(depth);
        let v = self.order[depth];
        // Candidate targets: if v has mapped neighbors, the filtered
        // target-neighbors of one mapped image; otherwise every filtered
        // target. `used` is restored after each candidate's subtree, so
        // testing it lazily visits the same candidates, in the same order,
        // as collecting them up front.
        let mapped_neighbor = self
            .pattern
            .neighbors(v)
            .iter()
            .find(|&&u| self.mapping[u as usize] != u32::MAX)
            .copied();
        let (target, cand_list, cand_mask) = (self.target, self.cand_list, self.cand_mask);
        let mask = &cand_mask[v as usize];
        match mapped_neighbor {
            Some(u) => {
                for &t in target.neighbors(self.mapping[u as usize]) {
                    if !self.used[t as usize]
                        && mask[t as usize]
                        && !self.expand(depth, v, t, product)
                    {
                        return;
                    }
                }
            }
            None => {
                for &t in &cand_list[v as usize] {
                    if !self.used[t as usize] && !self.expand(depth, v, t, product) {
                        return;
                    }
                }
            }
        }
    }

    /// Places pattern vertex `v` on target `t` if it is adjacency-
    /// consistent and searches below it. Returns false once this level
    /// must stop (global stop, root abandoned, or backtrack limit).
    fn expand(&mut self, depth: usize, v: u32, t: u32, product: f64) -> bool {
        for &u in self.pattern.neighbors(v) {
            let img = self.mapping[u as usize];
            if img != u32::MAX && !self.target.has_edge(t, img) {
                return true;
            }
        }
        if !self.place(depth, v, t, product) {
            return false;
        }
        // Depth-limited backtracking: once the subtree below has been
        // and gone, retreating far below the deepest point means we'd
        // only re-enumerate local permutations — move to the next root.
        if (self.deepest - depth) as u64 > u64::from(self.config.backtrack_depth) {
            self.truncated = true;
            self.abandon = true;
            return false;
        }
        true
    }

    /// Weighs placing pattern vertex `v` on target `t`, cuts the placement
    /// if its running product falls below the cut, charges it against the
    /// budgets and searches below it. Returns false once this level must
    /// stop (global stop or root abandoned).
    #[inline(always)]
    fn place(&mut self, depth: usize, v: u32, t: u32, product: f64) -> bool {
        let product = product * self.weights.place(v, t, &self.mapping);
        if self.prunes && product < self.cut {
            self.pruned += 1;
            return true;
        }
        if !self.charge_expansion() {
            return false;
        }
        self.mapping[v as usize] = t;
        self.used[t as usize] = true;
        self.dfs(depth + 1, product);
        self.used[t as usize] = false;
        self.mapping[v as usize] = u32::MAX;
        !self.abandon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{self, EmbeddingSet, MapperSelection};
    use crate::presets;

    fn search(
        pattern: &Topology,
        target: &Topology,
        max_results: usize,
        config: &FdlsConfig,
    ) -> EmbeddingSet {
        let selection = MapperSelection::Filtered(*config);
        mapper::enumerate_embeddings(pattern, target, max_results, selection)
    }

    fn all(pattern: &Topology, target: &Topology) -> Vec<Vec<u32>> {
        let set = search(pattern, target, usize::MAX, &FdlsConfig::exhaustive());
        assert!(set.is_complete());
        set.embeddings
    }

    fn check_valid(pattern: &Topology, target: &Topology, phi: &[u32]) {
        let mut seen = std::collections::BTreeSet::new();
        for &t in phi {
            assert!(seen.insert(t), "not injective: {phi:?}");
            assert!(t < target.num_qubits());
        }
        for e in pattern.edges() {
            assert!(
                target.has_edge(phi[e.lo() as usize], phi[e.hi() as usize]),
                "edge {e} not preserved by {phi:?}"
            );
        }
    }

    #[test]
    fn path_counts_on_lines_and_rings() {
        // Three start positions on line-5, six on ring-6, two directions
        // each.
        for (target, count) in [(presets::line(5), 6), (presets::ring(6), 12)] {
            let found = all(&presets::line(3), &target);
            assert_eq!(found.len(), count);
            for phi in &found {
                check_valid(&presets::line(3), &target, phi);
            }
        }
    }

    #[test]
    fn triangle_needs_a_cycle() {
        let triangle = presets::ring(3);
        assert!(all(&triangle, &presets::line(5)).is_empty());
        assert!(!all(&triangle, &presets::tokyo20()).is_empty());
    }

    #[test]
    fn star_requires_degree() {
        // A 4-star needs a degree-3 hub; a line's max degree is 2, so the
        // candidate filter empties out under any budgets.
        let star = Topology::new(4, &[(0, 1), (0, 2), (0, 3)]);
        for config in [FdlsConfig::default(), FdlsConfig::exhaustive()] {
            let set = search(&star, &presets::line(10), usize::MAX, &config);
            assert!(set.is_complete() && set.embeddings.is_empty());
        }
        // ... but it embeds into melbourne (degree-3 vertices exist).
        assert!(!all(&star, &presets::melbourne14()).is_empty());
    }

    #[test]
    fn isolated_vertices_map_anywhere_unused() {
        // Pattern: one edge + one isolated vertex, into a line of 3.
        let pattern = Topology::new(3, &[(0, 1)]);
        let target = presets::line(3);
        let found = all(&pattern, &target);
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
        // Edge (0,1) can sit on (0,1),(1,0),(1,2),(2,1); vertex 2 takes the
        // remaining spot: 4 embeddings.
        assert_eq!(found.len(), 4);
    }

    #[test]
    fn embeddings_into_melbourne_are_valid_and_distinct() {
        let pattern = presets::line(6);
        let target = presets::melbourne14();
        let found = all(&pattern, &target);
        assert!(!found.is_empty());
        let mut distinct = std::collections::BTreeSet::new();
        for phi in &found {
            check_valid(&pattern, &target, phi);
            assert!(distinct.insert(phi.clone()), "duplicate embedding {phi:?}");
        }
    }

    #[test]
    fn cap_hit_is_reported_not_silent() {
        let pattern = presets::line(2);
        let target = presets::melbourne14(); // 18 edges -> 36 embeddings
        let exhaustive = FdlsConfig::exhaustive();
        let clipped = search(&pattern, &target, 5, &exhaustive);
        assert_eq!(clipped.embeddings.len(), 5);
        assert!(matches!(
            clipped.outcome,
            SearchOutcome::Truncated { explored } if explored > 0
        ));
        // A cap exactly at the pool size is not a truncation.
        let exact = search(&pattern, &target, 36, &exhaustive);
        assert_eq!(exact.embeddings.len(), 36);
        assert!(exact.is_complete());
        assert_eq!(all(&pattern, &target).len(), 36);
    }

    #[test]
    fn eagle_search_is_budgeted_diverse_and_valid() {
        let pattern = presets::line(10);
        let target = presets::eagle127();
        let set = search(&pattern, &target, 256, &FdlsConfig::default());
        assert!(set.embeddings.len() >= 5, "only {}", set.embeddings.len());
        let mut distinct = std::collections::BTreeSet::new();
        for phi in &set.embeddings {
            check_valid(&pattern, &target, phi);
            assert!(distinct.insert(phi.clone()), "duplicate {phi:?}");
        }
        // Depth-limited root rotation must spread embeddings over more
        // than one footprint, not enumerate permutations of one corner.
        let footprints: std::collections::BTreeSet<Vec<u32>> = set
            .embeddings
            .iter()
            .map(|phi| {
                let mut f = phi.clone();
                f.sort_unstable();
                f
            })
            .collect();
        assert!(footprints.len() > 1, "all embeddings share one footprint");
    }

    #[test]
    fn node_budget_truncates_with_outcome() {
        let pattern = presets::line(4);
        let target = presets::tokyo20();
        let tiny = FdlsConfig {
            node_budget: 16,
            ..FdlsConfig::default()
        };
        let set = search(&pattern, &target, usize::MAX, &tiny);
        assert!(matches!(
            set.outcome,
            SearchOutcome::Truncated { explored } if explored <= 16
        ));
        // The full pool is strictly larger.
        assert!(set.embeddings.len() < all(&pattern, &target).len());
    }

    #[test]
    fn empty_and_oversized_patterns() {
        let empty = Topology::new(0, &[]);
        for config in [FdlsConfig::default(), FdlsConfig::exhaustive()] {
            let set = search(&empty, &presets::line(3), usize::MAX, &config);
            assert_eq!(set.embeddings, vec![Vec::<u32>::new()]);
            assert!(set.is_complete());
            let set = search(&presets::line(5), &presets::line(4), 10, &config);
            assert!(set.embeddings.is_empty() && set.is_complete());
        }
    }

    #[test]
    fn search_is_deterministic() {
        let pattern = presets::line(8);
        let target = presets::hummingbird65();
        let a = search(&pattern, &target, 64, &FdlsConfig::default());
        let b = search(&pattern, &target, 64, &FdlsConfig::default());
        assert_eq!(a, b);
    }
}
