//! Subgraph-isomorphism enumeration (VF2-style).
//!
//! EDM transplants a mapped circuit onto alternative qubit subsets by
//! enumerating embeddings of the circuit's interaction graph into the device
//! coupling graph (§5.2 of the paper, which uses the VF2 algorithm of
//! Cordella et al.). This module implements the enumeration from scratch:
//! a backtracking search with candidate pruning, ordered so that each pattern
//! vertex (after the first of its component) is matched adjacent to already
//! matched vertices.
//!
//! The match is *non-induced*: every pattern edge must map to a target edge,
//! but extra target edges between mapped vertices are allowed — exactly what
//! qubit mapping needs.

use crate::mapper::{SearchOutcome, Weights};
use crate::Topology;

/// Hands each injective mapping `phi` from pattern vertices to target
/// vertices such that every pattern edge `(a, b)` maps to a target edge
/// `(phi[a], phi[b])` to `visit`, in enumeration order, indexed by pattern
/// vertex. Isolated pattern vertices are matched to any unused target
/// vertex.
///
/// `visit` sees at most `max_results` embeddings (pass `usize::MAX` for
/// all of them). The search runs one embedding past the cap: the
/// `(max_results + 1)`-th embedding is never visited, it only marks the
/// outcome [`SearchOutcome::Truncated`] (and is counted by the
/// `edm_qdevice_vf2_cap_hits_total` counter), so a pool of exactly
/// `max_results` embeddings is still [`SearchOutcome::Complete`]. The
/// latency histogram covers the search together with the visitor's own
/// work. [`crate::mapper::enumerate_embeddings`] collects the result.
pub fn for_each(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    visit: impl FnMut(&[u32]),
) -> SearchOutcome {
    crate::mapper::for_each_embedding(
        pattern,
        target,
        max_results,
        crate::mapper::MapperSelection::Exhaustive,
        visit,
    )
}

/// [`for_each`] with a running product of `weights`; see
/// [`crate::mapper::for_each_weighted`], which dispatches here. Returns
/// the outcome and the number of placements cut.
pub(crate) fn run<W: Weights>(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    weights: &W,
    visit: impl FnMut(&[u32], f64) -> f64,
) -> (SearchOutcome, u64) {
    let _span = edm_telemetry::trace::span("vf2_enumerate");
    let (outcome, visited, pruned) = edm_telemetry::histogram!(
        "edm_qdevice_vf2_us",
        "Wall time of one VF2 subgraph-isomorphism enumeration"
    )
    .time(|| search(pattern, target, max_results, weights, visit));
    edm_telemetry::counter!(
        "edm_qdevice_vf2_embeddings_total",
        "Embeddings produced by VF2 enumeration"
    )
    .add(visited as u64);
    if outcome != SearchOutcome::Complete {
        edm_telemetry::counter!(
            "edm_qdevice_vf2_cap_hits_total",
            "VF2 enumerations truncated by their result cap"
        )
        .inc();
    }
    (outcome, pruned)
}

/// Runs the search, returning its outcome, the number of embeddings
/// visited and the number of placements cut.
fn search<W: Weights, F: FnMut(&[u32], f64) -> f64>(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    weights: &W,
    mut visit: F,
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

    // Search one past the cap: finding max_results + 1 embeddings proves
    // the cap actually clipped the pool.
    let (pattern_adj, target_adj) = (Adjacency::new(pattern), Adjacency::new(target));
    let mut state = State {
        pattern: &pattern_adj,
        target: &target_adj,
        order: matching_order(pattern),
        mapping: vec![u32::MAX; pn],
        used: vec![false; tn],
        visit,
        weights,
        // Only an uncapped search may skip embeddings: under a cap the
        // skipped ones would still count towards it.
        prunes: max_results == usize::MAX,
        cut: 0.0,
        pruned: 0,
        found: 0,
        max_results,
        limit: max_results.saturating_add(1),
        nodes: 0,
    };
    state.search(0, 1.0);
    let visited = state.found.min(max_results);
    let outcome = if state.found > max_results {
        SearchOutcome::Truncated {
            explored: state.nodes,
        }
    } else {
        SearchOutcome::Complete
    };
    (outcome, visited, state.pruned)
}

/// Computes a matching order: vertices sorted so that every vertex after the
/// first of its connected component has at least one earlier neighbor.
/// Components are visited by descending maximum degree, which narrows the
/// candidate sets early. Shared with [`crate::fdls`] so both engines walk
/// the same search tree shape (their embedding *sets* must agree whenever
/// FDLS runs unbudgeted).
pub(crate) fn matching_order(pattern: &Topology) -> Vec<u32> {
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

/// A topology's adjacency flattened for the search loops: neighbour
/// slices in ascending order (the order [`Topology::neighbors`] iterates
/// in, so the search order is unchanged) and a dense edge matrix, so the
/// inner loop never walks a `BTreeSet`.
pub(crate) struct Adjacency {
    num_qubits: u32,
    neighbors: Vec<Vec<u32>>,
    edge: Vec<bool>,
}

impl Adjacency {
    pub(crate) fn new(topology: &Topology) -> Self {
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

    pub(crate) fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    pub(crate) fn neighbors(&self, q: u32) -> &[u32] {
        &self.neighbors[q as usize]
    }

    pub(crate) fn degree(&self, q: u32) -> usize {
        self.neighbors[q as usize].len()
    }

    /// True if `a` and `b` (both in range) are coupled.
    pub(crate) fn has_edge(&self, a: u32, b: u32) -> bool {
        self.edge[(a * self.num_qubits + b) as usize]
    }
}

struct State<'a, W, F> {
    pattern: &'a Adjacency,
    target: &'a Adjacency,
    order: Vec<u32>,
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
    /// Search-tree nodes expanded (candidate placements tried).
    nodes: u64,
}

impl<W: Weights, F: FnMut(&[u32], f64) -> f64> State<'_, W, F> {
    /// Searches below a partial embedding of `depth` vertices whose
    /// running product is `product`.
    fn search(&mut self, depth: usize, product: f64) {
        if self.found >= self.limit {
            return;
        }
        if depth == self.order.len() {
            self.found += 1;
            if self.found <= self.max_results {
                self.cut = (self.visit)(&self.mapping, product);
            }
            return;
        }
        let v = self.order[depth];
        // Candidate targets: if v has mapped neighbors, candidates are the
        // target-neighbors of one mapped image (the smallest pruning set);
        // otherwise every unused target vertex. `used` is restored after
        // each candidate's subtree, so testing it lazily here visits the
        // same candidates, in the same order, as collecting them up front.
        let mapped_neighbor = self
            .pattern
            .neighbors(v)
            .iter()
            .find(|&&u| self.mapping[u as usize] != u32::MAX)
            .copied();
        let target = self.target;
        match mapped_neighbor {
            Some(u) => {
                for &t in target.neighbors(self.mapping[u as usize]) {
                    if !self.used[t as usize] && !self.try_place(depth, v, t, product) {
                        return;
                    }
                }
            }
            None => {
                for t in 0..target.num_qubits() {
                    if !self.used[t as usize] && !self.try_place(depth, v, t, product) {
                        return;
                    }
                }
            }
        }
    }

    /// Places pattern vertex `v` on target `t` if feasible and searches
    /// below it. Returns false once the search must stop.
    fn try_place(&mut self, depth: usize, v: u32, t: u32, product: f64) -> bool {
        // Feasibility: degree and full adjacency consistency.
        if self.target.degree(t) < self.pattern.degree(v) {
            return true;
        }
        for &u in self.pattern.neighbors(v) {
            let img = self.mapping[u as usize];
            if img != u32::MAX && !self.target.has_edge(t, img) {
                return true;
            }
        }
        let product = product * self.weights.place(v, t, &self.mapping);
        if self.prunes && product < self.cut {
            self.pruned += 1;
            return true;
        }
        self.nodes += 1;
        self.mapping[v as usize] = t;
        self.used[t as usize] = true;
        self.search(depth + 1, product);
        self.used[t as usize] = false;
        self.mapping[v as usize] = u32::MAX;
        self.found < self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{self, EmbeddingSet, MapperSelection};
    use crate::presets;
    use crate::Topology;

    fn enumerate(pattern: &Topology, target: &Topology, max_results: usize) -> EmbeddingSet {
        mapper::enumerate_embeddings(pattern, target, max_results, MapperSelection::Exhaustive)
    }

    fn embeddings(pattern: &Topology, target: &Topology, max_results: usize) -> Vec<Vec<u32>> {
        enumerate(pattern, target, max_results).embeddings
    }

    fn embeds(pattern: &Topology, target: &Topology) -> bool {
        !embeddings(pattern, target, 1).is_empty()
    }

    fn check_valid(pattern: &Topology, target: &Topology, phi: &[u32]) {
        // Injective.
        let mut seen = std::collections::BTreeSet::new();
        for &t in phi {
            assert!(seen.insert(t), "mapping not injective: {phi:?}");
        }
        // Edge-preserving.
        for e in pattern.edges() {
            assert!(
                target.has_edge(phi[e.lo() as usize], phi[e.hi() as usize]),
                "edge {e} not preserved by {phi:?}"
            );
        }
    }

    #[test]
    fn path_into_line_counts() {
        let pattern = presets::line(3);
        let target = presets::line(5);
        let found = embeddings(&pattern, &target, usize::MAX);
        // Three start positions, two directions each.
        assert_eq!(found.len(), 6);
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
    }

    #[test]
    fn path_into_ring_counts() {
        let pattern = presets::line(3);
        let target = presets::ring(6);
        let found = embeddings(&pattern, &target, usize::MAX);
        // 6 start positions * 2 directions.
        assert_eq!(found.len(), 12);
    }

    #[test]
    fn triangle_does_not_embed_into_tree() {
        let triangle = presets::ring(3);
        let tree = presets::line(5);
        assert!(!embeds(&triangle, &tree));
        assert!(embeddings(&triangle, &tree, usize::MAX).is_empty());
    }

    #[test]
    fn triangle_embeds_into_dense_graph() {
        let triangle = presets::ring(3);
        let target = presets::tokyo20();
        assert!(embeds(&triangle, &target));
    }

    #[test]
    fn star_requires_degree() {
        // A 4-star (center + 3 leaves) cannot embed into a line (max degree 2)
        let star = Topology::new(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(!embeds(&star, &presets::line(10)));
        // ... but embeds into melbourne (degree-3 vertices exist).
        assert!(embeds(&star, &presets::melbourne14()));
    }

    #[test]
    fn max_results_caps_enumeration() {
        let pattern = presets::line(2);
        let target = presets::melbourne14();
        let found = embeddings(&pattern, &target, 5);
        assert_eq!(found.len(), 5);
    }

    #[test]
    fn cap_hit_is_reported_not_silent() {
        let pattern = presets::line(2);
        let target = presets::melbourne14(); // 18 edges -> 36 embeddings
        let clipped = enumerate(&pattern, &target, 5);
        assert_eq!(clipped.embeddings.len(), 5);
        assert!(matches!(
            clipped.outcome,
            SearchOutcome::Truncated { explored } if explored > 0
        ));
        // A cap exactly at the pool size is not a truncation.
        let exact = enumerate(&pattern, &target, 36);
        assert_eq!(exact.embeddings.len(), 36);
        assert!(exact.is_complete());
        let all = enumerate(&pattern, &target, usize::MAX);
        assert!(all.is_complete());
        assert_eq!(all.embeddings.len(), 36);
    }

    #[test]
    fn pattern_larger_than_target_is_empty() {
        assert!(embeddings(&presets::line(5), &presets::line(4), 10).is_empty());
    }

    #[test]
    fn empty_pattern_has_single_empty_embedding() {
        let empty = Topology::new(0, &[]);
        let found = embeddings(&empty, &presets::line(3), usize::MAX);
        assert_eq!(found, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn isolated_vertices_map_anywhere_unused() {
        // Pattern: one edge + one isolated vertex, into a line of 3.
        let pattern = Topology::new(3, &[(0, 1)]);
        let target = presets::line(3);
        let found = embeddings(&pattern, &target, usize::MAX);
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
        // Edge (0,1) can sit on (0,1),(1,0),(1,2),(2,1); vertex 2 takes the
        // remaining spot: 4 embeddings.
        assert_eq!(found.len(), 4);
    }

    #[test]
    fn embeddings_into_melbourne_are_valid() {
        // BV-6-like star-ish interaction pattern.
        let pattern = Topology::new(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let target = presets::melbourne14();
        let found = embeddings(&pattern, &target, usize::MAX);
        assert!(!found.is_empty());
        for phi in &found {
            check_valid(&pattern, &target, phi);
        }
    }

    #[test]
    fn all_embeddings_distinct() {
        let pattern = presets::line(4);
        let target = presets::melbourne14();
        let found = embeddings(&pattern, &target, usize::MAX);
        let mut set = std::collections::BTreeSet::new();
        for phi in &found {
            assert!(set.insert(phi.clone()), "duplicate embedding {phi:?}");
        }
    }
}
