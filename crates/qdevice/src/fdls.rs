//! Filtered depth-limited search (FDLS) for subgraph embedding.
//!
//! Exhaustive VF2 enumeration ([`crate::vf2`]) is exact but explodes on the
//! 27/65/127-qubit heavy-hex presets: their long degree-2 chains admit
//! astronomically many embeddings of even a small footprint. Following the
//! approach of Li, Zhou & Feng (*Qubit Mapping Based on Subgraph
//! Isomorphism and Filtered Depth-Limited Search*), this module keeps the
//! search useful at that scale with three mechanisms:
//!
//! 1. **Candidate filtering** — each pattern vertex is restricted up front
//!    to target qubits whose degree *and* sorted neighbor-degree signature
//!    dominate the pattern vertex's, pruning hopeless branches before the
//!    search starts.
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
//! Every early exit is reported through [`SearchOutcome::Truncated`];
//! [`FdlsConfig::exhaustive`] disables all three limits, making the search
//! provably equivalent to VF2 (the property tests assert set equality).
//!
//! The search is deterministic: matching order is the same as VF2's, roots
//! and candidates are visited in ascending target-qubit id, and no
//! randomness is involved — the same inputs always produce the same
//! embedding sequence.
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
use crate::vf2::{self, Adjacency};
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
    /// No budgets at all: the search visits the entire tree and is then
    /// equivalent to exhaustive VF2 (same embedding set, possibly in a
    /// different order).
    pub fn exhaustive() -> Self {
        FdlsConfig {
            node_budget: u64::MAX,
            root_budget: u64::MAX,
            backtrack_depth: u32::MAX,
        }
    }
}

/// Hands each embedding of `pattern` into `target` under `config` to
/// `visit`, in search order, with the same cap semantics as
/// [`crate::vf2::for_each`]: injective, non-induced (every pattern edge
/// maps to a target edge; extra target edges are fine), isolated pattern
/// vertices land on any unused target qubit, and an empty pattern yields
/// one empty embedding. The latency histogram covers the search together
/// with the visitor's own work.
pub fn for_each(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    config: &FdlsConfig,
    visit: impl FnMut(&[u32]),
) -> SearchOutcome {
    let selection = crate::mapper::MapperSelection::Filtered(*config);
    crate::mapper::for_each_embedding(pattern, target, max_results, selection, visit)
}

/// [`for_each`] handing each embedding's running product of `weights` to
/// `visit`; see [`crate::mapper::for_each_weighted`], which dispatches
/// here. The budgets count every node, so nothing is cut and the cut
/// `visit` returns is ignored.
pub(crate) fn run<W: Weights>(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    config: &FdlsConfig,
    weights: &W,
    visit: impl FnMut(&[u32], f64) -> f64,
) -> SearchOutcome {
    let _span = edm_telemetry::trace::span("fdls_search");
    let (outcome, visited) = edm_telemetry::histogram!(
        "edm_qdevice_fdls_us",
        "Wall time of one FDLS embedding search"
    )
    .time(|| search_inner(pattern, target, max_results, config, weights, visit));
    edm_telemetry::counter!(
        "edm_qdevice_fdls_embeddings_total",
        "Embeddings produced by FDLS searches"
    )
    .add(visited as u64);
    if outcome != SearchOutcome::Complete {
        edm_telemetry::counter!(
            "edm_qdevice_fdls_truncated_total",
            "FDLS searches that stopped on a budget, cap, or backtrack limit"
        )
        .inc();
    }
    outcome
}

/// Runs the search, returning its outcome and the number of embeddings
/// visited.
fn search_inner<W: Weights, F: FnMut(&[u32], f64) -> f64>(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    config: &FdlsConfig,
    weights: &W,
    mut visit: F,
) -> (SearchOutcome, usize) {
    let pn = pattern.num_qubits() as usize;
    let tn = target.num_qubits() as usize;
    if pn == 0 {
        if max_results == 0 {
            return (SearchOutcome::Complete, 0);
        }
        visit(&[], 1.0);
        return (SearchOutcome::Complete, 1);
    }
    if pn > tn {
        return (SearchOutcome::Complete, 0);
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
            return (SearchOutcome::Complete, 0);
        }
        cand_list.push(list);
        cand_mask.push(mask);
    }

    // Search one past the cap so an exactly-at-cap pool still reports
    // Complete (matching vf2::for_each's cap-hit detection).
    let order = vf2::matching_order(pattern);
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
        found: 0,
        max_results,
        limit: max_results.saturating_add(1),
        expansions: 0,
        root_expansions: 0,
        deepest: 0,
        config: *config,
        stop: false,
        abandon: false,
        truncated: false,
    };

    let root_v = order[0];
    for &root in &cand_list[root_v as usize] {
        if s.stop {
            break;
        }
        s.root_expansions = 0;
        s.deepest = 0;
        s.abandon = false;
        if !s.charge_expansion() {
            // Node budget exhausted stops the search; a 1-expansion root
            // budget merely rotates to the next root.
            if s.stop {
                break;
            }
            continue;
        }
        let product = weights.place(root_v, root, &s.mapping);
        s.mapping[root_v as usize] = root;
        s.used[root as usize] = true;
        s.dfs(1, product);
        s.used[root as usize] = false;
        s.mapping[root_v as usize] = u32::MAX;
    }

    let outcome = if s.truncated {
        SearchOutcome::Truncated {
            explored: s.expansions,
        }
    } else {
        SearchOutcome::Complete
    };
    (outcome, s.found.min(max_results))
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
    /// Complete embeddings found so far (visited or not).
    found: usize,
    /// Embeddings handed to `visit`; the next one only proves truncation.
    max_results: usize,
    /// `max_results + 1`: the search stops once this many are found.
    limit: usize,
    expansions: u64,
    root_expansions: u64,
    deepest: usize,
    config: FdlsConfig,
    /// Global stop: node budget exhausted or result cap overflowed.
    stop: bool,
    /// Abandon the current root (root budget or backtrack limit).
    abandon: bool,
    truncated: bool,
}

impl<W: Weights, F: FnMut(&[u32], f64) -> f64> Search<'_, W, F> {
    /// Counts one node expansion against both budgets. Returns false (and
    /// raises the corresponding flags) when a budget is exhausted.
    fn charge_expansion(&mut self) -> bool {
        self.expansions += 1;
        self.root_expansions += 1;
        if self.expansions >= self.config.node_budget {
            self.truncated = true;
            self.stop = true;
            return false;
        }
        if self.root_expansions >= self.config.root_budget {
            self.truncated = true;
            self.abandon = true;
            return false;
        }
        true
    }

    /// Searches below a partial embedding of `depth` vertices whose
    /// running product is `product`.
    fn dfs(&mut self, depth: usize, product: f64) {
        if depth == self.order.len() {
            self.found += 1;
            if self.found <= self.max_results {
                (self.visit)(&self.mapping, product);
            }
            if self.found >= self.limit {
                self.truncated = true;
                self.stop = true;
            }
            return;
        }
        self.deepest = self.deepest.max(depth);
        let v = self.order[depth];
        let mapped_neighbor = self
            .pattern
            .neighbors(v)
            .iter()
            .find(|&&u| self.mapping[u as usize] != u32::MAX)
            .copied();
        // `used` is restored after each candidate's subtree, so testing it
        // lazily visits the same candidates as collecting them up front.
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
        if !self.charge_expansion() {
            return false;
        }
        let product = product * self.weights.place(v, t, &self.mapping);
        self.mapping[v as usize] = t;
        self.used[t as usize] = true;
        self.dfs(depth + 1, product);
        self.used[t as usize] = false;
        self.mapping[v as usize] = u32::MAX;
        if self.stop || self.abandon {
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

    fn sorted(mut v: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        v.sort();
        v
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
    fn exhaustive_config_matches_vf2_on_small_targets() {
        let patterns = [
            presets::line(3),
            presets::line(5),
            presets::ring(4),
            Topology::new(4, &[(0, 1), (0, 2), (0, 3)]),
            Topology::new(3, &[(0, 1)]), // isolated vertex included
        ];
        let targets = [presets::melbourne14(), presets::guadalupe16()];
        for pattern in &patterns {
            for target in &targets {
                let a = mapper::enumerate_embeddings(
                    pattern,
                    target,
                    usize::MAX,
                    MapperSelection::Exhaustive,
                );
                let b = search(pattern, target, usize::MAX, &FdlsConfig::exhaustive());
                assert!(a.is_complete() && b.is_complete());
                assert_eq!(sorted(a.embeddings), sorted(b.embeddings));
            }
        }
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
        let full = search(&pattern, &target, usize::MAX, &FdlsConfig::exhaustive());
        assert!(full.is_complete());
        assert!(set.embeddings.len() < full.embeddings.len());
    }

    #[test]
    fn result_cap_reports_truncation_only_when_hit() {
        let pattern = presets::line(3);
        let target = presets::line(4); // exactly 4 embeddings
        let exact = search(&pattern, &target, 4, &FdlsConfig::exhaustive());
        assert!(exact.is_complete());
        assert_eq!(exact.embeddings.len(), 4);
        let capped = search(&pattern, &target, 3, &FdlsConfig::exhaustive());
        assert!(!capped.is_complete());
        assert_eq!(capped.embeddings.len(), 3);
    }

    #[test]
    fn filtering_proves_unembeddable_without_searching() {
        // A 4-star needs a degree-3 hub with three degree->=1 neighbors;
        // a line's max degree is 2, so the candidate filter empties out.
        let star = Topology::new(4, &[(0, 1), (0, 2), (0, 3)]);
        let set = search(
            &star,
            &presets::line(10),
            usize::MAX,
            &FdlsConfig::default(),
        );
        assert!(set.is_complete());
        assert!(set.embeddings.is_empty());
    }

    #[test]
    fn empty_and_oversized_patterns_match_vf2_semantics() {
        let empty = Topology::new(0, &[]);
        let set = search(
            &empty,
            &presets::line(3),
            usize::MAX,
            &FdlsConfig::default(),
        );
        assert_eq!(set.embeddings, vec![Vec::<u32>::new()]);
        assert!(set.is_complete());
        let big = presets::line(5);
        let set = search(&big, &presets::line(4), usize::MAX, &FdlsConfig::default());
        assert!(set.embeddings.is_empty() && set.is_complete());
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
