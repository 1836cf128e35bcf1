//! Mapper selection: one front door over the embedding search.
//!
//! EDM needs *many* embeddings of a circuit footprint into the coupling
//! graph. One search produces them, [`crate::fdls`]; the selection only
//! picks its budgets:
//!
//! - [`MapperSelection::Exhaustive`] runs it with no budgets
//!   ([`FdlsConfig::exhaustive`]): the paper's exact VF2-style
//!   enumeration, intractable on the 27/65/127-qubit heavy-hex presets
//!   where sparse degree-2 chains make the embedding count explode,
//! - [`MapperSelection::Filtered`] runs it with node and backtrack budgets
//!   (after Li, Zhou & Feng); deterministic, and spread across root
//!   placements so the diverse top-K structure EDM relies on survives
//!   truncation.
//!
//! [`MapperSelection::Auto`] keeps small devices exhaustive and gives large
//! ones the default budgets. Every search reports an explicit
//! [`SearchOutcome`] instead of a silently capped `Vec`, so ESP rankings
//! downstream know whether they saw the whole pool.

use crate::fdls::{self, FdlsConfig};
use crate::Topology;

/// Devices at or below this qubit count are searched exhaustively under
/// [`MapperSelection::Auto`] — up to tokyo-20, where full enumeration is
/// affordable and the paper's methodology applies unchanged.
pub const AUTO_EXHAUSTIVE_MAX_QUBITS: u32 = 20;

/// Whether an embedding search saw the whole space or was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// Every embedding (up to the caller's result cap, which was not hit)
    /// was enumerated: the returned set is the full pool.
    Complete,
    /// The search stopped early — result cap, node-expansion budget, or
    /// backtrack-depth abandonment — so embeddings may be missing and any
    /// ranking over the set is best-effort.
    Truncated {
        /// Search-tree nodes expanded before stopping.
        explored: u64,
    },
}

/// The embeddings a search produced, plus how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingSet {
    /// Injective pattern-to-target assignments, one `Vec` per embedding,
    /// indexed by pattern vertex.
    pub embeddings: Vec<Vec<u32>>,
    /// Whether the set above is the whole pool.
    pub outcome: SearchOutcome,
}

impl EmbeddingSet {
    /// True when the search enumerated the entire embedding space.
    pub fn is_complete(&self) -> bool {
        matches!(self.outcome, SearchOutcome::Complete)
    }
}

/// Which budgets the embedding search runs with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MapperSelection {
    /// Exhaustive for targets up to [`AUTO_EXHAUSTIVE_MAX_QUBITS`] qubits,
    /// the default filtered budgets above.
    #[default]
    Auto,
    /// Always exhaustive ([`FdlsConfig::exhaustive`]), whatever the device
    /// size.
    Exhaustive,
    /// Always these filtered depth-limited search budgets.
    Filtered(FdlsConfig),
}

impl MapperSelection {
    /// Resolves [`MapperSelection::Auto`] against a concrete target device;
    /// the other variants return themselves.
    pub fn resolve(self, target: &Topology) -> MapperSelection {
        match self {
            MapperSelection::Auto if target.num_qubits() <= AUTO_EXHAUSTIVE_MAX_QUBITS => {
                MapperSelection::Exhaustive
            }
            MapperSelection::Auto => MapperSelection::Filtered(FdlsConfig::default()),
            other => other,
        }
    }

    /// The short name of the budgets this selection resolves to on `target`.
    pub fn describe(self, target: &Topology) -> &'static str {
        match self.resolve(target) {
            MapperSelection::Exhaustive => "exhaustive",
            MapperSelection::Filtered(_) => "filtered",
            MapperSelection::Auto => unreachable!("resolve never returns Auto"),
        }
    }
}

/// Enumerates embeddings of `pattern` into `target` under the selected
/// budgets, returning at most `max_results` of them plus the search
/// outcome.
///
/// The search is deterministic (fixed matching order, candidates in
/// ascending target-qubit id), so the same inputs always yield the same
/// embedding sequence. This collects [`for_each_embedding`] and is the one
/// collecting form of the search; callers that only score or filter
/// embeddings should visit them instead of storing them.
///
/// # Examples
///
/// ```
/// use qdevice::mapper::{self, MapperSelection};
/// use qdevice::presets;
/// // Embed a 3-qubit path into a 4-qubit line: 0-1-2 fits 4 ways
/// // (starting at 0 or 1, in either direction).
/// let set = mapper::enumerate_embeddings(
///     &presets::line(3),
///     &presets::line(4),
///     usize::MAX,
///     MapperSelection::Exhaustive,
/// );
/// assert_eq!(set.embeddings.len(), 4);
/// assert!(set.is_complete());
/// ```
pub fn enumerate_embeddings(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    selection: MapperSelection,
) -> EmbeddingSet {
    let mut embeddings = Vec::new();
    let outcome = for_each_embedding(pattern, target, max_results, selection, |phi| {
        embeddings.push(phi.to_vec())
    });
    EmbeddingSet {
        embeddings,
        outcome,
    }
}

/// Hands each embedding of `pattern` into `target` to `visit`, in exactly
/// the order [`enumerate_embeddings`] returns them, without storing any.
///
/// `visit` sees the first `max_results` embeddings; one more embedding
/// only marks the outcome [`SearchOutcome::Truncated`], with the same
/// `explored` count the collecting form reports.
pub fn for_each_embedding(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    selection: MapperSelection,
    mut visit: impl FnMut(&[u32]),
) -> SearchOutcome {
    let visit = |phi: &[u32], _| {
        visit(phi);
        0.0
    };
    for_each_weighted(pattern, target, max_results, selection, &Unweighted, visit).0
}

/// The factors of a product score over embeddings, placement by placement.
///
/// Every factor must lie in `[0, 1]`: the running product of a partial
/// embedding then bounds the product of every completion of it, and
/// [`Weights::rest`] tightens that bound by what is still to come, which
/// is what lets [`for_each_weighted`] cut subtrees.
pub trait Weights {
    /// The factor placing pattern vertex `v` on target qubit `t` adds,
    /// given the partial `mapping` (`u32::MAX` where a vertex is not yet
    /// placed; `v` itself is not): `v`'s own factor times one factor per
    /// pattern edge to an already placed neighbour.
    fn place(&self, v: u32, t: u32, mapping: &[u32]) -> f64;

    /// Upper bounds, per depth of the search's matching `order`, on the
    /// factors still to come: `rest[d]` bounds the product of every factor
    /// [`Weights::place`] adds for `order[d..]`, times whatever the caller
    /// multiplies into a complete embedding afterwards (`rest[order.len()]`).
    /// The default, all ones, bounds nothing beyond the `[0, 1]` range.
    fn rest(&self, order: &[u32]) -> Vec<f64> {
        vec![1.0; order.len() + 1]
    }
}

/// Every factor 1: the plain search.
struct Unweighted;

impl Weights for Unweighted {
    #[inline]
    fn place(&self, _: u32, _: u32, _: &[u32]) -> f64 {
        1.0
    }
}

/// [`for_each_embedding`] carrying the running product of `weights` down
/// the search tree: each embedding reaches `visit` with its product, and
/// `visit` returns the *cut*, the product below which no later embedding
/// counts for the caller (`0.0` keeps every one).
///
/// Subtrees are cut only where nothing counts the embeddings below them:
/// a search with no budgets and no result cap (`max_results ==
/// usize::MAX`). There a placement is not extended when its running
/// product times the [`Weights::rest`] bound for the next depth falls
/// below the cut, and the returned count is the number of such
/// placements. Under a result cap or budgets nothing is cut, so the
/// enumeration order, the cap point and `explored` stay those of
/// [`for_each_embedding`]; the caller applies the cut to the products it
/// is handed, and the count is zero.
///
/// The selection picks the budgets and the names the search is recorded
/// under: `vf2_enumerate` and the `edm_qdevice_vf2_*` metrics when
/// exhaustive, `fdls_search` and `edm_qdevice_fdls_*` when filtered. The
/// latency histogram covers the search together with the visitor's work.
pub fn for_each_weighted<W: Weights>(
    pattern: &Topology,
    target: &Topology,
    max_results: usize,
    selection: MapperSelection,
    weights: &W,
    visit: impl FnMut(&[u32], f64) -> f64,
) -> (SearchOutcome, u64) {
    let search = |config| fdls::search(pattern, target, max_results, &config, weights, visit);
    match selection.resolve(target) {
        MapperSelection::Exhaustive => {
            let _span = edm_telemetry::trace::span("vf2_enumerate");
            let (outcome, visited, pruned) = edm_telemetry::histogram!(
                "edm_qdevice_vf2_us",
                "Wall time of one VF2 subgraph-isomorphism enumeration"
            )
            .time(|| search(FdlsConfig::exhaustive()));
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
        MapperSelection::Filtered(config) => {
            let _span = edm_telemetry::trace::span("fdls_search");
            let (outcome, visited, pruned) = edm_telemetry::histogram!(
                "edm_qdevice_fdls_us",
                "Wall time of one FDLS embedding search"
            )
            .time(|| search(config));
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
            (outcome, pruned)
        }
        MapperSelection::Auto => unreachable!("resolve never returns Auto"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn auto_resolves_by_device_size() {
        let small = presets::tokyo20();
        let large = presets::falcon27();
        assert_eq!(
            MapperSelection::Auto.resolve(&small),
            MapperSelection::Exhaustive
        );
        assert!(matches!(
            MapperSelection::Auto.resolve(&large),
            MapperSelection::Filtered(_)
        ));
        assert_eq!(MapperSelection::Auto.describe(&small), "exhaustive");
        assert_eq!(MapperSelection::Auto.describe(&large), "filtered");
    }

    #[test]
    fn exhaustive_is_the_search_with_no_budgets() {
        let pattern = presets::line(4);
        let target = presets::guadalupe16();
        let unbudgeted = MapperSelection::Filtered(FdlsConfig::exhaustive());
        for cap in [usize::MAX, 7] {
            let a = enumerate_embeddings(&pattern, &target, cap, MapperSelection::Exhaustive);
            assert_eq!(a, enumerate_embeddings(&pattern, &target, cap, unbudgeted));
            assert_eq!(a.is_complete(), cap == usize::MAX);
        }
    }
}
