//! Deterministic seed-stream derivation for parallel execution.
//!
//! The ensemble layer and the shot-slicing layer both need "many
//! independent seeds from one root seed". Deriving them additively
//! (`seed + i`) is fragile: the ensemble's member seeds and the executor's
//! slice seeds were drawn from the *same* arithmetic progression, so member
//! 1 of a run seeded `s` collided with slice 1 of a run seeded `s` — two
//! supposedly independent trajectories shared an RNG stream.
//!
//! This module replaces that scheme with a SplitMix64-style fork: each
//! child seed is the output of a strong 64-bit mix over
//! `root + (tag + 1) · γ`, where γ is the golden-ratio increment. Distinct
//! `(root, tag)` pairs land in unrelated parts of the mix's codomain, so
//! nested forks — `fork(fork(seed, member), slice)` — give every
//! `(member, slice)` work item its own stream regardless of how many
//! members or slices exist.
//!
//! The derivation is pure arithmetic on `u64`s: it is stable across
//! platforms, thread counts, and work schedules, which is what makes the
//! parallel engine's results bit-identical for any worker count.

/// Golden-ratio increment used by SplitMix64 (`⌊2⁶⁴/φ⌋`, forced odd).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a bijective avalanche mix over `u64`.
///
/// Every input bit affects every output bit with probability ~1/2, so
/// consecutive inputs produce statistically unrelated outputs.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `tag`-th child seed of `root`.
///
/// Children of the same root are mutually independent, and children of
/// different roots do not collide the way `root + tag` does (the mix
/// decorrelates the additive structure). `tag + 1` keeps `fork(root, 0)`
/// distinct from `mix(root)` so a forked stream never equals a stream
/// somebody derived by mixing the root directly.
///
/// # Examples
///
/// ```
/// use qsim::rngstream::fork;
/// // Additive derivation collides: seed 7 member 1 == seed 8 member 0.
/// assert_eq!(7u64 + 1, 8u64 + 0);
/// // Forked derivation does not.
/// assert_ne!(fork(7, 1), fork(8, 0));
/// ```
pub fn fork(root: u64, tag: u64) -> u64 {
    mix(root.wrapping_add(GOLDEN.wrapping_mul(tag.wrapping_add(1))))
}

/// Seed for shot-slice `slice` of ensemble member `member` under `root`.
///
/// Defined as `fork(fork(root, member), slice)`, so a member's slices are
/// exactly the slices a standalone sliced run would use when seeded with
/// that member's forked seed. This is the contract that lets
/// [`NoisySimulator::run_batch`](crate::NoisySimulator::run_batch) fan an
/// ensemble out over `(member × slice)` work items while staying
/// bit-identical to running each member alone.
///
/// # Examples
///
/// ```
/// use qsim::rngstream::{fork, slice_seed};
/// assert_eq!(slice_seed(42, 3, 5), fork(fork(42, 3), 5));
/// ```
pub fn slice_seed(root: u64, member: u64, slice: u64) -> u64 {
    fork(fork(root, member), slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fork_streams_do_not_collide_across_nearby_roots() {
        // The failure mode this module exists to prevent: additive seeds
        // from nearby roots overlap. Forked seeds must not.
        let mut seen = BTreeSet::new();
        for root in 0..32u64 {
            for tag in 0..32u64 {
                assert!(seen.insert(fork(root, tag)), "collision at {root}/{tag}");
            }
        }
    }

    #[test]
    fn member_and_slice_layers_do_not_collide() {
        // Member seeds (layer 1) and slice seeds (layer 2) of the same root
        // must be disjoint: a member's RNG stream is never reused by a
        // slice of another member.
        let root = 0xDEAD_BEEF;
        let members: BTreeSet<u64> = (0..16).map(|m| fork(root, m)).collect();
        for m in 0..16 {
            for s in 0..64 {
                assert!(!members.contains(&slice_seed(root, m, s)));
            }
        }
    }

    #[test]
    fn derivation_is_pure() {
        assert_eq!(fork(1, 2), fork(1, 2));
        assert_eq!(slice_seed(9, 0, 0), slice_seed(9, 0, 0));
        assert_ne!(slice_seed(9, 0, 1), slice_seed(9, 1, 0));
    }

    #[test]
    fn mix_is_a_bijection_on_a_sample() {
        let outputs: BTreeSet<u64> = (0..4096u64).map(mix).collect();
        assert_eq!(outputs.len(), 4096);
    }
}
