//! The visitor form of the embedding search, `mapper::for_each_embedding`,
//! must see exactly what the collector `mapper::enumerate_embeddings`
//! returns: the same embeddings in the same order, and the same outcome —
//! `explored` included — below, at and above the pool size.

use qdevice::fdls::FdlsConfig;
use qdevice::mapper::{self, EmbeddingSet, MapperSelection, SearchOutcome};
use qdevice::{presets, Topology};

const EXHAUSTIVE: MapperSelection = MapperSelection::Exhaustive;

fn patterns() -> Vec<(&'static str, Topology)> {
    vec![
        ("line-4", presets::line(4)),
        ("line-5", presets::line(5)),
        ("star-4", Topology::new(4, &[(0, 1), (0, 2), (0, 3)])),
        ("ring-4", presets::ring(4)),
        ("ring-6", presets::ring(6)),
    ]
}

fn targets() -> Vec<(&'static str, Topology)> {
    vec![
        ("melbourne14", presets::melbourne14()),
        ("tokyo20", presets::tokyo20()),
        ("falcon27", presets::falcon27()),
    ]
}

/// Runs a visitor to completion and returns what it saw.
fn visited(run: impl FnOnce(&mut dyn FnMut(&[u32])) -> SearchOutcome) -> EmbeddingSet {
    let mut embeddings = Vec::new();
    let outcome = run(&mut |phi: &[u32]| embeddings.push(phi.to_vec()));
    EmbeddingSet {
        embeddings,
        outcome,
    }
}

/// Compares visitor and collector at three caps: below the pool size,
/// exactly at it, and unbounded. Every capped visit must also be a prefix
/// of the unbounded one.
fn check(
    label: &str,
    visit: impl Fn(usize, &mut dyn FnMut(&[u32])) -> SearchOutcome,
    collect: impl Fn(usize) -> EmbeddingSet,
) {
    let full = visited(|f| visit(usize::MAX, f));
    assert_eq!(full, collect(usize::MAX), "{label}: cap MAX");
    let pool = full.embeddings.len();
    let mut caps = vec![pool];
    if pool > 1 {
        caps.push(pool / 2);
    }
    for cap in caps {
        let seen = visited(|f| visit(cap, f));
        assert_eq!(seen, collect(cap), "{label}: cap {cap}");
        assert_eq!(seen.embeddings.len(), cap, "{label}: cap {cap}");
        assert_eq!(
            seen.embeddings[..],
            full.embeddings[..cap],
            "{label}: cap {cap} is not a prefix"
        );
        if cap == pool {
            // One past the pool never exists, so a cap at the pool size
            // truncates only where the unbounded search did (a budget).
            assert_eq!(seen.outcome, full.outcome, "{label}: cap {cap}");
        } else {
            assert!(
                matches!(seen.outcome, SearchOutcome::Truncated { explored } if explored > 0),
                "{label}: cap {cap} below the pool must truncate"
            );
        }
    }
}

#[test]
fn mapper_visitor_matches_the_collector_for_every_selection() {
    let selections = [
        MapperSelection::Auto,
        MapperSelection::Exhaustive,
        MapperSelection::Filtered(FdlsConfig::default()),
        MapperSelection::Filtered(FdlsConfig::exhaustive()),
    ];
    for selection in selections {
        for (p, pattern) in patterns() {
            for (t, target) in targets() {
                check(
                    &format!("mapper {selection:?} {p}@{t}"),
                    |cap, f| mapper::for_each_embedding(&pattern, &target, cap, selection, f),
                    |cap| mapper::enumerate_embeddings(&pattern, &target, cap, selection),
                );
            }
        }
    }
}

#[test]
fn empty_and_oversized_patterns_visit_like_they_collect() {
    let empty = Topology::new(0, &[]);
    let target = presets::line(3);
    let filtered = MapperSelection::Filtered(FdlsConfig::default());
    for selection in [EXHAUSTIVE, filtered] {
        for cap in [0, 1, usize::MAX] {
            let seen = visited(|f| mapper::for_each_embedding(&empty, &target, cap, selection, f));
            assert_eq!(
                seen,
                mapper::enumerate_embeddings(&empty, &target, cap, selection)
            );
        }
        let big = presets::line(5);
        let seen = visited(|f| {
            mapper::for_each_embedding(&big, &presets::line(4), usize::MAX, selection, f)
        });
        assert!(seen.embeddings.is_empty() && seen.outcome == SearchOutcome::Complete);
    }
}

/// Pool size, FNV-1a hash of the embedding sequence, and `explored`.
type Fingerprint = (usize, u64, Option<u64>);

fn fingerprint(set: &EmbeddingSet) -> Fingerprint {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for phi in &set.embeddings {
        for &q in phi.iter().chain([u32::MAX].iter()) {
            for b in q.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let explored = match set.outcome {
        SearchOutcome::Complete => None,
        SearchOutcome::Truncated { explored } => Some(explored),
    };
    (set.embeddings.len(), h, explored)
}

/// ESP ties are broken by enumeration order, so the order is part of the
/// mapping contract. These fingerprints were taken from the collecting
/// search that predates the visitor; any change to the order, the cap
/// point or the `explored` count shows up here. The `vf2` rows were taken
/// from the exhaustive VF2 engine that preceded the single search; the
/// last three of them are the footprint patterns the `compile-scaling`
/// benchmark's diversify step searches (its devices and calibrations, at
/// its 200,000 cap where it applies one).
#[test]
fn enumeration_order_is_pinned() {
    let star = Topology::new(4, &[(0, 1), (0, 2), (0, 3)]);
    let isolated = Topology::new(3, &[(0, 1)]);
    // ghz-12 as placed on tokyo20: a 12-qubit path, relabelled.
    let ghz12 = Topology::new(
        12,
        &[
            (0, 1),
            (1, 6),
            (2, 3),
            (2, 5),
            (3, 8),
            (4, 7),
            (4, 8),
            (5, 9),
            (6, 7),
            (9, 10),
            (10, 11),
        ],
    );
    // qaoa-ring-10 as placed on tokyo20: a 10-cycle, relabelled.
    let ring10 = Topology::new(
        10,
        &[
            (0, 1),
            (0, 4),
            (1, 6),
            (2, 3),
            (2, 5),
            (3, 8),
            (4, 9),
            (5, 9),
            (6, 7),
            (7, 8),
        ],
    );
    // BV-6 with secret 0b100100 on melbourne14: a 2-leaf star plus the
    // four idle data qubits as isolated vertices.
    let bv6_sparse = Topology::new(7, &[(0, 1), (0, 6)]);
    let line = presets::line;
    let vf2 = |p: &Topology, t: &Topology, cap| mapper::enumerate_embeddings(p, t, cap, EXHAUSTIVE);
    let fdls_default = |p: &Topology, t: &Topology, cap| {
        mapper::enumerate_embeddings(p, t, cap, MapperSelection::Filtered(FdlsConfig::default()))
    };
    let fdls_all = |p: &Topology, t: &Topology| {
        let all = MapperSelection::Filtered(FdlsConfig::exhaustive());
        mapper::enumerate_embeddings(p, t, usize::MAX, all)
    };
    let cases: Vec<(&str, EmbeddingSet, Fingerprint)> = vec![
        (
            "vf2 line-5@tokyo20",
            vf2(&line(5), &presets::tokyo20(), usize::MAX),
            (3200, 0x3e2f48506be81d4d, None),
        ),
        (
            "vf2 line-7@tokyo20 cap 5000",
            vf2(&line(7), &presets::tokyo20(), 5000),
            (5000, 0x25e4b816c2930f7b, Some(7938)),
        ),
        (
            "vf2 ring-6@melbourne14",
            vf2(&presets::ring(6), &presets::melbourne14(), usize::MAX),
            (48, 0x71fb4830a13c8825, None),
        ),
        (
            "vf2 star-4@falcon27",
            vf2(&star, &presets::falcon27(), usize::MAX),
            (48, 0x1358feda61c911fd, None),
        ),
        (
            "vf2 isolated@melbourne14",
            vf2(&isolated, &presets::melbourne14(), usize::MAX),
            (432, 0x948b5f9f75abe0f5, None),
        ),
        (
            "fdls default line-10@eagle127",
            fdls_default(&line(10), &presets::eagle127(), usize::MAX),
            (2672, 0x32ce58a6f060ae5d, None),
        ),
        (
            "fdls default line-10@eagle127 cap 64",
            fdls_default(&line(10), &presets::eagle127(), 64),
            (64, 0xe34439d16436ea1f, Some(283)),
        ),
        (
            "fdls default star-4@hummingbird65",
            fdls_default(&star, &presets::hummingbird65(), usize::MAX),
            (96, 0x5cf182601179e435, None),
        ),
        (
            "fdls exhaustive line-4@tokyo20",
            fdls_all(&line(4), &presets::tokyo20()),
            (1042, 0x52ba0b4719885db5, None),
        ),
        (
            "fdls exhaustive isolated@falcon27",
            fdls_all(&isolated, &presets::falcon27()),
            (1400, 0xe3e1a125e26fc1d5, None),
        ),
        (
            "vf2 ghz-12@tokyo20 cap 200000",
            vf2(&ghz12, &presets::tokyo20(), 200_000),
            (200_000, 0xb6a0a85653618df5, Some(430_079)),
        ),
        (
            "vf2 qaoa-ring-10@tokyo20",
            vf2(&ring10, &presets::tokyo20(), usize::MAX),
            (40_240, 0x47dbcb1661558c9d, None),
        ),
        (
            "vf2 bv-6-sparse@melbourne14 cap 200000",
            vf2(&bv6_sparse, &presets::melbourne14(), 200_000),
            (200_000, 0x4a2ea57516c058a4, Some(228_102)),
        ),
    ];
    for (label, set, want) in &cases {
        assert_eq!(fingerprint(set), *want, "{label}");
    }
}
