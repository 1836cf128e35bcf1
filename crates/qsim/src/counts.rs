//! Shot-count records produced by simulator runs.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The widest classical register a histogram key (a `u64`) can hold.
pub const MAX_CLBITS: u32 = 63;

/// A histogram of measured classical outcomes.
///
/// Outcomes are stored as integers: bit `c` of the key is the value measured
/// into classical bit `c`. [`format_bitstring`] renders keys with the highest
/// classical bit leftmost, matching the paper's notation (e.g. BV-6 key
/// `110011`).
///
/// # Examples
///
/// ```
/// use qsim::Counts;
/// let mut counts = Counts::new(3);
/// counts.record(0b101);
/// counts.record(0b101);
/// counts.record(0b010);
/// assert_eq!(counts.shots(), 3);
/// assert_eq!(counts.get(0b101), 2);
/// assert_eq!(counts.most_frequent(), Some(0b101));
/// assert!((counts.probability(0b010) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counts {
    num_clbits: u32,
    shots: u64,
    counts: BTreeMap<u64, u64>,
}

impl Counts {
    /// Creates an empty histogram over `num_clbits` classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_clbits > MAX_CLBITS`.
    pub fn new(num_clbits: u32) -> Self {
        assert!(
            num_clbits <= MAX_CLBITS,
            "at most {MAX_CLBITS} classical bits supported"
        );
        Counts {
            num_clbits,
            shots: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Number of classical bits per outcome.
    pub fn num_clbits(&self) -> u32 {
        self.num_clbits
    }

    /// Total number of recorded shots.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Records one observation of `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if `outcome` has bits set beyond `num_clbits`.
    pub fn record(&mut self, outcome: u64) {
        assert!(
            self.num_clbits == 63 || outcome < (1u64 << self.num_clbits),
            "outcome {outcome:#b} wider than {} classical bits",
            self.num_clbits
        );
        *self.counts.entry(outcome).or_insert(0) += 1;
        self.shots += 1;
    }

    /// Records `n` observations of `outcome` in one histogram update.
    ///
    /// Equivalent to calling [`Counts::record`] `n` times but O(1) in `n`,
    /// which is what makes merging per-slice histograms from the parallel
    /// executor constant time per distinct key instead of O(shots).
    ///
    /// # Panics
    ///
    /// Panics if `outcome` has bits set beyond `num_clbits`.
    pub fn record_n(&mut self, outcome: u64, n: u64) {
        assert!(
            self.num_clbits == 63 || outcome < (1u64 << self.num_clbits),
            "outcome {outcome:#b} wider than {} classical bits",
            self.num_clbits
        );
        if n == 0 {
            return;
        }
        *self.counts.entry(outcome).or_insert(0) += n;
        self.shots += n;
    }

    /// Merges another histogram's observations into this one.
    ///
    /// Constant time per distinct outcome in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the histograms cover different classical-bit widths.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsim::Counts;
    /// let mut a = Counts::new(2);
    /// a.record(0b01);
    /// let mut b = Counts::new(2);
    /// b.record_n(0b01, 2);
    /// b.record(0b10);
    /// a.merge_from(&b);
    /// assert_eq!(a.shots(), 4);
    /// assert_eq!(a.get(0b01), 3);
    /// ```
    pub fn merge_from(&mut self, other: &Counts) {
        assert_eq!(
            self.num_clbits, other.num_clbits,
            "cannot merge histograms over different classical-bit widths"
        );
        for (outcome, n) in other.iter() {
            *self.counts.entry(outcome).or_insert(0) += n;
        }
        self.shots += other.shots;
    }

    /// Number of times `outcome` was observed.
    pub fn get(&self, outcome: u64) -> u64 {
        self.counts.get(&outcome).copied().unwrap_or(0)
    }

    /// Empirical probability of `outcome` (0 if no shots recorded).
    pub fn probability(&self, outcome: u64) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.get(outcome) as f64 / self.shots as f64
        }
    }

    /// Iterates over `(outcome, count)` pairs in ascending outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of distinct outcomes observed.
    pub fn num_outcomes(&self) -> usize {
        self.counts.len()
    }

    /// The most frequently observed outcome (smallest key wins ties), or
    /// `None` if no shots were recorded.
    pub fn most_frequent(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, _)| k)
    }

    /// Converts to a normalized probability map.
    pub fn to_probabilities(&self) -> BTreeMap<u64, f64> {
        let total = self.shots.max(1) as f64;
        self.counts
            .iter()
            .map(|(&k, &v)| (k, v as f64 / total))
            .collect()
    }

    /// Renders `outcome` as a bitstring of width [`Counts::num_clbits`],
    /// highest classical bit leftmost.
    pub fn format_outcome(&self, outcome: u64) -> String {
        format_bitstring(outcome, self.num_clbits)
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counts({} shots)", self.shots)?;
        for (k, v) in &self.counts {
            writeln!(f, "  {}: {}", format_bitstring(*k, self.num_clbits), v)?;
        }
        Ok(())
    }
}

impl Extend<u64> for Counts {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for outcome in iter {
            self.record(outcome);
        }
    }
}

/// Renders an outcome as a fixed-width bitstring, highest bit leftmost.
///
/// # Examples
///
/// ```
/// use qsim::counts::format_bitstring;
/// assert_eq!(format_bitstring(0b110011, 6), "110011");
/// assert_eq!(format_bitstring(0b1, 4), "0001");
/// ```
pub fn format_bitstring(outcome: u64, width: u32) -> String {
    (0..width)
        .rev()
        .map(|b| if outcome >> b & 1 == 1 { '1' } else { '0' })
        .collect()
}

/// Parses a bitstring in the paper's notation back to an outcome key.
///
/// # Examples
///
/// ```
/// use qsim::counts::parse_bitstring;
/// assert_eq!(parse_bitstring("110011").unwrap(), 0b110011);
/// assert!(parse_bitstring("12").is_none());
/// ```
pub fn parse_bitstring(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 63 {
        return None;
    }
    let mut v = 0u64;
    for ch in s.chars() {
        v = (v << 1)
            | match ch {
                '0' => 0,
                '1' => 1,
                _ => return None,
            };
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_counts() {
        let c = Counts::new(4);
        assert_eq!(c.shots(), 0);
        assert_eq!(c.most_frequent(), None);
        assert_eq!(c.probability(0), 0.0);
        assert_eq!(c.num_outcomes(), 0);
    }

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(2);
        c.extend([0b00, 0b11, 0b11, 0b01]);
        assert_eq!(c.shots(), 4);
        assert_eq!(c.get(0b11), 2);
        assert_eq!(c.get(0b10), 0);
        assert_eq!(c.most_frequent(), Some(0b11));
        assert_eq!(c.num_outcomes(), 3);
        assert!((c.probability(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut c = Counts::new(2);
        c.extend([0b01, 0b10]);
        // Ties resolve to the smaller key.
        assert_eq!(c.most_frequent(), Some(0b01));
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn record_rejects_wide_outcome() {
        let mut c = Counts::new(2);
        c.record(0b100);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Counts::new(3);
        bulk.record_n(0b101, 4);
        bulk.record_n(0b010, 0); // zero observations change nothing
        let mut single = Counts::new(3);
        for _ in 0..4 {
            single.record(0b101);
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.get(0b010), 0);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn record_n_rejects_wide_outcome_even_for_zero() {
        let mut c = Counts::new(2);
        c.record_n(0b100, 0);
    }

    #[test]
    fn merge_from_adds_all_observations() {
        let mut a = Counts::new(2);
        a.extend([0b00, 0b11]);
        let mut b = Counts::new(2);
        b.extend([0b11, 0b01, 0b11]);
        a.merge_from(&b);
        assert_eq!(a.shots(), 5);
        assert_eq!(a.get(0b11), 3);
        assert_eq!(a.get(0b01), 1);
        // Merging an empty histogram is a no-op.
        a.merge_from(&Counts::new(2));
        assert_eq!(a.shots(), 5);
    }

    #[test]
    #[should_panic(expected = "different classical-bit widths")]
    fn merge_from_rejects_width_mismatch() {
        let mut a = Counts::new(2);
        a.merge_from(&Counts::new(3));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut c = Counts::new(3);
        c.extend([1, 2, 3, 3, 7, 0]);
        let total: f64 = c.to_probabilities().values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bitstring_roundtrip() {
        for v in [0u64, 1, 0b101, 0b110011] {
            let s = format_bitstring(v, 6);
            assert_eq!(s.len(), 6);
            assert_eq!(parse_bitstring(&s), Some(v));
        }
        assert_eq!(parse_bitstring(""), None);
        assert_eq!(parse_bitstring("01a"), None);
    }

    #[test]
    fn format_outcome_uses_width() {
        let c = Counts::new(5);
        assert_eq!(c.format_outcome(0b11), "00011");
    }

    #[test]
    fn display_contains_shots_and_rows() {
        let mut c = Counts::new(2);
        c.extend([0b10, 0b10]);
        let s = c.to_string();
        assert!(s.contains("2 shots"));
        assert!(s.contains("10: 2"));
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        let mut c = Counts::new(6);
        c.record_n(0b110011, 1000);
        c.record_n(0b000001, 3);
        c.record(0);
        let json = serde_json::to_string(&c).unwrap();
        let restored: Counts = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, c);
        assert_eq!(restored.num_clbits(), 6);
        assert_eq!(restored.shots(), 1004);
    }

    #[test]
    fn serde_roundtrip_merges_bit_identically() {
        // The service result store persists histograms and merges them after
        // restore; merging restored copies must equal merging the originals.
        let mut a = Counts::new(4);
        a.record_n(0b1010, 7);
        a.record_n(0b0001, 2);
        let mut b = Counts::new(4);
        b.record_n(0b1010, 5);
        b.record_n(0b1111, 1);

        let mut direct = a.clone();
        direct.merge_from(&b);

        let ra: Counts = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        let rb: Counts = serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
        let mut via_serde = ra;
        via_serde.merge_from(&rb);

        assert_eq!(via_serde, direct);
        assert_eq!(via_serde.get(0b1010), 12);
        assert_eq!(via_serde.shots(), 15);
    }

    #[test]
    fn serde_roundtrip_empty_histogram() {
        let c = Counts::new(0);
        let restored: Counts = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(restored, c);
        assert_eq!(restored.shots(), 0);
    }
}
