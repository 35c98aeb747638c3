//! Majority-vote aggregation (Definition 4).
//!
//! Each sampled run contributes one vote (`h_i(u) ∈ {0, 1}`) for every node
//! it detects; a node is accepted iff its vote count reaches the threshold
//! `T`. The tally keeps raw counts, so one ensemble run yields the entire
//! `T`-sweep of Figure 9 for free — and the accepted set is monotone
//! (non-increasing) in `T`, which is what makes the detection size
//! controllable in practice.

use ensemfdet_graph::{MerchantId, UserId};
use serde::{Deserialize, Serialize};

/// Vote counts per node in the parent graph's id space.
///
/// ```
/// use ensemfdet::aggregate::VoteTally;
/// use ensemfdet_graph::{UserId, MerchantId};
///
/// let mut tally = VoteTally::new(3, 1);
/// tally.add_sample([UserId(0), UserId(1)], [MerchantId(0)]);
/// tally.add_sample([UserId(0)], []);
/// assert_eq!(tally.detected_users(2), vec![UserId(0)]);
/// assert_eq!(tally.user_detection_curve(), vec![2, 1]);
/// assert_eq!(tally.threshold_for_budget(1), Some(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VoteTally {
    /// Votes per user id.
    pub user_votes: Vec<u32>,
    /// Votes per merchant id.
    pub merchant_votes: Vec<u32>,
    /// Number of sampled runs that voted (`N`).
    pub num_samples: usize,
}

impl VoteTally {
    /// An empty tally for a graph of the given dimensions.
    pub fn new(num_users: usize, num_merchants: usize) -> Self {
        VoteTally {
            user_votes: vec![0; num_users],
            merchant_votes: vec![0; num_merchants],
            num_samples: 0,
        }
    }

    /// Registers one sample's detected sets (parent-space ids).
    pub fn add_sample(&mut self, users: impl IntoIterator<Item = UserId>, merchants: impl IntoIterator<Item = MerchantId>) {
        for u in users {
            self.user_votes[u.index()] += 1;
        }
        for v in merchants {
            self.merchant_votes[v.index()] += 1;
        }
        self.num_samples += 1;
    }

    /// Merges another tally (e.g. from a parallel shard) into this one.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &VoteTally) {
        assert_eq!(self.user_votes.len(), other.user_votes.len());
        assert_eq!(self.merchant_votes.len(), other.merchant_votes.len());
        for (a, b) in self.user_votes.iter_mut().zip(&other.user_votes) {
            *a += b;
        }
        for (a, b) in self.merchant_votes.iter_mut().zip(&other.merchant_votes) {
            *a += b;
        }
        self.num_samples += other.num_samples;
    }

    /// `H(u) = accept` users: vote count ≥ `threshold`. `threshold = 0`
    /// accepts every user (including never-voted ones) and is rejected.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    pub fn detected_users(&self, threshold: u32) -> Vec<UserId> {
        assert!(threshold > 0, "threshold T must be at least 1");
        self.user_votes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v >= threshold)
            .map(|(i, _)| UserId(i as u32))
            .collect()
    }

    /// Accepted merchants at the given threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    pub fn detected_merchants(&self, threshold: u32) -> Vec<MerchantId> {
        assert!(threshold > 0, "threshold T must be at least 1");
        self.merchant_votes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v >= threshold)
            .map(|(i, _)| MerchantId(i as u32))
            .collect()
    }

    /// Largest user vote count (the useful upper end of a `T` sweep).
    pub fn max_user_votes(&self) -> u32 {
        self.user_votes.iter().copied().max().unwrap_or(0)
    }

    /// Number of users that would be detected at each threshold
    /// `T = 1..=max`: index `t-1` holds the count for threshold `t`.
    /// Computed in one pass via a reverse cumulative histogram.
    pub fn user_detection_curve(&self) -> Vec<usize> {
        let max = self.max_user_votes() as usize;
        if max == 0 {
            return Vec::new();
        }
        let mut hist = vec![0usize; max + 1];
        for &v in &self.user_votes {
            hist[v as usize] += 1;
        }
        // suffix[t] = #users with votes >= t.
        let mut out = vec![0usize; max];
        let mut acc = 0usize;
        for t in (1..=max).rev() {
            acc += hist[t];
            out[t - 1] = acc;
        }
        out
    }

    /// The ensemble's operating points: `(T, accepted user ids)` for
    /// every threshold `T = 1..=max` — the sets a precision–recall or ROC
    /// sweep over `T` consumes.
    pub fn user_threshold_sets(&self) -> Vec<(u32, Vec<u32>)> {
        (1..=self.max_user_votes())
            .map(|t| (t, self.detected_users(t).into_iter().map(|u| u.0).collect()))
            .collect()
    }

    /// Vote counts as fraud scores in `[0, 1]` (votes / N) — lets the
    /// ensemble plug into score-based evaluation like the SVD baselines.
    pub fn user_scores(&self) -> Vec<f64> {
        let n = self.num_samples.max(1) as f64;
        self.user_votes.iter().map(|&v| v as f64 / n).collect()
    }

    /// The smallest threshold `T ≥ 1` whose detected-user count does not
    /// exceed `budget` — the paper's "control the scope of returned
    /// suspicious nodes" made operational: hand it a manual-review
    /// capacity, get the `T` to run at. Returns `None` if even the maximum
    /// threshold floods the budget.
    pub fn threshold_for_budget(&self, budget: usize) -> Option<u32> {
        let curve = self.user_detection_curve();
        // curve[t-1] = detected at threshold t, non-increasing in t.
        for (i, &count) in curve.iter().enumerate() {
            if count <= budget {
                return Some(i as u32 + 1);
            }
        }
        if curve.is_empty() {
            // No votes at all: T = 1 detects nothing, which fits any budget
            // — including `usize::MAX` (the gate that used to exclude it
            // made an unlimited budget the one budget that "overflowed").
            return Some(1);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally() -> VoteTally {
        let mut t = VoteTally::new(4, 3);
        t.add_sample([UserId(0), UserId(1)], [MerchantId(0)]);
        t.add_sample([UserId(0)], [MerchantId(0), MerchantId(2)]);
        t.add_sample([UserId(0), UserId(2)], []);
        t
    }

    #[test]
    fn votes_accumulate() {
        let t = tally();
        assert_eq!(t.user_votes, vec![3, 1, 1, 0]);
        assert_eq!(t.merchant_votes, vec![2, 0, 1]);
        assert_eq!(t.num_samples, 3);
    }

    #[test]
    fn threshold_filters_users() {
        let t = tally();
        assert_eq!(t.detected_users(1).len(), 3);
        assert_eq!(t.detected_users(2), vec![UserId(0)]);
        assert_eq!(t.detected_users(3), vec![UserId(0)]);
        assert!(t.detected_users(4).is_empty());
        assert_eq!(t.detected_merchants(2), vec![MerchantId(0)]);
    }

    #[test]
    fn detection_is_monotone_in_threshold() {
        let t = tally();
        let mut prev = usize::MAX;
        for thr in 1..=4 {
            let n = t.detected_users(thr).len();
            assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_rejected() {
        tally().detected_users(0);
    }

    #[test]
    fn detection_curve_matches_direct_counts() {
        let t = tally();
        let curve = t.user_detection_curve();
        assert_eq!(curve.len(), t.max_user_votes() as usize);
        for (i, &c) in curve.iter().enumerate() {
            assert_eq!(c, t.detected_users(i as u32 + 1).len());
        }
        let sets = t.user_threshold_sets();
        assert_eq!(sets.len(), curve.len());
        for (i, (threshold, users)) in sets.iter().enumerate() {
            assert_eq!(*threshold, i as u32 + 1);
            assert_eq!(users.len(), curve[i]);
        }
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = VoteTally::new(4, 3);
        a.add_sample([UserId(0), UserId(1)], [MerchantId(0)]);
        let mut b = VoteTally::new(4, 3);
        b.add_sample([UserId(0)], [MerchantId(0), MerchantId(2)]);
        b.add_sample([UserId(0), UserId(2)], []);
        a.merge(&b);
        assert_eq!(a, tally());
    }

    #[test]
    fn scores_are_normalized_votes() {
        let t = tally();
        let s = t.user_scores();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s[3], 0.0);
    }

    #[test]
    fn threshold_for_budget_picks_smallest_fitting_t() {
        let t = tally(); // votes [3,1,1,0] → curve [3,1,1]
        assert_eq!(t.threshold_for_budget(10), Some(1));
        assert_eq!(t.threshold_for_budget(3), Some(1));
        assert_eq!(t.threshold_for_budget(2), Some(2));
        assert_eq!(t.threshold_for_budget(1), Some(2));
        assert_eq!(t.threshold_for_budget(0), None);
        // The returned threshold actually honours the budget.
        for budget in 0..5 {
            if let Some(thr) = t.threshold_for_budget(budget) {
                assert!(t.detected_users(thr).len() <= budget);
            }
        }
    }

    #[test]
    fn threshold_for_budget_on_empty_tally() {
        let t = VoteTally::new(3, 0);
        assert_eq!(t.threshold_for_budget(0), Some(1));
    }

    #[test]
    fn threshold_for_budget_unlimited_budget_on_empty_curve() {
        // Regression: the empty-curve branch was gated on
        // `budget < usize::MAX`, so exactly the unlimited budget returned
        // `None` while every smaller budget returned `Some(1)`.
        let t = VoteTally::new(3, 4);
        assert!(t.user_detection_curve().is_empty());
        assert_eq!(t.threshold_for_budget(usize::MAX), Some(1));
        assert_eq!(t.threshold_for_budget(usize::MAX - 1), Some(1));
    }

    #[test]
    fn empty_tally() {
        let t = VoteTally::new(2, 2);
        assert_eq!(t.max_user_votes(), 0);
        assert!(t.user_detection_curve().is_empty());
        assert!(t.detected_users(1).is_empty());
    }
}
