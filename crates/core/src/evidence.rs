//! Score-weighted evidence aggregation — the paper's "aggregation methods
//! are flexible" hook (Section IV-C) made concrete.
//!
//! Instead of one flat vote per sample, a node accumulates the **density
//! score of the block that contained it** in each sample: being found in a
//! φ = 1.8 quasi-clique is stronger evidence than being swept into a
//! φ = 0.3 fringe block. Thresholding accumulated evidence gives an
//! alternative, fully continuous operating curve; [`VoteTally`] remains the
//! paper's Definition 4.
//!
//! [`VoteTally`]: crate::aggregate::VoteTally

use ensemfdet_graph::{MerchantId, UserId};
use serde::{Deserialize, Serialize};

/// Accumulated block-score evidence per node in the parent id space.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvidenceTally {
    /// Summed block scores per user.
    pub user_evidence: Vec<f64>,
    /// Summed block scores per merchant.
    pub merchant_evidence: Vec<f64>,
    /// Number of contributing samples.
    pub num_samples: usize,
}

impl EvidenceTally {
    /// An empty tally for a graph of the given dimensions.
    pub fn new(num_users: usize, num_merchants: usize) -> Self {
        EvidenceTally {
            user_evidence: vec![0.0; num_users],
            merchant_evidence: vec![0.0; num_merchants],
            num_samples: 0,
        }
    }

    /// Registers one sample's detections with their block scores.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite block score.
    pub fn add_sample(
        &mut self,
        users: impl IntoIterator<Item = (UserId, f64)>,
        merchants: impl IntoIterator<Item = (MerchantId, f64)>,
    ) {
        for (u, score) in users {
            assert!(score.is_finite() && score >= 0.0, "bad block score {score}");
            self.user_evidence[u.index()] += score;
        }
        for (v, score) in merchants {
            assert!(score.is_finite() && score >= 0.0, "bad block score {score}");
            self.merchant_evidence[v.index()] += score;
        }
        self.num_samples += 1;
    }

    /// Merges another tally (parallel shard) into this one.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &EvidenceTally) {
        assert_eq!(self.user_evidence.len(), other.user_evidence.len());
        assert_eq!(self.merchant_evidence.len(), other.merchant_evidence.len());
        for (a, b) in self.user_evidence.iter_mut().zip(&other.user_evidence) {
            *a += b;
        }
        for (a, b) in self
            .merchant_evidence
            .iter_mut()
            .zip(&other.merchant_evidence)
        {
            *a += b;
        }
        self.num_samples += other.num_samples;
    }

    /// Users whose accumulated evidence strictly exceeds `min_evidence`.
    pub fn detected_users(&self, min_evidence: f64) -> Vec<UserId> {
        self.user_evidence
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e > min_evidence)
            .map(|(i, _)| UserId(i as u32))
            .collect()
    }

    /// Merchants whose accumulated evidence strictly exceeds `min_evidence`.
    pub fn detected_merchants(&self, min_evidence: f64) -> Vec<MerchantId> {
        self.merchant_evidence
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e > min_evidence)
            .map(|(i, _)| MerchantId(i as u32))
            .collect()
    }

    /// Evidence values as scores for `ensemfdet_eval`-style sweeps.
    pub fn user_scores(&self) -> &[f64] {
        &self.user_evidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally() -> EvidenceTally {
        let mut t = EvidenceTally::new(3, 2);
        t.add_sample(
            [(UserId(0), 1.5), (UserId(1), 0.4)],
            [(MerchantId(0), 1.5)],
        );
        t.add_sample([(UserId(0), 0.9)], [(MerchantId(1), 0.9)]);
        t
    }

    #[test]
    fn evidence_accumulates() {
        let t = tally();
        assert!((t.user_evidence[0] - 2.4).abs() < 1e-12);
        assert!((t.user_evidence[1] - 0.4).abs() < 1e-12);
        assert_eq!(t.user_evidence[2], 0.0);
        assert_eq!(t.num_samples, 2);
    }

    #[test]
    fn detection_threshold_is_strict() {
        let t = tally();
        assert_eq!(t.detected_users(0.0).len(), 2);
        assert_eq!(t.detected_users(0.5), vec![UserId(0)]);
        assert!(t.detected_users(3.0).is_empty());
        assert_eq!(t.detected_merchants(1.0), vec![MerchantId(0)]);
    }

    #[test]
    fn detection_is_monotone_in_threshold() {
        let t = tally();
        let mut prev = usize::MAX;
        for cut in [0.0, 0.5, 1.0, 2.0, 3.0] {
            let n = t.detected_users(cut).len();
            assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = EvidenceTally::new(3, 2);
        a.add_sample(
            [(UserId(0), 1.5), (UserId(1), 0.4)],
            [(MerchantId(0), 1.5)],
        );
        let mut b = EvidenceTally::new(3, 2);
        b.add_sample([(UserId(0), 0.9)], [(MerchantId(1), 0.9)]);
        a.merge(&b);
        assert_eq!(a, tally());
    }

    #[test]
    #[should_panic(expected = "bad block score")]
    fn negative_score_rejected() {
        let mut t = EvidenceTally::new(1, 1);
        t.add_sample([(UserId(0), -1.0)], []);
    }
}
