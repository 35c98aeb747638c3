//! Confusion counts and the derived Precision / Recall / F1.
//!
//! Accuracy is intentionally not offered: with fraud prevalence of 0.7–5%
//! (Table I) it is dominated by true negatives and carries no signal — the
//! paper makes the same point in Section V-B1.

use serde::{Deserialize, Serialize};

/// Binary-classification confusion counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Detected and blacklisted.
    pub tp: usize,
    /// Detected but not blacklisted.
    pub fp: usize,
    /// Blacklisted but not detected.
    pub fn_: usize,
    /// Neither.
    pub tn: usize,
}

impl Confusion {
    /// Precision `tp / (tp + fp)`; 0 when nothing was detected.
    pub fn precision(&self) -> f64 {
        let det = self.tp + self.fp;
        if det == 0 {
            0.0
        } else {
            self.tp as f64 / det as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 0 when the ground truth is empty.
    pub fn recall(&self) -> f64 {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            0.0
        } else {
            self.tp as f64 / pos as f64
        }
    }

    /// F1, the harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Number of detected items.
    pub fn detected(&self) -> usize {
        self.tp + self.fp
    }
}

/// Builds confusion counts from a detected index set and a label vector
/// (`labels[i] == true` ⇔ item `i` is blacklisted).
///
/// Detected indexes must be in range and duplicate-free (sorted not
/// required).
///
/// # Panics
///
/// Panics if a detected index is out of range (duplicates double-count and
/// are a caller bug; they are debug-asserted).
pub fn confusion(detected: &[u32], labels: &[bool]) -> Confusion {
    #[cfg(debug_assertions)]
    {
        let set: std::collections::HashSet<u32> = detected.iter().copied().collect();
        debug_assert_eq!(set.len(), detected.len(), "duplicate detected indexes");
    }
    let mut c = Confusion::default();
    let mut hit = vec![false; labels.len()];
    for &d in detected {
        let d = d as usize;
        assert!(d < labels.len(), "detected index {d} out of range");
        hit[d] = true;
        if labels[d] {
            c.tp += 1;
        } else {
            c.fp += 1;
        }
    }
    for (i, &l) in labels.iter().enumerate() {
        if !hit[i] {
            if l {
                c.fn_ += 1;
            } else {
                c.tn += 1;
            }
        }
    }
    c
}

/// The one threshold sweep behind every score-based curve: each distinct
/// positive value of `scores` as a `score ≥ t` cut, from the strictest to
/// the loosest, with its confusion counts. Tied scores enter together, and
/// a score ≤ 0 ("no evidence") is never flagged — sweeping past it would
/// declare the whole population detected.
///
/// # Panics
///
/// Panics if the lengths differ or a score is NaN.
pub(crate) fn score_sweep(scores: &[f64], labels: &[bool]) -> Vec<(f64, Confusion)> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let total_pos = labels.iter().filter(|&&l| l).count();
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("scores must not be NaN")
            .then(a.cmp(&b))
    });
    let mut sweep = Vec::new();
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0usize;
    while i < order.len() {
        let t = scores[order[i]];
        if t <= 0.0 {
            break;
        }
        // Consume the whole tie group.
        while i < order.len() && scores[order[i]] == t {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        let c = Confusion {
            tp,
            fp,
            fn_: total_pos - tp,
            tn: labels.len() - total_pos - fp,
        };
        sweep.push((t, c));
    }
    sweep
}

/// Group-level recall: the fraction of fraud *groups* considered caught,
/// where a group counts as caught when at least `member_fraction` of its
/// members appear in `detected`. Risk-control teams act on groups (block
/// the ring, claw back the discounts), so catching 60% of a ring is
/// operationally equivalent to catching all of it — a per-account recall
/// of 0.6 can mean 100% of groups neutralized.
///
/// # Panics
///
/// Panics if `member_fraction ∉ (0, 1]` or any group is empty.
pub fn group_recall(groups: &[Vec<u32>], detected: &[u32], member_fraction: f64) -> f64 {
    assert!(
        member_fraction > 0.0 && member_fraction <= 1.0,
        "member_fraction must be in (0, 1]"
    );
    if groups.is_empty() {
        return 0.0;
    }
    let detected: std::collections::HashSet<u32> = detected.iter().copied().collect();
    let caught = groups
        .iter()
        .filter(|g| {
            assert!(!g.is_empty(), "empty fraud group");
            let hits = g.iter().filter(|u| detected.contains(u)).count();
            hits as f64 >= member_fraction * g.len() as f64
        })
        .count();
    caught as f64 / groups.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection() {
        let labels = vec![true, false, true, false];
        let c = confusion(&[0, 2], &labels);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 0,
                fn_: 0,
                tn: 2
            }
        );
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn partial_detection() {
        let labels = vec![true, true, false, false, true];
        let c = confusion(&[0, 2], &labels);
        assert_eq!(c.tp, 1);
        assert_eq!(c.fp, 1);
        assert_eq!(c.fn_, 2);
        assert_eq!(c.tn, 1);
        assert_eq!(c.precision(), 0.5);
        assert!((c.recall() - 1.0 / 3.0).abs() < 1e-12);
        let f1 = 2.0 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0 / 3.0);
        assert!((c.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn empty_detection_has_zero_precision_without_nan() {
        let labels = vec![true, false];
        let c = confusion(&[], &labels);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.detected(), 0);
    }

    #[test]
    fn no_positives_in_ground_truth() {
        let labels = vec![false, false];
        let c = confusion(&[0], &labels);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.fp, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_detected_panics() {
        confusion(&[5], &[true, false]);
    }

    #[test]
    fn group_recall_counts_majority_caught_groups() {
        let groups = vec![vec![0, 1, 2, 3], vec![10, 11], vec![20, 21, 22]];
        // Group 1 fully caught, group 2 half caught, group 3 untouched.
        let detected = vec![0, 1, 2, 3, 10];
        assert_eq!(group_recall(&groups, &detected, 0.5), 2.0 / 3.0);
        assert_eq!(group_recall(&groups, &detected, 1.0), 1.0 / 3.0);
        assert_eq!(group_recall(&groups, &detected, 0.4), 2.0 / 3.0);
        assert_eq!(group_recall(&groups, &[], 0.5), 0.0);
        assert_eq!(group_recall(&[], &detected, 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "member_fraction")]
    fn group_recall_rejects_zero_fraction() {
        group_recall(&[vec![1]], &[1], 0.0);
    }

    #[test]
    fn counts_partition_population() {
        let labels = vec![true, false, true, false, false, true, false];
        let c = confusion(&[1, 2, 6], &labels);
        assert_eq!(c.tp + c.fp + c.fn_ + c.tn, labels.len());
    }
}
