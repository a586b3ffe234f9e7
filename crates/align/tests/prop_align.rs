//! Property-based tests of the sequence-alignment engine: structural
//! invariants that must hold for every input, plus agreement with a naive
//! oracle on small instances.

use darm_align::{global_align, AlignStep};
use proptest::prelude::*;

fn score(a: &u8, b: &u8) -> Option<i64> {
    (a == b).then_some(2)
}

/// Every index of both sequences appears exactly once, in increasing order.
fn check_cover(steps: &[AlignStep], n: usize, m: usize) {
    let mut ai = Vec::new();
    let mut bj = Vec::new();
    for s in steps {
        match *s {
            AlignStep::Match(i, j) => {
                ai.push(i);
                bj.push(j);
            }
            AlignStep::GapA(i) => ai.push(i),
            AlignStep::GapB(j) => bj.push(j),
        }
    }
    assert_eq!(ai, (0..n).collect::<Vec<_>>());
    assert_eq!(bj, (0..m).collect::<Vec<_>>());
}

/// Exhaustive best global alignment score for tiny instances.
fn oracle_global(a: &[u8], b: &[u8], gap: i64) -> i64 {
    fn go(a: &[u8], b: &[u8], gap: i64) -> i64 {
        match (a.first(), b.first()) {
            (None, None) => 0,
            (Some(_), None) => gap * a.len() as i64,
            (None, Some(_)) => gap * b.len() as i64,
            (Some(&x), Some(&y)) => {
                let mut best = go(&a[1..], b, gap) + gap;
                best = best.max(go(a, &b[1..], gap) + gap);
                if x == y {
                    best = best.max(go(&a[1..], &b[1..], gap) + 2);
                }
                best
            }
        }
    }
    go(a, b, gap)
}

proptest! {
    #[test]
    fn global_alignment_covers_all_indices(
        a in proptest::collection::vec(0u8..5, 0..20),
        b in proptest::collection::vec(0u8..5, 0..20),
    ) {
        let (_, steps) = global_align(&a, &b, score, -1);
        check_cover(&steps, a.len(), b.len());
    }

    #[test]
    fn matches_are_strictly_monotone(
        a in proptest::collection::vec(0u8..3, 0..16),
        b in proptest::collection::vec(0u8..3, 0..16),
    ) {
        let (_, steps) = global_align(&a, &b, score, 0);
        let matches: Vec<(usize, usize)> = steps
            .iter()
            .filter_map(|s| match s {
                AlignStep::Match(i, j) => Some((*i, *j)),
                _ => None,
            })
            .collect();
        for w in matches.windows(2) {
            prop_assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        // matched pairs really are equal under the score function
        for (i, j) in matches {
            prop_assert_eq!(a[i], b[j]);
        }
    }

    #[test]
    fn global_score_matches_oracle(
        a in proptest::collection::vec(0u8..3, 0..7),
        b in proptest::collection::vec(0u8..3, 0..7),
    ) {
        let (s, _) = global_align(&a, &b, score, -1);
        prop_assert_eq!(s, oracle_global(&a, &b, -1));
    }

    #[test]
    fn identical_sequences_score_perfectly(a in proptest::collection::vec(0u8..5, 0..24)) {
        let (s, steps) = global_align(&a, &a, score, -1);
        prop_assert_eq!(s, 2 * a.len() as i64);
        prop_assert!(steps.iter().all(|st| matches!(st, AlignStep::Match(i, j) if i == j)));
    }

    #[test]
    fn alignment_is_symmetric_in_score(
        a in proptest::collection::vec(0u8..4, 0..12),
        b in proptest::collection::vec(0u8..4, 0..12),
    ) {
        let (s1, _) = global_align(&a, &b, score, -1);
        let (s2, _) = global_align(&b, &a, score, -1);
        prop_assert_eq!(s1, s2);
    }
}
