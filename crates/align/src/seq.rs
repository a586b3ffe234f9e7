//! Generic pairwise sequence alignment.
//!
//! One dynamic program serves both uses in the paper: aligning the ordered
//! SESE subgraph chains of the two divergent paths (scored by `MP_S`), and
//! aligning the instruction sequences of two corresponding basic blocks
//! (scored by latency, as in Branch Fusion). The paper uses
//! Smith–Waterman; melding needs every element of both sequences placed,
//! so the global (Needleman–Wunsch) variant is the one provided.

/// One element of an alignment result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignStep {
    /// `a[i]` is aligned with `b[j]`.
    Match(usize, usize),
    /// `a[i]` is aligned with a gap.
    GapA(usize),
    /// `b[j]` is aligned with a gap.
    GapB(usize),
}

const NEG: i64 = i64::MIN / 4;

/// A `(n+1) × (m+1)` score matrix in a single allocation, row-strided.
///
/// The `Vec<Vec<i64>>` the DPs used previously cost one heap allocation per
/// row and an extra pointer chase per cell; this flat layout is one
/// allocation and pure index arithmetic.
struct FlatMatrix {
    cells: Vec<i64>,
    stride: usize,
}

impl FlatMatrix {
    fn new(n: usize, m: usize, fill: i64) -> FlatMatrix {
        FlatMatrix {
            cells: vec![fill; (n + 1) * (m + 1)],
            stride: m + 1,
        }
    }

    #[inline(always)]
    fn get(&self, i: usize, j: usize) -> i64 {
        self.cells[i * self.stride + j]
    }

    #[inline(always)]
    fn set(&mut self, i: usize, j: usize, v: i64) {
        self.cells[i * self.stride + j] = v;
    }
}

/// Global (Needleman–Wunsch) alignment of `a` and `b`.
///
/// `score(x, y)` returns `None` when the pair may not be matched at all,
/// otherwise the benefit of matching. `gap` is the (usually non-positive)
/// penalty per unmatched element. Returns the total score and the alignment
/// steps in order; every index of both sequences appears exactly once.
///
/// `score` is invoked exactly once per `(i, j)` cell: the fill pass records
/// each diagonal candidate so the traceback never re-scores.
pub fn global_align<T>(
    a: &[T],
    b: &[T],
    mut score: impl FnMut(&T, &T) -> Option<i64>,
    gap: i64,
) -> (i64, Vec<AlignStep>) {
    let (n, m) = (a.len(), b.len());
    // dp[i][j] = best score aligning a[..i] with b[..j];
    // diag[i][j] = dp[i-1][j-1] + score(a[i-1], b[j-1]), recorded for the
    // traceback (NEG when the pair may not match).
    let mut dp = FlatMatrix::new(n, m, 0);
    let mut diag = FlatMatrix::new(n, m, NEG);
    for i in 1..=n {
        dp.set(i, 0, dp.get(i - 1, 0) + gap);
    }
    for j in 1..=m {
        dp.set(0, j, dp.get(0, j - 1) + gap);
    }
    for i in 1..=n {
        for j in 1..=m {
            let d = match score(&a[i - 1], &b[j - 1]) {
                Some(s) => dp.get(i - 1, j - 1) + s,
                None => NEG,
            };
            diag.set(i, j, d);
            dp.set(
                i,
                j,
                d.max(dp.get(i - 1, j) + gap).max(dp.get(i, j - 1) + gap),
            );
        }
    }
    // Traceback over the recorded candidates.
    let mut steps = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        if i > 0 && j > 0 && dp.get(i, j) == diag.get(i, j) {
            steps.push(AlignStep::Match(i - 1, j - 1));
            i -= 1;
            j -= 1;
            continue;
        }
        if i > 0 && dp.get(i, j) == dp.get(i - 1, j) + gap {
            steps.push(AlignStep::GapA(i - 1));
            i -= 1;
        } else {
            steps.push(AlignStep::GapB(j - 1));
            j -= 1;
        }
    }
    steps.reverse();
    (dp.get(n, m), steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn char_score(a: &char, b: &char) -> Option<i64> {
        (a == b).then_some(2)
    }

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn matches(steps: &[AlignStep]) -> Vec<(usize, usize)> {
        steps
            .iter()
            .filter_map(|s| match s {
                AlignStep::Match(i, j) => Some((*i, *j)),
                _ => None,
            })
            .collect()
    }

    /// Every index of both sequences appears exactly once, in order.
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

    #[test]
    fn identical_sequences_fully_match() {
        let a = chars("abcd");
        let (score, steps) = global_align(&a, &a, char_score, -1);
        assert_eq!(score, 8);
        assert_eq!(matches(&steps).len(), 4);
        check_cover(&steps, 4, 4);
    }

    #[test]
    fn global_alignment_handles_insertion() {
        let a = chars("abcd");
        let b = chars("abXcd");
        let (score, steps) = global_align(&a, &b, char_score, -1);
        assert_eq!(score, 8 - 1);
        assert_eq!(matches(&steps).len(), 4);
        assert!(steps.contains(&AlignStep::GapB(2)));
        check_cover(&steps, 4, 5);
    }

    #[test]
    fn incompatible_pairs_never_match() {
        let a = chars("ab");
        let b = chars("ab");
        // forbid matching 'a' with anything
        let score = |x: &char, y: &char| (x == y && *x != 'a').then_some(2);
        let (_, steps) = global_align(&a, &b, score, 0);
        let m = matches(&steps);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0], (1, 1));
        check_cover(&steps, 2, 2);
    }

    #[test]
    fn matches_are_monotone() {
        let a = chars("axbyc");
        let b = chars("aybxc");
        let (_, steps) = global_align(&a, &b, char_score, 0);
        let m = matches(&steps);
        for w in m.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        check_cover(&steps, 5, 5);
    }

    #[test]
    fn empty_sequences() {
        let a: Vec<char> = vec![];
        let b = chars("ab");
        let (score, steps) = global_align(&a, &b, char_score, -1);
        assert_eq!(score, -2);
        check_cover(&steps, 0, 2);
    }
}
