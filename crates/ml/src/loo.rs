//! Leave-one-out predictions of the CART tree, for the GA's fitness.
//!
//! Fold `hold` of a leave-one-out loop fits a tree on every row but `hold`
//! and predicts `hold`, which reads one root-to-leaf path of that tree.
//! [`LooFolds`] grows only that path, with the builder's arithmetic, so
//! each prediction equals `DecisionTree::fit_presorted(x, sel, y,
//! Some(hold), params).predict(..)`:
//!
//! * **Root table.** The root of fold `hold` holds every row but `hold`, for
//!   whatever columns the GA selects. [`LooFolds::new`] scans each column's
//!   root splits once per fold and keeps only the candidates that score
//!   strictly below every earlier candidate of that column (its prefix
//!   minima). The split scan is first-wins: a candidate replaces the best
//!   only if `score < best - 1e-12`. A candidate at or above an earlier
//!   candidate of its column can never pass that test: when the scan reached
//!   the earlier one, the best either became its score or already sat at
//!   most 1e-12 above it, and the best only falls. So a fitness call picks each
//!   fold's root split by comparing the stored minima of the selected
//!   columns, in selection order.
//! * **Held-out path.** Below the root, only the child holding `hold` is
//!   grown: its rows are filtered out of the presorted column lists, which
//!   keeps them in sorted order, and each level compacts the lists to the
//!   next child on the path.
//! * **Gini terms.** Every node here has at most `n - 1` rows, so the
//!   `(c / t)²` terms come from an `(n + 1)²` table built once.

use crate::tree::{improves, majority, Presorted, SplitScan, TreeParams};

/// The candidates of one column's scan that can pass [`improves`] against
/// some incoming best: the strict prefix minima of `scores`, as indices.
fn prefix_minima(scores: impl IntoIterator<Item = f64>) -> Vec<usize> {
    let mut min = f64::INFINITY;
    let mut keep = Vec::new();
    for (i, s) in scores.into_iter().enumerate() {
        if s < min {
            min = s;
            keep.push(i);
        }
    }
    keep
}

/// The Gini terms `(c / t)²` of every count `c <= t <= n`.
struct GiniTable {
    stride: usize,
    sq: Vec<f64>,
}

impl GiniTable {
    fn new(n: usize) -> GiniTable {
        let stride = n + 1;
        let mut sq = vec![0.0f64; stride * stride];
        for t in 1..=n {
            for c in 0..=t {
                sq[t * stride + c] = (c as f64 / t as f64).powi(2);
            }
        }
        GiniTable { stride, sq }
    }

    /// The builder's `gini(counts, t)`, term for term, for `0 < t <= n`.
    fn gini(&self, counts: &[usize], t: usize) -> f64 {
        let row = &self.sq[t * self.stride..];
        1.0 - counts.iter().map(|&c| row[c]).sum::<f64>()
    }
}

/// One root split that can win a fold's scan.
#[derive(Debug, Clone, Copy)]
struct RootCand {
    score: f64,
    thresh: f32,
}

/// The leave-one-out context of one GA: a [`Presorted`] matrix, its labels,
/// the tree parameters, and each fold's root-split table.
/// [`LooFolds::predictions`] then scores any column subset.
pub struct LooFolds<'a> {
    x: &'a Presorted,
    y: &'a [usize],
    params: TreeParams,
    /// Classes counted over every row, held-out rows included.
    n_classes: usize,
    /// Class counts over every row.
    counts: Vec<usize>,
    table: GiniTable,
    /// The root candidates of fold `hold`, column `c` are
    /// `cands[starts[i]..starts[i + 1]]`, `i = hold * n_cols + c`.
    starts: Vec<usize>,
    cands: Vec<RootCand>,
}

/// Per-call buffers of [`LooFolds::predictions`].
struct Scratch {
    /// `lists[f * n..f * n + m]`: the current node's rows sorted by column
    /// `sel[f]`.
    lists: Vec<usize>,
    /// Per row: is it in the current node?
    inside: Vec<bool>,
    counts: Vec<usize>,
    child: Vec<usize>,
}

impl<'a> LooFolds<'a> {
    /// Build the context: the Gini-term table and, for every fold and
    /// column, the prefix minima of the root split scan.
    pub fn new(x: &'a Presorted, y: &'a [usize], params: TreeParams) -> LooFolds<'a> {
        assert_eq!(x.n_rows, y.len());
        let n = x.n_rows;
        let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
        let mut counts = vec![0usize; n_classes];
        for &c in y {
            counts[c] += 1;
        }
        let table = GiniTable::new(n);
        let mut starts = vec![0];
        let mut cands = Vec::new();
        let mut scan = SplitScan::new(y, n_classes, params.min_samples_leaf, |c: &[usize], t| {
            table.gini(c, t)
        });
        let mut order = Vec::with_capacity(n);
        let mut parent = vec![0usize; n_classes];
        let mut col_cands = Vec::new();
        for hold in 0..n {
            parent.copy_from_slice(&counts);
            parent[y[hold]] -= 1;
            for c in 0..x.n_cols() {
                order.clear();
                order.extend(x.orders[c].iter().copied().filter(|&r| r != hold));
                col_cands.clear();
                scan.column(&x.cols[c], &order, &parent, |score, thresh| {
                    col_cands.push(RootCand { score, thresh })
                });
                let keep = prefix_minima(col_cands.iter().map(|cand| cand.score));
                cands.extend(keep.into_iter().map(|i| col_cands[i]));
                starts.push(cands.len());
            }
        }
        LooFolds { x, y, params, n_classes, counts, table, starts, cands }
    }

    /// Leave-one-out predictions over columns `sel`: entry `i` is the class
    /// that the tree fitted on every row but `i` predicts for row `i`.
    pub fn predictions(&self, sel: &[usize]) -> Vec<usize> {
        assert!(sel.iter().all(|&c| c < self.x.n_cols()), "column out of range");
        let n = self.x.n_rows;
        let mut s = Scratch {
            lists: vec![0; sel.len() * n],
            inside: vec![false; n],
            counts: vec![0; self.n_classes],
            child: vec![0; self.n_classes],
        };
        let mut scan = SplitScan::new(
            self.y,
            self.n_classes,
            self.params.min_samples_leaf,
            |c: &[usize], t| self.table.gini(c, t),
        );
        (0..n).map(|hold| self.fold(sel, hold, &mut s, &mut scan)).collect()
    }

    /// The prediction of fold `hold`: walk the held-out row down the tree
    /// on every other row, growing only the nodes it visits.
    fn fold<G: Fn(&[usize], usize) -> f64>(
        &self,
        sel: &[usize],
        hold: usize,
        s: &mut Scratch,
        scan: &mut SplitScan<'_, G>,
    ) -> usize {
        let n = self.x.n_rows;
        let mut m = n - 1;
        assert!(m > 0, "empty training set");
        s.counts.copy_from_slice(&self.counts);
        s.counts[self.y[hold]] -= 1;
        if sel.is_empty() || self.params.stops(&s.counts, m, 0) {
            return majority(&s.counts);
        }
        // The root split, from the table.
        let mut best: Option<(f64, usize, f32)> = None;
        for (f, &c) in sel.iter().enumerate() {
            let i = hold * self.x.n_cols() + c;
            for cand in &self.cands[self.starts[i]..self.starts[i + 1]] {
                if improves(best.map(|b| b.0), cand.score) {
                    best = Some((cand.score, f, cand.thresh));
                }
            }
        }
        // Until a leaf: apply the node's split, keep the held-out row's
        // child, and find that child's split. `lists` holds the node's rows
        // from depth 1 on; the root's rows are every row but `hold`.
        let mut listed = false;
        let mut depth = 0;
        loop {
            let Some((score, f, thresh)) = best else { return majority(&s.counts) };
            if score >= self.table.gini(&s.counts, m) - 1e-12 {
                return majority(&s.counts); // no impurity decrease
            }
            // Partition by value, as the builder does.
            let col = &self.x.cols[sel[f]];
            let hold_left = col[hold] <= thresh;
            s.child.fill(0);
            let mut kept = 0;
            let rows: &[usize] = if listed { &s.lists[..m] } else { &self.x.orders[sel[f]] };
            for &r in rows.iter().filter(|&&r| r != hold) {
                let keep = (col[r] <= thresh) == hold_left;
                s.inside[r] = keep;
                if keep {
                    kept += 1;
                    s.child[self.y[r]] += 1;
                }
            }
            s.inside[hold] = false;
            if kept == 0 || kept == m {
                return majority(&s.counts); // the split moves no row
            }
            std::mem::swap(&mut s.counts, &mut s.child);
            depth += 1;
            if self.params.stops(&s.counts, kept, depth) {
                return majority(&s.counts);
            }
            for (g, &c) in sel.iter().enumerate() {
                let mut w = g * n;
                for k in 0..if listed { m } else { n } {
                    let r = if listed { s.lists[g * n + k] } else { self.x.orders[c][k] };
                    if s.inside[r] {
                        s.lists[w] = r;
                        w += 1;
                    }
                }
            }
            listed = true;
            m = kept;

            best = None;
            for (g, &c) in sel.iter().enumerate() {
                let order = &s.lists[g * n..g * n + m];
                scan.column(&self.x.cols[c], order, &s.counts, |score, thresh| {
                    if improves(best.map(|b| b.0), score) {
                        best = Some((score, g, thresh));
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The first-wins scan of `scores` from an incoming best: the index of
    /// the last candidate that took over, and the best score after it.
    fn scan(best: Option<f64>, scores: &[f64], among: &[usize]) -> (Option<usize>, Option<f64>) {
        let (mut who, mut best) = (None, best);
        for &i in among {
            if improves(best, scores[i]) {
                (who, best) = (Some(i), Some(scores[i]));
            }
        }
        (who, best)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Neighbouring scores differ by steps on both sides of the 1e-12
        /// margin, ties included; the incoming best is none, or lies
        /// anywhere from below the lowest score to above the highest.
        #[test]
        fn prefix_minima_pick_the_full_scans_winner(
            steps in prop::collection::vec(0usize..9, 0..24),
            incoming in 0usize..8,
        ) {
            const STEP: [f64; 9] = [-3e-12, -1e-12, -4e-13, 0.0, 4e-13, 1e-12, 3e-12, -0.05, 0.05];
            let mut scores = vec![0.4f64];
            for &s in &steps {
                scores.push(scores.last().unwrap() + STEP[s]);
            }
            let best = [
                None,
                Some(0.4),
                Some(0.4 + 1e-12),
                Some(0.4 - 2e-12),
                Some(0.4 + 5e-13),
                Some(f64::INFINITY),
                Some(0.0),
                Some(scores.iter().copied().fold(f64::INFINITY, f64::min) + 1e-12),
            ][incoming];
            let all: Vec<usize> = (0..scores.len()).collect();
            let kept = prefix_minima(scores.iter().copied());
            prop_assert_eq!(scan(best, &scores, &kept), scan(best, &scores, &all));
        }
    }

    #[test]
    fn prefix_minima_are_strict() {
        assert_eq!(prefix_minima([0.5, 0.5, 0.7, 0.3, 0.3, 0.2]), [0, 3, 5]);
        assert!(prefix_minima([]).is_empty());
    }
}
