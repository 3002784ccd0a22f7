//! CART decision tree with Gini impurity (scikit-learn default setup).
//!
//! The split search is presorted. [`Presorted`] sorts each column's rows
//! once by `(value, row)`; the builder keeps one such list per selected
//! feature and stable-partitions every list into the children, so no node
//! ever sorts. A sub-list of a list sorted by a total order is the sorted
//! order of that subset, so each node scans exactly the order a per-node
//! sort would produce, and the tree is the same.

use serde::{Deserialize, Serialize};

/// Hyper-parameters; defaults mirror `sklearn.tree.DecisionTreeClassifier`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    pub max_depth: Option<usize>,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: None, min_samples_split: 2, min_samples_leaf: 1 }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf { class: usize },
    Split { feat: usize, thresh: f32, left: usize, right: usize },
}

/// A fitted CART classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    params: TreeParams,
    n_features: usize,
}

/// A feature matrix stored column-major, with each column's rows sorted
/// once by `(total_cmp(value), row)`. Build it once and fit any number of
/// trees on column subsets and row subsets of it.
pub struct Presorted {
    n_rows: usize,
    /// `cols[c][row]`.
    cols: Vec<Vec<f32>>,
    /// `orders[c]`: the rows sorted by `(cols[c][row], row)`.
    orders: Vec<Vec<usize>>,
}

impl Presorted {
    /// Transpose and presort row-major features `x` (all rows same length).
    pub fn new(x: &[Vec<f32>]) -> Presorted {
        let n_cols = x.first().map_or(0, Vec::len);
        assert!(x.iter().all(|row| row.len() == n_cols), "rows differ in length");
        let cols: Vec<Vec<f32>> =
            (0..n_cols).map(|c| x.iter().map(|row| row[c]).collect()).collect();
        let orders = cols
            .iter()
            .map(|col| {
                let mut order: Vec<usize> = (0..x.len()).collect();
                order.sort_by(|&a, &b| col[a].total_cmp(&col[b]).then(a.cmp(&b)));
                order
            })
            .collect();
        Presorted { n_rows: x.len(), cols, orders }
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

/// The most frequent class; the lower index wins ties.
fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Walk the tree; `feature(f)` is the sample's value of feature `f`.
fn walk(nodes: &[Node], feature: impl Fn(usize) -> f32) -> usize {
    let mut cur = 0usize;
    loop {
        match &nodes[cur] {
            Node::Leaf { class } => return *class,
            Node::Split { feat, thresh, left, right } => {
                cur = if feature(*feat) <= *thresh { *left } else { *right };
            }
        }
    }
}

/// One tree builder over a [`Presorted`] matrix, columns `sel` and labels
/// `y`. Its buffers are refilled by each [`Builder::grow`], so the folds of
/// a leave-one-out loop reuse them.
struct Builder<'a> {
    x: &'a Presorted,
    sel: &'a [usize],
    y: &'a [usize],
    params: TreeParams,
    n_classes: usize,
    /// Rows in the current fit.
    m: usize,
    /// `orders[f * m..(f + 1) * m]`: the fit's rows sorted by column
    /// `sel[f]`. Every node owns the same segment `lo..hi` of each list.
    orders: Vec<usize>,
    /// Per row: does it go to the left child of the split being applied?
    goes_left: Vec<bool>,
    /// Right-child rows while a segment is partitioned.
    spill: Vec<usize>,
    nodes: Vec<Node>,
}

impl<'a> Builder<'a> {
    fn new(x: &'a Presorted, sel: &'a [usize], y: &'a [usize], params: TreeParams) -> Self {
        assert_eq!(x.n_rows, y.len());
        assert!(sel.iter().all(|&c| c < x.n_cols()), "column out of range");
        Builder {
            x,
            sel,
            y,
            params,
            n_classes: y.iter().copied().max().unwrap_or(0) + 1,
            m: 0,
            orders: Vec::new(),
            goes_left: vec![false; x.n_rows],
            spill: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Fit a fresh tree into `self.nodes` on every row but `skip`.
    ///
    /// `n_classes` counts the skipped row's label too. When that row holds
    /// the only sample of the top class, the extra class only adds zero
    /// counts: `+0.0` Gini terms at the end of each sum, and a class that
    /// never wins the majority.
    fn grow(&mut self, skip: Option<usize>) {
        assert!(skip.is_none_or(|s| s < self.x.n_rows), "skipped row out of range");
        let m = self.x.n_rows - usize::from(skip.is_some());
        assert!(m > 0, "empty training set");
        self.m = m;
        self.nodes.clear();
        self.orders.clear();
        for &c in self.sel {
            self.orders.extend(self.x.orders[c].iter().copied().filter(|&r| Some(r) != skip));
        }
        if self.sel.is_empty() {
            // Nothing to split on: one majority leaf.
            let mut counts = vec![0usize; self.n_classes];
            for r in (0..self.x.n_rows).filter(|&r| Some(r) != skip) {
                counts[self.y[r]] += 1;
            }
            self.nodes.push(Node::Leaf { class: majority(&counts) });
            return;
        }
        self.build(0, m, 0);
    }

    /// Grow the subtree over segment `lo..hi`; returns its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let mut counts = vec![0usize; self.n_classes];
        for &r in &self.orders[lo..hi] {
            counts[self.y[r]] += 1;
        }
        let pure = counts.iter().filter(|&&c| c > 0).count() == 1;
        let depth_stop = self.params.max_depth.is_some_and(|d| depth >= d);
        let split = if pure || hi - lo < self.params.min_samples_split || depth_stop {
            None
        } else {
            self.split(lo, hi, &counts)
        };
        match split {
            None => {
                self.nodes.push(Node::Leaf { class: majority(&counts) });
                self.nodes.len() - 1
            }
            Some((feat, thresh, n_left)) => {
                // Reserve our slot, then recurse.
                self.nodes.push(Node::Leaf { class: 0 });
                let me = self.nodes.len() - 1;
                let left = self.build(lo, lo + n_left, depth + 1);
                let right = self.build(lo + n_left, hi, depth + 1);
                self.nodes[me] = Node::Split { feat, thresh, left, right };
                me
            }
        }
    }

    /// Find the best split of segment `lo..hi` and partition every feature
    /// list around it. Returns `(feature, threshold, left rows)`.
    fn split(
        &mut self,
        lo: usize,
        hi: usize,
        parent_counts: &[usize],
    ) -> Option<(usize, f32, usize)> {
        let total = hi - lo;
        let parent_gini = gini(parent_counts, total);
        let mut best: Option<(f64, usize, f32)> = None;
        let mut left_counts = vec![0usize; self.n_classes];
        let mut right_counts = vec![0usize; self.n_classes];
        for (feat, &c) in self.sel.iter().enumerate() {
            let col = &self.x.cols[c];
            let order = &self.orders[feat * self.m + lo..feat * self.m + hi];
            left_counts.fill(0);
            right_counts.copy_from_slice(parent_counts);
            for k in 0..total - 1 {
                let i = order[k];
                left_counts[self.y[i]] += 1;
                right_counts[self.y[i]] -= 1;
                let (va, vb) = (col[order[k]], col[order[k + 1]]);
                if va == vb {
                    continue; // not a valid threshold position
                }
                let nl = k + 1;
                let nr = total - nl;
                if nl < self.params.min_samples_leaf || nr < self.params.min_samples_leaf {
                    continue;
                }
                let score = (nl as f64 * gini(&left_counts, nl)
                    + nr as f64 * gini(&right_counts, nr))
                    / total as f64;
                let thresh = (va + vb) * 0.5;
                if best.is_none() || score < best.unwrap().0 - 1e-12 {
                    best = Some((score, feat, thresh));
                }
            }
        }

        let (score, feat, thresh) = best?;
        if score >= parent_gini - 1e-12 {
            return None; // no impurity decrease
        }
        // Partition by value, not by scan position: the midpoint may round
        // onto `vb`.
        let col = &self.x.cols[self.sel[feat]];
        let mut n_left = 0;
        for &r in &self.orders[lo..hi] {
            let l = col[r] <= thresh;
            self.goes_left[r] = l;
            n_left += usize::from(l);
        }
        if n_left == 0 || n_left == total {
            return None;
        }
        for f in 0..self.sel.len() {
            let seg = &mut self.orders[f * self.m + lo..f * self.m + hi];
            stable_partition(seg, &self.goes_left, &mut self.spill);
        }
        Some((feat, thresh, n_left))
    }
}

/// Move the rows marked in `goes_left` to the front of `seg`, keeping the
/// relative order on both sides.
fn stable_partition(seg: &mut [usize], goes_left: &[bool], spill: &mut Vec<usize>) {
    spill.clear();
    let mut w = 0;
    for k in 0..seg.len() {
        let r = seg[k];
        if goes_left[r] {
            seg[w] = r;
            w += 1;
        } else {
            spill.push(r);
        }
    }
    seg[w..].copy_from_slice(spill);
}

/// Leave-one-out predictions over columns `sel` of `x`: entry `i` is the
/// class predicted for row `i` by the tree fitted on every other row.
pub fn loo_predictions(
    x: &Presorted,
    sel: &[usize],
    y: &[usize],
    params: TreeParams,
) -> Vec<usize> {
    let mut b = Builder::new(x, sel, y, params);
    (0..x.n_rows)
        .map(|hold| {
            b.grow(Some(hold));
            walk(&b.nodes, |f| x.cols[sel[f]][hold])
        })
        .collect()
}

impl DecisionTree {
    /// Fit on row-major features `x` (all rows same length) and labels `y`.
    pub fn fit(x: &[Vec<f32>], y: &[usize], params: TreeParams) -> DecisionTree {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "empty training set");
        let p = Presorted::new(x);
        let all: Vec<usize> = (0..p.n_cols()).collect();
        DecisionTree::fit_presorted(&p, &all, y, None, params)
    }

    /// Fit on columns `sel` of `x` (feature `f` of the tree is column
    /// `sel[f]`) and every row but `skip`. `y` labels all of `x`'s rows.
    pub fn fit_presorted(
        x: &Presorted,
        sel: &[usize],
        y: &[usize],
        skip: Option<usize>,
        params: TreeParams,
    ) -> DecisionTree {
        let mut b = Builder::new(x, sel, y, params);
        b.grow(skip);
        DecisionTree { nodes: b.nodes, params, n_features: sel.len() }
    }

    pub fn predict(&self, features: &[f32]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature dimension mismatch");
        walk(&self.nodes, |f| features[f])
    }

    pub fn depth(&self) -> usize {
        fn d(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(nodes, *left).max(d(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            d(&self.nodes, 0)
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> (Vec<Vec<f32>>, Vec<usize>) {
        // Two features; class = (f0 > 0.5) XOR-free simple AND structure.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let a = i as f32 / 20.0;
            for j in 0..20 {
                let b = j as f32 / 20.0;
                x.push(vec![a, b]);
                y.push(usize::from(a > 0.5 && b > 0.3));
            }
        }
        (x, y)
    }

    #[test]
    fn fits_axis_aligned_concept_perfectly() {
        let (x, y) = xy();
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        let correct = x.iter().zip(&y).filter(|(f, &l)| t.predict(f) == l).count();
        assert_eq!(correct, x.len(), "training accuracy must be 100%");
        assert!(t.depth() >= 2, "needs two splits");
    }

    #[test]
    fn generalizes_to_new_points() {
        let (x, y) = xy();
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(t.predict(&[0.9, 0.9]), 1);
        assert_eq!(t.predict(&[0.9, 0.1]), 0);
        assert_eq!(t.predict(&[0.1, 0.9]), 0);
    }

    #[test]
    fn max_depth_limits_the_tree() {
        let (x, y) = xy();
        let t = DecisionTree::fit(&x, &y, TreeParams { max_depth: Some(1), ..Default::default() });
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = vec![vec![1.0, 1.0]; 10];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 0];
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[1.0, 1.0]), 0, "majority class");
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = xy();
        let a = DecisionTree::fit(&x, &y, TreeParams::default());
        let b = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn multiclass_works() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let v = i as f32 / 60.0;
            x.push(vec![v]);
            y.push(if v < 0.33 {
                0
            } else if v < 0.66 {
                1
            } else {
                2
            });
        }
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        assert_eq!(t.predict(&[0.1]), 0);
        assert_eq!(t.predict(&[0.5]), 1);
        assert_eq!(t.predict(&[0.9]), 2);
    }
}
