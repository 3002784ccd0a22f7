//! The presorted CART must fit exactly the tree of the textbook CART that
//! re-sorts the rows of every feature at every node. The oracle below is
//! that sort-per-node builder; both trees serialize to the same JSON shape,
//! so equal strings mean equal splits, thresholds and leaves. The
//! leave-one-out context must predict, for every fold, what the oracle's
//! tree on that fold predicts.

use irnuma_ml::{DecisionTree, LooFolds, Presorted, TreeParams};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[cfg(test)]
mod oracle {
    use irnuma_ml::TreeParams;
    use serde::Serialize;

    #[derive(Serialize)]
    enum Node {
        Leaf { class: usize },
        Split { feat: usize, thresh: f32, left: usize, right: usize },
    }

    #[derive(Serialize)]
    pub struct Tree {
        nodes: Vec<Node>,
        params: TreeParams,
        n_features: usize,
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
    }

    fn majority(ys: &[usize], n_classes: usize) -> usize {
        let mut counts = vec![0usize; n_classes];
        for &y in ys {
            counts[y] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    pub fn fit(x: &[Vec<f32>], y: &[usize], params: TreeParams) -> Tree {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "empty training set");
        let n_features = x[0].len();
        let n_classes = y.iter().copied().max().unwrap_or(0) + 1;
        let mut tree = Tree { nodes: Vec::new(), params, n_features };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.build(x, y, &idx, n_classes, 0);
        tree
    }

    impl Tree {
        pub fn predict(&self, features: &[f32]) -> usize {
            let mut cur = 0;
            loop {
                match &self.nodes[cur] {
                    Node::Leaf { class } => return *class,
                    Node::Split { feat, thresh, left, right } => {
                        cur = if features[*feat] <= *thresh { *left } else { *right };
                    }
                }
            }
        }

        fn build(
            &mut self,
            x: &[Vec<f32>],
            y: &[usize],
            idx: &[usize],
            n_classes: usize,
            depth: usize,
        ) -> usize {
            let ys: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            let pure = ys.iter().all(|&v| v == ys[0]);
            let depth_stop = self.params.max_depth.is_some_and(|d| depth >= d);
            if pure || idx.len() < self.params.min_samples_split || depth_stop {
                let class = majority(&ys, n_classes);
                self.nodes.push(Node::Leaf { class });
                return self.nodes.len() - 1;
            }
            match self.best_split(x, y, idx, n_classes) {
                None => {
                    let class = majority(&ys, n_classes);
                    self.nodes.push(Node::Leaf { class });
                    self.nodes.len() - 1
                }
                Some((feat, thresh, left_idx, right_idx)) => {
                    self.nodes.push(Node::Leaf { class: 0 });
                    let me = self.nodes.len() - 1;
                    let left = self.build(x, y, &left_idx, n_classes, depth + 1);
                    let right = self.build(x, y, &right_idx, n_classes, depth + 1);
                    self.nodes[me] = Node::Split { feat, thresh, left, right };
                    me
                }
            }
        }

        #[allow(clippy::type_complexity, clippy::needless_range_loop)]
        fn best_split(
            &self,
            x: &[Vec<f32>],
            y: &[usize],
            idx: &[usize],
            n_classes: usize,
        ) -> Option<(usize, f32, Vec<usize>, Vec<usize>)> {
            let total = idx.len();
            let mut best: Option<(f64, usize, f32)> = None;
            let mut parent_counts = vec![0usize; n_classes];
            for &i in idx {
                parent_counts[y[i]] += 1;
            }
            let parent_gini = gini(&parent_counts, total);
            for feat in 0..self.n_features {
                let mut order: Vec<usize> = idx.to_vec();
                order.sort_by(|&a, &b| x[a][feat].total_cmp(&x[b][feat]).then(a.cmp(&b)));
                let mut left_counts = vec![0usize; n_classes];
                let mut right_counts = parent_counts.clone();
                for k in 0..total - 1 {
                    let i = order[k];
                    left_counts[y[i]] += 1;
                    right_counts[y[i]] -= 1;
                    let (va, vb) = (x[order[k]][feat], x[order[k + 1]][feat]);
                    if va == vb {
                        continue;
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
                return None;
            }
            let (mut l, mut r) = (Vec::new(), Vec::new());
            for &i in idx {
                if x[i][feat] <= thresh {
                    l.push(i);
                } else {
                    r.push(i);
                }
            }
            if l.is_empty() || r.is_empty() {
                return None;
            }
            Some((feat, thresh, l, r))
        }
    }
}

/// The oracle's input: columns `sel` of every row but `skip`.
fn subset(
    x: &[Vec<f32>],
    y: &[usize],
    sel: &[usize],
    skip: Option<usize>,
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let rows = (0..x.len()).filter(|&r| Some(r) != skip);
    let xs = rows.clone().map(|r| sel.iter().map(|&c| x[r][c]).collect()).collect();
    (xs, rows.map(|r| y[r]).collect())
}

fn json<T: serde::Serialize>(t: &T) -> String {
    serde_json::to_string(t).unwrap()
}

/// A matrix whose values come from a small set, labels, and tree
/// parameters. The set makes ties, puts `-0.0` next to `0.0`, and brackets
/// 1.0 with its neighbouring floats, whose midpoints round onto one of the
/// pair. Column 0 is sometimes constant.
fn case() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<usize>, TreeParams)> {
    let values =
        vec![-1.5f32, -0.0, 0.0, 0.25, 1.0 - f32::EPSILON / 2.0, 1.0, 1.0 + f32::EPSILON, 3.0];
    let row = (prop::collection::vec(prop::sample::select(values), 5), 0usize..4);
    (
        prop::collection::vec(row, 2..30),
        1usize..6, // columns
        1usize..5, // classes
        0usize..6, // max depth; 5 means unbounded
        1usize..4, // min_samples_leaf
        2usize..5, // min_samples_split
        0usize..2, // 1: make column 0 constant
    )
        .prop_map(|(rows, cols, classes, depth, leaf, split, constant)| {
            let x = rows
                .iter()
                .map(|(r, _)| {
                    let mut r = r[..cols].to_vec();
                    if constant == 1 {
                        r[0] = 0.5;
                    }
                    r
                })
                .collect();
            let y = rows.iter().map(|&(_, c)| c % classes).collect();
            let params = TreeParams {
                max_depth: (depth < 5).then_some(depth),
                min_samples_split: split,
                min_samples_leaf: leaf,
            };
            (x, y, params)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn presorted_fit_equals_the_sort_per_node_oracle(
        (x, y, params) in case(),
        sel_mask in prop::collection::vec(0usize..2, 5),
        skip_kind in 0usize..4,
    ) {
        let n = x.len();
        let sel: Vec<usize> = (0..x[0].len()).filter(|&c| sel_mask[c] == 1).collect();
        let skip = [None, Some(0), Some(n - 1), Some(n / 2)][skip_kind];
        let (xs, ys) = subset(&x, &y, &sel, skip);
        let want = json(&oracle::fit(&xs, &ys, params));
        let got = DecisionTree::fit_presorted(&Presorted::new(&x), &sel, &y, skip, params);
        prop_assert_eq!(json(&got), want);
    }

    /// Every fold of the leave-one-out context against the oracle's tree
    /// on that fold, for column subsets in sorted (GA) and arbitrary
    /// order, with repeats allowed in the arbitrary ones.
    #[test]
    fn loo_predictions_equal_oracle_folds(
        (x, y, params) in case(),
        picks in prop::collection::vec(0usize..5, 0..7),
        sorted in 0usize..2,
    ) {
        let width = x[0].len();
        let mut sel: Vec<usize> = picks.iter().map(|&c| c % width).collect();
        if sorted == 1 {
            sel.sort_unstable();
            sel.dedup();
        }
        let p = Presorted::new(&x);
        let preds = LooFolds::new(&p, &y, params).predictions(&sel);
        prop_assert_eq!(preds.len(), x.len());
        for (hold, &pred) in preds.iter().enumerate() {
            let (xs, ys) = subset(&x, &y, &sel, Some(hold));
            let want = oracle::fit(&xs, &ys, params);
            let row: Vec<f32> = sel.iter().map(|&c| x[hold][c]).collect();
            prop_assert_eq!(pred, want.predict(&row), "fold {} sel {:?}", hold, &sel);
        }
    }
}

/// A matrix shaped like the models' embeddings: `rows` x `cols` continuous
/// values where about a third of each column repeats an earlier value of
/// that column.
fn embedding_like(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Vec<Vec<f32>> {
    let columns: Vec<Vec<f32>> = (0..cols)
        .map(|_| {
            let mut col: Vec<f32> = Vec::with_capacity(rows);
            for r in 0..rows {
                let v = if r > 0 && rng.gen_bool(0.3) {
                    col[rng.gen_range(0..r)]
                } else {
                    rng.gen_range(-2.0f32..2.0)
                };
                col.push(v);
            }
            col
        })
        .collect();
    (0..rows).map(|r| columns.iter().map(|col| col[r]).collect()).collect()
}

#[test]
fn loo_predictions_equal_per_fold_fits_on_embedding_shaped_data() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut subsets = 0;
    for case in 0..150 {
        let rows = rng.gen_range(2..61);
        let cols = rng.gen_range(1..49);
        let classes = rng.gen_range(1..5);
        let x = embedding_like(&mut rng, rows, cols);
        let y: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
        let params = [
            TreeParams { max_depth: Some(2), ..Default::default() },
            TreeParams::default(),
            TreeParams { max_depth: Some(4), min_samples_split: 4, min_samples_leaf: 2 },
        ][case % 3];
        let p = Presorted::new(&x);
        let loo = LooFolds::new(&p, &y, params);
        for _ in 0..4 {
            let mut sel: Vec<usize> = (0..cols).collect();
            sel.shuffle(&mut rng);
            sel.truncate(10);
            if rng.gen_bool(0.5) {
                sel.sort_unstable();
            }
            let preds = loo.predictions(&sel);
            for (hold, &pred) in preds.iter().enumerate() {
                let t = DecisionTree::fit_presorted(&p, &sel, &y, Some(hold), params);
                let row: Vec<f32> = sel.iter().map(|&c| x[hold][c]).collect();
                assert_eq!(pred, t.predict(&row), "case {case} fold {hold} sel {sel:?}");
            }
            subsets += 1;
        }
    }
    assert_eq!(subsets, 600);
}

#[test]
fn zero_width_rows_fit_a_single_majority_leaf() {
    let x = vec![Vec::new(); 5];
    let y = [2, 0, 2, 1, 0];
    let t = DecisionTree::fit(&x, &y, TreeParams::default());
    assert_eq!(t.num_nodes(), 1);
    assert_eq!(t.predict(&[]), 0, "tie between 0 and 2 goes to the lower class");
    assert_eq!(json(&t), json(&oracle::fit(&x, &y, TreeParams::default())));
    let p = Presorted::new(&x);
    assert_eq!(LooFolds::new(&p, &y, TreeParams::default()).predictions(&[]), [0, 2, 0, 0, 2]);
}

#[test]
fn a_single_row_fits_a_leaf_of_its_class() {
    let x = vec![vec![0.25, -1.0]];
    let t = DecisionTree::fit(&x, &[3], TreeParams::default());
    assert_eq!(t.num_nodes(), 1);
    assert_eq!(t.predict(&[9.0, 9.0]), 3);
    assert_eq!(json(&t), json(&oracle::fit(&x, &[3], TreeParams::default())));
}

#[test]
fn an_all_equal_column_is_never_split_on() {
    let x: Vec<Vec<f32>> = (0..12).map(|i| vec![1.0, i as f32]).collect();
    let y: Vec<usize> = (0..12).map(|i| usize::from(i >= 6)).collect();
    let t = DecisionTree::fit(&x, &y, TreeParams::default());
    assert_eq!(t.num_nodes(), 3, "one split, on the varying column");
    assert_eq!(json(&t), json(&oracle::fit(&x, &y, TreeParams::default())));
    let alone =
        DecisionTree::fit_presorted(&Presorted::new(&x), &[0], &y, None, Default::default());
    assert_eq!(alone.num_nodes(), 1, "a constant column alone gives one leaf");
}
