//! Conversion of `irnuma-graph` graphs into the arrays the GNN consumes:
//! node text ids, per-relation edge lists, and the `1/c_{i,r}` normalization
//! constants of the paper's Eq. 1 (per-destination in-degree within each
//! relation).

use irnuma_graph::Graph;
use std::rc::Rc;
use std::sync::OnceLock;

/// Number of edge relations (control, data, call).
pub const NUM_RELATIONS: usize = 3;

/// Why a graph is not safe to feed into the GNN kernels. Internally-built
/// graphs ([`GraphData::from_graph`]) are valid by construction; graphs
/// arriving from untrusted input (the serve wire protocol, decoded pack
/// records) must pass [`GraphData::validate`] first — the CSR build and the
/// embedding gather index with edge endpoints and token ids directly, so an
/// out-of-range value is an index panic, not a recoverable error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint references a node `>= num_nodes`.
    EdgeOutOfRange { relation: usize, edge: usize, node: u32, num_nodes: usize },
    /// A relation's `norm` array is not aligned with its edge list.
    NormLengthMismatch { relation: usize, edges: usize, norms: usize },
    /// A node's vocabulary token is `>= vocab_size` (embedding row gather
    /// would read out of bounds).
    TokenOutOfVocab { node: usize, token: u32, vocab_size: usize },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphError::EdgeOutOfRange { relation, edge, node, num_nodes } => write!(
                f,
                "relation {relation} edge {edge} references node {node} \
                 but the graph has {num_nodes} nodes"
            ),
            GraphError::NormLengthMismatch { relation, edges, norms } => {
                write!(f, "relation {relation} has {edges} edges but {norms} norm entries")
            }
            GraphError::TokenOutOfVocab { node, token, vocab_size } => write!(
                f,
                "node {node} has vocabulary token {token} \
                 but the model's vocabulary has {vocab_size} entries"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// One relation's `(edges, norms)`, Rc-wrapped so tape ops can capture them
/// without copying.
pub type RelationArrays = (Rc<Vec<(u32, u32)>>, Rc<Vec<f32>>);

/// Compressed-sparse-row view of one relation's incoming edges, grouped by
/// destination node. Slot order within a destination preserves the original
/// edge order, so per-row accumulation visits the same summands in the same
/// order as an edge-major sweep.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// `row_ptr[i]..row_ptr[i+1]` indexes the slots of destination `i`.
    pub row_ptr: Vec<u32>,
    /// Source node per slot.
    pub src: Vec<u32>,
    /// Edge weight (`1/c_{dst,r}`) per slot.
    pub weight: Vec<f32>,
}

impl Csr {
    /// Build from an edge list (stable counting sort by destination).
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)], norm: &[f32]) -> Csr {
        assert_eq!(edges.len(), norm.len());
        let mut row_ptr = vec![0u32; num_nodes + 1];
        for &(_, d) in edges {
            row_ptr[d as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor: Vec<u32> = row_ptr[..num_nodes].to_vec();
        let mut src = vec![0u32; edges.len()];
        let mut weight = vec![0f32; edges.len()];
        for (e, &(s, d)) in edges.iter().enumerate() {
            let slot = cursor[d as usize] as usize;
            cursor[d as usize] += 1;
            src[slot] = s;
            weight[slot] = norm[e];
        }
        Csr { row_ptr, src, weight }
    }

    /// Slots of destination row `i` as `(sources, weights)`.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.src[lo..hi], &self.weight[lo..hi])
    }
}

/// A GNN-ready graph.
#[derive(Debug, Clone)]
pub struct GraphData {
    /// Vocabulary index per node.
    pub node_text: Vec<u32>,
    /// Per relation: edge list as `(src, dst)`.
    pub edges: [Vec<(u32, u32)>; NUM_RELATIONS],
    /// Per relation: `1/c_{dst,r}` per edge, aligned with `edges`.
    pub norm: [Vec<f32>; NUM_RELATIONS],
    /// Destination-grouped adjacency, built on first use by the inference
    /// engine and reused across every later forward pass of this graph
    /// (the pack decoder installs it prebuilt). Code that mutates
    /// `edges`/`norm` in place must construct a fresh `GraphData` (see
    /// [`GraphData::from_parts`]) instead, or the cache goes stale.
    csr: OnceLock<[Csr; NUM_RELATIONS]>,
    /// Source-grouped mirror of `csr` (a CSC view of the same edges), built
    /// on first use by the fused backward pass: the SpMM gradient scatters
    /// `w · dy[dst]` into `dx[src]`, so grouping by source turns it into an
    /// independent-per-row gather with no transpose ever materialized.
    csc: OnceLock<[Csr; NUM_RELATIONS]>,
}

impl GraphData {
    pub fn from_graph(g: &Graph) -> GraphData {
        let node_text = g.nodes.iter().map(|n| n.text_id).collect();
        let edges = g.edges_by_relation();
        let norm = compute_norms(g.num_nodes(), &edges);
        GraphData::from_parts(node_text, edges, norm)
    }

    /// Assemble from raw arrays (norms supplied by the caller).
    pub fn from_parts(
        node_text: Vec<u32>,
        edges: [Vec<(u32, u32)>; NUM_RELATIONS],
        norm: [Vec<f32>; NUM_RELATIONS],
    ) -> GraphData {
        GraphData { node_text, edges, norm, csr: OnceLock::new(), csc: OnceLock::new() }
    }

    /// Assemble from node ids and edge lists, computing the paper's
    /// `1/c_{i,r}` normalization (inverse per-relation in-degree).
    pub fn from_edge_lists(
        node_text: Vec<u32>,
        edges: [Vec<(u32, u32)>; NUM_RELATIONS],
    ) -> GraphData {
        let norm = compute_norms(node_text.len(), &edges);
        GraphData::from_parts(node_text, edges, norm)
    }

    /// [`GraphData::from_edge_lists`] for untrusted input: edge endpoints
    /// are range-checked *before* the norm computation indexes with them,
    /// so a bad edge is a typed [`GraphError`] instead of an index panic.
    /// Token ids are not checked here (the valid range depends on the
    /// model's vocabulary) — callers holding a model should follow up with
    /// [`GraphData::validate`].
    pub fn try_from_edge_lists(
        node_text: Vec<u32>,
        edges: [Vec<(u32, u32)>; NUM_RELATIONS],
    ) -> Result<GraphData, GraphError> {
        let n = node_text.len();
        for (relation, rel_edges) in edges.iter().enumerate() {
            for (i, &(s, d)) in rel_edges.iter().enumerate() {
                let bad = [s, d].into_iter().find(|&x| x as usize >= n);
                if let Some(node) = bad {
                    return Err(GraphError::EdgeOutOfRange {
                        relation,
                        edge: i,
                        node,
                        num_nodes: n,
                    });
                }
            }
        }
        Ok(GraphData::from_edge_lists(node_text, edges))
    }

    /// Check that this graph is safe to feed into the kernels: every edge
    /// endpoint in range, every `norm` array aligned with its edge list,
    /// and every node token within `vocab_size`. Empty graphs and empty
    /// relations are valid. Required at trust boundaries (decoded or
    /// wire-delivered graphs) — the kernels index without bounds recovery.
    pub fn validate(&self, vocab_size: usize) -> Result<(), GraphError> {
        let n = self.num_nodes();
        for relation in 0..NUM_RELATIONS {
            let (rel_edges, norms) = (&self.edges[relation], &self.norm[relation]);
            if rel_edges.len() != norms.len() {
                return Err(GraphError::NormLengthMismatch {
                    relation,
                    edges: rel_edges.len(),
                    norms: norms.len(),
                });
            }
            for (i, &(s, d)) in rel_edges.iter().enumerate() {
                let bad = [s, d].into_iter().find(|&x| x as usize >= n);
                if let Some(node) = bad {
                    return Err(GraphError::EdgeOutOfRange {
                        relation,
                        edge: i,
                        node,
                        num_nodes: n,
                    });
                }
            }
        }
        for (node, &token) in self.node_text.iter().enumerate() {
            if token as usize >= vocab_size {
                return Err(GraphError::TokenOutOfVocab { node, token, vocab_size });
            }
        }
        Ok(())
    }

    pub fn num_nodes(&self) -> usize {
        self.node_text.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Rc-wrapped edges/norms for cheap tape capture.
    pub fn relation(&self, r: usize) -> RelationArrays {
        (Rc::new(self.edges[r].clone()), Rc::new(self.norm[r].clone()))
    }

    /// The cached CSR adjacency, one per relation (built on first call).
    pub fn csr(&self) -> &[Csr; NUM_RELATIONS] {
        self.csr.get_or_init(|| {
            if irnuma_obs::telemetry_enabled() {
                irnuma_obs::counter!("infer.csr_build").inc(1);
            }
            let n = self.num_nodes();
            std::array::from_fn(|r| Csr::from_edges(n, &self.edges[r], &self.norm[r]))
        })
    }

    /// The cached source-grouped (CSC) adjacency, one per relation. Row `i`
    /// lists the *destinations* node `i` sends messages to, each with the
    /// edge's `1/c_{dst,r}` weight. Built by feeding [`Csr::from_edges`] the
    /// reversed edge list, so the counting sort's stability preserves
    /// original edge order within each source — the fused SpMM backward
    /// accumulates each `dx[src]` row's terms in the same order the tape's
    /// edge-major sweep does.
    pub fn csc(&self) -> &[Csr; NUM_RELATIONS] {
        self.csc.get_or_init(|| {
            if irnuma_obs::telemetry_enabled() {
                irnuma_obs::counter!("train.csc_build").inc(1);
            }
            let n = self.num_nodes();
            std::array::from_fn(|r| {
                let reversed: Vec<(u32, u32)> =
                    self.edges[r].iter().map(|&(s, d)| (d, s)).collect();
                Csr::from_edges(n, &reversed, &self.norm[r])
            })
        })
    }

    /// Take the adjacency caches out of this graph (leaving the cells
    /// empty), so the binary decoder can recycle their allocations when
    /// overwriting a graph slot in place. Returns `None` per cache that was
    /// never built.
    pub(crate) fn take_adjacency(
        &mut self,
    ) -> (Option<[Csr; NUM_RELATIONS]>, Option<[Csr; NUM_RELATIONS]>) {
        (self.csr.take(), self.csc.take())
    }

    /// Install prebuilt adjacency caches (decoded from the binary format,
    /// where they were materialized at pack time). Replaces any existing
    /// caches — callers must have already made `edges`/`norm` consistent
    /// with the supplied views.
    pub(crate) fn install_adjacency(
        &mut self,
        csr: [Csr; NUM_RELATIONS],
        csc: [Csr; NUM_RELATIONS],
    ) {
        self.csr = OnceLock::new();
        self.csc = OnceLock::new();
        let _ = self.csr.set(csr);
        let _ = self.csc.set(csc);
    }
}

fn compute_norms(
    num_nodes: usize,
    edges: &[Vec<(u32, u32)>; NUM_RELATIONS],
) -> [Vec<f32>; NUM_RELATIONS] {
    let mut norm: [Vec<f32>; NUM_RELATIONS] = Default::default();
    for (r, rel_edges) in edges.iter().enumerate() {
        let mut indeg = vec![0u32; num_nodes];
        for &(_, d) in rel_edges {
            indeg[d as usize] += 1;
        }
        norm[r] = rel_edges.iter().map(|&(_, d)| 1.0 / indeg[d as usize].max(1) as f32).collect();
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnuma_graph::{EdgeKind, Graph, NodeKind};

    fn toy() -> Graph {
        let mut g = Graph::default();
        let a = g.add_node(NodeKind::Instruction, 3);
        let b = g.add_node(NodeKind::Instruction, 5);
        let v = g.add_node(NodeKind::Variable, 9);
        g.add_edge(a, b, EdgeKind::Control, 0);
        g.add_edge(a, v, EdgeKind::Data, 0);
        g.add_edge(v, b, EdgeKind::Data, 0);
        g.add_edge(b, v, EdgeKind::Data, 1); // v has in-degree 2 in Data
        g
    }

    #[test]
    fn norms_are_inverse_indegree_per_relation() {
        let d = GraphData::from_graph(&toy());
        assert_eq!(d.node_text, vec![3, 5, 9]);
        let data_r = EdgeKind::Data.index();
        // edges: (a,v), (v,b), (b,v); in-degree of v within Data is 2.
        for (i, &(_, dst)) in d.edges[data_r].iter().enumerate() {
            let expect = if dst == 2 { 0.5 } else { 1.0 };
            assert_eq!(d.norm[data_r][i], expect);
        }
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.num_nodes(), 3);
    }

    #[test]
    fn empty_relations_are_fine() {
        let d = GraphData::from_graph(&toy());
        assert!(d.edges[EdgeKind::Call.index()].is_empty());
        assert!(d.norm[EdgeKind::Call.index()].is_empty());
    }

    #[test]
    fn csr_groups_by_destination_preserving_edge_order() {
        let d = GraphData::from_graph(&toy());
        let r = EdgeKind::Data.index();
        let csr = &d.csr()[r];
        assert_eq!(csr.row_ptr.len(), d.num_nodes() + 1);
        assert_eq!(csr.src.len(), d.edges[r].len());
        // Expanding the rows back must reproduce each destination's incoming
        // edges in their original edge-list order.
        for i in 0..d.num_nodes() {
            let (srcs, ws) = csr.row(i);
            let expect: Vec<(u32, f32)> = d.edges[r]
                .iter()
                .zip(&d.norm[r])
                .filter(|(&(_, dst), _)| dst as usize == i)
                .map(|(&(s, _), &w)| (s, w))
                .collect();
            let got: Vec<(u32, f32)> = srcs.iter().copied().zip(ws.iter().copied()).collect();
            assert_eq!(got, expect, "row {i}");
        }
    }

    #[test]
    fn csc_groups_by_source_preserving_edge_order() {
        let d = GraphData::from_graph(&toy());
        let r = EdgeKind::Data.index();
        let csc = &d.csc()[r];
        assert_eq!(csc.row_ptr.len(), d.num_nodes() + 1);
        assert_eq!(csc.src.len(), d.edges[r].len());
        // Row `i` of the CSC must list node i's outgoing edges (dst, norm)
        // in original edge-list order.
        for i in 0..d.num_nodes() {
            let (dsts, ws) = csc.row(i);
            let expect: Vec<(u32, f32)> = d.edges[r]
                .iter()
                .zip(&d.norm[r])
                .filter(|(&(src, _), _)| src as usize == i)
                .map(|(&(_, dst), &w)| (dst, w))
                .collect();
            let got: Vec<(u32, f32)> = dsts.iter().copied().zip(ws.iter().copied()).collect();
            assert_eq!(got, expect, "row {i}");
        }
    }

    #[test]
    fn csr_cache_survives_clone() {
        let d = GraphData::from_graph(&toy());
        let _ = d.csr();
        let cloned = d.clone();
        assert_eq!(cloned.csr()[0].src, d.csr()[0].src);
        assert_eq!(cloned.node_text, d.node_text);
    }

    #[test]
    fn validate_accepts_internally_built_and_degenerate_graphs() {
        let d = GraphData::from_graph(&toy());
        assert_eq!(d.validate(10), Ok(()));
        // Empty graph: zero nodes, zero edges — valid.
        let empty = GraphData::from_edge_lists(vec![], Default::default());
        assert_eq!(empty.validate(1), Ok(()));
        // Single node, no edges — valid.
        let single = GraphData::from_edge_lists(vec![0], Default::default());
        assert_eq!(single.validate(1), Ok(()));
    }

    #[test]
    fn validate_rejects_what_the_kernels_would_panic_on() {
        // Edge endpoint out of range (would panic in compute_norms / CSR).
        let bad_edge = GraphData::from_parts(
            vec![0, 1],
            [vec![(0, 7)], vec![], vec![]],
            [vec![1.0], vec![], vec![]],
        );
        assert_eq!(
            bad_edge.validate(4),
            Err(GraphError::EdgeOutOfRange { relation: 0, edge: 0, node: 7, num_nodes: 2 })
        );
        // Norm array misaligned with its edge list (would trip the CSR
        // build's assert).
        let bad_norm = GraphData::from_parts(
            vec![0, 1],
            [vec![(0, 1)], vec![], vec![]],
            [vec![], vec![], vec![]],
        );
        assert_eq!(
            bad_norm.validate(4),
            Err(GraphError::NormLengthMismatch { relation: 0, edges: 1, norms: 0 })
        );
        // Token beyond the vocabulary (would read past the embedding rows).
        let bad_token = GraphData::from_edge_lists(vec![0, 99], [vec![(0, 1)], vec![], vec![]]);
        assert_eq!(
            bad_token.validate(4),
            Err(GraphError::TokenOutOfVocab { node: 1, token: 99, vocab_size: 4 })
        );
        assert!(bad_token.validate(100).is_ok());
    }

    #[test]
    fn try_from_edge_lists_returns_typed_error_instead_of_panicking() {
        // The unchecked constructor would index indeg[9] on a 2-node graph.
        let err = GraphData::try_from_edge_lists(vec![0, 1], [vec![(0, 9)], vec![], vec![]])
            .expect_err("out-of-range edge must be rejected");
        assert_eq!(err, GraphError::EdgeOutOfRange { relation: 0, edge: 0, node: 9, num_nodes: 2 });
        let ok = GraphData::try_from_edge_lists(vec![0, 1], [vec![(0, 1)], vec![], vec![]])
            .expect("in-range edges");
        assert_eq!(ok.norm[0], vec![1.0]);
        let display = format!("{err}");
        assert!(display.contains("node 9"), "{display}");
    }
}
