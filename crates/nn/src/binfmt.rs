//! Compact binary codec for [`GraphData`] — the record payload of packed
//! dataset shards (`irnuma_store::shard`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u32 num_nodes
//! u32 flags                  // bit 0: adjacency caches present
//! u32[n] node_text
//! per relation (×3):
//!   u32 num_edges
//!   (u32 src, u32 dst)[e]
//!   f32[e] norm
//! if flags & 1, per relation (×3) CSR then (×3) CSC:
//!   u32[n + 1] row_ptr
//!   u32[e] src
//!   f32[e] weight
//! ```
//!
//! Packing embeds the cached CSR/CSC adjacency so streamed training skips
//! the per-graph counting sorts entirely: [`decode_graph_into`] lands the
//! bytes straight into the `GraphData` layout the kernels read, reusing the
//! destination's existing allocations (near-zero steady-state allocation in
//! the loader). Every structural invariant the kernels index by — edge
//! endpoints in range, `row_ptr` monotone and spanning the edge count — is
//! checked here, so damaged or truncated payloads surface as
//! [`io::ErrorKind::InvalidData`], never an index panic. (Record-level
//! checksums in the shard framing catch bit flips before this layer; these
//! checks make the decoder safe even against a colliding or hand-crafted
//! payload.)

use crate::graphdata::{GraphData, NUM_RELATIONS};
use irnuma_store::{corruption, invalid};
use std::io;

/// Flag bit: payload carries prebuilt CSR/CSC adjacency.
const FLAG_ADJACENCY: u32 = 1;

/// Append `g` to `out` in the binary layout, including its CSR/CSC
/// adjacency (materializing both caches if not yet built).
pub fn encode_graph(g: &GraphData, out: &mut Vec<u8>) {
    let n = g.num_nodes();
    assert!(n <= u32::MAX as usize, "graph too large for u32 node indices");
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&FLAG_ADJACENCY.to_le_bytes());
    for &t in &g.node_text {
        out.extend_from_slice(&t.to_le_bytes());
    }
    for r in 0..NUM_RELATIONS {
        out.extend_from_slice(&(g.edges[r].len() as u32).to_le_bytes());
        for &(s, d) in &g.edges[r] {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
        }
        for &w in &g.norm[r] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    for view in [g.csr(), g.csc()] {
        for csr in view {
            for &p in &csr.row_ptr {
                out.extend_from_slice(&p.to_le_bytes());
            }
            for &s in &csr.src {
                out.extend_from_slice(&s.to_le_bytes());
            }
            for &w in &csr.weight {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
}

/// Decode one graph from `bytes` into a fresh [`GraphData`].
pub fn decode_graph(bytes: &[u8]) -> io::Result<GraphData> {
    let mut g = GraphData::from_parts(Vec::new(), Default::default(), Default::default());
    decode_graph_into(bytes, &mut g)?;
    Ok(g)
}

/// Decode one graph from `bytes` into `dst`, reusing every allocation `dst`
/// already holds (node/edge/norm vectors and, if built, its adjacency
/// cache arrays) when no other clone of its handle exists; a shared handle
/// is replaced by a fresh graph instead, leaving the other holders' graph
/// as it was. On error `dst` is left in an unspecified but valid state.
pub fn decode_graph_into(bytes: &[u8], dst: &mut GraphData) -> io::Result<()> {
    let dst = dst.arrays_mut();
    let mut cur = Cur { bytes, pos: 0 };
    let n = cur.u32()? as usize;
    let flags = cur.u32()?;
    if flags & !FLAG_ADJACENCY != 0 {
        return Err(invalid(format!("graph record: unknown flag bits {flags:#x}")));
    }

    cur.u32s_into(n, &mut dst.node_text)?;
    let mut edge_counts = [0usize; NUM_RELATIONS];
    for (r, count) in edge_counts.iter_mut().enumerate() {
        let e = cur.u32()? as usize;
        *count = e;
        cur.pairs_into(e, &mut dst.edges[r])?;
        cur.f32s_into(e, &mut dst.norm[r])?;
        for (i, &(s, d)) in dst.edges[r].iter().enumerate() {
            if s as usize >= n || d as usize >= n {
                return Err(corruption(format!(
                    "graph record: relation {r} edge {i} endpoint out of range \
                     (({s}, {d}) with {n} nodes)"
                )));
            }
        }
    }

    // Recycle the destination's adjacency arrays (if any) as decode targets.
    let (old_csr, old_csc) = dst.take_adjacency();
    if flags & FLAG_ADJACENCY != 0 {
        let mut views = [old_csr.unwrap_or_default(), old_csc.unwrap_or_default()];
        for view in &mut views {
            for (r, csr) in view.iter_mut().enumerate() {
                let e = edge_counts[r];
                cur.u32s_into(n + 1, &mut csr.row_ptr)?;
                cur.u32s_into(e, &mut csr.src)?;
                cur.f32s_into(e, &mut csr.weight)?;
                if csr.row_ptr.first() != Some(&0) && n > 0 {
                    return Err(corruption(format!("graph record: relation {r} row_ptr[0] != 0")));
                }
                if csr.row_ptr.windows(2).any(|w| w[0] > w[1]) {
                    return Err(corruption(format!(
                        "graph record: relation {r} row_ptr not monotone"
                    )));
                }
                if csr.row_ptr.last().copied().unwrap_or(0) as usize != e {
                    return Err(corruption(format!(
                        "graph record: relation {r} row_ptr does not span {e} edges"
                    )));
                }
                if csr.src.iter().any(|&s| s as usize >= n) {
                    return Err(corruption(format!(
                        "graph record: relation {r} adjacency source out of range"
                    )));
                }
            }
        }
        let [csr, csc] = views;
        dst.install_adjacency(csr, csc);
    }

    if cur.pos != bytes.len() {
        return Err(corruption(format!(
            "graph record: {} trailing bytes after the graph",
            bytes.len() - cur.pos
        )));
    }
    Ok(())
}

/// Bounds-checked little-endian cursor over a record payload.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, len: usize) -> io::Result<&'a [u8]> {
        if self.bytes.len() - self.pos < len {
            return Err(corruption(format!(
                "graph record truncated: need {len} bytes at offset {}, {} remain",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u32s_into(&mut self, count: usize, out: &mut Vec<u32>) -> io::Result<()> {
        let raw = self.take(count * 4)?;
        out.clear();
        out.extend(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())));
        Ok(())
    }

    fn f32s_into(&mut self, count: usize, out: &mut Vec<f32>) -> io::Result<()> {
        let raw = self.take(count * 4)?;
        out.clear();
        out.extend(raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())));
        Ok(())
    }

    fn pairs_into(&mut self, count: usize, out: &mut Vec<(u32, u32)>) -> io::Result<()> {
        let raw = self.take(count * 8)?;
        out.clear();
        out.extend(raw.chunks_exact(8).map(|c| {
            (
                u32::from_le_bytes(c[..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..].try_into().unwrap()),
            )
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphData {
        GraphData::from_edge_lists(
            vec![3, 5, 9, 2],
            [vec![(0, 1), (2, 1)], vec![(0, 2), (2, 1), (1, 2), (3, 2)], vec![]],
        )
    }

    fn assert_graphs_identical(a: &GraphData, b: &GraphData) {
        assert_eq!(a.node_text, b.node_text);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.norm, b.norm);
        for r in 0..NUM_RELATIONS {
            for (x, y) in [(&a.csr()[r], &b.csr()[r]), (&a.csc()[r], &b.csc()[r])] {
                assert_eq!(x.row_ptr, y.row_ptr, "relation {r}");
                assert_eq!(x.src, y.src, "relation {r}");
                assert_eq!(x.weight, y.weight, "relation {r}");
            }
        }
    }

    #[test]
    fn round_trip_is_bit_identical_including_adjacency() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let back = decode_graph(&buf).unwrap();
        assert_graphs_identical(&g, &back);

        // Empty graph round-trips too.
        let empty = GraphData::from_edge_lists(vec![], Default::default());
        let mut buf = Vec::new();
        encode_graph(&empty, &mut buf);
        let back = decode_graph(&buf).unwrap();
        assert_graphs_identical(&empty, &back);
    }

    #[test]
    fn decode_into_reuses_a_previous_graphs_allocations() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);

        // Seed the slot with a different, adjacency-materialized graph.
        let mut slot =
            GraphData::from_edge_lists(vec![1, 1, 1, 1, 1, 1], [vec![(0, 5)], vec![], vec![]]);
        let _ = slot.csr();
        let _ = slot.csc();
        decode_graph_into(&buf, &mut slot).unwrap();
        assert_graphs_identical(&g, &slot);

        // And a second decode over the now-populated slot still matches.
        decode_graph_into(&buf, &mut slot).unwrap();
        assert_graphs_identical(&g, &slot);
    }

    #[test]
    fn decode_into_a_shared_handle_leaves_the_other_clones_alone() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let other = GraphData::from_edge_lists(vec![1, 1], [vec![(0, 1)], vec![], vec![]]);
        let _ = other.csr();
        let mut slot = other.clone();
        decode_graph_into(&buf, &mut slot).unwrap();
        assert_graphs_identical(&g, &slot);
        assert!(!GraphData::same_handle(&slot, &other));
        assert_eq!(other.node_text, vec![1, 1]);
        assert_eq!(other.csr()[0].src, vec![0]);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_invalid_data() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        for cut in [3, buf.len() / 2, buf.len() - 1] {
            let err = decode_graph(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        let err = decode_graph(&padded).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn structural_damage_is_invalid_data_not_a_panic() {
        let g = sample();
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        // Corrupt the first node token's slot? That's legal data. Instead,
        // make an edge endpoint out of range: the first edge src lives right
        // after header (8) + node_text (4*4) + relation-0 edge count (4).
        let off = 8 + 16 + 4;
        let mut bad = buf.clone();
        bad[off..off + 4].copy_from_slice(&99u32.to_le_bytes());
        let err = decode_graph(&bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
