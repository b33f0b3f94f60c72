//! A query-ready graph served directly from a `PEG2` load buffer.
//!
//! [`FrozenGraph`] is the zero-copy counterpart of [`CsrGraph`]: the
//! same CSR adjacency (forward offsets + targets, reverse offsets +
//! sources), but borrowed from the 8-byte-aligned buffer a `PEG2` file
//! was bulk-read into instead of owned as separate heap vectors. Load
//! is parse-free — one sequential read, one checksum/validation pass,
//! zero re-sort and zero rebuild — which is what makes cold-start on
//! large graphs an I/O problem instead of a CPU problem.
//!
//! Two adjacency encodings share the container (header flag bit 0):
//!
//! * **raw** — offsets are element indices, neighbor lists are plain
//!   `u32` arrays; iteration is a slice walk, `has_edge` a binary
//!   search. Byte-for-byte the hot layout [`CsrGraph`] already uses.
//! * **compressed** — offsets are byte offsets into varint streams;
//!   each row is `degree, first, delta, delta, …` (deltas ≥ 1 since
//!   rows are strictly ascending). ~2–4× smaller on generator and
//!   social-style graphs, decoded on the fly — the trade for cold
//!   segments where footprint beats iteration speed.
//!
//! All multi-byte integers are little-endian. The only `unsafe` these
//! paths rely on is the checked slice casting in [`crate::zerocopy`];
//! everything here is safe code over validated section ranges.
//!
//! Every load is validated before the first query: section table
//! geometry (bounds, 8-byte alignment, ordering), payload checksum,
//! offset monotonicity, per-row strict ascent, and id range. After that
//! pass the accessors can trust the buffer, so the query path carries
//! no per-access checks beyond slice indexing. Forward/reverse
//! consistency is the writer's contract (like `PEG1`, which trusts its
//! sorted-edge invariant); the checksum catches accidental corruption
//! of either side.

use std::ops::Range;

use crate::csr::CsrGraph;
use crate::io_binary::BinaryError;
use crate::types::VertexId;
use crate::version::GraphVersion;
use crate::view::NeighborAccess;
use crate::zerocopy::{as_u32s, as_u64s, AlignedBuf};

/// Appends `v` to `buf` as a LEB128 varint.
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it. `None` on a
/// truncated or over-long (> 64 bit) encoding.
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut shift = 0u32;
    let mut out = 0u64;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
    }
}

/// An immutable CSR digraph borrowed from an owned, aligned `PEG2`
/// image. Implements [`NeighborAccess`], so every planner / index /
/// enumeration path runs on it unchanged; see the module docs for the
/// layout and validation story.
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    buf: AlignedBuf,
    num_vertices: usize,
    num_edges: usize,
    compressed: bool,
    fwd_off: Range<usize>,
    fwd_adj: Range<usize>,
    rev_off: Range<usize>,
    rev_adj: Range<usize>,
    /// Fresh per load: a frozen image is a new edge-set value to every
    /// cache keyed by [`GraphVersion`].
    version: GraphVersion,
}

impl FrozenGraph {
    /// Validates a complete `PEG2` image and freezes it. The buffer is
    /// everything after this call — all adjacency is served from it.
    pub fn from_buf(buf: AlignedBuf) -> Result<FrozenGraph, BinaryError> {
        let (vertices, edges, compressed, sections) = crate::io_binary::parse_peg2_header(&buf)?;
        let [fwd_off, fwd_adj, rev_off, rev_adj] = sections;
        let graph = FrozenGraph {
            buf,
            num_vertices: vertices,
            num_edges: edges,
            compressed,
            fwd_off,
            fwd_adj,
            rev_off,
            rev_adj,
            version: GraphVersion::next(),
        };
        graph.validate()?;
        Ok(graph)
    }

    /// Structural validation of both directions: offset-table geometry,
    /// strict per-row ascent, id range, and total edge count. One O(V +
    /// E) pass per direction at load time buys check-free accessors.
    fn validate(&self) -> Result<(), BinaryError> {
        self.validate_direction(self.fwd_off.clone(), self.fwd_adj.clone())?;
        self.validate_direction(self.rev_off.clone(), self.rev_adj.clone())
    }

    fn validate_direction(&self, off: Range<usize>, adj: Range<usize>) -> Result<(), BinaryError> {
        let offsets = self.offsets_in(off)?;
        if offsets.len() != self.num_vertices + 1 {
            return Err(BinaryError::Corrupt("offset table has wrong length"));
        }
        if offsets.first() != Some(&0) {
            return Err(BinaryError::Corrupt("offset table does not start at 0"));
        }
        // Prove the whole offset chain non-decreasing (and therefore,
        // with first == 0 and last == total length, in bounds) BEFORE
        // slicing any row — a corrupt middle offset must surface as an
        // error, not an out-of-range panic.
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(BinaryError::Corrupt("offset table not monotonic"));
        }
        let adj_bytes = &self.buf.as_bytes()[adj];
        if self.compressed {
            if *offsets.last().unwrap_or(&0) != adj_bytes.len() as u64 {
                return Err(BinaryError::Corrupt(
                    "offset table does not cover the adjacency stream",
                ));
            }
            let mut total = 0usize;
            for v in 0..self.num_vertices {
                let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
                total = total.saturating_add(self.validate_varint_row(&adj_bytes[start..end])?);
            }
            if total != self.num_edges {
                return Err(BinaryError::Corrupt("degree sum disagrees with edge count"));
            }
        } else {
            let targets =
                as_u32s(adj_bytes).ok_or(BinaryError::Corrupt("misaligned adjacency section"))?;
            if targets.len() != self.num_edges
                || *offsets.last().unwrap_or(&0) != self.num_edges as u64
            {
                return Err(BinaryError::Corrupt(
                    "offset table does not cover the adjacency section",
                ));
            }
            for v in 0..self.num_vertices {
                let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
                let mut prev: Option<u32> = None;
                for &n in &targets[start..end] {
                    if n as usize >= self.num_vertices {
                        return Err(BinaryError::Corrupt("neighbor id out of range"));
                    }
                    if prev.is_some_and(|p| p >= n) {
                        return Err(BinaryError::Corrupt("neighbor row not strictly ascending"));
                    }
                    prev = Some(n);
                }
            }
        }
        Ok(())
    }

    /// Decodes one varint row for validation; returns its degree.
    fn validate_varint_row(&self, row: &[u8]) -> Result<usize, BinaryError> {
        let mut pos = 0usize;
        let degree =
            read_varint(row, &mut pos).ok_or(BinaryError::Corrupt("truncated varint row"))?;
        let degree = usize::try_from(degree)
            .map_err(|_| BinaryError::Corrupt("varint degree out of range"))?;
        if degree > self.num_edges {
            return Err(BinaryError::Corrupt("varint degree exceeds edge count"));
        }
        let mut prev: Option<u64> = None;
        for _ in 0..degree {
            let raw =
                read_varint(row, &mut pos).ok_or(BinaryError::Corrupt("truncated varint row"))?;
            let value = match prev {
                None => raw,
                Some(p) => {
                    if raw == 0 {
                        return Err(BinaryError::Corrupt("varint delta of zero"));
                    }
                    p.checked_add(raw)
                        .ok_or(BinaryError::Corrupt("varint neighbor overflows"))?
                }
            };
            if value >= self.num_vertices as u64 {
                return Err(BinaryError::Corrupt("neighbor id out of range"));
            }
            prev = Some(value);
        }
        if pos != row.len() {
            return Err(BinaryError::Corrupt("varint row has trailing bytes"));
        }
        Ok(degree)
    }

    fn offsets_in(&self, range: Range<usize>) -> Result<&[u64], BinaryError> {
        as_u64s(&self.buf.as_bytes()[range])
            .ok_or(BinaryError::Corrupt("misaligned offset section"))
    }

    /// The validated offsets of one direction. Infallible post-load.
    #[inline]
    fn offsets(&self, range: &Range<usize>) -> &[u64] {
        as_u64s(&self.buf.as_bytes()[range.clone()]).unwrap_or(&[])
    }

    /// The raw targets of one direction (raw encoding only).
    #[inline]
    fn adjacency(&self, range: &Range<usize>) -> &[u32] {
        as_u32s(&self.buf.as_bytes()[range.clone()]).unwrap_or(&[])
    }

    #[inline]
    fn row_raw(&self, off: &Range<usize>, adj: &Range<usize>, v: VertexId) -> &[u32] {
        let offsets = self.offsets(off);
        let (start, end) = (
            offsets[v as usize] as usize,
            offsets[v as usize + 1] as usize,
        );
        &self.adjacency(adj)[start..end]
    }

    #[inline]
    fn row_stream(&self, off: &Range<usize>, adj: &Range<usize>, v: VertexId) -> &[u8] {
        let offsets = self.offsets(off);
        let (start, end) = (
            offsets[v as usize] as usize,
            offsets[v as usize + 1] as usize,
        );
        &self.buf.as_bytes()[adj.clone()][start..end]
    }

    #[inline]
    fn for_each_neighbor(
        &self,
        off: &Range<usize>,
        adj: &Range<usize>,
        v: VertexId,
        mut f: impl FnMut(VertexId),
    ) {
        if self.compressed {
            let row = self.row_stream(off, adj, v);
            let mut pos = 0usize;
            let Some(degree) = read_varint(row, &mut pos) else {
                return;
            };
            let mut current = 0u64;
            for i in 0..degree {
                let Some(raw) = read_varint(row, &mut pos) else {
                    return;
                };
                current = if i == 0 { raw } else { current + raw };
                f(current as VertexId);
            }
        } else {
            for &n in self.row_raw(off, adj, v) {
                f(n);
            }
        }
    }

    fn degree_of(&self, off: &Range<usize>, adj: &Range<usize>, v: VertexId) -> usize {
        if self.compressed {
            let row = self.row_stream(off, adj, v);
            read_varint(row, &mut 0).unwrap_or(0) as usize
        } else {
            let offsets = self.offsets(off);
            (offsets[v as usize + 1] - offsets[v as usize]) as usize
        }
    }

    fn contains_neighbor(
        &self,
        off: &Range<usize>,
        adj: &Range<usize>,
        v: VertexId,
        n: VertexId,
    ) -> bool {
        if self.compressed {
            let mut found = false;
            // Rows are ascending; a scan past `n` could stop early, but
            // rows are short enough that the callback keeps it simple.
            self.for_each_neighbor(off, adj, v, |w| found |= w == n);
            found
        } else {
            self.row_raw(off, adj, v).binary_search(&n).is_ok()
        }
    }

    /// The version epoch of this frozen edge set (fresh per load).
    #[inline]
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the adjacency sections are varint/delta compressed.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Total bytes of the backing image — the whole memory footprint of
    /// this graph (plus the fixed struct header).
    #[inline]
    pub fn image_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Thaws into an owned [`CsrGraph`] (one allocation pass; edges are
    /// already sorted, so no re-sort happens). The escape hatch for
    /// callers that need mutation via [`DynamicGraph`](crate::DynamicGraph).
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.num_edges);
        for v in 0..self.num_vertices as VertexId {
            self.for_each_neighbor(&self.fwd_off, &self.fwd_adj, v, |n| edges.push((v, n)));
        }
        CsrGraph::from_sorted_dedup_edges(self.num_vertices, &edges)
    }
}

impl NeighborAccess for FrozenGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn for_each_out(&self, v: VertexId, f: impl FnMut(VertexId)) {
        self.for_each_neighbor(&self.fwd_off, &self.fwd_adj, v, f);
    }

    #[inline]
    fn for_each_in(&self, v: VertexId, f: impl FnMut(VertexId)) {
        self.for_each_neighbor(&self.rev_off, &self.rev_adj, v, f);
    }

    #[inline]
    fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.contains_neighbor(&self.fwd_off, &self.fwd_adj, from, to)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.degree_of(&self.fwd_off, &self.fwd_adj, v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        self.degree_of(&self.rev_off, &self.rev_adj, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlength() {
        assert_eq!(read_varint(&[0x80], &mut 0), None, "truncated");
        assert_eq!(read_varint(&[], &mut 0), None, "empty");
        let overlong = [0x80u8; 11];
        assert_eq!(read_varint(&overlong, &mut 0), None, "more than 64 bits");
    }
}
