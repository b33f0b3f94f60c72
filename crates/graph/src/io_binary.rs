//! Compact binary graph serialization: `PEG2` (CSR-native, zero-copy),
//! the one format the library writes, and `PEG1` (edge list), which it
//! only reads.
//!
//! Text edge lists parse at tens of MB/s; reloading a large graph for
//! every experiment run dominates harness start-up. Two little-endian
//! binary formats load faster:
//!
//! `PEG1` — a sorted edge list, read into a [`CsrGraph`] through one
//! sequential read that rebuilds the CSR arrays (read-only here: inputs
//! in this format come from other writers):
//!
//! ```text
//! magic  "PEG1"           4 bytes
//! vertices: u64           8 bytes
//! edges:    u64           8 bytes
//! edge list: (u32, u32) x edges, sorted by (from, to)
//! ```
//!
//! `PEG2` — the CSR arrays themselves, laid out so the file *is* the
//! query-ready representation: load is one bulk read into an aligned
//! buffer plus a validation pass, and a [`FrozenGraph`] then serves
//! [`NeighborAccess`](crate::NeighborAccess) straight off that buffer
//! with zero re-sort and zero rebuild:
//!
//! ```text
//! header (32 bytes):
//!   magic "PEG2"          4 bytes
//!   flags: u32            4 bytes   must be 0
//!   vertices: u64         8 bytes
//!   edges:    u64         8 bytes
//!   checksum: u64         8 bytes   FNV-1a over the payload
//! section table (4 x 16 bytes): (offset: u64, len: u64) each
//!   [0] fwd offsets  [1] fwd adjacency  [2] rev offsets  [3] rev adjacency
//! payload: the sections, each starting 8-byte aligned (zero padding
//!   between), offsets absolute from the start of the image
//! ```
//!
//! Adjacency sections hold `(V+1) x u64` element offsets and `E x u32`
//! neighbor ids. See [`crate::frozen`] for the serving side and the
//! validation story.

use std::io::{Read, Write};

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::frozen::FrozenGraph;
use crate::handle::GraphHandle;
use crate::types::VertexId;
use crate::zerocopy::AlignedBuf;

const MAGIC: &[u8; 4] = b"PEG1";
const MAGIC2: &[u8; 4] = b"PEG2";

/// Bytes of the fixed `PEG2` header (magic, flags, counts, checksum).
pub(crate) const PEG2_HEADER_LEN: usize = 32;

/// Bytes of the `PEG2` section table (4 sections x 16 bytes).
const SECTION_TABLE_LEN: usize = 64;

/// First payload byte: everything before this is header + table.
const PAYLOAD_BASE: usize = PEG2_HEADER_LEN + SECTION_TABLE_LEN;

/// Cap on the edge-count-driven preallocation in [`read_binary`]. A
/// corrupt header claiming `u64::MAX` edges must not drive a
/// multi-gigabyte reserve before the first truncated read is noticed;
/// genuine graphs larger than this simply grow the vectors as edges
/// actually arrive.
const MAX_EDGE_PREALLOC: usize = 1 << 20;

/// Errors raised while decoding a binary graph.
#[derive(Debug)]
pub enum BinaryError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The stream starts with neither the `PEG1` nor the `PEG2` magic.
    BadMagic([u8; 4]),
    /// The header promises more data than the stream holds, a section is
    /// malformed, or an edge is invalid (self-loop / out-of-range id).
    Corrupt(&'static str),
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::Io(e) => write!(f, "io error: {e}"),
            BinaryError::BadMagic(m) => {
                write!(f, "bad magic {m:?}, expected {MAGIC:?} or {MAGIC2:?}")
            }
            BinaryError::Corrupt(what) => write!(f, "corrupt graph stream: {what}"),
        }
    }
}

impl std::error::Error for BinaryError {}

impl From<std::io::Error> for BinaryError {
    fn from(e: std::io::Error) -> Self {
        BinaryError::Io(e)
    }
}

/// Deserializes a graph from the `PEG1` edge-list format.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, BinaryError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(BinaryError::BadMagic(magic));
    }
    let mut word = [0u8; 8];
    reader.read_exact(&mut word)?;
    let vertices = u64::from_le_bytes(word);
    reader.read_exact(&mut word)?;
    let edges = u64::from_le_bytes(word);
    if vertices > u32::MAX as u64 {
        return Err(BinaryError::Corrupt("vertex count exceeds u32 id space"));
    }
    let mut builder = GraphBuilder::new(vertices as usize);
    // The header's edge count is untrusted until the stream backs it
    // up: bound the up-front reservation and let genuine larger inputs
    // grow organically (amortized O(1) pushes) instead of letting a
    // corrupt count drive an unbounded allocation.
    builder.reserve((edges as usize).min(MAX_EDGE_PREALLOC));
    let mut pair = [0u8; 8];
    for _ in 0..edges {
        reader
            .read_exact(&mut pair)
            .map_err(|_| BinaryError::Corrupt("truncated edge list"))?;
        let from = VertexId::from_le_bytes(pair[..4].try_into().expect("4-byte slice"));
        let to = VertexId::from_le_bytes(pair[4..].try_into().expect("4-byte slice"));
        builder
            .add_edge(from, to)
            .map_err(|_| BinaryError::Corrupt("invalid edge (self-loop or out of range)"))?;
    }
    Ok(builder.finish())
}

/// Reads a graph from a `PEG1` file.
pub fn read_binary_file(path: &std::path::Path) -> Result<CsrGraph, BinaryError> {
    let file = std::fs::File::open(path)?;
    read_binary(std::io::BufReader::new(file))
}

/// FNV-1a folded eight bytes at a time — the payload checksum of the
/// `PEG2` header. Word-wise folding keeps the checksum off the
/// cold-start critical path (a byte-at-a-time FNV costs more than the
/// structural validation it accompanies); any flipped bit still
/// perturbs the xor-multiply chain. Trailing bytes (the payload need
/// not be a multiple of 8) fold individually, so the function is
/// well-defined on any slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Encodes one CSR direction as raw sections: `(V+1) x u64` element
/// offsets and `E x u32` neighbor ids.
fn encode_raw_direction(offsets: &[usize], targets: &[VertexId]) -> (Vec<u8>, Vec<u8>) {
    let mut off_bytes = Vec::with_capacity(offsets.len() * 8);
    for &o in offsets {
        off_bytes.extend_from_slice(&(o as u64).to_le_bytes());
    }
    let mut adj_bytes = Vec::with_capacity(targets.len() * 4);
    for &t in targets {
        adj_bytes.extend_from_slice(&t.to_le_bytes());
    }
    (off_bytes, adj_bytes)
}

/// Serializes a graph to the `PEG2` zero-copy format, whose sections
/// are byte-for-byte the serving layout.
pub fn write_frozen<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    let (out_offsets, out_targets, in_offsets, in_sources) = graph.csr_parts();
    let (fwd_off, fwd_adj) = encode_raw_direction(out_offsets, out_targets);
    let (rev_off, rev_adj) = encode_raw_direction(in_offsets, in_sources);

    // Assemble the payload with 8-byte-aligned section starts and
    // record the absolute (offset, len) table entries.
    let mut payload = Vec::new();
    let mut table = [(0u64, 0u64); 4];
    for (slot, section) in [&fwd_off, &fwd_adj, &rev_off, &rev_adj]
        .into_iter()
        .enumerate()
    {
        while payload.len() % 8 != 0 {
            payload.push(0);
        }
        table[slot] = ((PAYLOAD_BASE + payload.len()) as u64, section.len() as u64);
        payload.extend_from_slice(section);
    }

    writer.write_all(MAGIC2)?;
    writer.write_all(&0u32.to_le_bytes())?;
    writer.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    writer.write_all(&fnv1a(&payload).to_le_bytes())?;
    for (offset, len) in table {
        writer.write_all(&offset.to_le_bytes())?;
        writer.write_all(&len.to_le_bytes())?;
    }
    writer.write_all(&payload)
}

/// Writes a graph to a file in the `PEG2` format.
pub fn write_frozen_file(graph: &CsrGraph, path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_frozen(graph, std::io::BufWriter::new(file))
}

/// Parsed `PEG2` header: `(vertices, edges, section ranges)`.
pub(crate) type Peg2Header = (usize, usize, [std::ops::Range<usize>; 4]);

/// Validates the fixed `PEG2` header + section table of a complete
/// image: magic, flags (all zero), id-space bounds, payload checksum,
/// and section geometry (in-bounds, 8-byte aligned, ascending,
/// non-overlapping). Returns `(vertices, edges, section ranges)`.
pub(crate) fn parse_peg2_header(buf: &AlignedBuf) -> Result<Peg2Header, BinaryError> {
    let bytes = buf.as_bytes();
    if bytes.len() < PAYLOAD_BASE {
        return Err(BinaryError::Corrupt("image shorter than the PEG2 header"));
    }
    let magic: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
    if &magic != MAGIC2 {
        return Err(BinaryError::BadMagic(magic));
    }
    let flags = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if flags != 0 {
        return Err(BinaryError::Corrupt("unknown header flags"));
    }
    let vertices = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let edges = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    if vertices > u32::MAX as u64 {
        return Err(BinaryError::Corrupt("vertex count exceeds u32 id space"));
    }
    let vertices = vertices as usize;
    let edges = usize::try_from(edges)
        .map_err(|_| BinaryError::Corrupt("edge count exceeds address space"))?;
    if fnv1a(&bytes[PAYLOAD_BASE..]) != checksum {
        return Err(BinaryError::Corrupt("payload checksum mismatch"));
    }

    let mut sections: [std::ops::Range<usize>; 4] = [0..0, 0..0, 0..0, 0..0];
    let mut previous_end = PAYLOAD_BASE;
    for (slot, section) in sections.iter_mut().enumerate() {
        let base = PEG2_HEADER_LEN + slot * 16;
        let offset = u64::from_le_bytes(bytes[base..base + 8].try_into().expect("8-byte slice"));
        let len = u64::from_le_bytes(bytes[base + 8..base + 16].try_into().expect("8-byte slice"));
        let offset = usize::try_from(offset)
            .map_err(|_| BinaryError::Corrupt("section offset exceeds address space"))?;
        let len = usize::try_from(len)
            .map_err(|_| BinaryError::Corrupt("section length exceeds address space"))?;
        if offset % 8 != 0 {
            return Err(BinaryError::Corrupt("section offset not 8-byte aligned"));
        }
        if offset < previous_end {
            return Err(BinaryError::Corrupt("sections out of order or overlapping"));
        }
        let end = offset
            .checked_add(len)
            .ok_or(BinaryError::Corrupt("section extends past address space"))?;
        if end > bytes.len() {
            return Err(BinaryError::Corrupt("section extends past the image"));
        }
        *section = offset..end;
        previous_end = end;
    }
    Ok((vertices, edges, sections))
}

/// Deserializes a [`FrozenGraph`] from a `PEG2` stream. The stream is
/// drained fully, copied once into an aligned buffer, validated, and
/// served from there.
pub fn read_frozen<R: Read>(mut reader: R) -> Result<FrozenGraph, BinaryError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    FrozenGraph::from_buf(AlignedBuf::from_bytes(&bytes))
}

/// Loads a [`FrozenGraph`] from a `PEG2` file with one bulk read
/// directly into the aligned serving buffer — the zero-copy cold-start
/// path (the in-memory stand-in for an mmap, which the vendored-only
/// dependency policy rules out).
pub fn read_frozen_file(path: &std::path::Path) -> Result<FrozenGraph, BinaryError> {
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| BinaryError::Corrupt("file exceeds address space"))?;
    let mut buf = AlignedBuf::zeroed(len);
    file.read_exact(buf.as_bytes_mut())?;
    FrozenGraph::from_buf(buf)
}

/// Errors raised by the format-sniffing [`read_graph_file`] loader.
#[derive(Debug)]
pub enum LoadError {
    /// The file looked binary (`PEG1`/`PEG2`) but failed to decode.
    Binary(BinaryError),
    /// The file was treated as a text edge list and failed to parse.
    Text(crate::io::ReadError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Binary(e) => write!(f, "{e}"),
            LoadError::Text(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<BinaryError> for LoadError {
    fn from(e: BinaryError) -> Self {
        LoadError::Binary(e)
    }
}

impl From<crate::io::ReadError> for LoadError {
    fn from(e: crate::io::ReadError) -> Self {
        LoadError::Text(e)
    }
}

/// Loads a graph file of any supported format, sniffing the magic:
/// `PEG2` images freeze in place (zero-copy), `PEG1` streams rebuild a
/// heap [`CsrGraph`], anything else parses as a text edge list. The
/// returned [`GraphHandle`] plugs into every engine and serving layer.
pub fn read_graph_file(path: &std::path::Path) -> Result<GraphHandle, LoadError> {
    let mut magic = [0u8; 4];
    {
        let mut file = std::fs::File::open(path).map_err(BinaryError::Io)?;
        // A file shorter than any magic can only be a (possibly empty)
        // text edge list; leave `magic` zeroed and fall through.
        let mut read = 0;
        while read < 4 {
            match file.read(&mut magic[read..]).map_err(BinaryError::Io)? {
                0 => break,
                n => read += n,
            }
        }
    }
    if &magic == MAGIC2 {
        Ok(GraphHandle::from(read_frozen_file(path)?))
    } else if &magic == MAGIC {
        Ok(GraphHandle::from(read_binary_file(path)?))
    } else {
        Ok(GraphHandle::from(
            crate::io::read_edge_list_file(path)?.graph,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::view::NeighborAccess;

    fn out_row(g: &impl NeighborAccess, v: VertexId) -> Vec<VertexId> {
        let mut row = Vec::new();
        g.for_each_out(v, |n| row.push(n));
        row
    }

    fn in_row(g: &impl NeighborAccess, v: VertexId) -> Vec<VertexId> {
        let mut row = Vec::new();
        g.for_each_in(v, |n| row.push(n));
        row
    }

    fn frozen_bytes(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frozen(g, &mut buf).unwrap();
        buf
    }

    /// `PEG1` bytes for a graph: magic, vertex and edge counts as `u64`,
    /// then the sorted `u32` pairs.
    fn peg1_bytes(g: &CsrGraph) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + g.num_edges() * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
        out.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
        for (from, to) in g.edges() {
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&to.to_le_bytes());
        }
        out
    }

    #[test]
    fn roundtrip_preserves_the_graph() {
        let g = erdos_renyi(200, 1500, 9);
        let back = read_binary(peg1_bytes(&g).as_slice()).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = erdos_renyi(5, 0, 0);
        let back = read_binary(peg1_bytes(&g).as_slice()).unwrap();
        assert_eq!(back.num_vertices(), 5);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_binary(&b"XXXX\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, BinaryError::BadMagic(_)));
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut buf = peg1_bytes(&erdos_renyi(10, 20, 1));
        buf.truncate(buf.len() - 3);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinaryError::Corrupt(_)));
    }

    #[test]
    fn rejects_out_of_range_edges() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PEG1");
        buf.extend_from_slice(&2u64.to_le_bytes()); // 2 vertices
        buf.extend_from_slice(&1u64.to_le_bytes()); // 1 edge
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes()); // vertex 9 out of range
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinaryError::Corrupt(_)));
    }

    #[test]
    fn huge_claimed_edge_count_fails_fast_without_preallocating() {
        // Regression: a corrupt header claiming u64::MAX edges used to
        // drive `builder.reserve(u64::MAX as usize)` before the first
        // truncated read was noticed. The reserve is now bounded, so
        // this must fail quickly with a Corrupt error, not abort.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PEG1");
        buf.extend_from_slice(&4u64.to_le_bytes()); // 4 vertices
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd edge count
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one real edge, then EOF
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, BinaryError::Corrupt("truncated edge list")));
    }

    #[test]
    fn file_roundtrip() {
        let g = erdos_renyi(30, 100, 2);
        let dir = std::env::temp_dir().join("pathenum_io_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.peg");
        std::fs::write(&path, peg1_bytes(&g)).unwrap();
        let back = read_binary_file(&path).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frozen_roundtrip_matches_source_adjacency() {
        let g = erdos_renyi(120, 900, 17);
        let frozen = read_frozen(frozen_bytes(&g).as_slice()).unwrap();
        assert_eq!(frozen.num_vertices(), g.num_vertices());
        assert_eq!(frozen.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(out_row(&frozen, v), out_row(&g, v), "out row {v}");
            assert_eq!(in_row(&frozen, v), in_row(&g, v), "in row {v}");
            assert_eq!(frozen.out_degree(v), g.out_degree(v));
            assert_eq!(frozen.in_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn frozen_has_edge_agrees_with_source() {
        let g = erdos_renyi(40, 250, 3);
        let frozen = read_frozen(frozen_bytes(&g).as_slice()).unwrap();
        for u in 0..40u32 {
            for w in 0..40u32 {
                assert_eq!(frozen.has_edge(u, w), g.has_edge(u, w), "({u},{w})");
            }
        }
    }

    #[test]
    fn frozen_roundtrip_empty_and_tiny() {
        let g = erdos_renyi(7, 0, 0);
        let frozen = read_frozen(frozen_bytes(&g).as_slice()).unwrap();
        assert_eq!(frozen.num_vertices(), 7);
        assert_eq!(frozen.num_edges(), 0);
        let g = erdos_renyi(0, 0, 0);
        let frozen = read_frozen(frozen_bytes(&g).as_slice()).unwrap();
        assert_eq!(frozen.num_vertices(), 0);
    }

    #[test]
    fn frozen_to_csr_thaws_identically() {
        let g = erdos_renyi(60, 400, 5);
        let thawed = read_frozen(frozen_bytes(&g).as_slice()).unwrap().to_csr();
        assert_eq!(
            thawed.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn frozen_rejects_bad_magic_and_short_images() {
        let err = read_frozen(&b"PEGX\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, BinaryError::Corrupt(_)), "short image");
        let mut image = frozen_bytes(&erdos_renyi(10, 30, 1));
        image[..4].copy_from_slice(b"PEGX");
        let err = read_frozen(image.as_slice()).unwrap_err();
        assert!(matches!(err, BinaryError::BadMagic(_)));
    }

    #[test]
    fn frozen_rejects_payload_corruption() {
        let mut image = frozen_bytes(&erdos_renyi(50, 300, 2));
        let last = image.len() - 1;
        image[last] ^= 0x40;
        let err = read_frozen(image.as_slice()).unwrap_err();
        assert!(
            matches!(err, BinaryError::Corrupt("payload checksum mismatch")),
            "flipped payload byte must fail the checksum, got {err}"
        );
    }

    #[test]
    fn frozen_rejects_truncation() {
        let image = frozen_bytes(&erdos_renyi(50, 300, 2));
        for keep in [10, PEG2_HEADER_LEN, PAYLOAD_BASE, image.len() - 5] {
            let err = read_frozen(&image[..keep]).unwrap_err();
            assert!(matches!(err, BinaryError::Corrupt(_)), "keep={keep}");
        }
    }

    #[test]
    fn frozen_rejects_misaligned_section_offset() {
        let mut image = frozen_bytes(&erdos_renyi(20, 80, 4));
        // Nudge section 1's offset off 8-byte alignment; the checksum
        // covers the payload only, so the table edit must be caught by
        // the geometry checks, not the checksum.
        let base = PEG2_HEADER_LEN + 16;
        let offset = u64::from_le_bytes(image[base..base + 8].try_into().unwrap());
        image[base..base + 8].copy_from_slice(&(offset + 4).to_le_bytes());
        let err = read_frozen(image.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            BinaryError::Corrupt("section offset not 8-byte aligned")
                | BinaryError::Corrupt("sections out of order or overlapping")
        ));
    }

    #[test]
    fn set_header_flags_are_refused_by_every_loader() {
        let dir = std::env::temp_dir().join("pathenum_io_binary_flags_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flagged.peg");
        // Bit 0 once selected a varint adjacency layout; bit 31 was never
        // assigned. The flags word sits outside the checksummed payload.
        for flags in [1u32, 1 << 31] {
            let mut image = frozen_bytes(&erdos_renyi(20, 80, 4));
            image[4..8].copy_from_slice(&flags.to_le_bytes());
            let err = read_frozen(image.as_slice()).unwrap_err();
            assert!(
                matches!(err, BinaryError::Corrupt("unknown header flags")),
                "flags {flags:#x}: {err}"
            );
            std::fs::write(&path, &image).unwrap();
            let err = read_graph_file(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    LoadError::Binary(BinaryError::Corrupt("unknown header flags"))
                ),
                "flags {flags:#x}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frozen_file_roundtrip_and_sniffing_loader() {
        let g = erdos_renyi(30, 120, 6);
        let dir = std::env::temp_dir().join("pathenum_io_binary_test");
        std::fs::create_dir_all(&dir).unwrap();

        let frozen_path = dir.join("g2.peg");
        write_frozen_file(&g, &frozen_path).unwrap();
        let frozen = read_frozen_file(&frozen_path).unwrap();
        assert_eq!(frozen.num_edges(), g.num_edges());
        let handle = read_graph_file(&frozen_path).unwrap();
        assert!(matches!(handle, GraphHandle::Frozen(_)));
        assert_eq!(handle.num_edges(), g.num_edges());

        let peg1_path = dir.join("g1.peg");
        std::fs::write(&peg1_path, peg1_bytes(&g)).unwrap();
        let handle = read_graph_file(&peg1_path).unwrap();
        assert!(matches!(handle, GraphHandle::Heap(_)));
        assert_eq!(handle.num_edges(), g.num_edges());

        let text_path = dir.join("g.txt");
        let mut text = Vec::new();
        crate::io::write_edge_list(&g, &mut text).unwrap();
        std::fs::write(&text_path, &text).unwrap();
        let handle = read_graph_file(&text_path).unwrap();
        assert_eq!(handle.num_vertices(), g.num_vertices());
        assert_eq!(handle.num_edges(), g.num_edges());

        for p in [&frozen_path, &peg1_path, &text_path] {
            std::fs::remove_file(p).ok();
        }
    }
}
