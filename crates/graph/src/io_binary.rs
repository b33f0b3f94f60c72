//! Compact binary graph serialization: `PEG2` (CSR-native),
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
//! `PEG2` — the CSR arrays themselves, laid out so the file's sections
//! *are* [`CsrGraph`]'s four vectors: a load reads each section
//! straight into its vector, with zero parse, zero re-sort and zero
//! rebuild:
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
//! Adjacency sections hold `(V+1) x u64` element offsets (`usize` in
//! memory, hence the 64-bit target) and `E x u32` neighbor ids.
//!
//! Every load is validated before the graph is returned. The section
//! table's geometry (in bounds of the image, 8-byte aligned, ascending)
//! is checked before any section-sized allocation, so a corrupt length
//! cannot drive one past the image size. The checksum folds in every
//! payload byte as it is read: sections, the padding between them and
//! any trailing bytes. Then each direction is checked: offset
//! monotonicity, per-row strict ascent and id range. Forward/reverse
//! consistency is the writer's contract (like `PEG1`, which trusts its
//! sorted-edge invariant); the checksum catches accidental corruption
//! of either side.

use std::io::{Read, Write};
use std::ops::Range;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::handle::GraphHandle;
use crate::types::VertexId;
use crate::version::GraphVersion;
use crate::zerocopy::{bytes_of, bytes_of_mut, Word};

const MAGIC: &[u8; 4] = b"PEG1";
const MAGIC2: &[u8; 4] = b"PEG2";

/// Bytes of the fixed `PEG2` header (magic, flags, counts, checksum).
const PEG2_HEADER_LEN: usize = 32;

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

/// The `PEG2` payload checksum, fed piece by piece: FNV-1a folded over
/// the little-endian words of everything fed, wherever the pieces break,
/// then over the trailing bytes that make no whole word one at a time.
/// Word-wise folding keeps the checksum off the cold-start critical path
/// (a byte-at-a-time FNV costs more than the structural validation it
/// accompanies); any flipped bit still perturbs the xor-multiply chain.
struct Fnv1a {
    hash: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv1a {
        Fnv1a {
            hash: 0xcbf2_9ce4_8422_2325,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.hash = (self.hash ^ u64::from_le_bytes(self.tail)).wrapping_mul(Self::PRIME);
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.hash = (self.hash ^ word).wrapping_mul(Self::PRIME);
        }
        self.tail_len = chunks.remainder().len();
        self.tail[..self.tail_len].copy_from_slice(chunks.remainder());
    }

    fn finish(&self) -> u64 {
        let tail = &self.tail[..self.tail_len];
        tail.iter().fold(self.hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(Self::PRIME)
        })
    }
}

/// Serializes a graph to the `PEG2` format, whose sections are the
/// graph's four CSR vectors byte for byte.
pub fn write_frozen<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    let sections = [
        bytes_of(&graph.out_offsets),
        bytes_of(&graph.out_targets),
        bytes_of(&graph.in_offsets),
        bytes_of(&graph.in_sources),
    ];
    // Each section starts 8-byte aligned after zero padding; the
    // checksum covers the payload in that layout, padding included.
    let padding = |end: usize| &[0u8; 8][..end.next_multiple_of(8) - end];
    let (mut hasher, mut end) = (Fnv1a::new(), PAYLOAD_BASE);
    let mut table = Vec::with_capacity(SECTION_TABLE_LEN);
    for section in sections {
        hasher.update(padding(end));
        hasher.update(section);
        end = end.next_multiple_of(8);
        table.extend_from_slice(&(end as u64).to_le_bytes());
        table.extend_from_slice(&(section.len() as u64).to_le_bytes());
        end += section.len();
    }

    writer.write_all(MAGIC2)?;
    writer.write_all(&0u32.to_le_bytes())?;
    writer.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    writer.write_all(&hasher.finish().to_le_bytes())?;
    writer.write_all(&table)?;
    let mut end = PAYLOAD_BASE;
    for section in sections {
        writer.write_all(padding(end))?;
        writer.write_all(section)?;
        end = end.next_multiple_of(8) + section.len();
    }
    Ok(())
}

/// Writes a graph to a file in the `PEG2` format.
///
/// Deliberate API with no caller in the workspace: the file-level
/// counterpart of [`read_frozen_file`] and the way README § formats
/// freezes a graph for serving.
pub fn write_frozen_file(graph: &CsrGraph, path: &std::path::Path) -> std::io::Result<()> {
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_frozen(graph, &mut writer)?;
    writer.flush()
}

/// A `PEG2` image being read in order past its header, each payload
/// byte folded into the checksum as it arrives.
struct Peg2Reader<R> {
    reader: R,
    hasher: Fnv1a,
    at: usize,
}

impl<R: Read> Peg2Reader<R> {
    /// Reads and checksums the bytes up to `end` (a section start or the
    /// image end) through a small buffer: a gap of any length the table
    /// allows costs no allocation.
    fn skip_to(&mut self, end: usize) -> Result<(), BinaryError> {
        let mut buf = [0u8; 4096];
        while self.at < end {
            let chunk = &mut buf[..(end - self.at).min(4096)];
            self.reader.read_exact(chunk)?;
            self.hasher.update(chunk);
            self.at += chunk.len();
        }
        Ok(())
    }

    /// Reads the section at `range`, which the table check proved lies
    /// in the image at or past the read position, straight into a
    /// vector of its elements.
    fn section<T: Word>(
        &mut self,
        range: Range<usize>,
        ragged: &'static str,
    ) -> Result<Vec<T>, BinaryError> {
        if !range.len().is_multiple_of(std::mem::size_of::<T>()) {
            return Err(BinaryError::Corrupt(ragged));
        }
        self.skip_to(range.start)?;
        let mut values = vec![T::default(); range.len() / std::mem::size_of::<T>()];
        let bytes = bytes_of_mut(&mut values);
        self.reader.read_exact(bytes)?;
        self.hasher.update(bytes);
        self.at = range.end;
        Ok(values)
    }
}

/// Structural validation of one direction: offset-table geometry,
/// strict per-row ascent, id range, and total edge count. One O(V + E)
/// pass per direction at load time buys check-free accessors.
fn validate_direction(
    vertices: usize,
    edges: usize,
    offsets: &[usize],
    targets: &[VertexId],
) -> Result<(), BinaryError> {
    if offsets.len() != vertices + 1 {
        return Err(BinaryError::Corrupt("offset table has wrong length"));
    }
    if offsets.first() != Some(&0) {
        return Err(BinaryError::Corrupt("offset table does not start at 0"));
    }
    // Prove the whole offset chain non-decreasing (and therefore, with
    // first == 0 and last == total length, in bounds) BEFORE slicing
    // any row — a corrupt middle offset must surface as an error, not
    // an out-of-range panic.
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(BinaryError::Corrupt("offset table not monotonic"));
    }
    if targets.len() != edges || *offsets.last().unwrap_or(&0) != edges {
        return Err(BinaryError::Corrupt(
            "offset table does not cover the adjacency section",
        ));
    }
    for v in 0..vertices {
        let mut prev: Option<u32> = None;
        for &n in &targets[offsets[v]..offsets[v + 1]] {
            if n as usize >= vertices {
                return Err(BinaryError::Corrupt("neighbor id out of range"));
            }
            if prev.is_some_and(|p| p >= n) {
                return Err(BinaryError::Corrupt("neighbor row not strictly ascending"));
            }
            prev = Some(n);
        }
    }
    Ok(())
}

/// Loads a `PEG2` image of `image_len` bytes from `reader`. The header
/// and section table come first: magic, flags (all zero), id-space
/// bounds, and section geometry (in the image, 8-byte aligned,
/// ascending), so no section can drive an allocation past the image
/// size. Each section is then read straight into its CSR vector, the
/// checksum is compared over every byte after the table (sections,
/// padding and trailing bytes), and both directions are validated.
fn load_peg2(reader: impl Read, image_len: usize) -> Result<CsrGraph, BinaryError> {
    if image_len < PAYLOAD_BASE {
        return Err(BinaryError::Corrupt("image shorter than the PEG2 header"));
    }
    let mut image = Peg2Reader {
        reader,
        hasher: Fnv1a::new(),
        at: PAYLOAD_BASE,
    };
    let mut head = [0u8; PAYLOAD_BASE];
    image.reader.read_exact(&mut head)?;
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8-byte slice"));
    let magic: [u8; 4] = head[..4].try_into().expect("4-byte slice");
    if &magic != MAGIC2 {
        return Err(BinaryError::BadMagic(magic));
    }
    if head[4..8] != [0; 4] {
        return Err(BinaryError::Corrupt("unknown header flags"));
    }
    if word(8) > u32::MAX as u64 {
        return Err(BinaryError::Corrupt("vertex count exceeds u32 id space"));
    }
    let vertices = word(8) as usize;
    let edges = usize::try_from(word(16))
        .map_err(|_| BinaryError::Corrupt("edge count exceeds address space"))?;
    let mut sections: [Range<usize>; 4] = [0..0, 0..0, 0..0, 0..0];
    let mut previous_end = PAYLOAD_BASE;
    for (slot, section) in sections.iter_mut().enumerate() {
        let base = PEG2_HEADER_LEN + slot * 16;
        let offset = usize::try_from(word(base))
            .map_err(|_| BinaryError::Corrupt("section offset exceeds address space"))?;
        let len = usize::try_from(word(base + 8))
            .map_err(|_| BinaryError::Corrupt("section length exceeds address space"))?;
        if !offset.is_multiple_of(8) {
            return Err(BinaryError::Corrupt("section offset not 8-byte aligned"));
        }
        if offset < previous_end {
            return Err(BinaryError::Corrupt("sections out of order or overlapping"));
        }
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= image_len)
            .ok_or(BinaryError::Corrupt("section extends past the image"))?;
        *section = offset..end;
        previous_end = end;
    }

    let [fwd_off, fwd_adj, rev_off, rev_adj] = sections;
    let graph = CsrGraph {
        num_vertices: vertices,
        out_offsets: image.section(fwd_off, "misaligned offset section")?,
        out_targets: image.section(fwd_adj, "misaligned adjacency section")?,
        in_offsets: image.section(rev_off, "misaligned offset section")?,
        in_sources: image.section(rev_adj, "misaligned adjacency section")?,
        version: GraphVersion::next(),
    };
    image.skip_to(image_len)?;
    if image.hasher.finish() != word(24) {
        return Err(BinaryError::Corrupt("payload checksum mismatch"));
    }
    validate_direction(vertices, edges, &graph.out_offsets, &graph.out_targets)?;
    validate_direction(vertices, edges, &graph.in_offsets, &graph.in_sources)?;
    Ok(graph)
}

/// Deserializes a graph from a `PEG2` stream. The stream is drained
/// first, so the image length bounds every section before its vector
/// is allocated.
pub fn read_frozen<R: Read>(mut reader: R) -> Result<CsrGraph, BinaryError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    load_peg2(bytes.as_slice(), bytes.len())
}

/// Loads a graph from a `PEG2` file, reading each section straight into
/// its CSR vector: no parse, no re-sort and no rebuild, one read per
/// section and one checksum and validation pass.
pub fn read_frozen_file(path: &std::path::Path) -> Result<CsrGraph, BinaryError> {
    let file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| BinaryError::Corrupt("file exceeds address space"))?;
    load_peg2(file, len)
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
/// `PEG2` images load section by section into a [`CsrGraph`], `PEG1`
/// streams rebuild one, anything else parses as a text edge list. The
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
    fn frozen_checksum_covers_padding_and_trailing_bytes() {
        // An odd edge count leaves 4 padding bytes between the forward
        // adjacency and the reverse offsets: a flip there changes no
        // adjacency, so only a checksum over every payload byte sees it.
        let g = erdos_renyi(30, 101, 8);
        assert_eq!(g.num_edges() % 2, 1, "fixture needs an odd edge count");
        let image = frozen_bytes(&g);
        let path = std::env::temp_dir().join("pathenum_io_binary_checksum_test.peg");
        // The intact image loads, so each failure below is its one edit.
        assert_eq!(read_frozen(image.as_slice()).unwrap().num_edges(), 101);
        std::fs::write(&path, &image).unwrap();
        assert_eq!(read_frozen_file(&path).unwrap().num_edges(), 101);
        let fwd_adj_end = PAYLOAD_BASE + (g.num_vertices() + 1) * 8 + g.num_edges() * 4;
        let mut padded = image.clone();
        padded[fwd_adj_end] ^= 0x01;
        let mut extended = image.clone();
        extended.push(0);
        for (what, bad) in [("padding flip", padded), ("appended byte", extended)] {
            let err = read_frozen(bad.as_slice()).unwrap_err();
            assert!(
                matches!(err, BinaryError::Corrupt("payload checksum mismatch")),
                "{what}: {err}"
            );
            std::fs::write(&path, &bad).unwrap();
            let err = read_frozen_file(&path).unwrap_err();
            assert!(
                matches!(err, BinaryError::Corrupt("payload checksum mismatch")),
                "{what} (file): {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frozen_rejects_truncation() {
        let image = frozen_bytes(&erdos_renyi(50, 300, 2));
        let mut inputs: Vec<(String, Vec<u8>)> =
            [10, PEG2_HEADER_LEN, PAYLOAD_BASE, image.len() - 5]
                .into_iter()
                .map(|keep| (format!("keep={keep}"), image[..keep].to_vec()))
                .collect();
        // A table length of 2^40 on a small image must fail on geometry,
        // before a section-sized allocation: the last section, so a
        // reader that checked each section only on reaching it would
        // first have read the other three.
        let mut oversized = image.clone();
        let len_at = PEG2_HEADER_LEN + 3 * 16 + 8;
        oversized[len_at..len_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        inputs.push(("section length 2^40".to_string(), oversized));
        let path = std::env::temp_dir().join("pathenum_io_binary_truncation_test.peg");
        for (what, bad) in inputs {
            let err = read_frozen(bad.as_slice()).unwrap_err();
            assert!(matches!(err, BinaryError::Corrupt(_)), "{what}: {err}");
            std::fs::write(&path, &bad).unwrap();
            let err = read_frozen_file(&path).unwrap_err();
            assert!(
                matches!(err, BinaryError::Corrupt(_)),
                "{what} (file): {err}"
            );
        }
        std::fs::remove_file(&path).ok();
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
        assert!(matches!(handle, GraphHandle::Heap(_)));
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
