//! Plain-text edge-list parsing and serialization.
//!
//! The format matches SNAP / networkrepository dumps the paper's datasets
//! ship in: one `from to` pair per line, `#` or `%` comment lines ignored,
//! whitespace-separated. Self-loops in inputs are skipped (with a count
//! reported) rather than failing, since several real datasets contain them.
//!
//! One comment is read: when the first non-blank line is exactly
//! `# vertices=N edges=M`, the header [`write_edge_list`] emits, the graph
//! has exactly `N` vertices, so isolated high-numbered vertices survive a
//! round trip and an endpoint `>= N` is malformed.

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Outcome of parsing an edge list.
#[derive(Debug)]
pub struct ParsedGraph {
    /// The finished graph.
    pub graph: CsrGraph,
    /// Number of self-loop lines skipped.
    pub skipped_self_loops: usize,
}

/// Errors raised while reading an edge list.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A non-comment line did not contain two integers.
    Malformed { line_number: usize, content: String },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Malformed {
                line_number,
                content,
            } => {
                write!(f, "malformed edge on line {line_number}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// The vertex count of a `# vertices=N edges=M` header line.
fn header_vertices(line: &str) -> Option<VertexId> {
    let mut parts = line.strip_prefix('#')?.split_whitespace();
    let vertices = parts.next()?.strip_prefix("vertices=")?.parse().ok()?;
    parts.next()?.strip_prefix("edges=")?.parse::<u64>().ok()?;
    parts.next().is_none().then_some(vertices)
}

/// Parses a whitespace-separated edge list from a reader.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<ParsedGraph, ReadError> {
    let mut builder = GraphBuilder::growable();
    let mut declared_vertices: Option<VertexId> = None;
    let mut first_line = true;
    let mut skipped_self_loops = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if std::mem::take(&mut first_line) {
            declared_vertices = header_vertices(trimmed);
            if let Some(n) = declared_vertices {
                builder = GraphBuilder::new(n as usize);
            }
        }
        if trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (from, to) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => {
                let from: VertexId = a.parse().map_err(|_| ReadError::Malformed {
                    line_number: idx + 1,
                    content: trimmed.to_string(),
                })?;
                let to: VertexId = b.parse().map_err(|_| ReadError::Malformed {
                    line_number: idx + 1,
                    content: trimmed.to_string(),
                })?;
                (from, to)
            }
            _ => {
                return Err(ReadError::Malformed {
                    line_number: idx + 1,
                    content: trimmed.to_string(),
                })
            }
        };
        if declared_vertices.is_some_and(|n| from.max(to) >= n) {
            return Err(ReadError::Malformed {
                line_number: idx + 1,
                content: trimmed.to_string(),
            });
        }
        if from == to {
            skipped_self_loops += 1;
            continue;
        }
        builder
            .add_edge(from, to)
            .expect("self-loops and out-of-range endpoints are filtered above");
    }
    Ok(ParsedGraph {
        graph: builder.finish(),
        skipped_self_loops,
    })
}

/// Parses an edge list from a file on disk.
pub fn read_edge_list_file(path: &std::path::Path) -> Result<ParsedGraph, ReadError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

/// Writes a graph as a `# vertices=N edges=M` header plus one edge per
/// line; [`read_edge_list`] reads the header back as the vertex count.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# vertices={} edges={}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (from, to) in graph.edges() {
        writeln!(writer, "{from} {to}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_edges() {
        let text = "# header\n% other comment\n\n0 1\n1 2\n 2   3 \n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(parsed.graph.num_edges(), 3);
        assert_eq!(parsed.graph.num_vertices(), 4);
        assert_eq!(parsed.skipped_self_loops, 0);
    }

    #[test]
    fn skips_self_loops_counting_them() {
        let text = "0 0\n0 1\n5 5\n";
        let parsed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(parsed.graph.num_edges(), 1);
        assert_eq!(parsed.skipped_self_loops, 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::Malformed { line_number: 1, .. }));
        let err = read_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::Malformed { .. }));
        let err = read_edge_list("# vertices=2 edges=1\n0 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadError::Malformed { line_number: 2, .. }));
    }

    #[test]
    fn write_then_read_roundtrips() {
        // The second graph's highest-numbered vertices are isolated, so
        // only the header can bring them back.
        for (n, edges) in [
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            (5, vec![(0, 1), (1, 2)]),
        ] {
            let mut b = GraphBuilder::new(n);
            b.add_edges(edges).unwrap();
            let g = b.finish();
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let parsed = read_edge_list(buf.as_slice()).unwrap();
            assert_eq!(parsed.graph.num_vertices(), g.num_vertices());
            let a: Vec<_> = g.edges().collect();
            let b: Vec<_> = parsed.graph.edges().collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tab_separated_edges_parse() {
        let parsed = read_edge_list("0\t1\n1\t2\n".as_bytes()).unwrap();
        assert_eq!(parsed.graph.num_edges(), 2);
    }
}
