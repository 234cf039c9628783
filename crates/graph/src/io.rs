//! Graph serialization: the plain edge-list text format used by SNAP /
//! KONECT downloads (the paper's benchmark sources).
//!
//! Text format: one `src dst [weight]` triple per line; `#` or `%`
//! comment lines are skipped (SNAP and KONECT headers respectively).
//! Node ids may be sparse; they are compacted to `0..N` preserving first
//! appearance order, matching how such files are usually ingested.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::coo::{CooGraph, NodeId};

/// Errors produced while reading an edge list, each carrying enough
/// context to locate the corruption.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed as `src dst [weight]`.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The file contained no edges.
    Empty,
    /// Some edges carried weights and others did not.
    MixedWeights,
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::BadLine { line, content } => {
                write!(f, "line {line} is not 'src dst [weight]': {content:?}")
            }
            GraphIoError::Empty => write!(f, "edge list contains no edges"),
            GraphIoError::MixedWeights => {
                write!(f, "some edges have weights and others do not")
            }
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Reads a SNAP/KONECT-style edge list.
///
/// Node labels are compacted to dense ids in order of first appearance.
/// Pass the reader by value or as `&mut reader`.
///
/// # Errors
///
/// Returns [`GraphIoError`] on malformed lines, empty input, or mixed
/// weighted/unweighted rows.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), graph::io::GraphIoError> {
/// let text = "# comment\n0 1\n1 2\n2 0\n";
/// let g = graph::io::read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<CooGraph, GraphIoError> {
    let reader = BufReader::new(reader);
    let mut label_to_id: std::collections::HashMap<u64, NodeId> = Default::default();
    let mut next_id: NodeId = 0;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut weights: Vec<u32> = Vec::new();
    let mut saw_unweighted = false;

    let mut intern = |label: u64, next: &mut NodeId| -> NodeId {
        *label_to_id.entry(label).or_insert_with(|| {
            let id = *next;
            *next += 1;
            id
        })
    };

    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let bad = || GraphIoError::BadLine {
            line: i + 1,
            content: t.to_owned(),
        };
        let src: u64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let dst: u64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let w: Option<u32> = match it.next() {
            Some(tok) => Some(tok.parse().map_err(|_| bad())?),
            None => None,
        };
        if it.next().is_some() {
            return Err(bad());
        }
        let s = intern(src, &mut next_id);
        let d = intern(dst, &mut next_id);
        edges.push((s, d));
        match w {
            Some(w) => {
                if saw_unweighted {
                    return Err(GraphIoError::MixedWeights);
                }
                weights.push(w);
            }
            None => {
                if !weights.is_empty() {
                    return Err(GraphIoError::MixedWeights);
                }
                saw_unweighted = true;
            }
        }
    }
    if edges.is_empty() {
        return Err(GraphIoError::Empty);
    }
    let n = next_id;
    Ok(if weights.is_empty() {
        CooGraph::from_edges(n, edges)
    } else {
        CooGraph::from_weighted_edges(n, edges, weights)
    })
}

/// Writes `g` as an edge list (`src dst [weight]` per line).
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_edge_list<W: Write>(g: &CooGraph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for i in 0..g.num_edges() {
        let (s, d, wt) = g.edge(i);
        if g.is_weighted() {
            writeln!(w, "{s} {d} {wt}")?;
        } else {
            writeln!(w, "{s} {d}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphSpec;

    #[test]
    fn text_round_trip_unweighted() {
        let g = GraphSpec::rmat(8, 4).build(3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        // Dense ids in, dense ids out: structures match up to relabeling;
        // here labels are already dense and ordered by appearance.
        assert!(back.num_nodes() <= g.num_nodes());
    }

    #[test]
    fn text_round_trip_weighted() {
        let g = GraphSpec::rmat(6, 4).build(5).with_random_weights(1, 9, 7);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert!(back.is_weighted());
        assert_eq!(back.num_edges(), g.num_edges());
        // Weights survive in order.
        assert_eq!(back.weights().unwrap()[0], g.weights().unwrap()[0]);
    }

    #[test]
    fn comments_and_sparse_labels() {
        let text = "% konect header\n# snap header\n10 20\n20 30\n\n30 10\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.edges(), &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn bad_line_reports_position() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphIoError::BadLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn mixed_weights_rejected() {
        let text = "0 1 5\n1 2\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphIoError::MixedWeights)
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            read_edge_list("# nothing\n".as_bytes()),
            Err(GraphIoError::Empty)
        ));
    }
}
