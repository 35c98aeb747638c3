//! Plain-text persistence: edge lists and ground-truth label files.
//!
//! Formats are deliberately boring so datasets can be inspected and diffed:
//!
//! - **Edge list**: one `user<TAB>merchant[<TAB>weight]` record per line;
//!   `#`-prefixed lines are comments. A header comment records the node
//!   counts so isolated nodes survive a round-trip.
//! - **Label file**: one user id per line — the blacklist of fraud PINs.

use crate::error::GraphError;
use crate::graph::BipartiteGraph;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `g` as a tab-separated edge list with a size header.
pub fn write_edge_list<W: Write>(g: &BipartiteGraph, w: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# bipartite {} {} {}", g.num_users(), g.num_merchants(), g.num_edges())?;
    if g.is_weighted() {
        for (_, u, v, wt) in g.edges() {
            writeln!(w, "{}\t{}\t{}", u.0, v.0, wt)?;
        }
    } else {
        for (_, u, v, _) in g.edges() {
            writeln!(w, "{}\t{}", u.0, v.0)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads an edge list produced by [`write_edge_list`] (or any headerless
/// `u<TAB>v` file, in which case node counts are inferred from max indexes).
pub fn read_edge_list<R: Read>(r: R) -> Result<BipartiteGraph, GraphError> {
    let mut r = BufReader::new(r);
    let mut declared: Option<(usize, usize)> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut any_weight = false;

    // One line buffer reused across the file, trimmed in place — `lines()`
    // would allocate a fresh String per edge.
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(dims) = rest.strip_prefix("bipartite") {
                let parts: Vec<&str> = dims.split_whitespace().collect();
                if parts.len() >= 2 {
                    let nu = parts[0].parse().map_err(|e| GraphError::Parse {
                        line: lineno,
                        message: format!("bad user count: {e}"),
                    })?;
                    let nv = parts[1].parse().map_err(|e| GraphError::Parse {
                        line: lineno,
                        message: format!("bad merchant count: {e}"),
                    })?;
                    declared = Some((nu, nv));
                }
            }
            continue;
        }
        let mut fields = line.split_whitespace();
        let u: u32 = fields
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing user field".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad user id: {e}"),
            })?;
        let v: u32 = fields
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing merchant field".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad merchant id: {e}"),
            })?;
        let w: f64 = match fields.next() {
            Some(s) => {
                any_weight = true;
                s.parse().map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: format!("bad weight: {e}"),
                })?
            }
            None => 1.0,
        };
        edges.push((u, v));
        weights.push(w);
    }

    let (nu, nv) = declared.unwrap_or_else(|| {
        let nu = edges.iter().map(|&(u, _)| u as usize + 1).max().unwrap_or(0);
        let nv = edges.iter().map(|&(_, v)| v as usize + 1).max().unwrap_or(0);
        (nu, nv)
    });

    if any_weight {
        BipartiteGraph::from_weighted_edges(nu, nv, edges, weights)
    } else {
        BipartiteGraph::from_edges(nu, nv, edges)
    }
}

/// Writes a blacklist (one user id per line).
pub fn write_labels<W: Write>(fraud_users: &[u32], w: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(w);
    for &u in fraud_users {
        writeln!(w, "{u}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a blacklist written by [`write_labels`].
pub fn read_labels<R: Read>(r: R) -> Result<Vec<u32>, GraphError> {
    let mut r = BufReader::new(r);
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(line.parse().map_err(|e| GraphError::Parse {
            line: lineno,
            message: format!("bad user id: {e}"),
        })?);
    }
    Ok(out)
}

/// Convenience: write an edge list to a filesystem path.
pub fn save_edge_list(g: &BipartiteGraph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Convenience: read an edge list from a filesystem path.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<BipartiteGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Convenience: write a blacklist to a filesystem path.
pub fn save_labels(fraud_users: &[u32], path: impl AsRef<Path>) -> Result<(), GraphError> {
    write_labels(fraud_users, std::fs::File::create(path)?)
}

/// Convenience: read a blacklist from a filesystem path.
pub fn load_labels(path: impl AsRef<Path>) -> Result<Vec<u32>, GraphError> {
    read_labels(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        BipartiteGraph::from_edges(3, 3, vec![(0, 0), (0, 1), (2, 1)]).unwrap()
    }

    #[test]
    fn edge_list_round_trip_unweighted() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_users(), 3);
        assert_eq!(g2.num_merchants(), 3);
        assert_eq!(g2.edge_slice(), g.edge_slice());
        assert!(!g2.is_weighted());
    }

    #[test]
    fn edge_list_round_trip_weighted() {
        let g = BipartiteGraph::from_weighted_edges(2, 2, vec![(0, 1), (1, 0)], vec![2.5, 1.0])
            .unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert!(g2.is_weighted());
        assert_eq!(g2.edge_weight(0), 2.5);
        assert_eq!(g2.edge_weight(1), 1.0);
    }

    #[test]
    fn header_preserves_isolated_nodes() {
        // u2 and m2 are isolated; without the header their existence is lost.
        let g = BipartiteGraph::from_edges(3, 3, vec![(0, 0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_users(), 3);
        assert_eq!(g2.num_merchants(), 3);
    }

    #[test]
    fn headerless_input_infers_sizes() {
        let input = b"0\t5\n3\t1\n";
        let g = read_edge_list(&input[..]).unwrap();
        assert_eq!(g.num_users(), 4);
        assert_eq!(g.num_merchants(), 6);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let input = b"# a comment\n\n0 0\n# another\n1 1\n";
        let g = read_edge_list(&input[..]).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let input = b"0\t0\nnot-a-number\t3\n";
        let err = read_edge_list(&input[..]).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn non_finite_or_negative_weight_is_rejected() {
        for (input, bad) in [(&b"0\t0\t1\n1\t0\tnan\n"[..], 1), (b"0\t0\t-1\n", 0)] {
            match read_edge_list(input).unwrap_err() {
                GraphError::InvalidWeight { edge, .. } => assert_eq!(edge, bad),
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn missing_field_is_an_error() {
        let input = b"42\n";
        assert!(matches!(
            read_edge_list(&input[..]).unwrap_err(),
            GraphError::Parse { .. }
        ));
    }

    #[test]
    fn labels_round_trip() {
        let labels = vec![3, 1, 4, 1, 5];
        let mut buf = Vec::new();
        write_labels(&labels, &mut buf).unwrap();
        assert_eq!(read_labels(&buf[..]).unwrap(), labels);
    }

    #[test]
    fn labels_skip_comments() {
        let input = b"# blacklist\n7\n\n9\n";
        assert_eq!(read_labels(&input[..]).unwrap(), vec![7, 9]);
    }

    /// A fresh directory for one test's files, named after the test and
    /// the process id, so parallel tests never share a fixture file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ensemfdet_graph_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip() {
        let dir = test_dir("file_round_trip");
        let path = dir.join("g.edges");
        let g = sample();
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g2.edge_slice(), g.edge_slice());
        let lpath = dir.join("g.labels");
        save_labels(&[1, 2], &lpath).unwrap();
        assert_eq!(load_labels(&lpath).unwrap(), vec![1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
