//! Plain-text weighted edge-list I/O.
//!
//! Format, one edge per line:
//!
//! ```text
//! # comment lines start with '#'
//! <u> <v> [weight]
//! ```
//!
//! Node ids are dense non-negative integers; the node count of the parsed
//! graph is `max id + 1` (or an explicit count passed by the caller). A
//! missing weight field means weight 1. This matches the format used by the
//! classic topology-analysis toolchains, so generated maps can be fed to
//! external software and vice versa.

use crate::{GraphError, MultiGraph, NodeId, Result};
use std::io::{BufRead, Write};

/// Upper bound on node ids (and declared node counts) accepted by
/// [`read_edge_list`]. Parsed graphs use dense id-indexed storage, so a
/// single typo'd id like `4000000000` would otherwise trigger a multi-GB
/// allocation; beyond this cap parsing fails with a structured
/// [`GraphError::Parse`] instead. 50 M nodes is ~500× the 2025 AS-level
/// Internet.
pub const MAX_NODES: usize = 50_000_000;

/// Writes `g` as a weighted edge list (one `u v w` line per distinct edge).
pub fn write_edge_list<W: Write>(g: &MultiGraph, mut out: W) -> Result<()> {
    inet_fault::check_contained("io.write", 0).map_err(|e| GraphError::Io(e.to_string()))?;
    writeln!(
        out,
        "# nodes {} edges {} weight {}",
        g.node_count(),
        g.edge_count(),
        g.total_weight()
    )?;
    for (u, v, w) in g.edges() {
        writeln!(out, "{} {} {}", u.index(), v.index(), w)?;
    }
    Ok(())
}

/// Reads a weighted edge list into a [`MultiGraph`].
///
/// * Lines starting with `#` and blank lines are skipped — except that a
///   header of the form `# nodes <N> ...` (as written by
///   [`write_edge_list`]) fixes the node count, so trailing isolated nodes
///   survive a round trip.
/// * Each data line is `u v` or `u v w` (whitespace separated).
/// * Duplicate pairs accumulate weight; a total weight beyond `u64` is a
///   parse error naming the line that overflows it.
/// * Without a header, the resulting node count is `max id + 1`.
///
/// Lines are parsed straight into normalized `(min, max, w)` links, which
/// are sorted and merged only when the input does not already list each
/// pair once in increasing order (as [`write_edge_list`] does); the graph
/// is then built by [`MultiGraph::from_sorted_pairs`].
pub fn read_edge_list<R: BufRead>(mut input: R) -> Result<MultiGraph> {
    inet_fault::check_contained("io.read", 0).map_err(|e| GraphError::Io(e.to_string()))?;
    let mut pairs: Vec<(u32, u32, u64)> = Vec::new();
    let mut sorted = true;
    let mut total = 0u64;
    let mut max_node = 0u32;
    let mut declared_nodes: Option<usize> = None;
    let mut line = String::new();
    for line_no in 1.. {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            if declared_nodes.is_none() {
                let mut parts = trimmed.trim_start_matches('#').split_whitespace();
                if parts.next() == Some("nodes") {
                    if let Some(count) = parts.next().and_then(|tok| tok.parse::<u64>().ok()) {
                        if count > MAX_NODES as u64 {
                            return Err(GraphError::Parse {
                                line: line_no,
                                message: format!(
                                    "declared node count {count} exceeds the supported \
                                     maximum {MAX_NODES}"
                                ),
                            });
                        }
                        declared_nodes = Some(count as usize);
                    }
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_field = |tok: Option<&str>, what: &str, line_no: usize| -> Result<u64> {
            let tok = tok.ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: format!("missing {what} field"),
            })?;
            tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid {what} '{tok}'"),
            })
        };
        let check_id = |id: u64, what: &str, line_no: usize| -> Result<u32> {
            if id >= MAX_NODES as u64 {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!(
                        "{what} id {id} exceeds the supported maximum {}",
                        MAX_NODES - 1
                    ),
                });
            }
            Ok(id as u32)
        };
        let u = check_id(
            parse_field(parts.next(), "source", line_no)?,
            "source",
            line_no,
        )?;
        let v = check_id(
            parse_field(parts.next(), "target", line_no)?,
            "target",
            line_no,
        )?;
        let w = match parts.next() {
            Some(tok) => tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid weight '{tok}'"),
            })?,
            None => 1,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "too many fields (expected 'u v [w]')".to_string(),
            });
        }
        if w == 0 {
            return Err(GraphError::Parse {
                line: line_no,
                message: "zero edge weight".to_string(),
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(NodeId::from_u32(u)));
        }
        // Every merged weight is at most the total, so this one check
        // also keeps the duplicate sums of `merge_pairs` from overflowing.
        total = total.checked_add(w).ok_or_else(|| GraphError::Parse {
            line: line_no,
            message: format!("edge weight {w} overflows the total weight"),
        })?;
        let pair = (u.min(v), u.max(v), w);
        max_node = max_node.max(pair.1);
        if let Some(&(a, b, _)) = pairs.last() {
            sorted &= (a, b) < (pair.0, pair.1);
        }
        pairs.push(pair);
    }
    if !sorted {
        MultiGraph::merge_pairs(&mut pairs);
    }
    let implied = if pairs.is_empty() {
        0
    } else {
        max_node as usize + 1
    };
    MultiGraph::from_sorted_pairs(declared_nodes.unwrap_or(implied).max(implied), &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MultiGraph {
        let mut g = MultiGraph::new();
        g.add_nodes(4);
        let n = NodeId::new;
        g.add_edge_weighted(n(0), n(1), 2).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn header_comment_is_written() {
        let mut buf = Vec::new();
        write_edge_list(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# nodes 4 edges 3 weight 4"));
    }

    #[test]
    fn parses_unweighted_lines_and_comments() {
        let input = "# a comment\n\n0 1\n1 2 5\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.weight(NodeId::new(0), NodeId::new(1)), 1);
        assert_eq!(g.weight(NodeId::new(1), NodeId::new(2)), 5);
    }

    #[test]
    fn duplicate_pairs_accumulate() {
        let g = read_edge_list("0 1 2\n1 0 3\n".as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weight(NodeId::new(0), NodeId::new(1)), 5);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (input, needle) in [
            ("0\n", "missing target"),
            ("a 1\n", "invalid source"),
            ("0 b\n", "invalid target"),
            ("0 1 x\n", "invalid weight"),
            ("0 1 1 9\n", "too many fields"),
            ("0 1 0\n", "zero edge weight"),
            ("0 0\n", "self-loop"),
        ] {
            let err = read_edge_list(input.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "input {input:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn weight_overflow_is_a_parse_error_naming_the_line() {
        for (input, line) in [
            ("0 1 18446744073709551615\n0 1 2\n", 2),
            ("0 1 18446744073709551615\n1 2\n", 2),
            ("# c\n0 1 9223372036854775808\n2 1 9223372036854775808\n", 3),
        ] {
            let err = read_edge_list(input.as_bytes()).unwrap_err();
            assert!(
                matches!(err, GraphError::Parse { line: l, .. } if l == line),
                "input {input:?}: {err}"
            );
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        // The largest total still loads.
        let g = read_edge_list("0 1 18446744073709551614\n1 0 1\n".as_bytes()).unwrap();
        assert_eq!(g.weight(NodeId::new(0), NodeId::new(1)), u64::MAX);
    }

    #[test]
    fn huge_node_ids_are_rejected_without_allocating() {
        // The motivating case: a typo'd id must be a one-line parse error,
        // not an attempted 4-billion-node allocation.
        let err = read_edge_list("0 4000000000\n".as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the supported maximum"),
            "{err}"
        );
        let err = read_edge_list("18446744073709551615 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The boundary itself: MAX_NODES - 1 is the largest legal id.
        assert!(read_edge_list(format!("0 {}\n", MAX_NODES).as_bytes()).is_err());
    }

    #[test]
    fn huge_declared_node_count_is_rejected() {
        let err = read_edge_list("# nodes 4000000000\n0 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared node count"), "{err}");
    }

    #[test]
    fn header_preserves_trailing_isolated_nodes() {
        let mut g = sample();
        g.add_nodes(3); // isolated tail
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed.node_count(), 7);
        assert_eq!(parsed, g);
    }

    #[test]
    fn explicit_nodes_header_is_honored() {
        let g = read_edge_list("# nodes 9\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 9);
        // A lying header never truncates actual edges.
        let g = read_edge_list("# nodes 1\n0 5\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 6);
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert!(g.is_empty());
        let g = read_edge_list("# only comments\n".as_bytes()).unwrap();
        assert!(g.is_empty());
    }
}
