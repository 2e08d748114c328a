//! Property tests for the graph substrate: each property runs over
//! `CASES` inputs, case `i` drawn from `child_rng(SEED, i)`.

use inet_graph::{traversal, Csr, MultiGraph, NodeId};
use inet_stats::rng::{child_rng, StdRng};

const CASES: u64 = 256;
const SEED: u64 = 0x6A4F;

/// A random edge set over `n` nodes (possibly with duplicates, never
/// self-loops), n in 2..40.
fn edge_set(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>) {
    let n = rng.gen_range(2..40);
    let m = rng.gen_range(0..120);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            edges.push((u, v));
        }
    }
    (n, edges)
}

/// Sum of degrees equals twice the edge count; sum of strengths equals
/// twice the total weight.
#[test]
fn handshake_lemma() {
    for case in 0..CASES {
        let (n, edges) = edge_set(&mut child_rng(SEED, case));
        let g = MultiGraph::from_edges(n, edges).unwrap();
        let deg_sum: usize = g.degrees().iter().sum();
        assert_eq!(deg_sum, 2 * g.edge_count(), "case {case}");
        let strength_sum: u64 = g.strengths().iter().sum();
        assert_eq!(strength_sum, 2 * g.total_weight(), "case {case}");
        assert!(g.validate().is_ok(), "case {case}");
    }
}

/// CSR snapshot and the multigraph agree on every query; round-trip is
/// lossless.
#[test]
fn csr_round_trip() {
    for case in 0..CASES {
        let (n, edges) = edge_set(&mut child_rng(SEED, case));
        let g = MultiGraph::from_edges(n, edges).unwrap();
        let csr = g.to_csr();
        assert!(csr.validate(), "case {case}");
        assert_eq!(csr.node_count(), g.node_count(), "case {case}");
        assert_eq!(csr.edge_count(), g.edge_count(), "case {case}");
        assert_eq!(csr.total_weight(), g.total_weight(), "case {case}");
        for v in 0..n {
            assert_eq!(csr.degree(v), g.degree(NodeId::new(v)), "case {case}");
            assert_eq!(csr.strength(v), g.strength(NodeId::new(v)), "case {case}");
            for u in 0..n {
                assert_eq!(
                    csr.edge_weight(v, u),
                    g.weight(NodeId::new(v), NodeId::new(u)),
                    "case {case}"
                );
            }
        }
        assert_eq!(csr.to_multigraph(), g, "case {case}");
    }
}

/// Edge-list serialization round-trips exactly (non-empty graphs keep
/// their trailing isolated nodes only if they carry edges; we compare on
/// a graph whose last node is guaranteed to touch an edge).
#[test]
fn io_round_trip() {
    for case in 0..CASES {
        let (n, mut edges) = edge_set(&mut child_rng(SEED, case));
        // Anchor the max node so the parsed node count matches.
        edges.push((0, n - 1));
        let g = MultiGraph::from_edges(n, edges).unwrap();
        let mut buf = Vec::new();
        inet_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let parsed = inet_graph::io::read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(parsed, g, "case {case}");
    }
}

/// BFS distances satisfy the triangle property along edges:
/// |d(u) - d(v)| <= 1 for every edge (u, v), and d is 0 only at source.
#[test]
fn bfs_distance_is_lipschitz_on_edges() {
    for case in 0..CASES {
        let (n, edges) = edge_set(&mut child_rng(SEED, case));
        let csr = Csr::from_edges(n, &edges);
        let dist = traversal::bfs_distances(&csr, 0);
        assert_eq!(dist[0], 0, "case {case}");
        for (u, v, _) in csr.edges() {
            let du = dist[u];
            let dv = dist[v];
            if du != traversal::UNREACHABLE || dv != traversal::UNREACHABLE {
                assert!(
                    du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE,
                    "case {case}: an edge cannot cross the reachable boundary"
                );
                assert!(du.abs_diff(dv) <= 1, "case {case}");
            }
        }
        for (v, &d) in dist.iter().enumerate() {
            if v != 0 {
                assert!(d != 0, "case {case}");
            }
        }
    }
}

/// Component labels partition the nodes: every edge stays within one
/// component, sizes sum to N, and the giant component is the biggest.
#[test]
fn components_partition() {
    for case in 0..CASES {
        let (n, edges) = edge_set(&mut child_rng(SEED, case));
        let csr = Csr::from_edges(n, &edges);
        let comps = traversal::connected_components(&csr);
        assert_eq!(comps.labels.len(), n, "case {case}");
        assert_eq!(comps.sizes.iter().sum::<usize>(), n, "case {case}");
        for (u, v, _) in csr.edges() {
            assert_eq!(comps.labels[u], comps.labels[v], "case {case}");
        }
        let (giant, map) = traversal::giant_component(&csr);
        assert!(giant.validate(), "case {case}");
        let giant_label = comps.giant_label().unwrap();
        assert_eq!(
            giant.node_count(),
            comps.sizes[giant_label as usize],
            "case {case}"
        );
        for (new, &old) in map.iter().enumerate() {
            assert_eq!(giant.degree(new), csr.degree(old), "case {case}");
        }
    }
}

/// The edge-list reader is total over arbitrary (including malformed
/// and adversarial) input lines: every line shape either parses or
/// returns a structured error — never a panic, and never an attempted
/// giant allocation from an oversized id.
#[test]
fn reader_is_total_on_arbitrary_lines() {
    for case in 0..CASES {
        let mut rng = child_rng(SEED, case);
        let lines = rng.gen_range(0..24);
        let text = (0..lines)
            .map(|_| {
                let u = rng.gen_range(0..u64::MAX);
                let v = rng.gen_range(0..u64::MAX);
                match rng.gen_range(0..8) {
                    0 => format!("{u} {v}"),
                    1 => format!("{u} {v} {}", v.wrapping_add(1)),
                    2 => format!("{u}"),
                    3 => format!("x{u} {v}"),
                    4 => format!("# nodes {u}"),
                    5 => format!("{u} {v} 0"),
                    6 => format!("{u} {v} {v} {u}"),
                    _ => format!("   # junk {u}"),
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        // Must return (Ok or Err) promptly; a parsed graph respects the cap.
        if let Ok(g) = inet_graph::io::read_edge_list(text.as_bytes()) {
            assert!(g.node_count() <= inet_graph::io::MAX_NODES, "case {case}");
        }
    }
}

/// Any node id at or above the cap is rejected with a parse error that
/// names the offending line.
#[test]
fn oversized_ids_always_error() {
    for case in 0..CASES {
        let mut rng = child_rng(SEED, case);
        let small = rng.gen_range(0..1000u64);
        let huge = rng.gen_range(inet_graph::io::MAX_NODES as u64..u64::MAX);
        let line = if rng.gen_bool(0.5) {
            format!("{small} {huge}")
        } else {
            format!("{huge} {small}")
        };
        let err = inet_graph::io::read_edge_list(line.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "case {case}: {err}");
    }
}

/// Removing an edge then re-adding it with the same weight restores the
/// exact graph.
#[test]
fn remove_then_readd_is_identity() {
    for case in 0..CASES {
        let (n, mut edges) = edge_set(&mut child_rng(SEED, case));
        edges.push((0, 1)); // guarantee at least one edge
        let g0 = MultiGraph::from_edges(n, edges).unwrap();
        let mut g = g0.clone();
        let (u, v, w) = g0.edges().next().unwrap();
        let removed = g.remove_edge(u, v).unwrap();
        assert_eq!(removed, w, "case {case}");
        g.add_edge_weighted(u, v, w).unwrap();
        assert_eq!(g, g0, "case {case}");
    }
}

/// A link set in [`MultiGraph::from_sorted_pairs`] form. Case 0 is the
/// empty graph; the others have 1..60 nodes, some with isolated nodes at
/// the end, some with a hub joined to most nodes.
fn sorted_pairs(rng: &mut StdRng, case: u64) -> (usize, Vec<(u32, u32, u64)>) {
    if case == 0 {
        return (0, Vec::new());
    }
    let n = rng.gen_range(1..60usize);
    let used = if rng.gen_bool(0.5) {
        rng.gen_range(1..=n)
    } else {
        n
    };
    let mut links = std::collections::BTreeMap::new();
    if used >= 2 {
        for _ in 0..rng.gen_range(0..150) {
            let (u, v) = (rng.gen_range(0..used), rng.gen_range(0..used));
            if u != v {
                *links.entry((u.min(v), u.max(v))).or_insert(0) += rng.gen_range(1..5u64);
            }
        }
        if rng.gen_bool(0.5) {
            let hub = rng.gen_range(0..used);
            for v in (0..used).filter(|&v| v != hub) {
                if rng.gen_bool(0.8) {
                    *links.entry((hub.min(v), hub.max(v))).or_insert(0) += 1;
                }
            }
        }
    }
    let pairs = links
        .into_iter()
        .map(|((u, v), w)| (u as u32, v as u32, w))
        .collect();
    (n, pairs)
}

/// The bulk constructor builds exactly the graph that inserting every
/// link one by one builds.
#[test]
fn bulk_build_equals_incremental_inserts() {
    for case in 0..32 {
        let (n, pairs) = sorted_pairs(&mut child_rng(SEED ^ 0xB, case), case);
        let mut want = MultiGraph::with_capacity(n);
        want.add_nodes(n);
        for &(u, v, w) in &pairs {
            want.add_edge_weighted(NodeId::from_u32(u), NodeId::from_u32(v), w)
                .unwrap();
        }
        let got = MultiGraph::from_sorted_pairs(n, &pairs).unwrap();
        assert_eq!(got, want, "case {case}");
        got.validate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Links out of order, duplicated, reversed, out of range, weightless,
/// self-looped or overflowing the total weight are errors.
#[test]
fn bulk_build_rejects_malformed_links() {
    use inet_graph::GraphError;
    assert!(MultiGraph::from_sorted_pairs(3, &[(0, 1, 1), (1, 2, 1)]).is_ok());
    type Expected = fn(&GraphError) -> bool;
    type Links = [(u32, u32, u64)];
    let order: Expected = |e| matches!(e, GraphError::Parse { .. });
    let cases: [(&Links, Expected); 7] = [
        (&[(0, 1, 0)], |e| *e == GraphError::ZeroWeight),
        (&[(1, 1, 1)], |e| matches!(e, GraphError::SelfLoop(_))),
        (&[(0, 3, 1)], |e| {
            matches!(e, GraphError::NodeOutOfBounds { node_count: 3, .. })
        }),
        (&[(1, 0, 1)], order),
        (&[(0, 2, 1), (0, 1, 1)], order),
        (&[(0, 1, 1), (0, 1, 1)], order),
        (&[(0, 1, u64::MAX), (1, 2, 1)], |e| {
            e.to_string().contains("overflows")
        }),
    ];
    for (pairs, expected) in cases {
        let err = MultiGraph::from_sorted_pairs(3, pairs).unwrap_err();
        assert!(expected(&err), "{pairs:?}: {err}");
    }
}

/// Shuffling a file's lines, swapping its columns or splitting its weights
/// into duplicate lines leaves the parsed graph unchanged; a self-loop line
/// is still rejected.
#[test]
fn reader_ignores_line_order_orientation_and_split_duplicates() {
    for case in 0..32 {
        let mut rng = child_rng(SEED ^ 0x5E, case);
        let (n, pairs) = sorted_pairs(&mut rng, case);
        let g = MultiGraph::from_sorted_pairs(n, &pairs).unwrap();
        let mut file = Vec::new();
        inet_graph::io::write_edge_list(&g, &mut file).unwrap();
        assert_eq!(
            inet_graph::io::read_edge_list(file.as_slice()).unwrap(),
            g,
            "case {case}"
        );
        let header = format!("# nodes {n}\n");
        for (shuffle, swap, split) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            let mut lines = Vec::new();
            for &(u, v, w) in &pairs {
                let mut parts = vec![w];
                if split && w > 1 {
                    let first = rng.gen_range(1..w);
                    parts = vec![first, w - first];
                }
                for part in parts {
                    let (a, b) = if swap { (v, u) } else { (u, v) };
                    lines.push(format!("{a} {b} {part}\n"));
                }
            }
            if shuffle {
                for k in (1..lines.len()).rev() {
                    lines.swap(k, rng.gen_range(0..=k));
                }
            }
            let text = header.clone() + &lines.concat();
            let parsed = inet_graph::io::read_edge_list(text.as_bytes()).unwrap();
            assert_eq!(
                parsed, g,
                "case {case} shuffle {shuffle} swap {swap} split {split}"
            );
        }
        let looped = header + "0 1\n2 2\n1 0\n";
        let err = inet_graph::io::read_edge_list(looped.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            inet_graph::GraphError::SelfLoop(NodeId::new(2)),
            "case {case}"
        );
    }
}
