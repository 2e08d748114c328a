//! Betweenness centrality (Freeman) via Brandes' algorithm.
//!
//! `b(v) = Σ_{s≠t≠v} σ_st(v) / σ_st`, where `σ_st` counts shortest paths.
//! Exact computation runs one BFS + dependency accumulation per source
//! (`O(N·E)` total); for large graphs a uniformly sampled subset of sources
//! gives an unbiased estimate scaled by `N / |sources|`.
//!
//! The traversals run through the fused engine in [`mod@crate::engine`]:
//! leaf-folded and BFS-ordered, work-stealing fan-out, folded in fixed
//! chunk order so the result is bit-identical for any thread count.
//! When paths and betweenness are both wanted, use
//! [`crate::engine::paths_and_betweenness`] to get both from one sweep.

use crate::engine;
use inet_graph::Csr;

/// Exact betweenness centrality of every node (unnormalized pair counts;
/// each unordered pair `{s, t}` contributes a total of 1 across the interior
/// vertices of its shortest paths).
pub fn betweenness(g: &Csr) -> Vec<f64> {
    betweenness_parallel(g, 1)
}

/// Exact betweenness with BFS sources distributed over `threads` threads.
pub fn betweenness_parallel(g: &Csr, threads: usize) -> Vec<f64> {
    let sources: Vec<u32> = (0..g.node_count() as u32).collect();
    // Brandes on an undirected graph counts each pair in both directions.
    engine::betweenness_from_sources(g, &sources, 0.5, threads)
}

/// Estimated betweenness from `k` uniformly spaced sources, scaled to the
/// full-graph value. With `k >= node_count` this equals [`betweenness`].
pub fn betweenness_sampled(g: &Csr, k: usize, threads: usize) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 || k == 0 {
        return vec![0.0; n];
    }
    // Deterministic uniform spread of sources (stride sampling): unbiased
    // for exchangeable node labelings and reproducible without an RNG.
    let (sources, scale) = engine::betweenness_source_set(n, k);
    engine::betweenness_from_sources(g, &sources, scale, threads)
}

/// The seed's sequential implementation with per-node `Vec<Vec<u32>>`
/// predecessor lists and full `O(n)` workspace resets: the oracle for
/// fused-equals-unfused tests.
#[cfg(test)]
pub(crate) fn betweenness_sampled_unfused(g: &Csr, k: usize) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 || k == 0 {
        return vec![0.0; n];
    }
    let (sources, scale) = if k >= n {
        ((0..n).collect::<Vec<usize>>(), 0.5)
    } else {
        let sources: Vec<usize> = (0..k).map(|i| i * n / k).collect();
        let scale = n as f64 / sources.len() as f64 / 2.0;
        (sources, scale)
    };
    let mut bc = vec![0.0f64; n];
    let mut ws = Workspace::new(n);
    for &s in &sources {
        brandes_source(g, s, &mut bc, &mut ws);
    }
    for b in &mut bc {
        *b *= scale;
    }
    bc
}

/// Reusable buffers for one seed-style Brandes source iteration.
#[cfg(test)]
struct Workspace {
    dist: Vec<i32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    stack: Vec<u32>,
    queue: std::collections::VecDeque<u32>,
    preds: Vec<Vec<u32>>,
}

#[cfg(test)]
impl Workspace {
    fn new(n: usize) -> Self {
        Workspace {
            dist: vec![-1; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            stack: Vec::with_capacity(n),
            queue: std::collections::VecDeque::with_capacity(n),
            preds: vec![Vec::new(); n],
        }
    }

    fn reset(&mut self) {
        self.dist.iter_mut().for_each(|d| *d = -1);
        self.sigma.iter_mut().for_each(|s| *s = 0.0);
        self.delta.iter_mut().for_each(|d| *d = 0.0);
        self.stack.clear();
        self.queue.clear();
        self.preds.iter_mut().for_each(Vec::clear);
    }
}

/// One source iteration of Brandes' algorithm, accumulating into `bc`
/// (seed-style, used only by the unfused oracle).
#[cfg(test)]
fn brandes_source(g: &Csr, s: usize, bc: &mut [f64], ws: &mut Workspace) {
    ws.reset();
    ws.dist[s] = 0;
    ws.sigma[s] = 1.0;
    ws.queue.push_back(s as u32);
    while let Some(v) = ws.queue.pop_front() {
        ws.stack.push(v);
        let dv = ws.dist[v as usize];
        for &w in g.neighbors(v as usize) {
            let wi = w as usize;
            if ws.dist[wi] < 0 {
                ws.dist[wi] = dv + 1;
                ws.queue.push_back(w);
            }
            if ws.dist[wi] == dv + 1 {
                ws.sigma[wi] += ws.sigma[v as usize];
                ws.preds[wi].push(v);
            }
        }
    }
    while let Some(w) = ws.stack.pop() {
        let wi = w as usize;
        for i in 0..ws.preds[wi].len() {
            let v = ws.preds[wi][i] as usize;
            let contrib = ws.sigma[v] / ws.sigma[wi] * (1.0 + ws.delta[wi]);
            ws.delta[v] += contrib;
        }
        if wi != s {
            bc[wi] += ws.delta[wi];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn path_betweenness_closed_form() {
        // Path of n nodes: b(v_i) = i * (n-1-i) (pairs separated by v_i).
        let g = path(6);
        let bc = betweenness(&g);
        for (i, &b) in bc.iter().enumerate() {
            let expect = (i * (5 - i)) as f64;
            assert!((b - expect).abs() < 1e-9, "node {i}: {b} vs {expect}");
        }
    }

    #[test]
    fn star_center_carries_all_pairs() {
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let g = Csr::from_edges(6, &edges);
        let bc = betweenness(&g);
        // Center: C(5,2) = 10 pairs; leaves: 0.
        assert!((bc[0] - 10.0).abs() < 1e-9);
        assert!(bc[1..].iter().all(|&b| b.abs() < 1e-12));
    }

    #[test]
    fn cycle_splits_shortest_paths() {
        // 4-cycle: each pair of opposite nodes has 2 shortest paths, each
        // interior node gets 1/2 from that one pair.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bc = betweenness(&g);
        for &b in &bc {
            assert!((b - 0.5).abs() < 1e-9, "b = {b}");
        }
    }

    #[test]
    fn disconnected_components_do_not_interact() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let bc = betweenness(&g);
        assert!((bc[1] - 1.0).abs() < 1e-9);
        assert!((bc[4] - 1.0).abs() < 1e-9);
        assert!(bc[0].abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = inet_stats::rng::seeded_rng(5);
        let n = 60;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.1 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let serial = betweenness(&g);
        let parallel = betweenness_parallel(&g, 4);
        // Fixed chunk grid + in-order merge: bit-identical, not just close.
        let a: Vec<u64> = serial.iter().map(|b| b.to_bits()).collect();
        let b: Vec<u64> = parallel.iter().map(|b| b.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_seed_unfused_implementation() {
        let mut rng = inet_stats::rng::seeded_rng(21);
        let n = 50;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.12 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        for k in [7, 20, 1000] {
            let fused = betweenness_sampled(&g, k, 3);
            let seed = betweenness_sampled_unfused(&g, k);
            for (v, (a, b)) in fused.iter().zip(&seed).enumerate() {
                assert!((a - b).abs() < 1e-9, "k {k} node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sampled_with_full_k_is_exact() {
        let g = path(8);
        let exact = betweenness(&g);
        let sampled = betweenness_sampled(&g, 100, 2);
        for (a, b) in exact.iter().zip(&sampled) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_estimate_preserves_mean_on_symmetric_graph() {
        // Cycle graph is vertex-transitive: every source contributes the
        // same *total* dependency, so the scaled estimate has exactly the
        // right mean (individual nodes still fluctuate with the source set).
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Csr::from_edges(n, &edges);
        let exact = betweenness(&g);
        let est = betweenness_sampled(&g, 10, 1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&exact) - mean(&est)).abs() < 1e-9);
        // And the estimate is within a sane band per node.
        for (a, b) in exact.iter().zip(&est) {
            assert!((a - b).abs() < 0.5 * a.max(1.0), "exact {a}, est {b}");
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let g = Csr::from_edges(0, &[]);
        assert!(betweenness(&g).is_empty());
        let g = Csr::from_edges(2, &[(0, 1)]);
        assert_eq!(betweenness(&g), vec![0.0, 0.0]);
        assert_eq!(betweenness_sampled(&g, 0, 1), vec![0.0, 0.0]);
    }

    /// Brute-force cross-check: enumerate all shortest paths explicitly on a
    /// small random graph.
    #[test]
    fn matches_brute_force() {
        let mut rng = inet_stats::rng::seeded_rng(11);
        let n = 14;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < 0.3 {
                    edges.push((i, j));
                }
            }
        }
        let g = Csr::from_edges(n, &edges);
        let bc = betweenness(&g);

        // Brute force: count shortest paths through each vertex by DFS over
        // BFS DAGs.
        let mut brute = vec![0.0f64; n];
        for s in 0..n {
            for t in 0..n {
                if s >= t {
                    continue;
                }
                let dist = inet_graph::traversal::bfs_distances(&g, s);
                if dist[t] == inet_graph::traversal::UNREACHABLE {
                    continue;
                }
                // Enumerate all shortest s-t paths.
                let mut paths: Vec<Vec<usize>> = Vec::new();
                let mut stack = vec![vec![t]];
                while let Some(partial) = stack.pop() {
                    let head = *partial.last().expect("non-empty");
                    if head == s {
                        paths.push(partial);
                        continue;
                    }
                    for &u in g.neighbors(head) {
                        if dist[u as usize] + 1 == dist[head] {
                            let mut next = partial.clone();
                            next.push(u as usize);
                            stack.push(next);
                        }
                    }
                }
                let sigma = paths.len() as f64;
                for p in &paths {
                    for &v in &p[1..p.len() - 1] {
                        brute[v] += 1.0 / sigma;
                    }
                }
            }
        }
        for (v, (&a, &b)) in bc.iter().zip(&brute).enumerate() {
            assert!((a - b).abs() < 1e-9, "node {v}: brandes {a}, brute {b}");
        }
    }
}
