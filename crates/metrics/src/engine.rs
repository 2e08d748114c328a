//! Fused per-source BFS engine: one traversal feeds paths, betweenness and
//! closeness.
//!
//! The seed measurement pipeline ran **two** independent BFS sweeps over the
//! sampled sources — one for the shortest-path statistics, one for Brandes
//! betweenness — even though both start from the same stride-sampled source
//! sets (and the betweenness strides are usually a subset of the path
//! strides). This module fuses them: each source is traversed once, and
//! per-source flags say which observables that traversal feeds.
//!
//! Every sweep runs on a private **core view** of the graph built once per
//! call:
//!
//! * **Leaves are folded.** A leaf is a degree-1 node whose one neighbour
//!   has degree ≥ 2 (the single-provider stubs that make up ~40% of a
//!   serrano giant). It is dropped from the core and its parent keeps a
//!   leaf count instead. A leaf at level `d + 1` of a traversal is fully
//!   determined by its parent at level `d`: it adds one node to the level
//!   width, `σ(leaf) = σ(parent)`, and it adds exactly `1` to its parent's
//!   Brandes dependency. K2 components and isolated nodes stay in the core.
//! * **The core is relabeled in BFS order from the hubs**: seeds in
//!   (degree desc, id asc) order, children visited by degree desc. Nodes
//!   that are close in the graph get close indices, so a BFS level touches
//!   few cache lines of the `dist`/`σ` arrays, and the hubs most shortest
//!   paths cross sit in the hot prefix. It is built straight into
//!   offsets/targets arrays.
//!
//! Per-source cost on the core:
//!
//! * Sources that only feed the path-length histogram are traversed in
//!   **bit-parallel batches of 64**: each node carries a `u64` of
//!   per-source visited bits, so one pass over the edges advances 64 BFS
//!   frontiers at once and a popcount per node yields the histogram. A
//!   node newly reached by `k` lanes adds `k · leaves(v)` to the next
//!   level's width.
//! * Brandes sources run level by level over a single `order` vector that
//!   doubles as the FIFO queue and, read backwards, as the dependency-pass
//!   stack. No predecessor lists are kept: the dependency pass is in
//!   **pull form**, `δ(v) = leaves(v) + σ(v) · Σ (1 + δ(w)) / σ(w)` over
//!   the neighbours `w` one level deeper, and the per-node term
//!   `(1 + δ(w)) / σ(w)` is stored when `w` is finished. `σ` and that term
//!   are written before they are read, so only `dist` is reset between
//!   sources.
//! * A **leaf source** runs from its parent, one level deeper: every other
//!   node's dependency is the parent's, and the parent itself gets
//!   `reached − 2` (every node but the leaf and the parent lies behind it).
//! * Path widths and closeness sums count a level-`d` node's leaves at level
//!   `d + 1`, so they stay exact integers. The histogram is updated **once
//!   per BFS level**, and the efficiency sum `Σ 1/d` is derived from the
//!   final histogram.
//!
//! Batches and sources fan out over the deterministic pool behind
//! [`inet_exec::Executor::reduce_ordered`]; per-chunk partials are folded
//! in chunk order as they arrive, so every result is **bit-identical for
//! any thread count** and only a few chunks' dependency vectors are alive
//! at once.

use crate::paths::PathStats;
use inet_exec::Executor;
use inet_graph::traversal::UNREACHABLE;
use inet_graph::Csr;
use std::cmp::Reverse;

/// What one source's traversal should feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceSpec {
    /// The BFS source node.
    pub node: u32,
    /// Accumulate the shortest-path-length histogram from this source.
    pub paths: bool,
    /// Run the Brandes dependency pass from this source.
    pub betweenness: bool,
    /// Record the source's closeness centrality.
    pub closeness: bool,
}

/// Raw, unscaled accumulations of one fused sweep.
pub(crate) struct SweepTotals {
    /// `counts[d]` = reachable ordered pairs at distance `d` over the
    /// paths-flagged sources.
    pub counts: Vec<u64>,
    /// Unreachable ordered pairs over the paths-flagged sources.
    pub unreachable_pairs: u64,
    /// Unscaled Brandes dependency sums (both pair directions counted when
    /// every node is a source).
    pub betweenness: Vec<f64>,
    /// Closeness of each closeness-flagged source (0 elsewhere).
    pub closeness: Vec<f64>,
}

/// Result of [`paths_and_betweenness`]: both headline BFS observables from a
/// single sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedReport {
    /// Shortest-path statistics over the path source set.
    pub paths: PathStats,
    /// Betweenness estimate, scaled like
    /// [`crate::betweenness::betweenness_sampled`].
    pub betweenness: Vec<f64>,
}

/// Measures path statistics (from `path_sources` stride-sampled sources,
/// exact when `path_sources ≥ n`) and sampled betweenness (from
/// `betweenness_sources`) in **one** BFS sweep over the union of the two
/// source sets. Sources appearing in both sets are traversed once.
///
/// Output is identical (up to float summation order) to running
/// [`PathStats::measure_sampled`] and
/// [`crate::betweenness::betweenness_sampled`] separately, and bit-identical
/// across thread counts.
pub fn paths_and_betweenness(
    g: &Csr,
    path_sources: usize,
    betweenness_sources: usize,
    threads: usize,
) -> FusedReport {
    let n = g.node_count();
    let (path_set, exact) = path_source_set(n, path_sources);
    let (bc_set, scale) = betweenness_source_set(n, betweenness_sources);
    let specs = union_specs(&path_set, &bc_set);
    let totals = sweep(g, &specs, threads);
    let paths = PathStats::from_histogram(
        totals.counts,
        totals.unreachable_pairs,
        path_set.len(),
        exact,
    );
    let mut betweenness = totals.betweenness;
    for b in &mut betweenness {
        *b *= scale;
    }
    FusedReport { paths, betweenness }
}

/// Path source set (stride-sampled like the seed: `i·n/k`) and whether it is
/// exact (every node a source).
pub(crate) fn path_source_set(n: usize, k: usize) -> (Vec<u32>, bool) {
    if n == 0 {
        return (Vec::new(), true);
    }
    if k >= n {
        return ((0..n as u32).collect(), true);
    }
    let k = k.max(1);
    ((0..k).map(|i| (i * n / k) as u32).collect(), false)
}

/// Betweenness source set and the scale factor that turns raw dependency
/// sums into the estimate of `betweenness_sampled`.
pub(crate) fn betweenness_source_set(n: usize, k: usize) -> (Vec<u32>, f64) {
    if n == 0 || k == 0 {
        return (Vec::new(), 1.0);
    }
    if k >= n {
        return ((0..n as u32).collect(), 0.5);
    }
    let sources: Vec<u32> = (0..k).map(|i| (i * n / k) as u32).collect();
    let scale = n as f64 / sources.len() as f64 / 2.0;
    (sources, scale)
}

/// Merges two ascending source lists into flagged specs (two-pointer union).
fn union_specs(path_set: &[u32], bc_set: &[u32]) -> Vec<SourceSpec> {
    let mut specs = Vec::with_capacity(path_set.len() + bc_set.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < path_set.len() || j < bc_set.len() {
        let p = path_set.get(i).copied();
        let b = bc_set.get(j).copied();
        let (node, paths, betweenness) = match (p, b) {
            (Some(p), Some(b)) if p == b => {
                i += 1;
                j += 1;
                (p, true, true)
            }
            (Some(p), Some(b)) if p < b => {
                i += 1;
                (p, true, false)
            }
            (Some(_), Some(b)) => {
                j += 1;
                (b, false, true)
            }
            (Some(p), None) => {
                i += 1;
                (p, true, false)
            }
            (None, Some(b)) => {
                j += 1;
                (b, false, true)
            }
            (None, None) => unreachable!(),
        };
        specs.push(SourceSpec {
            node,
            paths,
            betweenness,
            closeness: false,
        });
    }
    specs
}

/// Betweenness-only sweep used by the thin wrappers in
/// [`mod@crate::betweenness`].
pub(crate) fn betweenness_from_sources(
    g: &Csr,
    sources: &[u32],
    scale: f64,
    threads: usize,
) -> Vec<f64> {
    let specs: Vec<SourceSpec> = sources
        .iter()
        .map(|&node| SourceSpec {
            node,
            paths: false,
            betweenness: true,
            closeness: false,
        })
        .collect();
    let mut bc = sweep(g, &specs, threads).betweenness;
    for b in &mut bc {
        *b *= scale;
    }
    bc
}

/// Paths-only sweep used by the thin wrappers in [`mod@crate::paths`].
pub(crate) fn paths_from_sources(
    g: &Csr,
    sources: &[u32],
    exact: bool,
    threads: usize,
) -> PathStats {
    let specs: Vec<SourceSpec> = sources
        .iter()
        .map(|&node| SourceSpec {
            node,
            paths: true,
            betweenness: false,
            closeness: false,
        })
        .collect();
    let totals = sweep(g, &specs, threads);
    PathStats::from_histogram(
        totals.counts,
        totals.unreachable_pairs,
        sources.len(),
        exact,
    )
}

/// Closeness of every node, computed with BFS sources fanned out over
/// `threads` workers. Values are identical to the sequential definition
/// (each node's closeness depends only on its own traversal).
pub(crate) fn closeness_values(g: &Csr, threads: usize) -> Vec<f64> {
    let specs: Vec<SourceSpec> = (0..g.node_count() as u32)
        .map(|node| SourceSpec {
            node,
            paths: false,
            betweenness: false,
            closeness: true,
        })
        .collect();
    sweep(g, &specs, threads).closeness
}

/// Leaf-folded, BFS-ordered core view of a graph (see the module docs).
struct Core {
    /// Node count of the original graph.
    nodes: usize,
    /// `offsets[c]..offsets[c + 1]` indexes `targets` for core node `c`.
    offsets: Vec<usize>,
    /// Concatenated core neighbour lists, in core labels, ascending.
    targets: Vec<u32>,
    /// Folded leaves hanging off each core node.
    leaves: Vec<u32>,
    /// Original id of each core node.
    old_of: Vec<u32>,
    /// Core node a traversal from each original node starts at: the node
    /// itself, or its parent when it is a leaf.
    root_of: Vec<u32>,
}

impl Core {
    /// Folds the leaves of `g` and relabels the rest in BFS order from the
    /// hubs.
    fn fold(g: &Csr) -> Self {
        let n = g.node_count();
        let is_leaf: Vec<bool> = (0..n)
            .map(|v| g.degree(v) == 1 && g.degree(g.neighbors(v)[0] as usize) >= 2)
            .collect();
        let mut seeds: Vec<u32> = (0..n as u32).filter(|&v| !is_leaf[v as usize]).collect();
        seeds.sort_by_key(|&v| (Reverse(g.degree(v as usize)), v));

        let mut new_of = vec![u32::MAX; n];
        let mut old_of: Vec<u32> = Vec::with_capacity(seeds.len());
        let mut children: Vec<u32> = Vec::new();
        for &seed in &seeds {
            if new_of[seed as usize] != u32::MAX {
                continue;
            }
            new_of[seed as usize] = old_of.len() as u32;
            old_of.push(seed);
            let mut head = old_of.len() - 1;
            while head < old_of.len() {
                let v = old_of[head] as usize;
                head += 1;
                children.clear();
                children.extend(
                    g.neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&w| !is_leaf[w as usize] && new_of[w as usize] == u32::MAX),
                );
                // Stable: equal degrees keep ascending id order.
                children.sort_by_key(|&w| Reverse(g.degree(w as usize)));
                for &w in &children {
                    new_of[w as usize] = old_of.len() as u32;
                    old_of.push(w);
                }
            }
        }

        let mut leaves = vec![0u32; old_of.len()];
        let root_of: Vec<u32> = (0..n)
            .map(|v| {
                if is_leaf[v] {
                    let parent = new_of[g.neighbors(v)[0] as usize];
                    leaves[parent as usize] += 1;
                    parent
                } else {
                    new_of[v]
                }
            })
            .collect();

        let mut offsets = Vec::with_capacity(old_of.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &old in &old_of {
            let start = targets.len();
            targets.extend(
                g.neighbors(old as usize)
                    .iter()
                    .filter(|&&w| !is_leaf[w as usize])
                    .map(|&w| new_of[w as usize]),
            );
            targets[start..].sort_unstable();
            offsets.push(targets.len());
        }
        Core {
            nodes: n,
            offsets,
            targets,
            leaves,
            old_of,
            root_of,
        }
    }

    /// Number of core nodes.
    fn len(&self) -> usize {
        self.old_of.len()
    }

    /// Core neighbours of core node `c`.
    #[inline]
    fn neighbors(&self, c: usize) -> &[u32] {
        &self.targets[self.offsets[c]..self.offsets[c + 1]]
    }

    /// The core node a traversal from original node `v` starts at, and
    /// whether `v` is a folded leaf (one hop outside that node).
    #[inline]
    fn root(&self, v: u32) -> (usize, bool) {
        let root = self.root_of[v as usize] as usize;
        (root, self.old_of[root] != v)
    }
}

/// Per-worker reusable buffers over the core. Betweenness arrays are only
/// allocated when the sweep contains betweenness sources. `sigma` is
/// (over)written on a node's discovery and `coeff` when the dependency pass
/// finishes the node, so only `dist` needs a reset between sources.
struct Workspace {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// `(1 + δ(v)) / σ(v)` of each node the dependency pass has finished.
    coeff: Vec<f64>,
    /// BFS visitation order; doubles as the FIFO queue during traversal and
    /// as the reverse-iteration stack of the dependency pass.
    order: Vec<u32>,
    /// `level_starts[d]` is the index in `order` where level `d` begins.
    level_starts: Vec<usize>,
    /// Nodes (core and folded leaves) at each distance from the root.
    widths: Vec<u64>,
}

impl Workspace {
    fn new(n: usize, betweenness: bool) -> Self {
        let bc_len = if betweenness { n } else { 0 };
        Workspace {
            dist: vec![UNREACHABLE; n],
            sigma: vec![0.0; bc_len],
            coeff: vec![0.0; bc_len],
            order: Vec::with_capacity(n),
            level_starts: Vec::new(),
            widths: Vec::new(),
        }
    }
}

/// Per-chunk partial accumulations, folded in chunk order by [`sweep`].
struct Partial {
    counts: Vec<u64>,
    unreachable: u64,
    /// Dependency sums in core labels.
    bc: Option<Vec<f64>>,
    /// Closeness per original source id.
    closeness: Vec<(u32, f64)>,
}

impl Partial {
    fn empty() -> Self {
        Partial {
            counts: Vec::new(),
            unreachable: 0,
            bc: None,
            closeness: Vec::new(),
        }
    }

    /// Folds the next chunk's partial into this one. Dependency sums add
    /// slot by slot, so folding in chunk order fixes every float sum's
    /// order for any thread count.
    fn merge(mut self, next: Partial) -> Partial {
        for (d, c) in next.counts.into_iter().enumerate() {
            add_count(&mut self.counts, d, c);
        }
        self.unreachable += next.unreachable;
        match (&mut self.bc, next.bc) {
            (Some(acc), Some(bc)) => {
                for (slot, b) in acc.iter_mut().zip(bc) {
                    *slot += b;
                }
            }
            (None, bc) => self.bc = bc,
            (Some(_), None) => {}
        }
        self.closeness.extend(next.closeness);
        self
    }
}

/// Runs the fused traversal for every spec, fanning sources out over
/// `threads` work-stealing workers, and merges the partials in chunk order.
///
/// The traversals run on the leaf-folded, BFS-ordered [`Core`]; results are
/// scattered back to the caller's node ids. Sources that only feed the
/// path-length histogram are traversed in bit-parallel batches of 64
/// (histogram counts are integers, so the batched order changes nothing);
/// sources that feed betweenness or closeness take the per-source
/// [`fused_source`] path.
pub(crate) fn sweep(g: &Csr, specs: &[SourceSpec], threads: usize) -> SweepTotals {
    let n = g.node_count();
    if n == 0 || specs.is_empty() {
        return SweepTotals::zeros(n);
    }
    let core = {
        let _span = inet_obs::span::enter("metrics.engine.fold", n as u64);
        Core::fold(g)
    };

    let light: Vec<u32> = specs
        .iter()
        .filter(|s| s.paths && !s.betweenness && !s.closeness)
        .map(|s| s.node)
        .collect();
    let heavy: Vec<SourceSpec> = specs
        .iter()
        .copied()
        .filter(|s| s.betweenness || s.closeness)
        .collect();
    let needs_bc = heavy.iter().any(|s| s.betweenness);

    let pool = Executor::new(threads);
    let heavy_total = pool.reduce_ordered(
        heavy.len(),
        || Workspace::new(core.len(), needs_bc),
        |ws, range| {
            let mut part = Partial::empty();
            for spec in &heavy[range] {
                fused_source(&core, *spec, ws, &mut part);
            }
            part
        },
        Partial::merge,
    );
    let batches = light.len().div_ceil(BATCH);
    let light_total = pool.reduce_ordered(
        batches,
        || BatchWorkspace::new(core.len()),
        |ws, range| {
            let mut part = Partial::empty();
            for b in range {
                let batch = &light[b * BATCH..light.len().min((b + 1) * BATCH)];
                batched_paths(&core, batch, ws, &mut part);
            }
            part
        },
        Partial::merge,
    );
    let total = heavy_total
        .into_iter()
        .chain(light_total)
        .reduce(Partial::merge)
        .unwrap_or_else(Partial::empty);

    let mut totals = SweepTotals::zeros(n);
    totals.counts = total.counts;
    totals.unreachable_pairs = total.unreachable;
    if let Some(bc) = total.bc {
        // Folded leaves lie on no shortest path between two other nodes,
        // so their betweenness stays 0.
        for (&old, b) in core.old_of.iter().zip(bc) {
            totals.betweenness[old as usize] = b;
        }
    }
    for (node, value) in total.closeness {
        totals.closeness[node as usize] = value;
    }
    totals
}

impl SweepTotals {
    fn zeros(n: usize) -> Self {
        SweepTotals {
            counts: Vec::new(),
            unreachable_pairs: 0,
            betweenness: vec![0.0; n],
            closeness: vec![0.0; n],
        }
    }
}

/// Adds `width` pairs at distance `d` to a histogram.
fn add_count(counts: &mut Vec<u64>, d: usize, width: u64) {
    if d >= counts.len() {
        counts.resize(d + 1, 0);
    }
    counts[d] += width;
}

/// Sources per bit-parallel BFS batch: one visited bit per `u64` lane.
const BATCH: usize = 64;

/// Per-worker frontier bitsets for the batched paths-only traversal.
struct BatchWorkspace {
    visited: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl BatchWorkspace {
    fn new(n: usize) -> Self {
        BatchWorkspace {
            visited: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }
}

/// Advances up to 64 BFS frontiers at once over the core: each node holds a
/// `u64` whose bit *i* means "visited from `sources[i]`". One pass over the
/// edges per level ORs frontier words into neighbours, and the per-level
/// popcount sum, plus the folded leaves of the previous level, is exactly
/// the histogram width contributed by the whole batch.
fn batched_paths(core: &Core, sources: &[u32], ws: &mut BatchWorkspace, out: &mut Partial) {
    ws.visited.fill(0);
    ws.frontier.fill(0);
    // Leaves one hop beyond the current level; seeded with the leaves of
    // the core sources themselves.
    let mut leaf_width = 0u64;
    let mut leaf_lanes = 0u64;
    for (i, &s) in sources.iter().enumerate() {
        let bit = 1u64 << i;
        let (root, leaf) = core.root(s);
        if leaf {
            // A leaf source enters at its parent, at level 1.
            ws.next[root] |= bit;
            leaf_lanes += 1;
        } else {
            ws.visited[root] |= bit;
            ws.frontier[root] |= bit;
            leaf_width += core.leaves[root] as u64;
        }
    }
    // (source, source) pairs count as reached at distance 0.
    let mut reached = sources.len() as u64;
    let mut d = 0usize;
    loop {
        for v in 0..core.len() {
            let f = ws.frontier[v];
            if f != 0 {
                for &w in core.neighbors(v) {
                    ws.next[w as usize] |= f;
                }
            }
        }
        d += 1;
        let mut width = leaf_width;
        leaf_width = 0;
        for v in 0..core.len() {
            let new = ws.next[v] & !ws.visited[v];
            ws.visited[v] |= new;
            ws.frontier[v] = new;
            ws.next[v] = 0;
            let lanes = new.count_ones() as u64;
            width += lanes;
            leaf_width += lanes * core.leaves[v] as u64;
        }
        if d == 1 {
            // Each leaf lane meets its own source among its parent's leaves.
            leaf_width -= leaf_lanes;
        }
        if width == 0 {
            break;
        }
        add_count(&mut out.counts, d, width);
        reached += width;
    }
    out.unreachable += core.nodes as u64 * sources.len() as u64 - reached;
}

/// One fused source traversal: level-by-level BFS over the core with
/// optional Brandes path counting, followed by the optional pull-form
/// dependency pass, then a `dist` reset.
fn fused_source(core: &Core, spec: SourceSpec, ws: &mut Workspace, out: &mut Partial) {
    let (root, leaf_source) = core.root(spec.node);
    let bc_pass = spec.betweenness;

    ws.order.clear();
    ws.level_starts.clear();
    ws.widths.clear();
    ws.dist[root] = 0;
    ws.order.push(root as u32);
    if bc_pass {
        ws.sigma[root] = 1.0;
    }

    // Leaves of the previous level, which sit at the current one.
    let mut leaves_above = 0u64;
    let mut level_start = 0usize;
    let mut d = 0u32;
    while level_start < ws.order.len() {
        let level_end = ws.order.len();
        ws.level_starts.push(level_start);
        let mut level_leaves = 0u64;
        for idx in level_start..level_end {
            let v = ws.order[idx] as usize;
            level_leaves += core.leaves[v] as u64;
            if bc_pass {
                let sv = ws.sigma[v];
                for &w in core.neighbors(v) {
                    let wi = w as usize;
                    let dw = ws.dist[wi];
                    if dw == UNREACHABLE {
                        ws.dist[wi] = d + 1;
                        // First touch: `σ = sv` is bitwise `0.0 + sv`, so σ
                        // never needs a reset between sources.
                        ws.sigma[wi] = sv;
                        ws.order.push(w);
                    } else if dw == d + 1 {
                        ws.sigma[wi] += sv;
                    }
                }
            } else {
                for &w in core.neighbors(v) {
                    let wi = w as usize;
                    if ws.dist[wi] == UNREACHABLE {
                        ws.dist[wi] = d + 1;
                        ws.order.push(w);
                    }
                }
            }
        }
        ws.widths
            .push((level_end - level_start) as u64 + leaves_above);
        leaves_above = level_leaves;
        level_start = level_end;
        d += 1;
    }
    if leaves_above > 0 {
        ws.widths.push(leaves_above);
    }

    // Widths are distances from the root; a leaf source sits one hop
    // further out and is itself one of the root's level-1 leaves.
    let shift = leaf_source as usize;
    let mut reached = 0u64;
    let mut close_sum = 0u64;
    for (k, &width) in ws.widths.iter().enumerate() {
        reached += width;
        let width = width - (leaf_source && k == 1) as u64;
        let dist = k + shift;
        if dist == 0 || width == 0 {
            continue;
        }
        if spec.paths {
            add_count(&mut out.counts, dist, width);
        }
        close_sum += dist as u64 * width;
    }

    let n = core.nodes;
    if spec.paths {
        out.unreachable += n as u64 - reached;
    }
    if spec.closeness {
        // Wasserman–Faust component-aware closeness, exactly as in
        // `centrality::closeness`.
        let reachable = reached - 1;
        let value = if close_sum > 0 && n > 1 {
            let frac = reachable as f64 / (n as f64 - 1.0);
            frac * reachable as f64 / close_sum as f64
        } else {
            0.0
        };
        out.closeness.push((spec.node, value));
    }

    if bc_pass {
        // Pull-form dependency pass, deepest level first. Level 0 is the
        // root, which accumulates no betweenness from its own traversal.
        // The per-node coefficient `(1 + δ_w) / σ_w` turns each successor
        // into one add; this deviates from the seed's per-edge
        // `σ_v / σ_w · (1 + δ_w)` by a few ulp (the cross-check tests
        // compare at 1e-9) and stays bit-identical across thread counts,
        // which is the contract that matters.
        let bc = out.bc.get_or_insert_with(|| vec![0.0; core.len()]);
        ws.level_starts.push(ws.order.len());
        for level in (1..ws.level_starts.len() - 1).rev() {
            let succ = level as u32 + 1;
            for idx in (ws.level_starts[level]..ws.level_starts[level + 1]).rev() {
                let v = ws.order[idx] as usize;
                let mut pull = 0.0;
                for &w in core.neighbors(v) {
                    if ws.dist[w as usize] == succ {
                        pull += ws.coeff[w as usize];
                    }
                }
                let delta = core.leaves[v] as f64 + ws.sigma[v] * pull;
                ws.coeff[v] = (1.0 + delta) / ws.sigma[v];
                bc[v] += delta;
            }
        }
        if leaf_source {
            // Every node but the leaf and its parent lies behind the parent.
            bc[root] += (reached - 2) as f64;
        }
    }

    // Reset for the next source. When the traversal covered most of the
    // core (the usual case on a giant component), a sequential fill beats
    // touching the same entries in random BFS order; the touched-only path
    // wins on small components.
    if ws.order.len() * 4 >= core.len() {
        ws.dist.fill(UNREACHABLE);
    } else {
        for &v in &ws.order {
            ws.dist[v as usize] = UNREACHABLE;
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

    fn er_graph(n: usize, p: f64, seed: u64) -> Csr {
        let mut rng = inet_stats::rng::seeded_rng(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_range(0.0..1.0) < p {
                    edges.push((i, j));
                }
            }
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn fused_path_graph_closed_forms() {
        let g = path(6);
        let fused = paths_and_betweenness(&g, usize::MAX, usize::MAX, 1);
        // Path stats: same counts as PathStats::measure.
        assert_eq!(fused.paths.counts, vec![0, 10, 8, 6, 4, 2]);
        assert_eq!(fused.paths.diameter, 5);
        assert!(fused.paths.exact);
        // Betweenness: b(v_i) = i (n-1-i).
        for (i, &b) in fused.betweenness.iter().enumerate() {
            let expect = (i * (5 - i)) as f64;
            assert!((b - expect).abs() < 1e-9, "node {i}: {b} vs {expect}");
        }
    }

    #[test]
    fn fused_matches_unfused_two_pass() {
        // The acceptance check of the fusion: one sweep must reproduce the
        // seed's separate paths + betweenness passes.
        for (n, p, seed) in [(60, 0.08, 4u64), (40, 0.05, 9), (30, 0.3, 2)] {
            let g = er_graph(n, p, seed);
            for (kp, kb) in [(usize::MAX, usize::MAX), (17, 9), (9, 17), (5, 0)] {
                let fused = paths_and_betweenness(&g, kp, kb, 2);
                let paths = crate::paths::PathStats::measure_sampled_unfused(&g, kp);
                let bc = crate::betweenness::betweenness_sampled_unfused(&g, kb);
                assert_eq!(fused.paths.counts, paths.counts, "n {n} kp {kp}");
                assert_eq!(fused.paths.diameter, paths.diameter);
                assert_eq!(fused.paths.sources, paths.sources);
                assert_eq!(fused.paths.exact, paths.exact);
                assert!((fused.paths.mean - paths.mean).abs() < 1e-12);
                assert!((fused.paths.efficiency - paths.efficiency).abs() < 1e-9);
                for (v, (a, b)) in fused.betweenness.iter().zip(&bc).enumerate() {
                    assert!((a - b).abs() < 1e-9, "node {v}: fused {a}, unfused {b}");
                }
            }
        }
    }

    #[test]
    fn fused_engine_on_disconnected_multi_component_graphs() {
        // The percolation engine feeds the metrics exactly these: damaged
        // graphs with several components and isolated nodes. The fused
        // sweep must stay finite, count unreachable pairs instead of
        // poisoning the means, match the unfused two-pass on every
        // component, and stay bit-identical across thread counts.
        let mut edges = vec![(0, 1), (1, 2), (2, 0)]; // triangle
        edges.extend((4..9).map(|i| (i, i + 1))); // path 4..=9
        edges.extend([(11, 12), (12, 13), (11, 13), (11, 14)]); // tailed triangle
        let g = Csr::from_edges(16, &edges); // 3, 10, 15 isolated
        for (kp, kb) in [(usize::MAX, usize::MAX), (7, 3)] {
            let fused = paths_and_betweenness(&g, kp, kb, 1);
            let paths = crate::paths::PathStats::measure_sampled_unfused(&g, kp);
            let bc = crate::betweenness::betweenness_sampled_unfused(&g, kb);
            assert_eq!(fused.paths.counts, paths.counts, "kp {kp}");
            assert_eq!(fused.paths.diameter, paths.diameter);
            assert!(fused.paths.mean.is_finite());
            assert!(fused.paths.efficiency.is_finite());
            for (v, (a, b)) in fused.betweenness.iter().zip(&bc).enumerate() {
                assert!(a.is_finite(), "node {v}");
                assert!((a - b).abs() < 1e-9, "node {v}: fused {a}, unfused {b}");
            }
            for threads in [2, 7] {
                let other = paths_and_betweenness(&g, kp, kb, threads);
                assert_eq!(other.paths, fused.paths, "threads {threads}");
                assert_eq!(other.betweenness, fused.betweenness, "threads {threads}");
            }
        }
        // Exact run: the longest path lives in the 4..=9 chain (length 5),
        // and cross-component pairs count as unreachable, not distance 0.
        let exact = paths_and_betweenness(&g, usize::MAX, usize::MAX, 1);
        assert_eq!(exact.paths.diameter, 5);
        let reachable: u64 = exact.paths.counts.iter().sum();
        assert!(
            reachable < 16 * 15,
            "cross-component pairs must be unreachable, not distance 0"
        );
        // Isolated nodes carry zero betweenness.
        for v in [3usize, 10, 15] {
            assert_eq!(exact.betweenness[v], 0.0, "isolated node {v}");
        }
    }

    #[test]
    fn union_source_sets_share_traversals() {
        // kb strides are a subset of kp strides when kp is a multiple of kb,
        // so the union must be exactly the path set.
        let (pset, _) = path_source_set(1000, 100);
        let (bset, _) = betweenness_source_set(1000, 50);
        let specs = union_specs(&pset, &bset);
        assert_eq!(
            specs.len(),
            pset.len(),
            "betweenness sources must fold into path sources"
        );
        assert_eq!(specs.iter().filter(|s| s.betweenness).count(), bset.len());
        assert!(specs.iter().all(|s| s.paths || s.betweenness));
        // Specs stay sorted and unique.
        for pair in specs.windows(2) {
            assert!(pair[0].node < pair[1].node);
        }
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        let g = er_graph(80, 0.06, 12);
        let base = paths_and_betweenness(&g, 23, 11, 1);
        for threads in [2, 3, 7] {
            let other = paths_and_betweenness(&g, 23, 11, threads);
            assert_eq!(base.paths, other.paths, "threads {threads}");
            let a: Vec<u64> = base.betweenness.iter().map(|b| b.to_bits()).collect();
            let b: Vec<u64> = other.betweenness.iter().map(|b| b.to_bits()).collect();
            assert_eq!(a, b, "threads {threads}");
        }
    }

    #[test]
    fn degenerate_graphs() {
        let empty = paths_and_betweenness(&Csr::from_edges(0, &[]), 10, 10, 4);
        assert!(empty.paths.counts.is_empty());
        assert!(empty.betweenness.is_empty());
        let single = paths_and_betweenness(&Csr::from_edges(1, &[]), 10, 10, 4);
        assert_eq!(single.paths.mean, 0.0);
        assert_eq!(single.betweenness, vec![0.0]);
        let pair = paths_and_betweenness(&Csr::from_edges(2, &[(0, 1)]), 10, 0, 1);
        assert_eq!(pair.betweenness, vec![0.0, 0.0]);
        assert_eq!(pair.paths.counts, vec![0, 2]);
    }

    #[test]
    fn closeness_matches_star_closed_form() {
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let g = Csr::from_edges(6, &edges);
        for threads in [1, 3] {
            let c = closeness_values(&g, threads);
            assert!((c[0] - 1.0).abs() < 1e-12);
            for &leaf in &c[1..] {
                assert!((leaf - 5.0 / 9.0).abs() < 1e-12);
            }
        }
    }

    /// Star with centre 0 and `n - 1` leaves.
    fn star(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Csr::from_edges(n, &edges)
    }

    /// Spine `0..spine` with `legs` leaves on every spine node; leaf labels
    /// are interleaved with the spine's.
    fn caterpillar(spine: usize, legs: usize) -> Csr {
        let stride = legs + 1;
        let mut edges: Vec<(usize, usize)> = (0..spine - 1)
            .map(|i| (i * stride, (i + 1) * stride))
            .collect();
        for i in 0..spine {
            edges.extend((1..=legs).map(|j| (i * stride, i * stride + j)));
        }
        Csr::from_edges(spine * stride, &edges)
    }

    /// A hub (node 5) carrying most of the leaves, a small cyclic core with
    /// a few more leaves (nine of them on node 11), two K2 components and two
    /// isolated nodes.
    fn mixed_leaf_graph() -> Csr {
        let mut edges = vec![(5, 6), (6, 7), (7, 5), (7, 8), (8, 9), (9, 5)];
        edges.extend((20..42).map(|leaf| (5, leaf)));
        edges.extend([(6, 42), (8, 43), (9, 44), (9, 45)]);
        edges.extend([(0, 1), (2, 3)]); // two K2 components
        edges.extend([10, 12, 13, 14, 15, 16, 17, 18, 19].map(|leaf| (11, leaf)));
        edges.push((11, 6));
        Csr::from_edges(47, &edges) // 4 and 46 isolated
    }

    /// ER core on the first `core` nodes, then a random recursive tree
    /// grafted onto it: every later node attaches to one uniform earlier
    /// node, which leaves roughly half the nodes as leaves.
    fn leaf_heavy(n: usize, core: usize, p: f64, rng: &mut inet_stats::rng::StdRng) -> Csr {
        let mut edges = Vec::new();
        for i in 0..core {
            for j in (i + 1)..core {
                if rng.gen_range(0.0..1.0) < p {
                    edges.push((i, j));
                }
            }
        }
        for v in core..n {
            edges.push((rng.gen_range(0..v), v));
        }
        Csr::from_edges(n, &edges)
    }

    /// Closeness straight from its definition, one plain BFS per node.
    fn closeness_reference(g: &Csr) -> Vec<f64> {
        let n = g.node_count();
        let mut dist = Vec::new();
        (0..n)
            .map(|v| {
                inet_graph::traversal::bfs_distances_into(g, v, &mut dist);
                let reached: Vec<u64> = dist
                    .iter()
                    .filter(|&&d| d != UNREACHABLE && d > 0)
                    .map(|&d| d as u64)
                    .collect();
                let reachable = reached.len() as u64;
                let sum: u64 = reached.iter().sum();
                if sum > 0 && n > 1 {
                    let frac = reachable as f64 / (n as f64 - 1.0);
                    frac * reachable as f64 / sum as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Unreachable ordered pairs over `sources`, from plain BFS.
    fn unreachable_reference(g: &Csr, sources: &[u32]) -> u64 {
        let mut dist = Vec::new();
        sources
            .iter()
            .map(|&s| {
                inet_graph::traversal::bfs_distances_into(g, s as usize, &mut dist);
                dist.iter().filter(|&&d| d == UNREACHABLE).count() as u64
            })
            .sum()
    }

    /// The leaf-folded sweep against the unfused oracles and the direct
    /// closeness definition, for one `(kp, kb)` source pair.
    fn assert_matches_oracles(g: &Csr, kp: usize, kb: usize, threads: usize, label: &str) {
        let n = g.node_count();
        let fused = paths_and_betweenness(g, kp, kb, threads);
        let paths = crate::paths::PathStats::measure_sampled_unfused(g, kp);
        let bc = crate::betweenness::betweenness_sampled_unfused(g, kb);
        assert_eq!(fused.paths.counts, paths.counts, "{label} kp {kp}");
        assert_eq!(fused.paths.diameter, paths.diameter, "{label}");
        assert_eq!(fused.paths.sources, paths.sources, "{label}");
        assert_eq!(fused.paths.exact, paths.exact, "{label}");
        for (v, (a, b)) in fused.betweenness.iter().zip(&bc).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{label} kb {kb} node {v}: folded {a}, unfused {b}"
            );
        }
        let (path_set, _) = path_source_set(n, kp);
        let (bc_set, _) = betweenness_source_set(n, kb);
        let totals = sweep(g, &union_specs(&path_set, &bc_set), threads);
        assert_eq!(totals.counts, paths.counts, "{label}");
        assert_eq!(
            totals.unreachable_pairs,
            unreachable_reference(g, &path_set),
            "{label} kp {kp}"
        );
    }

    const SOURCE_PAIRS: [(usize, usize); 4] = [(usize::MAX, usize::MAX), (17, 9), (9, 17), (5, 0)];

    #[test]
    fn leaf_folding_matches_the_oracles_on_leafy_shapes() {
        for (label, g) in [
            ("star", star(40)),
            ("path", path(40)),
            ("caterpillar", caterpillar(11, 2)),
            ("mixed", mixed_leaf_graph()),
        ] {
            let core = Core::fold(&g);
            let n = g.node_count();
            assert!(core.len() < n, "{label}: nothing folded");
            for (kp, kb) in SOURCE_PAIRS {
                // The stride sets must exercise leaf sources.
                let (path_set, _) = path_source_set(n, kp);
                assert!(path_set.iter().any(|&s| core.root(s).1), "{label} kp {kp}");
                let (bc_set, _) = betweenness_source_set(n, kb);
                assert!(
                    bc_set.is_empty() || bc_set.iter().any(|&s| core.root(s).1),
                    "{label} kb {kb}"
                );
                assert_matches_oracles(&g, kp, kb, 1, label);
            }
            let closeness: Vec<u64> = closeness_values(&g, 2)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            let direct: Vec<u64> = closeness_reference(&g)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(closeness, direct, "{label} closeness");
        }
    }

    #[test]
    fn folded_star_centre_carries_every_pair() {
        let n = 40;
        let bc = paths_and_betweenness(&star(n), usize::MAX, usize::MAX, 1).betweenness;
        assert!((bc[0] - ((n - 1) * (n - 2) / 2) as f64).abs() < 1e-9);
        assert!(bc[1..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn folding_keeps_k2_and_isolated_nodes_in_the_core() {
        let core = Core::fold(&mixed_leaf_graph());
        for v in [0u32, 1, 2, 3, 4, 46] {
            assert!(!core.root(v).1, "node {v} folded");
        }
        // Hub 5 holds leaves 20..42; node 9 holds 44 and 45.
        let (hub, _) = core.root(5);
        assert_eq!(core.leaves[hub], 22);
        assert_eq!(core.leaves[core.root(9).0], 2);
        assert_eq!(core.root(30), (hub, true));
        // The BFS relabel starts from the highest-degree node.
        assert_eq!(core.old_of[0], 5);
    }

    #[test]
    fn leaf_heavy_random_graphs_are_bit_identical_across_thread_counts() {
        const SEED: u64 = 0x1eaf;
        for case in 0..16u64 {
            let mut rng = inet_stats::rng::child_rng(SEED, case);
            let n = rng.gen_range(40..120);
            let core = rng.gen_range(5..20);
            let g = leaf_heavy(n, core, 0.3, &mut rng);
            let label = format!("case {case} (n {n}, core {core})");
            assert_matches_oracles(&g, 23, 11, 2, &label);
            let base = paths_and_betweenness(&g, 23, 11, 1);
            let exact = paths_and_betweenness(&g, usize::MAX, usize::MAX, 1);
            let close = closeness_values(&g, 1);
            for threads in [2, 7] {
                let other = paths_and_betweenness(&g, 23, 11, threads);
                assert_eq!(other.paths, base.paths, "{label} threads {threads}");
                let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&other.betweenness), bits(&base.betweenness), "{label}");
                let other = paths_and_betweenness(&g, usize::MAX, usize::MAX, threads);
                assert_eq!(other.paths, exact.paths, "{label} threads {threads}");
                assert_eq!(
                    bits(&other.betweenness),
                    bits(&exact.betweenness),
                    "{label}"
                );
                assert_eq!(
                    bits(&closeness_values(&g, threads)),
                    bits(&close),
                    "{label}"
                );
            }
        }
    }

    #[test]
    #[ignore = "a 20 000-node growth plus unfused oracles; run in release with --ignored"]
    fn leaf_folding_matches_the_oracles_on_a_serrano_giant() {
        let spec = inet_generators::lookup("serrano-nodist").unwrap();
        let generator = (spec.build)(&spec.resolve_n(20_000).unwrap()).unwrap();
        let net = generator.generate(&mut inet_stats::rng::seeded_rng(3));
        let (g, _) = inet_graph::traversal::giant_component(&net.graph.to_csr());
        let n = g.node_count();
        let leaves = n - Core::fold(&g).len();
        assert!(leaves * 100 >= 35 * n, "{leaves} leaves of {n}");
        assert_matches_oracles(&g, 400, 200, 7, "serrano giant");
        let one = paths_and_betweenness(&g, 400, 200, 1);
        let seven = paths_and_betweenness(&g, 400, 200, 7);
        assert_eq!(one.paths, seven.paths);
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one.betweenness), bits(&seven.betweenness));
    }
}
