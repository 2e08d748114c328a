//! Mutable undirected weighted multigraph.

use crate::{Csr, GraphError, NodeId, Result};
use std::collections::BTreeMap;

/// Outcome of [`MultiGraph::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// The pair was not previously connected; a new edge was created.
    Created,
    /// The pair was already connected; the multiplicity was incremented and
    /// now equals the contained value.
    Reinforced(u64),
}

/// An undirected weighted multigraph.
///
/// Parallel edges between the same node pair are collapsed into a single
/// adjacency entry carrying an integer multiplicity (the *weight*). In
/// weighted Internet models the multiplicity of edge `(i, j)` is the bandwidth
/// provisioned between ASs `i` and `j`, and a node's total incident weight is
/// its *strength* (total bandwidth) `b_i`.
///
/// Adjacency is stored as one ordered map per node, giving:
///
/// * `O(log d)` edge insert / reinforce / lookup,
/// * deterministic (sorted) neighbor iteration,
/// * symmetric storage — `(i, j)` appears in both endpoints' maps with the
///   same weight; an internal invariant checked by the test suite.
///
/// A graph whose links are all known up front is cheaper to build in bulk:
/// [`MultiGraph::from_sorted_pairs`] takes the distinct links sorted by
/// `(u, v)` and fills every map with `BTreeMap`'s sorted bulk build, with no
/// per-link search. The edge-list reader and the Serrano generator, which
/// collects a run's links outside the graph while it grows, both build
/// their graphs this way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiGraph {
    adj: Vec<BTreeMap<NodeId, u64>>,
    edge_count: usize,
    total_weight: u64,
}

impl MultiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        MultiGraph {
            adj: Vec::with_capacity(nodes),
            edge_count: 0,
            total_weight: 0,
        }
    }

    /// Builds a graph with `nodes` isolated nodes and the given unit-weight
    /// edges. Fails on self-loops or out-of-range endpoints; duplicate pairs
    /// reinforce (weight accumulates).
    pub fn from_edges<I>(nodes: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = MultiGraph::with_capacity(nodes);
        g.add_nodes(nodes);
        for (u, v) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(g)
    }

    /// Builds a graph with `nodes` nodes from its distinct links in one
    /// pass. `pairs` holds `(u, v, weight)` with `u < v < nodes` and
    /// `weight ≥ 1`, strictly increasing in `(u, v)`; anything else is an
    /// error, as is a total weight beyond `u64`.
    ///
    /// Node `x`'s neighbours are its incoming links (`v == x`, found through
    /// an index of one `u32` per link) followed by its slice of outgoing
    /// links (`u == x`); both come in ascending order, so each map is made
    /// by `BTreeMap`'s sorted bulk build. Equal to adding every link with
    /// [`MultiGraph::add_edge_weighted`].
    pub fn from_sorted_pairs(nodes: usize, pairs: &[(u32, u32, u64)]) -> Result<Self> {
        if u32::try_from(pairs.len()).is_err() {
            return Err(GraphError::Parse {
                line: 0,
                message: format!("{} links exceed the supported {}", pairs.len(), u32::MAX),
            });
        }
        // Incoming links bucketed by `v`: offsets first, then link indices.
        let mut offsets = vec![0u32; nodes + 1];
        let mut total_weight = 0u64;
        let mut last = None;
        for &(u, v, w) in pairs {
            if w == 0 {
                return Err(GraphError::ZeroWeight);
            }
            if u == v {
                return Err(GraphError::SelfLoop(NodeId::from_u32(u)));
            }
            if v as usize >= nodes {
                return Err(GraphError::NodeOutOfBounds {
                    node: NodeId::from_u32(v),
                    node_count: nodes,
                });
            }
            if u > v || last >= Some((u, v)) {
                return Err(GraphError::Parse {
                    line: 0,
                    message: format!(
                        "link ({u}, {v}) breaks strictly increasing (u, v) order with u < v"
                    ),
                });
            }
            last = Some((u, v));
            total_weight = total_weight
                .checked_add(w)
                .ok_or_else(|| GraphError::Parse {
                    line: 0,
                    message: "total edge weight overflows u64".to_string(),
                })?;
            offsets[v as usize + 1] += 1;
        }
        for x in 0..nodes {
            offsets[x + 1] += offsets[x];
        }
        let mut incoming = vec![0u32; pairs.len()];
        let mut fill = offsets.clone();
        for (k, &(_, v, _)) in pairs.iter().enumerate() {
            incoming[fill[v as usize] as usize] = k as u32;
            fill[v as usize] += 1;
        }
        drop(fill);
        let mut adj = Vec::with_capacity(nodes);
        let mut out = 0;
        for x in 0..nodes {
            let start = out;
            while out < pairs.len() && pairs[out].0 as usize == x {
                out += 1;
            }
            let ins = &incoming[offsets[x] as usize..offsets[x + 1] as usize];
            let map: BTreeMap<NodeId, u64> = ins
                .iter()
                .map(|&k| (pairs[k as usize].0, pairs[k as usize].2))
                .chain(pairs[start..out].iter().map(|&(_, v, w)| (v, w)))
                .map(|(y, w)| (NodeId::from_u32(y), w))
                .collect();
            adj.push(map);
        }
        Ok(MultiGraph {
            adj,
            edge_count: pairs.len(),
            total_weight,
        })
    }

    /// Sorts links `(u, v, weight)` by `(u, v)` and sums the weights of
    /// equal pairs, which puts normalized links (`u < v`) into the form
    /// [`MultiGraph::from_sorted_pairs`] takes. Callers bound the total
    /// weight first, so no sum overflows.
    pub fn merge_pairs(pairs: &mut Vec<(u32, u32, u64)>) {
        pairs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        pairs.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
    }

    /// Adds an isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adj.len());
        self.adj.push(BTreeMap::new());
        id
    }

    /// Adds `count` isolated nodes; returns the id of the first one added.
    ///
    /// Returns `NodeId::new(node_count())` (one past the end) when `count == 0`.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = NodeId::new(self.adj.len());
        self.adj.resize_with(self.adj.len() + count, BTreeMap::new);
        first
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct edges (node pairs with weight ≥ 1).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of edge multiplicities over all distinct edges. In the weighted
    /// Internet-model reading this is the total network bandwidth `B`.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if v.index() >= self.adj.len() {
            Err(GraphError::NodeOutOfBounds {
                node: v,
                node_count: self.adj.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Adds a unit of weight between `u` and `v`.
    ///
    /// If the pair was unconnected a new edge of weight 1 is created;
    /// otherwise the existing edge is *reinforced* (multiplicity + 1).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeUpdate> {
        self.add_edge_weighted(u, v, 1)
    }

    /// Adds `w ≥ 1` units of weight between `u` and `v` in one operation.
    pub fn add_edge_weighted(&mut self, u: NodeId, v: NodeId, w: u64) -> Result<EdgeUpdate> {
        if w == 0 {
            return Err(GraphError::ZeroWeight);
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check_node(u)?;
        self.check_node(v)?;
        let entry = self.adj[u.index()].entry(v).or_insert(0);
        let created = *entry == 0;
        *entry += w;
        let new_weight = *entry;
        *self.adj[v.index()].entry(u).or_insert(0) += w;
        self.total_weight += w;
        if created {
            self.edge_count += 1;
            Ok(EdgeUpdate::Created)
        } else {
            Ok(EdgeUpdate::Reinforced(new_weight))
        }
    }

    /// Removes the edge between `u` and `v` entirely (all multiplicity).
    /// Returns the weight it had.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<u64> {
        self.check_node(u)?;
        self.check_node(v)?;
        match self.adj[u.index()].remove(&v) {
            Some(w) => {
                self.adj[v.index()].remove(&u);
                self.edge_count -= 1;
                self.total_weight -= w;
                Ok(w)
            }
            None => Err(GraphError::MissingEdge(u, v)),
        }
    }

    /// Weight (multiplicity) of the edge between `u` and `v`; 0 when absent.
    ///
    /// Out-of-range endpoints are treated as "no edge" and return 0.
    #[inline]
    pub fn weight(&self, u: NodeId, v: NodeId) -> u64 {
        self.adj
            .get(u.index())
            .and_then(|m| m.get(&v).copied())
            .unwrap_or(0)
    }

    /// `true` when `u` and `v` are connected by at least one edge unit.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.weight(u, v) > 0
    }

    /// Topological degree of `v`: number of *distinct* neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Strength (weighted degree, total incident bandwidth `b_v`) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn strength(&self, v: NodeId) -> u64 {
        self.adj[v.index()].values().sum()
    }

    /// Iterates over `(neighbor, weight)` pairs of `v` in ascending neighbor
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.adj[v.index()].iter().map(|(&n, &w)| (n, w))
    }

    /// Iterates over all distinct edges as `(u, v, weight)` with `u < v`,
    /// in deterministic lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, m)| {
            let u = NodeId::new(u);
            m.iter()
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    /// Topological degree sequence, indexed by node.
    pub fn degrees(&self) -> Vec<usize> {
        self.adj.iter().map(|m| m.len()).collect()
    }

    /// Strength sequence (total incident weight per node), indexed by node.
    pub fn strengths(&self) -> Vec<u64> {
        self.adj.iter().map(|m| m.values().sum()).collect()
    }

    /// Average topological degree `2E / N`; 0 for an empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.adj.len() as f64
        }
    }

    /// Builds an immutable CSR snapshot (weights preserved).
    pub fn to_csr(&self) -> Csr {
        Csr::from_multigraph(self)
    }

    /// Checks internal symmetry/count invariants. Intended for tests and
    /// debug assertions; `O(E log d)`.
    pub fn validate(&self) -> Result<()> {
        let mut edges = 0usize;
        let mut weight = 0u64;
        for (u, m) in self.adj.iter().enumerate() {
            let u = NodeId::new(u);
            for (&v, &w) in m {
                if w == 0 {
                    return Err(GraphError::ZeroWeight);
                }
                if v == u {
                    return Err(GraphError::SelfLoop(u));
                }
                self.check_node(v)?;
                if self.weight(v, u) != w {
                    return Err(GraphError::MissingEdge(v, u));
                }
                if u < v {
                    edges += 1;
                    weight += w;
                }
            }
        }
        if edges != self.edge_count || weight != self.total_weight {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "count invariant broken: counted {edges} edges / {weight} weight, \
                     stored {} / {}",
                    self.edge_count, self.total_weight
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> (MultiGraph, NodeId, NodeId, NodeId) {
        let mut g = MultiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph_has_no_structure() {
        let g = MultiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut g = MultiGraph::new();
        let first = g.add_nodes(3);
        assert_eq!(first, NodeId::new(0));
        let next = g.add_nodes(2);
        assert_eq!(next, NodeId::new(3));
        assert_eq!(g.node_count(), 5);
        // Zero-count insert returns one-past-the-end without adding.
        let none = g.add_nodes(0);
        assert_eq!(none, NodeId::new(5));
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn edges_create_and_reinforce() {
        let (mut g, a, b, _c) = path3();
        assert_eq!(g.add_edge(a, b).unwrap(), EdgeUpdate::Reinforced(2));
        assert_eq!(
            g.add_edge_weighted(a, b, 3).unwrap(),
            EdgeUpdate::Reinforced(5)
        );
        assert_eq!(g.weight(a, b), 5);
        assert_eq!(g.weight(b, a), 5, "weights are symmetric");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.strength(a), 5);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = MultiGraph::new();
        let a = g.add_node();
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn zero_weight_is_rejected() {
        let (mut g, a, b, _) = path3();
        assert_eq!(g.add_edge_weighted(a, b, 0), Err(GraphError::ZeroWeight));
        assert_eq!(g.weight(a, b), 1, "failed insert must not mutate");
    }

    #[test]
    fn out_of_bounds_endpoints_are_rejected() {
        let mut g = MultiGraph::new();
        let a = g.add_node();
        let ghost = NodeId::new(7);
        assert!(matches!(
            g.add_edge(a, ghost),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            g.add_edge(ghost, a),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        // weight() is lenient: absent is 0.
        assert_eq!(g.weight(a, ghost), 0);
        assert!(!g.has_edge(ghost, a));
    }

    #[test]
    fn remove_edge_clears_all_multiplicity() {
        let (mut g, a, b, c) = path3();
        g.add_edge(a, b).unwrap();
        assert_eq!(g.remove_edge(a, b).unwrap(), 2);
        assert!(!g.has_edge(a, b));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_weight(), 1);
        assert_eq!(g.remove_edge(a, b), Err(GraphError::MissingEdge(a, b)));
        assert!(g.has_edge(b, c));
        g.validate().unwrap();
    }

    #[test]
    fn validate_catches_every_class_of_corruption() {
        // The mutators cannot produce these states, so corrupt the private
        // representation directly — this is what `--check-invariants` (and
        // the debug-assertion path) must catch on a damaged graph.
        let (mut g, a, b, _) = path3();
        g.adj[a.index()].insert(b, 9); // symmetric entry left at 1
        assert_eq!(g.validate(), Err(GraphError::MissingEdge(b, a)));

        let (mut g, a, b, _) = path3();
        g.adj[a.index()].insert(b, 0);
        g.adj[b.index()].insert(a, 0);
        assert_eq!(g.validate(), Err(GraphError::ZeroWeight));

        let (mut g, a, _, _) = path3();
        g.adj[a.index()].insert(a, 1);
        assert_eq!(g.validate(), Err(GraphError::SelfLoop(a)));

        let (mut g, ..) = path3();
        g.edge_count = 5;
        assert!(matches!(
            g.validate(),
            Err(GraphError::Parse { line: 0, .. })
        ));

        let (mut g, ..) = path3();
        g.total_weight = 99;
        assert!(matches!(
            g.validate(),
            Err(GraphError::Parse { line: 0, .. })
        ));

        let (mut g, _, b, c) = path3();
        g.adj[b.index()].insert(NodeId::new(7), 1);
        g.adj[c.index()].insert(NodeId::new(7), 1);
        assert!(matches!(
            g.validate(),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn neighbor_iteration_is_sorted() {
        let mut g = MultiGraph::new();
        let ids: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(ids[2], ids[4]).unwrap();
        g.add_edge(ids[2], ids[0]).unwrap();
        g.add_edge(ids[2], ids[3]).unwrap();
        let ns: Vec<usize> = g.neighbors(ids[2]).map(|(n, _)| n.index()).collect();
        assert_eq!(ns, vec![0, 3, 4]);
    }

    #[test]
    fn edges_iterator_lists_each_pair_once() {
        let (mut g, a, b, c) = path3();
        g.add_edge(a, c).unwrap();
        g.add_edge(a, b).unwrap();
        let edges: Vec<(usize, usize, u64)> = g
            .edges()
            .map(|(u, v, w)| (u.index(), v.index(), w))
            .collect();
        assert_eq!(edges, vec![(0, 1, 2), (0, 2, 1), (1, 2, 1)]);
    }

    #[test]
    fn from_edges_builds_and_accumulates() {
        let g = MultiGraph::from_edges(4, [(0, 1), (1, 2), (0, 1), (2, 3)]).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.weight(NodeId::new(0), NodeId::new(1)), 2);
        assert!(MultiGraph::from_edges(2, [(0, 0)]).is_err());
        assert!(MultiGraph::from_edges(2, [(0, 5)]).is_err());
    }

    #[test]
    fn sequences_and_mean_degree() {
        let (mut g, a, b, _c) = path3();
        g.add_edge_weighted(a, b, 4).unwrap();
        assert_eq!(g.degrees(), vec![1, 2, 1]);
        assert_eq!(g.strengths(), vec![5, 6, 1]);
        assert!((g.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }
}
