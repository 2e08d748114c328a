//! A run's links while it grows, kept outside [`MultiGraph`].
//!
//! Nothing in a matching round reads the graph: the deficit loop needs only
//! each node's strength, and a round's accepted pairs need only be counted
//! as new links or reinforcements. So a round appends each accepted pair
//! with its unit count to a log; when the round ends the log is sorted,
//! equal pairs are summed, and the result is merged into one sorted list of
//! distinct links. The graph is built once, from that list, when the run
//! ends.

use inet_graph::MultiGraph;

/// A link `(u, v, units)` with `u < v`.
type Link = (u32, u32, u64);

/// The sort key of a link: `u` in the high half, `v` in the low half.
#[inline]
fn key(&(u, v, _): &Link) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Strengths, distinct links and the current round's log of a growing run.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Links {
    /// Units incident to each node, the current round's included.
    strength: Vec<u64>,
    /// Distinct links merged so far, strictly increasing by [`key`].
    pairs: Vec<Link>,
    /// The current round's accepted pairs, in draw order.
    log: Vec<Link>,
    /// Units over all links, the current round's included.
    total_weight: u64,
}

impl Links {
    /// `nodes` isolated nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Links {
            strength: vec![0; nodes],
            ..Links::default()
        }
    }

    /// Adds an isolated node.
    pub(crate) fn add_node(&mut self) {
        self.strength.push(0);
    }

    pub(crate) fn node_count(&self) -> usize {
        self.strength.len()
    }

    /// Units incident to `v`.
    pub(crate) fn strength(&self, v: usize) -> u64 {
        self.strength[v]
    }

    /// Distinct links merged by the rounds ended so far.
    pub(crate) fn edge_count(&self) -> usize {
        self.pairs.len()
    }

    /// Units over all links.
    pub(crate) fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Logs `units ≥ 1` units between `i != j` in the current round.
    pub(crate) fn link(&mut self, i: usize, j: usize, units: u64) {
        debug_assert!(i != j && units >= 1);
        self.strength[i] += units;
        self.strength[j] += units;
        self.total_weight += units;
        let id = |x: usize| u32::try_from(x).expect("node index exceeds u32::MAX");
        self.log.push((id(i.min(j)), id(i.max(j)), units));
    }

    /// Ends the round: merges its log into the distinct links and returns
    /// the round's new links and units.
    pub(crate) fn end_round(&mut self) -> (u64, u64) {
        let Links { pairs, log, .. } = self;
        let units = log.iter().map(|&(.., w)| w).sum();
        MultiGraph::merge_pairs(log);
        // One forward pass reinforces the links that exist and leaves only
        // the new ones in the log.
        let mut at = 0;
        log.retain(|entry| {
            while at < pairs.len() && key(&pairs[at]) < key(entry) {
                at += 1;
            }
            match pairs.get_mut(at) {
                Some(link) if key(link) == key(entry) => {
                    link.2 += entry.2;
                    false
                }
                _ => true,
            }
        });
        // Then the new links go in from the back: each old link after the
        // first new one moves once.
        let new = log.len();
        let mut read = pairs.len();
        pairs.resize(read + new, (0, 0, 0));
        let mut write = pairs.len();
        for entry in log.iter().rev() {
            while read > 0 && key(&pairs[read - 1]) > key(entry) {
                read -= 1;
                write -= 1;
                pairs[write] = pairs[read];
            }
            write -= 1;
            pairs[write] = *entry;
        }
        log.clear();
        (new as u64, units)
    }

    /// The graph of the links merged so far.
    pub(crate) fn to_graph(&self) -> MultiGraph {
        debug_assert!(self.log.is_empty(), "a round is still open");
        MultiGraph::from_sorted_pairs(self.node_count(), &self.pairs)
            .expect("merged links are distinct, ordered and in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_graph::NodeId;
    use inet_stats::rng::child_rng;

    #[test]
    fn rounds_merge_like_unit_by_unit_inserts() {
        for case in 0..32 {
            let mut rng = child_rng(0x11A5, case);
            let n = rng.gen_range(2..60usize);
            let mut links = Links::new(n);
            let mut g = MultiGraph::new();
            g.add_nodes(n);
            for round in 0..rng.gen_range(1..12) {
                let (mut created, mut units) = (0, 0);
                for _ in 0..rng.gen_range(0..80) {
                    let i = rng.gen_range(0..n);
                    let j = (i + rng.gen_range(1..n)) % n;
                    let w = rng.gen_range(1..4u64);
                    links.link(i, j, w);
                    units += w;
                    for _ in 0..w {
                        let update = g.add_edge(NodeId::new(i), NodeId::new(j)).unwrap();
                        created += u64::from(update == inet_graph::EdgeUpdate::Created);
                    }
                }
                assert_eq!(
                    links.end_round(),
                    (created, units),
                    "case {case} round {round}"
                );
                assert_eq!(links.edge_count(), g.edge_count(), "case {case}");
                assert_eq!(links.total_weight(), g.total_weight(), "case {case}");
                for v in 0..n {
                    assert_eq!(links.strength(v), g.strength(NodeId::new(v)), "case {case}");
                }
                assert_eq!(links.to_graph(), g, "case {case} round {round}");
            }
        }
    }
}
