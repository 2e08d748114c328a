//! Bandwidth-deficit matching: the adaptation step.
//!
//! After each growth step every AS computes its bandwidth deficit
//! `Δb_i = max(0, b_target(ω_i) − b_current)`. Pairs of *active* nodes
//! (deficit ≥ 1) are drawn with probability proportional to their deficits —
//! nodes hungrier for bandwidth search harder for peers — and connect with
//! an acceptance probability `p_ij` (the distance-cost kernel, or 1).
//! A connecting pair reinforces its link with probability `r` per extra
//! unit while both stay active, trading partner diversification against
//! connection setup costs.
//!
//! # Skipping rejected draws
//!
//! A rejected draw changes nothing but the RNG and the attempt counter, so
//! between two acceptances every draw connects with the same probability
//! `P = Σ_{i≠j} (w_i/S)·(w_j/(S−w_i))·p_ij`, where `w` are the active
//! deficits and `S` their sum. A round runs in two phases with one law:
//!
//! - **direct**: draw `i ∝ w`, then `j ∝ w` with `i` masked, and connect
//!   with probability `p_ij` (no draw when `p_ij ≥ 1`). Cheap while most
//!   draws connect.
//! - **exact**: over the `m` active nodes keep the row sums
//!   `R_i = Σ_{j≠i} w_j p_ij`, charge the draws up to the next acceptance
//!   as one `Geometric(P)` draw, then draw the accepted pair itself:
//!   `i ∝ w_i R_i/(S−w_i)`, `j ∝ w_j p_ij`. An acceptance costs O(m)
//!   kernel evaluations however many rejected draws it skips.
//!
//! The switch is a cost model. The exact phase sets up its rows with
//! m²/2 kernel evaluations, then costs about 2m evaluations per acceptance;
//! a direct draw costs about as much as 8 evaluations. So the round enters
//! the exact phase when its rejections say acceptance is rare (streak·4 ≥ m)
//! and have paid for part of the setup (rejections since the last exact
//! phase·64 ≥ m²), and when the draws left in the budget could pay for
//! the setup (left ≥ m²/8). It leaves when acceptance is high again
//! (P·m > 16). All three rules read only the state and past draws, and the
//! draws to the next acceptance are memoryless, so switching leaves the law
//! unchanged.

use super::links::Links;
use inet_stats::rng::StdRng;
use inet_stats::DynamicWeightedSampler;

/// Outcome counters of one matching round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchStats {
    /// Candidate pair draws (including rejected ones).
    pub attempts: u64,
    /// Accepted pair draws; each adds one edge unit and runs the `r`-loop.
    pub accepted: u64,
    /// New edges created between pairs unconnected before the round.
    pub new_edges: u64,
    /// Units added other than each new edge's first (including the
    /// `r`-loop).
    pub reinforcements: u64,
    /// `true` when the attempt budget ended the round while two or more
    /// nodes were still active.
    pub budget_bound: bool,
    /// Total deficit unmet when the round ended.
    pub leftover: f64,
}

/// A row whose maintained sum falls below this share of its last full sum
/// is summed again, so cancellation never dominates a row.
const ROW_REFRESH: f64 = 1e-6;

/// Sampling weight of a deficit: the deficit where at least one unit is
/// wanted, else 0.
fn active(d: f64) -> f64 {
    if d >= 1.0 {
        d
    } else {
        0.0
    }
}

/// Runs one matching round, adding its links and spending the deficits in
/// place.
///
/// `prob(i, j)` is the probability that a drawn pair connects (the
/// distance kernel, or 1); it must be symmetric. A pair with `prob ≥ 1`
/// connects without a draw. The round ends when fewer than two nodes are
/// active or after `max_attempts` pair draws.
pub(crate) fn match_deficits(
    links: &mut Links,
    deficits: &mut [f64],
    r: f64,
    max_attempts: u64,
    rng: &mut StdRng,
    prob: impl Fn(usize, usize) -> f64,
) -> MatchStats {
    // The weights outlive the round, as they did in the one-draw loop:
    // freeing them before the round changes how the allocator reuses that
    // memory, and raised the peak RSS of the 100k-node serrano-nodist
    // study benchmark from 196 MB to 211 MB in most runs.
    let weights: Vec<f64> = deficits.iter().map(|&d| active(d)).collect();
    let mut round = Round::new(deficits, &weights, max_attempts);
    while let Some((i, j)) = round.next_pair(rng, &prob) {
        round.connect(links, i, j, r, rng, &prob);
    }
    round.finish(links)
}

/// One matching round between acceptances.
struct Round<'a> {
    deficits: &'a mut [f64],
    sampler: DynamicWeightedSampler,
    active_count: usize,
    max_attempts: u64,
    stats: MatchStats,
    /// Consecutive rejected direct draws.
    streak: u64,
    /// Rejected direct draws since the round began or the last exact
    /// phase ended.
    rejections: u64,
    /// Exact-phase state, `None` in the direct phase.
    exact: Option<Exact>,
}

/// Exact-phase state; every vector is index-aligned with `nodes`.
struct Exact {
    /// The active nodes.
    nodes: Vec<usize>,
    /// `R_k = Σ_{l≠k} w_l p_kl`, maintained as weights change.
    rows: Vec<f64>,
    /// `R_k` when last summed in full.
    scale: Vec<f64>,
    /// `p_ik` for the last drawn `i`.
    p_i: Vec<f64>,
    /// Draw weights, rewritten by every draw.
    buf: Vec<f64>,
    /// Positions of the last drawn pair.
    pair: (usize, usize),
}

impl<'a> Round<'a> {
    /// `weights` are the deficits' [`active`] weights.
    fn new(deficits: &'a mut [f64], weights: &[f64], max_attempts: u64) -> Self {
        let sampler = DynamicWeightedSampler::from_weights(weights);
        let active_count = deficits.iter().filter(|&&d| d >= 1.0).count();
        Round {
            deficits,
            sampler,
            active_count,
            max_attempts,
            stats: MatchStats::default(),
            streak: 0,
            rejections: 0,
            exact: None,
        }
    }

    /// Draws until a pair is accepted; `None` once the round is over.
    fn next_pair(
        &mut self,
        rng: &mut StdRng,
        prob: &impl Fn(usize, usize) -> f64,
    ) -> Option<(usize, usize)> {
        while self.active_count >= 2 && self.stats.attempts < self.max_attempts {
            if self.exact.is_some() {
                if let Some(pair) = self.exact_draw(rng, prob) {
                    return Some(pair);
                }
                continue;
            }
            self.stats.attempts += 1;
            let i = self.sampler.sample(rng)?;
            let wi = self.sampler.weight(i);
            self.sampler.set_weight(i, 0.0);
            let j = self.sampler.sample(rng);
            self.sampler.set_weight(i, wi);
            let j = j?;
            let p = prob(i, j);
            if p >= 1.0 || rng.gen_range(0.0..1.0) < p {
                self.streak = 0;
                return Some((i, j));
            }
            self.streak += 1;
            self.rejections += 1;
            let m = self.active_count as u64;
            let left = self.max_attempts - self.stats.attempts;
            if self.streak * 4 >= m && self.rejections * 64 >= m * m && left >= m * m / 8 {
                self.enter_exact(prob);
            }
        }
        self.stats.budget_bound = self.active_count >= 2;
        None
    }

    /// Collects the active nodes and sums their rows from scratch.
    fn enter_exact(&mut self, prob: &impl Fn(usize, usize) -> f64) {
        let deficits = &*self.deficits;
        let nodes: Vec<usize> = (0..deficits.len())
            .filter(|&v| deficits[v] >= 1.0)
            .collect();
        let m = nodes.len();
        let mut rows = vec![0.0; m];
        for a in 0..m {
            for b in a + 1..m {
                let p = prob(nodes[a], nodes[b]);
                rows[a] += deficits[nodes[b]] * p;
                rows[b] += deficits[nodes[a]] * p;
            }
        }
        self.exact = Some(Exact {
            nodes,
            scale: rows.clone(),
            rows,
            p_i: vec![0.0; m],
            buf: vec![0.0; m],
            pair: (0, 0),
        });
    }

    /// One exact-phase step: skips to the next acceptance and draws its
    /// pair. `None` when the step left the exact phase or spent the budget.
    fn exact_draw(
        &mut self,
        rng: &mut StdRng,
        prob: &impl Fn(usize, usize) -> f64,
    ) -> Option<(usize, usize)> {
        let ex = self.exact.as_mut().expect("called in the exact phase");
        let (nodes, deficits) = (&ex.nodes, &*self.deficits);
        let s: f64 = nodes.iter().map(|&v| deficits[v]).sum();
        for (k, &v) in nodes.iter().enumerate() {
            let w = deficits[v];
            ex.buf[k] = w * ex.rows[k] / (s - w);
        }
        let total: f64 = ex.buf.iter().sum();
        let p_accept = total / s;
        if p_accept * nodes.len() as f64 > 16.0 {
            self.exact = None;
            self.streak = 0;
            self.rejections = 0;
            return None;
        }
        // Draws up to and including the next acceptance, G ~ Geometric(P).
        let jump = if p_accept >= 1.0 {
            1.0
        } else if p_accept <= 0.0 {
            f64::INFINITY
        } else {
            let u: f64 = rng.gen_range(0.0..1.0);
            ((1.0 - u).ln() / (-p_accept).ln_1p()).floor() + 1.0
        };
        if jump > (self.max_attempts - self.stats.attempts) as f64 {
            self.stats.attempts = self.max_attempts;
            return None;
        }
        self.stats.attempts += jump as u64;
        let a = pick(&ex.buf, total, rng);
        let i = nodes[a];
        for (k, &v) in nodes.iter().enumerate() {
            let p = if k == a { 0.0 } else { prob(i, v) };
            ex.p_i[k] = p;
            ex.buf[k] = deficits[v] * p;
        }
        let row: f64 = ex.buf.iter().sum();
        ex.rows[a] = row;
        ex.scale[a] = row;
        if row <= 0.0 {
            // Only rounding gets here: the kept row was positive, the
            // fresh one is empty. Redraw from the corrected rows.
            return None;
        }
        let b = pick(&ex.buf, row, rng);
        ex.pair = (a, b);
        Some((i, nodes[b]))
    }

    /// Connects an accepted pair: the first unit unconditionally, then
    /// extra units each with probability `r` while both peers remain
    /// active. The pair goes into the round's log as one entry.
    fn connect(
        &mut self,
        links: &mut Links,
        i: usize,
        j: usize,
        r: f64,
        rng: &mut StdRng,
        prob: &impl Fn(usize, usize) -> f64,
    ) {
        self.stats.accepted += 1;
        let (wi, wj) = (active(self.deficits[i]), active(self.deficits[j]));
        let mut units = 0;
        loop {
            units += 1;
            for &v in &[i, j] {
                let was_active = self.deficits[v] >= 1.0;
                self.deficits[v] -= 1.0;
                let now_active = self.deficits[v] >= 1.0;
                self.sampler.set_weight(v, active(self.deficits[v]));
                if was_active && !now_active {
                    self.active_count -= 1;
                }
            }
            if !(self.deficits[i] >= 1.0 && self.deficits[j] >= 1.0) {
                break;
            }
            if rng.gen_range(0.0..1.0) >= r {
                break;
            }
        }
        links.link(i, j, units);
        if let Some(ex) = &mut self.exact {
            let di = active(self.deficits[i]) - wi;
            let dj = active(self.deficits[j]) - wj;
            ex.settle(self.deficits, di, dj, prob);
        }
    }

    /// Ends the round and merges its links.
    fn finish(self, links: &mut Links) -> MatchStats {
        let mut stats = self.stats;
        stats.leftover = self.deficits.iter().filter(|&&d| d >= 1.0).sum();
        close_round(links, &mut stats);
        stats
    }
}

/// Merges the round's links and counts its new edges and reinforcements.
fn close_round(links: &mut Links, stats: &mut MatchStats) {
    let (new_edges, units) = links.end_round();
    stats.new_edges = new_edges;
    stats.reinforcements = units - new_edges;
}

impl Exact {
    /// Applies the drawn pair's weight changes `di`, `dj` to every row,
    /// drops the nodes that went inactive, and sums again any row that
    /// fell below [`ROW_REFRESH`] of its last full sum.
    fn settle(&mut self, deficits: &[f64], di: f64, dj: f64, prob: &impl Fn(usize, usize) -> f64) {
        let (a, b) = self.pair;
        let nodes = &mut self.nodes;
        let j = nodes[b];
        for (k, &v) in nodes.iter().enumerate() {
            let p_j = if k == b { 0.0 } else { prob(j, v) };
            self.rows[k] += di * self.p_i[k] + dj * p_j;
        }
        for pos in [a.max(b), a.min(b)] {
            if deficits[nodes[pos]] < 1.0 {
                nodes.swap_remove(pos);
                self.rows.swap_remove(pos);
                self.scale.swap_remove(pos);
            }
        }
        self.p_i.truncate(nodes.len());
        self.buf.truncate(nodes.len());
        for k in 0..nodes.len() {
            if self.rows[k] < self.scale[k] * ROW_REFRESH {
                let v = nodes[k];
                let row: f64 = nodes
                    .iter()
                    .filter(|&&l| l != v)
                    .map(|&l| deficits[l] * prob(v, l))
                    .sum();
                self.rows[k] = row;
                self.scale[k] = row;
            }
        }
    }
}

/// Draws an index with probability proportional to `weights`, which sum
/// to `total > 0`, by a linear scan.
fn pick(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let mut target = rng.gen_range(0.0..total);
    let mut last = 0;
    for (k, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            if target < w {
                return k;
            }
            target -= w;
            last = k;
        }
    }
    // Rounding left the target past the end: take the last positive weight.
    last
}

/// The matching round as it was before rejected draws were skipped: one
/// draw per attempt. The law the equivalence tests compare against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The pre-skipping loop, verbatim but for the `accepted` and
    /// `budget_bound` counters and the growth structure: each unit goes
    /// into the round's log, and the round's end counts new edges.
    pub(crate) fn match_deficits(
        links: &mut Links,
        deficits: &mut [f64],
        r: f64,
        max_attempts: u64,
        rng: &mut StdRng,
        mut accept: impl FnMut(usize, usize, &mut StdRng) -> bool,
    ) -> MatchStats {
        let mut stats = MatchStats::default();
        // Active weight = deficit where >= 1 unit is wanted, else 0.
        let weights: Vec<f64> = deficits
            .iter()
            .map(|&d| if d >= 1.0 { d } else { 0.0 })
            .collect();
        let mut sampler = DynamicWeightedSampler::from_weights(&weights);
        let active = |d: f64| if d >= 1.0 { d } else { 0.0 };
        let mut active_count = deficits.iter().filter(|&&d| d >= 1.0).count();

        while active_count >= 2 && stats.attempts < max_attempts {
            stats.attempts += 1;
            let i = match sampler.sample(rng) {
                Some(i) => i,
                None => break,
            };
            let wi = sampler.weight(i);
            sampler.set_weight(i, 0.0);
            let j = match sampler.sample(rng) {
                Some(j) => j,
                None => {
                    sampler.set_weight(i, wi);
                    break;
                }
            };
            sampler.set_weight(i, wi);
            if !accept(i, j, rng) {
                continue;
            }
            stats.accepted += 1;
            // First unit unconditionally, then extra units each with
            // probability `r` while both peers remain active.
            loop {
                links.link(i, j, 1);
                for &v in &[i, j] {
                    let was_active = deficits[v] >= 1.0;
                    deficits[v] -= 1.0;
                    let now_active = deficits[v] >= 1.0;
                    sampler.set_weight(v, active(deficits[v]));
                    if was_active && !now_active {
                        active_count -= 1;
                    }
                }
                if !(deficits[i] >= 1.0 && deficits[j] >= 1.0) {
                    break;
                }
                if rng.gen_range(0.0..1.0) >= r {
                    break;
                }
            }
        }
        stats.budget_bound = active_count >= 2 && stats.attempts >= max_attempts;
        stats.leftover = deficits.iter().filter(|&&d| d >= 1.0).sum();
        close_round(links, &mut stats);
        stats
    }

    /// The oracle with the production acceptance rule: a drawn pair
    /// connects with probability `prob(i, j)`, without a draw when it is
    /// at least 1.
    pub(crate) fn with_prob(
        links: &mut Links,
        deficits: &mut [f64],
        r: f64,
        max_attempts: u64,
        rng: &mut StdRng,
        prob: impl Fn(usize, usize) -> f64,
    ) -> MatchStats {
        match_deficits(links, deficits, r, max_attempts, rng, |i, j, rng| {
            let p = prob(i, j);
            p >= 1.0 || rng.gen_range(0.0..1.0) < p
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet_graph::NodeId;
    use inet_stats::rng::{child_rng, seeded_rng};
    use inet_stats::{ccdf_u64, Ccdf};

    fn always(_: usize, _: usize) -> f64 {
        1.0
    }

    #[test]
    fn two_nodes_pair_up() {
        let mut links = Links::new(2);
        let mut deficits = vec![3.0, 3.0];
        let mut rng = seeded_rng(1);
        let stats = match_deficits(&mut links, &mut deficits, 0.99, 1000, &mut rng, always);
        let g = links.to_graph();
        // With r ~ 1 both burn their full deficit into one multi-edge.
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_weight(), 3);
        assert_eq!(stats.new_edges, 1);
        assert_eq!(stats.reinforcements, 2);
        assert!(deficits.iter().all(|&d| d < 1.0));
        assert_eq!(stats.leftover, 0.0);
    }

    #[test]
    fn r_zero_diversifies_partners() {
        let mut links = Links::new(6);
        let mut deficits = vec![4.0; 6];
        let mut rng = seeded_rng(2);
        let _ = match_deficits(&mut links, &mut deficits, 0.0, 10_000, &mut rng, always);
        let g = links.to_graph();
        // With no reinforcement the same pair can still be drawn twice, but
        // most links should be distinct edges.
        assert!(g.edge_count() as u64 >= g.total_weight() / 2);
        assert!(g.edge_count() >= 4);
    }

    #[test]
    fn inactive_nodes_never_connect() {
        let mut links = Links::new(4);
        let mut deficits = vec![5.0, 5.0, 0.4, 0.0];
        let mut rng = seeded_rng(3);
        let _ = match_deficits(&mut links, &mut deficits, 0.5, 10_000, &mut rng, always);
        let g = links.to_graph();
        for v in 2..4 {
            assert_eq!(
                g.degree(NodeId::new(v)),
                0,
                "inactive node {v} got a connection"
            );
        }
    }

    #[test]
    fn attempt_budget_bounds_rejection_storms() {
        let mut links = Links::new(10);
        let mut deficits = vec![2.0; 10];
        let mut rng = seeded_rng(4);
        let stats = match_deficits(&mut links, &mut deficits, 0.5, 100, &mut rng, |_, _| 0.0);
        let g = links.to_graph();
        assert_eq!(stats.attempts, 100);
        assert!(stats.budget_bound);
        assert_eq!(g.edge_count(), 0);
        assert!(stats.leftover > 0.0);
    }

    #[test]
    fn single_active_node_cannot_pair() {
        let mut links = Links::new(3);
        let mut deficits = vec![5.0, 0.0, 0.0];
        let mut rng = seeded_rng(5);
        let stats = match_deficits(&mut links, &mut deficits, 0.5, 1000, &mut rng, always);
        assert_eq!(stats.attempts, 0);
        assert!(!stats.budget_bound);
        assert_eq!(stats.leftover, 5.0);
    }

    #[test]
    fn deficits_decrease_monotonically() {
        let mut links = Links::new(8);
        let mut deficits = vec![3.7; 8];
        let before: f64 = deficits.iter().sum();
        let mut rng = seeded_rng(6);
        let _ = match_deficits(&mut links, &mut deficits, 0.8, 10_000, &mut rng, always);
        let g = links.to_graph();
        let after: f64 = deficits.iter().sum();
        assert!(after < before);
        // Each edge unit consumed exactly two units of deficit.
        assert!((before - after - 2.0 * g.total_weight() as f64).abs() < 1e-9);
    }

    #[test]
    fn selective_acceptance_steers_topology() {
        // Only pairs (even, even) may connect.
        let mut links = Links::new(6);
        let mut deficits = vec![2.0; 6];
        let mut rng = seeded_rng(7);
        let _ = match_deficits(&mut links, &mut deficits, 0.5, 50_000, &mut rng, |a, b| {
            if a % 2 == 0 && b % 2 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let g = links.to_graph();
        for (u, v, _) in g.edges() {
            assert!(u.index() % 2 == 0 && v.index() % 2 == 0);
        }
        assert!(g.edge_count() > 0);
    }

    /// A fixed matching state: deficits, a symmetric acceptance matrix,
    /// the reinforcement probability and the attempt budget.
    struct State {
        deficits: Vec<f64>,
        p: Vec<Vec<f64>>,
        r: f64,
        budget: u64,
    }

    impl State {
        fn prob(&self, i: usize, j: usize) -> f64 {
            self.p[i][j]
        }
    }

    /// 12 nodes with deficits 1–6.5 and `p_ij = 10^(−6x²)`, `x` uniform, so
    /// acceptance spans 1e-6 to 1 and the budget of 200 draws stops about
    /// two rounds in five.
    fn spread_state() -> State {
        let n = 12;
        let mut rng = seeded_rng(0x5e7);
        let deficits = (0..n).map(|_| rng.gen_range(1.0..6.5)).collect();
        let mut p = vec![vec![0.0; n]; n];
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        for (i, j) in pairs {
            let x: f64 = rng.gen_range(0.0..1.0);
            p[i][j] = 10f64.powf(-6.0 * x * x);
            p[j][i] = p[i][j];
        }
        State {
            deficits,
            p,
            r: 0.5,
            budget: 200,
        }
    }

    /// What one round did: its first accepted ordered pair and the draws
    /// that took (`None` when the budget came first), and the round's
    /// totals.
    #[derive(Default)]
    struct Sample {
        first: Vec<Option<(usize, usize)>>,
        to_first: Vec<u64>,
        attempts: Vec<u64>,
        accepted: Vec<u64>,
        budget_stops: usize,
    }

    impl Sample {
        fn push(&mut self, first: Option<(usize, usize, u64)>, stats: &MatchStats) {
            self.first.push(first.map(|(i, j, _)| (i, j)));
            if let Some((_, _, t)) = first {
                self.to_first.push(t);
            }
            self.attempts.push(stats.attempts);
            self.accepted.push(stats.accepted);
            self.budget_stops += usize::from(stats.budget_bound);
        }
    }

    fn run_oracle(state: &State, rounds: u64) -> Sample {
        let mut out = Sample::default();
        for case in 0..rounds {
            let mut rng = child_rng(1, case);
            let mut links = Links::new(state.deficits.len());
            let mut deficits = state.deficits.clone();
            let (mut calls, mut first) = (0u64, None);
            let stats = oracle::match_deficits(
                &mut links,
                &mut deficits,
                state.r,
                state.budget,
                &mut rng,
                {
                    |i, j, rng: &mut StdRng| {
                        calls += 1;
                        let p = state.prob(i, j);
                        let hit = p >= 1.0 || rng.gen_range(0.0..1.0) < p;
                        if hit && first.is_none() {
                            first = Some((i, j, calls));
                        }
                        hit
                    }
                },
            );
            out.push(first, &stats);
        }
        out
    }

    /// Drives the production round step by step; also counts the rounds
    /// that entered and that left the exact phase.
    fn run_skipping(state: &State, rounds: u64) -> (Sample, usize, usize) {
        let mut out = Sample::default();
        let (mut entered, mut left) = (0, 0);
        let prob = |i, j| state.prob(i, j);
        for case in 0..rounds {
            let mut rng = child_rng(2, case);
            let mut links = Links::new(state.deficits.len());
            let mut deficits = state.deficits.clone();
            let weights: Vec<f64> = deficits.iter().map(|&d| active(d)).collect();
            let mut round = Round::new(&mut deficits, &weights, state.budget);
            let mut first = None;
            let (mut was_exact, mut did_enter, mut did_leave) = (false, false, false);
            loop {
                let pair = round.next_pair(&mut rng, &prob);
                let is_exact = round.exact.is_some();
                did_enter |= is_exact;
                did_leave |= was_exact && !is_exact;
                let Some((i, j)) = pair else { break };
                if first.is_none() {
                    first = Some((i, j, round.stats.attempts));
                }
                round.connect(&mut links, i, j, state.r, &mut rng, &prob);
                was_exact = round.exact.is_some();
            }
            let stats = round.finish(&mut links);
            entered += usize::from(did_enter);
            left += usize::from(did_leave);
            out.push(first, &stats);
        }
        (out, entered, left)
    }

    fn ks(a: &[u64], b: &[u64]) -> f64 {
        let (a, b): (Ccdf, Ccdf) = (ccdf_u64(a), ccdf_u64(b));
        a.ks_distance(&b)
    }

    /// Two-sample KS critical distance at level 1e-4:
    /// `c·sqrt((n+m)/(nm))` with `c = sqrt(ln(2/α)/2) ≈ 2.23`. Conservative
    /// for discrete data.
    fn ks_critical(n: usize, m: usize) -> f64 {
        let (n, m) = (n as f64, m as f64);
        (0.5 * (2.0f64 / 1e-4).ln()).sqrt() * ((n + m) / (n * m)).sqrt()
    }

    /// Chi-square homogeneity statistic of two equal-size samples over the
    /// categories seen at least 10 times in both together (the rest pooled
    /// into one category), with its degrees of freedom.
    fn chi_square<T: Ord + Clone>(a: &[T], b: &[T]) -> (f64, usize) {
        use std::collections::BTreeMap;
        assert_eq!(a.len(), b.len());
        let mut counts: BTreeMap<T, (f64, f64)> = BTreeMap::new();
        for x in a {
            counts.entry(x.clone()).or_default().0 += 1.0;
        }
        for x in b {
            counts.entry(x.clone()).or_default().1 += 1.0;
        }
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let mut pooled = (0.0, 0.0);
        for &(x, y) in counts.values() {
            if x + y >= 10.0 {
                cells.push((x, y));
            } else {
                pooled = (pooled.0 + x, pooled.1 + y);
            }
        }
        if pooled.0 + pooled.1 > 0.0 {
            cells.push(pooled);
        }
        let stat = cells.iter().map(|&(x, y)| (x - y).powi(2) / (x + y)).sum();
        (stat, cells.len() - 1)
    }

    /// Upper 1e-4 point of chi-square with `df` degrees of freedom
    /// (Wilson–Hilferty, z = 3.719).
    fn chi_square_critical(df: usize) -> f64 {
        let k = df as f64;
        let h = 2.0 / (9.0 * k);
        k * (1.0 - h + 3.719 * h.sqrt()).powi(3)
    }

    /// Compares the production round with the oracle on `rounds` seeded
    /// rounds of `state`, each test at level 1e-4: the first accepted
    /// ordered pair (chi-square), the draws to the first acceptance and
    /// per round (two-sample KS), the accepted pairs per round (KS), and
    /// the budget-stop rate (two-proportion z ≤ 3.89).
    fn assert_same_law(state: &State, rounds: u64) -> (Sample, usize, usize) {
        let want = run_oracle(state, rounds);
        let (got, entered, left) = run_skipping(state, rounds);
        let (stat, df) = chi_square(&want.first, &got.first);
        assert!(
            stat <= chi_square_critical(df),
            "first accepted pair: chi-square {stat:.1} on {df} df > {:.1}",
            chi_square_critical(df)
        );
        for (what, a, b) in [
            ("draws to first acceptance", &want.to_first, &got.to_first),
            ("draws per round", &want.attempts, &got.attempts),
            ("acceptances per round", &want.accepted, &got.accepted),
        ] {
            let (d, crit) = (ks(a, b), ks_critical(a.len(), b.len()));
            assert!(d <= crit, "{what}: KS distance {d:.4} > {crit:.4}");
        }
        let n = rounds as f64;
        let (pa, pb) = (want.budget_stops as f64 / n, got.budget_stops as f64 / n);
        let pooled = (pa + pb) / 2.0;
        let se = (2.0 * pooled * (1.0 - pooled) / n).sqrt();
        assert!(
            (pa - pb).abs() <= 3.89 * se,
            "budget-stop rate {pb:.4} vs oracle {pa:.4} (se {se:.4})"
        );
        (got, entered, left)
    }

    #[test]
    fn skipping_keeps_the_round_law() {
        let state = spread_state();
        let (got, entered, _) = assert_same_law(&state, 20_000);
        // The state exercises what it is meant to: the exact phase runs in
        // most rounds, and the budget binds in a sizeable share of them.
        assert!(entered > 15_000, "exact phase entered in {entered} rounds");
        assert!(
            (4_000..12_000).contains(&got.budget_stops),
            "budget stops in {} rounds",
            got.budget_stops
        );
    }

    /// Two heavy nodes that rarely connect (p = 0.03) hold most of the
    /// deficit beside a light clique of 28 that always connects, and every
    /// acceptance burns a pair's whole deficit (r = 1). The heavy pair's
    /// rejections send the round into the exact phase; once the heavy pair
    /// is spent the clique alone has P·m > 16 and sends it back.
    fn switching_state() -> State {
        let n = 30;
        let mut deficits = vec![2.5; n];
        deficits[0] = 200.0;
        deficits[1] = 200.0;
        let mut p = vec![vec![1e-5; n]; n];
        p[0][1] = 0.03;
        p[1][0] = 0.03;
        for (i, row) in p.iter_mut().enumerate().skip(2) {
            for (j, x) in row.iter_mut().enumerate().skip(2) {
                if i != j {
                    *x = 1.0;
                }
            }
        }
        State {
            deficits,
            p,
            r: 1.0,
            budget: 3_000,
        }
    }

    #[test]
    fn switching_both_ways_keeps_the_round_law() {
        let (_, entered, left) = assert_same_law(&switching_state(), 10_000);
        assert!(entered > 6_000, "exact phase entered in {entered} rounds");
        assert!(left > 6_000, "exact phase left in {left} rounds");
    }

    #[test]
    fn budget_stops_exactly_where_the_one_draw_loop_does() {
        // Two nodes that connect with p = 0.3 and are spent by one
        // acceptance: the first rejection enters the exact phase, and the
        // round must stop on the budget b with probability 0.7^b, no more
        // and no less (5000 rounds per budget, within 4 SE).
        let p = 0.3;
        for budget in 1..=4u64 {
            let rounds = 5_000;
            let mut stops = 0;
            for case in 0..rounds {
                let mut links = Links::new(2);
                let mut deficits = vec![1.5, 1.5];
                let mut rng = child_rng(12 + budget, case);
                let stats =
                    match_deficits(&mut links, &mut deficits, 0.5, budget, &mut rng, |_, _| p);
                stops += usize::from(stats.budget_bound);
            }
            let want = (1.0f64 - p).powi(budget as i32);
            let got = stops as f64 / rounds as f64;
            let se = (want * (1.0 - want) / rounds as f64).sqrt();
            assert!(
                (got - want).abs() <= 4.0 * se,
                "budget {budget}: stop rate {got:.4} vs {want:.4}"
            );
        }
    }

    #[test]
    fn no_distance_rounds_draw_exactly_like_the_oracle() {
        // With every pair accepted nothing is skipped: same draws, same
        // graph, same counters.
        for case in 0..64 {
            let mut rng = child_rng(9, case);
            let n = rng.gen_range(2..40usize);
            let deficits: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..8.0)).collect();
            let (mut g1, mut g2) = (Links::new(n), Links::new(n));
            let (mut d1, mut d2) = (deficits.clone(), deficits);
            let (mut r1, mut r2) = (child_rng(10, case), child_rng(10, case));
            let a = match_deficits(&mut g1, &mut d1, 0.6, 10_000, &mut r1, always);
            let b = oracle::with_prob(&mut g2, &mut d2, 0.6, 10_000, &mut r2, always);
            assert_eq!(a, b, "case {case}");
            assert_eq!(g1, g2, "case {case}");
            assert_eq!(r1.next_u64(), r2.next_u64(), "case {case}");
        }
    }

    #[test]
    fn kept_rows_match_full_sums() {
        // After every acceptance of an exact-phase round each kept row sum
        // equals the full sum to 1e-9 relative.
        let state = spread_state();
        let prob = |i, j| state.prob(i, j);
        for case in 0..200 {
            let mut rng = child_rng(11, case);
            let mut links = Links::new(state.deficits.len());
            let mut deficits = state.deficits.clone();
            let weights: Vec<f64> = deficits.iter().map(|&d| active(d)).collect();
            let mut round = Round::new(&mut deficits, &weights, u64::MAX);
            while let Some((i, j)) = round.next_pair(&mut rng, &prob) {
                round.connect(&mut links, i, j, state.r, &mut rng, &prob);
                let Some(ex) = &round.exact else { continue };
                for (k, &v) in ex.nodes.iter().enumerate() {
                    let full: f64 = ex
                        .nodes
                        .iter()
                        .filter(|&&l| l != v)
                        .map(|&l| round.deficits[l] * prob(v, l))
                        .sum();
                    assert!(
                        (ex.rows[k] - full).abs() <= 1e-9 * full.max(1e-300),
                        "case {case}: row {v} kept {} vs full {full}",
                        ex.rows[k]
                    );
                }
            }
        }
    }
}
