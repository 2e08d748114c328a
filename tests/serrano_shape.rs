//! Paper-shape regression tests for the competition–adaptation model.
//!
//! These encode the *qualitative* claims of the source text at moderate
//! size, so a refactor that silently breaks the physics fails CI even
//! without running the full figure suite.

use std::sync::OnceLock;

use inet_model::experiment::ModelVariant;
use inet_model::generators::serrano::SerranoRun;
use inet_model::metrics::{weighted, ClusteringStats, KnnStats, PathStats};
use inet_model::prelude::*;

const N: usize = 4000;

fn giant(variant: ModelVariant, stream: u64) -> (Csr, SerranoRun) {
    let run = variant.run(N, stream);
    let (g, _) = inet_model::graph::traversal::giant_component(&run.network.graph.to_csr());
    (g, run)
}

/// The distance variant on 8 seeds (streams 100..108), grown once and
/// shared by the checks below.
fn distance_runs() -> &'static [(Csr, SerranoRun)] {
    static RUNS: OnceLock<Vec<(Csr, SerranoRun)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        (100..108)
            .map(|stream| giant(ModelVariant::WithDistance, stream))
            .collect()
    })
}

/// Asserts that `holds` is true on at least 7 of the 8 per-seed `values`
/// and at their median.
fn assert_across_seeds(what: &str, values: &[f64], holds: impl Fn(f64) -> bool) {
    assert_eq!(values.len(), 8);
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = (sorted[3] + sorted[4]) / 2.0;
    let passing = values.iter().filter(|&&v| holds(v)).count();
    assert!(
        passing >= 7 && holds(median),
        "{what}: holds on {passing} of 8 seeds (median {median:.4}); values {values:.4?}"
    );
}

#[test]
fn degree_distribution_is_heavy_tailed_with_internet_exponent() {
    let (g, _) = giant(ModelVariant::WithoutDistance, 1);
    let degrees: Vec<u64> = g.degrees().iter().map(|&d| d as u64).collect();
    let fit = inet_model::stats::powerlaw::fit_discrete(&degrees, 6).expect("fittable");
    assert!(
        (1.7..2.7).contains(&fit.gamma),
        "gamma = {} outside the Internet band",
        fit.gamma
    );
    // Hub scale: the max degree grabs a macroscopic share of the network,
    // the paper's linear-scaling claim.
    let kmax = g.max_degree();
    assert!(
        kmax as f64 > 0.05 * g.node_count() as f64,
        "kmax = {kmax} not macroscopic"
    );
}

#[test]
fn bandwidth_degree_scaling_matches_mu() {
    let (g, _) = giant(ModelVariant::WithoutDistance, 2);
    let mu = weighted::fit_mu(&g, 4).expect("fittable");
    assert!(
        (mu.slope - 0.75).abs() < 0.12,
        "mu = {} vs predicted 0.75",
        mu.slope
    );
    assert!(mu.slope < 1.0, "mu must stay sublinear");
}

#[test]
fn network_contains_multiple_connections() {
    let (_, run) = giant(ModelVariant::WithoutDistance, 3);
    let g = &run.network.graph;
    let multiplicity = g.total_weight() as f64 / g.edge_count() as f64;
    assert!(
        multiplicity > 1.2,
        "mean multiplicity {multiplicity}: the weighted structure vanished"
    );
}

#[test]
fn small_world_and_clustered() {
    let runs = distance_runs();
    let paths: Vec<f64> = runs
        .iter()
        .map(|(g, _)| PathStats::measure_sampled(g, 150, 4).mean)
        .collect();
    assert_across_seeds("mean path below 4.5", &paths, |l| l < 4.5);
    let clustering: Vec<f64> = runs
        .iter()
        .map(|(g, _)| ClusteringStats::measure(g).mean_local)
        .collect();
    assert_across_seeds("clustering above 0.15", &clustering, |c| c > 0.15);
}

#[test]
fn disassortative_like_the_internet() {
    let with: Vec<f64> = distance_runs()
        .iter()
        .map(|(g, _)| KnnStats::measure(g).assortativity)
        .collect();
    assert_across_seeds(
        "model with distance: assortativity below -0.05",
        &with,
        |r| r < -0.05,
    );
    let (g, _) = giant(ModelVariant::WithoutDistance, 6);
    let r = KnnStats::measure(&g).assortativity;
    assert!(
        r < -0.05,
        "{}: assortativity {r} not disassortative",
        ModelVariant::WithoutDistance.label()
    );
}

#[test]
fn distance_constraint_shortens_links_not_the_world() {
    let runs = distance_runs();
    let mean_len: Vec<f64> = runs
        .iter()
        .map(|(_, run)| {
            let positions = run.network.positions.as_ref().expect("positions");
            let g = &run.network.graph;
            g.edges()
                .map(|(u, v, _)| positions[u.index()].dist(&positions[v.index()]))
                .sum::<f64>()
                / g.edge_count() as f64
        })
        .collect();
    assert_across_seeds("mean link length below 0.45", &mean_len, |l| l < 0.45);
    let paths: Vec<f64> = runs
        .iter()
        .map(|(g, _)| PathStats::measure_sampled(g, 150, 4).mean)
        .collect();
    assert_across_seeds("distance variant mean path below 4.5", &paths, |l| l < 4.5);
}

#[test]
fn size_distribution_tail_is_one_plus_tau() {
    let (_, run) = giant(ModelVariant::WithoutDistance, 8);
    let users = run.network.users.as_ref().expect("users");
    let ccdf = inet_model::stats::ccdf::ccdf_f64(users);
    let pts: Vec<(f64, f64)> = ccdf
        .points()
        .filter(|&(w, c)| w > 20_000.0 && c > 2e-3)
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.into_iter().unzip();
    let fit = inet_model::stats::regression::loglog_fit(&xs, &ys).expect("fittable");
    // CCDF exponent is tau = beta/alpha = 0.857.
    assert!(
        (fit.slope + 0.857).abs() < 0.3,
        "size CCDF slope {} vs -0.857",
        fit.slope
    );
}

#[test]
fn both_variants_grow_to_target_and_conserve_users() {
    for (variant, stream) in [
        (ModelVariant::WithDistance, 9),
        (ModelVariant::WithoutDistance, 10),
    ] {
        let run = variant.run(1500, stream);
        assert!(run.network.graph.node_count() >= 1500);
        let users = run.network.users.as_ref().expect("users");
        let total: f64 = users.iter().sum();
        let recorded = run.history.last().expect("history").users;
        assert!(
            (total - recorded).abs() < 1e-6 * total,
            "{}",
            variant.label()
        );
        assert!(users.iter().all(|&u| u > 0.0));
    }
}
