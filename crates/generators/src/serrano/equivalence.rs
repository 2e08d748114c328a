//! Model-level equivalence of the skipping matcher with the one-draw-per-
//! attempt oracle: whole paper-model runs, compared seed set against seed
//! set. Release-only in practice (a few minutes of growth), so `#[ignore]`d;
//! run with `cargo test --release -p inet-generators -- --ignored`.

use super::matching::oracle;
use super::{match_deficits, Matcher, SerranoModel, SerranoParams, SerranoRun};
use inet_graph::traversal;
use inet_metrics::ClusteringStats;
use inet_stats::rng::child_rng;
use inet_stats::{ccdf_u64, Ccdf};

/// A compared quantity of one run.
type Scalar = fn(&Summary) -> f64;
/// A compared distribution of one run.
type Distribution = fn(&Summary) -> &[u64];

/// What one run is compared on.
struct Summary {
    edges: f64,
    weight: f64,
    budget_bound_rounds: f64,
    unmet_deficit: f64,
    k_max: f64,
    clustering: f64,
    giant: f64,
    degrees: Vec<u64>,
    strengths: Vec<u64>,
}

fn summarize(run: &SerranoRun) -> Summary {
    let g = &run.network.graph;
    let csr = g.to_csr();
    let degrees: Vec<u64> = g.degrees().iter().map(|&d| d as u64).collect();
    Summary {
        edges: g.edge_count() as f64,
        weight: g.total_weight() as f64,
        budget_bound_rounds: f64::from(run.matching.budget_bound_rounds),
        unmet_deficit: run.matching.unmet_deficit,
        k_max: degrees.iter().copied().max().unwrap_or(0) as f64,
        clustering: ClusteringStats::measure(&csr).mean_local,
        giant: traversal::giant_fraction(&csr),
        degrees,
        strengths: g.strengths(),
    }
}

/// Runs `seeds` paper-model runs of size `n` with `matcher` on two
/// threads; stream `base` keeps the two matchers' seeds apart.
fn runs(n: usize, seeds: u64, base: u64, matcher: Matcher) -> Vec<Summary> {
    let model = SerranoModel::new(SerranoParams {
        target_n: n,
        ..SerranoParams::paper_2001()
    });
    let half = seeds / 2;
    std::thread::scope(|s| {
        let parts: Vec<_> = [0..half, half..seeds]
            .into_iter()
            .map(|range| {
                s.spawn(move || {
                    range
                        .map(|seed| summarize(&model.run_with(&mut child_rng(base, seed), matcher)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("a run panicked"))
            .collect()
    })
}

fn mean_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Per-run KS distance of a distribution to the oracle runs pooled; an
/// oracle run is compared with the pool of the other oracle runs.
fn ks_to_oracle_pool(
    oracle_runs: &[Summary],
    runs: &[Summary],
    field: Distribution,
    leave_one_out: bool,
) -> Vec<f64> {
    runs.iter()
        .enumerate()
        .map(|(k, run)| {
            let pool: Vec<u64> = oracle_runs
                .iter()
                .enumerate()
                .filter(|&(l, _)| !(leave_one_out && l == k))
                .flat_map(|(_, o)| field(o).iter().copied())
                .collect();
            let (pool, own): (Ccdf, Ccdf) = (ccdf_u64(&pool), ccdf_u64(field(run)));
            own.ks_distance(&pool)
        })
        .collect()
}

/// Asserts every compared quantity's mean is within 3 combined standard
/// errors between `seeds` oracle runs and `seeds` skipping runs at size `n`.
fn assert_equivalent(n: usize, seeds: u64) {
    let skip: Matcher = |links, deficits, r, budget, rng, kernel| {
        match_deficits(links, deficits, r, budget, rng, |i, j| kernel.prob(i, j))
    };
    let one_draw: Matcher = |links, deficits, r, budget, rng, kernel| {
        oracle::with_prob(links, deficits, r, budget, rng, |i, j| kernel.prob(i, j))
    };
    let want = runs(n, seeds, 0x0AC1E, one_draw);
    let got = runs(n, seeds, 0x5C1B, skip);
    let scalars: [(&str, Scalar); 7] = [
        ("edges", |s| s.edges),
        ("total weight", |s| s.weight),
        ("budget-bound rounds", |s| s.budget_bound_rounds),
        ("unmet deficit", |s| s.unmet_deficit),
        ("k_max", |s| s.k_max),
        ("clustering", |s| s.clustering),
        ("giant fraction", |s| s.giant),
    ];
    let mut rows: Vec<(&str, Vec<f64>, Vec<f64>)> = scalars
        .iter()
        .map(|&(name, f)| {
            (
                name,
                want.iter().map(f).collect(),
                got.iter().map(f).collect(),
            )
        })
        .collect();
    let dists: [(&str, Distribution); 2] = [
        ("degree KS to the oracle pool", |s| &s.degrees),
        ("strength KS to the oracle pool", |s| &s.strengths),
    ];
    for (name, field) in dists {
        rows.push((
            name,
            ks_to_oracle_pool(&want, &want, field, true),
            ks_to_oracle_pool(&want, &got, field, false),
        ));
    }
    let mut failures = Vec::new();
    for (name, a, b) in &rows {
        let ((ma, sa), (mb, sb)) = (mean_se(a), mean_se(b));
        let se = (sa * sa + sb * sb).sqrt();
        let line = format!("N={n} {name}: oracle {ma:.4}±{sa:.4}, skipping {mb:.4}±{sb:.4}");
        eprintln!("{line}");
        if (ma - mb).abs() > 3.0 * se {
            failures.push(line);
        }
    }
    assert!(
        failures.is_empty(),
        "beyond 3 combined SE:\n{}",
        failures.join("\n")
    );
}

#[test]
#[ignore = "minutes of growth; run in release with --ignored"]
fn skipping_matches_the_oracle_at_3000_nodes() {
    assert_equivalent(3_000, 64);
}

#[test]
#[ignore = "minutes of growth; run in release with --ignored"]
fn skipping_matches_the_oracle_at_11000_nodes() {
    assert_equivalent(11_000, 16);
}
