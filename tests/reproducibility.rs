//! Determinism guarantees: the whole stack is bit-reproducible per seed.

use inet_model::prelude::*;

#[test]
fn identical_seeds_reproduce_full_reports() {
    let build = || {
        let mut rng = seeded_rng(0xD5EED);
        let net = SerranoModel::new(SerranoParams::small(800)).generate(&mut rng);
        let (giant, _) = inet_model::graph::traversal::giant_component(&net.graph.to_csr());
        TopologyReport::measure(&giant)
    };
    assert_eq!(build(), build());
}

#[test]
fn different_seeds_differ() {
    let build = |seed| {
        let mut rng = seeded_rng(seed);
        Glp::internet_2001(500).generate(&mut rng).graph
    };
    assert_ne!(build(1), build(2));
}

#[test]
fn child_streams_are_independent_and_stable() {
    let a1 = child_rng(9, 1);
    let a2 = child_rng(9, 1);
    let b = child_rng(9, 2);
    let mut a1 = a1;
    let mut a2 = a2;
    let mut b = b;
    let x1: u64 = a1.gen();
    let x2: u64 = a2.gen();
    let y: u64 = b.gen();
    assert_eq!(x1, x2);
    assert_ne!(x1, y);
}

#[test]
fn experiment_runs_are_reproducible() {
    use inet_model::experiment::ModelVariant;
    let a = ModelVariant::WithDistance.run(300, 11);
    let b = ModelVariant::WithDistance.run(300, 11);
    assert_eq!(a.network.graph, b.network.graph);
    assert_eq!(a.iterations, b.iterations);
    let ua: f64 = a.network.users.as_ref().expect("users").iter().sum();
    let ub: f64 = b.network.users.as_ref().expect("users").iter().sum();
    assert_eq!(
        ua.to_bits(),
        ub.to_bits(),
        "user pool must be bit-identical"
    );
}

#[test]
fn trace_generation_and_fit_are_deterministic() {
    use inet_model::growth::fit::FittedRates;
    let run = |seed| {
        let mut rng = seeded_rng(seed);
        let trace = InternetTrace::generate(TraceConfig::oregon_era(), &mut rng);
        FittedRates::fit(&trace).expect("fittable").rates()
    };
    let r1 = run(5);
    let r2 = run(5);
    assert_eq!(r1.alpha.to_bits(), r2.alpha.to_bits());
    assert_eq!(r1.beta.to_bits(), r2.beta.to_bits());
    assert_eq!(r1.delta.to_bits(), r2.delta.to_bits());
}

/// FNV-64 (the run store's checksum) of a Serrano run's edge list, its
/// growth history and its matching totals, floats by their bits.
fn serrano_fingerprint(params: SerranoParams, seed: u64) -> u64 {
    let run = SerranoModel::new(params).run(&mut seeded_rng(seed));
    let mut bytes = Vec::new();
    inet_model::graph::io::write_edge_list(&run.network.graph, &mut bytes).expect("in memory");
    for h in &run.history {
        let line = format!(
            "{} {:x} {} {} {}\n",
            h.t,
            h.users.to_bits(),
            h.nodes,
            h.edges,
            h.bandwidth
        );
        bytes.extend_from_slice(line.as_bytes());
    }
    let m = run.matching;
    let line = format!(
        "{} {} {} {:x}\n",
        m.attempts,
        m.accepted,
        m.budget_bound_rounds,
        m.unmet_deficit.to_bits()
    );
    bytes.extend_from_slice(line.as_bytes());
    inet_model::resilience::checkpoint::fnv64(&bytes)
}

/// The Serrano streams are pinned: any change to a run's draws, links,
/// history or matching totals must update these hashes on purpose.
#[test]
fn serrano_runs_are_pinned() {
    let nodist = SerranoParams {
        target_n: 3000,
        ..SerranoParams::paper_2001_no_distance()
    };
    let dist = SerranoParams {
        target_n: 2000,
        ..SerranoParams::paper_2001()
    };
    let got = [serrano_fingerprint(nodist, 7), serrano_fingerprint(dist, 7)];
    assert_eq!(
        got,
        [0x5a6a_c99e_4f90_5893, 0x99d6_1412_f45c_7bee],
        "serrano-nodist 3000 seed 7, serrano 2000 seed 7"
    );
}
