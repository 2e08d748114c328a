//! The staged executor: source → measure → attack → report.
//!
//! Each stage runs behind the `pipeline.stage` failpoint (scope = stage
//! index) *and* a panic fence, so an injected fault or a kernel bug aborts
//! the run with a typed [`PipelineError`] — never a crash — and earlier
//! stages' results are still described in the error path (checkpoints on
//! disk, sinks already written).
//!
//! The stages reuse the existing engines verbatim: generation goes through
//! the registry builder and [`Generator::try_generate`]'s containment,
//! measurement through [`inet_metrics::measure_robust`] on the giant
//! component, attacks through [`inet_resilience::run_sweep`] on the full
//! graph — so scenario runs are bit-identical to the legacy subcommands
//! for any thread count.
//!
//! [`Generator::try_generate`]: inet_generators::Generator::try_generate

use std::io::Read;

use inet_exec::{run_fenced, Task, TaskError};
use inet_graph::{CancelToken, MultiGraph};
use inet_metrics::{measure_robust_cancellable, ReportOptions, RobustOptions, RobustReport};
use inet_resilience::{run_sweep, SweepConfig, SweepResult};
use inet_stats::rng::seeded_rng;

use crate::report;
use crate::runstore::RunStore;
use crate::scenario::{Scenario, Source};
use crate::telemetry::Telemetry;
use crate::PipelineError;

/// Stage names, indexed by their `pipeline.stage` failpoint scope.
pub const STAGE_NAMES: [&str; 4] = ["source", "measure", "attack", "report"];

/// Everything a finished run produced, for the caller to print or persist.
#[derive(Debug)]
pub struct RunOutcome {
    /// Scenario display name.
    pub name: String,
    /// One-line description of the topology source (model + sizes, or the
    /// loaded path).
    pub source: String,
    /// Node count of the topology under study.
    pub nodes: usize,
    /// Edge count of the topology under study.
    pub edges: usize,
    /// The measurement stage's report, when the stage ran.
    pub robust: Option<RobustReport>,
    /// The attack stage's sweep result, when the stage ran.
    pub sweep: Option<SweepResult>,
    /// The rendered summary text (also written to the summary sink).
    pub summary: String,
    /// Non-fatal warnings collected across stages (kernel failures,
    /// resampled replicas, sweep warnings) for the caller's stderr.
    pub warnings: Vec<String>,
    /// One line per report sink actually written.
    pub written: Vec<String>,
    /// The run-store id, when the run was journaled.
    pub run_id: Option<String>,
    /// The measurement block replayed verbatim from a committed stage-1
    /// artifact; set instead of `robust` on resume, so the summary is
    /// byte-identical to the interrupted run's.
    pub measure_replay: Option<String>,
}

/// Runs one stage behind the failpoint and a panic fence. The failpoint
/// sits *inside* the fence so an injected `Panic` action is contained
/// exactly like an organic stage panic.
fn stage<T>(index: u64, f: impl FnOnce() -> Result<T, PipelineError>) -> Result<T, PipelineError> {
    let name = STAGE_NAMES[index as usize];
    let task = Task::new("pipeline.stage", index);
    match run_fenced(&task, || {
        inet_fault::check("pipeline.stage", index)
            .map_err(|e| PipelineError::Stage(format!("{name} stage aborted: {e}")))
            .and_then(|()| f())
    }) {
        Ok(result) => result,
        Err(TaskError::Fault(e)) => Err(PipelineError::Stage(format!("{name} stage aborted: {e}"))),
        Err(TaskError::Panicked(msg)) => Err(PipelineError::Stage(format!(
            "{name} stage panicked: {msg}"
        ))),
    }
}

/// Execution options for [`run_scenario_with`]: cooperative cancellation
/// plus the optional crash-safe run store.
#[derive(Debug, Default)]
pub struct ExecOptions {
    /// Polled between pool chunks, sweep cells, and metric kernels. Once
    /// fired, the run stops after the in-flight batch with
    /// [`PipelineError::Interrupted`]; completed work is already
    /// journaled/checkpointed.
    pub cancel: CancelToken,
    /// When present, every stage journals begin/commit records and writes
    /// checksummed artifacts; on resume, committed stages replay from
    /// their artifacts instead of re-executing.
    pub store: Option<RunStore>,
}

/// Executes a scenario start to finish and returns what it produced —
/// the legacy single-shot path (no journal, no cancellation), which stays
/// byte-identical to earlier releases.
pub fn run_scenario(scenario: &Scenario) -> Result<RunOutcome, PipelineError> {
    run_scenario_with(scenario, &ExecOptions::default())
}

/// The [`PipelineError::Interrupted`] for this run, carrying the exact
/// resume command when a run store exists.
fn interrupted_error(store: Option<&RunStore>) -> PipelineError {
    PipelineError::Interrupted(match store {
        Some(st) => format!(
            "interrupted; committed stages are journaled — resume with: inet run --resume {}",
            st.id()
        ),
        None => "interrupted (no run store; re-run the same command — an attack checkpoint, \
                 if configured, resumes finished cells)"
            .to_string(),
    })
}

/// Per-kernel warning lines, shared between the caller's stderr and the
/// stage-1 journal detail: failures plus soft-deadline overruns (which
/// used to be visible only in the kernel-status block).
fn measure_warnings(r: &RobustReport) -> Vec<String> {
    let mut out: Vec<String> = r
        .failures()
        .iter()
        .map(|(kernel, reason)| format!("kernel '{kernel}' failed: {reason}"))
        .collect();
    for (kernel, elapsed, limit) in r.deadline_exceeded() {
        out.push(format!(
            "kernel '{kernel}' overran the {limit} ms soft deadline ({elapsed} ms); \
             its numbers are exact but the budget was blown"
        ));
    }
    out
}

/// Executes a scenario with cancellation and (optionally) the journaled
/// run store: stage-level resume replays committed stages from their
/// artifacts and re-executes from the first uncommitted one.
///
/// The whole run executes under a captured `run` span; for journaled runs
/// the captured subtree is appended to the run's `telemetry.json`
/// (accumulating across resume sessions). Telemetry is inert: a persist
/// failure is swallowed, and the spans never influence the outcome.
pub fn run_scenario_with(
    scenario: &Scenario,
    opts: &ExecOptions,
) -> Result<RunOutcome, PipelineError> {
    let (result, spans) = inet_obs::span::capture("run", 0, || run_scenario_inner(scenario, opts));
    if let Some(st) = opts.store.as_ref() {
        let mut telemetry = Telemetry::load(st);
        telemetry.append(spans);
        let _ = telemetry.save(st);
    }
    result
}

fn run_scenario_inner(
    scenario: &Scenario,
    opts: &ExecOptions,
) -> Result<RunOutcome, PipelineError> {
    let threads = scenario
        .threads
        .unwrap_or_else(inet_graph::parallel::default_threads);
    let store = opts.store.as_ref();
    let cancel = &opts.cancel;

    // Fail fast on unwritable sinks — before any compute, not after.
    report::preflight(scenario)?;

    let committed = match store {
        Some(st) => st.committed(),
        None => vec![None; STAGE_NAMES.len()],
    };
    let mut warnings = Vec::new();
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    // Stage 0: source — replay the committed edge list when possible (the
    // adjacency is canonical, so the round trip rebuilds the identical
    // graph), otherwise execute and commit.
    let mut replayed_source = None;
    if let (Some(st), Some(rec)) = (store, committed[0].as_ref()) {
        let _replay = inet_obs::span::enter("pipeline.replay", 0);
        match st.load_artifact(rec).and_then(|bytes| {
            inet_graph::io::read_edge_list(&bytes[..])
                .map_err(|e| PipelineError::Data(format!("source artifact: {e}")))
        }) {
            Ok(g) => replayed_source = Some((g, rec.detail.clone())),
            Err(e) => warnings.push(format!("{e}; re-executing the source stage")),
        }
    }
    let (graph, source_desc) = match replayed_source {
        Some(pair) => pair,
        None => stage(0, || {
            if let Some(st) = store {
                st.begin(0)?;
            }
            let (graph, desc) = build_source(scenario)?;
            if let Some(st) = store {
                let mut buf = Vec::new();
                inet_graph::io::write_edge_list(&graph, &mut buf)
                    .map_err(|e| PipelineError::Data(format!("source artifact: {e}")))?;
                st.commit_bytes(0, "source.edges", &buf, &desc)?;
            }
            Ok((graph, desc))
        })?,
    };
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    // Stage 1: measure — replay the committed rendered block verbatim, or
    // run the (cancellable) kernel battery and commit it.
    let mut robust = None;
    let mut measure_replay = None;
    if let Some(m) = scenario.measure {
        let mut replayed = false;
        if let (Some(st), Some(rec)) = (store, committed[1].as_ref()) {
            let _replay = inet_obs::span::enter("pipeline.replay", 1);
            match st.load_artifact(rec) {
                Ok(bytes) => {
                    measure_replay = Some(String::from_utf8_lossy(&bytes).into_owned());
                    warnings.extend(rec.detail.lines().map(str::to_string));
                    replayed = true;
                }
                Err(e) => warnings.push(format!("{e}; re-executing the measure stage")),
            }
        }
        if !replayed {
            let r = stage(1, || {
                if let Some(st) = store {
                    st.begin(1)?;
                }
                let giant = inet_graph::traversal::giant_component(&graph.to_csr()).0;
                let opt = RobustOptions {
                    report: ReportOptions {
                        path_sources: m.path_sources,
                        betweenness_sources: m.betweenness_sources,
                        threads,
                    },
                    soft_deadline_millis: m.deadline_ms,
                    selection: m.selection,
                };
                let r = measure_robust_cancellable(&giant, opt, cancel);
                if !r.interrupted() {
                    if let Some(st) = store {
                        st.commit_bytes(
                            1,
                            "measure.txt",
                            report::render_measure_block(scenario, &r).as_bytes(),
                            &measure_warnings(&r).join("\n"),
                        )?;
                    }
                }
                Ok(r)
            })?;
            if r.interrupted() {
                return Err(interrupted_error(store));
            }
            robust = Some(r);
        }
    } else if let (Some(st), None) = (store, committed[1].as_ref()) {
        // The scenario has no measure section: journal the skip so the
        // run's progress reads "complete" once the later stages land.
        st.begin(1)?;
        st.commit_bytes(1, "measure.skip", b"", "skipped")?;
    }
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    // Stage 2: attack — the checkpoint *is* the artifact, at cell
    // granularity: journaled runs auto-wire one into the run directory,
    // and resume (committed or mid-sweep) picks finished cells back up
    // from it bit-identically.
    let mut sweep = None;
    if let Some(a) = &scenario.attack {
        let checkpoint = match (&a.checkpoint, store) {
            (Some(path), _) => Some(path.clone()),
            (None, Some(st)) => Some(st.path("attack.ckpt.json")),
            (None, None) => None,
        };
        let s = stage(2, || {
            if let Some(st) = store {
                st.begin(2)?;
            }
            let csr = graph.to_csr();
            let record_every = if a.record_every == 0 {
                (csr.node_count() / 200).max(1)
            } else {
                a.record_every
            };
            let cfg = SweepConfig {
                strategies: a.strategies.clone(),
                replicas: a.replicas,
                base_seed: a.seed,
                threads,
                record_every,
                bc_sources: a.bc_sources,
                checkpoint: checkpoint.clone(),
                cancel: cancel.clone(),
                ..SweepConfig::default()
            };
            let result = run_sweep(&csr, &cfg).map_err(|e| {
                if e.is_incompatible() {
                    PipelineError::CheckpointIncompatible(format!("attack: {e}"))
                } else {
                    PipelineError::Data(format!("attack: {e}"))
                }
            })?;
            if !result.interrupted {
                if let (Some(st), Some(ckpt)) = (store, checkpoint.as_deref()) {
                    st.commit_external(2, ckpt, "")?;
                }
            }
            Ok(result)
        })?;
        if s.interrupted {
            return Err(interrupted_error(store));
        }
        sweep = Some(s);
    } else if let (Some(st), None) = (store, committed[2].as_ref()) {
        st.begin(2)?;
        st.commit_bytes(2, "attack.skip", b"", "skipped")?;
    }
    if cancel.is_cancelled() {
        return Err(interrupted_error(store));
    }

    if let Some(r) = &robust {
        warnings.extend(measure_warnings(r));
    }
    if let Some(s) = &sweep {
        for f in &s.failures {
            warnings.push(format!(
                "{} replica {} failed on attempt {}: {}",
                f.strategy, f.replica, f.attempt, f.message
            ));
        }
        warnings.extend(s.warnings.iter().cloned());
    }

    let mut outcome = RunOutcome {
        name: scenario.name.clone(),
        source: source_desc,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        robust,
        sweep,
        summary: String::new(),
        warnings,
        written: Vec::new(),
        run_id: store.map(|st| st.id().to_string()),
        measure_replay,
    };
    stage(3, || {
        if let Some(st) = store {
            st.begin(3)?;
        }
        report::emit(scenario, &graph, &mut outcome)?;
        if let Some(st) = store {
            st.commit_bytes(
                3,
                "summary.txt",
                outcome.summary.as_bytes(),
                &outcome.written.join("\n"),
            )?;
        }
        Ok(())
    })?;
    Ok(outcome)
}

/// Stage 0: grow or load the topology, with the invariant check the legacy
/// CLI ran (always in debug builds, opt-in in release).
fn build_source(scenario: &Scenario) -> Result<(MultiGraph, String), PipelineError> {
    match &scenario.source {
        Source::Generator(g) => {
            let generator =
                (g.spec.build)(&g.params).map_err(|e| PipelineError::Model(e.to_string()))?;
            let mut rng = seeded_rng(g.seed);
            let net = generator
                .try_generate(&mut rng)
                .map_err(|e| PipelineError::Model(e.to_string()))?;
            check_graph(&net.graph, scenario.check_invariants, "generate")?;
            let desc = format!(
                "generated {} ({} nodes, {} edges, weight {})",
                net.name,
                net.graph.node_count(),
                net.graph.edge_count(),
                net.graph.total_weight()
            );
            Ok((net.graph, desc))
        }
        Source::Input { path } => {
            let graph = load_graph(path)?;
            check_graph(&graph, scenario.check_invariants, "input")?;
            let desc = format!(
                "loaded {} ({} nodes, {} edges)",
                path,
                graph.node_count(),
                graph.edge_count()
            );
            Ok((graph, desc))
        }
    }
}

/// Reads an edge list from a file, or stdin when `path` is `-`.
pub fn load_graph(path: &str) -> Result<MultiGraph, PipelineError> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| PipelineError::Data(format!("stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| PipelineError::Data(format!("{path}: {e}")))?
    };
    inet_graph::io::read_edge_list(text.as_bytes())
        .map_err(|e| PipelineError::Data(format!("{path}: {e}")))
}

fn check_graph(g: &MultiGraph, enabled: bool, what: &str) -> Result<(), PipelineError> {
    if enabled || cfg!(debug_assertions) {
        g.validate().map_err(|e| {
            PipelineError::Data(format!("{what}: graph invariant check failed: {e}"))
        })?;
    }
    Ok(())
}

/// Holds off every other test that runs a pipeline. Under `fault-inject`
/// the fault plan is process-wide, so a plan one test installs would fire
/// in a pipeline another test runs.
#[cfg(test)]
pub(crate) fn serial_pipelines() -> std::sync::MutexGuard<'static, ()> {
    static PIPELINES: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the `()` it guards cannot be left
    // half-updated, so the next test may proceed.
    PIPELINES.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use inet_resilience::Strategy;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("inet_pipeline_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generator_scenario_measures_and_attacks() {
        let _serial = serial_pipelines();
        let scenario = Scenario::parse(
            r#"
            [generator]
            model = "ba"
            n = 80
            seed = 11
            [measure]
            metrics = ["degree", "giant"]
            [attack]
            strategies = ["random"]
            replicas = 1
            record = 1
            "#,
        )
        .unwrap();
        let outcome = run_scenario(&scenario).unwrap();
        assert_eq!(outcome.nodes, 80);
        assert!(outcome.edges > 0);
        let robust = outcome.robust.as_ref().unwrap();
        assert!(robust.fully_ok());
        let sweep = outcome.sweep.as_ref().unwrap();
        assert_eq!(sweep.cells.len(), 1);
        assert!(outcome.summary.contains("generated"), "{}", outcome.summary);
        assert!(outcome.summary.contains("strategy"), "{}", outcome.summary);
    }

    #[test]
    fn scenario_attack_is_bit_identical_to_a_direct_sweep() {
        let _serial = serial_pipelines();
        // The pipeline must add nothing to the numbers: same generator call,
        // same sweep config => identical cells, for any thread count.
        let direct = {
            let spec = inet_generators::lookup("ba").unwrap();
            let params = spec.resolve_n(80).unwrap();
            let generator = (spec.build)(&params).unwrap();
            let mut rng = seeded_rng(11);
            let csr = generator.try_generate(&mut rng).unwrap().graph.to_csr();
            let cfg = SweepConfig {
                strategies: vec![Strategy::Random, Strategy::Degree { recalc: false }],
                replicas: 2,
                base_seed: 11,
                threads: 1,
                record_every: 1,
                bc_sources: 64,
                ..SweepConfig::default()
            };
            run_sweep(&csr, &cfg).unwrap()
        };
        for threads in [1usize, 2, 7] {
            let scenario = Scenario::parse(&format!(
                "threads = {threads}\n[generator]\nmodel = \"ba\"\nn = 80\nseed = 11\n\
                 [attack]\nreplicas = 2\nrecord = 1"
            ))
            .unwrap();
            let outcome = run_scenario(&scenario).unwrap();
            assert_eq!(
                outcome.sweep.unwrap().cells,
                direct.cells,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn input_scenario_round_trips_through_sinks() {
        let _serial = serial_pipelines();
        let dir = temp_dir("sinks");
        let edge_list = dir.join("graph.txt");
        let generated = Scenario::parse(&format!(
            "[generator]\nmodel = \"glp\"\nn = 120\nseed = 3\n[report]\nedge_list = \"{}\"",
            edge_list.display()
        ))
        .unwrap();
        let first = run_scenario(&generated).unwrap();
        assert!(edge_list.exists());
        assert_eq!(first.written.len(), 1);

        let summary = dir.join("summary.txt");
        let curves = dir.join("curves");
        let measured = Scenario::parse(&format!(
            "[input]\npath = \"{}\"\n[measure]\nmetrics = [\"degree\"]\n\
             [attack]\nstrategies = [\"degree\"]\nreplicas = 1\n\
             [report]\nsummary = \"{}\"\ncurves = \"{}\"",
            edge_list.display(),
            summary.display(),
            curves.display()
        ))
        .unwrap();
        let outcome = run_scenario(&measured).unwrap();
        assert_eq!(outcome.nodes, first.nodes);
        assert_eq!(outcome.edges, first.edges);
        let summary_text = std::fs::read_to_string(&summary).unwrap();
        assert_eq!(summary_text, outcome.summary);
        assert!(curves.join("degree-r0.csv").exists());
        let csv = std::fs::read_to_string(curves.join("degree-r0.csv")).unwrap();
        assert!(
            csv.starts_with("removed,giant,edges,mean_component\n"),
            "{csv}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_errors_keep_their_exit_codes() {
        let _serial = serial_pipelines();
        // Unreadable input is a data error (4).
        let scenario = Scenario::parse("[input]\npath = \"/nonexistent/g.txt\"").unwrap();
        assert_eq!(run_scenario(&scenario).unwrap_err().exit_code(), 4);
        // A generator rejecting its parameters is a model error (3): the
        // schema accepts any positive m, the builder enforces m <= n.
        let scenario = Scenario::parse("[generator]\nmodel = \"ba\"\nn = 10\nm = 50").unwrap();
        let e = run_scenario(&scenario).unwrap_err();
        assert_eq!(e.exit_code(), 3, "{e}");
    }

    #[test]
    fn incompatible_checkpoint_exits_5() {
        let _serial = serial_pipelines();
        let dir = temp_dir("ckpt");
        let ckpt = dir.join("state.json");
        let mk = |seed: u64| {
            Scenario::parse(&format!(
                "[generator]\nmodel = \"ba\"\nn = 60\nseed = {seed}\n\
                 [attack]\nstrategies = [\"random\"]\nreplicas = 1\ncheckpoint = \"{}\"",
                ckpt.display()
            ))
            .unwrap()
        };
        run_scenario(&mk(11)).unwrap();
        let resumed = run_scenario(&mk(11)).unwrap();
        assert_eq!(resumed.sweep.as_ref().unwrap().resumed, 1);
        assert!(resumed.summary.contains("resumed 1 finished cell(s)"));
        let e = run_scenario(&mk(12)).unwrap_err();
        assert_eq!(e.exit_code(), 5, "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_run_commits_every_stage_and_resumes_from_artifacts() {
        let _serial = serial_pipelines();
        let dir = temp_dir("journal");
        let runs = dir.join("runs");
        let curves = dir.join("curves");
        let text = format!(
            "[generator]\nmodel = \"ba\"\nn = 80\nseed = 11\n\
             [measure]\nmetrics = [\"degree\", \"giant\"]\n\
             [attack]\nstrategies = [\"random\"]\nreplicas = 2\nrecord = 1\n\
             [report]\ncurves = \"{}\"",
            curves.display()
        );
        let scenario = Scenario::parse(&text).unwrap();
        let store = RunStore::create(&runs, &scenario.name, &text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let clean = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(clean.run_id.as_deref(), Some(id.as_str()));
        let clean_cells = clean.sweep.as_ref().unwrap().cells.clone();
        let csv_before = std::fs::read_to_string(curves.join("random-r0.csv")).unwrap();

        // Every stage committed, every artifact passes its checksum.
        let store = RunStore::open(&runs, &id).unwrap();
        let committed = store.committed();
        assert!(committed.iter().all(Option::is_some), "{committed:?}");
        for rec in committed.iter().flatten() {
            store.load_artifact(rec).unwrap();
        }
        assert!(store.path("attack.ckpt.json").exists());

        // Resume replays source + measure from artifacts, the attack from
        // its checkpoint — cells and curve CSVs bit-identical.
        let resumed = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(RunStore::open(&runs, &id).unwrap()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(resumed.robust.is_none(), "measure must replay, not re-run");
        assert!(resumed.measure_replay.is_some());
        assert_eq!(resumed.source, clean.source);
        let resumed_sweep = resumed.sweep.as_ref().unwrap();
        assert_eq!(resumed_sweep.cells, clean_cells);
        assert_eq!(
            resumed_sweep.resumed, 2,
            "both cells come from the checkpoint"
        );
        assert_eq!(
            std::fs::read_to_string(curves.join("random-r0.csv")).unwrap(),
            csv_before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_degrades_to_re_execution_with_a_warning() {
        let _serial = serial_pipelines();
        let dir = temp_dir("degrade");
        let runs = dir.join("runs");
        let text = "[generator]\nmodel = \"ba\"\nn = 60\nseed = 7\n\
                    [measure]\nmetrics = [\"degree\"]";
        let scenario = Scenario::parse(text).unwrap();
        let store = RunStore::create(&runs, &scenario.name, text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let clean = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        let store = RunStore::open(&runs, &id).unwrap();
        std::fs::write(store.path("measure.txt"), "tampered").unwrap();
        let resumed = run_scenario_with(
            &scenario,
            &ExecOptions {
                store: Some(store),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            resumed
                .warnings
                .iter()
                .any(|w| w.contains("failed its checksum") && w.contains("re-executing")),
            "{:?}",
            resumed.warnings
        );
        assert!(resumed.robust.is_some(), "stage must re-execute");
        assert_eq!(
            resumed.summary, clean.summary,
            "re-execution is deterministic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_run_exits_6_and_names_the_resume_command() {
        let _serial = serial_pipelines();
        let dir = temp_dir("cancel");
        let text = "[generator]\nmodel = \"ba\"\nn = 60";
        let scenario = Scenario::parse(text).unwrap();
        let store =
            RunStore::create(&dir.join("runs"), &scenario.name, text, "s.toml", &[]).unwrap();
        let id = store.id().to_string();
        let cancel = inet_graph::CancelToken::new();
        cancel.cancel();
        let e = run_scenario_with(
            &scenario,
            &ExecOptions {
                cancel,
                store: Some(store),
            },
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 6, "{e}");
        assert!(
            e.message().contains(&format!("inet run --resume {id}")),
            "{e}"
        );
        // Without a store the class is the same, just without the command.
        let cancel = inet_graph::CancelToken::new();
        cancel.cancel();
        let e = run_scenario_with(
            &scenario,
            &ExecOptions {
                cancel,
                store: None,
            },
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 6, "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_sinks_fail_fast_with_exit_2_before_any_compute() {
        let _serial = serial_pipelines();
        let dir = temp_dir("preflight");
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "x").unwrap();
        // The parent of each sink is a *file*, so no directory can be made.
        for section in [
            format!("summary = \"{}\"", blocker.join("sub/out.txt").display()),
            format!("edge_list = \"{}\"", blocker.join("sub/g.txt").display()),
        ] {
            let scenario = Scenario::parse(&format!(
                "[generator]\nmodel = \"ba\"\nn = 60\n[report]\n{section}"
            ))
            .unwrap();
            let e = run_scenario(&scenario).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{section}: {e}");
            assert!(e.message().contains("not writable"), "{e}");
        }
        let scenario = Scenario::parse(&format!(
            "[generator]\nmodel = \"ba\"\nn = 60\n[attack]\nreplicas = 1\n\
             [report]\ncurves = \"{}\"",
            blocker.join("curves").display()
        ))
        .unwrap();
        let e = run_scenario(&scenario).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    mod faults {
        use super::*;
        use inet_fault::{install, FaultAction, FaultPlan};

        fn scenario() -> Scenario {
            Scenario::parse(
                "[generator]\nmodel = \"ba\"\nn = 60\n\
                 [measure]\nmetrics = [\"degree\"]\n\
                 [attack]\nstrategies = [\"random\"]\nreplicas = 1",
            )
            .unwrap()
        }

        #[test]
        fn injected_stage_faults_abort_with_exit_1() {
            let _serial = serial_pipelines();
            for (scope, name) in STAGE_NAMES.iter().enumerate() {
                let _guard = install(FaultPlan::single(
                    "pipeline.stage",
                    Some(scope as u64),
                    FaultAction::Error,
                ));
                let e = run_scenario(&scenario()).unwrap_err();
                assert_eq!(e.exit_code(), 1, "{name}: {e}");
                assert!(
                    e.message().contains(&format!("{name} stage aborted")),
                    "{name}: {e}"
                );
            }
        }

        #[test]
        fn panics_inside_a_stage_are_contained() {
            let _serial = serial_pipelines();
            // The failpoint sits inside the fence, so an injected panic
            // becomes a Stage error instead of unwinding through the run.
            let _guard = install(FaultPlan::single(
                "pipeline.stage",
                Some(3),
                FaultAction::Panic,
            ));
            let e = run_scenario(&scenario()).unwrap_err();
            assert_eq!(e.exit_code(), 1, "{e}");
            assert!(e.message().contains("report stage panicked"), "{e}");
        }
    }
}
