//! `compile`: parse and analyse each suite loop in a fresh session
//! (cold caches, no execution). Loads `ir` and `analysis` (USR
//! summaries, LMAD, symbolic, factorization and cascade build, fission
//! planning); bypasses `runtime`, `pred`, `vm` and `serve`.

use std::time::Instant;

use lip_obs::ObsLevel;
use lip_symbolic::sym;

use crate::layers::{self, Layers};
use crate::loops::{self, LoopDef};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, Rng};
use crate::{oracle, EndToEnd, Opts, Report, NTHREADS};

/// Tail percentile: one `solvh` analysis takes about 0.5 s, so a 30 s
/// run has about 50 samples per class and p75 leaves at least 10
/// beyond it in every class.
pub const TAIL_Q: f64 = 0.75;
/// Rounds of the traced phase (and of its untraced twin).
pub const TRACE_ROUNDS: usize = 3;

/// One compile job's outcome.
struct Job {
    ms: f64,
    ok: bool,
}

/// Parses and analyses one loop in a fresh session; with a span log,
/// records the job's spans and returns the session for its metrics.
fn job(
    def: &LoopDef,
    obs: ObsLevel,
    log: Option<(&mut SpanLog, u64)>,
) -> (
    Job,
    Option<(lip_runtime::Session, lip_analysis::LoopAnalysis)>,
) {
    let start = Instant::now();
    let t0 = log.as_ref().map(|(l, _)| l.now());
    let prog = lip_ir::parse_program(def.shape.source).expect("suite source parses");
    let t1 = log.as_ref().map(|(l, _)| l.now());
    let session = crate::session(obs, NTHREADS);
    let analysis = session.analyze(&prog, sym(def.shape.sub), def.shape.label);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let ok = analysis
        .as_ref()
        .is_some_and(|a| oracle::check(def.name(), a));
    if let Some((log, id)) = log {
        let (t0, t1, t2) = (t0.unwrap_or(0), t1.unwrap_or(0), log.now());
        let root = log.spans().len();
        let span = |name, parent, start_ns, end_ns| Span {
            job: id,
            class: def.name().to_owned(),
            name,
            parent,
            start_ns,
            end_ns,
        };
        log.push(span("job", None, t0, t2));
        log.push(span("parse", Some(root), t0, t1));
        log.push(span("analyze", Some(root), t1, t2));
    }
    (Job { ms, ok }, analysis.map(|a| (session, a)))
}

/// Set-up: the suite and one untimed, verified warm-up round (faults in
/// code and allocator arenas).
fn setup() -> Vec<LoopDef> {
    let defs = loops::suite();
    for def in &defs {
        let (j, _) = job(def, ObsLevel::Off, None);
        assert!(
            j.ok,
            "{}: warm-up verdict differs from the known answer",
            def.name()
        );
    }
    defs
}

/// Runs whole rounds of untraced jobs.
fn timed(defs: &[LoopDef], rng: &mut Rng, seconds: f64, rounds: Option<usize>) -> EndToEnd {
    let names: Vec<&str> = defs.iter().map(LoopDef::name).collect();
    crate::run_rounds(&names, rng, seconds, rounds, TAIL_Q, |c| {
        let (j, _) = job(&defs[c], ObsLevel::Off, None);
        (j.ms, j.ok)
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rng = Rng::new(opts.seed, 0xC0);
    if opts.trace {
        return traced(&mut rng);
    }
    crate::untraced_run(setup, |defs| {
        let e2e = timed(defs, &mut rng, opts.seconds, None);
        let correct = e2e.ok == e2e.attempted;
        (e2e, correct)
    })
}

fn traced(rng: &mut Rng) -> Report {
    let defs = setup();
    let untraced_ms = timed(&defs, rng, 0.0, Some(TRACE_ROUNDS)).busy_ms();

    let mut log = SpanLog::new();
    let mut snaps = Vec::new();
    let (mut attempted, mut ok, mut job_id) = (0u64, 0u64, 0u64);
    let mut covered_ns = 0u64;
    let mut round_analyses = Vec::new();
    for round in 0..TRACE_ROUNDS {
        let mut order: Vec<usize> = (0..defs.len()).collect();
        rng.shuffle(&mut order);
        for c in order {
            let (j, out) = job(&defs[c], ObsLevel::Trace, Some((&mut log, job_id)));
            job_id += 1;
            attempted += 1;
            ok += u64::from(j.ok);
            let Some((session, analysis)) = out else {
                continue;
            };
            covered_ns += layers::span_totals(&session.profile(), "analysis.loop").1;
            snaps.push(session.metrics());
            if round == 0 {
                round_analyses.push(analysis);
            }
        }
    }

    let mut l = Layers::default();
    let parse = log.by_class("parse");
    let analyze = log.by_class("analyze");
    let parse_medians: Vec<f64> = parse.values().map(|v| stats::median(v)).collect();
    l.set("ir.parse_ms", stats::geomean(&parse_medians));
    for (class, ms) in &analyze {
        l.set(format!("analysis.analyze_ms.{class}"), stats::median(ms));
    }
    let merged = layers::merge(&snaps);
    let analyze_ms: f64 = analyze.values().flatten().sum();
    let classify_ns = layers::histogram(&merged, "analysis.classify_ns").1;
    layers::set_analysis_split(&mut l, analyze_ms, classify_ns, TRACE_ROUNDS);
    l.set(
        "analysis.loops_timed",
        layers::counter(&merged, "analysis.loops") as f64,
    );
    layers::set_runtime_counters(&mut l, &merged);
    layers::set_ir_sizes(&mut l, &round_analyses.iter().collect::<Vec<_>>());
    let job_ns: u64 = log
        .spans()
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    l.set("trace.overhead", job_ns as f64 / 1e6 / untraced_ms);
    l.set(
        "trace.unattributed_share",
        1.0 - covered_ns as f64 / job_ns.max(1) as f64,
    );
    log.write("compile");
    Report {
        attempted,
        failed: attempted - ok,
        correct: ok == attempted,
        metrics: l.into_metrics(),
    }
}
