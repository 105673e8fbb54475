//! `execute`: a warm session runs each suite loop on fresh inputs at
//! n ≈ 256 on 2 threads. Analysis happens in set-up; the timed jobs
//! load runtime predicate evaluation, CIV traces, the exact USR test,
//! fork/join, VM bodies and merge. Consecutive calls to a loop never
//! repeat an input, so the predicate verdict memo does not answer.

use std::time::Instant;

use lip_analysis::LoopAnalysis;
use lip_ir::StoreCtx;
use lip_obs::{ObsLevel, ProfileReport};
use lip_runtime::{ExecOutcome, RunStats, Session, SimSpec};
use lip_symbolic::sym;

use crate::layers::{self, Layers};
use crate::loops::{self, InputKey, InputSeq, LoopDef, Parsed, BASE_N, N_SPREAD};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, Rng};
use crate::{Opts, Report, NTHREADS};

/// Tail percentile: a pass over the 16 loops takes about 40 ms of run
/// time, so a 30 s run has about 500 samples per class; p90 leaves about
/// 50 beyond it in every class (at least 10 even on a host three times
/// slower), and stays clear of the contention spikes that move p97 by
/// 2× between runs on a shared host.
pub const TAIL_Q: f64 = 0.90;
/// Rounds of the traced phase (and of its untraced twin). Below the 65
/// calls after which a trip count recurs, so no stage is memoized.
pub const TRACE_ROUNDS: usize = 20;
/// Calls per loop and thread count for the measured speedup that the
/// simulator's prediction is checked against.
const SIM_CALLS: usize = 9;
/// The exact USR test's element limit, as the executor sets it.
const EXACT_LIMIT: usize = 100_000_000;
/// The warm-up input: a trip count outside the timed band, so warm-up
/// verdicts are never replayed from the memo.
const WARMUP: InputKey = InputKey {
    n: BASE_N + N_SPREAD + 1,
    salt: 0,
};

struct Loop {
    def: LoopDef,
    parsed: Parsed,
    analysis: LoopAnalysis,
    seq: InputSeq,
    calls: usize,
}

struct State {
    session: Session,
    loops: Vec<Loop>,
}

/// One executed job.
struct Call {
    start: Instant,
    ms: f64,
    ok: bool,
    key: InputKey,
    stats: Option<RunStats>,
}

/// Runs `l` once under `session` on input `key`, outside-timer oracle
/// included.
fn run_once(session: &Session, l: &Loop, key: InputKey) -> Call {
    let mut frame = loops::input(&l.def, key);
    let want = loops::reference(&l.parsed, &frame).expect("the reference interpreter runs");
    let start = Instant::now();
    let res = session.run_loop(
        &l.parsed.machine,
        &l.parsed.sub,
        &l.parsed.target,
        &l.analysis,
        &mut frame,
    );
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let ok = res.is_ok() && loops::snapshot(&frame, l.parsed.outputs()) == want;
    Call {
        start,
        ms,
        ok,
        key,
        stats: res.ok(),
    }
}

impl State {
    /// Set-up: parse and analyse every loop in one session, seed each
    /// loop's input sequence, and run each loop once (compiles its
    /// bytecode and predicate programs). With a log, records the parse
    /// and analyze spans as jobs `0..16`.
    fn new(seed: u64, obs: ObsLevel, mut log: Option<&mut SpanLog>) -> State {
        let session = crate::session(obs, NTHREADS);
        let mut rng = Rng::new(seed, 0xE1);
        let loops: Vec<Loop> = loops::suite()
            .into_iter()
            .enumerate()
            .map(|(i, def)| {
                let mut timed = |name, f: &mut dyn FnMut()| match log.as_deref_mut() {
                    Some(log) => log.record(i as u64, def.name(), name, f),
                    None => f(),
                };
                let mut parsed = None;
                timed("parse", &mut || parsed = Some(loops::parse(&def)));
                let parsed = parsed.expect("parsed");
                let mut analysis = None;
                timed("analyze", &mut || {
                    analysis =
                        session.analyze(parsed.program(), sym(def.shape.sub), def.shape.label);
                });
                Loop {
                    def,
                    analysis: analysis.expect("suite loop analyses"),
                    parsed,
                    seq: InputSeq::new(&mut rng),
                    calls: 0,
                }
            })
            .collect();
        for l in &loops {
            assert!(
                run_once(&session, l, WARMUP).ok,
                "{}: warm-up output differs",
                l.def.name()
            );
        }
        State { session, loops }
    }

    /// The next call of loop `i`.
    fn call(&mut self, i: usize) -> Call {
        let l = &mut self.loops[i];
        let key = l.seq.key(l.calls);
        l.calls += 1;
        run_once(&self.session, &self.loops[i], key)
    }

    fn names(&self) -> Vec<&'static str> {
        self.loops.iter().map(|l| l.def.name()).collect()
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rng = Rng::new(opts.seed, 0xE0);
    if opts.trace {
        return traced(opts.seed, &mut rng);
    }
    crate::untraced_run(
        || State::new(opts.seed, ObsLevel::Off, None),
        |state| {
            let names = state.names();
            let e2e = crate::run_rounds(&names, &mut rng, opts.seconds, None, TAIL_Q, |c| {
                let call = state.call(c);
                (call.ms, call.ok)
            });
            let correct = e2e.ok == e2e.attempted;
            (e2e, correct)
        },
    )
}

/// Whether an outcome ran the loop (or some fragment of it) in parallel.
fn ran_parallel(outcome: &ExecOutcome) -> bool {
    match outcome {
        ExecOutcome::StaticParallel
        | ExecOutcome::PredicatePassed { .. }
        | ExecOutcome::ExactPredicatePassed => true,
        ExecOutcome::Fissioned { parallel, .. } => *parallel > 0,
        ExecOutcome::Speculated(_) | ExecOutcome::Sequential => false,
    }
}

/// `sim.model_error.<loop>`: the speedup `Session::simulate` predicts
/// at 2 processors over the measured 1-thread vs 2-thread `run_loop`
/// speedup, each the median of [`SIM_CALLS`] calls on the same inputs.
fn model_errors(state: &mut State, layers: &mut Layers) {
    let one = crate::session(ObsLevel::Off, 1);
    let two = crate::session(ObsLevel::Off, 2);
    for l in &mut state.loops {
        let keys: Vec<InputKey> = (0..SIM_CALLS).map(|k| l.seq.key(l.calls + k)).collect();
        l.calls += SIM_CALLS;
        let l = &*l;
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        let _ = run_once(&one, l, WARMUP);
        let last = run_once(&two, l, WARMUP);
        for &key in &keys {
            t1.push(run_once(&one, l, key).ms);
            t2.push(run_once(&two, l, key).ms);
        }
        let measured = stats::median(&t1) / stats::median(&t2);
        let Some(stats) = last.stats else { continue };
        let mut frame = loops::input(&l.def, WARMUP);
        let spec = SimSpec {
            procs: 2,
            test_seq_units: stats.test_units,
            parallel_test: true,
            run_parallel: ran_parallel(&stats.outcome),
        };
        match two.simulate(
            &l.parsed.machine,
            &l.parsed.sub,
            &l.parsed.target,
            &mut frame,
            spec,
        ) {
            Ok(sim) => {
                let predicted = sim.seq_units as f64 / (sim.par_units + sim.test_units) as f64;
                layers.set(
                    format!("sim.model_error.{}", l.def.name()),
                    predicted / measured,
                );
            }
            Err(e) => eprintln!("{}: simulate failed: {e}", l.def.name()),
        }
    }
}

/// The USRs the executor evaluated exactly in its last run of `l`: the
/// whole loop's, or each fission fragment's that reached the test.
fn exact_tested<'a>(session: &Session, l: &'a Loop) -> Vec<&'a lip_usr::Usr> {
    let Some(d) = session.explain_decision(&l.analysis.label) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if d.exact_test.is_some() {
        out.extend(l.analysis.ind_usr.as_ref());
    }
    if let (Some(report), Some(plan)) = (&d.fission, &l.analysis.fission) {
        for (frag, planned) in report.fragments.iter().zip(&plan.fragments) {
            if frag.exact_test.is_some() {
                out.extend(planned.analysis.ind_usr.as_ref());
            }
        }
    }
    out
}

fn traced(seed: u64, rng: &mut Rng) -> Report {
    let mut layers = Layers::default();
    let mut untraced = State::new(seed, ObsLevel::Off, None);
    let names = untraced.names();
    let mut twin_rng = Rng::new(seed, 0xE2);
    let untraced_ms = crate::run_rounds(
        &names,
        &mut twin_rng,
        0.0,
        Some(TRACE_ROUNDS),
        TAIL_Q,
        |c| {
            let call = untraced.call(c);
            (call.ms, call.ok)
        },
    )
    .busy_ms();
    model_errors(&mut untraced, &mut layers);

    let mut log = SpanLog::new();
    let mut state = State::new(seed, ObsLevel::Trace, Some(&mut log));
    let setup_snap = state.session.metrics();
    let setup_events = state.session.trace_events().len();
    let (mut attempted, mut ok) = (0u64, 0u64);
    let mut job = state.loops.len() as u64;
    for _ in 0..TRACE_ROUNDS {
        let mut order: Vec<usize> = (0..state.loops.len()).collect();
        rng.shuffle(&mut order);
        for c in order {
            let call = state.call(c);
            let start_ns = log.at(call.start);
            let end_ns = start_ns + (call.ms * 1e6) as u64;
            let class = state.loops[c].def.name();
            log.push(Span {
                job,
                class: class.to_owned(),
                name: "run_loop",
                parent: None,
                start_ns,
                end_ns,
            });
            attempted += 1;
            ok += u64::from(call.ok);
            let l = &state.loops[c];
            let frame = loops::input(&l.def, call.key);
            for usr in exact_tested(&state.session, l) {
                log.record(job, class, "eval_usr", || {
                    lip_usr::eval_usr(usr, &StoreCtx(&frame), EXACT_LIMIT)
                });
            }
            job += 1;
        }
    }
    let snap = layers::delta(&state.session.metrics(), &setup_snap);
    let events = state.session.trace_events();
    let profile = ProfileReport::from_events(&events[setup_events..]);

    let spans_of = |name: &str| log.by_class(name);
    let parse_medians: Vec<f64> = spans_of("parse")
        .values()
        .map(|v| stats::median(v))
        .collect();
    layers.set("ir.parse_ms", stats::geomean(&parse_medians));
    let analyze = spans_of("analyze");
    for (class, ms) in &analyze {
        layers.set(format!("analysis.analyze_ms.{class}"), stats::median(ms));
    }
    let analyze_ms: f64 = analyze.values().flatten().sum();
    let classify_ns = layers::histogram(&setup_snap, "analysis.classify_ns").1;
    layers::set_analysis_split(&mut layers, analyze_ms, classify_ns, 1);
    layers.set(
        "analysis.loops_timed",
        layers::counter(&snap, "analysis.loops") as f64,
    );
    let analyses: Vec<&LoopAnalysis> = state.loops.iter().map(|l| &l.analysis).collect();
    layers::set_ir_sizes(&mut layers, &analyses);
    layers::set_runtime_counters(&mut layers, &snap);
    for (class, ms) in &spans_of("run_loop") {
        layers.set(format!("runtime.run_ms.{class}"), stats::median(ms));
    }
    let (loops_n, loop_ns, loop_self_ns) = layers::span_totals(&profile, "run.loop");
    layers.set("runtime.self_ms", layers::mean_ms(loop_self_ns, loops_n));
    let (stage_n, stage_ns, _) = layers::span_totals(&profile, "pred.stage");
    layers.set("pred.stage_ms", layers::mean_ms(stage_ns, stage_n));
    let (chunk_n, chunk_ns, _) = layers::span_totals(&profile, "pool.chunk");
    layers.set("pool.chunk_ms", layers::mean_ms(chunk_ns, chunk_n));
    let exact_ms: f64 = spans_of("eval_usr").values().flatten().sum();
    layers.set("usr.exact_test_ms", exact_ms / TRACE_ROUNDS as f64);
    let traced_ms: f64 = spans_of("run_loop").values().flatten().sum();
    layers.set("trace.overhead", traced_ms / untraced_ms);
    layers.set(
        "trace.unattributed_share",
        1.0 - loop_ns as f64 / 1e6 / traced_ms,
    );
    log.write("execute");
    Report {
        attempted,
        failed: attempted - ok,
        correct: ok == attempted,
        metrics: layers.into_metrics(),
    }
}
