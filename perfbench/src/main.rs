//! The lip benchmark: three workloads that each load a different layer
//! of the loop parallelizer, driven through its public entry points
//! from outside the program.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload execute --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `compile` parses and analyses each suite loop in a fresh session.
//! * `execute` runs each suite loop on fresh inputs in a warm session.
//! * `serve_mix` drives an in-process `lip_serve` server with two
//!   closed-loop clients sending a fixed mix of warm and cold requests.
//!
//! Every job's output is checked against an independent oracle. With
//! `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the workload also runs once
//! with tracing on and reports the per-layer metrics, and the
//! benchmark's own spans are written to `perfbench/out/`.

mod compile;
mod execute;
mod layers;
mod loops;
mod oracle;
mod serve_mix;
mod spans;
mod stats;

use std::time::Instant;

use lip_obs::ObsLevel;
use lip_runtime::{Backend, OptLevel, PredBackend, Session};

/// Pool width of every session and request.
pub const NTHREADS: usize = 2;
/// Trip count past which O(N) predicate stages fork (the predicate
/// engine's own default, stated so no number depends on a default).
pub const PAR_MIN: i64 = 1024;
/// Work units the simulator charges per parallel-region spawn.
pub const SPAWN_COST: u64 = 4_000;

/// A session under the production configuration: bytecode backend,
/// compiled predicates, fused bytecode, fission on. The session
/// defaults are the tree-walk engines, so everything is set explicitly.
pub fn session(obs: ObsLevel, nthreads: usize) -> Session {
    Session::builder()
        .backend(Backend::Bytecode)
        .pred(PredBackend::Compiled)
        .opt_level(OptLevel::Fuse)
        .fission(true)
        .nthreads(nthreads)
        .par_min(PAR_MIN)
        .spawn_cost(SPAWN_COST)
        .observer(obs)
        .build()
}

/// The production configuration as `lip_serve` config pairs (an empty
/// `config` would mean the tree-walk engines).
pub fn serve_config(obs: ObsLevel) -> String {
    let obs = match obs {
        ObsLevel::Off => String::new(),
        level => format!(", \"obs\": \"{level}\""),
    };
    format!(
        "{{\"backend\": \"bytecode\", \"pred\": \"compiled\", \"opt\": \"fuse\", \
         \"fission\": \"on\", \"nthreads\": {NTHREADS}, \"par_min\": {PAR_MIN}, \
         \"spawn_cost\": {SPAWN_COST}{obs}}}"
    )
}

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether to run the traced phase and report per-layer metrics.
    pub trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err(bad("must be a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
}

/// What one workload run reports.
pub struct Report {
    /// Jobs attempted in the timed phase.
    pub attempted: u64,
    /// Jobs whose output did not verify (refused and failed requests
    /// included).
    pub failed: u64,
    /// Whether every failure belongs to a recorded known defect.
    pub correct: bool,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// The end-to-end metrics of a timed phase.
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups.
    pub setup_s: f64,
    /// Verified jobs per second of the timed phase: the verified jobs
    /// of one round of the fixed mix over the median round time, so a
    /// burst of contention from other processes on the host moves it
    /// no more than it moves a median latency.
    pub jobs_per_s: f64,
    /// Per-class latency samples.
    pub classes: Vec<stats::ClassSamples>,
    /// Tail percentile of this workload.
    pub tail_q: f64,
    /// Verified jobs.
    pub ok: u64,
    /// Attempted jobs.
    pub attempted: u64,
    /// `VmHWM` at the end of the timed phase, or at a fixed point in it.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The six end-to-end metrics, by name and unit.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let (p50, tail, beyond) = stats::class_aggregates(&self.classes, self.tail_q);
        if beyond < 10 {
            eprintln!(
                "warning: a job class has only {beyond} samples beyond its p{}",
                self.tail_q * 100.0
            );
        }
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("jobs_per_s".into(), self.jobs_per_s, "1/s"),
            ("job_p50_ms".into(), p50, "ms"),
            ("job_tail_ms".into(), tail, "ms"),
            (
                "ok_ratio".into(),
                self.ok as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MiB"),
        ]
    }

    /// The timed latency of every job, in ms.
    pub fn busy_ms(&self) -> f64 {
        self.classes.iter().flat_map(|c| c.ms.iter()).sum()
    }

    /// The report of an untraced run; `correct` says whether every
    /// failure belongs to a recorded defect.
    pub fn report(self, correct: bool) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.attempted - self.ok,
            correct,
            metrics: self.metrics(),
        }
    }
}

/// Runs whole rounds of jobs until `seconds` have passed, or exactly
/// `rounds` rounds. Each round runs every class once, in an order drawn
/// from `rng`; `job(class)` returns the job's timed latency (ms) and
/// whether its output verified. A round's time is the sum of its jobs'
/// timed latencies: input generation and the oracle run outside the
/// timer.
pub fn run_rounds(
    classes: &[&str],
    rng: &mut stats::Rng,
    seconds: f64,
    rounds: Option<usize>,
    tail_q: f64,
    mut job: impl FnMut(usize) -> (f64, bool),
) -> EndToEnd {
    let mut samples: Vec<stats::ClassSamples> = classes
        .iter()
        .map(|c| stats::ClassSamples {
            name: (*c).to_owned(),
            ms: Vec::new(),
        })
        .collect();
    let (mut ok, mut attempted) = (0u64, 0u64);
    let mut round_ms = Vec::new();
    let start = Instant::now();
    while rounds.map_or(start.elapsed().as_secs_f64() < seconds, |r| {
        round_ms.len() < r
    }) {
        let mut order: Vec<usize> = (0..classes.len()).collect();
        rng.shuffle(&mut order);
        let mut busy_ms = 0.0;
        for c in order {
            let (ms, verified) = job(c);
            if !verified {
                eprintln!("{}: output did not verify", classes[c]);
            }
            samples[c].ms.push(ms);
            busy_ms += ms;
            attempted += 1;
            ok += u64::from(verified);
        }
        round_ms.push(busy_ms);
    }
    let ok_per_round = ok as f64 / round_ms.len() as f64;
    EndToEnd {
        setup_s: 0.0,
        jobs_per_s: ok_per_round / (stats::median(&round_ms) / 1e3),
        classes: samples,
        tail_q,
        ok,
        attempted,
        peak_rss_mb: stats::peak_rss_mb(),
    }
}

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// An untraced run: sets the workload up, runs the timed phase on that
/// state, then sets up [`SETUPS`] − 1 more times (each state dropped
/// before the next is built) so `setup_s` is a median. The extra
/// set-ups come after the timed phase so their threads and allocations
/// cannot shape the memory the timed phase measures.
pub fn untraced_run<T>(
    mut setup: impl FnMut() -> T,
    measure: impl FnOnce(&mut T) -> (EndToEnd, bool),
) -> Report {
    let mut times = Vec::with_capacity(SETUPS);
    let t = Instant::now();
    let mut state = setup();
    times.push(t.elapsed().as_secs_f64());
    let (e2e, correct) = measure(&mut state);
    drop(state);
    for _ in 1..SETUPS {
        let t = Instant::now();
        let state = setup();
        times.push(t.elapsed().as_secs_f64());
        drop(state);
    }
    EndToEnd {
        setup_s: stats::median(&times),
        ..e2e
    }
    .report(correct)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile|execute|serve_mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match opts.workload.as_str() {
        "compile" => compile::run(&opts),
        "execute" => execute::run(&opts),
        "serve_mix" => serve_mix::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric `{name}` is {value}, which JSON cannot carry");
        std::process::exit(1);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                lip_obs::json_str(name),
                lip_obs::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
