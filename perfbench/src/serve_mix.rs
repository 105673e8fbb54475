//! `serve_mix`: two closed-loop clients, one connection each, against
//! an in-process `lip_serve` server with two pool workers. Each client
//! sends whole rounds of a fixed mix: every suite loop three times warm
//! (byte-identical program and inputs: program cache, analysis cache
//! and verdict memo all hit) and once cold (the subroutine renamed, so
//! the shard parses and analyses it and its caches grow). Every request
//! carries the production configuration. Replies are read as raw
//! frames so integer results are compared by their digits.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use lip_obs::json::Json;
use lip_obs::{json_str, MetricsSnapshot, ObsLevel};
use lip_serve::protocol::{read_frame, write_frame, Client};
use lip_serve::{ServeConfig, Server};
use lip_symbolic::sym;

use crate::layers::{self, Layers};
use crate::loops::{self, Exact, InputKey, LoopDef};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, ClassSamples, Rng};
use crate::{EndToEnd, Opts, Report, NTHREADS};

/// Closed-loop clients (at most the host's 2 cores' worth of load).
const CLIENTS: usize = 2;
/// Server pool workers.
const POOL: usize = 2;
/// Warm requests per loop per round, next to one cold request.
const WARM_PER_COLD: usize = 3;
/// Tail percentile: the rarest classes (one cold request per loop per
/// client round) get about 40 samples in a 30 s run, so p70 leaves at
/// least 10 beyond it in every class.
pub const TAIL_Q: f64 = 0.70;
/// `peak_rss_mb` is read when the reply to this many-th cold request
/// (counted over both clients and the run) arrives, about 10 rounds
/// per client. Cold requests grow the shard's caches, so a high-water
/// mark read at the end would grow with throughput; this one is taken
/// after a fixed amount of work.
const RSS_COLD: u64 = 320;
/// Rounds per client of the traced phase (and of its untraced twin).
const TRACE_ROUNDS: usize = 2;

/// Loops whose requests fail through a recorded `lip_serve` defect.
/// Their jobs count against `ok_ratio`; a failure anywhere else makes
/// the run incorrect.
const KNOWN_DEFECTS: [(&str, &str); 2] = [
    (
        "int_histogram",
        "run-request array data is parsed into Vec<f64> (ArraySpec.data), so integers \
         beyond 2^53 are rounded before the loop runs",
    ),
    (
        "solvh",
        "the server binds every request array 1-D with extent [len]; the subroutine's \
         DIMENSION HE(32, *) is not applied, so HE(1, id) is out of bounds (exec_error)",
    ),
];

fn known_defect(loop_name: &str) -> bool {
    KNOWN_DEFECTS.iter().any(|(l, _)| *l == loop_name)
}

/// One loop's requests and oracle.
struct ServeLoop {
    def: LoopDef,
    /// The request's `frame` object.
    frame: String,
    /// The request's `results` array: the subroutine's parameters.
    results: String,
    /// The tree-walk interpreter's outputs on the frame the server
    /// builds from the request, or its error.
    want: Result<Vec<(String, Exact)>, String>,
}

impl ServeLoop {
    fn new(def: LoopDef, key: InputKey) -> ServeLoop {
        let parsed = loops::parse(&def);
        let wire = loops::as_wire_store(&loops::input(&def, key));
        let names: Vec<String> = parsed
            .outputs()
            .iter()
            .map(|s| json_str(&s.name()))
            .collect();
        ServeLoop {
            def,
            frame: loops::frame_json(&wire),
            results: format!("[{}]", names.join(", ")),
            want: loops::reference(&parsed, &wire),
        }
    }

    /// A `run` request; `cold` renames the subroutine to force parse and
    /// analysis on the shard.
    fn request(&self, config: &str, cold: Option<u64>) -> String {
        let shape = self.def.shape;
        let (program, sub) = match cold {
            None => (shape.source.to_owned(), shape.sub.to_owned()),
            Some(id) => {
                let sub = format!("{}_c{id}", shape.sub);
                let program = shape.source.replacen(
                    &format!("SUBROUTINE {}(", shape.sub),
                    &format!("SUBROUTINE {sub}("),
                    1,
                );
                (program, sub)
            }
        };
        format!(
            "{{\"type\": \"run\", \"program\": {}, \"sub\": {}, \"loop\": {}, \"config\": {config}, \
             \"frame\": {}, \"results\": {}}}",
            json_str(&program),
            json_str(&sub),
            json_str(shape.label),
            self.frame,
            self.results
        )
    }

    /// Whether a raw reply carries exactly the oracle's outputs.
    fn verify(&self, reply: &str) -> bool {
        match (&self.want, raw_results(reply)) {
            (Ok(want), Some(got)) => *want == got,
            _ => false,
        }
    }
}

/// The `results` of a raw `ok` reply, every number parsed from its own
/// digits (integers as `i64`, reals to their bits), sorted by name.
/// `None` for an error reply or one this reader does not recognize.
fn raw_results(reply: &str) -> Option<Vec<(String, Exact)>> {
    if !reply.starts_with("{\"type\": \"ok\"") {
        return None;
    }
    let mut rest = &reply[reply.find("\"results\": {")? + "\"results\": {".len()..];
    let mut out = Vec::new();
    while !rest.starts_with('}') {
        rest = rest.strip_prefix('"')?;
        let end = rest.find('"')?;
        let name = rest[..end].to_owned();
        rest = rest[end + 1..].strip_prefix(": ")?;
        if let Some(r) = rest.strip_prefix("null") {
            rest = r;
        } else {
            rest = rest.strip_prefix("{\"ty\": \"")?;
            let end = rest.find('"')?;
            let int = &rest[..end] == "int";
            rest = rest[end + 1..].strip_prefix(", ")?;
            let (tokens, r) = if let Some(r) = rest.strip_prefix("\"data\": [") {
                let end = r.find(']')?;
                (
                    r[..end]
                        .split(", ")
                        .filter(|t| !t.is_empty())
                        .collect::<Vec<_>>(),
                    &r[end + 1..],
                )
            } else {
                let r = rest.strip_prefix("\"value\": ")?;
                let end = r.find('}')?;
                (vec![&r[..end]], &r[end..])
            };
            rest = r.strip_prefix('}')?;
            let value = if int {
                Exact::Int(
                    tokens
                        .iter()
                        .map(|t| t.parse().ok())
                        .collect::<Option<_>>()?,
                )
            } else {
                Exact::Real(
                    tokens
                        .iter()
                        .map(|t| t.parse::<f64>().ok().map(f64::to_bits))
                        .collect::<Option<_>>()?,
                )
            };
            out.push((name, value));
        }
        rest = rest.strip_prefix(", ").unwrap_or(rest);
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Some(out)
}

/// A raw connection: `lip_serve::Client` parses replies into `f64`
/// numbers, which would hide integer digits, so runs go through the
/// protocol's frame functions directly.
struct Conn(TcpStream);

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn(stream)
    }

    fn call(&mut self, payload: &str) -> Option<String> {
        write_frame(&mut self.0, payload).ok()?;
        read_frame(&mut self.0).ok()
    }
}

/// A running server with its mix; shut down on drop.
struct State {
    server: Option<Server>,
    loops: Vec<ServeLoop>,
    cold_ids: AtomicU64,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One run of the mix by both clients.
struct MixRun {
    samples: Vec<Sample>,
    /// Per client, each round's wall time (ms).
    round_ms: Vec<Vec<f64>>,
    wall_s: f64,
    rss_mb: f64,
}

/// One request's outcome.
struct Sample {
    class: usize,
    ms: f64,
    ok: bool,
}

impl State {
    /// Set-up: spawn the server, build every loop's request and oracle
    /// (trip counts drawn from the seed), and send each warm request
    /// once so the shard holds every program and analysis.
    fn new(seed: u64) -> State {
        let server = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal address"),
            pool: POOL,
            queue: 64,
            budget: 10_000_000_000,
        })
        .expect("bind a loopback port");
        let mut rng = Rng::new(seed, 0x5E);
        let loops: Vec<ServeLoop> = loops::suite()
            .into_iter()
            .map(|def| {
                let n = loops::BASE_N - loops::N_SPREAD + rng.below(2 * loops::N_SPREAD + 1);
                ServeLoop::new(def, InputKey { n, salt: 0 })
            })
            .collect();
        let state = State {
            server: Some(server),
            loops,
            cold_ids: AtomicU64::new(0),
        };
        state.warm_up(&crate::serve_config(ObsLevel::Off));
        state
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    fn warm_up(&self, config: &str) {
        let mut conn = Conn::connect(self.addr());
        for l in &self.loops {
            let reply = conn.call(&l.request(config, None)).unwrap_or_default();
            if !l.verify(&reply) && !known_defect(l.def.name()) {
                eprintln!(
                    "serve_mix: warm-up {} did not verify: {reply:.200}",
                    l.def.name()
                );
            }
        }
    }

    fn class_names(&self) -> Vec<String> {
        self.loops
            .iter()
            .flat_map(|l| {
                [
                    format!("{}/warm", l.def.name()),
                    format!("{}/cold", l.def.name()),
                ]
            })
            .collect()
    }

    /// One client's closed loop: whole rounds until `seconds` have
    /// passed, or exactly `rounds` rounds. Returns its samples and each
    /// round's wall time (ms). The client that receives the reply to
    /// cold request [`RSS_COLD`] reads the process's `VmHWM` into `rss`.
    #[allow(clippy::too_many_arguments)]
    fn client(
        &self,
        config: &str,
        rng: &mut Rng,
        seconds: f64,
        rounds: Option<usize>,
        mut log: Option<&mut SpanLog>,
        job_base: u64,
        rss: &OnceLock<f64>,
    ) -> (Vec<Sample>, Vec<f64>) {
        let mut conn = Conn::connect(self.addr());
        let mut entries: Vec<(usize, bool)> = (0..self.loops.len())
            .flat_map(|i| std::iter::repeat_n((i, false), WARM_PER_COLD).chain([(i, true)]))
            .collect();
        let mut samples = Vec::new();
        let mut round_ms = Vec::new();
        let start = Instant::now();
        while rounds.map_or(start.elapsed().as_secs_f64() < seconds, |r| {
            round_ms.len() < r
        }) {
            rng.shuffle(&mut entries);
            let round_start = Instant::now();
            for &(i, cold) in &entries {
                let l = &self.loops[i];
                let id = cold.then(|| self.cold_ids.fetch_add(1, Ordering::Relaxed));
                let payload = l.request(config, id);
                let t = Instant::now();
                let reply = conn.call(&payload);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let class = 2 * i + usize::from(cold);
                if let Some(log) = log.as_deref_mut() {
                    let start_ns = log.at(t);
                    log.push(Span {
                        job: job_base + samples.len() as u64,
                        class: format!("{}/{}", l.def.name(), if cold { "cold" } else { "warm" }),
                        name: "client.call",
                        parent: None,
                        start_ns,
                        end_ns: start_ns + (ms * 1e6) as u64,
                    });
                }
                if id == Some(RSS_COLD - 1) {
                    let _ = rss.set(stats::peak_rss_mb());
                }
                let ok = reply.as_deref().is_some_and(|r| l.verify(r));
                samples.push(Sample { class, ms, ok });
            }
            round_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
        }
        (samples, round_ms)
    }

    /// Both clients at once.
    fn mix(
        &self,
        config: &str,
        seed: u64,
        seconds: f64,
        rounds: Option<usize>,
        logs: Option<&mut [SpanLog; CLIENTS]>,
    ) -> MixRun {
        let rss = OnceLock::new();
        let start = Instant::now();
        let per_client: Vec<(Vec<Sample>, Vec<f64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .zip(match logs {
                    Some(logs) => logs.iter_mut().map(Some).collect::<Vec<_>>(),
                    None => (0..CLIENTS).map(|_| None).collect(),
                })
                .map(|(c, log)| {
                    let mut rng = Rng::new(seed, 0x5E00 + c as u64);
                    let rss = &rss;
                    s.spawn(move || {
                        self.client(
                            config,
                            &mut rng,
                            seconds,
                            rounds,
                            log,
                            (c as u64) << 32,
                            rss,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut run = MixRun {
            samples: Vec::new(),
            round_ms: Vec::new(),
            wall_s,
            rss_mb: rss.get().copied().unwrap_or_else(stats::peak_rss_mb),
        };
        for (samples, round_ms) in per_client {
            run.samples.extend(samples);
            run.round_ms.push(round_ms);
        }
        run
    }

    /// The end-to-end metrics of a mix. `jobs_per_s` sums, over the
    /// clients, one round's verified requests over that client's median
    /// round time.
    fn end_to_end(&self, run: &MixRun) -> EndToEnd {
        let mut classes: Vec<ClassSamples> = self
            .class_names()
            .into_iter()
            .map(|name| ClassSamples {
                name,
                ms: Vec::new(),
            })
            .collect();
        for s in &run.samples {
            classes[s.class].ms.push(s.ms);
        }
        let ok = run.samples.iter().filter(|s| s.ok).count() as u64;
        let attempted = run.samples.len() as u64;
        let per_round = (WARM_PER_COLD + 1) * self.loops.len();
        let ok_share = ok as f64 / attempted.max(1) as f64;
        let jobs_per_s = run
            .round_ms
            .iter()
            .map(|r| ok_share * per_round as f64 / (stats::median(r) / 1e3))
            .sum();
        EndToEnd {
            setup_s: 0.0,
            jobs_per_s,
            classes,
            tail_q: TAIL_Q,
            ok,
            attempted,
            peak_rss_mb: run.rss_mb,
        }
    }

    /// Whether every failed sample belongs to a known-defect loop;
    /// reports each recorded defect that cost jobs.
    fn failures_known(&self, samples: &[Sample]) -> bool {
        for (name, why) in KNOWN_DEFECTS {
            let lost = samples
                .iter()
                .filter(|s| !s.ok && self.loops[s.class / 2].def.name() == name)
                .count();
            if lost > 0 {
                eprintln!("serve_mix: {lost} {name} jobs failed, a recorded defect: {why}");
            }
        }
        samples
            .iter()
            .filter(|s| !s.ok)
            .all(|s| known_defect(self.loops[s.class / 2].def.name()))
    }

    /// The server counters and the metrics of the shard whose key
    /// contains `shard`, read through a `stats` request.
    fn stats(&self, shard: &str) -> (MetricsSnapshot, MetricsSnapshot) {
        let server = self
            .server
            .as_ref()
            .expect("server running")
            .obs()
            .snapshot();
        let mut client = Client::connect(self.addr()).expect("connect for stats");
        let reply = client.call("{\"type\": \"stats\"}").expect("stats reply");
        let metrics = reply
            .get("sessions")
            .and_then(Json::as_arr)
            .and_then(|sessions| {
                sessions.iter().find(|s| {
                    s.get("shard")
                        .and_then(Json::as_str)
                        .is_some_and(|k| k.contains(shard))
                })
            })
            .and_then(|s| s.get("metrics"));
        (server, metrics.map(snapshot_of_json).unwrap_or_default())
    }
}

fn snapshot_of_json(m: &Json) -> MetricsSnapshot {
    let counters = m
        .get("counters")
        .and_then(Json::as_obj)
        .map(|c| {
            c.iter()
                .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
                .collect()
        })
        .unwrap_or_default();
    let histograms = m
        .get("histograms")
        .and_then(Json::as_arr)
        .map(|hs| {
            hs.iter()
                .map(|h| lip_obs::HistogramSnapshot {
                    name: h
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                    sum_ns: h.get("sum_ns").and_then(Json::as_u64).unwrap_or(0),
                    buckets: Vec::new(),
                })
                .collect()
        })
        .unwrap_or_default();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    if opts.trace {
        return traced(opts.seed);
    }
    crate::untraced_run(
        || State::new(opts.seed),
        |state| {
            let config = crate::serve_config(ObsLevel::Off);
            let run = state.mix(&config, opts.seed, opts.seconds, None, None);
            (state.end_to_end(&run), state.failures_known(&run.samples))
        },
    )
}

/// The in-process twin of a warm request: the same program and inputs
/// through a direct production session. Fills the parse, analysis and
/// runtime per-loop times and the IR sizes, and returns each loop's
/// median direct run (ms).
fn direct(state: &State, layers: &mut Layers) -> Vec<f64> {
    const CALLS: usize = 5;
    let analyzer = crate::session(ObsLevel::Metrics, NTHREADS);
    let runner = crate::session(ObsLevel::Off, NTHREADS);
    let mut log = SpanLog::new();
    let mut analyses = Vec::new();
    let mut medians = Vec::new();
    for (i, l) in state.loops.iter().enumerate() {
        let name = l.def.name();
        let parsed = log.record(i as u64, name, "parse", || loops::parse(&l.def));
        let analysis = log
            .record(i as u64, name, "analyze", || {
                analyzer.analyze(parsed.program(), sym(l.def.shape.sub), l.def.shape.label)
            })
            .expect("suite loop analyses");
        let wire = loops::as_wire_store(&loops::input(&l.def, InputKey::BASE));
        let mut ms = Vec::new();
        for _ in 0..=CALLS {
            let mut frame = loops::deep_copy(&wire);
            let t = Instant::now();
            let _ = runner.run_loop(
                &parsed.machine,
                &parsed.sub,
                &parsed.target,
                &analysis,
                &mut frame,
            );
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        // The first call compiles; the rest are warm, like the shard's.
        let median = stats::median(&ms[1..]);
        layers.set(format!("runtime.run_ms.{name}"), median);
        medians.push(median);
        analyses.push(analysis);
    }
    let parse: Vec<f64> = log.by_class("parse").values().flatten().copied().collect();
    layers.set("ir.parse_ms", stats::geomean(&parse));
    let analyze = log.by_class("analyze");
    for (class, ms) in &analyze {
        layers.set(format!("analysis.analyze_ms.{class}"), stats::median(ms));
    }
    let analyze_ms: f64 = analyze.values().flatten().sum();
    let classify_ns = layers::histogram(&analyzer.metrics(), "analysis.classify_ns").1;
    layers::set_analysis_split(layers, analyze_ms, classify_ns, 1);
    layers::set_ir_sizes(layers, &analyses.iter().collect::<Vec<_>>());
    medians
}

fn traced(seed: u64) -> Report {
    let mut layers = Layers::default();
    let state = State::new(seed);
    let untraced_wall = state
        .mix(
            &crate::serve_config(ObsLevel::Off),
            seed,
            0.0,
            Some(TRACE_ROUNDS),
            None,
        )
        .wall_s;
    let direct_ms = direct(&state, &mut layers);

    let config = crate::serve_config(ObsLevel::Trace);
    state.warm_up(&config);
    let (server_before, shard_before) = state.stats("obs=trace");
    let mut logs = [SpanLog::new(), SpanLog::new()];
    let traced_run = state.mix(&config, seed, 0.0, Some(TRACE_ROUNDS), Some(&mut logs));
    let (samples, wall) = (traced_run.samples, traced_run.wall_s);
    let (server_after, shard_after) = state.stats("obs=trace");
    let server = layers::delta(&server_after, &server_before);
    let shard = layers::delta(&shard_after, &shard_before);
    let [mut log, other] = logs;
    log.absorb(other);

    layers::set_runtime_counters(&mut layers, &shard);
    layers.set(
        "analysis.loops_timed",
        layers::counter(&shard, "analysis.loops") as f64,
    );
    let (requests, request_ns) = layers::histogram(&server, "serve.request_ns");
    let server_ms = layers::mean_ms(request_ns, requests);
    let calls = log.by_class("client.call");
    let client_ms: Vec<f64> = calls.values().flatten().copied().collect();
    let mean_client_ms = client_ms.iter().sum::<f64>() / client_ms.len().max(1) as f64;
    layers.set("serve.server_ms", server_ms);
    layers.set("serve.wire_ms", mean_client_ms - server_ms);
    for kind in ["warm", "cold"] {
        let medians: Vec<f64> = calls
            .iter()
            .filter(|(class, _)| class.ends_with(kind))
            .map(|(_, ms)| stats::median(ms))
            .collect();
        layers.set(format!("serve.{kind}_ms"), stats::geomean(&medians));
    }
    layers.set("serve.direct_ms", stats::geomean(&direct_ms));
    let hits = layers::counter(&server, "server.cache.program_hit");
    let misses = layers::counter(&server, "server.cache.program_miss");
    layers.set(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("serve.program_miss", misses as f64);
    layers.set(
        "serve.batched",
        layers::counter(&server, "server.batched") as f64,
    );
    layers.set(
        "serve.rejected",
        (layers::counter(&server, "server.rejected.overload")
            + layers::counter(&server, "server.rejected.deadline")) as f64,
    );
    layers.set("trace.overhead", wall / untraced_wall);
    layers.set(
        "trace.unattributed_share",
        1.0 - request_ns as f64 / 1e6 / client_ms.iter().sum::<f64>(),
    );
    log.write("serve_mix");
    let ok = samples.iter().filter(|s| s.ok).count() as u64;
    Report {
        attempted: samples.len() as u64,
        failed: samples.len() as u64 - ok,
        correct: state.failures_known(&samples),
        metrics: layers.into_metrics(),
    }
}
