//! The benchmark's own checks, run against the built benchmark binary:
//!
//! * determinism — two traced runs with one seed report exactly equal
//!   per-layer counts;
//! * workload exercise — each traced run loads the layers its workload
//!   is meant to load, and bypasses the others;
//! * a fresh seed — a seed not used while the benchmark was written
//!   still verifies at the healthy `ok_ratio`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build analyses `solvh` far more slowly).

use std::collections::BTreeMap;
use std::process::Command;

/// Runs the benchmark and returns its result line's metrics, after
/// checking the line's shape.
fn run(workload: &str, seed: u64, seconds: &str, trace: bool) -> (bool, BTreeMap<String, f64>) {
    // From the repository root, as the benchmark is run.
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let json = lip_obs::json::Json::parse(line).expect("the result line is JSON");
    let attempted = json
        .get("attempted")
        .and_then(|v| v.as_u64())
        .expect("attempted");
    let failed = json.get("failed").and_then(|v| v.as_u64()).expect("failed");
    assert!(attempted >= 1 && failed <= attempted, "{line}");
    let correct = json
        .get("correct")
        .and_then(|v| v.as_bool())
        .expect("correct");
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_obj())
        .expect("metrics")
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(|v| v.as_f64()).expect("value");
            (k.clone(), value)
        })
        .collect();
    (correct, metrics)
}

/// Per-layer metrics that are exact counts of work, which one seed must
/// reproduce exactly: static sizes, analyses run and the serve caches.
/// `serve.batched` is left out: how many requests a shard drains
/// together depends on timing.
const EXACT: [&str; 8] = [
    "analysis.loops_timed",
    "core.cascade_stages",
    "core.pred_leaves",
    "usr.ind_usr_nodes",
    "analysis.fission_fragments",
    "serve.cache_hit_rate",
    "serve.program_miss",
    "serve.rejected",
];

/// Exact counts of executed work. In `serve_mix` they depend on
/// batching: when a request in a batch fails (the recorded `solvh`
/// defect), the shard re-runs every request of that batch one by one,
/// so requests batched ahead of it execute twice.
const EXACT_RUNTIME: [&str; 11] = [
    "pred.evals",
    "pred.memo_hits",
    "pred.chunk_cancellations",
    "runtime.loops",
    "runtime.test_units",
    "runtime.loop_units",
    "pool.forks",
    "pool.chunks",
    "vm.ops",
    "vm.fused_ops",
    "vm.red_ops",
];

/// Two traced runs of one seed; asserts equal counts and returns the
/// first run's metrics.
fn deterministic(workload: &str, runtime_exact: bool) -> BTreeMap<String, f64> {
    let (c1, a) = run(workload, 7, "1", true);
    let (c2, b) = run(workload, 7, "1", true);
    assert!(c1 && c2, "{workload}: traced run not correct");
    let runtime: &[&str] = if runtime_exact { &EXACT_RUNTIME } else { &[] };
    for &name in EXACT.iter().chain(runtime) {
        assert_eq!(
            a[name], b[name],
            "{workload}: `{name}` differs between two runs of one seed"
        );
    }
    a
}

#[test]
fn compile_counts_repeat_and_bypass_execution() {
    let m = deterministic("compile", true);
    assert_eq!(m["runtime.loops"], 0.0, "compile executed a loop");
    assert_eq!(m["vm.ops"], 0.0, "compile ran the VM");
    assert_eq!(m["pred.evals"], 0.0, "compile evaluated a predicate");
    assert!(m["analysis.loops_timed"] > 0.0, "compile analysed nothing");
    assert!(m["core.cascade_stages"] > 0.0);
}

#[test]
fn execute_counts_repeat_and_bypass_memo_and_analysis() {
    let m = deterministic("execute", true);
    assert!(
        m["runtime.loops"] > 0.0 && m["vm.ops"] > 0.0,
        "execute ran nothing"
    );
    assert!(m["pred.evals"] > 0.0, "execute evaluated no predicate");
    assert!(
        m["pred.memo_hits"] / m["pred.evals"] < 0.01,
        "the verdict memo answered {} of {} evaluations",
        m["pred.memo_hits"],
        m["pred.evals"]
    );
    assert_eq!(
        m["analysis.loops_timed"], 0.0,
        "execute analysed outside set-up"
    );
}

#[test]
fn serve_mix_counts_repeat_and_hit_share_is_the_warm_share() {
    let m = deterministic("serve_mix", false);
    // Three warm requests per cold one.
    assert_eq!(m["serve.cache_hit_rate"], 0.75);
    assert!(m["serve.program_miss"] > 0.0 && m["pred.memo_hits"] > 0.0);
    assert_eq!(m["serve.rejected"], 0.0);
}

#[test]
fn a_fresh_seed_verifies_at_the_healthy_ok_ratio() {
    // serve_mix loses exactly the two recorded lip_serve defect loops
    // (int_histogram, solvh) out of 16 in every round.
    for (workload, healthy) in [
        ("compile", 1.0),
        ("execute", 1.0),
        ("serve_mix", 14.0 / 16.0),
    ] {
        let (correct, m) = run(workload, 90_210, "1", false);
        assert!(correct, "{workload}: an unrecorded failure");
        assert_eq!(m["ok_ratio"], healthy, "{workload}");
        for name in [
            "setup_s",
            "jobs_per_s",
            "job_p50_ms",
            "job_tail_ms",
            "peak_rss_mb",
        ] {
            assert!(m[name] > 0.0, "{workload}: {name} = {}", m[name]);
        }
    }
}
