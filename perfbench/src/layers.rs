//! The per-layer metrics every traced run reports, and helpers that
//! read them from the program's own counters, histograms and spans.
//!
//! A workload reports every metric; one whose layer the workload does
//! not load reads 0 (compile executes nothing, so its `vm.ops` is 0 —
//! which the workload-exercise check relies on).

use std::collections::BTreeMap;

use lip_analysis::LoopAnalysis;
use lip_obs::{MetricsSnapshot, ProfileReport};

use crate::loops::LoopDef;

/// Per-layer metric values by name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            names().iter().any(|(n, _)| *n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Every declared metric in declaration order, unset ones as 0.
    pub fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        names()
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }
}

/// Every per-layer metric with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let loops: Vec<&str> = crate::loops::suite().iter().map(LoopDef::name).collect();
    let mut out: Vec<(String, &'static str)> = vec![("ir.parse_ms".into(), "ms")];
    out.extend(
        loops
            .iter()
            .map(|l| (format!("analysis.analyze_ms.{l}"), "ms")),
    );
    for (n, u) in [
        ("analysis.classify_ms", "ms"),
        ("analysis.other_ms", "ms"),
        ("analysis.loops_timed", "count"),
        ("core.cascade_stages", "count"),
        ("core.pred_leaves", "count"),
        ("usr.ind_usr_nodes", "count"),
        ("analysis.fission_fragments", "count"),
        ("pred.stage_ms", "ms"),
        ("pred.evals", "count"),
        ("pred.memo_hits", "count"),
        ("pred.chunk_cancellations", "count"),
        ("usr.exact_test_ms", "ms"),
    ] {
        out.push((n.into(), u));
    }
    out.extend(loops.iter().map(|l| (format!("runtime.run_ms.{l}"), "ms")));
    for (n, u) in [
        ("runtime.loops", "count"),
        ("runtime.test_units", "count"),
        ("runtime.loop_units", "count"),
        ("runtime.self_ms", "ms"),
        ("exec.merge_ms", "ms"),
        ("pool.forks", "count"),
        ("pool.chunks", "count"),
        ("pool.chunk_ms", "ms"),
        ("vm.ops", "count"),
        ("vm.fused_ops", "count"),
        ("vm.red_ops", "count"),
        ("serve.server_ms", "ms"),
        ("serve.wire_ms", "ms"),
        ("serve.warm_ms", "ms"),
        ("serve.cold_ms", "ms"),
        ("serve.direct_ms", "ms"),
        ("serve.cache_hit_rate", "ratio"),
        ("serve.program_miss", "count"),
        ("serve.batched", "count"),
        ("serve.rejected", "count"),
    ] {
        out.push((n.into(), u));
    }
    out.extend(
        loops
            .iter()
            .map(|l| (format!("sim.model_error.{l}"), "ratio")),
    );
    out.push(("trace.overhead".into(), "ratio"));
    out.push(("trace.unattributed_share".into(), "ratio"));
    out
}

/// The exact IR sizes of a set of analyses (one per suite loop):
/// cascade stages, predicate leaves, independence-USR nodes and
/// fission fragments.
pub fn set_ir_sizes(layers: &mut Layers, analyses: &[&LoopAnalysis]) {
    let stages: usize = analyses.iter().map(|a| a.cascade.stages.len()).sum();
    let leaves: usize = analyses
        .iter()
        .flat_map(|a| a.cascade.stages.iter())
        .map(|s| s.pred.leaf_count())
        .sum();
    let usr_nodes: usize = analyses
        .iter()
        .filter_map(|a| a.ind_usr.as_ref())
        .map(lip_usr::Usr::size)
        .sum();
    let fragments: usize = analyses
        .iter()
        .filter_map(|a| a.fission.as_ref())
        .map(|f| f.fragments.len())
        .sum();
    layers.set("core.cascade_stages", stages as f64);
    layers.set("core.pred_leaves", leaves as f64);
    layers.set("usr.ind_usr_nodes", usr_nodes as f64);
    layers.set("analysis.fission_fragments", fragments as f64);
}

/// `analysis.classify_ms` and `analysis.other_ms` per pass over the
/// suite: the classifier's own time (the `analysis.classify_ns`
/// histogram), and the rest of `Session::analyze` (entry-environment
/// summary and fission planning), from `passes` passes' totals.
pub fn set_analysis_split(layers: &mut Layers, analyze_ms: f64, classify_ns: u64, passes: usize) {
    let classify_ms = classify_ns as f64 / 1e6;
    layers.set("analysis.classify_ms", classify_ms / passes as f64);
    layers.set(
        "analysis.other_ms",
        (analyze_ms - classify_ms) / passes as f64,
    );
}

/// Counter value, 0 when never touched.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// `(count, sum_ns)` of a histogram, zeros when absent.
pub fn histogram(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0), |h| (h.count, h.sum_ns))
}

/// Sums counters and histograms of several snapshots.
pub fn merge(snaps: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in snaps {
        for (k, v) in &s.counters {
            *counters.entry(k.clone()).or_default() += v;
        }
        for h in &s.histograms {
            let e = hists.entry(h.name.clone()).or_default();
            e.0 += h.count;
            e.1 += h.sum_ns;
        }
    }
    MetricsSnapshot {
        counters: counters.into_iter().collect(),
        histograms: hists
            .into_iter()
            .map(|(name, (count, sum_ns))| lip_obs::HistogramSnapshot {
                name,
                count,
                sum_ns,
                buckets: Vec::new(),
            })
            .collect(),
    }
}

/// Sets the program's runtime-layer counters: predicate, pool, VM and
/// loop work units.
pub fn set_runtime_counters(layers: &mut Layers, snap: &MetricsSnapshot) {
    for (metric, counter_name) in [
        ("pred.evals", "pred.evals"),
        ("pred.memo_hits", "pred.memo_hits"),
        ("pred.chunk_cancellations", "pred.chunk_cancellations"),
        ("runtime.loops", "run.loops"),
        ("runtime.test_units", "run.test_units"),
        ("runtime.loop_units", "run.loop_units"),
        ("pool.forks", "pool.forks"),
        ("pool.chunks", "pool.chunks"),
        ("vm.ops", "vm.ops"),
        ("vm.fused_ops", "vm.fused_ops"),
        ("vm.red_ops", "vm.red_ops"),
    ] {
        layers.set(metric, counter(snap, counter_name) as f64);
    }
    let (merges, merge_ns) = histogram(snap, "exec.merge_ns");
    layers.set("exec.merge_ms", mean_ms(merge_ns, merges));
}

/// Mean of `sum_ns` over `count`, in milliseconds (0 for no samples).
pub fn mean_ms(sum_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64 / 1e6
    }
}

/// `(count, total_ns, self_ns)` of one span name in a profile.
pub fn span_totals(profile: &ProfileReport, name: &str) -> (u64, u64, u64) {
    profile
        .flat
        .iter()
        .find(|e| e.name == name)
        .map_or((0, 0, 0), |e| (e.count, e.total_ns, e.self_ns))
}

/// `after − before` for every counter and histogram (count and sum).
pub fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - counter(before, k)))
            .collect(),
        histograms: after
            .histograms
            .iter()
            .map(|h| {
                let (count, sum_ns) = histogram(before, &h.name);
                lip_obs::HistogramSnapshot {
                    name: h.name.clone(),
                    count: h.count - count,
                    sum_ns: h.sum_ns - sum_ns,
                    buckets: Vec::new(),
                }
            })
            .collect(),
    }
}
