//! The `compile` oracle: each suite loop's known verdict, written down
//! from the kernel doc comments (`crates/suite/src/kernels.rs`) and the
//! paper rows the suite models (`crates/suite/src/bench_def.rs`), not
//! from a run of the analysis.

use lip_analysis::{FallbackKind, LoopAnalysis, LoopClass};

/// A loop's expected verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Provably parallel at compile time.
    StaticParallel,
    /// Provably dependent.
    StaticSequential,
    /// Parallel under a runtime cascade of this many stages.
    Predicated(usize),
    /// Needs an exact fallback test of this kind.
    Fallback(FallbackKind),
    /// Distributed into this many fragments.
    Fissioned(usize),
}

/// The known answer for `loop_name`, with the source row it comes from.
///
/// Stage counts: a predicated loop over one `DO` level gets one stage
/// per complexity level its factorized predicate spans — an O(1) stage
/// when a loop-invariant sufficient condition exists, then the O(N)
/// stage (the paper's `O(1)/O(N)` notation, as in the SOLVH row).
pub fn expected(loop_name: &str) -> (Verdict, &'static str) {
    use Verdict::*;
    match loop_name {
        "stencil" => (StaticParallel, "affine stencil, STATIC-PAR"),
        "solvh" => (Predicated(2), "SOLVH_do20, F/OI O(1)/O(N)"),
        "offset_crossover" => (
            Predicated(2),
            "FTRVMT_do109, FI O(1): the O(1) offset test, then its O(N) form",
        ),
        "monotone_windows" => (
            Predicated(2),
            "INTGRL_do140, OI O(N) by monotonicity, behind the O(1) trip-count test",
        ),
        "index_reduction" => (StaticParallel, "INL1130, RRED + BOUNDS-COMP"),
        "gated_branches" => (
            StaticParallel,
            "TRANX2_do2100, UMEG: the loop-invariant gate makes the branches exclusive",
        ),
        "civ_conditional" => (
            Predicated(2),
            "ACTFOR_do240, CIVagg: O(1) trip-count test, then O(N) trace monotonicity",
        ),
        "civ_while" => (StaticParallel, "EXTEND_do400, CIV-COMP"),
        "private_scratch" => (StaticParallel, "PSMOO_do40, PRIV + SLV"),
        "seq_recurrence" => (StaticSequential, "BLTS_do1, STATIC-SEQ"),
        "hoist_indirect" => (
            Predicated(1),
            "RUN_do20, FI HOIST-USR: the single O(N) flow/output stage (doc post-mortem)",
        ),
        "tls_feedback" => (
            Predicated(2),
            "NLFILT_do300, TLS: only trip-count stages, which fail, so the loop speculates",
        ),
        "ext_reduction" => (Predicated(1), "MXMULT_do10, EXT-RRED: one O(N) stage"),
        "static_reduction" => (StaticParallel, "POTENG_do2000, SRED"),
        "int_histogram" => (StaticParallel, "integer histogram, RRED"),
        "tiny_loop" => (StaticParallel, "DFLUX_do40, STATIC-PAR"),
        other => panic!("no known answer for suite loop `{other}`"),
    }
}

/// The verdict an analysis reached.
pub fn verdict_of(a: &LoopAnalysis) -> Verdict {
    match &a.class {
        LoopClass::StaticParallel => Verdict::StaticParallel,
        LoopClass::StaticSequential => Verdict::StaticSequential,
        LoopClass::Predicated { .. } => Verdict::Predicated(a.cascade.stages.len()),
        LoopClass::NeedsFallback(kind) => Verdict::Fallback(*kind),
        LoopClass::Fissioned { fragments } => Verdict::Fissioned(*fragments),
    }
}

/// Whether `a` matches the known answer for `loop_name`; a mismatch is
/// reported with the row the answer comes from.
pub fn check(loop_name: &str, a: &LoopAnalysis) -> bool {
    let (want, row) = expected(loop_name);
    let got = verdict_of(a);
    if got != want {
        eprintln!("compile: {loop_name}: verdict {got:?}, known answer {want:?} ({row})");
    }
    got == want
}
