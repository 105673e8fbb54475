//! The kernel shapes underlying the 26-benchmark evaluation substrate.
//!
//! The paper's benchmarks are proprietary Fortran codes; per DESIGN.md
//! each benchmark is represented here by mini-Fortran kernels that
//! reproduce the *loop shapes* its table row reports — the same access
//! patterns, the same disambiguation technique, the same test
//! complexity. Kernels are parametrized by a problem size `n`.

use lip_ir::{ArrayBuf, Machine, Store, Value};
use lip_symbolic::sym;

/// A prepared kernel: the machine, the frame for the kernel subroutine,
/// plus the subroutine/loop names.
pub struct Prepared {
    /// Interpreter over the kernel program.
    pub machine: Machine,
    /// Frame with all parameters bound.
    pub frame: Store,
    /// Subroutine containing the loop.
    pub sub: &'static str,
    /// Loop label.
    pub label: &'static str,
}

/// A kernel shape: source + a preparation function.
#[derive(Copy, Clone)]
pub struct KernelShape {
    /// Shape name (for DESIGN/EXPERIMENTS cross-reference).
    pub name: &'static str,
    /// Mini-Fortran source.
    pub source: &'static str,
    /// Subroutine containing the target loop.
    pub sub: &'static str,
    /// Target loop label.
    pub label: &'static str,
    /// Binds parameters/arrays for problem size `n`.
    pub prepare: fn(usize) -> (Store, Machine),
}

impl KernelShape {
    /// Prepares the kernel at problem size `n`.
    pub fn prepared(&self, n: usize) -> Prepared {
        let (frame, machine) = (self.prepare)(n);
        Prepared {
            machine,
            frame,
            sub: self.sub,
            label: self.label,
        }
    }
}

fn machine_of(src: &str) -> Machine {
    Machine::new(lip_ir::parse_program(src).expect("kernel source parses"))
}

fn fill_real(buf: &ArrayBuf, f: impl Fn(usize) -> f64) {
    for i in 0..buf.len() {
        buf.set(i, Value::Real(f(i)));
    }
}

fn fill_int(buf: &ArrayBuf, f: impl Fn(usize) -> i64) {
    for i in 0..buf.len() {
        buf.set(i, Value::Int(f(i)));
    }
}

/// 1. Affine stencil sweep — STATIC-PAR everywhere (swim, mgrid,
///    swm256, tomcatv, hydro2d, mdljdp2, bwaves, ora, mdg interf …).
pub const STENCIL: KernelShape = KernelShape {
    name: "stencil",
    source: "
SUBROUTINE calc(UNEW, U, V, N)
  DIMENSION UNEW(*), U(*), V(*)
  INTEGER i, N
  DO sweep i = 1, N
    UNEW(i) = 0.25 * (U(i) + V(i)) + 0.5 * U(i)
  ENDDO
END
",
    sub: "calc",
    label: "sweep",
    prepare: |n| {
        let machine = machine_of(STENCIL.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("UNEW"), n);
        let u = frame.alloc_real(sym("U"), n);
        let v = frame.alloc_real(sym("V"), n);
        fill_real(&u, |i| i as f64);
        fill_real(&v, |i| (i % 7) as f64);
        (frame, machine)
    },
};

/// 2. The paper's Figure 1: interprocedural gated coverage with array
///    reshaping — dyfesm SOLVH_do20, F/OI O(1)/O(N).
pub const SOLVH: KernelShape = KernelShape {
    name: "solvh",
    source: "
SUBROUTINE solvh(HE, XE, IA, IB, N, NS, NP, SYM)
  DIMENSION HE(32, *), XE(*)
  INTEGER IA(*), IB(*)
  INTEGER i, k, id, N, NS, NP, SYM
  DO do20 i = 1, N
    DO k = 1, IA(i)
      id = IB(i) + k - 1
      CALL geteu(XE, SYM, NP)
      CALL matmult(HE(1, id), XE, NS)
      CALL solvhe(HE(1, id), NP)
    ENDDO
  ENDDO
END

SUBROUTINE geteu(XE, SYM, NP)
  DIMENSION XE(16, *)
  INTEGER i, j, SYM, NP
  IF (SYM .NE. 1) THEN
    DO i = 1, NP
      DO j = 1, 16
        XE(j, i) = 1.5
      ENDDO
    ENDDO
  ENDIF
END

SUBROUTINE matmult(HE, XE, NS)
  DIMENSION HE(*), XE(*)
  INTEGER j, NS
  DO j = 1, NS
    HE(j) = XE(j)
    XE(j) = XE(j) * 0.5
  ENDDO
END

SUBROUTINE solvhe(HE, NP)
  DIMENSION HE(8, *)
  INTEGER i, j, NP
  DO j = 1, 3
    DO i = 1, NP
      HE(j, i) = HE(j, i) + 1.0
    ENDDO
  ENDDO
END
",
    sub: "solvh",
    label: "do20",
    prepare: |n| {
        let machine = machine_of(SOLVH.source);
        let mut frame = Store::new();
        let (ns, np) = (16i64, 2i64);
        frame
            .set_int(sym("N"), n as i64)
            .set_int(sym("NS"), ns)
            .set_int(sym("NP"), np)
            .set_int(sym("SYM"), 0);
        let ia = frame.alloc_int(sym("IA"), n);
        let ib = frame.alloc_int(sym("IB"), n);
        fill_int(&ia, |_| 2);
        // Non-overlapping sections.
        fill_int(&ib, |i| 2 * i as i64 + 1);
        // HE is declared (32, *) in solvh: bind matching extents.
        let he = ArrayBuf::new_real(32 * (2 * n + 2));
        frame.bind_array(
            sym("HE"),
            lip_ir::ArrayView {
                buf: he,
                offset: 0,
                extents: vec![32, i64::MAX],
            },
        );
        frame.alloc_real(sym("XE"), 64);
        (frame, machine)
    },
};

/// 3. Symbolic offset crossover — FI O(1) (ocean FTRVMT_do109, arc2d
///    FILERX, wupwise MULDEO/MULDOE, trfd OLDA_do300, spec77 SICDKD).
pub const OFFSET_CROSSOVER: KernelShape = KernelShape {
    name: "offset_crossover",
    source: "
SUBROUTINE ftrvmt(A, N, M)
  DIMENSION A(*)
  INTEGER i, N, M
  DO do109 i = 1, N
    A(i) = A(i + M) * 0.5 + 1.0
  ENDDO
END
",
    sub: "ftrvmt",
    label: "do109",
    prepare: |n| {
        let machine = machine_of(OFFSET_CROSSOVER.source);
        let mut frame = Store::new();
        frame
            .set_int(sym("N"), n as i64)
            .set_int(sym("M"), n as i64);
        let a = frame.alloc_real(sym("A"), 2 * n);
        fill_real(&a, |i| i as f64);
        (frame, machine)
    },
};

/// 4. Monotone index windows — OI O(N) via the §3.3 monotonicity rule
///    (trfd INTGRL_do140, dyfesm SOLXDD, bdna segments).
pub const MONOTONE_WINDOWS: KernelShape = KernelShape {
    name: "monotone_windows",
    source: "
SUBROUTINE intgrl(A, B, N, L)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, k, N, L
  DO do140 i = 1, N
    DO k = 1, L
      A(B(i) + k - 1) = i + k * 0.5
    ENDDO
  ENDDO
END
",
    sub: "intgrl",
    label: "do140",
    prepare: |n| {
        let machine = machine_of(MONOTONE_WINDOWS.source);
        let mut frame = Store::new();
        let l = 32i64;
        frame.set_int(sym("N"), n as i64).set_int(sym("L"), l);
        frame.alloc_real(sym("A"), n * l as usize + l as usize);
        let b = frame.alloc_int(sym("B"), n);
        fill_int(&b, |i| (i as i64) * l + 1); // strictly monotone bases
        (frame, machine)
    },
};

/// 5. Index-array reduction with unknown bounds — RRED + BOUNDS-COMP
///    (gromacs INL1130, calculix MAFILLSM_do7, nasa7 pieces).
pub const INDEX_REDUCTION: KernelShape = KernelShape {
    name: "index_reduction",
    source: "
SUBROUTINE inl1130(F, J, N)
  DIMENSION F(*)
  INTEGER J(*)
  INTEGER i, N
  DO do1130 i = 1, N
    F(J(i)) = F(J(i)) + 0.5
    F(J(i) + 1) = F(J(i) + 1) + 0.25
    F(J(i) + 2) = F(J(i) + 2) + 0.25
  ENDDO
END
",
    sub: "inl1130",
    label: "do1130",
    prepare: |n| {
        let machine = machine_of(INDEX_REDUCTION.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("F"), 3 * n + 4);
        let j = frame.alloc_int(sym("J"), n);
        fill_int(&j, |i| 3 * i as i64 + 1); // disjoint triplets
        (frame, machine)
    },
};

/// 6. Union of mutually exclusive gates — the zeusmp TRANX2_do2100
///    shape (UMEG + F/OI O(1)).
pub const GATED_BRANCHES: KernelShape = KernelShape {
    name: "gated_branches",
    source: "
SUBROUTINE tranx2(DEOD, N, jbeg, js, M)
  DIMENSION DEOD(*)
  INTEGER i, N, jbeg, js, M
  DO do2100 i = 1, N
    IF (jbeg .EQ. js) THEN
      DEOD(i) = 1.0
    ELSE
      DEOD(i + M) = 2.0
    ENDIF
  ENDDO
END
",
    sub: "tranx2",
    label: "do2100",
    prepare: |n| {
        let machine = machine_of(GATED_BRANCHES.source);
        let mut frame = Store::new();
        frame
            .set_int(sym("N"), n as i64)
            .set_int(sym("jbeg"), 2)
            .set_int(sym("js"), 2)
            .set_int(sym("M"), n as i64);
        frame.alloc_real(sym("DEOD"), 2 * n);
        (frame, machine)
    },
};

/// 7. Conditionally incremented induction variable — CIVagg (bdna
///    ACTFOR_do240 / CORREC_do401).
pub const CIV_CONDITIONAL: KernelShape = KernelShape {
    name: "civ_conditional",
    source: "
SUBROUTINE actfor(X, C, N, Q)
  DIMENSION X(*)
  INTEGER C(*)
  INTEGER i, civ, N, Q
  civ = Q
  DO do240 i = 1, N
    IF (C(i) .GT. 0) THEN
      civ = civ + 1
      X(civ) = (i * 1.5 + COS(0.25 * i)) * (1.0 + SIN(0.125 * i)) + SQRT(i * 2.0) + EXP(0.001 * i)
    ENDIF
  ENDDO
END
",
    sub: "actfor",
    label: "do240",
    prepare: |n| {
        let machine = machine_of(CIV_CONDITIONAL.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64).set_int(sym("Q"), 0);
        frame.set_int(sym("civ"), 0);
        frame.alloc_real(sym("X"), n + 1);
        let c = frame.alloc_int(sym("C"), n);
        fill_int(&c, |i| (i % 3 == 0) as i64);
        (frame, machine)
    },
};

/// 8. A while loop driven by a CIV — CIV-COMP (track EXTEND_do400 /
///    FPTRAK_do300).
pub const CIV_WHILE: KernelShape = KernelShape {
    name: "civ_while",
    source: "
SUBROUTINE extend(X, N)
  DIMENSION X(*)
  INTEGER k, N
  k = 1
  DO do400 WHILE (k .LT. N)
    X(k) = X(k) + 2.0
    k = k + 2
  ENDDO
END
",
    sub: "extend",
    label: "do400",
    prepare: |n| {
        let machine = machine_of(CIV_WHILE.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64).set_int(sym("k"), 1);
        let x = frame.alloc_real(sym("X"), n + 2);
        fill_real(&x, |i| i as f64);
        (frame, machine)
    },
};

/// 9. Privatizable scratch array with static last value — PRIV+SLV
///    (flo52 PSMOO/DFLUX/EFLUX, arc2d STEPFX, apsi DVDTZ …).
pub const PRIVATE_SCRATCH: KernelShape = KernelShape {
    name: "private_scratch",
    source: "
SUBROUTINE psmoo(A, W, N, M)
  DIMENSION A(*), W(*)
  INTEGER i, j, N, M
  DO do40 i = 1, N
    DO j = 1, M
      W(j) = A(i) * 0.5 + j
    ENDDO
    DO j = 1, M
      A(i) = A(i) + W(j) * 0.125
    ENDDO
  ENDDO
END
",
    sub: "psmoo",
    label: "do40",
    prepare: |n| {
        let machine = machine_of(PRIVATE_SCRATCH.source);
        let mut frame = Store::new();
        let m = 8i64;
        frame.set_int(sym("N"), n as i64).set_int(sym("M"), m);
        let a = frame.alloc_real(sym("A"), n);
        fill_real(&a, |i| i as f64);
        frame.alloc_real(sym("W"), m as usize);
        (frame, machine)
    },
};

/// 10. A first-order recurrence — STATIC-SEQ (qcd UPDATE_do1/2, applu
///     BLTS/BUTS).
pub const SEQ_RECURRENCE: KernelShape = KernelShape {
    name: "seq_recurrence",
    source: "
SUBROUTINE blts(V, N)
  DIMENSION V(*)
  INTEGER i, N
  DO do1 i = 2, N
    V(i) = V(i - 1) * 0.5 + V(i)
  ENDDO
END
",
    sub: "blts",
    label: "do1",
    prepare: |n| {
        let machine = machine_of(SEQ_RECURRENCE.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        let v = frame.alloc_real(sym("V"), n + 1);
        fill_real(&v, |i| (i + 1) as f64);
        (frame, machine)
    },
};

/// 11. Input-dependent indirection where predicates fail but the whole
///     reference set is runtime-computable — HOIST-USR (apsi RUN_do20/30)
///     — paired with an affine prefix-sum partner, so the loop as a
///     whole is provably dependent and only *fission* can salvage it.
///
///     Cascade post-mortem for the indirect statement (the reason its
///     fail is legitimate, not an over-approximation bug): the O(N)
///     flow/output stage factorizes `W ∩ R` with `W = {A(P(i))}` and
///     `R = {A(Q(i))}` under `Subtract`, and the factorizer's subtract
///     rule keeps only the interval-hull alternative — the
///     monotonicity alternative (P and Q each injective and mutually
///     disjoint) is not expressible as a hull comparison, so the stage
///     degenerates to "hulls of P and Q don't overlap", which is false
///     for arbitrary prepared inputs whose hulls interleave. Runtime
///     rescue: the hoisted exact USR evaluation computes the actual
///     dependence set (empty on these inputs), in time near-linear in
///     N: the prefix unions `∪_{k<i}` of its independence equations
///     are kept as running sets, not rebuilt per iteration. The
///     fission pass splits the scan off into a sequential residue and
///     rescues the indirect fragment through that same exact test.
pub const HOIST_INDIRECT: KernelShape = KernelShape {
    name: "hoist_indirect",
    source: "
SUBROUTINE run20(A, P, Q, S, C, N)
  DIMENSION A(*), S(*), C(*)
  INTEGER P(*), Q(*)
  INTEGER i, N
  DO do20 i = 1, N
    A(P(i)) = A(Q(i)) + 1.0
    S(i + 1) = S(i) + C(i)
  ENDDO
END
",
    sub: "run20",
    label: "do20",
    prepare: |n| {
        let machine = machine_of(HOIST_INDIRECT.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), 2 * n + 1);
        let p = frame.alloc_int(sym("P"), n);
        let q = frame.alloc_int(sym("Q"), n);
        fill_int(&p, |i| i as i64 + 1);
        fill_int(&q, |i| (i + n) as i64 + 1); // disjoint from P
        frame.alloc_real(sym("S"), n + 1);
        let c = frame.alloc_real(sym("C"), n);
        fill_real(&c, |i| (i % 7) as f64);
        (frame, machine)
    },
};

/// 12. Data-dependent scalar feedback no predicate can disambiguate —
///     TLS (track NLFILT_do300, spec77 GWATER_do190).
pub const TLS_FEEDBACK: KernelShape = KernelShape {
    name: "tls_feedback",
    source: "
SUBROUTINE nlfilt(A, W, N)
  DIMENSION A(*), W(*)
  INTEGER i, N, pos
  DO do300 i = 1, N
    pos = INT(W(i))
    A(pos) = A(pos + 1) * 0.5 + 1.0
  ENDDO
END
",
    sub: "nlfilt",
    label: "do300",
    prepare: |n| {
        let machine = machine_of(TLS_FEEDBACK.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), n + 2);
        let w = frame.alloc_real(sym("W"), n);
        fill_real(&w, |i| (i + 1) as f64); // injective at runtime
        (frame, machine)
    },
};

/// 13. Extended reduction — EXT-RRED (dyfesm MXMULT_do10 / FORMR_do20).
pub const EXT_REDUCTION: KernelShape = KernelShape {
    name: "ext_reduction",
    source: "
SUBROUTINE mxmult(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO do10 i = 1, N
    A(i) = i * 2.0
    A(B(i)) = A(B(i)) + 1.0
  ENDDO
END
",
    sub: "mxmult",
    label: "do10",
    prepare: |n| {
        let machine = machine_of(EXT_REDUCTION.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), 2 * n);
        let b = frame.alloc_int(sym("B"), n);
        fill_int(&b, |i| (i + n) as i64 + 1); // beyond the WF region
        (frame, machine)
    },
};

/// 14. Statically recognized whole-array sum — SRED (mdg POTENG,
///     matrix300 pieces, gamess DIRFCK).
pub const STATIC_REDUCTION: KernelShape = KernelShape {
    name: "static_reduction",
    source: "
SUBROUTINE poteng(A, E, N)
  DIMENSION A(*), E(8)
  INTEGER i, j, N
  DO do2000 i = 1, N
    DO j = 1, 4
      E(j) = E(j) + A(i) * 0.5
    ENDDO
  ENDDO
END
",
    sub: "poteng",
    label: "do2000",
    prepare: |n| {
        let machine = machine_of(STATIC_REDUCTION.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("E"), 8);
        let a = frame.alloc_real(sym("A"), n);
        fill_real(&a, |i| i as f64);
        (frame, machine)
    },
};

/// 16. Integer histogram reduction through a colliding index array —
///     the buffered-merge path over `i64` values beyond 2^53, where
///     any `f64` round-trip in the merge phase loses bits (the
///     regression class the typed flat-slice kernels exist for).
pub const INT_HISTOGRAM: KernelShape = KernelShape {
    name: "int_histogram",
    source: "
SUBROUTINE histo(H, J, W, N)
  INTEGER H(64)
  INTEGER J(*), W(*)
  INTEGER i, N
  DO do300 i = 1, N
    H(J(i)) = H(J(i)) + W(i)
  ENDDO
END
",
    sub: "histo",
    label: "do300",
    prepare: |n| {
        let machine = machine_of(INT_HISTOGRAM.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        let h = frame.alloc_int(sym("H"), 64);
        fill_int(&h, |k| (1 << 62) + k as i64);
        let j = frame.alloc_int(sym("J"), n);
        fill_int(&j, |i| (i % 64) as i64 + 1); // heavy collisions
        let w = frame.alloc_int(sym("W"), n);
        fill_int(&w, |i| (1 << 53) + i as i64 + 1); // not f64-exact
        (frame, machine)
    },
};

/// 15. A tiny-granularity parallel loop (the flo52/ocean slowdown
///     effect: parallel but not worth spawning at small N).
pub const TINY_LOOP: KernelShape = KernelShape {
    name: "tiny_loop",
    source: "
SUBROUTINE dflux(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO do40 i = 1, N
    A(i) = A(i) + 1.0
  ENDDO
END
",
    sub: "dflux",
    label: "do40",
    prepare: |n| {
        let machine = machine_of(TINY_LOOP.source);
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), n.max(1));
        (frame, machine)
    },
};

/// All kernel shapes (for exhaustive tests).
pub fn all_shapes() -> Vec<&'static KernelShape> {
    vec![
        &STENCIL,
        &SOLVH,
        &OFFSET_CROSSOVER,
        &MONOTONE_WINDOWS,
        &INDEX_REDUCTION,
        &GATED_BRANCHES,
        &CIV_CONDITIONAL,
        &CIV_WHILE,
        &PRIVATE_SCRATCH,
        &SEQ_RECURRENCE,
        &HOIST_INDIRECT,
        &TLS_FEEDBACK,
        &EXT_REDUCTION,
        &STATIC_REDUCTION,
        &INT_HISTOGRAM,
        &TINY_LOOP,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernel_sources_parse_and_prepare() {
        for shape in all_shapes() {
            let p = shape.prepared(16);
            let prog = p.machine.program();
            let sub = prog
                .subroutine(sym(p.sub))
                .unwrap_or_else(|| panic!("{}: subroutine {}", shape.name, p.sub));
            assert!(
                sub.find_loop(p.label).is_some(),
                "{}: loop {} not found",
                shape.name,
                p.label
            );
        }
    }

    #[test]
    fn all_kernels_run_sequentially() {
        for shape in all_shapes() {
            let mut p = shape.prepared(16);
            let prog = p.machine.program().clone();
            let sub = prog.subroutine(sym(p.sub)).expect("sub").clone();
            let target = sub.find_loop(p.label).expect("loop").clone();
            let mut state = lip_ir::ExecState::default();
            p.machine
                .exec_stmt(&sub, &mut p.frame, &target, &mut state)
                .unwrap_or_else(|e| panic!("{} failed: {e}", shape.name));
            assert!(state.cost > 0, "{}", shape.name);
        }
    }
}
