//! Complexity pin for the exact (hoisted) USR independence test.
//!
//! The independence USRs of `hoist_indirect` carry partial recurrences
//! `∪_{k<i} X_k` under total ones `∪_i`. Evaluated from scratch per
//! iteration they cost O(n²) context lookups; with running prefixes the
//! cost is linear in the touched locations. The pin counts lookups, not
//! wall time, so it is deterministic: doubling `n` may at most ~double
//! the count.

use std::cell::Cell;

use lip_ir::StoreCtx;
use lip_runtime::Session;
use lip_suite::kernels::HOIST_INDIRECT;
use lip_symbolic::{sym, EvalCtx, Sym};
use lip_usr::Usr;

/// Counts every scalar and element lookup that reaches the store.
struct Counting<'a> {
    inner: StoreCtx<'a>,
    lookups: Cell<u64>,
}

impl EvalCtx for Counting<'_> {
    fn scalar(&self, s: Sym) -> Option<i64> {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.scalar(s)
    }

    fn elem(&self, arr: Sym, idx: i64) -> Option<i64> {
        self.lookups.set(self.lookups.get() + 1);
        self.inner.elem(arr, idx)
    }
}

/// The `hoist_indirect` independence USRs: the whole loop's (what the
/// executor tests with fission off) and the indirect fragment's (what
/// rescues it with fission on).
/// Each comes with its verdict on the prepared inputs: the prefix sum
/// over `S` makes the whole loop dependent, and the indirect fragment is
/// independent because `P` and `Q` are disjoint.
fn ind_usrs() -> Vec<(&'static str, Usr, bool)> {
    let p = HOIST_INDIRECT.prepared(4);
    let prog = p.machine.program().clone();
    let analysis = Session::default()
        .analyze(&prog, sym(p.sub), p.label)
        .expect("hoist_indirect analyzes");
    let plan = analysis.fission.as_ref().expect("hoist_indirect fissions");
    let fragment = plan
        .fragments
        .iter()
        .find_map(|f| f.analysis.ind_usr.clone())
        .expect("the indirect fragment hoists its independence USR");
    vec![
        (
            "whole loop",
            analysis.ind_usr.expect("whole-loop USR"),
            false,
        ),
        ("fragment", fragment, true),
    ]
}

/// Lookups of one exact evaluation at size `n`, plus its verdict.
fn lookups(u: &Usr, n: usize) -> (u64, Option<bool>) {
    let p = HOIST_INDIRECT.prepared(n);
    let ctx = Counting {
        inner: StoreCtx(&p.frame),
        lookups: Cell::new(0),
    };
    let verdict = lip_usr::eval::eval_empty(u, &ctx, lip_runtime::EXACT_TEST_LIMIT);
    (ctx.lookups.get(), verdict)
}

#[test]
fn exact_test_lookups_grow_linearly() {
    for (what, u, independent) in ind_usrs() {
        let (small, v1) = lookups(&u, 128);
        let (large, v2) = lookups(&u, 256);
        assert_eq!((v1, v2), (Some(independent), Some(independent)), "{what}");
        assert!(
            large * 10 <= small * 22,
            "{what}: {small} lookups at n = 128 but {large} at n = 256"
        );
    }
}
