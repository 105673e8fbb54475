//! Differential test of the incremental USR evaluator against the
//! from-scratch reference semantics.
//!
//! `eval_usr` keeps a running prefix per partial recurrence and probes
//! it under intersections. The oracle below is the
//! plain recursive evaluator: it rebuilds every recurrence in every
//! enclosing iteration. The two must return identical
//! `Option<BTreeSet<i64>>` on random USRs with partial recurrences
//! nested in total ones: bodies that do and do not mention the
//! enclosing variable, gates on loop variables, one partial recurrence
//! shared by two parents, upper bounds below the lower bound, limit
//! trips and unbound symbols.

use std::collections::BTreeSet;

use lip_usr::{eval_usr, output_independence, Lmad, LmadSet, Usr, UsrNode};

use lip_symbolic::{sym, BoolExpr, EvalCtx, MapCtx, ScopedCtx, Sym, SymExpr};
use proptest::prelude::*;

/// The reference semantics: every node evaluated from scratch.
fn oracle(u: &Usr, ctx: &dyn EvalCtx, limit: usize) -> Option<BTreeSet<i64>> {
    match u.node() {
        UsrNode::Empty => Some(BTreeSet::new()),
        UsrNode::Leaf(set) => set.enumerate(ctx, limit),
        UsrNode::Union(a, b) => {
            let mut x = oracle(a, ctx, limit)?;
            x.extend(oracle(b, ctx, limit)?);
            (x.len() <= limit).then_some(x)
        }
        UsrNode::Intersect(a, b) => {
            let x = oracle(a, ctx, limit)?;
            let y = oracle(b, ctx, limit)?;
            Some(x.intersection(&y).copied().collect())
        }
        UsrNode::Subtract(a, b) => {
            let x = oracle(a, ctx, limit)?;
            let y = oracle(b, ctx, limit)?;
            Some(x.difference(&y).copied().collect())
        }
        UsrNode::Gate(p, body) => {
            if p.eval(ctx)? {
                oracle(body, ctx, limit)
            } else {
                Some(BTreeSet::new())
            }
        }
        UsrNode::Call(_, body) => oracle(body, ctx, limit),
        UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
            let (lo, hi) = (lo.eval(ctx)?, hi.eval(ctx)?);
            let mut out = BTreeSet::new();
            for iv in lo..=hi {
                out.extend(oracle(body, &ScopedCtx::new(ctx, *var, iv), limit)?);
                if out.len() > limit {
                    return None;
                }
            }
            Some(out)
        }
    }
}

/// SplitMix64: a whole random USR from one seed.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn konst(&mut self, lo: i64, hi: i64) -> SymExpr {
        SymExpr::konst(lo + self.below((hi - lo + 1) as u64) as i64)
    }

    fn var_of(&mut self, scope: &[Sym]) -> SymExpr {
        SymExpr::var(scope[self.below(scope.len() as u64) as usize])
    }

    /// An index expression over the recurrence variables in `scope`,
    /// the bound scalar `N`, the array `B` and, rarely, the unbound `U`.
    fn expr(&mut self, scope: &[Sym]) -> SymExpr {
        match self.below(40) {
            0 => SymExpr::var(sym("U")),
            1..=8 => self.konst(-2, 8),
            9..=14 => &SymExpr::var(sym("N")) - &self.konst(0, 3),
            _ if scope.is_empty() => self.konst(0, 6),
            15..=26 => {
                let v = self.var_of(scope);
                &v + &self.konst(-2, 2)
            }
            27..=32 => {
                let (a, b) = (self.var_of(scope), self.var_of(scope));
                &a + &b
            }
            _ => {
                let v = self.var_of(scope);
                SymExpr::elem(sym("B"), &v + &self.konst(-1, 1))
            }
        }
    }

    fn cond(&mut self, scope: &[Sym]) -> BoolExpr {
        let (a, b) = (self.expr(scope), self.expr(scope));
        match self.below(3) {
            0 => BoolExpr::le(a, b),
            1 => BoolExpr::ne(a, b),
            _ => BoolExpr::gt0(&a - &b),
        }
    }

    fn leaf(&mut self, scope: &[Sym]) -> Usr {
        let lo = self.expr(scope);
        if self.below(3) == 0 {
            let hi = &lo + &self.konst(0, 4);
            Usr::leaf(LmadSet::single(Lmad::interval(lo, hi)))
        } else {
            Usr::leaf(LmadSet::single(Lmad::point(lo)))
        }
    }

    /// A per-iteration body that mentions `var`, so the recurrence is
    /// not collapsed by the smart constructors.
    fn body(&mut self, var: Sym, scope: &[Sym], depth: u32) -> Usr {
        let mut inner = scope.to_vec();
        inner.push(var);
        let s = self.set(&inner, depth);
        match self.below(3) {
            0 => Usr::gate(BoolExpr::gt0(&SymExpr::var(var) - &self.konst(-1, 4)), s),
            1 => Usr::intersect(s, self.leaf(&inner)),
            _ => s,
        }
    }

    /// `∪_{k=lo}^{hi} body(k)` with `hi` trailing an enclosing variable
    /// (or `N` at top level). The body mentions the enclosing variables
    /// or not, and `lo` occasionally does too.
    fn partial(&mut self, scope: &[Sym], depth: u32) -> Usr {
        let k = Sym::fresh("k");
        let hi = if scope.is_empty() {
            &SymExpr::var(sym("N")) - &self.konst(0, 2)
        } else {
            let v = self.var_of(scope);
            &v - &self.konst(-1, 3)
        };
        let lo = if !scope.is_empty() && self.below(8) == 0 {
            self.var_of(scope)
        } else {
            self.konst(-1, 3)
        };
        let visible: &[Sym] = if self.below(2) == 0 { scope } else { &[] };
        let body = self.body(k, visible, depth);
        Usr::rec_partial(k, lo, hi, body)
    }

    fn set(&mut self, scope: &[Sym], depth: u32) -> Usr {
        if depth == 0 {
            return self.leaf(scope);
        }
        let d = depth - 1;
        match self.below(12) {
            0 => self.leaf(scope),
            1 => Usr::union(self.set(scope, d), self.set(scope, d)),
            2 => Usr::intersect(self.set(scope, d), self.set(scope, d)),
            3 => Usr::subtract(self.set(scope, d), self.set(scope, d)),
            4 => Usr::gate(self.cond(scope), self.set(scope, d)),
            5 | 6 => {
                // Occasionally rebind an enclosing variable (shadowing).
                let var = if !scope.is_empty() && self.below(6) == 0 {
                    scope[0]
                } else {
                    Sym::fresh("j")
                };
                let lo = self.konst(-1, 2);
                let hi = if self.below(2) == 0 {
                    self.konst(-1, 6)
                } else {
                    &SymExpr::var(sym("N")) - &self.konst(0, 2)
                };
                Usr::rec_total(var, lo, hi, self.body(var, scope, d))
            }
            7 => Usr::intersect(self.set(scope, d), self.partial(scope, d)),
            8 => Usr::intersect(self.partial(scope, d), self.set(scope, d)),
            9 => Usr::subtract(self.set(scope, d), self.partial(scope, d)),
            10 => {
                // One partial recurrence under two parents.
                let p = self.partial(scope, d);
                Usr::union(
                    Usr::intersect(self.set(scope, d), p.clone()),
                    Usr::subtract(self.set(scope, d), p),
                )
            }
            _ => Usr::intersect(self.partial(scope, d), self.partial(scope, d)),
        }
    }
}

fn ctx_of(g: &mut Gen) -> MapCtx {
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 2 + g.below(6) as i64);
    let len = 6 + g.below(8) as usize;
    let vals = (0..len).map(|_| g.below(10) as i64).collect();
    ctx.set_array(sym("B"), 1, vals);
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The incremental evaluator agrees with the oracle on every
    /// random USR, including which of them are `None`.
    #[test]
    fn incremental_matches_oracle(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let i = sym("i");
        let outer = Usr::rec_total(i, g.konst(-1, 2), SymExpr::var(sym("N")), g.body(i, &[], 3));
        let u = if g.below(4) == 0 { g.set(&[], 3) } else { outer };
        let ctx = ctx_of(&mut g);
        let limit = [3, 8, 20, 10_000][g.below(4) as usize];
        prop_assert_eq!(eval_usr(&u, &ctx, limit), oracle(&u, &ctx, limit), "{}", u);
    }
}

/// The generator reaches every verdict the exact test can return, and
/// both evaluation paths of a partial recurrence.
#[test]
fn generator_covers_every_verdict() {
    let (mut empty, mut nonempty, mut none) = (0, 0, 0);
    for seed in 0..2000u64 {
        let mut g = Gen(seed);
        let i = sym("i");
        let u = Usr::rec_total(i, g.konst(-1, 2), SymExpr::var(sym("N")), g.body(i, &[], 3));
        let ctx = ctx_of(&mut g);
        match oracle(&u, &ctx, 20) {
            Some(s) if s.is_empty() => empty += 1,
            Some(_) => nonempty += 1,
            None => none += 1,
        }
    }
    assert!(
        empty > 100 && nonempty > 100 && none > 100,
        "{empty}/{nonempty}/{none}"
    );
}

/// A prefix body that mentions the enclosing variable must not be
/// carried across iterations: `∪_i ({B(i)} ∩ ∪_{k<i} {B(k) + i})`.
#[test]
fn prefix_mentioning_outer_variable_is_rebuilt() {
    let (i, k) = (sym("i"), sym("k"));
    let x = |s: Sym| SymExpr::elem(sym("B"), SymExpr::var(s));
    let prefix = Usr::rec_partial(
        k,
        SymExpr::konst(1),
        &SymExpr::var(i) - &SymExpr::konst(1),
        Usr::leaf(LmadSet::single(Lmad::point(&x(k) + &SymExpr::var(i)))),
    );
    let u = Usr::rec_total(
        i,
        SymExpr::konst(1),
        SymExpr::var(sym("N")),
        Usr::intersect(Usr::leaf(LmadSet::single(Lmad::point(x(i)))), prefix),
    );
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("N"), 4);
    // i = 4: B(4) = 9 = B(1) + 4.
    ctx.set_array(sym("B"), 1, vec![5, 0, 7, 9]);
    let got = eval_usr(&u, &ctx, 100);
    assert_eq!(got, oracle(&u, &ctx, 100));
    assert_eq!(got, Some([9].into_iter().collect()));
}

/// Output independence on an index array: the evaluator agrees with the
/// oracle on injective and colliding inputs and when the limit trips
/// inside the running prefix.
#[test]
fn oind_prefix_agrees_with_oracle() {
    let wf = Usr::leaf(LmadSet::single(Lmad::point(SymExpr::elem(
        sym("B"),
        SymExpr::var(sym("i")),
    ))));
    let n = 50i64;
    let o = output_independence(sym("i"), &SymExpr::konst(1), &SymExpr::konst(n), &wf);
    for (vals, limit) in [
        ((1..=n).collect::<Vec<_>>(), 1000),
        ((1..=n).map(|v| v % 17).collect(), 1000),
        ((1..=n).collect(), 10),
    ] {
        let mut ctx = MapCtx::new();
        ctx.set_array(sym("B"), 1, vals);
        assert_eq!(eval_usr(&o, &ctx, limit), oracle(&o, &ctx, limit));
    }
}
