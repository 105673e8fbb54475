//! Exact runtime evaluation of USRs (the paper's fallback independence
//! test, and the reference semantics for property tests).
//!
//! Evaluation computes the concrete index set denoted by a USR under an
//! [`EvalCtx`] binding — exactly why the paper prefers predicates and
//! reserves USR evaluation for hoistable cases (§2.2, §5).
//!
//! The independence equations place a partial recurrence
//! `∪_{k=lo}^{i-1} X_k` under a total one `∪_i (X_i ∩ …)`. Rebuilding
//! that prefix in every iteration `i` would make the test quadratic, so
//! the evaluator keeps one *running prefix* per partial recurrence whose
//! body does not depend on an enclosing recurrence variable:
//! moving `hi` forward evaluates the body only at the new `k`, and an
//! intersection with the prefix probes it instead of copying it. For those equations the cost is then proportional to the
//! number of touched locations (times a logarithm for the ordered
//! sets).

use std::collections::{BTreeSet, HashMap};

use lip_symbolic::{EvalCtx, ScopedCtx, Sym};

use crate::node::{Usr, UsrNode};

/// Evaluates `u` to its concrete index set. Returns `None` when a symbol
/// is unbound, a recurrence bound is unbound, or the result would exceed
/// `limit` elements (a defence against runaway evaluation, mirroring the
/// paper's "unacceptably large overhead" concern).
pub fn eval_usr(u: &Usr, ctx: &dyn EvalCtx, limit: usize) -> Option<BTreeSet<i64>> {
    Evaluator {
        limit,
        bound: Vec::new(),
        deps: HashMap::new(),
        prefixes: HashMap::new(),
    }
    .eval(u, ctx)
}

/// Convenience: evaluates emptiness (the independence test itself).
pub fn eval_empty(u: &Usr, ctx: &dyn EvalCtx, limit: usize) -> Option<bool> {
    eval_usr(u, ctx, limit).map(|s| s.is_empty())
}

/// The running union `∪_{k=lo}^{next-1} body(k)` of one partial
/// recurrence.
struct Prefix {
    lo: i64,
    next: i64,
    set: BTreeSet<i64>,
}

/// One evaluation's state. Any `None` aborts the whole evaluation (no
/// node recovers from it), so state left behind by an early return is
/// never read again.
struct Evaluator {
    limit: usize,
    /// Recurrence variables bound on the current evaluation path.
    bound: Vec<Sym>,
    /// Per partial recurrence (by [`Usr::id`]): the symbols its body
    /// mentions, minus its own variable.
    deps: HashMap<usize, Vec<Sym>>,
    /// Per partial recurrence (by [`Usr::id`]): its running prefix.
    prefixes: HashMap<usize, Prefix>,
}

impl Evaluator {
    fn eval(&mut self, u: &Usr, ctx: &dyn EvalCtx) -> Option<BTreeSet<i64>> {
        match u.node() {
            UsrNode::Empty => Some(BTreeSet::new()),
            UsrNode::Leaf(set) => set.enumerate(ctx, self.limit),
            UsrNode::Union(a, b) => {
                let mut x = self.eval(a, ctx)?;
                let y = self.eval(b, ctx)?;
                x.extend(y);
                if x.len() > self.limit {
                    return None;
                }
                Some(x)
            }
            UsrNode::Intersect(a, b) => {
                // Evaluate the owned side first: the probe must follow
                // the prefix's advance with no evaluation in between.
                let (other, prefix) = if self.runs_prefix(b) {
                    (a, b)
                } else if self.runs_prefix(a) {
                    (b, a)
                } else {
                    let x = self.eval(a, ctx)?;
                    let y = self.eval(b, ctx)?;
                    return Some(x.intersection(&y).copied().collect());
                };
                let mut x = self.eval(other, ctx)?;
                let set = self.advance(prefix, ctx)?;
                x.retain(|e| set.contains(e));
                Some(x)
            }
            UsrNode::Subtract(a, b) => {
                let x = self.eval(a, ctx)?;
                let y = self.eval(b, ctx)?;
                Some(x.difference(&y).copied().collect())
            }
            UsrNode::Gate(p, body) => {
                if p.eval(ctx)? {
                    self.eval(body, ctx)
                } else {
                    Some(BTreeSet::new())
                }
            }
            UsrNode::Call(_, body) => self.eval(body, ctx),
            UsrNode::RecPartial { .. } if self.runs_prefix(u) => self.advance(u, ctx).cloned(),
            UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
                let lo = lo.eval(ctx)?;
                let hi = hi.eval(ctx)?;
                let mut out = BTreeSet::new();
                for iv in lo..=hi {
                    out.extend(self.eval_at(*var, iv, body, ctx)?);
                    if out.len() > self.limit {
                        return None;
                    }
                }
                Some(out)
            }
        }
    }

    /// `body` with the recurrence variable `var` bound to `iv`.
    fn eval_at(
        &mut self,
        var: Sym,
        iv: i64,
        body: &Usr,
        ctx: &dyn EvalCtx,
    ) -> Option<BTreeSet<i64>> {
        self.bound.push(var);
        let s = self.eval(body, &ScopedCtx::new(ctx, var, iv));
        self.bound.pop();
        s
    }

    /// Whether `u` is a partial recurrence whose body mentions no
    /// recurrence variable bound on the current path, so one running
    /// prefix serves every enclosing iteration. (A `lo` that moves just
    /// restarts the prefix.)
    fn runs_prefix(&mut self, u: &Usr) -> bool {
        let UsrNode::RecPartial { var, body, .. } = u.node() else {
            return false;
        };
        let deps = self.deps.entry(u.id()).or_insert_with(|| {
            let mut syms = body.free_syms();
            syms.remove(var);
            syms.into_iter().collect()
        });
        !deps.iter().any(|s| self.bound.contains(s))
    }

    /// Moves the running prefix of the partial recurrence `u` to the
    /// current `hi` (restarting it when `lo` changed or `hi` went
    /// backwards) and returns it.
    fn advance(&mut self, u: &Usr, ctx: &dyn EvalCtx) -> Option<&BTreeSet<i64>> {
        let UsrNode::RecPartial { var, lo, hi, body } = u.node() else {
            unreachable!("only partial recurrences keep a running prefix")
        };
        let lo = lo.eval(ctx)?;
        let hi = hi.eval(ctx)?;
        let mut prefix = match self.prefixes.remove(&u.id()) {
            Some(p) if p.lo == lo && p.next <= hi.saturating_add(1) => p,
            _ => Prefix {
                lo,
                next: lo,
                set: BTreeSet::new(),
            },
        };
        while prefix.next <= hi {
            prefix
                .set
                .extend(self.eval_at(*var, prefix.next, body, ctx)?);
            if prefix.set.len() > self.limit {
                return None;
            }
            prefix.next += 1;
        }
        Some(&self.prefixes.entry(u.id()).or_insert(prefix).set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equations::output_independence;
    use lip_lmad::{Lmad, LmadSet};
    use lip_symbolic::{sym, BoolExpr, MapCtx, SymExpr};

    fn v(name: &str) -> SymExpr {
        SymExpr::var(sym(name))
    }

    fn k(c: i64) -> SymExpr {
        SymExpr::konst(c)
    }

    #[test]
    fn evaluates_set_algebra() {
        let a = Usr::leaf(LmadSet::single(Lmad::interval(k(0), k(9))));
        let b = Usr::leaf(LmadSet::single(Lmad::interval(k(5), k(14))));
        let ctx = MapCtx::new();
        let inter = eval_usr(&Usr::intersect(a.clone(), b.clone()), &ctx, 1000).unwrap();
        assert_eq!(inter.len(), 5);
        let diff = eval_usr(&Usr::subtract(a.clone(), b.clone()), &ctx, 1000).unwrap();
        assert_eq!(diff, (0..5).collect());
        let uni = eval_usr(&Usr::union(a, b), &ctx, 1000).unwrap();
        assert_eq!(uni, (0..15).collect());
    }

    #[test]
    fn gate_controls_contribution() {
        let s = Usr::gate(
            BoolExpr::ne(v("SYM"), k(1)),
            Usr::leaf(LmadSet::single(Lmad::interval(k(0), k(3)))),
        );
        let mut ctx = MapCtx::new();
        ctx.set_scalar(sym("SYM"), 0);
        assert_eq!(eval_usr(&s, &ctx, 100).unwrap().len(), 4);
        ctx.set_scalar(sym("SYM"), 1);
        assert!(eval_usr(&s, &ctx, 100).unwrap().is_empty());
    }

    #[test]
    fn recurrence_iterates() {
        // ∪_{i=1..4} {2i} = {2,4,6,8}. Use a gate mentioning i so the
        // constructor cannot collapse the recurrence.
        let body = Usr::gate(
            BoolExpr::gt0(v("i")),
            Usr::leaf(LmadSet::single(Lmad::point(v("i").scale(2)))),
        );
        let u = Usr::rec_total(sym("i"), k(1), k(4), body);
        let ctx = MapCtx::new();
        assert_eq!(
            eval_usr(&u, &ctx, 100).unwrap(),
            [2, 4, 6, 8].into_iter().collect()
        );
    }

    #[test]
    fn oind_evaluation_detects_collision() {
        // WF_i = {B(i)} with B = [1, 2, 1]: iterations 1 and 3 collide.
        let wf = Usr::leaf(LmadSet::single(Lmad::point(SymExpr::elem(
            sym("B"),
            v("i"),
        ))));
        let o = output_independence(sym("i"), &k(1), &k(3), &wf);
        let mut ctx = MapCtx::new();
        ctx.set_array(sym("B"), 1, vec![1, 2, 1]);
        assert_eq!(eval_empty(&o, &ctx, 1000), Some(false));
        // Injective index array: no collision.
        ctx.set_array(sym("B"), 1, vec![1, 2, 3]);
        assert_eq!(eval_empty(&o, &ctx, 1000), Some(true));
    }

    #[test]
    fn limit_aborts_runaway() {
        let u = Usr::leaf(LmadSet::single(Lmad::interval(k(0), k(1_000_000))));
        let ctx = MapCtx::new();
        assert!(eval_usr(&u, &ctx, 1000).is_none());
    }

    #[test]
    fn unbound_symbol_propagates_none() {
        let u = Usr::leaf(LmadSet::single(Lmad::point(v("UNBOUND_IN_EVAL"))));
        let ctx = MapCtx::new();
        assert!(eval_usr(&u, &ctx, 1000).is_none());
    }
}
