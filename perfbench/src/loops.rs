//! The 16 suite loops as benchmark job classes: seeded inputs, the
//! tree-walk reference run, exact output snapshots and the wire form of
//! a frame.

use std::sync::Arc;

use lip_ir::{
    ArrayBuf, ArrayView, ExecState, Machine, Program, Stmt, Store, Subroutine, Ty, Value,
};
use lip_suite::kernels::{self, KernelShape};
use lip_symbolic::{sym, Sym};

/// The base problem size of every job.
pub const BASE_N: usize = 256;
/// Trip counts are drawn from `BASE_N - N_SPREAD ..= BASE_N + N_SPREAD`.
pub const N_SPREAD: usize = 32;
/// Salts are drawn from `0..SALTS`.
pub const SALTS: usize = 64;

/// One suite loop.
#[derive(Clone, Copy)]
pub struct LoopDef {
    /// The kernel shape (source, subroutine, label, input preparation).
    pub shape: &'static KernelShape,
}

impl LoopDef {
    /// The loop's name, which is also its job-class name.
    pub fn name(&self) -> &'static str {
        self.shape.name
    }
}

/// The 16 suite loops, in `lip_suite::kernels::all_shapes` order.
pub fn suite() -> Vec<LoopDef> {
    kernels::all_shapes()
        .into_iter()
        .map(|shape| LoopDef { shape })
        .collect()
}

/// A parsed loop: the program handle, its subroutine and loop statement.
pub struct Parsed {
    /// Interpreter over the program; keeping it pins the program handle
    /// that a session's caches are keyed by.
    pub machine: Machine,
    /// The subroutine holding the loop.
    pub sub: Subroutine,
    /// The loop statement.
    pub target: Stmt,
}

impl Parsed {
    /// The program.
    pub fn program(&self) -> &Program {
        self.machine.program()
    }

    /// The loop's observable outputs: the subroutine's parameters, the
    /// only bindings its caller can see once it returns. Locals (inner
    /// loop indices, the CIV counter, scratch scalars) are dead after
    /// the loop and not compared.
    pub fn outputs(&self) -> &[Sym] {
        &self.sub.params
    }
}

/// Parses a suite loop's source.
pub fn parse(def: &LoopDef) -> Parsed {
    let program = lip_ir::parse_program(def.shape.source).expect("suite source parses");
    let sub = program
        .subroutine(sym(def.shape.sub))
        .expect("suite subroutine exists")
        .clone();
    let target = sub
        .find_loop(def.shape.label)
        .expect("suite loop exists")
        .clone();
    Parsed {
        machine: Machine::new(program),
        sub,
        target,
    }
}

/// The input of one call: trip count `n` and a work-neutral `salt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputKey {
    /// Trip count.
    pub n: usize,
    /// Shifts the loop's index arrays (or its starting CIV value, or a
    /// gate scalar) without changing its verdict or its work.
    pub salt: usize,
}

impl InputKey {
    /// The unsalted base input.
    pub const BASE: InputKey = InputKey { n: BASE_N, salt: 0 };
}

/// A seeded sequence of call inputs for one loop. Every block of 65
/// consecutive calls uses each trip count of the band once, and each
/// block has its own salt, so no input recurs within 65 × 64 calls:
/// more than the predicate verdict memo holds (4096 entries), so the
/// memo never answers for a loop whose predicates read the salt. Stages
/// that read only `N` (`tls_feedback`'s) see a repeat after 65 calls.
pub struct InputSeq {
    ns: Vec<usize>,
    salts: Vec<usize>,
}

impl InputSeq {
    /// The sequence for one seeded stream.
    pub fn new(rng: &mut crate::stats::Rng) -> InputSeq {
        let mut ns: Vec<usize> = (BASE_N - N_SPREAD..=BASE_N + N_SPREAD).collect();
        let mut salts: Vec<usize> = (0..SALTS).collect();
        rng.shuffle(&mut ns);
        rng.shuffle(&mut salts);
        InputSeq { ns, salts }
    }

    /// The input of the `k`-th call.
    pub fn key(&self, k: usize) -> InputKey {
        InputKey {
            n: self.ns[k % self.ns.len()],
            salt: self.salts[(k / self.ns.len()) % self.salts.len()],
        }
    }
}

/// Builds the input frame of one call: the kernel's own preparation at
/// trip count `key.n`, salted by `key.salt`. The salt moves which
/// elements are touched, never how many, so the verdict and the work
/// stay the same while the predicate inputs (and so the verdict-memo
/// fingerprint) change.
pub fn input(def: &LoopDef, key: InputKey) -> Store {
    let (mut frame, _) = (def.shape.prepare)(key.n);
    let (n, s) = (key.n, key.salt);
    let ints = |frame: &mut Store, name: &str, f: &dyn Fn(usize) -> i64| {
        let buf = frame.alloc_int(sym(name), n);
        for i in 0..n {
            buf.set(i, Value::Int(f(i)));
        }
    };
    let reals = |frame: &mut Store, name: &str, len: usize, f: &dyn Fn(usize) -> f64| {
        let buf = frame.alloc_real(sym(name), len);
        for i in 0..len {
            buf.set(i, Value::Real(f(i)));
        }
    };
    match def.name() {
        "solvh" => {
            // Any SYM other than 1 takes the same branch of `geteu`.
            frame.set_int(sym("SYM"), 2 + s as i64);
        }
        "offset_crossover" => {
            frame.set_int(sym("M"), (n + s) as i64);
            reals(&mut frame, "A", 2 * n + s, &|i| i as f64);
        }
        "monotone_windows" => {
            let l = 32;
            ints(&mut frame, "B", &|i| (i * l + 1 + s) as i64);
            reals(&mut frame, "A", n * l + l + s, &|_| 0.0);
        }
        "civ_conditional" => {
            frame.set_int(sym("civ"), s as i64);
            reals(&mut frame, "X", n + 1 + s, &|_| 0.0);
        }
        "hoist_indirect" => {
            ints(&mut frame, "Q", &|i| (i + n + 1 + s) as i64);
            reals(&mut frame, "A", 2 * n + 1 + s, &|_| 0.0);
        }
        "ext_reduction" => {
            ints(&mut frame, "B", &|i| (i + n + 1 + s) as i64);
            reals(&mut frame, "A", 2 * n + s, &|_| 0.0);
        }
        _ => {}
    }
    frame
}

/// The frame as a `lip_serve` server materializes it from the wire:
/// every array a fresh 1-D buffer with extent `[len]`. A request cannot
/// carry an array's declared shape.
pub fn as_wire_store(frame: &Store) -> Store {
    let mut out = Store::new();
    for (s, v) in frame.scalars() {
        out.set_scalar(s, v);
    }
    for (s, view) in frame.arrays() {
        let buf = copy_buf(&view.buf);
        let len = buf.len() as i64;
        out.bind_array(
            s,
            ArrayView {
                buf,
                offset: 0,
                extents: vec![len],
            },
        );
    }
    out
}

fn copy_buf(buf: &ArrayBuf) -> Arc<ArrayBuf> {
    let copy = match buf.ty() {
        Ty::Int => ArrayBuf::new_int(buf.len()),
        Ty::Real => ArrayBuf::new_real(buf.len()),
    };
    copy.restore(&buf.snapshot());
    copy
}

/// A deep copy of `frame` (arrays get their own buffers, views keep
/// their offsets and extents).
pub fn deep_copy(frame: &Store) -> Store {
    let mut out = Store::new();
    for (s, v) in frame.scalars() {
        out.set_scalar(s, v);
    }
    for (s, view) in frame.arrays() {
        out.bind_array(
            s,
            ArrayView {
                buf: copy_buf(&view.buf),
                offset: view.offset,
                extents: view.extents.clone(),
            },
        );
    }
    out
}

/// One binding's exact value: integers as `i64`, reals by their bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Exact {
    /// An integer scalar or array.
    Int(Vec<i64>),
    /// A real scalar or array, as `f64::to_bits`.
    Real(Vec<u64>),
}

impl Exact {
    fn of(values: impl Iterator<Item = Value>, ty: Ty) -> Exact {
        match ty {
            Ty::Int => Exact::Int(values.map(Value::as_i64).collect()),
            Ty::Real => Exact::Real(values.map(|v| v.as_f64().to_bits()).collect()),
        }
    }
}

/// The exact values of `names` in `frame`, sorted by name; a name that
/// is not bound is left out.
pub fn snapshot(frame: &Store, names: &[Sym]) -> Vec<(String, Exact)> {
    let mut out: Vec<(String, Exact)> = names
        .iter()
        .filter_map(|&s| {
            if let Some(v) = frame.scalar(s) {
                let ty = if matches!(v, Value::Int(_)) {
                    Ty::Int
                } else {
                    Ty::Real
                };
                Some((s.name(), Exact::of(std::iter::once(v), ty)))
            } else {
                frame.array(s).map(|view| {
                    let buf = &view.buf;
                    (
                        s.name(),
                        Exact::of((0..buf.len()).map(|i| buf.get(i)), buf.ty()),
                    )
                })
            }
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Runs the loop with the tree-walk sequential interpreter on a copy of
/// `frame` and returns its outputs: the oracle every executed job is
/// compared against.
pub fn reference(parsed: &Parsed, frame: &Store) -> Result<Vec<(String, Exact)>, String> {
    let mut copy = deep_copy(frame);
    let mut state = ExecState::default();
    parsed
        .machine
        .exec_stmt(&parsed.sub, &mut copy, &parsed.target, &mut state)
        .map_err(|e| format!("{e:?}"))?;
    Ok(snapshot(&copy, parsed.outputs()))
}

/// The `frame` object of a `run` request: scalars and arrays with their
/// exact digits (integers as integer digits, reals in shortest
/// round-trip form), keys sorted so equal frames encode to equal bytes.
pub fn frame_json(frame: &Store) -> String {
    let mut scalars: Vec<(String, Value)> = frame.scalars().map(|(s, v)| (s.name(), v)).collect();
    scalars.sort_by(|a, b| a.0.cmp(&b.0));
    let mut arrays: Vec<(String, &ArrayView)> =
        frame.arrays().map(|(s, v)| (s.name(), v)).collect();
    arrays.sort_by(|a, b| a.0.cmp(&b.0));
    let scalars: Vec<String> = scalars
        .iter()
        .map(|(k, v)| format!("{}: {}", lip_obs::json_str(k), value_digits(*v)))
        .collect();
    let arrays: Vec<String> = arrays
        .iter()
        .map(|(k, view)| {
            let buf = &view.buf;
            let ty = if buf.ty() == Ty::Int { "int" } else { "real" };
            let values: Vec<Value> = (0..buf.len()).map(|i| buf.get(i)).collect();
            let body = if values.iter().all(|v| v.as_f64() == 0.0) {
                format!("\"len\": {}", values.len())
            } else {
                let digits: Vec<String> = values.iter().map(|v| value_digits(*v)).collect();
                format!("\"data\": [{}]", digits.join(", "))
            };
            format!("{}: {{\"ty\": \"{ty}\", {body}}}", lip_obs::json_str(k))
        })
        .collect();
    format!(
        "{{\"scalars\": {{{}}}, \"arrays\": {{{}}}}}",
        scalars.join(", "),
        arrays.join(", ")
    )
}

fn value_digits(v: Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Real(r) => format!("{r:?}"),
    }
}
