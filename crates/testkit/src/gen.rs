//! The workspace's one random-program generator.
//!
//! Historically `tests/props.rs` and `tests/batch.rs` each carried a
//! near-identical `Op` grammar; this module is the single source of
//! truth (the acceptance bar: `op_strategy` defined exactly once in the
//! workspace). Programs draw from a fixed shape — [`NUM_REGS`] integer
//! registers, one object with [`NUM_FIELDS`] fields, one
//! [`ARRAY_LEN`]-element array — and may call a tiny `double` callee
//! (exercising frame pushes and pops inside and across trace
//! segments), take
//! forward conditional branches ([`Op::Skip`]), which keep every
//! generated program trivially terminating while still producing
//! non-straight-line control flow, and spawn guest threads
//! ([`Op::SpawnJoin`], [`Op::Fork`]) running a pure `worker` callee,
//! exercising thread-tagged trace segments and thread-salted contexts
//! in every fuzz and corruption sweep. Threads are always joined before
//! their results are read, so generated programs stay deterministic
//! under every scheduler seed.

use lowutil_ir::{BinOp, CmpOp, ConstValue, Local, Program, ProgramBuilder};
use proptest::prelude::*;

/// Integer registers available to generated ops.
pub const NUM_REGS: usize = 4;
/// Fields on the generated class `C`.
pub const NUM_FIELDS: usize = 2;
/// Length of the generated scratch array.
pub const ARRAY_LEN: usize = 8;
/// Upper bound (inclusive) on how many ops an [`Op::Skip`] may jump over.
pub const MAX_SKIP: u8 = 6;

/// One randomly chosen instruction over the fixed register/heap shape.
#[derive(Debug, Clone)]
pub enum Op {
    /// `regs[d] = v`
    Const(u8, i64),
    /// `regs[d] = regs[s]`
    Move(u8, u8),
    /// `regs[d] = regs[l] <op[o]> regs[r]` (add/sub/mul/xor — no traps)
    Bin(u8, u8, u8, u8),
    /// `regs[d] = regs[l] < regs[r]`
    Cmp(u8, u8, u8),
    /// `obj.field[f] = regs[s]`
    PutField(u8, u8),
    /// `regs[d] = obj.field[f]`
    GetField(u8, u8),
    /// `arr[i] = regs[s]`
    ArrPut(u8, u8),
    /// `regs[d] = arr[i]`
    ArrGet(u8, u8),
    /// `print(regs[s])` — the observable output
    Native(u8),
    /// `regs[d] = double(regs[s])` — a real call, pushing a frame
    Call(u8, u8),
    /// `if regs[l] < regs[r] skip the next n ops` — forward-only, so
    /// generated programs always terminate
    Skip(u8, u8, u8),
    /// `t = spawn worker(regs[s]); regs[d] = join t` — one guest thread,
    /// immediately joined
    SpawnJoin(u8, u8),
    /// `t1 = spawn worker(regs[l]); t2 = spawn worker(regs[r]);
    /// regs[d] = join t1 + join t2` — two threads runnable at once, so
    /// the scheduler actually interleaves them
    Fork(u8, u8, u8),
}

/// The strategy for a single [`Op`]. Defined exactly once in the
/// workspace; every property suite composes its programs from this.
pub fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 0..NUM_REGS as u8;
    let f = 0..NUM_FIELDS as u8;
    let a = 0..ARRAY_LEN as u8;
    prop_oneof![
        (r.clone(), -100..100i64).prop_map(|(d, v)| Op::Const(d, v)),
        (r.clone(), r.clone()).prop_map(|(d, s)| Op::Move(d, s)),
        (r.clone(), 0..4u8, r.clone(), r.clone()).prop_map(|(d, o, l, rr)| Op::Bin(d, o, l, rr)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, l, rr)| Op::Cmp(d, l, rr)),
        (f.clone(), r.clone()).prop_map(|(ff, s)| Op::PutField(ff, s)),
        (r.clone(), f).prop_map(|(d, ff)| Op::GetField(d, ff)),
        (a.clone(), r.clone()).prop_map(|(i, s)| Op::ArrPut(i, s)),
        (r.clone(), a).prop_map(|(d, i)| Op::ArrGet(d, i)),
        r.clone().prop_map(Op::Native),
        (r.clone(), r.clone()).prop_map(|(d, s)| Op::Call(d, s)),
        (r.clone(), r.clone(), 1..MAX_SKIP + 1).prop_map(|(l, rr, n)| Op::Skip(l, rr, n)),
        (r.clone(), r.clone()).prop_map(|(d, s)| Op::SpawnJoin(d, s)),
        (r.clone(), r.clone(), r).prop_map(|(d, l, rr)| Op::Fork(d, l, rr)),
    ]
}

/// A strategy for whole programs: `len` ops drawn from [`op_strategy`].
pub fn program_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), len)
}

/// Builds a valid program from the op list: a fixed initialization
/// prelude (zeroed registers, fields, and array), then the ops, then a
/// final `print(r0)` so every program has at least one observable.
///
/// # Panics
/// Panics if the generated program fails validation — a generator bug.
pub fn build(ops: &[Op]) -> Program {
    let mut pb = ProgramBuilder::new();
    let print = pb.native("print", 1, false);
    let cls = pb.class("C").finish(&mut pb);
    let fields: Vec<_> = (0..NUM_FIELDS)
        .map(|i| pb.field(cls, format!("f{i}")))
        .collect();
    // Safe binops only (no division traps).
    let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor];

    // A tiny callee so generated programs also exercise frame pushes
    // and pops, which segment prologues must carry across splits.
    let mut dm = pb.method("double", 1);
    let p0 = dm.param(0);
    let dr = dm.new_local("dr");
    dm.binop(dr, BinOp::Add, p0, p0);
    dm.ret(dr);
    let double_id = dm.finish(&mut pb);

    // A pure spawn target, distinct from `double` so Call-context nodes
    // keep their exact frequencies: worker(x) = 2x + 1.
    let mut wm = pb.method("worker", 1);
    let wp = wm.param(0);
    let w1 = wm.new_local("w1");
    wm.binop(w1, BinOp::Add, wp, wp);
    let wone = wm.new_local("wone");
    wm.iconst(wone, 1);
    let w2 = wm.new_local("w2");
    wm.binop(w2, BinOp::Add, w1, wone);
    wm.ret(w2);
    let worker_id = wm.finish(&mut pb);

    let mut m = pb.method("main", 0);
    let regs: Vec<Local> = (0..NUM_REGS)
        .map(|i| m.new_local(format!("r{i}")))
        .collect();
    let obj = m.new_local("obj");
    let arr = m.new_local("arr");
    let len = m.new_local("len");
    let idx = m.new_local("idx");
    // Thread handles and join results for SpawnJoin/Fork ops.
    let t1 = m.new_local("t1");
    let t2 = m.new_local("t2");
    let j1 = m.new_local("j1");
    let j2 = m.new_local("j2");

    // Initialize: registers to 0, one object, one zeroed array.
    for &r in &regs {
        m.iconst(r, 0);
    }
    m.new_obj(obj, cls);
    m.iconst(len, ARRAY_LEN as i64);
    m.new_array(arr, len);
    for i in 0..ARRAY_LEN as i64 {
        m.iconst(idx, i);
        m.array_put(arr, idx, regs[0]);
    }
    m.iconst(regs[0], 0);
    // Fields start initialized too.
    for &f in &fields {
        m.put_field(obj, f, regs[0]);
    }

    // Skip targets are op indices; bind each pending label when its
    // target index is reached (or at the end for jumps past the tail).
    let mut pending: Vec<Vec<lowutil_ir::Label>> = vec![Vec::new(); ops.len() + 1];
    for (i, op) in ops.iter().enumerate() {
        for l in std::mem::take(&mut pending[i]) {
            m.bind(l);
        }
        match *op {
            Op::Const(d, v) => m.constant(regs[d as usize], ConstValue::Int(v)),
            Op::Move(d, s) => m.mov(regs[d as usize], regs[s as usize]),
            Op::Bin(d, o, l, r) => m.binop(
                regs[d as usize],
                bin_ops[o as usize],
                regs[l as usize],
                regs[r as usize],
            ),
            Op::Cmp(d, l, r) => m.cmp(
                regs[d as usize],
                CmpOp::Lt,
                regs[l as usize],
                regs[r as usize],
            ),
            Op::PutField(f, s) => m.put_field(obj, fields[f as usize], regs[s as usize]),
            Op::GetField(d, f) => m.get_field(regs[d as usize], obj, fields[f as usize]),
            Op::ArrPut(i, s) => {
                m.iconst(idx, i64::from(i));
                m.array_put(arr, idx, regs[s as usize]);
            }
            Op::ArrGet(d, i) => {
                m.iconst(idx, i64::from(i));
                m.array_get(regs[d as usize], arr, idx);
            }
            Op::Native(s) => m.call_native_void(print, &[regs[s as usize]]),
            Op::Call(d, s) => m.call(Some(regs[d as usize]), double_id, &[regs[s as usize]]),
            Op::Skip(l, r, n) => {
                let lab = m.label();
                let target = (i + 1 + n as usize).min(ops.len());
                pending[target].push(lab);
                m.branch(CmpOp::Lt, regs[l as usize], regs[r as usize], lab);
            }
            Op::SpawnJoin(d, s) => {
                m.spawn(t1, worker_id, &[regs[s as usize]]);
                m.join(Some(regs[d as usize]), t1);
            }
            Op::Fork(d, l, r) => {
                m.spawn(t1, worker_id, &[regs[l as usize]]);
                m.spawn(t2, worker_id, &[regs[r as usize]]);
                m.join(Some(j1), t1);
                m.join(Some(j2), t2);
                m.binop(regs[d as usize], BinOp::Add, j1, j2);
            }
        }
    }
    for l in std::mem::take(&mut pending[ops.len()]) {
        m.bind(l);
    }
    m.call_native_void(print, &[regs[0]]);
    m.ret_void();
    let main = m.finish(&mut pb);
    pb.finish(main).expect("generated program validates")
}

/// What [`oracle`] observed while evaluating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleRun {
    /// Everything the program printed, in order (including the final
    /// `print(r0)` that [`build`] appends).
    pub output: Vec<i64>,
    /// How many [`Op::Call`] ops actually executed — with [`Op::Skip`]
    /// in the grammar this can be fewer than the calls in the op list,
    /// and it is the frequency the `double` callee's graph nodes carry.
    pub executed_calls: u64,
    /// How many `worker` threads actually spawned (one per executed
    /// [`Op::SpawnJoin`], two per executed [`Op::Fork`]). Each runs
    /// under its own thread-salted context, so a `worker` graph node's
    /// frequency is at most this.
    pub spawned_workers: u64,
}

/// A direct Rust model of the generated programs' semantics, used as a
/// differential oracle for the interpreter: whatever the VM prints, this
/// straightforward evaluation must print too.
pub fn oracle(ops: &[Op]) -> OracleRun {
    let mut regs = [0i64; NUM_REGS];
    let mut fields = [0i64; NUM_FIELDS];
    let mut arr = [0i64; ARRAY_LEN];
    let mut out = Vec::new();
    let mut executed_calls = 0u64;
    let mut spawned_workers = 0u64;
    // worker(x) = 2x + 1, mirroring the IR callee with wrapping math.
    let worker = |x: i64| x.wrapping_add(x).wrapping_add(1);
    let mut pc = 0usize;
    while pc < ops.len() {
        match ops[pc] {
            Op::Const(d, v) => regs[d as usize] = v,
            Op::Move(d, s) => regs[d as usize] = regs[s as usize],
            Op::Bin(d, o, l, r) => {
                let (x, y) = (regs[l as usize], regs[r as usize]);
                regs[d as usize] = match o {
                    0 => x.wrapping_add(y),
                    1 => x.wrapping_sub(y),
                    2 => x.wrapping_mul(y),
                    _ => x ^ y,
                };
            }
            Op::Cmp(d, l, r) => regs[d as usize] = i64::from(regs[l as usize] < regs[r as usize]),
            Op::PutField(f, s) => fields[f as usize] = regs[s as usize],
            Op::GetField(d, f) => regs[d as usize] = fields[f as usize],
            Op::ArrPut(i, s) => arr[i as usize] = regs[s as usize],
            Op::ArrGet(d, i) => regs[d as usize] = arr[i as usize],
            Op::Native(s) => out.push(regs[s as usize]),
            Op::Call(d, s) => {
                executed_calls += 1;
                regs[d as usize] = regs[s as usize].wrapping_add(regs[s as usize]);
            }
            Op::Skip(l, r, n) => {
                if regs[l as usize] < regs[r as usize] {
                    pc = (pc + 1 + n as usize).min(ops.len());
                    continue;
                }
            }
            Op::SpawnJoin(d, s) => {
                spawned_workers += 1;
                regs[d as usize] = worker(regs[s as usize]);
            }
            Op::Fork(d, l, r) => {
                spawned_workers += 2;
                regs[d as usize] = worker(regs[l as usize]).wrapping_add(worker(regs[r as usize]));
            }
        }
        pc += 1;
    }
    out.push(regs[0]);
    OracleRun {
        output: out,
        executed_calls,
        spawned_workers,
    }
}
