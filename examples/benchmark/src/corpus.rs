//! The four corpora, and the seeded generator behind three of them.
//!
//! A corpus is a list of [`BenchCase`]s (kernel + launch geometry + inputs)
//! and the number of functions that travel in one module / serve request.
//! The program under test only ever sees the *printed text* of these
//! functions; the `Function` values here are the generator's own.
//!
//! What the seed changes and what it does not: the driver compares runs
//! made with different seeds, so a seed must not change the *amount* of
//! work. Shapes, sizes, which operand positions differ between two arms and
//! every branch condition's input bits are fixed per workload; the seed
//! picks the concrete constants, the upper 24 bits of every input word,
//! the request order and the churn edits. Control flow — and with it every
//! simulated count — is therefore identical across seeds, while every
//! text, hash and buffer the program handles differs.

use darm::ir::builder::FunctionBuilder;
use darm::ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
use darm::kernels::synthetic::SyntheticKind;
use darm::kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad, synthetic};
use darm::kernels::{ArgSpec, BenchCase};
use darm::simt::LaunchConfig;

/// xorshift64* — the harness's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix the seed so that 0, 1, 2, ... start far apart.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// An odd three-digit constant: never an algebraic identity for
    /// instcombine, and always the same printed width.
    fn konst(&mut self) -> i32 {
        101 + 2 * self.below(448) as i32
    }
}

/// Control-flow shape of a generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `rungs` diamonds in sequence (one rung = one diamond).
    Ladder,
    /// A ladder whose arms each hold an inner data-dependent diamond.
    NestedLadder,
    /// A ladder inside a loop whose trip count depends on the thread id.
    LoopLadder,
    /// Compare-exchange stages: an if-then region on either side of a
    /// thread-id branch, the bitonic/merge shape.
    CmpXchg,
    /// No branch at all.
    Straight,
}

/// How alike the two arms of a branch are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arms {
    /// One opcode sequence on both sides; two positions in three differ in
    /// a constant operand (each costs the melder a `select`).
    Similar,
    /// Opcode classes that share one instruction kind in eight, so the
    /// melding profit is ≈0.05 and every candidate is declined.
    Disjoint,
}

/// What a branch condition tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// Thread-id bits 0–4: divergent inside every warp.
    Tid,
    /// Bits 0–7 of the thread's loaded input word.
    Data,
    /// Alternating thread-id and data bits.
    Mixed,
}

/// Parameters of one generated kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    pub shape: Shape,
    /// Diamonds / stages in sequence.
    pub rungs: usize,
    /// Operations per arm (an arm of a nested rung is split around its
    /// inner diamond).
    pub arm_len: usize,
    pub arms: Arms,
    pub divergence: Divergence,
    /// Every third outer branch tests the scalar parameter instead and is
    /// uniform, so it is no melding candidate at all.
    pub uniform_third: bool,
}

/// Kernel signature: `(in: *i32, out: *i32, n: i32)`.
const PARAM_IN: u32 = 0;
const PARAM_OUT: u32 = 1;
const PARAM_SCALAR: u32 = 2;

struct Gen<'f, 'r> {
    b: FunctionBuilder<'f>,
    rng: &'r mut Rng,
    spec: KernelSpec,
    tid: Value,
    /// The thread's input word; its low 8 bits do not depend on the seed.
    x: Value,
    branches: usize,
}

impl Gen<'_, '_> {
    fn bit_test(&mut self, src: Value, bit: usize) -> Value {
        let m = self.b.and(src, Value::I32(1 << bit));
        self.b.icmp(IcmpPred::Ne, m, Value::I32(0))
    }

    /// The next outer branch condition.
    fn outer_cond(&mut self) -> Value {
        let k = self.branches;
        self.branches += 1;
        if self.spec.uniform_third && k % 3 == 2 {
            let n = self.b.param(PARAM_SCALAR);
            return self.bit_test(n, k % 8);
        }
        let on_tid = match self.spec.divergence {
            Divergence::Tid => true,
            Divergence::Data => false,
            Divergence::Mixed => k.is_multiple_of(2),
        };
        if on_tid {
            self.bit_test(self.tid, k % 5)
        } else {
            self.bit_test(self.x, k % 8)
        }
    }

    /// `len` operations on `acc`. `consts[k]` is position k's constant;
    /// `side` (0 = then, 1 = else) shifts it on the positions that differ.
    /// `Similar` arms ignore `class`; `Disjoint` arms of different class
    /// share only the `add` at every eighth position.
    fn ops(&mut self, mut acc: Value, consts: &[i32], side: i32, class: usize) -> Value {
        for (k, &c) in consts.iter().enumerate() {
            let c = if k % 3 == 2 { c } else { c + 2 * side };
            let b = &mut self.b;
            acc = match (self.spec.arms, class, k) {
                (Arms::Similar, _, _) => match k % 5 {
                    0 => b.mul(acc, Value::I32(c)),
                    1 => b.add(acc, Value::I32(c)),
                    2 => b.xor(acc, Value::I32(c)),
                    3 => b.sub(acc, Value::I32(c)),
                    _ => {
                        let t = b.lshr(acc, Value::I32(1 + c % 7));
                        b.xor(acc, t)
                    }
                },
                (Arms::Disjoint, _, k) if k % 8 == 7 => b.add(acc, Value::I32(c)),
                (Arms::Disjoint, 0, _) => match k % 3 {
                    0 => b.mul(acc, Value::I32(c)),
                    1 => b.add(acc, Value::I32(c)),
                    _ => b.sub(acc, self.x),
                },
                (Arms::Disjoint, _, _) => match k % 2 {
                    0 => b.xor(acc, Value::I32(c)),
                    _ => {
                        let t = b.lshr(acc, Value::I32(1 + c % 7));
                        b.xor(acc, t)
                    }
                },
            };
        }
        acc
    }

    fn consts(&mut self, len: usize) -> Vec<i32> {
        (0..len).map(|_| self.rng.konst()).collect()
    }

    /// One diamond on `acc`, leaving the cursor in the join block.
    fn diamond(&mut self, acc: Value, cond: Value, len: usize, flip: usize, tag: &str) -> Value {
        let t = self.b.add_block(&format!("{tag}.t"));
        let e = self.b.add_block(&format!("{tag}.e"));
        let j = self.b.add_block(&format!("{tag}.j"));
        let consts = self.consts(len);
        self.b.br(cond, t, e);
        self.b.switch_to(t);
        let vt = self.ops(acc, &consts, 0, flip);
        self.b.jump(j);
        self.b.switch_to(e);
        let ve = self.ops(acc, &consts, 1, 1 - flip);
        self.b.jump(j);
        self.b.switch_to(j);
        self.b.phi(Type::I32, &[(t, vt), (e, ve)])
    }

    /// A rung whose arms are `ops; inner diamond; ops`. The inner arms'
    /// classes are crossed so that, under `Disjoint`, neither the inner
    /// diamonds nor the positionally paired blocks of the two outer
    /// regions share an opcode class.
    fn nested_rung(&mut self, acc: Value, r: usize) -> Value {
        let cond = self.outer_cond();
        let part = self.spec.arm_len / 3;
        let (pre, inner, post) = (
            self.consts(part),
            self.consts(part),
            self.consts(self.spec.arm_len - 2 * part),
        );
        let j = self.b.add_block(&format!("r{r}.j"));
        let heads = [
            self.b.add_block(&format!("r{r}.t")),
            self.b.add_block(&format!("r{r}.e")),
        ];
        self.b.br(cond, heads[0], heads[1]);
        let mut incoming = Vec::new();
        for (side, &head) in heads.iter().enumerate() {
            self.b.switch_to(head);
            let v = self.ops(acc, &pre, side as i32, side);
            let ic = self.bit_test(self.x, (r + 3) % 8);
            let (it, ie, ij) = (
                self.b.add_block(&format!("r{r}.{side}.t")),
                self.b.add_block(&format!("r{r}.{side}.e")),
                self.b.add_block(&format!("r{r}.{side}.j")),
            );
            self.b.br(ic, it, ie);
            self.b.switch_to(it);
            let vt = self.ops(v, &inner, 2 * side as i32, side);
            self.b.jump(ij);
            self.b.switch_to(ie);
            let ve = self.ops(v, &inner, 2 * side as i32 + 1, 1 - side);
            self.b.jump(ij);
            self.b.switch_to(ij);
            let m = self.b.phi(Type::I32, &[(it, vt), (ie, ve)]);
            let out = self.ops(m, &post, side as i32, side);
            self.b.jump(j);
            incoming.push((ij, out));
        }
        self.b.switch_to(j);
        self.b.phi(Type::I32, &incoming)
    }

    /// `rungs` rungs in sequence; the input word is mixed back in after
    /// every join so values stay data-dependent down a long ladder.
    fn ladder(&mut self, mut acc: Value) -> Value {
        for r in 0..self.spec.rungs {
            acc = if self.spec.shape == Shape::NestedLadder {
                self.nested_rung(acc, r)
            } else {
                let cond = self.outer_cond();
                self.diamond(acc, cond, self.spec.arm_len, r % 2, &format!("r{r}"))
            };
            acc = self.b.add(acc, self.x);
        }
        acc
    }

    /// A ladder inside `for (i = 0; i < 2 + (tid & 3); i++)`.
    fn loop_ladder(&mut self, acc0: Value) -> Value {
        let pre = self.b.current_block();
        let (hdr, body, exit) = (
            self.b.add_block("loop.hdr"),
            self.b.add_block("loop.body"),
            self.b.add_block("loop.exit"),
        );
        let low = self.b.and(self.tid, Value::I32(3));
        let trip = self.b.add(low, Value::I32(2));
        self.b.jump(hdr);
        self.b.switch_to(hdr);
        let i = self.b.phi(Type::I32, &[(pre, Value::I32(0))]);
        let acc = self.b.phi(Type::I32, &[(pre, acc0)]);
        let c = self.b.icmp(IcmpPred::Slt, i, trip);
        self.b.br(c, body, exit);
        self.b.switch_to(body);
        let out = self.ladder(acc);
        let next = self.b.add(i, Value::I32(1));
        let latch = self.b.current_block();
        self.b.jump(hdr);
        for (phi, v) in [(i, next), (acc, out)] {
            let inst = self
                .b
                .func()
                .inst_mut(phi.as_inst().expect("phi is an instruction"));
            inst.operands.push(v);
            inst.phi_blocks.push(latch);
        }
        self.b.switch_to(exit);
        acc
    }

    /// Compare-exchange stages on the pair `(a, y)`: a thread-id bit picks
    /// the direction, a compare of 4-bit keys cut from the two input words
    /// decides whether the stage's `arm_len` operations run.
    fn cmp_xchg(&mut self, mut a: Value, y: Value) -> Value {
        for r in 0..self.spec.rungs {
            let ka = self.b.lshr(self.x, Value::I32((r % 5) as i32));
            let ka = self.b.and(ka, Value::I32(15));
            let kb = self.b.lshr(y, Value::I32((r % 5) as i32));
            let kb = self.b.and(kb, Value::I32(15));
            let dir = self.outer_cond();
            let consts = self.consts(self.spec.arm_len);
            let j = self.b.add_block(&format!("s{r}.j"));
            let heads = [
                self.b.add_block(&format!("s{r}.up")),
                self.b.add_block(&format!("s{r}.dn")),
            ];
            self.b.br(dir, heads[0], heads[1]);
            let mut incoming = Vec::new();
            for (side, &head) in heads.iter().enumerate() {
                let swap = self.b.add_block(&format!("s{r}.{side}.swap"));
                let sj = self.b.add_block(&format!("s{r}.{side}.j"));
                self.b.switch_to(head);
                let pred = [IcmpPred::Sgt, IcmpPred::Slt][side];
                let c = self.b.icmp(pred, ka, kb);
                self.b.br(c, swap, sj);
                self.b.switch_to(swap);
                let mixed = self.b.xor(a, y);
                let v = self.ops(mixed, &consts, side as i32, (r + side) % 2);
                self.b.jump(sj);
                self.b.switch_to(sj);
                let m = self.b.phi(Type::I32, &[(head, a), (swap, v)]);
                self.b.jump(j);
                incoming.push((sj, m));
            }
            self.b.switch_to(j);
            let m = self.b.phi(Type::I32, &incoming);
            a = self.b.add(m, self.x);
        }
        a
    }
}

/// Builds one kernel. Every kernel loads `in[gid]`, runs its shape on the
/// value and stores the result to `out[gid]`.
pub fn build_kernel(name: &str, spec: KernelSpec, rng: &mut Rng) -> Function {
    let ptr = Type::Ptr(AddrSpace::Global);
    let mut f = Function::new(name, vec![ptr, ptr, Type::I32], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let bid = b.block_idx(Dim::X);
    let bdim = b.block_dim(Dim::X);
    let off = b.mul(bid, bdim);
    let gid = b.add(off, tid);
    let pin = b.gep(Type::I32, b.param(PARAM_IN), gid);
    let x = b.load(Type::I32, pin);
    let mut g = Gen {
        b,
        rng,
        spec,
        tid,
        x,
        branches: 0,
    };
    let acc = match spec.shape {
        Shape::Ladder | Shape::NestedLadder => g.ladder(x),
        Shape::LoopLadder => g.loop_ladder(x),
        Shape::CmpXchg => {
            let partner = g.b.xor(gid, Value::I32(1));
            let pp = g.b.gep(Type::I32, g.b.param(PARAM_IN), partner);
            let y = g.b.load(Type::I32, pp);
            g.cmp_xchg(x, y)
        }
        Shape::Straight => {
            let consts = g.consts(spec.arm_len);
            g.ops(x, &consts, 0, 0)
        }
    };
    let pout = g.b.gep(Type::I32, g.b.param(PARAM_OUT), gid);
    g.b.store(acc, pout);
    g.b.ret(None);
    f
}

/// Input words: the low 8 bits (all a branch condition ever tests) come
/// from the index alone, the rest from the seed.
fn input_words(n: usize, rng: &mut Rng) -> Vec<i32> {
    (0..n)
        .map(|i| {
            let low = (i as u32).wrapping_mul(0x9e37_79b1) >> 24;
            ((rng.next() as u32) << 8 | low) as i32
        })
        .collect()
}

fn generated_case(
    name: &str,
    spec: KernelSpec,
    launch: LaunchConfig,
    scalar: i32,
    rng: &mut Rng,
) -> BenchCase {
    let n = launch.total_threads() as usize;
    BenchCase {
        name: name.to_string(),
        func: build_kernel(name, spec, rng),
        launch,
        args: vec![
            ArgSpec::BufI32(input_words(n, rng)),
            ArgSpec::BufI32(vec![0; n]),
            ArgSpec::I32(scalar),
        ],
        // Filled in set-up from the unmelded kernel on the reference tier.
        expected: Vec::new(),
    }
}

/// A workload's inputs.
pub struct Corpus {
    pub cases: Vec<BenchCase>,
    /// Functions per module, which is also functions per serve request.
    pub fns_per_request: usize,
    /// `paper57` only: the first so many cases are Fig. 8's, the rest Fig. 9's.
    pub fig8: Option<usize>,
}

pub const WORKLOADS: [&str; 4] = ["paper57", "meld-big", "decline-big", "many-small"];

/// The scalar parameter every generated kernel is launched with; its bits
/// decide the uniform branches.
const SCALAR: i32 = 0b1010_0110;

/// The six big shapes, at `scale` times their base rung count.
fn big_specs(arms: Arms, uniform_third: bool, scale: usize) -> Vec<(&'static str, KernelSpec)> {
    let spec = |shape, rungs: usize, arm_len, divergence| KernelSpec {
        shape,
        rungs: rungs * scale,
        arm_len,
        arms,
        divergence,
        uniform_third,
    };
    vec![
        ("ladder_tid", spec(Shape::Ladder, 12, 8, Divergence::Tid)),
        ("ladder_data", spec(Shape::Ladder, 20, 6, Divergence::Data)),
        ("ladder_long", spec(Shape::Ladder, 34, 4, Divergence::Mixed)),
        (
            "nested",
            spec(Shape::NestedLadder, 8, 12, Divergence::Mixed),
        ),
        ("loop", spec(Shape::LoopLadder, 10, 10, Divergence::Mixed)),
        ("cmpxchg", spec(Shape::CmpXchg, 14, 8, Divergence::Tid)),
    ]
}

/// Builds the named corpus; `None` for an unknown name.
pub fn build(workload: &str, seed: u64) -> Option<Corpus> {
    let mut rng = Rng::new(seed);
    let generated = |specs: Vec<(&str, KernelSpec)>, launch, per_request, rng: &mut Rng| Corpus {
        cases: specs
            .into_iter()
            .enumerate()
            .map(|(i, (name, spec))| {
                generated_case(&format!("{name}_{i}"), spec, launch, SCALAR, rng)
            })
            .collect(),
        fns_per_request: per_request,
        fig8: None,
    };
    Some(match workload {
        "paper57" => paper57(),
        "meld-big" => generated(
            big_specs(Arms::Similar, false, 1),
            LaunchConfig::linear(4, 128),
            1,
            &mut rng,
        ),
        "decline-big" => generated(
            big_specs(Arms::Disjoint, true, 4),
            LaunchConfig::linear(4, 128),
            1,
            &mut rng,
        ),
        "many-small" => {
            // Half one meldable diamond, a quarter nested, a quarter
            // straight-line; sizes cycle with the index, not the seed.
            let specs = (0..256)
                .map(|i| {
                    let (name, shape) = match i % 4 {
                        0 | 2 => ("diamond", Shape::Ladder),
                        1 => ("nested", Shape::NestedLadder),
                        _ => ("straight", Shape::Straight),
                    };
                    let arm_len = match shape {
                        Shape::Straight => 10 + (i / 4) % 32,
                        Shape::NestedLadder => 6 + (i / 4) % 5,
                        _ => 4 + (i / 4) % 14,
                    };
                    let spec = KernelSpec {
                        shape,
                        rungs: 1,
                        arm_len,
                        arms: Arms::Similar,
                        divergence: Divergence::Mixed,
                        uniform_third: false,
                    };
                    (name, spec)
                })
                .collect();
            generated(specs, LaunchConfig::linear(1, 64), 8, &mut rng)
        }
        _ => return None,
    })
}

/// The 57 fig8 + fig9 cases with the paper's launch geometries — the same
/// grid `darm-bench` sweeps, rebuilt here from `darm::kernels` so the
/// benchmark depends on the facade only. Kernel names repeat across block
/// sizes, so each gets its index appended.
fn paper57() -> Corpus {
    let mut cases = Vec::new();
    for kind in SyntheticKind::all() {
        for bs in [32, 64, 128, 256] {
            cases.push(synthetic::build_case(kind, bs));
        }
    }
    let fig8 = cases.len();
    cases.extend([32, 64, 128, 256].map(bitonic::build_case));
    cases.extend([32, 64, 128, 256].map(pcm::build_case));
    cases.extend([32, 64, 128, 256].map(mergesort::build_case));
    cases.extend([16, 32, 64, 128].map(lud::build_case));
    cases.extend([64, 96, 128, 256].map(nqueens::build_case));
    cases.extend([(16, 16), (32, 32)].map(srad::build_case));
    cases.extend([(4, 4), (8, 8), (16, 16)].map(dct::build_case));
    for (i, case) in cases.iter_mut().enumerate() {
        let name = format!("{}_{i}", case.func.name());
        case.func.set_name(&name);
    }
    Corpus {
        cases,
        fns_per_request: 1,
        fig8: Some(fig8),
    }
}

/// The churn edit: replaces the function's first integer constant of
/// magnitude two or more with `salt` — a new content hash for the cache,
/// the same amount of work for the compiler. (Edited kernels are compiled,
/// never launched.) Returns whether a constant was found.
pub fn edit_constant(func: &mut Function, salt: i32) -> bool {
    for b in func.block_ids() {
        for &id in func.insts_of(b) {
            let found = func
                .inst(id)
                .operands
                .iter()
                .position(|v| matches!(v, Value::I32(c) if c.abs() >= 2));
            if let Some(pos) = found {
                func.inst_mut(id).operands[pos] = Value::I32(salt);
                return true;
            }
        }
    }
    false
}
