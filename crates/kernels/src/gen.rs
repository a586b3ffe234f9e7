//! The seeded generator of divergent kernels whose two branch arms are
//! alike — the kernels DARM is about.
//!
//! [`build_kernel`] turns a [`KernelSpec`] — a control-flow [`Shape`], a
//! rung count, an arm length, how alike the arms are ([`Arms`]) and what
//! the branches test ([`Divergence`]) — into a `Function` with the
//! signature `(in: *i32, out: *i32, n: i32)`: it loads `in[gid]`, runs the
//! shape on the value and stores the result to `out[gid]`.
//!
//! **The seed contract: the seed changes constants, never the amount of
//! work.** Shapes, sizes, which operand positions differ between two arms
//! and the bit every branch condition tests are fixed by the spec; the
//! [`Rng`] only picks the concrete constants. Control flow — and with it
//! every melding decision and every simulated count — is therefore
//! identical across seeds, while every printed text differs. A launch
//! keeps the contract if the low 8 bits of each input word (all a branch
//! ever tests) do not depend on the seed either.
//!
//! The generated text is pinned byte for byte, seed by seed, to the
//! benchmark ledger's frozen corpus generator (`tests/gen_matches_corpus.rs`)
//! for every shape that generator has.

use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};

/// xorshift64* — the generator's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        // splitmix the seed so that 0, 1, 2, ... start far apart.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    // Named as in the benchmark ledger's corpus, whose callers it serves.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A number in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 11) % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
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
    /// A ladder whose true arms end in a data-dependent if-then region and
    /// whose false arms are a single block: every rung melds by region
    /// replication.
    IfThenVsBlock,
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
    /// `similar` of the rungs, spread evenly, have [`Arms::Similar`] arms;
    /// the others have [`Arms::Disjoint`] ones.
    Mixed {
        /// Rungs with similar arms.
        similar: usize,
    },
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
    /// The control-flow shape.
    pub shape: Shape,
    /// Diamonds / stages in sequence.
    pub rungs: usize,
    /// Operations per arm (an arm of a nested rung is split around its
    /// inner diamond).
    pub arm_len: usize,
    /// How alike the two arms of each rung are.
    pub arms: Arms,
    /// What the outer branches test.
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
    /// Whether the current rung's arms are [`Arms::Similar`].
    similar: bool,
}

impl Gen<'_, '_> {
    /// Picks the arms of rung `r` (see [`Arms::Mixed`]).
    fn enter_rung(&mut self, r: usize) {
        self.similar = match self.spec.arms {
            Arms::Similar => true,
            Arms::Disjoint => false,
            Arms::Mixed { similar } => {
                let n = self.spec.rungs.max(1);
                (r + 1) * similar / n > r * similar / n
            }
        };
    }

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
    /// Similar arms ignore `class`; disjoint arms of different class share
    /// only the `add` at every eighth position.
    fn ops(&mut self, mut acc: Value, consts: &[i32], side: i32, class: usize) -> Value {
        for (k, &c) in consts.iter().enumerate() {
            let c = if k % 3 == 2 { c } else { c + 2 * side };
            let b = &mut self.b;
            acc = match (self.similar, class, k) {
                (true, _, _) => match k % 5 {
                    0 => b.mul(acc, Value::I32(c)),
                    1 => b.add(acc, Value::I32(c)),
                    2 => b.xor(acc, Value::I32(c)),
                    3 => b.sub(acc, Value::I32(c)),
                    _ => {
                        let t = b.lshr(acc, Value::I32(1 + c % 7));
                        b.xor(acc, t)
                    }
                },
                (false, _, k) if k % 8 == 7 => b.add(acc, Value::I32(c)),
                (false, 0, _) => match k % 3 {
                    0 => b.mul(acc, Value::I32(c)),
                    1 => b.add(acc, Value::I32(c)),
                    _ => b.sub(acc, self.x),
                },
                (false, _, _) => match k % 2 {
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

    /// A rung whose true arm is `ops; if (bit of x) { ops }` and whose
    /// false arm is one block of the same `ops`: an if-then region against
    /// a block, which melds by replicating the block into the region.
    fn if_then_rung(&mut self, acc: Value, r: usize) -> Value {
        let cond = self.outer_cond();
        let body = self.consts(self.spec.arm_len);
        let then_ops = self.consts(self.spec.arm_len / 2);
        let [t, e, j, then, tj] =
            ["t", "e", "j", "then", "tj"].map(|tag| self.b.add_block(&format!("r{r}.{tag}")));
        let flip = r % 2;
        self.b.br(cond, t, e);
        self.b.switch_to(t);
        let v = self.ops(acc, &body, 0, flip);
        let c = self.bit_test(self.x, (r + 3) % 8);
        self.b.br(c, then, tj);
        self.b.switch_to(then);
        let w = self.ops(v, &then_ops, 0, flip);
        self.b.jump(tj);
        self.b.switch_to(tj);
        let vt = self.b.phi(Type::I32, &[(t, v), (then, w)]);
        self.b.jump(j);
        self.b.switch_to(e);
        let ve = self.ops(acc, &body, 1, 1 - flip);
        self.b.jump(j);
        self.b.switch_to(j);
        self.b.phi(Type::I32, &[(tj, vt), (e, ve)])
    }

    /// `rungs` rungs in sequence; the input word is mixed back in after
    /// every join so values stay data-dependent down a long ladder.
    fn ladder(&mut self, mut acc: Value) -> Value {
        for r in 0..self.spec.rungs {
            self.enter_rung(r);
            acc = match self.spec.shape {
                Shape::NestedLadder => self.nested_rung(acc, r),
                Shape::IfThenVsBlock => self.if_then_rung(acc, r),
                _ => {
                    let cond = self.outer_cond();
                    self.diamond(acc, cond, self.spec.arm_len, r % 2, &format!("r{r}"))
                }
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
            self.enter_rung(r);
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

/// Builds one kernel named `name`, drawing its constants from `rng`.
/// Every kernel loads `in[gid]`, runs its shape on the value and stores
/// the result to `out[gid]`.
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
        similar: false,
    };
    let acc = match spec.shape {
        Shape::Ladder | Shape::NestedLadder | Shape::IfThenVsBlock => g.ladder(x),
        Shape::LoopLadder => g.loop_ladder(x),
        Shape::CmpXchg => {
            let partner = g.b.xor(gid, Value::I32(1));
            let pp = g.b.gep(Type::I32, g.b.param(PARAM_IN), partner);
            let y = g.b.load(Type::I32, pp);
            g.cmp_xchg(x, y)
        }
        Shape::Straight => {
            g.enter_rung(0);
            let consts = g.consts(spec.arm_len);
            g.ops(x, &consts, 0, 0)
        }
    };
    let pout = g.b.gep(Type::I32, g.b.param(PARAM_OUT), gid);
    g.b.store(acc, pout);
    g.b.ret(None);
    f
}
