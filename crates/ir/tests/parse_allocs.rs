//! Counting guards for the text boundary, in the style of
//! `crates/melding/tests/ladder_complexity.rs`: heap allocations are
//! counted, not timed. The reader may allocate what the `Function` it
//! returns owns (an operand vector per instruction, successor and φ lists,
//! a name and an instruction list per block) plus amortised table growth —
//! not a `String` per token, which is what it used to cost. The writer,
//! streaming into a hasher, may allocate nothing.

use darm_ir::builder::FunctionBuilder;
use darm_ir::hash::fnv1a_64;
use darm_ir::parser::parse_function;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(calls, bytes)` this thread asked the allocator for. Per thread,
    /// so tests running side by side do not count each other.
    static REQUESTED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = REQUESTED.try_with(|r| {
        let (calls, total) = r.get();
        r.set((calls + 1, total + bytes));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a `Cell` in
// thread-local storage that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result with the allocator calls and bytes it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, bytes) = REQUESTED.get();
    let out = f();
    let (calls_after, bytes_after) = REQUESTED.get();
    (out, calls_after - calls, bytes_after - bytes)
}

/// `out[tid] = f_{N-1}(… f_0(in[tid]))`, each `f_r` a diamond on one bit
/// of the thread id: 14 instructions and 3 blocks per rung, a φ at every
/// join and a forward branch out of every block.
fn ladder(rungs: usize) -> Function {
    let ptr = Type::Ptr(AddrSpace::Global);
    let mut f = Function::new("ladder", vec![ptr, ptr], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let src = b.gep(Type::I32, b.param(1), tid);
    let x = b.load(Type::I32, src);
    let mut acc = x;
    for r in 0..rungs {
        let k = r as i32;
        let bit = b.lshr(tid, Value::I32(k % 5));
        let bit = b.and(bit, Value::I32(1));
        let cond = b.icmp(IcmpPred::Ne, bit, Value::I32(0));
        let t = b.add_block(&format!("r{r}.t"));
        let e = b.add_block(&format!("r{r}.e"));
        let j = b.add_block(&format!("r{r}.j"));
        b.br(cond, t, e);
        let mut arms = Vec::new();
        for (arm, side) in [(t, 0), (e, 1)] {
            b.switch_to(arm);
            let v = b.mul(acc, Value::I32(3 + 2 * side));
            let v = b.add(v, Value::I32(7 * k + side + 1));
            let v = b.xor(v, Value::I32(11 + k + 13 * side));
            b.jump(j);
            arms.push((arm, v));
        }
        b.switch_to(j);
        let joined = b.phi(Type::I32, &arms);
        acc = b.add(joined, x);
    }
    let dst = b.gep(Type::I32, b.param(0), tid);
    b.store(acc, dst);
    b.ret(None);
    f
}

#[test]
fn parsing_allocates_at_most_four_times_per_instruction() {
    let text = ladder(145).to_string();
    let (parsed, calls, _) = counted(|| parse_function(&text).expect("the ladder parses"));
    let insts = parsed.live_inst_count();
    assert!(insts >= 2000, "{insts} instructions");
    assert!(
        calls <= 4 * insts,
        "{calls} allocations for {insts} instructions ({:.2} each)",
        calls as f64 / insts as f64
    );
    assert_eq!(parsed.to_string(), text);
}

#[test]
fn content_hash_allocates_nothing() {
    let f = ladder(145);
    let (hash, calls, _) = counted(|| f.content_hash());
    assert_eq!(calls, 0, "hashing a function allocated");
    assert_eq!(hash, fnv1a_64(f.to_string().as_bytes()));
}

/// `%4294967295` is a name, not a size: the dense `%N` table is bounded
/// by the length of the input, whatever number the input states.
#[test]
fn a_huge_decimal_name_allocates_like_any_other() {
    let parse = |name: &str| {
        let text = format!("fn @x() -> i32 {{\nentry:\n  {name} = add 1, 2\n  ret {name}\n}}\n");
        let (parsed, _, bytes) = counted(|| parse_function(&text));
        parsed
            .expect("parses")
            .verify_structure()
            .expect("verifies");
        bytes
    };
    let plain = parse("%0");
    for huge in ["%4294967295", "%999999999", "%18446744073709551616"] {
        let bytes = parse(huge);
        assert!(
            bytes <= plain + 4096,
            "{huge}: {bytes} bytes allocated, {plain} for %0"
        );
    }
}
