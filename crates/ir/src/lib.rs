#![warn(missing_docs)]

//! # darm-ir
//!
//! A compact SSA intermediate representation modelled on LLVM-IR, carrying
//! exactly the features the DARM control-flow melding transformation
//! (Saumya et al., CGO 2022) relies on:
//!
//! * a control-flow graph of basic blocks with a single terminator each,
//! * SSA values with φ-nodes at control-flow merges,
//! * typed loads/stores through opaque pointers with *address spaces*
//!   (global vs. shared/LDS memory),
//! * GPU intrinsics (`tid.x`, `ctaid.x`, `ntid.x`, `bar.sync`, `ballot`),
//! * a static per-opcode latency cost model (the analogue of LLVM's
//!   `CostModel.cpp`) used by melding profitability and by the SIMT
//!   simulator.
//!
//! Functions are arena-based: [`Function`] owns all blocks and instructions,
//! and [`BlockId`]/[`InstId`]/[`Value`] are small `Copy` handles. A
//! [`Module`] collects named functions for batch compilation — each keeps
//! its own mutation journal, so module-level drivers run incremental
//! per-function pipelines unchanged (and, functions being independent, in
//! parallel).
//!
//! ```
//! use darm_ir::{builder::FunctionBuilder, Function, Type, AddrSpace, IcmpPred, Dim};
//!
//! // if (tid < n) { out[tid] = tid * 2 }
//! let mut f = Function::new(
//!     "example",
//!     vec![Type::I32, Type::Ptr(AddrSpace::Global)],
//!     Type::Void,
//! );
//! let entry = f.entry();
//! let then = f.add_block("then");
//! let exit = f.add_block("exit");
//! let mut b = FunctionBuilder::new(&mut f, entry);
//! let tid = b.thread_idx(Dim::X);
//! let n = b.param(0);
//! let cond = b.icmp(IcmpPred::Slt, tid, n);
//! b.br(cond, then, exit);
//! b.switch_to(then);
//! let two = b.const_i32(2);
//! let v = b.mul(tid, two);
//! let out = b.param(1);
//! let ptr = b.gep(Type::I32, out, tid);
//! b.store(v, ptr);
//! b.jump(exit);
//! b.switch_to(exit);
//! b.ret(None);
//! f.verify_structure().unwrap();
//! ```

pub mod budget;
pub mod builder;
pub mod cost;
pub mod dirty;
pub mod fault;
pub mod function;
pub mod hash;
pub mod module;
pub mod opcode;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;

pub use budget::Budget;
pub use dirty::{JournalCursor, WindowProbe};
pub use function::{
    BlockData, BlockId, Function, FunctionSnapshot, InstData, InstId, IrError, SharedArray,
};
pub use module::{DuplicateFunction, Module};
pub use opcode::{Dim, FcmpPred, IcmpPred, Opcode};
pub use types::{AddrSpace, Type};
pub use value::Value;
