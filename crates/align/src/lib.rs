#![warn(missing_docs)]

//! # darm-align
//!
//! Sequence alignment and melding profitability — the quantitative half of
//! DARM's analysis phase (§IV-C of the paper):
//!
//! * [`seq`] — generic Needleman–Wunsch alignment used for both subgraph
//!   alignment and instruction alignment,
//! * [`compat`] — instruction melding compatibility in the style of Rocha
//!   et al. (same opcode, compatible operand types, matching address
//!   spaces for memory operations),
//! * [`profit`] — the `MP_B` (basic-block) and `MP_S` (subgraph) melding
//!   profitability metrics,
//! * [`instr`] — latency-prioritized instruction alignment of two basic
//!   blocks (the Branch Fusion approach the paper adopts).

pub mod compat;
pub mod instr;
pub mod profit;
pub mod seq;

pub use compat::{inst_kind, meldable_insts, InstKind};
pub use instr::{align_block_instructions, align_bodies, body_insts, BlockAlignment};
pub use profit::{block_melding_profit, subgraph_melding_profit};
pub use seq::{global_align, AlignStep};
