//! Reader for the textual IR form the printer writes.
//!
//! Round-trips with [`Display`](std::fmt::Display): `parse(&f.to_string())`
//! reconstructs an equivalent function. Useful for golden tests and for
//! writing kernels as text.
//!
//! ```
//! use darm_ir::parser::parse_function;
//!
//! let f = parse_function(r#"
//! fn @axpy(ptr(global) %arg0, i32 %arg1) -> void {
//! entry:
//!   %0 = tid.x
//!   %1 = mul %0, %arg1
//!   %2 = gep i32 %arg0, %0
//!   store %1, %2
//!   ret
//! }
//! "#).unwrap();
//! assert_eq!(f.name(), "axpy");
//! assert!(f.verify_structure().is_ok());
//! ```
//!
//! # Grammar
//!
//! The unit is the line. Every line is trimmed; blank lines and lines
//! starting with `//` are skipped wherever they stand. Over the remaining
//! lines, one production per line (`{x}` repeats, `[x]` is optional, `SP`
//! is a space; spaces around `,` and `=` are free):
//!
//! ```text
//! module   = function {function}
//! function = header {shared | label | inst} "}"
//! header   = "fn @" NAME "(" [param {"," param}] ")" "->" type "{"
//! param    = type SP WORD                  (the k-th parameter is %argK whatever WORD says)
//! shared   = "shared" SP NAME ":" "[" UINT " x " type "]"
//! label    = LABEL ":"                     (opens a block; the first one is the entry)
//! inst     = [vname "="] op                (belongs to the last label above it)
//! op       = int2 value "," value          int2 = add sub mul sdiv srem udiv urem and or xor shl lshr ashr
//!          | flt2 value "," value          flt2 = fadd fsub fmul fdiv
//!          | flt1 value                    flt1 = fsqrt fabs fneg fexp
//!          | "sitofp" value | "ballot" value
//!          | "icmp" SP ipred SP value "," value      ipred = eq ne slt sle sgt sge ult ule ugt uge
//!          | "fcmp" SP fpred SP value "," value      fpred = oeq one olt ole ogt oge
//!          | "select" value "," value "," value
//!          | cast SP type SP value         cast = zext sext trunc fptosi
//!          | "load" SP type SP value
//!          | "gep" SP type SP value "," value
//!          | "store" value "," value
//!          | "phi" SP type SP incoming {"," incoming}
//!          | sreg "." dim                  sreg = tid ctaid ntid nctaid, dim = x y
//!          | "shared.base" SP UINT | "bar.sync"
//!          | "jump" SP LABEL | "br" value "," LABEL "," LABEL | "ret" [value]
//! incoming = "[" value "," LABEL "]"
//! value    = vname | "%arg" UINT | "true" | "false" | "undef:" type
//!          | INT | INT "i64" | FLOAT "f" | "f32:0x" HEX8
//! vname    = "%" NAME
//! type     = "void" | "i1" | "i32" | "i64" | "f32" | "ptr(global)" | "ptr(shared)"
//! ```
//!
//! `INT` and `FLOAT` are what `i32`/`i64`/`f32::from_str` accept (so `inff`
//! and `-0.0f` are floats); `f32:0x7fc00001` spells a float by its bits and
//! is how the printer writes NaNs, whose payload no decimal form carries.
//! A `vname` is any `%`-word not starting with `%arg`; the printer writes
//! `%N` with `N` the instruction's arena index, but any name reads. It
//! must be defined exactly once in its function. A `LABEL` or `NAME` is the
//! rest of its field, trimmed.
//!
//! **Forward references.** An operand may name a value, and a `jump`/`br`/φ
//! entry a label, that is defined further down the same function (loop φs,
//! branches to later blocks, blocks printed in an order that is not a
//! dominance order). Nothing may be referenced across functions, `%argK`
//! must be a declared parameter, and `shared.base K` a `shared` line of the
//! function (above or below). Blocks are numbered in label order and
//! instructions in text order.
//!
//! Result types are not written where the operands determine them (the
//! `int2` group and `gep` take operand 0's type, `select` operand 1's); the
//! reader derives them as it goes and, where that operand is a forward
//! reference, when the function closes.

use crate::function::{value_ty_in, BlockData, BlockId, Function, InstData, InstId, SharedArray};
use crate::module::Module;
use crate::opcode::{Dim, FcmpPred, IcmpPred, Opcode};
use crate::types::{AddrSpace, Type};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// A parse failure, with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// The member of `all` that the writer spells `s` — reading by the
/// writer's own tables (`Type::as_str`, the predicates' `mnemonic`).
fn spelled<T: Copy>(all: &[T], spell: fn(T) -> &'static str, s: &str) -> Option<T> {
    all.iter().copied().find(|&t| spell(t) == s)
}

fn parse_type(s: &str, line: usize) -> Result<Type, ParseError> {
    use AddrSpace::{Global, Shared};
    use Type::*;
    let all = [Void, I1, I32, I64, F32, Ptr(Global), Ptr(Shared)];
    spelled(&all, Type::as_str, s).ok_or_else(|| ParseError {
        line,
        message: format!("unknown type `{s}`"),
    })
}

/// Parses a value token that does not start with `%`.
fn parse_const(tok: &str, line: usize) -> Result<Value, ParseError> {
    if let Ok(x) = tok.parse::<i32>() {
        return Ok(Value::I32(x));
    }
    match tok {
        "true" => return Ok(Value::I1(true)),
        "false" => return Ok(Value::I1(false)),
        _ => {}
    }
    if let Some(rest) = tok.strip_prefix("undef:") {
        return Ok(Value::Undef(parse_type(rest, line)?));
    }
    if let Some(hex) = tok.strip_prefix("f32:0x") {
        if hex.len() == 8 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            let bits = u32::from_str_radix(hex, 16).expect("eight hex digits fit a u32");
            return Ok(Value::F32Bits(bits));
        }
    }
    if let Some(x) = tok.strip_suffix("i64").and_then(|r| r.parse().ok()) {
        return Ok(Value::I64(x));
    }
    if let Some(x) = tok.strip_suffix('f').and_then(|r| r.parse().ok()) {
        return Ok(Value::const_f32(x));
    }
    err(line, format!("cannot parse value `{tok}`"))
}

fn parse_icmp_pred(s: &str, line: usize) -> Result<IcmpPred, ParseError> {
    use IcmpPred::*;
    let all = [Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge];
    spelled(&all, IcmpPred::mnemonic, s).ok_or_else(|| ParseError {
        line,
        message: format!("unknown icmp predicate `{s}`"),
    })
}

fn parse_fcmp_pred(s: &str, line: usize) -> Result<FcmpPred, ParseError> {
    use FcmpPred::*;
    let all = [Oeq, One, Olt, Ole, Ogt, Oge];
    spelled(&all, FcmpPred::mnemonic, s).ok_or_else(|| ParseError {
        line,
        message: format!("unknown fcmp predicate `{s}`"),
    })
}

fn parse_dim(s: &str, line: usize) -> Result<Dim, ParseError> {
    spelled(&[Dim::X, Dim::Y], Dim::as_str, s).ok_or_else(|| ParseError {
        line,
        message: format!("unknown dimension `{s}`"),
    })
}

/// `shared NAME : [LEN x TYPE]`, after the `shared ` keyword.
fn parse_shared(decl: &str, line: usize) -> Result<SharedArray, ParseError> {
    let bad = || ParseError {
        line,
        message: "bad shared declaration".into(),
    };
    let (name, rest) = decl.split_once(':').ok_or_else(bad)?;
    let inner = rest
        .trim()
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'));
    let (len_src, ty_src) = inner.and_then(|i| i.split_once(" x ")).ok_or_else(bad)?;
    let len = len_src.trim().parse().map_err(|_| ParseError {
        line,
        message: "bad shared length".into(),
    })?;
    Ok(SharedArray {
        name: name.trim().to_string(),
        elem: parse_type(ty_src.trim(), line)?,
        len,
    })
}

/// `fn @NAME(TYPE WORD, ...) -> TYPE {` into name, parameter types and
/// return type.
fn parse_header(header: &str, line: usize) -> Result<(&str, Vec<Type>, Type), ParseError> {
    let Some(header) = header.strip_prefix("fn @") else {
        return err(line, "expected `fn @name(...)`");
    };
    let Some(open) = header.find('(') else {
        return err(line, "expected `(`");
    };
    // The parenthesis closing the parameter list: pointer types nest one.
    let mut depth = 0usize;
    let close = header[open..].bytes().position(|b| {
        depth += usize::from(b == b'(');
        depth -= usize::from(b == b')');
        depth == 0
    });
    let Some(close) = close.map(|at| open + at) else {
        return err(line, "expected `)`");
    };
    let ret_src = header[close + 1..]
        .trim()
        .strip_prefix("->")
        .and_then(|r| r.trim().strip_suffix('{'));
    let Some(ret_src) = ret_src else {
        return err(line, "expected `-> TYPE {`");
    };
    let ret = parse_type(ret_src.trim(), line)?;
    let mut params = Vec::new();
    let params_src = &header[open + 1..close];
    for (k, p) in params_src
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .enumerate()
    {
        let Some((ty_src, _)) = p.trim().rsplit_once(' ') else {
            return err(line, format!("bad parameter {k}"));
        };
        params.push(parse_type(ty_src.trim(), line)?);
    }
    Ok((&header[..open], params, ret))
}

/// `s` around its first `sep`, an ASCII byte: `str::split_once` without the
/// searcher set-up, which costs more than the scan on fields this short.
fn cut(s: &str, sep: u8) -> Option<(&str, &str)> {
    let at = s.bytes().position(|b| b == sep)?;
    Some((&s[..at], &s[at + 1..]))
}

/// The input's lines, trimmed, without the blank and `//` ones, each with
/// its 1-based number.
struct Lines<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        while !self.rest.is_empty() {
            let (raw, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
            self.rest = rest;
            self.line += 1;
            let l = raw.trim();
            if !l.is_empty() && !l.starts_with("//") {
                return Some((self.line, l));
            }
        }
        None
    }
}

/// `N` of a value name in the printer's form `%N`: decimal, no leading
/// zero, at most nine digits. Such names index [`Reader::dense`]; all
/// others are keys of [`Body::values`].
fn dense_index(name: &str) -> Option<usize> {
    let digits = &name.as_bytes()[1..];
    let canonical = matches!(digits, [b'0'] | [b'1'..=b'9', ..])
        && digits.len() <= 9
        && digits.iter().all(u8::is_ascii_digit);
    canonical.then(|| {
        digits
            .iter()
            .fold(0, |n, &d| n * 10 + usize::from(d - b'0'))
    })
}

/// What of an instruction a forward reference stands in for.
#[derive(Clone, Copy)]
enum Slot {
    Operand(usize),
    Succ(usize),
    PhiBlock(usize),
}

/// A reference to a name not defined yet when its line was read, patched
/// when the function closes.
struct Fixup<'a> {
    inst: usize,
    slot: Slot,
    name: &'a str,
    line: usize,
}

/// Placeholders a [`Fixup`] overwrites. The instruction one is also how an
/// operand is recognised as not known yet: no read instruction has that id.
const FORWARD_INST: InstId = InstId::new(u32::MAX as usize);
const FORWARD_BLOCK: BlockId = BlockId::new(u32::MAX as usize);

/// The operand whose type is the result type of an opcode that does not
/// fix one: the condition of a `select` comes first, its values after.
fn type_source(opcode: Opcode) -> usize {
    usize::from(opcode == Opcode::Select)
}

/// State that outlives one function: the line cursor and the `%N` table.
struct Reader<'a> {
    lines: Lines<'a>,
    /// `dense[N]` is `(stamp, instruction)` of `%N`, valid for the function
    /// whose ordinal is `stamp` — so the table is never cleared, and it
    /// grows at most to `dense_limit` entries over the whole input.
    dense: Vec<(u32, u32)>,
    /// No function has more instructions than the input has bytes / 4
    /// (`ret\n` is the shortest); a larger `%N` goes to the map instead
    /// of sizing a table by a number the input merely states.
    dense_limit: usize,
    stamp: u32,
}

/// One function being read.
struct Body<'a> {
    params: Vec<Type>,
    shared: Vec<SharedArray>,
    blocks: Vec<BlockData>,
    insts: Vec<InstData>,
    /// Value names that are not `%N` (see [`dense_index`]).
    values: HashMap<&'a str, InstId>,
    labels: HashMap<&'a str, BlockId>,
    fixups: Vec<Fixup<'a>>,
    /// Instructions whose type waits on a forward reference, ascending.
    untyped: Vec<InstId>,
    /// `shared.base K` read before `K` arrays were declared: `(K, line)`.
    shared_uses: Vec<(u32, usize)>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Result<Reader<'a>, ParseError> {
        if u32::try_from(text.len()).is_err() {
            return err(0, "input does not fit 32-bit instruction ids");
        }
        Ok(Reader {
            lines: Lines {
                rest: text,
                line: 0,
            },
            dense: Vec::new(),
            dense_limit: text.len() / 4,
            stamp: 0,
        })
    }

    /// Reads one function whose header is line `hline`, through its `}`.
    fn function(&mut self, hline: usize, header: &'a str) -> Result<Function, ParseError> {
        let (name, params, ret) = parse_header(header, hline)?;
        self.stamp += 1;
        let mut body = Body {
            params,
            shared: Vec::new(),
            blocks: Vec::new(),
            insts: Vec::new(),
            values: HashMap::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            untyped: Vec::new(),
            shared_uses: Vec::new(),
        };
        loop {
            let Some((line, l)) = self.lines.next() else {
                return err(hline, "unterminated function (missing `}`)");
            };
            if l == "}" {
                return body.finish(self, name, ret, line);
            } else if let Some(decl) = l.strip_prefix("shared ") {
                body.shared.push(parse_shared(decl, line)?);
            } else if let Some(label) = l.strip_suffix(':') {
                let id = BlockId::new(body.blocks.len());
                if body.labels.insert(label, id).is_some() {
                    return err(line, format!("duplicate block label `{label}`"));
                }
                body.blocks.push(BlockData {
                    name: label.to_string(),
                    insts: Vec::new(),
                });
            } else {
                body.inst(self, l, line)?;
            }
        }
    }
}

impl<'a> Body<'a> {
    fn lookup(&self, rd: &Reader<'a>, name: &str) -> Option<InstId> {
        match dense_index(name) {
            Some(n) if n < rd.dense_limit => match rd.dense.get(n) {
                Some(&(stamp, id)) if stamp == rd.stamp => Some(InstId::new(id as usize)),
                _ => None,
            },
            _ => self.values.get(name).copied(),
        }
    }

    /// Binds `name` to `id`; false if the function already defines it.
    fn define(&mut self, rd: &mut Reader<'a>, name: &'a str, id: InstId) -> bool {
        match dense_index(name) {
            Some(n) if n < rd.dense_limit => {
                if n >= rd.dense.len() {
                    rd.dense.resize(n + 1, (0, 0));
                }
                let fresh = rd.dense[n].0 != rd.stamp;
                rd.dense[n] = (rd.stamp, id.index() as u32);
                fresh
            }
            _ => self.values.insert(name, id).is_none(),
        }
    }

    /// Parses an operand of the instruction being read (it will be
    /// `insts[insts.len()]`); `slot` is where a forward reference lands.
    fn value(
        &mut self,
        rd: &Reader<'a>,
        tok: &'a str,
        slot: Slot,
        line: usize,
    ) -> Result<Value, ParseError> {
        if let Some(index) = tok.strip_prefix("%arg") {
            return match index.parse::<u32>() {
                Ok(i) if (i as usize) < self.params.len() => Ok(Value::Param(i)),
                Ok(_) => err(line, format!("undefined parameter `{tok}`")),
                Err(_) => err(line, format!("bad parameter `{tok}`")),
            };
        }
        if !tok.starts_with('%') {
            return parse_const(tok, line);
        }
        Ok(match self.lookup(rd, tok) {
            Some(id) => Value::Inst(id),
            None => {
                self.forward(slot, tok, line);
                Value::Inst(FORWARD_INST)
            }
        })
    }

    fn block(&mut self, label: &'a str, slot: Slot, line: usize) -> BlockId {
        self.labels.get(label).copied().unwrap_or_else(|| {
            self.forward(slot, label, line);
            FORWARD_BLOCK
        })
    }

    fn forward(&mut self, slot: Slot, name: &'a str, line: usize) {
        self.fixups.push(Fixup {
            inst: self.insts.len(),
            slot,
            name,
            line,
        });
    }

    /// Parses exactly `count` comma-separated operands.
    fn operands(
        &mut self,
        rd: &Reader<'a>,
        list: &'a str,
        count: usize,
        mnemonic: &str,
        line: usize,
    ) -> Result<Vec<Value>, ParseError> {
        let mut list = list.strip_suffix(',').unwrap_or(list);
        let mut ops = Vec::with_capacity(count);
        let mut got = 0;
        while !list.is_empty() {
            let (tok, more) = cut(list, b',').unwrap_or((list, ""));
            if got < count {
                ops.push(self.value(rd, tok.trim(), Slot::Operand(got), line)?);
            }
            got += 1;
            list = more;
        }
        if got != count {
            return err(
                line,
                format!("{mnemonic} expects {count} operands, got {got}"),
            );
        }
        Ok(ops)
    }

    /// Reads one instruction line into the current block.
    fn inst(&mut self, rd: &mut Reader<'a>, l: &'a str, line: usize) -> Result<(), ParseError> {
        let Some(block) = self.blocks.len().checked_sub(1) else {
            return err(line, "instruction before any block label");
        };
        // `%NAME = OP ...` or `OP ...`
        let assign = l.starts_with('%').then(|| cut(l, b'=')).flatten();
        let (result, body) = match assign {
            Some((lhs, rhs)) if !lhs.trim_end().contains(' ') => {
                (Some(lhs.trim_end()), rhs.trim_start())
            }
            _ => (None, l),
        };
        let (mnemonic, rest) = cut(body, b' ').unwrap_or((body, ""));
        let mut data = self.inst_data(rd, mnemonic, rest.trim_start(), line)?;
        data.block = BlockId::new(block);
        let id = InstId::new(self.insts.len());
        if let Some(name) = result {
            if !self.define(rd, name, id) {
                return err(line, format!("duplicate value `{name}`"));
            }
        }
        self.blocks[block].insts.push(id);
        self.insts.push(data);
        Ok(())
    }

    fn inst_data(
        &mut self,
        rd: &Reader<'a>,
        mnemonic: &'a str,
        rest: &'a str,
        line: usize,
    ) -> Result<InstData, ParseError> {
        use Opcode::*;
        // `WORD REST` → (WORD, REST), for the forms with a type or a
        // predicate between mnemonic and operands.
        let word = |what: &str| {
            cut(rest, b' ').ok_or_else(|| ParseError {
                line,
                message: format!("{mnemonic} expects {what}"),
            })
        };
        // The result type, unless an operand gives it (`type_source`); how
        // many operands; and where their list starts.
        let (opcode, ty, count, list) = match mnemonic {
            "jump" => {
                let target = self.block(rest, Slot::Succ(0), line);
                return Ok(InstData::terminator(Jump, vec![], vec![target]));
            }
            "br" => {
                let mut parts = rest.split(',').map(str::trim);
                let (Some(c), Some(t), Some(e), None) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return err(line, "br expects `cond, then, else`");
                };
                let cond = self.value(rd, c, Slot::Operand(0), line)?;
                let succs = vec![
                    self.block(t, Slot::Succ(0), line),
                    self.block(e, Slot::Succ(1), line),
                ];
                return Ok(InstData::terminator(Br, vec![cond], succs));
            }
            "ret" => {
                let ops = match rest {
                    "" => vec![],
                    v => vec![self.value(rd, v, Slot::Operand(0), line)?],
                };
                return Ok(InstData::terminator(Ret, ops, vec![]));
            }
            "phi" => {
                let (ty_src, mut list) = word("a type")?;
                let entries = list.bytes().filter(|&b| b == b'[').count();
                let mut data = InstData::new(Phi, parse_type(ty_src, line)?, vec![]);
                data.operands.reserve_exact(entries);
                data.phi_blocks.reserve_exact(entries);
                loop {
                    let entry = list.trim_start().strip_prefix('[');
                    let Some(((v, blk), after)) = entry
                        .and_then(|e| cut(e, b']'))
                        .and_then(|(e, after)| Some((cut(e, b',')?, after)))
                    else {
                        return err(line, format!("bad phi entry `{}`", list.trim()));
                    };
                    let k = data.operands.len();
                    let v = self.value(rd, v.trim(), Slot::Operand(k), line)?;
                    data.operands.push(v);
                    let pred = self.block(blk.trim(), Slot::PhiBlock(k), line);
                    data.phi_blocks.push(pred);
                    match after.trim_start().strip_prefix(',') {
                        Some(more) if !more.trim().is_empty() => list = more,
                        None if !after.trim().is_empty() => {
                            return err(line, format!("bad phi entry `{}`", after.trim()));
                        }
                        _ => return Ok(data),
                    }
                }
            }
            "add" => (Add, None, 2, rest),
            "sub" => (Sub, None, 2, rest),
            "mul" => (Mul, None, 2, rest),
            "sdiv" => (SDiv, None, 2, rest),
            "srem" => (SRem, None, 2, rest),
            "udiv" => (UDiv, None, 2, rest),
            "urem" => (URem, None, 2, rest),
            "and" => (And, None, 2, rest),
            "or" => (Or, None, 2, rest),
            "xor" => (Xor, None, 2, rest),
            "shl" => (Shl, None, 2, rest),
            "lshr" => (LShr, None, 2, rest),
            "ashr" => (AShr, None, 2, rest),
            "fadd" => (FAdd, Some(Type::F32), 2, rest),
            "fsub" => (FSub, Some(Type::F32), 2, rest),
            "fmul" => (FMul, Some(Type::F32), 2, rest),
            "fdiv" => (FDiv, Some(Type::F32), 2, rest),
            "fsqrt" => (FSqrt, Some(Type::F32), 1, rest),
            "fabs" => (FAbs, Some(Type::F32), 1, rest),
            "fneg" => (FNeg, Some(Type::F32), 1, rest),
            "fexp" => (FExp, Some(Type::F32), 1, rest),
            "sitofp" => (SiToFp, Some(Type::F32), 1, rest),
            "select" => (Select, None, 3, rest),
            "store" => (Store, Some(Type::Void), 2, rest),
            "ballot" => (Ballot, Some(Type::I64), 1, rest),
            "bar.sync" => (Syncthreads, Some(Type::Void), 0, rest),
            "load" | "zext" | "sext" | "trunc" | "fptosi" => {
                let (ty_src, list) = word("a type")?;
                let opcode = match mnemonic {
                    "load" => Load,
                    "zext" => Zext,
                    "sext" => Sext,
                    "trunc" => Trunc,
                    _ => FpToSi,
                };
                (opcode, Some(parse_type(ty_src, line)?), 1, list)
            }
            "gep" => {
                let (ty_src, list) = word("an element type")?;
                let elem = parse_type(ty_src, line)?;
                (Gep { elem }, None, 2, list)
            }
            "icmp" => {
                let (pred, list) = word("a predicate")?;
                (Icmp(parse_icmp_pred(pred, line)?), Some(Type::I1), 2, list)
            }
            "fcmp" => {
                let (pred, list) = word("a predicate")?;
                (Fcmp(parse_fcmp_pred(pred, line)?), Some(Type::I1), 2, list)
            }
            "shared.base" => {
                let Ok(index) = rest.parse::<u32>() else {
                    return err(line, "bad shared.base index");
                };
                if index as usize >= self.shared.len() {
                    self.shared_uses.push((index, line));
                }
                let ty = Some(Type::Ptr(AddrSpace::Shared));
                (SharedBase(index), ty, 0, "")
            }
            other => {
                let opcode = match other.split_once('.') {
                    Some(("tid", d)) => ThreadIdx(parse_dim(d, line)?),
                    Some(("ctaid", d)) => BlockIdx(parse_dim(d, line)?),
                    Some(("ntid", d)) => BlockDim(parse_dim(d, line)?),
                    Some(("nctaid", d)) => GridDim(parse_dim(d, line)?),
                    _ => return err(line, format!("unknown instruction `{other}`")),
                };
                (opcode, Some(Type::I32), 0, rest)
            }
        };
        let operands = self.operands(rd, list, count, mnemonic, line)?;
        let ty = match ty {
            Some(ty) => ty,
            None => match operands[type_source(opcode)] {
                // A forward reference, or a read instruction itself
                // waiting on one: typed by `resolve_types`, until then
                // (and for good on a cycle) with the placeholder.
                Value::Inst(def)
                    if def == FORWARD_INST || self.untyped.binary_search(&def).is_ok() =>
                {
                    self.untyped.push(InstId::new(self.insts.len()));
                    match opcode {
                        Gep { .. } => Type::Ptr(AddrSpace::Global),
                        _ => Type::I32,
                    }
                }
                v => value_ty_in(&self.params, &self.insts, v),
            },
        };
        Ok(InstData::new(opcode, ty, operands))
    }

    /// Types the instructions of `untyped`, each from the operand that
    /// was unknown or itself untyped when its line was read. A chain of
    /// them is walked once from wherever it is entered; one that closes
    /// on itself (not valid SSA: the verifier rejects it) keeps the
    /// placeholders.
    fn resolve_types(&mut self) {
        const WAITING: u8 = 0;
        const ON_CHAIN: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![WAITING; self.untyped.len()];
        let mut chain = Vec::new();
        for start in 0..self.untyped.len() {
            if state[start] != WAITING {
                continue;
            }
            let mut at = start;
            let ty = loop {
                state[at] = ON_CHAIN;
                chain.push(at);
                let inst = &self.insts[self.untyped[at].index()];
                let source = inst.operands[type_source(inst.opcode)];
                let next = source
                    .as_inst()
                    .and_then(|def| self.untyped.binary_search(&def).ok());
                match next {
                    Some(next) if state[next] == WAITING => at = next,
                    Some(next) if state[next] == ON_CHAIN => break None,
                    _ => break Some(value_ty_in(&self.params, &self.insts, source)),
                }
            };
            for at in chain.drain(..) {
                state[at] = DONE;
                if let Some(ty) = ty {
                    self.insts[self.untyped[at].index()].ty = ty;
                }
            }
        }
    }

    /// Closes the function at its `}` on `line`: patches the forward
    /// references, types what waited on them, and assembles the arenas.
    fn finish(
        mut self,
        rd: &Reader<'a>,
        name: &str,
        ret: Type,
        line: usize,
    ) -> Result<Function, ParseError> {
        for fixup in std::mem::take(&mut self.fixups) {
            let Fixup {
                inst,
                slot,
                name: target,
                line,
            } = fixup;
            let block = || {
                self.labels.get(target).copied().ok_or_else(|| ParseError {
                    line,
                    message: format!("unknown block `{target}`"),
                })
            };
            match slot {
                Slot::Operand(k) => {
                    let Some(def) = self.lookup(rd, target) else {
                        return err(line, format!("undefined value `{target}`"));
                    };
                    self.insts[inst].operands[k] = Value::Inst(def);
                }
                Slot::Succ(k) => self.insts[inst].succs[k] = block()?,
                Slot::PhiBlock(k) => self.insts[inst].phi_blocks[k] = block()?,
            }
        }
        self.resolve_types();
        if let Some(&(index, line)) = self
            .shared_uses
            .iter()
            .find(|&&(index, _)| index as usize >= self.shared.len())
        {
            return err(line, format!("shared array {index} not declared"));
        }
        if self.blocks.is_empty() {
            return err(line, format!("function `@{name}` has no blocks"));
        }
        Ok(Function::from_parts(
            name,
            self.params,
            ret,
            self.shared,
            self.blocks,
            self.insts,
        ))
    }
}

/// Parses the textual form of a single function.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input, and on
/// anything but blank and comment lines after the function's `}`.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut reader = Reader::new(text)?;
    let Some((line, header)) = reader.lines.next() else {
        return err(0, "empty input");
    };
    let func = reader.function(line, header)?;
    match reader.lines.next() {
        None => Ok(func),
        Some((line, l)) => err(line, format!("expected end of input, found `{l}`")),
    }
}

/// Parses the textual form of a module: one or more `fn @name(...)` bodies
/// (see the [module docs](self) for the syntax), in file order. Line
/// numbers in errors refer to the whole input.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, input containing no
/// function, or duplicate function names.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut reader = Reader::new(text)?;
    let mut functions = Vec::new();
    // Names seen so far, borrowed from the header lines: one probe per
    // function, where `Module::add_function` would compare with every
    // earlier name.
    let mut seen: HashSet<&str> = HashSet::new();
    while let Some((line, l)) = reader.lines.next() {
        let Some(header) = l.strip_prefix("fn @") else {
            return err(line, format!("expected `fn @name(...)`, found `{l}`"));
        };
        let func = reader.function(line, l)?;
        if !seen.insert(&header[..func.name().len()]) {
            return err(line, format!("duplicate function `@{}`", func.name()));
        }
        functions.push(func);
    }
    if functions.is_empty() {
        return err(0, "empty input");
    }
    Ok(Module::from_functions("module", functions).expect("names checked unique above"))
}

/// [`parse_module`] followed by structural verification of every function
/// — the module analogue of [`parse_and_verify`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax; structural errors surface
/// with line 0 and the offending function's name.
pub fn parse_and_verify_module(text: &str) -> Result<Module, ParseError> {
    let module = parse_module(text)?;
    for func in module.functions() {
        func.verify_structure().map_err(|e| ParseError {
            line: 0,
            message: format!("@{}: verification failed: {e}", func.name()),
        })?;
    }
    Ok(module)
}

/// [`parse_function`] followed by structural verification.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax; type errors surface via
/// the structural verifier with line 0.
pub fn parse_and_verify(text: &str) -> Result<Function, ParseError> {
    let func = parse_function(text)?;
    func.verify_structure().map_err(|e| ParseError {
        line: 0,
        message: format!("verification failed: {e}"),
    })?;
    Ok(func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn parses_simple_kernel() {
        let f = parse_and_verify(
            r#"
fn @k(ptr(global) %arg0, i32 %arg1) -> void {
entry:
  %0 = tid.x
  %1 = icmp slt %0, %arg1
  br %1, t, x
t:
  %2 = mul %0, 2
  %3 = gep i32 %arg0, %0
  store %2, %3
  jump x
x:
  ret
}
"#,
        )
        .unwrap();
        assert_eq!(f.name(), "k");
        assert_eq!(f.block_ids().len(), 3);
        assert_eq!(f.params().len(), 2);
    }

    #[test]
    fn parses_phis_and_loops() {
        let f = parse_and_verify(
            r#"
fn @sum(i32 %arg0) -> i32 {
entry:
  jump hdr
hdr:
  %0 = phi i32 [0, entry], [%3, body]
  %1 = phi i32 [0, entry], [%4, body]
  %2 = icmp slt %0, %arg0
  br %2, body, exit
body:
  %3 = add %0, 1
  %4 = add %1, %0
  jump hdr
exit:
  ret %1
}
"#,
        )
        .unwrap();
        assert_eq!(f.block_ids().len(), 4);
    }

    #[test]
    fn parses_shared_memory_and_floats() {
        let f = parse_and_verify(
            r#"
fn @s() -> void {
  shared tile : [64 x f32]
entry:
  %0 = shared.base 0
  %1 = tid.x
  %2 = gep f32 %0, %1
  %3 = load f32 %2
  %4 = fadd %3, 1.5f
  store %4, %2
  bar.sync
  ret
}
"#,
        )
        .unwrap();
        assert_eq!(f.shared_arrays()[0].len, 64);
    }

    #[test]
    fn round_trips_printer_output() {
        // Build a function with diverse constructs, print it, parse it, and
        // compare the reprints.
        let mut f = Function::new(
            "rt",
            vec![Type::Ptr(AddrSpace::Global), Type::I32],
            Type::I32,
        );
        let sh = f.add_shared_array("t", Type::I32, 32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let base = b.shared_base(sh);
        let sp = b.gep(Type::I32, base, tid);
        let v = b.load(Type::I32, sp);
        let c = b.icmp(IcmpPred::Slt, v, b.param(1));
        b.br(c, t, e);
        b.switch_to(t);
        let a = b.add(v, b.const_i32(1));
        let wide = b.sext(a, Type::I64);
        let back = b.trunc(wide, Type::I32);
        b.jump(x);
        b.switch_to(e);
        let m = b.select(c, v, b.const_i32(7));
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, back), (e, m)]);
        b.ret(Some(p));

        let printed = f.to_string();
        let reparsed = parse_and_verify(&printed)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\n{printed}"));
        assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e =
            parse_function("fn @x() -> void {\nentry:\n  %0 = bogus 1, 2\n  ret\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn undefined_value_is_an_error() {
        let e = parse_function("fn @x() -> void {\nentry:\n  store %9, %9\n  ret\n}").unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn unknown_block_is_an_error() {
        let e = parse_function("fn @x() -> void {\nentry:\n  jump nowhere\n}").unwrap_err();
        assert!(e.message.contains("unknown block"));
    }

    /// Three one-line inputs that panicked the line/`String` reader.
    #[test]
    fn former_panics_are_typed_errors_with_lines() {
        // φ naming a block that is never defined (was `blocks[label]`).
        let e = parse_function("fn @x() -> void {\nentry:\n  %0 = phi i32 [0, nowhere]\n  ret\n}")
            .unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "unknown block `nowhere`"));
        // A parameter the header does not declare (was an index panic in
        // the type fix-up).
        let e = parse_and_verify("fn @x() -> void {\nentry:\n  %0 = add %arg9, 1\n  ret\n}")
            .unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (3, "undefined parameter `%arg9`")
        );
        // `)` before `(` in the header (was a reversed slice).
        let e = parse_function("\nfn @x)( -> void {\nentry:\n  ret\n}").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "expected `)`"));
    }

    #[test]
    fn huge_decimal_names_go_to_the_map() {
        // `%4294967295` must not size the dense `%N` table.
        let f = parse_and_verify(
            "fn @x() -> i32 {\nentry:\n  %4294967295 = add 1, 2\n  ret %4294967295\n}",
        )
        .unwrap();
        assert_eq!(
            f.to_string(),
            "fn @x() -> i32 {\nentry:\n  %0 = add 1, 2\n  ret %0\n}\n"
        );
        // Names that are not the printer's: leading zeros are distinct
        // names, and anything after `%` reads.
        let f = parse_and_verify(
            "fn @x() -> i32 {\ne:\n  %007 = add 1, 2\n  %7 = add %007, 1\n  %a.b = add %7, %007\n  ret %a.b\n}",
        )
        .unwrap();
        assert!(f.to_string().contains("%2 = add %1, %0"), "{f}");
    }

    #[test]
    fn f32_constants_round_trip_bit_exactly() {
        for bits in [
            0x8000_0000u32, // -0.0
            0x7f80_0000,    // +inf
            0xff80_0000,    // -inf
            0x7fc0_0000,    // the canonical quiet NaN
            0x7fc0_0001,    // a NaN with a payload
            0xffa5_a5a5,    // a negative signalling NaN
            0x0000_0001,    // the smallest denormal
            0x3fc0_0000,    // 1.5
        ] {
            let text = format!(
                "fn @x() -> f32 {{\nentry:\n  %0 = fneg {}\n  ret %0\n}}\n",
                Value::F32Bits(bits)
            );
            let f = parse_and_verify(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            let id = f.insts_of(f.entry())[0];
            assert_eq!(f.inst(id).operands, [Value::F32Bits(bits)], "{text}");
            assert_eq!(f.to_string(), text);
        }
        assert!(parse_function("fn @x() -> void {\ne:\n  %0 = fneg f32:0x7fc0001\n}").is_err());
    }

    #[test]
    fn forward_references_type_their_users() {
        // `a` is printed before `b`, which dominates it: `%0` takes its
        // type from a value defined further down, `%1` from `%0`.
        let f = parse_and_verify(
            r#"
fn @f(i64 %arg0, ptr(shared) %arg1) -> i64 {
entry:
  jump b
a:
  %0 = add %5, %5
  %1 = select true, %0, %0
  %2 = gep i32 %6, %1
  %3 = gep i32 %2, 1
  store 1, %3
  ret %1
b:
  %5 = add %arg0, 1i64
  %6 = gep i32 %arg1, %5
  jump a
}
"#,
        )
        .unwrap();
        let tys: Vec<Type> = f.insts_of(BlockId::new(1))[..4]
            .iter()
            .map(|&id| f.inst(id).ty)
            .collect();
        let shared = Type::Ptr(AddrSpace::Shared);
        assert_eq!(tys, [Type::I64, Type::I64, shared, shared]);
    }

    #[test]
    fn type_chains_resolve_in_linear_time_and_cycles_terminate() {
        // Every line waits on the next one: the whole-function fixpoint
        // this replaced needed one sweep per line.
        const N: usize = 20_000;
        let mut text = String::from("fn @chain(i64 %arg0) -> void {\nentry:\n");
        for k in 0..N {
            text.push_str(&format!("  %{k} = add %{}, %{}\n", k + 1, k + 1));
        }
        text.push_str(&format!("  %{N} = add %arg0, %arg0\n  ret\n}}\n"));
        let f = parse_function(&text).unwrap();
        assert!(f
            .insts_of(f.entry())
            .iter()
            .all(|&id| f.inst(id).opcode != Opcode::Add || f.inst(id).ty == Type::I64));
        // Not SSA, but it must parse to something the verifiers reject.
        let cyclic =
            "fn @c() -> void {\ne:\n  %0 = add %1, 1\n  %1 = add %0, 1\n  %2 = add %2, 1\n  ret\n}";
        assert!(parse_and_verify(cyclic).is_ok());
    }

    #[test]
    fn redefinitions_and_stray_references_are_errors() {
        let e = parse_function("fn @x() -> void {\ne:\n  %0 = tid.x\n  %0 = tid.y\n  ret\n}")
            .unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "duplicate value `%0`"));
        // A value of the previous function is not visible in the next.
        let two = "fn @a() -> void {\ne:\n  %0 = tid.x\n  ret\n}\nfn @b() -> void {\ne:\n  %1 = add %0, 1\n  ret\n}\n";
        let e = parse_module(two).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (8, "undefined value `%0`"));
        // `shared.base` may precede its declaration, but needs one.
        let late = "fn @s() -> void {\ne:\n  %0 = shared.base 0\n  ret\n  shared t : [4 x i32]\n}";
        assert!(parse_and_verify(late).is_ok());
        let e =
            parse_function("fn @s() -> void {\ne:\n  %0 = shared.base 1\n  ret\n}").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (3, "shared array 1 not declared")
        );
        let e = parse_function("fn @x() -> void {\ne:\n  ret\n}\nret").unwrap_err();
        assert_eq!(e.line, 5);
        let e = parse_function("fn @x() -> void {\n}").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "function `@x` has no blocks")
        );
        let e = parse_function("fn @x() -> void {\ne:\n  store 1\n}").unwrap_err();
        assert_eq!(e.message, "store expects 2 operands, got 1");
    }

    const TWO_FUNCS: &str = r#"
// a module of two kernels
fn @a(i32 %arg0) -> i32 {
entry:
  %0 = add %arg0, 1
  ret %0
}

fn @b() -> void {
entry:
  ret
}
"#;

    #[test]
    fn parses_modules_and_round_trips() {
        let m = parse_and_verify_module(TWO_FUNCS).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.functions()[0].name(), "a");
        assert_eq!(m.functions()[1].name(), "b");
        let printed = m.to_string();
        let reparsed = parse_and_verify_module(&printed).unwrap();
        assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn single_function_file_is_a_module_of_one() {
        let m = parse_module("fn @solo() -> void {\nentry:\n  ret\n}").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.functions()[0].name(), "solo");
    }

    #[test]
    fn module_errors_carry_absolute_line_numbers() {
        // The bad instruction sits on line 8 of the whole file, inside the
        // second function.
        let text = "fn @a() -> void {\nentry:\n  ret\n}\n\nfn @b() -> void {\nentry:\n  %0 = bogus 1\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(e.message.contains("bogus"));
    }

    fn trivial_module(names: &[&str]) -> String {
        names
            .iter()
            .map(|n| format!("fn @{n}() -> void {{\nentry:\n  ret\n}}\n"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn module_rejects_duplicates_and_stray_text() {
        // Whichever earlier name the last function repeats — the first, a
        // middle one or its neighbour — the error is typed and carries the
        // repeating header's line (functions are 5 lines apart).
        for dup in ["a", "b", "c"] {
            let e = parse_module(&trivial_module(&["a", "b", "c", dup])).unwrap_err();
            assert_eq!(e.line, 16, "{e}");
            assert_eq!(e.message, format!("duplicate function `@{dup}`"));
        }
        let stray = "wat\nfn @a() -> void {\nentry:\n  ret\n}\n";
        let e = parse_module(stray).unwrap_err();
        assert_eq!(e.line, 1);
        let unterminated = "fn @a() -> void {\nentry:\n  ret\n";
        let e = parse_module(unterminated).unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
    }

    /// Duplicate detection is one hash probe per function: a module of
    /// 50 000 functions (a third of what fits one 4 MiB serve frame) reads
    /// and re-prints identically well inside a test run, where comparing
    /// each name with every earlier one took 1.25 × 10⁹ string compares.
    #[test]
    fn fifty_thousand_functions_round_trip() {
        let names: Vec<String> = (0..50_000).map(|i| format!("f{i}")).collect();
        let text = trivial_module(&names.iter().map(String::as_str).collect::<Vec<_>>());
        let module = parse_module(&text).unwrap();
        assert_eq!(module.len(), names.len());
        assert_eq!(module.to_string(), text);
        let repeated = format!("{text}\n{}", trivial_module(&["f25000"]));
        let e = parse_module(&repeated).unwrap_err();
        assert_eq!(e.message, "duplicate function `@f25000`");
    }
}
