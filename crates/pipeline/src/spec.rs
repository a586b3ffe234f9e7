//! The pipeline-spec language: pass names with `key=value` parameters and
//! nested `fixpoint(...)` groups.
//!
//! ```text
//! spec     := elem (',' elem)*
//! elem     := 'fixpoint' '(' item (',' item)* ')'   -- a fixpoint group
//!           | NAME [ '(' param (',' param)* ')' ]   -- one pass
//! item     := 'max' '=' INT                         -- group iteration cap
//!           | elem
//! param    := KEY '=' VALUE
//! ```
//!
//! `NAME`/`KEY`/`VALUE` are bare words over `[A-Za-z0-9_.-]` (so numbers
//! like `0.3` need no quoting); whitespace is insignificant. Flat name
//! lists — the pre-grammar spec form, `"simplify,meld,dce"` — parse
//! unchanged. Examples:
//!
//! ```text
//! meld(threshold=0.3),fixpoint(simplify,dce)
//! meld-bf,fixpoint(instcombine,dce,max=4)
//! fixpoint(simplify,fixpoint(instcombine,dce))
//! ```
//!
//! [`PassSpec::parse`] produces the AST; rendering it (via
//! [`Display`](std::fmt::Display)) is canonical and round-trips:
//! `parse(render(spec)) == spec`. Errors are positioned — a [`SpecError`]
//! carries the byte span of the offending token and what was expected
//! there.
//!
//! Parameter *keys* are validated later, when a
//! [`PassRegistry`](crate::PassRegistry) instantiates the spec — the
//! grammar does not know which keys a pass accepts.

use std::fmt;

/// A positioned spec parse error: what was found at `span`, what the
/// grammar expected instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Byte span `[start, end)` of the offending token (empty at end of
    /// input).
    pub span: (usize, usize),
    /// Rendering of the offending token, or `"end of spec"`.
    pub found: String,
    /// What the grammar expected at that position.
    pub expected: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at {}..{}: expected {}, found {}",
            self.span.0, self.span.1, self.expected, self.found
        )
    }
}

impl std::error::Error for SpecError {}

/// One element of a pipeline spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecElem {
    /// A single pass invocation with its `key=value` parameters, in spec
    /// order.
    Pass {
        /// Registered pass name.
        name: String,
        /// `key=value` parameters, in written order.
        params: Vec<(String, String)>,
    },
    /// A `fixpoint(...)` group: the inner sequence re-runs until a full
    /// round changes nothing (or `max` rounds have run).
    Fixpoint {
        /// Inner elements, in order.
        elems: Vec<SpecElem>,
        /// Optional iteration cap (`max=N`).
        max: Option<usize>,
    },
}

/// A parsed pipeline spec: a sequence of [`SpecElem`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSpec {
    /// Top-level elements, in pipeline order.
    pub elems: Vec<SpecElem>,
}

// ---- rendering (canonical form) ----

impl fmt::Display for SpecElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecElem::Pass { name, params } => {
                write!(f, "{name}")?;
                if !params.is_empty() {
                    write!(f, "(")?;
                    for (i, (k, v)) in params.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{k}={v}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            SpecElem::Fixpoint { elems, max } => {
                write!(f, "fixpoint(")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                if let Some(m) = max {
                    write!(f, ",max={m}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for PassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

// ---- lexer ----

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    LParen,
    RParen,
    Comma,
    Eq,
}

impl Tok {
    fn render(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Eq => "`=`".into(),
        }
    }
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
}

/// A token plus its byte span in the source.
type SpannedTok = (Tok, (usize, usize));

fn lex(src: &str) -> Result<Vec<SpannedTok>, SpecError> {
    let mut toks = Vec::new();
    let mut it = src.char_indices().peekable();
    while let Some(&(i, c)) = it.peek() {
        if c.is_whitespace() {
            it.next();
            continue;
        }
        let tok = match c {
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            ',' => Some(Tok::Comma),
            '=' => Some(Tok::Eq),
            _ => None,
        };
        if let Some(tok) = tok {
            it.next();
            toks.push((tok, (i, i + c.len_utf8())));
            continue;
        }
        if !is_word_char(c) {
            return Err(SpecError {
                span: (i, i + c.len_utf8()),
                found: format!("`{c}`"),
                expected: "a pass name, `(`, `)`, `,` or `=`".into(),
            });
        }
        let start = i;
        let mut end = i;
        while let Some(&(j, cj)) = it.peek() {
            if !is_word_char(cj) {
                break;
            }
            end = j + cj.len_utf8();
            it.next();
        }
        toks.push((Tok::Word(src[start..end].to_string()), (start, end)));
    }
    Ok(toks)
}

// ---- parser ----

/// Deepest `fixpoint(...)` nesting the parser accepts. The descent recurses
/// once per level, so without a cap a spec that is nothing but `fixpoint(`
/// overflows the stack — and every `darm serve` request may carry a spec.
const MAX_NESTING: usize = 32;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    eof: usize,
    /// `fixpoint(` groups open around the current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn span(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .map(|&(_, s)| s)
            .unwrap_or((self.eof, self.eof))
    }

    fn found(&self) -> String {
        self.peek()
            .map(Tok::render)
            .unwrap_or_else(|| "end of spec".into())
    }

    fn error<T>(&self, expected: impl Into<String>) -> Result<T, SpecError> {
        Err(SpecError {
            span: self.span(),
            found: self.found(),
            expected: expected.into(),
        })
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Tok, expected: &str) -> Result<(), SpecError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(expected)
        }
    }

    fn word(&mut self, expected: &str) -> Result<String, SpecError> {
        match self.peek() {
            Some(Tok::Word(_)) => match self.bump() {
                Tok::Word(w) => Ok(w),
                _ => unreachable!(),
            },
            _ => self.error(expected),
        }
    }

    fn elem(&mut self) -> Result<SpecElem, SpecError> {
        let name = self.word("a pass name")?;
        if name == "fixpoint" {
            if self.depth == MAX_NESTING {
                return self.error(format!("fixpoint groups nested at most {MAX_NESTING} deep"));
            }
            self.depth += 1;
            self.eat(&Tok::LParen, "`(` opening the fixpoint group")?;
            let mut elems = Vec::new();
            let mut max = None;
            loop {
                // `max=N` is a group parameter; anything else is a nested
                // element (distinguished by one-token lookahead for `=`).
                if let (Some(Tok::Word(w)), Some(Tok::Eq)) = (self.peek(), self.peek2()) {
                    if w != "max" {
                        return self.error("a pass, nested fixpoint, or `max=N`");
                    }
                    let key_span = self.span();
                    self.bump();
                    self.bump();
                    let v = self.word("an iteration count after `max=`")?;
                    let n: usize = v.parse().map_err(|_| SpecError {
                        span: key_span,
                        found: format!("`max={v}`"),
                        expected: "a positive integer iteration count".into(),
                    })?;
                    if max.replace(n).is_some() {
                        return Err(SpecError {
                            span: key_span,
                            found: "`max`".into(),
                            expected: "at most one `max=N` per fixpoint group".into(),
                        });
                    }
                } else {
                    elems.push(self.elem()?);
                }
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.pos += 1;
                    }
                    Some(Tok::RParen) => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.error("`,` or `)` in the fixpoint group"),
                }
            }
            if elems.is_empty() {
                return self.error("at least one pass inside fixpoint(...)");
            }
            self.depth -= 1;
            return Ok(SpecElem::Fixpoint { elems, max });
        }
        let mut params = Vec::new();
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            loop {
                let key = self.word("a parameter key")?;
                self.eat(&Tok::Eq, "`=` after the parameter key")?;
                let value = self.word("a parameter value")?;
                params.push((key, value));
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.pos += 1;
                    }
                    Some(Tok::RParen) => {
                        self.pos += 1;
                        break;
                    }
                    _ => return self.error("`,` or `)` in the parameter list"),
                }
            }
        }
        Ok(SpecElem::Pass { name, params })
    }
}

impl PassSpec {
    /// Parses a spec text into its AST.
    ///
    /// # Errors
    ///
    /// A positioned [`SpecError`] on the first token violating the
    /// grammar. An all-whitespace spec yields an empty element list (the
    /// registry rejects it as an empty pipeline).
    pub fn parse(src: &str) -> Result<PassSpec, SpecError> {
        let toks = lex(src)?;
        let mut p = Parser {
            toks,
            pos: 0,
            eof: src.len(),
            depth: 0,
        };
        let mut elems = Vec::new();
        // Tolerate leading/trailing/duplicate commas, as the flat-list
        // parser did ("simplify, ,dce" was accepted).
        loop {
            while p.peek() == Some(&Tok::Comma) {
                p.pos += 1;
            }
            if p.peek().is_none() {
                break;
            }
            elems.push(p.elem()?);
            match p.peek() {
                None => break,
                Some(Tok::Comma) => {}
                Some(_) => return p.error("`,` or end of spec"),
            }
        }
        Ok(PassSpec { elems })
    }

    /// Convenience constructor for a flat, parameterless pass list.
    pub fn flat(names: &[&str]) -> PassSpec {
        PassSpec {
            elems: names
                .iter()
                .map(|n| SpecElem::Pass {
                    name: n.to_string(),
                    params: Vec::new(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(name: &str) -> SpecElem {
        SpecElem::Pass {
            name: name.into(),
            params: vec![],
        }
    }

    #[test]
    fn parses_flat_lists_as_before() {
        let s = PassSpec::parse(" simplify, dce ,instcombine ").unwrap();
        assert_eq!(
            s.elems,
            vec![pass("simplify"), pass("dce"), pass("instcombine")]
        );
        assert_eq!(s.to_string(), "simplify,dce,instcombine");
    }

    #[test]
    fn parses_parameters_and_fixpoints() {
        let s = PassSpec::parse("meld(threshold=0.3,max-iters=4),fixpoint(simplify,dce,max=4)")
            .unwrap();
        assert_eq!(
            s.elems,
            vec![
                SpecElem::Pass {
                    name: "meld".into(),
                    params: vec![
                        ("threshold".into(), "0.3".into()),
                        ("max-iters".into(), "4".into())
                    ],
                },
                SpecElem::Fixpoint {
                    elems: vec![pass("simplify"), pass("dce")],
                    max: Some(4),
                },
            ]
        );
        // Canonical rendering round-trips.
        assert_eq!(PassSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn parses_nested_fixpoints() {
        let s = PassSpec::parse("fixpoint(simplify,fixpoint(instcombine,dce))").unwrap();
        let SpecElem::Fixpoint { elems, max } = &s.elems[0] else {
            panic!("not a fixpoint: {s:?}");
        };
        assert_eq!(*max, None);
        assert!(matches!(&elems[1], SpecElem::Fixpoint { elems: inner, .. } if inner.len() == 2));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize| format!("{}dce{}", "fixpoint(".repeat(depth), ")".repeat(depth));
        assert!(PassSpec::parse(&nest(MAX_NESTING)).is_ok());
        let e = PassSpec::parse(&nest(MAX_NESTING + 1)).unwrap_err();
        assert!(e.expected.contains("nested at most"), "{e}");
        // What a frame-sized spec of nothing but openers used to do.
        let e = PassSpec::parse(&"fixpoint(".repeat(1 << 20)).unwrap_err();
        assert!(e.expected.contains("nested at most"), "{e}");
    }

    #[test]
    fn positions_errors_on_the_offending_token() {
        let e = PassSpec::parse("simplify,fixpoint(dce").unwrap_err();
        assert_eq!(e.span, (21, 21), "{e}");
        assert_eq!(e.found, "end of spec");
        assert!(e.expected.contains("`,` or `)`"), "{e}");

        let e = PassSpec::parse("meld(threshold)").unwrap_err();
        assert!(e.expected.contains("`=`"), "{e}");
        assert_eq!(e.span, (14, 15));

        let e = PassSpec::parse("dce)").unwrap_err();
        assert_eq!(e.found, "`)`");
        assert!(e.expected.contains("end of spec"), "{e}");

        let e = PassSpec::parse("fixpoint()").unwrap_err();
        assert!(e.expected.contains("a pass name"), "{e}");

        let e = PassSpec::parse("fixpoint(max=3)").unwrap_err();
        assert!(e.expected.contains("at least one pass"), "{e}");

        let e = PassSpec::parse("fixpoint(dce,max=x)").unwrap_err();
        assert!(e.expected.contains("integer"), "{e}");
    }
}
