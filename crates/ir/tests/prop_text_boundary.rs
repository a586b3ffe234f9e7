//! The text boundary under fire: everything that decodes bytes from outside
//! — the IR reader, the pipeline-spec parser, the serve JSON decoder — must
//! answer any input with `Ok` or a typed error, never a panic or a hang, and
//! what it accepts must survive its own writer (as must any string the serve
//! reply writer escapes).
//!
//! One mutation driver ([`mutate`]) serves all three: it takes a valid text
//! and a byte script and applies a few edits — byte replacements, insertions
//! and deletions, truncation, line swaps, duplications and deletions, and
//! token splices (a token from elsewhere in the text, or one known to sit on
//! an edge of some grammar, possibly repeated). Case counts are fixed and
//! sized so the file runs in well under ten seconds in release.

use darm_bench::{fig8_cases, fig9_cases};
use darm_ir::hash::fnv1a_64;
use darm_ir::parser::{parse_and_verify_module, parse_function};
use darm_ir::Function;
use darm_melding::{meld_function, MeldConfig};
use darm_pipeline::PassSpec;
use darm_serve::json::Json;
use darm_serve::proto::{ErrorKind, Request, Response};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Every fig8+fig9 kernel, as built and as melded by DARM.
fn kernels() -> &'static [Function] {
    static KERNELS: OnceLock<Vec<Function>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let mut funcs = Vec::new();
        for case in fig8_cases().into_iter().chain(fig9_cases()) {
            let mut melded = case.func.clone();
            meld_function(&mut melded, &MeldConfig::default());
            funcs.push(case.func);
            funcs.push(melded);
        }
        funcs
    })
}

fn kernel_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| kernels().iter().map(Function::to_string).collect())
}

/// Tokens on the edges of the three grammars.
const EDGE_TOKENS: &[&str] = &[
    "",
    "%4294967295",
    "%18446744073709551616",
    "%arg9",
    "%arg",
    "%",
    "%00",
    "-2147483649",
    "9223372036854775808i64",
    "f32:0x7fc00001",
    "f32:0x",
    "NaNf",
    "-inff",
    "1e999f",
    "undef:void",
    "undef:",
    "ptr(global)",
    "ptr(",
    "phi",
    "fn @",
    "shared",
    "shared.base",
    "4294967296",
    "fixpoint",
    "max=",
    "max=99999999999999999999",
    "\\u",
    "\\ud800",
    "1e400",
    "-",
    "\u{a0}",
    "\u{2028}",
    "é",
    "//",
    "\r",
    "\0",
];

const DELIMITERS: &[u8] = b" \t\n,()[]{}:=\"";

/// Byte ranges of the maximal delimiter-free runs of `text`.
fn tokens(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, b) in text.iter().enumerate() {
        match (DELIMITERS.contains(b), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, text.len()));
    }
    out
}

/// Applies one to four edits drawn from `script` to `seed`. Edits work on
/// bytes, so the result is made text again lossily.
fn mutate(seed: &str, script: &[u8]) -> String {
    let mut script = script.iter().copied();
    let mut next = move || script.next().unwrap_or(0) as usize;
    let mut text = seed.as_bytes().to_vec();
    for _ in 0..=next() % 4 {
        let kind = next();
        let at = |n: usize, len: usize| if len == 0 { 0 } else { n % len };
        let pos = at(next() << 8 | next(), text.len());
        match kind % 9 {
            0 if !text.is_empty() => text[pos] = next() as u8,
            1 => text.insert(pos, next() as u8),
            2 => {
                let end = (pos + 1 + next() % 8).min(text.len());
                text.drain(pos..end);
            }
            3 => text.truncate(pos),
            4..=6 => {
                let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
                let (a, b) = (at(pos, lines.len()), at(next(), lines.len()));
                match kind % 9 {
                    4 => lines.swap(a, b),
                    5 => lines.insert(b, lines[a]),
                    _ => drop(lines.remove(a)),
                }
                text = lines.join(&b'\n');
            }
            _ => {
                // Splice: a token becomes another token of the text or an
                // edge token, once or (kind 8) up to 255 times over — long
                // runs of `(`-free words and deep `[`/`{` nests alike.
                let toks = tokens(&text);
                if toks.is_empty() {
                    continue;
                }
                let (start, end) = toks[at(pos, toks.len())];
                let pick = next();
                let donor = match pick % 2 {
                    0 => {
                        let (s, e) = toks[at(pick / 2 + next(), toks.len())];
                        text[s..e].to_vec()
                    }
                    _ => EDGE_TOKENS[at(pick / 2, EDGE_TOKENS.len())]
                        .as_bytes()
                        .to_vec(),
                };
                let times = if kind % 9 == 8 { next() } else { 1 };
                let nest = [&b"("[..], b"[", b"{", b"[[", b","][at(next(), 5)];
                let mut piece = Vec::new();
                for _ in 0..times {
                    piece.extend_from_slice(&donor);
                    if kind % 9 == 8 {
                        piece.extend_from_slice(nest);
                    }
                }
                text.splice(start..end, piece);
            }
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

/// `decode(input)`, with a panic turned into a failed case that names the
/// input.
fn no_panic<T>(input: &str, decode: impl FnOnce(&str) -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| decode(input)))
        .map_err(|_| TestCaseError::fail(format!("panicked on:\n{input}")))
}

fn script() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 8..40)
}

const SPECS: &[&str] = &[
    "meld",
    "simplify,meld,instcombine,dce",
    "meld(threshold=0.3),fixpoint(simplify,dce)",
    "meld-bf,fixpoint(instcombine,dce,max=4)",
    "fixpoint(simplify,fixpoint(instcombine,dce),max=2) , meld( mode = bf , unpredicate=false )",
];

const FRAMES: &[&str] = &[
    r#"{"op":"ping","id":1}"#,
    r#"{"op":"compile","id":2,"ir":"fn @f() -> void {\nentry:\n  ret\n}\n","spec":"meld","timeout_ms":100,"fuel":5000}"#,
    r#"{"op":"stats","id":18446744073709551615}"#,
    r#"{"op":"shutdown","id":4,"extra":[1,2.5e3,-0,true,false,null,{"k":[[],{}]}]}"#,
    r#" [ "é😀\n\t\"\\\/" , -1.25E-3 , 1e308 , 0.1 ] "#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40_000))]

    /// (a) A mutated kernel is read or refused, and whatever is read
    /// prints to text that reads back to the same print.
    #[test]
    fn mutated_ir_never_panics(pick in 0..usize::MAX, script in script()) {
        let texts = kernel_texts();
        let input = mutate(&texts[pick % texts.len()], &script);
        if let Ok(module) = no_panic(&input, parse_and_verify_module)? {
            let printed = module.to_string();
            let again = parse_and_verify_module(&printed)
                .map_err(|e| TestCaseError::fail(format!("{e} in the reprint of:\n{input}")))?;
            prop_assert_eq!(again.to_string(), printed, "reprint of:\n{}", input);
        }
    }

    /// (c) The same driver on pipeline specs…
    #[test]
    fn mutated_specs_never_panic(pick in 0..usize::MAX, script in script()) {
        let input = mutate(SPECS[pick % SPECS.len()], &script);
        if let Ok(spec) = no_panic(&input, PassSpec::parse)? {
            prop_assert_eq!(PassSpec::parse(&spec.to_string()), Ok(spec), "{}", input);
        }
    }

    /// …and on serve frames: the JSON decoder, then the request decoder.
    #[test]
    fn mutated_json_never_panics(pick in 0..usize::MAX, script in script()) {
        let input = mutate(FRAMES[pick % FRAMES.len()], &script);
        if let Ok(json) = no_panic(&input, Json::parse)? {
            prop_assert_eq!(Json::parse(&json.to_string()), Ok(json.clone()), "{}", input);
            let _ = no_panic(&input, |_| Request::from_json(&json))?;
        }
    }

    /// …and the way out: whatever string the driver makes (quotes,
    /// backslashes, controls, lossy U+FFFD), written into a reply by the one
    /// escaper, decodes to itself.
    #[test]
    fn escaped_strings_decode_to_themselves(pick in 0..usize::MAX, script in script()) {
        let input = mutate(FRAMES[pick % FRAMES.len()], &script);
        let reply = Response::Error {
            id: None,
            kind: ErrorKind::Protocol,
            message: input.clone(),
        };
        let text = String::from_utf8(reply.to_bytes()).expect("a reply is UTF-8");
        let json = Json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e} in the reply {text}")))?;
        prop_assert_eq!(json.get("message").and_then(Json::as_str), Some(input.as_str()));
    }
}

/// (b) Print → parse → print is the identity on canonical text: every
/// section of the melded golden table…
#[test]
fn golden_melded_ir_is_a_fixed_point() {
    let golden = include_str!("../../bench/tests/golden/melded_ir.txt");
    let mut sections = 0;
    for section in golden.split("\n== ").skip(1) {
        let (header, text) = section.split_once('\n').expect("a header line");
        let text = &format!("{}\n", text.trim_end());
        let func = parse_function(text).unwrap_or_else(|e| panic!("{header}: {e}"));
        func.verify_structure()
            .unwrap_or_else(|e| panic!("{header}: {e}"));
        assert_eq!(&func.to_string(), text, "{header}");
        assert_eq!(func.content_hash(), fnv1a_64(text.as_bytes()), "{header}");
        sections += 1;
    }
    assert_eq!(sections, 114, "fig8+fig9 kernels x {{darm, bf}}");
}

/// …and every kernel once the reader has numbered it in text order (the
/// builders' and the melder's arenas are not).
#[test]
fn every_kernel_reaches_a_fixed_point_in_one_pass() {
    for (func, text) in kernels().iter().zip(kernel_texts()) {
        let parse = |text: &str| {
            let parsed = parse_function(text).unwrap_or_else(|e| panic!("{}: {e}", func.name()));
            parsed
                .verify_structure()
                .unwrap_or_else(|e| panic!("{}: {e}", func.name()));
            parsed
        };
        let first = parse(text);
        assert_eq!(first.live_inst_count(), func.live_inst_count());
        let canonical = first.to_string();
        assert_eq!(parse(&canonical).to_string(), canonical, "{}", func.name());
        assert_eq!(func.content_hash(), fnv1a_64(text.as_bytes()));
    }
}
