//! A minimal JSON value, parser and serializer for the serve protocol.
//!
//! The workspace's one JSON codec, hand-rolled because the build
//! environment is offline; the protocol needs only objects, arrays,
//! strings (with full escape support — IR payloads contain newlines),
//! numbers, booleans and null. Anything outside that grammar is a hard
//! parse error, never a silently coerced value: a daemon must answer a
//! malformed frame with a typed error, not guess.
//!
//! Numbers are kept as `f64`; the protocol's integral fields (ids, fuel,
//! counters) are well within the 2^53 exact-integer range.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects use a [`BTreeMap`], so serialization is
/// deterministic (sorted keys) — warm-vs-cold byte-identity of responses
/// relies on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| < 2^53).
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integral
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // Integral values print without a fractional part, so ids
                // and counters round-trip textually.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Whether a JSON string cannot hold `b` raw: `"`, `\` and the controls
/// below U+0020. The decoder stops at these, and the escaper escapes them.
fn is_special(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The index of the first [special](is_special) byte of `bytes`, or
/// `bytes.len()` if there is none: the scan under both the string decoder
/// and the escaper, eight bytes per step.
///
/// A word `w` flags byte `i` when bit 7 of byte `i` of `x.wrapping_sub(ONES)
/// & !x` is set, for `x = w ^ ("\"" × ONES)` (a zero byte where `w` has a
/// quote) and `x = w ^ ("\\" × ONES)`; and of `w.wrapping_sub(0x20 × ONES) &
/// !w` (a byte below 0x20). Without a borrow into it, a byte is flagged
/// exactly when its predicate holds. A chain of borrows starts only at a
/// byte that matched and only runs upwards, so a wrongly flagged byte always
/// sits above a true match in the same word: the lowest flagged byte — the
/// first in the text, as the word is read little-endian — is a real one.
fn find_special(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let quote = w ^ (ONES * u64::from(b'"'));
        let backslash = w ^ (ONES * u64::from(b'\\'));
        let flags = (quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash
            | w.wrapping_sub(ONES * 0x20) & !w)
            & HIGHS;
        if flags != 0 {
            return at + (flags.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail
        .iter()
        .position(|&b| is_special(b))
        .unwrap_or(tail.len())
}

/// Writes `s` as a JSON string literal: the workspace's one escaper, under
/// [`Json`]'s `Display` and under every reply `Response::to_bytes` writes.
/// Copies the run up to the next byte that needs an escape in one piece;
/// all of those (`"`, `\`, controls below U+0020) are ASCII, so every cut
/// falls on a char boundary.
pub(crate) fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    loop {
        let at = find_special(rest.as_bytes());
        out.write_str(&rest[..at])?;
        let Some(&special) = rest.as_bytes().get(at) else {
            return out.write_char('"');
        };
        match special {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            control => write!(out, "\\u{control:04x}")?,
        }
        rest = &rest[at + 1..];
    }
}

/// Maximum container nesting the parser accepts. Recursion depth is
/// bounded by input nesting, so without a cap a frame of densely nested
/// `[` (up to the frame size limit) would overflow the stack — and a
/// stack overflow aborts the process, no `catch_unwind` can contain it.
/// The cap turns such input into an ordinary typed parse error; the
/// protocol itself never nests more than a handful of levels.
const MAX_DEPTH: usize = 128;

/// Whether `s` is a number in RFC 8259's grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: no leading
/// zero, and a digit on both sides of a point. (`f64::from_str` alone
/// would take `01`, `1.` and `-.5`.)
fn is_json_number(s: &[u8]) -> bool {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let s = s.strip_prefix(b"-").unwrap_or(s);
    let mut rest = match s.first() {
        Some(b'0') => &s[1..],
        Some(b'1'..=b'9') => &s[digits(s)..],
        _ => return false,
    };
    if let Some(fraction) = rest.strip_prefix(b".") {
        let n = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = &fraction[n..];
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exponent = exponent
            .strip_prefix(b"+")
            .or_else(|| exponent.strip_prefix(b"-"))
            .unwrap_or(exponent);
        let n = digits(exponent);
        if n == 0 {
            return false;
        }
        rest = &exponent[n..];
    }
    rest.is_empty()
}

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs a container parser one nesting level deeper, erroring past
    /// [`MAX_DEPTH`] instead of risking the recursion growing the stack
    /// without bound.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_json_number(text.as_bytes()) {
            return Err(format!("bad number `{text}` at byte {start}"));
        }
        let n = text
            .parse::<f64>()
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))?;
        // Out-of-range literals like `1e999` parse to infinity, and
        // `Display` would render non-finite values as invalid JSON —
        // enforce finiteness at the boundary so they can never get in.
        if !n.is_finite() {
            return Err(format!("number `{text}` at byte {start} is out of range"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote, backslash or control
            // byte at once. All three are ASCII, so the run ends on a char
            // boundary of the (already valid) input text.
            let start = self.pos;
            self.pos += find_special(&self.bytes[start..]);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => return Err(format!("raw control character at byte {}", self.pos)),
            }
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    /// The scalar a `\u` escape denotes, the `\u` already consumed. A high
    /// surrogate must be followed by an escaped low one — how encoders that
    /// escape everything outside ASCII (Python's default `json.dumps`)
    /// write characters beyond the BMP; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                }
                self.pos += 2;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(format!("unpaired surrogate at byte {}", self.pos)),
                }
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("bad codepoint U+{code:04X}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values_with_escapes() {
        let v = Json::obj([
            ("id", Json::int(7)),
            ("ir", Json::str("fn @k() -> void {\nentry:\n  ret\n}\n")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.5), Json::str("a\"b\\c\td")]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Deterministic: sorted keys, stable rendering.
        assert_eq!(text, Json::parse(&text).unwrap().to_string());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": }",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"bad \\q escape\"",
            // Numbers `f64::from_str` takes and RFC 8259 does not.
            "01",
            "-01",
            "00",
            "1.",
            "0.",
            "1.e5",
            "-.5",
            "-",
            "1e",
            "1e+",
            "{\"op\":\"ping\",\"id\":01}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
        for (good, value) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("1.5e-3", 1.5e-3),
            ("-12.25", -12.25),
            ("0e5", 0.0),
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(value)), "{good}");
        }
    }

    /// The old scan, one byte per step.
    fn find_special_bytewise(bytes: &[u8]) -> usize {
        bytes
            .iter()
            .position(|&b| is_special(b))
            .unwrap_or(bytes.len())
    }

    /// Every byte value at every position of every length up to three
    /// words, over backgrounds of an ASCII letter, the two bytes of `é` and
    /// DEL (the byte just above the controls that is not one): the word scan
    /// finds what the byte scan finds.
    #[test]
    fn word_scan_equals_byte_scan_for_every_byte_at_every_position() {
        let backgrounds: [&[u8]; 3] = [b"a", "é".as_bytes(), b"\x7f"];
        for background in backgrounds {
            for len in 0..=24 {
                let fill: Vec<u8> = background.iter().copied().cycle().take(len).collect();
                assert_eq!(find_special(&fill), len);
                for at in 0..len {
                    for byte in 0..=u8::MAX {
                        let mut bytes = fill.clone();
                        bytes[at] = byte;
                        assert_eq!(
                            find_special(&bytes),
                            find_special_bytewise(&bytes),
                            "byte {byte:#04x} at {at} of {len} over {background:?}"
                        );
                    }
                }
            }
        }
    }

    /// Two bytes per word from the edges of the three predicates: a borrow
    /// out of the lower one must never hide it or flag a byte below it.
    #[test]
    fn word_scan_finds_the_first_of_two_specials() {
        let edges = [
            0x00, 0x01, 0x1f, 0x20, 0x21, 0x22, 0x23, 0x5b, 0x5c, 0x5d, 0x7f, 0x80, 0xa0, 0xa2,
            0xdc, 0xff,
        ];
        for first in edges {
            for second in edges {
                for i in 0..16 {
                    for j in i + 1..17 {
                        let mut bytes = [b'x'; 17];
                        bytes[i] = first;
                        bytes[j] = second;
                        assert_eq!(find_special(&bytes), find_special_bytewise(&bytes));
                    }
                }
            }
        }
    }

    /// The old escaper, one byte per step: the bytes every reply was
    /// written with before the word scan.
    fn escape_bytewise(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Seeded random strings of every length across two words' worth of
    /// boundaries, mixing controls, `"`, `\`, ASCII, and two- and four-byte
    /// UTF-8: escaping writes what the byte scan wrote, and parsing gives
    /// the string back.
    #[test]
    fn escape_then_parse_round_trips_random_strings() {
        let alphabet = [
            '\u{0}', '\u{8}', '\t', '\n', '\r', '\u{1f}', '"', '\\', '/', ' ', 'a', '~', '\u{7f}',
            'é', '\u{7ff}', '€', '😀',
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: usize| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
        };
        for round in 0..4_000 {
            let len = round % 41;
            let s: String = (0..len).map(|_| alphabet[next(alphabet.len())]).collect();
            let escaped = Json::Str(s.clone()).to_string();
            assert_eq!(escaped, escape_bytewise(&s));
            assert_eq!(Json::parse(&escaped), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::int(42).to_string(), "42");
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // Far past the cap: must return a typed error, not abort. A
        // stack overflow here would kill the whole test process, so
        // merely completing proves containment.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting"), "unexpected error: {err}");
        }
        // At and below the cap, nesting still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn out_of_range_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "1e400"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("out of range"), "unexpected error: {err}");
        }
        assert!(Json::parse("1e308").is_ok());
    }

    #[test]
    fn surrogate_pair_escapes_round_trip() {
        // What Python's `json.dumps("😀 é")` emits.
        let parsed = Json::parse("\"\\ud83d\\ude00 \\u00e9\"").unwrap();
        assert_eq!(parsed, Json::Str("😀 é".to_string()));
        // Out again raw (only controls are escaped), and back in.
        assert_eq!(parsed.to_string(), "\"😀 é\"");
        assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
        for bad in [
            "\"\\ud83d\"",        // high, end of string
            "\"\\ud83d x\"",      // high, no escape after
            "\"\\ud83d\\u0041\"", // high, then a non-surrogate
            "\"\\ude00\"",        // lone low
            "\"\\u+041\"",        // sign is not a hex digit
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    /// String decoding is linear in the frame: ns/byte on a 1 MiB string
    /// stays within 4× of ns/byte on a 16 KiB one (it was ~14× when every
    /// character re-validated the rest of the frame). A ratio of minima, so
    /// neither machine speed nor a noisy neighbour decides it.
    #[test]
    fn string_decode_cost_per_byte_does_not_grow_with_the_frame() {
        let ns_per_byte = |len: usize, reps: usize| {
            let line = "  %12 = add %10, %11 ; é\\n";
            let doc = format!("\"{}\"", line.repeat(len / line.len()));
            (0..reps)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let parsed = Json::parse(std::hint::black_box(&doc)).unwrap();
                    let ns = t.elapsed().as_nanos() as f64;
                    std::hint::black_box(parsed);
                    ns / doc.len() as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (small, large) = (ns_per_byte(16 << 10, 64), ns_per_byte(1 << 20, 8));
        assert!(
            large <= 4.0 * small,
            "decode is superlinear: {small:.2} ns/byte at 16 KiB, {large:.2} at 1 MiB"
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".to_string())
        );
        // Controls below 0x20 are escaped on output, parsed on input.
        let s = Json::Str("\u{1}".to_string());
        assert_eq!(s.to_string(), "\"\\u0001\"");
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
    }
}
