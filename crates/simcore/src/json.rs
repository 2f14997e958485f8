//! Minimal JSON tree, writer, and parser.
//!
//! The workspace builds offline with no external crates, so it carries its
//! own JSON support. The codec lives here in the substrate crate so every
//! layer — the scenario registry, the experiment harness, the figure
//! binaries — shares one canonical serialization. Two properties matter
//! more than speed:
//!
//! * **Canonical output** — object keys keep insertion order, floats are
//!   printed with Rust's shortest-round-trip formatting, and the writer is
//!   purely a function of the tree. Two equal trees always serialize to
//!   identical bytes, which is what makes `results/*.json` byte-comparable
//!   across worker counts.
//! * **Lossless numbers** — numbers are stored as their literal text
//!   ([`Json::Num`]); a parsed file re-serializes to the same bytes, and
//!   `u64` values larger than 2^53 survive a cache round-trip.
//!
//! The parser is linear in the input: string contents are copied a run
//! at a time between escapes, and nesting deeper than [`MAX_DEPTH`] is an
//! error rather than a stack overflow, so no input can make it panic.

use crate::rng::Fnv1a;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A float value; non-finite floats become `null` (JSON has no NaN).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    /// An unsigned integer value.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A usize value.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// An optional integer: `None` becomes `null`.
    pub fn opt_u64(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::u64)
    }

    /// An optional float: `None` becomes `null`.
    pub fn opt_f64(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::f64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as usize.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out);
        out
    }

    /// Writes exactly the bytes of [`Json::to_pretty`] into `out`. With a
    /// hashing sink such as [`Fnv1a`] this digests the canonical text
    /// without ever holding it in memory.
    pub fn write_pretty<S: Sink>(&self, out: &mut S) {
        self.write(out, 0);
        out.put("\n");
    }

    fn write<S: Sink>(&self, out: &mut S, depth: usize) {
        match self {
            Json::Null => out.put("null"),
            Json::Bool(b) => out.put(if *b { "true" } else { "false" }),
            Json::Num(s) => out.put(s),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.put("[]");
                    return;
                }
                out.put("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.put(",");
                    }
                    out.put("\n");
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.put("\n");
                indent(out, depth);
                out.put("]");
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.put("{}");
                    return;
                }
                out.put("{");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.put(",");
                    }
                    out.put("\n");
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.put(": ");
                    v.write(out, depth + 1);
                }
                out.put("\n");
                indent(out, depth);
                out.put("}");
            }
        }
    }
}

/// Where [`Json::write_pretty`] sends the canonical text.
pub trait Sink {
    /// Appends `s`.
    fn put(&mut self, s: &str);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
}

fn indent<S: Sink>(out: &mut S, depth: usize) {
    for _ in 0..depth {
        out.put("  ");
    }
}

fn write_escaped<S: Sink>(out: &mut S, s: &str) {
    out.put("\"");
    // Every byte that needs escaping is ASCII, so the plain runs between
    // them split `s` on character boundaries and go out in one piece.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let code;
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                code = format!("\\u{b:04x}");
                &code
            }
            _ => continue,
        };
        out.put(&s[run..i]);
        out.put(esc);
        run = i + 1;
    }
    out.put(&s[run..]);
    out.put("\"");
}

/// Builds an object from key/value pairs (order preserved).
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The codec's
/// own documents (snapshots included) stay below 16 levels; the limit
/// keeps a hostile run of `[` from overflowing the stack.
pub const MAX_DEPTH: usize = 512;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message describing the first syntax error, with its byte
/// offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    if text.is_empty() || text.parse::<f64>().is_err() {
        return Err(format!("invalid number at byte {start}"));
    }
    Ok(Json::Num(text.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the plain run up to the next quote or backslash in one
        // step. Both are ASCII, so the run ends on a character boundary.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(b.len() - *pos);
        let plain = std::str::from_utf8(&b[*pos..*pos + run])
            .map_err(|_| format!("invalid UTF-8 in string at byte {}", *pos))?;
        out.push_str(plain);
        *pos += run;
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                let esc = b
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        // Exactly four ASCII hex digits: no sign, no
                        // non-ASCII look-alikes.
                        let code = hex
                            .iter()
                            .try_fold(0, |acc, &h| Some(acc * 16 + char::from(h).to_digit(16)?))
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by this crate's
                        // writer; map lone surrogates to the replacement
                        // character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => {
                        return Err(format!("bad escape '\\{}'", *other as char));
                    }
                }
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_tree() {
        let tree = obj(vec![
            ("name", Json::str("fig04")),
            ("n", Json::u64(18446744073709551615)),
            ("pi", Json::f64(std::f64::consts::PI)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::u64(1), Json::str("two"), Json::f64(0.1)]),
            ),
        ]);
        let text = tree.to_pretty();
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed, tree);
        // Canonical: re-serializing parsed output is byte-identical.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn u64_survives_beyond_f64_precision() {
        let v = Json::u64(u64::MAX - 1);
        let text = v.to_pretty();
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.as_u64(), Some(u64::MAX - 1));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 2.5e300, -0.0, 123456.789] {
            let text = Json::f64(v).to_pretty();
            let parsed = parse(&text).expect("parses");
            let back = parsed.as_f64().expect("number");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} → {text}");
        }
    }

    #[test]
    fn nan_and_inf_become_null() {
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd\te\u{0001}");
        let text = v.to_pretty();
        assert!(text.contains("\\\"") && text.contains("\\u0001"));
        assert_eq!(parse(&text).expect("parses"), v);
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"a": 1, "b": [true, null], "c": "x"}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert!(v.get("d").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::str("héllo → 世界");
        assert_eq!(parse(&v.to_pretty()).expect("parses"), v);
    }

    #[test]
    fn write_pretty_streams_the_bytes_of_to_pretty() {
        let tree = obj(vec![
            ("s", Json::str("a\"b\\c\n\u{1}é世😀")),
            (
                "arr",
                Json::Arr(vec![Json::u64(7), Json::Arr(vec![]), obj(vec![])]),
            ),
        ]);
        let mut h = Fnv1a::new();
        tree.write_pretty(&mut h);
        assert_eq!(h.finish(), crate::rng::hash_str(&tree.to_pretty()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let text = unit.repeat((1 << 20) / unit.len());
            let err = parse(&text).expect_err("a 1 MB run of openers");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unicode_escapes_need_exactly_four_ascii_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9\u4E16""#), Ok(Json::str("Aé世")));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            "\"\\u00\u{e9}\"",
            "\"\\u\u{ff10}\u{ff10}41\"",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be refused");
        }
    }

    /// Decodes the text between a string literal's quotes one char at a
    /// time, the slow obvious way; `None` on a bad escape.
    fn reference_decode(lit: &str) -> Option<String> {
        let mut out = String::new();
        let mut chars = lit.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            out.push(match chars.next()? {
                '"' => '"',
                '\\' => '\\',
                '/' => '/',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 || !hex.chars().all(|h| h.is_ascii_hexdigit()) {
                        return None;
                    }
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?).unwrap_or('\u{FFFD}')
                }
                _ => return None,
            });
        }
        Some(out)
    }

    /// Escapes one char at a time, as the writer must.
    fn reference_encode(s: &str) -> String {
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

    #[test]
    fn string_decoding_matches_a_char_by_char_reference() {
        use crate::rng::SimRng;
        // Literal pieces: plain ASCII (a raw control char included), 2-,
        // 3- and 4-byte characters, every escape, and multi-byte
        // characters pressed against `\"`, `\\` and `\u00xx`.
        const PIECES: [&str; 26] = [
            "a",
            "Z",
            "0",
            " ",
            "/",
            "\u{1}",
            "é",
            "ß",
            "世",
            "€",
            "😀",
            "𝄞",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\r",
            "\\t",
            "\\b",
            "\\f",
            "\\u0041",
            "\\u00e9",
            "\\u4E16",
            "\\uD800",
            "é\\\"世",
            "😀\\\\é\\u00fc世",
        ];
        let mut rng = SimRng::new(0x5EED_0013);
        for case in 0..2_000 {
            let n = rng.uniform_u64(0, 40) as usize;
            let lit: String = (0..n)
                .map(|_| PIECES[rng.uniform_u64(0, PIECES.len() as u64 - 1) as usize])
                .collect();
            let want = reference_decode(&lit).expect("pieces are valid escapes");
            let got = parse(&format!("\"{lit}\""));
            assert_eq!(got, Ok(Json::Str(want.clone())), "case {case}: {lit:?}");
            let text = Json::Str(want.clone()).to_pretty();
            assert_eq!(text, reference_encode(&want) + "\n", "case {case}");
            assert_eq!(parse(&text), Ok(Json::Str(want)), "case {case}");
        }
    }

    #[test]
    fn parses_a_multi_megabyte_document() {
        // Nothing is timed. The linear parser reads this in milliseconds;
        // one that rescans the rest of the input per character would run
        // for hours, so the test would not finish.
        let long = "plain é 世 😀 \" \\ \n\u{1} ".repeat(100_000);
        let mut fields = vec![("long".to_string(), Json::Str(long.clone()))];
        fields.extend((0..100_000u64).map(|i| (format!("k{i}"), Json::u64(i))));
        let text = Json::Obj(fields).to_pretty();
        assert!(text.len() >= 4 << 20, "{} bytes", text.len());
        let Ok(Json::Obj(parsed)) = parse(&text) else {
            panic!("not an object");
        };
        assert_eq!(parsed.len(), 100_001);
        assert_eq!(parsed[0], ("long".to_string(), Json::Str(long)));
        for (i, (k, v)) in parsed[1..].iter().enumerate() {
            assert_eq!(k, &format!("k{i}"));
            assert_eq!(v.as_u64(), Some(i as u64));
        }
    }
}
