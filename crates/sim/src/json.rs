//! A minimal JSON reader/writer for the results journal.
//!
//! The workspace is deliberately dependency-free, so the journal's
//! JSON-lines format is produced and parsed here: objects, arrays,
//! strings, numbers, booleans and null — no more. Numbers are `f64`,
//! which represents every counter the simulator produces exactly
//! (integers up to 2^53; a run would need petacycles to overflow that).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted, so encoding is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The value as an object's key-sorted entries.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // `{:?}` is Rust's shortest round-trippable rendering.
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Convenience: a `Json::Num` from any unsigned counter.
pub fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Convenience: a `Json::Str` from anything string-like.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// Convenience: a `Json::Obj` from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn write_escaped(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_ascii() && (c as u32) >= 0x20 => out.push(c),
            c => {
                // Control characters and all non-ASCII become `\u`
                // escapes (a surrogate pair beyond the BMP), keeping
                // every encoded document pure ASCII — robust against
                // consumers that mishandle raw UTF-8 in event names.
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let rest = &bytes[*pos..];
        let Some(&b) = rest.first() else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let esc = rest.get(1).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex4 = |at: usize| -> Result<u32, String> {
                            let hex = rest.get(at..at + 4).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
                        };
                        let code = hex4(2)?;
                        if (0xD800..0xDC00).contains(&code) && rest.get(6..8) == Some(b"\\u") {
                            // A high surrogate followed by a `\u` escape:
                            // combine the pair into one scalar value.
                            let low = hex4(8)?;
                            if (0xDC00..0xE000).contains(&low) {
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                                *pos += 10;
                            } else {
                                // High surrogate with a non-surrogate
                                // escape after it: replace the orphan,
                                // leave the second escape for the loop.
                                out.push('\u{fffd}');
                                *pos += 4;
                            }
                        } else {
                            // A BMP scalar, or a lone surrogate (which
                            // has no scalar value) as the replacement
                            // character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
                *pos += 2;
            }
            _ => {
                // Copy the whole run up to the next quote or escape with
                // one UTF-8 check: validating from here to the end of the
                // input per character made every string quadratic.
                let run = rest
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(rest.len());
                let text = std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8")?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), s("gcc \"quoted\"\n"));
        obj.insert(
            "counts".to_string(),
            Json::Arr(vec![num(0), num(17), num(1 << 50)]),
        );
        obj.insert("ipc".to_string(), Json::Num(1.625));
        obj.insert("flag".to_string(), Json::Bool(true));
        obj.insert("missing".to_string(), Json::Null);
        let v = Json::Obj(obj);
        let text = v.encode();
        assert!(!text.contains('\n'), "journal lines must be single lines");
        assert_eq!(Json::parse(&text).expect("round trip"), v);
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(num(42).encode(), "42");
        assert_eq!(Json::Num(2.5).encode(), "2.5");
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse(r#"{"a": 3, "b": "x", "c": [1], "d": 2.5}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("d").and_then(Json::as_u64), None, "not an integer");
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("zz"), None);
    }

    #[test]
    fn non_ascii_and_control_characters_round_trip_as_ascii() {
        let adversarial = "naïve\u{7}\"q\\uote\"\tемул 😀\u{1F680}";
        let encoded = s(adversarial).encode();
        assert!(
            encoded.is_ascii(),
            "encoded strings must be pure ASCII: {encoded}"
        );
        assert!(!encoded.contains('\u{7}'), "raw control char leaked");
        assert_eq!(
            Json::parse(&encoded).expect("round trip"),
            s(adversarial),
            "escaped text must decode to the original"
        );
    }

    #[test]
    fn surrogate_pairs_combine_on_parse() {
        // U+1F600 encodes as the pair D83D DE00.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").expect("pair"),
            s("\u{1F600}")
        );
        // Lone surrogates have no scalar value: replacement character.
        assert_eq!(
            Json::parse(r#""\ud83dx""#).expect("lone high"),
            s("\u{fffd}x")
        );
        assert_eq!(Json::parse(r#""\ude00""#).expect("lone low"), s("\u{fffd}"));
        // High surrogate followed by a non-surrogate escape: the orphan
        // is replaced, the second escape decodes normally.
        assert_eq!(
            Json::parse(r#""\ud83dA""#).expect("orphan then BMP"),
            s("\u{fffd}A")
        );
        // Truncated pairs are malformed, not panics.
        assert!(Json::parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of plain text is one run: a per-character scan of the
        // rest of the input would take minutes here.
        let long = "x".repeat(1 << 20);
        let doc = obj(vec![("a", s(long.as_str())), ("b", s("tail"))]);
        assert_eq!(Json::parse(&doc.encode()).expect("1 MiB string"), doc);
    }

    #[test]
    fn raw_utf8_runs_split_cleanly_at_escapes() {
        // Raw multi-byte UTF-8 (never written by the encoder, but valid
        // input) directly before and after escapes, so each run boundary
        // falls next to a multi-byte character.
        assert_eq!(
            Json::parse("\"é\\nемул\\\"😀\\\\ü\\t\"").expect("raw utf-8"),
            s("é\nемул\"😀\\ü\t")
        );
        // A surrogate-pair escape between two raw runs.
        assert_eq!(
            Json::parse("\"ab×\\ud83d\\ude00ü cd\"").expect("pair between runs"),
            s("ab×\u{1F600}ü cd")
        );
        assert_eq!(Json::parse("\"\\u00e9\"").expect("escape only"), s("é"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("").is_err());
    }
}
