//! A minimal hand-rolled JSON value, parser and writer.
//!
//! The container has no serde, so this module implements the tiny subset of
//! JSON the repository needs: objects of numbers, strings and arrays —
//! enough for the repository benchmark (`benchmarks/`) to write its result
//! line and trace, and to read those and `BENCHMARK.json` back.
//!
//! Design constraints:
//!
//! * there is no `Null` variant — `null` parses to `Num(f64::NAN)` and
//!   non-finite floats render as `null`, so formats that need exact
//!   round-trips must avoid optional fields (use sparse arrays) and encode
//!   `f32` values as bit patterns;
//! * integers that fit `u64` stay [`Json::Int`]; negative integers parse as
//!   [`Json::Num`];
//! * objects preserve insertion order, which keeps renders deterministic.

use std::fmt::Write as _;

/// A JSON value (numbers, strings, arrays, objects — what a report needs).
#[derive(Debug, Clone)]
pub enum Json {
    /// A float rendered with full precision.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Field lookup on an object (`None` on other variants / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value of `Num` or `Int` (`None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String value (`None` on other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items (`None` on other variants).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset the repository uses: objects,
    /// arrays, strings, numbers, `null` — rendered as such for non-finite
    /// floats — and, for completeness, booleans parsed as 0/1 integers).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(s, "{v}");
                } else {
                    s.push_str("null");
                }
            }
            Json::Int(v) => {
                let _ = write!(s, "{v}");
            }
            Json::Str(v) => {
                s.push('"');
                for c in v.chars() {
                    match c {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        '\n' => s.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(s, "\\u{:04x}", c as u32);
                        }
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    Json::Str(k.clone()).write(s);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            // Non-finite floats render as null; read them back as NaN so
            // numeric comparisons can treat them as "no measurement".
            Ok(Json::Num(f64::NAN))
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Int(1))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Int(0))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&b| b as char),
            *pos
        )),
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|&b| b as char)
                ))
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
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte safe: we only
                // split at ASCII delimiters above).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if float {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    } else {
        // Integers that fit u64 stay Int (negative ones become Num).
        text.parse::<u64>()
            .map(Json::Int)
            .or_else(|_| text.parse::<f64>().map(Json::Num))
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_report() {
        let j = Json::obj(vec![
            ("name", Json::Str("bench \"x\"".into())),
            ("value", Json::Num(1.5)),
            ("count", Json::Int(3)),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![("a", Json::Int(1))])]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"bench \"x\"","value":1.5,"count":3,"rows":[{"a":1}]}"#
        );
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_round_trips_a_report() {
        let original = Json::obj(vec![
            ("bench", Json::Str("engine \"serving\"".into())),
            ("requests_per_sec", Json::Num(1234.5)),
            ("requests", Json::Int(2048)),
            (
                "variants",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("name", Json::Str("step_arena".into())),
                        ("allocs_per_step", Json::Num(0.0)),
                    ]),
                    Json::obj(vec![("name", Json::Str("step_boxed".into()))]),
                ]),
            ),
        ]);
        let text = original.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.render(), text, "render∘parse must be identity");
        assert_eq!(
            parsed.get("requests_per_sec").unwrap().as_f64(),
            Some(1234.5)
        );
        assert_eq!(parsed.get("requests").unwrap().as_f64(), Some(2048.0));
        assert_eq!(
            parsed.get("bench").unwrap().as_str(),
            Some("engine \"serving\"")
        );
        let variants = parsed.get("variants").unwrap().as_arr().unwrap();
        assert_eq!(variants.len(), 2);
        assert_eq!(
            variants[1].get("name").unwrap().as_str(),
            Some("step_boxed")
        );
    }

    #[test]
    fn parse_accepts_whitespace_null_and_negatives() {
        let j = Json::parse(" { \"a\" : null , \"b\" : -2.5, \"c\": [ ] } \n").unwrap();
        assert!(j.get("a").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(j.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(j.get("c").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
