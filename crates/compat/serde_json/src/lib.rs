//! Offline stand-in for `serde_json`.
//!
//! Renders the serde shim's [`Value`] tree to JSON text and parses it
//! back. Numbers use Rust's shortest-round-trip float formatting, so
//! `f64`/`f32` values survive a text round-trip bit-exactly; non-finite
//! floats are written as `null` (what the real crate does) and read
//! back as NaN.

pub use serde::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parse or render failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{}` is Rust's shortest representation that parses
                // back to the same f64; force a `.0` so integral floats
                // stay floats through a round-trip.
                let s = x.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => write_seq(out, items.iter(), items.len(), '[', ']', indent, depth),
        Value::Obj(entries) => {
            write_obj(out, entries, indent, depth);
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_seq<'a>(
    out: &mut String,
    items: impl Iterator<Item = &'a Value>,
    len: usize,
    open: char,
    close: char,
    indent: Option<usize>,
    depth: usize,
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, indent, depth + 1);
        write_value(out, item, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push(close);
}

fn write_obj(out: &mut String, entries: &[(String, Value)], indent: Option<usize>, depth: usize) {
    out.push('{');
    if entries.is_empty() {
        out.push('}');
        return;
    }
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, indent, depth + 1);
        write_string(out, key);
        out.push(':');
        if indent.is_some() {
            out.push(' ');
        }
        write_value(out, value, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push('}');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error::new("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(Error::new("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run of plain bytes up to the next quote or
            // backslash at once. Both delimiters are ASCII, so a run that
            // began on a char boundary ends on one, and each input byte is
            // validated exactly once: parsing is linear in the input.
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("invalid UTF-8"))?;
            out.push_str(run);
            match self.bytes.get(self.pos) {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1, // the backslash
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated escape"))?;
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
                b'u' => {
                    let code = self.hex4()?;
                    // Surrogate pairs for astral-plane chars.
                    let c = if (0xD800..0xDC00).contains(&code) {
                        if self.bytes.get(self.pos) == Some(&b'\\')
                            && self.bytes.get(self.pos + 1) == Some(&b'u')
                        {
                            self.pos += 2;
                            let low = self.hex4()?;
                            let combined =
                                0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00));
                            char::from_u32(combined)
                                .ok_or_else(|| Error::new("invalid surrogate pair"))?
                        } else {
                            return Err(Error::new("lone high surrogate"));
                        }
                    } else {
                        char::from_u32(code).ok_or_else(|| Error::new("invalid \\u escape"))?
                    };
                    out.push(c);
                }
                other => return Err(Error::new(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        self.pos += 4;
        let s = std::str::from_utf8(hex).map_err(|_| Error::new("invalid \\u escape"))?;
        u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                });
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(to_string(&"a \"b\"\n").unwrap(), "\"a \\\"b\\\"\\n\"");
        assert_eq!(
            from_str::<String>("\"a \\\"b\\\"\\n\"").unwrap(),
            "a \"b\"\n"
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1f64, 1.0, -3.5e-12, f64::MAX, 2.0f32.powi(-30) as f64] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{json}");
        }
        let nan_json = to_string(&f64::NAN).unwrap();
        assert_eq!(nan_json, "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn large_u64_survives() {
        let seed = u64::MAX - 3;
        let json = to_string(&seed).unwrap();
        assert_eq!(from_str::<u64>(&json).unwrap(), seed);
    }

    #[test]
    fn vec_and_tuple_round_trip() {
        let pairs: Vec<(f64, f64)> = vec![(0.0, 1.0), (0.25, 0.75)];
        let json = to_string_pretty(&pairs).unwrap();
        let back: Vec<(f64, f64)> = from_str(&json).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::Obj(vec![
            ("a".to_string(), Value::U64(1)),
            ("b".to_string(), Value::Arr(vec![Value::Bool(false)])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": [\n    false\n  ]\n}");
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    fn err(json: &str) -> String {
        from_str::<Value>(json).unwrap_err().to_string()
    }

    #[test]
    fn string_escapes_decode() {
        let s: String = from_str(r#""q\" b\\ s\/ \n\r\t\b\f \u0041\u00e9""#).unwrap();
        assert_eq!(s, "q\" b\\ s/ \n\r\t\u{8}\u{c} Aé");
        // Escapes back to back, and at both ends of the string.
        assert_eq!(from_str::<String>(r#""\n\n""#).unwrap(), "\n\n");
        assert_eq!(from_str::<String>(r#""\\\\""#).unwrap(), "\\\\");
        assert_eq!(from_str::<String>(r#""""#).unwrap(), "");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_fail() {
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(from_str::<String>(r#""a\uD834\uDD1Eb""#).unwrap(), "a𝄞b");
        assert_eq!(err(r#""\ud83d""#), "json: lone high surrogate");
        assert_eq!(err(r#""\ud83dx""#), "json: lone high surrogate");
        assert_eq!(err(r#""\ude00""#), "json: invalid \\u escape");
        assert_eq!(err(r#""\u12""#), "json: truncated \\u escape");
        assert_eq!(err(r#""\u12zz""#), "json: invalid \\u escape");
    }

    #[test]
    fn multibyte_runs_survive_between_escapes() {
        let text = "naïve — 東京\t😀 «fin»";
        let json = to_string(&text).unwrap();
        assert_eq!(json, "\"naïve — 東京\\t😀 «fin»\"");
        assert_eq!(from_str::<String>(&json).unwrap(), text);
        // Keys take the same path.
        let v: Value = from_str("{\"ключ\":\"значение\"}").unwrap();
        assert_eq!(
            v,
            Value::Obj(vec![("ключ".into(), Value::Str("значение".into()))])
        );
    }

    #[test]
    fn raw_control_characters_are_still_accepted() {
        // Laxer than real JSON, which forbids these raw; pinned so the
        // run-at-a-time scan changed speed only.
        assert_eq!(
            from_str::<String>("\"a\nb\tc\u{1}\"").unwrap(),
            "a\nb\tc\u{1}"
        );
    }

    #[test]
    fn unterminated_strings_and_escapes_report_as_before() {
        assert_eq!(err("\"abc"), "json: unterminated string");
        assert_eq!(err("\"日本"), "json: unterminated string");
        assert_eq!(err("\""), "json: unterminated string");
        assert_eq!(err("\"abc\\"), "json: unterminated escape");
        assert_eq!(err(r#""\x""#), "json: invalid escape `\\x`");
        assert_eq!(err("{\"a"), "json: unterminated string");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 2 MB with an escape every 64 bytes; the per-character
        // re-validation this replaces needed ~10¹² byte visits here.
        let text =
            "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-\n".repeat(32_768);
        let json = to_string(&text).unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(from_str::<String>(&json).unwrap(), text);
        assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
