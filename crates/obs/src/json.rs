//! The workspace's JSON: one value model, a compact and a pretty writer,
//! and a recursive-descent parser, std-only.
//!
//! Everything JSON goes through [`Json`]: trace events and daemon replies
//! are built as values and written compact; request bodies, traces and
//! `BENCHMARK.json` are read back with [`Json::parse`]; result rows and
//! reports (`results/*.json`, `BENCH_kernels.json`) are converted with
//! [`json_row!`](crate::json_row) and the `From` impls below, and written
//! with [`Json::to_string_pretty`].
//!
//! Numbers are `f64`, so an integer converts exactly only below 2^53 —
//! 64-bit hashes travel as hex strings. The parser refuses nesting deeper
//! than 128 containers: the daemon parses untrusted bodies on worker
//! threads, where unbounded recursion would overflow the stack and abort
//! the process.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&n.to_string());
                } else {
                    out.push_str("null");
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Two-space-indented rendering, one item per line, `"key": value`,
    /// empty containers on one line: the layout of `results/*.json`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let newline = |out: &mut String, indent: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
            scalar_or_empty => scalar_or_empty.write(out),
        }
    }

    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        /// Exact below 2^53 (see the module doc).
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<A: Into<Json>, B: Into<Json>> From<(A, B)> for Json {
    fn from((a, b): (A, B)) -> Self {
        Json::Arr(vec![a.into(), b.into()])
    }
}

/// `impl From<Row> for Json`: one object whose keys are the listed fields,
/// in the listed order (keep it the declaration order). The struct is
/// destructured without `..`, so a field added to it but not to the list
/// is a compile error. Every field type needs `Into<Json>`.
///
/// ```
/// struct Row { task: String, seconds: f64 }
/// kgtosa_obs::json_row!(Row { task, seconds });
///
/// let row = Row { task: "PV/MAG".into(), seconds: 0.5 };
/// assert_eq!(kgtosa_obs::Json::from(row).to_string(), r#"{"task":"PV/MAG","seconds":0.5}"#);
/// ```
#[macro_export]
macro_rules! json_row {
    ($row:ident { $($field:ident),* $(,)? }) => {
        impl From<$row> for $crate::Json {
            fn from(row: $row) -> Self {
                let $row { $($field),* } = row;
                $crate::Json::Obj(vec![$((stringify!($field).into(), $field.into())),*])
            }
        }
    };
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
}

/// Containers [`Json::parse`] opens before it gives up.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1).ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Outside the BMP, UTF-16 sends a high and a low
                            // surrogate as two escapes (`\ud83d\ude00` is
                            // 😀); a lone half stays U+FFFD.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                if let Some(low) = self
                                    .hex4(self.pos + 3)
                                    .filter(|low| (0xDC00..0xE000).contains(low))
                                {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // One whole character: `pos` only ever advances over
                    // ASCII syntax or whole characters, so it is a boundary.
                    let c = self.text[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The four hex digits at `at`, if that is what is there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.bytes.get(at..at + 4)?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
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
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Json, MAX_DEPTH};

    #[test]
    fn round_trip() {
        let src = r#"{"ev":"span","name":"a.b","wall_s":0.25,"ok":true,"tags":[1,2,null],"msg":"x\"y\n中"}"#;
        let parsed = Json::parse(src).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a.b"));
        assert_eq!(parsed.get("wall_s").unwrap().as_f64(), Some(0.25));
        let reparsed = Json::parse(&parsed.to_string()).unwrap();
        assert_eq!(parsed, reparsed);

        // A surrogate pair is one character (Python's `json.dumps("😀")`);
        // a half without its partner is U+FFFD.
        let src = r#"["\ud83d\ude00","\ud83d!","\ude00","\ud83d\u0041","\uD83D\uDE00x"]"#;
        let Json::Arr(items) = Json::parse(src).unwrap() else { panic!("an array") };
        let texts: Vec<_> = items.iter().map(|s| s.as_str().unwrap()).collect();
        assert_eq!(texts, ["😀", "\u{fffd}!", "\u{fffd}", "\u{fffd}A", "😀x"]);
        assert_eq!(Json::parse(&items[0].to_string()).unwrap(), items[0]);
        assert!(Json::parse(r#""\u12""#).is_err());
        assert!(Json::parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // What a daemon worker sees: 1 MiB of `[` on a 2 MiB stack is an
        // error, not a stack overflow.
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(1 << 20)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed);
    }

    #[test]
    fn pretty_layout() {
        let doc = Json::parse(r#"{"a":[1,[2.5,"x,y:{z}"]],"b":{},"c":[],"d":{"e":null}}"#).unwrap();
        let pretty = "{\n  \"a\": [\n    1,\n    [\n      2.5,\n      \"x,y:{z}\"\n    ]\n  ],\n  \
                      \"b\": {},\n  \"c\": [],\n  \"d\": {\n    \"e\": null\n  }\n}";
        assert_eq!(doc.to_string_pretty(), pretty);
        assert_eq!(Json::parse(pretty).unwrap(), doc);
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
        assert_eq!(Json::from(3.5).to_string_pretty(), "3.5");
    }

    #[test]
    fn conversions() {
        let rows = vec![(1usize, 0.5f64), (u32::MAX as usize, -2.0)];
        assert_eq!(Json::from(rows).to_string(), "[[1,0.5],[4294967295,-2]]");
        assert_eq!(Json::from(vec!["a", "b"]).to_string(), r#"["a","b"]"#);
        assert_eq!(Json::from(String::from("q\"")).to_string(), r#""q\"""#);
        assert_eq!(Json::from(true), Json::Bool(true));
        assert_eq!(Json::from(-7i64), Json::Num(-7.0));
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} extra").is_err());
    }
}
