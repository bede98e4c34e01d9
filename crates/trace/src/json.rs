//! Minimal JSON tree, emitter, and parser.
//!
//! The build environment cannot fetch serde, so reports serialize through
//! this hand-rolled layer instead. The wire format is plain JSON — the
//! same documents `serde_json` would produce for the report structs — so
//! external tooling sees nothing unusual. Numbers are kept as their
//! source text inside the tree, which lets `u64` counters round-trip
//! exactly (no detour through `f64`).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Number, stored as its literal text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    pub fn num_f64(v: f64) -> Json {
        if v.is_finite() {
            // `{:?}` prints the shortest representation that round-trips.
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    pub fn num_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    pub fn num_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            Json::Null => Some(0.0),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out);
        out
    }

    /// Pretty-print with two-space indentation (the shape `serde_json`'s
    /// pretty printer produces).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.emit_pretty(&mut out, 0);
        out
    }

    fn emit(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit(out);
                }
                out.push('}');
            }
        }
    }

    fn emit_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.emit_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    emit_string(k, out);
                    out.push_str(": ");
                    v.emit_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.emit(out),
        }
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Escape `s` for inclusion inside a JSON string literal (the quotes are
/// NOT added). This is the single escaping routine for every string the
/// trace crate emits — the `Json` tree, the Chrome-trace writer, and the
/// report writer all route through it — so a span/lane/supernode name
/// containing `"`, `\`, or control characters can never produce a document
/// Perfetto or `JSON.parse` rejects.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    json_escape(s, out);
    out.push('"');
}

pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.parse::<f64>().is_err() {
            return Err(self.err(&format!("bad number '{text}'")));
        }
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("lap2d \"quoted\"\n")),
            ("n".into(), Json::num_u64(40_000)),
            ("flops".into(), Json::num_f64(1.234e9)),
            ("exact".into(), Json::num_u64(u64::MAX)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::num_f64(0.1), Json::num_f64(-2.5e-7)]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
        // u64 values beyond 2^53 survive exactly.
        assert_eq!(
            parse(&doc.to_string_compact())
                .unwrap()
                .get("exact")
                .unwrap()
                .as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn f64_shortest_repr_roundtrips() {
        for v in [0.1 + 0.2, 1e-300, -3.5, 6.02214076e23, 0.0] {
            let j = Json::num_f64(v);
            let back = parse(&j.to_string_compact()).unwrap().as_f64().unwrap();
            assert_eq!(back, v);
        }
        assert_eq!(Json::num_f64(f64::INFINITY), Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_escape_golden() {
        // Golden cases: quotes, backslashes, and control characters must
        // all come out as legal JSON escapes.
        for (raw, want) in [
            (r#"plain name"#, r#"plain name"#),
            (r#"say "hi""#, r#"say \"hi\""#),
            (r"back\slash", r"back\\slash"),
            ("tab\there", r"tab\there"),
            ("line\nbreak\r", r"line\nbreak\r"),
            ("bell\u{7}null\u{0}", "bell\\u0007null\\u0000"),
            ("unicode µ∆ ok", "unicode µ∆ ok"),
            (
                r#"mix "q" \ and
ctrl"#,
                r#"mix \"q\" \\ and\nctrl"#,
            ),
        ] {
            let mut escaped = String::new();
            json_escape(raw, &mut escaped);
            assert_eq!(escaped, want, "escaping {raw:?}");
            // And the full document containing it must parse back to the
            // original string.
            let doc = Json::Obj(vec![("name".into(), Json::str(raw))]);
            let text = doc.to_string_compact();
            assert_eq!(
                parse(&text).unwrap().get("name").unwrap().as_str(),
                Some(raw),
                "round-tripping {raw:?} through {text}"
            );
        }
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let j = parse(" { \"k\\u0041\\n\" : [ 1 , 2.5e1 ] } ").unwrap();
        assert_eq!(
            j.get("kA\n").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(25.0)
        );
    }
}
