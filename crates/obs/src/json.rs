//! A minimal JSON value, its renderer and a recursive-descent parser.
//!
//! The workspace has no crates-io access, so the trace analyzer
//! (`repro trace`) and the perf-regression gate (`repro perf --check`)
//! parse their JSONL/JSON inputs with this hand-rolled reader, and the
//! benches write their `BENCH_*.json` baselines with [`Json::render`].
//! The reader accepts the subset of JSON the workspace itself emits
//! (objects, arrays, strings with the standard escapes, finite numbers,
//! booleans, null) and rejects everything else with a positioned error.

use crate::value::write_json_string;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact: 64-bit trace ids
    /// exceed `f64`'s 53-bit mantissa, so parsing them as floats would
    /// silently corrupt them.
    Int(u64),
    /// Any other number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` rounded to `places` decimals, as `{v:.places$}` prints it.
    #[must_use]
    pub fn fixed(v: f64, places: usize) -> Json {
        Json::Num(format!("{v:.places$}").parse().unwrap_or(v))
    }

    /// Renders newline-terminated JSON text that [`Json::parse`] reads back
    /// equal: nested containers of scalars on one line, others one element
    /// per line, two-space indented. `Num` always prints a fraction or exponent
    /// (`2.0`) so it re-parses as `Num`; non-finite numbers become `null`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&String>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Num(x) if x.is_finite() => return out.push_str(&format!("{x:?}")),
            Json::Null | Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_json_string(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(kv) => ('{', '}', kv.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let inline = depth > 0
            && items
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let (newline, step) = if inline { ("", "") } else { ("\n", "  ") };
        out.push(open);
        for (i, (key, v)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            out.push_str(newline);
            out.push_str(&step.repeat(depth + 1));
            if let Some(key) = key {
                write_json_string(out, key);
                out.push_str(": ");
            }
            v.write(out, depth + 1);
        }
        out.push_str(newline);
        out.push_str(&step.repeat(depth));
        out.push(close);
    }

    /// Parses `src` as a single JSON value (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object, or `None`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, or `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number value as `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, or `None`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, or `None`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, or `None`.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, or `None`.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

macro_rules! impl_json_from {
    ($($t:ty => $to:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self { ($to)(v) }
        }
    )*};
}

impl_json_from!(u32 => |v| Json::Int(u64::from(v)), u64 => Json::Int, usize => |v| Json::Int(v as u64));
impl_json_from!(f64 => Json::Num, bool => Json::Bool, String => Json::Str);
impl_json_from!(&str => |v: &str| Json::Str(v.into()));

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii digits");
        // Plain non-negative integers stay exact (trace ids need all 64
        // bits); everything else goes through f64.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not emitted by our own
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = std::str::from_utf8(&self.b[self.i..]).expect("valid utf-8");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.i + 1;
        let end = start + 4;
        if end > self.b.len() {
            return Err(format!("truncated \\u escape at byte {}", self.i));
        }
        let hex = std::str::from_utf8(&self.b[start..end])
            .map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
        self.i = end - 1;
        Ok(code)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_records_our_sink_emits() {
        let line = r#"{"ts_us":12,"kind":"span","name":"dist.round","dur_us":431,"chunk":0,"ok":true,"ratio":1.5,"note":"a\"b\\c\nd","none":null}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("ts_us").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("span"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("note").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_arrays_and_numbers() {
        let v = Json::parse(r#"{"points":[[0,3],[4,-2]],"f":-1.25e2}"#).unwrap();
        let points = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].as_arr().unwrap()[1].as_f64(), Some(-2.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(-125.0));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = Json::parse("\"\\u0041\\u00e9 caf\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9} caf\u{e9}"));
    }

    #[test]
    fn render_escapes_strings_and_nulls_non_finite_numbers() {
        let note = "a\"b\\c\nd\t\u{1}";
        let doc = Json::obj([
            ("note", note.into()),
            ("nan", f64::NAN.into()),
            ("inf", f64::NEG_INFINITY.into()),
            ("two", 2.0.into()),
        ]);
        let text = Json::Arr(vec![doc.clone()]).render();
        assert_eq!(
            text,
            "[\n  {\"note\": \"a\\\"b\\\\c\\nd\\t\\u0001\", \"nan\": null, \"inf\": null, \"two\": 2.0}\n]\n"
        );
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("note").and_then(Json::as_str), Some(note));
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("inf"), Some(&Json::Null));
        assert_eq!(back.get("two"), Some(&Json::Num(2.0)));
    }

    #[test]
    fn render_nests_containers_and_parses_back_equal() {
        let doc = Json::obj([
            ("n", 7u64.into()),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("x", Json::fixed(0.1234, 2))]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"n\": 7,\n  \"rows\": [\n    {\"x\": 0.12},\n    []\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(Json::fixed(1.0, 2), Json::Num(1.0));
        assert_eq!(Json::fixed(0.7333333, 4), Json::Num(0.7333));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":1,}"#).is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("tru").is_err());
    }
}
