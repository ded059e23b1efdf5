//! Canonical JSON: the one reader and the writer helpers every crate that
//! persists or exports state goes through.
//!
//! * **Writers** stay hand-written and single-pass — each type appends its
//!   own keys, in its own fixed order, straight into a caller-owned
//!   `String` — and use [`write_str`] and [`write_f64`] for the two
//!   encodings that are easy to get wrong.
//! * **The reader** ([`parse`]) builds a [`Value`] tree. Numbers are kept
//!   as their source token, so [`Value::as_u64`] and [`Value::as_u32`] are
//!   exact and range-checked rather than read through `f64`. Every
//!   accessor takes the path of the value it reads (`"origin.edges"`) and
//!   names it in its error. Malformed input is an `Err`, never a panic.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The workspace's
/// documents nest at most five deep; the bound keeps hostile input from
/// exhausting the stack.
const MAX_DEPTH: usize = 64;

/// Appends `s` as a JSON string literal: `"` `\` newline, carriage return
/// and tab get their short escapes, other control characters `\u00XX`,
/// everything else is copied as is.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends `x` in shortest round-trip form with a forced decimal point
/// (`2.0`, not `2`), so the value reads back bit for bit and stays typed
/// as a float. JSON has no NaN or infinity: those are written as `null`.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains('.') {
        out.push_str(".0");
    }
}

/// A parsed JSON value, borrowing from the document where it can.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source token (already checked against the JSON
    /// number grammar).
    Num(&'a str),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, keys in document order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The member `key` of an object.
    pub fn field(&self, key: &str) -> Result<&Value<'a>, String> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected an object holding {key:?}")),
        }
    }

    /// `None` for `null`, the value otherwise.
    pub fn nullable(&self) -> Option<&Value<'a>> {
        match self {
            Value::Null => None,
            v => Some(v),
        }
    }

    /// The members of an object, in document order.
    pub fn as_obj(&self, what: &str) -> Result<&[(Cow<'a, str>, Value<'a>)], String> {
        match self {
            Value::Obj(fields) => Ok(fields),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    /// The items of an array.
    pub fn as_arr(&self, what: &str) -> Result<&[Value<'a>], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    /// The items of an array that must hold exactly `N` of them.
    pub fn as_tuple<const N: usize>(&self, what: &str) -> Result<&[Value<'a>; N], String> {
        self.as_arr(what)?
            .try_into()
            .map_err(|_| format!("{what}: expected an array of {N}"))
    }

    /// A string's unescaped text.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    /// A boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected true or false")),
        }
    }

    /// A non-negative integer, exact over the whole `u64` range.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(tok) if tok.bytes().all(|b| b.is_ascii_digit()) => tok
                .parse()
                .map_err(|_| format!("{what}: {tok} is out of range for u64")),
            _ => Err(format!("{what}: expected a non-negative integer")),
        }
    }

    /// A non-negative integer that fits a `u32`.
    pub fn as_u32(&self, what: &str) -> Result<u32, String> {
        let n = self.as_u64(what)?;
        u32::try_from(n).map_err(|_| format!("{what}: {n} is out of range for u32"))
    }

    /// A non-negative integer that fits a `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        let n = self.as_u64(what)?;
        usize::try_from(n).map_err(|_| format!("{what}: {n} is out of range for usize"))
    }

    /// A finite number.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(tok) => tok
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("{what}: {tok} is not a finite number")),
            _ => Err(format!("{what}: expected a number")),
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(doc: &str) -> Result<Value<'_>, String> {
    let mut p = Parser {
        s: doc,
        b: doc.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Parses a JSONL document: one value per line, blank lines skipped, each
/// line converted by `each`. Errors name the 1-based line number.
pub fn parse_lines<T>(
    doc: &str,
    mut each: impl FnMut(&Value<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let item = parse(line)
            .and_then(|v| each(&v))
            .map_err(|e| format!("line {}: {e}", idx + 1))?;
        out.push(item);
    }
    Ok(out)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            )),
            Some(b'{') => self.obj(depth + 1),
            Some(b'[') => self.arr(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn word(&mut self, w: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.b[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.i;
        let bad = || format!("bad number at byte {start}");
        self.i += usize::from(self.b.get(self.i) == Some(&b'-'));
        match self.b.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(bad()),
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !self.digits_nonempty() {
                return Err(bad());
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            self.i += usize::from(matches!(self.b.get(self.i), Some(b'+' | b'-')));
            if !self.digits_nonempty() {
                return Err(bad());
            }
        }
        Ok(Value::Num(&self.s[start..self.i]))
    }

    fn digits(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
    }

    fn digits_nonempty(&mut self) -> bool {
        let start = self.i;
        self.digits();
        self.i > start
    }

    /// A string literal; borrowed from the document unless it holds an
    /// escape. Slices start and end at ASCII bytes, so on char boundaries.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.i;
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.s[run..self.i];
                    self.i += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(out) => Cow::Owned(out + tail),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    self.escape(out)?;
                    run = self.i;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    /// One escape sequence, the backslash already consumed. No writer in
    /// the workspace escapes beyond U+001F, so a UTF-16 surrogate half
    /// reads as U+FFFD rather than being paired.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let e = *self.b.get(self.i).ok_or("unterminated escape")?;
        self.i += 1;
        let c = match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => char::from_u32(self.hex4()?).unwrap_or('\u{fffd}'),
            other => return Err(format!("unknown escape \\{}", other as char)),
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .b
            .get(self.i..self.i + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
        self.i += 4;
        Ok(hex.iter().fold(0, |acc, &h| {
            acc * 16 + (h as char).to_digit(16).unwrap_or(0)
        }))
    }

    fn arr(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.i));
            }
        }
    }

    fn obj(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            if self.eat(b'}') {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at byte {}", self.i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, x);
        s
    }

    fn err<T>(msg: &str) -> Result<T, String> {
        Err(msg.to_string())
    }

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn float_formatting_round_trips() {
        let x = 0.1 + 0.2; // classic non-representable sum
        let printed = f(x);
        let back: f64 = printed.parse().unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "shortest form must round-trip");
        assert_eq!(f(2.0), "2.0");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::NEG_INFINITY), "null");
        assert_eq!(f(-0.0), "-0.0");
        assert_eq!(f(1e-7), "0.0000001");
    }

    #[test]
    fn strings_escape_and_read_back() {
        let text = "q\"b\\n\nr\rt\tc\u{1}\u{1f}é\u{7f}\u{10ffff}";
        let lit = quoted(text);
        assert_eq!(
            lit,
            "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001fé\u{7f}\u{10ffff}\""
        );
        assert_eq!(parse(&lit).unwrap(), Value::Str(text.into()));
        // The escapes the writer never emits still read.
        let v = parse(r#""\/\b\f\u00e9\ud800x""#).unwrap();
        assert_eq!(v.as_str("s").unwrap(), "/\u{8}\u{c}é\u{fffd}x");
        // Unescaped strings borrow from the document.
        let plain = parse("\"plain\"").unwrap();
        assert!(matches!(plain, Value::Str(Cow::Borrowed("plain"))));
    }

    #[test]
    fn integers_are_exact_and_range_checked() {
        let v = parse("[18446744073709551615,18446744073709551616,4294967296,-1,5.7,1e3,0]");
        let a = v.as_ref().unwrap().as_arr("a").unwrap();
        assert_eq!(a[0].as_u64("a[0]"), Ok(u64::MAX));
        assert_eq!(
            a[1].as_u64("a[1]"),
            err("a[1]: 18446744073709551616 is out of range for u64")
        );
        assert_eq!(
            a[2].as_u32("a[2]"),
            err("a[2]: 4294967296 is out of range for u32")
        );
        assert_eq!(a[2].as_u64("a[2]"), Ok(1 << 32));
        for x in &a[3..6] {
            assert_eq!(x.as_u64("x"), err("x: expected a non-negative integer"));
        }
        assert_eq!(a[4].as_f64("x"), Ok(5.7));
        assert_eq!(a[5].as_f64("x"), Ok(1000.0));
        assert_eq!(a[6].as_u32("x"), Ok(0));
        assert_eq!(
            parse("1e999").unwrap().as_f64("big"),
            err("big: 1e999 is not a finite number")
        );
    }

    #[test]
    fn accessors_name_the_path() {
        let v = parse(r#"{"a":{"b":[1,"x",null,true]}}"#).unwrap();
        let b = v.field("a").unwrap().field("b").unwrap();
        let items: &[Value; 4] = b.as_tuple("a.b").unwrap();
        assert_eq!(
            items[1].as_u64("a.b[1]"),
            err("a.b[1]: expected a non-negative integer")
        );
        assert_eq!(items[2].nullable(), None);
        assert_eq!(items[3].as_bool("a.b[3]"), Ok(true));
        assert_eq!(
            b.as_tuple::<2>("a.b").map(|_| ()),
            err("a.b: expected an array of 2")
        );
        assert_eq!(v.field("z"), err("missing field \"z\""));
        assert!(items[0].field("k").is_err());
        assert_eq!(v.as_obj("root").unwrap().len(), 1);
        assert_eq!(v.as_str("root"), err("root: expected a string"));
    }

    #[test]
    fn malformed_documents_are_errors() {
        let bad = r#"| |{|[1,]|[1 2]|{"a"}|{"a":}|{a:1}|01|-|1.|.5|1e|+1|tru|nul|[1]x|{"a":1,}|é"#;
        let bad_strings = r#""abc|"\x"|"\u12"|"\u+12f"|{aaaaaaaaaaaé|"\"#;
        for doc in bad.split('|').chain(bad_strings.split('|')) {
            assert!(parse(doc).is_err(), "{doc:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn jsonl_names_the_failing_line() {
        let rows = parse_lines("1\n\n 2 \n", |v| v.as_u64("row")).unwrap();
        assert_eq!(rows, vec![1, 2]);
        let err = parse_lines("1\n\n[\n", |v| v.as_u64("row")).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
        let err = parse_lines("1\n\"x\"\n", |v| v.as_u64("row")).unwrap_err();
        assert_eq!(err, "line 2: row: expected a non-negative integer");
    }
}
