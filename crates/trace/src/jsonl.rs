//! Append-only JSONL sink plus the minimal writer/parser it needs.
//!
//! The workspace is dependency-free, so both directions are hand-rolled and
//! intentionally small: records are *flat* JSON objects whose values are
//! strings, numbers, `null`, or arrays of numbers/`null`. That is exactly
//! what [`crate::Trace::record`] can emit, and the parser here exists so
//! tests and the `puffer trace` CLI command can validate a metrics file
//! without pulling in a JSON crate.
//!
//! Crash discipline matches the checkpoint journal: every record is one
//! line, flushed before `write_line` returns, so a crash can only lose (or
//! truncate) the final line. [`read_jsonl`] therefore skips an unterminated
//! trailing line but treats any other malformed line as corruption.

use puffer_budget::fsx;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

/// One-write-per-record append sink over [`fsx::AppendSink`].
///
/// Every record is pushed to the OS as one write (so a crash loses at most
/// the line in flight) and durability is settled by [`JsonlSink::flush`]
/// through [`fsx::AppendSink::sync`] — telemetry does not pay a per-record
/// `fsync`.
#[derive(Debug)]
pub(crate) struct JsonlSink {
    sink: fsx::AppendSink,
    path: PathBuf,
    /// First write error since the last clean [`JsonlSink::flush`].
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the sink file.
    pub(crate) fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            sink: fsx::AppendSink::create(path)?,
            path: path.to_path_buf(),
            error: None,
        })
    }

    /// The file this sink appends to (for error context).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `line` plus a newline in a single write, so previously
    /// written records survive any later crash. A failure never reaches
    /// the caller: the first one is kept for [`JsonlSink::flush`].
    pub(crate) fn write_line(&mut self, line: &str) {
        let mut record = Vec::with_capacity(line.len() + 1);
        record.extend_from_slice(line.as_bytes());
        record.push(b'\n');
        if let Err(e) = self.sink.write_record(&record) {
            self.error.get_or_insert(e);
        }
    }

    /// Forces the sink's records to stable storage (`fsync`), then reports
    /// (and clears) the first write error kept by
    /// [`JsonlSink::write_line`].
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        self.sink.sync()?;
        self.error.take().map_or(Ok(()), Err)
    }
}

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters) — the one escaper every JSONL writer in the
/// workspace shares.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Builder for one flat JSON record line, `{"t":"<kind>",…}`: the one
/// place that escapes keys and strings and spells non-finite numbers as
/// `null`. [`crate::Record`] is this plus a sink; the serve protocol's
/// `JsonLine` is this plus a leading `"v"` field.
#[derive(Debug)]
pub struct Line {
    buf: String,
    /// Byte length of the `{"t":"<kind>"` prefix.
    kind_end: usize,
}

impl Line {
    /// Starts a record of the given kind: `{"t":"<kind>"`.
    pub fn new(kind: &str) -> Self {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"t\":\"");
        escape_into(kind, &mut buf);
        buf.push('"');
        let kind_end = buf.len();
        Line { buf, kind_end }
    }

    /// Appends `,"key":`; the value follows.
    fn key(&mut self, key: &str) {
        self.buf.push_str(",\"");
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Appends a bare number: `{:?}`-spelled (`1.0`, `1e21`) when `debug`,
    /// else the shortest spelling (`1`); `null` when non-finite.
    fn value(&mut self, value: f64, debug: bool) {
        let _ = match (value.is_finite(), debug) {
            (false, _) => self.buf.write_str("null"),
            (true, false) => write!(self.buf, "{value}"),
            (true, true) => write!(self.buf, "{value:?}"),
        };
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a numeric field in the shortest spelling that round-trips
    /// (`1`, `0.25`); non-finite values become `null`.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.value(value, false);
        self
    }

    /// [`Line::num`] spelled the way `{:?}` spells an `f64` (`1.0`): the
    /// float format of the serve protocol.
    pub fn num_debug(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.value(value, true);
        self
    }

    /// Adds an array-of-numbers field (non-finite entries become `null`).
    pub fn nums(mut self, key: &str, values: &[f64]) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.value(*v, false);
        }
        self.buf.push(']');
        self
    }

    /// Closes the record (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// [`Line::finish`] with `"elapsed_s"` spliced in as the first field
    /// after the kind, so [`crate::Record::write`] can read the clock as
    /// late as the write itself.
    pub(crate) fn finish_stamped(mut self, elapsed_s: f64) -> String {
        let fields = self.buf.split_off(self.kind_end);
        self = self.num("elapsed_s", elapsed_s);
        self.buf.push_str(&fields);
        self.finish()
    }
}

/// Errors from [`read_jsonl`].
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io {
        /// The file being read.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A line (other than an unterminated trailing one) is not a valid
    /// record.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            TraceError::Parse { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            TraceError::Parse { .. } => None,
        }
    }
}

/// A field value in a parsed record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A finite JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// `null` (how the writer encodes non-finite numbers).
    Null,
    /// An array of numbers, with `None` for `null` entries.
    Arr(Vec<Option<f64>>),
}

/// One parsed JSONL record: an ordered list of `(key, value)` fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Fields in file order; the first is normally `("t", kind)`.
    pub fields: Vec<(String, Value)>,
}

impl ParsedRecord {
    /// Looks up a field by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The record kind: the `"t"` field, when it is a string.
    pub fn kind(&self) -> Option<&str> {
        self.str_field("t")
    }

    /// A numeric field, when present and finite.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// A string field, when present.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat-object JSON line.
///
/// # Errors
///
/// Returns a human-readable message when the line is not a flat JSON
/// object of string/number/null/number-array values.
pub fn parse_record(line: &str) -> Result<ParsedRecord, String> {
    let mut p = Parser {
        chars: line.char_indices().peekable(),
        src: line,
    };
    p.skip_ws();
    p.expect_char('{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.eat('}') {
        p.expect_end()?;
        return Ok(ParsedRecord { fields });
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect_char(':')?;
        p.skip_ws();
        let value = p.parse_value()?;
        fields.push((key, value));
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect_char('}')?;
        p.expect_end()?;
        return Ok(ParsedRecord { fields });
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of line")),
        }
    }

    fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            None => Ok(()),
            Some((i, c)) => Err(format!("trailing content at byte {i}: '{c}'")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(Value::Str(self.parse_string()?)),
            Some((_, '[')) => self.parse_array(),
            Some((_, 'n')) => {
                self.parse_literal("null")?;
                Ok(Value::Null)
            }
            Some((_, c)) if *c == '-' || c.is_ascii_digit() => Ok(Value::Num(self.parse_number()?)),
            Some((i, c)) => Err(format!("unexpected value at byte {i}: '{c}'")),
            None => Err("expected a value, found end of line".to_string()),
        }
    }

    fn parse_literal(&mut self, lit: &str) -> Result<(), String> {
        for want in lit.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return Err(format!("invalid literal (expected '{lit}')")),
            }
        }
        Ok(())
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = match self.chars.peek() {
            Some((i, _)) => *i,
            None => return Err("expected a number".to_string()),
        };
        let mut end = start;
        while let Some((i, c)) = self.chars.peek() {
            if matches!(c, '-' | '+' | '.' | 'e' | 'E') || c.is_ascii_digit() {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        self.src[start..end]
            .parse::<f64>()
            .map_err(|_| format!("invalid number '{}'", &self.src[start..end]))
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect_char('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some((_, 'n')) => {
                    self.parse_literal("null")?;
                    items.push(None);
                }
                _ => items.push(Some(self.parse_number()?)),
            }
            self.skip_ws();
            if self.eat(',') {
                continue;
            }
            self.expect_char(']')?;
            return Ok(Value::Arr(items));
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".to_string()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = match self.chars.next() {
                                Some((_, c)) => c
                                    .to_digit(16)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                                None => return Err("truncated \\u escape".to_string()),
                            };
                            code = code * 16 + d;
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid \\u{code:04x} escape")),
                        }
                    }
                    Some((i, c)) => {
                        return Err(format!("invalid escape '\\{c}' at byte {i}"));
                    }
                    None => return Err("truncated escape".to_string()),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }
}

/// Reads and validates a metrics file.
///
/// Every line must parse as a flat-object record, except that a final line
/// with no terminating newline is allowed to be malformed (a crash while
/// writing it) and is silently skipped.
///
/// # Errors
///
/// [`TraceError::Io`] when the file cannot be read, [`TraceError::Parse`]
/// when any fully written line is malformed.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<ParsedRecord>, TraceError> {
    let path = path.as_ref();
    // The shared torn-tail rule (fsx): a final line without its newline is
    // the crash-truncated tail and is dropped before validation.
    let journal = fsx::read_journal_tail_tolerant(path).map_err(|source| TraceError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let mut records = Vec::with_capacity(journal.len());
    for (idx, line) in journal.records().iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Ok(r) => records.push(r),
            Err(message) => {
                return Err(TraceError::Parse {
                    line: idx + 1,
                    message,
                });
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flat_record() {
        let r = parse_record(
            r#"{"t":"place.iter","iter":3,"hpwl":1.25e2,"bad":null,"note":"a\"b\n","hist":[1,null,2.5]}"#,
        )
        .unwrap();
        assert_eq!(r.kind(), Some("place.iter"));
        assert_eq!(r.num("iter"), Some(3.0));
        assert_eq!(r.num("hpwl"), Some(125.0));
        assert!(matches!(r.get("bad"), Some(Value::Null)));
        assert_eq!(r.str_field("note"), Some("a\"b\n"));
        assert_eq!(
            r.get("hist"),
            Some(&Value::Arr(vec![Some(1.0), None, Some(2.5)]))
        );
        assert_eq!(r.num("missing"), None);
    }

    #[test]
    fn parse_empty_object() {
        assert!(parse_record("{}").unwrap().fields.is_empty());
        assert!(parse_record("  { }  ").unwrap().fields.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_record("").is_err());
        assert!(parse_record("{").is_err());
        assert!(parse_record(r#"{"a":}"#).is_err());
        assert!(parse_record(r#"{"a":1} extra"#).is_err());
        assert!(parse_record(r#"{"a":true}"#).is_err());
        assert!(parse_record(r#"{"a":{"nested":1}}"#).is_err());
        assert!(parse_record(r#"{"a":"unterminated}"#).is_err());
    }

    #[test]
    fn escape_roundtrip() {
        let original = "tabs\t \"quotes\" \\slashes\\ \u{1}control \u{263a}";
        let mut line = String::from("{\"t\":\"");
        escape_into(original, &mut line);
        line.push_str("\"}");
        let r = parse_record(&line).unwrap();
        assert_eq!(r.kind(), Some(original));
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        let line = Line::new("x")
            .num("a", f64::INFINITY)
            .num("b", 2.5)
            .nums("c", &[1.0, f64::NAN])
            .finish();
        assert_eq!(line, r#"{"t":"x","a":null,"b":2.5,"c":[1,null]}"#);
        let r = parse_record(&line).unwrap();
        assert!(matches!(r.get("a"), Some(Value::Null)));
        assert_eq!(r.num("b"), Some(2.5));
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("puffer-trace-jsonl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn read_jsonl_skips_only_unterminated_trailing_line() {
        let path = tmp("truncated.jsonl");
        std::fs::write(&path, "{\"t\":\"a\"}\n{\"t\":\"b\"}\n{\"t\":\"tru").unwrap();
        let records = read_jsonl(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].kind(), Some("b"));

        // The same malformed line *with* a newline is corruption.
        let bad = tmp("corrupt.jsonl");
        std::fs::write(&bad, "{\"t\":\"a\"}\n{\"t\":\"tru\n{\"t\":\"b\"}\n").unwrap();
        let err = read_jsonl(&bad).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn read_jsonl_missing_file_is_io_error() {
        let err = read_jsonl(tmp("does-not-exist.jsonl")).unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }), "{err}");
    }
}
