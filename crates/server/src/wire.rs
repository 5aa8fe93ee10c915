//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request. Requests are flat
//! JSON objects (string, number, boolean or `null` values only — the
//! grammar has no nesting, so the parser rejects `{`/`[` values outright):
//!
//! ```json
//! {"id":1,"verb":"ask","tenant":"alice","query":"q(N) <- r1('a', N, Y)"}
//! ```
//!
//! * `id` — required non-negative integer, echoed verbatim in the response
//!   so clients can pipeline requests over one connection;
//! * `verb` — required: `prepare`, `execute`, `ask`, `explain`,
//!   `cache_stats`, `metrics` or `shutdown`;
//! * `tenant` — optional session name (default `"default"`); budgets are
//!   accounted per tenant;
//! * `query` — the statement text, required by the four query verbs.
//!
//! Successful responses are `{"id":N,"ok":true,"verb":"…",…}` with a
//! verb-specific payload (`execute`/`ask` embed the statement's
//! [`Response::to_json_without_metrics`](toorjah_system::Response::to_json_without_metrics)
//! object under `"response"` — the process-wide metrics report is served by
//! the `metrics` verb, not repeated in every reply). Failures are a typed error shape, pinned byte-for-byte by
//! the golden tests:
//!
//! ```json
//! {"id":1,"ok":false,"error":{"code":"budget_exhausted","message":"…","retry_after_ms":null}}
//! ```
//!
//! `retry_after_ms` is non-null only for `admission_rejected` — the one
//! error where trying again later can succeed without anything else
//! changing.

use std::fmt::Write as _;

/// A scalar value of the flat request grammar.
#[derive(Clone, Debug, PartialEq)]
pub enum WireValue {
    /// A JSON string (escapes decoded).
    Str(String),
    /// A JSON number, kept integral (the grammar has no fractional fields).
    Num(i64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// A parsed request line: the flat key/value pairs in arrival order.
#[derive(Clone, Debug, Default)]
pub struct WireRequest {
    fields: Vec<(String, WireValue)>,
}

impl WireRequest {
    /// The value of `key`, when present.
    pub fn get(&self, key: &str) -> Option<&WireValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value of `key`, when present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(WireValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The integer value of `key`, when present and a number.
    pub fn num_field(&self, key: &str) -> Option<i64> {
        match self.get(key) {
            Some(WireValue::Num(n)) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one request line of the flat JSON grammar. Errors are the
/// `malformed_request` messages clients see verbatim.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut request = WireRequest::default();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            request.fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err("expected ',' or '}' after a field".to_string()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after the request object".to_string());
    }
    Ok(request)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!("expected '{}'", want as char)),
        }
    }

    fn parse_value(&mut self) -> Result<WireValue, String> {
        match self.peek() {
            Some(b'"') => Ok(WireValue::Str(self.parse_string()?)),
            Some(b'{' | b'[') => {
                Err("nested objects and arrays are not part of the request grammar".to_string())
            }
            Some(b't') => self.parse_literal("true", WireValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", WireValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", WireValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err("expected a value".to_string()),
        }
    }

    fn parse_literal(&mut self, word: &str, value: WireValue) -> Result<WireValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}'"))
        }
    }

    fn parse_number(&mut self) -> Result<WireValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err("fractional numbers are not part of the request grammar".to_string());
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i64>()
            .map(WireValue::Num)
            .map_err(|_| format!("number out of range: {text}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("expected 4 hex digits after \\u")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    _ => return Err("unsupported escape".to_string()),
                },
                Some(b) if b < 0x20 => {
                    return Err("unescaped control character in string".to_string())
                }
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences: the input is a
                    // &str, so continuation bytes are guaranteed well-formed.
                    let len = utf8_len(b);
                    let start = self.pos - 1;
                    self.pos = start + len;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// The typed wire-error codes. The names are the wire strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a flat JSON object of the request grammar, or a
    /// required field (`id`, `verb`) is missing or mistyped.
    MalformedRequest,
    /// The `verb` is not one of the seven the protocol defines.
    UnknownVerb,
    /// A query verb arrived without a `query` field.
    MissingQuery,
    /// Parsing, planning or executing the statement failed; the message
    /// carries the facade's error rendering.
    QueryError,
    /// The tenant's access budget cannot cover another source access. The
    /// execution was either refused up front (budget already zero) or
    /// aborted atomically mid-run — never a partial answer.
    BudgetExhausted,
    /// The admission controller is saturated (all execution slots busy and
    /// the wait queue full); retry after `retry_after_ms`.
    AdmissionRejected,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// The execution panicked (a panicking source, say). The request
    /// completed with no answer; the connection and every other tenant
    /// are unaffected.
    ExecutionPanicked,
}

impl ErrorCode {
    /// The wire string of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::MissingQuery => "missing_query",
            ErrorCode::QueryError => "query_error",
            ErrorCode::BudgetExhausted => "budget_exhausted",
            ErrorCode::AdmissionRejected => "admission_rejected",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ExecutionPanicked => "execution_panicked",
        }
    }
}

/// Renders the error response line: `id` is `null` when the request was too
/// malformed to carry one, `retry_after_ms` is non-null only for
/// [`ErrorCode::AdmissionRejected`].
pub fn error_line(
    id: Option<i64>,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"id\":");
    match id {
        Some(id) => {
            let _ = write!(out, "{id}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"ok\":false,\"error\":{\"code\":\"");
    out.push_str(code.as_str());
    out.push_str("\",\"message\":");
    push_json_string(&mut out, message);
    out.push_str(",\"retry_after_ms\":");
    match retry_after_ms {
        Some(ms) => {
            let _ = write!(out, "{ms}");
        }
        None => out.push_str("null"),
    }
    out.push_str("}}");
    out
}

/// Starts a success response line: `{"id":N,"ok":true,"verb":"…"` — the
/// caller appends the verb-specific payload and the closing brace.
pub fn ok_head(id: i64, verb: &str) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"verb\":\"{verb}\"");
    out
}

/// JSON string escaping (same repertoire as the system crate's renderer).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r =
            parse_request(r#"{"id":7,"verb":"ask","tenant":"alice","query":"q(X) <- r('a', X)"}"#)
                .unwrap();
        assert_eq!(r.num_field("id"), Some(7));
        assert_eq!(r.str_field("verb"), Some("ask"));
        assert_eq!(r.str_field("tenant"), Some("alice"));
        assert_eq!(r.str_field("query"), Some("q(X) <- r('a', X)"));
    }

    #[test]
    fn decodes_escapes_and_scalars() {
        let r = parse_request(r#"{"a":"x\"y\nA","b":-12,"c":true,"d":null}"#).unwrap();
        assert_eq!(r.str_field("a"), Some("x\"y\nA"));
        assert_eq!(r.num_field("b"), Some(-12));
        assert_eq!(r.get("c"), Some(&WireValue::Bool(true)));
        assert_eq!(r.get("d"), Some(&WireValue::Null));
    }

    #[test]
    fn rejects_nesting_and_trailing_garbage() {
        assert!(parse_request(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_request(r#"{"a":[1]}"#).is_err());
        assert!(parse_request(r#"{"a":1} extra"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"a":1.5}"#).is_err());
    }

    #[test]
    fn error_lines_are_stable() {
        assert_eq!(
            error_line(
                Some(3),
                ErrorCode::UnknownVerb,
                "no verb \"frobnicate\"",
                None
            ),
            "{\"id\":3,\"ok\":false,\"error\":{\"code\":\"unknown_verb\",\
             \"message\":\"no verb \\\"frobnicate\\\"\",\"retry_after_ms\":null}}"
        );
        assert_eq!(
            error_line(None, ErrorCode::AdmissionRejected, "saturated", Some(25)),
            "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"admission_rejected\",\
             \"message\":\"saturated\",\"retry_after_ms\":25}}"
        );
    }
}
