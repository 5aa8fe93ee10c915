//! A minimal blocking wire client: one connection, pipelined request ids,
//! line-in/line-out. Used by the load tests, the CI smoke step and the
//! `toorjah_client` binary; applications wanting richer handling can speak
//! the line protocol directly (see DESIGN.md §10).

use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::push_json_string;

/// A blocking client over one TCP connection.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing line and its newline, so a request leaves in one write.
    outgoing: Vec<u8>,
    tenant: String,
    next_id: i64,
}

impl WireClient {
    /// Connects to `addr` as `tenant`. Nagle's algorithm is off: a request
    /// is one small write answered before the next is sent, so holding it
    /// back for the peer's delayed ACK would add tens of milliseconds to
    /// every round trip.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            outgoing: Vec::new(),
            tenant: tenant.to_string(),
            next_id: 0,
        })
    }

    /// The tenant this client sends as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Sends a raw request line (no trailing newline) and returns the raw
    /// response line. The line and its newline go out in one write.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.outgoing.clear();
        self.outgoing.extend_from_slice(line.as_bytes());
        self.outgoing.push(b'\n');
        self.writer.write_all(&self.outgoing)?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while reply.ends_with(['\n', '\r']) {
            reply.pop();
        }
        Ok(reply)
    }

    fn request(&mut self, verb: &str, query: Option<&str>) -> std::io::Result<String> {
        self.next_id += 1;
        let mut line = format!("{{\"id\":{},\"verb\":\"{verb}\",\"tenant\":", self.next_id);
        push_json_string(&mut line, &self.tenant);
        if let Some(query) = query {
            line.push_str(",\"query\":");
            push_json_string(&mut line, query);
        }
        line.push('}');
        self.round_trip(&line)
    }

    /// Plans `query` into the server's statement registry.
    pub fn prepare(&mut self, query: &str) -> std::io::Result<String> {
        self.request("prepare", Some(query))
    }

    /// Executes `query` through the statement registry (plans on first
    /// sight), charged against this tenant's budget.
    pub fn execute(&mut self, query: &str) -> std::io::Result<String> {
        self.request("execute", Some(query))
    }

    /// One-shot parse + plan + execute, charged against this tenant's
    /// budget.
    pub fn ask(&mut self, query: &str) -> std::io::Result<String> {
        self.request("ask", Some(query))
    }

    /// The plan explanation for `query`.
    pub fn explain(&mut self, query: &str) -> std::io::Result<String> {
        self.request("explain", Some(query))
    }

    /// The shared cache's counters.
    pub fn cache_stats(&mut self) -> std::io::Result<String> {
        self.request("cache_stats", None)
    }

    /// The folded metrics report (server gauges, tenants, registry, cache).
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.request("metrics", None)
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> std::io::Result<String> {
        self.request("shutdown", None)
    }
}

/// Whether a response line reports success.
pub fn reply_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// The error code of a failed response line, when present.
pub fn reply_error_code(reply: &str) -> Option<&str> {
    let rest = reply.split("\"code\":\"").nth(1)?;
    rest.split('"').next()
}

/// The integer value of a top-level-ish `"field":N` occurrence — the wire
/// responses never repeat a numeric field name at different depths with
/// different meanings, so a textual scan suffices for tests and tooling.
pub fn reply_number(reply: &str, field: &str) -> Option<i64> {
    let needle = format!("\"{field}\":");
    let rest = &reply[reply.find(&needle)? + needle.len()..];
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// The `"answers":[…]` fragment of an execute/ask response, brackets
/// included — answers are sorted tuples, so equal fragments mean equal
/// answer sets.
pub fn reply_answers(reply: &str) -> Option<&str> {
    let start = reply.find("\"answers\":")? + "\"answers\":".len();
    let bytes = reply.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes[start..].iter().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&reply[start..start + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_disable_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client =
            WireClient::connect(listener.local_addr().expect("addr"), "t").expect("connect");
        assert!(
            client.writer.nodelay().expect("nodelay"),
            "requests must not wait for an ACK"
        );
        assert!(
            client.reader.get_ref().nodelay().expect("nodelay"),
            "one socket, one setting"
        );
    }

    #[test]
    fn reply_helpers_extract_fragments() {
        let reply = r#"{"id":3,"ok":true,"verb":"execute","budget_remaining":98,"response":{"answers":[["c1"],["c2",7]],"answer_count":2}}"#;
        assert!(reply_ok(reply));
        assert_eq!(reply_error_code(reply), None);
        assert_eq!(reply_number(reply, "budget_remaining"), Some(98));
        assert_eq!(reply_answers(reply), Some("[[\"c1\"],[\"c2\",7]]"));

        let err = r#"{"id":4,"ok":false,"error":{"code":"admission_rejected","message":"busy","retry_after_ms":25}}"#;
        assert!(!reply_ok(err));
        assert_eq!(reply_error_code(err), Some("admission_rejected"));
        assert_eq!(reply_number(err, "retry_after_ms"), Some(25));
    }
}
