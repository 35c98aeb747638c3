//! Hand-rolled HTTP/1.1 request parsing and response serialization —
//! just enough for a JSON API driven by `curl` and tests, hardened
//! against hostile clients: every read is bounded (header bytes, header
//! count, body bytes) and failures carry the status code the client
//! should see.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};

/// Maximum accepted body size (1 MiB of JSON records per request).
pub const MAX_BODY: usize = 1 << 20;

/// Maximum bytes across the request line and all headers. A client that
/// streams headers forever is cut off here instead of growing memory.
pub const MAX_HEADER_BYTES: usize = 8 << 10;

/// Maximum number of header lines.
pub const MAX_HEADER_COUNT: usize = 64;

/// A request-reading failure, carrying the HTTP status and machine error
/// code the client should receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// Status to respond with (400, 408, 413, 431, …).
    pub status: u16,
    /// Stable machine-readable error code (`"bad_request"`,
    /// `"timeout"`, `"body_too_large"`, `"header_too_large"`, …).
    pub code: &'static str,
    /// Human-readable cause, returned in the JSON error body.
    pub message: String,
}

impl HttpError {
    /// An error with an explicit status and code.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status,
            code,
            message: message.into(),
        }
    }

    /// A plain 400 with code `"bad_request"`.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad_request", message)
    }

    /// Classifies an I/O failure: socket read deadlines surface as
    /// `WouldBlock`/`TimedOut` and map to 408, everything else to 400.
    fn from_io(err: &std::io::Error, context: &str) -> Self {
        match err.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                Self::new(408, "timeout", format!("timed out reading {context}"))
            }
            ErrorKind::UnexpectedEof => {
                Self::bad_request(format!("connection closed mid-{context}"))
            }
            _ => Self::bad_request(format!("i/o error reading {context}: {err}")),
        }
    }

    /// The response this error should produce.
    pub fn to_response(&self) -> Response {
        Response::error(self.status, self.code, &self.message)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path component, e.g. `/health` (query strings are not split off).
    pub path: String,
    /// Lowercased media type from the `Content-Type` header, parameters
    /// stripped (`application/x-ndjson`, `application/json`, …); empty
    /// when the header is absent. Routes that negotiate on content type
    /// (bulk ingest) read this; everything else ignores it.
    pub content_type: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// A response to serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &serde_json::Value) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: value.to_string().into_bytes(),
        }
    }

    /// A plain-text response with an explicit content type (the `/metrics`
    /// route uses the Prometheus exposition content type).
    pub fn text(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            content_type,
            body: body.into_bytes(),
        }
    }

    /// The standard JSON error envelope every route uses:
    /// `{ "error": { "code": <machine code>, "message": <human text> } }`.
    pub fn error(status: u16, code: &str, message: impl Into<String>) -> Self {
        Self::json(
            status,
            &serde_json::json!({ "error": { "code": code, "message": message.into() } }),
        )
    }
}

/// Reads one `\n`-terminated line, charging its bytes against `budget`.
/// Exceeding the budget is a 431; EOF mid-line is a 400.
fn read_bounded_line<R: Read>(
    reader: &mut BufReader<R>,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    // One byte past the budget distinguishes "line fits exactly" from
    // "line keeps going".
    let n = (&mut *reader)
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|e| HttpError::from_io(&e, "headers"))?;
    if n == 0 {
        return Ok(None);
    }
    // A line of exactly `budget + 1` bytes can still be `\n`-terminated, so
    // the over-budget check must come before the subtraction either way.
    if n > *budget {
        return Err(HttpError::new(
            431,
            "header_too_large",
            format!("header section exceeds {MAX_HEADER_BYTES} bytes"),
        ));
    }
    if buf.last() != Some(&b'\n') {
        return Err(HttpError::bad_request("connection closed mid-headers"));
    }
    *budget -= n;
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf).map(Some).map_err(|_| {
        HttpError::bad_request("header line is not valid UTF-8")
    })
}

/// Reads one request from a stream.
///
/// # Errors
///
/// Returns an [`HttpError`] carrying the right status: 400 for malformed
/// requests (conflicting `Content-Length` fields included), 408 for read
/// deadlines hit mid-request, 413 for oversized bodies, 431 for an
/// oversized or endless header section.
pub fn read_request<R: Read>(stream: R) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut header_budget = MAX_HEADER_BYTES;

    let request_line = read_bounded_line(&mut reader, &mut header_budget)?
        .ok_or_else(|| HttpError::bad_request("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("missing request path"))?
        .to_string();

    // Headers: we only care about Content-Length and Content-Type.
    let mut content_length: Option<usize> = None;
    let mut content_type = String::new();
    let mut header_count = 0usize;
    loop {
        let line = read_bounded_line(&mut reader, &mut header_budget)?
            .ok_or_else(|| HttpError::bad_request("connection closed mid-headers"))?;
        if line.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADER_COUNT {
            return Err(HttpError::new(
                431,
                "header_too_large",
                format!("more than {MAX_HEADER_COUNT} headers"),
            ));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                let length = value.parse().map_err(|_| {
                    HttpError::bad_request(format!("bad content-length `{value}`"))
                })?;
                // RFC 9112 §6.3: differing Content-Length fields leave the
                // body's end ambiguous, so the request is unrecoverable.
                if content_length.is_some_and(|earlier| earlier != length) {
                    return Err(HttpError::bad_request(format!(
                        "conflicting content-length `{value}`"
                    )));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("content-type") {
                // Media type only — `application/json; charset=utf-8`
                // negotiates the same as `application/json`.
                let media = value.split(';').next().unwrap_or("").trim();
                content_type = media.to_ascii_lowercase();
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::new(
            413,
            "body_too_large",
            format!("body of {content_length} bytes exceeds limit"),
        ));
    }

    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::from_io(&e, "body"))?;
    Ok(Request {
        method,
        path,
        content_type,
        body,
    })
}

/// Writes a response to a stream.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_response<W: Write>(mut stream: W, response: &Response) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        // A neutral phrase for anything unmapped; previously every
        // unmapped status — including 429 and 503 — was labelled
        // "Internal Server Error".
        _ => "Unknown",
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    )?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /v1/health HTTP/1.1\r\nhost: x\r\n\r\n";
        let r = read_request(&raw[..]).unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/health");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/scans HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let r = read_request(&raw[..]).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn content_length_is_case_insensitive() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-LENGTH: 2\r\n\r\nhi";
        let r = read_request(&raw[..]).unwrap();
        assert_eq!(r.body, b"hi");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_with_400() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 5\r\n\r\nhello";
        let err = read_request(&raw[..]).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("conflicting content-length"), "{}", err.message);
        // Repeating the same length is not a conflict.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length:  2\r\n\r\nhi";
        assert_eq!(read_request(&raw[..]).unwrap().body, b"hi");
    }

    #[test]
    fn content_type_is_normalized_to_the_media_type() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Type: Application/X-NDJSON; charset=utf-8\r\ncontent-length: 2\r\n\r\nhi";
        let r = read_request(&raw[..]).unwrap();
        assert_eq!(r.content_type, "application/x-ndjson");
        let raw = b"GET /v1/health HTTP/1.1\r\n\r\n";
        assert_eq!(read_request(&raw[..]).unwrap().content_type, "");
    }

    #[test]
    fn rejects_oversized_body_with_413() {
        let raw = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        let err = read_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
        assert!(err.message.contains("exceeds limit"));
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        let err = read_request(&raw[..]).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("mid-body"), "{}", err.message);
    }

    #[test]
    fn rejects_garbage_request_line() {
        let raw = b"\r\n\r\n";
        assert!(read_request(&raw[..]).is_err());
    }

    #[test]
    fn rejects_endless_header_line_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\nx-junk: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 100));
        let err = read_request(&raw[..]).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn rejects_oversized_header_section_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        // Many individually small headers that together blow the budget.
        for i in 0..2000 {
            raw.extend(format!("x-h{i}: {:0100}\r\n", i).into_bytes());
        }
        raw.extend(b"\r\n");
        let err = read_request(&raw[..]).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn rejects_too_many_headers_with_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADER_COUNT + 1 {
            raw.extend(format!("x-{i}: 1\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        let err = read_request(&raw[..]).unwrap_err();
        assert_eq!(err.status, 431);
    }

    #[test]
    fn header_section_just_under_the_cap_parses() {
        let mut raw = b"POST /x HTTP/1.1\r\ncontent-length: 2\r\n".to_vec();
        raw.extend(format!("x-pad: {}\r\n", "b".repeat(4000)).into_bytes());
        raw.extend(b"\r\nhi");
        let r = read_request(&raw[..]).unwrap();
        assert_eq!(r.body, b"hi");
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::json(200, &serde_json::json!({"ok": true}));
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json"));
        assert!(text.contains("content-length: 11"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn reason_phrases_match_status() {
        for (status, phrase) in [
            (410, "410 Gone"),
            (429, "429 Too Many Requests"),
            (500, "500 Internal Server Error"),
            (503, "503 Service Unavailable"),
            (418, "418 Unknown"),
        ] {
            let mut out = Vec::new();
            write_response(&mut out, &Response::error(status, "err", "x")).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(
                text.starts_with(&format!("HTTP/1.1 {phrase}\r\n")),
                "{status}: {}",
                text.lines().next().unwrap()
            );
        }
    }

    #[test]
    fn text_response_carries_content_type() {
        let resp = Response::text(200, "text/plain; charset=utf-8", "hello".to_string());
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("content-type: text/plain; charset=utf-8"));
        assert!(text.ends_with("hello"));
    }

    #[test]
    fn error_helper_shapes_the_standard_envelope() {
        let resp = Response::error(404, "not_found", "no such route");
        assert_eq!(resp.status, 404);
        let body: serde_json::Value =
            serde_json::from_slice(&resp.body).expect("error body is JSON");
        assert_eq!(body["error"]["code"], "not_found");
        assert_eq!(body["error"]["message"], "no such route");
    }

    #[test]
    fn read_errors_carry_machine_codes() {
        let raw = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(read_request(raw.as_bytes()).unwrap_err().code, "body_too_large");
        let mut raw = b"GET / HTTP/1.1\r\nx-junk: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 100));
        assert_eq!(read_request(&raw[..]).unwrap_err().code, "header_too_large");
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        assert_eq!(read_request(&raw[..]).unwrap_err().code, "bad_request");
    }
}
