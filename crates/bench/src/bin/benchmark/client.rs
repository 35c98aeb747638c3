//! The load generator's side of the wire: one HTTP/1.1 request per
//! connection (the service closes every connection after its response),
//! and the batch chunker that keeps every ingest body under the server's
//! body limit.

use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response as the client saw it.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Bytes read off the socket, headers included.
    pub bytes: usize,
    /// Connect to last byte read.
    pub roundtrip: Duration,
}

impl Reply {
    /// The body parsed as JSON (`Null` when it is not JSON).
    pub fn json(&self) -> Value {
        serde_json::from_slice(&self.body).unwrap_or(Value::Null)
    }
}

/// Sends one request to `addr` and reads the whole response.
///
/// # Errors
///
/// Transport failures and unparseable status lines.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(ct) = content_type {
        head.push_str(&format!("content-type: {ct}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let roundtrip = started.elapsed();
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        bytes: raw.len(),
        body: raw[split + 4..].to_vec(),
        roundtrip,
    })
}

/// Cuts `data` into consecutive pieces of at most `max` bytes, each
/// ending at a line boundary, so no record is split between two bodies.
///
/// # Errors
///
/// A single line longer than `max`.
pub fn chunk_lines(data: &[u8], max: usize) -> Result<Vec<&[u8]>, String> {
    let mut chunks = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        if rest.len() <= max {
            chunks.push(rest);
            break;
        }
        // Cut after the last newline that keeps the piece within `max`.
        let cut = rest[..max]
            .iter()
            .rposition(|&b| b == b'\n')
            .ok_or_else(|| format!("a line longer than {max} bytes cannot be sent"))?;
        chunks.push(&rest[..=cut]);
        rest = &rest[cut + 1..];
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(lines: usize) -> Vec<u8> {
        (0..lines)
            .flat_map(|i| format!("pin-{i:07},shop-{:06},{}.5\n", i % 97, i % 13).into_bytes())
            .collect()
    }

    #[test]
    fn chunks_stay_under_the_limit_and_never_split_a_record() {
        let data = log(5_000);
        for max in [40usize, 41, 100, 1_000, 4_096, 1 << 20] {
            let chunks = chunk_lines(&data, max).unwrap();
            assert_eq!(chunks.concat(), data, "max={max}");
            for c in &chunks {
                assert!(c.len() <= max, "max={max}: chunk of {}", c.len());
                assert_eq!(c.last(), Some(&b'\n'), "max={max}: chunk cut mid-record");
            }
        }
    }

    #[test]
    fn an_unterminated_last_line_stays_whole() {
        let data = b"a,b\nc,d\ne,f";
        let chunks = chunk_lines(data, 8).unwrap();
        assert_eq!(chunks, vec![&b"a,b\nc,d\n"[..], &b"e,f"[..]]);
        assert!(chunk_lines(b"", 8).unwrap().is_empty());
    }

    #[test]
    fn a_line_longer_than_the_limit_is_an_error() {
        assert!(chunk_lines(b"short\nthis line is far too long\n", 10).is_err());
    }
}
