//! The parser boundaries. The service's `text/csv` ingest parser and the
//! weighted loader share one chunk scanner, so on any bytes at all they
//! must agree — same record count, or the same first bad line with the
//! same message — for every worker count, without panicking. The HTTP
//! request reader answers any bytes with a request or a 400, 408, 413 or
//! 431, without panicking.

use ensemfdet_graph::{load_transactions, GraphError, LoadOptions};
use ensemfdet_service::api::parse_csv_pairs;
use ensemfdet_service::http::{read_request, MAX_BODY};
use proptest::prelude::*;
use serde_json::Value;

/// Fragments that hit the parser's edges: keys, amounts good and bad,
/// stray delimiters, line ends with and without `\r`, comments,
/// whitespace, and broken or complete multi-byte UTF-8.
#[rustfmt::skip]
const FRAGMENTS: &[&[u8]] = &[
    b"u1", b"u2", b"m1", b"m2", b"7", b"2.5", b"-1e3", b"nan", b"inf", b"x",
    b",", b",", b",", b"\n", b"\n", b"\n", b"\r", b"\r\n", b"#", b" ", b"\t",
    b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x82",
];

/// Fragments of HTTP requests: methods, paths, versions, line ends,
/// header names and values (valid, huge, negative and repeated lengths),
/// bodies, and bytes that are not UTF-8.
#[rustfmt::skip]
const HTTP_FRAGMENTS: &[&[u8]] = &[
    b"GET", b"POST", b" ", b" ", b"/v1/transactions", b"HTTP/1.1", b"\r\n", b"\r\n",
    b"\n", b"\r", b":", b"Content-Length: ", b"content-length:", b"Content-Type: ",
    b"text/csv", b"; charset=utf-8", b"0", b"2", b"5", b"-1", b"1048577",
    b"99999999999999999999999", b"x-pad: ", b"u1,m1\n", b"{}", b"\xff", b"\xc3",
];

/// What a parse came to: the record count, or the first bad line and its
/// message.
type Outcome = Result<usize, (u64, String)>;

fn service_outcome(body: &[u8], workers: usize) -> Outcome {
    match parse_csv_pairs(body, workers) {
        Ok(pairs) => Ok(pairs.len()),
        Err(resp) => {
            assert_eq!(resp.status, 400);
            let error = &serde_json::from_slice::<Value>(&resp.body).unwrap()["error"];
            assert_eq!(error["code"], "invalid_record");
            let line = error["line"].as_u64().unwrap();
            Err((line, error["message"].as_str().unwrap().into()))
        }
    }
}

fn loader_outcome(body: &[u8], workers: usize) -> Outcome {
    let options = LoadOptions {
        delimiter: ',',
        workers,
    };
    match load_transactions(body, &options) {
        Ok(loaded) => Ok(loaded.records),
        Err(GraphError::Parse { line, message }) => {
            Err((line as u64, format!("line {line}: {message}")))
        }
        Err(other) => panic!("the loader failed outside parsing: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn service_and_loader_agree_on_any_bytes(
        parts in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..64),
    ) {
        // One draw in FRAGMENTS.len() + 1 is a raw arbitrary byte.
        let body: Vec<u8> = parts
            .iter()
            .flat_map(|(pick, byte)| match FRAGMENTS.get(pick.index(FRAGMENTS.len() + 1)) {
                Some(fragment) => fragment.to_vec(),
                None => vec![*byte],
            })
            .collect();
        let serial = service_outcome(&body, 1);
        for workers in [1, 2, 3] {
            let service = service_outcome(&body, workers);
            prop_assert_eq!(&service, &loader_outcome(&body, workers), "workers={}", workers);
            prop_assert_eq!(&service, &serial, "workers={} vs 1", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn http_reader_answers_any_bytes_with_a_request_or_a_typed_4xx(
        parts in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..96),
    ) {
        let raw: Vec<u8> = parts
            .iter()
            .flat_map(|(pick, byte)| match HTTP_FRAGMENTS.get(pick.index(HTTP_FRAGMENTS.len() + 1)) {
                Some(fragment) => fragment.to_vec(),
                None => vec![*byte],
            })
            .collect();
        match read_request(&raw[..]) {
            Ok(request) => prop_assert!(request.body.len() <= MAX_BODY),
            Err(err) => prop_assert!(
                matches!(err.status, 400 | 408 | 413 | 431),
                "status {} ({}) for {:?}", err.status, err.message, String::from_utf8_lossy(&raw)
            ),
        }
    }
}
