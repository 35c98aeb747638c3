//! The parser boundaries. The service's `text/csv` ingest parser and the
//! weighted loader share one chunk scanner, so on any bytes at all they
//! must agree — same record count, or the same first bad line with the
//! same message — for every worker count, without panicking. The HTTP
//! request reader answers any bytes with a request or a 400, 408, 413 or
//! 431, without panicking. The JSON and NDJSON ingest bodies, through
//! the vendored JSON parser, are answered with a count of what was
//! ingested or a typed 4xx, and an NDJSON rejection names a line of the
//! body.

use ensemfdet::{EnsemFdetConfig, MonitorConfig};
use ensemfdet_graph::{load_transactions, GraphError, LoadOptions};
use ensemfdet_service::api::parse_csv_pairs;
use ensemfdet_service::http::{read_request, Request, MAX_BODY};
use ensemfdet_service::{Api, ApiConfig};
use proptest::prelude::*;
use serde_json::Value;
use std::sync::OnceLock;

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

/// Fragments of JSON and NDJSON ingest bodies: the tokens of the two
/// shapes, strings with escapes good and bad (a lone surrogate, a short
/// `\u`), numbers the parser must not choke on, line ends, and bytes that
/// are not UTF-8.
#[rustfmt::skip]
const JSON_FRAGMENTS: &[&[u8]] = &[
    b"{", b"}", b"[", b"[", b"]", b"]", b",", b",", b":", b"\"records\"",
    b"\"u1\"", b"\"m1\"", b"\"u\\n2\"", b"\"\\u00e9\"", b"\"\\ud800\"", b"\"\\u12\"",
    b"\"", b"\\", b"0", b"-0", b"1e999", b"-", b"null", b"true", b" ", b"\t",
    b"\n", b"\n", b"\r\n", b"\xff", b"\xc3", b"\xc3\xa9",
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

/// One service for every case: auto-scans off, so a case that ingests
/// only grows the buffer.
fn ingest_api() -> &'static Api {
    static API: OnceLock<Api> = OnceLock::new();
    API.get_or_init(|| {
        Api::new(ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig::default(),
                scan_interval: usize::MAX,
                alert_threshold: 1,
                min_transactions: usize::MAX,
            },
            ..Default::default()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_and_ndjson_ingest_answer_any_bytes_with_a_count_or_a_typed_4xx(
        parts in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..48),
    ) {
        let body: Vec<u8> = parts
            .iter()
            .flat_map(|(pick, byte)| match JSON_FRAGMENTS.get(pick.index(JSON_FRAGMENTS.len() + 1)) {
                Some(fragment) => fragment.to_vec(),
                None => vec![*byte],
            })
            .collect();
        for content_type in ["application/json", "application/x-ndjson"] {
            let resp = ingest_api().handle(&Request {
                method: "POST".into(),
                path: "/v1/transactions".into(),
                content_type: content_type.into(),
                body: body.clone(),
            });
            let answer: Value = serde_json::from_slice(&resp.body).unwrap();
            if resp.status == 200 {
                prop_assert!(answer["ingested"].as_u64().is_some(), "{}: {}", content_type, answer);
                if content_type == "application/x-ndjson" {
                    let records = body
                        .split(|&b| b == b'\n')
                        .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
                        .count() as u64;
                    prop_assert_eq!(answer["ingested"].as_u64(), Some(records));
                }
                continue;
            }
            prop_assert!(
                (400..500).contains(&resp.status),
                "{}: status {} for {:?}", content_type, resp.status, String::from_utf8_lossy(&body)
            );
            let error = &answer["error"];
            prop_assert!(error["code"].as_str().is_some() && error["message"].as_str().is_some(), "{}", answer);
            if content_type == "application/x-ndjson" {
                prop_assert_eq!(resp.status, 400);
                prop_assert_eq!(&error["code"], "invalid_record");
                let lines = body.split(|&b| b == b'\n').count() as u64;
                let line = error["line"].as_u64();
                prop_assert!(
                    line.is_some_and(|n| (1..=lines).contains(&n)),
                    "line {:?} of a {}-line body", line, lines
                );
            }
        }
    }
}
