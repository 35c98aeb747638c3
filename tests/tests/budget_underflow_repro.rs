use ensemfdet_service::http::{read_request, MAX_HEADER_BYTES};
use ensemfdet_service::api::{Api, ApiConfig};
use ensemfdet_service::http::Request;
use ensemfdet::{EnsemFdetConfig, MonitorConfig};

#[test]
fn exact_boundary_header_line() {
    let req_line = b"GET / HTTP/1.1\r\n".to_vec();
    let remaining = MAX_HEADER_BYTES - req_line.len();
    let name = b"x: ";
    let pad = remaining + 1 - name.len() - 2;
    let mut raw = req_line;
    raw.extend(name);
    raw.extend(std::iter::repeat_n(b'a', pad));
    raw.extend(b"\r\n\r\n");
    let r = read_request(&raw[..]);
    println!("result: {:?}", r.map(|q| q.path).map_err(|e| (e.status, e.message)));
}

#[test]
fn deeply_nested_json_body() {
    let depth = 200_000usize;
    let mut s = String::with_capacity(depth * 2);
    for _ in 0..depth { s.push('['); }
    for _ in 0..depth { s.push(']'); }
    let api = Api::new(ApiConfig {
        monitor: MonitorConfig {
            detector: EnsemFdetConfig { num_samples: 2, sample_ratio: 0.5, seed: 1, ..Default::default() },
            scan_interval: 1_000_000,
            alert_threshold: 1,
            min_transactions: 0,
        },
        ..Default::default()
    });
    let body = format!("{{\"records\": {}}}", s);
    let resp = api.handle(&Request { method: "POST".into(), path: "/v1/transactions".into(), content_type: String::new(), body: body.into_bytes() });
    println!("status={}", resp.status);
}
