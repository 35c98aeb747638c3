//! The parallel bulk-ingest path end to end: the chunked weighted CSV
//! loader's amount-summing aggregation, its typed per-line errors, and
//! worker-count determinism on generated transaction logs.

use ensemfdet::{EnsemFdet, EnsemFdetConfig};
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_datagen::{generate, transaction_log_string, TransactionLogConfig};
use ensemfdet_graph::{load_transactions, GraphError, LoadOptions, LoadedLog};
use proptest::prelude::*;
use std::collections::HashMap;

fn load(data: &str, workers: usize) -> Result<LoadedLog, GraphError> {
    load_transactions(
        data.as_bytes(),
        &LoadOptions {
            workers,
            ..Default::default()
        },
    )
}

/// The full deterministic fingerprint of a load: both key dictionaries in
/// id order, the edge arrays, and the weights as exact bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    users: Vec<String>,
    merchants: Vec<String>,
    edges: Vec<(u32, u32)>,
    weight_bits: Vec<u64>,
}

fn fingerprint(l: &LoadedLog) -> Fingerprint {
    Fingerprint {
        users: l.interner.users().keys().map(str::to_string).collect(),
        merchants: l.interner.merchants().keys().map(str::to_string).collect(),
        edges: l.graph.edge_pairs().to_vec(),
        weight_bits: (0..l.graph.num_edges())
            .map(|e| l.graph.edge_weight(e).to_bits())
            .collect(),
    }
}

proptest! {
    /// Duplicate `(user, merchant)` rows collapse into one weighted edge
    /// whose amount is the file-order sum — for every worker count.
    #[test]
    fn duplicate_rows_amount_sum_into_one_edge(
        rows in proptest::collection::vec((0u32..8, 0u32..6, 1u32..100_000u32), 1..200),
        workers in 1usize..5,
    ) {
        let mut log = String::new();
        let mut expected: HashMap<(String, String), f64> = HashMap::new();
        for (u, m, cents) in &rows {
            let (user, merchant) = (format!("acct-{u}"), format!("shop-{m}"));
            let amount = format!("{}.{:02}", cents / 100, cents % 100);
            log.push_str(&format!("{user},{merchant},{amount}\n"));
            // Same parse, same file-order addition as the loader — the
            // sums must agree to the bit.
            let parsed: f64 = amount.parse().unwrap();
            *expected.entry((user, merchant)).or_insert(0.0) += parsed;
        }
        let loaded = load(&log, workers).unwrap();
        prop_assert_eq!(loaded.records, rows.len());
        prop_assert_eq!(loaded.graph.num_edges(), expected.len());
        for e in 0..loaded.graph.num_edges() {
            let (u, v) = loaded.graph.edge_endpoints(e);
            let key = (
                loaded.interner.user_key(u).to_string(),
                loaded.interner.merchant_key(v).to_string(),
            );
            let want = expected[&key];
            prop_assert_eq!(
                loaded.graph.edge_weight(e).to_bits(),
                want.to_bits(),
                "edge {:?} summed {} expected {}",
                key,
                loaded.graph.edge_weight(e),
                want
            );
        }
    }

    /// A malformed line is a typed parse error carrying its 1-based
    /// global line number, wherever the chunk boundaries fall.
    #[test]
    fn malformed_lines_report_their_global_line(
        good_before in 0usize..40,
        good_after in 0usize..40,
        workers in 1usize..5,
    ) {
        let mut log = String::new();
        for i in 0..good_before {
            log.push_str(&format!("u{i},m{},1.0\n", i % 7));
        }
        log.push_str("this-line-has-no-merchant\n");
        for i in 0..good_after {
            log.push_str(&format!("u{i},m{},1.0\n", i % 7));
        }
        let err = load(&log, workers).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => prop_assert_eq!(line, good_before + 1),
            other => return Err(TestCaseError::fail(format!("expected Parse, got {other}"))),
        }
    }
}

/// Interner ids, the final weighted graph and the ensemble votes a scan
/// of it produces are bit-identical across 1/2/4 workers on realistic
/// generated logs, across three seeds.
#[test]
fn worker_count_invariance_on_generated_logs() {
    let votes = |l: &LoadedLog| {
        EnsemFdet::new(EnsemFdetConfig {
            num_samples: 8,
            sample_ratio: 0.1,
            seed: 7,
            ..Default::default()
        })
        .detect(&l.graph)
        .votes
    };
    for seed in [11u64, 22, 33] {
        let ds = generate(&jd_preset(JdDataset::Jd1, 300, seed));
        let (log, summary) = transaction_log_string(
            &ds,
            &TransactionLogConfig {
                seed,
                mean_repeats: 0.6,
                comment_every: 97,
                ..Default::default()
            },
        );
        let reference = load(&log, 1).unwrap();
        assert_eq!(reference.records, summary.records, "seed {seed}");
        assert_eq!(reference.graph.num_edges(), summary.distinct_pairs, "seed {seed}");
        let want = fingerprint(&reference);
        let want_votes = votes(&reference);
        for workers in [2usize, 4] {
            let par = load(&log, workers).unwrap();
            assert_eq!(par.records, reference.records, "seed {seed} workers {workers}");
            assert_eq!(par.lines, reference.lines, "seed {seed} workers {workers}");
            assert_eq!(
                fingerprint(&par),
                want,
                "seed {seed}: {workers}-worker load diverged from serial"
            );
            assert_eq!(votes(&par), want_votes, "seed {seed}: {workers}-worker votes");
        }
    }
}
