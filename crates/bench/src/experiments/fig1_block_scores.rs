//! **Figure 1** — density score `φ` of each detected block, one curve per
//! sampled graph.
//!
//! The paper plots these curves to justify the truncating point: every
//! sampled graph's curve is (near-)monotonically decreasing and collapses
//! to a common low plateau after the meaningful blocks, so the Δ² elbow is
//! well defined.

use crate::datasets;
use ensemfdet::fdet::{fdet, Truncation};
use ensemfdet::metric::MetricKind;
use ensemfdet::truncate::truncation_point;
use ensemfdet_datagen::presets::JdDataset;
use ensemfdet_eval::Table;
use ensemfdet_sampling::{seed, Sampler, SamplingMethod};
use serde::Serialize;
use serde_json::{json, Value};

#[derive(Serialize)]
struct SampleCurve {
    sample: usize,
    scores: Vec<f64>,
    k_hat: usize,
}

pub(super) fn run(scale: u32) -> Value {
    const N: usize = 8;
    const S: f64 = 0.1;
    const K_MAX: usize = 16;
    println!(
        "== Figure 1: scores of detected blocks (Dataset #3 at 1/{scale}, RES, S = {S}, {N} samples) ==\n"
    );

    let ds = datasets::load(JdDataset::Jd3, scale);
    let mut curves = Vec::new();
    for i in 0..N {
        let sample = SamplingMethod::RandomEdge.sample(&ds.graph, S, seed::derive(0xF161, i as u64));
        let result = fdet(
            &sample.graph,
            &MetricKind::default(),
            Truncation::KeepAll { k_max: K_MAX },
        );
        let k_hat = truncation_point(&result.scores);
        curves.push(SampleCurve {
            sample: i,
            scores: result.scores,
            k_hat,
        });
    }

    let max_len = curves.iter().map(|c| c.scores.len()).max().unwrap_or(0);
    let mut header: Vec<String> = vec!["block".into()];
    header.extend((0..N).map(|i| format!("sample {i}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for b in 0..max_len {
        let mut row = vec![(b + 1).to_string()];
        for c in &curves {
            row.push(
                c.scores
                    .get(b)
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_default(),
            );
        }
        table.row(&row);
    }
    println!("{}", table.render());
    println!(
        "truncating points k̂ per sample: {:?}",
        curves.iter().map(|c| c.k_hat).collect::<Vec<_>>()
    );
    println!(
        "(paper: all curves decrease monotonically and flatten after the\n\
         elbow — detected blocks past k̂ are meaningless)"
    );
    json!(curves)
}
