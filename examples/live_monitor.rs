//! Live campaign monitoring: ingest a raw transaction log with string
//! account/merchant keys, scan every few thousand purchases, and alert on
//! accounts the moment they cross the vote threshold — "detect and prevent
//! fraud as early as possible".
//!
//! The loop composes the scan pipeline's three pieces synchronously: an
//! [`IngestBuffer`] append log, a [`SnapshotStore`] of epoch-versioned
//! graphs, and a [`ScanRunner`] that remembers which accounts already
//! alerted. The HTTP service composes the same pieces with a background
//! executor.
//!
//! Run with:
//! ```text
//! cargo run --release -p ensemfdet-examples --bin live_monitor
//! ```

use ensemfdet::{EnsemFdetConfig, IngestBuffer, MonitorConfig, ScanRunner, SnapshotStore};
use ensemfdet_graph::ArenaTransactionInterner;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    // Scan every 2 000 purchases, alerting on accounts that win 14 of 16
    // sampled detections.
    let config = MonitorConfig {
        detector: EnsemFdetConfig {
            num_samples: 16,
            sample_ratio: 0.5,
            seed: 77,
            ..Default::default()
        },
        scan_interval: 2_000,
        alert_threshold: 14,
        // Skip the sparse warm-up graph: early scans would alert on noise.
        min_transactions: 3_500,
    };
    let buffer = IngestBuffer::new();
    let snapshots = SnapshotStore::new(config.scan_interval);
    let mut runner = ScanRunner::new();
    let mut interner = ArenaTransactionInterner::new();
    let mut rng = StdRng::seed_from_u64(123);
    let mut since_scan = 0usize;

    // Simulated feed: honest shoppers all day, a fraud ring firing from
    // transaction ~4 000 (mid-campaign).
    println!("streaming 8000 purchases; fraud ring activates at ~4000\n");
    for t in 0..8_000u32 {
        let (user_key, merchant_key) = if t > 4_000 && t % 4 == 0 {
            // Ring: 25 bot accounts hammering 10 stores (bulk purchases).
            let bot = rng.random_range(0..25u32);
            let store = rng.random_range(0..10u32);
            (format!("bot-{bot:02}"), format!("ring-store-{store}"))
        } else {
            let shopper = rng.random_range(0..1_500u32);
            // Store popularity is heavy-tailed, as in real e-commerce;
            // uniform traffic would leave nothing for the log-weighted
            // metric to discount.
            let r: f64 = rng.random::<f64>();
            let store = (r * r * 300.0) as u32;
            (format!("pin-{shopper:04}"), format!("store-{store:03}"))
        };
        buffer.append(interner.user(&user_key), interner.merchant(&merchant_key));
        since_scan += 1;

        if since_scan >= config.scan_interval && buffer.len() >= config.min_transactions {
            since_scan = 0;
            let snapshot = snapshots.refresh(&buffer, true);
            let scan = runner.run(&snapshot, &config.detector, config.alert_threshold);
            println!(
                "scan @ {:>5} transactions: {:>3} flagged, {:>3} new alerts",
                scan.transactions,
                scan.flagged.len(),
                scan.new_alerts.len()
            );
            for alert in &scan.new_alerts {
                println!("    ALERT {}", interner.user_key(*alert));
            }
        }
    }

    let snapshot = snapshots.refresh(&buffer, true);
    let final_scan = runner.run(&snapshot, &config.detector, config.alert_threshold);
    let alerted = runner.alerted();
    println!(
        "\nfinal scan: {} accounts flagged; alerted over the campaign: {}",
        final_scan.flagged.len(),
        alerted.len()
    );
    let bots_caught = alerted
        .iter()
        .filter(|u| interner.user_key(**u).starts_with("bot-"))
        .count();
    println!("bot accounts caught: {bots_caught}/25");
}
