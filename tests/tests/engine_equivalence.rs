//! The bucket engine must be a drop-in replacement for the naive reference
//! path: identical blocks, identical scores, identical `k̂`, identical
//! ensemble votes — not merely statistically similar. The naive engine
//! survives only as the oracle these gates compare against. Fraudar runs
//! on the bucket engine too, and is gated against its original loop over
//! the naive peel.
//!
//! The final test cross-checks the three priority-queue implementations
//! themselves ([`IndexedMinHeap`], [`LazyMinHeap`], [`BucketQueue`])
//! under a randomized decrease-key workload with heavy ties: filtered
//! through the lazy-deletion protocol, all three must deliver the exact
//! same `(key, element)` pop sequence.

use ensemfdet::fdet::Truncation;
use ensemfdet::heap::{IndexedMinHeap, LazyMinHeap};
use ensemfdet::peel::peel_densest;
use ensemfdet::{
    fdet_with_engine, Block, BucketQueue, Engine, EnsemFdet, EnsemFdetConfig, MetricKind,
};
use ensemfdet_baselines::{Fraudar, FraudarConfig};
use ensemfdet_datagen::generate;
use ensemfdet_datagen::presets::{jd_preset, JdDataset};
use ensemfdet_graph::BipartiteGraph;

const SEEDS: [u64; 3] = [11, 4242, 0xDEAD_BEEF];

fn preset_graph(which: JdDataset, seed: u64) -> BipartiteGraph {
    generate(&jd_preset(which, 400, seed)).graph
}

/// A 30×8 complete block over `n` users with two sparse purchases each.
fn planted_graph(n: u32) -> BipartiteGraph {
    let mut edges = Vec::new();
    for u in 0..30u32 {
        for v in 0..8u32 {
            edges.push((u, v));
        }
    }
    for u in 30..n {
        edges.push((u, 8 + u % (n / 4)));
        edges.push((u, 8 + (u * 13) % (n / 4)));
    }
    BipartiteGraph::from_edges(n as usize, (8 + n / 4) as usize, edges).unwrap()
}

#[test]
fn fdet_blocks_and_scores_identical_across_engines() {
    let presets = [JdDataset::Jd1, JdDataset::Jd2, JdDataset::Jd3]
        .into_iter()
        .flat_map(|which| {
            SEEDS.map(|seed| (format!("{which:?}, seed {seed}"), preset_graph(which, seed)))
        });
    for (name, g) in presets.chain([("planted 1k".to_string(), planted_graph(1_000))]) {
        for truncation in [
            Truncation::default(),
            Truncation::FixedK(3),
            Truncation::KeepAll { k_max: 25 },
        ] {
            let ctx = format!("{name}, {truncation:?}");
            let naive = fdet_with_engine(&g, &MetricKind::default(), truncation, Engine::Naive);
            let r = fdet_with_engine(&g, &MetricKind::default(), truncation, Engine::Bucket);
            assert_eq!(r.blocks, naive.blocks, "blocks diverged ({ctx})");
            assert_eq!(r.scores, naive.scores, "scores diverged ({ctx})");
            assert_eq!(r.k_hat, naive.k_hat, "k_hat diverged ({ctx})");
        }
    }
}

#[test]
fn ensemble_votes_identical_across_engines() {
    for seed in SEEDS {
        let g = preset_graph(JdDataset::Jd2, seed);
        let run = |engine| {
            EnsemFdet::new(EnsemFdetConfig {
                num_samples: 12,
                sample_ratio: 0.25,
                engine,
                seed,
                ..Default::default()
            })
            .detect(&g)
        };
        let reference = run(Engine::Naive);
        let k_hats = |o: &ensemfdet::EnsembleOutcome| -> Vec<usize> {
            o.samples.iter().map(|s| s.k_hat).collect()
        };
        let outcome = run(Engine::Bucket);
        assert_eq!(
            outcome.votes.user_scores(),
            reference.votes.user_scores(),
            "ensemble votes diverged (seed {seed})"
        );
        assert_eq!(k_hats(&outcome), k_hats(&reference), "k̂s (seed {seed})");
    }
}

/// A weighted graph: exercises the non-unit-weight relax path.
fn weighted_graph() -> BipartiteGraph {
    let edges: Vec<(u32, u32)> = (0..200u32)
        .map(|i| (i % 37, (i * 7 + 3) % 11))
        .chain((0..40u32).map(|i| (40 + i % 8, i % 5)))
        .collect();
    let weights: Vec<f64> = (0..edges.len()).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
    BipartiteGraph::from_weighted_edges(48, 11, edges, weights).unwrap()
}

#[test]
fn weighted_graph_identical_across_engines() {
    let g = weighted_graph();
    let run = |e| fdet_with_engine(&g, &MetricKind::default(), Truncation::KeepAll { k_max: 10 }, e);
    let (naive, bucket) = (run(Engine::Naive), run(Engine::Bucket));
    assert_eq!(bucket.blocks, naive.blocks, "blocks");
    assert_eq!(bucket.scores, naive.scores, "scores");
    assert_eq!(bucket.k_hat, naive.k_hat, "k_hat");
}

/// The iterated-Fraudar loop as it ran over the naive mask peel before
/// Fraudar moved onto the bucket engine: peel, retire the block's
/// internal edges only, stop after `k` blocks or after a degenerate one.
fn fraudar_naive_loop(g: &BipartiteGraph, metric: &MetricKind, k: usize) -> Vec<Block> {
    let mut edge_alive = vec![true; g.num_edges()];
    let mut blocks = Vec::new();
    while blocks.len() < k {
        let Some(block) = peel_densest(g, metric, &edge_alive) else {
            break;
        };
        for &e in &block.edges {
            edge_alive[e] = false;
        }
        if block.edges.is_empty() {
            blocks.push(block);
            break;
        }
        blocks.push(block);
    }
    blocks
}

#[test]
fn fraudar_identical_to_naive_loop() {
    let graphs = [JdDataset::Jd1, JdDataset::Jd2, JdDataset::Jd3]
        .into_iter()
        .flat_map(|which| {
            SEEDS.map(|seed| (format!("{which:?}, seed {seed}"), preset_graph(which, seed)))
        })
        .chain([
            ("planted 1k".to_string(), planted_graph(1_000)),
            ("weighted".to_string(), weighted_graph()),
        ]);
    for (name, g) in graphs {
        let config = FraudarConfig {
            k: 30,
            ..Default::default()
        };
        let oracle = fraudar_naive_loop(&g, &config.metric, config.k);
        let got = Fraudar::new(config).run(&g).blocks;
        assert_eq!(got.len(), oracle.len(), "block count diverged ({name})");
        assert_eq!(got, oracle, "blocks diverged ({name})");
        let bits = |b: &[Block]| b.iter().map(|b| b.score.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&oracle), "score bits diverged ({name})");
    }
}

/// Splitmix-style deterministic RNG — no external crates in the tests.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomized decrease-key cross-check of the three queue structures.
///
/// [`IndexedMinHeap`] is the exact oracle (in-place `update_key`). The two
/// lazy structures follow the peel protocol: every decrease is a fresh
/// push, and pops are filtered against the caller's current-key array.
/// Keys are quantized to multiples of 1/8 so ties are frequent and float
/// comparisons are exact; tie order must fall back to element id in all
/// three structures.
#[test]
fn queue_implementations_agree_on_pop_order() {
    for seed in [1u64, 77, 0xFEED_F00D] {
        let mut rng = seed;
        let n = 300usize;
        // Quantized non-negative starting keys with deliberate collisions.
        let mut current: Vec<f64> = (0..n)
            .map(|_| (next_rand(&mut rng) % 64) as f64 * 0.125)
            .collect();
        let mut alive: Vec<bool> = vec![true; n];

        let mut oracle = IndexedMinHeap::from_keys(&current);
        let mut lazy = LazyMinHeap::new();
        lazy.fill((0..n as u32).map(|i| (i, current[i as usize])));
        let mut bucket = BucketQueue::new();
        bucket.fill((0..n as u32).map(|i| (i, current[i as usize])));

        // Pops a current (non-stale, still-alive) entry from a lazy queue.
        let lazy_pop = |q: &mut dyn FnMut() -> Option<(f64, u32)>,
                        current: &[f64],
                        alive: &[bool]|
         -> Option<(f64, u32)> {
            while let Some((k, id)) = q() {
                let i = id as usize;
                if alive[i] && current[i].to_bits() == k.to_bits() {
                    return Some((k, id));
                }
            }
            None
        };

        let mut popped = 0usize;
        while popped < n {
            let decrease = matches!(next_rand(&mut rng) % 3, 0);
            if decrease {
                // Decrease a random live element's key (clamped at 0).
                let victim = (next_rand(&mut rng) as usize) % n;
                if !alive[victim] {
                    continue;
                }
                let drop = (next_rand(&mut rng) % 16) as f64 * 0.125;
                let k = (current[victim] - drop).max(0.0);
                if k.to_bits() == current[victim].to_bits() {
                    continue;
                }
                current[victim] = k;
                oracle.update_key(victim, k);
                lazy.push(victim as u32, k);
                bucket.push(victim as u32, k);
            } else {
                let (oe, ok) = oracle.pop_min().expect("oracle drained early");
                let (lk, le) =
                    lazy_pop(&mut || lazy.pop(), &current, &alive).expect("lazy drained early");
                let (bk, be) = lazy_pop(&mut || bucket.pop(), &current, &alive)
                    .expect("bucket drained early");
                assert_eq!(
                    (le, lk.to_bits()),
                    (oe as u32, ok.to_bits()),
                    "lazy heap diverged from oracle (seed {seed}, pop {popped})"
                );
                assert_eq!(
                    (be, bk.to_bits()),
                    (oe as u32, ok.to_bits()),
                    "bucket queue diverged from oracle (seed {seed}, pop {popped})"
                );
                alive[oe] = false;
                popped += 1;
            }
        }
        assert!(oracle.is_empty());
        assert!(lazy_pop(&mut || lazy.pop(), &current, &alive).is_none());
        assert!(lazy_pop(&mut || bucket.pop(), &current, &alive).is_none());
    }
}
