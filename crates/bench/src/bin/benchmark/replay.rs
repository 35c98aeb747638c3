//! The traced replay: the untraced run's inputs pushed in-process
//! through each layer's public entry point, in the order the service
//! calls them, with a span around every call.
//!
//! The per-sample loop mirrors `EnsemFdet`'s mask path call for call
//! (draw a spec, peel it through the thread's cached engine, map ids back,
//! tally in sample order), so its votes equal `EnsemFdet::detect`'s bit
//! for bit; the incremental loop mirrors `ScanRunner::run_incremental`.
//! One call is added: `CsrView::rebuild_from_spec` on the same spec, run
//! just before the peel to time the view build the engine performs
//! inside it. Its time is reported as `view.build_s`, subtracted from the
//! peel, and left out of the replay's wall.

use crate::trace::{busy, owned_keys, wall_shares, Span, SpanId, Tracer};
use crate::workloads::{Flagged, Inputs, Kind, Untraced, WORKERS};
use ensemfdet::pipeline::{IngestBuffer, Snapshot, SnapshotStore};
use ensemfdet::{
    kcore_scores, spectral_scores, DetectContext, EnsemFdetConfig, EvidenceTally, FdetEngine,
    HybridScorer, IncrementalPolicy, SamplePath, ScoringConfig, VoteTally,
};
use ensemfdet_graph::{
    BipartiteGraph, ConcurrentTransactionInterner, CsrView, GraphDelta, GraphDims, MerchantId,
    SampleMaps, SampleSpec, SpecResolver, UserId,
};
use ensemfdet_sampling::{seed, spec_unaffected, Sampler, SamplerScratch, SamplingMethod};
use ensemfdet_service::api::parse_csv_pairs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One sample's effect on the tallies, in parent ids.
#[derive(Debug)]
struct Contribution {
    users: Vec<UserId>,
    merchants: Vec<MerchantId>,
    user_evidence: Vec<(UserId, f64)>,
    merchant_evidence: Vec<(MerchantId, f64)>,
}

/// Per-sample contributions one incremental scan leaves for the next.
struct Cache {
    epoch: u64,
    dims: GraphDims,
    entries: Vec<Arc<Contribution>>,
}

/// A sample worker's reusable state, as the ensemble keeps per thread.
#[derive(Default)]
struct Scratch {
    sampler: SamplerScratch,
    spec: SampleSpec,
    maps: SampleMaps,
    /// For the added view-build call only.
    view: CsrView,
    resolver: SpecResolver,
    view_maps: SampleMaps,
}

/// The ensemble loop of one scan, traced.
pub struct Ensemble<'a> {
    t: &'a Tracer,
    cfg: EnsemFdetConfig,
    method: SamplingMethod,
}

impl<'a> Ensemble<'a> {
    /// A traced ensemble for `cfg` (mask path, view engines only).
    pub fn new(t: &'a Tracer, cfg: EnsemFdetConfig) -> Self {
        assert!(
            cfg.path == SamplePath::Mask && cfg.engine != ensemfdet::Engine::Naive,
            "the replay mirrors the mask path"
        );
        Ensemble {
            t,
            cfg,
            method: cfg.method.into(),
        }
    }

    /// Draw, view build, peel, and id mapping of sample `i`.
    fn sample(
        &self,
        g: &BipartiteGraph,
        i: usize,
        parent: SpanId,
        w: &mut Scratch,
    ) -> Contribution {
        let (t, cfg) = (self.t, &self.cfg);
        let sample_seed = seed::derive(cfg.seed, i as u64);
        t.span("sampling", Some(parent), |_| {
            self.method.sample_spec(
                g,
                cfg.sample_ratio,
                sample_seed,
                &mut w.sampler,
                &mut w.spec,
            )
        });
        t.span("view", Some(parent), |_| {
            w.view
                .rebuild_from_spec(g, &w.spec, &mut w.resolver, &mut w.view_maps)
        });
        let (result, edges) = t.span("peel", Some(parent), |_| {
            FdetEngine::run_spec_cached(
                g,
                &w.spec,
                &cfg.metric,
                cfg.truncation,
                cfg.engine,
                &mut w.maps,
            )
        });
        t.add("sampling.sample_edges", edges as f64);
        t.add("peel.blocks", result.blocks.len() as f64);
        t.add("peel.k_hat_sum", result.k_hat as f64);
        let maps = &w.maps;
        let blocks = result.detected_blocks();
        Contribution {
            users: result
                .detected_users()
                .into_iter()
                .map(|u| maps.parent_user(u))
                .collect(),
            merchants: result
                .detected_merchants()
                .into_iter()
                .map(|v| maps.parent_merchant(v))
                .collect(),
            user_evidence: blocks
                .iter()
                .flat_map(|b| b.users.iter().map(move |&u| (maps.parent_user(u), b.score)))
                .collect(),
            merchant_evidence: blocks
                .iter()
                .flat_map(|b| {
                    b.merchants
                        .iter()
                        .map(move |&v| (maps.parent_merchant(v), b.score))
                })
                .collect(),
        }
    }

    /// Every sample on a pool of [`WORKERS`] threads draining a shared
    /// cursor, results in sample order. With `reuse`, a sample whose
    /// re-draw the delta leaves untouched replays its cached
    /// contribution. Returns the contributions and how many replayed.
    fn run(
        &self,
        g: &BipartiteGraph,
        parent: SpanId,
        reuse: Option<(&GraphDelta, &[Arc<Contribution>])>,
    ) -> (Vec<Arc<Contribution>>, usize) {
        let n = self.cfg.num_samples;
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, Arc<Contribution>, bool)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS.clamp(1, n))
                .map(|_| {
                    s.spawn(|| {
                        let mut w = Scratch::default();
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return out;
                            }
                            let (c, reused) = self.t.span("ensemble", Some(parent), |es| {
                                if let Some((delta, cached)) = reuse {
                                    let clean = self.t.span("incremental.check", Some(es), |_| {
                                        let sample_seed = seed::derive(self.cfg.seed, i as u64);
                                        self.method.sample_spec(
                                            g,
                                            self.cfg.sample_ratio,
                                            sample_seed,
                                            &mut w.sampler,
                                            &mut w.spec,
                                        );
                                        spec_unaffected(&w.spec, delta)
                                    });
                                    if clean {
                                        return (Arc::clone(&cached[i]), true);
                                    }
                                }
                                (Arc::new(self.sample(g, i, es, &mut w)), false)
                            });
                            out.push((i, c, reused));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay sample worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<(Arc<Contribution>, bool)>> = (0..n).map(|_| None).collect();
        for (i, c, reused) in per_worker.into_iter().flatten() {
            slots[i] = Some((c, reused));
        }
        let mut reused = 0;
        let entries = slots
            .into_iter()
            .map(|s| {
                let (c, r) = s.expect("every sample claimed once");
                reused += usize::from(r);
                c
            })
            .collect();
        (entries, reused)
    }

    /// Tallies contributions in sample order, as the ensemble does.
    fn aggregate(
        &self,
        g: &BipartiteGraph,
        entries: &[Arc<Contribution>],
        parent: SpanId,
    ) -> VoteTally {
        self.t.span("aggregate", Some(parent), |_| {
            let mut votes = VoteTally::new(g.num_users(), g.num_merchants());
            let mut evidence = EvidenceTally::new(g.num_users(), g.num_merchants());
            for c in entries {
                votes.add_sample(c.users.iter().copied(), c.merchants.iter().copied());
                evidence.add_sample(
                    c.user_evidence.iter().copied(),
                    c.merchant_evidence.iter().copied(),
                );
            }
            votes
        })
    }

    /// A full ensemble pass over `g`: the votes `EnsemFdet::detect`
    /// produces.
    #[cfg(test)]
    pub fn votes(&self, g: &BipartiteGraph, parent: SpanId) -> VoteTally {
        let (entries, _) = self.run(g, parent, None);
        self.aggregate(g, &entries, parent)
    }

    /// The hybrid components on the parent graph, fused; returns the
    /// hybrid-flagged users.
    fn score(&self, g: &BipartiteGraph, votes: &VoteTally, parent: SpanId) -> Vec<UserId> {
        let (t, scoring) = (self.t, &self.cfg.scoring);
        let ctx = DetectContext::new(g);
        t.span("scoring.adjacency", Some(parent), |_| {
            ctx.adjacency();
        });
        let spectral = t.span("scoring.spectral", Some(parent), |_| {
            spectral_scores(&ctx, scoring)
        });
        let kcore = t.span("scoring.kcore", Some(parent), |_| kcore_scores(&ctx));
        t.span("scoring.fuse", Some(parent), |_| {
            let hybrid = HybridScorer::new(*scoring).fuse(&votes.user_scores(), &spectral, &kcore);
            hybrid
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s >= scoring.hybrid_threshold)
                .map(|(i, _)| UserId(i as u32))
                .collect()
        })
    }
}

/// The service's state, rebuilt in-process from the same inputs.
struct Replay<'a> {
    t: &'a Tracer,
    ensemble: Ensemble<'a>,
    buffer: IngestBuffer,
    store: SnapshotStore,
    interner: ConcurrentTransactionInterner,
    cache: Option<Cache>,
    policy: IncrementalPolicy,
    threshold: u32,
}

impl Replay<'_> {
    /// `POST /v1/transactions` with `text/csv`: parse, intern in file
    /// order, append.
    fn ingest(&self, body: &[u8], parent: SpanId) -> Result<(), String> {
        let t = self.t;
        let pairs = t
            .span("ingest", Some(parent), |_| parse_csv_pairs(body, WORKERS))
            .map_err(|r| format!("replay parse failed: {}", String::from_utf8_lossy(&r.body)))?;
        let keys = |i: &ConcurrentTransactionInterner| i.num_users() + i.num_merchants();
        let before = keys(&self.interner);
        let ids: Vec<_> = t.span("intern", Some(parent), |_| {
            pairs
                .iter()
                .map(|&(u, v)| (self.interner.user(u), self.interner.merchant(v)))
                .collect()
        });
        t.add("ingest.bytes", body.len() as f64);
        t.add("ingest.records", pairs.len() as f64);
        t.add("intern.lookups", 2.0 * pairs.len() as f64);
        t.add("intern.new_keys", (keys(&self.interner) - before) as f64);
        t.span("buffer", Some(parent), |_| self.buffer.append_batch(ids));
        Ok(())
    }

    /// Forced refresh, as `/v1/stats` and every scan submission do.
    fn compact(&self, parent: SpanId) -> Arc<Snapshot> {
        let before = self.store.latest();
        let snap = self.t.span("snapshot.compact", Some(parent), |_| {
            self.store.refresh(&self.buffer, true)
        });
        if snap.epoch != before.epoch {
            self.t.add("snapshot.compactions", 1.0);
            self.t.add(
                "snapshot.records_drained",
                (snap.transactions - before.transactions) as f64,
            );
            self.t.add(
                "snapshot.edges_new",
                (snap.graph.num_edges() - before.graph.num_edges()) as f64,
            );
        }
        snap
    }

    /// One scan: full (`ScanRunner::run`) or incremental
    /// (`ScanRunner::run_incremental`), plus hybrid scoring when `scored`
    /// and the config enables it.
    fn scan(&mut self, parent: SpanId, incremental: bool, scored: bool) -> Flagged {
        let snap = self.compact(parent);
        let g = &snap.graph;
        let t = self.t;
        let name = if incremental { "incremental" } else { "scan" };
        let (vote, hybrid) = t.span(name, Some(parent), |scan| {
            let entries = if incremental {
                self.incremental_entries(&snap, scan)
            } else {
                self.ensemble.run(g, scan, None).0
            };
            let votes = self.ensemble.aggregate(g, &entries, scan);
            let flagged = votes.detected_users(self.threshold);
            t.add("aggregate.flagged", flagged.len() as f64);
            let hybrid = if scored && self.ensemble.cfg.scoring.enabled {
                self.ensemble.score(g, &votes, scan)
            } else {
                Vec::new()
            };
            (flagged, hybrid)
        });
        let keys = |ids: &[UserId]| {
            let mut k: Vec<String> = ids.iter().map(|&u| self.interner.user_key(u)).collect();
            k.sort_unstable();
            k
        };
        Flagged {
            vote: keys(&vote),
            hybrid: keys(&hybrid),
        }
    }

    /// `ScanRunner::run_incremental`'s reuse decision and per-sample
    /// replay; primes the cache for the next epoch either way.
    fn incremental_entries(&mut self, snap: &Snapshot, scan: SpanId) -> Vec<Arc<Contribution>> {
        let t = self.t;
        let delta = self.cache.as_ref().and_then(|c| {
            let d = if c.epoch == snap.epoch {
                (c.dims == snap.dims())
                    .then(|| GraphDelta::unchanged(snap.epoch, snap.epoch, snap.dims()))
            } else {
                t.span("snapshot.delta", Some(scan), |_| {
                    self.store.delta_since(c.epoch, snap.epoch)
                })
                .filter(|d| d.base_dims == c.dims)
            };
            d.filter(|d| d.touched_fraction() <= self.policy.max_touched_fraction)
        });
        let entries = match (&delta, &self.cache) {
            (Some(d), Some(cache)) => {
                let (entries, reused) =
                    self.ensemble
                        .run(&snap.graph, scan, Some((d, &cache.entries)));
                t.add("incremental.samples_reused", reused as f64);
                t.add(
                    "incremental.samples_repeeled",
                    (entries.len() - reused) as f64,
                );
                entries
            }
            _ => self.ensemble.run(&snap.graph, scan, None).0,
        };
        self.cache = Some(Cache {
            epoch: snap.epoch,
            dims: snap.dims(),
            entries: entries.clone(),
        });
        entries
    }
}

/// What the replay recorded.
pub struct Recording {
    /// Every span.
    pub spans: Vec<Span>,
    /// Every counter.
    pub counters: BTreeMap<&'static str, f64>,
    /// The measured phase's units (a pass, a scan, a paced batch) as
    /// tracer-time windows.
    pub windows: Vec<(f64, f64)>,
    /// Flagged sets of the phase scans (follow: the final full scan).
    pub flagged: Vec<Flagged>,
}

/// Replays `kind` with the untraced run's inputs and repetition counts.
///
/// # Errors
///
/// A body the replay's parser rejects.
pub fn replay(
    kind: Kind,
    inputs: &Inputs,
    untraced: &Untraced,
    smoke: bool,
) -> Result<Recording, String> {
    let t = Tracer::new();
    let mut cfg = kind.detector();
    if kind == Kind::HybridScan {
        cfg.scoring = ScoringConfig::enabled();
    }
    let mut r = Replay {
        t: &t,
        ensemble: Ensemble::new(&t, cfg),
        buffer: IngestBuffer::new(),
        store: SnapshotStore::new(1),
        interner: ConcurrentTransactionInterner::new(),
        cache: None,
        policy: IncrementalPolicy::default(),
        threshold: kind.threshold(),
    };
    let mut windows = Vec::new();
    let mut flagged = Vec::new();
    let follow = kind == Kind::FollowRamp;
    t.span("replay", None, |root| -> Result<(), String> {
        // Set-up: preload, compaction for /v1/stats, warm-up scan.
        for b in &inputs.preload {
            r.ingest(inputs.body(b), root)?;
        }
        if !inputs.preload.is_empty() {
            r.compact(root);
            r.scan(root, follow, false);
        }
        match kind {
            Kind::Table1E2e => {
                let start = t.now();
                for b in &inputs.phase {
                    r.ingest(inputs.body(b), root)?;
                }
                r.compact(root);
                flagged.push(r.scan(root, false, true));
                windows.push((start, t.now()));
            }
            Kind::ScanRepeat | Kind::HybridScan => {
                let scans = kind.replay_scans(smoke).min(untraced.results.len()).max(1);
                for _ in 0..scans {
                    let start = t.now();
                    flagged.push(r.scan(root, false, true));
                    windows.push((start, t.now()));
                }
            }
            Kind::FollowRamp => {
                for b in &inputs.phase[..untraced.paced] {
                    let start = t.now();
                    r.ingest(inputs.body(b), root)?;
                    r.scan(root, true, true);
                    windows.push((start, t.now()));
                }
                for b in &inputs.phase[untraced.paced..] {
                    r.ingest(inputs.body(b), root)?;
                }
                flagged.push(r.scan(root, false, true));
            }
        }
        Ok(())
    })?;
    Ok(Recording {
        spans: t.spans(),
        counters: t.counters(),
        windows,
        flagged,
    })
}

/// Spans that only wrap others: their own time is replay glue.
const WRAPPERS: [&str; 3] = ["replay", "scan", "incremental"];

/// Per-layer wall shares summed over `windows`.
fn shares_over(spans: &[Span], windows: &[(f64, f64)]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for &(a, b) in windows {
        for (k, v) in wall_shares(spans, a, b) {
            *out.entry(k).or_insert(0.0) += v;
        }
    }
    out
}

/// Seconds attributed to layers (the added view call counted once).
fn attributed(shares: &BTreeMap<&'static str, f64>) -> f64 {
    let layers: f64 = shares
        .iter()
        .filter(|(k, _)| !WRAPPERS.contains(k))
        .map(|(_, v)| v)
        .sum();
    layers - shares.get("view").copied().unwrap_or(0.0)
}

/// The accounting of the measured phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseAccount {
    /// Units both runs timed.
    pub units: usize,
    /// The untraced run's wall for those units.
    pub untraced_s: f64,
    /// The replay's wall for the same units.
    pub replay_s: f64,
    /// Seconds of the replay's wall its layer spans cover.
    pub attributed_s: f64,
}

impl PhaseAccount {
    /// Untraced wall the replay does not run: HTTP, JSON, job queue.
    pub fn unattributed_s(&self) -> f64 {
        self.untraced_s - self.replay_s
    }

    /// How far layers plus unattributed miss the untraced wall, as a
    /// share of it.
    pub fn miss(&self) -> f64 {
        (self.untraced_s - (self.attributed_s + self.unattributed_s())).abs() / self.untraced_s
    }
}

/// The phase accounting of `rec` against the untraced run's unit walls
/// ([`Untraced::units`]): both sides summed over the same units.
pub fn account(rec: &Recording, units: &[Option<f64>]) -> PhaseAccount {
    let (windows, walls): (Vec<(f64, f64)>, Vec<f64>) = rec
        .windows
        .iter()
        .zip(units)
        .filter_map(|(&w, &u)| Some((w, u?)))
        .unzip();
    let shares = shares_over(&rec.spans, &windows);
    let wall: f64 = windows.iter().map(|(a, b)| b - a).sum();
    PhaseAccount {
        units: windows.len(),
        untraced_s: walls.iter().sum(),
        replay_s: wall - shares.get("view").copied().unwrap_or(0.0),
        attributed_s: attributed(&shares),
    }
}

/// The per-layer metrics of the whole replay, `(name, value, unit)`.
pub fn layer_metrics(
    rec: &Recording,
    untraced: &Untraced,
    phase: &PhaseAccount,
) -> Vec<(&'static str, f64, &'static str)> {
    let end = rec.spans.first().map_or(0.0, |s| s.end);
    let shares = wall_shares(&rec.spans, 0.0, end);
    let s = |k: &str| shares.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| rec.counters.get(k).copied().unwrap_or(0.0);
    let reuse_total = c("incremental.samples_reused") + c("incremental.samples_repeeled");
    let h = &untraced.http;
    vec![
        ("http.roundtrip_s", h.roundtrip_s, "s"),
        ("http.server_s", untraced.server_http_s, "s"),
        (
            "http.transport_s",
            h.roundtrip_s - untraced.server_http_s,
            "s",
        ),
        ("http.response_bytes", h.response_bytes as f64, "bytes"),
        ("server.cpu_s", untraced.server_cpu_s, "s"),
        ("ingest.parse_s", s("ingest"), "s"),
        (
            "ingest.parse_mib_per_s",
            c("ingest.bytes") / (1 << 20) as f64 / s("ingest"),
            "MiB/s",
        ),
        ("intern.s", s("intern"), "s"),
        ("buffer.append_s", s("buffer"), "s"),
        ("snapshot.compact_s", s("snapshot.compact"), "s"),
        ("jobs.queue_wait_s", untraced.jobs.queue_wait_s, "s"),
        ("jobs.overhead_s", untraced.jobs.overhead_s, "s"),
        ("sampling.draw_s", s("sampling"), "s"),
        ("view.build_s", s("view"), "s"),
        ("peel.s", s("peel") - s("view"), "s"),
        ("ensemble.s", s("ensemble"), "s"),
        ("aggregate.s", s("aggregate"), "s"),
        (
            "incremental.reuse_ratio",
            if reuse_total > 0.0 {
                c("incremental.samples_reused") / reuse_total
            } else {
                0.0
            },
            "ratio",
        ),
        ("replay.wall_s", end - s("view"), "s"),
        ("replay.attributed_s", attributed(&shares), "s"),
        ("unattributed_s", phase.unattributed_s(), "s"),
    ]
}

/// The trace file: spans, counters, every layer's share and busy time
/// over the whole replay and over the phase, and the phase accounting.
pub fn trace_json(rec: &Recording, phase: &PhaseAccount) -> serde_json::Value {
    let end = rec.spans.first().map_or(0.0, |s| s.end);
    serde_json::json!({
        "trace": crate::trace::to_json(&rec.spans, &rec.counters),
        "layers": {
            "wall_share_s": owned_keys(&wall_shares(&rec.spans, 0.0, end)),
            "busy_s": owned_keys(&busy(&rec.spans, 0.0, end)),
            "phase_wall_share_s": owned_keys(&shares_over(&rec.spans, &rec.windows)),
        },
        "phase": {
            "windows": rec.windows.len(),
            "units_accounted": phase.units,
            "untraced_s": phase.untraced_s,
            "replay_s": phase.replay_s,
            "attributed_s": phase.attributed_s,
            "unattributed_s": phase.unattributed_s(),
            "miss": phase.miss(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemfdet::{EnsemFdet, SamplingMethodConfig};
    use ensemfdet_datagen::presets::{jd_preset, JdDataset};

    /// The traced loop must reproduce `EnsemFdet::detect`'s votes bit for
    /// bit, whatever the sampling method.
    #[test]
    fn traced_ensemble_reproduces_detect_votes() {
        let ds = ensemfdet_datagen::generate(&jd_preset(JdDataset::Jd1, 400, 3));
        for method in [
            SamplingMethodConfig::RandomEdge,
            SamplingMethodConfig::OneSideUser,
        ] {
            let cfg = EnsemFdetConfig {
                num_samples: 8,
                sample_ratio: 0.3,
                method,
                ..Default::default()
            };
            let t = Tracer::new();
            let votes = t.span("scan", None, |root| {
                Ensemble::new(&t, cfg).votes(&ds.graph, root)
            });
            let oracle = EnsemFdet::with_workers(cfg, WORKERS)
                .detect(&ds.graph)
                .votes;
            assert_eq!(votes, oracle, "{method:?}");
            assert!(t.spans().iter().any(|s| s.name == "peel"));
        }
    }

    /// A unit the untraced run has no wall for is left out of the
    /// replay's side too.
    #[test]
    fn accounting_sums_both_sides_over_the_same_units() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            thread: 0,
        };
        let rec = Recording {
            spans: vec![
                span("replay", 0.0, 6.0, None),
                span("peel", 0.0, 1.0, Some(0)),
                span("peel", 2.0, 4.0, Some(0)),
                span("peel", 4.0, 5.5, Some(0)),
            ],
            counters: BTreeMap::new(),
            windows: vec![(0.0, 1.0), (2.0, 4.0), (4.0, 6.0)],
            flagged: Vec::new(),
        };
        let phase = account(&rec, &[Some(1.5), None, Some(2.5)]);
        assert_eq!(phase.units, 2);
        assert_eq!(phase.untraced_s, 4.0);
        // Windows 0 and 2; the replay's own glue in [5.5, 6] is not a layer.
        assert_eq!(phase.replay_s, 3.0);
        assert_eq!(phase.attributed_s, 2.5);
        assert_eq!(phase.unattributed_s(), 1.0);
        // Units past the untraced run's are left out as well.
        assert_eq!(account(&rec, &[Some(1.5)]).replay_s, 1.0);
    }
}
