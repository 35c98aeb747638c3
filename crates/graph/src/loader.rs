//! Chunked parallel loading of delimited transaction logs.
//!
//! Real transaction logs are `user,merchant[,amount]` lines — the shape of
//! SNIPPETS.md snippet 2's `build_graph_bipartite` input. This module turns
//! such a log into an **amount-summed weighted** [`BipartiteGraph`] plus an
//! [`ArenaTransactionInterner`], the same way for every worker count:
//!
//! 1. **Scan** in parallel: [`scan_records`], the one chunk scanner, which
//!    the service's `text/csv` ingest route calls too, splits the input at
//!    line boundaries into one chunk per worker, and each worker parses
//!    its chunk into `(user, merchant, amount)` records whose keys it has
//!    already hashed ([`Key`]).
//! 2. **Intern** serially: one pass over the chunks in file order interns
//!    every record's keys, so a key's id is its rank among first
//!    appearances in the file — the ids a serial read assigns, and the
//!    ones the service's ingest assigns.
//! 3. **Merge** by the one weight rule of the graph crate
//!    (`builder::merge_weighted`, which
//!    [`DuplicatePolicy::MergeCounting`](crate::builder::DuplicatePolicy)
//!    uses too): a stable sort by `(user, merchant)`, then each pair's
//!    amounts summed in file order. The `f64` weights are therefore
//!    bit-identical for every worker count as well.
//!
//! The invariance is checked by `loader::tests::worker_counts_are_bit_identical`
//! and, on generated logs through detection, by `tests/tests/bulk_ingest.rs`.

use crate::arena::{ArenaTransactionInterner, Key};
use crate::builder::merge_weighted;
use crate::error::GraphError;
use crate::graph::BipartiteGraph;
use std::path::Path;

/// Options for [`load_transactions`].
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Field delimiter (`,` for CSV, `\t` for TSV logs).
    pub delimiter: char,
    /// Parse workers. `1` parses serially on the calling thread; higher
    /// values split the input into that many line-aligned chunks. Ids,
    /// weights, and the final graph are identical for every value.
    pub workers: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            delimiter: ',',
            workers: 1,
        }
    }
}

/// A loaded transaction log: the weighted purchase graph and the id maps
/// to translate detection results back to log keys.
#[derive(Clone, Debug)]
pub struct LoadedLog {
    /// Amount-summed weighted bipartite graph (weight 1.0 per record when
    /// the log has no amount column).
    pub graph: BipartiteGraph,
    /// Key ↔ dense-id maps for both sides.
    pub interner: ArenaTransactionInterner,
    /// Number of transaction records parsed (excluding blanks/comments).
    pub records: usize,
    /// Total input lines scanned, including blanks and comments.
    pub lines: usize,
}

/// Parses one `user<delim>merchant[<delim>amount]` line.
///
/// Returns `Ok(None)` for blank lines and `#` comments, `Ok(Some(...))`
/// for a record (amount defaults to `1.0`), and a message for malformed
/// input: fewer than two non-empty fields, or an amount that does not
/// parse, is not finite, or is negative. Fields beyond the third are
/// ignored (real logs carry timestamps).
fn parse_csv_record(line: &str, delimiter: char) -> Result<Option<(&str, &str, f64)>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split(delimiter);
    let user = fields.next().map(str::trim).filter(|s| !s.is_empty());
    let merchant = fields.next().map(str::trim).filter(|s| !s.is_empty());
    let (Some(user), Some(merchant)) = (user, merchant) else {
        return Err(format!("expected `user{delimiter}merchant[{delimiter}amount]`"));
    };
    let amount = match fields.next().map(str::trim) {
        None | Some("") => 1.0,
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|e| format!("bad amount `{raw}`: {e}"))?,
    };
    if !amount.is_finite() {
        return Err(format!("bad amount `{amount}`: not finite"));
    }
    // Amounts become edge suspiciousness, which the peel needs
    // non-negative: any set sign bit is refused, `-0` included.
    if amount.is_sign_negative() {
        return Err(format!("bad amount `{amount}`: negative"));
    }
    Ok(Some((user, merchant, amount)))
}

/// Splits `data` into at most `n` chunks on `\n` boundaries. Every byte is
/// covered exactly once; chunks are non-empty.
fn split_line_chunks(data: &[u8], n: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::with_capacity(n);
    if data.is_empty() {
        return chunks;
    }
    let target = data.len().div_ceil(n.max(1));
    let mut start = 0usize;
    while start < data.len() {
        let mut end = (start + target).min(data.len());
        // Advance to just past the next newline so no line is split.
        while end < data.len() && data[end - 1] != b'\n' {
            end += 1;
        }
        chunks.push(&data[start..end]);
        start = end;
    }
    chunks
}

/// Scans one chunk, mapping each record with `record`. Returns the
/// records and the chunk's line count, or the first malformed line as
/// (line offset *within the chunk*, message).
fn scan_chunk<'a, T>(
    chunk: &'a [u8],
    delimiter: char,
    record: &impl Fn(&'a str, &'a str, f64) -> T,
) -> Result<(Vec<T>, usize), (usize, String)> {
    // `split` on a `\n`-terminated chunk yields one trailing empty piece
    // that is not a real line; the count leaves it out.
    let lines =
        chunk.iter().filter(|&&b| b == b'\n').count() + usize::from(chunk.last() != Some(&b'\n'));
    // One slot per line, so the records never outgrow their first
    // allocation (blank and comment lines leave a few slots unused).
    let mut records = Vec::with_capacity(lines);
    for (index, raw) in chunk.split(|&b| b == b'\n').take(lines).enumerate() {
        let line = index + 1;
        let text =
            std::str::from_utf8(raw).map_err(|_| (line, "line is not valid UTF-8".to_string()))?;
        if let Some((user, merchant, amount)) =
            parse_csv_record(text, delimiter).map_err(|message| (line, message))?
        {
            records.push(record(user, merchant, amount));
        }
    }
    Ok((records, lines))
}

/// The one scanner of delimited transaction logs: splits `data` into
/// `workers` line-aligned chunks, scans them in parallel under
/// `std::thread::scope` (serially on the calling thread for one chunk),
/// and maps every `user<delim>merchant[<delim>amount]` record with
/// `record`. Blank lines and `#` comments are skipped; fields beyond the
/// third are ignored.
///
/// Returns the mapped records chunk by chunk, in file order, and the
/// number of lines scanned. Both [`load_transactions`] and the service's
/// `text/csv` ingest route parse through here, so they agree on what a
/// malformed record is and where it sits.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] with the 1-based global line number of
/// the first malformed record (fewer than two non-empty fields, a bad,
/// non-finite or negative amount, or invalid UTF-8).
pub fn scan_records<'a, T, F>(
    data: &'a [u8],
    delimiter: char,
    workers: usize,
    record: F,
) -> Result<(Vec<Vec<T>>, usize), GraphError>
where
    T: Send,
    F: Fn(&'a str, &'a str, f64) -> T + Sync,
{
    let chunks = split_line_chunks(data, workers.max(1));
    let scan = |chunk: &'a [u8]| scan_chunk(chunk, delimiter, &record);
    let scanned: Vec<_> = if chunks.len() <= 1 {
        chunks.into_iter().map(scan).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| scope.spawn(move || scan(chunk)))
                .collect();
            // A worker's panic resumes on the calling thread with its own
            // payload, so a caller that catches panics sees the real one.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    };

    // Surface the first (lowest-line) malformed record. Chunks before the
    // first erring one completed cleanly, so their line counts are exact
    // and prefix-summing them yields the global line number.
    let mut per_chunk = Vec::with_capacity(scanned.len());
    let mut lines = 0usize;
    for chunk in scanned {
        match chunk {
            Ok((records, chunk_lines)) => {
                per_chunk.push(records);
                lines += chunk_lines;
            }
            Err((local_line, message)) => {
                return Err(GraphError::Parse {
                    line: lines + local_line,
                    message,
                })
            }
        }
    }
    Ok((per_chunk, lines))
}

/// Loads a delimited transaction log from memory into an amount-summed
/// weighted bipartite graph. See the module docs for the determinism
/// argument; ids and weights are identical for every `options.workers`.
///
/// # Errors
///
/// As [`scan_records`], or [`GraphError::InvalidWeight`] when a pair's
/// amounts sum past `f64::MAX`.
pub fn load_transactions(data: &[u8], options: &LoadOptions) -> Result<LoadedLog, GraphError> {
    let (chunks, lines) = scan_records(
        data,
        options.delimiter,
        options.workers,
        |user, merchant, amount| (Key::new(user), Key::new(merchant), amount),
    )?;
    let mut interner = ArenaTransactionInterner::new();
    // Each chunk's parsed keys (56 bytes a record) map to interned ids
    // (16 bytes) through the chunk's own `into_iter`, which the standard
    // library's `collect` runs in place, in the chunk's allocation;
    // `shrink_to_fit` then hands back the tail. So the keys and the ids
    // never hold memory side by side (ids and weights do not depend on it).
    let mut interned = chunks.into_iter().map(|chunk| {
        let mut ids: Vec<(u32, u32, f64)> = chunk
            .into_iter()
            .map(|(user, merchant, amount)| {
                (interner.user(user).0, interner.merchant(merchant).0, amount)
            })
            .collect();
        ids.shrink_to_fit();
        ids
    });
    let mut records = interned.next().unwrap_or_default();
    for ids in interned {
        records.extend_from_slice(&ids);
    }
    let num_records = records.len();
    let (edges, weights) = merge_weighted(records);
    let graph = BipartiteGraph::from_weighted_edges(
        interner.num_users(),
        interner.num_merchants(),
        edges,
        weights,
    )?;
    Ok(LoadedLog {
        graph,
        interner,
        records: num_records,
        lines,
    })
}

/// Convenience: load a transaction log from a filesystem path.
///
/// # Errors
///
/// Propagates I/O failures and [`load_transactions`] errors.
pub fn load_transactions_path(
    path: impl AsRef<Path>,
    options: &LoadOptions,
) -> Result<LoadedLog, GraphError> {
    let data = std::fs::read(path)?;
    load_transactions(&data, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DuplicatePolicy, GraphBuilder};
    use std::io::{BufRead, BufReader, Read};

    /// Reads a delimited transaction log serially, the oracle the
    /// loader's ids are checked against: one `user<DELIM>merchant` record
    /// per line, `#` comments and blank lines skipped, extra fields ignored.
    /// Returns the deduplicated, unweighted purchase graph and the interner.
    fn read_transactions_csv<R: Read>(
        r: R,
        delimiter: char,
    ) -> Result<(BipartiteGraph, ArenaTransactionInterner), GraphError> {
        let mut r = BufReader::new(r);
        let mut interner = ArenaTransactionInterner::new();
        let mut builder = GraphBuilder::new();
        // One line buffer reused across the whole file — `lines()` would
        // allocate a fresh String per record.
        let mut buf = String::new();
        let mut lineno = 0usize;
        loop {
            buf.clear();
            if r.read_line(&mut buf)? == 0 {
                break;
            }
            lineno += 1;
            let line = buf.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split(delimiter);
            let user = fields.next().map(str::trim).filter(|s| !s.is_empty());
            let merchant = fields.next().map(str::trim).filter(|s| !s.is_empty());
            let (Some(user), Some(merchant)) = (user, merchant) else {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("expected `user{delimiter}merchant[{delimiter}…]`"),
                });
            };
            let u = interner.user(user);
            let v = interner.merchant(merchant);
            builder.add_edge(u, v);
        }
        let graph = builder.build_with(DuplicatePolicy::MergeBinary);
        Ok((graph, interner))
    }

    fn load(data: &str, workers: usize) -> LoadedLog {
        load_transactions(
            data.as_bytes(),
            &LoadOptions {
                delimiter: ',',
                workers,
            },
        )
        .unwrap()
    }

    #[test]
    fn amounts_sum_per_edge() {
        let log = "alice,storeA,10.5\nbob,storeA,2\nalice,storeA,4.5\n";
        let loaded = load(log, 1);
        assert_eq!(loaded.records, 3);
        assert_eq!(loaded.graph.num_edges(), 2);
        assert!(loaded.graph.is_weighted());
        let alice = loaded.interner.find_user("alice").unwrap();
        let store = loaded.interner.find_merchant("storeA").unwrap();
        let (eid, _, _, w) = loaded
            .graph
            .edges()
            .find(|&(_, u, v, _)| u == alice && v == store)
            .unwrap();
        assert_eq!(w, 15.0);
        assert_eq!(loaded.graph.edge_weight(eid), 15.0);
    }

    #[test]
    fn missing_amount_defaults_to_one() {
        let log = "a,m\na,m\na,m,\n";
        let loaded = load(log, 1);
        assert_eq!(loaded.graph.num_edges(), 1);
        assert_eq!(loaded.graph.edge_weight(0), 3.0);

        // A pair's amounts fold in file order from its first one, across
        // chunk boundaries: at 1e16 the f64 spacing is 2, so 1e16 absorbs
        // each later 1, while 1 + 1 = 2 survives a later 1e16. Sixteen
        // pairs of each kind make a reordering sort all but sure to show.
        let mut log = String::new();
        for (a, b) in [("1e16", "1"), ("1", "1"), ("1", "1e16")] {
            for j in 0..16 {
                log.push_str(&format!("a{j},m,{a}\nb{j},m,{b}\n"));
            }
            for i in 0..40 {
                log.push_str(&format!("f{i},g{},1\n", i % 7));
            }
        }
        for workers in 1..=4 {
            let loaded = load(&log, workers);
            let m = loaded.interner.find_merchant("m").unwrap();
            assert_eq!(loaded.graph.merchant_degree(m), 32);
            for (_, u, v, w) in loaded.graph.edges().filter(|&(_, _, v, _)| v == m) {
                let want = match &loaded.interner.user_key(u)[..1] {
                    "a" => 1e16,
                    _ => 1e16 + 2.0,
                };
                assert_eq!(w.to_bits(), f64::to_bits(want), "{u:?} {v:?} workers={workers}");
            }
        }
    }

    #[test]
    fn extra_fields_are_ignored() {
        let log = "a,m,2.0,2021-01-01T00:00:00Z,extra\n";
        let loaded = load(log, 1);
        assert_eq!(loaded.graph.edge_weight(0), 2.0);
    }

    #[test]
    fn malformed_line_reports_global_line_number() {
        let log = "a,m\n# comment\n\nb,m\nonly-one-field\nc,m\n";
        for workers in [1, 2, 4] {
            let err = load_transactions(
                log.as_bytes(),
                &LoadOptions {
                    delimiter: ',',
                    workers,
                },
            )
            .unwrap_err();
            match err {
                GraphError::Parse { line, message } => {
                    assert_eq!(line, 5, "workers={workers}");
                    assert!(message.contains("expected"), "workers={workers}: {message}");
                }
                other => panic!("unexpected: {other}"),
            }
        }
    }

    #[test]
    fn bad_amount_is_a_typed_error() {
        // A refund line is refused too: amounts become edge weights,
        // which must be non-negative, and `-0` has its sign bit set.
        for amount in ["not-a-number", "-50.0", "-0"] {
            let log = format!("a,m,12.5\nb,m,{amount}\n");
            let err = load_transactions(log.as_bytes(), &LoadOptions::default()).unwrap_err();
            match err {
                GraphError::Parse { line, message } => {
                    assert_eq!(line, 2, "{amount}");
                    assert!(message.contains("bad amount"), "{message}");
                }
                other => panic!("unexpected: {other}"),
            }
        }
    }

    #[test]
    fn non_finite_amount_rejected() {
        let err = load_transactions(b"a,m,inf\n", &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        // Finite amounts whose sum overflows are refused by the graph.
        let err =
            load_transactions(b"a,m,1e308\na,m,1e308\n", &LoadOptions::default()).unwrap_err();
        assert!(
            matches!(err, GraphError::InvalidWeight { edge: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        // Adversarial log: shared keys across what will become chunk
        // boundaries, duplicate edges, comments, no trailing newline.
        let mut log = String::from("# transaction log\n");
        for i in 0..200 {
            log.push_str(&format!("u{},m{},{}.25\n", i % 17, (i * 3) % 11, i));
        }
        log.push_str("u0,m0,0.125"); // unterminated final line
        let base = load(&log, 1);
        for workers in [2, 3, 4, 8] {
            let other = load(&log, workers);
            assert_eq!(base.records, other.records, "workers={workers}");
            assert_eq!(base.lines, other.lines, "workers={workers}");
            assert_eq!(
                base.interner.users().keys().collect::<Vec<_>>(),
                other.interner.users().keys().collect::<Vec<_>>(),
                "user ids diverged at workers={workers}"
            );
            assert_eq!(
                base.interner.merchants().keys().collect::<Vec<_>>(),
                other.interner.merchants().keys().collect::<Vec<_>>(),
                "merchant ids diverged at workers={workers}"
            );
            assert_eq!(
                base.graph.edge_slice(),
                other.graph.edge_slice(),
                "edges diverged at workers={workers}"
            );
            let base_w: Vec<u64> = (0..base.graph.num_edges())
                .map(|e| base.graph.edge_weight(e).to_bits())
                .collect();
            let other_w: Vec<u64> = (0..other.graph.num_edges())
                .map(|e| other.graph.edge_weight(e).to_bits())
                .collect();
            assert_eq!(base_w, other_w, "weights diverged at workers={workers}");
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let loaded = load("", 4);
        assert_eq!(loaded.records, 0);
        assert_eq!(loaded.lines, 0);
        assert_eq!(loaded.graph.num_edges(), 0);
        assert_eq!(loaded.interner.num_users(), 0);
    }

    #[test]
    fn ids_match_legacy_serial_interner() {
        let log = "carol,s9\nalice,s1\ncarol,s1\nbob,s9\n";
        let loaded = load(log, 3);
        let (_, legacy) = read_transactions_csv(log.as_bytes(), ',').unwrap();
        for key in ["carol", "alice", "bob"] {
            assert_eq!(
                loaded.interner.find_user(key).unwrap(),
                legacy.find_user(key).unwrap(),
                "{key}"
            );
        }
        for key in ["s9", "s1"] {
            assert_eq!(
                loaded.interner.find_merchant(key).unwrap(),
                legacy.find_merchant(key).unwrap(),
                "{key}"
            );
        }
    }

    #[test]
    fn chunk_split_covers_every_byte() {
        let data = b"aa\nbb\ncc\ndd\nee";
        for n in 1..8 {
            let chunks = split_line_chunks(data, n);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, data.len(), "n={n}");
            let joined: Vec<u8> = chunks.concat();
            assert_eq!(joined, data, "n={n}");
            for c in &chunks {
                assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn csv_ingestion_builds_graph() {
        let log = "\
# ts omitted
alice,storeA,12.50
bob,storeA
alice,storeB
alice,storeA
";
        let (g, interner) = read_transactions_csv(log.as_bytes(), ',').unwrap();
        assert_eq!(g.num_users(), 2);
        assert_eq!(g.num_merchants(), 2);
        // Duplicate alice→storeA deduplicated.
        assert_eq!(g.num_edges(), 3);
        let alice = interner.find_user("alice").unwrap();
        assert_eq!(g.user_degree(alice), 2);
    }

    #[test]
    fn tab_delimited_logs_work() {
        let log = "u1\tm1\nu2\tm1\n";
        let (g, _) = read_transactions_csv(log.as_bytes(), '\t').unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_record_reports_line() {
        let log = "alice,storeA\njust-one-field\n";
        let err = read_transactions_csv(log.as_bytes(), ',').unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn detected_ids_translate_back_to_keys() {
        let log = "alice,s1\nbob,s1\ncarol,s2\n";
        let (_, interner) = read_transactions_csv(log.as_bytes(), ',').unwrap();
        let detected = vec![
            interner.find_user("alice").unwrap(),
            interner.find_user("carol").unwrap(),
        ];
        assert_eq!(interner.user_keys_of(&detected), vec!["alice", "carol"]);
    }

    #[test]
    fn empty_log_is_empty_graph() {
        let (g, i) = read_transactions_csv("".as_bytes(), ',').unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(i.num_users(), 0);
    }
}
