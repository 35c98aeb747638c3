//! The generated dataset: graph + ground truth.

use ensemfdet_graph::{BipartiteGraph, GraphError, GraphStats};
use std::path::Path;

/// Membership of one planted fraud group, in final graph id space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FraudGroupInfo {
    /// Fraud user ids.
    pub users: Vec<u32>,
    /// Fraud-ring merchant ids.
    pub merchants: Vec<u32>,
    /// Edges inside the block (count, for density diagnostics).
    pub internal_edges: usize,
}

/// A generated transaction graph with planted fraud and an (intentionally
/// imperfect) expert blacklist.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The *who-buys-from-where* graph.
    pub graph: BipartiteGraph,
    /// The evaluation ground truth: user ids the "expert review" blacklisted
    /// (misses some true fraud, includes a few honest accounts).
    pub blacklist: Vec<u32>,
    /// The actual planted fraud users (oracle truth; experiments evaluate
    /// against `blacklist` as the paper does, this is for diagnostics).
    pub true_fraud_users: Vec<u32>,
    /// Merchants belonging to fraud rings.
    pub fraud_merchants: Vec<u32>,
    /// Per-group membership.
    pub groups: Vec<FraudGroupInfo>,
}

impl Dataset {
    /// Boolean blacklist membership per user id — the label vector the
    /// evaluation crate consumes.
    pub fn labels(&self) -> Vec<bool> {
        let mut l = vec![false; self.graph.num_users()];
        for &u in &self.blacklist {
            l[u as usize] = true;
        }
        l
    }

    /// Table I-style summary row: `(users, blacklisted, merchants, edges)`.
    pub fn table1_row(&self) -> (usize, usize, usize, usize) {
        (
            self.graph.num_users(),
            self.blacklist.len(),
            self.graph.num_merchants(),
            self.graph.num_edges(),
        )
    }

    /// Full structural statistics of the graph.
    pub fn stats(&self) -> GraphStats {
        GraphStats::of(&self.graph)
    }

    /// Persists the graph and blacklist as `<stem>.edges` / `<stem>.labels`.
    /// Extensions are *appended* (a stem like `run.p0` keeps its suffix).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, stem: impl AsRef<Path>) -> Result<(), GraphError> {
        let stem = stem.as_ref();
        let mut edges = stem.as_os_str().to_owned();
        edges.push(".edges");
        let mut labels = stem.as_os_str().to_owned();
        labels.push(".labels");
        ensemfdet_graph::io::save_edge_list(&self.graph, edges)?;
        ensemfdet_graph::io::save_labels(&self.blacklist, labels)?;
        Ok(())
    }

    /// Loads a dataset persisted by [`Dataset::save`]. Group/oracle
    /// information is not persisted; the loaded dataset carries the
    /// blacklist as both ground truths.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures.
    pub fn load(stem: impl AsRef<Path>) -> Result<Self, GraphError> {
        let stem = stem.as_ref();
        let mut edges = stem.as_os_str().to_owned();
        edges.push(".edges");
        let mut labels = stem.as_os_str().to_owned();
        labels.push(".labels");
        let graph = ensemfdet_graph::io::load_edge_list(edges)?;
        let blacklist = ensemfdet_graph::io::load_labels(labels)?;
        Ok(Dataset {
            graph,
            true_fraud_users: blacklist.clone(),
            blacklist,
            fraud_merchants: Vec::new(),
            groups: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let graph = BipartiteGraph::from_edges(4, 2, vec![(0, 0), (1, 0), (2, 1)]).unwrap();
        Dataset {
            graph,
            blacklist: vec![0, 1],
            true_fraud_users: vec![0, 1],
            fraud_merchants: vec![0],
            groups: vec![FraudGroupInfo {
                users: vec![0, 1],
                merchants: vec![0],
                internal_edges: 2,
            }],
        }
    }

    #[test]
    fn labels_reflect_blacklist() {
        let ds = tiny();
        assert_eq!(ds.labels(), vec![true, true, false, false]);
    }

    #[test]
    fn table1_row_shape() {
        assert_eq!(tiny().table1_row(), (4, 2, 2, 3));
    }

    /// A fresh directory for one test's files, named after the test and
    /// the process id, so parallel tests never share a fixture file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ensemfdet_datagen_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = test_dir("save_load_round_trip");
        let stem = dir.join("tiny");
        let ds = tiny();
        ds.save(&stem).unwrap();
        let back = Dataset::load(&stem).unwrap();
        assert_eq!(back.graph.edge_slice(), ds.graph.edge_slice());
        assert_eq!(back.blacklist, ds.blacklist);
        std::fs::remove_dir_all(&dir).ok();
    }
}
