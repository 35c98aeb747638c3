//! Error type shared by the graph crate.

use std::fmt;
use std::io;

/// Errors produced while building, slicing, or (de)serializing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// A node index referenced a user that is out of range.
    UserOutOfRange {
        /// Offending index.
        id: u32,
        /// Number of users in the graph.
        num_users: usize,
    },
    /// A node index referenced a merchant that is out of range.
    MerchantOutOfRange {
        /// Offending index.
        id: u32,
        /// Number of merchants in the graph.
        num_merchants: usize,
    },
    /// An edge id was out of range.
    EdgeOutOfRange {
        /// Offending edge index.
        id: usize,
        /// Number of edges in the graph.
        num_edges: usize,
    },
    /// An edge weight was not finite or had its sign bit set. Weights are
    /// edge suspiciousness, which the greedy peel needs finite and
    /// non-negative.
    InvalidWeight {
        /// Offending edge index.
        edge: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// A text line could not be parsed as an edge or label record.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UserOutOfRange { id, num_users } => {
                write!(f, "user id {id} out of range (num_users = {num_users})")
            }
            GraphError::MerchantOutOfRange { id, num_merchants } => write!(
                f,
                "merchant id {id} out of range (num_merchants = {num_merchants})"
            ),
            GraphError::EdgeOutOfRange { id, num_edges } => {
                write!(f, "edge id {id} out of range (num_edges = {num_edges})")
            }
            GraphError::InvalidWeight { edge, weight } => write!(
                f,
                "edge {edge} has weight {weight}; weights must be finite and non-negative"
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::UserOutOfRange { id: 9, num_users: 3 };
        assert!(e.to_string().contains("user id 9"));
        let e = GraphError::Parse {
            line: 4,
            message: "bad field".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
