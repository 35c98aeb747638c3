//! Strongly-typed node identifiers.
//!
//! Users (PINs) and merchants live in disjoint index spaces; mixing them up
//! is the classic bipartite-graph bug. Newtypes make the compiler catch it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a user (PIN) node, `0..num_users`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(pub u32);

/// Index of a merchant node, `0..num_merchants`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MerchantId(pub u32);

/// Either side of the bipartite graph, for APIs that operate on any node
/// (e.g. the greedy peeling order, which interleaves both sides).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum NodeRef {
    /// A user-side node.
    User(UserId),
    /// A merchant-side node.
    Merchant(MerchantId),
}

impl UserId {
    /// The raw index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MerchantId {
    /// The raw index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for MerchantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MerchantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<UserId> for NodeRef {
    fn from(u: UserId) -> Self {
        NodeRef::User(u)
    }
}

impl From<MerchantId> for NodeRef {
    fn from(v: MerchantId) -> Self {
        NodeRef::Merchant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_and_display() {
        assert_eq!(UserId(7).index(), 7);
        assert_eq!(MerchantId(3).index(), 3);
        assert_eq!(format!("{:?}", UserId(7)), "u7");
        assert_eq!(format!("{:?}", MerchantId(3)), "m3");
        assert_eq!(format!("{}", UserId(7)), "7");
    }

    #[test]
    fn node_ref_ordering_is_total() {
        // Users sort before merchants; within a side, by index. This gives a
        // deterministic iteration order for detected-set reporting.
        let mut nodes = vec![
            NodeRef::Merchant(MerchantId(0)),
            NodeRef::User(UserId(5)),
            NodeRef::User(UserId(1)),
        ];
        nodes.sort();
        assert_eq!(
            nodes,
            vec![
                NodeRef::User(UserId(1)),
                NodeRef::User(UserId(5)),
                NodeRef::Merchant(MerchantId(0)),
            ]
        );
    }
}
