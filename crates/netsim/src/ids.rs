//! Strongly-typed identifiers for simulation entities.
//!
//! Hosts, switches and (directed) links live in dense vectors inside the
//! simulator; these newtypes prevent accidentally indexing one table with
//! another table's id.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A host (GPU/NIC endpoint). One host drives one NIC, as in the paper's
/// workload model (§2: "Each NIC is associated with a single GPU").
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug)]
pub struct HostId(pub u32);

/// A switch (leaf or spine).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug)]
pub struct SwitchId(pub u32);

/// A *directed* link. Physical cables are represented as a pair of directed
/// links; [`crate::topology::Topology::peer`] maps one direction to the other.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug)]
pub struct LinkId(pub u32);

/// Any node that can source or sink packets.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub enum NodeId {
    /// An end host.
    Host(HostId),
    /// A leaf or spine switch.
    Switch(SwitchId),
}

impl HostId {
    /// Index into host tables.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl SwitchId {
    /// Index into switch tables.
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Index into link tables.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Host(h) => write!(f, "{h}"),
            NodeId::Switch(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(SwitchId(7).to_string(), "sw7");
        assert_eq!(LinkId(42).to_string(), "l42");
        assert_eq!(NodeId::Host(HostId(1)).to_string(), "h1");
    }

    #[test]
    fn idx_matches_inner() {
        assert_eq!(HostId(9).idx(), 9);
        assert_eq!(SwitchId(9).idx(), 9);
        assert_eq!(LinkId(9).idx(), 9);
    }
}
