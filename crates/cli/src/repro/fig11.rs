//! Fig. 11: the Fig. 8 panels repeated on Polaris (pre-exascale, ANL), with
//! 4 processes per node (one per A100) for the k-ring panel.
//!
//! Expected divergences from Frontier (§VI-E): k-nomial and recursive
//! multiplying trends carry over (optimal k-nomial radix near p for tiny
//! messages; optimal recursive-multiplying radix a small multiple of the
//! two NIC ports), but the k-ring parameter has *minimal effect* because
//! Polaris' fully-connected intranode fabric gives no latency advantage to
//! node-sized ring groups.

use super::fig08::panels;
use exacoll_sim::{Machine, Table};

/// All three panels.
pub fn run(quick: bool) -> Vec<Table> {
    let nodes = if quick { 16 } else { 128 };
    let ring = (4, &[1, 2, 4, 8, 16][..], &[1 << 20, 4 << 20, 16 << 20][..]);
    panels(11, "Polaris", Machine::polaris, nodes, ring)
}
