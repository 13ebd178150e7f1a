//! Traffic and resource statistics accumulated during replay.

use crate::time::SimTime;

/// Where one rank's virtual time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankBreakdown {
    /// Time spent posting sends/receives (`o_send`/`o_recv`).
    pub posting: SimTime,
    /// Time spent in reduction computation (γ term + fixed costs).
    pub computing: SimTime,
    /// Time spent stalled in waits (finish − posting − computing).
    pub blocked: SimTime,
}

impl RankBreakdown {
    /// Fraction of this rank's makespan spent blocked, `None` for an empty
    /// timeline.
    pub fn blocked_fraction(&self) -> Option<f64> {
        let total = self.posting + self.computing + self.blocked;
        (total.as_nanos() > 0.0).then(|| self.blocked / total)
    }
}

/// Aggregate statistics of one simulated collective.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Point-to-point messages that crossed the internode network.
    pub inter_messages: u64,
    /// Bytes that crossed the internode network.
    pub inter_bytes: u64,
    /// Point-to-point messages that stayed on an intranode fabric.
    pub intra_messages: u64,
    /// Bytes that stayed on an intranode fabric.
    pub intra_bytes: u64,
    /// Total reduction bytes computed across all ranks.
    pub compute_bytes: u64,
    /// Events processed by the replay engine.
    pub events: u64,
    /// Sum of NIC transmit busy time over all ports.
    pub nic_tx_busy: SimTime,
    /// Busiest single NIC transmit side.
    pub nic_tx_busy_max: SimTime,
}

impl SimStats {
    /// Total messages, either path.
    pub fn total_messages(&self) -> u64 {
        self.inter_messages + self.intra_messages
    }

    /// Total bytes moved, either path.
    pub fn total_bytes(&self) -> u64 {
        self.inter_bytes + self.intra_bytes
    }

    /// Fraction of traffic (by bytes) that crossed the internode network.
    /// `None` when no bytes moved at all.
    pub fn inter_fraction(&self) -> Option<f64> {
        let total = self.total_bytes();
        (total > 0).then(|| self.inter_bytes as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let s = SimStats {
            inter_messages: 3,
            inter_bytes: 300,
            intra_messages: 1,
            intra_bytes: 100,
            ..Default::default()
        };
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.total_bytes(), 400);
        assert_eq!(s.inter_fraction(), Some(0.75));
    }

    #[test]
    fn empty_fraction_is_none() {
        assert_eq!(SimStats::default().inter_fraction(), None);
    }
}
