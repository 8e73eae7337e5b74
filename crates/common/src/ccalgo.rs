//! Which congestion-control algorithm the reliable paths run.
//!
//! The loss-recovery subsystem (`iwarp-cc`) gives `simnet::stream` and
//! `simnet::rdgram` a shared selective-repeat engine with a pluggable
//! congestion controller. Which controller a conduit uses is a per-config
//! field (`StreamConfig::cc`, `RdConfig::cc`, `ChaosOpts::cc`) whose
//! default is [`CcAlgo::NewReno`]; there is no process-wide setting.
//! [`CcAlgo::Fixed`] — a fixed window with the legacy fixed retransmit
//! timer — is an explicit opt-in (`--cc fixed`), kept as the reference
//! the recovery gate and the cross-algorithm determinism sweeps compare
//! against.

/// Which congestion-control algorithm a reliable path runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CcAlgo {
    /// Fixed window, fixed (non-adaptive) retransmission timer. The
    /// legacy behavior, kept as an opt-in reference.
    Fixed,
    /// NewReno-style slow start / congestion avoidance / fast recovery
    /// with an RFC-6298 adaptive RTO. The default of every reliable-path
    /// config.
    NewReno,
    /// CUBIC window growth (concave/convex probing around the last loss
    /// window) with an RFC-6298 adaptive RTO.
    Cubic,
}

impl CcAlgo {
    /// Every algorithm, in sweep order.
    pub const ALL: [CcAlgo; 3] = [CcAlgo::Fixed, CcAlgo::NewReno, CcAlgo::Cubic];

    /// Parses the `--cc` CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(Self::Fixed),
            "newreno" => Some(Self::NewReno),
            "cubic" => Some(Self::Cubic),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Fixed => "fixed",
            Self::NewReno => "newreno",
            Self::Cubic => "cubic",
        }
    }
}

impl std::fmt::Display for CcAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for algo in CcAlgo::ALL {
            assert_eq!(CcAlgo::parse(algo.as_str()), Some(algo));
            assert_eq!(algo.to_string(), algo.as_str());
        }
        assert_eq!(CcAlgo::parse("reno"), None);
    }
}
