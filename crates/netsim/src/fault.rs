//! Link fault models and the timed link changes that install and clear them.
//!
//! The paper distinguishes two axes of faultiness (§1, §4):
//!
//! * **Known faults** ([`FaultKind::AdminDown`]): the switch OS has detected
//!   the fault and removed the link from routing. Spraying avoids spines that
//!   cannot reach a destination leaf, which is exactly what makes the
//!   analytical `d/(s−f)` load model correct in their presence.
//! * **Silent faults** (everything else): the link keeps carrying traffic and
//!   stays in the routing tables, but drops some or all packets without any
//!   reflection in telemetry. These are what FlowPulse exists to catch.
//!
//! A remediation is a silent fault made known, so a control-plane verb
//! ([`crate::control`]) is a [`FaultAction`] too, and every timed link
//! change — fault, heal or remediation — is one [`FaultEvent`] on the
//! simulator's one link-change schedule.

use crate::ids::LinkId;
use crate::rng::coin;
use crate::time::SimTime;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// A fault condition on one directed link.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum FaultKind {
    /// Known fault: link administratively removed from routing. No packets
    /// are forwarded; spray sets are recomputed to exclude it.
    AdminDown,
    /// Silent random loss: each packet independently dropped with
    /// probability `rate` (models an elevated bit-error rate whose corrupted
    /// frames are CRC-dropped downstream — paper §6 "drop packets at a set
    /// rate").
    SilentDrop {
        /// Per-packet drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Silent total black hole: every packet silently dropped (e.g. FIB
    /// memory corruption, paper §1).
    SilentBlackhole,
    /// Silent selective black hole: only packets destined to hosts under
    /// `dst_leaf` are dropped (a corrupted FIB entry for one prefix).
    DstBlackhole {
        /// Leaf index whose traffic disappears.
        dst_leaf: u16,
    },
}

impl FaultKind {
    /// True for fault kinds that are invisible to routing/telemetry.
    pub(crate) fn is_silent(&self) -> bool {
        !matches!(self, FaultKind::AdminDown)
    }

    /// Decide whether this fault drops a packet whose destination host
    /// sits under `dst`. Only meaningful for silent faults; `AdminDown`
    /// is enforced by routing, not per-packet sampling. The simulator
    /// samples this at the end of serialization, as the packet would enter
    /// its link's delivery pipe — a dropped packet never goes in flight, and
    /// a fault cleared mid-flight cannot retroactively save packets already
    /// dropped at insert.
    pub(crate) fn drops(&self, dst: u16, rng: &mut SmallRng) -> bool {
        match *self {
            FaultKind::AdminDown => true,
            FaultKind::SilentDrop { rate } => coin(rng, rate),
            FaultKind::SilentBlackhole => true,
            FaultKind::DstBlackhole { dst_leaf } => dst == dst_leaf,
        }
    }
}

/// What a link change does.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum FaultAction {
    /// Install (or replace) the fault on the link.
    Set(FaultKind),
    /// Heal the link: clear any fault and any quarantine, and restore it
    /// to routing.
    Clear,
    /// Quarantine the link for spray decisions only: it stays up and keeps
    /// forwarding, but sprayers avoid it while an alternative exists
    /// ([`crate::control::ControlVerb::RecycleEntropy`]).
    Quarantine,
}

/// A timed link change.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct FaultEvent {
    /// When the change takes effect.
    pub(crate) at: SimTime,
    /// Target directed link.
    pub(crate) link: LinkId,
    /// Apply to the reverse direction as well (physical-cable semantics).
    pub(crate) bidirectional: bool,
    /// What changes.
    pub(crate) action: FaultAction,
}

impl FaultEvent {
    /// `action` on `link` at `at` (and on its peer, if `bidirectional`):
    /// the argument order of [`crate::sim::Simulator::apply_fault_now`].
    pub(crate) fn new(at: SimTime, link: LinkId, action: FaultAction, bidirectional: bool) -> Self {
        FaultEvent {
            at,
            link,
            bidirectional,
            action,
        }
    }
}

/// Generate a link-flap schedule: `kind` is installed at `start`, then the
/// link alternates faulty/healthy with the given on/off durations for
/// `cycles` cycles (link flaps are one of the §1 fault classes; a flap
/// whose "down" phases are silent looks like a bursty gray fault).
pub fn flap_schedule(
    link: LinkId,
    kind: FaultKind,
    start: SimTime,
    on: crate::time::SimDuration,
    off: crate::time::SimDuration,
    cycles: u32,
    bidirectional: bool,
) -> Vec<FaultEvent> {
    let mut out = Vec::with_capacity(2 * cycles as usize);
    let mut t = start;
    for _ in 0..cycles {
        out.push(FaultEvent::new(
            t,
            link,
            FaultAction::Set(kind),
            bidirectional,
        ));
        t += on;
        out.push(FaultEvent::new(t, link, FaultAction::Clear, bidirectional));
        t += off;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn silent_classification() {
        assert!(!FaultKind::AdminDown.is_silent());
        assert!(FaultKind::SilentDrop { rate: 0.1 }.is_silent());
        assert!(FaultKind::SilentBlackhole.is_silent());
        assert!(FaultKind::DstBlackhole { dst_leaf: 3 }.is_silent());
    }

    #[test]
    fn blackhole_drops_everything() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..32 {
            assert!(FaultKind::SilentBlackhole.drops(2, &mut rng));
        }
    }

    #[test]
    fn dst_blackhole_is_selective() {
        let mut rng = SmallRng::seed_from_u64(1);
        let f = FaultKind::DstBlackhole { dst_leaf: 4 };
        assert!(f.drops(4, &mut rng));
        assert!(!f.drops(5, &mut rng));
    }

    #[test]
    fn drop_rate_is_statistically_respected() {
        let mut rng = SmallRng::seed_from_u64(7);
        let f = FaultKind::SilentDrop { rate: 0.015 };
        let n = 100_000;
        let drops = (0..n).filter(|_| f.drops(0, &mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.015).abs() < 0.002, "rate={rate}");
    }

    #[test]
    fn flap_schedule_alternates() {
        use crate::time::SimDuration;
        let s = flap_schedule(
            LinkId(3),
            FaultKind::SilentBlackhole,
            SimTime::from_us(10),
            SimDuration::from_us(5),
            SimDuration::from_us(15),
            2,
            false,
        );
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].at, SimTime::from_us(10));
        assert_eq!(s[0].action, FaultAction::Set(FaultKind::SilentBlackhole));
        assert_eq!(s[1].at, SimTime::from_us(15));
        assert_eq!(s[1].action, FaultAction::Clear);
        assert_eq!(s[2].at, SimTime::from_us(30));
        assert_eq!(s[3].at, SimTime::from_us(35));
        // Strictly increasing times.
        for w in s.windows(2) {
            assert!(w[0].at < w[1].at);
        }
    }

    #[test]
    fn zero_and_one_rates_are_exact() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(!FaultKind::SilentDrop { rate: 0.0 }.drops(0, &mut rng));
        assert!(FaultKind::SilentDrop { rate: 1.0 }.drops(0, &mut rng));
    }
}
