//! The message-class taxonomy of the mixed service.
//!
//! A production small-message box rarely runs one protocol. The paper's
//! single-protocol streams (Figures 5–9) answer "how fast is one
//! stack"; a realistic service interleaves several, each with its own
//! handler footprint, shared-state table, and latency expectation.
//! [`WireClass`] names the five traffic classes the workload generator
//! mixes, and maps each to the [`WClassProfile`] the multi-core
//! simulator charges per message:
//!
//! * **ClientSignal** — Q.93B-style call signalling from end clients
//!   (SETUP/CONNECT/RELEASE inside a v2 class frame). Big handler:
//!   call-state machines drag the most code per message.
//! * **SvcRpc** — service-to-service attribute RPC (the NFS
//!   GETATTR-shaped traffic of `signaling::rpc`). Lean handler, big
//!   session table: many concurrent peers, little code.
//! * **MediaCtl** — media-control commands (mute/pin/layout changes).
//!   Tiny messages, tiny handler, and the tightest SLO in the mix: a
//!   control surface that lags is visibly broken.
//! * **Dns** — name lookups ahead of connection setup
//!   (`signaling::dns` wire format). Mid-size handler, the widest
//!   fan-out table (one slot per cached name).
//! * **Agent** — CBOR-framed agent-to-agent messaging with sessions,
//!   acks, and relay store-and-forward (`crate::agent`). The fattest
//!   handler and the loosest SLO: relays tolerate latency, not loss.
//!
//! Class id 0 is reserved for untagged legacy traffic (see
//! `simnet::steer::FlowArrival::wclass`) and never appears here.

use simnet::{WClassProfile, MAX_WCLASS};

/// A traffic class in the mixed service. Discriminants are the on-wire
/// class ids (and the `wclass` indices the simulator accounts under).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum WireClass {
    /// Client call signalling (Q.93B-shaped, framed).
    ClientSignal = 1,
    /// Service-to-service attribute RPC.
    SvcRpc = 2,
    /// Media-control commands.
    MediaCtl = 3,
    /// DNS lookups.
    Dns = 4,
    /// CBOR agent messaging (sessions, acks, relay).
    Agent = 5,
}

impl WireClass {
    /// Every class, in id order.
    pub const ALL: [WireClass; 5] = [
        WireClass::ClientSignal,
        WireClass::SvcRpc,
        WireClass::MediaCtl,
        WireClass::Dns,
        WireClass::Agent,
    ];

    /// The on-wire class id (1..=5; 0 is untagged legacy traffic).
    pub fn id(self) -> u8 {
        self as u8
    }

    /// The `SmpOutcome::classes` index this class is accounted under.
    pub fn index(self) -> usize {
        usize::from(self.id())
    }

    /// Parses an on-wire class id.
    pub fn from_id(id: u8) -> Option<WireClass> {
        match id {
            1 => Some(WireClass::ClientSignal),
            2 => Some(WireClass::SvcRpc),
            3 => Some(WireClass::MediaCtl),
            4 => Some(WireClass::Dns),
            5 => Some(WireClass::Agent),
            _ => None,
        }
    }

    /// Short CSV-friendly label.
    pub fn label(self) -> &'static str {
        match self {
            WireClass::ClientSignal => "sig",
            WireClass::SvcRpc => "rpc",
            WireClass::MediaCtl => "media",
            WireClass::Dns => "dns",
            WireClass::Agent => "agent",
        }
    }

    /// The per-message service profile the simulator charges: handler
    /// code swept per message, session-table reach, and the class SLO.
    /// Footprints straddle the paper's per-layer ~6 KB so the I-cache
    /// pressure axis stays recognisable class by class.
    pub fn profile(self) -> WClassProfile {
        match self {
            WireClass::ClientSignal => WClassProfile {
                handler_code_bytes: 5_632,
                table_slots: 4_096,
                slo_us: 400.0,
            },
            WireClass::SvcRpc => WClassProfile {
                handler_code_bytes: 2_048,
                table_slots: 8_192,
                slo_us: 150.0,
            },
            WireClass::MediaCtl => WClassProfile {
                handler_code_bytes: 1_280,
                table_slots: 1_024,
                slo_us: 80.0,
            },
            WireClass::Dns => WClassProfile {
                handler_code_bytes: 3_072,
                table_slots: 16_384,
                slo_us: 300.0,
            },
            WireClass::Agent => WClassProfile {
                handler_code_bytes: 7_168,
                table_slots: 2_048,
                slo_us: 800.0,
            },
        }
    }

    /// Bounded-Pareto size parameters `(min_bytes, max_bytes, alpha)`
    /// for the class's message sizes. Everything stays small-message
    /// (the paper's regime) but heavy-tailed within its band; the
    /// ceiling is one MTU-sized datagram, which also keeps every
    /// message inside `SmpConfig::pool_buf_bytes` (1536) ring buffers.
    pub fn size_params(self) -> (u32, u32, f64) {
        match self {
            WireClass::ClientSignal => (64, 512, 1.3),
            WireClass::SvcRpc => (96, 1_440, 1.1),
            WireClass::MediaCtl => (48, 256, 1.5),
            WireClass::Dns => (64, 512, 1.2),
            WireClass::Agent => (128, 1_440, 1.05),
        }
    }
}

/// The full `SmpConfig::wclass` profile array: the five service classes
/// at their ids, zeros elsewhere (class 0 stays untagged/free).
pub fn profiles() -> [WClassProfile; MAX_WCLASS] {
    let mut out = [WClassProfile::default(); MAX_WCLASS];
    for c in WireClass::ALL {
        if let Some(slot) = out.get_mut(c.index()) {
            *slot = c.profile();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_zero_is_reserved() {
        for c in WireClass::ALL {
            assert_eq!(WireClass::from_id(c.id()), Some(c));
            assert!(c.id() >= 1 && (c.index()) < MAX_WCLASS);
        }
        assert_eq!(WireClass::from_id(0), None);
        assert_eq!(WireClass::from_id(6), None);
    }

    #[test]
    fn profiles_land_at_their_ids() {
        let p = profiles();
        assert_eq!(p[0], WClassProfile::default(), "class 0 stays free");
        for c in WireClass::ALL {
            assert_eq!(p[c.index()], c.profile());
            assert!(c.profile().handler_code_bytes > 0);
            assert!(c.profile().slo_us > 0.0);
        }
        assert_eq!(p[6], WClassProfile::default());
        assert_eq!(p[7], WClassProfile::default());
    }

    #[test]
    fn media_has_the_tightest_slo_and_agent_the_fattest_handler() {
        let slos: Vec<f64> = WireClass::ALL.iter().map(|c| c.profile().slo_us).collect();
        let min = slos.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(WireClass::MediaCtl.profile().slo_us, min);
        let fattest = WireClass::ALL
            .iter()
            .max_by_key(|c| c.profile().handler_code_bytes)
            .copied();
        assert_eq!(fattest, Some(WireClass::Agent));
    }

    #[test]
    fn size_bands_are_sane() {
        for c in WireClass::ALL {
            let (lo, hi, alpha) = c.size_params();
            assert!(lo >= 40 && lo < hi, "{c:?}");
            assert!(hi <= 1_440, "one MTU datagram, pool-buffer safe: {c:?}");
            assert!(alpha > 1.0, "finite-ish mean: {c:?}");
        }
    }
}
