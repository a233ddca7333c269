//! Bidirectional paths.
//!
//! A [`Path`] bundles the two directions of one end-to-end interface pair:
//! the *forward* (data) direction, which the experiments shape to a target
//! bandwidth exactly as the paper shapes server egress with `tc`, and the
//! *reverse* (ACK) direction, which is unshaped delay.
//!
//! [`PathConfig::wifi`] and [`PathConfig::lte`] encode the calibration worked
//! out in DESIGN.md: base delays and droptail queue sizes chosen so that the
//! *measured* RTT under regulation reproduces the shape of the paper's
//! Table 2 (bufferbloat makes RTT balloon as the shaped rate shrinks, and LTE
//! sits above WiFi at equal rate).

use std::time::Duration;

use crate::link::{Link, LinkConfig};
use crate::time::Time;

/// WiFi one-way propagation delay (base RTT ≈ 20 ms; paper Table 2 shows
/// 40 ms at 8.6 Mbps once queueing is included).
const WIFI_ONE_WAY: Duration = Duration::from_millis(10);
/// LTE one-way propagation delay (base RTT ≈ 60 ms; Table 2 shows 105 ms at
/// 8.6 Mbps).
pub const LTE_ONE_WAY: Duration = Duration::from_millis(30);
/// Shaped-link queue depth: the paper regulates with `tc` in front of a
/// default 1000-packet txqueue (~1.5 MB) — effectively lossless for any
/// window the endpoints reach. Inflight is then bounded by the receive
/// window, penalization and RFC 2861 validation rather than drops, which is
/// what lets the paper's Fig 11/12 windows ride at 60–350 segments and RTT
/// inflate to the ≈1 s of Table 2 instead of sawtoothing on loss.
const SHAPED_QUEUE_BYTES: u64 = 1_500_000;

/// Configuration of one bidirectional path.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Data direction (sender → receiver), shaped.
    pub fwd: LinkConfig,
    /// ACK direction (receiver → sender), delay only.
    pub rev: LinkConfig,
}

impl PathConfig {
    /// A WiFi-like path shaped to `mbps` in the data direction.
    pub fn wifi(mbps: f64) -> Self {
        let mut fwd = LinkConfig::shaped(mbps, WIFI_ONE_WAY, SHAPED_QUEUE_BYTES);
        fwd.jitter_max = Duration::from_millis(2);
        PathConfig { fwd, rev: LinkConfig::reverse(WIFI_ONE_WAY) }
    }

    /// An LTE-like path shaped to `mbps` in the data direction.
    pub fn lte(mbps: f64) -> Self {
        let mut fwd = LinkConfig::shaped(mbps, LTE_ONE_WAY, SHAPED_QUEUE_BYTES);
        fwd.jitter_max = Duration::from_millis(4);
        PathConfig { fwd, rev: LinkConfig::reverse(LTE_ONE_WAY) }
    }

    /// A fully custom symmetric-delay path.
    pub fn custom(mbps: f64, one_way: Duration, queue_bytes: u64) -> Self {
        PathConfig {
            fwd: LinkConfig::shaped(mbps, one_way, queue_bytes),
            rev: LinkConfig::reverse(one_way),
        }
    }

    /// The minimum (unloaded) round-trip time of this path.
    pub fn base_rtt(&self) -> Duration {
        self.fwd.prop_delay + self.rev.prop_delay
    }
}

/// Canonical per-path seed derivation: path `index` of a run seeded with
/// `base` gets `base + index * 7919`. Every harness — the mptcp monolith
/// testbed, the sharded sweep executor (which keys by *global* unit index so
/// shard and monolith runs agree bit-for-bit), and the quic testbed — derives
/// path seeds through this one function so no second variant can drift.
#[inline]
pub fn path_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add(index as u64 * 7919)
}

/// A live bidirectional path instance.
pub struct Path {
    /// Data-direction link.
    pub fwd: Link,
    /// ACK-direction link.
    pub rev: Link,
}

impl Path {
    /// Instantiate from a config; `seed` feeds the two links' jitter/loss RNGs.
    pub fn new(cfg: &PathConfig, seed: u64) -> Self {
        Path {
            fwd: Link::new(cfg.fwd.clone(), seed.wrapping_mul(2).wrapping_add(1)),
            rev: Link::new(cfg.rev.clone(), seed.wrapping_mul(2).wrapping_add(2)),
        }
    }

    /// Give back both links' spare queue capacity (see
    /// `Link::release_buffers`): called once the connections riding the
    /// path have drained. Nothing observable changes.
    pub fn release_buffers(&mut self, now: Time) {
        self.fwd.release_buffers(now);
        self.rev.release_buffers(now);
    }

    /// Attach a telemetry sink to both directions; drops will be reported
    /// under path index `idx`.
    pub fn attach_telemetry(&mut self, tel: &telemetry::TelemetryHandle, idx: u16) {
        self.fwd.attach_telemetry(tel.clone(), idx, telemetry::LinkDir::Forward);
        self.rev.attach_telemetry(tel.clone(), idx, telemetry::LinkDir::Reverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_base_rtt() {
        assert_eq!(PathConfig::wifi(8.6).base_rtt(), Duration::from_millis(20));
        assert_eq!(PathConfig::lte(8.6).base_rtt(), Duration::from_millis(60));
    }

    #[test]
    fn queues_are_txqueuelen_deep() {
        // A 1000-packet txqueue never drops at the windows our endpoints
        // reach (receive window ≈ 362 segments), so inflight is bounded by
        // flow control, not loss — the paper's regime.
        let cfg = PathConfig::wifi(0.3);
        assert!(cfg.fwd.queue_limit_bytes >= 1_000_000);
        assert!(cfg.fwd.queue_limit_bytes / 1500 >= 724);
    }

    #[test]
    fn custom_path_uses_given_values() {
        let cfg = PathConfig::custom(5.0, Duration::from_millis(15), 10_000);
        assert_eq!(cfg.base_rtt(), Duration::from_millis(30));
        assert_eq!(cfg.fwd.rate_bps, 5_000_000);
        assert_eq!(cfg.fwd.queue_limit_bytes, 10_000);
    }
}
