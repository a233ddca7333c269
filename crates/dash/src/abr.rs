//! Adaptive bit-rate selection.
//!
//! The paper's client runs a "state-of-the-art" buffer-based ABR
//! (Huang et al., SIGCOMM 2014 \[12\]); this is that policy, BBA-0: a
//! reservoir + cushion map from buffer level to rate over the player's
//! 30 s buffer.
//!
//! Table 1's ladder is the paper's.

use crate::player::MAX_BUFFER_SECS;

/// Table 1: bit rates (Mbps) for each representation, 144p → 1080p.
pub const BITRATE_LADDER_MBPS: [f64; 6] = [0.26, 0.64, 1.00, 1.60, 4.14, 8.47];

/// Resolution labels matching [`BITRATE_LADDER_MBPS`].
pub const RESOLUTIONS: [&str; 6] = ["144p", "240p", "360p", "480p", "760p", "1080p"];

/// The ideal average bit rate for a given aggregate bandwidth: the paper
/// defines it as min(aggregate bandwidth, highest-representation bit rate)
/// (§3.1's Fig 2 definition).
pub fn ideal_avg_bitrate_mbps(aggregate_mbps: f64) -> f64 {
    aggregate_mbps.min(*BITRATE_LADDER_MBPS.last().expect("ladder non-empty"))
}

/// Largest representation whose bit rate fits within `budget_mbps`
/// (at least the lowest).
fn highest_fitting(budget_mbps: f64) -> usize {
    BITRATE_LADDER_MBPS.iter().rposition(|&r| r <= budget_mbps).unwrap_or(0)
}

/// Buffer-based parameters (fractions of the maximum buffer). The ramp must
/// end below the player's ON-OFF operating point (max − one chunk), i.e. an
/// upper reservoir, otherwise steady state can never reach R_max — BBA's
/// map reaches R_max at 90% of the cushion for the same reason.
const RESERVOIR_FRAC: f64 = 0.2;
const CUSHION_FRAC: f64 = 0.55;

/// Pick the representation for the next chunk with BBA-0, given the current
/// playback buffer level `buffer_secs` and the previous chunk's
/// representation `prev` (for the hysteresis).
pub fn select(buffer_secs: f64, prev: usize) -> usize {
    let top = BITRATE_LADDER_MBPS.len() - 1;
    let prev = prev.min(top);
    let reservoir = RESERVOIR_FRAC * MAX_BUFFER_SECS;
    let cushion = CUSHION_FRAC * MAX_BUFFER_SECS;
    let r_min = BITRATE_LADDER_MBPS[0];
    let r_max = *BITRATE_LADDER_MBPS.last().expect("ladder non-empty");
    // BBA-0 (Huang et al. [12]): R_min below the reservoir, R_max above
    // reservoir+cushion, and inside the ramp a linear rate map f(B) with
    // hysteresis — keep the previous rate unless f(B) crosses the next rate
    // up or falls below the current one.
    let pick = if buffer_secs <= reservoir {
        0
    } else if buffer_secs >= reservoir + cushion {
        top
    } else {
        let f = r_min + (r_max - r_min) * (buffer_secs - reservoir) / cushion;
        let rate_up = BITRATE_LADDER_MBPS.get(prev + 1).copied().unwrap_or(f64::INFINITY);
        if f >= rate_up || f < BITRATE_LADDER_MBPS[prev] {
            highest_fitting(f)
        } else {
            prev
        }
    };
    // Upward moves are smoothed to one level per chunk (as deployed players
    // do); downward moves may jump to stay stall-safe.
    pick.min(prev + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_table1() {
        assert_eq!(BITRATE_LADDER_MBPS.len(), 6);
        assert_eq!(RESOLUTIONS.len(), 6);
        assert_eq!(BITRATE_LADDER_MBPS[0], 0.26);
        assert_eq!(BITRATE_LADDER_MBPS[5], 8.47);
        // Strictly increasing.
        for w in BITRATE_LADDER_MBPS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn ideal_bitrate_definition() {
        // The paper's 8.6+8.6 example: ideal is the 1080p rate.
        assert_eq!(ideal_avg_bitrate_mbps(17.2), 8.47);
        // 0.3+0.7 = 1.0: ideal is the aggregate itself.
        assert_eq!(ideal_avg_bitrate_mbps(1.0), 1.0);
    }

    #[test]
    fn highest_fitting_basics() {
        assert_eq!(highest_fitting(0.0), 0);
        assert_eq!(highest_fitting(0.26), 0);
        assert_eq!(highest_fitting(0.9), 1);
        assert_eq!(highest_fitting(1.0), 2);
        assert_eq!(highest_fitting(100.0), 5);
    }

    #[test]
    fn buffer_based_monotone_in_buffer_from_low_prev() {
        let mut last = 0;
        for b in 0..=30 {
            let r = select(f64::from(b), last);
            assert!(r >= last, "ABR regressed at buffer={b}");
            last = r;
        }
        // The ratchet walked all the way up by the end.
        assert_eq!(last, 5);
        // Empty buffer → lowest; full buffer from one level below → highest.
        assert_eq!(select(0.0, 0), 0);
        assert_eq!(select(30.0, 4), 5);
        // Step-up smoothing: a cold player cannot jump straight to 1080p.
        assert_eq!(select(30.0, 0), 1);
    }

    #[test]
    fn buffer_based_reservoir_forces_lowest() {
        // Below the reservoir (6 s of a 30 s buffer) always the lowest rate,
        // regardless of history.
        assert_eq!(select(3.0, 5), 0);
    }

    #[test]
    fn buffer_based_hysteresis_holds_previous() {
        // Ramp: f(B) = 0.26 + 8.21·(B−6)/16.5. At B=8, f ≈ 1.26: between
        // 360p (1.0) and 480p (1.6) → a player already at 360p stays there.
        assert_eq!(select(8.0, 2), 2);
        // ...but a player at 480p steps down to what the map supports.
        assert_eq!(select(8.0, 3), 2);
        // ...and a player at 240p steps up since f crossed 1.0.
        assert_eq!(select(8.0, 1), 2);
    }

    #[test]
    fn buffer_based_ramp_ends_before_buffer_cap() {
        // R_max must already be selected at the ON-OFF operating point
        // (max buffer − one chunk), or steady state can never reach 1080p.
        assert_eq!(select(25.0, 4), 5);
    }
}
