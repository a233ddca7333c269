//! The DASH client player state machine.
//!
//! Reproduces the behaviour §2.2 describes: an *initial buffering* phase
//! that fills the playback buffer to its maximum, then a steady ON-OFF cycle
//! — pause while the buffer is full, resume one chunk-duration below the
//! cap — with *rebuffering* when the buffer runs dry. The OFF periods are
//! what idle MPTCP subflows long enough to trigger the CWND resets at the
//! heart of the paper.
//!
//! The player is a pure state machine (no simulator types beyond `Time`), so
//! its logic is tested exhaustively here; `DashApp` adapts it to the
//! testbed's [`mptcp::Application`] interface.

use simnet::Time;

use crate::abr::{select, BITRATE_LADDER_MBPS};

/// Playback buffer capacity in seconds of video: the 30 s buffer that
/// BBA-0's reservoir and cushion are fractions of.
pub(crate) const MAX_BUFFER_SECS: f64 = 30.0;
/// Buffer level at which playback starts (initially and after a stall).
const STARTUP_THRESHOLD_SECS: f64 = 10.0;

/// Player parameters. The player buffers up to 30 s of video, starts
/// playback at 10 s and picks rates with BBA-0 (a Netflix-like small-screen
/// profile scaled for simulation speed, documented in DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct PlayerConfig {
    /// Seconds of video per chunk (the paper encodes 5 s chunks).
    pub chunk_secs: f64,
    /// Total video duration in seconds.
    pub video_secs: f64,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig { chunk_secs: 5.0, video_secs: 180.0 }
    }
}

/// One downloaded chunk.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRecord {
    /// Representation chosen.
    pub repr: usize,
    /// Bytes downloaded.
    pub bytes: u64,
    /// Request time.
    pub started: Time,
    /// Completion time.
    pub finished: Time,
}

impl ChunkRecord {
    /// Download throughput of this chunk in Mbps.
    pub fn throughput_mbps(&self) -> f64 {
        let secs = self.finished.since(self.started).as_secs_f64().max(1e-9);
        self.bytes as f64 * 8.0 / secs / 1e6
    }

    /// Encoded bit rate of the chosen representation.
    fn bitrate_mbps(&self) -> f64 {
        BITRATE_LADDER_MBPS[self.repr]
    }
}

/// What the player wants to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PlayerAction {
    /// Fetch the next chunk: `bytes` at representation `repr`.
    Request {
        /// Representation index.
        repr: usize,
        /// Chunk size in bytes.
        bytes: u64,
    },
    /// Pause (buffer full) until the given time, then ask again.
    WaitUntil(Time),
    /// All chunks fetched.
    Finished,
}

/// The player.
pub struct Player {
    cfg: PlayerConfig,
    chunks_total: u64,
    next_chunk: u64,
    /// Seconds of video buffered.
    buffer_secs: f64,
    /// Whether the video is currently playing (consuming buffer).
    playing: bool,
    /// Last time `buffer_secs` was brought up to date.
    last_update: Time,
    /// Pending request: (repr, bytes, started).
    outstanding: Option<(usize, u64, Time)>,
    /// Completed chunk log.
    pub history: Vec<ChunkRecord>,
    /// Number of playback stalls after startup.
    pub rebuffer_events: u64,
    /// Total seconds spent stalled (including initial buffering).
    pub stalled_secs: f64,
}

impl Player {
    /// A player for the configured video.
    pub fn new(cfg: PlayerConfig) -> Self {
        assert!(cfg.chunk_secs > 0.0 && cfg.video_secs >= cfg.chunk_secs);
        assert!(
            STARTUP_THRESHOLD_SECS <= MAX_BUFFER_SECS - cfg.chunk_secs,
            "startup threshold must leave room below the ON-OFF cap"
        );
        let chunks_total = (cfg.video_secs / cfg.chunk_secs).ceil() as u64;
        Player {
            cfg,
            chunks_total,
            next_chunk: 0,
            buffer_secs: 0.0,
            playing: false,
            last_update: Time::ZERO,
            outstanding: None,
            history: Vec::new(),
            rebuffer_events: 0,
            stalled_secs: 0.0,
        }
    }

    /// Mean encoded bit rate over downloaded chunks (the paper's headline
    /// streaming metric).
    pub fn avg_bitrate_mbps(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(ChunkRecord::bitrate_mbps).sum::<f64>() / self.history.len() as f64
    }

    /// Mean per-chunk download throughput.
    pub fn avg_throughput_mbps(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(ChunkRecord::throughput_mbps).sum::<f64>()
            / self.history.len() as f64
    }

    /// Bring buffer/stall accounting up to `now`.
    fn advance(&mut self, now: Time) {
        let dt = now.since(self.last_update).as_secs_f64();
        if self.playing {
            self.buffer_secs -= dt;
            if self.buffer_secs <= 0.0 {
                // Stall: the buffer ran dry dt + buffer ago.
                self.stalled_secs += -self.buffer_secs;
                self.buffer_secs = 0.0;
                self.playing = false;
                self.rebuffer_events += 1;
            }
        } else {
            self.stalled_secs += dt;
        }
        self.last_update = now;
    }

    /// Size in bytes of a chunk at representation `repr`.
    fn chunk_bytes(&self, repr: usize) -> u64 {
        (BITRATE_LADDER_MBPS[repr] * 1e6 * self.cfg.chunk_secs / 8.0) as u64
    }

    /// Start the session: request the first chunk.
    pub(crate) fn on_start(&mut self, now: Time) -> PlayerAction {
        self.last_update = now;
        self.decide(now)
    }

    /// The outstanding chunk finished downloading.
    pub(crate) fn on_chunk_complete(&mut self, now: Time) -> PlayerAction {
        self.advance(now);
        let (repr, bytes, started) =
            self.outstanding.take().expect("completion without outstanding request");
        self.history.push(ChunkRecord { repr, bytes, started, finished: now });
        self.next_chunk += 1;
        self.buffer_secs += self.cfg.chunk_secs;
        // Play once the startup threshold is buffered (or there is nothing
        // left to fetch).
        if !self.playing && (self.buffer_secs >= STARTUP_THRESHOLD_SECS || self.remaining() == 0) {
            self.playing = true;
        }
        self.decide(now)
    }

    /// A scheduled wake-up (end of an OFF period) fired.
    pub(crate) fn on_wake(&mut self, now: Time) -> PlayerAction {
        self.advance(now);
        self.decide(now)
    }

    fn remaining(&self) -> u64 {
        self.chunks_total - self.next_chunk
    }

    fn decide(&mut self, now: Time) -> PlayerAction {
        if self.next_chunk >= self.chunks_total {
            return PlayerAction::Finished;
        }
        debug_assert!(self.outstanding.is_none(), "one request at a time");
        // OFF period: wait until one chunk of room frees up.
        let room_needed = MAX_BUFFER_SECS - self.cfg.chunk_secs;
        if self.buffer_secs > room_needed && self.playing {
            // Floor the wait so float rounding can never produce a zero-length
            // sleep (which would spin the event loop at one instant).
            let wait = (self.buffer_secs - room_needed).max(0.01);
            return PlayerAction::WaitUntil(now + std::time::Duration::from_secs_f64(wait));
        }
        let prev = self.history.last().map_or(0, |c| c.repr);
        let repr = select(self.buffer_secs, prev);
        let bytes = self.chunk_bytes(repr);
        self.outstanding = Some((repr, bytes, now));
        PlayerAction::Request { repr, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg() -> PlayerConfig {
        PlayerConfig { video_secs: 60.0, ..PlayerConfig::default() }
    }

    /// Simulate downloads at a fixed network rate and return the player log.
    fn run_fixed_rate(cfg: PlayerConfig, mbps: f64) -> Player {
        let mut p = Player::new(cfg);
        let mut now = Time::ZERO;
        let mut action = p.on_start(now);
        loop {
            match action {
                PlayerAction::Request { bytes, .. } => {
                    let dl = Duration::from_secs_f64(bytes as f64 * 8.0 / (mbps * 1e6));
                    now += dl;
                    action = p.on_chunk_complete(now);
                }
                PlayerAction::WaitUntil(t) => {
                    assert!(t > now, "wake-up must be in the future");
                    now = t;
                    action = p.on_wake(now);
                }
                PlayerAction::Finished => return p,
            }
        }
    }

    #[test]
    fn downloads_whole_video() {
        let p = run_fixed_rate(cfg(), 5.0);
        assert_eq!(p.history.len(), 12); // 60 s / 5 s chunks

        // One request at a time, logged in the order they were made.
        assert!(p.history.windows(2).all(|w| w[0].finished <= w[1].started));
    }

    #[test]
    fn abr_converges_below_available_rate() {
        let p = run_fixed_rate(PlayerConfig { video_secs: 300.0, ..cfg() }, 5.0);
        // BBA equilibrium at 5 Mbps: a 760p base with occasional 1080p picks
        // when the buffer tops out — average tracks the available rate.
        let avg = p.avg_bitrate_mbps();
        assert!((3.2..=5.5).contains(&avg), "avg bitrate {avg} at 5 Mbps");
        assert_eq!(p.rebuffer_events, 0);
    }

    #[test]
    fn poor_network_sticks_to_low_rates() {
        let p = run_fixed_rate(PlayerConfig { video_secs: 300.0, ..cfg() }, 0.4);
        let avg = p.avg_bitrate_mbps();
        // Oscillates between 144p and 240p around the 0.4 Mbps equilibrium.
        assert!(avg < 0.65, "avg bitrate {avg} too high for 0.4 Mbps");
    }

    #[test]
    fn on_off_cycle_appears_at_high_bandwidth() {
        // At 50 Mbps the buffer fills far faster than it drains: the player
        // must enter OFF periods rather than request continuously.
        let mut p = Player::new(PlayerConfig { video_secs: 300.0, ..cfg() });
        let mut now = Time::ZERO;
        let mut waits = 0;
        let mut action = p.on_start(now);
        loop {
            match action {
                PlayerAction::Request { bytes, .. } => {
                    let dl = Duration::from_secs_f64(bytes as f64 * 8.0 / 50e6);
                    now += dl;
                    action = p.on_chunk_complete(now);
                }
                PlayerAction::WaitUntil(t) => {
                    waits += 1;
                    now = t;
                    action = p.on_wake(now);
                }
                PlayerAction::Finished => break,
            }
        }
        assert!(waits > 10, "expected ON-OFF cycling, saw {waits} waits");
    }

    #[test]
    fn buffer_never_exceeds_cap_by_more_than_one_chunk() {
        let mut p = Player::new(PlayerConfig { video_secs: 300.0, ..cfg() });
        let mut now = Time::ZERO;
        let mut action = p.on_start(now);
        loop {
            assert!(
                p.buffer_secs <= MAX_BUFFER_SECS + p.cfg.chunk_secs + 1e-6,
                "buffer overflow at {now}"
            );
            match action {
                PlayerAction::Request { bytes, .. } => {
                    now += Duration::from_secs_f64(bytes as f64 * 8.0 / 20e6);
                    action = p.on_chunk_complete(now);
                }
                PlayerAction::WaitUntil(t) => {
                    now = t;
                    action = p.on_wake(now);
                }
                PlayerAction::Finished => break,
            }
        }
    }

    #[test]
    fn rebuffering_counted_on_starvation() {
        // Startup at 10 s of buffer, then the network collapses far below
        // the lowest representation: the buffer must run dry.
        let mut p = Player::new(PlayerConfig { video_secs: 120.0, ..cfg() });
        let mut now = Time::ZERO;
        let mut action = p.on_start(now);
        let mut chunk = 0;
        loop {
            match action {
                PlayerAction::Request { bytes, .. } => {
                    chunk += 1;
                    // First two chunks fast (startup), then 30 s per chunk.
                    let rate = if chunk <= 2 { 50e6 } else { 0.04e6 };
                    now += Duration::from_secs_f64(bytes as f64 * 8.0 / rate);
                    action = p.on_chunk_complete(now);
                }
                PlayerAction::WaitUntil(t) => {
                    now = t;
                    action = p.on_wake(now);
                }
                PlayerAction::Finished => break,
            }
        }
        assert!(p.rebuffer_events > 0);
        assert!(p.stalled_secs > 10.0);
    }

    #[test]
    fn throughput_metric_sane() {
        let p = run_fixed_rate(cfg(), 2.0);
        let tp = p.avg_throughput_mbps();
        assert!((1.0..=2.2).contains(&tp), "avg throughput {tp}");
    }

    #[test]
    fn chunk_bytes_match_ladder() {
        let p = Player::new(cfg());
        // 1080p, 5 s: 8.47 Mbps · 5 s / 8 = 5.29 MB.
        assert_eq!(p.chunk_bytes(5), (8.47 * 1e6 * 5.0 / 8.0) as u64);
        assert!(p.chunk_bytes(0) < p.chunk_bytes(5));
    }
}
