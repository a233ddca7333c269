//! Measurement hooks: everything the experiments need to regenerate the
//! paper's figures is collected here, keyed so a single run can feed several
//! figures (e.g. one streaming run yields bitrate, traffic split, CWND
//! traces, IW resets and OOO delay at once).

use std::time::Duration;

use metrics::TimeSeries;
use simnet::Time;

use crate::persub::PerSub;
use crate::segment::{ConnId, ReqId, SubId};

/// Sampling period of the periodic CWND / send-buffer traces.
pub(crate) const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// What to collect during a run. Per-segment OOO delays are cheap; the
/// periodic traces cost one event per 100 ms of simulated time, and stop
/// once nothing else is pending (the session is over).
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Collect per-segment out-of-order delays (Figs 13, 14, 21, 23).
    pub ooo_delays: bool,
    /// Sample per-subflow CWND (Figs 11, 12).
    pub cwnd_traces: bool,
    /// Sample per-subflow send-buffer occupancy (Fig 3).
    pub sndbuf_traces: bool,
    /// Keep OOO delays in per-connection pools instead of one shared pool.
    /// Sharded sweeps need this: a per-connection stream is invariant to
    /// how other connections interleave, so shard and monolith runs produce
    /// identical pools per connection even though the global arrival order
    /// differs.
    ///
    /// Exactly one of the two pools is filled: [`Recorder::ooo_delays_us`]
    /// when this is off, [`Recorder::ooo_delays_us_per_conn`] when it is on
    /// (a population run holds millions of samples; keeping each twice was
    /// a tenth of its peak memory). Both are [`OooPool`]s, so the two differ
    /// only in how samples are keyed. [`Recorder::take_ooo_secs`] hands over
    /// whichever pool the run filled; a reader of the raw fields must pick
    /// the one this flag selects.
    pub ooo_per_conn: bool,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ooo_delays: true,
            cwnd_traces: false,
            sndbuf_traces: false,
            ooo_per_conn: false,
        }
    }
}

/// Lifecycle record of one application request (HTTP GET → response).
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Connection the request rode on (a [`ConnId`]; 32 bits hold any
    /// population and a sweep keeps one record per request).
    pub conn: u32,
    /// Response payload size the application asked for, in bytes.
    pub bytes: u64,
    /// Response size in segments.
    pub segs: u32,
    /// First dsn of the response (set when the server writes it).
    pub first_dsn: u64,
    /// Last dsn of the response, inclusive.
    pub last_dsn: u64,
    /// When the client issued the GET.
    pub issued: Time,
    /// When the GET reached the server.
    pub server_arrival: Option<Time>,
    /// When the last byte was delivered in order at the client.
    pub completed: Option<Time>,
    /// Per subflow: arrival time of the last data segment of this response
    /// seen on that subflow (Fig 5's "time difference of last packets").
    pub last_arrival_per_sub: PerSub<Option<Time>>,
    /// Per subflow: data segments of this response that arrived on it.
    pub arrivals_per_sub: PerSub<u64>,
}

impl RequestRecord {
    /// Completion time (download duration), if finished.
    pub fn completion_time(&self) -> Option<Duration> {
        self.completed.map(|c| c.since(self.issued))
    }

    /// Goodput of this request in Mbps, if finished.
    pub fn throughput_mbps(&self) -> Option<f64> {
        self.completion_time().map(|d| {
            let secs = d.as_secs_f64().max(1e-9);
            self.bytes as f64 * 8.0 / secs / 1e6
        })
    }

    /// Gap between the last packets over the two first subflows
    /// (Fig 5), if both carried data.
    pub fn last_packet_gap(&self) -> Option<Duration> {
        match (self.last_arrival_per_sub.first()?, self.last_arrival_per_sub.get(1)?) {
            (Some(a), Some(b)) => Some(if a > b { a.since(*b) } else { b.since(*a) }),
            _ => None,
        }
    }
}

/// Bit 63 of an [`OooPool`] entry: the entry is a run of zero-delay
/// samples, its length in the low bits. A delay derived from [`Time`] is
/// below 2^55 µs, so no `u64` sample has this bit; in an `f64` it is the
/// sign bit, and no delay is negative.
const ZERO_RUN: u64 = 1 << 63;

/// Fewest entry slots a full first segment grows by.
const MIN_GROWTH: usize = 8;

/// Entry slots per segment. The first segment grows to it; past it a full
/// pool opens another segment, so a filled entry is never moved.
const SEGMENT: usize = 8192;

/// What an [`OooPool`] holds: the recorder's delays in µs (`u64`) or the
/// seconds a run reports (`f64`). Either is 64 bits whose top bit no real
/// delay sets, so a zero run is the same bits in both.
pub trait OooSample: Copy + PartialEq + std::fmt::Debug + 'static {
    /// The in-order sample a zero run yields, by reference.
    fn zero() -> &'static Self;
    /// The entry's bits.
    fn to_bits(self) -> u64;
    /// The entry with these bits.
    fn from_bits(bits: u64) -> Self;
}

impl OooSample for u64 {
    fn zero() -> &'static u64 {
        &0
    }
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl OooSample for f64 {
    fn zero() -> &'static f64 {
        &0.0
    }
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

/// Out-of-order delays in delivery order — one connection's, or a run's
/// shared pool — with each run of in-order deliveries (delay 0) stored as
/// one entry, in segments that never move.
///
/// Most of a population's samples are 0, in long runs: `browse_sharded`'s
/// 3.6M samples are 58 % zeros in 136k runs, so a raw `Vec<u64>` spent most
/// of a unit's report on zeros (DESIGN.md §9). A 600 s streaming run keeps
/// 418k samples in one pool; grown as one `Vec` its last doubling copied
/// 2 MB into a fresh 4 MB block and left the old one resident (§9). The
/// pool reads as the raw sequence — [`OooPool::len`] counts samples and
/// iteration yields every one as `&S` — so a digest folded over it is the
/// raw pool's.
///
/// The struct is one `Vec` and a pointer, 32 B: a population keeps one per
/// connection, and the segments past the first — which only a shared pool
/// reaches — are boxed away with the sample count they need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OooPool<S = u64> {
    /// The first segment: nonzero samples as themselves, zero runs as
    /// `ZERO_RUN | length`. All a per-connection pool ever needs.
    first: Vec<S>,
    /// Past the first segment: the further segments and the sample count.
    more: Option<Box<More<S>>>,
}

/// The segments of an [`OooPool`] after its first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct More<S> {
    /// `SEGMENT` slots each, opened as the last fills; never empty.
    segments: Vec<Vec<S>>,
    /// Samples held by the whole pool.
    len: usize,
}

impl<S> Default for OooPool<S> {
    fn default() -> Self {
        OooPool { first: Vec::new(), more: None }
    }
}

impl<S: OooSample> OooPool<S> {
    /// Append one sample. A full first segment grows by a quarter of its
    /// capacity, up to `SEGMENT`: `Vec` doubling left a quarter of a
    /// population's pools empty, and a coupled sweep keeps every engine's
    /// pools resident (DESIGN.md §9). Past it a new segment opens.
    pub fn push(&mut self, sample: S) {
        let bits = sample.to_bits();
        debug_assert_eq!(bits & ZERO_RUN, 0, "an OOO delay of {sample:?} is not from a Time");
        if let Some(more) = &mut self.more {
            more.len += 1;
        }
        let tail =
            self.more.as_mut().and_then(|m| m.segments.last_mut()).unwrap_or(&mut self.first);
        if bits == 0 {
            if let Some(last) = tail.last_mut().filter(|e| e.to_bits() & ZERO_RUN != 0) {
                *last = S::from_bits(last.to_bits() + 1);
                return;
            }
        }
        let entry = if bits == 0 { S::from_bits(ZERO_RUN | 1) } else { sample };
        if tail.len() == tail.capacity() {
            if tail.capacity() >= SEGMENT {
                let mut segment = Vec::with_capacity(SEGMENT);
                segment.push(entry);
                match &mut self.more {
                    Some(more) => more.segments.push(segment),
                    None => {
                        let len = samples(&self.first) + 1;
                        self.more = Some(Box::new(More { segments: vec![segment], len }));
                    }
                }
                return;
            }
            let growth = (tail.capacity() / 4).max(MIN_GROWTH);
            tail.reserve_exact(growth.min(SEGMENT - tail.capacity()));
        }
        tail.push(entry);
    }

    /// Samples held. Counted over the entries while the pool is one
    /// segment (at most `SEGMENT` of them), kept once it is more.
    pub fn len(&self) -> usize {
        self.more.as_ref().map_or_else(|| samples(&self.first), |m| m.len)
    }

    /// True when no sample is held.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Entries stored: one per nonzero sample and one per zero run.
    pub fn entries(&self) -> usize {
        self.segments().map(Vec::len).sum()
    }

    /// Entry slots allocated.
    pub fn capacity(&self) -> usize {
        self.segments().map(Vec::capacity).sum()
    }

    /// The samples in delivery order.
    pub fn iter(&self) -> OooIter<'_, S> {
        let rest = self.more.as_ref().map_or(&[][..], |m| &m.segments);
        OooIter { entries: self.first.iter(), rest: rest.iter(), zeros: 0, left: self.len() }
    }

    /// The samples as one raw vector (a copy).
    pub fn to_vec(&self) -> Vec<S> {
        self.iter().copied().collect()
    }

    /// The pool at capacity == entries. Only the last segment can have
    /// slack; if it has, it is copied into a fresh exact-size allocation and
    /// the original freed, not shrunk in place (`sharding::extract_reports`
    /// says why).
    pub fn exact(mut self) -> OooPool<S> {
        let tail =
            self.more.as_mut().and_then(|m| m.segments.last_mut()).unwrap_or(&mut self.first);
        if tail.capacity() != tail.len() {
            *tail = tail.to_vec();
        }
        self
    }

    fn segments(&self) -> impl Iterator<Item = &Vec<S>> {
        std::iter::once(&self.first).chain(self.more.iter().flat_map(|m| &m.segments))
    }
}

/// Samples held by a segment's entries.
fn samples<S: OooSample>(segment: &[S]) -> usize {
    let run = |bits: u64| if bits & ZERO_RUN == 0 { 1 } else { (bits & !ZERO_RUN) as usize };
    segment.iter().map(|e| run(e.to_bits())).sum()
}

impl OooPool<u64> {
    /// The pool in seconds, each segment converted in place: `u64` and
    /// `f64` have one size and alignment, so every collect reuses its
    /// segment's allocation instead of holding a copy beside it (a 600 s
    /// streaming run's samples are most of its peak memory, DESIGN.md §9).
    /// A zero run keeps its bits.
    pub fn into_secs(self) -> OooPool<f64> {
        fn secs(segment: Vec<u64>) -> Vec<f64> {
            segment
                .into_iter()
                .map(|e| if e & ZERO_RUN == 0 { e as f64 / 1e6 } else { f64::from_bits(e) })
                .collect()
        }
        OooPool {
            first: secs(self.first),
            more: self.more.map(|m| {
                Box::new(More { segments: m.segments.into_iter().map(secs).collect(), len: m.len })
            }),
        }
    }
}

impl<'a, S: OooSample> IntoIterator for &'a OooPool<S> {
    type Item = &'a S;
    type IntoIter = OooIter<'a, S>;

    fn into_iter(self) -> OooIter<'a, S> {
        self.iter()
    }
}

/// The samples of an [`OooPool`] in delivery order.
#[derive(Debug)]
pub struct OooIter<'a, S = u64> {
    /// The current segment's entries still to read.
    entries: std::slice::Iter<'a, S>,
    /// The segments after it.
    rest: std::slice::Iter<'a, Vec<S>>,
    /// Zeros still to yield from the current run.
    zeros: u64,
    /// Samples still to yield.
    left: usize,
}

impl<'a, S: OooSample> Iterator for OooIter<'a, S> {
    type Item = &'a S;

    fn next(&mut self) -> Option<&'a S> {
        if self.zeros == 0 {
            let e = loop {
                match self.entries.next() {
                    Some(e) => break e,
                    None => self.entries = self.rest.next()?.iter(),
                }
            };
            if e.to_bits() & ZERO_RUN == 0 {
                self.left -= 1;
                return Some(e);
            }
            self.zeros = e.to_bits() & !ZERO_RUN;
        }
        self.zeros -= 1;
        self.left -= 1;
        Some(S::zero())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<S: OooSample> ExactSizeIterator for OooIter<'_, S> {}

/// All measurements of one testbed run. Its OOO delays land in one pool
/// type, [`OooPool`], whether pooled across connections or kept per
/// connection.
pub struct Recorder {
    /// Collection configuration.
    pub cfg: RecorderConfig,
    /// Request lifecycles, indexed by `ReqId`.
    pub requests: Vec<RequestRecord>,
    /// Out-of-order delays, microseconds, all connections pooled in arrival
    /// order. Empty when [`RecorderConfig::ooo_per_conn`] is set — the
    /// samples are in `ooo_delays_us_per_conn` then, and only there — and
    /// after [`Recorder::take_ooo_secs`].
    pub ooo_delays_us: OooPool,
    /// Out-of-order delays split per connection (only filled when
    /// [`RecorderConfig::ooo_per_conn`] is set; empty otherwise).
    pub ooo_delays_us_per_conn: Vec<OooPool>,
    /// CWND traces `[conn][sub]` in segments, seconds on the x axis.
    pub cwnd: Vec<Vec<TimeSeries>>,
    /// Send-buffer occupancy traces `[conn][sub]` in KB.
    pub sndbuf: Vec<Vec<TimeSeries>>,
}

impl Recorder {
    /// Recorder for connections with the given subflow counts.
    pub fn new(cfg: RecorderConfig, subflow_counts: &[usize]) -> Self {
        let mk = |on: bool| {
            if on {
                subflow_counts.iter().map(|&n| vec![TimeSeries::new(); n]).collect()
            } else {
                Vec::new()
            }
        };
        Recorder {
            cfg,
            // Not reserved: a caller that knows its request count reserves
            // it; a guess here was paid by every engine of a population
            // (DESIGN.md §9).
            requests: Vec::new(),
            ooo_delays_us: OooPool::default(),
            ooo_delays_us_per_conn: if cfg.ooo_delays && cfg.ooo_per_conn {
                vec![OooPool::default(); subflow_counts.len()]
            } else {
                Vec::new()
            },
            cwnd: mk(cfg.cwnd_traces),
            sndbuf: mk(cfg.sndbuf_traces),
        }
    }

    /// Register a freshly issued request; returns its id.
    pub fn new_request(
        &mut self,
        conn: ConnId,
        bytes: u64,
        segs: u64,
        issued: Time,
        n_subflows: usize,
    ) -> ReqId {
        let id = self.requests.len() as ReqId;
        let segs = u32::try_from(segs).expect("a response is under 2^32 segments");
        self.requests.push(RequestRecord {
            conn: u32::try_from(conn).expect("a run has under 2^32 connections"),
            bytes,
            segs,
            first_dsn: 0,
            last_dsn: 0,
            issued,
            server_arrival: None,
            completed: None,
            last_arrival_per_sub: PerSub::from_elem(None, n_subflows),
            arrivals_per_sub: PerSub::from_elem(0, n_subflows),
        });
        id
    }

    /// Note a data arrival belonging to request `req` on subflow `sub`.
    pub fn note_arrival(&mut self, req: ReqId, sub: SubId, now: Time) {
        let r = &mut self.requests[req as usize];
        r.last_arrival_per_sub[sub] = Some(now);
        r.arrivals_per_sub[sub] += 1;
    }

    /// Record one delivered segment's reordering delay on `conn`.
    pub fn note_ooo(&mut self, conn: ConnId, delay: Duration) {
        if self.cfg.ooo_delays {
            // Saturates below the zero-run marker.
            let us = delay.as_micros().min(u128::from(!ZERO_RUN)) as u64;
            if self.cfg.ooo_per_conn {
                self.ooo_delays_us_per_conn[conn].push(us);
            } else {
                self.ooo_delays_us.push(us);
            }
        }
    }

    /// Completed requests only, in issue order.
    pub fn completed_requests(&self) -> impl Iterator<Item = &RequestRecord> {
        self.requests.iter().filter(|r| r.completed.is_some())
    }

    /// OOO delays as seconds, for CDF construction, moved out of whichever
    /// pool the run filled: the shared pool in arrival order, or — with
    /// [`RecorderConfig::ooo_per_conn`] — the per-connection pools chained
    /// in connection order. The same sequence either way, and the pools are
    /// empty afterwards. A shared pool becomes the result in place
    /// ([`OooPool::into_secs`]).
    pub fn take_ooo_secs(&mut self) -> OooPool<f64> {
        let mut pool = std::mem::take(&mut self.ooo_delays_us);
        for conn in &mut self.ooo_delays_us_per_conn {
            std::mem::take(conn).iter().for_each(|&us| pool.push(us));
        }
        pool.into_secs()
    }

    /// [`Recorder::take_ooo_secs`] as a copy, leaving the pools in place.
    /// Kept only for the benchmark's traced runner (`benchmark/src/traced.rs`);
    /// every in-tree reader takes the pool instead.
    pub fn ooo_delays_secs(&self) -> OooPool<f64> {
        let mut pool = self.ooo_delays_us.clone();
        self.ooo_delays_us_per_conn.iter().flatten().for_each(|&us| pool.push(us));
        pool.into_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lifecycle_metrics() {
        let mut rec = Recorder::new(RecorderConfig::default(), &[2]);
        let id = rec.new_request(0, 1_000_000, 691, Time::from_secs(1), 2);
        rec.note_arrival(id, 0, Time::from_millis(1_500));
        rec.note_arrival(id, 1, Time::from_millis(2_200));
        rec.requests[id as usize].completed = Some(Time::from_secs(3));
        let r = &rec.requests[id as usize];
        assert_eq!(r.completion_time(), Some(Duration::from_secs(2)));
        // 1 MB over 2 s = 4 Mbps.
        assert!((r.throughput_mbps().unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(r.last_packet_gap(), Some(Duration::from_millis(700)));
        assert_eq!(rec.completed_requests().count(), 1);
    }

    #[test]
    fn gap_needs_both_subflows() {
        let mut rec = Recorder::new(RecorderConfig::default(), &[2]);
        let id = rec.new_request(0, 1000, 1, Time::ZERO, 2);
        rec.note_arrival(id, 0, Time::from_millis(10));
        assert_eq!(rec.requests[id as usize].last_packet_gap(), None);
    }

    #[test]
    fn ooo_collection_respects_flag() {
        let mut rec =
            Recorder::new(RecorderConfig { ooo_delays: false, ..RecorderConfig::default() }, &[1]);
        rec.note_ooo(0, Duration::from_millis(5));
        assert!(rec.ooo_delays_us.is_empty());

        let mut rec = Recorder::new(RecorderConfig::default(), &[1]);
        rec.note_ooo(0, Duration::from_millis(5));
        assert_eq!(rec.ooo_delays_secs().to_vec(), vec![0.005]);
        // Per-conn pools are off by default.
        assert!(rec.ooo_delays_us_per_conn.is_empty());
    }

    #[test]
    fn per_conn_ooo_pools() {
        let mut rec = Recorder::new(
            RecorderConfig { ooo_per_conn: true, ..RecorderConfig::default() },
            &[2, 2, 2],
        );
        rec.note_ooo(1, Duration::from_micros(10));
        rec.note_ooo(1, Duration::ZERO);
        rec.note_ooo(0, Duration::from_micros(20));
        rec.note_ooo(1, Duration::ZERO);
        rec.note_ooo(1, Duration::from_micros(30));
        // Per-conn pools see their own streams regardless of how other
        // connections interleave; the two in-order deliveries are one entry.
        let samples = |pool: &OooPool| pool.iter().copied().collect::<Vec<_>>();
        assert_eq!(samples(&rec.ooo_delays_us_per_conn[0]), vec![20]);
        assert_eq!(samples(&rec.ooo_delays_us_per_conn[1]), vec![10, 0, 0, 30]);
        assert_eq!(rec.ooo_delays_us_per_conn[1].entries(), 3);
        assert!(samples(&rec.ooo_delays_us_per_conn[2]).is_empty());
        // Exactly one pool is filled: no second push, no reservation.
        assert!(rec.ooo_delays_us.is_empty());
        assert_eq!(rec.ooo_delays_us.capacity(), 0);
        // ... and the reader serves it, chained in connection order, so a
        // per-connection run never reads as "no reordering".
        assert_eq!(rec.ooo_delays_secs().to_vec(), vec![20e-6, 10e-6, 0.0, 0.0, 30e-6]);

        // The shared pool is the mirror image.
        let mut rec = Recorder::new(RecorderConfig::default(), &[2, 2, 2]);
        rec.note_ooo(1, Duration::from_micros(10));
        rec.note_ooo(0, Duration::from_micros(20));
        assert_eq!(samples(&rec.ooo_delays_us), vec![10, 20]);
        assert!(rec.ooo_delays_us_per_conn.is_empty());
        assert_eq!(rec.ooo_delays_secs().to_vec(), vec![10e-6, 20e-6]);
    }

    #[test]
    fn take_ooo_secs_converts_every_segment_in_place() {
        // The grown first segment, a full second one and part of a third,
        // zero runs among the samples, and a delay that saturates.
        let mut rec = Recorder::new(RecorderConfig::default(), &[2]);
        for i in 0..3 * SEGMENT as u64 {
            let us = if i % 5 < 2 { 0 } else { i * i * 7 % 3_000_001 };
            rec.note_ooo(0, Duration::from_micros(us));
        }
        rec.note_ooo(0, Duration::MAX);
        fn slots<S>(p: &OooPool<S>) -> Vec<(usize, usize)> {
            let rest = &p.more.as_ref().expect("past the first segment").segments;
            let outer = (rest.as_ptr() as usize, rest.capacity());
            let segments = std::iter::once(&p.first).chain(rest);
            segments.map(|s| (s.as_ptr() as usize, s.capacity())).chain([outer]).collect()
        }
        let pool = &rec.ooo_delays_us;
        let further = pool.more.as_ref().map_or(0, |m| m.segments.len());
        assert_eq!((pool.first.capacity(), further), (SEGMENT, 2));
        let before = slots(pool);
        let copied = rec.ooo_delays_secs();
        let taken = rec.take_ooo_secs();
        // Every allocation is the result's: if std stops collecting in
        // place, this fails rather than a streaming run's memory doubling.
        assert_eq!(slots(&taken), before);
        assert_eq!(taken.len(), 3 * SEGMENT + 1);
        let bits = |p: &OooPool<f64>| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&taken), bits(&copied));
        assert_eq!(taken.iter().last(), Some(&(!ZERO_RUN as f64 / 1e6)));
        assert!(rec.ooo_delays_us.is_empty());
        assert!(rec.take_ooo_secs().is_empty());

        // Per-connection pools: the same connection-ordered chain as the
        // copy, every pool empty after, and the recorder still records.
        let mut rec = Recorder::new(
            RecorderConfig { ooo_per_conn: true, ..RecorderConfig::default() },
            &[2, 2, 2],
        );
        rec.note_ooo(1, Duration::from_micros(10));
        rec.note_ooo(0, Duration::from_micros(20));
        rec.note_ooo(1, Duration::from_micros(30));
        let copied = rec.ooo_delays_secs();
        let taken = rec.take_ooo_secs();
        assert_eq!(taken.to_vec(), vec![20e-6, 10e-6, 30e-6]);
        assert_eq!(taken, copied);
        assert!(rec.ooo_delays_us_per_conn.iter().all(OooPool::is_empty));
        rec.note_ooo(2, Duration::from_micros(5));
        assert_eq!(rec.take_ooo_secs().to_vec(), vec![5e-6]);
    }

    #[test]
    fn request_record_is_smaller_than_the_two_vec_layout() {
        // The two per-subflow `Vec`s cost 128 B of struct plus 48 + 32 B of
        // malloc chunks per request. Inline, with 8-byte optional timestamps
        // and 32-bit `conn`/`segs`, the record is 104 B and nothing on the
        // heap (a wider container raised `browse_sharded` RSS, DESIGN.md §9).
        assert!(std::mem::size_of::<RequestRecord>() <= 104);
    }

    #[test]
    fn an_ooo_pool_is_one_vec_and_a_pointer() {
        // A population keeps one pool per connection: the segments past the
        // first are boxed, so the pool costs what a single `Vec` and a
        // sample count did (56 B with the segment list inline).
        assert_eq!(std::mem::size_of::<OooPool>(), 32);
        assert_eq!(std::mem::size_of::<OooPool<f64>>(), 32);
    }

    #[test]
    fn engine_records_are_at_their_information_size() {
        use std::mem::size_of;
        // Each failure message gives the width before these were slimmed.
        let sizes = [
            size_of::<crate::segment::InflightSeg>(),
            size_of::<crate::sim::Data>(),
            size_of::<(Time, u64, crate::sim::Data)>(),
            size_of::<tcp_model::RttEstimator>(),
            size_of::<crate::Subflow>(),
            size_of::<crate::sim::ConnState>(),
        ];
        println!(
            "records: inflight_seg={} fwd_payload={} fwd_slot={} rtt={} subflow={} conn_state={}",
            sizes[0], sizes[1], sizes[2], sizes[3], sizes[4], sizes[5]
        );
        assert_eq!(sizes[0], 16, "InflightSeg was 32 B with its ssn and Karn mark");
        assert_eq!(sizes[1], 24, "the forward payload was a 32 B enum with the ACK");
        assert_eq!(sizes[2], 40, "a forward delivery slot was 48 B");
        assert_eq!(sizes[3], 40, "RttEstimator was 120 B in Duration fields, 56 with RTO bounds");
        assert_eq!(
            sizes[4], 232,
            "Subflow was 376 B, 264 with per-instance TCP constants, 240 with a queue sample"
        );
        assert_eq!(
            sizes[5], 944,
            "ConnState was 1288 B, 1064 with per-instance TCP constants, 968 with a send-buffer \
             field, 960 with a queue sample per subflow"
        );
    }

    #[test]
    fn trace_matrices_sized_by_flags() {
        let rec = Recorder::new(
            RecorderConfig { cwnd_traces: true, ..RecorderConfig::default() },
            &[2, 3],
        );
        assert_eq!(rec.cwnd.len(), 2);
        assert_eq!(rec.cwnd[1].len(), 3);
        assert!(rec.sndbuf.is_empty());
        // Request records are the caller's to reserve, if it knows the count.
        assert_eq!(rec.requests.capacity(), 0);
    }
}
