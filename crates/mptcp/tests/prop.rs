//! Property tests for the MPTCP receiver and coupled congestion control:
//! reordering invariants must hold for *any* arrival interleaving. Also
//! the per-subflow container and the run-length OOO pool against their
//! `Vec` models, and the reorder ring against its `BTreeMap` model.
//!
//! Run under `testkit::prop`; replay a failure with `TESTKIT_SEED=<n>`.

use std::collections::BTreeMap;
use std::time::Duration;

use mptcp::{
    ca_increase, CcKind, CcView, Delivered, OooPool, PerSub, Receiver, ReorderRing, RxSignal,
    Segment,
};
use simnet::Time;
use testkit::prop::{any_u64, bools, check, choice, vec_of};

/// One arrival through [`Receiver::on_segment_into`], with the segments it
/// made deliverable.
fn on_segment(
    rx: &mut Receiver,
    now: Time,
    sub: usize,
    seg: Segment,
) -> (RxSignal, Vec<Delivered>) {
    let mut delivered = Vec::new();
    let sig = rx.on_segment_into(now, sub, seg, &mut delivered);
    (sig, delivered)
}

/// Split a dsn stream across two subflows with an arbitrary interleaving
/// (FIFO within each subflow, as the links guarantee): the receiver must
/// deliver every dsn exactly once, in order, and end with empty buffers.
#[test]
fn any_interleaving_delivers_in_order() {
    check(256, (vec_of(bools(), 1..120), any_u64()), |(assignment, order_seed)| {
        let n = assignment.len() as u64;
        // Build per-subflow FIFO queues of (dsn, ssn).
        let mut queues: [Vec<Segment>; 2] = [Vec::new(), Vec::new()];
        for (dsn, &to_fast) in assignment.iter().enumerate() {
            let sub = usize::from(to_fast);
            let ssn = queues[sub].len() as u64;
            queues[sub].push(Segment { dsn: dsn as u64, ssn });
        }
        // Interleave deterministically from the seed.
        let mut rx = Receiver::new(2, 10_000);
        let mut idx = [0usize, 0usize];
        let mut state = order_seed;
        let mut t = 0u64;
        let mut delivered = Vec::new();
        while idx[0] < queues[0].len() || idx[1] < queues[1].len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = if idx[0] >= queues[0].len() {
                1
            } else if idx[1] >= queues[1].len() {
                0
            } else {
                (state >> 33) as usize & 1
            };
            let seg = queues[pick][idx[pick]];
            idx[pick] += 1;
            t += 1;
            let (_, out) = on_segment(&mut rx, Time::from_millis(t), pick, seg);
            for d in out {
                delivered.push(d.dsn);
            }
        }
        // Exactly once, in order, all of them.
        assert_eq!(delivered.len() as u64, n);
        for (i, &dsn) in delivered.iter().enumerate() {
            assert_eq!(dsn, i as u64);
        }
        assert_eq!(rx.meta_next(), n);
        assert_eq!(rx.rwnd_free(), 10_000);
        assert_eq!(rx.stats().duplicate_segs, 0);
    });
}

/// Re-delivering any prefix of segments (duplicates) never double
/// delivers and never regresses the cumulative state.
#[test]
fn duplicates_are_idempotent() {
    check(256, (1u64..60, 1u64..5), |(n, dup_every)| {
        let mut rx = Receiver::new(1, 10_000);
        let mut total = 0u64;
        for i in 0..n {
            let seg = Segment { dsn: i, ssn: i };
            let (_, out) = on_segment(&mut rx, Time::from_millis(i), 0, seg);
            total += out.len() as u64;
            if i % dup_every == 0 {
                let dups = rx.stats().duplicate_segs;
                let (_, out) = on_segment(&mut rx, Time::from_millis(i), 0, seg);
                assert_eq!(rx.stats().duplicate_segs, dups + 1);
                total += out.len() as u64;
            }
        }
        assert_eq!(total, n);
        assert_eq!(rx.meta_next(), n);
    });
}

/// Coupled increases stay within (0, Reno] for sane inputs, for every
/// controller — the RFC 6356 "do no harm" bound.
#[test]
fn ca_increase_bounded_by_reno() {
    check(
        256,
        (vec_of(1.0f64..500.0, 1..4), vec_of(0.005f64..2.0, 1..4), 0u8..=255),
        |(cwnds, rtts, idx_seed)| {
            let n = cwnds.len().min(rtts.len());
            let views: Vec<CcView> =
                (0..n).map(|i| CcView { cwnd: cwnds[i], srtt: rtts[i] }).collect();
            let idx = usize::from(idx_seed) % n;
            let reno = 1.0 / views[idx].cwnd;
            for kind in [CcKind::Reno, CcKind::Lia] {
                let inc = ca_increase(kind, &views, idx);
                assert!(inc > 0.0, "{kind:?} non-positive: {inc}");
                assert!(inc <= reno + 1e-9, "{kind:?} beats Reno: {inc} > {reno}");
            }
            // OLIA's α can exceed Reno transiently but must stay finite and
            // non-negative overall in our formulation.
            let olia = ca_increase(CcKind::Olia, &views, idx);
            assert!(olia.is_finite());
        },
    );
}

/// The out-of-order delay of a segment never exceeds the span between
/// the first buffered arrival and final delivery.
#[test]
fn ooo_delay_bounded_by_blocking_span() {
    check(256, 1u64..5_000, |gap_ms| {
        let mut rx = Receiver::new(2, 10_000);
        // dsn 1 arrives at t=0 on subflow 1, dsn 0 arrives gap later.
        on_segment(&mut rx, Time::ZERO, 1, Segment { dsn: 1, ssn: 0 });
        let (_, out) =
            on_segment(&mut rx, Time::from_millis(gap_ms), 0, Segment { dsn: 0, ssn: 0 });
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].ooo_delay, Duration::from_millis(gap_ms));
    });
}

/// `PerSub` is a `Vec` to every reader: push, index (read and write), both
/// iteration forms, clone and equality agree with the model at every
/// length 0..=6 — below, at and past the two-entry inline boundary.
#[test]
fn persub_matches_a_vec_model() {
    check(256, (vec_of(any_u64(), 0..7), any_u64()), |(model, poke)| {
        let mut v = PerSub::new();
        for (i, &x) in model.iter().enumerate() {
            assert_eq!(v.len(), i);
            v.push(x);
            assert_eq!(v[i], x);
        }
        assert_eq!(&*v, model.as_slice());
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), model);
        let mut by_ref = Vec::new();
        for x in &v {
            by_ref.push(*x);
        }
        assert_eq!(by_ref, model);
        assert_eq!(model.iter().copied().collect::<PerSub<_>>(), v);
        assert_eq!(format!("{v:?}"), format!("{model:?}"));

        // A clone is equal and independent; a write through the index (and
        // through `&mut` iteration) lands where the model's does.
        let before = v.clone();
        assert_eq!(before, v);
        let mut model = model;
        if !model.is_empty() {
            let at = (poke % model.len() as u64) as usize;
            model[at] ^= 1;
            v[at] ^= 1;
            assert_ne!(before, v);
            assert_eq!(before[at] ^ 1, v[at]);
        }
        for x in &mut v {
            *x ^= poke;
        }
        model.iter_mut().for_each(|x| *x ^= poke);
        assert_eq!(&*v, model.as_slice());

        // Equality is by contents: one entry more or fewer differs, also
        // across the spill boundary.
        let mut longer = v.clone();
        longer.push(poke);
        assert_ne!(longer, v);
        assert_eq!(&*PerSub::from_elem(poke, model.len()), vec![poke; model.len()].as_slice());
    });
}

/// `OooPool` is a `Vec<u64>` of samples to every reader, whatever the mix of
/// zero runs: iteration order (both forms), `len`, clone equality and the
/// exact-size copy agree with the model, and it stores one entry per
/// nonzero sample and per zero run, never more than the samples. Runs are
/// drawn long and short; each case is mixed, all zeros or zero-free, and
/// may be empty.
#[test]
fn ooo_pool_matches_a_vec_model() {
    let runs = choice(&[0usize, 1, 2, 5, 40, 700]);
    check(256, (0u8..3, vec_of((runs, 1u64..1 << 55), 0..24)), |(mode, parts)| {
        let mut model = Vec::new();
        for &(zeros, us) in &parts {
            if mode != 2 {
                model.extend(std::iter::repeat_n(0, zeros));
            }
            if mode != 1 {
                model.push(us);
            }
        }
        let mut pool = OooPool::default();
        for (i, &us) in model.iter().enumerate() {
            assert_eq!(pool.len(), i);
            pool.push(us);
        }
        assert_eq!(pool.len(), model.len());
        assert_eq!(pool.is_empty(), model.is_empty());
        assert_eq!(pool.iter().len(), model.len());
        assert_eq!(pool.iter().copied().collect::<Vec<_>>(), model);
        let mut by_ref = Vec::new();
        for &us in &pool {
            by_ref.push(us);
        }
        assert_eq!(by_ref, model);

        let zero_runs =
            model.iter().enumerate().filter(|&(i, &us)| us == 0 && (i == 0 || model[i - 1] != 0));
        let nonzero = model.iter().filter(|&&us| us != 0).count();
        assert_eq!(pool.entries(), nonzero + zero_runs.count());
        assert!(pool.entries() <= pool.len());
        assert!(pool.capacity() >= pool.entries());

        let copy = pool.clone();
        assert_eq!(copy, pool);
        let exact = pool.exact();
        assert_eq!(exact.capacity(), exact.entries());
        assert_eq!(exact, copy);
        assert_eq!(exact.iter().copied().collect::<Vec<_>>(), model);
    });
}

/// `ReorderRing` agrees with a `BTreeMap` keyed by absolute position under
/// any mix of inserts (duplicates included), head takes and in-order
/// advances with their drain: `insert`'s duplicate flag, every `take_head`
/// and `len` match the model, and a duplicate keeps the first arrival.
#[test]
fn reorder_ring_matches_a_btreemap_model() {
    check(256, vec_of((0u8..3, 0u64..12), 1..200), |ops| {
        let mut ring = ReorderRing::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next = 0u64;
        for (step, &(op, offset)) in ops.iter().enumerate() {
            let v = step as u64;
            match op {
                0 => {
                    let fresh = !model.contains_key(&(next + offset));
                    model.entry(next + offset).or_insert(v);
                    assert_eq!(ring.insert(offset, v), fresh, "step {step}: insert {offset}");
                }
                1 => {
                    let want = model.remove(&next);
                    assert_eq!(ring.take_head(), want, "step {step}: take_head");
                    next += u64::from(want.is_some());
                }
                _ if !model.contains_key(&next) => {
                    // An in-order arrival that was never buffered, then the
                    // drain it unblocks.
                    ring.advance_empty_head();
                    next += 1;
                    while let Some(got) = ring.take_head() {
                        assert_eq!(Some(got), model.remove(&next), "step {step}: drain");
                        next += 1;
                    }
                    assert!(!model.contains_key(&next), "step {step}: drain stopped early");
                }
                _ => {}
            }
            assert_eq!(ring.len(), model.len() as u64, "step {step}: len");
            assert_eq!(ring.is_empty(), model.is_empty());
        }
    });
}
