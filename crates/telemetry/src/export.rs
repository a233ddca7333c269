//! Deterministic trace exporter: JSONL, one event per line.
//!
//! Determinism contract: the output is a pure function of the event
//! sequence. Timestamps are emitted as integer microseconds and floats use
//! Rust's shortest-roundtrip formatting, so two runs with the same seed
//! produce byte-identical files. Nothing here consults the wall clock,
//! locale, or environment.

use std::fmt::Write as _;

use ecf_core::{Decision, Why};

use crate::event::{Event, EventKind, SchedDecision};

fn push_why_fields(out: &mut String, why: &Why) {
    let _ = write!(out, r#","why":"{}""#, why.label());
    if let Some(t) = why.ecf_terms() {
        let _ = write!(
            out,
            r#","terms":{{"wait_for_fast_s":{},"threshold_s":{},"slow_time_s":{},"slow_floor_s":{},"delta_s":{},"beta_applied":{}}}"#,
            t.wait_for_fast_s,
            t.threshold_s,
            t.slow_time_s,
            t.slow_floor_s,
            t.delta_s,
            t.beta_applied
        );
    }
    match *why {
        Why::BlestWait { projected_pkts, lambda } | Why::BlestFits { projected_pkts, lambda } => {
            let _ = write!(out, r#","projected_pkts":{projected_pkts},"lambda":{lambda}"#);
        }
        Why::DapsDesignated { credit } | Why::DapsHold { credit } => {
            let _ = write!(out, r#","credit":{credit}"#);
        }
        Why::SttfBest { estimate_s } | Why::SttfWaitBest { estimate_s } => {
            let _ = write!(out, r#","estimate_s":{estimate_s}"#);
        }
        _ => {}
    }
}

fn push_decision_fields(out: &mut String, d: &SchedDecision) {
    let _ = write!(out, r#","conn":{},"sched":"{}""#, d.conn, d.scheduler);
    match d.decision {
        Decision::Send(id) => {
            let _ = write!(out, r#","decision":"send","path":{}"#, id.0);
        }
        Decision::Wait => out.push_str(r#","decision":"wait""#),
        Decision::Blocked => out.push_str(r#","decision":"blocked""#),
    }
    push_why_fields(out, &d.why);
    let _ = write!(
        out,
        r#","queued_pkts":{},"swnd_free_pkts":{}"#,
        d.queued_pkts, d.send_window_free_pkts
    );
    out.push_str(r#","paths":["#);
    for (i, p) in d.paths.iter().take(d.n_paths as usize).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"path":{},"usable":{},"srtt_us":{},"rttvar_us":{},"cwnd":{},"inflight":{}}}"#,
            p.path, p.usable, p.srtt_us, p.rttvar_us, p.cwnd, p.inflight
        );
    }
    out.push(']');
}

/// Append one event as a JSONL line (including the trailing newline).
fn jsonl_line(ev: &Event, out: &mut String) {
    let _ = write!(out, r#"{{"t_us":{},"ev":"{}""#, ev.t_ns / 1_000, ev.label());
    match &ev.kind {
        EventKind::SchedDecision(d) => push_decision_fields(out, d),
        EventKind::IwReset { conn, path }
        | EventKind::Rto { conn, path }
        | EventKind::FastRetx { conn, path }
        | EventKind::Penalization { conn, path }
        | EventKind::SubflowUp { conn, path }
        | EventKind::SubflowDown { conn, path } => {
            let _ = write!(out, r#","conn":{conn},"path":{path}"#);
        }
        EventKind::LinkDrop { path, dir, kind } => {
            let _ = write!(
                out,
                r#","path":{},"dir":"{}","kind":"{}""#,
                path,
                dir.label(),
                kind.label()
            );
        }
        EventKind::RateChange { path, dir, rate_bps } => {
            let _ =
                write!(out, r#","path":{},"dir":"{}","rate_bps":{}"#, path, dir.label(), rate_bps);
        }
    }
    out.push_str("}\n");
}

/// Serialize events to a JSONL document, one event per line, in order.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 160);
    for ev in events {
        jsonl_line(ev, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropKind, LinkDir, PathObs, MAX_PATHS};
    use ecf_core::{EcfTerms, PathId};

    fn decision_event() -> Event {
        let mut paths = [PathObs::default(); MAX_PATHS];
        paths[0] = PathObs {
            path: 0,
            usable: true,
            srtt_us: 25_000,
            rttvar_us: 3_000,
            cwnd: 10,
            inflight: 10,
            ..PathObs::default()
        };
        paths[1] = PathObs {
            path: 1,
            usable: true,
            srtt_us: 90_000,
            rttvar_us: 12_000,
            cwnd: 8,
            inflight: 0,
            ..PathObs::default()
        };
        Event {
            t_ns: 1_234_567,
            kind: EventKind::SchedDecision(SchedDecision {
                conn: 0,
                scheduler: "ecf",
                decision: Decision::Wait,
                why: Why::EcfWait(EcfTerms {
                    wait_for_fast_s: 0.05,
                    threshold_s: 0.102,
                    slow_time_s: 0.27,
                    slow_floor_s: 0.062,
                    delta_s: 0.012,
                    beta_applied: false,
                }),
                queued_pkts: 17,
                send_window_free_pkts: 400,
                n_paths: 2,
                paths,
            }),
        }
    }

    #[test]
    fn jsonl_decision_roundtrips_structure() {
        let line = to_jsonl(&[decision_event()]);
        assert!(line.ends_with('\n'));
        assert!(line.contains(r#""t_us":1234"#), "{line}");
        assert!(line.contains(r#""ev":"sched_decision""#));
        assert!(line.contains(r#""decision":"wait""#));
        assert!(line.contains(r#""why":"ecf_wait""#));
        assert!(line.contains(r#""delta_s":0.012"#));
        assert!(line.contains(r#""srtt_us":25000"#));
        assert!(line.contains(r#""inflight":10}"#), "{line}");
        // Exactly n_paths entries serialized.
        assert_eq!(line.matches(r#"{"path":"#).count(), 2);
    }

    #[test]
    fn jsonl_send_carries_path() {
        let mut ev = decision_event();
        if let EventKind::SchedDecision(d) = &mut ev.kind {
            d.decision = Decision::Send(PathId(1));
            d.why = Why::FastestFree;
        }
        let line = to_jsonl(&[ev]);
        assert!(line.contains(r#""decision":"send","path":1"#), "{line}");
        assert!(!line.contains("terms"));
    }

    #[test]
    fn jsonl_lifecycle_and_link_events() {
        let evs = [
            Event { t_ns: 2_000, kind: EventKind::Rto { conn: 3, path: 1 } },
            Event {
                t_ns: 3_000,
                kind: EventKind::LinkDrop { path: 0, dir: LinkDir::Forward, kind: DropKind::Queue },
            },
            Event {
                t_ns: 4_000,
                kind: EventKind::RateChange { path: 1, dir: LinkDir::Forward, rate_bps: 600_000 },
            },
        ];
        let doc = to_jsonl(&evs);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines[0], r#"{"t_us":2,"ev":"rto","conn":3,"path":1}"#);
        assert_eq!(lines[1], r#"{"t_us":3,"ev":"link_drop","path":0,"dir":"fwd","kind":"queue"}"#);
        assert_eq!(
            lines[2],
            r#"{"t_us":4,"ev":"rate_change","path":1,"dir":"fwd","rate_bps":600000}"#
        );
    }

    #[test]
    fn export_is_deterministic() {
        let evs = [decision_event(), decision_event()];
        assert_eq!(to_jsonl(&evs), to_jsonl(&evs));
    }
}
