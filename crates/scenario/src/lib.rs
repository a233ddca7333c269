//! # scenario — deterministic network dynamics & fault injection
//!
//! The paper's most interesting regimes are *dynamic*: §5.3 varies the two
//! interfaces' shaped rates mid-stream, the in-the-wild runs drift RTTs,
//! and handover kills a radio outright. This crate turns those regimes
//! into first-class, seed-replayable objects instead of ad-hoc event
//! plumbing scattered across examples and experiments.
//!
//! A [`Scenario`] is a declarative description of everything that happens
//! to the network over a run:
//!
//! * **Scripted events** ([`ControlEvent`]) — "at t=20s, path 0 goes
//!   down", "at t=45s, path 1's forward rate becomes 2 Mbps", "from t=0,
//!   path 1 suffers 1% bursty loss". Each pairs a [`Time`], a path index,
//!   and an [`Action`].
//! * **Stochastic processes** ([`Process`]) — generators with their own
//!   seeds that expand into scripted events at compile time, e.g. the
//!   paper's §5.3 exponential-interval rate walk.
//!
//! Consumers call [`Scenario::compile`] once at setup to obtain the full
//! time-sorted event list and schedule it into their event loop (the
//! `mptcp` testbed does exactly this). Nothing here touches the
//! simulator's per-packet hot path: impairments are applied *to* links at
//! event times, and the link itself keeps its zero-loss/zero-jitter fast
//! path whenever the active model cannot drop.
//!
//! ## Determinism contract
//!
//! Compilation is a pure function of the scenario value: processes draw
//! from [`testkit::Rng`] seeded only by their own `seed` field, and the
//! final sort is stable (ties keep insertion order). The same `Scenario`
//! therefore always produces the same event list, and a testbed run is a
//! pure function of (config, scenario, seed).
//!
//! Scenarios can also be loaded from JSON traces via
//! [`Scenario::from_json`], so measured rate/delay traces can be replayed
//! without recompiling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod schedule;

use std::time::Duration;

pub use schedule::RateSchedule;
pub use simnet::{GilbertElliott, LossModel};
use simnet::Time;
use testkit::json::{self, Value};

/// What a [`ControlEvent`] does to its path when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Set the forward (shaped) link rate in bits per second.
    RateBps(u64),
    /// Set the one-way propagation delay (both directions).
    OneWayDelay(Duration),
    /// Bring the path up (`true`) or down (`false`).
    PathUp(bool),
    /// Swap the forward link's random-loss process.
    Loss(LossModel),
}

/// One scripted change: at `at`, apply `action` to path `path`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEvent {
    /// When the change takes effect.
    pub at: Time,
    /// Index of the affected path.
    pub path: usize,
    /// The change itself.
    pub action: Action,
}

/// A seeded stochastic generator that expands into scripted events.
#[derive(Debug, Clone, PartialEq)]
pub enum Process {
    /// The paper's §5.3 bandwidth walk: change points at exponentially
    /// distributed intervals, each new rate drawn uniformly from a set.
    /// Expands via [`RateSchedule::random`], so a given seed names the
    /// same trajectory everywhere.
    RandomRates {
        /// Path whose forward rate varies.
        path: usize,
        /// Seed of the process' private RNG.
        seed: u64,
        /// Mean of the exponential inter-change interval.
        mean_interval: Duration,
        /// Candidate rates in Mbps, drawn uniformly.
        rates_mbps: Vec<f64>,
        /// No change points are generated after this time.
        horizon: Time,
    },
}

impl Process {
    fn expand(&self, out: &mut Vec<ControlEvent>) {
        match self {
            Process::RandomRates { path, seed, mean_interval, rates_mbps, horizon } => {
                let sched = RateSchedule::random(*seed, *mean_interval, rates_mbps, *horizon);
                out.extend(sched.changes.iter().map(|&(at, bps)| ControlEvent {
                    at,
                    path: *path,
                    action: Action::RateBps(bps),
                }));
            }
        }
    }
}

/// A declarative plan of network dynamics for one run. An empty (default)
/// scenario means a fully static network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// Scripted events, in any order; [`Scenario::compile`] sorts them.
    pub events: Vec<ControlEvent>,
    /// Stochastic processes expanded at compile time.
    pub processes: Vec<Process>,
}

impl Scenario {
    /// A scenario with no dynamics at all.
    pub fn new() -> Self {
        Scenario::default()
    }

    /// True when compiling would produce no events (static network).
    pub fn is_static(&self) -> bool {
        self.events.is_empty() && self.processes.is_empty()
    }

    /// Add a forward-rate change (bits per second) at `at`.
    pub fn rate_bps(mut self, at: Time, path: usize, bps: u64) -> Self {
        self.events.push(ControlEvent { at, path, action: Action::RateBps(bps) });
        self
    }

    /// Add a forward-rate change in Mbps at `at`.
    pub fn rate_mbps(self, at: Time, path: usize, mbps: f64) -> Self {
        self.rate_bps(at, path, (mbps * 1e6) as u64)
    }

    /// Add a one-way propagation-delay change at `at`.
    pub fn one_way_delay(mut self, at: Time, path: usize, delay: Duration) -> Self {
        self.events.push(ControlEvent { at, path, action: Action::OneWayDelay(delay) });
        self
    }

    /// Take `path` down at `at` (radio loss / blackout start).
    pub fn path_down(mut self, at: Time, path: usize) -> Self {
        self.events.push(ControlEvent { at, path, action: Action::PathUp(false) });
        self
    }

    /// Bring `path` back up at `at` (blackout end).
    pub fn path_up(mut self, at: Time, path: usize) -> Self {
        self.events.push(ControlEvent { at, path, action: Action::PathUp(true) });
        self
    }

    /// A blackout: `path` is down during `[from, until)`.
    pub fn outage(self, path: usize, from: Time, until: Time) -> Self {
        assert!(from < until, "outage must end after it starts");
        self.path_down(from, path).path_up(until, path)
    }

    /// Install a random-loss process on `path`'s forward link at `at`.
    pub fn loss(mut self, at: Time, path: usize, model: LossModel) -> Self {
        self.events.push(ControlEvent { at, path, action: Action::Loss(model) });
        self
    }

    /// Attach the §5.3 random-rate process to `path` (see
    /// [`Process::RandomRates`]).
    pub fn random_rates(
        mut self,
        path: usize,
        seed: u64,
        mean_interval: Duration,
        rates_mbps: &[f64],
        horizon: Time,
    ) -> Self {
        self.processes.push(Process::RandomRates {
            path,
            seed,
            mean_interval,
            rates_mbps: rates_mbps.to_vec(),
            horizon,
        });
        self
    }

    /// Re-target a population-level scenario (written against *global*
    /// path indices) onto one shard's local index space. `map` returns
    /// the local index for a global one, or `None` when the path lives
    /// on another shard — those events/processes are dropped entirely.
    ///
    /// Order is preserved, so a retargeted scenario compiles to the same
    /// relative (time, insertion) sequence as the monolith restricted to
    /// the surviving paths — the property the sharded-digest contract
    /// leans on (DESIGN.md §13).
    pub fn retarget(&self, map: impl Fn(usize) -> Option<usize>) -> Scenario {
        let events = self
            .events
            .iter()
            .filter_map(|ev| map(ev.path).map(|path| ControlEvent { path, ..*ev }))
            .collect();
        let processes = self
            .processes
            .iter()
            .filter_map(|p| match p {
                Process::RandomRates { path, seed, mean_interval, rates_mbps, horizon } => {
                    map(*path).map(|path| Process::RandomRates {
                        path,
                        seed: *seed,
                        mean_interval: *mean_interval,
                        rates_mbps: rates_mbps.clone(),
                        horizon: *horizon,
                    })
                }
            })
            .collect();
        Scenario { events, processes }
    }

    /// Expand all processes and return every event sorted by time. The
    /// sort is stable: same-time events fire in insertion order (scripted
    /// events before process expansions).
    pub fn compile(&self) -> Vec<ControlEvent> {
        let mut out = self.events.clone();
        for p in &self.processes {
            p.expand(&mut out);
        }
        out.sort_by_key(|e| e.at);
        out
    }

    /// Load a scenario from a JSON trace. Schema:
    ///
    /// ```json
    /// {
    ///   "events": [
    ///     {"at_ms": 20000, "path": 0, "action": "path_down"},
    ///     {"at_ms": 60000, "path": 0, "action": "path_up"},
    ///     {"at_ms": 1000,  "path": 1, "action": "rate_mbps", "value": 4.2},
    ///     {"at_ms": 1000,  "path": 1, "action": "one_way_delay_ms", "value": 30},
    ///     {"at_ms": 0,     "path": 1, "action": "loss_bernoulli", "value": 0.01},
    ///     {"at_ms": 0,     "path": 1, "action": "loss_bursty",
    ///      "avg_loss": 0.01, "mean_burst_pkts": 8},
    ///     {"at_ms": 5000,  "path": 1, "action": "loss_off"}
    ///   ],
    ///   "processes": [
    ///     {"kind": "random_rates", "path": 0, "seed": 12,
    ///      "mean_interval_s": 40, "rates_mbps": [0.3, 8.6], "horizon_s": 600}
    ///   ]
    /// }
    /// ```
    ///
    /// Both top-level keys are optional. Errors carry enough context to
    /// point at the offending entry.
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let mut s = Scenario::default();
        if let Some(events) = doc.get("events") {
            let events = events.as_array().ok_or("\"events\" must be an array")?;
            for (i, ev) in events.iter().enumerate() {
                s.events.push(parse_event(ev).map_err(|e| format!("events[{i}]: {e}"))?);
            }
        }
        if let Some(procs) = doc.get("processes") {
            let procs = procs.as_array().ok_or("\"processes\" must be an array")?;
            for (i, p) in procs.iter().enumerate() {
                s.processes.push(parse_process(p).map_err(|e| format!("processes[{i}]: {e}"))?);
            }
        }
        Ok(s)
    }

    /// Load a scenario from a JSON trace file (see [`Scenario::from_json`]
    /// for the schema). Read and parse errors are prefixed with the path so
    /// callers can surface them verbatim.
    pub fn from_json_file(path: impl AsRef<std::path::Path>) -> Result<Scenario, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Scenario::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing number \"{key}\""))
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    let n = field_f64(v, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("\"{key}\" must be a non-negative integer"));
    }
    Ok(n as usize)
}

fn parse_event(v: &Value) -> Result<ControlEvent, String> {
    let at = Time::from_micros((field_f64(v, "at_ms")? * 1e3) as u64);
    let path = field_usize(v, "path")?;
    let action = v.get("action").and_then(Value::as_str).ok_or("missing \"action\"")?;
    let action = match action {
        "path_down" => Action::PathUp(false),
        "path_up" => Action::PathUp(true),
        "rate_mbps" => Action::RateBps((field_f64(v, "value")? * 1e6) as u64),
        "rate_bps" => Action::RateBps(field_f64(v, "value")? as u64),
        "one_way_delay_ms" => {
            Action::OneWayDelay(Duration::from_micros((field_f64(v, "value")? * 1e3) as u64))
        }
        "loss_off" => Action::Loss(LossModel::None),
        "loss_bernoulli" => Action::Loss(LossModel::Bernoulli(field_f64(v, "value")?)),
        "loss_bursty" => Action::Loss(LossModel::GilbertElliott(GilbertElliott::bursty(
            field_f64(v, "avg_loss")?,
            field_f64(v, "mean_burst_pkts")?,
        ))),
        other => return Err(format!("unknown action \"{other}\"")),
    };
    Ok(ControlEvent { at, path, action })
}

fn parse_process(v: &Value) -> Result<Process, String> {
    let kind = v.get("kind").and_then(Value::as_str).ok_or("missing \"kind\"")?;
    match kind {
        "random_rates" => {
            let rates = v
                .get("rates_mbps")
                .and_then(Value::as_array)
                .ok_or("missing array \"rates_mbps\"")?
                .iter()
                .map(|r| r.as_f64().ok_or_else(|| "non-number in \"rates_mbps\"".to_string()))
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(Process::RandomRates {
                path: field_usize(v, "path")?,
                seed: field_f64(v, "seed")? as u64,
                mean_interval: Duration::from_secs_f64(field_f64(v, "mean_interval_s")?),
                rates_mbps: rates,
                horizon: Time::from_micros((field_f64(v, "horizon_s")? * 1e6) as u64),
            })
        }
        other => Err(format!("unknown process kind \"{other}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scenario_is_static() {
        let s = Scenario::default();
        assert!(s.is_static());
        assert!(s.compile().is_empty());
    }

    #[test]
    fn compile_sorts_by_time_stably() {
        let s = Scenario::new()
            .rate_mbps(Time::from_secs(10), 1, 2.0)
            .path_down(Time::from_secs(5), 0)
            .loss(Time::from_secs(5), 1, LossModel::Bernoulli(0.01));
        let evs = s.compile();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at, Time::from_secs(5));
        assert_eq!(evs[0].action, Action::PathUp(false)); // insertion order kept
        assert_eq!(evs[1].action, Action::Loss(LossModel::Bernoulli(0.01)));
        assert_eq!(evs[2].at, Time::from_secs(10));
    }

    #[test]
    fn outage_is_down_then_up() {
        let evs =
            Scenario::new().outage(0, Time::from_secs(20), Time::from_secs(60)).compile();
        assert_eq!(
            evs,
            vec![
                ControlEvent { at: Time::from_secs(20), path: 0, action: Action::PathUp(false) },
                ControlEvent { at: Time::from_secs(60), path: 0, action: Action::PathUp(true) },
            ]
        );
    }

    /// The process expansion must reproduce `RateSchedule::random` exactly
    /// — that is what makes "fig16 scenario 6" a stable name.
    #[test]
    fn random_rates_process_matches_rate_schedule() {
        let mean = Duration::from_secs(40);
        let rates = [0.3, 1.1, 8.6];
        let horizon = Time::from_secs(600);
        let direct = RateSchedule::random(7, mean, &rates, horizon);
        let evs = Scenario::new().random_rates(1, 7, mean, &rates, horizon).compile();
        assert_eq!(evs.len(), direct.changes.len());
        for (ev, &(at, bps)) in evs.iter().zip(&direct.changes) {
            assert_eq!(ev.at, at);
            assert_eq!(ev.path, 1);
            assert_eq!(ev.action, Action::RateBps(bps));
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let mk = || {
            Scenario::new()
                .random_rates(0, 3, Duration::from_secs(40), &[0.3, 8.6], Time::from_secs(600))
                .outage(1, Time::from_secs(100), Time::from_secs(130))
        };
        assert_eq!(mk().compile(), mk().compile());
    }

    #[test]
    fn retarget_filters_and_remaps_preserving_order() {
        let s = Scenario::new()
            .rate_mbps(Time::from_secs(1), 4, 2.0)
            .outage(2, Time::from_secs(5), Time::from_secs(6))
            .loss(Time::from_secs(1), 7, LossModel::Bernoulli(0.01))
            .random_rates(4, 9, Duration::from_secs(40), &[0.3, 8.6], Time::from_secs(60))
            .random_rates(7, 9, Duration::from_secs(40), &[0.3, 8.6], Time::from_secs(60));
        // Shard owns global paths {4, 2} as locals {0, 1}.
        let local = s.retarget(|g| match g {
            4 => Some(0),
            2 => Some(1),
            _ => None,
        });
        assert_eq!(local.events.len(), 3);
        assert_eq!(local.events[0].path, 0);
        assert_eq!(local.events[0].action, Action::RateBps(2_000_000));
        assert_eq!(local.events[1].path, 1);
        assert_eq!(local.events[1].action, Action::PathUp(false));
        assert_eq!(local.events[2].path, 1);
        assert_eq!(local.events[2].action, Action::PathUp(true));
        assert_eq!(local.processes.len(), 1);
        match &local.processes[0] {
            Process::RandomRates { path, seed, .. } => {
                assert_eq!(*path, 0);
                assert_eq!(*seed, 9); // process seed survives the remap
            }
        }
        // Identity retarget is a no-op.
        assert_eq!(s.retarget(Some), s);
    }

    #[test]
    fn json_round_trip_covers_all_actions() {
        let text = r#"{
            "events": [
                {"at_ms": 20000, "path": 0, "action": "path_down"},
                {"at_ms": 60000, "path": 0, "action": "path_up"},
                {"at_ms": 1000, "path": 1, "action": "rate_mbps", "value": 4.2},
                {"at_ms": 1500, "path": 1, "action": "rate_bps", "value": 250000},
                {"at_ms": 2000, "path": 1, "action": "one_way_delay_ms", "value": 30},
                {"at_ms": 0, "path": 1, "action": "loss_bernoulli", "value": 0.01},
                {"at_ms": 100, "path": 1, "action": "loss_bursty",
                 "avg_loss": 0.02, "mean_burst_pkts": 8},
                {"at_ms": 5000, "path": 1, "action": "loss_off"}
            ],
            "processes": [
                {"kind": "random_rates", "path": 0, "seed": 12,
                 "mean_interval_s": 40, "rates_mbps": [0.3, 8.6], "horizon_s": 600}
            ]
        }"#;
        let s = Scenario::from_json(text).unwrap();
        assert_eq!(s.events.len(), 8);
        assert_eq!(s.processes.len(), 1);
        assert_eq!(s.events[0].at, Time::from_secs(20));
        assert_eq!(s.events[0].action, Action::PathUp(false));
        assert_eq!(s.events[2].action, Action::RateBps(4_200_000));
        assert_eq!(s.events[3].action, Action::RateBps(250_000));
        assert_eq!(
            s.events[4].action,
            Action::OneWayDelay(Duration::from_millis(30))
        );
        assert_eq!(s.events[5].action, Action::Loss(LossModel::Bernoulli(0.01)));
        assert!(matches!(s.events[6].action, Action::Loss(LossModel::GilbertElliott(_))));
        assert_eq!(s.events[7].action, Action::Loss(LossModel::None));
        let equivalent = Scenario::new().random_rates(
            0,
            12,
            Duration::from_secs(40),
            &[0.3, 8.6],
            Time::from_secs(600),
        );
        assert_eq!(s.processes, equivalent.processes);
    }

    #[test]
    fn json_file_errors_carry_the_path() {
        let err = Scenario::from_json_file("/nonexistent/scenario.json").unwrap_err();
        assert!(err.contains("/nonexistent/scenario.json"), "{err}");
        let dir = std::env::temp_dir().join("scenario_from_json_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"events": [{"path": 0, "action": "warp"}]}"#).unwrap();
        let err = Scenario::from_json_file(&bad).unwrap_err();
        assert!(err.contains("bad.json") && err.contains("events[0]"), "{err}");
        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"events": [{"at_ms": 1, "path": 0, "action": "path_down"}]}"#)
            .unwrap();
        let s = Scenario::from_json_file(&good).unwrap();
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn json_errors_name_the_offender() {
        let err = Scenario::from_json(
            r#"{"events": [{"at_ms": 0, "path": 0, "action": "warp"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("events[0]"), "{err}");
        assert!(err.contains("warp"), "{err}");
        let err =
            Scenario::from_json(r#"{"events": [{"path": 0, "action": "path_up"}]}"#).unwrap_err();
        assert!(err.contains("at_ms"), "{err}");
    }
}
