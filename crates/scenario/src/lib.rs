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
use simnet::Time;
pub use simnet::{GilbertElliott, LossModel};
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
    /// Expands to one [`RateSchedule`], so a given seed names the
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
    /// Both top-level keys are optional. Every value is checked, never
    /// truncated: integers (`path`, `seed`, `rate_bps`) must be exact
    /// non-negative integers, times and delays finite and non-negative,
    /// rates at least 1 bps, probabilities in range, `rates_mbps` non-empty,
    /// `mean_interval_s` at least 1 ms and `horizon_s` at most a million
    /// mean intervals. Errors name the offending entry and field. Path
    /// indices are checked against a testbed by [`Scenario::check_paths`].
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        Scenario::from_value(&json::parse(text).map_err(|e| e.to_string())?)
    }

    /// [`Scenario::from_json`] on an already parsed document (an
    /// experiment spec's `inline` scenario); other keys are ignored.
    pub fn from_value(doc: &Value) -> Result<Scenario, String> {
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

    /// Check that every event and process names one of `n_paths` paths;
    /// the error names the first offender as [`Scenario::from_json`]'s
    /// errors do (a testbed indexes its paths with it and would panic).
    pub fn check_paths(&self, n_paths: usize) -> Result<(), String> {
        let out_of_range = |list: &str, i: usize, path: usize| {
            Err(format!("{list}[{i}]: \"path\" {path} is not one of the run's {n_paths} paths"))
        };
        for (i, ev) in self.events.iter().enumerate() {
            if ev.path >= n_paths {
                return out_of_range("events", i, ev.path);
            }
        }
        for (i, p) in self.processes.iter().enumerate() {
            let Process::RandomRates { path, .. } = p;
            if *path >= n_paths {
                return out_of_range("processes", i, *path);
            }
        }
        Ok(())
    }
}

/// A number in `range`, or an error naming `key` and the range.
fn field_in<R>(v: &Value, key: &str, range: R) -> Result<f64, String>
where
    R: std::ops::RangeBounds<f64> + std::fmt::Debug,
{
    let x = json::number(v, key)?;
    if range.contains(&x) {
        Ok(x)
    } else {
        Err(format!("\"{key}\" must be in {range:?}, got {x}"))
    }
}

/// A time or delay: finite and not negative.
fn field_time(v: &Value, key: &str) -> Result<f64, String> {
    field_in(v, key, 0.0..f64::INFINITY)
}

fn parse_event(v: &Value) -> Result<ControlEvent, String> {
    let at = Time::from_micros((field_time(v, "at_ms")? * 1e3) as u64);
    let path = json::uint(v, "path")? as usize;
    let action = json::string(v, "action")?;
    let action = match action {
        "path_down" => Action::PathUp(false),
        "path_up" => Action::PathUp(true),
        "rate_mbps" => Action::RateBps(simnet::rate_bps(json::number(v, "value")?, "value")?),
        "rate_bps" => match json::uint(v, "value")? {
            0 => return Err("\"value\" must be a rate of at least 1 bps, got 0".to_string()),
            bps => Action::RateBps(bps),
        },
        "one_way_delay_ms" => {
            Action::OneWayDelay(Duration::from_micros((field_time(v, "value")? * 1e3) as u64))
        }
        "loss_off" => Action::Loss(LossModel::None),
        "loss_bernoulli" => Action::Loss(LossModel::Bernoulli(field_in(v, "value", 0.0..=1.0)?)),
        "loss_bursty" => Action::Loss(LossModel::GilbertElliott(GilbertElliott::bursty(
            field_in(v, "avg_loss", 0.0..1.0)?,
            field_in(v, "mean_burst_pkts", 1.0..f64::INFINITY)?,
        ))),
        other => return Err(format!("unknown action \"{other}\"")),
    };
    Ok(ControlEvent { at, path, action })
}

/// The most rate changes a loaded random-rates process may expect to draw
/// (`horizon_s / mean_interval_s`); each is a control event held in memory.
const MAX_RATE_CHANGES: f64 = 1e6;

fn parse_process(v: &Value) -> Result<Process, String> {
    let kind = json::string(v, "kind")?;
    match kind {
        "random_rates" => {
            let rates = json::field(v, "rates_mbps")?
                .as_array()
                .ok_or("\"rates_mbps\" must be an array")?
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let key = format!("rates_mbps[{i}]");
                    let mbps = r.as_f64().ok_or(format!("{key:?} must be a number"))?;
                    simnet::rate_bps(mbps, &key).map(|_| mbps)
                })
                .collect::<Result<Vec<f64>, String>>()?;
            if rates.is_empty() {
                return Err("\"rates_mbps\" must hold at least one rate".to_string());
            }
            // At least a millisecond: a shorter mean draws gaps that round
            // to zero nanoseconds, and the process never reaches its horizon.
            let mean_interval = field_in(v, "mean_interval_s", 1e-3..f64::INFINITY)?;
            let horizon = field_time(v, "horizon_s")?;
            if horizon / mean_interval > MAX_RATE_CHANGES {
                return Err(format!(
                    "\"horizon_s\" {horizon} over \"mean_interval_s\" {mean_interval} draws \
                     more than {MAX_RATE_CHANGES} rate changes"
                ));
            }
            Ok(Process::RandomRates {
                path: json::uint(v, "path")? as usize,
                seed: json::uint(v, "seed")?,
                mean_interval: Duration::from_secs_f64(mean_interval),
                rates_mbps: rates,
                horizon: Time::from_micros((horizon * 1e6) as u64),
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
        let evs = Scenario::new().outage(0, Time::from_secs(20), Time::from_secs(60)).compile();
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
        assert_eq!(s.events[4].action, Action::OneWayDelay(Duration::from_millis(30)));
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
    fn json_errors_name_the_offender() {
        let err = Scenario::from_json(r#"{"events": [{"at_ms": 0, "path": 0, "action": "warp"}]}"#)
            .unwrap_err();
        assert!(err.contains("events[0]"), "{err}");
        assert!(err.contains("warp"), "{err}");
        let err =
            Scenario::from_json(r#"{"events": [{"path": 0, "action": "path_up"}]}"#).unwrap_err();
        assert!(err.contains("at_ms"), "{err}");
    }

    /// `from_json` on one random-rates process with `field` set to `value`.
    fn process_with(field: &str, value: &str) -> Result<Scenario, String> {
        let mut doc = json::parse(
            r#"{"kind": "random_rates", "path": 0, "seed": 12,
                "mean_interval_s": 40, "rates_mbps": [0.3, 8.6], "horizon_s": 600}"#,
        )
        .unwrap();
        let Value::Object(map) = &mut doc else { unreachable!() };
        map.insert(field.to_string(), json::parse(value).unwrap());
        Scenario::from_json(&format!(r#"{{"processes": [{}]}}"#, json::canonical(&doc)))
    }

    /// `from_json` on one event with `field` set to `value`.
    fn event_with(action: &str, field: &str, value: &str) -> Result<Scenario, String> {
        let mut doc = json::parse(r#"{"at_ms": 5, "path": 1, "value": 1}"#).unwrap();
        let Value::Object(map) = &mut doc else { unreachable!() };
        map.insert("action".to_string(), Value::String(action.to_string()));
        map.insert(field.to_string(), json::parse(value).unwrap());
        Scenario::from_json(&format!(r#"{{"events": [{}]}}"#, json::canonical(&doc)))
    }

    fn assert_names(result: Result<Scenario, String>, list: &str, field: &str) {
        let err = result.unwrap_err();
        assert!(err.starts_with(&format!("{list}[0]: ")), "{err}");
        assert!(err.contains(&format!("\"{field}\"")), "{field}: {err}");
    }

    #[test]
    fn a_negative_mean_interval_is_an_error_not_a_panic() {
        // Used to panic in `Duration::from_secs_f64`.
        assert_names(process_with("mean_interval_s", "-1"), "processes", "mean_interval_s");
    }

    #[test]
    fn a_zero_or_sub_millisecond_mean_interval_is_an_error_not_a_hang() {
        // Zero never left `RateSchedule::random`; 1e-12 s draws gaps that
        // round to zero nanoseconds and would not either.
        for value in ["0", "1e-12"] {
            assert_names(process_with("mean_interval_s", value), "processes", "mean_interval_s");
        }
        assert!(process_with("mean_interval_s", "0.1").is_ok());
        // 1 ms is allowed, but not over a horizon that draws a billion
        // changes and exhausts memory.
        assert!(process_with("mean_interval_s", "0.001").is_ok());
        let err = Scenario::from_json(
            r#"{"processes": [{"kind": "random_rates", "path": 0, "seed": 1,
                "mean_interval_s": 0.001, "rates_mbps": [1], "horizon_s": 1e6}]}"#,
        )
        .unwrap_err();
        assert!(err.starts_with("processes[0]: \"horizon_s\""), "{err}");
    }

    #[test]
    fn an_empty_rate_set_is_an_error_not_a_panic() {
        assert_names(process_with("rates_mbps", "[]"), "processes", "rates_mbps");
    }

    #[test]
    fn negative_or_fractional_values_are_errors_not_zeroes() {
        for value in ["-1", "0.5", "\"3\""] {
            assert_names(process_with("seed", value), "processes", "seed");
            assert_names(process_with("path", value), "processes", "path");
            assert_names(event_with("path_down", "path", value), "events", "path");
            assert_names(event_with("rate_bps", "value", value), "events", "value");
        }
        for value in ["-1", "-0.5"] {
            assert_names(event_with("path_down", "at_ms", value), "events", "at_ms");
            assert_names(process_with("horizon_s", value), "processes", "horizon_s");
            assert_names(event_with("rate_mbps", "value", value), "events", "value");
            assert_names(event_with("one_way_delay_ms", "value", value), "events", "value");
            let rates = process_with("rates_mbps", &format!("[1, {value}]"));
            assert_names(rates, "processes", "rates_mbps[1]");
        }
        // Rates that would truncate to a 0 bps link.
        assert_names(event_with("rate_bps", "value", "0"), "events", "value");
        assert_names(event_with("rate_mbps", "value", "1e-7"), "events", "value");
        // Probabilities the loss models would assert on.
        assert_names(event_with("loss_bernoulli", "value", "1.5"), "events", "value");
        assert_names(event_with("loss_bursty", "avg_loss", "1"), "events", "avg_loss");
        // A fractional time is fine: it is a time, not a count.
        let s = event_with("path_down", "at_ms", "0.5").unwrap();
        assert_eq!(s.events[0].at, Time::from_micros(500));
    }

    #[test]
    fn check_paths_names_the_first_path_out_of_range() {
        let s = Scenario::new().path_down(Time::ZERO, 1).random_rates(
            7,
            1,
            Duration::from_secs(40),
            &[1.0],
            Time::from_secs(60),
        );
        assert_eq!(s.check_paths(8), Ok(()));
        let err = s.check_paths(2).unwrap_err();
        assert_eq!(err, "processes[0]: \"path\" 7 is not one of the run's 2 paths");
        let err = Scenario::new().path_up(Time::ZERO, 2).check_paths(2).unwrap_err();
        assert!(err.starts_with("events[0]: \"path\" 2"), "{err}");
    }
}
