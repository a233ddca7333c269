//! # simnet — deterministic discrete-event network simulation
//!
//! The substrate under the MPTCP reproduction: a minimal, fully deterministic
//! discrete-event engine plus a shaped-link model. It plays the role of the
//! paper's physical testbed (WiFi + LTE paths regulated with `tc`).
//!
//! Design points, in the spirit of event-driven stacks like smoltcp:
//!
//! * **Passive components.** A [`Link`] computes arrival times; the *model*
//!   schedules delivery events. No callbacks, no interior mutability, no
//!   hidden threads.
//! * **Determinism.** Integer-nanosecond clock, `(time, sequence)`-ordered
//!   event heap, and one seeded [`testkit::Rng`] per stochastic
//!   component. A run is a pure function of (config, seed).
//! * **Bufferbloat built in.** Droptail queues sized in bytes reproduce the
//!   RTT inflation the paper measures under `tc` regulation (Table 2).
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Engine, EventQueue, Model, Time, Link, LinkConfig, Verdict};
//! use std::time::Duration;
//!
//! struct Ping { link: Link, got: Vec<Time> }
//! enum Ev { Send(u32), Arrive }
//!
//! impl Model for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, now: Time, ev: Ev, q: &mut EventQueue<Ev>) {
//!         match ev {
//!             Ev::Send(bytes) => {
//!                 if let Verdict::Deliver { arrival } = self.link.enqueue(now, bytes) {
//!                     q.schedule(arrival, Ev::Arrive);
//!                 }
//!             }
//!             Ev::Arrive => self.got.push(now),
//!         }
//!     }
//! }
//!
//! let link = Link::new(LinkConfig::shaped(12.0, Duration::from_millis(10), 64 * 1024), 0);
//! let mut eng = Engine::new(Ping { link, got: vec![] });
//! eng.queue_mut().schedule(Time::ZERO, Ev::Send(1500));
//! eng.run_until(Time::MAX);
//! assert_eq!(eng.model.got, vec![Time::from_millis(11)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delivery;
mod engine;
mod link;
mod loss;
mod path;
mod time;
mod wheel;

pub use delivery::DeliveryQueue;
pub use engine::{Engine, Model, RunOutcome};
pub use link::{rate_bps, serialization_nanos, Link, LinkConfig, LinkStats, Verdict};
pub use loss::{GilbertElliott, LossModel};
pub use path::{path_seed, Path, PathConfig, LTE_ONE_WAY};
pub use time::{dur_nanos, Time};
pub use wheel::EventQueue;
