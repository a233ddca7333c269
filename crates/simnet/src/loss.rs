//! Stochastic packet-loss processes.
//!
//! A [`LossModel`] decides, per packet offered to a [`crate::Link`], whether
//! the packet is randomly dropped. Two models are provided:
//!
//! * **Bernoulli** — independent per-packet drops, the classic `loss_rate`
//!   knob the paper's `tc netem` baseline exposes.
//! * **Gilbert–Elliott** — a two-state Markov chain (good/bad) with a
//!   per-state drop probability. This is the standard model for *bursty*
//!   wireless loss: long clean stretches punctuated by short windows where
//!   most packets die (a fading WiFi channel, an LTE cell edge). Scheduler
//!   rankings that hold under independent loss can invert under bursts,
//!   which is exactly what the `dyn_burstloss` experiment measures.
//!
//! Determinism contract: the model draws from the owning link's seeded RNG
//! and consumes **exactly one draw per probability that is actually in
//! play** — a zero transition or drop probability consumes nothing. In
//! particular, Gilbert–Elliott with `p_good_bad == 0` never leaves the good
//! state and consumes the RNG in exactly the order `Bernoulli(loss_good)`
//! does, so the two are bit-identical (pinned by a property test in
//! `simnet/tests/prop.rs`).

use testkit::Rng;

/// Per-packet random-loss process applied by a link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No random loss (the zero-cost default: no RNG draws at all).
    #[default]
    None,
    /// Independent drops with the given probability.
    Bernoulli(f64),
    /// Two-state bursty loss.
    GilbertElliott(GilbertElliott),
}

/// Parameters of the Gilbert–Elliott two-state chain. Each offered packet
/// first advances the chain (good ↔ bad with the corresponding transition
/// probability), then draws a drop with the *current* state's loss rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per offered packet.
    pub p_good_bad: f64,
    /// P(bad → good) per offered packet.
    pub p_bad_good: f64,
    /// Drop probability while in the good state.
    pub loss_good: f64,
    /// Drop probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// The common "burst erasure" parameterization: clean good state,
    /// all-loss bad state, chosen so the stationary average loss is
    /// `avg_loss` and bad-state visits last `mean_burst_pkts` packets on
    /// average. `avg_loss` must be in `[0, 1)`.
    pub fn bursty(avg_loss: f64, mean_burst_pkts: f64) -> Self {
        assert!((0.0..1.0).contains(&avg_loss), "avg_loss must be in [0, 1)");
        assert!(mean_burst_pkts >= 1.0, "a burst is at least one packet");
        let p_bad_good = 1.0 / mean_burst_pkts;
        // Stationary P(bad) = p_gb / (p_gb + p_bg) = avg_loss.
        let p_good_bad = p_bad_good * avg_loss / (1.0 - avg_loss);
        GilbertElliott { p_good_bad, p_bad_good, loss_good: 0.0, loss_bad: 1.0 }
    }
}

impl LossModel {
    /// True when this model can never drop a packet (lets the link keep its
    /// RNG-free fast path).
    pub fn is_none(&self) -> bool {
        match *self {
            LossModel::None => true,
            LossModel::Bernoulli(p) => p <= 0.0,
            LossModel::GilbertElliott(_) => false,
        }
    }

    /// Advance the process by one offered packet and decide whether to drop
    /// it. `bad_state` is the chain state for Gilbert–Elliott (unused by the
    /// other models).
    pub(crate) fn drop_packet(&self, bad_state: &mut bool, rng: &mut Rng) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => p > 0.0 && rng.f64() < p,
            LossModel::GilbertElliott(ge) => {
                let p_flip = if *bad_state { ge.p_bad_good } else { ge.p_good_bad };
                if p_flip > 0.0 && rng.f64() < p_flip {
                    *bad_state = !*bad_state;
                }
                let p_loss = if *bad_state { ge.loss_bad } else { ge.loss_good };
                p_loss > 0.0 && rng.f64() < p_loss
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_parameterization_hits_targets() {
        let ge = GilbertElliott::bursty(0.02, 8.0);
        // Every bad-state packet drops and no good-state one does, so the
        // average loss is the stationary share of the bad state.
        assert!((ge.p_good_bad / (ge.p_good_bad + ge.p_bad_good) - 0.02).abs() < 1e-12);
        assert!((ge.p_bad_good - 0.125).abs() < 1e-12);
        assert_eq!(ge.loss_good, 0.0);
        assert_eq!(ge.loss_bad, 1.0);
    }

    #[test]
    fn none_and_zero_bernoulli_are_free() {
        assert!(LossModel::None.is_none());
        assert!(LossModel::Bernoulli(0.0).is_none());
        assert!(!LossModel::Bernoulli(0.1).is_none());
        assert!(!LossModel::GilbertElliott(GilbertElliott::bursty(0.01, 4.0)).is_none());
    }

    #[test]
    fn gilbert_elliott_long_run_loss_tracks_stationary_average() {
        let ge = GilbertElliott::bursty(0.05, 10.0);
        let model = LossModel::GilbertElliott(ge);
        let mut rng = Rng::seed_from_u64(99);
        let mut bad = false;
        let n = 200_000;
        let dropped = (0..n).filter(|_| model.drop_packet(&mut bad, &mut rng)).count();
        let rate = dropped as f64 / n as f64;
        assert!((0.04..0.06).contains(&rate), "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // At equal average loss, GE must produce far fewer distinct loss
        // "episodes" (runs of consecutive drops) than Bernoulli.
        let n = 100_000;
        let runs = |model: LossModel| {
            let mut rng = Rng::seed_from_u64(7);
            let mut bad = false;
            let mut runs = 0u32;
            let mut prev = false;
            for _ in 0..n {
                let d = model.drop_packet(&mut bad, &mut rng);
                if d && !prev {
                    runs += 1;
                }
                prev = d;
            }
            runs
        };
        let ge_runs = runs(LossModel::GilbertElliott(GilbertElliott::bursty(0.02, 16.0)));
        let bern_runs = runs(LossModel::Bernoulli(0.02));
        assert!(ge_runs * 4 < bern_runs, "GE runs {ge_runs} not bursty vs Bernoulli {bern_runs}");
    }
}
