//! Minimal property-testing harness (proptest replacement).
//!
//! A property is a plain function over a generated input; the harness runs it
//! for a configurable number of cases, each derived from a per-case seed, and
//! on failure greedily shrinks the input before reporting. The panic message
//! always contains `TESTKIT_SEED=<n>`; exporting that variable re-runs *only*
//! the failing case, regenerating the identical input:
//!
//! ```text
//! TESTKIT_SEED=12345 cargo test -p ecf-core --test prop failing_case_name
//! ```
//!
//! Design notes:
//!
//! * Case seeds are drawn from a fixed master seed, so runs are fully
//!   deterministic: CI and a laptop see the same inputs. There is no
//!   persistence file; a regression caught once should be promoted to a
//!   named unit test.
//! * Generators are value-level combinators implementing [`Gen`]: integer
//!   and float ranges, booleans, choices from a slice, vectors, and tuples
//!   (up to arity 6). Shrinking walks candidates from
//!   each combinator greedily — smaller vectors first, then element-wise,
//!   numbers toward the range start.
//! * Build composite inputs from tuples/vectors of primitives and assemble
//!   structs *inside* the property body; that keeps shrinking effective.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::Rng;

/// Environment variable that replays a single failing case.
const ENV_SEED: &str = "TESTKIT_SEED";

/// Fixed master seed: runs are deterministic unless `TESTKIT_SEED` is set.
const MASTER_SEED: u64 = 0xECF_C0DE_2017;

/// Upper bound on accepted shrink steps (each step may probe several
/// candidates).
const MAX_SHRINK_STEPS: u32 = 200;

/// A value generator with optional shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Produce one value from the generator's distribution.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simplifications of `v`, "smallest" first. An empty vector
    /// means the value cannot shrink further.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Run `prop` against `cases` generated inputs.
pub fn check<G: Gen>(cases: u32, gen: G, prop: impl Fn(G::Value)) {
    if let Ok(var) = std::env::var(ENV_SEED) {
        let seed: u64 =
            var.trim().parse().unwrap_or_else(|_| panic!("{ENV_SEED} must be a u64, got {var:?}"));
        let value = gen.generate(&mut Rng::seed_from_u64(seed));
        eprintln!("{ENV_SEED}={seed}: replaying single case with input {value:?}");
        if let Err(msg) = run_case(&prop, value.clone()) {
            report_failure(&gen, &prop, value, msg, seed, 0);
        }
        return;
    }

    let mut master = Rng::seed_from_u64(MASTER_SEED);
    for case in 0..cases {
        let case_seed = master.next_u64();
        let value = gen.generate(&mut Rng::seed_from_u64(case_seed));
        if let Err(msg) = run_case(&prop, value.clone()) {
            report_failure(&gen, &prop, value, msg, case_seed, case);
        }
    }
}

/// Shrink greedily, then panic with the replay seed and minimal input.
fn report_failure<G: Gen>(
    gen: &G,
    prop: &impl Fn(G::Value),
    value: G::Value,
    msg: String,
    case_seed: u64,
    case: u32,
) -> ! {
    let mut cur = value;
    let mut cur_msg = msg;
    let mut steps = 0u32;
    'outer: while steps < MAX_SHRINK_STEPS {
        for cand in gen.shrink(&cur) {
            if let Err(m) = run_case(prop, cand.clone()) {
                cur = cand;
                cur_msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    panic!(
        "property failed on case {case} (replay: {ENV_SEED}={case_seed})\n\
         minimal input after {steps} shrink steps: {cur:?}\n\
         failure: {cur_msg}"
    );
}

/// Run one case, converting a panic into its message.
fn run_case<V>(prop: &impl Fn(V), value: V) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(payload)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Primitive generators
// ---------------------------------------------------------------------------

/// Shrink candidates for an integer `v` toward the range start: the start
/// itself, then binary jumps back toward `v` (`v - gap/2`, `v - gap/4`, …,
/// `v - 1`). Greedy shrinking over this ladder converges to a failure
/// boundary in O(log gap) accepted steps, never linearly.
fn int_shrink_candidates(lo: u64, v: u64) -> Vec<u64> {
    if v <= lo {
        return Vec::new();
    }
    let mut out = vec![lo];
    let mut d = (v - lo) / 2;
    while d > 0 {
        out.push(v - d);
        d /= 2;
    }
    out.dedup();
    out.retain(|&c| c != v);
    out
}

macro_rules! impl_int_gen {
    ($($t:ty),*) => {$(
        impl Gen for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                int_shrink_candidates(self.start as u64, *v as u64)
                    .into_iter()
                    .map(|c| c as $t)
                    .collect()
            }
        }
        impl Gen for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                int_shrink_candidates(*self.start() as u64, *v as u64)
                    .into_iter()
                    .map(|c| c as $t)
                    .collect()
            }
        }
    )*};
}

impl_int_gen!(u8, u16, u32, u64, usize);

impl Gen for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.clone())
    }
    fn shrink(&self, v: &f64) -> Vec<f64> {
        let lo = self.start;
        // NaN (incomparable) must not shrink, same as v <= lo.
        if v.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Vec::new();
        }
        let mut out = vec![lo];
        let mut d = (*v - lo) / 2.0;
        for _ in 0..40 {
            if d <= f64::EPSILON * v.abs().max(1.0) {
                break;
            }
            out.push(*v - d);
            d /= 2.0;
        }
        out.retain(|c| c != v);
        out
    }
}

/// Uniform over the whole `u64` domain (the `any::<u64>()` replacement).
pub fn any_u64() -> AnyU64 {
    AnyU64
}

/// See [`any_u64`].
#[derive(Debug, Clone, Copy)]
pub struct AnyU64;

impl Gen for AnyU64 {
    type Value = u64;
    fn generate(&self, rng: &mut Rng) -> u64 {
        rng.next_u64()
    }
    fn shrink(&self, v: &u64) -> Vec<u64> {
        (0u64..u64::MAX).shrink(v)
    }
}

/// Fair coin (the `any::<bool>()` replacement); shrinks `true` → `false`.
pub fn bools() -> Bools {
    Bools
}

/// See [`bools`].
#[derive(Debug, Clone, Copy)]
pub struct Bools;

impl Gen for Bools {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Uniform pick from a fixed option set; shrinks toward earlier options.
pub fn choice<T: Clone + Debug + PartialEq>(options: &[T]) -> Choice<T> {
    assert!(!options.is_empty(), "choice() needs at least one option");
    Choice { options: options.to_vec() }
}

/// See [`choice`].
#[derive(Debug, Clone)]
pub struct Choice<T> {
    options: Vec<T>,
}

impl<T: Clone + Debug + PartialEq> Gen for Choice<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        self.options[rng.gen_range(0..self.options.len())].clone()
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        match self.options.iter().position(|o| o == v) {
            Some(idx) => self.options[..idx].to_vec(),
            None => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite generators
// ---------------------------------------------------------------------------

/// Vector of `elem` values with a length drawn from `len` (half-open).
pub fn vec_of<G: Gen>(elem: G, len: std::ops::Range<usize>) -> VecOf<G> {
    assert!(len.start < len.end, "empty length range");
    VecOf { elem, len }
}

/// See [`vec_of`].
#[derive(Debug, Clone)]
pub struct VecOf<G> {
    elem: G,
    len: std::ops::Range<usize>,
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let min = self.len.start;
        let mut out: Vec<Vec<G::Value>> = Vec::new();
        // Structural shrinks first: shorter vectors fail faster.
        if v.len() > min {
            out.push(v[..min.max(v.len() / 2)].to_vec());
            out.push(v[..v.len() - 1].to_vec());
            out.push(v[1..].to_vec());
        }
        // Element-wise shrinks, bounded so candidate lists stay small; the
        // greedy outer loop revisits remaining elements on later steps.
        for (i, x) in v.iter().enumerate() {
            for cand in self.elem.shrink(x).into_iter().take(2) {
                let mut c = v.clone();
                c[i] = cand;
                out.push(c);
            }
            if out.len() >= 64 {
                break;
            }
        }
        out
    }
}

macro_rules! impl_tuple_gen {
    ($(($G:ident, $idx:tt)),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut c = v.clone();
                        c.$idx = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_gen!((A, 0));
impl_tuple_gen!((A, 0), (B, 1));
impl_tuple_gen!((A, 0), (B, 1), (C, 2));
impl_tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3));
impl_tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
impl_tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn passing_property_runs_all_cases() {
        let ran = AtomicU32::new(0);
        check(100, 0u64..50, |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(x < 50);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let err = catch_unwind(|| {
            check(200, (0u64..10_000, vec_of(0u32..100, 1..20)), |(x, v)| {
                assert!(x < 9_000 || v.len() < 3, "trip");
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("TESTKIT_SEED="), "no replay seed in: {msg}");
        assert!(msg.contains("minimal input"), "no minimal input in: {msg}");
        // Greedy shrinking must reach the boundary: x == 9000, len == 3.
        assert!(msg.contains("(9000, [0, 0, 0])"), "not minimal: {msg}");
    }

    #[test]
    fn replay_seed_regenerates_the_same_input() {
        // The same (gen, case seed) pair always yields the same value — this
        // is what makes TESTKIT_SEED replay sound.
        let gen = (0u64..10_000, vec_of(0u32..100, 1..20));
        let a = gen.generate(&mut Rng::seed_from_u64(777));
        let b = gen.generate(&mut Rng::seed_from_u64(777));
        assert_eq!(a, b);
    }

    #[test]
    fn runs_are_deterministic_across_invocations() {
        let collect = || {
            let mut seen = Vec::new();
            // Interior mutability not needed: capture by reference.
            let seen_ref = std::cell::RefCell::new(&mut seen);
            check(50, 0u64..1_000_000, |x| {
                seen_ref.borrow_mut().push(x);
            });
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn int_shrink_moves_toward_range_start() {
        let g = 5u64..100;
        let cands = g.shrink(&80);
        assert!(cands.contains(&5));
        assert!(cands.iter().all(|&c| (5..80).contains(&c)));
        assert!(g.shrink(&5).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let g = vec_of(0u32..10, 2..6);
        for cand in g.shrink(&vec![1, 2, 3, 4]) {
            assert!(cand.len() >= 2, "shrunk below min len: {cand:?}");
        }
    }

    #[test]
    fn choice_shrinks_to_earlier_options() {
        let g = choice(&[10, 20, 30]);
        assert_eq!(g.shrink(&30), vec![10, 20]);
        assert!(g.shrink(&10).is_empty());
    }

    #[test]
    fn tuple_shrink_varies_one_component() {
        let g = (0u64..10, bools());
        let cands = g.shrink(&(4, true));
        assert!(cands.contains(&(0, true)));
        assert!(cands.contains(&(4, false)));
    }
}
