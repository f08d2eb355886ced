//! A minimal deterministic property-testing harness — the in-workspace
//! replacement for the external `proptest` crate.
//!
//! Design (deliberately small):
//!
//! * A *generator* is anything implementing [`Gen`]: a function of
//!   `(&mut Xoshiro256pp, size) -> T`. Combinators in [`gens`] build the
//!   usual vocabulary (ranges, collections, one-of, map/filter).
//! * [`props!`] declares `#[test]` functions that run a property over a
//!   fixed number of generated cases with a deterministically derived
//!   per-case seed. No files, no persistence, no time: the same binary
//!   reruns the same cases forever.
//! * Failure reporting includes the run seed, the case seed, and the
//!   minimized counterexample; setting `SIM_CHECK_SEED` reproduces a run
//!   exactly.
//! * *Minimization-lite*: generators consume a `size` budget that ramps
//!   up across cases; on failure the harness replays the failing case
//!   seed at every smaller size and reports the smallest size that still
//!   fails. This shrinks collection-valued counterexamples without the
//!   complexity of structural shrinking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

pub use sim_rng::{Rng, Xoshiro256pp};

pub mod gens;

/// A value generator: draws a `T` from the RNG within a `size` budget
/// (collections bound their lengths by it; scalars ignore it).
pub trait Gen<T> {
    /// Generate one value.
    fn generate(&self, rng: &mut Xoshiro256pp, size: usize) -> T;
}

impl<T, F> Gen<T> for F
where
    F: Fn(&mut Xoshiro256pp, usize) -> T,
{
    fn generate(&self, rng: &mut Xoshiro256pp, size: usize) -> T {
        self(rng, size)
    }
}

macro_rules! impl_gen_tuple {
    ($($g:ident $t:ident $idx:tt),+) => {
        impl<$($t,)+ $($g: Gen<$t>,)+> Gen<($($t,)+)> for ($($g,)+) {
            fn generate(&self, rng: &mut Xoshiro256pp, size: usize) -> ($($t,)+) {
                ($(self.$idx.generate(rng, size),)+)
            }
        }
    };
}

impl_gen_tuple!(GA A 0, GB B 1);
impl_gen_tuple!(GA A 0, GB B 1, GC C 2);
impl_gen_tuple!(GA A 0, GB B 1, GC C 2, GD D 3);
impl_gen_tuple!(GA A 0, GB B 1, GC C 2, GD D 3, GE E 4);

/// Harness configuration. `SIM_CHECK_CASES` and `SIM_CHECK_SEED`
/// override the defaults at run time ([`Config::from_env`]).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Maximum size budget; cases ramp from 0 up to this.
    pub max_size: usize,
    /// Run seed. Every case seed derives from it and the property name.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 40,
            max_size: 60,
            seed: 0x5EED_5EED_5EED_5EED,
        }
    }
}

impl Config {
    /// The default configuration with `SIM_CHECK_CASES` / `SIM_CHECK_SEED`
    /// environment overrides applied (decimal, or `0x`-prefixed hex for
    /// the seed — the failure report prints it in that form).
    #[allow(clippy::disallowed_methods)] // SIM_CHECK_CASES and SIM_CHECK_SEED are read here and nowhere else
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Ok(v) = std::env::var("SIM_CHECK_CASES") {
            if let Ok(n) = v.trim().parse() {
                cfg.cases = n;
            }
        }
        if let Ok(v) = std::env::var("SIM_CHECK_SEED") {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            };
            if let Some(s) = parsed {
                cfg.seed = s;
            }
        }
        cfg
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// While probing cases we expect panics; the default hook would spam
/// stderr with every probe. Install (once) a wrapper that honours a
/// thread-local quiet flag and otherwise defers to the previous hook.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
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

/// FNV-1a, used to give every property its own stream under one run seed.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn case_rng(case_seed: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(case_seed)
}

/// Run `prop` against one generated case; `Some(message)` on failure.
fn probe<T: Debug>(
    generate: &impl Fn(&mut Xoshiro256pp, usize) -> T,
    prop: &impl Fn(T),
    case_seed: u64,
    size: usize,
) -> Option<String> {
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let value = generate(&mut case_rng(case_seed), size);
        prop(value);
    }));
    QUIET.with(|q| q.set(false));
    outcome.err().map(panic_message)
}

/// Replay a generation (no property) to show the counterexample. The
/// generator may itself fail at tiny sizes (filtered generators); report
/// that instead of masking the original failure.
fn render_value<T: Debug>(
    generate: &impl Fn(&mut Xoshiro256pp, usize) -> T,
    case_seed: u64,
    size: usize,
) -> String {
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        format!("{:#?}", generate(&mut case_rng(case_seed), size))
    }));
    QUIET.with(|q| q.set(false));
    outcome.unwrap_or_else(|_| "<generator failed on replay>".to_string())
}

/// Run the property, returning the failure report instead of panicking —
/// `None` means all cases passed. [`run_named`] is the panicking wrapper
/// the [`props!`] macro uses; this form exists so the harness can test
/// (and callers can observe) its own failure reporting.
pub fn check<T: Debug>(
    name: &str,
    cfg: &Config,
    generate: impl Fn(&mut Xoshiro256pp, usize) -> T,
    prop: impl Fn(T),
) -> Option<String> {
    install_quiet_hook();
    let mut master = Xoshiro256pp::seed_from_u64(cfg.seed ^ fnv1a(name));
    for case in 0..cfg.cases {
        let case_seed = master.next_u64();
        let ramp_den = (cfg.cases.max(2) - 1) as usize;
        let size = (cfg.max_size * case as usize)
            .div_ceil(ramp_den)
            .min(cfg.max_size);
        let Some(message) = probe(&generate, &prop, case_seed, size) else {
            continue;
        };
        // Minimization-lite: smallest size (same case seed) still failing.
        let (min_size, min_message) = (0..size)
            .find_map(|s| probe(&generate, &prop, case_seed, s).map(|m| (s, m)))
            .unwrap_or((size, message));
        let value = render_value(&generate, case_seed, min_size);
        return Some(format!(
            "property '{name}' failed after {cases} case(s)\n\
             \x20 run seed:    0x{seed:016X} (set SIM_CHECK_SEED=0x{seed:016X} to reproduce)\n\
             \x20 case seed:   0x{case_seed:016X} (case {case}, size {size}, minimized to size {min_size})\n\
             \x20 counterexample: {value}\n\
             \x20 failure: {min_message}",
            cases = case + 1,
            seed = cfg.seed,
        ));
    }
    None
}

/// Run a property and panic with a full report on failure. The
/// [`props!`] macro expands to calls of this.
pub fn run_named<T: Debug>(
    name: &str,
    cfg: &Config,
    generate: impl Fn(&mut Xoshiro256pp, usize) -> T,
    prop: impl Fn(T),
) {
    if let Some(report) = check(name, cfg, generate, prop) {
        panic!("{report}");
    }
}

/// Declare property tests.
///
/// ```
/// use sim_check::{props, gens};
///
/// props! {
///     #![cases = 64]
///     fn addition_commutes(a in gens::u32s(..), b in gens::u32s(..)) {
///         assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]` running `cases` generated cases (the
/// `#![cases = N]` header is optional). Bindings draw from any [`Gen`]
/// expression; the body is ordinary Rust using ordinary `assert!`s.
#[macro_export]
macro_rules! props {
    (#![cases = $cases:expr] $($rest:tt)*) => {
        $crate::props!(@cfg ($crate::Config { cases: $cases, ..$crate::Config::from_env() }) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let cfg = $cfg;
            $crate::run_named(
                stringify!($name),
                &cfg,
                |rng, size| ($( $crate::Gen::generate(&($gen), rng, size), )+),
                |($($arg,)+)| $body,
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::props!(@cfg ($crate::Config::from_env()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gens;

    props! {
        fn passing_property_runs_all_cases(v in gens::vec_of(gens::u8s(..), 0..20)) {
            assert!(v.len() <= 20);
        }

        fn tuples_generate_componentwise(pair in (gens::u16s(1..10), gens::u16s(10..20))) {
            assert!(pair.0 < pair.1);
        }
    }

    /// A seeded failing property produces the exact same report twice —
    /// same case seed, same minimized counterexample.
    #[test]
    fn seeded_failure_reproduces_identically() {
        let cfg = Config {
            cases: 50,
            max_size: 40,
            seed: 0xDEAD_BEEF,
        };
        let run = || {
            check(
                "repro",
                &cfg,
                |rng, size| gens::vec_of(gens::u32s(0..1000), 0..40).generate(rng, size),
                |v: Vec<u32>| assert!(v.len() < 6, "vector too long: {}", v.len()),
            )
        };
        let a = run().expect("property must fail");
        let b = run().expect("property must fail");
        assert_eq!(a, b, "identical seeds must yield identical reports");
        assert!(
            a.contains("0x00000000DEADBEEF"),
            "report names the run seed: {a}"
        );
        assert!(a.contains("counterexample"), "{a}");
    }

    /// Minimization-lite finds a smaller failing size than the one that
    /// first failed (the minimal failing vector here has 6 elements).
    #[test]
    fn minimization_shrinks_the_failing_size() {
        let cfg = Config {
            cases: 60,
            max_size: 60,
            seed: 1,
        };
        let report = check(
            "shrink",
            &cfg,
            |rng, size| gens::vec_of(gens::u8s(..), 0..60).generate(rng, size),
            |v: Vec<u8>| assert!(v.len() < 6),
        )
        .expect("must fail");
        // The minimized size must allow a 6-element vector but not be the
        // unminimized original; sizes 0..5 cannot fail.
        let min_size: usize = report
            .split("minimized to size ")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .and_then(|n| n.trim().parse().ok())
            .expect("report contains minimized size");
        assert!(
            (6..=20).contains(&min_size),
            "minimized size {min_size}\n{report}"
        );
    }

    /// Different seeds explore different cases.
    #[test]
    fn different_seeds_differ() {
        let gen = |rng: &mut Xoshiro256pp, size: usize| {
            gens::vec_of(gens::u64s(..), 5..30).generate(rng, size)
        };
        let collect = |seed: u64| {
            let mut out = Vec::new();
            let cfg = Config {
                cases: 4,
                max_size: 30,
                seed,
            };
            // Abuse check(): record by failing never, observing via closure.
            let sink = std::cell::RefCell::new(&mut out);
            check("collect", &cfg, gen, |v: Vec<u64>| {
                sink.borrow_mut().push(v)
            });
            out
        };
        assert_ne!(collect(1), collect(2));
        assert_eq!(collect(3), collect(3));
    }

    #[test]
    fn env_config_parses_hex_seed() {
        // Not using set_var (process-global, racy): exercise the parser.
        let mut cfg = Config::default();
        let v = "0x00000000DEADBEEF";
        cfg.seed = u64::from_str_radix(v.strip_prefix("0x").unwrap(), 16).unwrap();
        assert_eq!(cfg.seed, 0xDEAD_BEEF);
    }
}
