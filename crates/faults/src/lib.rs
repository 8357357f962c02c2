//! Deterministic, site-addressed fault injection.
//!
//! The serving stack (`tlm-serve`, `tlm-pipeline`) declares *injection
//! points* — named places where a fault could plausibly strike: a worker
//! panicking mid-request, a socket read coming up short (`serve.parse` —
//! surfaces as a truncated upload the server closes without answering),
//! a stage compute failing transiently, the allocator coming under
//! pressure. In a normal build every point compiles to an inline `None`
//! (the `enabled` feature is off and there is not even an atomic load on
//! the path), and [`point`] and [`injected_total`] are the whole API. A
//! faults-armed build (`--features enabled`, re-exported as `faults` by
//! the consuming crates) arms the points against a seeded **plan**:
//!
//! ```
//! use tlm_faults::{point, Kind};
//!
//! #[cfg(feature = "enabled")]
//! tlm_faults::install(7); // seed the plan (one fault-campaign seed)
//! if let Some(fault) = point("serve.worker.handle", &[Kind::Panic, Kind::Delay]) {
//!     fault.fire(); // panics, sleeps, or pressures the allocator
//! }
//! #[cfg(feature = "enabled")]
//! tlm_faults::clear();
//! ```
//!
//! **Determinism.** Each site keeps an occurrence counter; the decision
//! for occurrence *n* of site *s* is a pure function of `(seed, s, n)`
//! (splitmix64 over the FNV-1a hash of the site name). Replaying the
//! same seed against the same request sequence injects the same fault
//! *schedule* — which request observes which fault still depends on
//! thread interleaving, so chaos gates are written as counting
//! invariants (every 500 matches a caught panic; resident bytes stay
//! under budget) rather than per-request expectations.
//!
//! **Scripted injection.** Tests that need a specific fault at a
//! specific moment use `force`: the next `count` draws at a site fire
//! the given kind unconditionally, ahead of the seeded schedule. This is
//! how the fault campaign's prelude arranges "exactly one worker panic,
//! right now" without depending on seed arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// The kinds of fault a point can inject.
///
/// Active kinds ([`Kind::Panic`], [`Kind::Delay`],
/// [`Kind::AllocPressure`]) are applied by [`Fault::fire`]; passive kinds
/// ([`Kind::ShortRead`], [`Kind::Transient`]) are returned to the caller,
/// which simulates the failure in its own domain (a connection cut short,
/// a stage compute failing retryably).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Panic on the calling thread (worker isolation drill).
    Panic,
    /// Sleep for a small, seeded duration (latency spike).
    Delay,
    /// Pretend the peer's bytes ran out (connection cut short).
    ShortRead,
    /// Briefly allocate and touch a large buffer (allocator pressure).
    AllocPressure,
    /// Fail retryably (a transient, non-deterministic error).
    Transient,
}

/// One drawn fault, bound to the site that drew it.
#[derive(Debug, Clone)]
pub struct Fault {
    site: &'static str,
    kind: Kind,
    magnitude: u64,
}

impl Fault {
    /// Which kind of fault was drawn.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Applies an active fault in place: panics for [`Kind::Panic`],
    /// sleeps 2–20 ms for [`Kind::Delay`], allocates and touches a 4 MiB
    /// buffer for [`Kind::AllocPressure`]. Passive kinds are a no-op here
    /// — the caller simulates those itself.
    pub fn fire(&self) {
        match self.kind {
            Kind::Panic => panic!("injected fault: panic at {}", self.site),
            Kind::Delay => std::thread::sleep(Duration::from_millis(2 + self.magnitude % 19)),
            Kind::AllocPressure => {
                let mut pressure = vec![0u8; 4 << 20];
                let mut i = 0;
                while i < pressure.len() {
                    pressure[i] = (self.magnitude as u8).wrapping_add(i as u8);
                    i += 4096;
                }
                std::hint::black_box(&pressure);
            }
            Kind::ShortRead | Kind::Transient => {}
        }
    }
}

/// Relative draw weights per kind, out of [`DENOM`] — roughly one fault
/// per seven point calls when every kind is allowed, dominated by the
/// benign ones.
#[cfg(feature = "enabled")]
const WEIGHTS: [(Kind, u64); 5] = [
    (Kind::Panic, 3),
    (Kind::Delay, 3),
    (Kind::ShortRead, 2),
    (Kind::AllocPressure, 1),
    (Kind::Transient, 2),
];
#[cfg(feature = "enabled")]
const DENOM: u64 = 64;

#[cfg(feature = "enabled")]
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(feature = "enabled")]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(feature = "enabled")]
mod armed {
    use super::{fnv1a_64, splitmix64, Fault, Kind, DENOM, WEIGHTS};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[derive(Default)]
    struct Plan {
        /// Seed of the weighted schedule; `None` (a plan created by
        /// [`force`] alone) disarms the seeded draws entirely, so a test
        /// scripting one specific fault cannot leak random ones into
        /// whatever else shares the process.
        seed: Option<u64>,
        /// Occurrence counter per site.
        occurrences: HashMap<&'static str, u64>,
        /// Scripted injections, consumed before the seeded schedule.
        forced: Vec<(&'static str, Kind, u64)>,
        /// Injections performed, per (site, kind).
        injected: HashMap<(&'static str, Kind), u64>,
    }

    static PLAN: Mutex<Option<Plan>> = Mutex::new(None);
    static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);

    fn with_plan<R>(f: impl FnOnce(&mut Option<Plan>) -> R) -> R {
        f(&mut PLAN.lock().expect("fault plan poisoned"))
    }

    /// Installs a fresh seeded plan, discarding any previous one.
    pub fn install(seed: u64) {
        with_plan(|p| *p = Some(Plan { seed: Some(seed), ..Plan::default() }));
    }

    /// Disarms every point and drops all counters.
    pub fn clear() {
        with_plan(|p| *p = None);
    }

    /// Scripts the next `count` draws at `site` to fire `kind`
    /// unconditionally, ahead of the seeded schedule. Installs an
    /// otherwise-empty plan if none is active; a plan created this way
    /// performs *only* the scripted injections (no seeded schedule).
    pub fn force(site: &'static str, kind: Kind, count: u64) {
        with_plan(|p| {
            let plan = p.get_or_insert_with(Plan::default);
            plan.forced.push((site, kind, count));
        });
    }

    /// Draws against the plan for this occurrence of `site`. Returns a
    /// fault only when the drawn kind is in `allowed` — a draw the caller
    /// cannot tolerate is dropped, never substituted.
    pub fn point(site: &'static str, allowed: &[Kind]) -> Option<Fault> {
        with_plan(|p| {
            let plan = p.as_mut()?;
            // Scripted injections win over the seeded schedule.
            for entry in &mut plan.forced {
                let (fsite, kind, count) = *entry;
                if fsite == site && count > 0 && allowed.contains(&kind) {
                    entry.2 -= 1;
                    *plan.injected.entry((site, kind)).or_default() += 1;
                    INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
                    return Some(Fault { site, kind, magnitude: splitmix64(entry.2) });
                }
            }
            let seed = plan.seed?;
            let n = plan.occurrences.entry(site).or_default();
            let draw = splitmix64(seed ^ fnv1a_64(site.as_bytes()).wrapping_add(*n));
            *n += 1;
            let mut slot = draw % DENOM;
            for (kind, weight) in WEIGHTS {
                if slot < weight {
                    if !allowed.contains(&kind) {
                        return None; // the drawn kind is not tolerable here
                    }
                    *plan.injected.entry((site, kind)).or_default() += 1;
                    INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
                    return Some(Fault { site, kind, magnitude: splitmix64(draw) });
                }
                slot -= weight;
            }
            None
        })
    }

    /// Total injections performed since process start (survives
    /// [`clear`]; exported on `/metrics`).
    pub fn injected_total() -> u64 {
        INJECTED_TOTAL.load(Ordering::Relaxed)
    }

    /// Injections performed at `site` of `kind` under the current plan.
    pub fn injected(site: &str, kind: Kind) -> u64 {
        with_plan(|p| {
            p.as_ref()
                .and_then(|plan| plan.injected.get(&(site, kind)).copied())
                .unwrap_or_default()
        })
    }
}

#[cfg(feature = "enabled")]
pub use armed::{clear, force, injected, injected_total, install, point};

/// Disarmed stubs: with the `enabled` feature off, every injection point
/// is an inline `None`. Only the two calls the serving stack makes exist.
#[cfg(not(feature = "enabled"))]
mod disarmed {
    use super::{Fault, Kind};

    /// Always `None` in a disarmed build; inlines away entirely.
    #[inline(always)]
    pub fn point(_site: &'static str, _allowed: &[Kind]) -> Option<Fault> {
        None
    }

    /// Always zero in a disarmed build.
    pub fn injected_total() -> u64 {
        0
    }
}

#[cfg(not(feature = "enabled"))]
pub use disarmed::{injected_total, point};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    /// The global plan is shared state; serialize the tests that touch it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disarmed_points_draw_nothing() {
        let _guard = LOCK.lock().unwrap();
        clear();
        assert!(point("t.site", &[Kind::Panic]).is_none());
        assert_eq!(injected("t.site", Kind::Panic), 0);
    }

    #[test]
    fn seeded_schedule_is_deterministic_and_kind_filtered() {
        let _guard = LOCK.lock().unwrap();
        let run = |allowed: &[Kind]| -> Vec<Option<Kind>> {
            install(42);
            let draws = (0..256).map(|_| point("t.sched", allowed).map(|f| f.kind())).collect();
            clear();
            draws
        };
        let all = [Kind::Panic, Kind::Delay, Kind::ShortRead, Kind::AllocPressure, Kind::Transient];
        let a = run(&all);
        let b = run(&all);
        assert_eq!(a, b, "same seed, same schedule");
        let fired = a.iter().flatten().count();
        assert!(fired > 10 && fired < 128, "plausible fire rate, got {fired}/256");
        // Filtering to one kind never converts a draw into another kind.
        let only_delay = run(&[Kind::Delay]);
        for (full, filtered) in a.iter().zip(&only_delay) {
            match filtered {
                Some(k) => assert_eq!((*full, *k), (Some(Kind::Delay), Kind::Delay)),
                None => assert_ne!(*full, Some(Kind::Delay)),
            }
        }
    }

    #[test]
    fn forced_faults_fire_first_and_are_counted() {
        let _guard = LOCK.lock().unwrap();
        install(1);
        force("t.forced", Kind::Panic, 2);
        for _ in 0..2 {
            let f = point("t.forced", &[Kind::Panic]).expect("forced fault fires");
            assert_eq!(f.kind(), Kind::Panic);
        }
        assert_eq!(injected("t.forced", Kind::Panic), 2);
        assert!(injected_total() >= 2);
        clear();
    }

    #[test]
    fn forced_only_plan_disarms_the_seeded_schedule() {
        let _guard = LOCK.lock().unwrap();
        clear();
        force("t.only", Kind::Delay, 1);
        // No install(): the seeded schedule must stay silent everywhere.
        for _ in 0..64 {
            assert!(point("t.other", &[Kind::Panic, Kind::Delay]).is_none());
        }
        assert_eq!(point("t.only", &[Kind::Delay]).map(|f| f.kind()), Some(Kind::Delay));
        assert!(point("t.only", &[Kind::Delay]).is_none(), "script exhausted");
        clear();
    }

    #[test]
    fn active_faults_apply_and_panic_fault_panics() {
        let _guard = LOCK.lock().unwrap();
        let delay = Fault { site: "t", kind: Kind::Delay, magnitude: 0 };
        delay.fire(); // sleeps briefly, must not panic
        let alloc = Fault { site: "t", kind: Kind::AllocPressure, magnitude: 7 };
        alloc.fire();
        let passive = Fault { site: "t", kind: Kind::ShortRead, magnitude: 0 };
        passive.fire(); // no-op
        let boom = Fault { site: "t", kind: Kind::Panic, magnitude: 0 };
        let caught = std::panic::catch_unwind(move || boom.fire());
        assert!(caught.is_err(), "panic fault panics");
    }
}
