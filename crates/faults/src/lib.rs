//! # sudowoodo-faults
//!
//! A std-only, deterministic **failpoint registry** for chaos-testing the Sudowoodo
//! stack. Production code plants named failpoints at its fault-prone seams (spill
//! reads, snapshot renames, socket writes); tests and CI arm them by name to force
//! those seams to fail on demand:
//!
//! ```
//! use sudowoodo_faults as faults;
//!
//! faults::arm("spill.read.io_err", faults::Policy::Times(2));
//! assert!(faults::fires("spill.read.io_err"));
//! assert!(faults::fires("spill.read.io_err"));
//! assert!(!faults::fires("spill.read.io_err")); // budget spent
//! faults::disarm_all();
//! ```
//!
//! Design constraints, in order:
//!
//! * **Free when disarmed.** [`fires`] first does one relaxed atomic load of a global
//!   armed counter; with nothing armed it returns `false` without touching the
//!   registry mutex, hashing the name, or allocating. Production binaries that never
//!   arm anything pay a predictable single-branch toll per failpoint site.
//! * **Deterministic.** Probabilistic policies ([`Policy::OneIn`], [`Policy::Prob`])
//!   draw from a per-failpoint xorshift stream seeded at arm time — the same arming
//!   produces the same fire sequence on every run, so a chaos failure reproduces.
//! * **Env-drivable.** Setting `SUDOWOODO_FAILPOINTS` (for example
//!   `spill.read.io_err=1in7;serve.write.stall=always`) arms failpoints
//!   process-wide before the first [`fires`] call, which is how CI runs the whole
//!   workspace test suite under chaos without touching a single test.
//! * **Retry-friendly.** After a *probabilistic* policy fires on a thread, that
//!   thread suppresses the same failpoint for the next few evaluations
//!   ([`SUPPRESS_WINDOW`]) — enough for a bounded retry loop to succeed
//!   deterministically instead of flaking. Deterministic policies (`Always`,
//!   `Once`, `Times`) are never suppressed: a test arming `Always` wants the
//!   durable fault (and the quarantine path behind it).
//!
//! The registry is process-global and `cargo test` runs a binary's tests on parallel
//! threads, so tests share it through two scopes: a test that arms failpoints holds
//! [`arm_scope`] (exclusive; everything is disarmed when it drops), and a test whose
//! code path crosses a failpoint another test of the same binary arms holds
//! [`quiet_scope`] (shared) — it then never runs while one of them is armed.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How an armed failpoint decides whether a given evaluation fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Never fires (arming with `Off` is equivalent to [`disarm`]).
    Off,
    /// Fires on every evaluation until disarmed.
    Always,
    /// Fires exactly once, then never again.
    Once,
    /// Fires on the first `n` evaluations, then never again.
    Times(u64),
    /// Fires on average once per `n` evaluations (deterministic per-failpoint
    /// xorshift stream; `OneIn(1)` is equivalent to `Always` minus suppression).
    OneIn(u64),
    /// Fires with probability `num/den` per evaluation, from a stream seeded with
    /// `seed` (so two armings with different seeds see different fire patterns).
    Prob {
        /// Numerator of the fire probability.
        num: u64,
        /// Denominator of the fire probability (0 is treated as never-fire).
        den: u64,
        /// Seed of the deterministic per-failpoint draw stream.
        seed: u64,
    },
}

/// After a probabilistic policy fires on a thread, the same failpoint is suppressed
/// on that thread for this many further evaluations — wide enough to cover every
/// bounded retry loop in the workspace (the longest retries 4 times), so
/// retry-after-fault succeeds deterministically under chaos instead of flaking.
pub const SUPPRESS_WINDOW: u32 = 8;

struct State {
    policy: Policy,
    /// Evaluations seen so far (drives `Once`/`Times`).
    hits: u64,
    /// xorshift64 state for probabilistic policies.
    rng: u64,
}

/// Number of currently armed failpoints; the [`fires`] fast path.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, State>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, State>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms failpoints from `SUDOWOODO_FAILPOINTS` exactly once per process.
///
/// The initialization closure must arm WITHOUT calling back into any public entry
/// point: those all call `arm_from_env_once` themselves, and re-entering a
/// `OnceLock` initializer deadlocks the whole process on the `Once` futex (every
/// later caller queues behind it). Hence `spec_entries` + the internal `arm_locked`
/// here instead of the public `arm_from_spec`/`arm`.
fn arm_from_env_once() {
    static ENV: OnceLock<()> = OnceLock::new();
    ENV.get_or_init(|| {
        if let Ok(spec) = std::env::var("SUDOWOODO_FAILPOINTS") {
            for (name, policy) in spec_entries(&spec) {
                arm_locked(&name, policy);
            }
        }
    });
}

thread_local! {
    /// Per-thread suppression counters (see [`SUPPRESS_WINDOW`]).
    static SUPPRESSED: RefCell<HashMap<String, u32>> = RefCell::new(HashMap::new());
}

/// Arms `name` with `policy`, replacing any previous arming (and resetting its
/// counters/stream). Arming [`Policy::Off`] disarms.
pub fn arm(name: &str, policy: Policy) {
    arm_from_env_once();
    arm_locked(name, policy);
}

/// The body of [`arm`], callable from inside the env-arming `OnceLock` initializer
/// (which must not re-enter [`arm_from_env_once`] — see its comment).
fn arm_locked(name: &str, policy: Policy) {
    if policy == Policy::Off {
        let mut map = registry().lock().unwrap();
        if map.remove(name).is_some() {
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
        drop(map);
        SUPPRESSED.with(|s| {
            s.borrow_mut().remove(name);
        });
        return;
    }
    let seed = match policy {
        Policy::Prob { seed, .. } => seed,
        // Stable per-name default seed so `OneIn` runs reproduce without the test
        // having to pick one.
        _ => {
            0x5DEECE66D
                ^ name
                    .bytes()
                    .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
        }
    };
    let state = State {
        policy,
        hits: 0,
        // xorshift64 cannot leave state 0.
        rng: seed | 1,
    };
    let mut map = registry().lock().unwrap();
    if map.insert(name.to_string(), state).is_none() {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
    drop(map);
    // A leftover suppression window from a previous arming would silently shift the
    // new stream; clearing it keeps "same arming, same sequence" true on the arming
    // thread (suppression is thread-local, so other threads clear on their own next
    // window expiry).
    SUPPRESSED.with(|s| {
        s.borrow_mut().remove(name);
    });
}

/// Disarms `name`; evaluations return to the no-op branch.
pub fn disarm(name: &str) {
    arm_from_env_once();
    let mut map = registry().lock().unwrap();
    if map.remove(name).is_some() {
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
    drop(map);
    SUPPRESSED.with(|s| {
        s.borrow_mut().remove(name);
    });
}

/// Disarms every failpoint (including env-armed ones — chaos CI accepts that a
/// test doing this opts the rest of its process out of env chaos).
pub fn disarm_all() {
    arm_from_env_once();
    let mut map = registry().lock().unwrap();
    let n = map.len();
    map.clear();
    ARMED.fetch_sub(n, Ordering::Relaxed);
    drop(map);
    SUPPRESSED.with(|s| {
        s.borrow_mut().clear();
    });
}

/// What the test scopes lock. A test that panics poisons nothing worth keeping — the
/// lock guards no data — so poison is ignored.
static SCOPE: RwLock<()> = RwLock::new(());

/// Exclusive hold on the registry for a test that arms failpoints — see [`arm_scope`].
#[must_use = "the scope ends, and disarms, when this is dropped"]
pub struct ArmScope {
    _held: RwLockWriteGuard<'static, ()>,
}

impl Drop for ArmScope {
    fn drop(&mut self) {
        // Runs before `_held` is released: nobody observes the leftovers.
        disarm_all();
    }
}

/// Shared hold on the registry for a test that must not observe failpoints armed by
/// other tests — see [`quiet_scope`].
#[must_use = "the scope ends when this is dropped"]
pub struct QuietScope {
    _held: RwLockReadGuard<'static, ()>,
}

/// Enters the scope of a test that arms failpoints: waits until no other
/// [`ArmScope`] or [`QuietScope`] is held in this process, and calls [`disarm_all`]
/// when dropped (still holding the scope), pass or panic.
pub fn arm_scope() -> ArmScope {
    ArmScope {
        _held: SCOPE.write().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Enters the scope of a test that runs code with planted failpoints and expects none
/// of them to fire: any number of these overlap, none overlaps an [`ArmScope`].
/// Failpoints armed from `SUDOWOODO_FAILPOINTS` still fire — that is the chaos run.
pub fn quiet_scope() -> QuietScope {
    QuietScope {
        _held: SCOPE.read().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Names of the currently armed failpoints (diagnostics / test assertions).
pub fn armed() -> Vec<String> {
    arm_from_env_once();
    let map = registry().lock().unwrap();
    let mut names: Vec<String> = map.keys().cloned().collect();
    names.sort();
    names
}

/// Evaluates the failpoint `name`: `true` means the planted fault should trigger.
///
/// This is the only call production code makes. With nothing armed it is one
/// relaxed atomic load and a branch.
pub fn fires(name: &str) -> bool {
    // Fast path: nothing armed anywhere. The env spec can only *add* armings, and
    // arming bumps ARMED, so a process that never arms (and has no env spec to
    // parse — checked once below on the slow path) never takes the lock. To keep
    // the fast path a single load, env arming is folded into the slow path: a
    // process with SUDOWOODO_FAILPOINTS set must evaluate the env once, so the
    // very first call pays the parse.
    if ARMED.load(Ordering::Relaxed) == 0 {
        arm_from_env_once();
        if ARMED.load(Ordering::Relaxed) == 0 {
            return false;
        }
    }

    // Thread-local suppression window after a probabilistic fire.
    let suppressed = SUPPRESSED.with(|s| {
        let mut map = s.borrow_mut();
        match map.get_mut(name) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    });
    if suppressed {
        return false;
    }

    let mut map = registry().lock().unwrap();
    let Some(state) = map.get_mut(name) else {
        return false;
    };
    state.hits += 1;
    let (fired, probabilistic) = match state.policy {
        Policy::Off => (false, false),
        Policy::Always => (true, false),
        Policy::Once => (state.hits == 1, false),
        Policy::Times(n) => (state.hits <= n, false),
        Policy::OneIn(n) => (n > 0 && xorshift(&mut state.rng).is_multiple_of(n), true),
        Policy::Prob { num, den, .. } => (den > 0 && xorshift(&mut state.rng) % den < num, true),
    };
    drop(map);
    if fired && probabilistic {
        SUPPRESSED.with(|s| {
            s.borrow_mut().insert(name.to_string(), SUPPRESS_WINDOW);
        });
    }
    fired
}

/// Arms failpoints from a `name=policy;name=policy` spec (the `SUDOWOODO_FAILPOINTS`
/// format). Unparseable entries are skipped with a note on stderr — a typo in a CI
/// matrix variable should weaken the chaos, not brick every test binary.
///
/// Policies: `off`, `always`, `once`, `times:N`, `1inN`, `prob:NUM/DEN:SEED`.
pub fn arm_from_spec(spec: &str) {
    arm_from_env_once();
    for (name, policy) in spec_entries(spec) {
        arm_locked(&name, policy);
    }
}

/// Parses a spec into its well-formed `(name, policy)` entries, noting the
/// malformed ones on stderr.
fn spec_entries(spec: &str) -> Vec<(String, Policy)> {
    let mut entries = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((name, policy)) = entry.split_once('=') else {
            eprintln!("sudowoodo-faults: ignoring malformed failpoint entry {entry:?}");
            continue;
        };
        match parse_policy(policy.trim()) {
            Some(p) => entries.push((name.trim().to_string(), p)),
            None => eprintln!("sudowoodo-faults: ignoring unknown policy in {entry:?}"),
        }
    }
    entries
}

fn parse_policy(s: &str) -> Option<Policy> {
    match s {
        "off" => return Some(Policy::Off),
        "always" => return Some(Policy::Always),
        "once" => return Some(Policy::Once),
        _ => {}
    }
    if let Some(n) = s.strip_prefix("times:") {
        return n.parse().ok().map(Policy::Times);
    }
    if let Some(n) = s.strip_prefix("1in") {
        return n.parse().ok().map(Policy::OneIn);
    }
    if let Some(rest) = s.strip_prefix("prob:") {
        let (frac, seed) = rest.split_once(':')?;
        let (num, den) = frac.split_once('/')?;
        return Some(Policy::Prob {
            num: num.parse().ok()?,
            den: den.parse().ok()?,
            seed: seed.parse().ok()?,
        });
    }
    None
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_failpoints_never_fire() {
        let _scope = arm_scope();
        assert!(!fires("test.never.armed"));
        arm("test.other", Policy::Always);
        assert!(!fires("test.never.armed"), "arming one point must not leak");
    }

    #[test]
    fn counting_policies_are_exact() {
        let _scope = arm_scope();
        arm("test.once", Policy::Once);
        assert!(fires("test.once"));
        assert!(!fires("test.once"));

        arm("test.times", Policy::Times(3));
        let hits = (0..10).filter(|_| fires("test.times")).count();
        assert_eq!(hits, 3);

        arm("test.always", Policy::Always);
        assert!((0..50).all(|_| fires("test.always")));
    }

    #[test]
    fn rearming_resets_and_off_disarms() {
        let _scope = arm_scope();
        arm("test.reset", Policy::Once);
        assert!(fires("test.reset"));
        arm("test.reset", Policy::Once);
        assert!(fires("test.reset"), "re-arming must reset the budget");
        arm("test.reset", Policy::Off);
        assert!(!fires("test.reset"));
        assert!(!armed().iter().any(|n| n == "test.reset"));
    }

    #[test]
    fn probabilistic_policies_are_deterministic_and_suppress_retries() {
        let _scope = arm_scope();
        let run = || {
            arm(
                "test.prob",
                Policy::Prob {
                    num: 1,
                    den: 3,
                    seed: 42,
                },
            );
            (0..64).map(|_| fires("test.prob")).collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the same fire pattern");
        assert!(a.iter().any(|&f| f), "1/3 over 64 draws must fire");
        // Suppression: after every fire, the next SUPPRESS_WINDOW evaluations on
        // this thread are quiet — a retry loop shorter than the window always
        // succeeds.
        for (i, fired) in a.iter().enumerate() {
            if *fired {
                let window = &a[i + 1..(i + 1 + SUPPRESS_WINDOW as usize).min(a.len())];
                assert!(
                    window.iter().all(|&f| !f),
                    "fire at draw {i} must suppress the next {SUPPRESS_WINDOW}"
                );
            }
        }
    }

    #[test]
    fn spec_parsing_arms_and_skips_garbage() {
        let _scope = arm_scope();
        arm_from_spec("test.a=always; test.b = times:2 ;garbage;test.c=1in4;test.d=prob:1/5:9;;");
        // Filter to this test's namespace: a chaos CI run arms extra env-driven
        // failpoints that legitimately show up in `armed()` alongside ours.
        let ours: Vec<String> = armed()
            .into_iter()
            .filter(|n| n.starts_with("test."))
            .collect();
        assert_eq!(ours, vec!["test.a", "test.b", "test.c", "test.d"]);
        assert!(fires("test.a"));
        assert_eq!((0..5).filter(|_| fires("test.b")).count(), 2);
        arm_from_spec("test.a=off");
        assert!(!fires("test.a"));
    }

    #[test]
    fn arm_scope_holds_quiet_scopes_back_and_disarms_before_letting_them_in() {
        let scope = arm_scope();
        arm("test.scope", Policy::Always);
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let observer = std::thread::spawn(move || {
            let _quiet = quiet_scope();
            seen_tx.send(fires("test.scope")).unwrap();
        });
        assert!(fires("test.scope"));
        assert!(
            seen_rx.try_recv().is_err(),
            "a quiet scope cannot begin inside an arm scope"
        );
        drop(scope);
        assert!(
            !seen_rx.recv().unwrap(),
            "the observer got in only after the scope disarmed"
        );
        observer.join().unwrap();
    }
}
