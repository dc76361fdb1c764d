//! Deterministic fault injection for chaos testing the serving fleet.
//!
//! A [`FaultPlan`] is a seeded probability table parsed from a compact spec
//! string (CLI `--faults` / `CLARA_FAULTS` env), e.g.
//! `seed=7,drop=0.02,close=0.01,garble=0.02,delay=0.1,delay_ms=5`. The
//! TCP front door ([`crate::net`]) consults one [`FaultInjector`], shared
//! by all its connections, once per parsed NDJSON feedback request and
//! applies the drawn [`FaultAction`] *before* the request reaches the
//! backend (stats and metrics probes are exempt):
//!
//! * `drop` — swallow the request; the client sees silence and must rely on
//!   its timeout + retry,
//! * `close` — slam the connection shut, exercising reconnect paths,
//! * `garble` — answer with a non-JSON line, exercising parse-failure
//!   handling in routers and clients,
//! * `delay` — hold the request back `delay_ms` before processing,
//!   exercising deadline propagation; later requests on the same
//!   connection are not held up.
//!
//! Decisions come from a [`SplitMix64`] stream owned by the injector, so a
//! given `(seed, request sequence)` replays the exact same fault schedule —
//! chaos failures reproduce under the same seed. With several connections
//! the sequence is the order in which their requests reach the injector.

use std::fmt;
use std::time::Duration;

use crate::retry::SplitMix64;

/// What the fault layer does to one incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: process normally.
    None,
    /// Discard the request without replying.
    Drop,
    /// Close the connection without replying.
    Close,
    /// Reply with a garbage (non-JSON) line.
    Garble,
    /// Delay processing by the contained duration.
    Delay(Duration),
}

/// A seeded fault-probability table (see module docs for the spec syntax).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; identical seeds replay identical fault schedules.
    pub seed: u64,
    /// Probability a request is silently dropped.
    pub drop: f64,
    /// Probability the connection is closed without a reply.
    pub close: f64,
    /// Probability the reply is a garbage line.
    pub garble: f64,
    /// Probability a request is delayed by `delay_ms`.
    pub delay: f64,
    /// Length of an injected delay, in milliseconds.
    pub delay_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { seed: 0, drop: 0.0, close: 0.0, garble: 0.0, delay: 0.0, delay_ms: 5 }
    }
}

/// Error parsing a fault-plan spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fault plan {:?}: expected comma-separated seed=N, delay_ms=N, \
             and drop/close/garble/delay=P with P in [0,1]",
            self.0
        )
    }
}

impl std::error::Error for FaultPlanError {}

impl std::str::FromStr for FaultPlan {
    type Err = FaultPlanError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let err = || FaultPlanError(spec.to_string());
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(err)?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| err())?,
                "delay_ms" => plan.delay_ms = value.parse().map_err(|_| err())?,
                "drop" | "close" | "garble" | "delay" => {
                    let p: f64 = value.parse().map_err(|_| err())?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(err());
                    }
                    match key {
                        "drop" => plan.drop = p,
                        "close" => plan.close = p,
                        "garble" => plan.garble = p,
                        _ => plan.delay = p,
                    }
                }
                _ => return Err(err()),
            }
        }
        Ok(plan)
    }
}

impl FaultPlan {
    /// `true` when every fault probability is zero.
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.close == 0.0 && self.garble == 0.0 && self.delay == 0.0
    }

    /// The injector drawing this plan's fault schedule.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector { plan: *self, rng: SplitMix64::new(self.seed), injected: 0 }
    }
}

/// Draws per-request [`FaultAction`]s from a [`FaultPlan`]'s seeded stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    injected: u64,
}

impl FaultInjector {
    /// The action for the next request. Fault classes are checked in a fixed
    /// order (drop, close, garble, delay) against one uniform draw, so the
    /// per-request fault probability is their sum (capped at 1).
    pub fn decide(&mut self) -> FaultAction {
        let draw = self.rng.next_f64();
        let ladder = [
            (self.plan.drop, FaultAction::Drop),
            (self.plan.close, FaultAction::Close),
            (self.plan.garble, FaultAction::Garble),
            (self.plan.delay, FaultAction::Delay(Duration::from_millis(self.plan.delay_ms))),
        ];
        let mut threshold = 0.0;
        for (p, action) in ladder {
            threshold += p;
            if draw < threshold {
                self.injected += 1;
                return action;
            }
        }
        FaultAction::None
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_validate() {
        let plan: FaultPlan = "seed=7,drop=0.25,close=0.1,garble=0.05,delay=0.2,delay_ms=12".parse().unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.delay_ms, 12);
        assert!((plan.drop - 0.25).abs() < 1e-9);
        assert!(!plan.is_noop());

        assert!("".parse::<FaultPlan>().unwrap().is_noop());
        assert!("seed=3".parse::<FaultPlan>().unwrap().is_noop());
        for bad in ["drop=1.5", "drop=-0.1", "bogus=1", "drop", "drop=x", "seed=-1"] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn schedule_is_deterministic_under_a_seed() {
        let plan: FaultPlan = "seed=42,drop=0.2,close=0.2,garble=0.2,delay=0.2".parse().unwrap();
        let mut a = plan.injector();
        let mut b = plan.injector();
        let xs: Vec<FaultAction> = (0..256).map(|_| a.decide()).collect();
        let ys: Vec<FaultAction> = (0..256).map(|_| b.decide()).collect();
        assert_eq!(xs, ys);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0);
    }

    #[test]
    fn rates_land_near_their_probabilities() {
        let plan: FaultPlan = "seed=1,drop=0.1,close=0.1,garble=0.1,delay=0.1,delay_ms=3".parse().unwrap();
        let mut injector = plan.injector();
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            let slot = match injector.decide() {
                FaultAction::None => 0,
                FaultAction::Drop => 1,
                FaultAction::Close => 2,
                FaultAction::Garble => 3,
                FaultAction::Delay(d) => {
                    assert_eq!(d, Duration::from_millis(3));
                    4
                }
            };
            counts[slot] += 1;
        }
        assert!((5_500..=6_500).contains(&counts[0]), "none: {counts:?}");
        for (name, count) in ["drop", "close", "garble", "delay"].iter().zip(&counts[1..]) {
            assert!((700..=1_300).contains(count), "{name} rate off: {counts:?}");
        }
    }

    #[test]
    fn noop_plan_never_injects() {
        let mut injector = FaultPlan::default().injector();
        for _ in 0..1_000 {
            assert_eq!(injector.decide(), FaultAction::None);
        }
        assert_eq!(injector.injected(), 0);
    }
}
