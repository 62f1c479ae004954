//! Deterministic fault injection: what can go wrong, and when.
//!
//! The paper's study assumes a perfectly healthy fabric; this module is the
//! other half of the story. A [`FaultPlan`] schedules *link faults*
//! (message drop, duplication, delay spikes) and *device faults* (a crash
//! at a given round with optional rejoin, a transient straggler window)
//! against the simulation, and a [`FaultInjector`] turns the plan into
//! per-message / per-round decisions.
//!
//! Everything is reproducible from the plan's single `u64` seed: link
//! fates are pure functions of `(seed, from, to, link sequence number,
//! attempt)` — a counter-based hash, not a stateful RNG — so the decision
//! for a message does not depend on the order in which the engine happens
//! to process other messages, and a rollback-and-replay run re-rolls fresh
//! fates for re-sent messages (their link sequence numbers keep advancing)
//! instead of deterministically re-hitting the same drop forever.

use crate::clock::SimTime;

/// What the injector decided for one transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFate {
    /// The attempt reaches the receiver, possibly late, possibly twice.
    Deliver {
        /// Extra in-flight latency (a delay spike; `ZERO` normally).
        extra_delay: SimTime,
        /// The network duplicated the packet; the receiver must suppress
        /// the second copy.
        duplicated: bool,
    },
    /// The attempt is lost; the sender's ack timeout will fire.
    Drop,
}

/// A device crash scheduled at a specific round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashSpec {
    /// Device that dies.
    pub device: u32,
    /// Round at which it dies (global round under BSP, the device's local
    /// round ordinal under BASP).
    pub round: u32,
    /// `true`: the device restarts from the last checkpoint and execution
    /// replays (rollback recovery). `false`: the device stays dead and its
    /// partition is permanently re-homed onto a surviving device
    /// (graceful degradation).
    pub rejoin: bool,
}

/// A transient slowdown window on one device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerSpec {
    /// Device that slows down.
    pub device: u32,
    /// First affected round.
    pub from_round: u32,
    /// Number of affected rounds.
    pub rounds: u32,
    /// Compute-time multiplier while affected (e.g. `4.0` = 4× slower).
    pub factor: f64,
}

/// A complete, seeded fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed all link-fate decisions derive from.
    pub seed: u64,
    /// Per-attempt message drop probability in `[0, 1)`.
    pub drop: f64,
    /// Per-delivery duplication probability in `[0, 1)`.
    pub duplicate: f64,
    /// Per-delivery delay-spike probability in `[0, 1)`.
    pub delay: f64,
    /// Delay-spike magnitude in seconds.
    pub delay_secs: f64,
    /// Optional device crash.
    pub crash: Option<CrashSpec>,
    /// Optional straggler window.
    pub straggler: Option<StragglerSpec>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever — the default of
    /// `RunConfig::faults`. Under it every message takes one attempt, and
    /// a send to a live receiver costs one [`crate::NetModel::send`].
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_secs: 0.0,
            crash: None,
            straggler: None,
        }
    }

    /// An empty plan carrying `seed` (convenient base for builders).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// True when the plan schedules nothing.
    pub fn is_none(&self) -> bool {
        !self.has_link_faults() && self.crash.is_none() && self.straggler.is_none()
    }

    /// True when some message may be dropped, duplicated or delayed.
    pub fn has_link_faults(&self) -> bool {
        self.drop != 0.0 || self.duplicate != 0.0 || self.delay != 0.0
    }

    /// Sets the drop probability (builder style).
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop = p;
        self
    }

    /// Sets the duplication probability (builder style).
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        self.duplicate = p;
        self
    }

    /// Sets the delay-spike probability and magnitude (builder style).
    pub fn with_delay(mut self, p: f64, secs: f64) -> FaultPlan {
        self.delay = p;
        self.delay_secs = secs;
        self
    }

    /// Schedules a crash (builder style).
    pub fn with_crash(mut self, device: u32, round: u32, rejoin: bool) -> FaultPlan {
        self.crash = Some(CrashSpec {
            device,
            round,
            rejoin,
        });
        self
    }

    /// Schedules a straggler window (builder style).
    pub fn with_straggler(
        mut self,
        device: u32,
        from_round: u32,
        rounds: u32,
        factor: f64,
    ) -> FaultPlan {
        self.straggler = Some(StragglerSpec {
            device,
            from_round,
            rounds,
            factor,
        });
        self
    }

    /// Parses a `--faults` spec: comma-separated `key=value` pairs.
    ///
    /// ```text
    /// seed=42,drop=0.05,dup=0.01,delay=0.02,delay_ms=5,crash=3@5+rejoin
    /// seed=7,drop=0.2,crash=1@4,straggler=2@3:4x8
    /// ```
    ///
    /// * `seed=U` — decision seed (default 0);
    /// * `drop=P` / `dup=P` / `delay=P` — probabilities in `[0, 1)`;
    /// * `delay_ms=X` — delay-spike magnitude (default 5 ms);
    /// * `crash=DEV@ROUND[+rejoin]` — crash `DEV` at `ROUND`; with
    ///   `+rejoin` it restarts from the last checkpoint, without it its
    ///   masters are reassigned to a survivor;
    /// * `straggler=DEV@ROUND:NxF` — slow `DEV` by `F`× for `N` rounds
    ///   starting at `ROUND`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        plan.delay_secs = 0.005;
        for part in spec.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item '{part}' is not key=value"))?;
            let prob = |what: &str, v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("{what} needs a number, got '{v}'"))?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("{what} must be in [0, 1), got {p}"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("seed needs a u64, got '{value}'"))?;
                }
                "drop" => plan.drop = prob("drop", value)?,
                "dup" => plan.duplicate = prob("dup", value)?,
                "delay" => plan.delay = prob("delay", value)?,
                "delay_ms" => {
                    let ms: f64 = value
                        .parse()
                        .map_err(|_| format!("delay_ms needs a number, got '{value}'"))?;
                    if ms < 0.0 {
                        return Err(format!("delay_ms must be non-negative, got {ms}"));
                    }
                    plan.delay_secs = ms / 1e3;
                }
                "crash" => {
                    let (body, rejoin) = match value.strip_suffix("+rejoin") {
                        Some(b) => (b, true),
                        None => (value, false),
                    };
                    let (dev, round) = body
                        .split_once('@')
                        .ok_or_else(|| format!("crash needs DEV@ROUND[+rejoin], got '{value}'"))?;
                    plan.crash = Some(CrashSpec {
                        device: dev
                            .parse()
                            .map_err(|_| format!("crash device must be a u32, got '{dev}'"))?,
                        round: round
                            .parse()
                            .map_err(|_| format!("crash round must be a u32, got '{round}'"))?,
                        rejoin,
                    });
                }
                "straggler" => {
                    let err = || format!("straggler needs DEV@ROUND:NxF, got '{value}'");
                    let (dev, rest) = value.split_once('@').ok_or_else(err)?;
                    let (round, rest) = rest.split_once(':').ok_or_else(err)?;
                    let (n, factor) = rest.split_once('x').ok_or_else(err)?;
                    plan.straggler = Some(StragglerSpec {
                        device: dev.parse().map_err(|_| err())?,
                        from_round: round.parse().map_err(|_| err())?,
                        rounds: n.parse().map_err(|_| err())?,
                        factor: factor.parse().map_err(|_| err())?,
                    });
                }
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        Ok(plan)
    }
}

/// Retry policy of the reliable transport.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryConfig {
    /// Base ack timeout in seconds (first retransmission fires this long
    /// after the attempt left the sending host).
    pub timeout_secs: f64,
    /// Multiplier applied to the timeout per retry (exponential backoff).
    pub backoff: f64,
    /// Maximum number of retransmissions before the sender gives up and
    /// declares the peer unreachable.
    pub max_retries: u32,
}

/// The transport's retry ladder, a protocol constant of every run: a 2 ms
/// first ack timeout — well above the ~0.5 ms cross-host RTT of both
/// modelled clusters, well below any round's compute time at full scale —
/// doubling over 5 retransmissions.
pub const RETRY_LADDER: RetryConfig = RetryConfig {
    timeout_secs: 2e-3,
    backoff: 2.0,
    max_retries: 5,
};

impl RetryConfig {
    /// Total waiting time across the whole retry ladder — how long after
    /// the first attempt a sender declares the receiver dead. This is also
    /// the failure-detection latency charged when a device misses a BSP
    /// barrier entirely.
    pub fn give_up_after(&self) -> SimTime {
        let mut total = 0.0;
        let mut t = self.timeout_secs;
        for _ in 0..=self.max_retries {
            total += t;
            t *= self.backoff;
        }
        SimTime::from_secs_f64(total)
    }
}

/// Counters of everything the fault layer injected and the reliable
/// transport absorbed. Lives in the execution report so a run's resilience
/// story is visible next to its timing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultCounters {
    /// Transmission attempts the injector dropped.
    pub drops_injected: u64,
    /// Deliveries the injector duplicated.
    pub duplicates_injected: u64,
    /// Deliveries the injector delayed.
    pub delays_injected: u64,
    /// Ack timeouts that fired on senders.
    pub timeouts: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Duplicate copies the receiver suppressed by sequence number.
    pub duplicates_suppressed: u64,
    /// Messages abandoned after the full retry budget (each one triggers
    /// recovery at the engine level).
    pub delivery_failures: u64,
}

impl FaultCounters {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.drops_injected += other.drops_injected;
        self.duplicates_injected += other.duplicates_injected;
        self.delays_injected += other.delays_injected;
        self.timeouts += other.timeouts;
        self.retransmits += other.retransmits;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.delivery_failures += other.delivery_failures;
    }

    /// True when any fault was injected or absorbed.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }
}

/// Turns a [`FaultPlan`] into per-message and per-round decisions.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
}

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A uniform draw in `[0, 1)`, keyed by the message's identity — pure,
    /// order-independent, reproducible.
    fn unit(&self, tag: u64, from: u32, to: u32, seq: u64, attempt: u32) -> f64 {
        let mut h = mix64(self.plan.seed ^ tag);
        h = mix64(h ^ ((from as u64) << 32 | to as u64));
        h = mix64(h ^ seq);
        h = mix64(h ^ attempt as u64);
        // 53 mantissa bits -> [0, 1).
        (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Decides the fate of attempt `attempt` of message `seq` on the link
    /// `from → to`.
    pub fn link_fate(&self, from: u32, to: u32, seq: u64, attempt: u32) -> LinkFate {
        let p = &self.plan;
        if !p.has_link_faults() {
            return LinkFate::Deliver {
                extra_delay: SimTime::ZERO,
                duplicated: false,
            };
        }
        if p.drop > 0.0 && self.unit(0xD607, from, to, seq, attempt) < p.drop {
            return LinkFate::Drop;
        }
        let duplicated =
            p.duplicate > 0.0 && self.unit(0xD0B1, from, to, seq, attempt) < p.duplicate;
        let extra_delay = if p.delay > 0.0 && self.unit(0xDE1A, from, to, seq, attempt) < p.delay {
            SimTime::from_secs_f64(p.delay_secs)
        } else {
            SimTime::ZERO
        };
        LinkFate::Deliver {
            extra_delay,
            duplicated,
        }
    }

    /// True when `device` is scheduled to crash at `round`.
    pub fn crash_due(&self, device: u32, round: u32) -> bool {
        self.plan
            .crash
            .map(|c| c.device == device && c.round == round)
            .unwrap_or(false)
    }

    /// Compute-time multiplier for `device` at `round` (1.0 = healthy).
    pub fn slowdown(&self, device: u32, round: u32) -> f64 {
        match self.plan.straggler {
            Some(s)
                if s.device == device
                    && round >= s.from_round
                    && round < s.from_round.saturating_add(s.rounds) =>
            {
                s.factor
            }
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_always_delivers() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let inj = FaultInjector::new(plan);
        for seq in 0..100 {
            assert_eq!(
                inj.link_fate(0, 1, seq, 0),
                LinkFate::Deliver {
                    extra_delay: SimTime::ZERO,
                    duplicated: false
                }
            );
        }
    }

    #[test]
    fn fates_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::seeded(1).with_drop(0.3));
        let b = FaultInjector::new(FaultPlan::seeded(1).with_drop(0.3));
        let c = FaultInjector::new(FaultPlan::seeded(2).with_drop(0.3));
        let fates = |inj: &FaultInjector| -> Vec<LinkFate> {
            (0..256).map(|s| inj.link_fate(0, 1, s, 0)).collect()
        };
        assert_eq!(fates(&a), fates(&b), "same seed, same fates");
        assert_ne!(fates(&a), fates(&c), "different seed, different fates");
        let drops = fates(&a)
            .iter()
            .filter(|f| matches!(f, LinkFate::Drop))
            .count();
        // 30% of 256 with generous slack.
        assert!((40..120).contains(&drops), "drop count {drops}");
    }

    #[test]
    fn fresh_attempts_reroll_the_fate() {
        // A dropped attempt must not deterministically drop again on the
        // retransmission, or no retry budget would ever suffice.
        let inj = FaultInjector::new(FaultPlan::seeded(9).with_drop(0.5));
        let differs = (0..64).any(|seq| {
            let a = inj.link_fate(2, 3, seq, 0);
            let b = inj.link_fate(2, 3, seq, 1);
            a != b
        });
        assert!(differs);
    }

    #[test]
    fn crash_and_straggler_windows() {
        let inj = FaultInjector::new(
            FaultPlan::seeded(0)
                .with_crash(3, 5, true)
                .with_straggler(1, 2, 3, 4.0),
        );
        assert!(inj.crash_due(3, 5));
        assert!(!inj.crash_due(3, 4));
        assert!(!inj.crash_due(2, 5));
        assert_eq!(inj.slowdown(1, 1), 1.0);
        assert_eq!(inj.slowdown(1, 2), 4.0);
        assert_eq!(inj.slowdown(1, 4), 4.0);
        assert_eq!(inj.slowdown(1, 5), 1.0);
        assert_eq!(inj.slowdown(0, 3), 1.0);
    }

    #[test]
    fn parse_roundtrip_and_errors() {
        let p =
            FaultPlan::parse("seed=42,drop=0.05,dup=0.01,delay=0.02,delay_ms=7,crash=3@5+rejoin")
                .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.drop, 0.05);
        assert_eq!(p.duplicate, 0.01);
        assert_eq!(p.delay, 0.02);
        assert!((p.delay_secs - 7e-3).abs() < 1e-12);
        assert_eq!(
            p.crash,
            Some(CrashSpec {
                device: 3,
                round: 5,
                rejoin: true
            })
        );

        let p = FaultPlan::parse("crash=1@4,straggler=2@3:4x8").unwrap();
        assert_eq!(
            p.crash,
            Some(CrashSpec {
                device: 1,
                round: 4,
                rejoin: false
            })
        );
        assert_eq!(
            p.straggler,
            Some(StragglerSpec {
                device: 2,
                from_round: 3,
                rounds: 4,
                factor: 8.0
            })
        );

        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("crash=17").is_err());
        assert!(FaultPlan::parse("drop").is_err());
    }

    #[test]
    fn retry_ladder_sums_the_backoff() {
        // 2 + 4 + 8 + 16 + 32 + 64 ms.
        assert_eq!(RETRY_LADDER.give_up_after(), SimTime::from_secs_f64(126e-3));
    }
}
