//! Deterministic fault injection for the data plane.
//!
//! A [`FaultPlan`] describes stochastic impairments — per-link probe and
//! response loss, bursty ICMP storms on a subset of routers, link flaps
//! with down-windows on the simulated clock, and periodic intra-AS
//! reroute events. Every draw is a *pure function* of
//! `(seed, domain, entity id, probe identity, time bucket)` hashed
//! through splitmix64: no mutable state, so draws are thread-safe and a
//! run with the same seed and probe sequence replays byte-identically.
//!
//! Keying loss on a coarse time bucket (rather than the exact
//! millisecond) makes loss *episodic*: a probe retried immediately sees
//! the same outcome, while a retry backed off past the bucket boundary
//! gets a fresh draw — which is exactly the behaviour the probe engine's
//! retry/backoff logic is built to exploit.
//!
//! A plan with every rate at zero is a no-op and is never consulted, so
//! the fault layer costs nothing and changes nothing when disabled.

use crate::packet::Probe;
use bdrmap_types::{splitmix64, LinkId, RouterId};

/// Domain separators so draws for different fault kinds never collide.
mod domain {
    pub const PROBE_LOSS: u64 = 1;
    pub const RESPONSE_LOSS: u64 = 2;
    pub const STORM_MEMBER: u64 = 3;
    pub const STORM_PHASE: u64 = 4;
    pub const FLAP_MEMBER: u64 = 5;
    pub const FLAP_PHASE: u64 = 6;
    pub const REROUTE: u64 = 7;
}

/// Bursty ICMP suppression on a subset of routers: a storming router
/// generates no error ICMP (time-exceeded / unreachable) during its
/// burst window each period, as if its control plane were saturated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StormPlan {
    /// Fraction of routers that storm (chosen deterministically from
    /// the seed).
    pub router_frac: f64,
    /// Cycle length on the simulated clock (ms).
    pub period_ms: u64,
    /// Length of the suppression burst within each cycle (ms).
    pub burst_ms: u64,
}

impl Default for StormPlan {
    fn default() -> StormPlan {
        StormPlan {
            router_frac: 0.1,
            period_ms: 60_000,
            burst_ms: 5_000,
        }
    }
}

/// Link flaps: affected links drop everything crossing them during a
/// down-window each period.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlapPlan {
    /// Fraction of links that flap.
    pub link_frac: f64,
    /// Cycle length on the simulated clock (ms).
    pub period_ms: u64,
    /// Length of the down-window within each cycle (ms).
    pub down_ms: u64,
}

impl Default for FlapPlan {
    fn default() -> FlapPlan {
        FlapPlan {
            link_frac: 0.05,
            period_ms: 120_000,
            down_ms: 10_000,
        }
    }
}

/// Periodic intra-AS reroute events: each epoch re-salts the per-flow
/// hash, so ECMP and hot-potato tie-breaks re-converge mid-run the way
/// IGP events shift real paths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReroutePlan {
    /// Epoch length on the simulated clock (ms).
    pub period_ms: u64,
}

impl Default for ReroutePlan {
    fn default() -> ReroutePlan {
        ReroutePlan { period_ms: 300_000 }
    }
}

/// A complete fault configuration. `FaultPlan::none()` (or any plan
/// with all rates zero) is inert: the data plane skips the fault layer
/// entirely and behaves bit-for-bit as an unfaulted build.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every draw; two runs with the same seed and probe
    /// sequence see identical faults.
    pub seed: u64,
    /// Probability a probe is dropped crossing any single link (drawn
    /// once per link crossed, per time bucket).
    pub probe_loss: f64,
    /// Probability a generated response is lost on the way back.
    pub response_loss: f64,
    /// Width of the loss-episode time bucket (ms). Draws within one
    /// bucket repeat; crossing the boundary refreshes them.
    pub bucket_ms: u64,
    /// Bursty ICMP storms, if enabled.
    pub storm: Option<StormPlan>,
    /// Link flaps, if enabled.
    pub flap: Option<FlapPlan>,
    /// Mid-run reroute epochs, if enabled.
    pub reroute: Option<ReroutePlan>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: no loss, no storms, no flaps, no reroutes.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            probe_loss: 0.0,
            response_loss: 0.0,
            bucket_ms: 250,
            storm: None,
            flap: None,
            reroute: None,
        }
    }

    /// Uniform probe + response loss at rate `loss`.
    pub fn with_loss(seed: u64, loss: f64) -> FaultPlan {
        FaultPlan {
            seed,
            probe_loss: loss,
            response_loss: loss,
            ..FaultPlan::none()
        }
    }

    /// True when the plan can never alter any probe outcome.
    pub fn is_noop(&self) -> bool {
        self.probe_loss <= 0.0
            && self.response_loss <= 0.0
            && self
                .storm
                .is_none_or(|s| s.router_frac <= 0.0 || s.burst_ms == 0)
            && self
                .flap
                .is_none_or(|f| f.link_frac <= 0.0 || f.down_ms == 0)
            && self.reroute.is_none()
    }

    /// A uniform draw in `[0, 1)` keyed on the seed, a domain tag, and
    /// up to three identity words.
    fn uniform(&self, tag: u64, a: u64, b: u64, c: u64) -> f64 {
        let mut state = self.seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93);
        state ^= splitmix64(&mut state) ^ a;
        state ^= splitmix64(&mut state) ^ b;
        state ^= splitmix64(&mut state) ^ c;
        let v = splitmix64(&mut state);
        (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A raw 64-bit key for phase offsets.
    fn key(&self, tag: u64, id: u64) -> u64 {
        let mut state = self.seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ id;
        splitmix64(&mut state)
    }

    /// The loss-episode bucket of an instant.
    fn bucket(&self, time_ms: u64) -> u64 {
        time_ms / self.bucket_ms.max(1)
    }

    /// Identity of a probe for loss draws: destination, TTL and flow.
    /// Retries of the *same* probe within one bucket repeat the draw;
    /// backing off past the bucket boundary refreshes it.
    fn probe_word(p: &Probe) -> u64 {
        (u32::from(p.dst) as u64) << 32 | (p.ttl as u64) << 16 | p.flow as u64
    }

    /// Is this probe dropped crossing `link` at its stamped time?
    /// Covers both stochastic loss and flap down-windows.
    pub fn drops_probe(&self, link: LinkId, p: &Probe) -> bool {
        if self.link_down(link, p.time_ms) {
            return true;
        }
        self.probe_loss > 0.0
            && self.uniform(
                domain::PROBE_LOSS,
                link.0 as u64,
                Self::probe_word(p),
                self.bucket(p.time_ms),
            ) < self.probe_loss
    }

    /// Is the response to this probe lost on the return path?
    pub fn drops_response(&self, p: &Probe) -> bool {
        self.response_loss > 0.0
            && self.uniform(
                domain::RESPONSE_LOSS,
                Self::probe_word(p),
                self.bucket(p.time_ms),
                0,
            ) < self.response_loss
    }

    /// Is `link` inside a flap down-window at `time_ms`?
    pub fn link_down(&self, link: LinkId, time_ms: u64) -> bool {
        let Some(f) = self.flap else { return false };
        if f.link_frac <= 0.0 || f.down_ms == 0 || f.period_ms == 0 {
            return false;
        }
        if self.uniform(domain::FLAP_MEMBER, link.0 as u64, 0, 0) >= f.link_frac {
            return false;
        }
        // Per-link phase so the fleet doesn't flap in lockstep.
        let phase = self.key(domain::FLAP_PHASE, link.0 as u64) % f.period_ms;
        (time_ms + phase) % f.period_ms < f.down_ms
    }

    /// Is `router` suppressing error ICMP in a storm burst at `time_ms`?
    pub fn storm_suppresses(&self, router: RouterId, time_ms: u64) -> bool {
        let Some(s) = self.storm else { return false };
        if s.router_frac <= 0.0 || s.burst_ms == 0 || s.period_ms == 0 {
            return false;
        }
        if self.uniform(domain::STORM_MEMBER, router.0 as u64, 0, 0) >= s.router_frac {
            return false;
        }
        let phase = self.key(domain::STORM_PHASE, router.0 as u64) % s.period_ms;
        (time_ms + phase) % s.period_ms < s.burst_ms
    }

    /// The flow salt of the reroute epoch containing `time_ms`; zero
    /// when reroutes are disabled (and for epoch 0, so short runs match
    /// the unfaulted baseline).
    pub fn flow_salt(&self, time_ms: u64) -> u16 {
        let Some(r) = self.reroute else { return 0 };
        if r.period_ms == 0 {
            return 0;
        }
        let epoch = time_ms / r.period_ms;
        if epoch == 0 {
            return 0;
        }
        (self.key(domain::REROUTE, epoch) & 0xffff) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ProbeKind;
    use bdrmap_types::addr;

    fn probe(dst: u32, ttl: u8, flow: u16, time_ms: u64) -> Probe {
        Probe {
            src: addr(0x0a00_0001),
            dst: addr(dst),
            ttl,
            flow,
            kind: ProbeKind::IcmpEcho,
            time_ms,
        }
    }

    #[test]
    fn noop_plan_never_faults() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        let p = probe(0x0102_0304, 5, 7, 123);
        assert!(!plan.drops_probe(LinkId(9), &p));
        assert!(!plan.drops_response(&p));
        assert!(!plan.storm_suppresses(RouterId(3), 123));
        assert_eq!(plan.flow_salt(123), 0);
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = FaultPlan::with_loss(42, 0.3);
        let b = FaultPlan::with_loss(42, 0.3);
        for t in (0..20_000).step_by(173) {
            let p = probe(0x0102_0304 + t as u32, (t % 30) as u8 + 1, 7, t);
            for l in 0..32 {
                assert_eq!(a.drops_probe(LinkId(l), &p), b.drops_probe(LinkId(l), &p));
            }
            assert_eq!(a.drops_response(&p), b.drops_response(&p));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::with_loss(1, 0.5);
        let b = FaultPlan::with_loss(2, 0.5);
        let mut differ = false;
        for t in 0..256 {
            let p = probe(0x0102_0304 + t, 8, 7, t as u64 * 300);
            if a.drops_probe(LinkId(1), &p) != b.drops_probe(LinkId(1), &p) {
                differ = true;
                break;
            }
        }
        assert!(differ, "seeds 1 and 2 drew identical loss patterns");
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let plan = FaultPlan::with_loss(7, 0.2);
        let mut dropped = 0;
        let n = 10_000;
        for i in 0..n {
            let p = probe(0x0102_0304 + i, (i % 30) as u8 + 1, i as u16, i as u64 * 7);
            if plan.drops_probe(LinkId(i % 64), &p) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "observed loss {rate}");
    }

    #[test]
    fn draws_are_stable_within_a_bucket_and_refresh_across() {
        let plan = FaultPlan {
            seed: 3,
            probe_loss: 0.5,
            bucket_ms: 1000,
            ..FaultPlan::none()
        };
        // Identical probe within one bucket: identical outcome.
        let p1 = probe(0x0102_0304, 8, 7, 100);
        let p2 = probe(0x0102_0304, 8, 7, 900);
        assert_eq!(
            plan.drops_probe(LinkId(5), &p1),
            plan.drops_probe(LinkId(5), &p2)
        );
        // Across buckets the draws eventually differ.
        let mut differ = false;
        for b in 1..64 {
            let q = probe(0x0102_0304, 8, 7, b * 1000 + 100);
            if plan.drops_probe(LinkId(5), &q) != plan.drops_probe(LinkId(5), &p1) {
                differ = true;
                break;
            }
        }
        assert!(differ, "bucket boundary never refreshed the draw");
    }

    #[test]
    fn flap_windows_are_periodic_and_link_scoped() {
        let plan = FaultPlan {
            seed: 11,
            flap: Some(FlapPlan {
                link_frac: 1.0,
                period_ms: 1000,
                down_ms: 200,
            }),
            ..FaultPlan::none()
        };
        let link = LinkId(4);
        let downs: Vec<u64> = (0..5000).filter(|&t| plan.link_down(link, t)).collect();
        assert_eq!(downs.len(), 5 * 200, "one 200 ms window per period");
        // Periodicity: the pattern repeats each period.
        for &t in downs.iter().take(200) {
            assert!(plan.link_down(link, t + 1000));
        }
        // A non-member fraction keeps some links up.
        let sparse = FaultPlan {
            flap: Some(FlapPlan {
                link_frac: 0.3,
                ..plan.flap.unwrap()
            }),
            ..plan.clone()
        };
        let members = (0..200)
            .filter(|&l| (0..1000).any(|t| sparse.link_down(LinkId(l), t)))
            .count();
        assert!(
            (20..120).contains(&members),
            "~30% of links should flap, got {members}/200"
        );
    }

    #[test]
    fn storm_bursts_only_on_member_routers() {
        let plan = FaultPlan {
            seed: 13,
            storm: Some(StormPlan {
                router_frac: 0.5,
                period_ms: 1000,
                burst_ms: 300,
            }),
            ..FaultPlan::none()
        };
        let mut member = 0;
        for r in 0..100 {
            let storms = (0..1000).any(|t| plan.storm_suppresses(RouterId(r), t));
            if storms {
                member += 1;
                let count = (0..1000)
                    .filter(|&t| plan.storm_suppresses(RouterId(r), t))
                    .count();
                assert_eq!(count, 300, "burst width for router {r}");
            }
        }
        assert!((30..70).contains(&member), "~50 routers, got {member}");
    }

    #[test]
    fn reroute_salt_is_zero_in_first_epoch_and_stable_within_epochs() {
        let plan = FaultPlan {
            seed: 17,
            reroute: Some(ReroutePlan { period_ms: 1000 }),
            ..FaultPlan::none()
        };
        assert_eq!(plan.flow_salt(0), 0);
        assert_eq!(plan.flow_salt(999), 0);
        let s1 = plan.flow_salt(1500);
        assert_eq!(s1, plan.flow_salt(1999));
        let mut seen = std::collections::BTreeSet::new();
        for e in 1..20 {
            seen.insert(plan.flow_salt(e * 1000 + 1));
        }
        assert!(seen.len() > 10, "epoch salts should vary: {seen:?}");
    }
}
