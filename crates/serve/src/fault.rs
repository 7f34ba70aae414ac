//! Deterministic fault injection for the crash-recovery test harness.
//!
//! A [`FaultPlan`] decides, purely as a function of `(seed, fault
//! kind, event number)`, whether a given event fails: the mutator
//! panics before or mid-way through batch `seq`, a reply frame is
//! dropped or delayed, a replication link is severed mid-segment, a
//! follower crashes mid-replay or silently corrupts its warm state.
//! Determinism matters twice over — a failing test
//! reproduces from its seed alone, and a recovered process driven by
//! the *same* plan re-injects the *same* faults, so the
//! bit-identical-recovery property can be asserted even under
//! repeated, planned failure.
//!
//! Decisions hash through SplitMix64 (no shared RNG state, so
//! concurrent connection threads never contend or perturb each
//! other's draws).

use std::time::Duration;

/// SplitMix64: a tiny, high-quality 64-bit mixer. Also used for client
/// retry jitter, keeping the serve crate free of RNG dependencies
/// outside dev-tests.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, kind: u64, event: u64) -> f64 {
    let h = splitmix64(seed ^ kind.wrapping_mul(0xA076_1D64_78BD_642F) ^ event);
    // 53 mantissa bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const KIND_PANIC: u64 = 1;
const KIND_PANIC_MID: u64 = 2;
const KIND_DROP: u64 = 3;
const KIND_DELAY: u64 = 4;
const KIND_STALL: u64 = 5;
const KIND_LINK_DROP: u64 = 6;
const KIND_FOLLOWER_CRASH: u64 = 7;
const KIND_ACK_DELAY: u64 = 8;
const KIND_CORRUPT: u64 = 9;
const KIND_PROBE_DELAY: u64 = 10;
const KIND_VIEW_PANIC: u64 = 11;

/// A seeded, deterministic schedule of injected faults. The default
/// ([`FaultPlan::none`]) injects nothing and costs one branch per
/// check.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    mutator_panic_rate: f64,
    mutator_panic_mid_rate: f64,
    drop_reply_rate: f64,
    delay_reply_rate: f64,
    delay: Duration,
    mutator_stall_rate: f64,
    stall: Duration,
    link_drop_rate: f64,
    follower_crash_rate: f64,
    ack_delay_rate: f64,
    ack_delay: Duration,
    corrupt_state_rate: f64,
    probe_delay_rate: f64,
    probe_delay: Duration,
    view_panic_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults, ever.
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// A plan with the given seed and no faults enabled yet; chain the
    /// `with_*` builders to arm specific kinds.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            mutator_panic_rate: 0.0,
            mutator_panic_mid_rate: 0.0,
            drop_reply_rate: 0.0,
            delay_reply_rate: 0.0,
            delay: Duration::ZERO,
            mutator_stall_rate: 0.0,
            stall: Duration::ZERO,
            link_drop_rate: 0.0,
            follower_crash_rate: 0.0,
            ack_delay_rate: 0.0,
            ack_delay: Duration::ZERO,
            corrupt_state_rate: 0.0,
            probe_delay_rate: 0.0,
            probe_delay: Duration::ZERO,
            view_panic_rate: 0.0,
        }
    }

    /// Panic the mutator *before* applying a batch, at this rate.
    pub fn with_mutator_panics(mut self, rate: f64) -> FaultPlan {
        self.mutator_panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Panic the mutator *mid-batch* (after the batch reached some
    /// pipelines but not all), at this rate.
    pub fn with_mid_batch_panics(mut self, rate: f64) -> FaultPlan {
        self.mutator_panic_mid_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Silently drop reply frames at this rate (the connection is
    /// closed instead, as a crashed peer would).
    pub fn with_dropped_replies(mut self, rate: f64) -> FaultPlan {
        self.drop_reply_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Delay reply frames by `delay` at this rate.
    pub fn with_delayed_replies(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.delay_reply_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Stall the mutator for `stall` before applying a batch, at this
    /// rate — models a slow mutator so bounded-staleness rejection can
    /// be exercised deterministically.
    pub fn with_mutator_stalls(mut self, rate: f64, stall: Duration) -> FaultPlan {
        self.mutator_stall_rate = rate.clamp(0.0, 1.0);
        self.stall = stall;
        self
    }

    /// Sever the replication link mid-segment (the follower applies a
    /// prefix of the segment, then the connection dies), at this rate
    /// per shipped segment.
    pub fn with_link_drops(mut self, rate: f64) -> FaultPlan {
        self.link_drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Crash the follower mid-replay (it loses all in-memory state and
    /// re-bootstraps from the primary's checkpoint), at this rate per
    /// shipped segment.
    pub fn with_follower_crashes(mut self, rate: f64) -> FaultPlan {
        self.follower_crash_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Delay follower acks by `delay` at this rate — models a slow
    /// replication link so ack-clamped WAL compaction and laggard
    /// eviction can be exercised deterministically.
    pub fn with_delayed_acks(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.ack_delay_rate = rate.clamp(0.0, 1.0);
        self.ack_delay = delay;
        self
    }

    /// Silently corrupt the replica's warm state after applying batch
    /// `seq`, at this rate — the injected divergence that probe
    /// fingerprint comparison must catch.
    pub fn with_state_corruption(mut self, rate: f64) -> FaultPlan {
        self.corrupt_state_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Hold the mutator for `delay` between publishing batch `seq` and
    /// recording its probe, at this rate — widens the window in which a
    /// batch counts as applied but has no fingerprint yet, so anything
    /// that reads fingerprints too early does so deterministically.
    pub fn with_probe_delay(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.probe_delay_rate = rate.clamp(0.0, 1.0);
        self.probe_delay = delay;
        self
    }

    /// Panic the mutator's view upkeep after it publishes batch `seq`'s
    /// epoch, at this rate — a panic outside the batch itself, which the
    /// supervisor must survive without rolling anything back.
    pub fn with_view_panics(mut self, rate: f64) -> FaultPlan {
        self.view_panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// True when no fault kind is armed (the hot-path short-circuit).
    pub fn is_none(&self) -> bool {
        self.mutator_panic_rate == 0.0
            && self.mutator_panic_mid_rate == 0.0
            && self.drop_reply_rate == 0.0
            && self.delay_reply_rate == 0.0
            && self.mutator_stall_rate == 0.0
            && self.link_drop_rate == 0.0
            && self.follower_crash_rate == 0.0
            && self.ack_delay_rate == 0.0
            && self.corrupt_state_rate == 0.0
            && self.probe_delay_rate == 0.0
            && self.view_panic_rate == 0.0
    }

    /// Should the mutator panic before applying batch `seq`?
    pub fn mutator_panic(&self, seq: u64) -> bool {
        self.mutator_panic_rate > 0.0 && unit(self.seed, KIND_PANIC, seq) < self.mutator_panic_rate
    }

    /// Should the mutator panic mid-way through batch `seq`?
    pub fn mutator_panic_mid(&self, seq: u64) -> bool {
        self.mutator_panic_mid_rate > 0.0
            && unit(self.seed, KIND_PANIC_MID, seq) < self.mutator_panic_mid_rate
    }

    /// Should the view upkeep after batch `seq` panic?
    pub fn view_panic(&self, seq: u64) -> bool {
        self.view_panic_rate > 0.0 && unit(self.seed, KIND_VIEW_PANIC, seq) < self.view_panic_rate
    }

    /// Should reply number `k` be dropped (connection severed)?
    pub fn drop_reply(&self, k: u64) -> bool {
        self.drop_reply_rate > 0.0 && unit(self.seed, KIND_DROP, k) < self.drop_reply_rate
    }

    /// Should reply number `k` be delayed, and by how much?
    pub fn delay_reply(&self, k: u64) -> Option<Duration> {
        if self.delay_reply_rate > 0.0 && unit(self.seed, KIND_DELAY, k) < self.delay_reply_rate {
            Some(self.delay)
        } else {
            None
        }
    }

    /// Should the mutator stall before applying batch `seq`, and for
    /// how long?
    pub fn mutator_stall(&self, seq: u64) -> Option<Duration> {
        if self.mutator_stall_rate > 0.0
            && unit(self.seed, KIND_STALL, seq) < self.mutator_stall_rate
        {
            Some(self.stall)
        } else {
            None
        }
    }

    /// Should the replication link be severed mid-way through shipped
    /// segment number `k`?
    pub fn link_drop(&self, k: u64) -> bool {
        self.link_drop_rate > 0.0 && unit(self.seed, KIND_LINK_DROP, k) < self.link_drop_rate
    }

    /// Should the follower crash (lose all in-memory state) while
    /// replaying shipped segment number `k`?
    pub fn follower_crash(&self, k: u64) -> bool {
        self.follower_crash_rate > 0.0
            && unit(self.seed, KIND_FOLLOWER_CRASH, k) < self.follower_crash_rate
    }

    /// Should the follower's ack for segment number `k` be delayed,
    /// and by how much?
    pub fn ack_delay(&self, k: u64) -> Option<Duration> {
        if self.ack_delay_rate > 0.0 && unit(self.seed, KIND_ACK_DELAY, k) < self.ack_delay_rate {
            Some(self.ack_delay)
        } else {
            None
        }
    }

    /// Should the warm state be silently corrupted after applying
    /// batch `seq`?
    pub fn corrupt_state(&self, seq: u64) -> bool {
        self.corrupt_state_rate > 0.0
            && unit(self.seed, KIND_CORRUPT, seq) < self.corrupt_state_rate
    }

    /// Should batch `seq`'s probe be recorded late, and by how much?
    pub fn probe_delay(&self, seq: u64) -> Option<Duration> {
        if self.probe_delay_rate > 0.0
            && unit(self.seed, KIND_PROBE_DELAY, seq) < self.probe_delay_rate
        {
            Some(self.probe_delay)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for k in 0..1000 {
            assert!(!p.mutator_panic(k));
            assert!(!p.mutator_panic_mid(k));
            assert!(!p.drop_reply(k));
            assert!(p.delay_reply(k).is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).with_mutator_panics(0.3);
        let b = FaultPlan::seeded(7).with_mutator_panics(0.3);
        let c = FaultPlan::seeded(8).with_mutator_panics(0.3);
        let draws_a: Vec<bool> = (0..256).map(|s| a.mutator_panic(s)).collect();
        let draws_b: Vec<bool> = (0..256).map(|s| b.mutator_panic(s)).collect();
        let draws_c: Vec<bool> = (0..256).map(|s| c.mutator_panic(s)).collect();
        assert_eq!(draws_a, draws_b, "same seed ⇒ same schedule");
        assert_ne!(draws_a, draws_c, "different seed ⇒ different schedule");
        let hits = draws_a.iter().filter(|&&x| x).count();
        assert!(
            (40..=115).contains(&hits),
            "rate 0.3 over 256 draws landed wildly off: {hits}"
        );
    }

    #[test]
    fn kinds_draw_independently() {
        let p = FaultPlan::seeded(42)
            .with_mutator_panics(0.5)
            .with_dropped_replies(0.5);
        let panics: Vec<bool> = (0..512).map(|s| p.mutator_panic(s)).collect();
        let drops: Vec<bool> = (0..512).map(|s| p.drop_reply(s)).collect();
        assert_ne!(panics, drops, "kinds must not share a decision stream");
    }

    #[test]
    fn delay_carries_the_configured_duration() {
        let p = FaultPlan::seeded(3).with_delayed_replies(1.0, Duration::from_millis(25));
        assert_eq!(p.delay_reply(0), Some(Duration::from_millis(25)));
        assert!(!p.is_none());
    }

    #[test]
    fn replication_kinds_draw_independently_and_arm_is_none() {
        let p = FaultPlan::seeded(9)
            .with_link_drops(0.5)
            .with_follower_crashes(0.5)
            .with_state_corruption(0.5);
        assert!(!p.is_none());
        let drops: Vec<bool> = (0..512).map(|k| p.link_drop(k)).collect();
        let crashes: Vec<bool> = (0..512).map(|k| p.follower_crash(k)).collect();
        let corrupts: Vec<bool> = (0..512).map(|k| p.corrupt_state(k)).collect();
        assert_ne!(drops, crashes);
        assert_ne!(drops, corrupts);
        let again: Vec<bool> = (0..512).map(|k| p.link_drop(k)).collect();
        assert_eq!(drops, again, "replication draws must be deterministic");

        let acks = FaultPlan::seeded(4).with_delayed_acks(1.0, Duration::from_millis(5));
        assert_eq!(acks.ack_delay(7), Some(Duration::from_millis(5)));
        assert!(!acks.is_none());
        assert!(FaultPlan::none().ack_delay(7).is_none());
        assert!(!FaultPlan::none().corrupt_state(7));

        let probes = FaultPlan::seeded(4).with_probe_delay(1.0, Duration::from_millis(5));
        assert_eq!(probes.probe_delay(7), Some(Duration::from_millis(5)));
        assert!(!probes.is_none());
        assert!(FaultPlan::none().probe_delay(7).is_none());
    }
}
