//! A hashed timer wheel for connection deadlines.
//!
//! An event loop registers a deadline only when a connection actually
//! starts one (a partial frame, a pending write) and lets the wheel say
//! *which* connections to look at when a tick elapses, instead of
//! polling every connection's clock. Idle connections own no wheel
//! entries and cost nothing.
//!
//! Cancellation is **lazy**: entries are never removed early. When one
//! expires the owner re-validates against the connection's live state
//! (token generation + real deadline) and either acts, reschedules, or
//! ignores it. That keeps `schedule` O(1) with no lookup structure.

use std::time::{Duration, Instant};

/// A coarse-ticked, fixed-slot timer wheel over opaque `u64` tokens.
#[derive(Debug)]
pub struct TimerWheel {
    /// `slots[tick % slots.len()]` holds entries for that tick and for
    /// later rounds that hash to the same slot.
    slots: Vec<Vec<Entry>>,
    tick: Duration,
    origin: Instant,
    /// The next tick index `advance` will process.
    cursor: u64,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    token: u64,
    /// Absolute tick the entry fires on (disambiguates wheel rounds).
    at: u64,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `tick` granularity, anchored at
    /// `origin` (callers pass their loop start so tests can steer time).
    pub fn new(tick: Duration, slots: usize, origin: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
            tick: tick.max(Duration::from_millis(1)),
            origin,
            cursor: 1,
            len: 0,
        }
    }

    /// Tick index that covers instant `t` (the first tick at or after it).
    fn tick_of(&self, t: Instant) -> u64 {
        let nanos = t.saturating_duration_since(self.origin).as_nanos();
        (nanos / self.tick.as_nanos()) as u64 + 1
    }

    /// Register `token` to fire at the first tick at or after `due`.
    /// Entries landing behind the cursor fire on the next `advance`.
    pub fn schedule(&mut self, due: Instant, token: u64) {
        let at = self.tick_of(due).max(self.cursor);
        let slot = (at % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { token, at });
        self.len += 1;
    }

    /// Process every tick up to `now`, pushing expired tokens into
    /// `expired` in tick order. Same-round entries in one slot keep
    /// insertion order; later-round entries stay put.
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<u64>) {
        if self.len == 0 {
            // Keep the cursor moving so a later schedule() can't land
            // thousands of ticks behind and force a long catch-up scan.
            self.cursor = self.tick_of(now).max(self.cursor);
            return;
        }
        let now_tick = self.tick_of(now).saturating_sub(1);
        if now_tick < self.cursor {
            // No tick has fully elapsed since the last advance. A busy
            // loop calls advance on every wakeup — often many times per
            // tick — and the cursor must NOT creep forward on those
            // calls, or it races ahead of real time and entries
            // scheduled at `max(due, cursor)` never come due.
            return;
        }
        let span = self.slots.len() as u64;
        // Each slot only needs visiting once per wheel revolution.
        let last = now_tick.min(self.cursor + span - 1);
        let mut t = self.cursor;
        while t <= last {
            let slot = (t % span) as usize;
            self.slots[slot].retain(|e| {
                if e.at <= now_tick {
                    expired.push(e.token);
                    false
                } else {
                    true
                }
            });
            t += 1;
        }
        self.len = self.slots.iter().map(Vec::len).sum();
        self.cursor = now_tick + 1;
    }

    /// True when no entries are pending (idle loops skip the wheel).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending entry count (lazily-cancelled entries included).
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_at_or_after_due_never_before() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(ms(10), 64, t0);
        w.schedule(t0 + ms(35), 1);
        let mut out = Vec::new();
        w.advance(t0 + ms(30), &mut out);
        assert!(out.is_empty(), "fired {out:?} before due");
        w.advance(t0 + ms(50), &mut out);
        assert_eq!(out, vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn later_rounds_stay_until_their_revolution() {
        let t0 = Instant::now();
        // 4 slots x 10ms: +200ms hashes onto an early slot but must
        // survive many revolutions.
        let mut w = TimerWheel::new(ms(10), 4, t0);
        w.schedule(t0 + ms(200), 42);
        let mut out = Vec::new();
        for step in (10..200).step_by(10) {
            w.advance(t0 + ms(step), &mut out);
            assert!(out.is_empty(), "fired early at +{step}ms");
        }
        w.advance(t0 + ms(215), &mut out);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn many_tokens_fire_in_tick_order() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(ms(10), 16, t0);
        w.schedule(t0 + ms(40), 4);
        w.schedule(t0 + ms(20), 2);
        w.schedule(t0 + ms(30), 3);
        let mut out = Vec::new();
        w.advance(t0 + ms(60), &mut out);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn past_due_entries_fire_on_next_advance() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(ms(10), 8, t0);
        let mut out = Vec::new();
        w.advance(t0 + ms(500), &mut out); // cursor races far ahead
        w.schedule(t0 + ms(100), 9); // already overdue
        w.advance(t0 + ms(510), &mut out);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn long_gap_does_not_drop_entries() {
        let t0 = Instant::now();
        let mut w = TimerWheel::new(ms(10), 8, t0);
        w.schedule(t0 + ms(20), 1);
        w.schedule(t0 + ms(1000), 2);
        let mut out = Vec::new();
        // One giant advance past everything: both fire, none lost.
        w.advance(t0 + ms(5000), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn busy_loop_advances_do_not_starve_entries() {
        // Regression: a loop under load calls advance many times per
        // tick. The cursor must track real time, not call count —
        // otherwise entries scheduled while it raced ahead never fire.
        let t0 = Instant::now();
        let mut w = TimerWheel::new(ms(10), 16, t0);
        w.schedule(t0 + ms(15), 1);
        let mut out = Vec::new();
        for i in 0..1000 {
            // 1000 sub-tick advances within the first 5ms of wall time.
            w.advance(t0 + Duration::from_micros(i * 5), &mut out);
        }
        assert!(out.is_empty());
        w.schedule(t0 + ms(30), 2);
        w.advance(t0 + ms(50), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2], "cursor raced ahead of real time");
    }

    #[test]
    fn lazy_cancellation_is_callers_job() {
        // The wheel hands back whatever was scheduled; the owner is the
        // one who decides an expired token no longer matters.
        let t0 = Instant::now();
        let mut w = TimerWheel::new(ms(10), 8, t0);
        w.schedule(t0 + ms(20), 7);
        w.schedule(t0 + ms(20), 7); // duplicate from a rescheduled deadline
        let mut out = Vec::new();
        w.advance(t0 + ms(40), &mut out);
        assert_eq!(out, vec![7, 7]);
    }
}
