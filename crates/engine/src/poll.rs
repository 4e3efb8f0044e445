//! The single chunk/poll/cancel loop.
//!
//! Every interval scan in the workspace — scalar, lane-batched, or
//! simulated-kernel — walks its interval through a [`PollCursor`]: take a
//! bounded chunk, check the shared stop flag, scan, repeat. One
//! implementation means one source of truth for cancellation latency and
//! no drifting copies of the take-front/poll arithmetic.

use std::sync::atomic::{AtomicBool, Ordering};

use eks_keyspace::Interval;

/// Candidates between stop-flag polls. Small enough for sub-millisecond
/// cancellation latency, large enough to amortize the atomic load.
pub const POLL_CHUNK: u128 = 4096;

/// The poll quantum of a backend with lane stride `stride`: the maximum
/// number of candidates one scan tests between two stop-flag checks,
/// i.e. the most it can overshoot a raised flag. This is the checked
/// cancellation-latency bound used by `tests/steal_scheduler.rs`.
pub fn poll_quantum(stride: u128) -> u128 {
    POLL_CHUNK.next_multiple_of(stride.max(1))
}

/// Walks an interval in poll-bounded chunks, checking a stop flag before
/// each one. A pre-raised flag cancels before anything is scanned.
#[derive(Debug)]
pub struct PollCursor<'a> {
    full: Interval,
    remaining: Interval,
    stop: &'a AtomicBool,
    chunk: u128,
    cancelled: bool,
}

impl<'a> PollCursor<'a> {
    /// A cursor over `interval` polling `stop` every [`POLL_CHUNK`]
    /// candidates. The caller clamps the interval to its space first.
    pub fn new(interval: Interval, stop: &'a AtomicBool) -> Self {
        Self::with_stride(interval, stop, 1)
    }

    /// Like [`PollCursor::new`] but rounding the chunk up to a multiple
    /// of `stride`, so lane-batched scanners never straddle a poll
    /// boundary mid-batch. A `stride` of 0 or 1 keeps the plain chunk.
    pub fn with_stride(interval: Interval, stop: &'a AtomicBool, stride: u128) -> Self {
        let chunk = poll_quantum(stride);
        Self {
            full: interval,
            remaining: interval,
            stop,
            chunk,
            cancelled: false,
        }
    }

    /// The next chunk to scan, or `None` when the interval is exhausted
    /// or the stop flag was observed (check [`PollCursor::cancelled`]).
    pub fn next_chunk(&mut self) -> Option<Interval> {
        if self.remaining.is_empty() || self.cancelled {
            return None;
        }
        if self.stop.load(Ordering::Relaxed) {
            self.cancelled = true;
            return None;
        }
        Some(self.remaining.take_front(self.chunk))
    }

    /// True when the cursor stopped on the flag rather than exhaustion.
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// The part of the interval not yet handed out.
    pub fn remaining(&self) -> Interval {
        self.remaining
    }

    /// The prefix already handed out as chunks. Consumption is strictly
    /// front-to-back, so `consumed()` and [`PollCursor::remaining`]
    /// partition the original interval exactly — this is what a
    /// checkpoint records to make consumed-vs-outstanding work
    /// reconstructible after a restart.
    pub fn consumed(&self) -> Interval {
        Interval::new(self.full.start, self.full.len - self.remaining.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_the_whole_interval_in_poll_chunks() {
        let stop = AtomicBool::new(false);
        let mut cursor = PollCursor::new(Interval::new(10, 10_000), &stop);
        let mut covered = 0u128;
        let mut next_start = 10u128;
        while let Some(chunk) = cursor.next_chunk() {
            assert_eq!(chunk.start, next_start, "chunks are contiguous");
            assert!(chunk.len <= POLL_CHUNK);
            next_start = chunk.end();
            covered += chunk.len;
        }
        assert_eq!(covered, 10_000);
        assert!(!cursor.cancelled());
        assert_eq!(cursor.consumed(), Interval::new(10, 10_000));
        assert!(cursor.remaining().is_empty());
    }

    #[test]
    fn consumed_and_remaining_partition_the_interval() {
        let stop = AtomicBool::new(false);
        let full = Interval::new(100, 100_000);
        let mut cursor = PollCursor::new(full, &stop);
        assert!(cursor.consumed().is_empty());
        cursor.next_chunk();
        cursor.next_chunk();
        let consumed = cursor.consumed();
        let remaining = cursor.remaining();
        assert_eq!(consumed.start, full.start);
        assert_eq!(consumed.end(), remaining.start, "contiguous partition");
        assert_eq!(consumed.len + remaining.len, full.len);
    }

    #[test]
    fn pre_raised_stop_yields_nothing() {
        let stop = AtomicBool::new(true);
        let mut cursor = PollCursor::new(Interval::new(0, 100), &stop);
        assert!(cursor.next_chunk().is_none());
        assert!(cursor.cancelled());
    }

    #[test]
    fn stop_raised_mid_walk_cancels_at_the_next_poll() {
        let stop = AtomicBool::new(false);
        let mut cursor = PollCursor::new(Interval::new(0, 100_000), &stop);
        assert!(cursor.next_chunk().is_some());
        stop.store(true, Ordering::Relaxed);
        assert!(cursor.next_chunk().is_none());
        assert!(cursor.cancelled());
        // Exactly one chunk was handed out before the flag was seen.
        assert_eq!(cursor.remaining().len, 100_000 - POLL_CHUNK);
    }

    /// The length of the first chunk a strided cursor hands out from a
    /// long interval: its poll granularity.
    fn chunk_len(stride: u128) -> u128 {
        let stop = AtomicBool::new(false);
        let mut cursor = PollCursor::with_stride(Interval::new(0, 1 << 20), &stop, stride);
        cursor.next_chunk().expect("a long interval has a chunk").len
    }

    #[test]
    fn stride_rounds_the_chunk_up() {
        for stride in [1u128, 8, 16, 100] {
            assert_eq!(chunk_len(stride) % stride, 0, "stride {stride}");
            assert!(chunk_len(stride) >= POLL_CHUNK);
        }
        // Stride 0 behaves like 1 rather than dividing by zero.
        assert_eq!(chunk_len(0), POLL_CHUNK);
    }

    #[test]
    fn poll_quantum_matches_the_cursor_chunk() {
        for stride in [0u128, 1, 8, 16, 100] {
            assert_eq!(chunk_len(stride), poll_quantum(stride), "stride {stride}");
        }
    }

    #[test]
    fn empty_interval_is_exhausted_not_cancelled() {
        let stop = AtomicBool::new(true);
        let mut cursor = PollCursor::new(Interval::new(5, 0), &stop);
        assert!(cursor.next_chunk().is_none());
        assert!(!cursor.cancelled(), "nothing to cancel");
    }
}
