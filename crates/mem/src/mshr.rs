//! Miss-status holding registers (MSHR).
//!
//! Each cache bank owns a private MSHR (paper §4.3: *"Each bank maintains
//! its own miss status holding register (MSHR) to reduce miss rate, a
//! solution adapted from [Asiatici & Ienne, FPGA'19]"*). The MSHR tracks
//! outstanding line fills and merges secondary misses to the same line so a
//! single memory request serves many core requests. Capacity is counted in
//! pending *core requests*, matching the RTL's `MSHR_SIZE` parameter; the
//! bank consults [`Mshr::has_space`] *before* admitting a request into its
//! pipeline — the paper's "early full signal" that prevents the
//! MSHR-full deadlock.

use crate::cache::BankReq;
use std::collections::VecDeque;

/// One bank's MSHR.
#[derive(Debug)]
pub struct Mshr {
    /// Outstanding fills: (line address, requests waiting on the line).
    /// A `VecDeque` keeps fill-allocation order for deterministic replay.
    entries: VecDeque<(u32, Vec<BankReq>)>,
    /// Total pending core requests across entries.
    pending: usize,
    capacity: usize,
    /// Emptied per-line request vectors kept for the next primary miss,
    /// so the steady state never touches the allocator. Host-side scratch:
    /// never serialized, restores empty.
    spare: Vec<Vec<BankReq>>,
    /// Per-line request vectors created because the pool was empty (host
    /// diagnostic, not state). At most one entry per pending request is
    /// ever live, so this stays at or below `capacity`.
    fresh: u64,
}

impl Mshr {
    /// Creates an MSHR holding at most `capacity` pending requests.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        Self {
            // At most one entry per pending request, so this reservation
            // keeps allocation out of the steady state entirely.
            entries: VecDeque::with_capacity(capacity),
            pending: 0,
            capacity,
            spare: Vec::new(),
            fresh: 0,
        }
    }

    /// `true` if one more request can be admitted (the early-full check).
    pub fn has_space(&self) -> bool {
        self.pending < self.capacity
    }

    /// Free request slots remaining.
    #[inline]
    pub fn space(&self) -> usize {
        self.capacity - self.pending
    }

    /// `true` if a fill for `line` is already outstanding (a secondary miss
    /// would *merge*, needing no new memory request).
    pub fn has_line(&self, line: u32) -> bool {
        self.entries.iter().any(|(l, _)| *l == line)
    }

    /// Records a miss. Returns `true` if this allocated a *new* entry (a
    /// memory fill request must be issued), `false` if it merged into an
    /// existing one.
    ///
    /// # Panics
    /// Panics if the MSHR is full — callers must check [`Mshr::has_space`].
    #[inline]
    pub fn allocate(&mut self, line: u32, req: BankReq) -> bool {
        assert!(self.has_space(), "MSHR overflow: early-full check violated");
        self.pending += 1;
        if let Some((_, reqs)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            reqs.push(req);
            false
        } else {
            let mut reqs = self.spare.pop().unwrap_or_else(|| {
                self.fresh += 1;
                Vec::new()
            });
            reqs.push(req);
            self.entries.push_back((line, reqs));
            true
        }
    }

    /// Releases every request waiting on `line` (called when its fill
    /// arrives), appending them to `out` in allocation order. The emptied
    /// vector goes back to the spare pool.
    #[inline]
    pub fn release(&mut self, line: u32, out: &mut VecDeque<BankReq>) {
        let Some(pos) = self.entries.iter().position(|(l, _)| *l == line) else {
            return;
        };
        let (_, mut reqs) = self.entries.remove(pos).expect("position just found");
        self.pending -= reqs.len();
        out.extend(reqs.drain(..));
        if self.spare.len() < self.capacity {
            self.spare.push(reqs);
        }
    }

    /// Per-line request vectors ever created because the spare pool was
    /// empty (the allocation audit's number; at most the capacity).
    pub fn fresh_vecs(&self) -> u64 {
        self.fresh
    }

    /// Number of pending core requests.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of distinct outstanding line fills.
    pub fn outstanding_lines(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

vortex_snapshot::snapshot! {
    impl pub state for Mshr {
        entries,
        derived pending = entries.iter().map(|(_, reqs)| reqs.len()).sum(),
        check *pending <= *capacity => "mshr occupancy",
        config capacity,
        scratch spare = Vec::new(),
        scratch fresh = 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{BankReq, SubReq};

    fn req(tag: u64) -> BankReq {
        BankReq {
            line: 0,
            write: false,
            subs: vec![SubReq { tag }],
        }
    }

    #[test]
    fn first_miss_allocates_secondary_merges() {
        let mut m = Mshr::new(4);
        assert!(m.allocate(10, req(1)), "primary miss needs a fill");
        assert!(!m.allocate(10, req(2)), "secondary miss merges");
        assert!(m.allocate(11, req(3)), "different line needs its own fill");
        assert_eq!(m.pending(), 3);
        assert_eq!(m.outstanding_lines(), 2);
    }

    #[test]
    fn release_returns_requests_in_order() {
        let mut m = Mshr::new(4);
        m.allocate(10, req(1));
        m.allocate(10, req(2));
        let mut released = VecDeque::new();
        m.release(10, &mut released);
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].subs[0].tag, 1);
        assert_eq!(released[1].subs[0].tag, 2);
        assert!(m.is_empty());
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn release_unknown_line_is_empty() {
        let mut m = Mshr::new(2);
        let mut released = VecDeque::new();
        m.release(99, &mut released);
        assert!(released.is_empty());
    }

    #[test]
    fn long_miss_fill_stream_reuses_request_vectors() {
        // Primary misses, merges and fills in a rolling window: every
        // per-line vector after the first `capacity` comes from the pool.
        let capacity = 8;
        let mut m = Mshr::new(capacity);
        let mut out = VecDeque::new();
        let mut next_line = 0u32;
        let mut live = VecDeque::new();
        for i in 0..20_000u64 {
            if m.has_space() && (i % 3 != 0 || live.is_empty()) {
                // A miss on every fourth iteration merges onto the newest line.
                let line = match live.back() {
                    Some(&l) if i % 4 == 0 => l,
                    _ => {
                        next_line += 1;
                        live.push_back(next_line);
                        next_line
                    }
                };
                m.allocate(line, req(i));
            } else if let Some(line) = live.pop_front() {
                out.clear();
                m.release(line, &mut out);
                assert!(!out.is_empty());
            }
        }
        assert!(next_line > 1000, "the stream must churn many lines");
        assert!(
            m.fresh_vecs() <= capacity as u64,
            "{} fresh vectors for capacity {capacity}",
            m.fresh_vecs()
        );
    }

    #[test]
    fn capacity_counts_requests_not_lines() {
        let mut m = Mshr::new(2);
        m.allocate(10, req(1));
        m.allocate(10, req(2));
        assert!(!m.has_space(), "two merged requests fill a 2-entry MSHR");
    }

    #[test]
    #[should_panic(expected = "early-full")]
    fn overflow_panics() {
        let mut m = Mshr::new(1);
        m.allocate(1, req(1));
        m.allocate(2, req(2));
    }
}
