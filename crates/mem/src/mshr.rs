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
            self.entries.push_back((line, vec![req]));
            true
        }
    }

    /// Releases every request waiting on `line` (called when its fill
    /// arrives). Returns the requests in allocation order.
    #[inline]
    pub fn release(&mut self, line: u32) -> Vec<BankReq> {
        if let Some(pos) = self.entries.iter().position(|(l, _)| *l == line) {
            let (_, reqs) = self.entries.remove(pos).expect("position just found");
            self.pending -= reqs.len();
            reqs
        } else {
            Vec::new()
        }
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

    /// Appends the outstanding fills. Capacity is construction state and
    /// is not serialized; `pending` is recomputed on restore.
    pub fn save_state(&self, w: &mut vortex_snapshot::Writer) {
        use vortex_snapshot::Snap;
        self.entries.save(w);
    }

    /// Restores the outstanding fills in place, recomputing the pending
    /// count. A payload exceeding the configured capacity is a
    /// [`vortex_snapshot::SnapError::BadValue`].
    pub fn restore_state(
        &mut self,
        r: &mut vortex_snapshot::Reader<'_>,
    ) -> vortex_snapshot::SnapResult<()> {
        use vortex_snapshot::Snap;
        let n = r.len(5)?;
        self.entries.clear();
        let mut pending = 0usize;
        for _ in 0..n {
            let entry = <(u32, Vec<BankReq>)>::load(r)?;
            pending += entry.1.len();
            // Loading into the existing backing buffer (reserved to
            // `capacity` at construction) keeps a restored MSHR as
            // allocation-free as a freshly built one.
            self.entries.push_back(entry);
        }
        if pending > self.capacity {
            return Err(vortex_snapshot::SnapError::BadValue("mshr occupancy"));
        }
        self.pending = pending;
        Ok(())
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
        let released = m.release(10);
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].subs[0].tag, 1);
        assert_eq!(released[1].subs[0].tag, 2);
        assert!(m.is_empty());
        assert_eq!(m.pending(), 0);
    }

    #[test]
    fn release_unknown_line_is_empty() {
        let mut m = Mshr::new(2);
        assert!(m.release(99).is_empty());
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
