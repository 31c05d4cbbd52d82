//! Deferred stores for the two-phase commit protocol.
//!
//! The simulator ticks every core's *compute phase* against a shared
//! read-snapshot of [`Ram`], so nothing may mutate memory while the phase
//! runs. Stores are therefore buffered in a per-core [`WriteLog`] and
//! applied during the *commit phase*, in fixed core-id order. A
//! [`RamView`] bundles the snapshot with a core's log and presents the same
//! read/write accessors as `Ram` itself, with one crucial property: reads
//! see the core's *own* pending stores byte-accurately (read-your-write
//! within the cycle), exactly matching the old eager-store semantics for a
//! single core — including self-modifying code that fetches a word it just
//! stored.
//!
//! The snapshot is shared by reference (the page directory is *not*
//! cloned): the compute phase borrows the one true `Ram` immutably.

use crate::ram::Ram;

/// One buffered store: up to four bytes at `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingStore {
    addr: u32,
    value: u32,
    /// Store width in bytes: 1, 2 or 4.
    width: u8,
}

/// A per-core buffer of stores awaiting the commit phase.
///
/// Entries are applied to [`Ram`] in program order by [`WriteLog::apply`];
/// until then, the read helpers overlay pending bytes on top of a base
/// snapshot so the owning core observes its own stores immediately.
#[derive(Debug, Default)]
pub struct WriteLog {
    entries: Vec<PendingStore>,
}

impl WriteLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no stores are pending (the read fast path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pending stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Buffers a byte store.
    #[inline]
    pub fn push_u8(&mut self, addr: u32, value: u8) {
        self.entries.push(PendingStore {
            addr,
            value: value as u32,
            width: 1,
        });
    }

    /// Buffers a halfword store.
    #[inline]
    pub fn push_u16(&mut self, addr: u32, value: u16) {
        self.entries.push(PendingStore {
            addr,
            value: value as u32,
            width: 2,
        });
    }

    /// Buffers a word store.
    #[inline]
    pub fn push_u32(&mut self, addr: u32, value: u32) {
        self.entries.push(PendingStore {
            addr,
            value,
            width: 4,
        });
    }

    /// Overlays pending bytes in `[addr, addr + out.len())` onto `out`,
    /// later stores winning. `out` must already hold the base snapshot's
    /// bytes for that range.
    fn overlay(&self, addr: u32, out: &mut [u8]) {
        for e in &self.entries {
            let bytes = e.value.to_le_bytes();
            for (i, b) in bytes.iter().take(e.width as usize).enumerate() {
                // Wrapping distance: bytes below `addr` wrap to huge
                // offsets and fail the bounds check.
                let rel = e.addr.wrapping_add(i as u32).wrapping_sub(addr) as usize;
                if rel < out.len() {
                    out[rel] = *b;
                }
            }
        }
    }

    /// Reads a byte through the log.
    #[inline]
    pub fn read_u8(&self, base: &Ram, addr: u32) -> u8 {
        if self.entries.is_empty() {
            return base.read_u8(addr);
        }
        let mut buf = [base.read_u8(addr)];
        self.overlay(addr, &mut buf);
        buf[0]
    }

    /// Reads a little-endian u16 through the log.
    #[inline]
    pub fn read_u16(&self, base: &Ram, addr: u32) -> u16 {
        if self.entries.is_empty() {
            return base.read_u16(addr);
        }
        let mut buf = base.read_u16(addr).to_le_bytes();
        self.overlay(addr, &mut buf);
        u16::from_le_bytes(buf)
    }

    /// Reads a little-endian u32 through the log.
    #[inline]
    pub fn read_u32(&self, base: &Ram, addr: u32) -> u32 {
        if self.entries.is_empty() {
            return base.read_u32(addr);
        }
        let mut buf = base.read_u32(addr).to_le_bytes();
        self.overlay(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Applies every pending store to `ram` in program order and clears the
    /// log, keeping its allocation for the next cycle.
    pub fn apply(&mut self, ram: &mut Ram) {
        for e in self.entries.drain(..) {
            match e.width {
                1 => ram.write_u8(e.addr, e.value as u8),
                2 => ram.write_u16(e.addr, e.value as u16),
                _ => ram.write_u32(e.addr, e.value),
            }
        }
    }

    /// Discards all pending stores (used when a cycle aborts on error).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends the pending stores in program order. Checkpoints are taken
    /// between cycles (after commit), so this is normally empty, but the
    /// format carries it for completeness.
    pub fn save_state(&self, w: &mut vortex_snapshot::Writer) {
        use vortex_snapshot::Snap;
        self.entries.save(w);
    }

    /// Restores the pending stores in place.
    pub fn restore_state(
        &mut self,
        r: &mut vortex_snapshot::Reader<'_>,
    ) -> vortex_snapshot::SnapResult<()> {
        use vortex_snapshot::Snap;
        self.entries = Vec::load(r)?;
        Ok(())
    }
}

impl vortex_snapshot::Snap for PendingStore {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u32(self.addr);
        w.u32(self.value);
        w.u8(self.width);
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        let (addr, value, width) = (r.u32()?, r.u32()?, r.u8()?);
        if !matches!(width, 1 | 2 | 4) {
            return Err(vortex_snapshot::SnapError::BadValue("store width"));
        }
        Ok(Self { addr, value, width })
    }
}

/// A [`Ram`] snapshot plus one core's [`WriteLog`], presenting `Ram`'s
/// accessor surface. Writes go to the log; reads come from the snapshot
/// patched with the log. This is what the execute stage runs against during
/// the compute phase.
#[derive(Debug)]
pub struct RamView<'a> {
    base: &'a Ram,
    log: &'a mut WriteLog,
}

impl<'a> RamView<'a> {
    /// Wraps a snapshot and a write log.
    pub fn new(base: &'a Ram, log: &'a mut WriteLog) -> Self {
        Self { base, log }
    }

    /// The underlying snapshot (for read-only consumers like the texture
    /// unit, which never races a same-cycle store from its own core).
    pub fn base(&self) -> &'a Ram {
        self.base
    }

    /// Reads one byte (own pending stores visible).
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.log.read_u8(self.base, addr)
    }

    /// Reads a little-endian u16 (own pending stores visible).
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        self.log.read_u16(self.base, addr)
    }

    /// Reads a little-endian u32 (own pending stores visible).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.log.read_u32(self.base, addr)
    }

    /// Reads an IEEE-754 single (own pending stores visible).
    #[inline]
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Buffers a byte store.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.log.push_u8(addr, value);
    }

    /// Buffers a halfword store.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.log.push_u16(addr, value);
    }

    /// Buffers a word store.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.log.push_u32(addr, value);
    }

    /// Buffers an IEEE-754 single store.
    #[inline]
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.log.push_u32(addr, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_pass_through_when_log_empty() {
        let mut ram = Ram::new();
        ram.write_u32(0x100, 0xDEAD_BEEF);
        let mut log = WriteLog::new();
        let view = RamView::new(&ram, &mut log);
        assert_eq!(view.read_u32(0x100), 0xDEAD_BEEF);
        assert_eq!(view.read_u8(0x100), 0xEF);
    }

    #[test]
    fn read_your_write_all_widths() {
        let ram = Ram::new();
        let mut log = WriteLog::new();
        let mut view = RamView::new(&ram, &mut log);
        view.write_u8(10, 0xAB);
        assert_eq!(view.read_u8(10), 0xAB);
        view.write_u16(100, 0x1234);
        assert_eq!(view.read_u16(100), 0x1234);
        view.write_u32(200, 0xDEAD_BEEF);
        assert_eq!(view.read_u32(200), 0xDEAD_BEEF);
        view.write_f32(300, 1.5);
        assert_eq!(view.read_f32(300), 1.5);
    }

    #[test]
    fn later_stores_win_and_partial_overlap_patches_bytes() {
        let mut ram = Ram::new();
        ram.write_u32(0x40, 0x4433_2211);
        let mut log = WriteLog::new();
        let mut view = RamView::new(&ram, &mut log);
        // Overwrite byte 1 of the word, then byte 1 again: last wins.
        view.write_u8(0x41, 0xAA);
        view.write_u8(0x41, 0xBB);
        assert_eq!(view.read_u32(0x40), 0x4433_BB11);
        // A halfword overlapping the word's top bytes.
        view.write_u16(0x42, 0xCCDD);
        assert_eq!(view.read_u32(0x40), 0xCCDD_BB11);
        // Reads below/above the patched range are untouched.
        assert_eq!(view.read_u8(0x44), 0);
    }

    #[test]
    fn apply_replays_in_program_order_then_clears() {
        let mut ram = Ram::new();
        let mut log = WriteLog::new();
        {
            let mut view = RamView::new(&ram, &mut log);
            view.write_u32(0x80, 0x1111_1111);
            view.write_u16(0x80, 0x2222);
        }
        assert_eq!(log.len(), 2);
        log.apply(&mut ram);
        assert!(log.is_empty());
        assert_eq!(ram.read_u32(0x80), 0x1111_2222);
        // The base is untouched until apply: a fresh view over an empty log
        // reads the committed value.
        let view = RamView::new(&ram, &mut log);
        assert_eq!(view.read_u32(0x80), 0x1111_2222);
    }

    #[test]
    fn clear_discards_pending_stores() {
        let ram = Ram::new();
        let mut log = WriteLog::new();
        log.push_u32(0, 42);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.read_u32(&ram, 0), 0);
    }

    #[test]
    fn overlay_handles_stores_straddling_the_read_window() {
        let ram = Ram::new();
        let mut log = WriteLog::new();
        // A word store two bytes below the read address: only its top
        // two bytes land in the window.
        log.push_u32(0xFE, 0xAABB_CCDD);
        assert_eq!(log.read_u32(&ram, 0x100), 0x0000_AABB);
        // And one two bytes above: only its bottom two bytes land.
        log.push_u32(0x102, 0x1122_3344);
        assert_eq!(log.read_u32(&ram, 0x100), 0x3344_AABB);
    }
}
