//! Functional flat memory.
//!
//! Holds the *values* of device memory: program images, kernel arguments,
//! buffers, textures and frame buffers. Organized as sparse 4 KiB pages so a
//! full 4 GiB address space costs only what is touched.
//!
//! This sits on the simulator's hottest path — every instruction fetch and
//! every lane of every load/store lands here — so the word accessors
//! resolve their page once (not once per byte) and the page table is a
//! fixed *two-level* radix table with no hashing: `addr >> 22` picks one of
//! 1024 first-level entries held inline in [`Ram`] (8 KiB, one per 4 MiB of
//! address space), and the next 10 bits pick a page in that entry's
//! second-level table. A read is two dependent loads before the data, the
//! same as a flat directory, but an empty `Ram` allocates nothing: a
//! second-level table (8 KiB) is created on the first write inside its
//! 4 MiB, and a page on the first write inside it. Construction, drop,
//! [`Ram::resident_pages`] and the snapshot walk touch only the tables that
//! exist. (A flat 2²⁰-entry directory would cost 8 MiB per instance, zeroed
//! on every construction and resident whenever the allocator hands back
//! reused heap instead of fresh zero pages from the OS.)

use std::fmt;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_SIZE - 1;
/// Pages covering the whole 32-bit address space.
const NUM_PAGES: usize = 1 << (32 - PAGE_SHIFT);
/// Pages per second-level table (4 MiB of address space).
const TABLE_PAGES: usize = 1024;
/// Address bits below a first-level index.
const TABLE_SHIFT: u32 = PAGE_SHIFT + TABLE_PAGES.trailing_zeros();

type Page = Box<[u8; PAGE_SIZE]>;
type Table = [Option<Page>; TABLE_PAGES];

/// Sparse byte-addressable memory covering the full 32-bit address space.
#[derive(Clone)]
pub struct Ram {
    /// First level, indexed by `addr >> TABLE_SHIFT`; each table is indexed
    /// by the page number's low 10 bits.
    tables: [Option<Box<Table>>; NUM_PAGES / TABLE_PAGES],
}

impl Default for Ram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ram")
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

impl Ram {
    /// Creates an empty (all-zero) memory. Allocates nothing: the first
    /// level lives inline and starts empty.
    pub fn new() -> Self {
        Self {
            tables: [const { None }; NUM_PAGES / TABLE_PAGES],
        }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let table = self.tables[(addr >> TABLE_SHIFT) as usize].as_deref()?;
        table[(addr >> PAGE_SHIFT) as usize % TABLE_PAGES].as_deref()
    }

    /// The slot of page number `idx`, creating its table if needed.
    fn slot_mut(&mut self, idx: usize) -> &mut Option<Page> {
        let table = self.tables[idx / TABLE_PAGES]
            .get_or_insert_with(|| Box::new([const { None }; TABLE_PAGES]));
        &mut table[idx % TABLE_PAGES]
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.slot_mut((addr >> PAGE_SHIFT) as usize)
            .get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// The resident pages with their page numbers, in ascending order.
    fn pages(&self) -> impl Iterator<Item = (usize, &[u8; PAGE_SIZE])> {
        let tables = self.tables.iter().enumerate();
        tables
            .filter_map(|(t, table)| Some((t, table.as_deref()?)))
            .flat_map(|(t, table)| {
                let pages = table.iter().enumerate();
                pages.filter_map(move |(p, page)| Some((t * TABLE_PAGES + p, page.as_deref()?)))
            })
    }

    /// Reads one byte (unmapped memory reads as zero).
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & PAGE_MASK],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let off = (addr as usize) & PAGE_MASK;
        self.page_mut(addr)[off] = value;
    }

    /// Reads a little-endian u16 (no alignment requirement).
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        let off = (addr as usize) & PAGE_MASK;
        if off <= PAGE_SIZE - 2 {
            // Both bytes on one page: resolve it once.
            match self.page(addr) {
                Some(p) => u16::from_le_bytes([p[off], p[off + 1]]),
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
        }
    }

    /// Writes a little-endian u16.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let off = (addr as usize) & PAGE_MASK;
        let bytes = value.to_le_bytes();
        if off <= PAGE_SIZE - 2 {
            self.page_mut(addr)[off..off + 2].copy_from_slice(&bytes);
        } else {
            self.write_u8(addr, bytes[0]);
            self.write_u8(addr.wrapping_add(1), bytes[1]);
        }
    }

    /// Reads a little-endian u32 (no alignment requirement).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr as usize) & PAGE_MASK;
        if off <= PAGE_SIZE - 4 {
            // Fast path (every aligned access): one page lookup, not four.
            match self.page(addr) {
                Some(p) => u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]]),
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let off = (addr as usize) & PAGE_MASK;
        let bytes = value.to_le_bytes();
        if off <= PAGE_SIZE - 4 {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads an IEEE-754 single.
    #[inline]
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an IEEE-754 single.
    #[inline]
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Bulk-copies `bytes` into memory starting at `addr` (the DMA path of
    /// the runtime's command processor). Copies page-sized chunks.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr as usize) & PAGE_MASK;
            let chunk = (PAGE_SIZE - off).min(rest.len());
            self.page_mut(addr)[off..off + chunk].copy_from_slice(&rest[..chunk]);
            rest = &rest[chunk..];
            addr = addr.wrapping_add(chunk as u32);
        }
    }

    /// Bulk-reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut addr = addr;
        let mut filled = 0;
        while filled < len {
            let off = (addr as usize) & PAGE_MASK;
            let chunk = (PAGE_SIZE - off).min(len - filled);
            if let Some(p) = self.page(addr) {
                out[filled..filled + chunk].copy_from_slice(&p[off..off + chunk]);
            }
            filled += chunk;
            addr = addr.wrapping_add(chunk as u32);
        }
        out
    }

    /// Number of resident 4 KiB pages (memory footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages().count()
    }

    /// Appends the memory image as its resident page set: a count followed
    /// by `(page index, 4 KiB raw bytes)` pairs in ascending index order.
    pub fn save_state(&self, w: &mut vortex_snapshot::Writer) {
        w.usize(self.resident_pages());
        for (idx, page) in self.pages() {
            w.u32(idx as u32);
            w.raw(&page[..]);
        }
    }

    /// Replaces the entire memory image with the snapshot's page set:
    /// every currently-resident page is dropped first, so pages the
    /// snapshot does not hold read as zero again. Page indices must be
    /// strictly ascending, as [`Ram::save_state`] writes them, so that a
    /// restored image re-saves to the same bytes.
    pub fn restore_state(
        &mut self,
        r: &mut vortex_snapshot::Reader<'_>,
    ) -> vortex_snapshot::SnapResult<()> {
        let n = r.len(4 + PAGE_SIZE)?;
        *self = Self::new();
        let mut next = 0;
        for _ in 0..n {
            let idx = r.u32()? as usize;
            if idx >= NUM_PAGES {
                return Err(vortex_snapshot::SnapError::BadValue("page index"));
            }
            if idx < next {
                return Err(vortex_snapshot::SnapError::BadValue("page order"));
            }
            next = idx + 1;
            let bytes = r.raw(PAGE_SIZE)?;
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page.copy_from_slice(bytes);
            *self.slot_mut(idx) = Some(page);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let ram = Ram::new();
        assert_eq!(ram.read_u32(0xDEAD_BEEF), 0);
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn read_your_write_all_widths() {
        let mut ram = Ram::new();
        ram.write_u8(10, 0xAB);
        assert_eq!(ram.read_u8(10), 0xAB);
        ram.write_u16(100, 0x1234);
        assert_eq!(ram.read_u16(100), 0x1234);
        ram.write_u32(200, 0xDEAD_BEEF);
        assert_eq!(ram.read_u32(200), 0xDEAD_BEEF);
        ram.write_f32(300, 1.5);
        assert_eq!(ram.read_f32(300), 1.5);
    }

    #[test]
    fn words_are_little_endian() {
        let mut ram = Ram::new();
        ram.write_u32(0, 0x0403_0201);
        assert_eq!(ram.read_u8(0), 1);
        assert_eq!(ram.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access_works() {
        let mut ram = Ram::new();
        let addr = PAGE_SIZE as u32 - 2;
        ram.write_u32(addr, 0xCAFE_BABE);
        assert_eq!(ram.read_u32(addr), 0xCAFE_BABE);
        assert_eq!(ram.resident_pages(), 2);
        // Two more pages, one on each side of a 4 MiB table boundary.
        ram.write_u32(0x0040_0000 - 2, 0xCAFE_BABE);
        assert_eq!(ram.read_u32(0x0040_0000 - 2), 0xCAFE_BABE);
        assert_eq!(ram.resident_pages(), 4);
    }

    #[test]
    fn unaligned_word_straddles_pages_at_every_offset() {
        // Exercise both the fast single-page path and the boundary
        // fallback for u16/u32 at every offset near a page edge, a 4 MiB
        // table edge, and the top of the address space (which wraps to 0).
        let edges = [(PAGE_SIZE as u32) * 3, 0x0040_0000, 0];
        for (edge, delta) in edges
            .into_iter()
            .flat_map(|e| (0..8u32).map(move |d| (e, d)))
        {
            let addr = edge.wrapping_sub(4).wrapping_add(delta);
            let mut ram = Ram::new();
            ram.write_u32(addr, 0x1122_3344 ^ delta);
            assert_eq!(ram.read_u32(addr), 0x1122_3344 ^ delta, "u32 @ {addr:#x}");
            let mut ram = Ram::new();
            ram.write_u16(addr, (0xBEEF ^ delta) as u16);
            assert_eq!(
                ram.read_u16(addr),
                (0xBEEF ^ delta) as u16,
                "u16 @ {addr:#x}"
            );
        }
        // A word at the very top spills its last bytes into page 0.
        let mut ram = Ram::new();
        ram.write_u32(0xFFFF_FFFE, 0x0403_0201);
        assert_eq!((ram.read_u8(0), ram.read_u8(1)), (3, 4));
    }

    #[test]
    fn bulk_round_trip() {
        let mut ram = Ram::new();
        let data: Vec<u8> = (0..=255).collect();
        ram.write_bytes(0x8000, &data);
        assert_eq!(ram.read_bytes(0x8000, 256), data);
    }

    #[test]
    fn bulk_round_trip_across_pages() {
        let mut ram = Ram::new();
        let data: Vec<u8> = (0..PAGE_SIZE * 2 + 100).map(|i| (i * 7) as u8).collect();
        for base in [PAGE_SIZE as u32 - 50, 0x0040_0000 - PAGE_SIZE as u32 - 50] {
            ram.write_bytes(base, &data);
            assert_eq!(ram.read_bytes(base, data.len()), data);
        }
        // A partially unmapped bulk read still returns zeros for the holes.
        assert_eq!(ram.read_bytes(0x7000_0000, 64), vec![0u8; 64]);
    }
}
