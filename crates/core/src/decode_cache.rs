//! Host-side memoization of `vortex_isa::decode`.
//!
//! Decode is a pure function of the 32-bit instruction word, and kernels
//! re-fetch the same handful of words millions of times (every loop body,
//! every wavefront). A small direct-mapped cache from word to resolved
//! [`Slot`] (the decoded instruction plus its issue-time answers) lets the
//! steady-state front end skip the decoder and the resolver entirely.
//!
//! **Invalidation** falls out of the keying: because the key is the word
//! *fetched from RAM this cycle* — not the PC — self-modifying code changes
//! the lookup key itself, so a stale mapping can never be served. A cached
//! entry only ever answers for the exact word it was built from.
//!
//! This is a host-throughput device only; it is architecturally invisible.
//! Simulated timing, statistics and results are bit-identical with the
//! cache on or off (asserted by the decode-equivalence tests), which is why
//! it can default on.

use crate::frontend::Slot;
use vortex_isa::DecodeError;

/// Direct-mapped slots. Kernel text in the suite is a few hundred words;
/// 2048 entries of 24 B are 48 KiB per core — with sixteen cores the memo
/// is a visible share of the simulator's resident set, so it is sized to
/// the text, not beyond it.
const SLOTS: usize = 2048;

/// A direct-mapped word → [`Slot`] memo table.
#[derive(Debug)]
pub struct DecodeCache {
    /// One resolved slot per entry, keyed by the instruction word kept in
    /// its (otherwise meaningless here) `pc` field — a separate key would
    /// pad every entry from 24 to 32 bytes. `None` until first filled.
    slots: Box<[Option<Slot>]>,
    hits: u64,
    misses: u64,
}

impl Default for DecodeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            slots: vec![None; SLOTS].into_boxed_slice(),
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn index(word: u32) -> usize {
        // Opcode bits repeat heavily in the low bits of RISC-V words; fold
        // the upper (rd/rs/imm) bits in so distinct instructions spread.
        ((word >> 2) ^ (word >> 15) ^ (word >> 24)) as usize & (SLOTS - 1)
    }

    /// Decodes and resolves `word`, serving from the memo table when
    /// possible; the caller stamps the fetch PC with [`Slot::at`]. Only
    /// successful decodes are cached; illegal words always re-decode (they
    /// terminate the simulation anyway).
    ///
    /// # Errors
    /// Exactly the errors of [`vortex_isa::decode`].
    #[inline]
    pub fn decode(&mut self, word: u32) -> Result<Slot, DecodeError> {
        let index = Self::index(word);
        if let Some(slot) = self.slots[index] {
            if slot.pc == word {
                self.hits += 1;
                return Ok(slot);
            }
        }
        let slot = Slot::decode(word)?.at(word);
        self.slots[index] = Some(slot);
        self.misses += 1;
        Ok(slot)
    }

    /// `(hits, misses)` — host-side diagnostics only; deliberately *not*
    /// part of [`crate::stats::CoreStats`] so simulation statistics stay
    /// identical with the cache on or off.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::decode;

    /// `addi x1, x0, 42` — a known-good word.
    const ADDI: u32 = 0x02A0_0093;

    #[test]
    fn memoized_decode_matches_direct_decode() {
        let mut cache = DecodeCache::new();
        // Sweep a swath of words; cached and direct decode must agree
        // exactly, on both the Ok and Err sides.
        for base in [0u32, ADDI, 0x0000_00B3, 0xFFFF_FFFF, 0x8000_0000] {
            for delta in 0..64 {
                let word = base.wrapping_add(delta * 0x0101);
                let direct = decode(word);
                let memo1 = cache.decode(word);
                let memo2 = cache.decode(word); // second hit, same answer
                match (direct, memo1, memo2) {
                    (Ok(d), Ok(a), Ok(b)) => {
                        assert_eq!(d, a.instr, "word {word:#010x}");
                        assert_eq!(d, b.instr, "word {word:#010x}");
                    }
                    (Err(_), Err(_), Err(_)) => {}
                    other => panic!("cache changed decode outcome for {word:#010x}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn repeat_decodes_hit() {
        let mut cache = DecodeCache::new();
        for _ in 0..100 {
            cache.decode(ADDI).expect("valid word");
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 99);
    }

    #[test]
    fn conflicting_words_never_alias() {
        // Two different words forced into the same slot must each decode
        // to their own instruction (the stored word is compared exactly).
        let mut cache = DecodeCache::new();
        let a = ADDI;
        let mut b = None;
        for delta in 1..1_000_000u32 {
            let cand = ADDI.wrapping_add(delta << 7); // vary rd upward
            if DecodeCache::index(cand) == DecodeCache::index(a) && decode(cand).is_ok() {
                b = Some(cand);
                break;
            }
        }
        let Some(b) = b else {
            return; // no colliding valid word found — vacuously fine
        };
        let ia = cache.decode(a).unwrap();
        let ib = cache.decode(b).unwrap();
        assert_eq!(cache.decode(a).unwrap(), ia);
        assert_eq!(cache.decode(b).unwrap(), ib);
        assert_ne!(ia, ib);
    }
}
