//! Host-side memoization of `vortex_isa::decode`.
//!
//! Decode is a pure function of the 32-bit instruction word, and kernels
//! re-fetch the same handful of words millions of times (every loop body,
//! every wavefront). A small set-associative cache from word to resolved
//! [`Slot`] (the decoded instruction plus its issue-time answers) lets the
//! steady-state front end skip the decoder and the resolver entirely.
//!
//! **Invalidation** falls out of the keying: because the key is the word
//! *fetched from RAM this cycle* — not the PC — self-modifying code changes
//! the lookup key itself, so a stale mapping can never be served. A cached
//! entry only ever answers for the exact word it was built from.
//!
//! **One table per GPU.** Every core runs the same kernel text, so
//! [`crate::gpu::Gpu`] owns a single memo and lends it to each core's
//! tick. An entry is a pure function of its word, so which core filled it
//! cannot matter, and a code write by one core changes the key every other
//! core looks up. The footprint and the cold misses are paid once per
//! simulation, not once per core.
//!
//! This is a host-throughput device only; it is architecturally invisible.
//! Simulated timing, statistics and results are bit-identical with the
//! cache on or off (asserted by the decode-equivalence tests), which is why
//! it can default on.

use crate::frontend::Slot;
use vortex_isa::DecodeError;

/// Sets of the table. Kernel text in the suite is a few hundred words;
/// 512 sets of [`WAYS`] entries of 24 B are 48 KiB, held once per GPU
/// however many cores share it.
const SETS: usize = 512;

/// Entries per set. Words of one hot loop that share an entry evict each
/// other on every iteration: direct-mapped, twelve colliding pairs in the
/// raster kernel's 144 distinct words made nearly all of its misses, and
/// two ways still left one set of three. Four ways leave none.
const WAYS: usize = 4;

/// A four-way set-associative word → [`Slot`] memo table.
#[derive(Debug)]
pub struct DecodeCache {
    /// Resolved slots, most recently filled way first, keyed by the
    /// instruction word kept in their (otherwise meaningless here) `pc`
    /// field — a separate key would pad every entry from 24 to 32 bytes.
    /// `None` until first filled.
    sets: Box<[[Option<Slot>; WAYS]]>,
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
            sets: vec![[None; WAYS]; SETS].into_boxed_slice(),
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn index(word: u32) -> usize {
        // Opcode bits repeat heavily in the low bits of RISC-V words; fold
        // the upper (rd/rs/imm) bits in so distinct instructions spread.
        ((word >> 2) ^ (word >> 15) ^ (word >> 24)) as usize & (SETS - 1)
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
        let set = &mut self.sets[Self::index(word)];
        if let Some(slot) = set.iter().flatten().find(|slot| slot.pc == word) {
            self.hits += 1;
            return Ok(*slot);
        }
        // Fill the first way, demoting the others and evicting the last.
        let slot = Slot::decode(word)?.at(word);
        set.rotate_right(1);
        set[0] = Some(slot);
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

    /// `n` distinct valid words that all index `ADDI`'s set.
    fn colliding_words(n: usize) -> Vec<u32> {
        let set = DecodeCache::index(ADDI);
        let words: Vec<u32> = (0..1_000_000u32)
            .map(|delta| ADDI.wrapping_add(delta << 7)) // vary every field above the opcode
            .filter(|&w| DecodeCache::index(w) == set && decode(w).is_ok())
            .take(n)
            .collect();
        assert_eq!(words.len(), n, "enough colliding valid words");
        words
    }

    #[test]
    fn conflicting_words_never_alias() {
        // More distinct words than ways, forced into one set, must each
        // decode to their own instruction however they evict each other
        // (the stored word is compared exactly).
        let mut cache = DecodeCache::new();
        let words = colliding_words(WAYS + 2);
        for round in 0..3 {
            for &w in &words {
                let slot = cache.decode(w).unwrap();
                assert_eq!(
                    slot.instr,
                    decode(w).unwrap(),
                    "round {round} word {w:#010x}"
                );
                assert_eq!(slot.pc, w);
            }
        }
        // Cycling through more words than ways misses on every access.
        assert_eq!(cache.stats(), (0, 3 * words.len() as u64));
    }

    #[test]
    fn words_sharing_a_set_stay_resident_up_to_its_ways() {
        let mut cache = DecodeCache::new();
        let words = colliding_words(WAYS);
        for _ in 0..10 {
            for &w in &words {
                cache.decode(w).unwrap();
            }
        }
        assert_eq!(cache.stats(), (9 * WAYS as u64, WAYS as u64));
    }
}
