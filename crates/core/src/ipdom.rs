//! The immediate-post-dominator (IPDOM) stack (paper §4.1.2).
//!
//! `split` evaluates a per-thread predicate and, on divergence, pushes two
//! entries: the original mask as a *fall-through* and the false-predicate
//! threads with their resume PC; execution continues with the
//! true-predicate threads. `join` pops one entry: a non-fall-through entry
//! redirects the wavefront to the stored PC with the stored mask (running
//! the other side of the divergence); a fall-through entry restores the
//! pre-split mask and lets execution continue in a straight line.

/// A divergence-stack misuse detected by [`IpdomStack`]: surfaced to the
/// host as a structured trap instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpdomError {
    /// `join` on an empty stack (unbalanced `split`/`join`).
    Underflow,
    /// `split` nesting exceeded the stack capacity.
    Overflow,
}

/// One IPDOM stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpdomEntry {
    /// Thread mask to restore.
    pub tmask: u32,
    /// Resume PC (ignored for fall-through entries).
    pub pc: u32,
    /// `true` for the reconvergence (original-mask) entry.
    pub fallthrough: bool,
}

/// Outcome of executing `split`.
///
/// `split` *always* pushes at least the fall-through entry, so the `join`
/// that compilers emit at the merge point is balanced on both the uniform
/// and the divergent path (each executed `join` pops exactly one entry; a
/// divergent region executes `join` twice — once per side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitOutcome {
    /// All threads agreed; only the fall-through entry was pushed and the
    /// mask is unchanged.
    Uniform,
    /// Divergence: the wavefront continues with `then_mask`.
    Diverged {
        /// The true-predicate threads that keep running.
        then_mask: u32,
    },
}

/// Outcome of executing `join`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// Restore `tmask` and continue at the next sequential PC.
    FallThrough {
        /// Mask to restore.
        tmask: u32,
    },
    /// Switch to the other divergence side: set `tmask`, jump to `pc`.
    Branch {
        /// Mask of the deferred side.
        tmask: u32,
        /// Its resume PC.
        pc: u32,
    },
}

/// The per-wavefront hardware IPDOM stack.
#[derive(Debug, Clone)]
pub struct IpdomStack {
    entries: Vec<IpdomEntry>,
    capacity: usize,
}

impl IpdomStack {
    /// Creates a stack with `capacity` entries. The RTL sizes it by the
    /// thread count (each divergence level can split at most once per
    /// thread).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity: capacity.max(2),
        }
    }

    /// Executes `split` given the current mask and the per-thread predicate
    /// results (bit i set = thread i's predicate true). Pushes two entries
    /// on divergence.
    ///
    /// # Errors
    /// [`IpdomError::Overflow`] when the nesting depth exceeds the stack
    /// capacity — in hardware this is a programming error the compiler's
    /// nesting-depth limit prevents; the simulator traps instead of
    /// panicking. The stack is left unchanged.
    pub fn split(
        &mut self,
        tmask: u32,
        pred_mask: u32,
        next_pc: u32,
    ) -> Result<SplitOutcome, IpdomError> {
        let then_mask = tmask & pred_mask;
        let else_mask = tmask & !pred_mask;
        if self.entries.len() + 2 > self.capacity * 2 {
            return Err(IpdomError::Overflow);
        }
        self.entries.push(IpdomEntry {
            tmask,
            pc: 0,
            fallthrough: true,
        });
        if then_mask == 0 || else_mask == 0 {
            return Ok(SplitOutcome::Uniform);
        }
        self.entries.push(IpdomEntry {
            tmask: else_mask,
            pc: next_pc,
            fallthrough: false,
        });
        Ok(SplitOutcome::Diverged { then_mask })
    }

    /// Executes `join`, popping one entry.
    ///
    /// # Errors
    /// [`IpdomError::Underflow`] on an empty stack (unbalanced `join`); the
    /// wavefront state is untouched so the trap site can be reported.
    pub fn join(&mut self) -> Result<JoinOutcome, IpdomError> {
        let entry = self.entries.pop().ok_or(IpdomError::Underflow)?;
        if entry.fallthrough {
            Ok(JoinOutcome::FallThrough { tmask: entry.tmask })
        } else {
            Ok(JoinOutcome::Branch {
                tmask: entry.tmask,
                pc: entry.pc,
            })
        }
    }

    /// Current depth in entries.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no divergence is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the stack (wavefront respawn).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

vortex_snapshot::snapshot! {
    impl Snap for IpdomEntry { tmask, pc, fallthrough }
}

vortex_snapshot::snapshot! {
    impl pub state for IpdomStack {
        entries if entries.len() <= *capacity * 2 => "ipdom depth",
        config capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_pushes_one_entry_for_a_balanced_join() {
        let mut s = IpdomStack::new(4);
        assert_eq!(s.split(0b1111, 0b1111, 0x104), Ok(SplitOutcome::Uniform));
        assert_eq!(s.depth(), 1);
        assert_eq!(s.join(), Ok(JoinOutcome::FallThrough { tmask: 0b1111 }));
        assert_eq!(s.split(0b1111, 0b0000, 0x104), Ok(SplitOutcome::Uniform));
        assert_eq!(s.join(), Ok(JoinOutcome::FallThrough { tmask: 0b1111 }));
        assert!(s.is_empty());
    }

    #[test]
    fn divergence_then_two_joins_reconverges() {
        let mut s = IpdomStack::new(4);
        // Threads 0,1 true; threads 2,3 false.
        let out = s.split(0b1111, 0b0011, 0x104).unwrap();
        assert_eq!(out, SplitOutcome::Diverged { then_mask: 0b0011 });
        assert_eq!(s.depth(), 2);
        // First join: switch to the else side at the split's next PC.
        assert_eq!(
            s.join(),
            Ok(JoinOutcome::Branch {
                tmask: 0b1100,
                pc: 0x104
            })
        );
        // Second join: restore the full mask, fall through.
        assert_eq!(s.join(), Ok(JoinOutcome::FallThrough { tmask: 0b1111 }));
        assert!(s.is_empty());
    }

    #[test]
    fn nested_divergence_unwinds_in_order() {
        let mut s = IpdomStack::new(8);
        s.split(0b1111, 0b0011, 0x104).unwrap();
        // Inner split among the then-side threads.
        s.split(0b0011, 0b0001, 0x204).unwrap();
        assert_eq!(s.depth(), 4);
        assert_eq!(
            s.join(),
            Ok(JoinOutcome::Branch {
                tmask: 0b0010,
                pc: 0x204
            })
        );
        assert_eq!(s.join(), Ok(JoinOutcome::FallThrough { tmask: 0b0011 }));
        assert_eq!(
            s.join(),
            Ok(JoinOutcome::Branch {
                tmask: 0b1100,
                pc: 0x104
            })
        );
        assert_eq!(s.join(), Ok(JoinOutcome::FallThrough { tmask: 0b1111 }));
    }

    #[test]
    fn join_on_empty_stack_is_an_underflow_error() {
        let mut s = IpdomStack::new(4);
        assert_eq!(s.join(), Err(IpdomError::Underflow));
        // The stack is still usable afterwards.
        assert!(s.split(0b11, 0b01, 0x104).is_ok());
    }

    #[test]
    fn deep_nesting_is_an_overflow_error() {
        let mut s = IpdomStack::new(1); // capacity clamps to 2 → 4 entries
        assert!(s.split(0b11, 0b01, 0x104).is_ok());
        assert!(s.split(0b01, 0b01, 0x108).is_ok());
        assert_eq!(s.split(0b01, 0b01, 0x10C), Err(IpdomError::Overflow));
        // Failed split must not have pushed anything.
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn masks_partition_exactly() {
        // The union of the two sides equals the original mask and the
        // intersection is empty, for arbitrary inputs.
        for tmask in 0..16u32 {
            for pred in 0..16u32 {
                let mut s = IpdomStack::new(8);
                match s.split(tmask, pred, 0).unwrap() {
                    SplitOutcome::Uniform => {}
                    SplitOutcome::Diverged { then_mask } => {
                        let Ok(JoinOutcome::Branch {
                            tmask: else_mask, ..
                        }) = s.join()
                        else {
                            panic!("first join must branch");
                        };
                        assert_eq!(then_mask | else_mask, tmask);
                        assert_eq!(then_mask & else_mask, 0);
                    }
                }
            }
        }
    }
}
