//! The mask-driven front end against its plain-loop definitions: the
//! round-robin orders equal the modulo implementation they replaced, and
//! the two-entry instruction-buffer ring equals a `VecDeque` model with
//! every mask matching its definition after every operation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use vortex_core::frontend::{FrontEnd, Slot};
use vortex_core::scheduler::{rr_order, wavefront_mask, SchedPolicy, WavefrontScheduler};

const WAVEFRONT_COUNTS: [usize; 7] = [1, 2, 3, 4, 5, 63, 64];

/// The scheduler as it was before the masks: a modulo scan from the
/// round-robin pointer. Reference only.
struct ModuloScheduler {
    nw: usize,
    policy: SchedPolicy,
    visible: u64,
    rr_next: usize,
    starved: u64,
}

impl ModuloScheduler {
    fn pick(&mut self, ready_mask: u64) -> Option<usize> {
        if self.policy == SchedPolicy::RoundRobin || self.visible & ready_mask == 0 {
            self.visible = ready_mask;
        }
        let candidates = self.visible & ready_mask;
        for i in 0..self.nw {
            let wid = (self.rr_next + i) % self.nw;
            if candidates & (1 << wid) != 0 {
                self.visible &= !(1 << wid);
                self.rr_next = (wid + 1) % self.nw;
                return Some(wid);
            }
        }
        self.starved += 1;
        None
    }
}

/// Sparse, dense and malformed (bits at or above `nw`) ready masks.
fn random_mask(rng: &mut StdRng, nw: usize) -> u64 {
    let m: u64 = rng.random::<u64>() & rng.random::<u64>();
    match rng.random_range(0..4u32) {
        0 => m,
        1 => m & wavefront_mask(nw),
        2 => 1u64 << rng.random_range(0..64u32),
        _ => wavefront_mask(nw) & !m,
    }
}

#[test]
fn pick_equals_the_modulo_scheduler() {
    for policy in [SchedPolicy::TwoLevel, SchedPolicy::RoundRobin] {
        for nw in WAVEFRONT_COUNTS {
            let mut rng = StdRng::seed_from_u64(nw as u64);
            let mut new = WavefrontScheduler::with_policy(nw, policy);
            let mut old = ModuloScheduler {
                nw,
                policy,
                visible: 0,
                rr_next: 0,
                starved: 0,
            };
            // The pointer and visible mask evolve with the picks, so a long
            // random sequence visits every pointer position.
            for step in 0..4000 {
                let ready = random_mask(&mut rng, nw);
                assert_eq!(
                    new.pick(ready),
                    old.pick(ready),
                    "{policy:?} nw={nw} step={step} ready={ready:#x}"
                );
            }
            assert_eq!(new.starved_cycles, old.starved, "{policy:?} nw={nw}");
        }
    }
}

#[test]
fn rr_order_equals_the_modulo_scan() {
    // `Core::issue_scan` visits `rr_order(nonempty, issue_rr)`.
    for nw in WAVEFRONT_COUNTS {
        let mut rng = StdRng::seed_from_u64(0x155 + nw as u64);
        for _ in 0..2000 {
            let mask = random_mask(&mut rng, nw) & wavefront_mask(nw);
            let start = rng.random_range(0..nw);
            let modulo: Vec<usize> = (0..nw)
                .map(|i| (start + i) % nw)
                .filter(|wid| mask & (1 << wid) != 0)
                .collect();
            let masked: Vec<usize> = rr_order(mask, start).collect();
            assert_eq!(masked, modulo, "nw={nw} start={start} mask={mask:#x}");
        }
    }
}

/// Definitions of the masks, from the model.
fn model_masks(bufs: &[VecDeque<Slot>], pending: &[Option<u32>]) -> (u64, u64) {
    let mut nonempty = 0u64;
    let mut blocked = 0u64;
    for (wid, buf) in bufs.iter().enumerate() {
        nonempty |= u64::from(!buf.is_empty()) << wid;
        let cf_block = buf.iter().any(|s| s.blocks_fetch);
        let full = buf.len() == FrontEnd::IBUFFER_DEPTH;
        blocked |= u64::from(full || cf_block || pending[wid].is_some()) << wid;
    }
    (nonempty, blocked)
}

#[test]
fn ring_and_masks_equal_a_vecdeque_model() {
    // addi / lw / beq / ecall: free, load-gated, and two fetch-blocking.
    let words = [0x02A0_0093u32, 0x0000_A283, 0x0000_0463, 0x0000_0073];
    let slots: Vec<Slot> = words
        .iter()
        .map(|&w| Slot::decode(w).expect("valid word"))
        .collect();
    assert!(!slots[0].blocks_fetch && slots[2].blocks_fetch && slots[3].blocks_fetch);
    for nw in WAVEFRONT_COUNTS {
        let mut rng = StdRng::seed_from_u64(0xF00 + nw as u64);
        let mut front = FrontEnd::new(nw);
        let mut bufs = vec![VecDeque::new(); nw];
        let mut pending = vec![None; nw];
        for step in 0..6000u32 {
            let wid = rng.random_range(0..nw);
            match rng.random_range(0..8u32) {
                // The fetch stage never pushes past a fetch-blocking slot
                // or into a full buffer.
                0..=2 => {
                    if front.fetch_blocked() & (1 << wid) == 0 {
                        let slot = slots[rng.random_range(0..slots.len())].at(step);
                        front.push(wid, slot);
                        bufs[wid].push_back(slot);
                    }
                }
                3 | 4 => assert_eq!(front.pop(wid), bufs[wid].pop_front()),
                5 => {
                    if pending[wid].is_none() {
                        front.set_fetch_pending(wid, step);
                        pending[wid] = Some(step);
                    }
                }
                6 => assert_eq!(front.take_fetch_pending(wid), pending[wid].take()),
                _ => {
                    front.clear(wid);
                    bufs[wid].clear();
                    pending[wid] = None;
                }
            }
            front.check_masks();
            assert_eq!(
                (front.nonempty(), front.fetch_blocked()),
                model_masks(&bufs, &pending),
                "nw={nw} step={step}"
            );
            assert_eq!(front.front(wid), bufs[wid].front());
            assert!(front.iter(wid).eq(bufs[wid].iter()));
            assert_eq!(front.len(wid), bufs[wid].len());
            assert_eq!(front.fetch_pending(wid), pending[wid]);
            let total: usize = bufs.iter().map(VecDeque::len).sum();
            assert_eq!(front.occupancy(), total);
        }
    }
}
