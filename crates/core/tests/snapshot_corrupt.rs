//! Corrupt snapshots must be refused with a structured
//! `SimError::SnapshotCorrupt` — never a panic, never a silently wrong
//! machine. The adversary here is fuzz-style: every truncation prefix,
//! single bit flips at deterministic pseudo-random positions (the
//! `vortex_faults::splitmix` stream, same generator the fault injector
//! uses), a scrambled magic, an unsupported version, and a snapshot from
//! a differently-configured machine.

use vortex_core::{Gpu, GpuConfig, SimError};
use vortex_isa::{encode, Instr, Reg};

const ENTRY: u32 = 0x8000_0000;

/// A tiny machine paused mid-kernel, plus its snapshot: the restore
/// target for every corruption below.
fn paused_gpu() -> (Gpu, Vec<u8>) {
    let mut gpu = Gpu::new(GpuConfig::with_cores(1));
    // A four-instruction countdown loop, hand-encoded so this test does
    // not need the assembler: li t0, 64; loop: addi t0, t0, -1;
    // bnez t0, loop; ecall.
    let image: Vec<u32> = vec![
        encode(&Instr::OpImm {
            op: vortex_isa::OpImmKind::Addi,
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 64,
        }),
        encode(&Instr::OpImm {
            op: vortex_isa::OpImmKind::Addi,
            rd: Reg::X5,
            rs1: Reg::X5,
            imm: -1,
        }),
        encode(&Instr::Branch {
            cond: vortex_isa::BranchCond::Ne,
            rs1: Reg::X5,
            rs2: Reg::X0,
            offset: -4,
        }),
        encode(&Instr::Ecall),
    ];
    let bytes: Vec<u8> = image.iter().flat_map(|w| w.to_le_bytes()).collect();
    gpu.ram.write_bytes(ENTRY, &bytes);
    gpu.launch(ENTRY);
    match gpu.run(40) {
        Err(SimError::Timeout { .. }) => {}
        other => panic!("expected a mid-kernel pause, got {other:?}"),
    }
    let snap = gpu.save_snapshot();
    (gpu, snap)
}

fn fresh_gpu() -> Gpu {
    Gpu::new(GpuConfig::with_cores(1))
}

fn expect_corrupt(bytes: &[u8], what: &str) {
    match fresh_gpu().restore_snapshot(bytes) {
        Err(SimError::SnapshotCorrupt(reason)) => {
            assert!(!reason.is_empty(), "{what}: reason must be diagnostic");
        }
        Ok(()) => panic!("{what}: corrupt snapshot restored successfully"),
        Err(other) => panic!("{what}: wrong error class {other:?}"),
    }
}

/// Recomputes the CRC trailer over deliberately patched bytes, the way a
/// writer of such a snapshot would have sealed it.
fn reseal(bytes: &mut [u8]) {
    let crc_at = bytes.len() - 4;
    let crc = vortex_snapshot::crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn every_truncation_prefix_is_refused() {
    let (_, snap) = paused_gpu();
    assert!(snap.len() > 100, "snapshot is non-trivial");
    // Every prefix short enough to cut the frame, then a sweep of longer
    // prefixes (step 7 keeps the loop count sane on multi-KB snapshots;
    // 7 is coprime to every field width so all alignments are visited).
    for len in 0..64.min(snap.len()) {
        expect_corrupt(&snap[..len], &format!("truncated to {len} bytes"));
    }
    for len in (64..snap.len()).step_by(7) {
        expect_corrupt(&snap[..len], &format!("truncated to {len} bytes"));
    }
}

#[test]
fn single_bit_flips_are_refused() {
    let (_, snap) = paused_gpu();
    let nbits = snap.len() as u64 * 8;
    let mut z = 0xfee1_dead_beef_cafe_u64;
    for _ in 0..256 {
        z = vortex_faults::splitmix(z);
        let bit = z % nbits;
        let mut bad = snap.clone();
        bad[(bit / 8) as usize] ^= 1 << (bit % 8);
        // Flips in the CRC field itself, the length field, the payload —
        // all must come back as a structured refusal.
        expect_corrupt(&bad, &format!("bit {bit} flipped"));
    }
}

#[test]
fn foreign_magic_and_version_are_refused() {
    let (_, snap) = paused_gpu();
    let mut bad_magic = snap.clone();
    bad_magic[0..8].copy_from_slice(b"NOTASNAP");
    expect_corrupt(&bad_magic, "wrong magic");

    // A version bump is the one corruption that must present as
    // *unsupported version*, not a checksum accident: future snapshot
    // producers re-seal, so patch the version and recompute the CRC the
    // way a v2 writer would.
    let mut bad_version = snap.clone();
    bad_version[8..12].copy_from_slice(&2u32.to_le_bytes());
    reseal(&mut bad_version);
    match fresh_gpu().restore_snapshot(&bad_version) {
        Err(SimError::SnapshotCorrupt(reason)) => {
            assert!(
                reason.contains("version"),
                "diagnosis must name the version: {reason}"
            );
        }
        other => panic!("future-version snapshot accepted: {other:?}"),
    }
}

#[test]
fn snapshot_from_a_different_config_is_refused() {
    let (_, snap) = paused_gpu();
    let mut other = Gpu::new(GpuConfig::with_cores(2));
    match other.restore_snapshot(&snap) {
        Err(SimError::SnapshotCorrupt(reason)) => {
            assert!(
                reason.contains("configur"),
                "diagnosis must name the config mismatch: {reason}"
            );
        }
        other => panic!("cross-config snapshot accepted: {other:?}"),
    }
}

#[test]
fn empty_and_garbage_blobs_are_refused() {
    expect_corrupt(&[], "empty blob");
    expect_corrupt(&[0u8; 27], "sub-header blob");
    let mut z = 0x1234_5678_u64;
    let garbage: Vec<u8> = (0..4096)
        .map(|_| {
            z = vortex_faults::splitmix(z);
            z as u8
        })
        .collect();
    expect_corrupt(&garbage, "4 KiB of splitmix noise");
}

#[test]
fn restore_failure_does_not_poison_future_restores() {
    // A failed restore may leave the target half-written; the documented
    // contract is "discard the machine". But the *snapshot* must remain
    // restorable into a new machine, and a machine that only ever saw
    // good bytes must work — i.e. corruption handling has no global
    // side effects.
    let (gpu, snap) = paused_gpu();
    let mut bad = snap.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    expect_corrupt(&bad, "mid-payload flip");
    let mut fresh = fresh_gpu();
    fresh
        .restore_snapshot(&snap)
        .expect("pristine snapshot restores after a corrupt attempt");
    assert_eq!(fresh.cycle(), gpu.cycle(), "restored machine is at the pause point");
    let stats = fresh.run(100_000).expect("restored machine completes");
    assert!(stats.cycles > gpu.cycle(), "machine made progress after restore");
}

#[test]
fn nonzero_reserved_store_count_is_refused() {
    use vortex_snapshot::{Snap, Writer, HEADER_BYTES};
    let (gpu, snap) = paused_gpu();
    // Each core's payload ends `[reserved u64][cycle u64][drained]
    // [has_faults][CoreStats]`, and core 0's payload follows the
    // container header and the GPU's three leading u64s.
    let (mut core, mut stats) = (Writer::new(), Writer::new());
    gpu.core(0).save_state(&mut core);
    gpu.core(0).stats_snapshot().save(&mut stats);
    let at = HEADER_BYTES + 3 * 8 + core.len() - stats.len() - 2 - 8 - 8;
    let anchor = [0u64.to_le_bytes(), gpu.cycle().to_le_bytes()].concat();
    assert_eq!(snap[at..at + 16], anchor, "reserved word, then the core's cycle");

    // Re-sealed, so the refusal comes from the field check and not from
    // the checksum.
    let mut bad = snap.clone();
    bad[at] = 1;
    reseal(&mut bad);
    match fresh_gpu().restore_snapshot(&bad) {
        Err(SimError::SnapshotCorrupt(reason)) => {
            assert!(reason.contains("reserved"), "diagnosis must name the field: {reason}");
        }
        other => panic!("non-zero reserved field accepted: {other:?}"),
    }
}
