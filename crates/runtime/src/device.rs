//! The user-facing driver handle — the OPAE-level API of Figure 9.

use crate::abi;
use crate::afu::{CommandProcessor, MmioReg};
use std::fmt;
use vortex_asm::Program;
use vortex_core::{Gpu, GpuConfig, GpuStats, HangReport, SimError};

/// A device-memory allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceBuffer {
    /// Device byte address.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
}

/// Errors from driver operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Device memory heap exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u32,
    },
    /// The kernel did not complete within the cycle budget.
    Timeout {
        /// Cycles executed.
        cycles: u64,
    },
    /// Access outside an allocated buffer.
    BadAccess {
        /// Offending address.
        addr: u32,
    },
    /// The watchdog detected that the device stopped making forward
    /// progress; the report names the stuck components.
    Hang(Box<HangReport>),
    /// The pipeline raised a trap (divergence-stack underflow/overflow,
    /// illegal instruction, ...).
    Trap(SimError),
    /// A snapshot could not be restored (truncated, corrupted, wrong
    /// version, or taken under a different device configuration).
    SnapshotCorrupt(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutOfMemory { requested } => {
                write!(f, "device heap exhausted allocating {requested} bytes")
            }
            RuntimeError::Timeout { cycles } => {
                write!(f, "kernel exceeded the cycle budget ({cycles} cycles)")
            }
            RuntimeError::BadAccess { addr } => {
                write!(f, "access outside allocated device memory at {addr:#x}")
            }
            RuntimeError::Hang(report) => write!(f, "{report}"),
            RuntimeError::Trap(err) => write!(f, "device trap: {err}"),
            RuntimeError::SnapshotCorrupt(reason) => {
                write!(f, "snapshot cannot be restored: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// What a kernel run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Device performance counters.
    pub stats: GpuStats,
    /// Host-side cycles spent in driver transactions so far.
    pub host_cycles: u64,
}

/// An open Vortex device: the simulated GPU behind the driver API.
#[derive(Debug)]
pub struct Device {
    gpu: Gpu,
    afu: CommandProcessor,
    heap_next: u32,
    /// Default cycle budget for [`Device::run_kernel`].
    pub max_cycles: u64,
}

impl Device {
    /// Opens a device with the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            gpu: Gpu::new(config),
            afu: CommandProcessor::new(),
            heap_next: abi::HEAP_BASE,
            max_cycles: 500_000_000,
        }
    }

    /// Allocates `size` bytes of device memory (64-byte aligned, matching
    /// the cache line).
    ///
    /// # Errors
    /// Fails when the heap region is exhausted.
    pub fn alloc(&mut self, size: u32) -> Result<DeviceBuffer, RuntimeError> {
        let aligned = size
            .checked_next_multiple_of(64)
            .ok_or(RuntimeError::OutOfMemory { requested: size })?;
        let addr = self.heap_next;
        let end = addr
            .checked_add(aligned)
            .filter(|&e| e <= abi::STACK_TOP - 512 * abi::STACK_SIZE)
            .ok_or(RuntimeError::OutOfMemory { requested: size })?;
        self.heap_next = end;
        Ok(DeviceBuffer { addr, size })
    }

    /// Checks that a buffer describes a valid device-address range.
    fn check_buffer(buf: DeviceBuffer) -> Result<(), RuntimeError> {
        buf.addr
            .checked_add(buf.size)
            .map(|_| ())
            .ok_or(RuntimeError::BadAccess { addr: buf.addr })
    }

    /// Uploads bytes into a buffer (DMA through the command processor).
    ///
    /// # Errors
    /// [`RuntimeError::BadAccess`] if the data does not fit in the buffer
    /// or the buffer wraps the device address space.
    pub fn upload(&mut self, buf: DeviceBuffer, data: &[u8]) -> Result<(), RuntimeError> {
        Self::check_buffer(buf)?;
        if data.len() as u32 > buf.size {
            return Err(RuntimeError::BadAccess { addr: buf.addr });
        }
        self.afu.dma_upload(&mut self.gpu, buf.addr, data);
        Ok(())
    }

    /// Downloads a buffer's contents.
    ///
    /// # Errors
    /// [`RuntimeError::BadAccess`] if the buffer wraps the device address
    /// space.
    pub fn download(&mut self, buf: DeviceBuffer) -> Result<Vec<u8>, RuntimeError> {
        Self::check_buffer(buf)?;
        Ok(self
            .afu
            .dma_download(&self.gpu, buf.addr, buf.size as usize))
    }

    /// Downloads a buffer as little-endian `u32` words.
    ///
    /// # Errors
    /// [`RuntimeError::BadAccess`] if the buffer wraps the device address
    /// space.
    pub fn download_words(&mut self, buf: DeviceBuffer) -> Result<Vec<u32>, RuntimeError> {
        Ok(self
            .download(buf)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Downloads a buffer as `f32` values.
    ///
    /// # Errors
    /// [`RuntimeError::BadAccess`] if the buffer wraps the device address
    /// space.
    pub fn download_floats(&mut self, buf: DeviceBuffer) -> Result<Vec<f32>, RuntimeError> {
        Ok(self
            .download_words(buf)?
            .into_iter()
            .map(f32::from_bits)
            .collect())
    }

    /// Uploads a program image to its load address.
    pub fn load_program(&mut self, program: &Program) {
        self.afu
            .dma_upload(&mut self.gpu, program.base, &program.to_bytes());
    }

    /// Uploads the kernel argument block.
    pub fn write_args(&mut self, args: &crate::ArgWriter) {
        self.afu
            .dma_upload(&mut self.gpu, abi::ARG_BASE, args.bytes());
    }

    /// Launches a kernel at `entry` and runs it to completion.
    ///
    /// # Errors
    /// [`RuntimeError::Timeout`] if `max_cycles` elapses first,
    /// [`RuntimeError::Hang`] if the watchdog finds the device stuck, and
    /// [`RuntimeError::Trap`] for pipeline traps.
    pub fn run_kernel(&mut self, entry: u32) -> Result<RunReport, RuntimeError> {
        self.afu.mmio_write(&mut self.gpu, MmioReg::EntryPc, entry);
        self.afu.mmio_write(&mut self.gpu, MmioReg::Control, 1);
        let stats = self
            .afu
            .run_to_completion(&mut self.gpu, self.max_cycles)
            .map_err(|e| match e {
                SimError::Timeout { cycles } => RuntimeError::Timeout { cycles },
                SimError::Hang(report) => RuntimeError::Hang(report),
                trap => RuntimeError::Trap(trap),
            })?;
        Ok(RunReport {
            stats,
            host_cycles: self.afu.host_cycles,
        })
    }

    /// The sampled telemetry time series, when `GpuConfig::
    /// sample_interval` enabled one. Windows accumulate across launches
    /// on the same device (telemetry follows GPU cycles, not kernels).
    pub fn time_series(&self) -> Option<&vortex_core::telemetry::TimeSeries> {
        self.gpu.time_series()
    }

    /// The merged PC-level profile, when `GpuConfig::profile` enabled the
    /// profiler. Like telemetry, it accumulates across launches on the
    /// same device.
    pub fn profile(&self) -> Option<vortex_core::profile::GpuProfile> {
        self.gpu.profile()
    }

    /// Serializes the complete device state (GPU architectural state,
    /// memory image, fault-plan positions, telemetry) into a versioned,
    /// checksummed snapshot container.
    ///
    /// Host-side driver bookkeeping (`heap_next`, `afu.host_cycles`,
    /// `max_cycles`) is included so a restored device continues
    /// allocating and accounting exactly where the saved one stopped.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = vortex_snapshot::Writer::new();
        w.u32(self.heap_next);
        w.u64(self.afu.host_cycles);
        w.u64(self.max_cycles);
        w.bytes(&self.gpu.save_snapshot());
        vortex_snapshot::seal(self.gpu.config_fingerprint(), &w.into_bytes())
    }

    /// Restores device state from a snapshot produced by
    /// [`Device::save_snapshot`] on a device with the same configuration.
    ///
    /// # Errors
    /// [`RuntimeError::SnapshotCorrupt`] when the snapshot is truncated,
    /// fails its checksum, has an unsupported version, or was taken under
    /// a different configuration. On error the device may be partially
    /// overwritten and must be discarded.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), RuntimeError> {
        let payload = vortex_snapshot::open(bytes, self.gpu.config_fingerprint())
            .map_err(|e| RuntimeError::SnapshotCorrupt(e.to_string()))?;
        let mut r = vortex_snapshot::Reader::new(payload);
        let inner = (|| {
            let heap_next = r.u32()?;
            let host_cycles = r.u64()?;
            let max_cycles = r.u64()?;
            let gpu_bytes = r.bytes()?;
            r.finish()?;
            Ok::<_, vortex_snapshot::SnapError>((heap_next, host_cycles, max_cycles, gpu_bytes))
        })()
        .map_err(|e| RuntimeError::SnapshotCorrupt(e.to_string()))?;
        let (heap_next, host_cycles, max_cycles, gpu_bytes) = inner;
        self.gpu
            .restore_snapshot(gpu_bytes)
            .map_err(|e| RuntimeError::SnapshotCorrupt(e.to_string()))?;
        self.heap_next = heap_next;
        self.afu.host_cycles = host_cycles;
        self.max_cycles = max_cycles;
        Ok(())
    }

    /// The underlying GPU (tests and experiments that need direct access).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the underlying GPU.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// The launch dimensions of this device.
    pub fn dims(&self) -> crate::LaunchDims {
        crate::LaunchDims::of(self.gpu.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::emit_spawn_tasks;
    use crate::ArgWriter;
    use vortex_asm::Assembler;
    use vortex_isa::{csr, Reg};

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let mut dev = Device::new(GpuConfig::with_cores(1));
        let a = dev.alloc(100).unwrap();
        let b = dev.alloc(1).unwrap();
        assert_eq!(a.addr % 64, 0);
        assert_eq!(b.addr, a.addr + 128);
        assert!(dev.alloc(u32::MAX).is_err());
    }

    #[test]
    fn upload_bounds_are_checked() {
        let mut dev = Device::new(GpuConfig::with_cores(1));
        let buf = dev.alloc(4).unwrap();
        assert!(dev.upload(buf, &[0; 8]).is_err());
        assert!(dev.upload(buf, &[1, 2, 3, 4]).is_ok());
        assert_eq!(dev.download(buf).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn wrapping_buffer_is_a_bad_access_not_a_panic() {
        let mut dev = Device::new(GpuConfig::with_cores(1));
        let bogus = DeviceBuffer {
            addr: u32::MAX - 2,
            size: 8,
        };
        assert_eq!(
            dev.download(bogus),
            Err(RuntimeError::BadAccess { addr: u32::MAX - 2 })
        );
        assert_eq!(
            dev.upload(bogus, &[0; 8]),
            Err(RuntimeError::BadAccess { addr: u32::MAX - 2 })
        );
        assert!(dev.download_words(bogus).is_err());
        assert!(dev.download_floats(bogus).is_err());
    }

    #[test]
    fn hang_report_reaches_the_driver_api() {
        let mut config = GpuConfig::with_cores(1);
        config.watchdog_cycles = 1_000;
        let mut dev = Device::new(config);
        dev.gpu_mut().apply_faults(&vortex_faults::FaultConfig {
            seed: 11,
            dram_drop: 1000,
            ..vortex_faults::FaultConfig::off()
        });
        let mut a = Assembler::new();
        a.ecall();
        let prog = a.assemble(abi::CODE_BASE).unwrap();
        dev.load_program(&prog);
        match dev.run_kernel(prog.entry) {
            Err(RuntimeError::Hang(report)) => {
                let text = report.to_string();
                assert!(text.contains("no forward progress"), "{text}");
            }
            other => panic!("expected a hang report, got {other:?}"),
        }
    }

    /// End-to-end: a kernel that writes `gtid * scale` into an output
    /// buffer for every work item, launched through the full driver path.
    #[test]
    fn full_driver_path_runs_a_simt_kernel() {
        let (report, result) = run_scale_kernel(Device::new(GpuConfig::with_cores(2)));
        let expect: Vec<u32> = (0..64).map(|i| i * 3).collect();
        assert_eq!(result, expect);
        assert!(report.stats.cycles > 0);
        assert!(report.host_cycles > 0);
        // Both cores participated.
        assert!(report.stats.cores.iter().all(|c| c.instrs > 0));
    }

    /// Launches the gtid*scale kernel on `dev` and returns the run
    /// report plus the downloaded output buffer.
    fn run_scale_kernel(mut dev: Device) -> (RunReport, Vec<u32>) {
        let n = 64u32;
        let out = dev.alloc(n * 4).unwrap();

        let mut args = ArgWriter::new();
        args.word(out.addr).word(n).word(3); // dst, n, scale
        dev.write_args(&args);

        let mut a = Assembler::new();
        emit_spawn_tasks(&mut a, "body").unwrap();
        a.label("body").unwrap();
        a.lw(Reg::X11, Reg::X10, 0); // dst
        a.lw(Reg::X12, Reg::X10, 4); // n
        a.lw(Reg::X13, Reg::X10, 8); // scale
        a.csrr(Reg::X14, csr::VX_GTID); // i = gtid
        // stride = NC*NW*NT
        a.csrr(Reg::X15, csr::VX_NC);
        a.csrr(Reg::X16, csr::VX_NW);
        a.mul(Reg::X15, Reg::X15, Reg::X16);
        a.csrr(Reg::X16, csr::VX_NT);
        a.mul(Reg::X15, Reg::X15, Reg::X16);
        a.label("loop").unwrap();
        a.bge(Reg::X14, Reg::X12, "done");
        a.mul(Reg::X17, Reg::X14, Reg::X13); // i * scale
        a.slli(Reg::X18, Reg::X14, 2);
        a.add(Reg::X18, Reg::X18, Reg::X11);
        a.sw(Reg::X17, Reg::X18, 0);
        a.add(Reg::X14, Reg::X14, Reg::X15);
        a.j("loop");
        a.label("done").unwrap();
        a.ret();
        let prog = a.assemble(abi::CODE_BASE).unwrap();

        dev.load_program(&prog);
        let report = dev.run_kernel(prog.entry).unwrap();
        let result = dev.download_words(out).unwrap();
        (report, result)
    }
}
