//! Figure 18: Vortex performance scaling — aggregate IPC as the core
//! count grows from 1 to 32.

use super::{suite_report, Report, Scale, CORE_COUNTS};
use vortex_core::GpuConfig;

pub fn report(scale: Scale) -> Report {
    let configs = CORE_COUNTS.map(|c| (format!("{c}c"), GpuConfig::with_cores(c)));
    suite_report(
        scale,
        &configs,
        "(paper's shape: compute-bound group — sgemm/vecadd/sfilter — scales \
         near-linearly; memory-bound group scales sublinearly; nearn is \
         flattest, throttled by its long-latency fsqrt)",
    )
}
