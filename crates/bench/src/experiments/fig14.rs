//! Figure 14: IPC for the five design-space core configurations across
//! the benchmark suite (single core).

use super::{suite_report, Report, Scale, DESIGN_SPACE};
use vortex_core::{CoreConfig, GpuConfig};

pub fn report(scale: Scale) -> Report {
    let configs = DESIGN_SPACE.map(|(w, th)| {
        let mut config = GpuConfig::with_cores(1);
        config.core = CoreConfig::with_dims(w, th);
        (format!("{w}W-{th}T"), config)
    });
    suite_report(
        scale,
        &configs,
        "(paper's shape: 2W-8T fastest for sgemm, 8W-2T slowest; 4W-4T the \
         area/perf compromise)",
    )
}
