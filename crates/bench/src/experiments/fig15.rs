//! Figure 15: area distribution by component (8-core Arria 10 build).

use super::{Report, Scale};
use crate::{f0, f2, Table};
use vortex_model::fpga::AREA_BREAKDOWN;
use vortex_model::{gpu_synthesis, FpgaDevice};

pub fn report(_: Scale) -> Report {
    let total = gpu_synthesis(8, FpgaDevice::Arria10);
    let mut md = format!(
        "8-core design: {}% of the Arria 10's ALMs (paper: 53%)\n\n",
        f0(total.alm_pct)
    );
    let mut t = Table::new(["component", "share", "ALM%-of-device"]);
    for (name, share) in AREA_BREAKDOWN {
        t.row([
            name.to_string(),
            format!("{:.0}%", share * 100.0),
            f2(total.alm_pct * share),
        ]);
    }
    md += &t.to_markdown();
    md += "\n(paper: cost \"occupied primarily by the texture units and caches\"; \
           FPU small because FMAs map to hard DSP blocks)\n";
    Report::from(md)
}
