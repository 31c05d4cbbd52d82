//! Table 3: synthesis results for different core configurations.

use super::{Report, Scale, DESIGN_SPACE};
use crate::{f0, Table};
use vortex_model::calib::TABLE3;
use vortex_model::core_resources;

pub fn report(_: Scale) -> Report {
    let mut t = Table::new([
        "config",
        "LUT",
        "LUT(paper)",
        "Regs",
        "Regs(paper)",
        "BRAM",
        "BRAM(paper)",
        "f(MHz)",
        "f(paper)",
    ]);
    for (w, threads) in DESIGN_SPACE {
        let m = core_resources(w, threads);
        let p = TABLE3
            .iter()
            .find(|p| p.wavefronts == w && p.threads == threads)
            .expect("published point");
        t.row([
            format!("{w}W-{threads}T"),
            f0(m.luts),
            f0(p.luts),
            f0(m.regs),
            f0(p.regs),
            f0(m.brams),
            f0(p.brams),
            f0(m.fmax),
            f0(p.fmax),
        ]);
    }
    Report::from(t.to_markdown() + "\n")
}
