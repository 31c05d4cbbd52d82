//! Table 5: virtual multi-ported 4-bank cache synthesis results.

use super::{Report, Scale};
use crate::{f0, Table};
use vortex_model::cache_resources;
use vortex_model::calib::TABLE5;

pub fn report(_: Scale) -> Report {
    let mut t = Table::new([
        "ports",
        "LUT",
        "LUT(paper)",
        "Regs",
        "Regs(paper)",
        "BRAM",
        "BRAM(paper)",
        "f(MHz)",
        "f(paper)",
    ]);
    for p in TABLE5 {
        let m = cache_resources(p.ports);
        t.row([
            p.ports.to_string(),
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
