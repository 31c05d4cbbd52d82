//! Figures 16/17: the ASIC design point — floorplan area shares (the GDS
//! substitute) and the power-density distribution at 300 MHz.

use super::{Report, Scale};
use crate::{f2, Table};
use std::fmt::Write as _;
use vortex_model::asic_power_report;

pub fn report(_: Scale) -> Report {
    let power = asic_power_report(300.0);
    let mut md = format!(
        "total power at {} MHz: {:.1} mW (paper: 46.8 mW)\n\n",
        power.freq_mhz, power.total_mw
    );
    let mut t = Table::new(["component", "power (mW)", "share"]);
    for c in &power.components {
        t.row([
            c.name.to_string(),
            f2(c.mw),
            format!("{:.0}%", c.share * 100.0),
        ]);
    }
    let _ = writeln!(md, "{}", t.to_markdown());

    // Frequency scaling curve (what a power-density exploration sweeps).
    let mut s = Table::new(["freq (MHz)", "total power (mW)"]);
    for f in [100.0, 200.0, 300.0, 400.0] {
        s.row([f2(f), f2(asic_power_report(f).total_mw)]);
    }
    let _ = writeln!(md, "{}", s.to_markdown());
    Report::from(md)
}
