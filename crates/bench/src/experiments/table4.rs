//! Table 4: hardware synthesis for all core configurations (1-16 cores on
//! Arria 10, 32 on Stratix 10).

use super::{Report, Scale, CORE_COUNTS};
use crate::{f0, Table};
use vortex_model::calib::TABLE4;
use vortex_model::{gpu_synthesis, FpgaDevice};

pub fn report(_: Scale) -> Report {
    let mut t = Table::new([
        "cores",
        "ALM% ",
        "ALM%(paper)",
        "Regs(K)",
        "Regs(paper)",
        "BRAM%",
        "BRAM%(paper)",
        "DSP%",
        "DSP%(paper)",
        "fmax",
        "fmax(paper)",
        "FPGA",
    ]);
    for cores in CORE_COUNTS {
        let device = if cores > 16 {
            FpgaDevice::Stratix10
        } else {
            FpgaDevice::Arria10
        };
        let m = gpu_synthesis(cores, device);
        let p = TABLE4
            .iter()
            .find(|p| p.cores == cores)
            .expect("published point");
        t.row([
            cores.to_string(),
            f0(m.alm_pct),
            f0(p.alm_pct),
            f0(m.regs_k),
            f0(p.regs_k),
            f0(m.bram_pct),
            f0(p.bram_pct),
            f0(m.dsp_pct),
            f0(p.dsp_pct),
            f0(m.fmax),
            f0(p.fmax),
            device.name().to_string(),
        ]);
    }
    Report::from(t.to_markdown() + "\n")
}
