//! Deterministic, seed-driven fault injection for the Vortex simulator.
//!
//! The paper's SIMX driver exists to explore configurations the FPGA cannot
//! hold (§4.5), which means the simulator has to *diagnose* pathological
//! behaviour — MSHR-full deadlock, elastic-handshake livelock, dropped
//! responses — rather than fall over. This crate provides the stimulus side
//! of that story: a [`FaultConfig`] describes *what* to inject (stall /
//! delay / drop / corrupt probabilities per subsystem) and [`FaultPlan`]
//! is a per-site deterministic stream of injection decisions derived from
//! `(seed, site id)`. Two runs with the same seed and configuration make
//! byte-identical decisions, so every failure found under injection is
//! replayable.
//!
//! Components store an `Option<FaultPlan>` that defaults to `None`; the
//! disabled hot path costs a single branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use vortex_snapshot::{Reader, Snap, SnapResult, Writer};

/// Probabilities are expressed in 1/1000 units (per-mille) so light fault
/// rates like 0.5% are representable.
pub const SCALE: u16 = 1000;

/// What to inject, and how often. All rates are per-mille (`0..=1000`).
///
/// The default ([`FaultConfig::off`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Seed from which every per-site decision stream is derived.
    pub seed: u64,
    /// Chance an elastic-queue push is refused (de-asserted `ready`).
    pub elastic_stall: u16,
    /// Chance the DRAM controller skips servicing its input queue a cycle.
    pub dram_stall: u16,
    /// Chance a DRAM response is held back `dram_extra_latency` cycles.
    pub dram_delay: u16,
    /// Extra cycles added to a delayed DRAM response.
    pub dram_extra_latency: u32,
    /// Chance a DRAM read response is dropped outright (guaranteed hang).
    pub dram_drop: u16,
    /// Chance a cache holds a ready response back for a cycle.
    pub cache_rsp_stall: u16,
    /// Chance a single bit of a response word is flipped.
    pub corrupt: u16,
    /// Chance the texture sampler pipeline stalls for a cycle.
    pub tex_stall: u16,
}

impl FaultConfig {
    /// The no-op configuration: nothing is injected.
    pub fn off() -> Self {
        Self::default()
    }

    /// True when no fault class has a non-zero rate.
    pub fn is_noop(&self) -> bool {
        self.elastic_stall == 0
            && self.dram_stall == 0
            && self.dram_delay == 0
            && self.dram_drop == 0
            && self.cache_rsp_stall == 0
            && self.corrupt == 0
            && self.tex_stall == 0
    }

    /// Derives the decision stream for one injection site. Distinct sites
    /// get statistically independent streams for the same seed.
    pub fn plan(&self, site: u64) -> FaultPlan {
        FaultPlan {
            cfg: *self,
            state: splitmix(self.seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_F417),
            draws: 0,
        }
    }

    /// Parses a `key=value` comma list, e.g.
    /// `seed=7,dram_delay=50,dram_extra_latency=200,elastic_stall=20`.
    ///
    /// Keys: `seed`, `elastic_stall`, `dram_stall`, `dram_delay`,
    /// `dram_extra_latency`, `dram_drop`, `cache_rsp_stall`, `corrupt`,
    /// `tex_stall`. Rates are per-mille (`0..=1000`).
    ///
    /// # Errors
    /// Returns a message naming the offending key or value.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::off();
        // Delayed responses need a visible delay to mean anything.
        cfg.dram_extra_latency = 64;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            let key = key.trim();
            let value = value.trim();
            let rate = |v: &str| -> Result<u16, String> {
                let n: u16 = v.parse().map_err(|_| format!("bad rate `{v}` for `{key}`"))?;
                if n > SCALE {
                    return Err(format!("rate `{v}` for `{key}` exceeds {SCALE} (per-mille)"));
                }
                Ok(n)
            };
            match key {
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "elastic_stall" => cfg.elastic_stall = rate(value)?,
                "dram_stall" => cfg.dram_stall = rate(value)?,
                "dram_delay" => cfg.dram_delay = rate(value)?,
                "dram_extra_latency" => {
                    cfg.dram_extra_latency = value
                        .parse()
                        .map_err(|_| format!("bad latency `{value}`"))?;
                }
                "dram_drop" => cfg.dram_drop = rate(value)?,
                "cache_rsp_stall" => cfg.cache_rsp_stall = rate(value)?,
                "corrupt" => cfg.corrupt = rate(value)?,
                "tex_stall" => cfg.tex_stall = rate(value)?,
                _ => return Err(format!("unknown fault key `{key}`")),
            }
        }
        Ok(cfg)
    }

    /// True when the configuration can only ever slow execution down
    /// (stalls and delays), never change results or lose traffic. Fuzzing
    /// uses this to decide whether to assert output correctness.
    pub fn is_benign(&self) -> bool {
        self.dram_drop == 0 && self.corrupt == 0
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} elastic_stall={} dram_stall={} dram_delay={} (+{} cyc) dram_drop={} \
             cache_rsp_stall={} corrupt={} tex_stall={} (rates per-mille)",
            self.seed,
            self.elastic_stall,
            self.dram_stall,
            self.dram_delay,
            self.dram_extra_latency,
            self.dram_drop,
            self.cache_rsp_stall,
            self.corrupt,
            self.tex_stall,
        )
    }
}

/// Well-known site-id namespaces so every component derives a distinct,
/// stable decision stream. Site ids only need to be unique, not dense.
pub mod site {
    /// DRAM controller.
    pub const DRAM: u64 = 0x01;
    /// Shared L3 cache.
    pub const L3: u64 = 0x02;
    /// Shared L2 cache `i` (one per cluster).
    pub fn l2(i: usize) -> u64 {
        0x100 + i as u64
    }
    /// Per-core instruction cache.
    pub fn icache(core: usize) -> u64 {
        0x1_0000 + core as u64
    }
    /// Per-core data cache.
    pub fn dcache(core: usize) -> u64 {
        0x2_0000 + core as u64
    }
    /// Per-core shared-memory bank array.
    pub fn smem(core: usize) -> u64 {
        0x3_0000 + core as u64
    }
    /// Per-core texture unit.
    pub fn tex(core: usize) -> u64 {
        0x4_0000 + core as u64
    }
}

/// The splitmix64 finalizer behind every decision stream. Public so
/// harnesses that need an auxiliary deterministic stream (e.g. picking
/// which snapshot bytes to corrupt in the corruption fuzz tests) can
/// reuse the exact mixer the fault plans are built on.
pub fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One injection site's deterministic decision stream.
///
/// Each query advances the stream, so decisions depend only on
/// `(seed, site, query index)` — never on wall-clock state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    state: u64,
    /// Decisions drawn from the stream so far (see [`FaultPlan::draws`]).
    draws: u64,
}

impl FaultPlan {
    /// The configuration this plan was derived from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// How many decisions this plan has drawn. Because a plan's stream
    /// position fully determines every future decision, equal draw counts
    /// at equal simulation points are a sufficient audit that two runs
    /// (e.g. fast-forwarded vs live, or resumed vs uninterrupted) consumed
    /// each per-site stream identically — the determinism suites compare
    /// these.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    fn next(&mut self) -> u64 {
        self.draws += 1;
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.state)
    }

    /// Draws one decision with probability `rate`/[`SCALE`].
    pub fn fires(&mut self, rate: u16) -> bool {
        rate != 0 && self.next() % u64::from(SCALE) < u64::from(rate)
    }

    /// Should an elastic-queue push be refused this cycle?
    pub fn stall_elastic(&mut self) -> bool {
        self.fires(self.cfg.elastic_stall)
    }

    /// Should the DRAM controller skip its input queue this cycle?
    pub fn stall_dram(&mut self) -> bool {
        self.fires(self.cfg.dram_stall)
    }

    /// Extra latency for one DRAM response (0 = on time).
    pub fn dram_delay(&mut self) -> u32 {
        if self.fires(self.cfg.dram_delay) {
            self.cfg.dram_extra_latency
        } else {
            0
        }
    }

    /// Should one DRAM read response be dropped?
    pub fn drop_dram_rsp(&mut self) -> bool {
        self.fires(self.cfg.dram_drop)
    }

    /// Should the cache hold its ready response back this cycle?
    pub fn stall_cache_rsp(&mut self) -> bool {
        self.fires(self.cfg.cache_rsp_stall)
    }

    /// Should the texture sampler pipeline stall this cycle?
    pub fn stall_tex(&mut self) -> bool {
        self.fires(self.cfg.tex_stall)
    }

    /// Possibly flips one bit of `word`; returns true when it did.
    pub fn corrupt(&mut self, word: &mut u32) -> bool {
        if self.fires(self.cfg.corrupt) {
            *word ^= 1 << (self.next() % 32);
            true
        } else {
            false
        }
    }
}

impl Snap for FaultConfig {
    fn save(&self, w: &mut Writer) {
        w.u64(self.seed);
        w.u16(self.elastic_stall);
        w.u16(self.dram_stall);
        w.u16(self.dram_delay);
        w.u32(self.dram_extra_latency);
        w.u16(self.dram_drop);
        w.u16(self.cache_rsp_stall);
        w.u16(self.corrupt);
        w.u16(self.tex_stall);
    }

    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok(Self {
            seed: r.u64()?,
            elastic_stall: r.u16()?,
            dram_stall: r.u16()?,
            dram_delay: r.u16()?,
            dram_extra_latency: r.u32()?,
            dram_drop: r.u16()?,
            cache_rsp_stall: r.u16()?,
            corrupt: r.u16()?,
            tex_stall: r.u16()?,
        })
    }
}

/// Snapshot support: a plan is fully determined by its configuration,
/// stream state, and draw counter, so checkpoint/restore carries all
/// three — a resumed run continues the decision stream exactly where
/// the interrupted run left it (the determinism contract's fault-draw
/// leg).
impl Snap for FaultPlan {
    fn save(&self, w: &mut Writer) {
        self.cfg.save(w);
        w.u64(self.state);
        w.u64(self.draws);
    }

    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok(Self {
            cfg: FaultConfig::load(r)?,
            state: r.u64()?,
            draws: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_never_fires() {
        let mut p = FaultConfig::off().plan(site::DRAM);
        for _ in 0..10_000 {
            assert!(!p.stall_elastic());
            assert!(!p.stall_dram());
            assert_eq!(p.dram_delay(), 0);
            assert!(!p.drop_dram_rsp());
            assert!(!p.stall_cache_rsp());
            assert!(!p.stall_tex());
            let mut w = 0xDEAD_BEEF;
            assert!(!p.corrupt(&mut w));
            assert_eq!(w, 0xDEAD_BEEF);
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig {
            seed: 17,
            elastic_stall: 100,
            dram_delay: 300,
            dram_extra_latency: 9,
            ..FaultConfig::off()
        };
        let mut a = cfg.plan(site::dcache(0));
        let mut b = cfg.plan(site::dcache(0));
        for _ in 0..4096 {
            assert_eq!(a.stall_elastic(), b.stall_elastic());
            assert_eq!(a.dram_delay(), b.dram_delay());
        }
    }

    #[test]
    fn distinct_sites_diverge() {
        let cfg = FaultConfig { seed: 17, elastic_stall: 500, ..FaultConfig::off() };
        let mut a = cfg.plan(site::icache(0));
        let mut b = cfg.plan(site::icache(1));
        let agree = (0..4096).filter(|_| a.stall_elastic() == b.stall_elastic()).count();
        assert!(agree < 4096, "independent sites should not be identical");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig { seed: 3, elastic_stall: 250, ..FaultConfig::off() };
        let mut p = cfg.plan(site::DRAM);
        let hits = (0..100_000).filter(|_| p.stall_elastic()).count();
        assert!((20_000..30_000).contains(&hits), "got {hits} hits at 25%");
    }

    #[test]
    fn spec_round_trip() {
        let cfg = FaultConfig::from_spec("seed=9, dram_delay=50, dram_extra_latency=200").unwrap();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.dram_delay, 50);
        assert_eq!(cfg.dram_extra_latency, 200);
        assert!(cfg.is_benign());
        assert!(FaultConfig::from_spec("bogus=1").is_err());
        assert!(FaultConfig::from_spec("dram_drop=2000").is_err());
        assert!(!FaultConfig::from_spec("dram_drop=5").unwrap().is_benign());
    }

    #[test]
    fn plan_snapshot_resumes_mid_stream() {
        let cfg = FaultConfig { seed: 42, elastic_stall: 500, corrupt: 100, ..FaultConfig::off() };
        let mut a = cfg.plan(site::dcache(3));
        for _ in 0..1000 {
            a.stall_elastic();
        }
        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut b = FaultPlan::load(&mut r).expect("plan loads");
        r.finish().unwrap();
        assert_eq!(a, b);
        // The restored stream continues in lock-step with the original.
        for _ in 0..1000 {
            assert_eq!(a.stall_elastic(), b.stall_elastic());
            let (mut wa, mut wb) = (7u32, 7u32);
            assert_eq!(a.corrupt(&mut wa), b.corrupt(&mut wb));
            assert_eq!(wa, wb);
        }
        assert_eq!(a.draws(), b.draws());
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let cfg = FaultConfig { seed: 5, corrupt: SCALE, ..FaultConfig::off() };
        let mut p = cfg.plan(site::DRAM);
        for _ in 0..256 {
            let mut w = 0u32;
            assert!(p.corrupt(&mut w));
            assert_eq!(w.count_ones(), 1);
        }
    }
}
