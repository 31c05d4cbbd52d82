//! Deterministic, seed-driven fault injection for the Vortex simulator.
//!
//! The paper's memory system is a chain of elastic handshakes (§4.3):
//! every level may de-assert `ready` and every DRAM access may take
//! longer than its nominal latency, and the result must not change. This
//! crate provides the stimulus for that property: a [`FaultConfig`]
//! describes *what* to perturb (stall / delay probabilities per
//! subsystem) and [`FaultPlan`] is a per-site deterministic stream of
//! injection decisions derived from `(seed, site id)`. Every class only
//! slows the machine down, and two runs with the same seed and
//! configuration make byte-identical decisions, so every divergence found
//! under injection is replayable.
//!
//! Components store an `Option<FaultPlan>` that defaults to `None`; the
//! disabled hot path costs a single branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Probabilities are expressed in 1/1000 units (per-mille) so light fault
/// rates like 0.5% are representable.
pub const SCALE: u16 = 1000;

/// What to inject, and how often. Rates are per-mille.
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
}

impl FaultConfig {
    /// The no-op configuration: nothing is injected.
    pub fn off() -> Self {
        Self::default()
    }

    /// True when no fault class has a non-zero rate.
    pub fn is_noop(&self) -> bool {
        self.elastic_stall == 0 && self.dram_stall == 0 && self.dram_delay == 0
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
    /// Keys: `seed`, `elastic_stall`, `dram_stall` (per-mille,
    /// `0..=999`: a handshake refused every cycle never completes),
    /// `dram_delay` (per-mille, `0..=1000`: a delay always ends) and
    /// `dram_extra_latency` (cycles, default 64).
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
            let rate = |max: u16| -> Result<u16, String> {
                let n: u16 = value
                    .parse()
                    .map_err(|_| format!("bad rate `{value}` for `{key}`"))?;
                if n > max {
                    return Err(format!(
                        "rate `{value}` for `{key}` exceeds {max} (per-mille)"
                    ));
                }
                Ok(n)
            };
            match key {
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "elastic_stall" => cfg.elastic_stall = rate(SCALE - 1)?,
                "dram_stall" => cfg.dram_stall = rate(SCALE - 1)?,
                "dram_delay" => cfg.dram_delay = rate(SCALE)?,
                "dram_extra_latency" => {
                    cfg.dram_extra_latency = value
                        .parse()
                        .map_err(|_| format!("bad latency `{value}`"))?;
                }
                _ => return Err(format!("unknown fault key `{key}`")),
            }
        }
        Ok(cfg)
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
}

// The four retired rates (`dram_drop`, `cache_rsp_stall`, `corrupt` and
// `tex_stall`) keep their place in the encoding.
vortex_snapshot::snapshot! {
    impl Snap for FaultConfig {
        seed, elastic_stall, dram_stall, dram_delay, dram_extra_latency,
        reserved u16 = 0 => "reserved fault rate",
        reserved u16 = 0 => "reserved fault rate",
        reserved u16 = 0 => "reserved fault rate",
        reserved u16 = 0 => "reserved fault rate",
    }
}

// A plan is fully determined by its configuration, stream state and draw
// counter, so a resumed run continues the decision stream exactly where the
// interrupted run left it.
vortex_snapshot::snapshot! {
    impl Snap for FaultPlan { cfg, state, draws }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_snapshot::{Reader, Snap, Writer};

    #[test]
    fn off_plan_never_fires() {
        let mut p = FaultConfig::off().plan(site::DRAM);
        for _ in 0..10_000 {
            assert!(!p.stall_elastic());
            assert!(!p.stall_dram());
            assert_eq!(p.dram_delay(), 0);
        }
        assert_eq!(p.draws(), 0, "zero rates never draw");
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
        let cfg = FaultConfig {
            seed: 17,
            elastic_stall: 500,
            ..FaultConfig::off()
        };
        let mut a = cfg.plan(site::icache(0));
        let mut b = cfg.plan(site::icache(1));
        let agree = (0..4096)
            .filter(|_| a.stall_elastic() == b.stall_elastic())
            .count();
        assert!(agree < 4096, "independent sites should not be identical");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig {
            seed: 3,
            elastic_stall: 250,
            ..FaultConfig::off()
        };
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
        assert!(FaultConfig::from_spec("bogus=1").is_err());
        assert!(FaultConfig::from_spec("dram_delay=2000").is_err());
        // A stall that always fires would refuse every handshake forever;
        // a delay that always fires still ends.
        for key in ["elastic_stall", "dram_stall"] {
            assert_eq!(
                FaultConfig::from_spec(&format!("{key}=999")).map(|c| c.is_noop()),
                Ok(false)
            );
            let err = FaultConfig::from_spec(&format!("{key}=1000")).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        let always = FaultConfig::from_spec("dram_delay=1000").unwrap();
        assert_eq!(always.dram_delay, 1000);
    }

    #[test]
    fn plan_snapshot_resumes_mid_stream() {
        let cfg = FaultConfig {
            seed: 42,
            elastic_stall: 500,
            dram_delay: 100,
            ..FaultConfig::off()
        };
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
            assert_eq!(a.dram_delay(), b.dram_delay());
        }
        assert_eq!(a.draws(), b.draws());
    }
}
