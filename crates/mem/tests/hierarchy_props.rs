//! Property tests for the multi-level hierarchy: liveness and exactly-once
//! response delivery under randomized multi-core traffic, and batched ≡
//! per-request admission, across hierarchy shapes (flat, L2, L2+L3).

use proptest::prelude::*;
use vortex_faults::FaultConfig;
use vortex_mem::dram::DramConfig;
use vortex_mem::hierarchy::{l2_default, l3_default, HierarchyConfig, MemHierarchy};
use vortex_mem::req::MemReq;
use vortex_mem::{Cache, CacheConfig};

/// Per-core traffic: `(line, write)` pairs.
type Trace = Vec<(u32, bool)>;

fn drive(mut h: MemHierarchy, traces: Vec<Trace>) -> Result<(), String> {
    let num_cores = traces.len();
    let mut pending: Vec<Vec<MemReq>> = traces
        .iter()
        .enumerate()
        .map(|(core, t)| {
            t.iter()
                .enumerate()
                .map(|(i, &(line, write))| MemReq {
                    tag: ((core as u64) << 32) | i as u64,
                    addr: (line % 256) * 64,
                    write,
                })
                .collect()
        })
        .collect();
    let expected: Vec<usize> = pending
        .iter()
        .map(|reqs| reqs.iter().filter(|r| !r.write).count())
        .collect();
    let mut got = vec![0usize; num_cores];
    for cycle in 0..200_000u64 {
        for (core, reqs) in pending.iter_mut().enumerate() {
            if let Some(req) = reqs.first().copied() {
                if h.push_req(core, req).is_ok() {
                    reqs.remove(0);
                }
            }
        }
        h.tick();
        for (core, g) in got.iter_mut().enumerate() {
            while let Some(rsp) = h.pop_rsp(core) {
                if (rsp.tag >> 32) as usize != core {
                    return Err(format!("response routed to the wrong core: {rsp:?}"));
                }
                *g += 1;
            }
        }
        if got == expected && pending.iter().all(Vec::is_empty) && h.is_idle() {
            return Ok(());
        }
        let _ = cycle;
    }
    Err(format!("hierarchy wedged: got {got:?}, expected {expected:?}"))
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..32, any::<bool>()), 0..60)
}

/// The three hierarchy shapes: flat, two clusters behind L2s, and L2s
/// behind a shared L3.
fn shapes(num_cores: usize) -> [HierarchyConfig; 3] {
    let dram = |latency, channels, queue_size| DramConfig { latency, channels, queue_size };
    let flat = HierarchyConfig::flat(num_cores, dram(20, 2, 8));
    let l2 = HierarchyConfig {
        cores_per_cluster: 2,
        l2: Some(l2_default()),
        ..HierarchyConfig::flat(num_cores, dram(30, 2, 8))
    };
    let l3 = HierarchyConfig {
        l3: Some(l3_default()),
        dram: dram(50, 1, 4),
        ..l2.clone()
    };
    [flat, l2, l3]
}

/// A cold L1 that has chewed on `trace` with nothing draining it: its miss
/// queue holds as much of the burst as fits.
fn l1_with_burst(trace: &Trace) -> Cache {
    let mut cache = Cache::new(CacheConfig::dcache_default());
    let mut reqs: Vec<MemReq> = trace
        .iter()
        .enumerate()
        .map(|(i, &(line, write))| MemReq { tag: i as u64, addr: line * 64, write })
        .collect();
    for _ in 0..64 {
        cache.begin_cycle();
        cache.offer(&mut reqs);
        cache.tick();
    }
    cache
}

/// Drives twin hierarchies from twin L1s, one through the batched
/// `accept_from` and one through a `peek`/`push_req`/`pop` loop, and
/// requires them to stay indistinguishable until both drain.
fn batched_equals_per_request(
    config: &HierarchyConfig,
    faults: &FaultConfig,
    traces: &[Trace],
) -> Result<(), String> {
    const TAG_BITS: u64 = 1 << 61;
    let build = || {
        let mut h = MemHierarchy::new(config.clone());
        h.apply_faults(faults);
        h
    };
    let (mut batched, mut single) = (build(), build());
    let mut l1s: Vec<(Cache, Cache)> = traces
        .iter()
        .map(|t| (l1_with_burst(t), l1_with_burst(t)))
        .collect();
    for _ in 0..50_000 {
        for (core, (a, b)) in l1s.iter_mut().enumerate() {
            let bits = if core % 2 == 0 { TAG_BITS } else { 0 };
            batched.accept_from(core, a, bits);
            while let Some(&req) = b.peek_mem_req() {
                let req = MemReq { tag: req.tag | bits, ..req };
                if single.push_req(core, req).is_err() {
                    break;
                }
                b.pop_mem_req();
            }
            if (a.mem_req_count(), a.peek_mem_req()) != (b.mem_req_count(), b.peek_mem_req()) {
                return Err(format!("core {core}: L1 miss queues diverged"));
            }
        }
        if batched.fault_draws() != single.fault_draws() {
            return Err("fault draw streams diverged".into());
        }
        batched.tick();
        single.tick();
        for core in 0..l1s.len() {
            loop {
                let (x, y) = (batched.pop_rsp(core), single.pop_rsp(core));
                if x != y {
                    return Err(format!("core {core}: responses diverged: {x:?} vs {y:?}"));
                }
                if x.is_none() {
                    break;
                }
            }
        }
        if batched.is_idle() != single.is_idle() {
            return Err("idleness diverged".into());
        }
        if batched.is_idle() && l1s.iter().all(|(a, _)| a.mem_req_count() == 0) {
            return Ok(());
        }
    }
    Err("twins never drained".into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flat hierarchy: every read responds exactly once, to its own core.
    #[test]
    fn flat_hierarchy_is_live(traces in prop::collection::vec(trace_strategy(), 1..4)) {
        let [flat, _, _] = shapes(traces.len());
        prop_assert!(drive(MemHierarchy::new(flat), traces).is_ok());
    }

    /// L2 hierarchy, two clusters.
    #[test]
    fn l2_hierarchy_is_live(traces in prop::collection::vec(trace_strategy(), 4..5)) {
        let [_, l2, _] = shapes(traces.len());
        prop_assert!(drive(MemHierarchy::new(l2), traces).is_ok());
    }

    /// Full three-level hierarchy.
    #[test]
    fn l3_hierarchy_is_live(traces in prop::collection::vec(trace_strategy(), 4..5)) {
        let [_, _, l3] = shapes(traces.len());
        prop_assert!(drive(MemHierarchy::new(l3), traces).is_ok());
    }

    /// The batched L1 → hierarchy transfer is the per-request handshake,
    /// on every shape, fault-free and with a DRAM fault plan that stalls
    /// handshakes (one draw per push), skips service and delays responses.
    #[test]
    fn batched_transfer_equals_per_request(
        traces in prop::collection::vec(trace_strategy(), 4..5),
        seed in any::<u64>(),
    ) {
        let faulty = FaultConfig {
            seed,
            elastic_stall: 300,
            dram_stall: 200,
            dram_delay: 100,
            dram_extra_latency: 40,
            ..FaultConfig::off()
        };
        for config in shapes(traces.len()) {
            for faults in [FaultConfig::off(), faulty] {
                let outcome = batched_equals_per_request(&config, &faults, &traces);
                prop_assert!(outcome.is_ok(), "{config:?} {faults:?}: {outcome:?}");
            }
        }
    }
}
