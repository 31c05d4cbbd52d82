//! Property tests for the cache subsystem: liveness (no deadlock, no lost
//! or duplicated responses) under randomized traffic, for every virtual-port
//! configuration the paper evaluates.

use proptest::prelude::*;
use vortex_mem::cache::{Cache, CacheConfig};
use vortex_mem::dram::{Dram, DramConfig};
use vortex_mem::req::{MemReq, MemRsp};

/// Drives `cache` over `dram` until every read in `trace` has responded.
/// Returns the received tags; panics (via assert) on timeout, which would
/// indicate one of the paper's two cache-deadlock hazards.
fn run_trace(config: CacheConfig, dram_cfg: DramConfig, trace: Vec<MemReq>) -> Vec<u64> {
    let mut cache = Cache::new(config);
    let mut dram = Dram::new(dram_cfg);
    let expected_reads = trace.iter().filter(|r| !r.write).count();
    let mut pending = trace;
    let mut got = Vec::new();
    let budget = 50_000u64;
    for _ in 0..budget {
        cache.begin_cycle();
        // Offer up to 4 requests per cycle (one wavefront's worth).
        let mut window: Vec<MemReq> = Vec::new();
        while window.len() < 4 && !pending.is_empty() {
            window.push(pending.remove(0));
        }
        cache.offer(&mut window);
        // Put back the refused ones, preserving order.
        for (i, r) in window.into_iter().enumerate() {
            pending.insert(i, r);
        }
        cache.tick();
        while let Some(req) = cache.peek_mem_req().copied() {
            if dram.push_req(req).is_ok() {
                cache.pop_mem_req();
            } else {
                break;
            }
        }
        dram.tick();
        while let Some(rsp) = dram.pop_rsp() {
            cache.push_mem_rsp(rsp);
        }
        while let Some(MemRsp { tag }) = cache.pop_rsp() {
            got.push(tag);
        }
        if got.len() == expected_reads && pending.is_empty() && cache.is_idle() && dram.is_idle() {
            return got;
        }
    }
    panic!(
        "cache deadlock or lost response: got {} of {expected_reads} reads",
        got.len()
    );
}

/// Tags each request of `raw_trace` with its index, runs it through a
/// cache with the given virtual ports and MSHR size over a DRAM with the
/// given latency and channel count, and returns the read tags received and
/// the ones issued, both sorted.
fn reads_returned(
    raw_trace: Vec<MemReq>,
    ports: usize,
    mshr_size: usize,
    latency: u32,
    channels: u32,
) -> (Vec<u64>, Vec<u64>) {
    let trace: Vec<MemReq> = raw_trace
        .into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            r.tag = i as u64;
            r
        })
        .collect();
    let mut want: Vec<u64> = trace.iter().filter(|r| !r.write).map(|r| r.tag).collect();
    let config = CacheConfig {
        size_bytes: 2048,
        line_bytes: 64,
        num_banks: 4,
        num_ways: 1,
        ports,
        mshr_size,
        input_queue: 2,
        memq_size: 4,
    };
    let dram_cfg = DramConfig {
        latency,
        channels,
        queue_size: 4,
    };
    let mut got = run_trace(config, dram_cfg, trace);
    got.sort_unstable();
    want.sort_unstable();
    (got, want)
}

/// A trace of `(address, write)` pairs, untagged.
fn recorded(pairs: &[(u32, bool)]) -> Vec<MemReq> {
    pairs
        .iter()
        .map(|&(addr, write)| MemReq {
            tag: 0,
            addr,
            write,
        })
        .collect()
}

/// A 95-request trace that once failed `reads_complete_exactly_once`. Its
/// record kept no port count, MSHR size, DRAM latency or channel count, so
/// the test runs it at the corners of the property's ranges.
#[test]
fn recorded_95_request_trace_completes() {
    #[rustfmt::skip]
    const TRACE: &[(u32, bool)] = &[
        (192, false), (0, false), (832, false), (640, false), (336, false), (2520, true),
        (92, false), (2564, false), (2356, false), (2280, false), (1276, false), (1388, true),
        (1692, false), (2288, true), (3296, false), (488, false), (644, false), (452, false),
        (2344, true), (544, false), (1964, true), (2376, true), (4008, true), (3056, false),
        (392, true), (2576, false), (1556, false), (3092, false), (3668, false), (844, false),
        (3084, false), (588, true), (2400, false), (344, true), (1844, false), (3072, false),
        (2920, false), (3680, true), (2412, true), (3404, true), (3484, true), (2116, false),
        (396, true), (3472, false), (1652, false), (432, true), (1284, false), (1536, true),
        (3108, true), (3888, false), (1112, true), (2064, false), (832, false), (4000, true),
        (3620, false), (496, false), (756, true), (248, false), (956, false), (3800, false),
        (2748, true), (2300, false), (1152, false), (232, false), (3844, true), (1008, false),
        (440, false), (3932, true), (1880, true), (1260, false), (2120, true), (524, false),
        (1916, true), (3264, false), (1616, true), (920, true), (3236, true), (3916, false),
        (2796, false), (52, false), (532, true), (2596, false), (3284, false), (1812, false),
        (2876, false), (2580, true), (776, false), (1336, false), (1332, true), (4000, true),
        (2164, true), (3216, false), (84, true), (760, true), (52, false),
    ];
    for ports in [1, 2, 4] {
        for mshr_size in [4, 31] {
            for latency in [1, 49] {
                for channels in [1, 3] {
                    let (got, want) =
                        reads_returned(recorded(TRACE), ports, mshr_size, latency, channels);
                    assert_eq!(
                        got, want,
                        "ports {ports}, mshr {mshr_size}, latency {latency}, channels {channels}"
                    );
                }
            }
        }
    }
}

/// A 12-read trace that once failed `reads_complete_exactly_once`, with the
/// parameters it was recorded with.
#[test]
fn recorded_12_read_trace_completes() {
    #[rustfmt::skip]
    const TRACE: &[(u32, bool)] = &[
        (768, false), (192, false), (2048, false), (0, false), (64, false), (64, false),
        (1280, false), (320, false), (640, false), (1664, false), (832, false), (704, false),
    ];
    let (got, want) = reads_returned(recorded(TRACE), 2, 4, 2, 1);
    assert_eq!(got, want);
}

fn req_strategy() -> impl Strategy<Value = MemReq> {
    (any::<bool>(), 0u32..64, 0u32..16).prop_map(|(write, line, word)| MemReq {
        tag: 0, // assigned later
        addr: line * 64 + word * 4,
        write,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every accepted read gets exactly one response, regardless of the
    /// port count, traffic mix, or DRAM speed.
    #[test]
    fn reads_complete_exactly_once(
        raw_trace in prop::collection::vec(req_strategy(), 1..200),
        ports in prop::sample::select(vec![1usize, 2, 4]),
        mshr_size in 4usize..32,
        latency in 1u32..50,
        channels in 1u32..4,
    ) {
        let (got, want) = reads_returned(raw_trace, ports, mshr_size, latency, channels);
        prop_assert_eq!(got, want);
    }

    /// On wavefront-coherent traffic (the four lanes of a wavefront touching
    /// the same cache line — the locality Algorithm 2 exploits), virtual
    /// ports monotonically remove bank conflicts, and four ports remove all
    /// of them.
    #[test]
    fn more_ports_never_more_conflicts(
        lines in prop::collection::vec(0u32..64, 1..40),
    ) {
        // Each group of 4 lane requests targets one line at 4 word offsets.
        let trace: Vec<MemReq> = lines
            .iter()
            .enumerate()
            .flat_map(|(g, &line)| {
                (0..4).map(move |lane| MemReq {
                    tag: (g * 4 + lane) as u64,
                    addr: line * 64 + lane as u32 * 4,
                    write: false,
                })
            })
            .collect();
        let dram_cfg = DramConfig { latency: 10, channels: 2, queue_size: 8 };
        let mut conflicts = Vec::new();
        for ports in [1usize, 2, 4] {
            let config = CacheConfig {
                size_bytes: 2048,
                line_bytes: 64,
                num_banks: 4,
                num_ways: 1,
                ports,
                mshr_size: 16,
                input_queue: 2,
                memq_size: 8,
            };
            let mut cache = Cache::new(config);
            let mut dram = Dram::new(dram_cfg);
            let mut pending = trace.clone();
            let mut done = 0usize;
            let reads = trace.iter().filter(|r| !r.write).count();
            for _ in 0..50_000 {
                cache.begin_cycle();
                let mut window: Vec<MemReq> = Vec::new();
                while window.len() < 4 && !pending.is_empty() {
                    window.push(pending.remove(0));
                }
                cache.offer(&mut window);
                for (i, r) in window.into_iter().enumerate() {
                    pending.insert(i, r);
                }
                cache.tick();
                while let Some(req) = cache.peek_mem_req().copied() {
                    if dram.push_req(req).is_ok() { cache.pop_mem_req(); } else { break; }
                }
                dram.tick();
                while let Some(rsp) = dram.pop_rsp() { cache.push_mem_rsp(rsp); }
                while cache.pop_rsp().is_some() { done += 1; }
                if done == reads && pending.is_empty() && cache.is_idle() { break; }
            }
            prop_assert_eq!(done, reads);
            conflicts.push(cache.stats.bank_conflicts);
        }
        prop_assert!(conflicts[1] <= conflicts[0],
            "2 ports worse than 1: {:?}", conflicts);
        prop_assert!(conflicts[2] <= conflicts[1],
            "4 ports worse than 2: {:?}", conflicts);
        prop_assert_eq!(conflicts[2], 0,
            "4 ports must absorb a full wavefront of same-line requests");
    }
}
