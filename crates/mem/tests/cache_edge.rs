//! Edge-case tests for the cache subsystem: aliasing/eviction,
//! associativity, flush under traffic, and MSHR saturation liveness.

use vortex_mem::cache::{Cache, CacheConfig};
use vortex_mem::{MemReq, MemRsp};

fn tiny(num_ways: usize, mshr: usize) -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 512, // 8 lines
        line_bytes: 64,
        num_banks: 2,
        num_ways,
        ports: 1,
        mshr_size: mshr,
        input_queue: 2,
        memq_size: 4,
    })
}

/// Drives with an instant memory until `reads` responses arrive.
fn run(cache: &mut Cache, mut reqs: Vec<MemReq>, reads: usize) {
    let mut got = 0;
    for _ in 0..20_000 {
        cache.begin_cycle();
        cache.offer(&mut reqs);
        cache.tick();
        while let Some(r) = cache.pop_mem_req() {
            if !r.write {
                cache.push_mem_rsp(MemRsp { tag: r.tag });
            }
        }
        while cache.pop_rsp().is_some() {
            got += 1;
        }
        if got == reads && reqs.is_empty() && cache.is_idle() {
            return;
        }
    }
    panic!("cache wedged: {got}/{reads} responses");
}

#[test]
fn direct_mapped_aliasing_evicts() {
    let mut c = tiny(1, 8);
    // Lines 0 and 8 both map to set 0 of bank 0 (8 lines / 2 banks = 4
    // sets; line 8 % ... same set). Alternate between them.
    run(&mut c, vec![MemReq::read(1, 0)], 1);
    assert_eq!(c.stats.read_misses, 1);
    run(&mut c, vec![MemReq::read(2, 8 * 64)], 1);
    assert_eq!(c.stats.read_misses, 2, "alias misses");
    run(&mut c, vec![MemReq::read(3, 0)], 1);
    assert_eq!(c.stats.read_misses, 3, "line 0 was evicted by line 8");
}

#[test]
fn two_way_associativity_keeps_both_aliases() {
    let mut c = tiny(2, 8);
    run(&mut c, vec![MemReq::read(1, 0)], 1);
    run(&mut c, vec![MemReq::read(2, 4 * 64)], 1); // same set, way 2 (4 sets/bank... 2 sets at 2 ways)
    run(&mut c, vec![MemReq::read(3, 0)], 1);
    assert_eq!(
        c.stats.read_hits, 1,
        "2-way cache must retain the first alias"
    );
}

#[test]
fn flush_during_outstanding_traffic_is_safe() {
    let mut c = tiny(1, 8);
    // Launch a miss but delay the memory response across a flush.
    let mut reqs = vec![MemReq::read(7, 0x100)];
    c.begin_cycle();
    c.offer(&mut reqs);
    for _ in 0..4 {
        c.begin_cycle();
        c.tick();
    }
    let fill = c.pop_mem_req().expect("miss went to memory");
    c.flush();
    // Deliver the fill while flushing.
    c.push_mem_rsp(MemRsp { tag: fill.tag });
    let mut got = 0;
    for _ in 0..200 {
        c.begin_cycle();
        c.tick();
        while c.pop_rsp().is_some() {
            got += 1;
        }
    }
    assert_eq!(got, 1, "in-flight miss still completes across a flush");
    assert!(c.is_idle());
}

#[test]
fn mshr_saturation_backpressures_without_deadlock() {
    // MSHR of 2 with a stream of distinct-line misses and a *slow* memory:
    // early-full must throttle, never deadlock or lose responses.
    let mut c = tiny(1, 2);
    let mut reqs: Vec<MemReq> = (0..32).map(|i| MemReq::read(i, i as u32 * 64)).collect();
    let mut in_mem: Vec<(u32, MemReq)> = Vec::new();
    let mut got = 0;
    let mut cycles = 0u32;
    while got < 32 {
        c.begin_cycle();
        let mut window: Vec<MemReq> = reqs.drain(..reqs.len().min(2)).collect();
        c.offer(&mut window);
        for (i, r) in window.into_iter().enumerate() {
            reqs.insert(i, r);
        }
        c.tick();
        while let Some(r) = c.pop_mem_req() {
            in_mem.push((cycles + 30, r)); // 30-cycle memory
        }
        let (ready, pending): (Vec<_>, Vec<_>) = in_mem.drain(..).partition(|(t, _)| *t <= cycles);
        in_mem = pending;
        for (_, r) in ready {
            if !r.write {
                c.push_mem_rsp(MemRsp { tag: r.tag });
            }
        }
        while c.pop_rsp().is_some() {
            got += 1;
        }
        cycles += 1;
        assert!(cycles < 50_000, "MSHR saturation deadlock: {got}/32");
    }
    assert!(
        c.stats.early_full_stalls > 0,
        "early-full must have engaged"
    );
}

#[test]
fn write_after_read_same_line_is_ordered_per_bank() {
    // A read miss followed by a write to the same line: both complete.
    let mut c = tiny(1, 4);
    run(
        &mut c,
        vec![MemReq::read(1, 0x40), MemReq::write(2, 0x44)],
        1,
    );
    assert_eq!(c.stats.writes, 1);
    assert_eq!(c.stats.reads, 1);
}

#[test]
fn utilization_is_one_for_conflict_free_traffic() {
    let mut c = tiny(1, 8);
    // One request per cycle: never a conflict.
    for i in 0..16u64 {
        run(&mut c, vec![MemReq::read(i, (i as u32 % 8) * 64)], 1);
    }
    assert_eq!(c.stats.bank_conflicts, 0);
    assert_eq!(c.stats.bank_utilization(), 1.0);
}
