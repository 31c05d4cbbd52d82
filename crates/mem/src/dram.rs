//! DRAM timing model.
//!
//! Models the FPGA's on-board memory as a set of independent channels
//! (2 DDR4 banks on the Arria 10 board, 8 on the Stratix 10 — paper §6.5)
//! with a fixed access latency. Each channel accepts at most one request per
//! cycle, so `channels` is the bandwidth knob and `latency` the latency knob
//! — exactly the two axes swept by the paper's Figure 21 memory-scaling
//! experiment.

use crate::elastic::Queue;
use crate::req::{MemReq, MemRsp};
use std::collections::VecDeque;
use vortex_faults::FaultPlan;

/// DRAM model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Access latency in core cycles.
    pub latency: u32,
    /// Independent channels (requests accepted per cycle).
    pub channels: u32,
    /// Depth of the request input queue.
    pub queue_size: usize,
}

impl Default for DramConfig {
    /// The paper's baseline: 100-cycle latency, 2 channels (Arria 10).
    fn default() -> Self {
        Self {
            latency: 100,
            channels: 2,
            queue_size: 16,
        }
    }
}

/// The DRAM device: bounded input queue → per-channel service → responses.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    input: Queue<MemReq>,
    /// In-flight requests: (completion cycle, request).
    in_flight: VecDeque<(u64, MemReq)>,
    responses: VecDeque<MemRsp>,
    cycle: u64,
    fault: Option<FaultPlan>,
    /// Total requests serviced (reads + writes).
    pub total_reads: u64,
    /// Total writes serviced.
    pub total_writes: u64,
}

impl Dram {
    /// Creates a DRAM with the given parameters.
    pub fn new(config: DramConfig) -> Self {
        Self {
            config,
            input: Queue::new(config.queue_size),
            in_flight: VecDeque::new(),
            responses: VecDeque::new(),
            cycle: 0,
            fault: None,
            total_reads: 0,
            total_writes: 0,
        }
    }

    /// Attaches a fault plan: the controller may skip servicing its input
    /// queue (`dram_stall`) or add latency to individual accesses
    /// (`dram_delay`). The input queue's elastic handshake also stalls at
    /// the plan's `elastic_stall` rate.
    pub fn set_fault(&mut self, plan: FaultPlan) {
        self.input.set_fault(plan.clone());
        self.fault = Some(plan);
    }

    /// Decisions drawn from the controller's fault plan plus its input
    /// queue's handshake plan — input to the per-site determinism audit.
    pub fn fault_draws(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultPlan::draws) + self.input.fault_draws()
    }

    /// Attempts to enqueue a request; fails (backpressure) when the input
    /// queue is full.
    pub fn push_req(&mut self, req: MemReq) -> Result<(), MemReq> {
        self.input.push(req)
    }

    /// `true` if at least one more request can be pushed this cycle.
    pub fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    /// Free input-queue slots. With no fault plan attached this many
    /// pushes are guaranteed to succeed back to back, so callers can
    /// batch-drain upstream queues without per-request handshakes.
    #[inline]
    pub fn space(&self) -> usize {
        self.input.space()
    }

    /// Advances one cycle: starts up to `channels` queued requests and
    /// retires the ones whose latency elapsed (reads produce responses;
    /// writes complete silently).
    #[inline]
    pub fn tick(&mut self) {
        self.cycle += 1;
        if let Some(plan) = &mut self.fault {
            if plan.stall_dram() {
                // The controller skips its input queue this cycle; in-flight
                // accesses still retire below.
                return self.retire();
            }
        }
        for _ in 0..self.config.channels {
            let Some(req) = self.input.pop() else { break };
            if req.write {
                self.total_writes += 1;
            } else {
                self.total_reads += 1;
            }
            let mut latency = u64::from(self.config.latency);
            if let Some(plan) = &mut self.fault {
                latency += u64::from(plan.dram_delay());
            }
            self.in_flight.push_back((self.cycle + latency, req));
        }
        self.retire();
    }

    /// Retires in-flight accesses whose (possibly fault-extended) latency
    /// elapsed. Retirement is in issue order, so one delayed access also
    /// holds back the accesses behind it — matching an in-order controller.
    fn retire(&mut self) {
        while let Some(&(done, req)) = self.in_flight.front() {
            if done > self.cycle {
                break;
            }
            self.in_flight.pop_front();
            if !req.write {
                self.responses.push_back(MemRsp { tag: req.tag });
            }
        }
    }

    /// Drains one completed read response.
    pub fn pop_rsp(&mut self) -> Option<MemRsp> {
        self.responses.pop_front()
    }

    /// `true` when no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty() && self.in_flight.is_empty() && self.responses.is_empty()
    }

    /// `true` while a fault plan is attached. The plan draws a
    /// `stall_dram` decision on every tick, so a fault-armed controller
    /// is never fast-forward idle (the draw audit chain must advance
    /// cycle by cycle).
    pub fn has_fault(&self) -> bool {
        self.fault.is_some()
    }

    /// The earliest cycle whose tick would do more than advance the
    /// clock. With queued input, pending responses, or a fault plan
    /// attached that is the current cycle; with only in-flight accesses
    /// it is the tick on which the oldest one retires (`tick` increments
    /// the clock before retiring, so that is `done - 1`); when fully
    /// idle, `u64::MAX`.
    pub fn next_event_cycle(&self) -> u64 {
        if self.fault.is_some() || !self.input.is_empty() || !self.responses.is_empty() {
            return self.cycle;
        }
        match self.in_flight.front() {
            Some(&(done, _)) => done.saturating_sub(1).max(self.cycle),
            None => u64::MAX,
        }
    }

    /// Advances the clock by `delta` cycles at once — the bulk
    /// equivalent of `delta` [`Dram::tick`] calls on a controller whose
    /// ticks are certified idle (empty input, no retirement due, no
    /// fault plan) for the whole span.
    pub fn advance(&mut self, delta: u64) {
        self.cycle += delta;
    }

    /// The configured parameters.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Queue depths for hang diagnosis: (input, in-flight, responses).
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.input.len(), self.in_flight.len(), self.responses.len())
    }
}

// Both fault-plan copies are saved: `Dram::set_fault` clones the plan into
// the input queue's handshake, so the two streams advance independently.
vortex_snapshot::snapshot! {
    impl pub state for Dram {
        config config, input: state, in_flight, responses, cycle, fault, total_reads, total_writes,
        // The retired dropped-response count.
        reserved u64 = 0 => "reserved dram drop count",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_completes_after_latency() {
        let mut d = Dram::new(DramConfig {
            latency: 5,
            channels: 1,
            queue_size: 4,
        });
        d.push_req(MemReq::read(42, 0x100)).unwrap();
        for _ in 0..5 {
            d.tick();
            assert!(d.pop_rsp().is_none());
        }
        d.tick();
        assert_eq!(d.pop_rsp(), Some(MemRsp { tag: 42 }));
        assert!(d.is_idle());
    }

    #[test]
    fn writes_complete_silently() {
        let mut d = Dram::new(DramConfig {
            latency: 2,
            channels: 1,
            queue_size: 4,
        });
        d.push_req(MemReq::write(7, 0)).unwrap();
        for _ in 0..10 {
            d.tick();
        }
        assert!(d.pop_rsp().is_none());
        assert!(d.is_idle());
        assert_eq!(d.total_writes, 1);
    }

    #[test]
    fn channel_count_bounds_throughput() {
        // 8 reads through 2 channels at latency 3: last pair starts at
        // cycle 4 and completes at cycle 7.
        let mut d = Dram::new(DramConfig {
            latency: 3,
            channels: 2,
            queue_size: 8,
        });
        for i in 0..8 {
            d.push_req(MemReq::read(i, i as u32 * 64)).unwrap();
        }
        let mut completed = 0;
        let mut cycles = 0;
        while completed < 8 {
            d.tick();
            cycles += 1;
            while d.pop_rsp().is_some() {
                completed += 1;
            }
            assert!(cycles < 100, "throughput stuck");
        }
        assert_eq!(cycles, 7);
    }

    #[test]
    fn input_queue_backpressures() {
        let mut d = Dram::new(DramConfig {
            latency: 1,
            channels: 1,
            queue_size: 2,
        });
        assert!(d.push_req(MemReq::read(0, 0)).is_ok());
        assert!(d.push_req(MemReq::read(1, 0)).is_ok());
        assert!(!d.can_accept());
        assert!(d.push_req(MemReq::read(2, 0)).is_err());
    }
}
