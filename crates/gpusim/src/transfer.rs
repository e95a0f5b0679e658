//! PCIe transfer modeling and pinned (page-locked) buffer pools.

use crate::clock::SimTime;
use crate::spec::DeviceSpec;

/// Models the host↔device transfer path.
#[derive(Clone, Debug)]
pub struct TransferEngine {
    pinned_bandwidth: f64,
    pageable_bandwidth: f64,
    latency: SimTime,
}

impl TransferEngine {
    /// A transfer engine with the spec's bandwidths and latency.
    pub fn new(spec: &DeviceSpec) -> Self {
        TransferEngine {
            pinned_bandwidth: spec.pinned_bandwidth,
            pageable_bandwidth: spec.pageable_bandwidth,
            latency: spec.transfer_latency,
        }
    }

    /// Time to move `bytes` in one DMA operation.
    pub fn transfer_time(&self, bytes: u64, pinned: bool) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let bw = if pinned {
            self.pinned_bandwidth
        } else {
            self.pageable_bandwidth
        };
        self.latency + SimTime::from_secs_f64(bytes as f64 / bw)
    }

    /// Time to move `bytes` split across `n_ops` separate operations
    /// (what a *non*-batched port pays: one latency per task input).
    pub fn transfer_time_ops(&self, bytes: u64, n_ops: u64, pinned: bool) -> SimTime {
        if n_ops == 0 {
            return SimTime::ZERO;
        }
        let bw = if pinned {
            self.pinned_bandwidth
        } else {
            self.pageable_bandwidth
        };
        self.latency * n_ops + SimTime::from_secs_f64(bytes as f64 / bw)
    }
}

/// A pool of large pre-allocated, page-locked aggregation buffers — the
/// heart of the paper's *asynchronous batching of data*: "Data inputs are
/// aggregated into a few large pre-allocated buffers, which are then
/// transferred to the GPU in a single step … the pre-allocated transfer
/// buffers are page-locked at the beginning of the computation."
#[derive(Clone, Debug)]
pub struct PinnedBufferPool {
    n_buffers: usize,
    bytes_each: u64,
    lock_cost: SimTime,
    unlock_cost: SimTime,
}

impl PinnedBufferPool {
    /// Creates a pool of `n_buffers` buffers of `bytes_each` bytes.
    ///
    /// # Panics
    /// Panics if `n_buffers == 0` or `bytes_each == 0`.
    pub fn new(spec: &DeviceSpec, n_buffers: usize, bytes_each: u64) -> Self {
        assert!(n_buffers > 0 && bytes_each > 0, "empty pool");
        PinnedBufferPool {
            n_buffers,
            bytes_each,
            lock_cost: spec.page_lock_cost,
            unlock_cost: spec.page_unlock_cost,
        }
    }

    /// One-time setup cost: page-lock every buffer (paid once per run,
    /// 0.5 ms each — cheap because the buffers are few and large).
    pub fn setup_cost(&self) -> SimTime {
        self.lock_cost * self.n_buffers as u64
    }

    /// Total capacity of the pool in bytes.
    pub fn capacity(&self) -> u64 {
        self.n_buffers as u64 * self.bytes_each
    }

    /// What an unbatched port would pay instead: page-lock + unlock around
    /// every one of `n_ops` small transfers ("the overhead of page-locking
    /// for the transfer of a single matrix would be excessive").
    pub fn per_op_locking_cost(&self, n_ops: u64) -> SimTime {
        (self.lock_cost + self.unlock_cost) * n_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TransferEngine {
        TransferEngine::new(&DeviceSpec::default())
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(engine().transfer_time(0, true), SimTime::ZERO);
    }

    #[test]
    fn pinned_beats_pageable() {
        let e = engine();
        let bytes = 64 * 1024 * 1024;
        assert!(e.transfer_time(bytes, true) < e.transfer_time(bytes, false));
    }

    #[test]
    fn bandwidth_math() {
        let e = engine();
        // 6 GB over a 6 GB/s pinned link = 1 s + 8 µs latency.
        let t = e.transfer_time(6_000_000_000, true);
        assert!((t.as_secs_f64() - 1.000008).abs() < 1e-6, "{t}");
    }

    #[test]
    fn split_transfers_pay_latency_per_op() {
        let e = engine();
        let batched = e.transfer_time(1_000_000, true);
        let split = e.transfer_time_ops(1_000_000, 100, true);
        assert!(split > batched);
        let extra = split - batched;
        // 99 extra latencies of 8 µs.
        assert_eq!(extra, SimTime::from_micros(8) * 99);
    }

    #[test]
    fn pool_costs_match_paper_figures() {
        let spec = DeviceSpec::default();
        let pool = PinnedBufferPool::new(&spec, 4, 32 << 20);
        assert_eq!(pool.setup_cost(), SimTime::from_millis(2)); // 4 × 0.5 ms
        assert_eq!(pool.capacity(), 4 * (32 << 20));
        // Per-op locking for 1000 tasks dwarfs the pooled cost.
        assert!(pool.per_op_locking_cost(1000) > pool.setup_cost() * 100);
    }
}
