//! Device specification and calibrated cost-model constants.

use crate::clock::SimTime;

/// Hardware and cost-model parameters of the simulated device.
///
/// Defaults model the **NVIDIA Tesla M2090** on Titan's compute nodes
/// (paper §III) attached over PCIe 2.0 ×16. Parameter provenance:
///
/// | constant | source |
/// |---|---|
/// | 16 SMs, 665 DP GFLOPS, 6 GB GDDR5 | M2090 datasheet |
/// | PCIe 2.0 ×16 ≈ 8 GB/s raw; ~6 GB/s pinned, ~2.5 GB/s pageable | PCIe spec + the paper's "at least double the transfer speed" for pinned |
/// | page-lock 0.5 ms, page-unlock 2 ms | measured values quoted in paper §II-A |
/// | ~1 ms typical 3-D custom kernel | paper §II-A |
/// | 5 concurrent custom kernels | paper §VI ("the GPU executing 5 streams at once") = ⌊16 SMs / 3 SMs per kernel⌋ |
///
/// Efficiency curves (`custom_efficiency`, `cublas_efficiency`) are
/// calibrated so the custom-vs-cuBLAS ratios of Tables III/IV and the
/// crossover behaviour of Figures 5–6 are reproduced; see
/// EXPERIMENTS.md for the calibration record.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Streaming multiprocessors on the device.
    pub num_sms: usize,
    /// Double-precision peak per SM, in GFLOPS.
    pub dp_gflops_per_sm: f64,
    /// Device memory in bytes.
    pub device_mem_bytes: u64,
    /// Fixed host-side cost of launching one kernel.
    pub kernel_launch_overhead: SimTime,
    /// Cost of one inter-block (Xiao–Feng) barrier crossing inside the
    /// custom kernel.
    pub interblock_barrier: SimTime,
    /// PCIe bandwidth from/to page-locked host memory, bytes/s.
    pub pinned_bandwidth: f64,
    /// PCIe bandwidth from/to pageable host memory, bytes/s.
    pub pageable_bandwidth: f64,
    /// Fixed latency of a single transfer operation.
    pub transfer_latency: SimTime,
    /// One-time cost of page-locking a host buffer.
    pub page_lock_cost: SimTime,
    /// One-time cost of page-unlocking a host buffer.
    pub page_unlock_cost: SimTime,
    /// Maximum CUDA streams the runtime may use.
    pub max_streams: usize,
    /// CUDA 5 dynamic parallelism (launching sub-kernels from a running
    /// kernel). Absent on Fermi; the paper's §II-D/§VI future work notes
    /// it as "the most helpful for rank reduction" on Kepler.
    pub dynamic_parallelism: bool,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec {
            num_sms: 16,
            dp_gflops_per_sm: 665.0 / 16.0,
            device_mem_bytes: 6 * 1024 * 1024 * 1024,
            kernel_launch_overhead: SimTime::from_micros(3),
            interblock_barrier: SimTime::from_micros(2),
            pinned_bandwidth: 6.0e9,
            pageable_bandwidth: 2.5e9,
            transfer_latency: SimTime::from_micros(8),
            page_lock_cost: SimTime::from_micros(500),
            page_unlock_cost: SimTime::from_millis(2),
            max_streams: 16,
            dynamic_parallelism: false,
        }
    }
}

impl DeviceSpec {
    /// The NVIDIA Tesla **K20X** (Kepler) that replaced the M2090 when
    /// Titan's upgrade completed — the target of the paper's future-work
    /// section: 14 SMX units, 1.31 TFLOPS DP, 6 GB GDDR5, and CUDA 5
    /// **dynamic parallelism** (sub-kernel launches), which finally lets
    /// rank reduction release SMs on the GPU.
    pub fn kepler_k20x() -> Self {
        DeviceSpec {
            num_sms: 14,
            dp_gflops_per_sm: 1311.0 / 14.0,
            dynamic_parallelism: true,
            ..DeviceSpec::default()
        }
    }

    /// Thread blocks (= SMs, one block per SM) the custom kernel reserves:
    /// "two or three", by whether a `(k^{d-1}, k)` working set fits the
    /// shared memory + registers of two SMs.
    pub fn custom_kernel_sms(&self, d: usize, k: usize) -> usize {
        let working_set = self.custom_kernel_working_set(d, k);
        // One Fermi SM offers 48 KiB shared memory; two SMs hold ~16 KiB
        // of tiles comfortably once double-buffering and register spill
        // headroom are accounted for. Beyond that the kernel spreads over
        // three SMs — which caps concurrency at ⌊16/3⌋ = 5 kernels, the
        // stream-scaling plateau of Table I.
        if working_set <= 16 * 1024 {
            2
        } else {
            3
        }
    }

    /// Shared-memory working set of the custom kernel's tiles: source +
    /// ping/pong intermediate + two operator blocks, all `f64`.
    pub fn custom_kernel_working_set(&self, d: usize, k: usize) -> usize {
        8 * (2 * k.pow(d as u32 - 1) * k + 2 * k * k)
    }

    /// Fraction of per-SM DP peak the custom batched kernel sustains on
    /// `(k^{d-1}, k) × (k, k)` steps. Grows with `k` (better tile reuse)
    /// up to a modest cap, and **collapses** once the tile working set no
    /// longer fits the reserved SMs' shared memory (≈ 3 × 48 KiB with
    /// double-buffering headroom): that happens for `k ≳ 20` in 3-D and
    /// always in 4-D — precisely why the paper switched to cuBLAS for
    /// the k = 20 Coulomb (Table II) and the 4-D TDSE (Table VI).
    pub fn custom_efficiency(&self, d: usize, k: usize) -> f64 {
        let base = (0.05 + 0.007 * k as f64).min(0.16);
        let spills = d >= 4 || self.custom_kernel_working_set(d, k) > 115 * 1024;
        if spills {
            base * 0.25
        } else {
            base
        }
    }

    /// cuBLAS 4.1-style GEMM model for `C(m,n) = A(m,kk)·B(kk,n)`:
    /// returns `(sms_used, flop_rate)`.
    ///
    /// * Thread blocks come from ~64×16 output tiles, so skinny MADNESS
    ///   products occupy few SMs (`(k², k)×(k, k)` at k = 10 fills only
    ///   2 of 16 — the occupancy problem batching works around);
    /// * efficiency scales with the inner dimension squared (tiny `kk`
    ///   means almost no register/shared reuse);
    /// * a hard inner-dimension throughput cap models the skinny-GEMM
    ///   ceiling observed on Fermi (≈ 2.5 GFLOPS per unit of `kk`).
    pub fn cublas_gemm(&self, m: usize, n: usize, kk: usize) -> (usize, f64) {
        const EFF_MAX: f64 = 0.55;
        let blocks = m.div_ceil(64) * n.div_ceil(16);
        let sms = blocks.clamp(1, self.num_sms);
        let inner = (kk as f64 / 32.0).min(1.0);
        let eff = EFF_MAX * inner * inner;
        let rate = (sms as f64 * self.dp_gflops_per_sm * 1e9 * eff).min(kk as f64 * 2.5e9);
        (sms, rate)
    }

    /// Device peak in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.num_sms as f64 * self.dp_gflops_per_sm * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_m2090() {
        let s = DeviceSpec::default();
        assert_eq!(s.num_sms, 16);
        assert!((s.peak_flops() - 665e9).abs() < 1e6);
        assert_eq!(s.device_mem_bytes, 6 << 30);
    }

    #[test]
    fn pinned_is_at_least_double_pageable() {
        // The paper: page-locking "leads to at least double the transfer
        // speed".
        let s = DeviceSpec::default();
        assert!(s.pinned_bandwidth >= 2.0 * s.pageable_bandwidth);
    }

    #[test]
    fn custom_kernel_uses_two_or_three_sms() {
        let s = DeviceSpec::default();
        for k in [10, 14, 20, 28, 30] {
            let sms3 = s.custom_kernel_sms(3, k);
            assert!(sms3 == 2 || sms3 == 3, "k={k}: {sms3}");
        }
        // Tiny 3-D tensors fit in two SMs; typical ones need three.
        assert_eq!(s.custom_kernel_sms(3, 6), 2);
        assert_eq!(s.custom_kernel_sms(3, 10), 3);
        assert_eq!(s.custom_kernel_sms(3, 30), 3);
    }

    #[test]
    fn custom_efficiency_grows_then_collapses() {
        let s = DeviceSpec::default();
        // Grows with k while tiles fit shared memory…
        assert!(s.custom_efficiency(3, 14) > s.custom_efficiency(3, 10));
        // …collapses when they spill (k = 20, 3-D) and always in 4-D.
        assert!(s.custom_efficiency(3, 20) < s.custom_efficiency(3, 14));
        assert!(s.custom_efficiency(4, 14) < s.custom_efficiency(3, 14));
    }

    #[test]
    fn cublas_small_gemm_underfills_device() {
        let s = DeviceSpec::default();
        // (k², k) × (k, k) at k = 10: 2 SMs, single-digit GFLOPS.
        let (sms, rate) = s.cublas_gemm(100, 10, 10);
        assert_eq!(sms, 2);
        assert!(rate < 10e9, "rate {rate:.3e}");
    }

    #[test]
    fn cublas_large_gemm_fills_device_and_hits_inner_cap() {
        let s = DeviceSpec::default();
        // 4-D k = 14: (k³, k) fills all 16 SMs but the skinny inner
        // dimension caps throughput at ~kk × 2.5 GFLOPS.
        let (sms, rate) = s.cublas_gemm(2744, 14, 14);
        assert_eq!(sms, 16);
        assert!((rate - 35e9).abs() < 1e6, "rate {rate:.3e}");
    }

    #[test]
    fn cublas_rate_improves_with_k() {
        let s = DeviceSpec::default();
        let (_, r10) = s.cublas_gemm(100, 10, 10);
        let (_, r20) = s.cublas_gemm(400, 20, 20);
        let (_, r30) = s.cublas_gemm(900, 30, 30);
        assert!(r10 < r20 && r20 < r30);
    }

    #[test]
    fn five_concurrent_custom_kernels_for_3sm_case() {
        let s = DeviceSpec::default();
        assert_eq!(s.num_sms / s.custom_kernel_sms(3, 10), 5);
        assert_eq!(s.num_sms / s.custom_kernel_sms(3, 30), 5);
    }
}
