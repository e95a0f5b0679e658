//! Ablation studies of the design choices DESIGN.md §6 calls out.
//!
//! Each ablation isolates one mechanism of the paper's contribution and
//! quantifies what it buys, over the same simulated hardware.

use crate::pinned::{node_secs, SPEC, TABLE1_GPU};
use crate::report::Report;
use madness_cluster::node::{NodeParams, NodeSim, ResourceMode};
use madness_cluster::workload::WorkloadSpec;
use madness_gpusim::{
    DeviceSpec, ExecMode, GpuDevice, KernelKind, PinnedBufferPool, SimTime, TransferEngine,
    TransformTask,
};
use std::fmt::Write as _;

/// A named before/after comparison.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// What is being ablated.
    pub name: &'static str,
    /// Time with the paper's mechanism enabled, seconds.
    pub with_mechanism: f64,
    /// Time with it disabled, seconds.
    pub without_mechanism: f64,
}

impl Ablation {
    /// Speedup the mechanism provides.
    pub fn gain(&self) -> f64 {
        self.without_mechanism / self.with_mechanism
    }
}

/// Batching vs per-task dispatch: one aggregated transfer + one kernel
/// launch per batch, versus one transfer pair + per-task page-locking
/// for every single task (the "naive CPU-GPU port" of §I).
pub fn ablation_batching(n_tasks: u64) -> Ablation {
    let spec = DeviceSpec::default();
    let engine = TransferEngine::new(&spec);
    let task = TransformTask::shape_only(3, 10, 100, 0);
    let cost = madness_gpusim::kernel::kernel_cost(&spec, KernelKind::CustomMtxmq, &task);
    let conc = (spec.num_sms / cost.sms_used).max(1) as u64;
    let bytes = task.s_bytes() * n_tasks;

    // Batched: pinned pool locked once, one DMA per direction per batch.
    let pool = PinnedBufferPool::new(&spec, 4, 32 << 20);
    let batches = n_tasks.div_ceil(60);
    let batched = pool.setup_cost()
        + engine.transfer_time(bytes, true) * 2u64
        + cost.duration * n_tasks / conc
        + engine.transfer_time(0, true) * batches;

    // Naive port (§I): one transfer pair per task, with on-demand
    // page-locking around each — "the overhead of page-locking for the
    // transfer of a single matrix would be excessive" (0.5 ms lock +
    // 2 ms unlock per task, the paper's measured costs).
    let naive = engine.transfer_time_ops(bytes, n_tasks, true) * 2u64
        + pool.per_op_locking_cost(n_tasks)
        + cost.duration * n_tasks / conc;

    Ablation {
        name: "asynchronous batching (vs per-task dispatch)",
        with_mechanism: batched.as_secs_f64(),
        without_mechanism: naive.as_secs_f64(),
    }
}

/// Pinned vs pageable staging buffers for the batched transfers.
pub fn ablation_pinned(n_tasks: u64) -> Ablation {
    let run = |pinned: bool| {
        let mut device = GpuDevice::new(DeviceSpec::default(), 5);
        device.set_pinned(pinned);
        let tasks: Vec<TransformTask> = (0..n_tasks)
            .map(|_| TransformTask::shape_only(3, 10, 100, 0))
            .collect();
        let mut total = SimTime::ZERO;
        for chunk in tasks.chunks(60) {
            total += device
                .execute_batch(chunk, KernelKind::CustomMtxmq, ExecMode::Timing)
                .time;
        }
        total.as_secs_f64()
    };
    Ablation {
        name: "page-locked transfer buffers (vs pageable)",
        with_mechanism: run(true),
        without_mechanism: run(false),
    }
}

/// The write-once device cache for `h` blocks: with it, operator blocks
/// transfer once per run; without it, every batch re-transfers them.
///
/// Returns the time ablation plus `(bytes_with, bytes_without)` moved
/// over PCIe for operator blocks — under *aggregated* DMA the cache's
/// win shows up mostly in bytes (the time win is modest because the
/// batched kernels dominate; see EXPERIMENTS.md).
pub fn ablation_hcache(n_batches: u64) -> (Ablation, u64, u64) {
    let batch: Vec<TransformTask> = (0..60)
        .map(|_| TransformTask::shape_only(3, 10, 100, 0))
        .collect();
    // With the cache the device persists across batches; without, it
    // is cleared before every batch.
    let run = |cached: bool| {
        let mut device = GpuDevice::new(DeviceSpec::default(), 5);
        let (mut time, mut bytes_h) = (SimTime::ZERO, 0u64);
        for _ in 0..n_batches {
            if !cached {
                device.reset();
            }
            let out = device.execute_batch(&batch, KernelKind::CustomMtxmq, ExecMode::Timing);
            time += out.time;
            bytes_h += out.breakdown.bytes_h;
        }
        (time.as_secs_f64(), bytes_h)
    };
    let (with_mechanism, bytes_with) = run(true);
    let (without_mechanism, bytes_without) = run(false);
    (
        Ablation {
            name: "write-once device h-cache (vs re-transfer)",
            with_mechanism,
            without_mechanism,
        },
        bytes_with,
        bytes_without,
    )
}

/// The optimal split `k* = n/(m+n)` vs GPU-only (naive offload).
pub fn ablation_split(n_tasks: u64) -> Ablation {
    let node = NodeSim::new(NodeParams::default());
    Ablation {
        name: "optimal CPU-GPU split (vs GPU-only offload)",
        with_mechanism: node_secs(&node, &SPEC, n_tasks, ResourceMode::TABLE1_HYBRID),
        without_mechanism: node_secs(&node, &SPEC, n_tasks, TABLE1_GPU),
    }
}

/// Rank reduction on the CPU (paper: ≤ 2.5×) vs on the GPU (paper: no
/// effect) — returns both as a pair.
pub fn ablation_rankred(n_tasks: u64) -> (Ablation, Ablation) {
    let node = NodeSim::new(NodeParams::default());
    let full = SPEC;
    let reduced = WorkloadSpec {
        rr_mean_rank: Some(4),
        ..full
    };
    let cpu =
        |s: &WorkloadSpec| node_secs(&node, s, n_tasks, ResourceMode::CpuOnly { threads: 16 });
    let gpu = |s: &WorkloadSpec| node_secs(&node, s, n_tasks, TABLE1_GPU);
    (
        Ablation {
            name: "rank reduction on CPU",
            with_mechanism: cpu(&reduced),
            without_mechanism: cpu(&full),
        },
        Ablation {
            name: "rank reduction on GPU (expected ≈ 1.0)",
            with_mechanism: gpu(&reduced),
            without_mechanism: gpu(&full),
        },
    )
}

/// `tablegen ablations`: every ablation at a standard size.
pub(crate) fn report() -> Report {
    let (rr_cpu, rr_gpu) = ablation_rankred(6_000);
    let (hcache, _, _) = ablation_hcache(50);
    let ablations = [
        ablation_batching(6_000),
        ablation_pinned(6_000),
        hcache,
        ablation_split(6_000),
        rr_cpu,
        rr_gpu,
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52}{:>12}{:>12}{:>8}",
        "mechanism", "with (s)", "without (s)", "gain"
    );
    for a in ablations {
        let _ = writeln!(
            out,
            "{:<52}{:>12.2}{:>12.2}{:>8.2}",
            a.name,
            a.with_mechanism,
            a.without_mechanism,
            a.gain()
        );
    }
    Report::printed(out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_is_a_large_win() {
        // Per-task dispatch pays 2.5 ms of page-locking per task alone;
        // batching amortizes all of it.
        let a = ablation_batching(6_000);
        assert!(a.gain() > 3.0, "batching gain {:.2}", a.gain());
    }

    #[test]
    fn pinned_buffers_help() {
        let a = ablation_pinned(6_000);
        assert!(a.gain() > 1.0, "pinned gain {:.2}", a.gain());
    }

    #[test]
    fn hcache_amortizes_operator_transfers() {
        let (a, bytes_with, bytes_without) = ablation_hcache(50);
        // Time win is modest under aggregated DMA, but strictly positive…
        assert!(a.gain() > 1.001, "h-cache gain {:.4}", a.gain());
        // …and the transfer-byte saving is the full 50× (one warm-up
        // batch pays; 49 ride the cache).
        assert!(
            bytes_without >= 49 * bytes_with,
            "bytes {bytes_with} vs {bytes_without}"
        );
    }

    #[test]
    fn split_beats_gpu_only() {
        let a = ablation_split(6_000);
        assert!(a.gain() > 1.05, "split gain {:.2}", a.gain());
    }

    #[test]
    fn rank_reduction_asymmetry() {
        let (cpu, gpu) = ablation_rankred(3_000);
        assert!(cpu.gain() > 1.5, "CPU rr gain {:.2}", cpu.gain());
        assert!(
            (gpu.gain() - 1.0).abs() < 0.01,
            "GPU rr gain should be ≈ 1.0, got {:.3}",
            gpu.gain()
        );
    }
}
