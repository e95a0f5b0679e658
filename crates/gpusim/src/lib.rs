//! # madness-gpusim
//!
//! A discrete-event model of the NVIDIA Tesla M2090 (Fermi) device the
//! paper's experiments used — the substitution substrate for hardware we
//! do not have (DESIGN.md §2).
//!
//! The crate models exactly the mechanisms the paper's contribution
//! manipulates:
//!
//! * **kernel-launch overhead** — the reason per-GEMM cuBLAS launches lose
//!   to one custom batched kernel for small matrices;
//! * **SM allocation** — the custom kernel reserves 2–3 of the 16 SMs per
//!   task and synchronizes its thread blocks with an inter-block barrier
//!   (Xiao–Feng), so at most ⌊16/3⌋ = 5 kernels run concurrently — the
//!   stream-scaling saturation of Table I;
//! * **CUDA streams** — task parallelism across concurrent kernels,
//!   booked by greedy list scheduling ([`lanes`]) a run of equal
//!   kernels at a time;
//! * **PCIe transfers** — latency + bandwidth, with page-locked (pinned)
//!   buffers twice as fast as pageable ones, and the paper's measured
//!   0.5 ms page-lock / 2 ms page-unlock costs;
//! * **the write-once device cache** for `h` operator blocks, avoiding
//!   redundant transfers.
//!
//! `Full` fidelity runs the real arithmetic, [`kernel::execute_tasks`] —
//! which the real Apply pipeline runs for its CPU and GPU shares alike —
//! so CPU and "GPU" results are bit-comparable; `Timing` fidelity
//! accounts the same costs without touching floats (500-node sweeps).
//!
//! Every constant in [`spec::DeviceSpec`] is documented with its source
//! (vendor datasheet or a measured figure quoted in the paper).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod clock;
pub mod device;
pub mod kernel;
pub mod lanes;
pub mod spec;
pub mod task;
pub mod transfer;

pub use cache::DeviceHCache;
pub use clock::SimTime;
pub use device::{BatchEstimate, BatchOutcome, CostBreakdown, ExecMode, GpuDevice};
pub use kernel::KernelKind;
pub use lanes::{serve_lane, serve_many, MAX_LANES};
pub use spec::DeviceSpec;
pub use task::{HBlock, TransformTask, TransformTerm};
pub use transfer::{PinnedBufferPool, TransferEngine};
