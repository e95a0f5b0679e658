//! Per-shape autotuned kernel table for the `mtxmq` hot path.
//!
//! The paper's CPU baseline leans on hand-tuned assembly `mtxmq`
//! kernels picked per problem shape. Our reproduction used to hard-code
//! one specialization list (`match dimj { 4 | 6 | … }`); following the
//! task-based tensor-computations argument (arXiv:2504.07004) this
//! module instead treats the inner kernel as a *choice* made per
//! `(d, k)` shape by measurement:
//!
//! * **Candidates** — [`KernelId`]: the runtime-width scalar loop, the
//!   const-width scalar loop (specialized `dimj`), the row-blocked AVX
//!   const-width loop with its AVX-512 fan body at width 10 (x86_64, each
//!   detected at runtime — no cargo feature), and a cache-blocked scalar
//!   loop that re-tiles the `i` dimension.
//! * **Calibration** — [`KernelTable::calibrate`] microbenchmarks every
//!   available candidate on each requested `(d, k)` pass shape with
//!   deterministic data, verifies the candidates are **bit-identical**
//!   to the scalar reference, and records the pick: the [`heuristic`]
//!   candidate unless another beats it by a fixed margin.
//! * **Dispatch** — [`select`] looks the current pass shape up in the
//!   installed global table (heuristic fallback for unlisted shapes)
//!   and [`run_span`] runs the chosen kernel over a row span. Both are
//!   allocation-free: lookups are a binary search over a pre-sorted
//!   slice, so the steady-state Apply path stays zero-alloc. The
//!   transform layer resolves each pass shape once per task and reuses
//!   the choice for every span of that shape.
//!
//! Every candidate performs, per output element, the identical
//! multiply-add chain in the identical `k`-ascending order as the
//! scalar reference (no FMA, same `a(k,i) == 0.0` skip), so the table
//! may pick *any* candidate without perturbing a single bit of any
//! result — the repo-wide determinism pins hold regardless of choice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The `dimj` widths with const-generic specializations (scalar and
/// AVX). These are the paper's `k` values plus the small test sizes.
pub const SPECIALIZED_WIDTHS: [usize; 6] = [4, 6, 8, 10, 14, 20];

/// One candidate inner kernel for a `C(i,j) += Σ_k A(k,i)·B(k,j)` pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelId {
    /// The runtime-width i-k-j scalar loop (always available; the
    /// bit-exact reference every other candidate is checked against).
    ScalarRuntime,
    /// The const-width scalar loop: fixed-size row views elide bounds
    /// checks so the compiler fully unrolls/vectorizes the inner loop.
    /// Available only for [`SPECIALIZED_WIDTHS`].
    ScalarConst,
    /// The explicit AVX const-width loop (x86_64 with runtime AVX
    /// detection). A block of 2–8 rows of `C` lives in 256-bit
    /// registers across the whole `k` loop. A fan of 2 or 3 outputs runs
    /// as one span at width 4 on AVX and, where the host has AVX-512F,
    /// at width 10, packed side by side in 512-bit registers; so width
    /// 10 is served by two bodies, the AVX single-output one and the
    /// AVX-512 fan.
    SimdConst,
    /// Cache-blocked scalar loop: `i` re-tiled in micro-tiles of 8 rows
    /// with `k` outermost inside the tile, so each strided `A` row
    /// segment is read once per tile instead of once per output row.
    Blocked,
}

impl KernelId {
    /// Every candidate, in calibration/serialization order.
    pub const ALL: [KernelId; 4] = [
        KernelId::ScalarRuntime,
        KernelId::ScalarConst,
        KernelId::SimdConst,
        KernelId::Blocked,
    ];

    /// Stable position in [`KernelId::ALL`] (and in timing arrays).
    pub fn index(self) -> usize {
        match self {
            KernelId::ScalarRuntime => 0,
            KernelId::ScalarConst => 1,
            KernelId::SimdConst => 2,
            KernelId::Blocked => 3,
        }
    }

    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::ScalarRuntime => "scalar-runtime",
            KernelId::ScalarConst => "scalar-const",
            KernelId::SimdConst => "simd-const",
            KernelId::Blocked => "blocked",
        }
    }

    /// Inverse of [`KernelId::name`].
    pub fn from_name(s: &str) -> Option<KernelId> {
        KernelId::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// Whether the AVX kernel can run here (x86_64 with AVX detected at
/// runtime).
pub fn simd_available() -> bool {
    crate::simd::available()
}

/// Whether `id` can serve a pass of width `dimj` on this host.
pub fn candidate_available(id: KernelId, dimj: usize) -> bool {
    match id {
        KernelId::ScalarRuntime | KernelId::Blocked => true,
        KernelId::ScalarConst => SPECIALIZED_WIDTHS.contains(&dimj),
        KernelId::SimdConst => SPECIALIZED_WIDTHS.contains(&dimj) && simd_available(),
    }
}

/// The choice the pre-table hard-coded `match dimj` dispatch made:
/// const-width scalar for specialized widths, runtime-width scalar
/// otherwise. `tablegen kernels` reports the autotuned win against
/// exactly this baseline.
pub fn hardcoded(dimj: usize) -> KernelId {
    if SPECIALIZED_WIDTHS.contains(&dimj) {
        KernelId::ScalarConst
    } else {
        KernelId::ScalarRuntime
    }
}

/// Shape-free fallback used for passes the calibrated table has no
/// entry for: the best candidate we can predict without measuring.
pub fn heuristic(dimj: usize) -> KernelId {
    if SPECIALIZED_WIDTHS.contains(&dimj) {
        if simd_available() {
            KernelId::SimdConst
        } else {
            KernelId::ScalarConst
        }
    } else {
        KernelId::ScalarRuntime
    }
}

// ---------------------------------------------------------------------------
// Span kernels. A "span" is rows `i0..i1` of one transform pass:
// `c[(i-i0)*dimj + j] += Σ_{k<kr} a[k*dimi + i] · b[k*dimj + j]`, with
// `a` the full pass operand (stride `dimi`) and `c` covering only the
// span's rows. Running consecutive spans in order is bit-identical to
// one full pass: each element's k-ascending accumulation chain is
// untouched by the row partition.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn check_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &[f64],
) {
    assert!(
        i0 <= i1 && i1 <= dimi,
        "row span {i0}..{i1} out of 0..{dimi}"
    );
    assert!(a.len() >= kr * dimi, "A must cover (kr, dimi)");
    assert!(b.len() >= kr * dimj, "B must cover (kr, dimj)");
    assert_eq!(c.len(), (i1 - i0) * dimj, "C must cover the span rows");
}

/// Runtime-width scalar span kernel (the bit-exact reference).
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn scalar_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i in i0..i1 {
        let crow = &mut c[(i - i0) * dimj..(i - i0 + 1) * dimj];
        for k in 0..kr {
            let aki = a[k * dimi + i];
            if aki == 0.0 {
                continue;
            }
            let brow = &b[k * dimj..(k + 1) * dimj];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aki * bj;
            }
        }
    }
}

/// Const-width scalar span kernel: fixed-size row views elide every
/// bounds check so the inner loop fully unrolls.
fn scalar_const_w<const W: usize>(
    dimi: usize,
    i0: usize,
    i1: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i in i0..i1 {
        let r = i - i0;
        let crow: &mut [f64; W] = (&mut c[r * W..r * W + W]).try_into().expect("row width");
        for k in 0..kr {
            let aki = a[k * dimi + i];
            if aki == 0.0 {
                continue;
            }
            let brow: &[f64; W] = (&b[k * W..k * W + W]).try_into().expect("row width");
            for j in 0..W {
                crow[j] += aki * brow[j];
            }
        }
    }
}

/// Dispatches to the const-width loop; `false` if `dimj` has no
/// specialization.
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn scalar_const_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> bool {
    match dimj {
        4 => scalar_const_w::<4>(dimi, i0, i1, kr, a, b, c),
        6 => scalar_const_w::<6>(dimi, i0, i1, kr, a, b, c),
        8 => scalar_const_w::<8>(dimi, i0, i1, kr, a, b, c),
        10 => scalar_const_w::<10>(dimi, i0, i1, kr, a, b, c),
        14 => scalar_const_w::<14>(dimi, i0, i1, kr, a, b, c),
        20 => scalar_const_w::<20>(dimi, i0, i1, kr, a, b, c),
        _ => return false,
    }
    true
}

/// Cache-blocked scalar span kernel: `i` re-tiled in micro-tiles with
/// `k` outermost inside each tile. Each strided `A` row segment
/// `a[k*dimi + t0..t1]` is then one or two cache lines read once per
/// tile, and `B`'s row stays hot across the tile's rows. Per output
/// element the `k` chain still ascends, so the result is bit-identical
/// to [`scalar_span`].
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
fn blocked_span(
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    const TI: usize = 8;
    let mut t0 = i0;
    while t0 < i1 {
        let t1 = (t0 + TI).min(i1);
        for k in 0..kr {
            let arow = &a[k * dimi..k * dimi + dimi];
            let brow = &b[k * dimj..(k + 1) * dimj];
            for i in t0..t1 {
                let aki = arow[i];
                if aki == 0.0 {
                    continue;
                }
                let crow = &mut c[(i - i0) * dimj..(i - i0 + 1) * dimj];
                for (cj, bj) in crow.iter_mut().zip(brow) {
                    *cj += aki * bj;
                }
            }
        }
        t0 = t1;
    }
}

/// Runs kernel `id` over the row span `i0..i1` of one pass,
/// accumulating into `c` (which covers exactly those rows). Falls back
/// down the candidate ladder (SIMD → const scalar → runtime scalar) if
/// `id` cannot serve this width on this host, so any `KernelId` is
/// always safe to request. Allocation-free.
///
/// # Panics
/// Panics if the slice lengths do not cover the stated span.
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
pub fn run_span(
    id: KernelId,
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    check_span(dimi, i0, i1, dimj, kr, a, b, c);
    match id {
        KernelId::Blocked => blocked_span(dimi, i0, i1, dimj, kr, a, b, c),
        KernelId::SimdConst => {
            if !crate::simd::span(dimi, i0, i1, dimj, kr, a, b, c)
                && !scalar_const_span(dimi, i0, i1, dimj, kr, a, b, c)
            {
                scalar_span(dimi, i0, i1, dimj, kr, a, b, c);
            }
        }
        KernelId::ScalarConst => {
            if !scalar_const_span(dimi, i0, i1, dimj, kr, a, b, c) {
                scalar_span(dimi, i0, i1, dimj, kr, a, b, c);
            }
        }
        KernelId::ScalarRuntime => scalar_span(dimi, i0, i1, dimj, kr, a, b, c),
    }
}

/// The most outputs one fan span feeds: the widest `N`-output body,
/// `N = 3` — at width 4 in 16 `ymm` registers (four rows a block), and
/// at width 10 packed into 4 `zmm` a row (30 of 32 lanes).
///
/// No measurement chose 3; the register budget did: at width 4 the
/// `N = 3` body's 12 accumulators, 3 `B` rows and 1 broadcast fill all
/// 16 `ymm`. The fan microbenchmark (2-vCPU Sapphire Rapids, best of
/// 100 × 100) timed fans of two and three only: three `(100,10,40)`
/// spans took 9.4 µs alone and 5.8 µs as one fan, two took 4.5 µs.
pub(crate) const FAN: usize = 3;

/// Runs kernel `id` over the row span `i0..i1` of `cs.len()` passes
/// that share the operand `a`: pass `n` contracts `a` with `bs[n]` into
/// `cs[n]`, each bit-identical to its own [`run_span`]. Where `id` is
/// [`KernelId::SimdConst`] and the host and width have an `N`-output
/// body (AVX at width 4, AVX-512 at width 10), one pass over `a` feeds
/// every output (a *fan*); otherwise
/// the outputs run one span each. Returns whether the fan ran as one
/// span.
///
/// # Panics
/// Panics if `bs` and `cs` differ in length or a slice does not cover
/// the stated span.
#[allow(clippy::too_many_arguments)] // span geometry is irreducible
pub(crate) fn run_fan(
    id: KernelId,
    dimi: usize,
    i0: usize,
    i1: usize,
    dimj: usize,
    kr: usize,
    a: &[f64],
    bs: &[&[f64]],
    cs: &mut [&mut [f64]],
) -> bool {
    assert_eq!(bs.len(), cs.len(), "one B per output");
    if id == KernelId::SimdConst && crate::simd::fan_span(dimi, i0, i1, dimj, kr, a, bs, cs) {
        return true;
    }
    for (b, c) in bs.iter().zip(cs.iter_mut()) {
        run_span(id, dimi, i0, i1, dimj, kr, a, b, c);
    }
    false
}

/// Rows per tile for a pass of shape `(dimi, dimj)` contracting `dimk`
/// rows: sized so one tile's working set (strided `A` reads + the `C`
/// rows; `B` is shared) streams through ~256 KiB of cache, rounded to a
/// multiple of the blocked kernel's 8-row micro-tile. Shapes that fit
/// outright get a single full-width tile, so small-`k` transforms run
/// exactly as before.
pub fn pass_tile_rows(dimi: usize, dimj: usize, dimk: usize) -> usize {
    const TARGET_BYTES: usize = 256 * 1024;
    let per_row = 8 * (dimk + dimj);
    let rows = (TARGET_BYTES / per_row.max(1)).max(8) & !7;
    rows.min(dimi).max(1)
}

// ---------------------------------------------------------------------------
// The calibrated table.
// ---------------------------------------------------------------------------

/// Marker for "candidate unavailable on this host" in timing arrays.
pub const UNAVAILABLE: u64 = u64::MAX;

/// One calibrated `(d, k)` pass shape: the measured candidate timings
/// and the winning kernel.
#[derive(Debug)]
pub struct KernelEntry {
    /// Transform dimensionality the shape came from.
    pub d: usize,
    /// Polynomial order (`dimj = k`, `dimi = k^{d-1}` for square passes).
    pub k: usize,
    /// Pass rows (`k^{d-1}` fused remaining dims).
    pub dimi: usize,
    /// Pass width (output columns).
    pub dimj: usize,
    /// Contraction extent.
    pub dimk: usize,
    /// The measured winner; what [`select`] returns for this shape.
    pub choice: KernelId,
    /// What [`heuristic`] would have picked without measuring.
    pub heuristic: KernelId,
    /// Best-of-reps nanoseconds per kernel invocation, indexed by
    /// [`KernelId::index`]; [`UNAVAILABLE`] if the candidate cannot run.
    pub timings_ns: [u64; 4],
    dispatches: AtomicU64,
}

impl KernelEntry {
    /// How many **spans** of this shape the hot path has issued while
    /// counting was enabled: one per [`run_span`] the `mtxmq` and
    /// transform entry points make, not one per [`select`] (a task
    /// selects each pass shape once and then issues many spans). A
    /// rank-`M` Apply task of dimension `d` alone issues `(d−1)·M`
    /// spans for the leading passes plus one per chunk of terms (× row
    /// tiles) for the fused final pass. In a group call the tasks of a
    /// *fan* (consecutive tasks whose stacked operands are identical, at
    /// most three of them) share that final span where the width has
    /// an `N`-output body on this host (width 4 with AVX, width 10 with
    /// AVX-512F): one dispatch on this per-output shape for the whole
    /// fan. A *leading fan* — a leading pass run at once for up to three
    /// tasks whose input is the same — counts the same way: one
    /// dispatch where the width has such a body, one per output
    /// otherwise. A fan of any other width counts one span per task.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// The pre-table hard-coded choice for this width.
    pub fn hardcoded(&self) -> KernelId {
        hardcoded(self.dimj)
    }

    /// Best-of-reps time of `id`, if it was available.
    pub fn time_ns(&self, id: KernelId) -> Option<u64> {
        let t = self.timings_ns[id.index()];
        (t != UNAVAILABLE).then_some(t)
    }

    fn clone_entry(&self) -> KernelEntry {
        KernelEntry {
            d: self.d,
            k: self.k,
            dimi: self.dimi,
            dimj: self.dimj,
            dimk: self.dimk,
            choice: self.choice,
            heuristic: self.heuristic,
            timings_ns: self.timings_ns,
            dispatches: AtomicU64::new(self.dispatches()),
        }
    }
}

/// A calibrated per-shape kernel registry.
///
/// Entries are sorted by `(dimj, dimi)` so the hot-path [`select`]
/// lookup is an allocation-free binary search. Install one globally
/// with [`install`] (or let [`ensure_autotuned`] calibrate and install
/// lazily); until then every pass uses the [`heuristic`] fallback.
#[derive(Debug)]
pub struct KernelTable {
    entries: Vec<KernelEntry>,
    counting: AtomicBool,
}

/// Text-serialization schema tag (first line of [`KernelTable::to_text`]).
pub const TABLE_SCHEMA: &str = "madness-kernel-table-v1";

/// The `(d, k)` shapes [`ensure_autotuned`] calibrates: the Table I
/// Apply variants (d=3 k∈{10,14,20,30}, d=4 k∈{10,14}) plus the small
/// orders the tests and micro-workloads use.
pub const DEFAULT_SHAPES: [(usize, usize); 9] = [
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 10),
    (3, 14),
    (3, 20),
    (3, 30),
    (4, 10),
    (4, 14),
];

impl KernelTable {
    /// Microbenchmarks every available candidate on each `(d, k)` pass
    /// shape (square passes: `dimi = k^{d-1}`, `dimj = dimk = k`) with
    /// deterministic data and records the per-shape winner.
    ///
    /// Candidates whose output is not **bit-identical** to the scalar
    /// reference on the calibration data are marked [`UNAVAILABLE`] and
    /// can never be chosen — a safety net under the determinism pins.
    pub fn calibrate(shapes: &[(usize, usize)]) -> KernelTable {
        let mut entries: Vec<KernelEntry> = Vec::with_capacity(shapes.len());
        for &(d, k) in shapes {
            let dimi = k.pow(d as u32 - 1);
            let (dimj, dimk) = (k, k);
            if entries.iter().any(|e| e.dimi == dimi && e.dimj == dimj) {
                continue;
            }
            let a = det_fill(dimk * dimi, 0x5EED ^ ((d as u64) << 32 | k as u64));
            let b = det_fill(dimk * dimj, 0xB0B ^ ((k as u64) << 16 | d as u64));
            let mut reference = vec![0.0f64; dimi * dimj];
            scalar_span(dimi, 0, dimi, dimj, dimk, &a, &b, &mut reference);
            let mut scratch = vec![0.0f64; dimi * dimj];
            let eligible = KernelId::ALL.map(|id| {
                if !candidate_available(id, dimj) {
                    return false;
                }
                scratch.fill(0.0);
                run_span(id, dimi, 0, dimi, dimj, dimk, &a, &b, &mut scratch);
                // Not bit-identical: never eligible.
                bits_equal(&scratch, &reference)
            });
            let timings_ns = time_candidates(eligible, dimi, dimj, dimk, &a, &b, &mut scratch);
            let heuristic = heuristic(dimj);
            entries.push(KernelEntry {
                d,
                k,
                dimi,
                dimj,
                dimk,
                choice: pick(&timings_ns, heuristic),
                heuristic,
                timings_ns,
                dispatches: AtomicU64::new(0),
            });
        }
        entries.sort_by_key(|e| (e.dimj, e.dimi));
        KernelTable {
            entries,
            counting: AtomicBool::new(false),
        }
    }

    /// The calibrated entries, sorted by `(dimj, dimi)`.
    pub fn entries(&self) -> &[KernelEntry] {
        &self.entries
    }

    /// Finds the entry for an exact pass shape, if calibrated.
    pub fn lookup(&self, dimi: usize, dimj: usize) -> Option<&KernelEntry> {
        self.entries
            .binary_search_by_key(&(dimj, dimi), |e| (e.dimj, e.dimi))
            .ok()
            .map(|ix| &self.entries[ix])
    }

    /// Enables/disables per-entry dispatch counting (one relaxed atomic
    /// increment per pass when on; a single relaxed load when off).
    pub fn set_counting(&self, on: bool) {
        self.counting.store(on, Ordering::Relaxed);
    }

    /// Zeroes every entry's dispatch counter.
    pub fn reset_dispatches(&self) {
        for e in &self.entries {
            e.dispatches.store(0, Ordering::Relaxed);
        }
    }

    /// Serializes the table (schema [`TABLE_SCHEMA`]): one line per
    /// entry, `-` for unavailable timings. Deterministic.
    pub fn to_text(&self) -> String {
        let mut s = String::from(TABLE_SCHEMA);
        s.push('\n');
        for e in &self.entries {
            s.push_str(&format!(
                "{} {} {} {} {} {} {}",
                e.d,
                e.k,
                e.dimi,
                e.dimj,
                e.dimk,
                e.choice.name(),
                e.heuristic.name()
            ));
            for t in e.timings_ns {
                if t == UNAVAILABLE {
                    s.push_str(" -");
                } else {
                    s.push_str(&format!(" {t}"));
                }
            }
            s.push('\n');
        }
        s
    }

    /// Parses [`KernelTable::to_text`] output. Entries whose choice
    /// cannot run on *this* host (e.g. a SIMD pick loaded on a non-AVX
    /// machine) are demoted to the best locally-available candidate.
    pub fn from_text(text: &str) -> Result<KernelTable, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty kernel table")?;
        if header.trim() != TABLE_SCHEMA {
            return Err(format!("unknown kernel-table schema: {header:?}"));
        }
        let mut entries = Vec::new();
        for (n, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 11 {
                return Err(format!(
                    "line {}: expected 11 fields, got {}",
                    n + 2,
                    f.len()
                ));
            }
            let num = |s: &str| {
                s.parse::<usize>()
                    .map_err(|e| format!("line {}: {e}", n + 2))
            };
            let (d, k) = (num(f[0])?, num(f[1])?);
            let (dimi, dimj, dimk) = (num(f[2])?, num(f[3])?, num(f[4])?);
            let mut choice = KernelId::from_name(f[5])
                .ok_or_else(|| format!("line {}: unknown kernel {:?}", n + 2, f[5]))?;
            let heuristic = KernelId::from_name(f[6])
                .ok_or_else(|| format!("line {}: unknown kernel {:?}", n + 2, f[6]))?;
            let mut timings_ns = [UNAVAILABLE; 4];
            for (ix, s) in f[7..].iter().enumerate() {
                if *s != "-" {
                    timings_ns[ix] = s
                        .parse::<u64>()
                        .map_err(|e| format!("line {}: {e}", n + 2))?;
                }
            }
            if !candidate_available(choice, dimj) {
                choice = KernelId::ALL
                    .into_iter()
                    .filter(|id| candidate_available(*id, dimj))
                    .min_by_key(|id| timings_ns[id.index()])
                    .unwrap_or(KernelId::ScalarRuntime);
            }
            entries.push(KernelEntry {
                d,
                k,
                dimi,
                dimj,
                dimk,
                choice,
                heuristic,
                timings_ns,
                dispatches: AtomicU64::new(0),
            });
        }
        entries.sort_by_key(|e| (e.dimj, e.dimi));
        Ok(KernelTable {
            entries,
            counting: AtomicBool::new(false),
        })
    }

    /// Deep copy (dispatch counters included).
    pub fn clone_table(&self) -> KernelTable {
        KernelTable {
            entries: self.entries.iter().map(|e| e.clone_entry()).collect(),
            counting: AtomicBool::new(self.counting.load(Ordering::Relaxed)),
        }
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic xorshift fill in [-0.5, 0.5) with a sprinkling of
/// exact zeros, so calibration also exercises the `aki == 0.0` skip.
fn det_fill(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.is_multiple_of(31) {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }
        })
        .collect()
}

/// The calibrated pick for one shape: the `heuristic` candidate keeps
/// the shape unless the fastest candidate beats it by at least
/// [`PICK_MARGIN_PCT`] percent, so run-to-run timing noise between
/// near-equal candidates cannot flip the choice from one process to
/// the next (ties go to the heuristic). A heuristic that measured
/// slower than the scalar reference never keeps the shape: the pick is
/// never slower than the fallback it replaces.
fn pick(timings_ns: &[u64; 4], heuristic: KernelId) -> KernelId {
    let fastest = KernelId::ALL
        .into_iter()
        .min_by_key(|id| timings_ns[id.index()])
        .expect("scalar reference always available");
    let (best, held) = (timings_ns[fastest.index()], timings_ns[heuristic.index()]);
    let within_margin = best as u128 * 100 > held as u128 * (100 - PICK_MARGIN_PCT);
    if held != UNAVAILABLE && within_margin && held <= timings_ns[KernelId::ScalarRuntime.index()] {
        heuristic
    } else {
        fastest
    }
}

/// How much faster (percent) than the [`heuristic`] candidate another
/// candidate must measure before calibration prefers it.
const PICK_MARGIN_PCT: u128 = 10;

/// Best-of-[`TIMING_ROUNDS`] nanoseconds per invocation for every
/// eligible candidate ([`UNAVAILABLE`] for the rest). The candidates
/// take turns inside each round, so a noisy stretch of the host slows
/// one rep of each rather than every rep of one; the iteration count is
/// probed to target ~200 µs per rep so the Instant resolution is
/// negligible even for tiny shapes.
fn time_candidates(
    eligible: [bool; 4],
    dimi: usize,
    dimj: usize,
    dimk: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) -> [u64; 4] {
    const TARGET_NS: u64 = 200_000;
    const TIMING_ROUNDS: usize = 5;
    let mut time = |id: KernelId, iters: u64| {
        c.fill(0.0);
        let t = Instant::now();
        for _ in 0..iters {
            run_span(id, dimi, 0, dimi, dimj, dimk, a, b, c);
        }
        (t.elapsed().as_nanos() as u64 / iters).max(1)
    };
    // Probe: one timed call per candidate to size its measurement loop.
    let iters = KernelId::ALL.map(|id| {
        if eligible[id.index()] {
            (TARGET_NS / time(id, 1)).clamp(1, 10_000)
        } else {
            0
        }
    });
    let mut best = [UNAVAILABLE; 4];
    for _ in 0..TIMING_ROUNDS {
        for id in KernelId::ALL {
            let ix = id.index();
            if eligible[ix] {
                best[ix] = best[ix].min(time(id, iters[ix]));
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Global installation and hot-path selection.
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<KernelTable> = OnceLock::new();

/// Installs `table` as the process-wide kernel table. Returns `false`
/// if one was already installed (first install wins; the hot path
/// caches `&'static` references).
pub fn install(table: KernelTable) -> bool {
    GLOBAL.set(table).is_ok()
}

/// The installed table, if any.
pub fn global() -> Option<&'static KernelTable> {
    GLOBAL.get()
}

/// Calibrates and installs the default table exactly once per process.
///
/// * `MADNESS_AUTOTUNE=off` (or `0`) skips calibration entirely — every
///   pass then uses the [`heuristic`] fallback;
/// * `MADNESS_KERNEL_TABLE=<path>` loads a serialized calibration
///   ([`KernelTable::to_text`]) instead of measuring, for reproducible
///   runs and cold-start-sensitive deployments.
///
/// Called lazily by the runtime before the first Apply; ~10–20 ms of
/// one-time microbenchmarks on the [`DEFAULT_SHAPES`].
pub fn ensure_autotuned() {
    static DONE: OnceLock<()> = OnceLock::new();
    DONE.get_or_init(|| {
        if matches!(
            std::env::var("MADNESS_AUTOTUNE").as_deref(),
            Ok("off") | Ok("0")
        ) {
            return;
        }
        if let Ok(path) = std::env::var("MADNESS_KERNEL_TABLE") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(table) = KernelTable::from_text(&text) {
                    install(table);
                    return;
                }
            }
        }
        install(KernelTable::calibrate(&DEFAULT_SHAPES));
    });
}

/// Picks the kernel for a pass of shape `(dimi, dimj)`: the calibrated
/// pick when the installed table has the exact shape, the
/// [`heuristic`] otherwise. Allocation-free (a binary search).
pub fn select(dimi: usize, dimj: usize) -> KernelId {
    resolve(dimi, dimj).id
}

/// The kernel serving one pass shape, resolved once (per `mtxmq` call,
/// per transform task) and then used for every span of that shape.
#[derive(Clone, Copy)]
pub(crate) struct SpanKernel {
    id: KernelId,
    /// The shape's dispatch counter, when the installed table has the
    /// shape and was counting at resolve time.
    counter: Option<&'static AtomicU64>,
}

/// [`select`] plus the dispatch counter the spans should bump.
pub(crate) fn resolve(dimi: usize, dimj: usize) -> SpanKernel {
    if let Some(table) = global() {
        if let Some(e) = table.lookup(dimi, dimj) {
            let counting = table.counting.load(Ordering::Relaxed);
            return SpanKernel {
                id: e.choice,
                counter: counting.then_some(&e.dispatches),
            };
        }
    }
    SpanKernel {
        id: heuristic(dimj),
        counter: None,
    }
}

impl SpanKernel {
    /// [`run_span`] with the resolved kernel, counted as one dispatch.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn run_span(
        &self,
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        if let Some(counter) = self.counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        run_span(self.id, dimi, i0, i1, dimj, kr, a, b, c);
    }

    /// Whether [`SpanKernel::run_fan`] at width `dimj` runs a fan of two
    /// or three as one span: the kernel is [`KernelId::SimdConst`] and
    /// the host has an `N`-output body that wide.
    pub(crate) fn fans(&self, dimj: usize) -> bool {
        self.id == KernelId::SimdConst && crate::simd::has_fan(dimj)
    }

    /// [`run_fan`] with the resolved kernel: one dispatch if the fan
    /// ran as one span, one per output otherwise.
    #[allow(clippy::too_many_arguments)] // span geometry is irreducible
    pub(crate) fn run_fan(
        &self,
        dimi: usize,
        i0: usize,
        i1: usize,
        dimj: usize,
        kr: usize,
        a: &[f64],
        bs: &[&[f64]],
        cs: &mut [&mut [f64]],
    ) {
        let fused = run_fan(self.id, dimi, i0, i1, dimj, kr, a, bs, cs);
        if let Some(counter) = self.counter {
            let spans = if fused { 1 } else { cs.len() };
            counter.fetch_add(spans as u64, Ordering::Relaxed);
        }
    }
}

/// An uncounted [`SpanKernel`] running `id`, for tests that pin a
/// candidate.
#[cfg(test)]
pub(crate) fn pinned(id: KernelId) -> SpanKernel {
    SpanKernel { id, counter: None }
}

/// A [`SpanKernel`] running `id` that counts its dispatches in
/// `counter`, for tests that pin a span count.
#[cfg(test)]
pub(crate) fn counted(id: KernelId, counter: &'static AtomicU64) -> SpanKernel {
    SpanKernel {
        id,
        counter: Some(counter),
    }
}

/// Bit for bit, except that two NaNs match whatever their payloads
/// (which operand's payload an add of two NaNs keeps is the code
/// generator's choice, not part of the chain contract).
#[cfg(test)]
pub(crate) fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ref(dimi: usize, dimj: usize, dimk: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; dimi * dimj];
        scalar_span(dimi, 0, dimi, dimj, dimk, a, b, &mut c);
        c
    }

    #[test]
    fn every_candidate_is_bit_identical_to_scalar() {
        for &(dimi, dimj, dimk) in &[
            (100usize, 10usize, 10usize),
            (196, 14, 14),
            (25, 5, 5),
            (49, 7, 7),
            (16, 4, 4),
            (400, 20, 20),
        ] {
            let a = det_fill(dimk * dimi, 17 + dimi as u64);
            let b = det_fill(dimk * dimj, 91 + dimj as u64);
            let want = span_ref(dimi, dimj, dimk, &a, &b);
            for id in KernelId::ALL {
                let mut c = vec![0.0; dimi * dimj];
                run_span(id, dimi, 0, dimi, dimj, dimk, &a, &b, &mut c);
                assert!(
                    bits_equal(&c, &want),
                    "{} diverged on ({dimi},{dimj},{dimk})",
                    id.name()
                );
            }
        }
    }

    #[test]
    fn spans_compose_to_full_pass_bit_identically() {
        let (dimi, dimj, dimk) = (121usize, 11usize, 11usize);
        let a = det_fill(dimk * dimi, 5);
        let b = det_fill(dimk * dimj, 6);
        let want = span_ref(dimi, dimj, dimk, &a, &b);
        for id in KernelId::ALL {
            let mut c = vec![0.0; dimi * dimj];
            let mut i0 = 0;
            while i0 < dimi {
                let i1 = (i0 + 40).min(dimi);
                run_span(
                    id,
                    dimi,
                    i0,
                    i1,
                    dimj,
                    dimk,
                    &a,
                    &b,
                    &mut c[i0 * dimj..i1 * dimj],
                );
                i0 = i1;
            }
            assert!(bits_equal(&c, &want), "{} span split diverged", id.name());
        }
    }

    /// The contraction row [`skip_case`] plants its zeros and specials
    /// in.
    const SKIP_K: usize = 4;

    /// A `(dimk, dimi)` operand whose row [`SKIP_K`] is an exact zero
    /// (alternating sign) at every row `i ≥ i0` with `(i − i0) % 8 ==
    /// zero_at`, so every block of 2, 4 or 8 rows starting at `i0` has
    /// one zero at `zero_at` modulo its size and the other rows none;
    /// and `(dimk, dimj)` operands whose row [`SKIP_K`] is ±∞ and NaN,
    /// which only a skipped coefficient keeps out of `c`.
    fn skip_case(
        dimi: usize,
        dimj: usize,
        dimk: usize,
        i0: usize,
        zero_at: usize,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>) {
        const SPECIAL: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut a = det_fill(dimk * dimi, seed);
        for i in 0..dimi {
            let x = &mut a[SKIP_K * dimi + i];
            if i >= i0 && (i - i0) % 8 == zero_at {
                *x = if i % 2 == 0 { 0.0 } else { -0.0 };
            } else if *x == 0.0 {
                *x = 0.25;
            }
        }
        let mut b = det_fill(dimk * dimj, seed + 1);
        for j in 0..dimj {
            b[SKIP_K * dimj + j] = SPECIAL[(j + zero_at) % SPECIAL.len()];
        }
        (a, b)
    }

    /// A span's starting `c`: −0.0 in every other element (which a
    /// zero product must not turn into +0.0), values elsewhere.
    fn signed_zero_init(len: usize, seed: u64) -> Vec<f64> {
        let mut c = det_fill(len, seed);
        for x in c.iter_mut().step_by(2) {
            *x = -0.0;
        }
        c
    }

    /// The row-blocked single-output bodies of every instruction set the
    /// host has, each through its own entry (so the AVX width-10 body is
    /// covered on an AVX-512 host as well), on spans that do not line up
    /// with their row blocks: a start row in mid-pass and every remainder
    /// `r < R` (R is at most 8), so full blocks and the one-row tail both
    /// run. Then once per row position of a block, with an exact zero at
    /// that position at one `k`, ±∞ / NaN in that row of `b` and −0.0 in
    /// `c`: the blocks test their coefficients with one vector compare,
    /// so that `k` takes the per-row path and every other `k` the path
    /// with no per-row branch.
    #[test]
    fn row_blocked_spans_match_scalar_off_the_block_grid() {
        let (dimi, dimk, i0) = (37usize, 9usize, 3usize);
        for isa in crate::simd::ISAS.iter().filter(|isa| (isa.present)()) {
            let Some(span) = isa.span else {
                continue;
            };
            for dimj in SPECIALIZED_WIDTHS {
                let a = det_fill(dimk * dimi, 7 + dimj as u64);
                let b = det_fill(dimk * dimj, 70 + dimj as u64);
                for rows in 1..=2 * 8 + 7 {
                    let i1 = i0 + rows;
                    let init = det_fill(rows * dimj, rows as u64);
                    let mut want = init.clone();
                    scalar_span(dimi, i0, i1, dimj, dimk, &a, &b, &mut want);
                    let mut got = init;
                    assert!(span(dimi, i0, i1, dimj, dimk, &a, &b, &mut got));
                    let isa = isa.name;
                    assert!(
                        bits_equal(&got, &want),
                        "{isa}: width {dimj}, rows {i0}..{i1}"
                    );
                }
                for zero_at in 0..8 {
                    let (a, b) = skip_case(dimi, dimj, dimk, i0, zero_at, dimj as u64);
                    for rows in 1..=2 * 8 + 7 {
                        let i1 = i0 + rows;
                        let init = signed_zero_init(rows * dimj, rows as u64);
                        let mut want = init.clone();
                        scalar_span(dimi, i0, i1, dimj, dimk, &a, &b, &mut want);
                        let mut got = init;
                        assert!(span(dimi, i0, i1, dimj, dimk, &a, &b, &mut got));
                        assert!(
                            same_bits(&got, &want),
                            "{}: width {dimj}, rows {i0}..{i1}, zero at {zero_at}",
                            isa.name
                        );
                        // The skipped rows stay finite.
                        let kept = (0..rows).filter(|r| r % 8 == zero_at);
                        assert!(kept
                            .flat_map(|r| &want[r * dimj..(r + 1) * dimj])
                            .all(|x| x.is_finite()));
                    }
                }
            }
        }
    }

    /// A fan equals one scalar span per output: through [`run_fan`] under
    /// every candidate — one span for the fan where the host has an
    /// `N`-output body (width 4 with AVX, width 10 with AVX-512), one
    /// span per output at every other width and at `N` = 1, and
    /// [`SpanKernel::fans`] says which — and through the fan entry of
    /// every instruction set the host has. Spans lie off
    /// the block grid (every remainder of an 8-row block, one block and
    /// two), with a zero at each row position of a block at one `k` and
    /// ±∞ / NaN in every output's `b` row there; the contraction is
    /// short, then longer than [`crate::simd::PACK_ROWS`], so the packed
    /// fan runs in two `k` blocks. The panels are windows of one buffer
    /// whose region after the fan's holds ±∞ / NaN — at `N` = 2 the
    /// packed fan's pad lanes are the third panel's place — and the
    /// outputs are windows of one buffer whose guard after them must come
    /// through untouched.
    #[test]
    fn fan_spans_match_one_scalar_span_per_output() {
        const SPECIAL: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let (dimi, i0) = (37usize, 3usize);
        let isas = || crate::simd::ISAS.iter().filter(|isa| (isa.present)());
        for dimk in [9, crate::simd::PACK_ROWS + 5] {
            for dimj in SPECIALIZED_WIDTHS {
                let fans_here = isas().any(|isa| isa.fan_width == dimj);
                for id in KernelId::ALL {
                    let fans = id == KernelId::SimdConst && fans_here;
                    assert_eq!(pinned(id).fans(dimj), fans, "{} at width {dimj}", id.name());
                }
                let region = dimk * dimj;
                for zero_at in 0..8 {
                    let (a, b0) = skip_case(dimi, dimj, dimk, i0, zero_at, 11 + dimj as u64);
                    for n in 1..=FAN {
                        let mut panels: Vec<f64> = SPECIAL
                            .iter()
                            .cycle()
                            .take((n + 1) * region)
                            .copied()
                            .collect();
                        for (g, b) in panels.chunks_mut(region).take(n).enumerate() {
                            b.copy_from_slice(&det_fill(region, 90 + g as u64));
                            b[SKIP_K * dimj..][..dimj]
                                .copy_from_slice(&b0[SKIP_K * dimj..][..dimj]);
                        }
                        let bs: Vec<&[f64]> = (0..n).map(|g| &panels[g * region..]).collect();
                        for rows in 1..=2 * 8 + 7 {
                            let i1 = i0 + rows;
                            let len = rows * dimj;
                            let mut init: Vec<f64> = (0..n)
                                .flat_map(|g| signed_zero_init(len, (rows * FAN + g) as u64))
                                .collect();
                            init.extend(SPECIAL.iter().cycle().take(dimj));
                            let mut want = init.clone();
                            for (b, c) in bs.iter().zip(want.chunks_mut(len)) {
                                scalar_span(dimi, i0, i1, dimj, dimk, &a, b, c);
                            }
                            let run = |fan: &dyn Fn(&mut [&mut [f64]]) -> bool, what: &str| {
                                let mut got = init.clone();
                                let mut cs: Vec<&mut [f64]> = got.chunks_mut(len).take(n).collect();
                                let fused = fan(&mut cs);
                                let case = format!(
                                    "{what}: width {dimj}, kr {dimk}, fan {n}, rows {i0}..{i1}, zero at {zero_at}"
                                );
                                assert!(same_bits(&got, &want), "{case}");
                                fused
                            };
                            for id in KernelId::ALL {
                                let fan = |cs: &mut [&mut [f64]]| {
                                    run_fan(id, dimi, i0, i1, dimj, dimk, &a, &bs, cs)
                                };
                                let fused = run(&fan, id.name());
                                assert_eq!(fused, id == KernelId::SimdConst && n > 1 && fans_here);
                            }
                            for isa in isas().filter(|isa| isa.fan_width == dimj && n > 1) {
                                let fan = |cs: &mut [&mut [f64]]| {
                                    (isa.fan_span)(dimi, i0, i1, dimj, dimk, &a, &bs, cs)
                                };
                                assert!(run(&fan, isa.name), "{} has a width-{dimj} fan", isa.name);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A d = 4 pass big enough that `pass_tile_rows` really tiles it,
    /// with a contraction as long as a fused chunk's: the tiled AVX pass
    /// equals one untiled scalar span.
    #[test]
    fn tiled_d4_pass_matches_untiled_scalar() {
        let (dimi, dimj, dimk) = (14usize.pow(3), 14usize, 3 * 14usize);
        let tile = pass_tile_rows(dimi, dimj, dimk);
        assert!(tile < dimi, "shape no longer tiles: {tile}");
        let a = det_fill(dimk * dimi, 41);
        let b = det_fill(dimk * dimj, 42);
        let want = span_ref(dimi, dimj, dimk, &a, &b);
        let mut got = vec![0.0; dimi * dimj];
        for (t, span) in got.chunks_mut(tile * dimj).enumerate() {
            let i0 = t * tile;
            let i1 = i0 + span.len() / dimj;
            run_span(KernelId::SimdConst, dimi, i0, i1, dimj, dimk, &a, &b, span);
        }
        assert!(bits_equal(&got, &want));
    }

    /// The margin rule, case by case.
    #[test]
    fn pick_keeps_the_heuristic_unless_clearly_beaten() {
        let h = KernelId::SimdConst;
        // Near-ties, either way round, stay with the heuristic…
        assert_eq!(pick(&[200, 150, 100, 95], h), h);
        assert_eq!(pick(&[200, 150, 100, 100], h), h);
        assert_eq!(pick(&[200, 150, 100, 91], h), h);
        // …a 10 % win takes the shape…
        assert_eq!(pick(&[200, 150, 100, 90], h), KernelId::Blocked);
        // …and so does anything when the heuristic cannot run or lost
        // to the scalar reference.
        assert_eq!(
            pick(&[200, 150, UNAVAILABLE, 190], h),
            KernelId::ScalarConst
        );
        assert_eq!(pick(&[99, 150, 100, 120], h), KernelId::ScalarRuntime);
    }

    /// Two calibrations in one process agree wherever the first one had
    /// the heuristic candidate clearly ahead (the near-ties a bare argmin
    /// used to flip are `pick`'s to hold still, pinned above on exact
    /// timings; this one runs the real clock, so it only judges shapes
    /// whose lead is well clear of timing noise).
    #[test]
    fn back_to_back_calibrations_agree() {
        let shapes = [(3, 4), (3, 6), (3, 10), (3, 14)];
        let first = KernelTable::calibrate(&shapes);
        let second = KernelTable::calibrate(&shapes);
        for (x, y) in first.entries().iter().zip(second.entries()) {
            let held = x
                .time_ns(x.heuristic)
                .expect("heuristic candidates always run");
            let clear_lead = KernelId::ALL
                .into_iter()
                .filter(|id| *id != x.heuristic)
                .filter_map(|id| x.time_ns(id))
                .all(|other| other * 10 >= held * 13);
            if clear_lead {
                assert_eq!(
                    x.choice, x.heuristic,
                    "d{}k{} left a clear leader",
                    x.d, x.k
                );
                assert_eq!(y.choice, x.choice, "d{}k{} flipped", x.d, x.k);
            }
        }
    }

    #[test]
    fn calibration_produces_sorted_winning_entries() {
        let table = KernelTable::calibrate(&[(3, 4), (3, 5), (3, 10)]);
        assert_eq!(table.entries().len(), 3);
        let keys: Vec<_> = table.entries().iter().map(|e| (e.dimj, e.dimi)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        for e in table.entries() {
            // The winner must be an available, measured candidate…
            let best = e.time_ns(e.choice).expect("choice must have a timing");
            // …and by construction no slower than the scalar reference.
            assert!(best <= e.time_ns(KernelId::ScalarRuntime).unwrap());
        }
    }

    #[test]
    fn table_text_round_trips() {
        let table = KernelTable::calibrate(&[(3, 4), (3, 10), (4, 10)]);
        let text = table.to_text();
        let back = KernelTable::from_text(&text).expect("round trip");
        assert_eq!(back.entries().len(), table.entries().len());
        for (x, y) in table.entries().iter().zip(back.entries()) {
            assert_eq!(
                (x.d, x.k, x.dimi, x.dimj, x.dimk),
                (y.d, y.k, y.dimi, y.dimj, y.dimk)
            );
            assert_eq!(x.choice, y.choice);
            assert_eq!(x.heuristic, y.heuristic);
            assert_eq!(x.timings_ns, y.timings_ns);
        }
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_malformed() {
        assert!(KernelTable::from_text("").is_err());
        assert!(KernelTable::from_text("bogus-schema\n").is_err());
        let good = KernelTable::calibrate(&[(3, 4)]).to_text();
        let truncated = good.replace(" blocked", "");
        // Either a field-count or kernel-name error — just not a parse.
        if truncated != good {
            assert!(KernelTable::from_text(&truncated).is_err());
        }
        let bad_kernel = good.replace("scalar-const", "scalar-warp");
        if bad_kernel != good {
            assert!(KernelTable::from_text(&bad_kernel).is_err());
        }
    }

    #[test]
    fn lookup_and_select_fall_back_for_unknown_shapes() {
        let table = KernelTable::calibrate(&[(3, 4)]);
        assert!(table.lookup(16, 4).is_some());
        assert!(table.lookup(17, 4).is_none());
        assert!(table.lookup(16, 5).is_none());
        // select() (global table) must at minimum return a runnable id.
        let id = select(12345, 7);
        assert!(candidate_available(id, 7) || id == KernelId::ScalarRuntime);
    }

    #[test]
    fn dispatch_counting_counts_only_when_enabled() {
        let table = KernelTable::calibrate(&[(3, 6)]);
        let e = table.lookup(36, 6).expect("calibrated shape");
        assert_eq!(e.dispatches(), 0);
        // Counting path exercised through the table directly (the global
        // may already be installed by another test).
        table.set_counting(true);
        if table.counting.load(Ordering::Relaxed) {
            e.dispatches.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(e.dispatches(), 1);
        table.reset_dispatches();
        assert_eq!(e.dispatches(), 0);
    }

    #[test]
    fn hardcoded_matches_pre_table_dispatch() {
        assert_eq!(hardcoded(10), KernelId::ScalarConst);
        assert_eq!(hardcoded(7), KernelId::ScalarRuntime);
    }

    #[test]
    fn pass_tile_rows_only_tiles_large_shapes() {
        // Small Apply shapes fit in one tile: no behavior change.
        assert_eq!(pass_tile_rows(100, 10, 10), 100);
        assert_eq!(pass_tile_rows(16, 4, 4), 16);
        // The big k=30 d=3 pass tiles.
        let t = pass_tile_rows(900, 30, 30);
        assert!(t < 900 && t.is_multiple_of(8) && t >= 8, "tile {t}");
    }
}
