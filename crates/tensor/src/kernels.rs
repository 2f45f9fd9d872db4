//! Dense compute kernels shared by the forward and backward passes.
//!
//! All matrices are row-major slices. Every dense product is one
//! [`Mkn`] shape run through one row function, `gemm_rows`, generic over
//! the operands' layout; `Mkn::blocked` picks one of two kernel families
//! for it:
//!
//! * **Direct kernels** (`nn_rows`, `nt_rows`, `tn_rows`): the i-k-j
//!   rank-1 / dot loops, used for problems too small to amortize packing.
//! * **Blocked kernels** (`gebp_rows`): a cache-blocked, register-tiled
//!   micro-kernel — A strips and B panels are packed into contiguous
//!   scratch, then an `MR×NR` inner kernel accumulates the tile in
//!   registers. One GEBP driver, generic over the tile, runs every blocked
//!   product. The instruction set is probed once per process: with
//!   AVX-512F, products of output width ≥ 32 run a 6×32 zmm tile written
//!   with intrinsics; with AVX2+FMA, the rest run a 6×16 tile whose
//!   straight-line loops compile to 8-lane fused multiply-adds; elsewhere
//!   that tile autovectorizes at the build's baseline features. The zmm and
//!   ymm tiles compute every element with the same FMA chain, so which one
//!   runs never moves a bit.
//!
//! Every kernel has a *row-range core* that computes a contiguous range of
//! output rows into a row-relative slice, and a `par_*` wrapper that shards
//! the row range across an [`Executor`]. Per output element the accumulation
//! order over the shared dimension is fixed (ascending, with k-block
//! boundaries at multiples of the global `KC`), independent of how rows are
//! sharded — so parallel results are bitwise identical to serial at any
//! thread count (the determinism contract of DESIGN.md §11). Small problems
//! fall back to the direct kernels based on the *global* shape, never the
//! shard, so serial and parallel always pick the same path.

use std::cell::RefCell;
use std::ops::Range;

use tfmae_obs::LazyCounter;

use crate::exec::{gated_min_chunk, Executor, MIN_PAR_FLOPS};
use crate::quant::{bf16_to_f32, QuantData};

/// Minimum per-chunk work (inner-loop iterations) before a kernel fans out;
/// below this the dispatch overhead dominates. Sized for the memory-bound
/// kernels this gates directly (transpose, softmax, activations — no flops
/// gate): fan-out starts at `2 ×` this, ~1 MiB of f32 traffic, matching
/// the retuned [`crate::exec::MIN_PAR_FLOPS`] story — small per-window
/// work stays on the caller, multi-core throughput comes from the serving
/// engine's scoring lanes above (the 16 Ki setting this shipped with measured 0.65–0.89x
/// tiny-train "speedups" at 2–4 threads).
const MIN_PAR_WORK: usize = 128 * 1024;

/// Rows per chunk so that each chunk carries at least [`MIN_PAR_WORK`].
fn min_rows(per_row_work: usize) -> usize {
    (MIN_PAR_WORK / per_row_work.max(1)).max(1)
}

/// Runs `f(r0, r1, rows)` over a partition of the first `n_rows` rows
/// (`width` elements each) of `out`, handing each call the `&mut` slice of
/// its own rows `[r0, r1)` — the row-sharded dispatch every one-output
/// parallel kernel uses. Chunks hold at least `min_rows` rows, and the task
/// runs inline below `flops` total multiply-adds ([`MIN_PAR_FLOPS`];
/// `usize::MAX` gates on `min_rows` alone, for memory-bound kernels).
pub(crate) fn par_rows(
    exec: &Executor,
    out: &mut [f32],
    n_rows: usize,
    width: usize,
    min_rows: usize,
    flops: usize,
    f: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    assert!(
        n_rows.checked_mul(width).is_some_and(|len| len <= out.len()),
        "par_rows: {n_rows} rows of {width} overrun a buffer of {}",
        out.len()
    );
    let min = gated_min_chunk(n_rows, min_rows, flops, MIN_PAR_FLOPS);
    exec.parallel_for_mut(n_rows, min, [&mut out[..n_rows * width]], &|r0, r1, [rows]| {
        f(r0, r1, rows)
    });
}

// ---------------------------------------------------- blocked micro-kernel

/// Shared-dimension block. One packed B panel is `KC×NR` floats (16 KiB at
/// the 16-wide tile, 32 KiB at the 32-wide one) and stays L1/L2-resident
/// across all strips of an A block. `KC` is a global constant so k-block
/// boundaries — and therefore the per-element FP accumulation order — never
/// depend on row sharding or on the tile the ISA picks.
const KC: usize = 256;
/// Rows of A packed per block (`MC×KC` ≈ 66 KiB, L2-resident). A multiple
/// of every tile's `MR` so packed strips tile the block exactly.
const MC: usize = 66;
/// Rows of every register tile (the broadcast side).
const TILE_MR: usize = 6;
/// Columns of the AVX2 and portable tile: two 8-lane ymm registers.
const YMM_NR: usize = 16;
/// Columns of the AVX-512 tile: two 16-lane zmm registers. The widest tile,
/// so it sizes the per-worker B-panel scratch.
const ZMM_NR: usize = 32;

/// Effective problems below this many multiply-adds skip packing and use
/// the direct kernels (packing overhead dominates under ~8k flops).
const BLOCKED_MIN_MULS: usize = 8 * 1024;

/// Narrowest inner and output width the blocked path takes. The blocked vs
/// direct choice moves bits (the two paths round differently), so this is a
/// fixed property of the shape, set apart from the tile width: the tile an
/// ISA picks never moves a bit.
const BLOCKED_MIN_DIM: usize = 16;

/// The shape of one product `C[m×n] += Aeff[m×k] · Beff[k×n]`, in effective
/// terms: a transposed operand is read through its layout flag (`TA`/`TB`
/// of `gemm_rows`), never copied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mkn {
    /// Output rows.
    pub m: usize,
    /// Shared (summed) dimension.
    pub k: usize,
    /// Output width.
    pub n: usize,
}

/// Which part of the shape picks a product's path (see [`Mkn::blocked`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Policy {
    /// The forward row products ([`par_matmul`], [`matmul_quant`]), whose
    /// `m` is the batch's rows: `k` and `n` only, so a row's bits never
    /// depend on how many other rows share the call. Both compute each
    /// output row from that row of `A` alone, so a serving window scores
    /// the same bits in any batch (DESIGN.md §18).
    Rows,
    /// Every other product (batched `bmm`, attention's per-head products
    /// and the backward accumulators): the whole shape, so products too
    /// small to amortize packing stay direct.
    Shape,
}

impl Mkn {
    /// Whether this product runs the blocked GEBP rather than its direct
    /// loop. Blocked GEBP pays only when the inner dimension amortizes the
    /// panel packing (`k ≥ 16`), a 16-wide panel is filled (`n ≥ 16`) and,
    /// under [`Policy::Shape`], the problem is big enough overall. Skinny
    /// products — e.g. per-head attention scores with `Dh = 8`, or 2-wide
    /// feature lifts — stay on the direct kernels. Every product picks its
    /// path here, from the global shape and never a shard's, so serial and
    /// parallel runs take the same path.
    fn blocked(self, policy: Policy) -> bool {
        let wide = self.k >= BLOCKED_MIN_DIM && self.n >= BLOCKED_MIN_DIM;
        match policy {
            Policy::Rows => wide,
            Policy::Shape => wide && self.m.saturating_mul(self.k).saturating_mul(self.n) >= BLOCKED_MIN_MULS,
        }
    }
}

/// Output width from which the AVX-512 6×32 tile runs. Below it half of
/// every 32-wide panel would be padding, and the 6×16 AVX2 tile is faster.
const ZMM_MIN_N: usize = 32;

thread_local! {
    /// Per-worker packing scratch: (A block, B panel), sized for the widest
    /// tile. Workers are persistent, so each thread allocates exactly once.
    static PACK_SCRATCH: RefCell<PackScratch> =
        RefCell::new((vec![0.0; MC * KC], vec![0.0; KC * ZMM_NR]));
    /// Per-worker attention scratch blocks (weights, dW, dS — each up to
    /// `Tq×Tk` — plus the `D×Tk` transpose of `K` or `V` for the skinny
    /// direct path; worker-local, never tape temporaries).
    static ATTN_SCRATCH: RefCell<[Vec<f32>; 4]> = const { RefCell::new([const { Vec::new() }; 4]) };
}

/// `c + a·b`, fused to a single rounding when `FUSED` (the AVX2+FMA path).
#[inline(always)]
fn fmadd<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        c + a * b
    }
}

/// The instruction set the kernels run at. Probed once per process, so
/// kernel selection never differs between threads, or between serial and
/// parallel runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Isa {
    /// Baseline features; the tile rounds `c + a·b` twice.
    Portable,
    /// AVX2+FMA: the 6×16 tile as 8-lane fused multiply-adds.
    Avx2Fma,
    /// AVX-512F (with AVX2+FMA): the 6×32 zmm tile where `n ≥ 32`, the 6×16
    /// AVX2 tile below. Both keep one FMA chain per output element, so
    /// their results are bitwise equal to [`Isa::Avx2Fma`]'s.
    Avx512,
}

fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ISA: OnceLock<Isa> = OnceLock::new();
        *ISA.get_or_init(|| {
            // `is_x86_feature_detected!` also checks that the OS saves the
            // feature's register state (XCR0), so a reported feature is
            // usable.
            use std::arch::is_x86_feature_detected as has;
            if !(has!("avx2") && has!("fma")) {
                Isa::Portable
            } else if has!("avx512f") {
                Isa::Avx512
            } else {
                Isa::Avx2Fma
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    Isa::Portable
}

/// The instruction set the blocked matmul kernels run at on this host:
/// `"avx512f"`, `"avx2+fma"` or `"portable"`. Fixed for the process. The
/// first two give bitwise equal results; `"portable"` rounds each
/// multiply-add twice, so its bits differ.
pub fn kernel_isa() -> &'static str {
    match isa() {
        Isa::Avx512 => "avx512f",
        Isa::Avx2Fma => "avx2+fma",
        Isa::Portable => "portable",
    }
}

/// Whether a blocked product of output width `ndim` runs on the 6×32 zmm
/// tile (else the 6×16 tile).
fn zmm_tile(ndim: usize) -> bool {
    isa() == Isa::Avx512 && ndim >= ZMM_MIN_N
}

/// Packs the effective-A rows `rows` of a product of shape `shape` over the
/// k-range `ks` strip-major: strip `s` occupies `apack[s*MR*kc ..][p*MR + r]`
/// (`kc = ks.len()`). Rows past the edge are zero-padded (their
/// accumulators are never stored).
///
/// `TA = false`: A stored `m×k` row-major.
/// `TA = true`: A stored `k×m` (effective Aᵀ — the TN layout).
#[inline(always)]
fn pack_a<const TA: bool, const MR: usize>(a: &[f32], shape: Mkn, rows: Range<usize>, ks: Range<usize>, apack: &mut [f32]) {
    let (mdim, kdim) = (shape.m, shape.k);
    let (i_blk, mc, p0, kc) = (rows.start, rows.len(), ks.start, ks.len());
    for s in 0..mc.div_ceil(MR) {
        let r0 = i_blk + s * MR;
        let mr = MR.min(i_blk + mc - r0);
        let dst = &mut apack[s * MR * kc..(s + 1) * MR * kc];
        if !TA {
            for r in 0..mr {
                let src = &a[(r0 + r) * kdim + p0..(r0 + r) * kdim + p0 + kc];
                for (p, &x) in src.iter().enumerate() {
                    dst[p * MR + r] = x;
                }
            }
            for r in mr..MR {
                for p in 0..kc {
                    dst[p * MR + r] = 0.0;
                }
            }
        } else {
            for p in 0..kc {
                let src = &a[(p0 + p) * mdim + r0..(p0 + p) * mdim + r0 + mr];
                let row = &mut dst[p * MR..p * MR + MR];
                row[..mr].copy_from_slice(src);
                row[mr..].fill(0.0);
            }
        }
    }
}

/// Where the GEBP driver reads its B operand from.
trait PackB {
    /// Packs the `kc×NR` panel of the effective B at k-offset `p0` and
    /// column `j0`, k-major (`bpack[p*NR + c]`), zero-padding columns past
    /// `nr`. Padded columns only feed accumulators that are never stored.
    fn pack<const NR: usize>(&self, p0: usize, kc: usize, j0: usize, nr: usize, bpack: &mut [f32]);
}

/// A dense f32 B. `TB = false`: stored `kdim×ndim` row-major (panel rows
/// contiguous). `TB = true`: stored `ndim×kdim` (effective Bᵀ — the NT
/// layout).
struct DenseB<'a, const TB: bool> {
    b: &'a [f32],
    kdim: usize,
    ndim: usize,
}

impl<const TB: bool> PackB for DenseB<'_, TB> {
    #[inline(always)]
    fn pack<const NR: usize>(&self, p0: usize, kc: usize, j0: usize, nr: usize, bpack: &mut [f32]) {
        let (b, kdim, ndim) = (self.b, self.kdim, self.ndim);
        if !TB {
            for p in 0..kc {
                let src = &b[(p0 + p) * ndim + j0..(p0 + p) * ndim + j0 + nr];
                let dst = &mut bpack[p * NR..p * NR + NR];
                dst[..nr].copy_from_slice(src);
                dst[nr..].fill(0.0);
            }
        } else {
            for c in 0..nr {
                let src = &b[(j0 + c) * kdim + p0..(j0 + c) * kdim + p0 + kc];
                for (p, &x) in src.iter().enumerate() {
                    bpack[p * NR + c] = x;
                }
            }
            for c in nr..NR {
                for p in 0..kc {
                    bpack[p * NR + c] = 0.0;
                }
            }
        }
    }
}

/// A quantized `kdim×ndim` weight, dequantized to f32 on the way into the
/// k-major pack buffer — the only point where quantized bytes become
/// floats. The panel then feeds the same f32 tile, so accumulation is full
/// f32. Int8 scales are per weight row = per packed panel row, so each
/// panel row applies one constant scale (a broadcast multiply that
/// vectorizes with the convert).
struct QuantB<'a> {
    q: &'a QuantData,
    ndim: usize,
}

impl PackB for QuantB<'_> {
    #[inline(always)]
    fn pack<const NR: usize>(&self, p0: usize, kc: usize, j0: usize, nr: usize, bpack: &mut [f32]) {
        let ndim = self.ndim;
        for p in 0..kc {
            let at = (p0 + p) * ndim + j0;
            let dst = &mut bpack[p * NR..p * NR + NR];
            match self.q {
                QuantData::Bf16(b) => {
                    for (slot, &x) in dst[..nr].iter_mut().zip(&b[at..at + nr]) {
                        *slot = bf16_to_f32(x);
                    }
                }
                QuantData::Int8 { data, scales } => {
                    let s = scales[p0 + p];
                    for (slot, &x) in dst[..nr].iter_mut().zip(&data[at..at + nr]) {
                        *slot = x as f32 * s;
                    }
                }
            }
            dst[nr..].fill(0.0);
        }
    }
}

/// An `MR×NR` register tile of the GEBP driver.
trait Tile<const MR: usize, const NR: usize> {
    /// Accumulates the `mr×nr` corner of the tile,
    /// `out[r*ldc + c] += Σ_p apack[p*MR + r] · bpack[p*NR + c]`: each
    /// element's sum starts at 0 and runs over `p` strictly ascending, then
    /// is added to `out` once.
    ///
    /// # Safety
    /// The CPU must support the tile's instruction set.
    unsafe fn run(kc: usize, apack: &[f32], bpack: &[f32], out: &mut [f32], ldc: usize, mr: usize, nr: usize);
}

/// The tile as straight-line f32 loops over constant bounds, so the
/// compiler keeps the `MR×NR` accumulator block in vector registers at the
/// features of the function it is inlined into (twelve 8-lane accumulators
/// at 6×16 under AVX2). `FUSED` selects `mul_add` (one rounding) over
/// `c + a·b`.
struct Autovec<const FUSED: bool>;

impl<const FUSED: bool, const MR: usize, const NR: usize> Tile<MR, NR> for Autovec<FUSED> {
    #[inline(always)]
    unsafe fn run(kc: usize, apack: &[f32], bpack: &[f32], out: &mut [f32], ldc: usize, mr: usize, nr: usize) {
        let mut acc = [[0.0f32; NR]; MR];
        for (arow, brow) in apack[..kc * MR].chunks_exact(MR).zip(bpack[..kc * NR].chunks_exact(NR)) {
            for (accr, &av) in acc.iter_mut().zip(arow) {
                for (x, &bv) in accr.iter_mut().zip(brow) {
                    *x = fmadd::<FUSED>(av, bv, *x);
                }
            }
        }
        if mr == MR && nr == NR {
            for (r, arow) in acc.iter().enumerate() {
                for (o, &x) in out[r * ldc..r * ldc + NR].iter_mut().zip(arow) {
                    *o += x;
                }
            }
        } else {
            for (r, arow) in acc.iter().enumerate().take(mr) {
                for (o, &x) in out[r * ldc..r * ldc + nr].iter_mut().zip(arow) {
                    *o += x;
                }
            }
        }
    }
}

/// The AVX-512 6×32 tile, written with intrinsics: six rows of two 16-lane
/// accumulators (12 of the 32 zmm registers). Per element it is the same
/// FMA chain as `Autovec<true>` at 6×16 — `vfmadd` from 0 over ascending
/// `p`, then one add into `out` — so the two are bitwise equal.
#[cfg(target_arch = "x86_64")]
struct Zmm;

#[cfg(target_arch = "x86_64")]
impl Tile<TILE_MR, ZMM_NR> for Zmm {
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn run(kc: usize, apack: &[f32], bpack: &[f32], out: &mut [f32], ldc: usize, mr: usize, nr: usize) {
        use std::arch::x86_64::*;
        const MR: usize = TILE_MR;
        const NR: usize = ZMM_NR;
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        for (arow, brow) in apack[..kc * MR].chunks_exact(MR).zip(bpack[..kc * NR].chunks_exact(NR)) {
            // SAFETY: `brow` holds exactly `NR` = 32 floats (`chunks_exact`),
            // so both 16-lane loads stay inside it.
            let b0 = _mm512_loadu_ps(brow.as_ptr());
            let b1 = _mm512_loadu_ps(brow.as_ptr().add(16));
            for (accr, &av) in acc.iter_mut().zip(arow) {
                let a = _mm512_set1_ps(av);
                accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
            }
        }
        for (r, accr) in acc.iter().enumerate().take(mr) {
            let orow = &mut out[r * ldc..r * ldc + nr];
            let o = orow.as_mut_ptr();
            if nr == NR {
                // SAFETY: `orow` holds exactly `nr` = 32 floats.
                _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), accr[0]));
                _mm512_storeu_ps(o.add(16), _mm512_add_ps(_mm512_loadu_ps(o.add(16)), accr[1]));
            } else {
                for (h, &v) in accr.iter().enumerate().take(nr.div_ceil(16)) {
                    let lanes = (nr - 16 * h).min(16);
                    let m: __mmask16 = ((1u32 << lanes) - 1) as __mmask16;
                    // SAFETY: `16·h < nr`, so `o + 16·h` lies inside `orow`,
                    // and the mask enables only the `lanes` floats from there
                    // to `orow`'s end; masked-off lanes are never accessed.
                    let p = o.add(16 * h);
                    _mm512_mask_storeu_ps(p, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, p), v));
                }
            }
        }
    }
}

/// Scratch the GEBP driver packs into: (A block, B panel).
type PackScratch = (Vec<f32>, Vec<f32>);

/// Blocked GEBP driver for effective output rows `rows` of
/// `C += Aeff·Beff` (shape `shape`) into the row-relative `out_rows`, on
/// tile `T`. `TA` selects the storage layout of the effective A (see
/// [`pack_a`]); `b` packs the B panels.
///
/// # Safety
/// The CPU must support `T`'s instruction set.
#[inline(always)]
unsafe fn gebp<const MR: usize, const NR: usize, T: Tile<MR, NR>, const TA: bool, B: PackB>(
    a: &[f32],
    b: &B,
    shape: Mkn,
    rows: Range<usize>,
    out_rows: &mut [f32],
    (apack, bpack): &mut PackScratch,
) {
    let (kdim, ndim) = (shape.k, shape.n);
    for p0 in (0..kdim).step_by(KC) {
        let kc = KC.min(kdim - p0);
        for ib in rows.clone().step_by(MC) {
            let mc = MC.min(rows.end - ib);
            pack_a::<TA, MR>(a, shape, ib..ib + mc, p0..p0 + kc, apack);
            for j0 in (0..ndim).step_by(NR) {
                let nr = NR.min(ndim - j0);
                b.pack::<NR>(p0, kc, j0, nr, bpack);
                for s in 0..mc.div_ceil(MR) {
                    let row = ib - rows.start + s * MR;
                    let mr = MR.min(mc - s * MR);
                    T::run(
                        kc,
                        &apack[s * MR * kc..(s + 1) * MR * kc],
                        bpack,
                        &mut out_rows[row * ndim + j0..],
                        ndim,
                        mr,
                        nr,
                    );
                }
            }
        }
    }
}

/// [`gebp`] on the 6×16 tile, compiled with AVX2+FMA so it vectorizes to
/// 8-lane fused multiply-adds.
///
/// # Safety
/// The CPU must support AVX2 and FMA (see [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gebp_ymm<const TA: bool, B: PackB>(
    a: &[f32],
    b: &B,
    shape: Mkn,
    rows: Range<usize>,
    out_rows: &mut [f32],
    pack: &mut PackScratch,
) {
    gebp::<TILE_MR, YMM_NR, Autovec<true>, TA, B>(a, b, shape, rows, out_rows, pack);
}

/// [`gebp`] on the AVX-512 6×32 tile.
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA (see [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn gebp_zmm<const TA: bool, B: PackB>(
    a: &[f32],
    b: &B,
    shape: Mkn,
    rows: Range<usize>,
    out_rows: &mut [f32],
    pack: &mut PackScratch,
) {
    gebp::<TILE_MR, ZMM_NR, Zmm, TA, B>(a, b, shape, rows, out_rows, pack);
}

/// Runtime-dispatched blocked GEBP over effective rows `rows`, with B
/// packed from `b`: the zmm tile where [`zmm_tile`] says so, else the
/// 6×16 tile at AVX2+FMA or baseline features.
fn gebp_rows<const TA: bool, B: PackB>(a: &[f32], b: &B, shape: Mkn, rows: Range<usize>, out_rows: &mut [f32]) {
    PACK_SCRATCH.with(|cell| {
        let pack = &mut *cell.borrow_mut();
        #[cfg(target_arch = "x86_64")]
        if zmm_tile(shape.n) {
            // SAFETY: `isa()` found AVX-512F, AVX2 and FMA on this CPU.
            unsafe { gebp_zmm::<TA, B>(a, b, shape, rows, out_rows, pack) };
            return;
        } else if isa() != Isa::Portable {
            // SAFETY: `isa()` found AVX2 and FMA on this CPU.
            unsafe { gebp_ymm::<TA, B>(a, b, shape, rows, out_rows, pack) };
            return;
        }
        // SAFETY: the portable tile needs no CPU feature beyond the build's.
        unsafe { gebp::<TILE_MR, YMM_NR, Autovec<false>, TA, B>(a, b, shape, rows, out_rows, pack) };
    });
}

// ------------------------------------------------------------------ matmul

/// Output rows `rows` of `out += Aeff·Beff` (shape `shape`) into the
/// row-relative `out_rows`: the blocked GEBP where
/// `shape.blocked(policy)`, else the layout's direct loop. `TA` reads A
/// stored `k×m` (the TN layout), `TB` reads B stored `n×k` (the NT
/// layout); no product reads both transposed. Either path sums each
/// output element over the shared dimension in a fixed order that no row
/// range changes, so any sharding computes it identically.
fn gemm_rows<const TA: bool, const TB: bool>(
    a: &[f32],
    b: &[f32],
    shape: Mkn,
    policy: Policy,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    if shape.blocked(policy) {
        let b = DenseB::<TB> { b, kdim: shape.k, ndim: shape.n };
        gebp_rows::<TA, _>(a, &b, shape, rows, out_rows);
        return;
    }
    match (TA, TB) {
        (false, false) => nn_rows(a, b, shape, rows, out_rows),
        (false, true) => nt_rows(a, b, shape, rows, out_rows),
        (true, false) => tn_rows(a, b, shape, rows, out_rows),
        (true, true) => unreachable!("no product reads both operands transposed"),
    }
}

/// The NN direct loop: the i-k-j rank-1 (axpy) kernel, skipping zero
/// entries of `A` (`m×k`) against `B` (`k×n`).
fn nn_rows(a: &[f32], b: &[f32], shape: Mkn, rows: Range<usize>, out_rows: &mut [f32]) {
    let (k, n) = (shape.k, shape.n);
    for (r, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out_rows[r * n..(r + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                let brow = &b[l * n..(l + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// The NT direct loop: one dot product per output element of `A` (`m×k`)
/// against `B` stored `n×k`, summed from zero and then added to `out`.
fn nt_rows(a: &[f32], b: &[f32], shape: Mkn, rows: Range<usize>, out_rows: &mut [f32]) {
    let (k, n) = (shape.k, shape.n);
    for (r, i) in rows.enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out_rows[r * n..(r + 1) * n];
        for (l, slot) in orow.iter_mut().enumerate() {
            let brow = &b[l * k..(l + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            *slot += acc;
        }
    }
}

/// The TN direct loop: A stored `k×m`, B `k×n`. Each output element sums
/// over the shared index ascending, whatever the row range, so sharding
/// the output rows is bitwise safe.
fn tn_rows(a: &[f32], b: &[f32], shape: Mkn, rows: Range<usize>, out_rows: &mut [f32]) {
    let (m, n) = (shape.m, shape.n);
    for i in 0..shape.k {
        let arow = &a[i * m..(i + 1) * m];
        let brow = &b[i * n..(i + 1) * n];
        for (r, &av) in arow[rows.clone()].iter().enumerate() {
            if av != 0.0 {
                let orow = &mut out_rows[r * n..(r + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `out += A·B` where `A` is `m×k` and `B` is `k×n` (callers pass `out`
/// zeroed), row-sharded over the executor on the `Policy::Rows` path;
/// bitwise identical at any thread count. Tasks below the executor's flop
/// gate run inline on the caller.
pub fn par_matmul(exec: &Executor, a: &[f32], b: &[f32], shape: Mkn, out: &mut [f32]) {
    let Mkn { m, k, n } = shape;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    par_rows(exec, out, m, n, min_rows(k * n), m * k * n, &|i0, i1, rows| {
        gemm_rows::<false, false>(a, b, shape, Policy::Rows, i0..i1, rows);
    });
}

// ------------------------------------------------ quantized matmul (fwd)

thread_local! {
    /// Whole-matrix dequantization scratch for quantized products below the
    /// blocking threshold (skinny serving projections), reused across calls.
    static QUANT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Dequantizes all of a `k×n` quantized matrix into `out` (resized).
fn dequant_into(q: &QuantData, k: usize, n: usize, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(k * n);
    match q {
        QuantData::Bf16(b) => out.extend(b.iter().map(|&x| bf16_to_f32(x))),
        QuantData::Int8 { data, scales } => {
            for r in 0..k {
                let s = scales[r];
                out.extend(data[r * n..(r + 1) * n].iter().map(|&x| x as f32 * s));
            }
        }
    }
}

/// `out = A·B_q` where `A` is f32 `m×k` and `B_q` is a quantized `k×n`
/// weight; accumulation is f32 throughout. On the blocked path the panels
/// are dequantized straight into the L1-resident pack buffer (row-sharded
/// across the executor, bitwise identical to serial); on the direct path
/// the whole weight is dequantized into worker-local scratch once and the
/// f32 rows run serially. Forward-only: there is no backward for quantized
/// operands.
pub fn matmul_quant(exec: &Executor, a: &[f32], b: &QuantData, shape: Mkn, out: &mut [f32]) {
    let Mkn { m, k, n } = shape;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    /// Logical panel dequantizations (serial-path count: the same panels
    /// are packed per worker under row sharding, but the logical tiling is
    /// shard-invariant).
    static DEQUANT_PANELS: LazyCounter = LazyCounter::new("tensor.quant.dequant_panels");
    if shape.blocked(Policy::Rows) {
        let nr = if zmm_tile(n) { ZMM_NR } else { YMM_NR };
        DEQUANT_PANELS.add((k.div_ceil(KC) * m.div_ceil(MC) * n.div_ceil(nr)) as u64);
        let b = QuantB { q: b, ndim: n };
        par_rows(exec, out, m, n, min_rows(k * n), m * k * n, &|i0, i1, rows| {
            gebp_rows::<false, _>(a, &b, shape, i0..i1, rows);
        });
    } else {
        DEQUANT_PANELS.inc();
        QUANT_SCRATCH.with(|cell| {
            let buf = &mut *cell.borrow_mut();
            dequant_into(b, k, n, buf);
            gemm_rows::<false, false>(a, buf, shape, Policy::Rows, 0..m, out);
        });
    }
}

// -------------------------------------------------------------------- bmm

/// Walks global rows `[r0, r1)` batch by batch, applying `f(bi, i0, i1,
/// rel_rows)` to each per-batch local row range. `rows_per_batch` is the
/// output row count of one batch; `width` the output row width.
#[inline(always)]
fn for_batch_ranges(
    rows_per_batch: usize,
    width: usize,
    r0: usize,
    r1: usize,
    out_rows: &mut [f32],
    mut f: impl FnMut(usize, usize, usize, &mut [f32]),
) {
    let mut r = r0;
    while r < r1 {
        let bi = r / rows_per_batch;
        let i0 = r % rows_per_batch;
        let i1 = rows_per_batch.min(i0 + (r1 - r));
        let rel = &mut out_rows[(r - r0) * width..(r - r0 + i1 - i0) * width];
        f(bi, i0, i1, rel);
        r += i1 - i0;
    }
}

/// Batched `out[bi] += Aeff[bi]·Beff[bi]` over `bsz` stacked products of
/// shape `shape`, sharded over all `bsz·m` output rows; bitwise identical
/// at any thread count. Every batch takes the `Policy::Shape` path of the
/// one per-batch shape, so the path never depends on sharding. The layouts
/// are `gemm_rows`'s: forward `bmm` runs NN into a zeroed `out`, and its
/// backward accumulates `dA += dC·Bᵀ` (NT) and `dB += Aᵀ·dC` (TN), which
/// the 2-D matmul backward runs at `bsz = 1`.
pub fn par_bmm<const TA: bool, const TB: bool>(
    exec: &Executor,
    a: &[f32],
    b: &[f32],
    bsz: usize,
    shape: Mkn,
    out: &mut [f32],
) {
    let Mkn { m, k, n } = shape;
    debug_assert_eq!(a.len(), bsz * m * k);
    debug_assert_eq!(b.len(), bsz * k * n);
    debug_assert_eq!(out.len(), bsz * m * n);
    par_rows(exec, out, bsz * m, n, min_rows(k * n), bsz * m * k * n, &|r0, r1, rows| {
        for_batch_ranges(m, n, r0, r1, rows, |bi, i0, i1, rel| {
            let (a, b) = (&a[bi * m * k..(bi + 1) * m * k], &b[bi * k * n..(bi + 1) * k * n]);
            gemm_rows::<TA, TB>(a, b, shape, Policy::Shape, i0..i1, rel);
        });
    });
}

// -------------------------------------------------------------- transpose

const TRANSPOSE_TILE: usize = 32;

/// Computes output rows `[j0, j1)` of the transpose (`j` indexes columns of
/// `a`) into row-relative `out_rows`, tiled so both access patterns stay
/// within cache lines instead of thrashing on the column-strided side.
fn transpose2d_rows(a: &[f32], m: usize, n: usize, j0: usize, j1: usize, out_rows: &mut [f32]) {
    for jj in (j0..j1).step_by(TRANSPOSE_TILE) {
        let je = (jj + TRANSPOSE_TILE).min(j1);
        for ii in (0..m).step_by(TRANSPOSE_TILE) {
            let ie = (ii + TRANSPOSE_TILE).min(m);
            for j in jj..je {
                let base = (j - j0) * m;
                for i in ii..ie {
                    out_rows[base + i] = a[i * n + j];
                }
            }
        }
    }
}

/// Batched transpose of `bsz` stacked row-major `m×n` matrices into `n×m`
/// (32×32 tiles), sharded over batches
/// (or over output rows when `bsz == 1`). Each output element is written
/// exactly once, so any sharding is trivially bitwise identical.
pub fn par_transpose(exec: &Executor, a: &[f32], bsz: usize, m: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), bsz * m * n);
    debug_assert_eq!(out.len(), bsz * m * n);
    if bsz == 1 {
        par_rows(exec, out, n, m, min_rows(m), usize::MAX, &|j0, j1, rows| {
            transpose2d_rows(a, m, n, j0, j1, rows);
        });
    } else {
        par_rows(exec, out, bsz, m * n, min_rows(m * n), usize::MAX, &|b0, b1, rows| {
            for (r, bi) in (b0..b1).enumerate() {
                transpose2d_rows(
                    &a[bi * m * n..(bi + 1) * m * n],
                    m,
                    n,
                    0,
                    n,
                    &mut rows[r * m * n..(r + 1) * m * n],
                );
            }
        });
    }
}

// ---------------------------------------------------------------- softmax

/// Softmax of rows `[r0, r1)` (width `d`) of `data`, in place; `rows` is
/// the row-relative view.
fn softmax_rows_range(rows: &mut [f32], d: usize) {
    for row in rows.chunks_mut(d) {
        let mut mx = f32::NEG_INFINITY;
        for &v in row.iter() {
            mx = mx.max(v);
        }
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Numerically stable softmax over contiguous rows of width `d`, in place,
/// row-sharded; bitwise identical at any thread count.
pub fn par_softmax_rows(exec: &Executor, data: &mut [f32], d: usize) {
    debug_assert!(d > 0 && data.len().is_multiple_of(d));
    let rows = data.len() / d;
    par_rows(exec, data, rows, d, min_rows(d), usize::MAX, &|_, _, chunk| {
        softmax_rows_range(chunk, d);
    });
}

/// Backward of row softmax for rows `[r0, r1)`: row-relative slices of
/// `y`, `dy`, `dx`.
fn softmax_rows_backward_range(y: &[f32], dy: &[f32], d: usize, dx: &mut [f32]) {
    for ((yr, dyr), dxr) in y.chunks(d).zip(dy.chunks(d)).zip(dx.chunks_mut(d)) {
        let mut dot = 0.0f32;
        for (a, b) in yr.iter().zip(dyr.iter()) {
            dot += a * b;
        }
        for ((x, &yv), &dyv) in dxr.iter_mut().zip(yr.iter()).zip(dyr.iter()) {
            *x += yv * (dyv - dot);
        }
    }
}

/// Backward of row softmax: `dx = (dy − Σ(dy·y)) ⊙ y`, accumulated into
/// `dx`, row-sharded; bitwise identical at any thread count.
pub fn par_softmax_rows_backward(exec: &Executor, y: &[f32], dy: &[f32], d: usize, dx: &mut [f32]) {
    debug_assert_eq!(y.len(), dy.len());
    debug_assert_eq!(y.len(), dx.len());
    let rows = y.len() / d.max(1);
    par_rows(exec, dx, rows, d, min_rows(d), usize::MAX, &|r0, r1, dxr| {
        softmax_rows_backward_range(&y[r0 * d..r1 * d], &dy[r0 * d..r1 * d], d, dxr);
    });
}

// ------------------------------------------------------------ activations

const GELU_C: f32 = 0.797_884_6; // sqrt(2/π)
const GELU_A: f32 = 0.044_715;

/// `tanh` via the polynomial [`exp_approx`]: `1 − 2/(e^{2z}+1)`. Branch-free
/// and vectorizable, unlike the libm `tanhf` call; absolute error stays under
/// ~1e-6 (inherited from `exp_approx`'s <1.2e-7 relative error).
#[inline]
fn tanh_approx(z: f32) -> f32 {
    1.0 - 2.0 / (exp_approx(2.0 * z) + 1.0)
}

/// GELU activation (tanh approximation).
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_approx(GELU_C * (x + GELU_A * x * x * x)))
}

/// Derivative of [`gelu`].
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let t = tanh_approx(u);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Activation fused into the bias+activation graph op (`Op::BiasAct`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActKind {
    /// `max(s, 0)`.
    Relu,
    /// [`gelu`] (tanh approximation).
    Gelu,
}

/// Applies the fused activation to the pre-activation `s`.
#[inline]
pub fn act_apply(kind: ActKind, s: f32) -> f32 {
    match kind {
        ActKind::Relu => s.max(0.0),
        ActKind::Gelu => gelu(s),
    }
}

/// Derivative of the fused activation at the pre-activation `s`. The ReLU
/// subgradient at 0 is 0, matching the unfused `Op::Relu` backward.
#[inline]
pub fn act_grad(kind: ActKind, s: f32) -> f32 {
    match kind {
        ActKind::Relu => {
            if s > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        ActKind::Gelu => gelu_grad(s),
    }
}

// -------------------------------------------------------- fused attention

/// Polynomial `eˣ` (Cephes expf minimax, relative error < 1.2e-7):
/// branch-free and autovectorizable, unlike libm's scalar `expf`. Used
/// inside the fused attention softmax, whose contract with the unfused
/// chain is 1e-5 parity, not bitwise equality, and by [`gelu`].
#[inline(always)]
fn exp_approx(x: f32) -> f32 {
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Clamp to [-87, 88]. NaN fails both comparisons and lands on -87, so
    // `exp_approx(NaN)` is finite; `f32::clamp` would return NaN.
    let x = if x > -87.0 { x } else { -87.0 };
    let x = if x < 88.0 { x } else { 88.0 };
    // Round-to-nearest via the 1.5·2²³ shift — no `floor` (and thus no
    // SSE4.1/libm dependency), so the loop vectorizes on any x86-64.
    const RND: f32 = 12_582_912.0;
    let shifted = x * std::f32::consts::LOG2_E + RND;
    let nf = shifted - RND;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    let mut p = 1.987_569_2e-4_f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    let e = (p * r * r + r) + 1.0;
    // 2^nf via exponent bits; nf ∈ [-126, 127] after the clamp above. The
    // shifted value is exactly `RND + nf` (one ulp is 1 there), so its bit
    // pattern minus RND's is the integer nf — integer ops only, where the
    // saturating `nf as i32` cast blocked vectorization.
    let n = shifted.to_bits().wrapping_sub(RND.to_bits());
    e * f32::from_bits(n.wrapping_add(127) << 23)
}

/// Max over a slice via 8 independent lanes folded in a fixed order
/// (vectorizable; max is order-insensitive but the fixed fold keeps the
/// codegen shape predictable).
#[inline(always)]
fn max8(xs: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut it = xs.chunks_exact(8);
    for c in it.by_ref() {
        for (l, &x) in lanes.iter_mut().zip(c.iter()) {
            *l = l.max(x);
        }
    }
    for (l, &x) in lanes.iter_mut().zip(it.remainder().iter()) {
        *l = l.max(x);
    }
    let a = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    let b = lanes[4].max(lanes[5]).max(lanes[6].max(lanes[7]));
    a.max(b)
}

/// Sum over a slice via 8 independent lanes combined pairwise in a fixed
/// order — vectorizable, and deterministic for a given slice regardless of
/// thread count.
#[inline(always)]
fn sum8(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut it = xs.chunks_exact(8);
    for c in it.by_ref() {
        for (l, &x) in lanes.iter_mut().zip(c.iter()) {
            *l += x;
        }
    }
    for (l, &x) in lanes.iter_mut().zip(it.remainder().iter()) {
        *l += x;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Scaled softmax over contiguous rows of width `d`, in place:
/// `row ← softmax(scale·row)`. The scale folds into the exponent
/// (`scale·x − scale·max`, exactly zero at the max element), the exp pass
/// uses [`exp_approx`], and the scans run over fixed 8-lane partials, so
/// every pass vectorizes. One function of its input → identical at any
/// thread count.
#[inline(always)]
fn softmax_scaled_rows_body(rows: &mut [f32], d: usize, scale: f32) {
    for row in rows.chunks_mut(d) {
        let base = max8(row) * scale;
        for x in row.iter_mut() {
            *x = exp_approx(*x * scale - base);
        }
        let inv = 1.0 / sum8(row);
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// AVX2+FMA instantiation of [`softmax_scaled_rows_body`].
///
/// # Safety
/// Caller must have verified AVX2+FMA support (see [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_scaled_rows_fma(rows: &mut [f32], d: usize, scale: f32) {
    softmax_scaled_rows_body(rows, d, scale);
}

/// Dispatches the fused-attention softmax to the AVX2+FMA build when the
/// process-wide probe allows it, else the portable build.
fn softmax_scaled_rows(rows: &mut [f32], d: usize, scale: f32) {
    #[cfg(target_arch = "x86_64")]
    if isa() != Isa::Portable {
        // SAFETY: `isa()` found AVX2 and FMA on this CPU.
        unsafe { softmax_scaled_rows_fma(rows, d, scale) };
        return;
    }
    softmax_scaled_rows_body(rows, d, scale);
}

/// Transposes one `tk×d` head matrix into `d×tk` scratch
/// (`dst[j·tk + l] = src[l·d + j]`) so the skinny direct score path can use
/// the vectorized axpy kernel instead of length-`d` dot products.
fn transpose_head(src: &[f32], tk: usize, d: usize, dst: &mut Vec<f32>) {
    dst.resize(d * tk, 0.0);
    for (l, row) in src.chunks_exact(d).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            dst[j * tk + l] = x;
        }
    }
}

/// The geometry of one fused attention call: `bsz` head-batches of `tq`
/// query rows against `tk` key/value rows, each `d` wide, with the scores
/// scaled by `scale`. `Q`/`dO` are stacked `[bsz, tq, d]`, `K`/`V`
/// `[bsz, tk, d]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Heads {
    /// Head-batches (batch × heads).
    pub bsz: usize,
    /// Query rows per head-batch.
    pub tq: usize,
    /// Key/value rows per head-batch.
    pub tk: usize,
    /// Head width.
    pub d: usize,
    /// Score scale (`1/√d` for scaled dot-product attention).
    pub scale: f32,
}

impl Heads {
    /// `Q·Kᵀ`, and backward's `dO·Vᵀ`: `tq×d` against `tk×d`.
    fn scores(self) -> Mkn {
        Mkn { m: self.tq, k: self.d, n: self.tk }
    }

    /// `W·V`, and backward's `dS·K`: `tq×tk` against `tk×d`.
    fn mix(self) -> Mkn {
        Mkn { m: self.tq, k: self.tk, n: self.d }
    }

    /// Backward's `dSᵀ·Q` and `Wᵀ·dO` (TN): `tk×d` outputs summed over the
    /// query rows.
    fn keys(self) -> Mkn {
        Mkn { m: self.tk, k: self.tq, n: self.d }
    }

    /// Head-batch `bi`'s `t×d` block of a stacked `[bsz, t, d]` tensor.
    fn block(self, x: &[f32], t: usize, bi: usize) -> &[f32] {
        &x[bi * t * self.d..(bi + 1) * t * self.d]
    }

    /// Rows `rows` of `X·Yᵀ` for one head-batch (`x` `tq×d`, `y` `tk×d`),
    /// accumulated into the row-relative `out`: GEBP over `y` where the
    /// score shape is blocked, else the axpy kernel over `Yᵀ`, transposed
    /// into `yt` first — the NT dot kernel would round differently.
    fn scores_rows(self, x: &[f32], y: &[f32], rows: Range<usize>, out: &mut [f32], yt: &mut Vec<f32>) {
        let shape = self.scores();
        if shape.blocked(Policy::Shape) {
            gemm_rows::<false, true>(x, y, shape, Policy::Shape, rows, out);
        } else {
            transpose_head(y, self.tk, self.d, yt);
            gemm_rows::<false, false>(x, yt, shape, Policy::Shape, rows, out);
        }
    }
}

/// Row-sharded fused attention forward over `[B,Tq,D] × [B,Tk,D]²` into the
/// caller-zeroed `out`: per query-row range, `scores = Q·Kᵀ` into a
/// per-worker scratch block, scaled softmax over keys, then `out += W·V`.
/// The `Tq×Tk` weight matrix exists only as worker scratch — never as a
/// tape temporary. Every product takes its path from the per-head shape
/// (`Policy::Shape`), so the result is bitwise identical to the serial
/// path at any thread count.
pub fn par_attention(exec: &Executor, [q, k, v]: [&[f32]; 3], heads: Heads, out: &mut [f32]) {
    let Heads { bsz, tq, tk, d, scale } = heads;
    debug_assert_eq!(q.len(), bsz * tq * d);
    debug_assert_eq!(k.len(), bsz * tk * d);
    debug_assert_eq!(v.len(), bsz * tk * d);
    debug_assert_eq!(out.len(), bsz * tq * d);
    let flops = 2 * bsz * tq * tk * d;
    par_rows(exec, out, bsz * tq, d, min_rows(2 * tk * d), flops, &|r0, r1, out_rows| {
        ATTN_SCRATCH.with(|cell| {
            let [w, _, _, yt] = &mut *cell.borrow_mut();
            w.resize(tq * tk, 0.0);
            for_batch_ranges(tq, d, r0, r1, out_rows, |bi, i0, i1, seg| {
                // `w` holds this range's rows of the head's weights, so
                // `W·V` reads its rows from 0.
                let w = &mut w[..(i1 - i0) * tk];
                w.fill(0.0);
                heads.scores_rows(heads.block(q, tq, bi), heads.block(k, tk, bi), i0..i1, w, yt);
                softmax_scaled_rows(w, tk, scale);
                gemm_rows::<false, false>(w, heads.block(v, tk, bi), heads.mix(), Policy::Shape, 0..i1 - i0, seg);
            });
        });
    });
}

/// Batch-sharded fused attention backward into the caller-zeroed
/// accumulators `[dq, dk, dv]` of the full size. Per head-batch it
/// recomputes the softmax weights with exactly the forward products, forms
/// `dW = dO·Vᵀ`, applies the softmax Jacobian row-wise (folded with the
/// score scale), then accumulates `dQ += dS·K`, `dK += dSᵀ·Q` and
/// `dV += Wᵀ·dO` — five products over three `Tq×Tk` worker-scratch blocks
/// (scratch, not tape temporaries). Each head-batch's gradient rows are
/// owned by exactly one worker and computed with the full-batch serial
/// code, so the result is bitwise identical to serial at any thread count.
pub fn par_attention_backward(
    exec: &Executor,
    [q, k, v]: [&[f32]; 3],
    dout: &[f32],
    heads: Heads,
    [dq, dk, dv]: [&mut [f32]; 3],
) {
    let Heads { bsz, tq, tk, d, scale } = heads;
    debug_assert_eq!(q.len(), bsz * tq * d);
    debug_assert_eq!(k.len(), bsz * tk * d);
    debug_assert_eq!(v.len(), bsz * tk * d);
    debug_assert_eq!(dout.len(), bsz * tq * d);
    assert_eq!(dq.len(), bsz * tq * d);
    assert_eq!(dk.len(), bsz * tk * d);
    assert_eq!(dv.len(), bsz * tk * d);
    let per_batch = 6 * tq * tk * d;
    let min = gated_min_chunk(bsz, min_rows(per_batch), bsz * per_batch, MIN_PAR_FLOPS);
    exec.parallel_for_mut(bsz, min, [dq, dk, dv], &|b0, b1, [dq_rows, dk_rows, dv_rows]| {
        ATTN_SCRATCH.with(|cell| {
            let [w, dw, ds, yt] = &mut *cell.borrow_mut();
            w.resize(tq * tk, 0.0);
            dw.resize(tq * tk, 0.0);
            ds.resize(tq * tk, 0.0);
            for (bb, bi) in (b0..b1).enumerate() {
                let (qmat, kmat) = (heads.block(q, tq, bi), heads.block(k, tk, bi));
                let (vmat, domat) = (heads.block(v, tk, bi), heads.block(dout, tq, bi));
                let dqm = &mut dq_rows[bb * tq * d..(bb + 1) * tq * d];
                let dkm = &mut dk_rows[bb * tk * d..(bb + 1) * tk * d];
                let dvm = &mut dv_rows[bb * tk * d..(bb + 1) * tk * d];
                // Recompute W with exactly the forward pass's products.
                w.fill(0.0);
                heads.scores_rows(qmat, kmat, 0..tq, w, yt);
                softmax_scaled_rows(w, tk, scale);
                // dW = dO·Vᵀ.
                dw.fill(0.0);
                heads.scores_rows(domat, vmat, 0..tq, dw, yt);
                // Softmax Jacobian rows (accumulating — ds is zeroed first),
                // folded with the score scale.
                ds.fill(0.0);
                softmax_rows_backward_range(w, dw, tk, ds);
                for x in ds.iter_mut() {
                    *x *= scale;
                }
                // dQ += dS·K, dK += dSᵀ·Q, dV += Wᵀ·dO.
                gemm_rows::<false, false>(ds, kmat, heads.mix(), Policy::Shape, 0..tq, dqm);
                gemm_rows::<true, false>(ds, qmat, heads.keys(), Policy::Shape, 0..tk, dkm);
                gemm_rows::<true, false>(w, domat, heads.keys(), Policy::Shape, 0..tk, dvm);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn naive_transpose2d(a: &[f32], m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        out
    }

    fn rndvec(n: usize, seed: u32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 * 12.9898 + seed as f32) .sin() * 43758.547).fract() - 0.5).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (x, y)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    fn quantize_bf16(b: &[f32]) -> QuantData {
        QuantData::Bf16(b.iter().map(|&x| crate::quant::f32_to_bf16(x)).collect())
    }

    fn quantize_int8(b: &[f32], k: usize, n: usize) -> QuantData {
        let mut data = Vec::with_capacity(k * n);
        let mut scales = Vec::with_capacity(k);
        for r in 0..k {
            let row = &b[r * n..(r + 1) * n];
            let max = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let s = if max > 0.0 { max / 127.0 } else { 0.0 };
            scales.push(s);
            for &v in row {
                data.push(if s > 0.0 { (v / s).round().clamp(-127.0, 127.0) as i8 } else { 0 });
            }
        }
        QuantData::Int8 { data, scales }
    }

    fn dequant_full(q: &QuantData, k: usize, n: usize) -> Vec<f32> {
        let mut out = Vec::new();
        dequant_into(q, k, n, &mut out);
        out
    }

    /// matmul_quant must equal the f32 kernel applied to the *dequantized*
    /// weight bitwise — panel-wise dequantization is a data-layout change,
    /// never an arithmetic one — on both sides of the blocking threshold
    /// (straddle sizes from the blocked-path suite) and for both formats.
    #[test]
    fn matmul_quant_is_bitwise_dequant_matmul() {
        let exec = Executor::serial();
        for &(m, k, n) in
            &[(1, 64, 16), (6, 128, 48), (64, 64, 64), (67, 300, 95), (70, 257, 17), (2, 5, 3)]
        {
            let a = rndvec(m * k, 11);
            let b = rndvec(k * n, 12);
            for q in [quantize_bf16(&b), quantize_int8(&b, k, n)] {
                let deq = dequant_full(&q, k, n);
                let mut want = vec![0.0; m * n];
                par_matmul(&exec, &a, &deq, Mkn { m, k, n }, &mut want);
                let mut got = vec![0.0; m * n];
                matmul_quant(&exec, &a, &q, Mkn { m, k, n }, &mut got);
                assert_eq!(got, want, "({m},{k},{n}) {q:?}");
            }
        }
    }

    /// And the dequantized product tracks the true f32 product within the
    /// format's tolerance (bf16 ~2^-8 relative; int8 row-scale coarser).
    #[test]
    fn matmul_quant_tracks_f32_within_tolerance() {
        let exec = Executor::serial();
        let (m, k, n) = (32, 96, 64);
        let a = rndvec(m * k, 21);
        let b = rndvec(k * n, 22);
        let mut want = vec![0.0; m * n];
        par_matmul(&exec, &a, &b, Mkn { m, k, n }, &mut want);
        let mut bf = vec![0.0; m * n];
        matmul_quant(&exec, &a, &quantize_bf16(&b), Mkn { m, k, n }, &mut bf);
        assert_close(&bf, &want, 2e-2, "bf16 matmul");
        let mut i8out = vec![0.0; m * n];
        matmul_quant(&exec, &a, &quantize_int8(&b, k, n), Mkn { m, k, n }, &mut i8out);
        assert_close(&i8out, &want, 8e-2, "int8 matmul");
    }

    /// Parallel quant matmul is bitwise identical to serial (same
    /// determinism contract as the f32 kernels).
    #[test]
    fn matmul_quant_parallel_bitwise_matches_serial() {
        let (m, k, n) = (67, 300, 95);
        let a = rndvec(m * k, 31);
        let b = rndvec(k * n, 32);
        let q = quantize_bf16(&b);
        let serial_exec = Executor::serial();
        let mut serial = vec![0.0; m * n];
        matmul_quant(&serial_exec, &a, &q, Mkn { m, k, n }, &mut serial);
        for threads in [2, 4] {
            let exec = Executor::with_threads(threads);
            let mut par = vec![0.0; m * n];
            matmul_quant(&exec, &a, &q, Mkn { m, k, n }, &mut par);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    /// Runs rows `0..m` of one blocked product on the 6×16 AVX2 tile and on
    /// the 6×32 AVX-512 tile, each onto the same non-zero `out`.
    #[cfg(target_arch = "x86_64")]
    fn ymm_and_zmm<const TA: bool, B: PackB>(a: &[f32], b: &B, m: usize, k: usize, n: usize) -> [Vec<f32>; 2] {
        let mut pack = (vec![0.0; MC * KC], vec![0.0; KC * ZMM_NR]);
        let mut ymm = rndvec(m * n, 99);
        let mut zmm = ymm.clone();
        // SAFETY: the caller checked that `isa()` is `Isa::Avx512`, which
        // includes AVX2 and FMA.
        unsafe {
            gebp_ymm::<TA, B>(a, b, Mkn { m, k, n }, 0..m, &mut ymm, &mut pack);
            gebp_zmm::<TA, B>(a, b, Mkn { m, k, n }, 0..m, &mut zmm, &mut pack);
        }
        [ymm, zmm]
    }

    /// The zmm and ymm tiles run the same FMA chain per element, so they
    /// agree bit for bit: on shapes crossing the `MR`, `NR`, `MC` and `KC`
    /// edges, in the NN, NT and TN layouts and with a bf16/int8 B.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn zmm_tile_is_bitwise_equal_to_ymm_tile() {
        if isa() != Isa::Avx512 {
            eprintln!("skipped: this CPU has no avx512f, so only the 6x16 tile runs");
            return;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &m in &[1usize, 5, 6, 7, 66, 67, 133] {
            for &n in &[16usize, 17, 31, 32, 33, 48, 100, 128] {
                for &k in &[16usize, 255, 256, 257, 600] {
                    let a = rndvec(m * k, (m + k) as u32);
                    let b = rndvec(k * n, (k + n) as u32);
                    let runs = [
                        ("NN", ymm_and_zmm::<false, _>(&a, &DenseB::<false> { b: &b, kdim: k, ndim: n }, m, k, n)),
                        ("NT", ymm_and_zmm::<false, _>(&a, &DenseB::<true> { b: &b, kdim: k, ndim: n }, m, k, n)),
                        ("TN", ymm_and_zmm::<true, _>(&a, &DenseB::<false> { b: &b, kdim: k, ndim: n }, m, k, n)),
                        ("bf16", ymm_and_zmm::<false, _>(&a, &QuantB { q: &quantize_bf16(&b), ndim: n }, m, k, n)),
                        ("int8", ymm_and_zmm::<false, _>(&a, &QuantB { q: &quantize_int8(&b, k, n), ndim: n }, m, k, n)),
                    ];
                    for (layout, [ymm, zmm]) in runs {
                        assert_eq!(bits(&ymm), bits(&zmm), "{layout} m={m} n={n} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (7, 5, 9);
        let a = rndvec(m * k, 1);
        let b = rndvec(k * n, 2);
        let mut out = vec![0.0; m * n];
        par_matmul(&Executor::serial(), &a, &b, Mkn { m, k, n }, &mut out);
        let want = naive_matmul(&a, &b, m, k, n);
        for (x, y) in out.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_across_tile_edges() {
        // Sizes straddling MR/NR strips, the KC=256 k-block boundary, and
        // the MC row-block boundary — all on the blocked path.
        for &(m, k, n) in
            &[(64usize, 64usize, 64usize), (67, 300, 95), (131, 40, 33), (70, 257, 17), (6, 128, 48)]
        {
            assert!(Mkn { m, k, n }.blocked(Policy::Shape), "test size must take the blocked path");
            let a = rndvec(m * k, (m + n) as u32);
            let b = rndvec(k * n, (k + 7) as u32);
            let mut out = vec![0.0; m * n];
            par_matmul(&Executor::serial(), &a, &b, Mkn { m, k, n }, &mut out);
            assert_close(&out, &naive_matmul(&a, &b, m, k, n), 1e-4, "blocked matmul");
        }
    }

    #[test]
    fn nt_variant_matches_transposed_naive() {
        // out += A(m×n) · Bᵀ where B is k×n — one direct-path size, one
        // blocked-path size.
        let ex = Executor::serial();
        for &(m, n, k) in &[(4usize, 6usize, 3usize), (48, 70, 52)] {
            let a = rndvec(m * n, 3);
            let b = rndvec(k * n, 4);
            let want = naive_matmul(&a, &naive_transpose2d(&b, k, n), m, n, k);
            let mut out = vec![0.0; m * k];
            par_bmm::<false, true>(&ex, &a, &b, 1, Mkn { m, k: n, n: k }, &mut out);
            assert_close(&out, &want, 1e-4, "acc_nt");
        }
    }

    #[test]
    fn tn_variant_matches_transposed_naive() {
        // out += Aᵀ(k×m) · B(m×n) where A is m×k — direct and blocked sizes.
        let ex = Executor::serial();
        for &(m, k, n) in &[(5usize, 4usize, 3usize), (60, 35, 40)] {
            let a = rndvec(m * k, 5);
            let b = rndvec(m * n, 6);
            let want = naive_matmul(&naive_transpose2d(&a, m, k), &b, k, m, n);
            let mut out = vec![0.0; k * n];
            par_bmm::<true, false>(&ex, &a, &b, 1, Mkn { m: k, k: m, n }, &mut out);
            assert_close(&out, &want, 1e-4, "acc_tn");
        }
    }

    #[test]
    fn acc_variants_accumulate() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let mut out = vec![10.0; 4];
        par_bmm::<false, true>(&Executor::serial(), &a, &a, 1, Mkn { m: 2, k: 2, n: 2 }, &mut out);
        assert_eq!(out, vec![11.0, 10.0, 10.0, 11.0]);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        // One direct-path size and one blocked-path size: the batched
        // kernels must agree with the 2-D entry bit-for-bit in both.
        let ex = Executor::serial();
        for &(bsz, m, k, n) in &[(3usize, 5usize, 4usize, 6usize), (2, 40, 32, 48)] {
            let a = rndvec(bsz * m * k, 11);
            let b = rndvec(bsz * k * n, 12);
            let mut out = vec![0.0; bsz * m * n];
            par_bmm::<false, false>(&ex, &a, &b, bsz, Mkn { m, k, n }, &mut out);
            for bi in 0..bsz {
                let mut want = vec![0.0; m * n];
                let (ab, bb) = (&a[bi * m * k..(bi + 1) * m * k], &b[bi * k * n..(bi + 1) * k * n]);
                par_matmul(&ex, ab, bb, Mkn { m, k, n }, &mut want);
                assert_eq!(&out[bi * m * n..(bi + 1) * m * n], &want[..], "bsz={bsz} m={m}");
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, -1.0, -1.0];
        par_softmax_rows(&Executor::serial(), &mut x, 3);
        let s1: f32 = x[..3].iter().sum();
        let s2: f32 = x[3..].iter().sum();
        assert!((s1 - 1.0).abs() < 1e-6);
        assert!((s2 - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
        assert!((x[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1000.0, 1001.0, 1002.0];
        let mut b = vec![0.0, 1.0, 2.0];
        let ex = Executor::serial();
        par_softmax_rows(&ex, &mut a, 3);
        par_softmax_rows(&ex, &mut b, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_orthogonal_to_ones() {
        // The softmax Jacobian maps constant dy to zero dx.
        let ex = Executor::serial();
        let mut y = vec![0.2f32, 1.0, -0.5, 0.7];
        par_softmax_rows(&ex, &mut y, 4);
        let dy = vec![3.0f32; 4];
        let mut dx = vec![0.0f32; 4];
        par_softmax_rows_backward(&ex, &y, &dy, 4, &mut dx);
        for v in dx {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn gelu_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0] {
            let h = 1e-3;
            let num = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((gelu_grad(x) - num).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn gelu_known_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn act_helpers_match_unfused_ops() {
        for &s in &[-2.5f32, -0.4, 0.0, 0.3, 1.7] {
            assert_eq!(act_apply(ActKind::Relu, s), s.max(0.0));
            assert_eq!(act_apply(ActKind::Gelu, s), gelu(s));
            assert_eq!(act_grad(ActKind::Gelu, s), gelu_grad(s));
            assert_eq!(act_grad(ActKind::Relu, s), if s > 0.0 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = rndvec(12, 9);
        let mut t = vec![0.0; 12];
        let mut back = vec![0.0; 12];
        let ex = Executor::serial();
        par_transpose(&ex, &a, 1, 3, 4, &mut t);
        par_transpose(&ex, &t, 1, 4, 3, &mut back);
        assert_eq!(a, back);
    }

    #[test]
    fn tiled_transpose_matches_naive() {
        // Sizes straddling the 32-wide tile boundary, including non-multiples.
        for &(m, n) in &[(1usize, 1usize), (3, 4), (31, 33), (32, 32), (40, 70), (64, 17), (100, 100)] {
            let a = rndvec(m * n, (m * 31 + n) as u32);
            let mut out = vec![0.0; m * n];
            par_transpose(&Executor::serial(), &a, 1, m, n, &mut out);
            assert_eq!(out, naive_transpose2d(&a, m, n), "m={m} n={n}");
        }
    }

    #[test]
    fn parallel_kernels_bitwise_match_serial() {
        // Odd sizes so chunk boundaries never align with anything. The
        // first triple takes the direct path, the second the blocked path;
        // both must be bitwise identical to serial at any thread count.
        for &(m, k, n) in &[(17usize, 13usize, 19usize), (131, 67, 73)] {
            let bsz = 3;
            let a = rndvec(m * k, 21);
            let b = rndvec(k * n, 22);
            let ba = rndvec(bsz * m * k, 23);
            let bb = rndvec(bsz * k * n, 24);
            let se = Executor::serial();
            for threads in [2usize, 4] {
                let ex = Executor::with_threads(threads);

                let mut serial = vec![0.0; m * n];
                par_matmul(&se, &a, &b, Mkn { m, k, n }, &mut serial);
                let mut par = vec![0.0; m * n];
                par_matmul(&ex, &a, &b, Mkn { m, k, n }, &mut par);
                assert_eq!(serial, par, "matmul {m}x{k}x{n} threads={threads}");

                let mut serial = vec![0.5; m * n]; // accumulate onto non-zero
                par_bmm::<false, true>(&se, &a, &b, 1, Mkn { m, k, n }, &mut serial);
                // note: acc_nt reads A as m×n here; reuse shapes that fit.
                let mut par = vec![0.5; m * n];
                par_bmm::<false, true>(&ex, &a, &b, 1, Mkn { m, k, n }, &mut par);
                assert_eq!(serial, par, "acc_nt {m}x{k}x{n} threads={threads}");

                let a2 = rndvec(m * k, 25);
                let b2 = rndvec(m * n, 26);
                let mut serial = vec![0.25; k * n];
                par_bmm::<true, false>(&se, &a2, &b2, 1, Mkn { m: k, k: m, n }, &mut serial);
                let mut par = vec![0.25; k * n];
                par_bmm::<true, false>(&ex, &a2, &b2, 1, Mkn { m: k, k: m, n }, &mut par);
                assert_eq!(serial, par, "acc_tn {m}x{k}x{n} threads={threads}");

                let mut serial = vec![0.0; bsz * m * n];
                par_bmm::<false, false>(&se, &ba, &bb, bsz, Mkn { m, k, n }, &mut serial);
                let mut par = vec![0.0; bsz * m * n];
                par_bmm::<false, false>(&ex, &ba, &bb, bsz, Mkn { m, k, n }, &mut par);
                assert_eq!(serial, par, "bmm {m}x{k}x{n} threads={threads}");

                let mut sm_serial = rndvec(41 * 13, 27);
                let mut sm_par = sm_serial.clone();
                par_softmax_rows(&se, &mut sm_serial, 13);
                par_softmax_rows(&ex, &mut sm_par, 13);
                assert_eq!(sm_serial, sm_par, "softmax threads={threads}");

                let t_in = rndvec(m * n, 28);
                let mut t_serial = vec![0.0; m * n];
                par_transpose(&se, &t_in, 1, m, n, &mut t_serial);
                let mut t_par = vec![0.0; m * n];
                par_transpose(&ex, &t_in, 1, m, n, &mut t_par);
                assert_eq!(t_serial, t_par, "transpose threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_bmm_backward_matches_per_batch_serial() {
        for &(bsz, m, k, n) in &[(3usize, 17usize, 11usize, 13usize), (2, 48, 36, 40)] {
            let a = rndvec(bsz * m * k, 31);
            let dc = rndvec(bsz * m * n, 32);
            let b = rndvec(bsz * k * n, 33);
            let ex = Executor::with_threads(4);
            let se = Executor::serial();

            // dA += dC·Bᵀ, per batch serial vs global-row parallel.
            let mut want = vec![0.1; bsz * m * k];
            for bi in 0..bsz {
                par_bmm::<false, true>(
                    &se,
                    &dc[bi * m * n..(bi + 1) * m * n],
                    &b[bi * k * n..(bi + 1) * k * n],
                    1,
                    Mkn { m, k: n, n: k },
                    &mut want[bi * m * k..(bi + 1) * m * k],
                );
            }
            let mut got = vec![0.1; bsz * m * k];
            par_bmm::<false, true>(&ex, &dc, &b, bsz, Mkn { m, k: n, n: k }, &mut got);
            assert_eq!(want, got, "acc_nt bsz={bsz} m={m}");

            // dB += Aᵀ·dC, per batch serial vs global-row parallel.
            let mut want = vec![0.2; bsz * k * n];
            for bi in 0..bsz {
                par_bmm::<true, false>(
                    &se,
                    &a[bi * m * k..(bi + 1) * m * k],
                    &dc[bi * m * n..(bi + 1) * m * n],
                    1,
                    Mkn { m: k, k: m, n },
                    &mut want[bi * k * n..(bi + 1) * k * n],
                );
            }
            let mut got = vec![0.2; bsz * k * n];
            par_bmm::<true, false>(&ex, &a, &dc, bsz, Mkn { m: k, k: m, n }, &mut got);
            assert_eq!(want, got, "acc_tn bsz={bsz} m={m}");
        }
    }

    #[test]
    fn small_matmuls_run_inline_large_ones_fan_out() {
        let ex = Executor::with_threads(4);
        let (m, k, n) = (16usize, 16usize, 16usize); // 4k flops < gate
        let a = rndvec(m * k, 41);
        let b = rndvec(k * n, 42);
        let mut out = vec![0.0; m * n];
        par_matmul(&ex, &a, &b, Mkn { m, k, n }, &mut out);
        let st = ex.stats();
        assert_eq!((st.tasks_dispatched, st.parallel_tasks), (1, 0), "tiny matmul must stay serial");

        // m·k·n = 4 Mi multiply-adds: exactly MIN_PAR_FLOPS, the smallest
        // shape that fans out.
        let (m, k, n) = (256usize, 128usize, 128usize);
        assert!(m * k * n >= crate::exec::MIN_PAR_FLOPS);
        let a = rndvec(m * k, 43);
        let b = rndvec(k * n, 44);
        let mut out = vec![0.0; m * n];
        par_matmul(&ex, &a, &b, Mkn { m, k, n }, &mut out);
        let st = ex.stats();
        assert_eq!((st.tasks_dispatched, st.parallel_tasks), (2, 1), "large matmul must fan out");

        // Tiny bmm likewise stays inline.
        let (bsz, m, k, n) = (4usize, 8usize, 8usize, 8usize);
        let ba = rndvec(bsz * m * k, 45);
        let bb = rndvec(bsz * k * n, 46);
        let mut bout = vec![0.0; bsz * m * n];
        par_bmm::<false, false>(&ex, &ba, &bb, bsz, Mkn { m, k, n }, &mut bout);
        let st = ex.stats();
        assert_eq!((st.tasks_dispatched, st.parallel_tasks), (3, 1), "tiny bmm must stay serial");
    }

    /// Unfused attention reference: materialized scores → softmax → bmm.
    fn naive_attention([q, k, v]: [&[f32]; 3], heads: Heads) -> Vec<f32> {
        let Heads { bsz, tq, tk, d, scale } = heads;
        let ex = Executor::serial();
        let mut out = vec![0.0; bsz * tq * d];
        let mut scores = vec![0.0f32; tk];
        for bi in 0..bsz {
            for i in 0..tq {
                for (j, s) in scores.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for l in 0..d {
                        acc += q[(bi * tq + i) * d + l] * k[(bi * tk + j) * d + l];
                    }
                    *s = acc * scale;
                }
                par_softmax_rows(&ex, &mut scores, tk);
                for (j, &w) in scores.iter().enumerate() {
                    for l in 0..d {
                        out[(bi * tq + i) * d + l] += w * v[(bi * tk + j) * d + l];
                    }
                }
            }
        }
        out
    }

    #[test]
    fn fused_attention_matches_unfused_reference() {
        let (bsz, tq, tk, d) = (3usize, 9usize, 9usize, 12usize);
        let heads = Heads { bsz, tq, tk, d, scale: 1.0 / (d as f32).sqrt() };
        let q = rndvec(bsz * tq * d, 51);
        let k = rndvec(bsz * tk * d, 52);
        let v = rndvec(bsz * tk * d, 53);
        let ex = Executor::serial();
        let mut out = vec![0.0; bsz * tq * d];
        par_attention(&ex, [&q, &k, &v], heads, &mut out);
        assert_close(&out, &naive_attention([&q, &k, &v], heads), 1e-5, "attention");
    }

    #[test]
    fn parallel_attention_bitwise_matches_serial() {
        let (bsz, tq, tk, d) = (5usize, 33usize, 33usize, 16usize);
        let heads = Heads { bsz, tq, tk, d, scale: 0.25 };
        let q = rndvec(bsz * tq * d, 61);
        let k = rndvec(bsz * tk * d, 62);
        let v = rndvec(bsz * tk * d, 63);
        let dout = rndvec(bsz * tq * d, 64);
        let serial = Executor::serial();
        let mut want = vec![0.0; bsz * tq * d];
        par_attention(&serial, [&q, &k, &v], heads, &mut want);
        let (mut wq, mut wk, mut wv) = (vec![0.0; q.len()], vec![0.0; k.len()], vec![0.0; v.len()]);
        par_attention_backward(&serial, [&q, &k, &v], &dout, heads, [&mut wq, &mut wk, &mut wv]);
        for threads in [2usize, 4] {
            let ex = Executor::with_threads(threads);
            let mut got = vec![0.0; bsz * tq * d];
            par_attention(&ex, [&q, &k, &v], heads, &mut got);
            assert_eq!(want, got, "attention fwd threads={threads}");
            let (mut gq, mut gk, mut gv) = (vec![0.0; q.len()], vec![0.0; k.len()], vec![0.0; v.len()]);
            par_attention_backward(&ex, [&q, &k, &v], &dout, heads, [&mut gq, &mut gk, &mut gv]);
            assert_eq!(wq, gq, "attention dQ threads={threads}");
            assert_eq!(wk, gk, "attention dK threads={threads}");
            assert_eq!(wv, gv, "attention dV threads={threads}");
        }
    }

    #[test]
    fn attention_backward_matches_finite_differences() {
        let (bsz, tq, tk, d) = (2usize, 4usize, 4usize, 3usize);
        let heads = Heads { bsz, tq, tk, d, scale: 1.0 / (d as f32).sqrt() };
        let q = rndvec(bsz * tq * d, 71);
        let k = rndvec(bsz * tk * d, 72);
        let v = rndvec(bsz * tk * d, 73);
        let dout = rndvec(bsz * tq * d, 74);
        let ex = crate::exec::Executor::serial();
        // loss = Σ dout ⊙ attention(q, k, v): its input gradients are
        // exactly what par_attention_backward accumulates.
        let loss = |q: &[f32], k: &[f32], v: &[f32]| -> f64 {
            let mut out = vec![0.0; bsz * tq * d];
            par_attention(&ex, [q, k, v], heads, &mut out);
            out.iter().zip(dout.iter()).map(|(&o, &g)| o as f64 * g as f64).sum()
        };
        let (mut gq, mut gk, mut gv) = (vec![0.0; q.len()], vec![0.0; k.len()], vec![0.0; v.len()]);
        par_attention_backward(&ex, [&q, &k, &v], &dout, heads, [&mut gq, &mut gk, &mut gv]);
        let eps = 1e-3f32;
        let check = |name: &str, base: &[f32], grad: &[f32], which: usize| {
            for i in 0..base.len() {
                let mut plus = base.to_vec();
                plus[i] += eps;
                let mut minus = base.to_vec();
                minus[i] -= eps;
                let (fp, fm) = match which {
                    0 => (loss(&plus, &k, &v), loss(&minus, &k, &v)),
                    1 => (loss(&q, &plus, &v), loss(&q, &minus, &v)),
                    _ => (loss(&q, &k, &plus), loss(&q, &k, &minus)),
                };
                let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (grad[i] - num).abs() < 2e-3 * (1.0 + num.abs()),
                    "{name}[{i}]: analytic {} vs numeric {num}",
                    grad[i]
                );
            }
        };
        check("dQ", &q, &gq, 0);
        check("dK", &k, &gk, 1);
        check("dV", &v, &gv, 2);
    }

    /// `exp_approx` as it was written before its clamp and two literals
    /// were reworded for clippy, operation for operation: the two literals
    /// are parsed from their old source text (the compiler rounds a literal
    /// the same way `str::parse` does), and the clamp is the old `max` then
    /// `min`, with `min`'s operands swapped (`minNum` is commutative).
    fn exp_approx_before(x: f32) -> f32 {
        let lit = |text: &str| text.replace('_', "").parse::<f32>().unwrap();
        let ln2_hi = lit("0.693_359_375");
        const LN2_LO: f32 = -2.121_944_4e-4;
        let x = 88.0f32.min(x.max(-87.0));
        const RND: f32 = 12_582_912.0;
        let shifted = x * std::f32::consts::LOG2_E + RND;
        let nf = shifted - RND;
        let r = (x - nf * ln2_hi) - nf * LN2_LO;
        let mut p = 1.987_569_2e-4_f32;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_5e-1;
        p = p * r + lit("5.000_000_1e-1");
        let e = (p * r * r + r) + 1.0;
        let n = shifted.to_bits().wrapping_sub(RND.to_bits());
        e * f32::from_bits(n.wrapping_add(127) << 23)
    }

    #[test]
    fn exp_approx_keeps_its_bits_through_the_lint_rewrite() {
        let lit = |text: &str| text.replace('_', "").parse::<f32>().unwrap();
        assert_eq!(0.693_359_4f32.to_bits(), lit("0.693_359_375").to_bits(), "LN2_HI");
        assert_eq!(0.5f32.to_bits(), lit("5.000_000_1e-1").to_bits(), "the 1/2 coefficient");
        // NaN clamps to -87 rather than propagating, so the result is finite.
        assert!(exp_approx(f32::NAN).is_finite());
        let specials = [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001), f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, -87.0, 88.0];
        let sweep = (0..=u32::MAX).step_by(997).map(f32::from_bits);
        for x in specials.into_iter().chain(sweep) {
            assert_eq!(exp_approx(x).to_bits(), exp_approx_before(x).to_bits(), "x = {x:e} ({:#010x})", x.to_bits());
        }
    }
}
