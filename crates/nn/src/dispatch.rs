//! Shape-specialized kernel dispatch with prepacked weights ("JIT-lite").
//!
//! The blocked kernels in [`crate::tensor`] are fully generic over matrix
//! shape, but the paper's workload hits a handful of hot shapes (hidden
//! 64/256, 13 labels, per-relation degree skew). This module closes the gap
//! between generic and shape-tuned kernels without changing a single bit of
//! output:
//!
//! * **Monomorphized matmul kernels** ([`matmul_accumulate_auto`]) — const
//!   generic column-width variants of the blocked kernel for the common
//!   shapes. Knowing the width at compile time lets the inner loops hold a
//!   4-row × 8-column accumulator block entirely in registers across the
//!   whole `k` sweep (the generic kernel re-loads and re-stores four output
//!   rows on every `k`), which is where the speedup comes from. Every output
//!   element still accumulates its terms in exactly the generic kernel's
//!   order — same zero-skip condition, ascending `k` — so results are
//!   bit-identical and the dynamic kernel remains a drop-in fallback.
//! * **Prepacked weights** ([`ModelPlan`]) — at model load (or once per
//!   optimizer step in training), each matmul weight is packed into an
//!   8-wide column-panel layout ([`PackedMatrix`]) so the specialized
//!   kernels stream it sequentially, and each RGCN layer weight's transpose
//!   is materialized once for the backward pass — inference and training
//!   stop re-striding weights per call.
//! * **Per-relation SpMM strategy** ([`SpmmStrategy`]) — picked from cheap
//!   degree statistics cached on [`GraphData`]: the CSR row-major gather for
//!   relations with real fan-in, an edge-major sweep for sparse/tiny
//!   relations where walking `n` row pointers costs more than streaming `e`
//!   edges. Both visit each destination's incoming edges in original
//!   edge-list order, so they are bit-identical. (A dense-matmul fallback
//!   and a CSC-staged forward were evaluated and rejected: both reorder
//!   per-destination sums and would break the bit-identity contract.)
//! * **Plan cache** ([`plan_for`]) — the chosen strategies are memoized per
//!   graph-shape signature (hidden, classes, layers, per-relation degree
//!   buckets) with hit/miss counters exposed through `irnuma-obs` and
//!   rendered by `irnuma report`.
//!
//! Dispatch is on by default. `IRNUMA_NO_DISPATCH=1` (or
//! [`set_dispatch`]`(false)`, wired to the CLI's `--no-dispatch`) forces
//! every path back onto the generic kernels — the fallback stays live and
//! is exercised by CI.

use crate::graphdata::{Csr, GraphData, NUM_RELATIONS};
use crate::model::GnnModel;
use crate::tensor::{matmul_accumulate, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Dispatch switch
// ---------------------------------------------------------------------------

/// 0 = unset (read `IRNUMA_NO_DISPATCH` on first use), 1 = on, 2 = off.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

/// Whether shape-specialized dispatch is active. Defaults to on; the
/// `IRNUMA_NO_DISPATCH` environment variable (any non-empty value except
/// `0`) or [`set_dispatch`]`(false)` forces the generic fallback kernels.
pub fn dispatch_enabled() -> bool {
    match DISPATCH.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = std::env::var("IRNUMA_NO_DISPATCH").is_ok_and(|v| !v.is_empty() && v != "0");
            DISPATCH.store(if off { 2 } else { 1 }, Ordering::Relaxed);
            !off
        }
    }
}

/// Force dispatch on or off for this process (CLI `--no-dispatch`, benches,
/// tests). Overrides the environment.
pub fn set_dispatch(enabled: bool) {
    DISPATCH.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Monomorphized matmul kernels
// ---------------------------------------------------------------------------

/// Column-panel width of the packed weight layout: 16 f32 lanes — one
/// 512-bit vector register, or two 256-bit ones.
const PANEL: usize = 16;

/// The column widths with a monomorphized kernel: the paper's label count
/// (13), its hidden sizes (64, 256), and the reduced widths the test suite
/// and smoke configurations run at.
pub const SPEC_COLS: [usize; 7] = [8, 13, 16, 32, 64, 128, 256];

/// Offset of packed element `b[k][j]` in the layout of [`PackedMatrix`]:
/// `PANEL`-column panels, `k`-major inside each panel. `j` must be 8-aligned
/// so an 8-float read never crosses a panel row.
#[inline(always)]
fn pack_off(inner: usize, k: usize, j: usize) -> usize {
    (j / PANEL) * (inner * PANEL) + k * PANEL + (j % PANEL)
}

/// One 4-row × `W`-column accumulator block over packed `b` (`W` a multiple
/// of 8, known at compile time so the column loops fully unroll into vector
/// code), registers-resident across the whole `k` sweep. Per output element
/// the accumulation order is exactly the generic kernel's: existing output
/// value first, then ascending `k`, skipping `k` only when all four `a`
/// values are zero.
#[inline(always)]
fn mm_block4<const COLS: usize, const W: usize>(
    a: &[f32],
    i: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
    j0: usize,
) {
    let mut acc = [[0.0f32; W]; 4];
    for (rb, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i + rb) * COLS + j0..][..W]);
    }
    for k in 0..inner {
        let a0 = a[i * inner + k];
        let a1 = a[(i + 1) * inner + k];
        let a2 = a[(i + 2) * inner + k];
        let a3 = a[(i + 3) * inner + k];
        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
            continue; // post-relu activations are often zero
        }
        for p in 0..W / 8 {
            let off = pack_off(inner, k, j0 + p * 8);
            let brow = &b[off..off + 8];
            for jj in 0..8 {
                let bv = brow[jj];
                acc[0][p * 8 + jj] += a0 * bv;
                acc[1][p * 8 + jj] += a1 * bv;
                acc[2][p * 8 + jj] += a2 * bv;
                acc[3][p * 8 + jj] += a3 * bv;
            }
        }
    }
    for (rb, row) in acc.iter().enumerate() {
        out[(i + rb) * COLS + j0..][..W].copy_from_slice(row);
    }
}

/// 4-row sub-panel tail (`w < 8` at runtime): same skip rule as
/// [`mm_block4`].
#[inline(always)]
fn mm_tail4<const COLS: usize>(
    a: &[f32],
    i: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
    j0: usize,
    w: usize,
) {
    let mut acc = [[0.0f32; 8]; 4];
    for (rb, row) in acc.iter_mut().enumerate() {
        row[..w].copy_from_slice(&out[(i + rb) * COLS + j0..][..w]);
    }
    for k in 0..inner {
        let a0 = a[i * inner + k];
        let a1 = a[(i + 1) * inner + k];
        let a2 = a[(i + 2) * inner + k];
        let a3 = a[(i + 3) * inner + k];
        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
            continue;
        }
        let off = pack_off(inner, k, j0);
        for (jj, &bv) in b[off..off + w].iter().enumerate() {
            acc[0][jj] += a0 * bv;
            acc[1][jj] += a1 * bv;
            acc[2][jj] += a2 * bv;
            acc[3][jj] += a3 * bv;
        }
    }
    for (rb, row) in acc.iter().enumerate() {
        out[(i + rb) * COLS + j0..][..w].copy_from_slice(&row[..w]);
    }
}

/// Single-row `W`-column block over packed `b`: same per-row zero-skip as
/// the generic kernel's tail.
#[inline(always)]
fn mm_row1<const COLS: usize, const W: usize>(
    arow: &[f32],
    inner: usize,
    b: &[f32],
    dst: &mut [f32],
    j0: usize,
) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&dst[j0..j0 + W]);
    for (k, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        for p in 0..W / 8 {
            let off = pack_off(inner, k, j0 + p * 8);
            for (jj, &bv) in b[off..off + 8].iter().enumerate() {
                acc[p * 8 + jj] += av * bv;
            }
        }
    }
    dst[j0..j0 + W].copy_from_slice(&acc);
}

/// Single-row sub-panel tail (`w < 8` at runtime).
#[inline(always)]
fn mm_tail1<const COLS: usize>(
    arow: &[f32],
    inner: usize,
    b: &[f32],
    dst: &mut [f32],
    j0: usize,
    w: usize,
) {
    let mut acc = [0.0f32; 8];
    acc[..w].copy_from_slice(&dst[j0..j0 + w]);
    for (k, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let off = pack_off(inner, k, j0);
        for (jj, &bv) in b[off..off + w].iter().enumerate() {
            acc[jj] += av * bv;
        }
    }
    dst[j0..j0 + w].copy_from_slice(&acc[..w]);
}

/// `out += a @ b` over a [`PackedMatrix`] with `COLS` known at compile time.
/// Bit-identical to [`matmul_accumulate`] (proven by
/// `tests/dispatch_equivalence.rs`). `WIDE` turns on 32-column blocks (8
/// 512-bit accumulators) — profitable only on the AVX-512 instantiation;
/// narrower ISAs would spill. `inline(always)` so the ISA wrappers below
/// recompile this body under their wider vector features.
#[inline(always)]
fn mm_pack_body<const COLS: usize, const WIDE: bool>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), rows * inner);
    debug_assert_eq!(out.len(), rows * COLS);
    // Column split, const-folded per COLS: 64- then 32-wide blocks (if
    // WIDE), then at most one 16-wide, one 8-wide, and a <8 sub-panel tail.
    // Wider blocks amortize the per-`k` loads of `a` and the zero test over
    // more vector work, and re-stream `a` fewer times.
    let w64 = if WIDE { COLS / 64 * 64 } else { 0 };
    let w32 = w64 + if WIDE { (COLS - w64) / 32 * 32 } else { 0 };
    let w16 = w32 + (COLS - w32) / 16 * 16;
    let w8 = w16 + (COLS - w16) / 8 * 8;

    let full_rows = rows / 4 * 4;
    let mut i = 0;
    while i < full_rows {
        let mut j0 = 0;
        while j0 < w64 {
            mm_block4::<COLS, 64>(a, i, inner, b, out, j0);
            j0 += 64;
        }
        while j0 < w32 {
            mm_block4::<COLS, 32>(a, i, inner, b, out, j0);
            j0 += 32;
        }
        while j0 < w16 {
            mm_block4::<COLS, 16>(a, i, inner, b, out, j0);
            j0 += 16;
        }
        while j0 < w8 {
            mm_block4::<COLS, 8>(a, i, inner, b, out, j0);
            j0 += 8;
        }
        if j0 < COLS {
            mm_tail4::<COLS>(a, i, inner, b, out, j0, COLS - j0);
        }
        i += 4;
    }
    for i in full_rows..rows {
        let arow = &a[i * inner..(i + 1) * inner];
        let dst = &mut out[i * COLS..(i + 1) * COLS];
        let mut j0 = 0;
        while j0 < w64 {
            mm_row1::<COLS, 64>(arow, inner, b, dst, j0);
            j0 += 64;
        }
        while j0 < w32 {
            mm_row1::<COLS, 32>(arow, inner, b, dst, j0);
            j0 += 32;
        }
        while j0 < w16 {
            mm_row1::<COLS, 16>(arow, inner, b, dst, j0);
            j0 += 16;
        }
        while j0 < w8 {
            mm_row1::<COLS, 8>(arow, inner, b, dst, j0);
            j0 += 8;
        }
        if j0 < COLS {
            mm_tail1::<COLS>(arow, inner, b, dst, j0, COLS - j0);
        }
    }
}

/// Row-major monomorphized body: the generic blocked kernel with `cols`
/// promoted to a compile-time constant, so LLVM can fully unroll the column
/// loop (and, in the ISA wrappers, widen it). The generic kernel's
/// b-row-streaming shape is the right one for row-major operands; the panel
/// kernels above exist for the packed layout.
#[inline(always)]
fn mm_rm_body<const COLS: usize>(a: &[f32], rows: usize, inner: usize, b: &[f32], out: &mut [f32]) {
    crate::tensor::matmul_accumulate_body(a, rows, inner, b, COLS, out)
}

/// Column-blocked row-major body for wide outputs. At `COLS ≤ 64` LLVM
/// register-promotes the streaming kernel's output rows across the whole
/// `k` loop (the `&mut` slice is `noalias`), but a 4×128+ strip exceeds the
/// register file and every `k` iteration re-loads and re-stores it — output
/// traffic grows with `inner`. This variant makes the promotion explicit:
/// `JB`-column strips of the output are accumulated in locals across all of
/// `k` and written back once. Per output element the arithmetic — separate
/// multiply and add, ascending `k`, the streaming kernel's exact 4-row /
/// 1-row zero-skip tests — is unchanged, so it is bit-identical to
/// [`mm_rm_body`] at every `JB`. Requires `COLS % JB == 0`.
#[inline(always)]
fn mm_rm_wide_body<const COLS: usize, const JB: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(COLS % JB, 0);
    debug_assert_eq!(a.len(), rows * inner);
    debug_assert_eq!(b.len(), inner * COLS);
    debug_assert_eq!(out.len(), rows * COLS);

    let full = rows / 4 * 4;
    let mut i = 0;
    while i < full {
        let mut jb = 0;
        while jb < COLS {
            let mut acc = [[0.0f32; JB]; 4];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&out[(i + r) * COLS + jb..][..JB]);
            }
            for k in 0..inner {
                let a0 = a[i * inner + k];
                let a1 = a[(i + 1) * inner + k];
                let a2 = a[(i + 2) * inner + k];
                let a3 = a[(i + 3) * inner + k];
                if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                    continue; // same skip as the streaming kernel
                }
                let brow: &[f32; JB] = b[k * COLS + jb..][..JB].try_into().expect("strip");
                for (j, &bv) in brow.iter().enumerate() {
                    acc[0][j] += a0 * bv;
                    acc[1][j] += a1 * bv;
                    acc[2][j] += a2 * bv;
                    acc[3][j] += a3 * bv;
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * COLS + jb..][..JB].copy_from_slice(accr);
            }
            jb += JB;
        }
        i += 4;
    }

    for i in full..rows {
        let mut jb = 0;
        while jb < COLS {
            let mut acc = [0.0f32; JB];
            acc.copy_from_slice(&out[i * COLS + jb..][..JB]);
            for k in 0..inner {
                let av = a[i * inner + k];
                if av == 0.0 {
                    continue;
                }
                let brow: &[f32; JB] = b[k * COLS + jb..][..JB].try_into().expect("strip");
                for (j, &bv) in brow.iter().enumerate() {
                    acc[j] += av * bv;
                }
            }
            out[i * COLS + jb..][..JB].copy_from_slice(&acc);
            jb += JB;
        }
    }
}

/// Strip width per ISA: 4 rows × `JB` floats of accumulator must fit the
/// vector register file (AVX-512: 4×64 = 16 of 32 zmm; AVX2: 4×32 = 16 of
/// 16 ymm, brow reloads from L1). Widths the preferred strip doesn't divide
/// drop to a 32-wide strip, then to the streaming kernel — all bit-identical,
/// so the cascade is purely a speed choice.
#[inline(always)]
fn mm_rm_isa_body<const COLS: usize, const JB: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    if COLS % JB == 0 {
        mm_rm_wide_body::<COLS, JB>(a, rows, inner, b, out)
    } else if COLS % 32 == 0 {
        mm_rm_wide_body::<COLS, 32>(a, rows, inner, b, out)
    } else {
        mm_rm_body::<COLS>(a, rows, inner, b, out)
    }
}

/// Baseline-ISA instantiations (whatever vector width the crate was
/// compiled for — plain x86-64 means SSE2).
fn mm_rm<const COLS: usize>(a: &[f32], rows: usize, inner: usize, b: &[f32], out: &mut [f32]) {
    mm_rm_body::<COLS>(a, rows, inner, b, out)
}

fn mm_pack<const COLS: usize>(a: &[f32], rows: usize, inner: usize, b: &[f32], out: &mut [f32]) {
    mm_pack_body::<COLS, false>(a, rows, inner, b, out)
}

/// The same bodies recompiled with 256-bit vectors. The scalar accumulation
/// per output element is unchanged (separate multiply and add, ascending
/// `k`) — LLVM only widens the independent column lanes, and never
/// introduces FMA contraction — so results stay bit-identical. Callers must
/// have verified `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mm_rm_avx2<const COLS: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    mm_rm_isa_body::<COLS, 32>(a, rows, inner, b, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mm_pack_avx2<const COLS: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    mm_pack_body::<COLS, false>(a, rows, inner, b, out)
}

/// 512-bit vector instantiations; same bit-identity argument as the AVX2
/// wrappers. Callers must have verified `avx512f` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mm_rm_avx512<const COLS: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    mm_rm_isa_body::<COLS, 64>(a, rows, inner, b, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mm_pack_avx512<const COLS: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    out: &mut [f32],
) {
    mm_pack_body::<COLS, true>(a, rows, inner, b, out)
}

/// Vector ISA detected at runtime, cached: 1 = crate baseline, 2 = AVX2,
/// 3 = AVX-512F (0 = not probed yet). This is the "JIT" half of JIT-lite:
/// the binary is compiled for a portable baseline, but the dispatch table
/// hands out kernels recompiled for whatever the host actually has.
static ISA: AtomicU8 = AtomicU8::new(0);

fn isa_level() -> u8 {
    match ISA.load(Ordering::Relaxed) {
        0 => {
            #[cfg(target_arch = "x86_64")]
            let level = if std::arch::is_x86_feature_detected!("avx512f") {
                3
            } else if std::arch::is_x86_feature_detected!("avx2") {
                2
            } else {
                1
            };
            #[cfg(not(target_arch = "x86_64"))]
            let level = 1;
            ISA.store(level, Ordering::Relaxed);
            level
        }
        level => level,
    }
}

type MmFn = fn(&[f32], usize, usize, &[f32], &mut [f32]);

/// Kernel for one (width, layout) pair at the detected ISA level. The
/// non-capturing closures around the `unsafe` wrappers are sound because
/// they are only ever handed out after [`isa_level`] has verified the
/// feature.
fn pick_mm<const COLS: usize, const PACKED: bool>() -> MmFn {
    #[cfg(target_arch = "x86_64")]
    {
        match (isa_level(), PACKED) {
            (3, true) => return |a, r, i, b, o| unsafe { mm_pack_avx512::<COLS>(a, r, i, b, o) },
            (3, false) => return |a, r, i, b, o| unsafe { mm_rm_avx512::<COLS>(a, r, i, b, o) },
            (2, true) => return |a, r, i, b, o| unsafe { mm_pack_avx2::<COLS>(a, r, i, b, o) },
            (2, false) => return |a, r, i, b, o| unsafe { mm_rm_avx2::<COLS>(a, r, i, b, o) },
            _ => {}
        }
    }
    if PACKED {
        mm_pack::<COLS>
    } else {
        mm_rm::<COLS>
    }
}

/// The dispatch table: a monomorphized kernel for each supported column
/// width (`PACKED` selects the operand layout), at the best ISA the host
/// supports.
fn spec_mm<const PACKED: bool>(cols: usize) -> Option<MmFn> {
    Some(match cols {
        8 => pick_mm::<8, PACKED>(),
        13 => pick_mm::<13, PACKED>(),
        16 => pick_mm::<16, PACKED>(),
        32 => pick_mm::<32, PACKED>(),
        64 => pick_mm::<64, PACKED>(),
        128 => pick_mm::<128, PACKED>(),
        256 => pick_mm::<256, PACKED>(),
        _ => return None,
    })
}

/// `out += a @ b` (row-major `b`), routed through the monomorphized kernel
/// when dispatch is on and `cols` has one, the generic blocked kernel
/// otherwise. Always bit-identical to [`matmul_accumulate`].
pub fn matmul_accumulate_auto(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    let _f = irnuma_obs::profile_frame!("kernel.matmul");
    if dispatch_enabled() {
        if let Some(f) = spec_mm::<false>(cols) {
            if irnuma_obs::telemetry_enabled() {
                irnuma_obs::counter!("dispatch.matmul_spec").inc(1);
            }
            return f(a, rows, inner, b, out);
        }
    }
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("dispatch.matmul_generic").inc(1);
    }
    matmul_accumulate(a, rows, inner, b, cols, out);
}

// ---------------------------------------------------------------------------
// Elementwise kernels
// ---------------------------------------------------------------------------
//
// The forward pass spends a visible slice of its time in elementwise sweeps
// over `n × d` activation buffers: folding relation terms into the layer
// accumulator, bias + ReLU, the residual add, layer-norm scaling, pooling.
// Every one of them is per-element independent (no cross-element reductions),
// so re-instantiating the same body inside a `#[target_feature]` wrapper
// changes how many lanes run per instruction and nothing else — results are
// bit-identical at every ISA level. The reductions that do exist (layer-norm
// mean/variance) stay in their original scalar order at the call sites.

#[inline(always)]
fn vadd_body(out: &mut [f32], src: &[f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o += v;
    }
}

/// `out[i] = max(acc[i] + bias[i mod d], 0)` over `n` rows of width `d`.
#[inline(always)]
fn bias_relu_body(acc: &[f32], bias: &[f32], out: &mut [f32]) {
    let d = bias.len();
    for (orow, arow) in out.chunks_exact_mut(d).zip(acc.chunks_exact(d)) {
        for ((o, &a), &b) in orow.iter_mut().zip(arow).zip(bias) {
            let pre = a + b;
            *o = if pre < 0.0 { 0.0 } else { pre };
        }
    }
}

/// One normalized layer-norm row: `out[j] = gamma[j]·((x[j]−mu)·inv) + beta[j]`.
/// `mu`/`inv` come from the caller's scalar reductions.
#[inline(always)]
fn ln_scale_body(x: &[f32], mu: f32, inv: f32, gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    for (((o, &xc), &gc), &bc) in out.iter_mut().zip(x).zip(gamma).zip(beta) {
        *o = gc * ((xc - mu) * inv) + bc;
    }
}

macro_rules! isa_wrap {
    ($base:ident, $avx2:ident, $avx512:ident, $body:ident, ($($arg:ident : $ty:ty),*)) => {
        fn $base($($arg: $ty),*) {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
}

isa_wrap!(vadd_base, vadd_avx2, vadd_avx512, vadd_body, (out: &mut [f32], src: &[f32]));
isa_wrap!(
    bias_relu_base,
    bias_relu_avx2,
    bias_relu_avx512,
    bias_relu_body,
    (acc: &[f32], bias: &[f32], out: &mut [f32])
);
isa_wrap!(
    ln_scale_base,
    ln_scale_avx2,
    ln_scale_avx512,
    ln_scale_body,
    (x: &[f32], mu: f32, inv: f32, gamma: &[f32], beta: &[f32], out: &mut [f32])
);

/// `out += src`, elementwise, at the widest ISA this CPU runs (scalar-order
/// fallback when dispatch is off). Bit-identical either way.
#[inline]
pub fn vec_add_assign(out: &mut [f32], src: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if dispatch_enabled() {
        match isa_level() {
            3 => return unsafe { vadd_avx512(out, src) },
            2 => return unsafe { vadd_avx2(out, src) },
            _ => {}
        }
    }
    vadd_base(out, src)
}

/// Bias add + ReLU over `n` rows (`acc`/`out` are `n·d` long, `bias` is `d`).
#[inline]
pub fn bias_relu_rows(acc: &[f32], bias: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if dispatch_enabled() {
        match isa_level() {
            3 => return unsafe { bias_relu_avx512(acc, bias, out) },
            2 => return unsafe { bias_relu_avx2(acc, bias, out) },
            _ => {}
        }
    }
    bias_relu_base(acc, bias, out)
}

/// The elementwise tail of one layer-norm row (the caller supplies the
/// scalar-order `mu` and `inv` reductions).
#[inline]
pub fn ln_scale_row(x: &[f32], mu: f32, inv: f32, gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if dispatch_enabled() {
        match isa_level() {
            3 => return unsafe { ln_scale_avx512(x, mu, inv, gamma, beta, out) },
            2 => return unsafe { ln_scale_avx2(x, mu, inv, gamma, beta, out) },
            _ => {}
        }
    }
    ln_scale_base(x, mu, inv, gamma, beta, out)
}

/// One row's layer-norm statistics in the tape's exact order: `mu` is the
/// strict left-to-right sum over the row, `inv` the matching variance
/// reciprocal. Kept `inline(always)` so [`ln_pool_body`] can interleave four
/// independent rows' chains without touching any single row's order.
#[inline(always)]
fn ln_row_stats(x: &[f32], d: usize, eps: f32) -> (f32, f32) {
    let mu: f32 = x.iter().sum::<f32>() / d as f32;
    let var: f32 = x.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
    (mu, 1.0 / (var + eps).sqrt())
}

/// Layer norm over `n` rows fused with ascending-row mean-pool accumulation.
/// Each row's `mu`/`var` reduction keeps the tape's strict left-to-right
/// order — four rows are interleaved only to give the CPU four independent
/// FP-add chains (the serial chain is the bottleneck, ~4 cycles per add) —
/// and pooled rows still accumulate in ascending row order, so the result
/// is bit-identical to the one-row-at-a-time loop.
#[inline(always)]
fn ln_pool_body(
    h: &[f32],
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    pooled: &mut [f32],
) {
    let d = gamma.len();
    let full = n / 4 * 4;
    let mut row = 0;
    while row < full {
        let x0 = &h[row * d..(row + 1) * d];
        let x1 = &h[(row + 1) * d..(row + 2) * d];
        let x2 = &h[(row + 2) * d..(row + 3) * d];
        let x3 = &h[(row + 3) * d..(row + 4) * d];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for j in 0..d {
            s0 += x0[j];
            s1 += x1[j];
            s2 += x2[j];
            s3 += x3[j];
        }
        let dn = d as f32;
        let (m0, m1, m2, m3) = (s0 / dn, s1 / dn, s2 / dn, s3 / dn);
        let (mut v0, mut v1, mut v2, mut v3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for j in 0..d {
            v0 += (x0[j] - m0) * (x0[j] - m0);
            v1 += (x1[j] - m1) * (x1[j] - m1);
            v2 += (x2[j] - m2) * (x2[j] - m2);
            v3 += (x3[j] - m3) * (x3[j] - m3);
        }
        let i0 = 1.0 / (v0 / dn + eps).sqrt();
        let i1 = 1.0 / (v1 / dn + eps).sqrt();
        let i2 = 1.0 / (v2 / dn + eps).sqrt();
        let i3 = 1.0 / (v3 / dn + eps).sqrt();
        for (r, (xr, mr, ir)) in
            [(x0, m0, i0), (x1, m1, i1), (x2, m2, i2), (x3, m3, i3)].into_iter().enumerate()
        {
            let o = &mut out[(row + r) * d..(row + r + 1) * d];
            ln_scale_body(xr, mr, ir, gamma, beta, o);
            vadd_body(pooled, o);
        }
        row += 4;
    }
    while row < n {
        let x = &h[row * d..(row + 1) * d];
        let (mu, inv) = ln_row_stats(x, d, eps);
        let o = &mut out[row * d..(row + 1) * d];
        ln_scale_body(x, mu, inv, gamma, beta, o);
        vadd_body(pooled, o);
        row += 1;
    }
}

isa_wrap!(
    ln_pool_base,
    ln_pool_avx2,
    ln_pool_avx512,
    ln_pool_body,
    (h: &[f32], n: usize, gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32], pooled: &mut [f32])
);

/// Fused layer norm + mean-pool accumulation over `n` rows (`h`/`out` are
/// `n·d`; `pooled` is `d` and receives the ascending-row sum of normalized
/// rows — the caller divides by `n`). Bit-identical to the scalar per-row
/// loop at every ISA level; dispatch off falls back to exactly that loop.
#[inline]
pub fn ln_pool_rows(
    h: &[f32],
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    pooled: &mut [f32],
) {
    if dispatch_enabled() {
        #[cfg(target_arch = "x86_64")]
        match isa_level() {
            3 => return unsafe { ln_pool_avx512(h, n, gamma, beta, eps, out, pooled) },
            2 => return unsafe { ln_pool_avx2(h, n, gamma, beta, eps, out, pooled) },
            _ => {}
        }
        // Baseline ISA still benefits from the four interleaved chains.
        return ln_pool_base(h, n, gamma, beta, eps, out, pooled);
    }
    let d = gamma.len();
    for row in 0..n {
        let x = &h[row * d..(row + 1) * d];
        let (mu, inv) = ln_row_stats(x, d, eps);
        let o = &mut out[row * d..(row + 1) * d];
        ln_scale_base(x, mu, inv, gamma, beta, o);
        vadd_base(pooled, o);
    }
}

// ---------------------------------------------------------------------------
// Prepacked weights
// ---------------------------------------------------------------------------

/// A weight matrix repacked into [`PANEL`]-wide column panels: panel `p`
/// holds columns `p*PANEL .. (p+1)*PANEL` for all `inner` rows contiguously
/// (`k`-major within the panel), the last panel zero-padded to the full
/// width. The monomorphized kernels stream a panel sequentially instead of
/// striding `cols × 4` bytes per `k`. Values are unchanged — only the
/// layout moves — so packed products stay bit-identical.
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    pub inner: usize,
    pub cols: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Pack a row-major `inner × cols` matrix. Only widths in [`SPEC_COLS`]
    /// have a packed kernel; callers gate on [`spec_cols_supported`].
    pub fn pack(b: &[f32], inner: usize, cols: usize) -> PackedMatrix {
        assert_eq!(b.len(), inner * cols, "shape/data mismatch");
        let panels = cols.div_ceil(PANEL);
        let mut data = vec![0.0f32; panels * inner * PANEL];
        for (k, row) in b.chunks_exact(cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                data[(j / PANEL) * (inner * PANEL) + k * PANEL + (j % PANEL)] = v;
            }
        }
        PackedMatrix { inner, cols, data }
    }
}

/// Whether `cols` has a monomorphized (and packed) kernel variant.
pub fn spec_cols_supported(cols: usize) -> bool {
    SPEC_COLS.contains(&cols)
}

/// `out += a @ b` where `b` was packed with [`PackedMatrix::pack`].
pub fn matmul_accumulate_packed(a: &[f32], rows: usize, pm: &PackedMatrix, out: &mut [f32]) {
    let _f = irnuma_obs::profile_frame!("kernel.matmul_packed");
    let f = spec_mm::<true>(pm.cols)
        .unwrap_or_else(|| panic!("no packed kernel for width {}", pm.cols));
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("dispatch.matmul_packed").inc(1);
    }
    f(a, rows, pm.inner, &pm.data, out);
}

/// One parameter's prepacked forms on a [`ModelPlan`].
#[derive(Debug, Clone)]
pub struct PackedParam {
    /// Column-panel layout for the forward product (only for widths with a
    /// packed kernel).
    pub fwd: Option<PackedMatrix>,
    /// Row-major transpose for the backward `dx += dy @ Wᵀ` product,
    /// materialized once instead of per graph.
    pub bwd_t: Option<Vec<f32>>,
}

/// Immutable per-model kernel plan: prepacked weights aligned with
/// `GnnModel::params`. Built at model load (inference) or once per
/// optimizer step (training) — weights are packed once and every forward /
/// backward call stops re-striding them. An empty plan (dispatch disabled)
/// routes every product through the dynamic-shape fallback.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    packed: Vec<Option<PackedParam>>,
}

impl ModelPlan {
    /// Build the inference plan: panel-pack the FC head weights, whose
    /// forward products are 1-row (pooled features) — the shape where the
    /// packed kernels beat streaming the row-major weight. The n-row layer
    /// products go through the monomorphized row-major kernels directly, so
    /// packing them would only add build cost. When dispatch is off the
    /// plan is empty and all call sites fall back.
    pub fn build(model: &GnnModel) -> ModelPlan {
        Self::build_inner(model, false)
    }

    /// Build the training plan: everything [`build`](Self::build) does,
    /// plus the row-major transpose of each layer weight for the backward
    /// `dx += dy @ Wᵀ` products — materialized once per optimizer step
    /// instead of once per graph.
    pub fn build_training(model: &GnnModel) -> ModelPlan {
        Self::build_inner(model, true)
    }

    fn build_inner(model: &GnnModel, training: bool) -> ModelPlan {
        let mut packed: Vec<Option<PackedParam>> = vec![None; model.params.len()];
        if !dispatch_enabled() {
            return ModelPlan { packed };
        }
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::counter!("dispatch.plan_builds").inc(1);
        }
        let d = model.cfg.hidden;
        let layer_base = |l: usize| 1 + l * (2 + NUM_RELATIONS);
        if training {
            for l in 0..model.cfg.layers {
                let base = layer_base(l);
                let slots = packed.iter_mut().enumerate().skip(base).take(1 + NUM_RELATIONS);
                for (idx, slot) in slots {
                    let p = &model.params[idx];
                    debug_assert_eq!((p.rows, p.cols), (d, d));
                    let mut t = vec![0.0f32; p.data.len()];
                    crate::tensor::transpose_into(&p.data, p.rows, p.cols, &mut t);
                    *slot = Some(PackedParam { fwd: None, bwd_t: Some(t) });
                }
            }
        }
        let idx_fc1 = layer_base(model.cfg.layers) + 2;
        let idx_fc2 = idx_fc1 + 2;
        debug_assert!(model.param_name(idx_fc1) == "fc1.w");
        debug_assert!(model.param_name(idx_fc2) == "fc2.w");
        for idx in [idx_fc1, idx_fc2] {
            let p = &model.params[idx];
            packed[idx] = Some(PackedParam {
                fwd: spec_cols_supported(p.cols)
                    .then(|| PackedMatrix::pack(&p.data, p.rows, p.cols)),
                bwd_t: None,
            });
        }
        ModelPlan { packed }
    }

    /// Whether any parameter was actually packed (false when dispatch was
    /// off at build time).
    pub fn is_packed(&self) -> bool {
        self.packed.iter().any(Option::is_some)
    }

    /// `out += a @ w` for parameter `idx`. The prepacked panels only pay
    /// off on few-row products (the head's pooled features); at four rows
    /// and up the blocked row-major kernel streams `w` faster than the
    /// panel walk, so wide products take the auto-dispatched path even
    /// when panels exist. Both paths are bit-identical, so the shape
    /// split is purely a speed choice.
    #[inline]
    pub fn matmul(&self, idx: usize, a: &[f32], rows: usize, w: &Tensor, out: &mut [f32]) {
        if rows < 4 {
            if let Some(Some(p)) = self.packed.get(idx) {
                if let Some(pm) = &p.fwd {
                    debug_assert_eq!((pm.inner, pm.cols), (w.rows, w.cols));
                    return matmul_accumulate_packed(a, rows, pm, out);
                }
            }
        }
        matmul_accumulate_auto(a, rows, w.rows, &w.data, w.cols, out);
    }

    /// Parameter `idx`'s prepacked transpose (row-major `cols × rows`), if
    /// the plan carries one.
    pub fn weight_t(&self, idx: usize) -> Option<&[f32]> {
        self.packed.get(idx).and_then(|p| p.as_ref()).and_then(|p| p.bwd_t.as_deref())
    }
}

/// [`ModelPlan::matmul`] through an optional plan (single-graph callers
/// skip plan construction entirely).
#[inline]
pub fn plan_matmul(
    plan: Option<&ModelPlan>,
    idx: usize,
    a: &[f32],
    rows: usize,
    w: &Tensor,
    out: &mut [f32],
) {
    match plan {
        Some(p) => p.matmul(idx, a, rows, w, out),
        None => matmul_accumulate_auto(a, rows, w.rows, &w.data, w.cols, out),
    }
}

// ---------------------------------------------------------------------------
// SpMM strategy
// ---------------------------------------------------------------------------

/// How one relation's message aggregation runs. Every strategy visits each
/// output row's terms in original edge-list order, so all are bit-identical;
/// the choice is purely about memory-access shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmmStrategy {
    /// Walk the destination-grouped CSR (forward) / source-grouped CSC
    /// (backward) row by row. Best when rows have real fan-in: each output
    /// row stays register/L1-resident across its incoming edges.
    CsrGather,
    /// Stream the original edge list directly, scattering per edge. Best
    /// for sparse or tiny relations where scanning `n` row pointers costs
    /// more than the `e` edges themselves.
    EdgeMajor,
}

/// One relation's adjacency in every form a strategy can consume.
#[derive(Clone, Copy)]
pub struct RelView<'a> {
    /// Destination-grouped (forward) or source-grouped (backward) rows.
    pub rows: &'a Csr,
    /// Original edge list `(src, dst)`.
    pub edges: &'a [(u32, u32)],
    /// Per-edge `1/c_{dst,r}` weights, aligned with `edges`.
    pub norm: &'a [f32],
}

type AxpyFn = fn(&mut [f32], f32, &[f32]);

fn axpy_dyn(out: &mut [f32], w: f32, src: &[f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o += w * v;
    }
}

/// The one shared axpy body, re-instantiated inside each `#[target_feature]`
/// wrapper below. Per-lane multiply-then-add in ascending index order: wider
/// vectors change how many lanes run per instruction, never the per-element
/// arithmetic, so every instantiation is bit-identical (rustc emits strict
/// IR — LLVM will not contract to FMA).
#[inline(always)]
fn axpy_body<const D: usize>(out: &mut [f32], w: f32, src: &[f32]) {
    let out: &mut [f32; D] = (&mut out[..D]).try_into().expect("row width");
    let src: &[f32; D] = src[..D].try_into().expect("row width");
    for (o, &v) in out.iter_mut().zip(src) {
        *o += w * v;
    }
}

fn axpy_spec<const D: usize>(out: &mut [f32], w: f32, src: &[f32]) {
    axpy_body::<D>(out, w, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_spec_avx2<const D: usize>(out: &mut [f32], w: f32, src: &[f32]) {
    axpy_body::<D>(out, w, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_spec_avx512<const D: usize>(out: &mut [f32], w: f32, src: &[f32]) {
    axpy_body::<D>(out, w, src)
}

/// The widest [`axpy_body`] instantiation this CPU can run (same selection
/// story as [`pick_mm`]; the closures are sound because they are only handed
/// out after feature detection).
fn pick_axpy<const D: usize>() -> AxpyFn {
    #[cfg(target_arch = "x86_64")]
    match isa_level() {
        3 => return |out, w, src| unsafe { axpy_spec_avx512::<D>(out, w, src) },
        2 => return |out, w, src| unsafe { axpy_spec_avx2::<D>(out, w, src) },
        _ => {}
    }
    axpy_spec::<D>
}

/// Row-width-specialized `out += w * src` for the SpMM inner loop.
fn axpy_for(d: usize) -> AxpyFn {
    if !dispatch_enabled() {
        return axpy_dyn;
    }
    match d {
        8 => pick_axpy::<8>(),
        13 => pick_axpy::<13>(),
        16 => pick_axpy::<16>(),
        32 => pick_axpy::<32>(),
        64 => pick_axpy::<64>(),
        128 => pick_axpy::<128>(),
        256 => pick_axpy::<256>(),
        _ => axpy_dyn,
    }
}

/// Forward SpMM: `out[dst] = Σ w_e · h[src_e]` over one relation,
/// overwriting `out[..n*d]`. Both strategies accumulate each destination's
/// terms in original edge order — bit-identical results.
pub fn spmm_forward(
    strategy: SpmmStrategy,
    rel: RelView<'_>,
    h: &[f32],
    n: usize,
    d: usize,
    out: &mut [f32],
) {
    let _f = irnuma_obs::profile_frame!("kernel.spmm");
    let axpy = axpy_for(d);
    if irnuma_obs::telemetry_enabled() {
        match strategy {
            SpmmStrategy::CsrGather => irnuma_obs::counter!("dispatch.spmm_csr").inc(1),
            SpmmStrategy::EdgeMajor => irnuma_obs::counter!("dispatch.spmm_edge").inc(1),
        }
    }
    match strategy {
        SpmmStrategy::CsrGather => {
            for i in 0..n {
                let (srcs, ws) = rel.rows.row(i);
                let row = &mut out[i * d..(i + 1) * d];
                row.fill(0.0);
                for (&s, &w) in srcs.iter().zip(ws) {
                    axpy(row, w, &h[s as usize * d..(s as usize + 1) * d]);
                }
            }
        }
        SpmmStrategy::EdgeMajor => {
            out[..n * d].fill(0.0);
            for (&(s, dst), &w) in rel.edges.iter().zip(rel.norm) {
                let (s, dst) = (s as usize, dst as usize);
                axpy(&mut out[dst * d..(dst + 1) * d], w, &h[s * d..(s + 1) * d]);
            }
        }
    }
}

/// Backward SpMM: `out[src] += Σ w_e · term[dst_e]` over one relation,
/// *accumulating* into `out` (the hidden-state gradient is seeded before
/// the relation loop). `rel.rows` must be the source-grouped CSC mirror.
/// Both strategies accumulate each source's terms in original edge order.
pub fn spmm_backward(
    strategy: SpmmStrategy,
    rel: RelView<'_>,
    term: &[f32],
    n: usize,
    d: usize,
    out: &mut [f32],
) {
    let _f = irnuma_obs::profile_frame!("kernel.spmm_backward");
    let axpy = axpy_for(d);
    if irnuma_obs::telemetry_enabled() {
        match strategy {
            SpmmStrategy::CsrGather => irnuma_obs::counter!("dispatch.spmm_csr").inc(1),
            SpmmStrategy::EdgeMajor => irnuma_obs::counter!("dispatch.spmm_edge").inc(1),
        }
    }
    match strategy {
        SpmmStrategy::CsrGather => {
            for i in 0..n {
                let (dsts, ws) = rel.rows.row(i);
                let row = &mut out[i * d..(i + 1) * d];
                for (&dst, &w) in dsts.iter().zip(ws) {
                    axpy(row, w, &term[dst as usize * d..(dst as usize + 1) * d]);
                }
            }
        }
        SpmmStrategy::EdgeMajor => {
            for (&(s, dst), &w) in rel.edges.iter().zip(rel.norm) {
                let (s, dst) = (s as usize, dst as usize);
                axpy(&mut out[s * d..(s + 1) * d], w, &term[dst * d..(dst + 1) * d]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache (graph-shape signature → chosen strategies)
// ---------------------------------------------------------------------------

/// A graph-shape signature: everything the strategy choice depends on.
/// Degree distributions are bucketed (log₂ node-count class × density
/// class) so graphs of the same shape share one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeSig {
    pub hidden: u32,
    pub classes: u32,
    pub layers: u32,
    /// Per relation: `0xFF` for empty, else `size_class << 2 | density`.
    pub rel: [u8; NUM_RELATIONS],
}

/// Bucket one relation's shape: log₂ node-count class (0–14) and a density
/// class — 0 sparse (`2e < n`), 1 moderate, 2 dense (`e ≥ 4n`).
fn rel_bucket(n: usize, e: usize) -> u8 {
    if e == 0 {
        return 0xFF;
    }
    let size = (usize::BITS - 1 - n.max(1).leading_zeros()).min(14) as u8;
    let density = if e * 2 < n {
        0
    } else if e < n * 4 {
        1
    } else {
        2
    };
    size << 2 | density
}

/// The strategies chosen for one graph shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphPlan {
    pub spmm: [SpmmStrategy; NUM_RELATIONS],
}

impl GraphPlan {
    /// The pre-dispatch behavior: CSR gather everywhere.
    pub fn generic() -> GraphPlan {
        GraphPlan { spmm: [SpmmStrategy::CsrGather; NUM_RELATIONS] }
    }
}

/// Pure strategy choice from a bucketed relation shape: edge-major for
/// sparse relations and tiny graphs (size class < 6 ⇒ n < 64), CSR gather
/// otherwise. Deriving from the bucket — not the raw counts — keeps the
/// signature → plan mapping a pure function the cache can memoize.
fn plan_from_sig(sig: &ShapeSig) -> GraphPlan {
    let mut spmm = [SpmmStrategy::CsrGather; NUM_RELATIONS];
    for (s, &b) in spmm.iter_mut().zip(&sig.rel) {
        if b != 0xFF && (b & 0b11 == 0 || b >> 2 < 6) {
            *s = SpmmStrategy::EdgeMajor;
        }
    }
    GraphPlan { spmm }
}

static PLAN_CACHE: Mutex<Option<HashMap<ShapeSig, GraphPlan>>> = Mutex::new(None);
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

/// Entries kept before the cache is cleared (a runaway-shape backstop; real
/// workloads see a handful of signatures).
const PLAN_CACHE_CAP: usize = 4096;

/// Lifetime plan-cache `(hits, misses)` for this process.
pub fn plan_cache_stats() -> (u64, u64) {
    (PLAN_HITS.load(Ordering::Relaxed), PLAN_MISSES.load(Ordering::Relaxed))
}

/// The kernel plan for one graph under one model shape, memoized by shape
/// signature with hit/miss counters. Falls back to the generic plan when
/// dispatch is off.
pub fn plan_for(hidden: usize, classes: usize, layers: usize, g: &GraphData) -> GraphPlan {
    if !dispatch_enabled() {
        return GraphPlan::generic();
    }
    let stats = g.rel_stats();
    let n = g.num_nodes();
    let mut rel = [0u8; NUM_RELATIONS];
    for (b, s) in rel.iter_mut().zip(stats) {
        *b = rel_bucket(n, s.edges as usize);
    }
    let sig =
        ShapeSig { hidden: hidden as u32, classes: classes as u32, layers: layers as u32, rel };

    let mut guard = PLAN_CACHE.lock().expect("plan cache poisoned");
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(&plan) = cache.get(&sig) {
        PLAN_HITS.fetch_add(1, Ordering::Relaxed);
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::counter!("dispatch.plan_hits").inc(1);
        }
        return plan;
    }
    PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("dispatch.plan_misses").inc(1);
    }
    if cache.len() >= PLAN_CACHE_CAP {
        cache.clear();
    }
    let plan = plan_from_sig(&sig);
    cache.insert(sig, plan);
    plan
}

// ---------------------------------------------------------------------------
// Shared model-plan cache (parameter fingerprint → Arc<ModelPlan>)
// ---------------------------------------------------------------------------

/// FNV-1a 64 fingerprint of a model's architecture and exact parameter
/// bits. Two models agree iff their configs match and every parameter is
/// bit-identical — the same contract a [`ModelPlan`]'s prepacked weights
/// depend on, which is why [`shared_plan`] keys on this rather than on
/// shape alone: two same-shape models with different weights must never
/// share a cached plan (the packed panels *are* the weights).
pub fn model_fingerprint(model: &GnnModel) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    let c = &model.cfg;
    for v in [c.vocab_size, c.hidden, c.classes, c.layers, c.layer_norm as usize] {
        eat(&(v as u64).to_le_bytes());
    }
    for p in &model.params {
        eat(&(p.rows as u64).to_le_bytes());
        eat(&(p.cols as u64).to_le_bytes());
        for v in &p.data {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

static MODEL_PLANS: Mutex<Option<HashMap<u64, Arc<ModelPlan>>>> = Mutex::new(None);
static MODEL_PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static MODEL_PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

/// Distinct live models kept; a serving process holds one or two (current
/// plus the one being reloaded), so a tiny cap bounds stale-entry memory.
const MODEL_PLAN_CAP: usize = 8;

/// Lifetime shared-model-plan-cache `(hits, misses)` for this process.
pub fn model_plan_cache_stats() -> (u64, u64) {
    (MODEL_PLAN_HITS.load(Ordering::Relaxed), MODEL_PLAN_MISSES.load(Ordering::Relaxed))
}

/// One prepacked [`ModelPlan`] shared by every caller holding the same
/// model bits: keyed by [`model_fingerprint`] (plus the dispatch switch,
/// since it changes what the plan packs), memoized process-wide. This is
/// the serving path's plan source — all connections share one immutable
/// `Arc` per loaded model generation, and a hot-reload naturally misses to
/// a fresh plan because the reloaded weights fingerprint differently.
pub fn shared_plan(model: &GnnModel) -> Arc<ModelPlan> {
    // The dispatch flag is part of the key: an empty (dispatch-off) plan
    // must not be served after the flag flips on, and vice versa.
    let key = model_fingerprint(model) ^ if dispatch_enabled() { 0 } else { 1 };
    if let Some(plan) = MODEL_PLANS
        .lock()
        .expect("model plan cache poisoned")
        .as_ref()
        .and_then(|cache| cache.get(&key).cloned())
    {
        MODEL_PLAN_HITS.fetch_add(1, Ordering::Relaxed);
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::counter!("dispatch.model_plan_hits").inc(1);
        }
        return plan;
    }
    MODEL_PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("dispatch.model_plan_misses").inc(1);
    }
    // Built outside the lock: packing touches every FC weight, and a
    // concurrent reload should not serialize behind it. A racing builder
    // produces an identical plan; first insert wins.
    let plan = Arc::new(ModelPlan::build(model));
    let mut guard = MODEL_PLANS.lock().expect("model plan cache poisoned");
    let cache = guard.get_or_insert_with(HashMap::new);
    if cache.len() >= MODEL_PLAN_CAP {
        cache.clear();
    }
    cache.entry(key).or_insert_with(|| plan.clone()).clone()
}

/// Drop every cached kernel plan: the shared model plans *and* the
/// graph-shape strategy cache. Called on model hot-reload so nothing
/// derived from the previous generation's parameters (or its shape
/// population) survives the swap; the next lookups rebuild from the live
/// model. Existing `Arc<ModelPlan>` handles stay valid — invalidation
/// unpins them from the cache, it does not free them under a reader.
pub fn invalidate_plan_caches() {
    if let Some(cache) = MODEL_PLANS.lock().expect("model plan cache poisoned").as_mut() {
        cache.clear();
    }
    if let Some(cache) = PLAN_CACHE.lock().expect("plan cache poisoned").as_mut() {
        cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_mats(rows: usize, inner: usize, cols: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = Tensor::glorot(rows, inner, &mut rng).data;
        // Post-relu-style zeros exercise the skip path.
        for v in a.iter_mut().step_by(3) {
            *v = 0.0;
        }
        let b = Tensor::glorot(inner, cols, &mut rng).data;
        (a, b)
    }

    #[test]
    fn spec_kernels_match_generic_bitwise_for_every_supported_width() {
        for &cols in &SPEC_COLS {
            for &(rows, inner) in &[(1, 1), (3, 7), (4, 64), (5, 65), (9, 130), (12, 13)] {
                let (a, b) = random_mats(rows, inner, cols, 7 + cols as u64);
                let mut generic = vec![0.5f32; rows * cols]; // nonzero: += semantics
                let mut spec = generic.clone();
                matmul_accumulate(&a, rows, inner, &b, cols, &mut generic);
                spec_mm::<false>(cols).unwrap()(&a, rows, inner, &b, &mut spec);
                assert_eq!(spec, generic, "{rows}x{inner}x{cols}");
            }
        }
    }

    #[test]
    fn packed_kernels_match_generic_bitwise() {
        for &cols in &SPEC_COLS {
            let (rows, inner) = (7, 33);
            let (a, b) = random_mats(rows, inner, cols, cols as u64);
            let mut generic = vec![1.0f32; rows * cols];
            let mut packed = generic.clone();
            matmul_accumulate(&a, rows, inner, &b, cols, &mut generic);
            let pm = PackedMatrix::pack(&b, inner, cols);
            matmul_accumulate_packed(&a, rows, &pm, &mut packed);
            assert_eq!(packed, generic, "packed {rows}x{inner}x{cols}");
        }
    }

    #[test]
    fn unsupported_widths_fall_back_to_generic() {
        assert!(spec_mm::<false>(12).is_none());
        assert!(!spec_cols_supported(12));
        let (a, b) = random_mats(5, 9, 12, 3);
        let mut auto = vec![0.0f32; 5 * 12];
        let mut generic = auto.clone();
        matmul_accumulate_auto(&a, 5, 9, &b, 12, &mut auto);
        matmul_accumulate(&a, 5, 9, &b, 12, &mut generic);
        assert_eq!(auto, generic);
    }

    #[test]
    fn rel_buckets_separate_size_and_density() {
        assert_eq!(rel_bucket(10, 0), 0xFF);
        // 1000 nodes, 100 edges: sparse → edge-major.
        let sparse =
            ShapeSig { hidden: 64, classes: 13, layers: 2, rel: [rel_bucket(1000, 100); 3] };
        assert_eq!(plan_from_sig(&sparse).spmm[0], SpmmStrategy::EdgeMajor);
        // 1000 nodes, 2500 edges: real fan-in → CSR gather.
        let dense =
            ShapeSig { hidden: 64, classes: 13, layers: 2, rel: [rel_bucket(1000, 2500); 3] };
        assert_eq!(plan_from_sig(&dense).spmm[0], SpmmStrategy::CsrGather);
        // Tiny graph: edge-major regardless of density.
        let tiny = ShapeSig { hidden: 64, classes: 13, layers: 2, rel: [rel_bucket(10, 40); 3] };
        assert_eq!(plan_from_sig(&tiny).spmm[0], SpmmStrategy::EdgeMajor);
    }

    /// Serializes tests that mutate the process-global plan caches (the
    /// invalidation test clears them; the hit-count tests depend on entries
    /// surviving between two lookups).
    static CACHE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn cache_test_guard() -> std::sync::MutexGuard<'static, ()> {
        CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        use crate::graphdata::GraphData;
        let _serial = cache_test_guard();
        let g = GraphData::from_edge_lists(
            (0..5).collect(),
            [vec![(0, 1), (1, 2), (2, 3), (3, 4)], vec![], vec![]],
        );
        // A hidden width no other test uses → this test owns the signature.
        let (h0, m0) = plan_cache_stats();
        let p1 = plan_for(9973, 13, 2, &g);
        let p2 = plan_for(9973, 13, 2, &g);
        let (h1, m1) = plan_cache_stats();
        assert_eq!(p1, p2);
        assert!(m1 > m0, "first lookup misses");
        assert!(h1 > h0, "second lookup hits");
    }

    #[test]
    fn shared_plans_are_keyed_by_weights_not_shape() {
        use crate::model::GnnConfig;
        let _serial = cache_test_guard();
        let cfg = GnnConfig {
            vocab_size: 16,
            hidden: 8,
            classes: 4,
            layers: 2,
            layer_norm: true,
            seed: 1,
        };
        let a = GnnModel::new(cfg);
        let b = GnnModel::new(GnnConfig { seed: 2, ..cfg });
        // Same architecture, different weights: a shape-keyed cache would
        // hand model b the plan packed from model a's parameters.
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
        let pa = shared_plan(&a);
        let pb = shared_plan(&b);
        assert!(!Arc::ptr_eq(&pa, &pb), "same-shape models must not share a plan");
        // The cached plan must reproduce each model's own unplanned forward
        // bit-for-bit — stale packed weights would diverge here.
        let g = GraphData::from_edge_lists(
            vec![1, 3, 5, 7],
            [vec![(0, 1), (1, 2), (2, 3)], vec![(3, 0)], vec![]],
        );
        let one = std::slice::from_ref(&g);
        assert_eq!(a.infer_batch_planned(&pa, one)[0].logits, a.infer(&g).logits);
        assert_eq!(b.infer_batch_planned(&pb, one)[0].logits, b.infer(&g).logits);
        // Repeat lookups hit, returning the identical Arc.
        let (h0, _) = model_plan_cache_stats();
        assert!(Arc::ptr_eq(&shared_plan(&a), &pa));
        let (h1, _) = model_plan_cache_stats();
        assert!(h1 > h0, "second lookup hits");
    }

    #[test]
    fn invalidation_drops_shared_plans_and_shape_cache() {
        use crate::graphdata::GraphData;
        use crate::model::GnnConfig;
        let _serial = cache_test_guard();
        let m = GnnModel::new(GnnConfig {
            vocab_size: 16,
            hidden: 8,
            classes: 4,
            layers: 2,
            layer_norm: true,
            seed: 3,
        });
        let p1 = shared_plan(&m);
        invalidate_plan_caches();
        let (_, miss0) = model_plan_cache_stats();
        let p2 = shared_plan(&m);
        let (_, miss1) = model_plan_cache_stats();
        assert!(miss1 > miss0, "invalidated model plan must rebuild");
        assert!(!Arc::ptr_eq(&p1, &p2), "rebuilt plan is a fresh Arc");
        // The graph-shape strategy cache is dropped too: the same unique
        // signature misses again after invalidation.
        let g = GraphData::from_edge_lists(
            (0..5).collect(),
            [vec![(0, 1), (1, 2), (2, 3), (3, 4)], vec![], vec![]],
        );
        let _ = plan_for(9941, 13, 2, &g);
        invalidate_plan_caches();
        let (_, shape_miss0) = plan_cache_stats();
        let _ = plan_for(9941, 13, 2, &g);
        let (_, shape_miss1) = plan_cache_stats();
        assert!(shape_miss1 > shape_miss0, "cleared shape cache misses on re-lookup");
    }
}
