//! Kernel dispatch with prepacked weights ("JIT-lite").
//!
//! The blocked kernels in [`crate::tensor`] are fully generic over matrix
//! shape and compiled for the portable baseline ISA. This module runs the
//! same arithmetic faster without changing a single bit of output:
//!
//! * **Strip kernels per ISA tier** ([`matmul_accumulate_auto`]) — one
//!   width-agnostic matmul body per operand layout (row-major or packed),
//!   instantiated once per ISA tier the host may have (baseline, AVX2,
//!   AVX-512F). `cols` is a runtime stride; the register strips are
//!   compile-time: 4-row × `JB`-column accumulator blocks (`JB` = 64, 32
//!   or 16 by tier), then one strip for the remaining multiple of 8
//!   columns, then a sub-8 tail, each held in registers across the whole
//!   `k` sweep (the generic kernel re-loads and re-stores four output rows
//!   on every `k`).
//!   Every output element still accumulates its terms in exactly the
//!   generic kernel's order — same zero-skip conditions, ascending `k` — so
//!   results are bit-identical at every width and every tier.
//! * **Prepacked weights** ([`ModelPlan`]) — at model load (or once per
//!   optimizer step in training), each FC head weight is packed into a
//!   16-wide column-panel layout ([`PackedMatrix`]) so the strip kernels
//!   stream it sequentially, and each RGCN layer weight's transpose is
//!   materialized once for the backward pass — inference and training stop
//!   re-striding weights per call.
//! * **Per-relation SpMM strategy** ([`SpmmStrategy`]) — picked from cheap
//!   degree statistics cached on [`GraphData`]: the CSR row-major gather for
//!   relations with real fan-in, an edge-major sweep for sparse/tiny
//!   relations where walking `n` row pointers costs more than streaming `e`
//!   edges. Both visit each destination's incoming edges in original
//!   edge-list order, so they are bit-identical. (A dense-matmul fallback
//!   and a CSC-staged forward were evaluated and rejected: both reorder
//!   per-destination sums and would break the bit-identity contract.) The
//!   per-edge axpy runs in 8-lane chunks plus a scalar tail at the host's
//!   tier.
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
// Width-agnostic strip kernels
// ---------------------------------------------------------------------------

/// Column-panel width of the packed weight layout: 16 f32 lanes — one
/// 512-bit vector register, or two 256-bit ones.
const PANEL: usize = 16;

/// Where the `b` operand's row `k`, columns `j..`, live. Both layouts hand
/// out contiguous runs of `RUN` floats (`RUN = 0` means the whole strip is
/// one run), so one strip kernel serves both.
trait Layout {
    const RUN: usize;
    fn offset(inner: usize, cols: usize, k: usize, j: usize) -> usize;
}

/// Plain row-major `inner × cols`: a strip of any width is one run.
struct RowMajor;

impl Layout for RowMajor {
    const RUN: usize = 0;
    #[inline(always)]
    fn offset(_inner: usize, cols: usize, k: usize, j: usize) -> usize {
        k * cols + j
    }
}

/// [`PackedMatrix`] panels: `PANEL`-column panels, `k`-major inside each.
/// Runs are 8 floats, so `j` must be 8-aligned and a run never crosses a
/// panel row.
struct Panels;

impl Layout for Panels {
    const RUN: usize = 8;
    #[inline(always)]
    fn offset(inner: usize, _cols: usize, k: usize, j: usize) -> usize {
        (j / PANEL) * (inner * PANEL) + k * PANEL + (j % PANEL)
    }
}

/// One operand set of `out += a @ b`: `a` is `rows × inner` row-major, `b`
/// is `inner × cols` in layout `L`, `out` is `rows × cols` row-major.
struct Mm<'a> {
    a: &'a [f32],
    inner: usize,
    b: &'a [f32],
    cols: usize,
}

impl Mm<'_> {
    /// The `R` values of `a`'s column `k` for rows `i..i + R`.
    #[inline(always)]
    fn a_col<const R: usize>(&self, i: usize, k: usize) -> [f32; R] {
        std::array::from_fn(|r| self.a[(i + r) * self.inner + k])
    }

    /// `R` rows × `W` columns (a compile-time strip: a multiple of 8, or
    /// under 8 for the tail) at column `j0`, accumulated in registers across
    /// the whole `k` sweep and written back once. Per output element the
    /// arithmetic is exactly [`matmul_accumulate`]'s: the existing value
    /// first, then separate multiply and add in ascending `k`, skipping `k`
    /// only when all `R` values of `a` are zero (its 4-row and 1-row tests).
    #[inline(always)]
    fn strip<L: Layout, const R: usize, const W: usize>(
        &self,
        i: usize,
        out: &mut [f32],
        j0: usize,
    ) {
        let run = if L::RUN == 0 { W } else { L::RUN.min(W) };
        let mut acc = [[0.0f32; W]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&out[(i + r) * self.cols + j0..][..W]);
        }
        for k in 0..self.inner {
            let av = self.a_col::<R>(i, k);
            if av.iter().all(|&v| v == 0.0) {
                continue; // post-relu activations are often zero
            }
            for p in (0..W).step_by(run) {
                let off = L::offset(self.inner, self.cols, k, j0 + p);
                for (j, &bv) in self.b[off..off + run].iter().enumerate() {
                    for (row, &x) in acc.iter_mut().zip(&av) {
                        row[p + j] += x * bv;
                    }
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            out[(i + r) * self.cols + j0..][..W].copy_from_slice(row);
        }
    }

    /// Rows `i..i + R` across every column: `JB`-wide strips, then one
    /// strip of the remaining multiple of 8 (8 to `JB − 8` wide), then the
    /// sub-8 tail as one strip of its exact width.
    #[inline(always)]
    fn rows<L: Layout, const R: usize, const JB: usize>(&self, i: usize, out: &mut [f32]) {
        let mut j0 = 0;
        while j0 + JB <= self.cols {
            self.strip::<L, R, JB>(i, out, j0);
            j0 += JB;
        }
        // What is left is narrower than `JB`: its multiple-of-8 part in one
        // strip (one `k` sweep, not one per power of two), then the rest.
        match (self.cols - j0) / 8 {
            0 => {}
            1 => self.strip::<L, R, 8>(i, out, j0),
            2 => self.strip::<L, R, 16>(i, out, j0),
            3 => self.strip::<L, R, 24>(i, out, j0),
            4 => self.strip::<L, R, 32>(i, out, j0),
            5 => self.strip::<L, R, 40>(i, out, j0),
            6 => self.strip::<L, R, 48>(i, out, j0),
            _ => self.strip::<L, R, 56>(i, out, j0),
        }
        j0 += (self.cols - j0) / 8 * 8;
        match self.cols - j0 {
            0 => {}
            1 => self.strip::<L, R, 1>(i, out, j0),
            2 => self.strip::<L, R, 2>(i, out, j0),
            3 => self.strip::<L, R, 3>(i, out, j0),
            4 => self.strip::<L, R, 4>(i, out, j0),
            5 => self.strip::<L, R, 5>(i, out, j0),
            6 => self.strip::<L, R, 6>(i, out, j0),
            7 => self.strip::<L, R, 7>(i, out, j0),
            _ => unreachable!("strips leave fewer than 8 columns"),
        }
    }
}

/// The one matmul body: 4-row blocks, then single rows, each swept in
/// register strips. `JB` is the widest strip whose 4 × `JB` accumulator
/// fits the tier's vector register file (AVX-512: 4 × 64 floats in 16 of 32
/// zmm; AVX2: 4 × 32 in all 16 ymm, `b` reloads from L1; baseline: 16).
/// `inline(always)` so the ISA wrappers below recompile it at their vector
/// width; LLVM only widens the independent column lanes and never contracts
/// to FMA, so every tier is bit-identical to [`matmul_accumulate`].
#[inline(always)]
fn mm_body<L: Layout, const JB: usize>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), rows * inner);
    debug_assert_eq!(out.len(), rows * cols);
    let mm = Mm { a, inner, b, cols };
    let full = rows / 4 * 4;
    for i in (0..full).step_by(4) {
        mm.rows::<L, 4, JB>(i, out);
    }
    for i in full..rows {
        mm.rows::<L, 1, JB>(i, out);
    }
}

fn mm_base<L: Layout>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    mm_body::<L, 16>(a, rows, inner, b, cols, out)
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mm_avx2<L: Layout>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    mm_body::<L, 32>(a, rows, inner, b, cols, out)
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mm_avx512<L: Layout>(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    mm_body::<L, 64>(a, rows, inner, b, cols, out)
}

/// Vector ISA detected at runtime, cached: 1 = crate baseline, 2 = AVX2,
/// 3 = AVX-512F (0 = not probed yet). This is the "JIT" half of JIT-lite:
/// the binary is compiled for a portable baseline, but dispatch hands out
/// kernels recompiled for whatever the host actually has.
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

type MmFn = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

/// The layout-`L` kernel at ISA tier `tier`, which must not exceed the
/// host's [`isa_level`]: callers pass `isa_level()` itself or a
/// [`KernelTier`], whose private tier only [`host_kernel_tiers`] creates.
fn mm_at<L: Layout>(tier: u8) -> MmFn {
    debug_assert!(tier <= isa_level());
    // SAFETY (both arms): `tier <= isa_level()`, and `isa_level` returned
    // 3 or 2 only after detecting AVX-512F or AVX2 on this CPU.
    #[cfg(target_arch = "x86_64")]
    match tier {
        3 => return |a, r, i, b, c, o| unsafe { mm_avx512::<L>(a, r, i, b, c, o) },
        2 => return |a, r, i, b, c, o| unsafe { mm_avx2::<L>(a, r, i, b, c, o) },
        _ => {}
    }
    mm_base::<L>
}

/// `out += a @ b` (row-major `b`), through the strip kernel at the host's
/// best ISA tier when dispatch is on, the generic blocked kernel otherwise.
/// Always bit-identical to [`matmul_accumulate`].
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
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::counter!("dispatch.matmul_spec").inc(1);
        }
        return mm_at::<RowMajor>(isa_level())(a, rows, inner, b, cols, out);
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
/// width. The strip kernels stream a panel sequentially instead of striding
/// `cols × 4` bytes per `k`. Values are unchanged — only the layout moves —
/// so packed products stay bit-identical.
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    pub inner: usize,
    pub cols: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Pack a row-major `inner × cols` matrix.
    pub fn pack(b: &[f32], inner: usize, cols: usize) -> PackedMatrix {
        assert_eq!(b.len(), inner * cols, "shape/data mismatch");
        let panels = cols.div_ceil(PANEL);
        let mut data = vec![0.0f32; panels * inner * PANEL];
        for (k, row) in b.chunks_exact(cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                data[Panels::offset(inner, cols, k, j)] = v;
            }
        }
        PackedMatrix { inner, cols, data }
    }
}

/// `out += a @ b` where `b` was packed with [`PackedMatrix::pack`].
pub fn matmul_accumulate_packed(a: &[f32], rows: usize, pm: &PackedMatrix, out: &mut [f32]) {
    let _f = irnuma_obs::profile_frame!("kernel.matmul_packed");
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("dispatch.matmul_packed").inc(1);
    }
    KernelTier(isa_level()).matmul_packed(a, rows, pm, out)
}

/// One ISA tier's kernel instantiations (1 = baseline, 2 = AVX2, 3 =
/// AVX-512F). Dispatch always runs the host's best tier; this handle lets
/// the equivalence tests call every tier the host can run directly.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTier(u8);

/// Every kernel tier this host can run, baseline first.
#[doc(hidden)]
pub fn host_kernel_tiers() -> Vec<KernelTier> {
    (1..=isa_level()).map(KernelTier).collect()
}

impl KernelTier {
    /// `out += a @ b`, row-major `b`.
    pub fn matmul(
        self,
        a: &[f32],
        rows: usize,
        inner: usize,
        b: &[f32],
        cols: usize,
        out: &mut [f32],
    ) {
        mm_at::<RowMajor>(self.0)(a, rows, inner, b, cols, out)
    }

    /// `out += a @ b`, packed `b`.
    pub fn matmul_packed(self, a: &[f32], rows: usize, pm: &PackedMatrix, out: &mut [f32]) {
        mm_at::<Panels>(self.0)(a, rows, pm.inner, &pm.data, pm.cols, out)
    }

    /// `out += w * src` over `out.len()` lanes.
    pub fn axpy(self, out: &mut [f32], w: f32, src: &[f32]) {
        axpy_at(self.0)(out, w, src)
    }
}

/// One parameter's prepacked forms on a [`ModelPlan`].
#[derive(Debug, Clone)]
pub struct PackedParam {
    /// Column-panel layout for the forward product (FC head weights only).
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
    /// products go through the row-major strip kernels directly, so
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
                fwd: Some(PackedMatrix::pack(&p.data, p.rows, p.cols)),
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

/// The scalar-order axpy the dispatch-off path runs.
fn axpy_dyn(out: &mut [f32], w: f32, src: &[f32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o += w * v;
    }
}

/// `out += w * src` in 8-lane chunks plus a scalar tail, re-instantiated by
/// the ISA wrappers below. Per-lane multiply-then-add: wider vectors change
/// how many lanes run per instruction, never the per-element arithmetic, so
/// every tier is bit-identical to [`axpy_dyn`].
#[inline(always)]
fn axpy_body(out: &mut [f32], w: f32, src: &[f32]) {
    let src = &src[..out.len()];
    let mut outs = out.chunks_exact_mut(8);
    let mut srcs = src.chunks_exact(8);
    for (o, s) in (&mut outs).zip(&mut srcs) {
        let o: &mut [f32; 8] = o.try_into().expect("8 lanes");
        let s: &[f32; 8] = s.try_into().expect("8 lanes");
        for (o, &v) in o.iter_mut().zip(s) {
            *o += w * v;
        }
    }
    for (o, &v) in outs.into_remainder().iter_mut().zip(srcs.remainder()) {
        *o += w * v;
    }
}

isa_wrap!(axpy_base, axpy_avx2, axpy_avx512, axpy_body, (out: &mut [f32], w: f32, src: &[f32]));

/// The standalone axpy at ISA tier `tier` — the body the SpMM loops below
/// inline, exposed through [`KernelTier::axpy`] (same soundness story as
/// [`mm_at`]).
fn axpy_at(tier: u8) -> AxpyFn {
    debug_assert!(tier <= isa_level());
    // SAFETY (both arms): as in `mm_at`, the tier was detected on this CPU.
    #[cfg(target_arch = "x86_64")]
    match tier {
        3 => return |out, w, src| unsafe { axpy_avx512(out, w, src) },
        2 => return |out, w, src| unsafe { axpy_avx2(out, w, src) },
        _ => {}
    }
    axpy_base
}

/// Both SpMM directions over one relation, with the per-edge axpy inlined.
/// Forward: `out[dst] = Σ w_e · x[src_e]`, overwriting `out[..n*d]`, with
/// `rel.rows` destination-grouped. Backward: `out[src] += Σ w_e · x[dst_e]`,
/// accumulating, with `rel.rows` the source-grouped CSC mirror. Both
/// strategies visit each output row's terms in original edge order, so they
/// are bit-identical.
#[inline(always)]
fn spmm_body<const FORWARD: bool>(
    strategy: SpmmStrategy,
    rel: RelView<'_>,
    x: &[f32],
    n: usize,
    d: usize,
    out: &mut [f32],
    axpy: impl Fn(&mut [f32], f32, &[f32]),
) {
    match strategy {
        SpmmStrategy::CsrGather => {
            for i in 0..n {
                let (nbrs, ws) = rel.rows.row(i);
                let row = &mut out[i * d..(i + 1) * d];
                if FORWARD {
                    row.fill(0.0);
                }
                for (&j, &w) in nbrs.iter().zip(ws) {
                    axpy(row, w, &x[j as usize * d..(j as usize + 1) * d]);
                }
            }
        }
        SpmmStrategy::EdgeMajor => {
            if FORWARD {
                out[..n * d].fill(0.0);
            }
            for (&(s, t), &w) in rel.edges.iter().zip(rel.norm) {
                let (to, from) = if FORWARD { (t, s) } else { (s, t) };
                let (to, from) = (to as usize, from as usize);
                axpy(&mut out[to * d..(to + 1) * d], w, &x[from * d..(from + 1) * d]);
            }
        }
    }
}

#[inline(always)]
fn spmm_vec(
    forward: bool,
    strategy: SpmmStrategy,
    rel: RelView<'_>,
    x: &[f32],
    n: usize,
    d: usize,
    out: &mut [f32],
) {
    if forward {
        spmm_body::<true>(strategy, rel, x, n, d, out, axpy_body)
    } else {
        spmm_body::<false>(strategy, rel, x, n, d, out, axpy_body)
    }
}

isa_wrap!(
    spmm_base,
    spmm_avx2,
    spmm_avx512,
    spmm_vec,
    (forward: bool, strategy: SpmmStrategy, rel: RelView<'_>, x: &[f32], n: usize, d: usize, out: &mut [f32])
);

/// One SpMM at the host's best tier (the edge loop is instantiated per
/// tier, so the axpy inlines instead of costing a call per edge), or over
/// the scalar axpy when dispatch is off.
fn spmm(
    forward: bool,
    strategy: SpmmStrategy,
    rel: RelView<'_>,
    x: &[f32],
    n: usize,
    d: usize,
    out: &mut [f32],
) {
    if irnuma_obs::telemetry_enabled() {
        match strategy {
            SpmmStrategy::CsrGather => irnuma_obs::counter!("dispatch.spmm_csr").inc(1),
            SpmmStrategy::EdgeMajor => irnuma_obs::counter!("dispatch.spmm_edge").inc(1),
        }
    }
    if !dispatch_enabled() {
        return match forward {
            true => spmm_body::<true>(strategy, rel, x, n, d, out, axpy_dyn),
            false => spmm_body::<false>(strategy, rel, x, n, d, out, axpy_dyn),
        };
    }
    // SAFETY (both arms): `isa_level` detected the feature on this CPU.
    #[cfg(target_arch = "x86_64")]
    match isa_level() {
        3 => return unsafe { spmm_avx512(forward, strategy, rel, x, n, d, out) },
        2 => return unsafe { spmm_avx2(forward, strategy, rel, x, n, d, out) },
        _ => {}
    }
    spmm_base(forward, strategy, rel, x, n, d, out)
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
    spmm(true, strategy, rel, h, n, d, out)
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
    spmm(false, strategy, rel, term, n, d, out)
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

    /// Glorot matrices with zero-heavy `a`: every third entry, every fifth
    /// column and all of rows 4..8 are zero, so both the 4-row and the
    /// 1-row skip fire, and some outputs see no nonzero term at all.
    fn random_mats(rows: usize, inner: usize, cols: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = Tensor::glorot(rows, inner, &mut rng).data;
        let inner1 = inner.max(1);
        for (idx, v) in a.iter_mut().enumerate() {
            if idx % 3 == 0 || (idx % inner1) % 5 == 0 || (4..8).contains(&(idx / inner1)) {
                *v = 0.0;
            }
        }
        let b = Tensor::glorot(inner, cols, &mut rng).data;
        (a, b)
    }

    /// Awkward (rows, inner) shapes: empty operands, row counts around the
    /// 4-row block, inner sizes around nothing in particular.
    const SHAPES: [(usize, usize); 6] = [(0, 5), (1, 1), (3, 7), (4, 0), (5, 65), (9, 70)];

    #[test]
    fn spec_kernels_match_generic_bitwise_for_every_supported_width() {
        for tier in host_kernel_tiers() {
            for cols in 1..=300 {
                for (rows, inner) in SHAPES {
                    let (a, b) = random_mats(rows, inner, cols, cols as u64);
                    // -0.0 start: a kernel that adds a skipped zero product
                    // would flip it to +0.0.
                    let mut generic = vec![-0.0f32; rows * cols];
                    let mut strip = generic.clone();
                    matmul_accumulate(&a, rows, inner, &b, cols, &mut generic);
                    tier.matmul(&a, rows, inner, &b, cols, &mut strip);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&strip), bits(&generic), "{tier:?} {rows}x{inner}x{cols}");
                }
            }
        }
    }

    #[test]
    fn packed_kernels_match_generic_bitwise() {
        for tier in host_kernel_tiers() {
            for cols in 1..=300 {
                for (rows, inner) in SHAPES {
                    let (a, b) = random_mats(rows, inner, cols, 7 + cols as u64);
                    let mut generic = vec![-0.0f32; rows * cols];
                    let mut packed = generic.clone();
                    matmul_accumulate(&a, rows, inner, &b, cols, &mut generic);
                    let pm = PackedMatrix::pack(&b, inner, cols);
                    tier.matmul_packed(&a, rows, &pm, &mut packed);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&packed), bits(&generic), "{tier:?} {rows}x{inner}x{cols}");
                }
            }
        }
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
