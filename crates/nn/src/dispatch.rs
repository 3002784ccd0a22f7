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
//! * **Per-relation SpMM strategy** ([`SpmmStrategy::for_relation`]) —
//!   picked at each SpMM call from the relation's node and edge counts: the
//!   CSR row-major gather for relations with real fan-in, an edge-major
//!   sweep for sparse/tiny relations where walking `n` row pointers costs
//!   more than streaming `e` edges. Both visit each destination's incoming
//!   edges in original edge-list order, so they are bit-identical. (A
//!   dense-matmul fallback and a CSC-staged forward were evaluated and
//!   rejected: both reorder per-destination sums and would break the
//!   bit-identity contract.) The per-edge axpy runs in 8-lane chunks plus a
//!   scalar tail at the host's tier.
//!
//! This is the only kernel path: every host runs its best tier (non-x86
//! hosts run the baseline strip kernels). The generic
//! [`tensor::matmul_accumulate`] and the autograd tape stay as test
//! oracles: every tier [`host_kernel_tiers`] returns is checked against
//! them, and against scalar reference loops, bit for bit
//! (`tests/dispatch_equivalence.rs`, `tests/infer_equivalence.rs`).

use crate::graphdata::{Csr, NUM_RELATIONS};
use crate::model::{GnnModel, ParamLayout};
use crate::tensor::{self, Tensor};
use std::sync::atomic::{AtomicU8, Ordering};

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
    /// arithmetic is exactly [`tensor::matmul_accumulate`]'s: the existing
    /// value first, then separate multiply and add in ascending `k`,
    /// skipping `k` only when all `R` values of `a` are zero (its 4-row and
    /// 1-row tests).
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
/// to FMA, so every tier is bit-identical to [`tensor::matmul_accumulate`].
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
/// best ISA tier. Bit-identical to [`tensor::matmul_accumulate`].
pub fn matmul_accumulate_auto(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    let _f = irnuma_obs::profile_frame!("kernel.matmul");
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("dispatch.matmul_spec").inc(1);
    }
    KernelTier(isa_level()).matmul(a, rows, inner, b, cols, out)
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

/// `isa_wrap!(name, body, (args))` defines `fn name(tier, args)`: `body`
/// instantiated once per ISA tier (baseline, AVX2, AVX-512F) and run at
/// `tier`, which must not exceed the host's [`isa_level`] (as in [`mm_at`]).
macro_rules! isa_wrap {
    ($name:ident, $body:ident, ($($arg:ident : $ty:ty),*)) => {
        #[inline]
        #[allow(clippy::too_many_arguments)]
        fn $name(tier: u8, $($arg: $ty),*) {
            debug_assert!(tier <= isa_level());
            fn base($($arg: $ty),*) {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512($($arg: $ty),*) {
                    $body($($arg),*)
                }
                // SAFETY (both arms): as in `mm_at`, `isa_level` detected
                // the feature on this CPU.
                match tier {
                    3 => return unsafe { avx512($($arg),*) },
                    2 => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
            }
            base($($arg),*)
        }
    };
}

isa_wrap!(vadd_at, vadd_body, (out: &mut [f32], src: &[f32]));
isa_wrap!(bias_relu_at, bias_relu_body, (acc: &[f32], bias: &[f32], out: &mut [f32]));

/// `out += src`, elementwise, at the widest ISA this CPU runs.
#[inline]
pub fn vec_add_assign(out: &mut [f32], src: &[f32]) {
    vadd_at(isa_level(), out, src)
}

/// Bias add + ReLU over `n` rows (`acc`/`out` are `n·d` long, `bias` is `d`).
#[inline]
pub fn bias_relu_rows(acc: &[f32], bias: &[f32], out: &mut [f32]) {
    bias_relu_at(isa_level(), acc, bias, out)
}

/// One row's layer-norm statistics in the tape's exact order: `mu` is the
/// strict left-to-right sum over the row, `inv` the matching variance
/// reciprocal. Kept `inline(always)` so [`ln_pool_body`] can interleave four
/// independent rows' chains without touching any single row's order; the
/// fused layer-norm backward recomputes its statistics through it too.
#[inline(always)]
pub(crate) fn ln_row_stats(x: &[f32], d: usize, eps: f32) -> (f32, f32) {
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
        // Seeded with -0.0, as `Iterator::sum` is: a +0.0 seed would turn
        // an all-(-0.0) row's mean into +0.0 and flip signed zeros below.
        let (mut s0, mut s1, mut s2, mut s3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
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
    ln_pool_at,
    ln_pool_body,
    (h: &[f32], n: usize, gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32], pooled: &mut [f32])
);

/// Fused layer norm + mean-pool accumulation over `n` rows (`h`/`out` are
/// `n·d`; `pooled` is `d` and receives the ascending-row sum of normalized
/// rows — the caller divides by `n`). Bit-identical to the scalar per-row
/// loop at every ISA level.
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
    ln_pool_at(isa_level(), h, n, gamma, beta, eps, out, pooled)
}

// ---------------------------------------------------------------------------
// Prepacked weights
// ---------------------------------------------------------------------------

/// A weight matrix repacked into 16-wide column panels: panel `p` holds
/// columns `p*16 .. (p+1)*16` for all `inner` rows contiguously
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
/// AVX-512F). Production calls always run the host's best tier; this handle
/// lets the equivalence tests call every tier the host can run directly.
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
        axpy_at(self.0, out, w, src)
    }

    /// [`vec_add_assign`] at this tier.
    pub fn vec_add_assign(self, out: &mut [f32], src: &[f32]) {
        vadd_at(self.0, out, src)
    }

    /// [`bias_relu_rows`] at this tier.
    pub fn bias_relu_rows(self, acc: &[f32], bias: &[f32], out: &mut [f32]) {
        bias_relu_at(self.0, acc, bias, out)
    }

    /// [`ln_pool_rows`] at this tier.
    #[allow(clippy::too_many_arguments)]
    pub fn ln_pool_rows(
        self,
        h: &[f32],
        n: usize,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
        pooled: &mut [f32],
    ) {
        ln_pool_at(self.0, h, n, gamma, beta, eps, out, pooled)
    }

    /// [`spmm_forward`] at this tier.
    pub fn spmm_forward(
        self,
        strategy: SpmmStrategy,
        rel: RelView<'_>,
        h: &[f32],
        n: usize,
        d: usize,
        out: &mut [f32],
    ) {
        spmm_at(self.0, true, strategy, rel, h, n, d, out)
    }

    /// [`spmm_backward`] at this tier.
    pub fn spmm_backward(
        self,
        strategy: SpmmStrategy,
        rel: RelView<'_>,
        term: &[f32],
        n: usize,
        d: usize,
        out: &mut [f32],
    ) {
        spmm_at(self.0, false, strategy, rel, term, n, d, out)
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
/// backward call stops re-striding them.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    packed: Vec<Option<PackedParam>>,
}

impl ModelPlan {
    /// Build the inference plan: panel-pack the FC head weights, whose
    /// forward products are 1-row (pooled features) — the shape where the
    /// packed kernels beat streaming the row-major weight. The n-row layer
    /// products go through the row-major strip kernels directly, so
    /// packing them would only add build cost.
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
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::counter!("dispatch.plan_builds").inc(1);
        }
        let d = model.cfg.hidden;
        let lay = model.layout();
        if training {
            for l in 0..model.cfg.layers {
                let w_self = ParamLayout::w_self(l);
                let slots = packed.iter_mut().enumerate().skip(w_self).take(1 + NUM_RELATIONS);
                for (idx, slot) in slots {
                    let p = &model.params[idx];
                    debug_assert_eq!((p.rows, p.cols), (d, d));
                    let mut t = vec![0.0f32; p.data.len()];
                    tensor::transpose_into(&p.data, p.rows, p.cols, &mut t);
                    *slot = Some(PackedParam { fwd: None, bwd_t: Some(t) });
                }
            }
        }
        for idx in [lay.fc1, lay.fc2] {
            let p = &model.params[idx];
            packed[idx] = Some(PackedParam {
                fwd: Some(PackedMatrix::pack(&p.data, p.rows, p.cols)),
                bwd_t: None,
            });
        }
        ModelPlan { packed }
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

impl SpmmStrategy {
    /// The strategy for one relation with `edges` edges over an `n`-node
    /// graph: edge-major for sparse relations (`2·edges < n`) and tiny
    /// graphs (`n < 64`), CSR gather otherwise — and CSR gather for an empty
    /// relation.
    pub fn for_relation(n: usize, edges: usize) -> SpmmStrategy {
        if edges > 0 && (2 * edges < n || n < 64) {
            SpmmStrategy::EdgeMajor
        } else {
            SpmmStrategy::CsrGather
        }
    }
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

/// `out += w * src` in 8-lane chunks plus a scalar tail, re-instantiated by
/// the ISA wrappers below. Per-lane multiply-then-add: wider vectors change
/// how many lanes run per instruction, never the per-element arithmetic, so
/// every tier is bit-identical to the scalar `o += w * v` loop.
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

// The standalone axpy — the body the SpMM loops below inline, exposed
// through [`KernelTier::axpy`].
isa_wrap!(axpy_at, axpy_body, (out: &mut [f32], w: f32, src: &[f32]));

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
                    axpy_body(row, w, &x[j as usize * d..(j as usize + 1) * d]);
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
                axpy_body(&mut out[to * d..(to + 1) * d], w, &x[from * d..(from + 1) * d]);
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
        spmm_body::<true>(strategy, rel, x, n, d, out)
    } else {
        spmm_body::<false>(strategy, rel, x, n, d, out)
    }
}

// The edge loop is instantiated per tier, so the axpy inlines instead of
// costing a call per edge.
isa_wrap!(
    spmm_at,
    spmm_vec,
    (forward: bool, strategy: SpmmStrategy, rel: RelView<'_>, x: &[f32], n: usize, d: usize, out: &mut [f32])
);

/// One SpMM at the host's best tier.
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
    spmm_at(isa_level(), forward, strategy, rel, x, n, d, out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::matmul_accumulate;
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
    fn strategy_switches_at_the_size_and_density_boundaries() {
        use SpmmStrategy::{CsrGather, EdgeMajor};
        // Tiny graphs are edge-major at any density; from 64 nodes up only
        // sparse relations (2e < n) are. Empty relations take the CSR gather.
        for (n, edges, want) in [
            (63, 31, EdgeMajor),
            (63, 32, EdgeMajor),
            (63, 500, EdgeMajor),
            (64, 31, EdgeMajor),
            (64, 32, CsrGather),
            (65, 32, EdgeMajor),
            (65, 33, CsrGather),
            (63, 0, CsrGather),
            (1000, 0, CsrGather),
        ] {
            assert_eq!(SpmmStrategy::for_relation(n, edges), want, "n={n} e={edges}");
        }
    }
}
