//! BLIS-style packed, register-blocked matrix-multiply core.
//!
//! Layering (innermost first):
//!
//! - **microkernel** — an `MR x NR` register tile accumulated over a packed
//!   `k`-slice: a rank-1 broadcast update per step with unit-stride loads
//!   from both packed panels. The tile is chosen per instruction set —
//!   `16 x 8` in `zmm` registers with AVX-512, `8 x 4` in `ymm` registers
//!   with AVX, `8 x 4` left to the auto-vectorizer elsewhere — always as
//!   separate multiply and add, never FMA (see the determinism contract).
//!   A SIMD microkernel writes a whole tile of `C` back itself, from the
//!   registers it accumulated in; tiles cut by the edge of `C` or, under
//!   `lower`, by its diagonal go through the masked scalar `store_tile`.
//! - **packing** — `A` is repacked into `MR`-row panels, the `B` operand of
//!   `C ← A Bᵀ` into `NR`-row panels (`pack_panels`). Panels are
//!   zero-padded in the `m`/`n` direction only, never in `k`, so padded
//!   lanes contribute exact zeros and edge tiles run the same microkernel
//!   as full tiles.
//! - **cache blocking** — `KC x NC` blocks of packed `B` and `MC x KC`
//!   blocks of packed `A` keep the working set resident while the macro
//!   loops sweep the `C` tile grid.
//!
//! One driver (`gemm_tiled`) is generic over the tile; `gemm_packed`
//! detects the CPU once per call and enters the copy of the driver
//! compiled for that instruction set, so packing, microkernel and
//! writeback all run at the host's vector width. Detection is the only
//! selector: there is no option, environment variable or cargo feature,
//! and [`kernel_name`] says which tile a run used.
//!
//! Packing buffers live in a thread-local arena (`PACK_BUFS`), 64-byte
//! aligned so a packed `k`-slice never straddles a cache line, and
//! steady-state factorization does zero packing allocation after warm-up.
//!
//! # Determinism contract
//!
//! The engines' bitwise parity tests (Sequential vs Smp vs Dist) rely on a
//! per-entry rounding contract: **one chain per [`NB`]-aligned
//! `k`-segment**. The shared dimension is cut at every multiple of
//! [`NB`] (`chol::NB`, the factorization's panel width), and for each
//! output entry `C[i][j]` the segments contribute in ascending order, each
//! as
//!
//! ```text
//! acc = Σ_{l in the segment, ascending} A[i][l] * B[j][l]   (one chain from +0.0)
//! C[i][j] = C[i][j] + alpha * acc
//! ```
//!
//! So one call with `k = q·NB + t` leaves exactly the bits of its `q + 1`
//! calls on consecutive `NB`-column slices of `A` and `B`: the blocked
//! Cholesky updates a panel with every panel left of it, and the Schur
//! block with every pivot column, in one call each, and gets the bits of
//! a panel-by-panel sweep. The chain for an entry never crosses entries,
//! so the result is independent of which tile the entry lands in and of
//! how callers slice the output into row/column chunks. **The tile shape
//! is a property of the instruction set; the chain is not**: every
//! microkernel runs the scalar chain above in each lane, so AVX-512, AVX
//! and portable hosts produce the same bits and a factor computed on one
//! can be compared with a golden file captured on another. That is also
//! why the wider kernels still round the product before adding it — a
//! fused multiply-add rounds once and would fork the bits by host (lint
//! R4). [`KC`] is a multiple of [`NB`], so a cache block never cuts a
//! segment. Changing [`NB`], the accumulation order or the writeback
//! formula breaks cross-engine bitwise parity.
//!
//! A 512-bit tile is not always the faster one: an `m x n` update is
//! rounded up to whole tiles, so fronts much smaller than `16 x 8` pay
//! for padded lanes, and some older AVX-512 parts lower their clock under
//! sustained 512-bit arithmetic. On the hosts measured the wide tile wins
//! from fronts of a few dozen rows upward and is a wash below; the choice
//! is left to detection rather than a knob because a knob would have to
//! be tuned per host and would not change a single bit of the result.

use crate::chol::NB;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::cell::RefCell;

/// Cache-block size along the shared `k` dimension: a multiple of
/// [`NB`], so a block holds whole `k`-segments (see the determinism
/// contract above).
pub const KC: usize = 5 * NB;
/// Cache-block rows of packed `A` (a multiple of every tile's `MR`).
pub const MC: usize = 64;
/// Cache-block columns of packed `B` (a multiple of every tile's `NR`).
pub const NC: usize = 512;

/// The instruction sets the kernels of this crate are compiled for, in
/// ascending vector width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    Portable,
    Avx,
    Avx512,
}

impl Isa {
    /// Every instruction set this host can run, narrowest first (the
    /// parity tests walk this list).
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        let all = [Isa::Portable, Isa::Avx, Isa::Avx512];
        all.into_iter().filter(|&i| i <= detect()).collect()
    }
}

#[cfg(test)]
thread_local! {
    // The instruction set a test pins this thread's kernels to (`on_isa`).
    static PINNED: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with every kernel of this crate on `isa` (which the host must
/// support) on this thread, so a test can hold a whole factorization on
/// one instruction set against another.
#[cfg(test)]
pub(crate) fn on_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    struct Unpin;
    impl Drop for Unpin {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(None));
        }
    }
    assert!(isa <= detect(), "{isa:?} is not on this host");
    PINNED.with(|p| p.set(Some(isa)));
    let _unpin = Unpin;
    f()
}

/// The instruction set the kernels run on: the widest the host supports
/// (or, in tests, the one [`on_isa`] pinned).
pub(crate) fn isa() -> Isa {
    #[cfg(test)]
    if let Some(isa) = PINNED.with(|p| p.get()) {
        return isa;
    }
    detect()
}

/// The widest instruction set the host supports (`std` caches the CPUID
/// probe, so this is a couple of atomic loads).
fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return Isa::Avx;
        }
    }
    Isa::Portable
}

/// Which microkernel this host's dense kernels run on — `"portable"`,
/// `"avx"` or `"avx512"` — so a Gflop/s figure can say what produced it.
pub fn kernel_name() -> &'static str {
    match isa() {
        Isa::Portable => "portable",
        Isa::Avx => "avx",
        Isa::Avx512 => "avx512",
    }
}

/// Grow-only `f64` buffer that hands out slices starting on a 64-byte
/// boundary.
struct AlignedBuf(Vec<f64>);

impl AlignedBuf {
    /// `f64`s per 64-byte cache line.
    const LINE: usize = 8;

    /// A cache-line-aligned slice of `len` entries (contents unspecified).
    fn slice(&mut self, len: usize) -> &mut [f64] {
        if self.0.len() < len + Self::LINE {
            self.0.resize(len + Self::LINE, 0.0);
        }
        // `align_offset` may decline (Miri); alignment only buys speed —
        // every kernel uses unaligned loads.
        let off = self.0.as_ptr().align_offset(64);
        let off = if off < Self::LINE { off } else { 0 };
        &mut self.0[off..off + len]
    }
}

/// Thread-local packing buffers, reused across calls.
struct PackBufs {
    a: AlignedBuf,
    b: AlignedBuf,
}

thread_local! {
    static PACK_BUFS: RefCell<PackBufs> = const {
        RefCell::new(PackBufs {
            a: AlignedBuf(Vec::new()),
            b: AlignedBuf(Vec::new()),
        })
    };
}

// Separate thread-local scratch vector for callers (e.g. the blocked
// LDLᵀ trailing update) that need a workspace *while* a packed kernel
// runs; keeping it out of `PACK_BUFS` avoids a nested `RefCell` borrow.
thread_local! {
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a zeroed thread-local scratch slice of length `len`.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let s = &mut buf[..len];
        s.fill(0.0);
        f(s)
    })
}

#[inline]
fn at(ld: usize, i: usize, j: usize) -> usize {
    j * ld + i
}

/// Pack `rows x kc` of a column-major operand (rows `r0..`, k-columns
/// `l0..`) into `R`-row panels: element `(p, l)` of panel `pan` lands at
/// `pan * R * kc + l * R + p`. Rows past `rows` are zero. `buf` holds
/// exactly the `rows.div_ceil(R)` panels.
#[inline(always)]
fn pack_panels<const R: usize>(
    buf: &mut [f64],
    src: &[f64],
    ld: usize,
    r0: usize,
    rows: usize,
    l0: usize,
    kc: usize,
) {
    debug_assert_eq!(buf.len(), rows.div_ceil(R) * R * kc);
    for (pan, panel) in buf.chunks_exact_mut(R * kc).enumerate() {
        let p0 = pan * R;
        let live = R.min(rows - p0);
        for (l, d) in panel.chunks_exact_mut(R).enumerate() {
            let s = at(ld, r0 + p0, l0 + l);
            d[..live].copy_from_slice(&src[s..s + live]);
            d[live..].fill(0.0);
        }
    }
}

/// The packed `A` and `B` panels of a tile cut into their [`NB`]-long
/// `k`-segments, paired, ascending (the last pair may be shorter).
#[inline(always)]
fn segments<'a, const MR: usize, const NR: usize>(
    ap: &'a [f64],
    bp: &'a [f64],
) -> impl Iterator<Item = (&'a [f64], &'a [f64])> {
    ap.chunks(MR * NB).zip(bp.chunks(NR * NB))
}

/// Portable microkernel: `acc[q][p] = Σ_l ap[l][p] * bp[l][q]` over one
/// packed `k`-segment, ascending `l`. Both loads are unit-stride; the `p`
/// loop is the vector lane for the auto-vectorizer.
#[inline(always)]
fn microkernel_portable<const MR: usize, const NR: usize>(
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; MR]; NR],
) {
    *acc = [[0.0; MR]; NR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for q in 0..NR {
            let bq = bv[q];
            let accq = &mut acc[q];
            for p in 0..MR {
                accq[p] += av[p] * bq;
            }
        }
    }
}

/// Portable whole-tile update (`c` starts at the tile's first entry):
/// each `k`-segment accumulated by [`microkernel_portable`], then added
/// by [`store_tile`].
#[inline(always)]
fn tile_portable<const MR: usize, const NR: usize>(
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    alpha: f64,
) {
    let mut acc = [[0.0; MR]; NR];
    for (a, b) in segments::<MR, NR>(ap, bp) {
        microkernel_portable(a, b, &mut acc);
        store_tile(c, ldc, 0, 0, MR, NR, alpha, &acc, false);
    }
}

/// The AVX chain over one packed `k`-segment: the 8 rows of the tile live
/// in two 4-lane vectors per column, so one `l` step is a broadcast plus
/// 8 `vmulpd`/`vaddpd` pairs.
///
/// Arithmetic is deliberately separate multiply-then-add, **not** FMA:
/// each accumulator lane performs exactly the scalar chain of
/// [`microkernel_portable`] in the same `l` order, so the two paths are
/// bitwise identical and the determinism contract above is preserved.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn chain_avx(ap: &[f64], bp: &[f64]) -> ([__m256d; 4], [__m256d; 4]) {
    let mut lo = [_mm256_setzero_pd(); 4];
    let mut hi = [_mm256_setzero_pd(); 4];
    for (av, bv) in ap.chunks_exact(8).zip(bp.chunks_exact(4)) {
        // SAFETY: `av` is a slice of exactly 8 values, two 4-lane loads.
        let (a0, a1) = unsafe {
            (
                _mm256_loadu_pd(av.as_ptr()),
                _mm256_loadu_pd(av.as_ptr().add(4)),
            )
        };
        for q in 0..4 {
            let bq = _mm256_set1_pd(bv[q]);
            lo[q] = _mm256_add_pd(lo[q], _mm256_mul_pd(a0, bq));
            hi[q] = _mm256_add_pd(hi[q], _mm256_mul_pd(a1, bq));
        }
    }
    (lo, hi)
}

/// AVX microkernel: one segment's [`chain_avx`], stored into `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn microkernel_avx(ap: &[f64], bp: &[f64], acc: &mut [[f64; 8]; 4]) {
    let (lo, hi) = chain_avx(ap, bp);
    for q in 0..4 {
        let p = acc[q].as_mut_ptr();
        // SAFETY: a column of `acc` is 8 values, room for both halves.
        unsafe {
            _mm256_storeu_pd(p, lo[q]);
            _mm256_storeu_pd(p.add(4), hi[q]);
        }
    }
}

/// AVX whole-tile update (`c` starts at the tile's first entry): each
/// `k`-segment's [`chain_avx`] goes from the registers into the tile as
/// `C + alpha * acc`, a separate multiply and add per lane — the
/// arithmetic of [`store_tile`], without the trip through memory.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn tile_avx(ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize, alpha: f64) {
    assert!(c.len() >= 3 * ldc + 8, "a whole 8 x 4 tile");
    let alpha = _mm256_set1_pd(alpha);
    for (a, b) in segments::<8, 4>(ap, bp) {
        let (lo, hi) = chain_avx(a, b);
        for q in 0..4 {
            // SAFETY: column `q` of the tile is `c[q * ldc..q * ldc + 8]`,
            // inside `c` by the assert above.
            unsafe {
                let p = c.as_mut_ptr().add(q * ldc);
                let (c0, c1) = (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)));
                _mm256_storeu_pd(p, _mm256_add_pd(c0, _mm256_mul_pd(alpha, lo[q])));
                _mm256_storeu_pd(p.add(4), _mm256_add_pd(c1, _mm256_mul_pd(alpha, hi[q])));
            }
        }
    }
}

/// The AVX-512 chain over one packed `k`-segment: a `16 x 8` tile, two
/// 8-lane vectors per column — 16 of the 32 `zmm` registers hold
/// accumulators, one `l` step is two loads of `A`, eight broadcasts of
/// `B` and 16 `vmulpd`/`vaddpd` pairs. Four times the entries of the AVX
/// tile per step, hence half the packed loads per flop.
///
/// Same separate multiply-then-add as [`chain_avx`], for the same
/// reason: the lane chain is the scalar chain, the bits do not depend on
/// the host.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn chain_avx512(ap: &[f64], bp: &[f64]) -> ([__m512d; 8], [__m512d; 8]) {
    let mut lo = [_mm512_setzero_pd(); 8];
    let mut hi = [_mm512_setzero_pd(); 8];
    for (av, bv) in ap.chunks_exact(16).zip(bp.chunks_exact(8)) {
        // SAFETY: `av` is a slice of exactly 16 values, two 8-lane loads.
        let (a0, a1) = unsafe {
            (
                _mm512_loadu_pd(av.as_ptr()),
                _mm512_loadu_pd(av.as_ptr().add(8)),
            )
        };
        for q in 0..8 {
            let bq = _mm512_set1_pd(bv[q]);
            lo[q] = _mm512_add_pd(lo[q], _mm512_mul_pd(a0, bq));
            hi[q] = _mm512_add_pd(hi[q], _mm512_mul_pd(a1, bq));
        }
    }
    (lo, hi)
}

/// AVX-512 microkernel: one segment's [`chain_avx512`], stored into `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn microkernel_avx512(ap: &[f64], bp: &[f64], acc: &mut [[f64; 16]; 8]) {
    let (lo, hi) = chain_avx512(ap, bp);
    for q in 0..8 {
        let p = acc[q].as_mut_ptr();
        // SAFETY: a column of `acc` is 16 values, room for both halves.
        unsafe {
            _mm512_storeu_pd(p, lo[q]);
            _mm512_storeu_pd(p.add(8), hi[q]);
        }
    }
}

/// AVX-512 whole-tile update, as [`tile_avx`] on the `16 x 8` tile: the
/// accumulators never leave the registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tile_avx512(ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize, alpha: f64) {
    assert!(c.len() >= 7 * ldc + 16, "a whole 16 x 8 tile");
    let alpha = _mm512_set1_pd(alpha);
    for (a, b) in segments::<16, 8>(ap, bp) {
        let (lo, hi) = chain_avx512(a, b);
        for q in 0..8 {
            // SAFETY: column `q` of the tile is `c[q * ldc..q * ldc + 16]`,
            // inside `c` by the assert above.
            unsafe {
                let p = c.as_mut_ptr().add(q * ldc);
                let (c0, c1) = (_mm512_loadu_pd(p), _mm512_loadu_pd(p.add(8)));
                _mm512_storeu_pd(p, _mm512_add_pd(c0, _mm512_mul_pd(alpha, lo[q])));
                _mm512_storeu_pd(p.add(8), _mm512_add_pd(c1, _mm512_mul_pd(alpha, hi[q])));
            }
        }
    }
}

/// Write an accumulated tile back: `C[i][j] += alpha * acc` for the
/// `mr_eff x nr_eff` valid corner, masking out strictly-upper entries
/// (`row < col`) when `lower` is set. Tiles the SIMD microkernels cannot
/// write back whole — cut by the edge of `C` or by the diagonal — come
/// here, as does every tile of the portable kernel; the SIMD writeback
/// rounds exactly as this loop does.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn store_tile<const MR: usize, const NR: usize>(
    c: &mut [f64],
    ldc: usize,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    alpha: f64,
    acc: &[[f64; MR]; NR],
    lower: bool,
) {
    for (q, accq) in acc.iter().enumerate().take(nr_eff) {
        let col = j0 + q;
        let p0 = if lower && col > i0 { col - i0 } else { 0 };
        if p0 >= mr_eff {
            continue;
        }
        let base = at(ldc, i0, col);
        let dst = &mut c[base + p0..base + mr_eff];
        for (cv, &av) in dst.iter_mut().zip(&accq[p0..mr_eff]) {
            *cv += alpha * av;
        }
    }
}

/// The operands of one `C ← C + alpha * A Bᵀ` call (see [`gemm_packed`]).
struct Gemm<'a> {
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &'a [f64],
    lda: usize,
    b: &'a [f64],
    ldb: usize,
    c: &'a mut [f64],
    ldc: usize,
    lower: bool,
}

/// The packed driver, generic over the register tile: cache-block, pack,
/// and sweep the `MR x NR` tile grid of `C`. A tile that lies whole in
/// `C` — and, under `lower`, on or below the diagonal — goes to `tile`,
/// which writes it back itself; any other runs `kernel` and
/// [`store_tile`] once per `k`-segment. Inlined into one entry point per
/// instruction set so that everything around the microkernel is compiled
/// at that width too.
#[inline(always)]
fn gemm_tiled<const MR: usize, const NR: usize>(
    g: Gemm<'_>,
    kernel: impl Fn(&[f64], &[f64], &mut [[f64; MR]; NR]),
    tile: impl Fn(&[f64], &[f64], &mut [f64], usize, f64),
) {
    const {
        assert!(
            MC.is_multiple_of(MR) && NC.is_multiple_of(NR),
            "cache blocks hold whole tiles"
        );
        assert!(KC.is_multiple_of(NB), "cache blocks hold whole k-segments");
    }
    let Gemm {
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
        lower,
    } = g;
    PACK_BUFS.with(|cell| {
        let PackBufs { a: abuf, b: bbuf } = &mut *cell.borrow_mut();
        let mut acc = [[0.0f64; MR]; NR];
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            for j0 in (0..n).step_by(NC) {
                if lower && j0 >= m {
                    // Every entry of this column block is strictly upper.
                    break;
                }
                let nc = NC.min(n - j0);
                let bpack = bbuf.slice(nc.div_ceil(NR) * NR * kc);
                pack_panels::<NR>(bpack, b, ldb, j0, nc, l0, kc);
                for i0 in (0..m).step_by(MC) {
                    let mc = MC.min(m - i0);
                    if lower && i0 + mc <= j0 {
                        // Row block sits entirely above the diagonal.
                        continue;
                    }
                    let apack = abuf.slice(mc.div_ceil(MR) * MR * kc);
                    pack_panels::<MR>(apack, a, lda, i0, mc, l0, kc);
                    for (jr, bp) in bpack.chunks_exact(NR * kc).enumerate() {
                        let gj = j0 + jr * NR;
                        let nre = NR.min(n - gj);
                        for (ir, ap) in apack.chunks_exact(MR * kc).enumerate() {
                            let gi = i0 + ir * MR;
                            let mre = MR.min(m - gi);
                            if lower && gi + mre <= gj {
                                continue;
                            }
                            // Under `lower` a whole tile has an upper entry
                            // iff its top-right one, (gi, gj + NR - 1), is.
                            if mre == MR && nre == NR && !(lower && gi + 1 < gj + NR) {
                                let t = at(ldc, gi, gj);
                                tile(ap, bp, &mut c[t..t + (NR - 1) * ldc + MR], ldc, alpha);
                                continue;
                            }
                            for (a, b) in segments::<MR, NR>(ap, bp) {
                                kernel(a, b, &mut acc);
                                store_tile(c, ldc, gi, gj, mre, nre, alpha, &acc, lower);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// [`gemm_tiled`] compiled for AVX: the `8 x 4` `ymm` tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_avx(g: Gemm<'_>) {
    gemm_tiled::<8, 4>(
        g,
        |ap, bp, acc| microkernel_avx(ap, bp, acc),
        |ap, bp, c, ldc, alpha| tile_avx(ap, bp, c, ldc, alpha),
    );
}

/// [`gemm_tiled`] compiled for AVX-512: the `16 x 8` `zmm` tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(g: Gemm<'_>) {
    gemm_tiled::<16, 8>(
        g,
        |ap, bp, acc| microkernel_avx512(ap, bp, acc),
        |ap, bp, c, ldc, alpha| tile_avx512(ap, bp, c, ldc, alpha),
    );
}

/// Run the packed driver on the tile of `isa`, which the host must
/// support ([`isa`] returns the widest such).
fn gemm_on(isa: Isa, g: Gemm<'_>) {
    debug_assert!(isa <= self::isa());
    match isa {
        // SAFETY: the caller only names instruction sets the host has.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { gemm_avx512(g) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx => unsafe { gemm_avx(g) },
        _ => gemm_tiled::<8, 4>(g, microkernel_portable, tile_portable::<8, 4>),
    }
}

/// Packed driver for `C ← C + alpha * A Bᵀ` (`A` is `m x k`, `B` is
/// `n x k`, `C` is `m x n`, column-major). With `lower`, only entries
/// `C[i][j]` with `i >= j` are written (`m >= n`: the lower triangle or,
/// with `m > n`, the lower trapezoid of a tall block).
///
/// `beta` scaling is the caller's job — the driver is purely accumulating
/// so that the per-entry determinism contract holds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    lower: bool,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    debug_assert!(lda >= m && ldb >= n && ldc >= m);
    let g = Gemm {
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
        lower,
    };
    gemm_on(isa(), g);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_rng;

    #[test]
    fn pack_pads_partial_panels_with_zeros() {
        // 6x2 operand inside an ld = 9 allocation, 4-row panels.
        let (n, k, ld) = (6usize, 2usize, 9usize);
        let b: Vec<f64> = (0..ld * k).map(|v| v as f64 * 0.5 - 3.0).collect();
        let npan = n.div_ceil(4);
        let mut buf = vec![f64::NAN; npan * 4 * k];
        pack_panels::<4>(&mut buf, &b, ld, 0, n, 0, k);
        for pan in 0..npan {
            for l in 0..k {
                for q in 0..4 {
                    let j = pan * 4 + q;
                    let want = if j < n { b[at(ld, j, l)] } else { 0.0 };
                    assert_eq!(buf[pan * 4 * k + l * 4 + q], want);
                }
            }
        }
    }

    #[test]
    fn pack_buffers_are_cache_line_aligned() {
        let mut buf = AlignedBuf(Vec::new());
        for len in [1usize, 7, 64, 1000] {
            let s = buf.slice(len);
            assert_eq!(s.len(), len);
            // Miri may decline `align_offset`; the slice is then unaligned
            // and still correct.
            if !cfg!(miri) {
                assert_eq!(s.as_ptr() as usize % 64, 0, "len {len}");
            }
        }
    }

    /// Every microkernel the host supports, through the *full* packed
    /// driver, against the portable tile: ragged shapes around every tile
    /// and cache-block edge, `lower` on and off, padded leading
    /// dimensions. Prints what it exercised, so a CI log shows a runner
    /// without `avx512f` instead of passing silently.
    #[test]
    // Miri runs neither AVX nor AVX-512 intrinsics (detection reports the
    // portable tile there, which the other tests cover) and the shapes
    // that cross MC/NC/KC are too many interpreted flops.
    #[cfg_attr(miri, ignore)]
    fn every_microkernel_matches_the_portable_tile_bit_for_bit() {
        let isas = Isa::supported();
        println!("microkernels exercised on this host: {isas:?}");
        // (m, n, k): around MR/NR of every tile, then across MC, NC, KC.
        let shapes = [
            (1, 1, 1),
            (7, 3, 5),
            (8, 4, 48),
            (9, 5, 47),
            (16, 8, 48),
            (17, 9, 49),
            (31, 33, 2),
            (MC - 1, 15, 48),
            (MC + 17, 23, 48),
            (2 * MC + 3, NC + 9, 7),
            (40, 40, KC + 1),
            (150, 150, 48),
            (NC + 25, NC + 25, 3),
            // k across segment and cache-block edges.
            (MC + 17, 23, 96),
            (33, 17, 239),
            (2 * MC, 40, KC),
            (70, 36, 500),
            (150, 150, NB + 1),
        ];
        for (case, &(m, n, k)) in shapes.iter().enumerate() {
            for lower in [false, true] {
                // `lower` addresses C as a tall block: needs m >= n.
                if lower && m < n {
                    continue;
                }
                let mut r = det_rng(case as u64 + 11);
                let (lda, ldb, ldc) = (m + 3, n + 1, m + 5);
                let a: Vec<f64> = (0..lda * k).map(|_| r()).collect();
                let b: Vec<f64> = (0..ldb * k).map(|_| r()).collect();
                let c0: Vec<f64> = (0..ldc * n).map(|_| r()).collect();
                let run = |isa: Isa| {
                    let mut c = c0.clone();
                    let g = Gemm {
                        m,
                        n,
                        k,
                        alpha: -1.0,
                        a: &a,
                        lda,
                        b: &b,
                        ldb,
                        c: &mut c,
                        ldc,
                        lower,
                    };
                    gemm_on(isa, g);
                    c
                };
                let want = run(Isa::Portable);
                for &isa in &isas[1..] {
                    let got = run(isa);
                    for (idx, (w, g)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "{isa:?} m={m} n={n} k={k} lower={lower} at ({}, {})",
                            idx % ldc,
                            idx / ldc
                        );
                    }
                }
                // Padding rows of C and, under `lower`, the strict upper
                // triangle are never written.
                for j in 0..n {
                    for i in 0..ldc {
                        if i >= m || (lower && i < j) {
                            assert_eq!(want[j * ldc + i].to_bits(), c0[j * ldc + i].to_bits());
                        }
                    }
                }
            }
        }
    }

    /// One call whose `k` crosses segment ([`NB`]) and cache-block
    /// ([`KC`]) edges leaves exactly the bits of its per-segment calls —
    /// one per `NB` columns of `A` and `B`, in ascending order — on every
    /// microkernel the host has, over interior, edge and diagonal tiles,
    /// `lower` on and off. Prints what it exercised, like the test above.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn one_call_equals_its_per_segment_calls_bit_for_bit() {
        let isas = Isa::supported();
        println!("k-segment writeback exercised on this host: {isas:?}");
        // Rows past one MC block and an edge tile; columns with an edge.
        let (m, n) = (MC + 21, 37);
        let (lda, ldb, ldc) = (m + 2, n + 3, m + 1);
        for (case, k) in [49usize, 96, 239, 240, 241, 500].into_iter().enumerate() {
            let mut r = det_rng(case as u64 + 70);
            let a: Vec<f64> = (0..lda * k).map(|_| r()).collect();
            let b: Vec<f64> = (0..ldb * k).map(|_| r()).collect();
            let c0: Vec<f64> = (0..ldc * n).map(|_| r()).collect();
            for lower in [false, true] {
                for &isa in &isas {
                    let call = |c: &mut [f64], l0: usize, k: usize| {
                        let g = Gemm {
                            m,
                            n,
                            k,
                            alpha: -1.0,
                            a: &a[l0 * lda..],
                            lda,
                            b: &b[l0 * ldb..],
                            ldb,
                            c,
                            ldc,
                            lower,
                        };
                        gemm_on(isa, g);
                    };
                    let mut whole = c0.clone();
                    call(&mut whole, 0, k);
                    let mut parts = c0.clone();
                    for l0 in (0..k).step_by(NB) {
                        call(&mut parts, l0, NB.min(k - l0));
                    }
                    for (idx, (w, p)) in whole.iter().zip(&parts).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            p.to_bits(),
                            "{isa:?} k={k} lower={lower} at ({}, {})",
                            idx % ldc,
                            idx / ldc
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_is_zeroed_between_uses() {
        with_scratch(4, |s| s.fill(7.0));
        with_scratch(8, |s| {
            assert!(s.iter().all(|&v| v == 0.0));
        });
    }
}
