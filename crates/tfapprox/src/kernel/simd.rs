//! x86-64 LUT-GEMM panels — the vector arms of the kernel family.
//!
//! Both arms consume the [`SimdTables`] layouts derived once per
//! [`MulLut`] and resolve 16–64 products per instruction where the
//! scalar walker resolves one per load:
//!
//! - **`avx2-gather`** ([`gather_panel`]): with the filter byte fixed,
//!   every product of a tap lives in one 512-byte LUT row — the same
//!   hoisting the scalar kernel exploits, and the CPU analogue of the
//!   paper's `tex1Dfetch<ushort>` reads from texture-cached table rows.
//!   A `vpgatherdd` fetches 8 two-byte entries of that L1-resident row
//!   per instruction, keyed directly by the activation bytes.
//! - **`avx512-vbmi`** ([`vbmi_panel`]): the row is split into a
//!   256-byte low-byte and high-byte plane ([`SimdTables::lo_plane`] /
//!   [`SimdTables::hi_plane`]), each four 64-byte quarters held in zmm
//!   registers. Two `vpermi2b` (`permutex2var_epi8`) look 64 lanes up in
//!   the lower and the upper 128-byte half at once (index bits 0–6), and
//!   bit 7 of each activation byte picks between them with a masked
//!   blend — the register file plays the part of the paper's texture
//!   cache, with no memory gather.
//!
//! Both run over a **K-major packed panel** (`pbuf[k*mp + i]` = patch
//! row `i`, tap `kb+k`) produced by [`pack_panel`], whose 16×16 SSE
//! byte-transpose keeps packing ≈2% of kernel time.
//!
//! # Bit-identity
//!
//! These arms serve only [`Accumulator::Exact`] (the dispatch layer
//! guarantees it). Every 16-bit product is decoded exactly — sign- or
//! zero-extended per table signedness — and summed in integers wide
//! enough to never wrap: per ≤256-tap block the VBMI arm's 16-bit
//! even/odd plane partials are exact (low plane ≤ 256·255 = 65 280 fits
//! u16; signed high plane ≥ 256·(−128) = −32 768 fits i16; unsigned
//! high plane as the low one), per ≤4096-tap panel the i32 memory
//! accumulator is exact (4096·65 535 < 2³¹), and the cross-panel i64
//! accumulator is the model's own width. Exact integer addition is
//! associative, so any blocking/vectorization order produces the same
//! i64 as the golden per-row fold — hence the same dequantized f32 bits.
//! Padded lanes (`mh..mp`) compute garbage that is never read, and the
//! gather's 4-byte read at row offset 255 lands on [`SimdTables::padded`]'s
//! trailing zero entry, never out of bounds.
//!
//! [`Accumulator::Exact`]: crate::accumulator::Accumulator::Exact

use super::check_seg_operands;
use super::dispatch::KernelKind;
use crate::pool::WorkerPool;
use crate::prepared::{PreparedFilter, SegmentEpilogue};
use axmult::{MulLut, Signedness, SimdTables, LUT_ENTRIES};
use axquant::QuantParams;
use axtensor::{Matrix, SegmentTable};
use std::arch::x86_64::*;

/// The (segmented) LUT GEMM on a SIMD arm, sharded over `pool` exactly
/// like the scalar walker (contiguous row spans, partition-independent
/// bits).
///
/// Callers (the dispatch layer) must have verified
/// `kernel.is_supported()`; the accumulator model is implicitly
/// [`Accumulator::Exact`](crate::accumulator::Accumulator::Exact).
///
/// # Panics
///
/// As [`super::lut_gemm_tiled`].
#[allow(clippy::too_many_arguments)]
pub(super) fn lut_gemm_simd(
    kernel: KernelKind,
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    lut: &MulLut,
    pool: &WorkerPool,
) -> Vec<f32> {
    check_seg_operands(patches, patch_sums, plan, seg_q, segments);
    let rows = patches.rows();
    let c_out = plan.c_out();
    let mut out = vec![0f32; rows * c_out];
    if rows == 0 || c_out == 0 {
        return out;
    }
    let epi = plan.segment_epilogue(seg_q);
    let row_seg = segments.element_segments();
    let epi_ref = &epi;
    let row_seg_ref: &[u32] = &row_seg;
    // Derive (or fetch) the SIMD layouts once, outside the parallel region.
    let simd = lut.simd_tables();
    let signedness = lut.signedness();

    let rows_per = rows.div_ceil(pool.threads()).max(1);
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(rows.div_ceil(rows_per));
    for (t, span) in out.chunks_mut(rows_per * c_out).enumerate() {
        let r0 = t * rows_per;
        jobs.push(Box::new(move || {
            simd_span(
                kernel,
                r0,
                span,
                patches,
                patch_sums,
                plan,
                row_seg_ref,
                epi_ref,
                simd,
                signedness,
            );
        }));
    }
    pool.run(jobs);
    out
}

/// Run the blocked SIMD panels over output rows `r0 .. r0 + span/c_out`.
///
/// Blocking: `mb_step` output rows at a time (acc64 tile ≈ 2 MB max),
/// rounded-up working width `mp` a multiple of the arm's lane block (32
/// for gather, 64 for VBMI) so it sweeps whole vectors; the tap
/// dimension in `kc ≤ 4096` panels so the packed panel stays ≈1 MB and
/// the per-channel i32 accumulator cannot wrap.
#[allow(clippy::too_many_arguments)]
fn simd_span(
    kernel: KernelKind,
    r0: usize,
    out_span: &mut [f32],
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    row_seg: &[u32],
    epi: &SegmentEpilogue,
    simd: &SimdTables,
    signedness: Signedness,
) {
    let c_out = plan.c_out();
    let k_total = plan.k();
    let span_rows = out_span.len() / c_out;
    if span_rows == 0 {
        return;
    }
    let mb_step = ((2usize << 20) / (8 * c_out)).clamp(32, 4096) & !31;
    let lane_block = match kernel {
        KernelKind::Avx512Vbmi => 64,
        _ => 32,
    };
    let mut pbuf: Vec<u8> = Vec::new();
    let mut acc32: Vec<i32> = Vec::new();
    let mut acc64: Vec<i64> = Vec::new();
    for mb in (0..span_rows).step_by(mb_step) {
        let mh = mb_step.min(span_rows - mb);
        let mp = mh.next_multiple_of(lane_block);
        let kc = k_total.min(4096).min(((1usize << 20) / mp).max(64)).max(1);
        if acc32.len() < mp {
            acc32.resize(mp, 0);
        }
        if acc64.len() < mp * c_out {
            acc64.resize(mp * c_out, 0);
        }
        acc64[..mp * c_out].fill(0);
        for kb in (0..k_total).step_by(kc) {
            let kw = kc.min(k_total - kb);
            pack_panel(patches, r0 + mb, mh, mp, kb, kw, &mut pbuf);
            for c in 0..c_out {
                acc32[..mp].fill(0);
                let fcol = &plan.channel_bytes(c)[kb..kb + kw];
                // SAFETY: the arm's CPU support is a precondition
                // (checked by the dispatch layer); `pbuf` holds `kw*mp`
                // packed bytes with `mp` a multiple of the arm's lane
                // block, `acc32` has `mp` lanes, and the tables come from
                // `SimdTables` (gather row reads stay inside the padded
                // table — module docs).
                unsafe {
                    match (kernel, signedness) {
                        (KernelKind::Avx512Vbmi, Signedness::Signed) => {
                            vbmi_panel::<true>(
                                &pbuf,
                                fcol,
                                simd.lo_plane(),
                                simd.hi_plane(),
                                &mut acc32,
                                mp,
                            );
                        }
                        (KernelKind::Avx512Vbmi, Signedness::Unsigned) => {
                            vbmi_panel::<false>(
                                &pbuf,
                                fcol,
                                simd.lo_plane(),
                                simd.hi_plane(),
                                &mut acc32,
                                mp,
                            );
                        }
                        (_, Signedness::Signed) => {
                            gather_panel::<true>(&pbuf, fcol, simd.padded(), &mut acc32, mp);
                        }
                        (_, Signedness::Unsigned) => {
                            gather_panel::<false>(&pbuf, fcol, simd.padded(), &mut acc32, mp);
                        }
                    }
                }
                let a64 = &mut acc64[c * mp..c * mp + mh];
                for (a, &v) in a64.iter_mut().zip(&acc32[..mh]) {
                    *a += i64::from(v);
                }
            }
        }
        // Epilogue: Eq. 4 correction + dequantization under the owning
        // segment's constants — live rows only, padded lanes dropped.
        for i in 0..mh {
            let r = r0 + mb + i;
            let sp = patch_sums[r];
            let s = row_seg[r] as usize;
            for c in 0..c_out {
                out_span[(mb + i) * c_out + c] = epi.dequantize(s, c, acc64[c * mp + i], sp);
            }
        }
    }
}

/// Pack patch rows `row0 .. row0+mh`, taps `kb .. kb+kw`, into a K-major
/// panel: `pbuf[k*mp + i]` = patch row `row0+i`, tap `kb+k`; lanes
/// `mh..mp` of every tap column are zeroed so vector sweeps can run to
/// `mp` without reading live data.
fn pack_panel(
    patches: &Matrix<u8>,
    row0: usize,
    mh: usize,
    mp: usize,
    kb: usize,
    kw: usize,
    pbuf: &mut Vec<u8>,
) {
    if pbuf.len() < kw * mp {
        pbuf.resize(kw * mp, 0);
    }
    let mfull = mh & !15;
    let kfull = kw & !15;
    for ib in (0..mfull).step_by(16) {
        for jb in (0..kfull).step_by(16) {
            // SAFETY: the 16 source rows each have `kb+jb+16 ≤ cols`
            // bytes; the 16 destination columns end at
            // `(jb+15)*mp + ib + 16 ≤ kw*mp`; AVX2 (⊃ SSE2) is a
            // precondition of every arm in this module.
            unsafe {
                transpose16(
                    patches,
                    row0 + ib,
                    kb + jb,
                    pbuf.as_mut_ptr().add(jb * mp + ib),
                    mp,
                );
            }
        }
        for j in kfull..kw {
            for i in 0..16 {
                pbuf[j * mp + ib + i] = patches.row(row0 + ib + i)[kb + j];
            }
        }
    }
    for i in mfull..mh {
        let row = &patches.row(row0 + i)[kb..kb + kw];
        for (j, &v) in row.iter().enumerate() {
            pbuf[j * mp + i] = v;
        }
    }
    for j in 0..kw {
        pbuf[j * mp + mh..j * mp + mp].fill(0);
    }
}

/// 16×16 byte transpose: read 16 consecutive patch rows × 16 taps,
/// write 16 tap columns of the packed panel (stride `mp`), via a 4-level
/// `punpck` tree.
///
/// # Safety
///
/// Requires AVX2; `col0+16` must not exceed the matrix width, rows
/// `row0..row0+16` must exist, and `dst` must have room for 16 stores of
/// 16 bytes at stride `mp`.
#[target_feature(enable = "avx2")]
unsafe fn transpose16(patches: &Matrix<u8>, row0: usize, col0: usize, dst: *mut u8, mp: usize) {
    let mut r = [_mm_setzero_si128(); 16];
    for (i, slot) in r.iter_mut().enumerate() {
        *slot = _mm_loadu_si128(patches.row(row0 + i).as_ptr().add(col0) as *const __m128i);
    }
    let mut t = [_mm_setzero_si128(); 16];
    for i in 0..8 {
        t[2 * i] = _mm_unpacklo_epi8(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm_unpackhi_epi8(r[2 * i], r[2 * i + 1]);
    }
    for i in 0..4 {
        r[4 * i] = _mm_unpacklo_epi16(t[4 * i], t[4 * i + 2]);
        r[4 * i + 1] = _mm_unpackhi_epi16(t[4 * i], t[4 * i + 2]);
        r[4 * i + 2] = _mm_unpacklo_epi16(t[4 * i + 1], t[4 * i + 3]);
        r[4 * i + 3] = _mm_unpackhi_epi16(t[4 * i + 1], t[4 * i + 3]);
    }
    for i in 0..2 {
        t[8 * i] = _mm_unpacklo_epi32(r[8 * i], r[8 * i + 4]);
        t[8 * i + 1] = _mm_unpackhi_epi32(r[8 * i], r[8 * i + 4]);
        t[8 * i + 2] = _mm_unpacklo_epi32(r[8 * i + 1], r[8 * i + 5]);
        t[8 * i + 3] = _mm_unpackhi_epi32(r[8 * i + 1], r[8 * i + 5]);
        t[8 * i + 4] = _mm_unpacklo_epi32(r[8 * i + 2], r[8 * i + 6]);
        t[8 * i + 5] = _mm_unpackhi_epi32(r[8 * i + 2], r[8 * i + 6]);
        t[8 * i + 6] = _mm_unpacklo_epi32(r[8 * i + 3], r[8 * i + 7]);
        t[8 * i + 7] = _mm_unpackhi_epi32(r[8 * i + 3], r[8 * i + 7]);
    }
    for i in 0..8 {
        r[2 * i] = _mm_unpacklo_epi64(t[i], t[i + 8]);
        r[2 * i + 1] = _mm_unpackhi_epi64(t[i], t[i + 8]);
    }
    for (j, v) in r.iter().enumerate() {
        _mm_storeu_si128(dst.add(j * mp) as *mut __m128i, *v);
    }
}

/// The `vpgatherdd` arm: tap-outer sweep, so each tap's 512-byte LUT row
/// stays L1-hot across the whole `mp` lane sweep; 16 lanes per step as
/// two 8-lane gathers of 32-bit words, keeping the low 16 bits of each
/// (sign- or zero-extended per `SIGNED`).
///
/// # Safety
///
/// Requires AVX2. `pbuf` must hold `fcol.len()*mp` bytes, `mp % 16 == 0`,
/// `acc32.len() >= mp`, and `padded` must be a [`SimdTables::padded`]
/// table (`LUT_ENTRIES+1` entries) so the dword read at row offset 255
/// stays in bounds.
#[target_feature(enable = "avx2")]
unsafe fn gather_panel<const SIGNED: bool>(
    pbuf: &[u8],
    fcol: &[u8],
    padded: &[u16],
    acc32: &mut [i32],
    mp: usize,
) {
    for (k, &fb) in fcol.iter().enumerate() {
        let row = padded.as_ptr().add((fb as usize) << 8) as *const i32;
        let col = pbuf.as_ptr().add(k * mp);
        let mut mb = 0;
        while mb < mp {
            let idx16 = _mm_loadu_si128(col.add(mb) as *const __m128i);
            let idx0 = _mm256_cvtepu8_epi32(idx16);
            let idx1 = _mm256_cvtepu8_epi32(_mm_srli_si128(idx16, 8));
            let g0 = _mm256_i32gather_epi32::<2>(row, idx0);
            let g1 = _mm256_i32gather_epi32::<2>(row, idx1);
            let (v0, v1) = if SIGNED {
                (
                    _mm256_srai_epi32(_mm256_slli_epi32(g0, 16), 16),
                    _mm256_srai_epi32(_mm256_slli_epi32(g1, 16), 16),
                )
            } else {
                (
                    _mm256_srli_epi32(_mm256_slli_epi32(g0, 16), 16),
                    _mm256_srli_epi32(_mm256_slli_epi32(g1, 16), 16),
                )
            };
            let a0 = _mm256_loadu_si256(acc32.as_ptr().add(mb) as *const __m256i);
            let a1 = _mm256_loadu_si256(acc32.as_ptr().add(mb + 8) as *const __m256i);
            _mm256_storeu_si256(
                acc32.as_mut_ptr().add(mb) as *mut __m256i,
                _mm256_add_epi32(a0, v0),
            );
            _mm256_storeu_si256(
                acc32.as_mut_ptr().add(mb + 8) as *mut __m256i,
                _mm256_add_epi32(a1, v1),
            );
            mb += 16;
        }
    }
}

/// The `vpermi2b` arm: per tap, the active LUT row of each byte plane
/// is loaded as four 64-byte quarters and shared by two 64-lane blocks;
/// two `permutex2var_epi8` look every lane up in the low and the high
/// 128-byte half (index bits 0–6), and bit 7 of the activation byte
/// (`movepi8_mask`) blends the two — no memory gather. Plane bytes
/// accumulate as 16-bit even/odd lane partials per ≤256-tap block
/// (exact — see module docs) and flush to `acc32`.
///
/// # Safety
///
/// Requires AVX-512F/BW/VBMI. `pbuf` must hold `fcol.len()*mp` bytes
/// with `mp % 64 == 0`, and `acc32.len() >= mp`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn vbmi_panel<const SIGNED: bool>(
    pbuf: &[u8],
    fcol: &[u8],
    lo: &[u8; LUT_ENTRIES],
    hi: &[u8; LUT_ENTRIES],
    acc32: &mut [i32],
    mp: usize,
) {
    let kw = fcol.len();
    for kb in (0..kw).step_by(256) {
        let taps = &fcol[kb..kw.min(kb + 256)];
        let panel = pbuf.as_ptr().add(kb * mp);
        let mut mb = 0;
        while mb + 128 <= mp {
            vbmi_blocks::<SIGNED, 2>(panel.add(mb), taps, lo, hi, acc32.as_mut_ptr().add(mb), mp);
            mb += 128;
        }
        if mb < mp {
            vbmi_blocks::<SIGNED, 1>(panel.add(mb), taps, lo, hi, acc32.as_mut_ptr().add(mb), mp);
        }
    }
}

/// `NB` adjacent 64-lane blocks of [`vbmi_panel`] over ≤256 taps: byte
/// `k*mp + 64*b + i` of `col` is lane `i` of block `b` at tap `k`.
///
/// # Safety
///
/// Requires AVX-512F/BW/VBMI. `taps.len() <= 256`; `col` must point at
/// `taps.len()` tap rows of `mp` bytes with `64*NB` readable bytes each,
/// and `acc` at `64*NB` writable `i32`s.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn vbmi_blocks<const SIGNED: bool, const NB: usize>(
    col: *const u8,
    taps: &[u8],
    lo: &[u8; LUT_ENTRIES],
    hi: &[u8; LUT_ENTRIES],
    acc: *mut i32,
    mp: usize,
) {
    let low_byte = _mm512_set1_epi16(0xFF);
    // Per block, `[lo_even, lo_odd, hi_even, hi_odd]`: word j of an even
    // (odd) partial sums the byte of lane 2j (2j+1) — u16 for the low
    // plane, i16 (signed) / u16 for the high plane.
    let mut sums = [[_mm512_setzero_si512(); 4]; NB];
    for (k, &fb) in taps.iter().enumerate() {
        let row = usize::from(fb) << 8;
        let lq = plane_row(lo.as_ptr().add(row));
        let hq = plane_row(hi.as_ptr().add(row));
        for (b, s) in sums.iter_mut().enumerate() {
            let idx = _mm512_loadu_si512(col.add(k * mp + 64 * b) as *const __m512i);
            let upper = _mm512_movepi8_mask(idx);
            let plo = plane_lookup(&lq, idx, upper);
            let phi = plane_lookup(&hq, idx, upper);
            s[0] = _mm512_add_epi16(s[0], _mm512_and_si512(plo, low_byte));
            s[1] = _mm512_add_epi16(s[1], _mm512_srli_epi16::<8>(plo));
            if SIGNED {
                let even = _mm512_srai_epi16::<8>(_mm512_slli_epi16::<8>(phi));
                s[2] = _mm512_add_epi16(s[2], even);
                s[3] = _mm512_add_epi16(s[3], _mm512_srai_epi16::<8>(phi));
            } else {
                s[2] = _mm512_add_epi16(s[2], _mm512_and_si512(phi, low_byte));
                s[3] = _mm512_add_epi16(s[3], _mm512_srli_epi16::<8>(phi));
            }
        }
    }
    for (b, s) in sums.iter().enumerate() {
        flush::<SIGNED>(acc.add(64 * b), [s[0], s[1]], [s[2], s[3]]);
    }
}

/// One 256-byte plane row as its four 64-byte quarters.
///
/// # Safety
///
/// Requires AVX-512F; `row` must point at 256 readable bytes.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn plane_row(row: *const u8) -> [__m512i; 4] {
    [0, 64, 128, 192].map(|off| _mm512_loadu_si512(row.add(off) as *const __m512i))
}

/// Look 64 activation bytes up in one plane row: byte `i` of the result
/// is `row[idx[i]]`. `upper` carries bit 7 of each index.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
fn plane_lookup(q: &[__m512i; 4], idx: __m512i, upper: __mmask64) -> __m512i {
    _mm512_mask_blend_epi8(
        upper,
        _mm512_permutex2var_epi8(q[0], idx, q[1]),
        _mm512_permutex2var_epi8(q[2], idx, q[3]),
    )
}

/// Word order that interleaves an even and an odd partial back into
/// lane order: entry `2j` picks word `base + j` of the even partial,
/// entry `2j + 1` the same word of the odd one (`permutex2var_epi16`
/// index bit 5 selects the second operand).
const fn interleave(base: u16) -> [u16; 32] {
    let mut order = [0u16; 32];
    let mut j = 0;
    while j < 16 {
        order[2 * j] = base + j as u16;
        order[2 * j + 1] = 32 + base + j as u16;
        j += 1;
    }
    order
}

/// Flush one 64-lane block of 16-bit `[even, odd]` partials into the i32
/// accumulators: `acc[m] += lo_sum + (hi_sum << 8)`.
///
/// # Safety
///
/// Requires AVX-512F/BW; `acc` must point at 64 writable `i32`s.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn flush<const SIGNED: bool>(acc: *mut i32, lo: [__m512i; 2], hi: [__m512i; 2]) {
    const ORDERS: [[u16; 32]; 2] = [interleave(0), interleave(16)];
    for (half, order) in ORDERS.iter().enumerate() {
        let order = _mm512_loadu_si512(order.as_ptr() as *const __m512i);
        let lo_words = _mm512_permutex2var_epi16(lo[0], order, lo[1]);
        let hi_words = _mm512_permutex2var_epi16(hi[0], order, hi[1]);
        let quarters = [
            (
                _mm512_castsi512_si256(lo_words),
                _mm512_castsi512_si256(hi_words),
            ),
            (
                _mm512_extracti64x4_epi64::<1>(lo_words),
                _mm512_extracti64x4_epi64::<1>(hi_words),
            ),
        ];
        for (q, (l, h)) in quarters.into_iter().enumerate() {
            let h = if SIGNED {
                _mm512_cvtepi16_epi32(h)
            } else {
                _mm512_cvtepu16_epi32(h)
            };
            let sum = _mm512_add_epi32(_mm512_cvtepu16_epi32(l), _mm512_slli_epi32::<8>(h));
            let dst = acc.add(32 * half + 16 * q) as *mut __m512i;
            _mm512_storeu_si512(dst, _mm512_add_epi32(_mm512_loadu_si512(dst), sum));
        }
    }
}

/// Calibrate the automatic choice among the SIMD arms this host can
/// run: race them on a synthetic packed panel and keep the winner. Every
/// arm is exact, so the (machine-dependent) outcome can never change
/// results — only time.
///
/// Only called once per process, from behind `auto_kernel`'s cache, and
/// only where [`KernelKind::Avx2Gather`] is supported.
pub(super) fn pick_simd_kernel() -> KernelKind {
    if !KernelKind::Avx512Vbmi.is_supported() {
        return KernelKind::Avx2Gather;
    }
    const MP: usize = 1024;
    const KW: usize = 256;
    let lut = MulLut::exact(Signedness::Signed);
    let simd = lut.simd_tables();
    let pbuf: Vec<u8> = (0..KW * MP)
        .map(|i| (i.wrapping_mul(2_654_435_761)) as u8)
        .collect();
    let fcol: Vec<u8> = (0..KW).map(|i| (i * 97 + 13) as u8).collect();
    let mut acc32 = vec![0i32; MP];
    let mut best_of_4 = |run: &mut dyn FnMut(&mut [i32])| {
        let mut best = std::time::Duration::MAX;
        for _ in 0..4 {
            let t = std::time::Instant::now();
            run(&mut acc32);
            best = best.min(t.elapsed());
            std::hint::black_box(&acc32);
        }
        best
    };

    // SAFETY (both closures): each arm's CPU support was verified (AVX2
    // by the caller, VBMI above); buffer shapes satisfy the panel
    // contracts (MP % 64 == 0, pbuf = KW*MP bytes, acc = MP lanes).
    let t_gather =
        best_of_4(&mut |acc| unsafe { gather_panel::<true>(&pbuf, &fcol, simd.padded(), acc, MP) });
    let t_vbmi = best_of_4(&mut |acc| unsafe {
        vbmi_panel::<true>(&pbuf, &fcol, simd.lo_plane(), simd.hi_plane(), acc, MP)
    });
    if t_vbmi < t_gather {
        KernelKind::Avx512Vbmi
    } else {
        KernelKind::Avx2Gather
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lut_gemm_reference, tests::setup_operands};
    use super::*;
    use crate::accumulator::Accumulator;
    use axtensor::FilterShape;

    fn avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[test]
    fn pack_panel_transposes_with_tails_and_zero_padding() {
        if !avx2() {
            return;
        }
        // 37 rows (16-block + scalar tail), 21 taps (16-block + k tail),
        // mp 64 > mh 37 exercises the zero padding.
        let rows = 40;
        let cols = 30;
        let bytes: Vec<u8> = (0..rows * cols).map(|i| (i * 37 + 11) as u8).collect();
        let m = Matrix::from_vec(rows, cols, bytes).unwrap();
        let (row0, mh, mp, kb, kw) = (2, 37, 64, 5, 21);
        let mut pbuf = Vec::new();
        pack_panel(&m, row0, mh, mp, kb, kw, &mut pbuf);
        for k in 0..kw {
            for i in 0..mp {
                let want = if i < mh { m.row(row0 + i)[kb + k] } else { 0 };
                assert_eq!(pbuf[k * mp + i], want, "k={k} i={i}");
            }
        }
    }

    #[test]
    fn simd_arms_match_reference_both_signednesses() {
        if !avx2() {
            return;
        }
        // K = 45 is not a multiple of any vector width in play.
        let fs = FilterShape::new(3, 3, 5, 7);
        for signedness in [Signedness::Signed, Signedness::Unsigned] {
            let (patches, sums, plan, input_q, lut) = setup_operands(53, fs, 11, signedness);
            let seg_q = [input_q];
            let segments = SegmentTable::single(patches.rows());
            let reference = lut_gemm_reference(
                &patches,
                &sums,
                &plan,
                &seg_q,
                &segments,
                &lut,
                Accumulator::Exact,
            );
            for kernel in [KernelKind::Avx2Gather, KernelKind::Avx512Vbmi] {
                if !kernel.is_supported() {
                    continue;
                }
                for threads in [1, 3] {
                    let pool = WorkerPool::new(threads);
                    let got = lut_gemm_simd(
                        kernel, &patches, &sums, &plan, &seg_q, &segments, &lut, &pool,
                    );
                    assert_eq!(got, reference, "{kernel:?} {signedness:?} x{threads}");
                }
            }
        }
    }

    #[test]
    fn pick_simd_kernel_returns_a_supported_simd_arm() {
        if !avx2() {
            return;
        }
        let k = pick_simd_kernel();
        assert!(matches!(k, KernelKind::Avx2Gather | KernelKind::Avx512Vbmi));
        assert!(k.is_supported(), "{k}");
    }
}
