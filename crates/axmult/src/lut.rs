//! The 256×256 multiplier look-up table.

use crate::MultError;
use axcircuit::truth::TruthTable;
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Number of entries in an 8×8 multiplier truth table.
pub const LUT_ENTRIES: usize = 1 << 16;
/// Serialized size of a [`MulLut`]: 65536 × `u16` = 128 kB, the figure the
/// paper quotes ("the truth table for an 8-bit multiplier occupies only
/// 128 kB").
pub const LUT_BYTES: usize = LUT_ENTRIES * 2;

/// Whether the multiplier's operands are two's-complement or plain bytes.
///
/// The paper: "expected range of the quantized values (\[-128, 127\] for
/// signed, \[0, 255\] for unsigned multipliers)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Signedness {
    /// Operands in `[0, 255]`, product in `[0, 65535]`.
    Unsigned,
    /// Operands in `[-128, 127]`, product a 16-bit two's-complement value.
    #[default]
    Signed,
}

impl Signedness {
    /// Smallest representable quantized value.
    #[must_use]
    pub fn qmin(self) -> i32 {
        match self {
            Signedness::Unsigned => 0,
            Signedness::Signed => -128,
        }
    }

    /// Largest representable quantized value.
    #[must_use]
    pub fn qmax(self) -> i32 {
        match self {
            Signedness::Unsigned => 255,
            Signedness::Signed => 127,
        }
    }

    /// Encode a logical operand value into its byte pattern.
    ///
    /// # Panics
    ///
    /// Panics if `v` lies outside `[qmin, qmax]`.
    #[must_use]
    pub fn encode(self, v: i32) -> u8 {
        assert!(
            v >= self.qmin() && v <= self.qmax(),
            "operand {v} outside [{}, {}]",
            self.qmin(),
            self.qmax()
        );
        (v as i64 & 0xFF) as u8
    }

    /// Decode a 16-bit product pattern into its logical value.
    #[must_use]
    pub fn decode_product(self, raw: u16) -> i32 {
        match self {
            Signedness::Unsigned => i32::from(raw),
            Signedness::Signed => i32::from(raw as i16),
        }
    }
}

impl fmt::Display for Signedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signedness::Unsigned => f.write_str("unsigned"),
            Signedness::Signed => f.write_str("signed"),
        }
    }
}

/// SIMD-friendly derived layouts of one multiplier truth table, built
/// once per [`MulLut`] and cached (see [`MulLut::simd_tables`]).
///
/// Two layouts serve the two vector LUT-GEMM mechanisms:
///
/// - **Byte planes** for byte-permute kernels. The 16-bit products are
///   split into a low-byte plane and a high-byte plane, both indexed by
///   the stitched `(b << 8) | a` index. Within a plane, the row of a
///   fixed filter byte `b` is 256 contiguous bytes — **four 64-byte
///   quarters**, exactly what two 128-byte two-register byte permutes
///   (AVX-512 VBMI `vpermi2b`) look up: bits 0–5 of the activation byte
///   `a` select the byte, bit 6 the quarter within a pair, and bit 7
///   the pair.
/// - **A gather-padded row table** for element-gather kernels. The raw
///   `u16` entries plus **one trailing zero entry**, so a 32-bit gather of
///   the 2-byte entry at row offset 255 (which reads 2 bytes past the
///   512-byte row) stays in bounds even for the last row.
///
/// Both are pure re-encodings of the same products; kernels built on them
/// stay bit-identical to scalar [`MulLut::fetch`] loops.
pub struct SimdTables {
    lo: Box<[u8; LUT_ENTRIES]>,
    hi: Box<[u8; LUT_ENTRIES]>,
    padded: Box<[u16]>,
}

impl SimdTables {
    fn derive(entries: &[u16; LUT_ENTRIES]) -> Self {
        let mut lo = vec![0u8; LUT_ENTRIES];
        let mut hi = vec![0u8; LUT_ENTRIES];
        let mut padded = vec![0u16; LUT_ENTRIES + 1];
        for (i, &e) in entries.iter().enumerate() {
            lo[i] = (e & 0xFF) as u8;
            hi[i] = (e >> 8) as u8;
            padded[i] = e;
        }
        let lo: Box<[u8; LUT_ENTRIES]> = lo.into_boxed_slice().try_into().expect("plane size");
        let hi: Box<[u8; LUT_ENTRIES]> = hi.into_boxed_slice().try_into().expect("plane size");
        SimdTables {
            lo,
            hi,
            padded: padded.into_boxed_slice(),
        }
    }

    /// The low-byte plane: entry `(b << 8) | a` is the low byte of
    /// [`MulLut::fetch`]`(a, b)`.
    #[inline]
    #[must_use]
    pub fn lo_plane(&self) -> &[u8; LUT_ENTRIES] {
        &self.lo
    }

    /// The high-byte plane: entry `(b << 8) | a` is the high byte of
    /// [`MulLut::fetch`]`(a, b)`.
    #[inline]
    #[must_use]
    pub fn hi_plane(&self) -> &[u8; LUT_ENTRIES] {
        &self.hi
    }

    /// The raw entries with one extra zero entry appended
    /// (`LUT_ENTRIES + 1` long), safe for 32-bit gathers of the 2-byte
    /// entry at any stitched index.
    #[inline]
    #[must_use]
    pub fn padded(&self) -> &[u16] {
        &self.padded
    }
}

/// Truth table of an 8×8 (possibly approximate) multiplier.
///
/// Entry `(b << 8) | a` holds the raw 16-bit product pattern for operand
/// byte patterns `a` and `b` — the exact "stitched" indexing TFApprox uses
/// for its `tex1Dfetch<ushort>` lookups. The table is immutable and cheaply
/// cloneable (`Arc`-backed), since emulation shares one table across many
/// worker threads / simulated thread blocks.
#[derive(Clone)]
pub struct MulLut {
    entries: Arc<[u16; LUT_ENTRIES]>,
    signedness: Signedness,
    /// Lazily derived SIMD layouts, shared across clones so a LUT used by
    /// many sessions/threads derives them once.
    simd: Arc<OnceLock<SimdTables>>,
}

impl PartialEq for MulLut {
    fn eq(&self, other: &Self) -> bool {
        // The SIMD cache is derived state — identity is the products and
        // the signedness, exactly as before the cache existed.
        self.signedness == other.signedness
            && (Arc::ptr_eq(&self.entries, &other.entries) || self.entries == other.entries)
    }
}

impl Eq for MulLut {}

impl fmt::Debug for MulLut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MulLut")
            .field("signedness", &self.signedness)
            .field("entries", &format_args!("[u16; {LUT_ENTRIES}]"))
            .finish()
    }
}

impl MulLut {
    fn from_arc_entries(entries: Arc<[u16; LUT_ENTRIES]>, signedness: Signedness) -> Self {
        MulLut {
            entries,
            signedness,
            simd: Arc::new(OnceLock::new()),
        }
    }

    /// Build a table from a function on *logical* operand values.
    ///
    /// `f` receives operands in the logical range of `signedness` and must
    /// return the (possibly approximate) product; the value is wrapped to
    /// 16 bits when stored, exactly as a hardware multiplier's output bus
    /// would truncate it.
    ///
    /// ```
    /// use axmult::{MulLut, Signedness};
    ///
    /// // A truncating multiplier that zeroes the 4 least-significant
    /// // product bits — the table holds the approximate products.
    /// let lut = MulLut::from_fn(Signedness::Unsigned, |a, b| (a * b) & !0xF);
    /// assert_eq!(lut.product(7, 9), 48); // exact 63, low nibble dropped
    /// assert_eq!(lut.product(16, 16), 256); // already a multiple of 16
    /// ```
    #[must_use]
    pub fn from_fn(signedness: Signedness, mut f: impl FnMut(i32, i32) -> i32) -> Self {
        let mut entries = vec![0u16; LUT_ENTRIES];
        for b_raw in 0..256usize {
            for a_raw in 0..256usize {
                let a = decode_operand(signedness, a_raw as u8);
                let b = decode_operand(signedness, b_raw as u8);
                let p = f(a, b);
                entries[(b_raw << 8) | a_raw] = (p as i64 & 0xFFFF) as u16;
            }
        }
        MulLut::from_arc_entries(entries_into_arc(entries), signedness)
    }

    /// The exact multiplier.
    #[must_use]
    pub fn exact(signedness: Signedness) -> Self {
        MulLut::from_fn(signedness, |a, b| a * b)
    }

    /// Build from an exhaustive gate-level truth table.
    ///
    /// # Errors
    ///
    /// Returns [`MultError::BadTruthTableShape`] unless the table is 8×8.
    pub fn from_truth_table(tt: &TruthTable, signedness: Signedness) -> Result<Self, MultError> {
        if tt.width_a() != 8 || tt.width_b() != 8 {
            return Err(MultError::BadTruthTableShape {
                width_a: tt.width_a(),
                width_b: tt.width_b(),
            });
        }
        let mut entries = vec![0u16; LUT_ENTRIES];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = (tt.entries()[i] & 0xFFFF) as u16;
        }
        Ok(MulLut::from_arc_entries(
            entries_into_arc(entries),
            signedness,
        ))
    }

    /// Deserialize from the flat little-endian `u16[65536]` binary layout.
    ///
    /// # Errors
    ///
    /// Returns [`MultError::BadLutSize`] if `bytes` is not exactly 128 kB.
    pub fn from_bytes(bytes: &[u8], signedness: Signedness) -> Result<Self, MultError> {
        if bytes.len() != LUT_BYTES {
            return Err(MultError::BadLutSize {
                expected: LUT_BYTES,
                got: bytes.len(),
            });
        }
        let mut buf = bytes;
        let mut entries = vec![0u16; LUT_ENTRIES];
        for e in entries.iter_mut() {
            *e = buf.get_u16_le();
        }
        Ok(MulLut::from_arc_entries(
            entries_into_arc(entries),
            signedness,
        ))
    }

    /// Serialize to the flat little-endian `u16[65536]` binary layout
    /// (128 kB), compatible with the original `tf-approximate` table files.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(LUT_BYTES);
        for &e in self.entries.iter() {
            out.put_u16_le(e);
        }
        out
    }

    /// Write the table to a file in the flat binary layout.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Load a table from a file written by [`MulLut::save`] (or by the
    /// original `tf-approximate` tooling).
    ///
    /// # Errors
    ///
    /// Returns an I/O error for filesystem failures, or
    /// [`MultError::BadLutSize`] (wrapped as `InvalidData`) for a file of
    /// the wrong length.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        signedness: Signedness,
    ) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        MulLut::from_bytes(&bytes, signedness)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Signedness of the operands.
    #[must_use]
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// Raw fetch by byte patterns — the emulation hot path. This mirrors
    /// `tex1Dfetch<ushort>(lut, (b << 8) | a)` from the paper's CUDA kernel.
    #[inline]
    #[must_use]
    pub fn fetch(&self, a: u8, b: u8) -> u16 {
        // Index is always < 2^16 by construction.
        self.entries[((b as usize) << 8) | a as usize]
    }

    /// Raw fetch by a pre-stitched 16-bit index.
    #[inline]
    #[must_use]
    pub fn fetch_index(&self, index: u16) -> u16 {
        self.entries[index as usize]
    }

    /// The 256-entry table row for second-operand byte `b`: entry `a` of
    /// the returned array is [`MulLut::fetch`]`(a, b)`.
    ///
    /// This is the hot-loop accessor of the tiled LUT-GEMM: a microkernel
    /// that holds one filter byte fixed while streaming activation bytes
    /// hoists this 512-byte row out of its inner loop, so every lookup
    /// lands in one cache-resident row instead of striding the full
    /// 128 kB table — the CPU analogue of the paper's texture-cache
    /// locality.
    ///
    /// ```
    /// use axmult::{MulLut, Signedness};
    ///
    /// let lut = MulLut::exact(Signedness::Unsigned);
    /// let row = lut.row(3);
    /// assert_eq!(row[7], lut.fetch(7, 3));
    /// assert_eq!(row.len(), 256);
    /// ```
    #[inline]
    #[must_use]
    pub fn row(&self, b: u8) -> &[u16; 256] {
        let start = (b as usize) << 8;
        self.entries[start..start + 256]
            .try_into()
            .expect("a LUT row is exactly 256 entries")
    }

    /// Logical product of two logical operand values.
    ///
    /// # Panics
    ///
    /// Panics if an operand lies outside the signedness range.
    #[inline]
    #[must_use]
    pub fn product(&self, a: i32, b: i32) -> i32 {
        let raw = self.fetch(self.signedness.encode(a), self.signedness.encode(b));
        self.signedness.decode_product(raw)
    }

    /// The raw 16-bit entries (stitched indexing).
    #[must_use]
    pub fn entries(&self) -> &[u16; LUT_ENTRIES] {
        &self.entries
    }

    /// SIMD-friendly derived layouts of this table (see [`SimdTables`]).
    ///
    /// Derived lazily on first use and cached; clones of this `MulLut`
    /// share the cache, so a table used by many sessions pays the
    /// derivation cost once.
    #[must_use]
    pub fn simd_tables(&self) -> &SimdTables {
        self.simd.get_or_init(|| SimdTables::derive(&self.entries))
    }
}

fn decode_operand(signedness: Signedness, raw: u8) -> i32 {
    match signedness {
        Signedness::Unsigned => i32::from(raw),
        Signedness::Signed => i32::from(raw as i8),
    }
}

fn entries_into_arc(entries: Vec<u16>) -> Arc<[u16; LUT_ENTRIES]> {
    let boxed: Box<[u16; LUT_ENTRIES]> = entries
        .into_boxed_slice()
        .try_into()
        .expect("entry count fixed at LUT_ENTRIES");
    Arc::from(boxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcircuit::builder::MultiplierSpec;

    #[test]
    fn exact_unsigned_products() {
        let lut = MulLut::exact(Signedness::Unsigned);
        for (a, b) in [(0, 0), (255, 255), (128, 2), (17, 19)] {
            assert_eq!(lut.product(a, b), a * b);
        }
    }

    #[test]
    fn exact_signed_products() {
        let lut = MulLut::exact(Signedness::Signed);
        for (a, b) in [(-128, -128), (-128, 127), (-1, -1), (0, 99), (-77, 3)] {
            assert_eq!(lut.product(a, b), a * b, "{a}*{b}");
        }
    }

    #[test]
    fn fetch_uses_stitched_index() {
        let lut = MulLut::exact(Signedness::Unsigned);
        assert_eq!(lut.fetch(7, 9), 63);
        assert_eq!(lut.fetch_index((9 << 8) | 7), 63);
    }

    #[test]
    fn row_matches_fetch_for_every_operand_pair() {
        for signedness in [Signedness::Unsigned, Signedness::Signed] {
            let lut = MulLut::from_fn(signedness, |a, b| a * b - (a & 3));
            for b in [0u8, 1, 127, 128, 255] {
                let row = lut.row(b);
                for a in 0..=255u8 {
                    assert_eq!(row[a as usize], lut.fetch(a, b), "a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let lut = MulLut::from_fn(Signedness::Unsigned, |a, b| (a * b) & !0xF);
        let bytes = lut.to_bytes();
        assert_eq!(bytes.len(), LUT_BYTES);
        let back = MulLut::from_bytes(&bytes, Signedness::Unsigned).unwrap();
        assert_eq!(back, lut);
    }

    #[test]
    fn bad_blob_size_rejected() {
        let err = MulLut::from_bytes(&[0u8; 10], Signedness::Unsigned).unwrap_err();
        assert!(matches!(
            err,
            MultError::BadLutSize {
                expected: LUT_BYTES,
                got: 10
            }
        ));
    }

    #[test]
    fn from_circuit_truth_table_signed() {
        let nl = MultiplierSpec::signed(8, 8).build().unwrap();
        let tt = axcircuit::truth::TruthTable::from_netlist(&nl).unwrap();
        let lut = MulLut::from_truth_table(&tt, Signedness::Signed).unwrap();
        assert_eq!(lut.product(-100, 50), -5000);
        assert_eq!(lut.product(127, 127), 127 * 127);
    }

    #[test]
    fn wrong_shape_truth_table_rejected() {
        let nl = MultiplierSpec::unsigned(4, 4).build().unwrap();
        let tt = axcircuit::truth::TruthTable::from_netlist(&nl).unwrap();
        let err = MulLut::from_truth_table(&tt, Signedness::Unsigned).unwrap_err();
        assert!(matches!(
            err,
            MultError::BadTruthTableShape {
                width_a: 4,
                width_b: 4
            }
        ));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_operand_panics() {
        let lut = MulLut::exact(Signedness::Signed);
        let _ = lut.product(200, 1);
    }

    #[test]
    fn product_wraps_to_16_bits_like_hardware() {
        // A deliberately overflowing "multiplier".
        let lut = MulLut::from_fn(Signedness::Unsigned, |a, b| a * b + 0x1_0000);
        // The +0x10000 is cut off by the 16-bit output bus.
        assert_eq!(lut.product(3, 4), 12);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("axmult_lut_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mul8s_test.bin");
        let lut = MulLut::from_fn(Signedness::Signed, |a, b| a * b - (a & 1));
        lut.save(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), LUT_BYTES as u64);
        let back = MulLut::load(&path, Signedness::Signed).unwrap();
        assert_eq!(back, lut);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_truncated_file() {
        let dir = std::env::temp_dir().join("axmult_lut_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        let err = MulLut::load(&path, Signedness::Signed).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clone_is_cheap_and_shared() {
        let lut = MulLut::exact(Signedness::Unsigned);
        let clone = lut.clone();
        assert!(std::ptr::eq(
            lut.entries().as_ptr(),
            clone.entries().as_ptr()
        ));
    }

    #[test]
    fn simd_tables_match_entries() {
        for signedness in [Signedness::Signed, Signedness::Unsigned] {
            let lut = MulLut::from_fn(signedness, |a, b| (a * b) & !0x7);
            let simd = lut.simd_tables();
            assert_eq!(simd.padded().len(), LUT_ENTRIES + 1);
            assert_eq!(simd.padded()[LUT_ENTRIES], 0);
            for i in 0..LUT_ENTRIES {
                let e = lut.entries()[i];
                assert_eq!(simd.lo_plane()[i], (e & 0xFF) as u8);
                assert_eq!(simd.hi_plane()[i], (e >> 8) as u8);
                assert_eq!(simd.padded()[i], e);
            }
        }
    }

    #[test]
    fn simd_tables_shared_across_clones() {
        let lut = MulLut::exact(Signedness::Signed);
        let clone = lut.clone();
        let a: *const SimdTables = lut.simd_tables();
        let b: *const SimdTables = clone.simd_tables();
        assert!(std::ptr::eq(a, b), "clones must share the derived cache");
    }
}
