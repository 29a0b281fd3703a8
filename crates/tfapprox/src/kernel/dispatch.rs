//! Kernel-family selection: one [`KernelKind`] chosen at compile time of
//! a session (or forced explicitly), then threaded through every GEMM
//! call site.
//!
//! Selection precedence, resolved once per process for the automatic
//! path:
//!
//! 1. An explicit override ([`crate::SessionBuilder::kernel`] /
//!    [`crate::EmuContext::with_kernel`]) — always wins, rejected up
//!    front if the CPU cannot run it.
//! 2. The `TFAPPROX_KERNEL` environment variable (a [`KernelKind`] name;
//!    `auto`, unknown names, and unsupported kernels fall through).
//! 3. Runtime calibration: on an AVX2-capable x86-64 host the SIMD arms
//!    it can run (`avx2-gather`, plus `avx512-vbmi` where AVX-512
//!    F/BW/VBMI is present) race on a synthetic panel and the fastest
//!    one wins; elsewhere the scalar walker is the only arm.
//!
//! Every arm is bit-identical for the models it handles, so whichever
//! kernel the machinery lands on **cannot change results** — only time.
//! Order-sensitive accumulator models ([`Accumulator::Saturating`] /
//! [`Accumulator::Wrapping`]) always run the scalar walker, whose fold
//! order is the specified one; SIMD reassociation is reserved for the
//! exact model, where i64 addition is associative.

use super::{lut_gemm_tiled, TileConfig};
use crate::accumulator::Accumulator;
use crate::pool::WorkerPool;
use crate::prepared::PreparedFilter;
use axmult::MulLut;
use axquant::QuantParams;
use axtensor::{Matrix, SegmentTable};
use std::fmt;
use std::sync::OnceLock;

/// One arm of the LUT-GEMM kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The portable tiled scalar walker (PR 4) — always available, and
    /// the only arm for order-sensitive accumulator models.
    ScalarTiled,
    /// AVX2 `vpgatherdd` row-gather kernel: 16 products per step fetched
    /// straight from the hoisted 512-byte LUT row — the CPU analogue of
    /// the paper's `tex1Dfetch<ushort>` texture path.
    Avx2Gather,
    /// AVX-512 VBMI register-table kernel: 64 byte-plane products per
    /// two `vpermi2b` and a blend, looked up in the [`axmult::SimdTables`]
    /// lo/hi planes of the active LUT row held in zmm registers.
    Avx512Vbmi,
}

impl KernelKind {
    /// The kernel's stable name, as reported in
    /// [`crate::EmulationReport`] / `ServeStats` and accepted by
    /// [`KernelKind::from_name`] and `TFAPPROX_KERNEL`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::ScalarTiled => "scalar-tiled",
            KernelKind::Avx2Gather => "avx2-gather",
            KernelKind::Avx512Vbmi => "avx512-vbmi",
        }
    }

    /// Parse a kernel name (the [`KernelKind::name`] form, plus short
    /// aliases `scalar`, `gather`, `vbmi`). Returns `None` for unknown
    /// names — including `auto`, which callers treat as "calibrate".
    #[must_use]
    pub fn from_name(name: &str) -> Option<KernelKind> {
        match name {
            "scalar-tiled" | "scalar" => Some(KernelKind::ScalarTiled),
            "avx2-gather" | "gather" => Some(KernelKind::Avx2Gather),
            "avx512-vbmi" | "vbmi" => Some(KernelKind::Avx512Vbmi),
            _ => None,
        }
    }

    /// Whether this process can execute the arm (compile target + runtime
    /// CPUID). [`KernelKind::ScalarTiled`] is always supported.
    #[must_use]
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                KernelKind::ScalarTiled => true,
                KernelKind::Avx2Gather => has!("avx2"),
                // The panel packer is SSE2/AVX2 code shared by both arms.
                KernelKind::Avx512Vbmi => {
                    has!("avx2") && has!("avx512f") && has!("avx512bw") && has!("avx512vbmi")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == KernelKind::ScalarTiled
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every kernel arm this process can execute, scalar first.
#[must_use]
pub fn available_kernels() -> Vec<KernelKind> {
    [
        KernelKind::ScalarTiled,
        KernelKind::Avx2Gather,
        KernelKind::Avx512Vbmi,
    ]
    .into_iter()
    .filter(|k| k.is_supported())
    .collect()
}

/// The process-wide automatic kernel choice: `TFAPPROX_KERNEL` if it
/// names a supported arm, else a one-shot calibration race (see the
/// module docs). Resolved once and cached.
///
/// A `TFAPPROX_KERNEL` value that does *not* resolve keeps the
/// documented fall-through-to-auto semantics, but is no longer silent: a
/// one-time warning naming the valid kernels goes to stderr, so a typo
/// like `TFAPPROX_KERNEL=sclar` cannot quietly lose the forced-scalar
/// escape hatch.
#[must_use]
pub fn auto_kernel() -> KernelKind {
    static AUTO: OnceLock<KernelKind> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(v) = std::env::var("TFAPPROX_KERNEL") {
            let (choice, warning) = env_kernel_choice(&v);
            if let Some(msg) = warning {
                eprintln!("{msg}");
            }
            if let Some(k) = choice {
                return k;
            }
        }
        calibrate()
    })
}

/// Resolve one `TFAPPROX_KERNEL` value: the forced arm if the value
/// names a supported kernel, otherwise `None` (fall through to
/// calibration) plus the warning to print when the fall-through was not
/// asked for. `auto` and an empty value are the documented spellings of
/// "calibrate" and stay silent; an unknown name or an arm this host
/// cannot run warns, naming every kernel the process accepts.
fn env_kernel_choice(value: &str) -> (Option<KernelKind>, Option<String>) {
    let v = value.trim();
    if v.is_empty() || v == "auto" {
        return (None, None);
    }
    let valid = || {
        available_kernels()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    };
    match KernelKind::from_name(v) {
        Some(k) if k.is_supported() => (Some(k), None),
        Some(k) => (
            None,
            Some(format!(
                "tfapprox: TFAPPROX_KERNEL={v} names kernel '{}' which this host cannot \
                 execute; falling through to automatic selection (valid here: {}, auto)",
                k.name(),
                valid()
            )),
        ),
        None => (
            None,
            Some(format!(
                "tfapprox: TFAPPROX_KERNEL={v} does not name a kernel; falling through to \
                 automatic selection (valid: {}, auto)",
                valid()
            )),
        ),
    }
}

/// The calibration arm of [`auto_kernel`]: race the SIMD kernels where
/// they exist, otherwise scalar.
fn calibrate() -> KernelKind {
    #[cfg(target_arch = "x86_64")]
    if KernelKind::Avx2Gather.is_supported() {
        return super::simd::pick_simd_kernel();
    }
    KernelKind::ScalarTiled
}

/// The arm that will actually run for a request: SIMD kernels handle only
/// the exact accumulator model (their reassociated folds are bit-exact
/// there and only there) and require runtime CPU support; everything else
/// downgrades to the scalar walker.
fn effective(kernel: KernelKind, accumulator: Accumulator) -> KernelKind {
    if matches!(accumulator, Accumulator::Exact) && kernel.is_supported() {
        kernel
    } else {
        KernelKind::ScalarTiled
    }
}

/// Dispatch the (segmented) LUT GEMM to `kernel`, downgrading to the
/// scalar walker whenever the arm cannot handle the request (see
/// [`KernelKind`] and the module docs). All arms produce bits identical
/// to [`super::lut_gemm_reference`], so fused serving, sharding and
/// conformance guarantees are kernel-independent.
///
/// # Panics
///
/// As [`super::lut_gemm_tiled`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_dispatch(
    kernel: KernelKind,
    patches: &Matrix<u8>,
    patch_sums: &[i64],
    plan: &PreparedFilter,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    lut: &MulLut,
    accumulator: Accumulator,
    tiles: TileConfig,
    pool: &WorkerPool,
) -> Vec<f32> {
    match effective(kernel, accumulator) {
        #[cfg(target_arch = "x86_64")]
        k @ (KernelKind::Avx2Gather | KernelKind::Avx512Vbmi) => {
            super::simd::lut_gemm_simd(k, patches, patch_sums, plan, seg_q, segments, lut, pool)
        }
        _ => lut_gemm_tiled(
            patches,
            patch_sums,
            plan,
            seg_q,
            segments,
            lut,
            accumulator,
            tiles,
            pool,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in [
            KernelKind::ScalarTiled,
            KernelKind::Avx2Gather,
            KernelKind::Avx512Vbmi,
        ] {
            assert_eq!(KernelKind::from_name(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(
            KernelKind::from_name("scalar"),
            Some(KernelKind::ScalarTiled)
        );
        assert_eq!(KernelKind::from_name("vbmi"), Some(KernelKind::Avx512Vbmi));
        assert_eq!(KernelKind::from_name("auto"), None);
        assert_eq!(KernelKind::from_name("neon-tbl"), None);
    }

    #[test]
    fn scalar_is_always_supported_and_listed() {
        assert!(KernelKind::ScalarTiled.is_supported());
        let avail = available_kernels();
        assert_eq!(avail[0], KernelKind::ScalarTiled);
        assert!(avail.iter().all(|k| k.is_supported()));
    }

    #[test]
    fn auto_kernel_is_stable_and_supported() {
        let k = auto_kernel();
        assert!(k.is_supported());
        assert_eq!(k, auto_kernel(), "cached choice must not flap");
    }

    #[test]
    fn env_typos_warn_but_fall_through() {
        // The documented "calibrate" spellings stay silent.
        for quiet in ["auto", "", "  auto  "] {
            assert_eq!(env_kernel_choice(quiet), (None, None), "{quiet:?}");
        }
        // A valid, supported name forces that arm with no warning.
        assert_eq!(
            env_kernel_choice("scalar-tiled"),
            (Some(KernelKind::ScalarTiled), None)
        );
        assert_eq!(
            env_kernel_choice(" scalar "),
            (Some(KernelKind::ScalarTiled), None)
        );
        // A typo falls through to auto (documented semantics kept) but
        // now carries a warning naming the valid kernels.
        let (choice, warning) = env_kernel_choice("sclar");
        assert_eq!(choice, None);
        let msg = warning.expect("typo must warn");
        assert!(msg.contains("sclar"), "{msg}");
        assert!(msg.contains("scalar-tiled"), "{msg}");
        assert!(msg.contains("auto"), "{msg}");
        // An unsupported-but-real arm gets the distinct "cannot execute"
        // message (constructible only on non-AVX2 hosts; both branches
        // keep the fall-through contract).
        if !KernelKind::Avx2Gather.is_supported() {
            let (choice, warning) = env_kernel_choice("avx2-gather");
            assert_eq!(choice, None);
            assert!(warning.unwrap().contains("cannot execute"));
        }
        // `avx2-nibble` / `nibble` name no arm: they warn and fall
        // through like any typo, and the warning lists the arms this
        // host can run — `avx512-vbmi` exactly where it is supported.
        for retired in ["avx2-nibble", "nibble"] {
            let (choice, warning) = env_kernel_choice(retired);
            assert_eq!(choice, None, "{retired}");
            let msg = warning.expect("a retired kernel name must warn");
            assert!(msg.contains("does not name a kernel"), "{msg}");
            for k in available_kernels() {
                assert!(msg.contains(k.name()), "{msg}");
            }
            assert_eq!(
                msg.contains("avx512-vbmi"),
                KernelKind::Avx512Vbmi.is_supported(),
                "{msg}"
            );
        }
    }

    #[test]
    fn order_sensitive_models_downgrade_to_scalar() {
        for k in [KernelKind::Avx2Gather, KernelKind::Avx512Vbmi] {
            assert_eq!(
                effective(k, Accumulator::Saturating(12)),
                KernelKind::ScalarTiled
            );
            assert_eq!(
                effective(k, Accumulator::Wrapping(10)),
                KernelKind::ScalarTiled
            );
        }
        assert_eq!(
            effective(KernelKind::ScalarTiled, Accumulator::Exact),
            KernelKind::ScalarTiled
        );
    }
}
