//! Unified kernel-dispatch layer: one seam between the engines that
//! carry accelerated kernels and the host they run on.
//!
//! * [`KernelCaps`] — the host's accelerator capabilities, probed
//!   **once per process** (cached in a `OnceLock`): AVX2/FMA/F16C on
//!   x86-64, nothing elsewhere;
//! * [`KernelPath`] — the concrete kernel family a dispatch-aware
//!   engine runs (`portable` or `avx2`). Engines record the path
//!   chosen at build time and report it through
//!   [`Predictor::describe`](crate::engine::Predictor::describe), so
//!   logs always show what actually executed;
//! * [`KernelPolicy`] — a per-engine-family selection policy combining
//!   what is *compiled in* (`cfg(target_arch)`),
//!   what the *CPU reports* ([`KernelCaps`]), and what the *user
//!   requests* via the [`KERNEL_ENV`] (`FLINT_KERNEL`) environment
//!   variable.
//!
//! Every target other than x86-64 runs the portable path. The override
//! contract is deliberately conservative: setting `FLINT_KERNEL` yields
//! either the requested path or the portable one. An unknown value, or
//! a request for a path that is not compiled in / not supported by the
//! CPU, degrades to portable — the one path that always exists and
//! that every differential suite pins to the scalar references.
//!
//! ```
//! use flint_exec::dispatch::{KernelCaps, KernelPath};
//!
//! let policy = flint_exec::lane_policy();
//! assert_eq!(policy.select_with(KernelCaps::NONE, None), KernelPath::Portable);
//! assert_eq!(
//!     policy.select_with(KernelCaps::get(), Some("portable")),
//!     KernelPath::Portable
//! );
//! ```

use std::fmt;
use std::sync::OnceLock;

/// Environment variable overriding kernel selection for every
/// dispatch-aware engine built afterwards: `FLINT_KERNEL=portable` or
/// `avx2` (case-insensitive). Read at engine **build** time,
/// so a long-lived server keeps the path it was constructed with.
pub const KERNEL_ENV: &str = "FLINT_KERNEL";

/// Host accelerator capabilities, probed once per process.
///
/// Fields are plain `bool`s rather than an enum so a policy can
/// require conjunctions (e.g. the f16-float AVX2 kernel needs both
/// AVX2 *and* F16C for `vcvtph2ps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCaps {
    /// AVX2 256-bit integer/float vectors (x86-64).
    pub avx2: bool,
    /// Fused multiply-add (x86-64; informational — no kernel requires
    /// it yet, but bench reports record it for cross-host comparison).
    pub fma: bool,
    /// F16C half↔single conversion (`vcvtph2ps`/`vcvtps2ph`, x86-64).
    pub f16c: bool,
}

impl KernelCaps {
    /// No accelerator features at all — what non-x86-64 hosts report,
    /// and a useful fixture for policy tests.
    pub const NONE: KernelCaps = KernelCaps {
        avx2: false,
        fma: false,
        f16c: false,
    };

    /// Probes the running CPU. Prefer [`KernelCaps::get`], which
    /// caches the (immutable) answer process-wide.
    pub fn probe() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            KernelCaps {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                f16c: std::arch::is_x86_feature_detected!("f16c"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelCaps::NONE
        }
    }

    /// The process-wide capability snapshot (probed on first call).
    pub fn get() -> Self {
        static CAPS: OnceLock<KernelCaps> = OnceLock::new();
        *CAPS.get_or_init(KernelCaps::probe)
    }

    /// Compact `+`-joined summary (`"avx2+fma+f16c"` or `"none"`) — the
    /// form bench reports record.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.avx2 {
            parts.push("avx2");
        }
        if self.fma {
            parts.push("fma");
        }
        if self.f16c {
            parts.push("f16c");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// The kernel family a dispatch-aware engine actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Portable lane loops (autovectorized by LLVM; every engine
    /// family has this path and every differential suite pins it to
    /// the scalar references).
    Portable,
    /// `std::arch` AVX2 intrinsics (x86-64).
    Avx2,
}

impl KernelPath {
    /// Stable lowercase name — also the accepted [`KERNEL_ENV`] value.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Portable => "portable",
            KernelPath::Avx2 => "avx2",
        }
    }

    /// Parses a [`KERNEL_ENV`] value (case-insensitive, trimmed).
    /// `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<KernelPath> {
        let s = s.trim();
        [KernelPath::Portable, KernelPath::Avx2]
            .into_iter()
            .find(|path| s.eq_ignore_ascii_case(path.name()))
    }
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-engine-family kernel selection policy: which accelerated
/// kernels this family has **compiled in**. Combine with the CPU caps
/// and the environment override through [`KernelPolicy::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    /// The family has an AVX2 kernel built in (the arch gate already
    /// folded in via `cfg!`).
    pub avx2: bool,
    /// The family's AVX2 kernel additionally requires F16C (the
    /// half→single widening conversion).
    pub f16c_required: bool,
}

impl KernelPolicy {
    /// Selects the kernel path for an engine being built now: the
    /// compiled-in kernels of this policy, gated by the process-wide
    /// [`KernelCaps`], overridden by [`KERNEL_ENV`] if set.
    pub fn select(&self) -> KernelPath {
        let requested = std::env::var(KERNEL_ENV).ok();
        self.select_with(KernelCaps::get(), requested.as_deref())
    }

    /// Pure selection core (unit-testable without touching process
    /// environment or CPUID): `caps` is the capability snapshot,
    /// `requested` the raw [`KERNEL_ENV`] value if any.
    ///
    /// With no request, or with `avx2` requested, the family's AVX2
    /// kernel runs when it is compiled in and the CPU supports it;
    /// otherwise [`KernelPath::Portable`]. Unknown request strings also
    /// degrade to portable.
    pub fn select_with(&self, caps: KernelCaps, requested: Option<&str>) -> KernelPath {
        let avx2_ok = self.avx2 && caps.avx2 && (!self.f16c_required || caps.f16c);
        match requested.map(KernelPath::parse) {
            None | Some(Some(KernelPath::Avx2)) if avx2_ok => KernelPath::Avx2,
            // `portable` requested, an unsatisfiable request, or an
            // unknown value: the predictable fallback.
            _ => KernelPath::Portable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_X86: KernelCaps = KernelCaps {
        avx2: true,
        fma: true,
        f16c: true,
    };
    const AVX2_NO_F16C: KernelCaps = KernelCaps {
        avx2: true,
        fma: true,
        f16c: false,
    };
    const FULL_POLICY: KernelPolicy = KernelPolicy {
        avx2: true,
        f16c_required: false,
    };
    const F16C_POLICY: KernelPolicy = KernelPolicy {
        avx2: true,
        f16c_required: true,
    };
    /// A family with no AVX2 kernel compiled in.
    const NO_AVX2_POLICY: KernelPolicy = KernelPolicy {
        avx2: false,
        f16c_required: false,
    };

    #[test]
    fn caps_probe_is_cached_and_consistent() {
        assert_eq!(KernelCaps::get(), KernelCaps::get());
        assert_eq!(KernelCaps::get(), KernelCaps::probe());
    }

    #[test]
    fn caps_summary_formats() {
        assert_eq!(KernelCaps::NONE.summary(), "none");
        assert_eq!(ALL_X86.summary(), "avx2+fma+f16c");
        assert_eq!(AVX2_NO_F16C.summary(), "avx2+fma");
    }

    #[test]
    fn path_names_parse_round_trip() {
        for path in [KernelPath::Portable, KernelPath::Avx2] {
            assert_eq!(KernelPath::parse(path.name()), Some(path));
            assert_eq!(
                KernelPath::parse(&path.name().to_uppercase()),
                Some(path),
                "case-insensitive"
            );
            assert_eq!(
                KernelPath::parse(&format!("  {} ", path.name())),
                Some(path),
                "trimmed"
            );
            assert_eq!(path.to_string(), path.name());
        }
        assert_eq!(KernelPath::parse("sse9"), None);
        assert_eq!(KernelPath::parse(""), None);
    }

    #[test]
    fn auto_selection_prefers_fastest_available() {
        assert_eq!(FULL_POLICY.select_with(ALL_X86, None), KernelPath::Avx2);
        assert_eq!(
            FULL_POLICY.select_with(KernelCaps::NONE, None),
            KernelPath::Portable
        );
        assert_eq!(
            NO_AVX2_POLICY.select_with(ALL_X86, None),
            KernelPath::Portable
        );
    }

    #[test]
    fn explicit_request_is_honored_when_satisfiable() {
        assert_eq!(
            FULL_POLICY.select_with(ALL_X86, Some("avx2")),
            KernelPath::Avx2
        );
        assert_eq!(
            FULL_POLICY.select_with(ALL_X86, Some("AVX2")),
            KernelPath::Avx2
        );
        assert_eq!(
            FULL_POLICY.select_with(ALL_X86, Some("portable")),
            KernelPath::Portable
        );
    }

    #[test]
    fn unsatisfiable_or_unknown_requests_degrade_to_portable() {
        // Requested but not supported by the CPU.
        assert_eq!(
            FULL_POLICY.select_with(KernelCaps::NONE, Some("avx2")),
            KernelPath::Portable
        );
        // Requested but not compiled in for this family.
        assert_eq!(
            NO_AVX2_POLICY.select_with(ALL_X86, Some("avx2")),
            KernelPath::Portable
        );
        // `neon` names no path: an unknown value, never the AVX2 kernel.
        assert_eq!(
            FULL_POLICY.select_with(ALL_X86, Some("neon")),
            KernelPath::Portable
        );
        // Unknown strings degrade rather than panic.
        assert_eq!(
            FULL_POLICY.select_with(ALL_X86, Some("avx512")),
            KernelPath::Portable
        );
        assert_eq!(
            FULL_POLICY.select_with(ALL_X86, Some("")),
            KernelPath::Portable
        );
    }

    /// Every x86-64 build carries the AVX2 lane kernels, f32 and
    /// binary16 alike: run-time dispatch is the only switch.
    #[test]
    fn lane_families_carry_avx2_on_every_x86_64_build() {
        let x86_64 = cfg!(target_arch = "x86_64");
        assert_eq!(crate::simd::lane_policy().avx2, x86_64);
        for compare in [crate::HalfCompare::Flint, crate::HalfCompare::Float] {
            assert_eq!(crate::f16::f16_policy(compare).avx2, x86_64, "{compare:?}");
        }
    }

    #[test]
    fn f16c_requirement_gates_avx2() {
        assert_eq!(F16C_POLICY.select_with(ALL_X86, None), KernelPath::Avx2);
        assert_eq!(
            F16C_POLICY.select_with(AVX2_NO_F16C, None),
            KernelPath::Portable
        );
        assert_eq!(
            F16C_POLICY.select_with(AVX2_NO_F16C, Some("avx2")),
            KernelPath::Portable
        );
    }
}
