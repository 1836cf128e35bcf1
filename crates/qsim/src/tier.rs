//! Runtime SIMD-tier dispatch for the shot loop's amplitude kernels.
//!
//! The trajectory kernels in `statevector.rs` are written once, as
//! `#[inline(always)]` bodies. [`dispatch`] runs a [`Tiered`] job inside a
//! wrapper compiled for one SIMD tier (`#[target_feature]`), so every body
//! inlined into it is vectorized at that tier's width. The build itself
//! stays at the baseline target: the tier is picked at run time, once per
//! job, from what the CPU reports.
//!
//! All tiers compute the same floats. Rust never contracts `a * b + c`
//! into a fused multiply-add and LLVM does not reassociate floating-point
//! operations without fast-math flags, so a wider tier performs the same
//! IEEE operations in the same order per amplitude, only more of them per
//! instruction (DESIGN.md §7).
//!
//! Non-x86 targets and Miri only ever run the portable tier.

/// An instruction-set tier the trajectory kernels are compiled for. The
/// discriminant is the value of the `edm_qsim_kernel_tier` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The baseline target (SSE2 on x86-64).
    Portable = 0,
    /// 256-bit AVX2.
    Avx2 = 1,
    /// 512-bit AVX-512F.
    Avx512f = 2,
}

impl Tier {
    /// Every tier, narrowest first.
    pub(crate) const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512f];

    /// The widest tier this CPU supports. The standard library caches the
    /// CPU query, so asking per call costs a few loads.
    pub(crate) fn detected() -> Tier {
        Tier::ALL
            .into_iter()
            .rev()
            .find(|tier| tier.is_supported())
            .unwrap_or(Tier::Portable)
    }

    /// Whether this CPU can run the tier.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
            Tier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
            Tier::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(not(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri))))]
            Tier::Avx2 | Tier::Avx512f => false,
        }
    }
}

/// A job whose body should be compiled once per tier. `run` must be
/// `#[inline(always)]`, and so must every kernel it reaches, or that code
/// stays at the baseline width.
pub(crate) trait Tiered {
    /// What the job returns.
    type Output;

    /// The job body.
    fn run(self) -> Self::Output;
}

/// Runs `job` compiled for `tier`: the one place the shot loop picks its
/// kernels' width. A tier the CPU does not support runs the portable body.
#[inline]
pub(crate) fn dispatch<J: Tiered>(tier: Tier, job: J) -> J::Output {
    match tier {
        #[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
        Tier::Avx512f if tier.is_supported() => {
            // SAFETY: `on_avx512f` needs only AVX-512F, which
            // `is_supported` (`is_x86_feature_detected!("avx512f")`) just
            // confirmed.
            unsafe { on_avx512f(job) }
        }
        #[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
        Tier::Avx2 if tier.is_supported() => {
            // SAFETY: `on_avx2` needs only AVX2, which `is_supported`
            // (`is_x86_feature_detected!("avx2")`) just confirmed.
            unsafe { on_avx2(job) }
        }
        _ => job.run(),
    }
}

#[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
#[target_feature(enable = "avx512f")]
fn on_avx512f<J: Tiered>(job: J) -> J::Output {
    job.run()
}

#[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
#[target_feature(enable = "avx2")]
fn on_avx2<J: Tiered>(job: J) -> J::Output {
    job.run()
}
