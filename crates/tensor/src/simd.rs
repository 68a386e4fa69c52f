//! Explicit SIMD vector type and runtime dispatch for the compute kernels.
//!
//! The repo-wide determinism contract (parallel ≡ serial bit-for-bit) is
//! extended here to instruction sets: the AVX2 path and the portable path
//! must produce **identical bits**. That holds because every kernel in this
//! crate follows two rules:
//!
//! 1. **Canonical reduction order.** Each output element accumulates its
//!    reduction dimension strictly sequentially, as `acc = a * b + acc` with
//!    two separate IEEE-754 roundings (multiply, then add). [`F32x8::madd`]
//!    is deliberately *not* a fused multiply-add — Rust never contracts
//!    float expressions, and we never enable the `fma` target feature — so
//!    the vector lanes round exactly like the scalar loop.
//! 2. **Lanes across outputs, never across the reduction.** Vectorization
//!    widens over independent output columns; it never splits one output's
//!    accumulation across lanes (which would re-associate the sum).
//!
//! Under those rules a lane is just a scalar computed at a different column
//! index, and IEEE-754 arithmetic is deterministic per operation, so
//! scalar ≡ portable-SIMD ≡ AVX2 holds by construction (property-tested in
//! `tests/algebra_properties.rs`).
//!
//! Dispatch: [`simd_level`] resolves once per process by runtime CPU
//! feature detection. Kernels read the level at their entry point and call
//! a monomorphized instantiation: the same `#[inline(always)]` body
//! compiled once as plain Rust and once under
//! `#[target_feature(enable = "avx2")]`, which lets LLVM lower [`F32x8`]
//! arithmetic to 256-bit `vmulps`/`vaddps` without any `unsafe` intrinsics
//! in kernel code.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level a kernel instantiation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain Rust; the autovectorizer may still use whatever the baseline
    /// target features allow (SSE2 on x86_64).
    Portable,
    /// The same kernel body compiled with `#[target_feature(enable = "avx2")]`.
    Avx2,
}

impl SimdLevel {
    /// Stable lower-case name (`portable` / `avx2`), for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// True when the running CPU can execute the AVX2 instantiations.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

const LEVEL_UNSET: u8 = 0;
const LEVEL_PORTABLE: u8 = 1;
const LEVEL_AVX2: u8 = 2;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn resolve_level() -> u8 {
    if avx2_supported() {
        LEVEL_AVX2
    } else {
        LEVEL_PORTABLE
    }
}

/// The SIMD level kernels dispatch on, resolved once per process.
pub fn simd_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_PORTABLE => SimdLevel::Portable,
        LEVEL_AVX2 => SimdLevel::Avx2,
        _ => {
            let resolved = resolve_level();
            // A racing first call resolves to the same value; last store wins.
            LEVEL.store(resolved, Ordering::Relaxed);
            match resolved {
                LEVEL_AVX2 => SimdLevel::Avx2,
                _ => SimdLevel::Portable,
            }
        }
    }
}

/// Forces the dispatch level (tests compare instantiations against each
/// other). Returns `Err` when the hardware cannot run the requested level.
/// Because every level produces identical bits, flipping this mid-process
/// can change speed but never results.
pub fn set_simd_level(level: SimdLevel) -> Result<(), &'static str> {
    if level == SimdLevel::Avx2 && !avx2_supported() {
        return Err("avx2 not supported on this cpu");
    }
    let raw = match level {
        SimdLevel::Portable => LEVEL_PORTABLE,
        SimdLevel::Avx2 => LEVEL_AVX2,
    };
    LEVEL.store(raw, Ordering::Relaxed);
    Ok(())
}

/// Eight `f32` lanes with the alignment of a 256-bit register.
///
/// The ops are ordinary per-lane Rust arithmetic marked `#[inline(always)]`;
/// inside an AVX2 instantiation LLVM lowers them to single `vmovups` /
/// `vmulps` / `vaddps` instructions. There are no intrinsics and no
/// `unsafe` here, so the portable build is the same code at SSE width.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
pub struct F32x8(pub [f32; 8]);

impl F32x8 {
    /// Lane count.
    pub const LANES: usize = 8;

    /// All-zero vector.
    pub const ZERO: F32x8 = F32x8([0.0; 8]);

    /// Broadcasts `v` to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; 8])
    }

    /// Loads lanes from the first 8 elements of `src`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0f32; 8];
        lanes.copy_from_slice(&src[..8]);
        Self(lanes)
    }

    /// Stores lanes into the first 8 elements of `dst`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..8].copy_from_slice(&self.0);
    }

    /// `self * m + add`, rounded **twice** per lane (multiply, then add).
    ///
    /// NOT a hardware FMA: the scalar reference kernels compute
    /// `a * b + acc` with two roundings, and a fused op (one rounding)
    /// would break the scalar ≡ SIMD bit contract. The name avoids
    /// `mul_add`, which in `f32` API terms means the fused version.
    #[inline(always)]
    pub fn madd(self, m: Self, add: Self) -> Self {
        let mut lanes = [0.0f32; 8];
        let mut l = 0;
        while l < 8 {
            lanes[l] = self.0[l] * m.0[l] + add.0[l];
            l += 1;
        }
        Self(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn madd_rounds_twice_like_scalar() {
        // A case where fused and unfused differ: with f32 values chosen so
        // a*b needs rounding, fma(a, b, c) != a*b + c.
        let a = 1.000_000_1f32;
        let b = 1.000_000_2f32;
        let c = -1.0f32;
        let unfused = a * b + c;
        let v = F32x8::splat(a).madd(F32x8::splat(b), F32x8::splat(c));
        for lane in v.0 {
            assert_eq!(lane.to_bits(), unfused.to_bits());
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let v = F32x8::load(&src[1..9]);
        let mut dst = [0.0f32; 9];
        v.store(&mut dst[..8]);
        assert_eq!(&dst[..8], &src[1..9]);
    }

    #[test]
    fn level_name_and_detection_are_consistent() {
        let lvl = simd_level();
        assert!(matches!(lvl.name(), "portable" | "avx2"));
        if lvl == SimdLevel::Avx2 {
            assert!(avx2_supported());
        }
        // set + restore round-trips.
        assert!(set_simd_level(SimdLevel::Portable).is_ok());
        assert_eq!(simd_level(), SimdLevel::Portable);
        assert_eq!(set_simd_level(lvl), Ok(()));
    }
}
