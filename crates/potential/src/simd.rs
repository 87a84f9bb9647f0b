//! The slice loops under every potential-table kernel.
//!
//! The [`KernelPlan`](crate::KernelPlan) interpreter and the walker
//! kernels in [`raw`](crate::raw) spend essentially all of their time in
//! a handful of slice loops: elementwise add/max/multiply/divide over
//! contiguous segments, and the broadcast sum/max reductions that
//! collapse a block of scan entries onto one separator slot. This module
//! holds those loops once, as plain safe Rust in a shape LLVM
//! vectorises for whatever the build targets (SSE2 at the x86-64
//! baseline, NEON on aarch64, wider with `-C target-cpu`).
//!
//! # Determinism contract
//!
//! The repo asserts bitwise-identical marginals across thread counts,
//! δ-grains at a fixed δ, shard layouts, and in golden serve smoke
//! files. Floating-point addition and `max`-with-tie-breaking are not
//! associative at the bit level, so the order of operations is part of
//! the contract, not an implementation detail:
//!
//! * **Reductions** use the fixed 4-lane tree of
//!   [`raw::sum_canonical`](crate::raw::sum_canonical) and
//!   [`raw::fold_max_canonical`](crate::raw::fold_max_canonical). With
//!   `chunks = len / 4`, lane `j` accumulates `xs[4k + j]` for
//!   `k = 0..chunks` in increasing `k`; the four lanes combine as
//!   `(l0 + l2) + (l1 + l3)` for sum and
//!   `sel(sel(m0 > m2) > sel(m1 > m3))` for max; the `len % 4` tail
//!   entries then fold in sequentially, left to right. The lanes are
//!   independent, so a vectorising compiler may keep them in one
//!   register of any width without changing a bit; reordering them
//!   changes the goldens.
//! * **Max** is everywhere the select `if x > acc { acc = x }`: on ties
//!   (including `+0.0` vs `-0.0`) and NaNs the accumulator is kept.
//! * **Elementwise** loops (add/max/mul/div) perform one independent
//!   IEEE operation per entry, so any vector width yields the same
//!   bits by construction. Division keeps the Hugin `x/0 = 0`
//!   convention through [`safe_div`], whose zero result is `+0.0`.
//!
//! The fused `marg_*` / `extend` / `mul` loops run a whole segment
//! stream in one call — a compiled plan's list or a streamed
//! [`BlockWalk`](crate::plan::BlockWalk), the same segments either way;
//! each performs the exact per-segment operation sequence of the
//! single-block loop it calls.

use crate::plan::{PlanKind, Segment};
use crate::primitives::safe_div;
use crate::raw::{fold_max_canonical, reduce_add_into};

/// Elementwise `dst[i] += src[i]`.
pub(crate) fn add_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Elementwise `dst[i] = if src[i] > dst[i] { src[i] } else { dst[i] }`.
pub(crate) fn max_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        if b > *a {
            *a = b;
        }
    }
}

/// Elementwise `dst[i] *= src[i]`.
fn mul_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a *= b;
    }
}

/// Broadcast `dst[i] *= m`.
fn mul_scalar(dst: &mut [f64], m: f64) {
    for a in dst {
        *a *= m;
    }
}

/// Elementwise `out[i] = safe_div(num[i], den[i])` (`x/0 = 0`).
pub(crate) fn div_into(num: &[f64], den: &[f64], out: &mut [f64]) {
    debug_assert_eq!(num.len(), out.len());
    debug_assert_eq!(den.len(), out.len());
    for ((slot, &n), &d) in out.iter_mut().zip(num).zip(den) {
        *slot = safe_div(n, d);
    }
}

/// Elementwise `dst[i] = safe_div(dst[i], den[i])`.
pub(crate) fn div_assign(dst: &mut [f64], den: &[f64]) {
    debug_assert_eq!(dst.len(), den.len());
    for (a, &d) in dst.iter_mut().zip(den) {
        *a = safe_div(*a, d);
    }
}

/// Sum-marginalization of a range window `src` (segments in scan
/// order): contig segments `dst[tb..tb+len] += src[pos..]`, broadcast
/// segments `dst[tb] +=` the canonical-order sum of their block
/// (one-entry blocks add directly).
pub(crate) fn marg_sum(
    kind: PlanKind,
    segs: impl IntoIterator<Item = Segment>,
    src: &[f64],
    dst: &mut [f64],
) {
    let mut pos = 0;
    match kind {
        PlanKind::Contig => {
            for seg in segs {
                add_assign(
                    &mut dst[seg.target_base..seg.target_base + seg.len],
                    &src[pos..pos + seg.len],
                );
                pos += seg.len;
            }
        }
        PlanKind::Broadcast => {
            for seg in segs {
                reduce_add_into(&mut dst[seg.target_base], &src[pos..pos + seg.len]);
                pos += seg.len;
            }
        }
    }
}

/// Max-marginalization: elementwise select per contig segment, the
/// canonical-order max fold of each broadcast block into its slot.
pub(crate) fn marg_max(
    kind: PlanKind,
    segs: impl IntoIterator<Item = Segment>,
    src: &[f64],
    dst: &mut [f64],
) {
    let mut pos = 0;
    match kind {
        PlanKind::Contig => {
            for seg in segs {
                max_assign(
                    &mut dst[seg.target_base..seg.target_base + seg.len],
                    &src[pos..pos + seg.len],
                );
                pos += seg.len;
            }
        }
        PlanKind::Broadcast => {
            for seg in segs {
                let slot = &mut dst[seg.target_base];
                *slot = fold_max_canonical(*slot, &src[pos..pos + seg.len]);
                pos += seg.len;
            }
        }
    }
}

/// Extension into a range window `out` of the scan-domain destination:
/// contig segments copy `src[tb..tb+len]`, broadcast segments fill with
/// `src[tb]` (`src` is the full target-domain table).
pub(crate) fn extend(
    kind: PlanKind,
    segs: impl IntoIterator<Item = Segment>,
    src: &[f64],
    out: &mut [f64],
) {
    let mut pos = 0;
    match kind {
        PlanKind::Contig => {
            for seg in segs {
                out[pos..pos + seg.len]
                    .copy_from_slice(&src[seg.target_base..seg.target_base + seg.len]);
                pos += seg.len;
            }
        }
        PlanKind::Broadcast => {
            for seg in segs {
                out[pos..pos + seg.len].fill(src[seg.target_base]);
                pos += seg.len;
            }
        }
    }
}

/// Multiplication of a range window `out`: contig segments
/// `out[pos..] *= src[tb..tb+len]`, broadcast segments
/// `out[pos..pos+len] *= src[tb]` (`src` is the full target-domain
/// factor).
pub(crate) fn mul(
    kind: PlanKind,
    segs: impl IntoIterator<Item = Segment>,
    src: &[f64],
    out: &mut [f64],
) {
    let mut pos = 0;
    match kind {
        PlanKind::Contig => {
            for seg in segs {
                mul_assign(
                    &mut out[pos..pos + seg.len],
                    &src[seg.target_base..seg.target_base + seg.len],
                );
                pos += seg.len;
            }
        }
        PlanKind::Broadcast => {
            for seg in segs {
                mul_scalar(&mut out[pos..pos + seg.len], src[seg.target_base]);
                pos += seg.len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_by_zero_yields_positive_zero() {
        let num = [3.5, -2.0, 0.0, 7.0, -0.0, 1.0, 2.0, 3.0];
        let den = [0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0];
        let mut out = [1.0; 8];
        div_into(&num, &den, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }
}
