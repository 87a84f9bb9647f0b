//! The slice loops under every potential-table kernel.
//!
//! The [`KernelPlan`](crate::KernelPlan) interpreter and the walker
//! kernels in [`raw`](crate::raw) spend essentially all of their time in
//! a handful of slice loops: elementwise add/max/multiply/divide over
//! contiguous blocks, and the broadcast sum/max reductions that
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
//! The `marg_*` / `extend` / `mul` kernels run a whole block stream in
//! one call — a compiled plan's head/bases/tail or a streamed
//! [`BlockWalk`](crate::plan::BlockWalk), the same blocks either way.
//! Each runs the partial head, then every whole block, then the partial
//! tail, through one per-block operation; the whole blocks of lengths 1,
//! 2, 4, 8 and 16 run with the length as a compile-time constant, which
//! turns a short block into straight-line code. Every block performs
//! the exact operation sequence of the single-block loop it calls,
//! whatever its length's instantiation.

use crate::plan::{Blocks, PlanKind};
use crate::primitives::safe_div;
use crate::raw::{fold_max_canonical, reduce_add_into};

/// Elementwise `dst[i] += src[i]`.
#[inline(always)]
pub(crate) fn add_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Elementwise `dst[i] = if src[i] > dst[i] { src[i] } else { dst[i] }`.
#[inline(always)]
pub(crate) fn max_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        if b > *a {
            *a = b;
        }
    }
}

/// Elementwise `dst[i] *= src[i]`.
#[inline(always)]
fn mul_assign(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a *= b;
    }
}

/// Broadcast `dst[i] *= m`.
#[inline(always)]
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

/// A whole block's length: a compile-time constant for the short
/// lengths the kernels specialise, the runtime value otherwise.
trait BlockLen: Copy {
    fn get(self) -> usize;
}

/// The block length `N`, known to the compiler.
#[derive(Clone, Copy)]
struct Fixed<const N: usize>;

impl<const N: usize> BlockLen for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

impl BlockLen for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// One kernel's work on one block: the `len` scan entries at window
/// offset `pos`, whose target indices start at `base`.
trait BlockOp {
    fn apply(&mut self, base: usize, pos: usize, len: usize);
}

/// The whole blocks from window offset `pos` on; returns the offset
/// past the last.
#[inline(always)]
fn whole_blocks<L: BlockLen, O: BlockOp>(
    len: L,
    mut pos: usize,
    bases: impl Iterator<Item = usize>,
    op: &mut O,
) -> usize {
    for base in bases {
        op.apply(base, pos, len.get());
        pos += len.get();
    }
    pos
}

/// Runs `op` over a block stream: the head, the whole blocks (short
/// lengths through their constant instantiation), the tail.
#[inline]
fn run<O: BlockOp>(blocks: Blocks<impl Iterator<Item = usize>>, op: &mut O) {
    let mut pos = 0;
    if let Some(h) = blocks.head {
        op.apply(h.base, 0, h.len);
        pos = h.len;
    }
    let bases = blocks.bases;
    pos = match blocks.block {
        1 => whole_blocks(Fixed::<1>, pos, bases, op),
        2 => whole_blocks(Fixed::<2>, pos, bases, op),
        4 => whole_blocks(Fixed::<4>, pos, bases, op),
        8 => whole_blocks(Fixed::<8>, pos, bases, op),
        16 => whole_blocks(Fixed::<16>, pos, bases, op),
        n => whole_blocks(n, pos, bases, op),
    };
    if let Some(t) = blocks.tail {
        op.apply(t.base, pos, t.len);
    }
}

/// Contig sum-marginalization: `target[base..] += scan[pos..]`.
struct AddRun<'a> {
    scan: &'a [f64],
    target: &'a mut [f64],
}

impl BlockOp for AddRun<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        add_assign(
            &mut self.target[base..base + len],
            &self.scan[pos..pos + len],
        );
    }
}

/// Broadcast sum-marginalization: `target[base] +=` the block's
/// canonical-order sum.
struct SumBlock<'a> {
    scan: &'a [f64],
    target: &'a mut [f64],
}

impl BlockOp for SumBlock<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        reduce_add_into(&mut self.target[base], &self.scan[pos..pos + len]);
    }
}

/// Contig max-marginalization: elementwise select into `target[base..]`.
struct MaxRun<'a> {
    scan: &'a [f64],
    target: &'a mut [f64],
}

impl BlockOp for MaxRun<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        max_assign(
            &mut self.target[base..base + len],
            &self.scan[pos..pos + len],
        );
    }
}

/// Broadcast max-marginalization: the block's canonical-order max fold
/// into `target[base]`.
struct MaxBlock<'a> {
    scan: &'a [f64],
    target: &'a mut [f64],
}

impl BlockOp for MaxBlock<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        let slot = &mut self.target[base];
        *slot = fold_max_canonical(*slot, &self.scan[pos..pos + len]);
    }
}

/// Contig extension: `scan[pos..]` copies `target[base..]`.
struct CopyRun<'a> {
    scan: &'a mut [f64],
    target: &'a [f64],
}

impl BlockOp for CopyRun<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        self.scan[pos..pos + len].copy_from_slice(&self.target[base..base + len]);
    }
}

/// Broadcast extension: `scan[pos..]` fills with `target[base]`.
struct FillBlock<'a> {
    scan: &'a mut [f64],
    target: &'a [f64],
}

impl BlockOp for FillBlock<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        self.scan[pos..pos + len].fill(self.target[base]);
    }
}

/// Contig multiplication: `scan[pos..] *= target[base..]`.
struct MulRun<'a> {
    scan: &'a mut [f64],
    target: &'a [f64],
}

impl BlockOp for MulRun<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        mul_assign(
            &mut self.scan[pos..pos + len],
            &self.target[base..base + len],
        );
    }
}

/// Broadcast multiplication: `scan[pos..] *= target[base]`.
struct ScaleBlock<'a> {
    scan: &'a mut [f64],
    target: &'a [f64],
}

impl BlockOp for ScaleBlock<'_> {
    #[inline(always)]
    fn apply(&mut self, base: usize, pos: usize, len: usize) {
        mul_scalar(&mut self.scan[pos..pos + len], self.target[base]);
    }
}

/// Sum-marginalization of a range window `src` into the full target
/// table `dst`: contig blocks `dst[base..] += src[pos..]`, broadcast
/// blocks `dst[base] +=` the canonical-order sum of the block
/// (one-entry blocks add directly).
pub(crate) fn marg_sum(blocks: Blocks<impl Iterator<Item = usize>>, src: &[f64], dst: &mut [f64]) {
    match blocks.kind {
        PlanKind::Contig => run(
            blocks,
            &mut AddRun {
                scan: src,
                target: dst,
            },
        ),
        PlanKind::Broadcast => run(
            blocks,
            &mut SumBlock {
                scan: src,
                target: dst,
            },
        ),
    }
}

/// Max-marginalization: elementwise select per contig block, the
/// canonical-order max fold of each broadcast block into its slot.
pub(crate) fn marg_max(blocks: Blocks<impl Iterator<Item = usize>>, src: &[f64], dst: &mut [f64]) {
    match blocks.kind {
        PlanKind::Contig => run(
            blocks,
            &mut MaxRun {
                scan: src,
                target: dst,
            },
        ),
        PlanKind::Broadcast => run(
            blocks,
            &mut MaxBlock {
                scan: src,
                target: dst,
            },
        ),
    }
}

/// Extension into a range window `out` of the scan-domain destination:
/// contig blocks copy `src[base..]`, broadcast blocks fill with
/// `src[base]` (`src` is the full target-domain table).
pub(crate) fn extend(blocks: Blocks<impl Iterator<Item = usize>>, src: &[f64], out: &mut [f64]) {
    match blocks.kind {
        PlanKind::Contig => run(
            blocks,
            &mut CopyRun {
                scan: out,
                target: src,
            },
        ),
        PlanKind::Broadcast => run(
            blocks,
            &mut FillBlock {
                scan: out,
                target: src,
            },
        ),
    }
}

/// Multiplication of a range window `out`: contig blocks
/// `out[pos..] *= src[base..]`, broadcast blocks `out[pos..] *=
/// src[base]` (`src` is the full target-domain factor).
pub(crate) fn mul(blocks: Blocks<impl Iterator<Item = usize>>, src: &[f64], out: &mut [f64]) {
    match blocks.kind {
        PlanKind::Contig => run(
            blocks,
            &mut MulRun {
                scan: out,
                target: src,
            },
        ),
        PlanKind::Broadcast => run(
            blocks,
            &mut ScaleBlock {
                scan: out,
                target: src,
            },
        ),
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
