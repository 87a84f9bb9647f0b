//! Compiled kernel plans: precomputed index-map programs for the
//! cross-domain primitives.
//!
//! The walker kernels in [`raw`](crate::raw) re-derive the mixed-radix
//! mapping between a clique domain and a separator domain on **every
//! call** via [`AxisWalker`](crate::AxisWalker), even though the
//! domains — and, for the partitioned scheduler, the δ-ranges — are
//! fixed once the junction tree is compiled. A [`KernelPlan`] hoists
//! that address computation out of the hot loop: it is compiled once
//! per (scan-domain, target-domain, entry-range) triple and then
//! interpreted with plain slice arithmetic.
//!
//! # Shape of a plan
//!
//! Every cross-domain primitive walks one table linearly (the **scan**
//! side: the source for marginalization, the destination for extension
//! and multiplication) while projecting each entry onto a subdomain
//! table (the **target** side). Because domains are sorted by
//! [`VarId`](crate::VarId) and the target is a subdomain of the scan
//! domain, the maximal suffix of scan axes is either
//!
//! * entirely **inside** the target — then it is exactly the target's
//!   own trailing axes, its innermost stride is 1, and consecutive scan
//!   entries map to *consecutive* target entries
//!   ([`PlanKind::Contig`]); or
//! * entirely **absent** from the target — then the target index is
//!   *constant* across the whole block ([`PlanKind::Broadcast`]).
//!
//! Either way the scan side decomposes into uniform blocks of one
//! length, so a plan stores that length once and **one target base per
//! whole block** (`bases`, as `u32`), plus a partial `head` block where
//! the range starts mid-block and a partial `tail` where it ends
//! mid-block. The interpreter runs the head, then the whole blocks —
//! `for i in 0..block { dst[base + i] op= src[pos + i] }`, or a
//! `fill`/reduction for broadcast blocks — then the tail. Block lengths
//! 1, 2, 4, 8 and 16 run as compile-time constants, so a short block is
//! straight-line code rather than a loop with a prologue; every other
//! length runs the same body with a runtime length.
//!
//! # One block walk, collected or streamed
//!
//! The head/bases/tail stream comes from one generator, `BlockWalk`: it
//! seeks once per cut (the range start, the first whole block, the
//! tail) and then carries an odometer over the axes *outside* the
//! uniform suffix one step per block, allocating nothing.
//! [`KernelPlan::compile`] collects the walk into a plan the scheduler
//! caches and re-runs; the unplanned entry points of
//! [`raw`](crate::raw) (`marginalize_range_into_raw`, …) feed the same
//! walk straight into the same block loops, so a one-off call costs
//! neither a plan nor a per-block allocation.
//!
//! # Determinism
//!
//! Plan interpretation performs bit-for-bit the same floating-point
//! operations in the same order as the walker kernels: the elementwise
//! arms do one IEEE operation per entry, however the entries are
//! grouped, and every broadcast block — whole, head or tail — reduces
//! through the **canonical reduction-tree order** defined by
//! [`raw::sum_canonical`](crate::raw::sum_canonical) /
//! [`raw::fold_max_canonical`](crate::raw::fold_max_canonical) — a
//! fixed 4-lane tree plus sequential tail. The block sum is
//! accumulated from `0.0` and then added onto the destination slot, so
//! results are a function of the plan's block geometry (hence of δ)
//! but of *nothing else*: not the thread count, not the schedule. The
//! property tests in `tests/prop_plans.rs` and the unit suite below
//! assert bitwise equality against the walker path.

use crate::simd;
use crate::{Domain, EntryRange, PotentialError, Result};

/// How consecutive scan entries within a block map onto the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// The scan domain's trailing axes are inside the target: a block
    /// of consecutive scan entries maps to consecutive target entries.
    Contig,
    /// The scan domain's trailing axes are absent from the target: a
    /// block of consecutive scan entries maps to one target entry.
    Broadcast,
}

/// A block cut by the range: `len` consecutive scan entries (fewer than
/// a whole block) whose target indices start at `base` (and either
/// advance by one per entry or stay fixed, per [`PlanKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialBlock {
    /// Target index of the first scan entry.
    pub base: usize,
    /// Number of scan entries.
    pub len: usize,
}

/// The block stream every kernel consumes, collected
/// ([`KernelPlan::blocks`]) or streamed ([`BlockWalk::new`]): a partial
/// head block, one target base per whole block of `block` entries, a
/// partial tail block — in scan order, covering the range exactly.
#[derive(Debug)]
pub(crate) struct Blocks<I> {
    pub(crate) kind: PlanKind,
    pub(crate) block: usize,
    pub(crate) head: Option<PartialBlock>,
    pub(crate) bases: I,
    pub(crate) tail: Option<PartialBlock>,
}

/// A compiled index-map program for one (scan-domain, target-domain,
/// entry-range) triple. See the [module docs](self) for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    kind: PlanKind,
    range: EntryRange,
    scan_len: usize,
    target_len: usize,
    block: usize,
    head: Option<PartialBlock>,
    bases: Vec<u32>,
    tail: Option<PartialBlock>,
}

/// Computes the canonical block decomposition of `scan` relative to
/// `tstrides` (its per-axis strides in the target domain, zero for
/// absent axes): the maximal uniform suffix — all-present (contiguous
/// target) or all-absent (constant target) — as a block length plus
/// the [`PlanKind`]. An empty scan domain (size 1) degenerates to a
/// single contiguous block.
///
/// Used by the walker kernels in [`raw`](crate::raw); [`BlockWalk`]
/// applies the same rule in its own single pass. Both must cut ranges
/// into *identical* blocks and hand identical slices to the reduction
/// kernels — what the bitwise walker-vs-plan oracle tests check.
pub(crate) fn uniform_suffix_block(scan: &Domain, tstrides: &[usize]) -> (usize, PlanKind) {
    let width = scan.width();
    let last_present = width > 0 && tstrides[width - 1] != 0;
    let kind = if width == 0 || last_present {
        PlanKind::Contig
    } else {
        PlanKind::Broadcast
    };
    let mut block = 1usize;
    for pos in (0..width).rev() {
        let present = tstrides[pos] != 0;
        if present != last_present {
            break;
        }
        block *= scan.vars()[pos].cardinality();
    }
    (block, kind)
}

/// Capacity of [`BlockWalk`]'s odometer. Only axes of two or more
/// states ever move, and a domain's size fits in a `usize`, so no
/// domain has more than `usize::BITS - 1` of them.
const MAX_MOVING_AXES: usize = usize::BITS as usize;

/// One moving axis of a [`BlockWalk`]'s odometer.
#[derive(Debug, Clone, Copy, Default)]
struct Digit {
    card: usize,
    /// Stride of the axis in the target (0 when the target lacks it).
    tstride: usize,
    count: usize,
}

/// The whole-block bases of one (scan, target, range) triple as an
/// allocation-free iterator — exactly the `bases` list
/// [`KernelPlan::compile`] stores, in order. [`BlockWalk::new`] wraps it
/// with the head and tail blocks.
///
/// The walk splits the scan axes into the uniform suffix (one block,
/// see [`uniform_suffix_block`]) and the axes before it. It seeks the
/// head, the first whole block and the tail once each, writing the
/// odometer over the moving (two or more states) prefix axes in place,
/// and then carries that odometer one step per whole block.
#[derive(Debug)]
pub(crate) struct BlockWalk {
    /// Whole blocks left to yield.
    left: usize,
    /// Target index of the next whole block's first entry.
    base: usize,
    /// Moving prefix axes, innermost first.
    digits: [Digit; MAX_MOVING_AXES],
    moving: usize,
}

impl BlockWalk {
    /// The block stream of `range` of a table over `scan` projected
    /// onto `target`.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if `target` ⊄ `scan`;
    /// [`PotentialError::BadRange`] if `range` exceeds `scan.size()`.
    pub(crate) fn new(scan: &Domain, target: &Domain, range: EntryRange) -> Result<Blocks<Self>> {
        for v in target.vars() {
            if !scan.contains(v.id()) {
                return Err(PotentialError::NotSubdomain { missing: v.id() });
            }
        }
        if range.start > range.end || range.end > scan.size() {
            return Err(PotentialError::BadRange {
                start: range.start,
                end: range.end,
                len: scan.size(),
            });
        }
        let vars = scan.vars();
        let width = vars.len();
        let last_present = width > 0 && target.contains(vars[width - 1].id());
        let kind = if width == 0 || last_present {
            PlanKind::Contig
        } else {
            PlanKind::Broadcast
        };
        // Target strides by a merge of the two sorted domains (target ⊆
        // scan), from the innermost axis out.
        let mut unmatched = target.width();
        let mut axes = vars.iter().enumerate().rev().map(|(pos, v)| {
            let present = unmatched > 0 && target.vars()[unmatched - 1].id() == v.id();
            let tstride = if present {
                unmatched -= 1;
                target.stride(unmatched)
            } else {
                0
            };
            (pos, v.cardinality(), present, tstride)
        });
        // The uniform suffix fixes the block length ...
        let mut block = 1usize;
        let mut outer = None;
        for axis @ (_, card, present, _) in axes.by_ref() {
            if present != last_present {
                outer = Some(axis);
                break;
            }
            block *= card;
        }
        // ... and so the cuts: a head up to the first block boundary,
        // whole blocks, a tail.
        let lead = range.start % block;
        let head_len = if lead == 0 {
            0
        } else {
            (block - lead).min(range.len())
        };
        let first = range.start + head_len;
        let whole = (range.end - first) / block;
        let tail_start = first + whole * block;
        let mut walk = BlockWalk {
            left: whole,
            base: 0,
            digits: [Digit::default(); MAX_MOVING_AXES],
            moving: 0,
        };
        // The prefix axes: seek the odometer to the first whole block
        // and the head and tail to their own blocks.
        let has_tail = range.end > tail_start;
        let (mut head_base, mut tail_base) = (0, 0);
        for (pos, card, _, tstride) in outer.into_iter().chain(axes) {
            if card == 1 {
                continue;
            }
            // The axis's digit at scan entry `at`.
            let digit = |at: usize| at / scan.stride(pos) % card;
            if head_len > 0 {
                head_base += digit(range.start) * tstride;
            }
            if has_tail {
                tail_base += digit(tail_start) * tstride;
            }
            let count = digit(first);
            walk.base += count * tstride;
            walk.digits[walk.moving] = Digit {
                card,
                tstride,
                count,
            };
            walk.moving += 1;
        }
        // Contig suffix axes are the target's trailing axes, laid out
        // alike: the offset into the block is the offset into the
        // target run.
        if kind == PlanKind::Contig {
            head_base += lead;
        }
        Ok(Blocks {
            kind,
            block,
            head: (head_len > 0).then_some(PartialBlock {
                base: head_base,
                len: head_len,
            }),
            bases: walk,
            tail: has_tail.then_some(PartialBlock {
                base: tail_base,
                len: range.end - tail_start,
            }),
        })
    }
}

impl Iterator for BlockWalk {
    type Item = usize;

    /// The current block's base, then one odometer step to the next.
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let base = self.base;
        if self.left > 0 {
            for d in &mut self.digits[..self.moving] {
                d.count += 1;
                self.base += d.tstride;
                if d.count < d.card {
                    break;
                }
                d.count = 0;
                self.base -= d.card * d.tstride;
            }
        }
        Some(base)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl KernelPlan {
    /// Compiles the plan mapping `range` of a table over `scan` onto a
    /// table over `target`: the collected block walk.
    ///
    /// `scan` is the linearly-walked superdomain (marginalization
    /// source; extension/multiplication destination) and `target` the
    /// projected subdomain. Compilation is `O(width + range.len() /
    /// block)` — blocks, not entries.
    ///
    /// # Errors
    ///
    /// [`PotentialError::NotSubdomain`] if `target` ⊄ `scan`;
    /// [`PotentialError::BadRange`] if `range` exceeds `scan.size()`;
    /// [`PotentialError::PlanTargetTooLarge`] if `target` has
    /// `u32::MAX` entries or more.
    pub fn compile(scan: &Domain, target: &Domain, range: EntryRange) -> Result<Self> {
        let walk = BlockWalk::new(scan, target, range)?;
        // Every base is below the target's size, so this one check
        // makes each narrowing below lossless.
        if u32::try_from(target.size()).is_err() {
            return Err(PotentialError::PlanTargetTooLarge { len: target.size() });
        }
        Ok(Self {
            kind: walk.kind,
            range,
            scan_len: scan.size(),
            target_len: target.size(),
            block: walk.block,
            head: walk.head,
            bases: walk.bases.map(|b| b as u32).collect(),
            tail: walk.tail,
        })
    }

    /// The block mapping kind.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// The scan-side entry range this plan covers.
    pub fn range(&self) -> EntryRange {
        self.range
    }

    /// Scan entries per whole block: the uniform suffix's size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The partial block the range starts in, if it starts mid-block.
    pub fn head(&self) -> Option<PartialBlock> {
        self.head
    }

    /// The target base of every whole block, in scan order.
    pub fn bases(&self) -> &[u32] {
        &self.bases
    }

    /// The partial block the range ends in, if it ends mid-block.
    pub fn tail(&self) -> Option<PartialBlock> {
        self.tail
    }

    /// Inner-loop operation count: one op per scan entry in the range.
    ///
    /// This is what the scheduler uses as a subtask's weight — derived
    /// from the plan rather than re-proxied from table sizes, and equal
    /// to the partitionable table's range length so that cost-model
    /// calibrations (and the simulator's figures) are unchanged.
    pub fn ops(&self) -> u64 {
        self.range.len() as u64
    }

    /// Memory footprint of this compiled program in bytes: the struct
    /// itself plus its heap-allocated base list. Backs the model
    /// registry's resident-byte accounting.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bases.len() * std::mem::size_of::<u32>()
    }

    /// The stored block stream, as the kernels consume it.
    fn blocks(&self) -> Blocks<impl Iterator<Item = usize> + '_> {
        Blocks {
            kind: self.kind,
            block: self.block,
            head: self.head,
            bases: self.bases.iter().map(|&b| b as usize),
            tail: self.tail,
        }
    }

    /// Sum-marginalization: accumulates `src[range]` (full scan-domain
    /// slice) into the full target table `dst` (the caller zeroes `dst`
    /// before the first partial). Contiguous blocks do one `+=` per
    /// entry; broadcast blocks reduce in the canonical order (see the
    /// [module docs](self)) and add the block sum onto the slot.
    ///
    /// # Errors
    ///
    /// [`PotentialError::DataSizeMismatch`] if `src` is not the scan
    /// table or `dst` not the target table.
    pub fn marginalize_sum_into(&self, src: &[f64], dst: &mut [f64]) -> Result<()> {
        check_len(self.scan_len, src.len())?;
        check_len(self.target_len, dst.len())?;
        let win = &src[self.range.start..self.range.end];
        simd::marg_sum(self.blocks(), win, dst);
        Ok(())
    }

    /// Max-marginalization: like [`marginalize_sum_into`]
    /// (Self::marginalize_sum_into) but folding with elementwise `max`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::marginalize_sum_into`].
    pub fn marginalize_max_into(&self, src: &[f64], dst: &mut [f64]) -> Result<()> {
        check_len(self.scan_len, src.len())?;
        check_len(self.target_len, dst.len())?;
        let win = &src[self.range.start..self.range.end];
        simd::marg_max(self.blocks(), win, dst);
        Ok(())
    }

    /// Extension: fills `out` (window aliasing `range` of the
    /// scan-domain destination) with the replicated target-domain
    /// source `src`.
    ///
    /// # Errors
    ///
    /// [`PotentialError::DataSizeMismatch`] if `src` is not the target
    /// table or `out` is not exactly `range.len()` entries.
    pub fn extend_into(&self, src: &[f64], out: &mut [f64]) -> Result<()> {
        check_len(self.target_len, src.len())?;
        check_len(self.range.len(), out.len())?;
        simd::extend(self.blocks(), src, out);
        Ok(())
    }

    /// Multiplication: `out[i] *= src[project(range.start + i)]` where
    /// `out` aliases `range` of the scan-domain destination and `src`
    /// is the full target-domain factor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::extend_into`].
    pub fn multiply_into(&self, src: &[f64], out: &mut [f64]) -> Result<()> {
        check_len(self.target_len, src.len())?;
        check_len(self.range.len(), out.len())?;
        simd::mul(self.blocks(), src, out);
        Ok(())
    }
}

/// [`PotentialError::DataSizeMismatch`] unless a slice has the length
/// its domain or window fixes.
pub(crate) fn check_len(expected: usize, found: usize) -> Result<()> {
    if found != expected {
        return Err(PotentialError::DataSizeMismatch { expected, found });
    }
    Ok(())
}

/// Division over a destination window. Division never crosses domains
/// (numerator, denominator and destination share one separator domain),
/// so its "plan" is the identity map and it stays a free function:
/// `out[i] = num[range.start + i] / den[range.start + i]` with the
/// Hugin convention `0/0 = 0`.
///
/// # Errors
///
/// Same conditions as [`raw::divide_range_into`]
/// (crate::raw::divide_range_into), which is its walker twin.
pub fn divide_planned(num: &[f64], den: &[f64], range: EntryRange, out: &mut [f64]) -> Result<()> {
    if range.start > range.end || range.end > num.len() {
        return Err(PotentialError::BadRange {
            start: range.start,
            end: range.end,
            len: num.len(),
        });
    }
    if den.len() != num.len() {
        return Err(PotentialError::DataSizeMismatch {
            expected: num.len(),
            found: den.len(),
        });
    }
    if out.len() != range.len() {
        return Err(PotentialError::DataSizeMismatch {
            expected: range.len(),
            found: out.len(),
        });
    }
    let nm = &num[range.start..range.end];
    let dn = &den[range.start..range.end];
    simd::div_into(nm, dn, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw;
    use crate::{VarId, Variable};

    fn dom(spec: &[(u32, usize)]) -> Domain {
        Domain::new(
            spec.iter()
                .map(|&(id, c)| Variable::new(VarId(id), c))
                .collect(),
        )
        .unwrap()
    }

    /// Deterministic pseudo-random fill (no RNG dep in the lib tests).
    fn fill(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                ((x >> 33) % 997) as f64 / 31.0
            })
            .collect()
    }

    /// The (scan, target) pairs the junction-tree builder actually
    /// produces: sorted domains with target ⊆ scan, including the
    /// degenerate all/none/empty projections.
    fn cases() -> Vec<(Domain, Domain)> {
        let scan = dom(&[(0, 2), (1, 3), (2, 2), (3, 4)]);
        let subsets: &[&[u32]] = &[
            &[],
            &[0],
            &[3],
            &[0, 1],
            &[0, 3],
            &[1, 2],
            &[2, 3],
            &[0, 1, 2],
            &[1, 2, 3],
            &[0, 1, 2, 3],
        ];
        let mut out: Vec<(Domain, Domain)> = subsets
            .iter()
            .map(|ids| {
                (
                    scan.clone(),
                    scan.project(ids.iter().map(|&i| VarId(i)).collect::<Vec<_>>().as_slice()),
                )
            })
            .collect();
        let tiny = dom(&[(7, 2)]);
        out.push((tiny.clone(), tiny.clone()));
        out.push((tiny.clone(), dom(&[])));
        out.push((dom(&[]), dom(&[])));
        out
    }

    fn ranges(len: usize) -> Vec<EntryRange> {
        let mut rs = vec![EntryRange::full(len)];
        for chunk in [1usize, 3, 7] {
            rs.extend(EntryRange::split(len, chunk));
        }
        if len > 2 {
            rs.push(EntryRange {
                start: 1,
                end: len - 1,
            });
        }
        rs.push(EntryRange { start: 0, end: 0 });
        rs
    }

    #[test]
    fn whole_domain_projection_is_one_contig_block() {
        let d = dom(&[(0, 2), (1, 3)]);
        let p = KernelPlan::compile(&d, &d, EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Contig);
        assert_eq!(
            (p.block(), p.head(), p.bases(), p.tail()),
            (6, None, &[0][..], None)
        );
        assert_eq!(p.ops(), 6);
    }

    #[test]
    fn empty_target_is_one_broadcast_block() {
        let d = dom(&[(0, 2), (1, 3)]);
        let p = KernelPlan::compile(&d, &dom(&[]), EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Broadcast);
        assert_eq!(
            (p.block(), p.head(), p.bases(), p.tail()),
            (6, None, &[0][..], None)
        );
    }

    #[test]
    fn trailing_axis_present_gives_contig_blocks() {
        // scan [a, b], target [b]: every a-slice is one block over the
        // whole target.
        let scan = dom(&[(0, 2), (1, 3)]);
        let target = dom(&[(1, 3)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Contig);
        assert_eq!((p.block(), p.bases()), (3, &[0, 0][..]));
    }

    #[test]
    fn trailing_axis_absent_gives_broadcast_blocks() {
        // scan [a, b], target [a]: each a-value's b-run collapses onto
        // one target slot.
        let scan = dom(&[(0, 2), (1, 3)]);
        let target = dom(&[(0, 2)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange::full(6)).unwrap();
        assert_eq!(p.kind(), PlanKind::Broadcast);
        assert_eq!((p.block(), p.bases()), (3, &[0, 1][..]));
    }

    #[test]
    fn partial_ranges_cut_blocks() {
        let scan = dom(&[(0, 2), (1, 3)]);
        let target = dom(&[(0, 2)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange { start: 2, end: 4 }).unwrap();
        assert_eq!(p.head(), Some(PartialBlock { base: 0, len: 1 }));
        assert!(p.bases().is_empty());
        assert_eq!(p.tail(), Some(PartialBlock { base: 1, len: 1 }));
        assert_eq!(p.ops(), 2);
        // a contig head starts at its offset into the block
        let p =
            KernelPlan::compile(&scan, &dom(&[(1, 3)]), EntryRange { start: 1, end: 6 }).unwrap();
        assert_eq!(p.head(), Some(PartialBlock { base: 1, len: 2 }));
        assert_eq!((p.bases(), p.tail()), (&[0][..], None));
        // a range inside one block is only a head, or only a tail
        let p = KernelPlan::compile(&scan, &target, EntryRange { start: 4, end: 5 }).unwrap();
        assert_eq!(
            (p.head(), p.tail()),
            (Some(PartialBlock { base: 1, len: 1 }), None)
        );
        let p = KernelPlan::compile(&scan, &target, EntryRange { start: 3, end: 5 }).unwrap();
        assert_eq!(
            (p.head(), p.tail()),
            (None, Some(PartialBlock { base: 1, len: 2 }))
        );
    }

    #[test]
    fn plan_target_past_u32_is_refused() {
        let huge = Domain::new((0..33).map(|i| Variable::binary(VarId(i))).collect()).unwrap();
        let err = KernelPlan::compile(&huge, &huge, EntryRange { start: 0, end: 0 });
        assert!(matches!(
            err,
            Err(PotentialError::PlanTargetTooLarge { .. })
        ));
    }

    #[test]
    fn compile_rejects_bad_inputs() {
        let scan = dom(&[(0, 2)]);
        let err = KernelPlan::compile(&scan, &dom(&[(9, 2)]), EntryRange::full(2));
        assert!(matches!(err, Err(PotentialError::NotSubdomain { .. })));
        let err = KernelPlan::compile(&scan, &scan, EntryRange { start: 0, end: 3 });
        assert!(matches!(err, Err(PotentialError::BadRange { .. })));
    }

    #[test]
    fn apply_rejects_wrong_lengths() {
        let scan = dom(&[(0, 2), (1, 2)]);
        let target = dom(&[(1, 2)]);
        let p = KernelPlan::compile(&scan, &target, EntryRange::full(4)).unwrap();
        let src = fill(4, 1);
        let mut short = vec![0.0; 1];
        assert!(matches!(
            p.marginalize_sum_into(&src, &mut short),
            Err(PotentialError::DataSizeMismatch { .. })
        ));
        let mut out = vec![0.0; 3]; // window must be exactly range.len()
        assert!(matches!(
            p.extend_into(&fill(2, 2), &mut out),
            Err(PotentialError::DataSizeMismatch { .. })
        ));
    }

    #[test]
    fn marginalize_matches_walker_bitwise() {
        for (scan, target) in cases() {
            let src = fill(scan.size(), 0xA5);
            for range in ranges(scan.size()) {
                let plan = KernelPlan::compile(&scan, &target, range).unwrap();
                for max in [false, true] {
                    let mut want = fill(target.size(), 0x17);
                    let mut got = want.clone();
                    if max {
                        raw::max_marginalize_range_into_walker(
                            &scan, &src, range, &target, &mut want,
                        )
                        .unwrap();
                        plan.marginalize_max_into(&src, &mut got).unwrap();
                    } else {
                        raw::marginalize_range_into_walker(&scan, &src, range, &target, &mut want)
                            .unwrap();
                        plan.marginalize_sum_into(&src, &mut got).unwrap();
                    }
                    assert_eq!(
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "scan {:?} target {:?} range {:?} max {}",
                        scan.var_ids(),
                        target.var_ids(),
                        range,
                        max
                    );
                }
            }
        }
    }

    #[test]
    fn extend_and_multiply_match_walker_bitwise() {
        for (scan, target) in cases() {
            let src = fill(target.size(), 0xB7);
            for range in ranges(scan.size()) {
                let plan = KernelPlan::compile(&scan, &target, range).unwrap();
                let mut want = fill(range.len(), 0x29);
                let mut got = want.clone();
                raw::extend_range_into_walker(&target, &src, &scan, range, &mut want).unwrap();
                plan.extend_into(&src, &mut got).unwrap();
                assert_eq!(want, got, "extend mismatch");

                let mut want = fill(range.len(), 0x31);
                let mut got = want.clone();
                raw::multiply_range_into_walker(&target, &src, &scan, range, &mut want).unwrap();
                plan.multiply_into(&src, &mut got).unwrap();
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "multiply mismatch"
                );
            }
        }
    }

    #[test]
    fn partials_over_split_ranges_compose() {
        // δ-partitioned plans over disjoint subranges must compose to
        // the full-range result — the invariant the scheduler leans on.
        // Since the canonical reduction order groups each plan's blocks
        // through a 4-lane tree, different δ cuts round differently in
        // the last ulps: sums compose to within tight tolerance (and
        // the engines only ever mix partials at one fixed δ, where
        // determinism is bitwise — asserted by tests/prop_plans.rs);
        // max is order-insensitive on this data, so it composes
        // exactly.
        let scan = dom(&[(0, 2), (1, 3), (2, 2)]);
        let target = dom(&[(1, 3)]);
        let src = fill(scan.size(), 0xC3);
        let full = KernelPlan::compile(&scan, &target, EntryRange::full(scan.size())).unwrap();
        let mut want_sum = vec![0.0; target.size()];
        full.marginalize_sum_into(&src, &mut want_sum).unwrap();
        let mut want_max = vec![0.0; target.size()];
        full.marginalize_max_into(&src, &mut want_max).unwrap();
        for chunk in [1usize, 2, 5] {
            let mut acc = vec![0.0; target.size()];
            let mut acc_max = vec![0.0; target.size()];
            for r in EntryRange::split(scan.size(), chunk) {
                let p = KernelPlan::compile(&scan, &target, r).unwrap();
                p.marginalize_sum_into(&src, &mut acc).unwrap();
                p.marginalize_max_into(&src, &mut acc_max).unwrap();
            }
            for (w, a) in want_sum.iter().zip(&acc) {
                assert!((w - a).abs() <= 1e-12 * w.abs().max(1.0), "chunk {chunk}");
            }
            assert_eq!(want_max, acc_max, "chunk {chunk}");
        }
    }

    #[test]
    fn divide_planned_matches_walker() {
        let num = fill(12, 3);
        let mut den = fill(12, 9);
        den[4] = 0.0;
        for r in ranges(12) {
            let mut want = vec![0.0; r.len()];
            let mut got = vec![0.0; r.len()];
            raw::divide_range_into(&num, &den, r, &mut want).unwrap();
            divide_planned(&num, &den, r, &mut got).unwrap();
            assert_eq!(want, got);
        }
    }
}
