//! Raw-slice forms of the node-level primitives.
//!
//! The collaborative scheduler's Partition module (§6 of the paper) lets
//! several threads work on *disjoint entry ranges of the same
//! destination buffer* at once. Sound Rust for that pattern must never
//! materialize a `&mut PotentialTable` (or even a `&PotentialTable`) for
//! a buffer that another thread partially owns — a reference claims the
//! whole object. The functions here therefore operate on **domains plus
//! plain `f64` slices**: the scheduler derives each subtask's window
//! (`&mut [f64]` over exactly its [`EntryRange`]) from a raw base
//! pointer, and hands the *shape* of the buffer separately, straight
//! from the task graph's buffer specs.
//!
//! Conventions shared by every function:
//!
//! * `range` is an **absolute** half-open entry range of the partitioned
//!   buffer (the destination for divide/extend/multiply, the source for
//!   marginalization);
//! * `out` is a window of exactly `range.len()` entries, aliasing the
//!   partitioned buffer's `range.start..range.end` (or, for
//!   marginalization, the whole private/destination table);
//! * full source buffers are passed as complete slices — sources are
//!   never written concurrently (the task DAG orders writers), so shared
//!   slices over them are sound.
//!
//! The `PotentialTable` `*_range` methods are thin wrappers over these
//! functions, so the sequential engines and the partitioned scheduler
//! execute literally the same arithmetic.
//!
//! # Planned, streamed and walker forms
//!
//! Each cross-domain kernel runs in three forms that compute
//! bit-identical results:
//!
//! * **planned** — a [`KernelPlan`](crate::KernelPlan) is the collected
//!   block walk (see [`plan`](crate::plan)), compiled once and cached
//!   on the task graph; the scheduler interprets those plans and skips
//!   the entry points here entirely;
//! * **streamed** — the entry points here (`marginalize_range_into_raw`,
//!   `max_marginalize_range_into_raw`, `extend_range_into_raw`,
//!   `multiply_range_into_raw`) run the same block walk — head, one
//!   base per whole block, tail — straight into the same block loops,
//!   with no plan and no allocation: every
//!   one-off kernel call (the `PotentialTable` methods, the read-out of
//!   every query, the sequential oracle) takes this form;
//! * **walker** (`*_walker`) — derives the index mapping on the fly
//!   with an [`AxisWalker`], seeking once per block: an independent
//!   reference implementation, kept as the differential-testing oracle
//!   of `tests/prop_plans.rs` and the `plan` unit suite, called by
//!   nothing else.
//!
//! # Canonical reduction order
//!
//! All forms execute the same inner slice loops, and every broadcast
//! reduction (a block of scan entries collapsing onto one separator
//! slot) follows **one fixed reduction-tree order**, defined by
//! [`sum_canonical`] and [`fold_max_canonical`] below. This is the
//! determinism contract behind the byte-identical goldens and the
//! bit-identity of answers across thread counts, shards and query
//! paths: the order is part of the result, so it must not be tidied.

use crate::index::AxisWalker;
use crate::plan::{check_len, BlockWalk, PlanKind};
use crate::simd;
use crate::{Domain, EntryRange, PotentialError, Result};

fn check_range(range: EntryRange, len: usize) -> Result<()> {
    if range.start > range.end || range.end > len {
        return Err(PotentialError::BadRange {
            start: range.start,
            end: range.end,
            len,
        });
    }
    Ok(())
}

fn check_window(out: &[f64], range: EntryRange) -> Result<()> {
    if out.len() != range.len() {
        return Err(PotentialError::DataSizeMismatch {
            expected: range.len(),
            found: out.len(),
        });
    }
    Ok(())
}

fn check_subdomain(sub: &Domain, sup: &Domain) -> Result<()> {
    for v in sub.vars() {
        if !sup.contains(v.id()) {
            return Err(PotentialError::NotSubdomain { missing: v.id() });
        }
    }
    Ok(())
}

/// The **canonical sum order** of every broadcast reduction.
///
/// With `chunks = xs.len() / 4`, lane `j ∈ 0..4` accumulates
/// `xs[4k + j]` for `k = 0..chunks` left to right; the lanes combine as
/// `(l0 + l2) + (l1 + l3)`; the `len % 4` tail entries then add in
/// sequentially. The total starts from `0.0` — callers fold it into
/// their own accumulator (see [`reduce_add_into`]).
#[inline(always)]
pub fn sum_canonical(xs: &[f64]) -> f64 {
    let mut it = xs.chunks_exact(4);
    let mut total = 0.0;
    if it.len() > 0 {
        let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0, 0.0, 0.0);
        for c in it.by_ref() {
            l0 += c[0];
            l1 += c[1];
            l2 += c[2];
            l3 += c[3];
        }
        total = (l0 + l2) + (l1 + l3);
    }
    for &x in it.remainder() {
        total += x;
    }
    total
}

/// The **canonical max order**: folds `xs` into `init` with the same
/// 4-lane tree as [`sum_canonical`], using the select
/// `if x > m { m = x }` everywhere — on ties (`+0.0` vs `-0.0`) and
/// NaNs the accumulator is kept.
#[inline(always)]
pub fn fold_max_canonical(init: f64, xs: &[f64]) -> f64 {
    let mut it = xs.chunks_exact(4);
    let mut acc = init;
    if it.len() > 0 {
        let first = it.next().expect("non-empty chunks");
        let (mut m0, mut m1, mut m2, mut m3) = (first[0], first[1], first[2], first[3]);
        for c in it.by_ref() {
            if c[0] > m0 {
                m0 = c[0];
            }
            if c[1] > m1 {
                m1 = c[1];
            }
            if c[2] > m2 {
                m2 = c[2];
            }
            if c[3] > m3 {
                m3 = c[3];
            }
        }
        let t0 = if m0 > m2 { m0 } else { m2 };
        let t1 = if m1 > m3 { m1 } else { m3 };
        let block = if t0 > t1 { t0 } else { t1 };
        if block > acc {
            acc = block;
        }
    }
    for &x in it.remainder() {
        if x > acc {
            acc = x;
        }
    }
    acc
}

/// Folds one broadcast block into its destination slot with the
/// canonical sum order. The single-entry fast path (`δ = 1` plans) is
/// shared here so the walker and planned forms perform the identical
/// `+=` (not `+= (0.0 + x)`, which differs for `-0.0`).
#[inline(always)]
pub(crate) fn reduce_add_into(slot: &mut f64, xs: &[f64]) {
    if let [x] = xs {
        *slot += *x;
    } else {
        *slot += sum_canonical(xs);
    }
}

/// **Division** over a destination window: `out[i] =
/// num[range.start + i] / den[range.start + i]` with the Hugin
/// convention `0/0 = 0`. `num` and `den` are full same-domain buffers
/// (domains are checked upstream by the task-graph builder; here only
/// lengths can be validated).
///
/// # Errors
///
/// [`PotentialError::BadRange`] if `range` exceeds `num`;
/// [`PotentialError::DataSizeMismatch`] if `den` and `num` disagree on
/// length or `out` is not exactly `range.len()` entries.
pub fn divide_range_into(
    num: &[f64],
    den: &[f64],
    range: EntryRange,
    out: &mut [f64],
) -> Result<()> {
    check_range(range, num.len())?;
    if den.len() != num.len() {
        return Err(PotentialError::DataSizeMismatch {
            expected: num.len(),
            found: den.len(),
        });
    }
    check_window(out, range)?;
    let nm = &num[range.start..range.end];
    let dn = &den[range.start..range.end];
    simd::div_into(nm, dn, out);
    Ok(())
}

/// **Extension** into a destination window: fills `out` (aliasing
/// `range` of a buffer over `dst_domain`) with the replicated source
/// table (`src` over `src_domain`, a subdomain of `dst_domain`).
///
/// # Errors
///
/// [`PotentialError::NotSubdomain`] if `src_domain` ⊄ `dst_domain`;
/// [`PotentialError::BadRange`] if `range` exceeds `dst_domain.size()`;
/// [`PotentialError::DataSizeMismatch`] on a wrong-length slice.
pub fn extend_range_into_raw(
    src_domain: &Domain,
    src: &[f64],
    dst_domain: &Domain,
    range: EntryRange,
    out: &mut [f64],
) -> Result<()> {
    let walk = BlockWalk::new(dst_domain, src_domain, range)?;
    check_len(src_domain.size(), src.len())?;
    check_len(range.len(), out.len())?;
    simd::extend(walk, src, out);
    Ok(())
}

/// Walker form of [`extend_range_into_raw`]: same contract, index map
/// derived per call with an [`AxisWalker`].
///
/// # Errors
///
/// Same conditions as [`extend_range_into_raw`].
pub fn extend_range_into_walker(
    src_domain: &Domain,
    src: &[f64],
    dst_domain: &Domain,
    range: EntryRange,
    out: &mut [f64],
) -> Result<()> {
    check_subdomain(src_domain, dst_domain)?;
    check_range(range, dst_domain.size())?;
    check_window(out, range)?;
    if src.len() != src_domain.size() {
        return Err(PotentialError::DataSizeMismatch {
            expected: src_domain.size(),
            found: src.len(),
        });
    }
    let mut w = AxisWalker::new(dst_domain, dst_domain.strides_in(src_domain));
    w.seek(dst_domain, range.start);
    for slot in out.iter_mut() {
        *slot = src[w.target_index()];
        w.advance();
    }
    Ok(())
}

/// **Multiplication** over a destination window: `out[i] *=
/// src[project(range.start + i)]`, where `src` (over `src_domain`, a
/// subdomain of `dst_domain`) is projected onto each destination entry.
///
/// # Errors
///
/// Same conditions as [`extend_range_into_raw`].
pub fn multiply_range_into_raw(
    src_domain: &Domain,
    src: &[f64],
    dst_domain: &Domain,
    range: EntryRange,
    out: &mut [f64],
) -> Result<()> {
    let walk = BlockWalk::new(dst_domain, src_domain, range)?;
    check_len(src_domain.size(), src.len())?;
    check_len(range.len(), out.len())?;
    simd::mul(walk, src, out);
    Ok(())
}

/// Walker form of [`multiply_range_into_raw`]: same contract, index map
/// derived per call with an [`AxisWalker`].
///
/// # Errors
///
/// Same conditions as [`multiply_range_into_raw`].
pub fn multiply_range_into_walker(
    src_domain: &Domain,
    src: &[f64],
    dst_domain: &Domain,
    range: EntryRange,
    out: &mut [f64],
) -> Result<()> {
    check_subdomain(src_domain, dst_domain)?;
    check_range(range, dst_domain.size())?;
    check_window(out, range)?;
    if src.len() != src_domain.size() {
        return Err(PotentialError::DataSizeMismatch {
            expected: src_domain.size(),
            found: src.len(),
        });
    }
    let mut w = AxisWalker::new(dst_domain, dst_domain.strides_in(src_domain));
    w.seek(dst_domain, range.start);
    for slot in out.iter_mut() {
        *slot *= src[w.target_index()];
        w.advance();
    }
    Ok(())
}

/// **Marginalization** of a source range: accumulates (`+=`) the source
/// entries in `range` of `src` (over `src_domain`) into the full
/// destination table `dst` (over `dst_domain` ⊆ `src_domain`). The
/// caller zeroes `dst` beforehand; partials from disjoint ranges add to
/// the complete marginal.
///
/// # Errors
///
/// [`PotentialError::NotSubdomain`] if `dst_domain` ⊄ `src_domain`;
/// [`PotentialError::BadRange`] if `range` exceeds `src`;
/// [`PotentialError::DataSizeMismatch`] on a wrong-length slice.
pub fn marginalize_range_into_raw(
    src_domain: &Domain,
    src: &[f64],
    range: EntryRange,
    dst_domain: &Domain,
    dst: &mut [f64],
) -> Result<()> {
    let walk = BlockWalk::new(src_domain, dst_domain, range)?;
    check_len(src_domain.size(), src.len())?;
    check_len(dst_domain.size(), dst.len())?;
    simd::marg_sum(walk, &src[range.start..range.end], dst);
    Ok(())
}

/// Walker form of [`marginalize_range_into_raw`]: same contract, index
/// map derived per call with an [`AxisWalker`].
///
/// The walker decomposes the range into the same maximal uniform-suffix
/// blocks [`KernelPlan`](crate::KernelPlan) compiles to (seeking the
/// walker once per block instead of advancing per entry), so that its
/// broadcast reductions run the identical canonical-order kernels and
/// stay a bitwise oracle for the planned path.
///
/// # Errors
///
/// Same conditions as [`marginalize_range_into_raw`].
pub fn marginalize_range_into_walker(
    src_domain: &Domain,
    src: &[f64],
    range: EntryRange,
    dst_domain: &Domain,
    dst: &mut [f64],
) -> Result<()> {
    check_subdomain(dst_domain, src_domain)?;
    check_range(range, src.len())?;
    if src.len() != src_domain.size() || dst.len() != dst_domain.size() {
        return Err(PotentialError::DataSizeMismatch {
            expected: src_domain.size(),
            found: src.len(),
        });
    }
    let tstrides = src_domain.strides_in(dst_domain);
    let (block, kind) = crate::plan::uniform_suffix_block(src_domain, &tstrides);
    let mut w = AxisWalker::new(src_domain, tstrides);
    let mut pos = range.start;
    while pos < range.end {
        let len = (pos - pos % block + block).min(range.end) - pos;
        w.seek(src_domain, pos);
        let base = w.target_index();
        match kind {
            PlanKind::Contig => simd::add_assign(&mut dst[base..base + len], &src[pos..pos + len]),
            PlanKind::Broadcast => reduce_add_into(&mut dst[base], &src[pos..pos + len]),
        }
        pos += len;
    }
    Ok(())
}

/// Max-marginalization of a source range: like
/// [`marginalize_range_into_raw`] but folding with elementwise `max`
/// instead of `+` (the max-product algebra of MPE propagation). `dst`
/// should start at zero, the identity for non-negative potentials.
///
/// # Errors
///
/// Same conditions as [`marginalize_range_into_raw`].
pub fn max_marginalize_range_into_raw(
    src_domain: &Domain,
    src: &[f64],
    range: EntryRange,
    dst_domain: &Domain,
    dst: &mut [f64],
) -> Result<()> {
    let walk = BlockWalk::new(src_domain, dst_domain, range)?;
    check_len(src_domain.size(), src.len())?;
    check_len(dst_domain.size(), dst.len())?;
    simd::marg_max(walk, &src[range.start..range.end], dst);
    Ok(())
}

/// Walker form of [`max_marginalize_range_into_raw`]: same contract,
/// index map derived per call with an [`AxisWalker`]. Decomposes into
/// canonical blocks like [`marginalize_range_into_walker`].
///
/// # Errors
///
/// Same conditions as [`max_marginalize_range_into_raw`].
pub fn max_marginalize_range_into_walker(
    src_domain: &Domain,
    src: &[f64],
    range: EntryRange,
    dst_domain: &Domain,
    dst: &mut [f64],
) -> Result<()> {
    check_subdomain(dst_domain, src_domain)?;
    check_range(range, src.len())?;
    if src.len() != src_domain.size() || dst.len() != dst_domain.size() {
        return Err(PotentialError::DataSizeMismatch {
            expected: src_domain.size(),
            found: src.len(),
        });
    }
    let tstrides = src_domain.strides_in(dst_domain);
    let (block, kind) = crate::plan::uniform_suffix_block(src_domain, &tstrides);
    let mut w = AxisWalker::new(src_domain, tstrides);
    let mut pos = range.start;
    while pos < range.end {
        let len = (pos - pos % block + block).min(range.end) - pos;
        w.seek(src_domain, pos);
        let base = w.target_index();
        match kind {
            PlanKind::Contig => simd::max_assign(&mut dst[base..base + len], &src[pos..pos + len]),
            PlanKind::Broadcast => {
                dst[base] = fold_max_canonical(dst[base], &src[pos..pos + len]);
            }
        }
        pos += len;
    }
    Ok(())
}

/// Entrywise `dst[i] += src[i]` — the sum-product combining step for
/// partitioned marginalization partials, on raw slices.
///
/// # Errors
///
/// [`PotentialError::DataSizeMismatch`] if lengths differ.
pub fn add_assign_raw(dst: &mut [f64], src: &[f64]) -> Result<()> {
    if dst.len() != src.len() {
        return Err(PotentialError::DataSizeMismatch {
            expected: dst.len(),
            found: src.len(),
        });
    }
    simd::add_assign(dst, src);
    Ok(())
}

/// Entrywise `dst[i] = max(dst[i], src[i])` — the max-product combining
/// step for partitioned max-marginalization partials, on raw slices.
///
/// # Errors
///
/// [`PotentialError::DataSizeMismatch`] if lengths differ.
pub fn max_assign_raw(dst: &mut [f64], src: &[f64]) -> Result<()> {
    if dst.len() != src.len() {
        return Err(PotentialError::DataSizeMismatch {
            expected: dst.len(),
            found: src.len(),
        });
    }
    simd::max_assign(dst, src);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PotentialTable, VarId, Variable};

    fn dom(spec: &[(u32, usize)]) -> Domain {
        Domain::new(
            spec.iter()
                .map(|&(id, c)| Variable::new(VarId(id), c))
                .collect(),
        )
        .unwrap()
    }

    fn table(spec: &[(u32, usize)], data: Vec<f64>) -> PotentialTable {
        PotentialTable::from_data(dom(spec), data).unwrap()
    }

    /// Pins the canonical reduction order itself: nothing else
    /// cross-checks it, and the goldens depend on its bits. The inputs
    /// make association visible — `1e16 + 1.0` rounds back to `1e16`,
    /// and `x > acc` keeps the accumulator on a `+0.0`/`-0.0` tie.
    #[test]
    fn canonical_order_is_the_four_lane_tree() {
        for n in (0..=9).chain([37]) {
            let chunks = n / 4;
            let tail = [3.0, 5.0, 7.0];
            let xs: Vec<f64> = (0..n)
                .map(|i| match (i < 4 * chunks, i % 4) {
                    (false, j) => tail[j],
                    (true, 0) => 1e16,
                    (true, 2) => -1e16,
                    (true, _) => 1.0,
                })
                .collect();
            let lane = |j: usize| (0..chunks).fold(0.0, |a, k| a + xs[4 * k + j]);
            let mut want = 0.0;
            if chunks > 0 {
                want = (lane(0) + lane(2)) + (lane(1) + lane(3));
            }
            for &x in &xs[4 * chunks..] {
                want += x;
            }
            let tail_sum: f64 = tail[..n % 4].iter().sum();
            assert_eq!(want, (2 * chunks) as f64 + tail_sum, "n={n}");
            assert_eq!(sum_canonical(&xs).to_bits(), want.to_bits(), "n={n}");
            let left_to_right = xs.iter().fold(0.0, |a, &x| a + x);
            assert_eq!(sum_canonical(&xs) != left_to_right, chunks > 0, "n={n}");

            // max: the second operand survives a tie
            let sel = |a: f64, b: f64| if a > b { a } else { b };
            let zs: Vec<f64> = (0..n)
                .map(|i| {
                    if i < 4 * chunks && i % 4 == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                })
                .collect();
            let lane = |j: usize| (1..chunks).fold(zs[j], |m, k| sel(zs[4 * k + j], m));
            let mut want = -1.0;
            if chunks > 0 {
                want = sel(sel(sel(lane(0), lane(2)), sel(lane(1), lane(3))), want);
            }
            for &x in &zs[4 * chunks..] {
                want = sel(x, want);
            }
            let got = fold_max_canonical(-1.0, &zs);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            if n > 0 {
                assert_eq!(got.to_bits(), (-0.0f64).to_bits(), "n={n}");
            }
            let left_to_right = zs.iter().fold(-1.0, |a, &x| sel(x, a));
            assert_eq!(
                got.to_bits() != left_to_right.to_bits(),
                chunks > 0,
                "n={n}"
            );
        }
    }

    #[test]
    fn divide_windows_match_whole() {
        let num = table(&[(0, 2), (1, 2)], vec![1., 4., 0., 9.]);
        let den = table(&[(0, 2), (1, 2)], vec![2., 2., 0., 3.]);
        let mut whole = num.clone();
        whole.divide_assign(&den).unwrap();
        let mut pieced = vec![0.0; num.len()];
        for r in EntryRange::split(num.len(), 3) {
            divide_range_into(num.data(), den.data(), r, &mut pieced[r.start..r.end]).unwrap();
        }
        assert_eq!(pieced, whole.data());
    }

    #[test]
    fn extend_windows_match_whole() {
        let sep = table(&[(2, 2)], vec![7., 9.]);
        let target = dom(&[(0, 2), (2, 2)]);
        let whole = sep.extend(&target).unwrap();
        let mut pieced = vec![0.0; target.size()];
        for r in EntryRange::split(target.size(), 3) {
            extend_range_into_raw(
                sep.domain(),
                sep.data(),
                &target,
                r,
                &mut pieced[r.start..r.end],
            )
            .unwrap();
        }
        assert_eq!(pieced, whole.data());
    }

    #[test]
    fn multiply_windows_match_whole() {
        let base = table(&[(0, 2), (1, 2), (2, 2)], (1..=8).map(f64::from).collect());
        let factor = table(&[(0, 2), (2, 2)], vec![2., 3., 5., 7.]);
        let mut whole = base.clone();
        whole.multiply_assign(&factor).unwrap();
        let mut pieced = base.data().to_vec();
        for r in EntryRange::split(base.len(), 3) {
            multiply_range_into_raw(
                factor.domain(),
                factor.data(),
                base.domain(),
                r,
                &mut pieced[r.start..r.end],
            )
            .unwrap();
        }
        assert_eq!(pieced, whole.data());
    }

    #[test]
    fn marginalize_raw_partials_add_to_whole() {
        let t = table(&[(0, 2), (1, 2), (2, 2)], (1..=8).map(f64::from).collect());
        let target = dom(&[(1, 2)]);
        let whole = t.marginalize(&target).unwrap();
        let mut acc = vec![0.0; target.size()];
        for r in EntryRange::split(t.len(), 3) {
            let mut part = vec![0.0; target.size()];
            marginalize_range_into_raw(t.domain(), t.data(), r, &target, &mut part).unwrap();
            add_assign_raw(&mut acc, &part).unwrap();
        }
        assert_eq!(acc, whole.data());
    }

    #[test]
    fn max_marginalize_raw_partials_max_to_whole() {
        let t = table(
            &[(0, 2), (1, 2), (2, 2)],
            vec![8., 1., 6., 2., 7., 3., 5., 4.],
        );
        let target = dom(&[(1, 2)]);
        let whole = t.max_marginalize(&target).unwrap();
        let mut acc = vec![0.0; target.size()];
        for r in EntryRange::split(t.len(), 3) {
            let mut part = vec![0.0; target.size()];
            max_marginalize_range_into_raw(t.domain(), t.data(), r, &target, &mut part).unwrap();
            max_assign_raw(&mut acc, &part).unwrap();
        }
        assert_eq!(acc, whole.data());
    }

    #[test]
    fn window_length_is_validated() {
        let num = [1.0, 2.0];
        let den = [1.0, 1.0];
        let mut out = [0.0; 3]; // wrong: range covers 2 entries
        let err = divide_range_into(&num, &den, EntryRange { start: 0, end: 2 }, &mut out);
        assert!(matches!(err, Err(PotentialError::DataSizeMismatch { .. })));
    }

    #[test]
    fn bad_ranges_are_rejected() {
        let d = dom(&[(0, 2)]);
        let src = [1.0, 2.0];
        let mut out = [0.0; 3];
        let err = extend_range_into_raw(&d, &src, &d, EntryRange { start: 0, end: 3 }, &mut out);
        assert!(matches!(err, Err(PotentialError::BadRange { .. })));
        let err =
            marginalize_range_into_raw(&d, &src, EntryRange { start: 1, end: 0 }, &d, &mut out);
        assert!(matches!(err, Err(PotentialError::BadRange { .. })));
    }

    #[test]
    fn not_subdomain_is_rejected() {
        let big = dom(&[(0, 2)]);
        let other = dom(&[(5, 2)]);
        let src = [1.0, 2.0];
        let mut out = [0.0, 0.0];
        let err = multiply_range_into_raw(&other, &src, &big, EntryRange::full(2), &mut out);
        assert!(matches!(err, Err(PotentialError::NotSubdomain { .. })));
    }
}
