//! Executing task kinds against a buffer arena.
//!
//! Shared by the sequential reference engine and by tests; the parallel
//! scheduler executes the same primitives through its own arena (see
//! `evprop-sched`), so correctness proved here transfers.

use crate::graph::TaskKind;
use evprop_potential::{EntryRange, PotentialTable};

/// Splits the arena into one mutable table (the task's destination) and
/// shared references to the others.
///
/// # Panics
///
/// Panics if `w` collides with any element of `reads` or any index is out
/// of bounds — both indicate a malformed task graph.
pub fn write_and_read<'a>(
    arena: &'a mut [PotentialTable],
    w: usize,
    reads: &[usize],
) -> (&'a mut PotentialTable, Vec<&'a PotentialTable>) {
    assert!(w < arena.len(), "write index out of bounds");
    for &r in reads {
        assert!(r < arena.len(), "read index out of bounds");
        assert_ne!(r, w, "task reads its own destination exclusively");
    }
    // SAFETY: `w` is disjoint from every element of `reads` (asserted
    // above), so one `&mut` plus shared refs to *other* slots never
    // alias. Duplicate read indices are fine (shared refs may alias each
    // other).
    let base = arena.as_mut_ptr();
    let dst = unsafe { &mut *base.add(w) };
    let srcs = reads
        .iter()
        .map(|&r| unsafe { &*(base.add(r) as *const PotentialTable) })
        .collect();
    (dst, srcs)
}

/// Executes a whole task against the arena.
///
/// * `Marginalize` zeroes its destination, then accumulates.
/// * `Divide` copies the numerator into the destination, then divides by
///   the denominator elementwise (`0/0 = 0`).
/// * `Extend` overwrites the destination with the replicated source.
/// * `Multiply` multiplies the destination by the source projected onto
///   each destination entry (a separator or an extended ratio).
///
/// # Panics
///
/// Panics on malformed graphs (aliasing or domain mismatches), which
/// `TaskGraph::validate` rules out.
pub fn execute_full(kind: &TaskKind, arena: &mut [PotentialTable]) {
    match *kind {
        TaskKind::Marginalize { src, dst, max } => {
            let (d, s) = write_and_read(arena, dst.index(), &[src.index()]);
            d.fill(0.0);
            let range = EntryRange::full(s[0].len());
            if max {
                s[0].max_marginalize_range_into(range, d)
                    .expect("separator domain nests in clique domain");
            } else {
                s[0].marginalize_range_into(range, d)
                    .expect("separator domain nests in clique domain");
            }
        }
        TaskKind::Divide { num, den, dst } => {
            let (d, s) = write_and_read(arena, dst.index(), &[num.index(), den.index()]);
            d.data_mut().copy_from_slice(s[0].data());
            d.divide_assign(s[1]).expect("separator domains agree");
        }
        TaskKind::Extend { src, dst } => {
            let (d, s) = write_and_read(arena, dst.index(), &[src.index()]);
            s[0].extend_range_into(EntryRange::full(d.len()), d)
                .expect("separator domain nests in clique domain");
        }
        TaskKind::Multiply { src, dst } => {
            let (d, s) = write_and_read(arena, dst.index(), &[src.index()]);
            d.multiply_assign(s[0])
                .expect("message domain nests in clique domain");
        }
    }
}

/// Executes the destination-partitioned slice `range` of a `Divide`,
/// `Extend` or `Multiply` task (their disjoint destination ranges
/// concatenate to the whole result). `Marginalize` is *source*-
/// partitioned and needs private partial tables — the scheduler handles
/// it specially — so passing one here panics.
///
/// # Panics
///
/// Panics for `Marginalize` tasks and on malformed graphs.
pub fn execute_range(kind: &TaskKind, range: EntryRange, arena: &mut [PotentialTable]) {
    match *kind {
        TaskKind::Marginalize { .. } => {
            panic!("marginalization is source-partitioned; use private partials")
        }
        TaskKind::Divide { num, den, dst } => {
            let (d, s) = write_and_read(arena, dst.index(), &[num.index(), den.index()]);
            d.data_mut()[range.start..range.end]
                .copy_from_slice(&s[0].data()[range.start..range.end]);
            d.divide_assign_range(range, s[1])
                .expect("separator domains agree");
        }
        TaskKind::Extend { src, dst } => {
            let (d, s) = write_and_read(arena, dst.index(), &[src.index()]);
            s[0].extend_range_into(range, d)
                .expect("separator domain nests in clique domain");
        }
        TaskKind::Multiply { src, dst } => {
            let (d, s) = write_and_read(arena, dst.index(), &[src.index()]);
            d.multiply_assign_range(range, s[0])
                .expect("message domain nests in clique domain");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BufferId;
    use evprop_potential::{Domain, VarId, Variable};

    fn dom(ids: &[u32]) -> Domain {
        Domain::new(ids.iter().map(|&i| Variable::binary(VarId(i))).collect()).unwrap()
    }

    fn arena() -> Vec<PotentialTable> {
        vec![
            PotentialTable::from_data(dom(&[0, 1]), vec![1., 2., 3., 4.]).unwrap(), // 0 clique
            PotentialTable::from_data(dom(&[1]), vec![5., 6.]).unwrap(),            // 1 sep num
            PotentialTable::from_data(dom(&[1]), vec![2., 3.]).unwrap(),            // 2 sep den
            PotentialTable::zeros(dom(&[1])),                                       // 3 sep dst
            PotentialTable::zeros(dom(&[0, 1])),                                    // 4 ext dst
        ]
    }

    #[test]
    fn full_marginalize() {
        let mut a = arena();
        execute_full(
            &TaskKind::Marginalize {
                src: BufferId(0),
                dst: BufferId(3),
                max: false,
            },
            &mut a,
        );
        assert_eq!(a[3].data(), &[4., 6.]);
        // re-running is idempotent thanks to the zeroing
        execute_full(
            &TaskKind::Marginalize {
                src: BufferId(0),
                dst: BufferId(3),
                max: false,
            },
            &mut a,
        );
        assert_eq!(a[3].data(), &[4., 6.]);
        // max mode takes maxima instead of sums
        execute_full(
            &TaskKind::Marginalize {
                src: BufferId(0),
                dst: BufferId(3),
                max: true,
            },
            &mut a,
        );
        assert_eq!(a[3].data(), &[3., 4.]);
    }

    #[test]
    fn full_divide() {
        let mut a = arena();
        execute_full(
            &TaskKind::Divide {
                num: BufferId(1),
                den: BufferId(2),
                dst: BufferId(3),
            },
            &mut a,
        );
        assert_eq!(a[3].data(), &[2.5, 2.0]);
        // numerator untouched
        assert_eq!(a[1].data(), &[5., 6.]);
    }

    #[test]
    fn full_extend_and_multiply() {
        let mut a = arena();
        execute_full(
            &TaskKind::Extend {
                src: BufferId(1),
                dst: BufferId(4),
            },
            &mut a,
        );
        assert_eq!(a[4].data(), &[5., 6., 5., 6.]);
        execute_full(
            &TaskKind::Multiply {
                src: BufferId(4),
                dst: BufferId(0),
            },
            &mut a,
        );
        assert_eq!(a[0].data(), &[5., 12., 15., 24.]);
    }

    #[test]
    fn ranged_matches_full() {
        for kind in [
            TaskKind::Divide {
                num: BufferId(1),
                den: BufferId(2),
                dst: BufferId(3),
            },
            TaskKind::Extend {
                src: BufferId(1),
                dst: BufferId(4),
            },
            TaskKind::Multiply {
                src: BufferId(4),
                dst: BufferId(0),
            },
        ] {
            let mut whole = arena();
            // pre-fill ext buffer so Multiply has a meaningful source
            execute_full(
                &TaskKind::Extend {
                    src: BufferId(1),
                    dst: BufferId(4),
                },
                &mut whole,
            );
            let mut pieced = whole.clone();
            execute_full(&kind, &mut whole);
            let len = whole[kind.dst().index()].len();
            for r in EntryRange::split(len, 1) {
                execute_range(&kind, r, &mut pieced);
            }
            assert_eq!(
                pieced[kind.dst().index()].data(),
                whole[kind.dst().index()].data()
            );
        }
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn aliasing_panics() {
        let mut a = arena();
        let _ = write_and_read(&mut a, 0, &[0]);
    }

    #[test]
    #[should_panic(expected = "source-partitioned")]
    fn ranged_marginalize_panics() {
        let mut a = arena();
        execute_range(
            &TaskKind::Marginalize {
                src: BufferId(0),
                dst: BufferId(3),
                max: false,
            },
            EntryRange { start: 0, end: 1 },
            &mut a,
        );
    }
}
