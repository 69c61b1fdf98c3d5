//! Element-wise vector operations: `GrB_eWiseAdd` (union of structures)
//! and `GrB_eWiseMult` (intersection).

use crate::binops::BinOp;
use crate::error::{dim_mismatch, GrbError};
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::ParSlice;
use crate::vector::Vector;

fn check_sizes<T: Scalar>(
    w: &Vector<T>,
    u: &Vector<T>,
    v: &Vector<T>,
) -> Result<usize, GrbError> {
    let n = w.size();
    if u.size() != n || v.size() != n {
        return Err(dim_mismatch(
            format!("u.size == v.size == {n}"),
            format!("u.size == {}, v.size == {}", u.size(), v.size()),
        ));
    }
    Ok(n)
}

/// `w = u ⊕ v` over the union of structures: where both inputs have an
/// entry `op` combines them (as `op(u_i, v_i)`), otherwise the single
/// entry is copied.
///
/// Dense ∪ dense and dense ∪ sparse run in parallel and leave `w`
/// dense; two sparse operands merge serially into a sparse `w`.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on size disagreement.
pub fn ewise_add<T, B, R>(
    w: &mut Vector<T>,
    op: B,
    u: &Vector<T>,
    v: &Vector<T>,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    B: BinOp<T>,
    R: Runtime,
{
    let n = check_sizes(w, u, v)?;
    let span = super::op_start_plain(super::OpKind::EwiseAdd, R::NAME);
    let input_nnz = u.nvals() + v.nvals();
    if let (Some((uv, up)), Some((vv, vp))) = (u.dense_parts(), v.dense_parts()) {
        // Dense ∪ dense: one parallel pass, reusing `w`'s store when
        // workspace recycling is on.
        let (mut vals, mut present) = super::kernels::take_or_alloc_dense(w, n);
        {
            let pv = ParSlice::new(&mut vals);
            let pp = ParSlice::new(&mut present);
            rt.parallel_for(n, |i| {
                perfmon::instr(1);
                perfmon::touch_ref(&uv[i]);
                perfmon::touch_ref(&vv[i]);
                let out = match (up[i], vp[i]) {
                    (true, true) => Some(op.apply(uv[i], vv[i])),
                    (true, false) => Some(uv[i]),
                    (false, true) => Some(vv[i]),
                    (false, false) => None,
                };
                if let Some(x) = out {
                    // SAFETY: disjoint indices.
                    unsafe {
                        pv.write(i, x);
                        pp.write(i, true);
                    }
                }
            });
        }
        w.set_dense(vals, present);
        if let Some(span) = span {
            span.finish(input_nnz, w.nvals(), 0);
        }
        return Ok(());
    }
    let dense_sparse = match (u.is_dense_store(), v.is_dense_store()) {
        (true, false) => Some((u, v, true)),
        (false, true) => Some((v, u, false)),
        _ => None,
    };
    if let Some((dense, sparse, dense_first)) = dense_sparse {
        dense_union_sparse(w, op, dense, sparse, dense_first, rt);
        if let Some(span) = span {
            span.finish(input_nnz, w.nvals(), 0);
        }
        return Ok(());
    }
    // Generic path: serial two-pointer merge over entry iterators.
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    let mut ui = u.iter().peekable();
    let mut vi = v.iter().peekable();
    loop {
        perfmon::instr(1);
        match (ui.peek().copied(), vi.peek().copied()) {
            (Some((i, x)), Some((j, y))) => {
                let (k, out) = match i.cmp(&j) {
                    std::cmp::Ordering::Less => {
                        ui.next();
                        (i, x)
                    }
                    std::cmp::Ordering::Greater => {
                        vi.next();
                        (j, y)
                    }
                    std::cmp::Ordering::Equal => {
                        ui.next();
                        vi.next();
                        (i, op.apply(x, y))
                    }
                };
                idx.push(k);
                vals.push(out);
            }
            (Some((i, x)), None) => {
                ui.next();
                idx.push(i);
                vals.push(x);
            }
            (None, Some((j, y))) => {
                vi.next();
                idx.push(j);
                vals.push(y);
            }
            (None, None) => break,
        }
        perfmon::touch_ref(vals.last().expect("just pushed"));
    }
    w.set_sparse(idx, vals);
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), 0);
    }
    Ok(())
}

/// Dense ∪ sparse into a dense `w`: copy the dense operand (one memory
/// copy), then fold the sparse entries into their slots in parallel.
/// Sparse indices are unique, so every slot has one writer. `dense_first`
/// says whether the dense operand is `u`, keeping `op`'s argument order
/// `op(u_i, v_i)`.
fn dense_union_sparse<T, B, R>(
    w: &mut Vector<T>,
    op: B,
    dense: &Vector<T>,
    sparse: &Vector<T>,
    dense_first: bool,
    rt: R,
) where
    T: Scalar,
    B: BinOp<T>,
    R: Runtime,
{
    let n = w.size();
    let (dv, dp) = dense.dense_parts().expect("dense operand");
    let (si, sv) = sparse.sparse_parts().expect("sparse operand");
    let (mut vals, mut present) = super::kernels::take_or_alloc_dense(w, n);
    vals.copy_from_slice(dv);
    present.copy_from_slice(dp);
    if perfmon::enabled() {
        for x in dv {
            perfmon::instr(1);
            perfmon::touch_ref(x);
        }
    }
    {
        let pv = ParSlice::new(&mut vals);
        let pp = ParSlice::new(&mut present);
        rt.parallel_for(si.len(), |p| {
            let i = si[p] as usize;
            perfmon::instr(1);
            perfmon::touch_ref(&sv[p]);
            let out = if !dp[i] {
                sv[p]
            } else if dense_first {
                op.apply(dv[i], sv[p])
            } else {
                op.apply(sv[p], dv[i])
            };
            // SAFETY: sparse indices are unique, so slot `i` has exactly
            // one writer.
            unsafe {
                pv.write(i, out);
                pp.write(i, true);
            }
        });
    }
    w.set_dense(vals, present);
}

/// `w = u ⊗ v` over the intersection of structures.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] on size disagreement.
pub fn ewise_mult<T, B, R>(
    w: &mut Vector<T>,
    op: B,
    u: &Vector<T>,
    v: &Vector<T>,
    rt: R,
) -> Result<(), GrbError>
where
    T: Scalar,
    B: BinOp<T>,
    R: Runtime,
{
    let n = check_sizes(w, u, v)?;
    let span = super::op_start_plain(super::OpKind::EwiseMult, R::NAME);
    let input_nnz = u.nvals() + v.nvals();
    if let (Some((uv, up)), Some((vv, vp))) = (u.dense_parts(), v.dense_parts()) {
        let (mut vals, mut present) = super::kernels::take_or_alloc_dense(w, n);
        {
            let pv = ParSlice::new(&mut vals);
            let pp = ParSlice::new(&mut present);
            rt.parallel_for(n, |i| {
                perfmon::instr(1);
                perfmon::touch_ref(&uv[i]);
                perfmon::touch_ref(&vv[i]);
                if up[i] && vp[i] {
                    // SAFETY: disjoint indices.
                    unsafe {
                        pv.write(i, op.apply(uv[i], vv[i]));
                        pp.write(i, true);
                    }
                }
            });
        }
        w.set_dense(vals, present);
        if let Some(span) = span {
            span.finish(input_nnz, w.nvals(), 0);
        }
        return Ok(());
    }
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    let mut ui = u.iter().peekable();
    let mut vi = v.iter().peekable();
    while let (Some(&(i, x)), Some(&(j, y))) = (ui.peek(), vi.peek()) {
        perfmon::instr(1);
        match i.cmp(&j) {
            std::cmp::Ordering::Less => {
                ui.next();
            }
            std::cmp::Ordering::Greater => {
                vi.next();
            }
            std::cmp::Ordering::Equal => {
                idx.push(i);
                vals.push(op.apply(x, y));
                perfmon::touch_ref(vals.last().expect("just pushed"));
                ui.next();
                vi.next();
            }
        }
    }
    w.set_sparse(idx, vals);
    if let Some(span) = span {
        span.finish(input_nnz, w.nvals(), 0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::{Div, Min, Plus, Second};
    use crate::runtime::GaloisRuntime;

    #[test]
    fn add_unions_sparse_structures() {
        let u = Vector::from_entries(6, vec![(0, 1u32), (2, 2)]).unwrap();
        let v = Vector::from_entries(6, vec![(2, 10u32), (5, 20)]).unwrap();
        let mut w: Vector<u32> = Vector::new(6);
        ewise_add(&mut w, Plus, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(0, 1), (2, 12), (5, 20)]);
    }

    #[test]
    fn mult_intersects_sparse_structures() {
        let u = Vector::from_entries(6, vec![(0, 1u32), (2, 2), (5, 3)]).unwrap();
        let v = Vector::from_entries(6, vec![(2, 10u32), (5, 20)]).unwrap();
        let mut w: Vector<u32> = Vector::new(6);
        ewise_mult(&mut w, Plus, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(2, 12), (5, 23)]);
    }

    #[test]
    fn dense_paths_match_sparse_semantics() {
        let mut u = Vector::from_entries(8, vec![(1, 5u64), (3, 7), (6, 2)]).unwrap();
        let mut v = Vector::from_entries(8, vec![(3, 1u64), (6, 9), (7, 4)]).unwrap();
        let mut sparse_add: Vector<u64> = Vector::new(8);
        ewise_add(&mut sparse_add, Min, &u, &v, GaloisRuntime).unwrap();
        let mut sparse_mul: Vector<u64> = Vector::new(8);
        ewise_mult(&mut sparse_mul, Min, &u, &v, GaloisRuntime).unwrap();
        u.to_dense();
        v.to_dense();
        let mut dense_add: Vector<u64> = Vector::new(8);
        ewise_add(&mut dense_add, Min, &u, &v, GaloisRuntime).unwrap();
        let mut dense_mul: Vector<u64> = Vector::new(8);
        ewise_mult(&mut dense_mul, Min, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(sparse_add.entries(), dense_add.entries());
        assert_eq!(sparse_mul.entries(), dense_mul.entries());
    }

    /// A dense vector with the entries of `entries` only (absent slots
    /// stay absent in the dense store).
    fn dense_of(n: usize, entries: Vec<(u32, u64)>) -> Vector<u64> {
        let mut v = Vector::from_entries(n, entries).unwrap();
        v.to_dense();
        v
    }

    #[test]
    fn dense_union_sparse_keeps_operand_order() {
        // `Div` is not commutative: both orders must apply `op(u_i, v_i)`
        // exactly like the generic sparse merge.
        let d = vec![(0, 100u64), (2, 60), (3, 9), (5, 7)];
        let sp = vec![(2, 3u64), (4, 8), (5, 7)];
        let dense = dense_of(6, d.clone());
        let sparse = Vector::from_entries(6, sp).unwrap();
        let d_sparse = Vector::from_entries(6, d).unwrap();

        let mut got: Vector<u64> = Vector::new(6);
        ewise_add(&mut got, Div, &dense, &sparse, GaloisRuntime).unwrap();
        let mut want: Vector<u64> = Vector::new(6);
        ewise_add(&mut want, Div, &d_sparse, &sparse, GaloisRuntime).unwrap();
        assert_eq!(got.entries(), want.entries());
        assert_eq!(got.get(2), Some(20), "u's value first: 60 / 3");

        let mut got: Vector<u64> = Vector::new(6);
        ewise_add(&mut got, Div, &sparse, &dense, GaloisRuntime).unwrap();
        let mut want: Vector<u64> = Vector::new(6);
        ewise_add(&mut want, Div, &sparse, &d_sparse, GaloisRuntime).unwrap();
        assert_eq!(got.entries(), want.entries());
        assert_eq!(got.get(2), Some(0), "u's value first: 3 / 60");
    }

    #[test]
    fn dense_union_sparse_is_the_exact_presence_union() {
        // The dense operand has absent slots; the sparse one hits absent
        // and present slots alike. Exactly the union is present.
        let dense = dense_of(8, vec![(1, 5u64), (3, 7), (6, 2)]);
        let sparse = Vector::from_entries(8, vec![(0, 4u64), (3, 1), (7, 9)]).unwrap();
        let mut w: Vector<u64> = Vector::new(8);
        ewise_add(&mut w, Plus, &dense, &sparse, GaloisRuntime).unwrap();
        assert_eq!(w.nvals(), 5);
        assert_eq!(w.entries(), vec![(0, 4), (1, 5), (3, 8), (6, 2), (7, 9)]);
        for i in [2u32, 4, 5] {
            assert_eq!(w.get(i), None, "slot {i} is in neither operand");
        }
    }

    #[test]
    fn dense_union_sparse_stores_densely() {
        // Also over a stale dense `w`, whose store is recycled: nothing
        // of its old contents may leak into the result.
        let dense = dense_of(5, vec![(0, 1u64), (4, 2)]);
        let sparse = Vector::from_entries(5, vec![(2, 3u64)]).unwrap();
        let mut w = Vector::new_dense(5, 99u64);
        ewise_add(&mut w, Min, &sparse, &dense, GaloisRuntime).unwrap();
        assert!(w.is_dense_store());
        assert_eq!(w.entries(), vec![(0, 1), (2, 3), (4, 2)]);
    }

    #[test]
    fn second_op_selects_right_input() {
        let u = Vector::from_entries(3, vec![(0, 1u32)]).unwrap();
        let v = Vector::from_entries(3, vec![(0, 9u32)]).unwrap();
        let mut w: Vector<u32> = Vector::new(3);
        ewise_mult(&mut w, Second, &u, &v, GaloisRuntime).unwrap();
        assert_eq!(w.entries(), vec![(0, 9)]);
    }

    #[test]
    fn size_mismatch_errors() {
        let u: Vector<u32> = Vector::new(3);
        let v: Vector<u32> = Vector::new(4);
        let mut w: Vector<u32> = Vector::new(3);
        assert!(ewise_add(&mut w, Plus, &u, &v, GaloisRuntime).is_err());
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let u: Vector<u32> = Vector::new(5);
        let v: Vector<u32> = Vector::new(5);
        let mut w = Vector::from_entries(5, vec![(1, 1u32)]).unwrap();
        ewise_add(&mut w, Plus, &u, &v, GaloisRuntime).unwrap();
        assert!(w.is_empty());
    }
}
