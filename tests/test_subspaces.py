import numpy as np
import pytest

from helpers import crandn, elimination_rank, max_abs, principal_angle_intersection_dim
from sdoflab import DimensionMismatch, InvalidMatrix, NumericalFailure, Unsolvable
from sdoflab.subspaces import (
    RESIDUAL_ABS_TOL,
    as_matrix,
    complement_projector,
    complete_orthonormal,
    intersect,
    nullspace,
    orthonormal_basis,
    ranks,
    solve_into,
    svd,
)


class TestOrthonormalBasis:
    def test_identity(self):
        sub = orthonormal_basis(np.eye(3))
        assert sub.shape == (3, 3)

    def test_zero_matrix(self):
        sub = orthonormal_basis(np.zeros((4, 2)))
        assert sub.shape == (4, 0)

    def test_zero_columns(self):
        sub = orthonormal_basis(np.zeros((4, 0)))
        assert sub.shape[1] == 0

    def test_random_full_column_rank(self):
        gen = np.random.default_rng(11)
        a = crandn(gen, 5, 3)
        sub = orthonormal_basis(a)
        assert sub.shape[1] == 3
        # oracle: pivoted elimination rank, independent of the SVD path
        assert elimination_rank(a) == sub.shape[1]
        # basis spans col(a): projecting a onto it loses nothing
        proj = sub @ (sub.conj().T @ a)
        assert max_abs(proj - a) < 1e-10

    def test_rank_deficient_matches_elimination_rank(self):
        gen = np.random.default_rng(5)
        for _ in range(30):
            rows, cols, rank = gen.integers(1, 7), gen.integers(1, 7), 0
            inner = int(gen.integers(0, min(rows, cols) + 1))
            a = crandn(gen, rows, inner) @ crandn(gen, inner, cols) if inner else np.zeros((rows, cols), complex)
            sub = orthonormal_basis(a)
            assert sub.shape[1] == elimination_rank(a)

    def test_deterministic(self):
        gen = np.random.default_rng(3)
        a = crandn(gen, 6, 4)
        first = orthonormal_basis(a)
        second = orthonormal_basis(a.copy())
        assert np.array_equal(first, second)


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace(np.eye(3)).shape[1] == 0

    def test_wide_random(self):
        gen = np.random.default_rng(21)
        a = crandn(gen, 2, 4)
        sub = nullspace(a)
        assert sub.shape == (4, 2)
        assert max_abs(a @ sub) < 1e-10

    def test_rank_one_square(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        sub = nullspace(a)
        assert sub.shape[1] == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        overlap = abs(np.vdot(expected, sub[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rank_nullity(self):
        gen = np.random.default_rng(33)
        for _ in range(50):
            rows, cols = int(gen.integers(1, 8)), int(gen.integers(1, 8))
            inner = int(gen.integers(0, min(rows, cols) + 1))
            a = crandn(gen, rows, inner) @ crandn(gen, inner, cols) if inner else np.zeros((rows, cols), complex)
            assert nullspace(a).shape[1] + orthonormal_basis(a).shape[1] == cols


class TestIntersect:
    def test_full_with_full(self):
        full = orthonormal_basis(np.eye(4))
        assert intersect(full, full).shape[1] == 4

    def test_orthogonal_lines(self):
        e1 = np.eye(2)[:, :1].astype(complex)
        e2 = np.eye(2)[:, 1:].astype(complex)
        assert intersect(e1, e2).shape[1] == 0

    def test_random_planes_in_three_space(self):
        gen = np.random.default_rng(8)
        qa = orthonormal_basis(crandn(gen, 3, 2))
        qb = orthonormal_basis(crandn(gen, 3, 2))
        inter = intersect(qa, qb)
        assert inter.shape[1] == 1
        assert inter.shape[1] == principal_angle_intersection_dim(qa, qb)

    def test_members_lie_in_both_spans(self):
        gen = np.random.default_rng(13)
        qa = orthonormal_basis(crandn(gen, 5, 3))
        qb = orthonormal_basis(crandn(gen, 5, 4))
        inter = intersect(qa, qb)
        for q in (qa, qb):
            residual = inter - q @ (q.conj().T @ inter)
            assert max_abs(residual) < RESIDUAL_ABS_TOL

    def test_generic_dimension_law(self):
        # dim(A ^ B) = max(0, dim A + dim B - ambient) for subspaces in
        # generic position, exercised over a large seed sweep.
        gen = np.random.default_rng(1000)
        for _ in range(1000):
            ambient = int(gen.integers(1, 7))
            da = int(gen.integers(0, ambient + 1))
            db = int(gen.integers(0, ambient + 1))
            qa = orthonormal_basis(crandn(gen, ambient, da))
            qb = orthonormal_basis(crandn(gen, ambient, db))
            inter = intersect(qa, qb)
            assert inter.shape[1] == max(0, da + db - ambient)
            # second oracle: rank of the stacked bases
            if da and db:
                stacked_rank = elimination_rank(np.hstack([qa, qb]))
                assert inter.shape[1] == da + db - stacked_rank

    def test_ambient_mismatch(self):
        qa = orthonormal_basis(np.eye(3))
        qb = orthonormal_basis(np.eye(4))
        with pytest.raises(DimensionMismatch):
            intersect(qa, qb)


class TestSolveInto:
    def test_identity_channel(self):
        gen = np.random.default_rng(2)
        target = crandn(gen, 3, 2)
        v = solve_into(np.eye(3), target)
        assert max_abs(v - target) < 1e-12

    def test_roundtrip_and_uniqueness(self):
        gen = np.random.default_rng(4)
        h = crandn(gen, 3, 2)
        w = crandn(gen, 2, 1)
        v = solve_into(h, h @ w)
        assert max_abs(h @ v - h @ w) < RESIDUAL_ABS_TOL
        # full column rank makes the solution unique
        assert max_abs(v - w) < 1e-9

    def test_unreachable_target(self):
        h = np.array([[1.0], [0.0], [0.0]])
        target = np.array([[0.0], [1.0], [0.0]])
        with pytest.raises(Unsolvable):
            solve_into(h, target)

    def test_empty_target(self):
        v = solve_into(np.eye(3), np.zeros((3, 0)))
        assert v.shape == (3, 0)


class TestComplementProjector:
    def test_empty_gives_identity(self):
        u = complement_projector(np.zeros((4, 0)))
        assert max_abs(u - np.eye(4)) < 1e-12

    def test_axis(self):
        u = complement_projector(np.array([[1.0], [0.0]]))
        assert max_abs(u - np.diag([0.0, 1.0])) < 1e-12

    def test_random_columns(self):
        gen = np.random.default_rng(6)
        cols = crandn(gen, 4, 2)
        u = complement_projector(cols)
        assert max_abs(u @ cols) < 1e-10
        assert max_abs(u @ u - u) < 1e-9
        assert max_abs(u - u.conj().T) < 1e-12
        assert elimination_rank(u) == 2

    def test_projector_properties_over_seeds(self):
        gen = np.random.default_rng(77)
        for _ in range(25):
            rows = int(gen.integers(1, 7))
            cols = int(gen.integers(0, rows + 1))
            mat = crandn(gen, rows, cols) if cols else np.zeros((rows, 0), complex)
            u = complement_projector(mat)
            assert max_abs(u @ u - u) < 1e-9
            assert max_abs(u - u.conj().T) < 1e-12


class TestCompleteOrthonormal:
    def test_completing_an_axis(self):
        partial = np.eye(3)[:, :1].astype(complex)
        extra = complete_orthonormal(partial, 2)
        assert extra.shape == (3, 2)
        assert max_abs(partial.conj().T @ extra) < 1e-12
        assert max_abs(extra.conj().T @ extra - np.eye(2)) < 1e-12

    def test_from_trivial_subspace(self):
        partial = np.zeros((4, 0), dtype=complex)
        full = complete_orthonormal(partial, 4)
        assert max_abs(full.conj().T @ full - np.eye(4)) < 1e-10

    def test_stacked_unitary(self):
        gen = np.random.default_rng(9)
        partial = orthonormal_basis(crandn(gen, 5, 2))
        extra = complete_orthonormal(partial, 3)
        stacked = np.hstack([partial, extra])
        assert max_abs(stacked.conj().T @ stacked - np.eye(5)) < 1e-10

    def test_too_many_columns(self):
        partial = np.eye(3).astype(complex)
        with pytest.raises(DimensionMismatch):
            complete_orthonormal(partial, 1)


class TestTolerance:
    def test_rank_cut_is_relative(self):
        # The cutoff scales with the largest singular value: a tiny
        # second one is dropped, a uniformly tiny spectrum is kept whole.
        a = np.diag([1.0, 1e-13]).astype(complex)
        assert orthonormal_basis(a).shape[1] == 1
        assert orthonormal_basis(1e-20 * np.eye(3, dtype=complex)).shape[1] == 3


def _stack(gen, members, rows, cols, rank=None):
    """A stack of CN(0, 1) matrices, of generic rank or of rank ``rank``."""
    if rank is None:
        return np.stack([crandn(gen, rows, cols) for _ in range(members)])
    return np.stack([crandn(gen, rows, rank) @ crandn(gen, rank, cols) for _ in range(members)])


class TestStacks:
    """Each member of a stack against the independent oracles and against its own 2-D call."""

    shapes = [(3, 2), (2, 4), (4, 4), (5, 3), (1, 3)]

    @pytest.mark.parametrize("rows, cols", shapes)
    def test_basis_and_nullspace_per_member(self, rows, cols):
        gen = np.random.default_rng(rows * 10 + cols)
        a = _stack(gen, 6, rows, cols)
        basis, null = orthonormal_basis(a), nullspace(a)
        factors = svd(a)
        assert np.array_equal(orthonormal_basis(a, factors), basis)
        assert np.array_equal(nullspace(a, factors), null)
        for member, q, n in zip(a, basis, null):
            assert q.shape[1] == elimination_rank(member)
            assert n.shape[1] == cols - elimination_rank(member)
            assert max_abs(q @ (q.conj().T @ member) - member) < 1e-10
            assert max_abs(member @ n) < RESIDUAL_ABS_TOL
            assert np.array_equal(q, orthonormal_basis(member))
            assert np.array_equal(n, nullspace(member))

    def test_ranks_decided_per_member(self):
        gen = np.random.default_rng(41)
        a = np.stack([crandn(gen, 4, r) @ crandn(gen, r, 5) for r in (0, 1, 2, 3, 4)])
        got = ranks(a)
        assert got.tolist() == [elimination_rank(member) for member in a] == [0, 1, 2, 3, 4]
        assert int(ranks(a[2])) == 2

    @pytest.mark.parametrize("ambient, da, db", [(3, 2, 2), (5, 3, 4), (4, 2, 1), (6, 4, 4)])
    def test_intersect_per_member(self, ambient, da, db):
        gen = np.random.default_rng(ambient * 100 + da * 10 + db)
        qa = orthonormal_basis(_stack(gen, 5, ambient, da))
        qb = orthonormal_basis(_stack(gen, 5, ambient, db))
        inter = intersect(qa, qb)
        for a, b, c in zip(qa, qb, inter):
            assert c.shape[1] == principal_angle_intersection_dim(a, b)
            assert np.array_equal(c, intersect(a, b))

    def test_solve_per_member(self):
        gen = np.random.default_rng(17)
        h = _stack(gen, 4, 3, 2)
        target = h @ _stack(gen, 4, 2, 1)
        v = solve_into(h, target)
        assert np.array_equal(solve_into(h, target, svd(h)), v)
        for hm, tm, vm in zip(h, target, v):
            assert max_abs(hm @ vm - tm) < RESIDUAL_ABS_TOL
            assert max_abs(vm - solve_into(hm, tm)) < 1e-12
            # minimum norm: v lies in the row space of h
            assert max_abs(nullspace(hm).conj().T @ vm) < 1e-10

    def test_solve_on_a_wide_channel_is_minimum_norm(self):
        gen = np.random.default_rng(18)
        h = _stack(gen, 3, 2, 5)
        target = _stack(gen, 3, 2, 2)
        v = solve_into(h, target)
        for hm, tm, vm in zip(h, target, v):
            assert max_abs(hm @ vm - tm) < RESIDUAL_ABS_TOL
            assert max_abs(vm - np.linalg.pinv(hm) @ tm) < 1e-10

    def test_projector_and_completion_per_member(self):
        gen = np.random.default_rng(19)
        cols = _stack(gen, 4, 5, 2)
        u = complement_projector(cols)
        partial = orthonormal_basis(cols)
        extra = complete_orthonormal(partial, 3)
        for c, um, p, e in zip(cols, u, partial, extra):
            assert elimination_rank(um) == 3
            assert max_abs(um @ c) < 1e-10
            assert np.array_equal(um, complement_projector(c))
            full = np.hstack([p, e])
            assert max_abs(full.conj().T @ full - np.eye(5)) < 1e-10
            assert np.array_equal(e, complete_orthonormal(p, 3))

    @pytest.mark.parametrize("odd", [0, 2, 4])
    def test_rank_deficient_member_is_named(self, odd):
        # A rank that sets a shape must be shared by the whole stack.
        gen = np.random.default_rng(23 + odd)
        a = _stack(gen, 5, 4, 3)
        a[odd] = crandn(gen, 4, 1) @ crandn(gen, 1, 3)
        for primitive in (orthonormal_basis, nullspace, complement_projector):
            with pytest.raises(NumericalFailure, match=f"stack member {odd}:") as exc:
                primitive(a)
            assert exc.value.member == odd
        assert ranks(a).tolist() == [1 if m == odd else 3 for m in range(5)]

    def test_unreachable_target_names_its_member(self):
        gen = np.random.default_rng(29)
        h = _stack(gen, 3, 4, 2)
        target = h @ _stack(gen, 3, 2, 1)
        target[1] = crandn(gen, 4, 1)
        with pytest.raises(Unsolvable, match="stack member 1:") as exc:
            solve_into(h, target)
        assert exc.value.member == 1

    def test_as_matrix_names_the_non_finite_member(self):
        a = np.ones((4, 2, 3))
        a[2, 1, 0] = np.inf
        with pytest.raises(InvalidMatrix, match="stack member 2: h1 contains non-finite") as exc:
            as_matrix(a, "h1", stack=True)
        assert exc.value.member == 2
        with pytest.raises(InvalidMatrix, match="stack of matrices"):
            as_matrix(np.ones((2, 3)), "h1", stack=True)
        with pytest.raises(InvalidMatrix, match="two-dimensional"):
            as_matrix(a, "h1")
