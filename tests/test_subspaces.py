import numpy as np
import pytest

from helpers import crandn, elimination_rank, max_abs, principal_angle_intersection_dim
from sdoflab import (
    DimensionMismatch,
    InvalidMatrix,
    Subspace,
    Unsolvable,
    complement_projector,
    complete_orthonormal,
    intersect,
    nullspace,
    orthonormal_basis,
    solve_into,
)
from sdoflab.subspaces import RESIDUAL_ABS_TOL


class TestOrthonormalBasis:
    def test_identity(self):
        sub = orthonormal_basis(np.eye(3))
        assert sub.dim == 3
        assert sub.ambient_dim == 3

    def test_zero_matrix(self):
        sub = orthonormal_basis(np.zeros((4, 2)))
        assert sub.dim == 0
        assert sub.basis.shape == (4, 0)

    def test_zero_columns(self):
        sub = orthonormal_basis(np.zeros((4, 0)))
        assert sub.dim == 0

    def test_random_full_column_rank(self):
        gen = np.random.default_rng(11)
        a = crandn(gen, 5, 3)
        sub = orthonormal_basis(a)
        assert sub.dim == 3
        # oracle: pivoted elimination rank, independent of the SVD path
        assert elimination_rank(a) == sub.dim
        # basis spans col(a): projecting a onto it loses nothing
        proj = sub.basis @ (sub.basis.conj().T @ a)
        assert max_abs(proj - a) < 1e-10

    def test_rank_deficient_matches_elimination_rank(self):
        gen = np.random.default_rng(5)
        for _ in range(30):
            rows, cols, rank = gen.integers(1, 7), gen.integers(1, 7), 0
            inner = int(gen.integers(0, min(rows, cols) + 1))
            a = crandn(gen, rows, inner) @ crandn(gen, inner, cols) if inner else np.zeros((rows, cols), complex)
            sub = orthonormal_basis(a)
            assert sub.dim == elimination_rank(a)

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            orthonormal_basis(bad)

    def test_deterministic(self):
        gen = np.random.default_rng(3)
        a = crandn(gen, 6, 4)
        first = orthonormal_basis(a).basis
        second = orthonormal_basis(a.copy()).basis
        assert np.array_equal(first, second)


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace(np.eye(3)).dim == 0

    def test_wide_random(self):
        gen = np.random.default_rng(21)
        a = crandn(gen, 2, 4)
        sub = nullspace(a)
        assert sub.ambient_dim == 4
        assert sub.dim == 2
        assert max_abs(a @ sub.basis) < 1e-10

    def test_rank_one_square(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        sub = nullspace(a)
        assert sub.dim == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        overlap = abs(np.vdot(expected, sub.basis[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rank_nullity(self):
        gen = np.random.default_rng(33)
        for _ in range(50):
            rows, cols = int(gen.integers(1, 8)), int(gen.integers(1, 8))
            inner = int(gen.integers(0, min(rows, cols) + 1))
            a = crandn(gen, rows, inner) @ crandn(gen, inner, cols) if inner else np.zeros((rows, cols), complex)
            assert nullspace(a).dim + orthonormal_basis(a).dim == cols


class TestIntersect:
    def test_full_with_full(self):
        full = orthonormal_basis(np.eye(4))
        assert intersect(full, full).dim == 4

    def test_orthogonal_lines(self):
        e1 = Subspace(np.eye(2)[:, :1].astype(complex))
        e2 = Subspace(np.eye(2)[:, 1:].astype(complex))
        assert intersect(e1, e2).dim == 0

    def test_random_planes_in_three_space(self):
        gen = np.random.default_rng(8)
        qa = orthonormal_basis(crandn(gen, 3, 2))
        qb = orthonormal_basis(crandn(gen, 3, 2))
        inter = intersect(qa, qb)
        assert inter.dim == 1
        assert inter.dim == principal_angle_intersection_dim(qa.basis, qb.basis)

    def test_members_lie_in_both_spans(self):
        gen = np.random.default_rng(13)
        qa = orthonormal_basis(crandn(gen, 5, 3))
        qb = orthonormal_basis(crandn(gen, 5, 4))
        inter = intersect(qa, qb)
        for q in (qa, qb):
            residual = inter.basis - q.basis @ (q.basis.conj().T @ inter.basis)
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
            assert inter.dim == max(0, da + db - ambient)
            # second oracle: rank of the stacked bases
            if da and db:
                stacked_rank = elimination_rank(np.hstack([qa.basis, qb.basis]))
                assert inter.dim == da + db - stacked_rank

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
        partial = Subspace(np.eye(3)[:, :1].astype(complex))
        extra = complete_orthonormal(partial, 2)
        assert extra.shape == (3, 2)
        assert max_abs(partial.basis.conj().T @ extra) < 1e-12
        assert max_abs(extra.conj().T @ extra - np.eye(2)) < 1e-12

    def test_from_trivial_subspace(self):
        partial = Subspace(np.zeros((4, 0), dtype=complex))
        full = complete_orthonormal(partial, 4)
        assert max_abs(full.conj().T @ full - np.eye(4)) < 1e-10

    def test_stacked_unitary(self):
        gen = np.random.default_rng(9)
        partial = orthonormal_basis(crandn(gen, 5, 2))
        extra = complete_orthonormal(partial, 3)
        stacked = np.hstack([partial.basis, extra])
        assert max_abs(stacked.conj().T @ stacked - np.eye(5)) < 1e-10

    def test_too_many_columns(self):
        partial = Subspace(np.eye(3).astype(complex))
        with pytest.raises(DimensionMismatch):
            complete_orthonormal(partial, 1)


class TestTolerance:
    def test_rank_cut_is_relative(self):
        # The cutoff scales with the largest singular value: a tiny
        # second one is dropped, a uniformly tiny spectrum is kept whole.
        a = np.diag([1.0, 1e-13]).astype(complex)
        assert orthonormal_basis(a).dim == 1
        assert orthonormal_basis(1e-20 * np.eye(3, dtype=complex)).dim == 3


class TestSubspaceType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidMatrix):
            Subspace(np.ones((3, 2), dtype=complex))

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(DimensionMismatch):
            Subspace(np.ones((1, 2), dtype=complex))
