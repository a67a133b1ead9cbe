from fractions import Fraction

import numpy as np
import pytest

from lipcert import (
    IntervalMatrix,
    NormPair,
    abs_upper_envelope,
    exact,
    hull,
    induced_norm,
    interval_matmul,
    intervals,
)


def sample_member(rng, J: IntervalMatrix) -> np.ndarray:
    return rng.uniform(J.lower, J.upper)


def test_construction_validates():
    with pytest.raises(ValueError):
        IntervalMatrix([[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        IntervalMatrix([[np.nan]], [[1.0]])
    with pytest.raises(ValueError):
        IntervalMatrix([[0.0, 1.0]], [[1.0]])
    J = IntervalMatrix([[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        J.lower[0, 0] = 5.0


def test_exact_is_degenerate():
    A = np.array([[1.0, -2.0], [3.0, 4.0]])
    J = exact(A)
    assert J.is_degenerate()
    assert not hull([A, -A]).is_degenerate()
    np.testing.assert_array_equal(J.lower, A)
    np.testing.assert_array_equal(J.upper, A)
    assert J.contains(A)
    assert not J.contains(A + 1e-6)
    assert J.contains(A + 1e-6, tol=1e-5)


def test_built_intervals_are_read_only_copies():
    # the package's own results skip re-validation but stay read-only and
    # independent of the caller's arrays; exact still rejects non-finite input
    A = np.array([[1.0, -2.0], [3.0, 4.0]])
    J = exact(A)
    A[0, 0] = 9.0
    assert J.lower[0, 0] == 1.0 and J.upper[0, 0] == 1.0
    H = hull([A, -A])
    P = interval_matmul(J, H)
    for M in (J, H, P):
        for bound in (M.lower, M.upper):
            with pytest.raises(ValueError):
                bound[0, 0] = 5.0
    with pytest.raises(ValueError):
        exact([[np.inf]])
    with pytest.raises(ValueError):
        hull([np.array([[np.nan]])])


def test_matmul_degenerate_matches_dot():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[1.0], [1.0]])
    P = interval_matmul(exact(A), exact(B))
    np.testing.assert_allclose(P.lower, [[3.0], [7.0]])
    np.testing.assert_allclose(P.upper, [[3.0], [7.0]])


def test_matmul_scalar_examples():
    # [0,1] * [-2,3] = [-2,3]
    P = interval_matmul(IntervalMatrix([[0.0]], [[1.0]]), IntervalMatrix([[-2.0]], [[3.0]]))
    assert P.lower[0, 0] == -2.0 and P.upper[0, 0] == 3.0
    # [-1,1] * [-1,1] = [-1,1]
    P = interval_matmul(IntervalMatrix([[-1.0]], [[1.0]]), IntervalMatrix([[-1.0]], [[1.0]]))
    assert P.lower[0, 0] == -1.0 and P.upper[0, 0] == 1.0


def test_matmul_sum_of_products():
    # row [0,1],[2,3] times column [1,1],[-1,1]: sum of [0,1] and [-3,3]
    A = IntervalMatrix([[0.0, 2.0]], [[1.0, 3.0]])
    B = IntervalMatrix([[1.0], [-1.0]], [[1.0], [1.0]])
    P = interval_matmul(A, B)
    assert P.lower[0, 0] == -3.0
    assert P.upper[0, 0] == 4.0


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        interval_matmul(exact(np.ones((2, 3))), exact(np.ones((2, 3))))


def test_matmul_soundness_sampled():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, k, n = rng.integers(1, 5, size=3)
        A = np.sort(rng.normal(size=(2, m, k)), axis=0)
        B = np.sort(rng.normal(size=(2, k, n)), axis=0)
        IA = IntervalMatrix(A[0], A[1])
        IB = IntervalMatrix(B[0], B[1])
        P = interval_matmul(IA, IB)
        for _ in range(5):
            prod = sample_member(rng, IA) @ sample_member(rng, IB)
            assert np.all(prod >= P.lower - 1e-12)
            assert np.all(prod <= P.upper + 1e-12)


@pytest.mark.parametrize("blocks", [3, 4, 10])
def test_matmul_in_blocks_encloses_and_matches_one_block(monkeypatch, blocks):
    # a small element budget splits the inner dimension (10) into `blocks`
    # broadcast blocks; on integer endpoints every partial sum is exact, so
    # the blocked product is the one-block product bit for bit
    rng = np.random.default_rng(11)
    m, k, n = 3, 10, 4
    A = np.sort(rng.integers(-5, 6, size=(2, m, k)), axis=0).astype(float)
    B = np.sort(rng.integers(-5, 6, size=(2, k, n)), axis=0).astype(float)
    IA, IB = IntervalMatrix(A[0], A[1]), IntervalMatrix(B[0], B[1])
    whole = interval_matmul(IA, IB)
    monkeypatch.setattr(intervals, "_BLOCK", m * n * -(-k // blocks))
    assert -(-k // (intervals._BLOCK // (m * n))) == blocks
    P = interval_matmul(IA, IB)
    np.testing.assert_array_equal(P.lower, whole.lower)
    np.testing.assert_array_equal(P.upper, whole.upper)
    for _ in range(20):
        prod = sample_member(rng, IA) @ sample_member(rng, IB)
        assert np.all(prod >= P.lower - 1e-12)
        assert np.all(prod <= P.upper + 1e-12)


def test_matmul_entrywise_tight_for_degenerate_left_factor():
    # each entry's bound is the sum of per-term minima, attained by a member
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = rng.normal(size=(3, 2))
        B = np.sort(rng.normal(size=(2, 2, 2)), axis=0)
        P = interval_matmul(exact(A), IntervalMatrix(B[0], B[1]))
        terms = A[:, :, None] * B[:, None, :, :]  # (2, 3, 2, 2)
        lo = np.minimum(terms[0], terms[1]).sum(axis=1)
        hi = np.maximum(terms[0], terms[1]).sum(axis=1)
        np.testing.assert_allclose(P.lower, lo, atol=1e-12)
        np.testing.assert_allclose(P.upper, hi, atol=1e-12)


def test_abs_upper_envelope_examples():
    J = IntervalMatrix([[-2.0, 0.5]], [[1.0, 3.0]])
    np.testing.assert_array_equal(abs_upper_envelope(J), [[2.0, 3.0]])
    A = np.array([[1.0, -4.0]])
    np.testing.assert_array_equal(abs_upper_envelope(exact(A)), np.abs(A))


def test_abs_upper_envelope_dominates_members():
    rng = np.random.default_rng(11)
    for _ in range(100):
        M = np.sort(rng.normal(size=(2, 3, 3)), axis=0)
        J = IntervalMatrix(M[0], M[1])
        U = abs_upper_envelope(J)
        for _ in range(10):
            assert np.all(np.abs(sample_member(rng, J)) <= U + 1e-12)


def test_hull_of_pieces():
    H = hull([np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]), np.array([[-1.0, 1.0]])])
    np.testing.assert_array_equal(H.lower, [[-1.0, 0.0]])
    np.testing.assert_array_equal(H.upper, [[1.0, 2.0]])


def test_hull_errors():
    with pytest.raises(ValueError):
        hull([])
    with pytest.raises(ValueError):
        hull([np.ones((1, 2)), np.ones((2, 2))])


# the gub path against exact rational arithmetic

@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1(b): interval_matmul's endpoint sums and induced_norm's column and "
    "row sums round to nearest, not outward"))
def test_gub_path_products_and_norms_bound_exact_arithmetic():
    rng = np.random.default_rng(0)
    misses = []
    for trial in range(300):
        m, k, n = (int(v) for v in rng.integers(1, 5, size=3))
        scale = 10.0 ** rng.integers(-3, 4, size=(2, 2, 1, 1))
        A, B = (np.sort(rng.normal(size=(2,) + shape) * s, axis=0)
                for shape, s in (((m, k), scale[0]), ((k, n), scale[1])))
        P = interval_matmul(IntervalMatrix(*A), IntervalMatrix(*B))
        for i in range(m):
            for j in range(n):
                # each scalar product's exact extremes, summed exactly
                ends = [[Fraction(a[i, r]) * Fraction(b[r, j]) for a in A for b in B]
                        for r in range(k)]
                lo, hi = sum(map(min, ends)), sum(map(max, ends))
                if Fraction(P.lower[i, j]) > lo or Fraction(P.upper[i, j]) < hi:
                    misses.append(("interval_matmul", trial, i, j))
        M = A[1]
        absM = [[abs(Fraction(v)) for v in row] for row in M]
        exact_norms = {
            (1, 1): max(sum(col) for col in zip(*absM)),  # largest column sum
            (np.inf, np.inf): max(sum(row) for row in absM),  # largest row sum
            (1, np.inf): max(max(row) for row in absM),  # largest entry
        }
        for (p, q), value in exact_norms.items():
            if Fraction(induced_norm(M, NormPair(p, q))) < value:
                misses.append((f"induced_norm {p}->{q}", trial))
    assert not misses, f"{len(misses)} results inside the exact values: {misses[:5]}"
