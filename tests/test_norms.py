import numpy as np
import pytest

import lipcert as lc
from lipcert import NormPair, UnsupportedNormError, induced_norm

PAIRS = [
    NormPair(1, 1), NormPair(2, 2), NormPair(np.inf, np.inf),
    NormPair(1, 2), NormPair(1, np.inf), NormPair(2, np.inf),
]


def brute_norm(A, pair, rng, n=20000):
    """Lower estimate from random unit vectors plus sign patterns and columns."""
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    cands = list(rng.normal(size=(n, d)))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        cands.append(e)
        cands.append(-e)
    # sign vectors are the inf-ball vertices; optimal for p = inf
    if d <= 8:
        for bits in range(2 ** d):
            cands.append(np.array([1.0 if bits >> i & 1 else -1.0 for i in range(d)]))
    best = 0.0
    for x in cands:
        nx = np.linalg.norm(x, ord=pair.p)
        if nx == 0.0:
            continue
        best = max(best, np.linalg.norm(A @ x, ord=pair.q) / nx)
    return best


def test_parse():
    assert NormPair.parse("2") == NormPair(2, 2)
    assert NormPair.parse("1:inf") == NormPair(1, np.inf)
    assert str(NormPair.parse("inf")) == "inf"
    assert str(NormPair(1, np.inf)) == "1:inf"
    with pytest.raises(ValueError):
        NormPair.parse("3")
    with pytest.raises(ValueError):
        NormPair.parse("2:1:1")


def test_unsupported_pairs_rejected():
    for p, q in [(np.inf, 1), (np.inf, 2), (2, 1)]:
        with pytest.raises(UnsupportedNormError):
            NormPair(p, q)
    with pytest.raises(ValueError):
        NormPair(3, 3)


def test_identity_norm_is_one():
    for pair in PAIRS:
        if pair.p == pair.q:
            assert induced_norm(np.eye(3), pair) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_spectral():
    A = np.diag([3.0, -4.0])
    assert induced_norm(A, NormPair(2, 2)) == pytest.approx(4.0, rel=1e-9)


def test_pinned_matrix_values():
    A = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert induced_norm(A, NormPair(1, 1)) == pytest.approx(6.0, abs=1e-12)
    assert induced_norm(A, NormPair(np.inf, np.inf)) == pytest.approx(7.0, abs=1e-12)
    B = np.array([[1.0], [-1.0]])
    assert induced_norm(B, NormPair(2, 2)) == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_zero_and_empty_like_cases():
    assert induced_norm(np.zeros((2, 3)), NormPair(2, 2)) == 0.0
    assert induced_norm([[5.0]], NormPair(1, np.inf)) == 5.0


def test_spectral_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        A = rng.normal(size=(m, n))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        assert induced_norm(A, NormPair(2, 2)) == pytest.approx(sigma, rel=1e-9, abs=1e-12)


def test_brute_force_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m, n = rng.integers(1, 5, size=2)
        A = rng.normal(size=(m, n))
        for pair in PAIRS:
            val = induced_norm(A, pair)
            cands = 2000
            if pair == NormPair(2, 2):
                # feed the optimizer: the top right singular vector attains the norm
                _, _, vt = np.linalg.svd(A)
                lo = max(brute_norm(A, pair, rng, n=cands),
                         float(np.linalg.norm(A @ vt[0])))
            else:
                lo = brute_norm(A, pair, rng, n=cands)
            assert val >= lo - 1e-9
            # basis vectors (p=1) and sign vectors (p=inf) attain the optimum
            if pair.p == 1 or pair.p == np.inf or pair == NormPair(2, 2):
                assert val == pytest.approx(lo, rel=1e-6, abs=1e-9)


def test_entrywise_dominance():
    # |A| <= B entrywise implies norm(A) <= norm(B) for all supported pairs
    rng = np.random.default_rng(2)
    for _ in range(100):
        m, n = rng.integers(1, 6, size=2)
        A = rng.normal(size=(m, n))
        B = np.abs(A) + rng.uniform(0.0, 1.0, size=(m, n))
        for pair in PAIRS:
            assert induced_norm(A, pair) <= induced_norm(B, pair) + 1e-9


def test_scaling_and_permutation_invariance():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 3))
    P = np.eye(4)[rng.permutation(4)]
    Q = np.eye(3)[rng.permutation(3)]
    for pair in PAIRS:
        v = induced_norm(A, pair)
        assert induced_norm(2.5 * A, pair) == pytest.approx(2.5 * v, rel=1e-9)
        assert induced_norm(P @ A @ Q, pair) == pytest.approx(v, rel=1e-9)


def test_submultiplicative_when_chained():
    rng = np.random.default_rng(4)
    pair = NormPair(2, 2)
    for _ in range(50):
        A = rng.normal(size=(3, 2))
        B = rng.normal(size=(2, 4))
        assert induced_norm(A @ B, pair) <= (
            induced_norm(A, pair) * induced_norm(B, pair) + 1e-9)


def test_spectral_never_below_lapack_on_close_top_singular_values():
    # a linear 6x6 network whose top two singular values differ by 1e-4: an
    # iterative estimate falls short of the norm here, and the solver must
    # still report a gub at or above it
    rng = np.random.default_rng(20260401)
    U, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    s = np.concatenate([[1.0 + 1e-4, 1.0], np.sort(rng.uniform(0.1, 0.9, 4))[::-1]])
    W = (U * s) @ V.T
    net = lc.Network([lc.AffineLayer(W, 0.1 * rng.normal(size=6))])
    res = lc.solve(net, lc.Polyhedron.from_box([-1.0] * 6, [1.0] * 6))
    sigma = np.linalg.norm(W, 2)
    assert res.status == "exact"
    assert res.gub >= sigma
    assert res.gub == pytest.approx(sigma, rel=1e-13)
