"""The pencil P(lambda1, lambda2) = A - lambda1*B - lambda2*I of the design dual.

On the grid k = -N..N, P has diagonal k^2 - lambda2 and constant
off-diagonal -lambda1/2.  It is semidefinite iff lambda2 <= lambda_min of
A - lambda1*B, so its verdict is the yes/no Sturm test
``helpers.has_eigenvalue_below`` at shift 0 on the even half k = 0..N,
which holds the minimum.  The designer runs no such test: it reads
lambda2 off ``min_eigenpair``.
"""

import math

import numpy as np
import pytest

from helpers import has_eigenvalue_below, jacobi_eigh, tridiag_dense

from compactseq.eigen import min_eigenpair


def _pencil(half_len, lam1, lam2):
    k = np.arange(-half_len, half_len + 1, dtype=float)
    return k * k - lam2, -lam1 / 2.0


def _has_below(half_len, lam1, lam2, shift=0.0):
    """Whether P has an eigenvalue below ``shift``; at 0, whether P is not PSD."""
    diag, off = _pencil(half_len, lam1, lam2)
    return has_eigenvalue_below(diag[half_len:], off * off, shift)


def _in_cone(lam1, lam2):
    """Closed-form sufficient condition lambda2 < 1 - sqrt(1 + lambda1^2)."""
    return lam2 < 1.0 - math.sqrt(1.0 + lam1 * lam1)


def test_psd_examples():
    # diagonal shift dominates: k^2 + 2 with small coupling is clearly PSD
    assert not _has_below(30, 1.0, -2.0)
    # lambda2 = 0.5 kills the center diagonal entry at k = 0: lambda2 moves
    # the spectrum of A - lambda1*B, whose minimum the kernel solves
    diag, off = _pencil(30, 0.0, 0.0)
    assert min_eigenpair(diag, off).value - 0.5 == pytest.approx(-0.5)
    # just inside the closed-form cone
    assert not _has_below(30, 1.0, 1.0 - math.sqrt(2.0) - 0.01)


def test_restricted_cone_examples():
    # inside the cone the pencil is semidefinite (1 - sqrt(10) ~ -2.162)
    for lam1, lam2 in ((0.0, -0.1), (3.0, -2.2)):
        assert _in_cone(lam1, lam2)
        assert not _has_below(30, lam1, lam2)
    # outside it, at (1, 0), the coupled k = 0 row makes it indefinite
    assert not _in_cone(1.0, 0.0)
    assert _has_below(30, 1.0, 0.0)


def test_restricted_cone_implies_psd():
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(10_000):
        lam1 = float(rng.uniform(0.0, 10.0))
        lam2 = float(rng.uniform(-15.0, 2.0))
        if _in_cone(lam1, lam2):
            hits += 1
            assert not _has_below(25, lam1, lam2, -1e-12)
    assert hits > 1000  # the sampled box actually exercises the cone


def test_psd_check_matches_min_eigenvalue():
    # dense LAPACK spectrum as the oracle: Jacobi is too slow for 300 of these
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(300):
        lam1 = float(rng.uniform(0.0, 10.0))
        lam2 = float(rng.uniform(-3.0, 3.0))
        diag, off = _pencil(12, lam1, lam2)
        w = np.linalg.eigvalsh(tridiag_dense(diag, off))[0]
        if abs(w) < 1e-8:
            continue  # indeterminate at the boundary for either method
        assert (not _has_below(12, lam1, lam2)) == (w > 0)
        checked += 1
    assert checked > 250


def test_psd_check_against_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        lam1 = float(rng.uniform(0.0, 6.0))
        lam2 = float(rng.uniform(-2.0, 2.0))
        diag, off = _pencil(6, lam1, lam2)
        w, _ = jacobi_eigh(tridiag_dense(diag, off))
        if abs(w[0]) < 1e-8:
            continue
        assert (not _has_below(6, lam1, lam2)) == (w[0] > 0)
