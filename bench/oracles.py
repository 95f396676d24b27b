"""Independent checks of the CLI outputs, run outside the timed passes.

Nothing here imports ``compactseq``: each check recomputes what the
output claims from the item's own inputs, with dense numpy linear algebra,
``np.correlate`` and closed forms.

* ``design``: the certificates are recomputed from the returned taps and
  multipliers (unit norm, symmetry, constraint gap, eigen residual,
  duality gap, tail flag, eta_p above the exact lower bound); a seeded
  subset is also checked against ``numpy.linalg.eigvalsh`` of the same
  dense tridiagonal.
* ``curve``: grid, closed-form envelope columns, eta_p = delta_n2*sigma2,
  eta_p above the exact lower bound, delta_n2 non-increasing in sigma2.
* ``analyze``: closed forms from ``np.correlate`` on taps rescaled by
  max|x| (the measures are scale-invariant), plus trapezoid quadrature of
  the frequency moments for short sequences.
* ``windows``: every row against independently built windows.
* ``a0``: dense ``eigvalsh``; ``ce0``: a0 as above and the mean-square-1/2
  normalization over one period.

``check`` returns ``(ok, flagged, reason)``; ``flagged`` is True for a
design whose status is not ``ok``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TAIL_MASS_WARN = 1e-10
DENSE_MAX_TAPS = 1001
QUAD_MAX_LEN = 16


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


def eta_lower(s2: float) -> float:
    return s2 * (1.0 - math.sqrt(s2 / (1.0 + s2)))


def eta_upper(s2: float) -> float:
    r = math.sqrt(1.0 + s2)
    return s2 / 8.0 * (r / (r - 1.0) - 0.5)


def _ground_value(k2: np.ndarray, off: float) -> float:
    n = k2.size
    mat = np.diag(k2)
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = off
    mat[idx + 1, idx] = off
    return float(np.linalg.eigvalsh(mat)[0])


def check_design(item, out: str, dense: bool):
    s2, taps = item.data["sigma2"], item.data["taps"]
    rep = json.loads(out)
    half = (taps - 1) // 2
    v = np.array(rep["sequence"]["taps"], dtype=float)
    _expect(rep["sigma2"] == s2, "sigma2 echoed")
    _expect(v.size == taps and rep["sequence"]["offset"] == -half, "grid")
    alpha = 1.0 / math.sqrt(1.0 + s2)
    _expect(_close(rep["alpha"], alpha, 1e-15), "alpha")
    _expect(abs(np.linalg.norm(v) - 1.0) <= 1e-12, "unit norm")
    _expect(np.array_equal(v, v[::-1]) and np.all(v >= 0.0), "symmetric, nonnegative")

    k2 = np.arange(-half, half + 1, dtype=float) ** 2
    lam1, lam2 = rep["lambda1"], rep["lambda2"]
    b_form = float(v[:-1] @ v[1:])
    a_form = float(v @ (k2 * v))
    _expect(abs(b_form - alpha) <= 1e-10 + 1e-15, "constraint gap")
    _expect(_close(rep["delta_n2_opt"], a_form, 1e-12), "delta_n2 = x'Ax")
    _expect(_close(rep["eta_p"], rep["delta_n2_opt"] * s2, 1e-15), "eta_p = delta_n2*sigma2")
    tv = k2 * v
    tv[:-1] -= 0.5 * lam1 * v[1:]
    tv[1:] -= 0.5 * lam1 * v[:-1]
    norm_t = half * half + lam1
    residual = float(np.linalg.norm(tv - lam2 * v))
    _expect(residual <= 2.0 * max(1e-10 * (1.0 + abs(lam2)), 100 * 2.3e-16 * norm_t), "eigen residual")
    dual = alpha * lam1 + lam2
    _expect(abs(a_form - dual) <= 2e-8 + 1e-15 * norm_t, "duality gap")
    tail = float(v[0] ** 2 + v[-1] ** 2)
    _expect(rep["status"] == ("increase-taps" if tail > TAIL_MASS_WARN else "ok"), "tail flag")
    _expect(rep["eta_p"] >= 0.25 and rep["eta_p"] >= eta_lower(s2) * (1 - 1e-12), "eta_p >= lower bound")
    if dense:
        ground = _ground_value(k2, -0.5 * lam1)
        _expect(abs(ground - lam2) <= 1e-9 * (1.0 + abs(lam2)) + 1e-12 * norm_t, "dense ground value")
    return rep["status"] != "ok"


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def check_curve(item, out: str):
    d = item.data
    rows = _csv_rows(out)
    grid = np.geomspace(d["start"], d["stop"], d["points"])
    _expect(len(rows) == grid.size, "row count")
    prev = math.inf
    for row, s2 in zip(rows, grid):
        s2 = float(s2)
        got = {key: float(val) for key, val in row.items()}
        _expect(got["sigma2"] == s2, "grid")
        _expect(_close(got["eta_lower"], eta_lower(s2), 1e-14), "eta_lower")
        _expect(_close(got["eta_upper"], eta_upper(s2), 1e-14), "eta_upper")
        _expect(math.isfinite(got["delta_n2"]), "attainable point solved")
        _expect(_close(got["eta_p"], got["delta_n2"] * s2, 1e-15), "eta_p = delta_n2*sigma2")
        _expect(got["eta_p"] >= 0.25 and got["eta_p"] >= eta_lower(s2) * (1 - 1e-12), "eta_p >= lower bound")
        _expect(got["delta_n2"] <= prev * (1 + 1e-9), "delta_n2 non-increasing in sigma2")
        prev = got["delta_n2"]
    return False


def spread_measures(taps: np.ndarray, offset: int) -> dict:
    """All spread measures of a sequence, from np.correlate closed forms."""
    t = np.asarray(taps, dtype=complex)
    t = t / np.max(np.abs(t))
    n = t.size
    p = np.abs(t) ** 2
    w = p / p.sum()
    k = offset + np.arange(n, dtype=float)
    mu_n = float(w @ k)
    dn2 = float(w @ (k - mu_n) ** 2)
    # np.correlate(t, t, "full")[n-1-m] = sum_k t[k] conj(t[k+m]) = r_m.
    r = np.correlate(t, t, "full")[n - 1::-1]
    rho = r[1:] / r[0].real
    tau = complex(rho[0]) if n > 1 else 0j
    dwp2 = math.inf if tau == 0 else (1 - abs(tau) ** 2) / abs(tau) ** 2
    m = np.arange(1, n, dtype=float)
    signs = np.where(np.arange(1, n) % 2 == 0, 1.0, -1.0)
    mu_wl = float(2.0 * np.sum(signs * rho.imag / m))
    dwl2 = float(math.pi**2 / 3.0 + 4.0 * np.sum(signs * rho.real / m**2) - mu_wl**2)
    if np.count_nonzero(t) <= 1:
        eta_p = None
    elif math.isinf(dwp2):
        eta_p = math.inf
    else:
        eta_p = dn2 * dwp2
    return {"mu_n": mu_n, "delta_n2": dn2, "tau": tau, "delta_wp2": dwp2,
            "mu_wl": mu_wl, "delta_wl2": dwl2, "eta_p": eta_p, "eta_l": dn2 * dwl2}


def _quad_moments(taps: np.ndarray, offset: int, npts: int = 1 << 16):
    w = np.linspace(-np.pi, np.pi, npts + 1)
    k = offset + np.arange(taps.size)
    spec = np.exp(-1j * np.outer(w, k)) @ taps
    dens = np.abs(spec) ** 2 / (2.0 * np.pi * np.sum(np.abs(taps) ** 2))
    mu = float(np.trapezoid(dens * w, w))
    return mu, float(np.trapezoid(dens * (w - mu) ** 2, w))


def _json_number(v):
    if v == "inf":
        return math.inf
    return v


def check_analyze(item, out: str):
    taps, offset = item.data["taps"], item.data["offset"]
    rep = json.loads(out)
    want = spread_measures(taps, offset)
    scale = max(1.0, abs(want["mu_n"]))
    _expect(_close(rep["mu_n"], want["mu_n"], 1e-12, 1e-9 * scale), "mu_n")
    _expect(_close(rep["delta_n2"], want["delta_n2"], 1e-9, 1e-9 * scale), "delta_n2")
    tau = complex(*rep["tau"])
    _expect(abs(tau - want["tau"]) <= 1e-12, "tau")
    mu_wp = complex(*rep["mu_wp"])
    _expect(abs(mu_wp - (1 - want["tau"])) <= 1e-12, "mu_wp")
    dwp2 = _json_number(rep["delta_wp2"])
    if math.isinf(want["delta_wp2"]):
        _expect(dwp2 == math.inf, "delta_wp2 = inf")
    else:
        _expect(_close(dwp2, want["delta_wp2"], 1e-9), "delta_wp2")
    _expect(_close(rep["mu_wl"], want["mu_wl"], 1e-9, 1e-9), "mu_wl")
    _expect(_close(rep["delta_wl2"], want["delta_wl2"], 1e-9, 1e-9), "delta_wl2")
    eta_p = _json_number(rep["eta_p"])
    if want["eta_p"] is None or math.isinf(want["eta_p"]):
        _expect(eta_p == want["eta_p"], "eta_p degenerate")
    else:
        _expect(_close(eta_p, want["eta_p"], 1e-9), "eta_p")
    _expect(_close(rep["eta_l"], want["eta_l"], 1e-9, 1e-9 * scale), "eta_l")
    if taps.size <= QUAD_MAX_LEN:
        mu_q, var_q = _quad_moments(taps / np.max(np.abs(taps)), offset)
        _expect(abs(rep["mu_wl"] - mu_q) <= 1e-6, "mu_wl by quadrature")
        _expect(abs(rep["delta_wl2"] - var_q) <= 1e-6, "delta_wl2 by quadrature")
    return False


# The stock scan set, as documented by ``compactseq.windows.default_families``.
_LENGTHS = tuple(range(5, 402, 4))
_WINDOW_BUILDERS = {
    "rectangular": np.ones,
    "triangular": np.bartlett,
    "hann": np.hanning,
    "hamming": np.hamming,
    "blackman": np.blackman,
}


def _window(family: str, param: float) -> tuple[np.ndarray, int]:
    if family in _WINDOW_BUILDERS:
        n = int(param)
        return _WINDOW_BUILDERS[family](n), -(n // 2)
    if family == "gaussian":
        half = int(math.ceil(8.0 * max(param, 0.5))) + 4
        k = np.arange(-half, half + 1, dtype=float)
        return np.exp(-(k * k) / (2.0 * param * param)), -half
    eps = param
    return np.array([eps, math.sqrt(1.0 - 2.0 * eps * eps), eps]), -1


def _family_params(family: str) -> list[float]:
    if family in _WINDOW_BUILDERS:
        return [float(n) for n in _LENGTHS]
    if family == "gaussian":
        return [float(w) for w in np.geomspace(0.3, 50.0, 25)]
    return [float(e) for e in np.linspace(0.05, 0.65, 13)]


def check_windows(item, out: str):
    family = item.data["family"]
    rows = _csv_rows(out)
    _expect(all(r["family"] == family for r in rows), "family column")
    params = [float(r["param"]) for r in rows]
    _expect(sorted(params) == sorted(_family_params(family)), "parameter grid")
    dwp2s = [float(r["delta_wp2"]) for r in rows]
    _expect(dwp2s == sorted(dwp2s), "rows sorted by delta_wp2")
    for row, param in zip(rows, params):
        taps, offset = _window(family, param)
        want = spread_measures(taps, offset)
        _expect(_close(float(row["delta_wp2"]), want["delta_wp2"], 1e-9), f"delta_wp2 at {param}")
        _expect(_close(float(row["delta_n2"]), want["delta_n2"], 1e-9, 1e-12), f"delta_n2 at {param}")
        _expect(_close(float(row["eta_p"]), want["eta_p"], 1e-9), f"eta_p at {param}")
        if family == "three_tap":
            closed = 1.0 / (2.0 * (1.0 - 2.0 * param**2)) - 2.0 * param**2
            _expect(_close(float(row["eta_p"]), closed, 1e-12), "three-tap closed form")
    return False


def dense_a0(q: float) -> float:
    """a0(q) = 4 lambda_min(diag(k^2) - (|q|/4) offdiag) on a generous grid."""
    half = int(16.0 * max(abs(q) / 4.0, 1.0) ** 0.25) + 24
    k2 = np.arange(-half, half + 1, dtype=float) ** 2
    return 4.0 * _ground_value(k2, -0.25 * abs(q))


def _grid(d) -> np.ndarray:
    if d.get("kind", "lin") == "log":
        return np.geomspace(d["start"], d["stop"], d["points"])
    return np.linspace(d["start"], d["stop"], d["points"])


def check_a0(item, out: str):
    rows = _csv_rows(out)
    grid = _grid(item.data)
    _expect(len(rows) == grid.size, "row count")
    for row, q in zip(rows, grid):
        _expect(float(row["q"]) == float(q), "q grid")
        a0 = float(row["a0"])
        _expect(_close(a0, dense_a0(float(q)), 1e-9, 1e-9), f"a0 at q={float(q)!r}")
    return False


def check_ce0(item, out: str):
    head, _, body = out.partition("\n")
    fields = dict(part.split("=", 1) for part in head.lstrip("# ").split())
    q = item.data["q"]
    _expect(float(fields["q"]) == q, "q echoed")
    _expect(_close(float(fields["a0"]), dense_a0(q), 1e-9, 1e-9), "a0")
    rows = _csv_rows(body)
    thetas = np.array([float(r["theta"]) for r in rows])
    values = np.array([float(r["ce0"]) for r in rows])
    _expect(np.array_equal(thetas, _grid(item.data)), "theta grid")
    # The grid spans one period with both ends, so the periodic rectangle
    # rule over all but the last sample is the period mean of ce0^2.
    _expect(abs(np.mean(values[:-1] ** 2) - 0.5) <= 1e-9, "mean-square 1/2 normalization")
    return False


_CHECKS = {
    "curve": check_curve,
    "analyze": check_analyze,
    "windows": check_windows,
    "a0": check_a0,
    "ce0": check_ce0,
}


def check(item, out: str, dense: bool = False):
    """Judge one output: returns (ok, flagged, reason)."""
    try:
        if item.kind == "design":
            flagged = check_design(item, out, dense)
        else:
            flagged = _CHECKS[item.kind](item, out)
    except Mismatch as exc:
        return False, False, str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, False, f"unreadable output: {exc!r}"
    return True, flagged, ""
