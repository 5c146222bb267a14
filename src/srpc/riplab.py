"""Empirical checks of the linear-algebraic machinery behind the solver.

Builds tensored matrices whose columns are entrywise products of t base
coordinates, verifies that their columns are uncorrelated with unit second
moment (exactly, by enumerating the base distribution, or by sampling),
and measures sparse operator norms either exhaustively over all supports
or as a certified lower bound from sampled supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .errors import (BudgetExceededError, InternalInvariantError,
                     ParameterError)

DEFAULT_SUPPORT_BUDGET = 1_000_000
_ENUM_OUTCOME_LIMIT = 20  # 2**k outcomes must stay enumerable


class RademacherBase:
    """Uniform +-1 base coordinates."""

    name = "rademacher"
    bound = 1.0

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.choice(np.array([-1.0, 1.0]), size=shape)

    def exact_values(self) -> tuple[Fraction, Fraction]:
        return Fraction(1), Fraction(-1)

    def exact_probs(self) -> tuple[Fraction, Fraction]:
        return Fraction(1, 2), Fraction(1, 2)


class PBiasedBase:
    """Two-point base law: p_plus with probability p, else -p_minus.

    Exact enumeration needs (1-p)/p to be a perfect square of rationals,
    so pass p as a Fraction (e.g. Fraction(4, 5), where p_plus = 1/2).
    """

    name = "pbiased"

    def __init__(self, p):
        self.p = Fraction(p)
        if not 0 < self.p < 1:
            raise ParameterError(f"p must lie in (0,1), got {p}")
        self.bound = float(max(self._sqrt_or_none((1 - self.p) / self.p, approx=True),
                               self._sqrt_or_none(self.p / (1 - self.p), approx=True)))

    @staticmethod
    def _sqrt_or_none(value: Fraction, approx: bool = False):
        num, den = value.numerator, value.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return math.sqrt(num / den) if approx else None

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        p = float(self.p)
        p_plus = math.sqrt((1 - p) / p)
        p_minus = math.sqrt(p / (1 - p))
        return np.where(rng.random(shape) < p, p_plus, -p_minus)

    def exact_values(self) -> tuple[Fraction, Fraction]:
        plus = self._sqrt_or_none((1 - self.p) / self.p)
        minus = self._sqrt_or_none(self.p / (1 - self.p))
        if plus is None or minus is None:
            raise ParameterError(
                f"(1-p)/p = {(1 - self.p) / self.p} is not a rational square; "
                "exact enumeration is only available for such p")
        return plus, -minus

    def exact_probs(self) -> tuple[Fraction, Fraction]:
        return self.p, 1 - self.p


@dataclass(frozen=True)
class TensoredMatrix:
    """q x C(k,t) matrix H with H[i, alpha] = prod_{j in alpha} X[i, j]."""

    q: int
    k: int
    t: int
    base: object
    columns: tuple[tuple[int, ...], ...]
    values: np.ndarray
    seed: int

    @property
    def entry_bound(self) -> float:
        return self.base.bound ** self.t


def build_tensored(k: int, t: int, q: int, base_dist, seed: int) -> TensoredMatrix:
    if not 1 <= t <= 3 <= k or t > k:
        raise ParameterError(f"need 1 <= t <= 3 <= k, got t={t}, k={k}")
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = base_dist.sample(rng, (q, k))
    cols = tuple(combinations(range(k), t))
    idx = np.array(cols)
    values = x[:, idx].prod(axis=2)
    values.setflags(write=False)
    return TensoredMatrix(q=q, k=k, t=t, base=base_dist, columns=cols,
                          values=values, seed=seed)


@dataclass(frozen=True)
class IsotropyReport:
    mode: str
    ok: bool
    max_abs_mean: float
    max_abs_cross: float
    max_diag_err: float
    tol: float
    exact: bool = False


def _exact_isotropy(k: int, t: int, base) -> IsotropyReport:
    if k > _ENUM_OUTCOME_LIMIT:
        raise ParameterError(
            f"exhaustive isotropy enumerates 2^k outcomes; k={k} exceeds "
            f"the limit {_ENUM_OUTCOME_LIMIT}")
    v_plus, v_minus = base.exact_values()
    p_plus, p_minus = base.exact_probs()
    cols = list(combinations(range(k), t))
    means = [Fraction(0)] * len(cols)
    gram = [[Fraction(0)] * len(cols) for _ in range(len(cols))]
    for outcome in range(2 ** k):
        coord = [v_plus if (outcome >> j) & 1 else v_minus for j in range(k)]
        weight = math.prod(
            (p_plus if (outcome >> j) & 1 else p_minus) for j in range(k))
        colvals = [math.prod(coord[j] for j in alpha) for alpha in cols]
        for a, va in enumerate(colvals):
            means[a] += weight * va
            for b in range(a, len(cols)):
                gram[a][b] += weight * va * colvals[b]
    max_mean = max(abs(m) for m in means)
    max_cross = Fraction(0)
    max_diag = Fraction(0)
    for a in range(len(cols)):
        max_diag = max(max_diag, abs(gram[a][a] - 1))
        for b in range(a + 1, len(cols)):
            max_cross = max(max_cross, abs(gram[a][b]))
    ok = max_mean == 0 and max_cross == 0 and max_diag == 0
    return IsotropyReport(mode="exhaustive", ok=ok, max_abs_mean=float(max_mean),
                          max_abs_cross=float(max_cross),
                          max_diag_err=float(max_diag), tol=0.0, exact=True)


def isotropy_check(h: TensoredMatrix, mode: str = "sampled",
                   tol: float | None = None) -> IsotropyReport:
    """Column moment conditions: zero means, unit variances, zero cross moments.

    Exhaustive mode enumerates every base outcome with exact rational
    weights and reports exact deviations; sampled mode estimates the same
    moments from the realized rows and compares against ``tol``
    (default 5/sqrt(q)).
    """
    if mode == "exhaustive":
        return _exact_isotropy(h.k, h.t, h.base)
    if mode != "sampled":
        raise ParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    tol = 5.0 / math.sqrt(h.q) if tol is None else tol
    values = h.values
    means = values.mean(axis=0)
    gram = (values.T @ values) / h.q
    d = gram.shape[0]
    off = gram[~np.eye(d, dtype=bool)]
    max_mean = float(np.abs(means).max())
    max_cross = float(np.abs(off).max()) if off.size else 0.0
    max_diag = float(np.abs(np.diag(gram) - 1.0).max())
    ok = max(max_mean, max_cross, max_diag) <= tol
    return IsotropyReport(mode="sampled", ok=ok, max_abs_mean=max_mean,
                          max_abs_cross=max_cross, max_diag_err=max_diag, tol=tol)


@dataclass(frozen=True)
class OpNormReport:
    r: int
    value: float
    support: tuple[int, ...]
    coefficients: np.ndarray
    method: str  # exhaustive | sampled
    supports_checked: int
    residual: float  # | ||H w|| - value | after re-verification

    def witness_vector(self, num_columns: int) -> np.ndarray:
        v = np.zeros(num_columns)
        v[list(self.support)] = self.coefficients
        return v


def _as_matrix(h) -> np.ndarray:
    values = h.values if isinstance(h, TensoredMatrix) else np.asarray(h, dtype=np.float64)
    if values.ndim != 2:
        raise ParameterError("expected a 2-D matrix")
    return np.asarray(values, dtype=np.float64)


def _opnorm_over_supports(mat: np.ndarray, supports: np.ndarray) -> int:
    """Row of ``supports`` whose column submatrix has the largest top singular value.

    Each chunk of r x r Gram submatrices is ranked by batched ``eigvalsh``,
    which is exact to rounding.  Ties within a relative 1e-12 of the maximum
    go to the first row.
    """
    gram_full = mat.T @ mat
    chunk = 4096
    lam = np.concatenate([
        np.linalg.eigvalsh(gram_full[sup[:, :, None], sup[:, None, :]])[:, -1]
        for sup in np.split(supports, range(chunk, supports.shape[0], chunk))])
    top = lam.max()
    return int(np.argmax(lam >= top - 1e-12 * abs(top)))


def _finish_report(mat: np.ndarray, support: tuple[int, ...], method: str,
                   r: int, checked: int, tol: float, cap: int,
                   seed: int) -> OpNormReport:
    sub = mat[:, list(support)]
    value, coeff = linalg.power_iteration(sub, tol=tol, cap=cap, seed=seed)
    achieved = float(np.linalg.norm(sub @ coeff))
    residual = abs(achieved - value)
    if residual > 1e-9 * max(value, 1.0):
        raise InternalInvariantError(f"witness re-verification failed: {residual}")
    return OpNormReport(r=r, value=value, support=support, coefficients=coeff,
                        method=method, supports_checked=checked, residual=residual)


def sparse_opnorm_exhaustive(h, r: int, budget: int = DEFAULT_SUPPORT_BUDGET,
                             tol: float = 1e-9, cap: int = 10_000,
                             seed: int = 0) -> OpNormReport:
    """Max top singular value over every size-r column support.

    Supports are ranked exactly (batched ``eigvalsh`` of their Gram
    submatrices); of those within a relative 1e-12 of the maximum, the
    lexicographically first is reported.  ``tol``, ``cap`` and ``seed`` only
    govern the power-iteration re-verification of that support's witness.
    """
    mat = _as_matrix(h)
    d = mat.shape[1]
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= {d}, got r={r}")
    total = math.comb(d, r)
    if total > budget:
        raise BudgetExceededError(
            f"C({d},{r}) = {total} supports exceed the budget {budget}")
    supports = np.array(list(combinations(range(d), r)))
    best_idx = _opnorm_over_supports(mat, supports)
    support = tuple(int(c) for c in supports[best_idx])
    return _finish_report(mat, support, "exhaustive", r, total, tol, cap, seed)


def sparse_opnorm_sampled(h, r: int, trials: int, seed: int = 0,
                          tol: float = 1e-9, cap: int = 10_000) -> OpNormReport:
    """Certified lower bound: max over ``trials`` uniformly sampled supports.

    ``seed`` draws the supports.  They are ranked exactly (batched
    ``eigvalsh``); of those within a relative 1e-12 of the maximum, the first
    drawn is reported.  ``tol``, ``cap`` and ``seed`` also govern the
    power-iteration re-verification of that support's witness.
    """
    mat = _as_matrix(h)
    d = mat.shape[1]
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= {d}, got r={r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    supports = np.empty((trials, r), dtype=np.int64)
    for i in range(trials):
        supports[i] = np.sort(rng.choice(d, size=r, replace=False))
    best_idx = _opnorm_over_supports(mat, supports)
    support = tuple(int(c) for c in supports[best_idx])
    return _finish_report(mat, support, "sampled", r, trials, tol, cap, seed)


def rip_deviation_sampled(h_normalized, r: int, trials: int, seed: int = 0) -> float:
    """max over sampled unit r-sparse v of | ||H v|| - 1 | (a lower bound on delta)."""
    mat = _as_matrix(h_normalized)
    d = mat.shape[1]
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= {d}, got r={r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(trials):
        support = rng.choice(d, size=r, replace=False)
        coeff = rng.standard_normal(r)
        coeff /= np.linalg.norm(coeff)
        image = mat[:, support] @ coeff
        worst = max(worst, abs(float(np.linalg.norm(image)) - 1.0))
    return worst


def correlated_column_count(h, w: np.ndarray, tau: float) -> tuple[int, list[int]]:
    """Columns of H whose inner product with w/||w|| is at least tau."""
    mat = _as_matrix(h)
    w = np.asarray(w, dtype=np.float64)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ParameterError("w must be nonzero")
    corr = mat.T @ (w / norm)
    hits = np.nonzero(corr >= tau)[0]
    return int(hits.size), [int(c) for c in hits]
