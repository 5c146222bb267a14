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

from .errors import (BudgetExceededError, InternalInvariantError,
                     ParameterError)

DEFAULT_SUPPORT_BUDGET = 1_000_000
_ENUM_OUTCOME_LIMIT = 20  # 2**k outcomes must stay enumerable
_ISO_BLOCK_ENTRIES = 2 ** 16  # integer table entries per block of outcomes
_CHUNK_FLOATS = 2 ** 18  # float64 entries in one chunk of gathered r x r Gram blocks


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
    """Exact column moments over all 2^k base outcomes, in integer arithmetic.

    Values and probabilities are scaled to integer numerators over their
    common denominators, so every mean and Gram entry is an exact integer
    over one known denominator; outcomes are taken in blocks to bound memory.
    """
    if k > _ENUM_OUTCOME_LIMIT:
        raise ParameterError(
            f"exhaustive isotropy enumerates 2^k outcomes; k={k} exceeds "
            f"the limit {_ENUM_OUTCOME_LIMIT}")
    values, probs = base.exact_values(), base.exact_probs()  # (plus, minus) each
    v_den = math.lcm(*(v.denominator for v in values))
    p_den = math.lcm(*(p.denominator for p in probs))
    v_num = np.array([int(v * v_den) for v in values], dtype=object)
    p_num = np.array([int(p * p_den) for p in probs], dtype=object)
    idx = np.array(list(combinations(range(k), t)))
    d = len(idx)
    mean_num = np.zeros(d, dtype=object)
    gram_num = np.zeros((d, d), dtype=object)
    block = max(1, _ISO_BLOCK_ENTRIES // d)
    for start in range(0, 2 ** k, block):
        outcomes = np.arange(start, min(start + block, 2 ** k))
        minus = 1 - ((outcomes[:, None] >> np.arange(k)) & 1)  # bit j set: plus
        cols = v_num[minus][:, idx].prod(axis=2)
        weighted = cols * p_num[minus].prod(axis=1)[:, None]
        mean_num += weighted.sum(axis=0)
        gram_num += weighted.T @ cols
    mean_den = p_den ** k * v_den ** t
    gram_den = mean_den * v_den ** t
    off = ~np.eye(d, dtype=bool)
    max_mean = Fraction(max(abs(m) for m in mean_num), mean_den)
    max_cross = Fraction(max((abs(g) for g in gram_num[off]), default=0), gram_den)
    max_diag = Fraction(max(abs(g - gram_den) for g in np.diag(gram_num)), gram_den)
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
    (default 5/sqrt(q)).  A ``tol`` that is negative or not finite raises
    :class:`ParameterError`.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be finite and >= 0, got {tol}")
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


def _as_matrix(h) -> np.ndarray:
    values = h.values if isinstance(h, TensoredMatrix) else np.asarray(h, dtype=np.float64)
    if values.ndim != 2:
        raise ParameterError("expected a 2-D matrix")
    return np.asarray(values, dtype=np.float64)


def _chunks(rows: int, r: int) -> list[slice]:
    """Row slices of a support array; each slice's r x r Gram blocks hold <= 2**18 float64."""
    step = max(1, _CHUNK_FLOATS // (r * r))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _gram_blocks(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """The r x r Gram submatrix of each row of ``supports``."""
    return gram[supports[:, :, None], supports[:, None, :]]


def _draw_supports(rng: np.random.Generator, d: int, r: int, trials: int) -> np.ndarray:
    """``trials`` uniform size-r subsets of range(d), one per row (Floyd's sampler).

    For each slot j in d-r .. d-1, every row draws t uniform in [0, j] and
    takes t, or j if t is already in the row.  Rows are int32, which halves
    the largest array a sampled estimate holds.
    """
    out = np.empty((trials, r), dtype=np.int32)
    for slot, j in enumerate(range(d - r, d)):
        t = rng.integers(0, j + 1, size=trials)
        seen = (out[:, :slot] == t[:, None]).any(axis=1)
        out[:, slot] = np.where(seen, j, t)
    return out


def _opnorm_over_supports(mat: np.ndarray, supports: np.ndarray) -> int:
    """Row of ``supports`` whose column submatrix has the largest top singular value.

    Each chunk of r x r Gram submatrices is ranked by batched ``eigvalsh``,
    which is exact to rounding.  Ties within a relative 1e-12 of the maximum
    go to the first row.
    """
    gram = mat.T @ mat
    lam = np.concatenate([np.linalg.eigvalsh(_gram_blocks(gram, supports[c]))[:, -1]
                          for c in _chunks(*supports.shape)])
    top = lam.max()
    return int(np.argmax(lam >= top - 1e-12 * abs(top)))


def _finish_report(mat: np.ndarray, support: tuple[int, ...], method: str,
                   r: int, checked: int) -> OpNormReport:
    """Witness of the chosen support: the top eigenpair of its r x r Gram, re-verified."""
    sub = mat[:, list(support)]
    lam, vecs = np.linalg.eigh(sub.T @ sub)
    value = math.sqrt(max(float(lam[-1]), 0.0))
    coeff = vecs[:, -1]
    residual = abs(float(np.linalg.norm(sub @ coeff)) - value)
    if residual > 1e-9 * max(value, 1.0):
        raise InternalInvariantError(f"witness re-verification failed: {residual}")
    return OpNormReport(r=r, value=value, support=support, coefficients=coeff,
                        method=method, supports_checked=checked, residual=residual)


def sparse_opnorm_exhaustive(h, r: int, budget: int = DEFAULT_SUPPORT_BUDGET,
                             seed: int = 0) -> OpNormReport:
    """Max top singular value over every size-r column support.

    Supports are ranked exactly (batched ``eigvalsh`` of their Gram
    submatrices); of those within a relative 1e-12 of the maximum, the
    lexicographically first is reported, with its witness from ``eigh``.
    ``seed`` has no effect; it is accepted so that both opnorm methods share
    one call form.
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
    return _finish_report(mat, support, "exhaustive", r, total)


def sparse_opnorm_sampled(h, r: int, trials: int, seed: int = 0) -> OpNormReport:
    """Certified lower bound: max over ``trials`` uniformly sampled supports.

    ``seed`` draws the supports (:func:`_draw_supports`).  They are ranked
    exactly (batched ``eigvalsh``); of those within a relative 1e-12 of the
    maximum, the first drawn is reported, with its witness from ``eigh``.
    """
    mat = _as_matrix(h)
    d = mat.shape[1]
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= {d}, got r={r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    supports = _draw_supports(rng, d, r, trials)
    supports.sort(axis=1)
    best_idx = _opnorm_over_supports(mat, supports)
    support = tuple(int(c) for c in supports[best_idx])
    return _finish_report(mat, support, "sampled", r, trials)


def rip_deviation_sampled(h_normalized, r: int, trials: int, seed: int = 0) -> float:
    """max over sampled unit r-sparse v of | ||H v|| - 1 | (a lower bound on delta).

    ``seed`` draws the supports (:func:`_draw_supports`), then one standard
    normal coefficient row per support, in support order and scaled to unit
    norm.  The rows are drawn chunk by chunk, which gives the same stream as
    one (trials, r) block; ||H v|| is sqrt(c^T G_S c) with G = H^T H.
    """
    mat = _as_matrix(h_normalized)
    d = mat.shape[1]
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= {d}, got r={r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    supports = _draw_supports(rng, d, r, trials)
    gram = mat.T @ mat
    worst = 0.0
    for c in _chunks(trials, r):
        sup = supports[c]
        coeff = rng.standard_normal(sup.shape)
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        sq = np.einsum("ni,nij,nj->n", coeff, _gram_blocks(gram, sup), coeff)
        worst = max(worst, float(np.abs(np.sqrt(np.maximum(sq, 0.0)) - 1.0).max()))
    return worst


def correlated_column_count(h, w: np.ndarray, tau: float) -> tuple[int, list[int]]:
    """Columns of H whose inner product with w/||w|| is at least tau (a finite number)."""
    if not math.isfinite(tau):
        raise ParameterError(f"tau must be finite, got {tau}")
    mat = _as_matrix(h)
    w = np.asarray(w, dtype=np.float64)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ParameterError("w must be nonzero")
    corr = mat.T @ (w / norm)
    hits = np.nonzero(corr >= tau)[0]
    return int(hits.size), [int(c) for c in hits]
