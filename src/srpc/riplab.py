"""Empirical checks of the linear-algebraic machinery behind the solver.

Builds tensored matrices whose columns are entrywise products of t base
coordinates, verifies that their columns are uncorrelated with unit second
moment (exactly, from one column pair per overlap class, at a cost that
does not depend on k, or by sampling), and measures sparse operator norms
either exhaustively over all supports or as a certified lower bound from
sampled supports.  Both rank supports by a certified upper bound on each
r x r Gram block's top eigenvalue and run exact ``eigvalsh`` only on the
supports that can still win, so the result is the one a full ``eigvalsh``
ranking gives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np

from .errors import InternalInvariantError, ParameterError, check_int

# float64 entries in one chunk of gathered r x r Gram blocks; the flat gather
# also holds an intp index of the same size while it runs.
_CHUNK_FLOATS = 2 ** 15
_SEED_ROWS = 32  # highest-bound supports ranked first, to set the pruning threshold
_BOUND_MARGIN = 1e-9  # relative inflation of each eigenvalue bound, far above its rounding
# Most support entries (C(d, r) * r enumerated, or trials * r sampled) one
# operator norm or deviation holds; its int32 support array then stays within 256 MiB.
MAX_SUPPORT_ENTRIES = 1 << 26
# Most entries q * C(k, t) of a tensored matrix; its float64 values, and each
# factor gather while they are built, then stay within 512 MiB, and the int32
# column index they are built from within t * 256 MiB.  A d x d Gram matrix
# is held to the same count, d * d, and so to the same 512 MiB.
MAX_TENSORED_ENTRIES = 1 << 26


def _subsets(m: int, r: int) -> np.ndarray:
    """The (C(m, r), r) int32 array of every size-r subset of range(m), in lexicographic order."""
    flat = chain.from_iterable(combinations(range(m), r))
    return np.fromiter(flat, np.int32, math.comb(m, r) * r).reshape(-1, r)


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
        # Sampled values, rounded once from the exact odds as exact_values() is.
        try:
            self._plus, self._minus = (float(self._sqrt_or_none(odds, approx=True))
                                       for odds in ((1 - self.p) / self.p, self.p / (1 - self.p)))
        except OverflowError:  # odds past the float range
            raise ParameterError(f"p = {p} gives base values past the float range") from None
        self.bound = max(self._plus, self._minus)

    @staticmethod
    def _sqrt_or_none(value: Fraction, approx: bool = False):
        num, den = value.numerator, value.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return math.sqrt(num / den) if approx else None

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return np.where(rng.random(shape) < float(self.p), self._plus, -self._minus)

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


class RademacherBase(PBiasedBase):
    """Uniform +-1 base coordinates: the p = 1/2 law, with its own sampler."""

    name = "rademacher"

    def __init__(self):
        super().__init__(Fraction(1, 2))

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        # This draw stream fixes the matrix in every Rademacher document.
        return rng.choice(np.array([-1.0, 1.0]), size=shape)


@dataclass(frozen=True)
class TensoredMatrix:
    """q x C(k,t) matrix H with H[i, alpha] = prod_{j in alpha} X[i, j].

    Its ``columns`` index is computed on access, not held."""

    q: int
    k: int
    t: int
    base: object
    values: np.ndarray
    seed: int

    @property
    def entry_bound(self) -> float:
        return self.base.bound ** self.t

    @property
    def columns(self) -> np.ndarray:
        """Read-only (C(k, t), t) int32: row alpha holds column alpha's base coordinates."""
        cols = _subsets(self.k, self.t)
        cols.setflags(write=False)
        return cols


def build_tensored(k: int, t: int, q: int, base_dist, seed: int) -> TensoredMatrix:
    check_int("t", t, 1, 3)
    check_int("k", k, 3)
    check_int("q", q, 1)
    check_int("seed", seed, 0)
    # A smallest Gram term min(p_plus, p_minus)**(2t) below the normal range
    # underflows, and norms read 0.  As p_plus * p_minus = 1, refusing it also
    # keeps the largest entry, bound**t <= 1 / sqrt(float min), finite.
    if min(base_dist._plus, base_dist._minus) ** (2 * t) < sys.float_info.min:
        raise ParameterError(f"p = {base_dist.p} gives Gram terms below the normal float "
                             f"range at t = {t}")
    if q * math.comb(k, t) > MAX_TENSORED_ENTRIES:
        raise ParameterError(f"q * C(k, t) = {q} * C({k}, {t}) exceeds the limit "
                             f"MAX_TENSORED_ENTRIES={MAX_TENSORED_ENTRIES}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = base_dist.sample(rng, (q, k))
    cols = _subsets(k, t)
    values = x[:, cols[:, 0]]
    for j in range(1, t):
        values *= x[:, cols[:, j]]
    values.setflags(write=False)
    return TensoredMatrix(q=q, k=k, t=t, base=base_dist, values=values, seed=seed)


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
    """Exact column moments from one column pair per overlap class, in integer arithmetic.

    The base coordinates are i.i.d., so each column has the law of {0..t-1}
    and each pair sharing c coordinates, max(0, 2t-k) <= c < t, the joint
    law of {0..t-1} and {t-c..2t-c-1}: no moment needs more than 2^(2t)
    outcomes, whatever k is.  Values and probabilities are integer
    numerators over common denominators; Fractions appear only at the end.
    """
    values, probs = base.exact_values(), base.exact_probs()  # (plus, minus) each
    v_den = math.lcm(*(v.denominator for v in values))
    p_den = math.lcm(*(p.denominator for p in probs))
    v_num = [int(v * v_den) for v in values]
    p_num = [int(p * p_den) for p in probs]

    def moment(coords: list[int]) -> Fraction:
        """E[product of the base values at ``coords``], over every outcome of 0..max(coords)."""
        m = max(coords) + 1
        total = sum(math.prod(p_num[o] for o in out) * math.prod(v_num[out[j]] for j in coords)
                    for out in product((0, 1), repeat=m))
        return Fraction(total, p_den ** m * v_den ** len(coords))

    col = list(range(t))
    max_mean = abs(moment(col))
    max_diag = abs(moment(col * 2) - 1)
    max_cross = max((abs(moment(col + list(range(t - c, 2 * t - c))))
                     for c in range(max(0, 2 * t - k), t)), default=0)
    ok = max_mean == 0 and max_cross == 0 and max_diag == 0
    return IsotropyReport(mode="exhaustive", ok=ok, max_abs_mean=float(max_mean),
                          max_abs_cross=float(max_cross),
                          max_diag_err=float(max_diag), tol=0.0, exact=True)


def isotropy_check(h: TensoredMatrix, mode: str = "sampled") -> IsotropyReport:
    """Column moment conditions: zero means, unit variances, zero cross moments.

    Exhaustive mode reports exact deviations (tolerance 0) from the base
    outcomes of one column and of one column pair per overlap class, so its
    cost does not depend on k; sampled mode estimates the same moments from
    the realized rows and compares them against the tolerance 5/sqrt(q).
    """
    if mode == "exhaustive":
        return _exact_isotropy(h.k, h.t, h.base)
    if mode != "sampled":
        raise ParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    tol = 5.0 / math.sqrt(h.q)
    values = h.values
    gram = _gram(values) / h.q
    means = values.mean(axis=0)
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
    eig_ranked: int  # eigvalsh evaluations the ranking made (the rest were pruned by bound)


def _as_matrix(h) -> np.ndarray:
    values = np.asarray(h.values if isinstance(h, TensoredMatrix) else h, dtype=np.float64)
    if values.ndim != 2:
        raise ParameterError("expected a 2-D matrix")
    if not np.isfinite(values).all():
        raise ParameterError("matrix has NaN or infinite entries")
    return values


def _check_gram(d: int) -> None:
    """Refuse a d x d Gram matrix of more than :data:`MAX_TENSORED_ENTRIES` entries."""
    if d * d > MAX_TENSORED_ENTRIES:
        raise ParameterError(f"the Gram matrix of d = {d} columns needs d * d <= "
                             f"MAX_TENSORED_ENTRIES={MAX_TENSORED_ENTRIES} entries")


def _gram(mat: np.ndarray) -> np.ndarray:
    """H^T H; one past the d * d limit, or one that overflows float64, raises :class:`ParameterError`."""
    _check_gram(mat.shape[1])
    with np.errstate(over="ignore"):
        gram = mat.T @ mat
    if not np.isfinite(gram).all():
        raise ParameterError("the Gram matrix H^T H overflows float64")
    return gram


def _chunks(rows: int, r: int) -> list[slice]:
    """Row slices of a support array; each slice's r x r Gram blocks hold <= 2**15 float64."""
    step = max(1, _CHUNK_FLOATS // (r * r))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _gram_blocks(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """The r x r Gram submatrix of each row of ``supports``, gathered by flat index.

    Supports are cast to C-ordered intp first, so i * d + j cannot wrap for
    int32 rows and the index array is C-ordered, which ``np.take`` needs to
    use it without a copy.
    """
    s = np.ascontiguousarray(supports, dtype=np.intp)
    return np.take(gram.ravel(), s[:, :, None] * gram.shape[1] + s[:, None, :])


def _draw_supports(rng: np.random.Generator, d: int, r: int, trials: int) -> np.ndarray:
    """``trials`` uniform size-r subsets of range(d), one per row (Floyd's sampler).

    For each slot j in d-r .. d-1, every row draws t uniform in [0, j] and
    takes t, or j if t is already in the row.  Picks are held slot by slot,
    as an (r, trials) int32 array whose transpose is returned, so each
    membership test compares two contiguous slot rows.  Rows are int32,
    which halves the largest array a sampled estimate holds.
    """
    picks = np.empty((r, trials), dtype=np.int32)
    for slot, j in enumerate(range(d - r, d)):
        t = rng.integers(0, j + 1, size=trials).astype(np.int32)
        seen = np.zeros(trials, dtype=bool)
        for prev in picks[:slot]:
            seen |= prev == t
        picks[slot] = np.where(seen, j, t)
    return picks.T


def _eig_bounds(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Certified upper bound on the top eigenvalue of each row's r x r Gram block.

    For symmetric B and any s > 0, lambda_max(B) <= rho(B) <= s tr((B/s)^8)^(1/8),
    and tr(C^8) = ||C^4||_F^2 for symmetric C, so two batched squarings give
    it.  s is the block's largest diagonal entry, which for a Gram block is
    its largest entry: (B/s)^4 stays within r^3 and rho(B/s) >= 1, so nothing
    overflows or underflows.  An all-zero block (s = 0) gets 0.  Every bound
    is inflated by the relative margin 1e-9, far above the rounding of both
    this pass and ``eigvalsh``.
    """
    diag = np.diag(gram)
    bound = np.empty(len(supports))
    for c in _chunks(*supports.shape):
        blocks = _gram_blocks(gram, supports[c])
        scale = diag[supports[c]].max(axis=1)
        blocks /= np.where(scale > 0, scale, 1.0)[:, None, None]
        square = np.matmul(blocks, blocks)
        np.matmul(square, square, out=blocks)
        bound[c] = scale * np.einsum("nij,nij->n", blocks, blocks) ** 0.125
        del blocks, square  # free them before the next chunk's gather allocates its own
    return bound * (1 + _BOUND_MARGIN)


def _opnorm_over_supports(mat: np.ndarray, supports: np.ndarray) -> tuple[int, int]:
    """Row of ``supports`` whose column submatrix has the largest top singular value.

    Returns the row and the number of ``eigvalsh`` evaluations made.  Every
    row first gets a certified bound on its Gram block's top eigenvalue
    (:func:`_eig_bounds`).  The 32 highest-bound rows are ranked with
    ``eigvalsh``; their maximum ``best`` is exact and at most the overall
    maximum ``top``.  Then only rows whose bound is >= best - 1e-12|best| are
    ranked with batched ``eigvalsh``: a pruned row's top eigenvalue lies
    strictly below top - 1e-12|top|, so it could never be chosen, and every
    other row gets the value a full ranking would give it.  Ties within a
    relative 1e-12 of the maximum go to the first row.
    """
    gram = _gram(mat)
    bound = _eig_bounds(gram, supports)

    def top_eig(rows: np.ndarray) -> np.ndarray:
        return np.concatenate([np.linalg.eigvalsh(_gram_blocks(gram, supports[rows[c]]))[:, -1]
                               for c in _chunks(len(rows), supports.shape[1])])

    seeds = min(_SEED_ROWS, len(bound))
    best = top_eig(np.argpartition(bound, -seeds)[-seeds:]).max()
    rows = np.flatnonzero(bound >= best - 1e-12 * abs(best))
    lam = top_eig(rows)
    top = lam.max()
    return int(rows[np.argmax(lam >= top - 1e-12 * abs(top))]), seeds + len(rows)


def _rank_and_report(mat: np.ndarray, supports: np.ndarray, method: str,
                     checked: int) -> OpNormReport:
    """Rank ``supports``; the winner's witness is the top eigenpair of its r x r Gram, re-verified."""
    best_idx, eig_ranked = _opnorm_over_supports(mat, supports)
    support = tuple(int(c) for c in supports[best_idx])
    sub = mat[:, list(support)]
    lam, vecs = np.linalg.eigh(sub.T @ sub)
    value = math.sqrt(max(float(lam[-1]), 0.0))
    coeff = vecs[:, -1]
    residual = abs(float(np.linalg.norm(sub @ coeff)) - value)
    if residual > 1e-9 * max(value, 1.0):
        raise InternalInvariantError(f"witness re-verification failed: {residual}")
    return OpNormReport(r=len(support), value=value, support=support, coefficients=coeff,
                        method=method, supports_checked=checked, residual=residual,
                        eig_ranked=eig_ranked)


def sparse_opnorm_exhaustive(h, r: int) -> OpNormReport:
    """Max top singular value over every size-r column support.

    Supports are ranked by :func:`_opnorm_over_supports`: a certified bound
    on each Gram submatrix's top eigenvalue prunes every support that cannot
    win, and batched ``eigvalsh`` ranks the rest exactly.  Of the supports
    within a relative 1e-12 of the maximum, the lexicographically first is
    reported, with its witness from ``eigh``.  ``supports_checked`` counts
    every support, pruned ones included; ``eig_ranked`` counts the
    ``eigvalsh`` evaluations.  A ``C(d, r) * r`` above
    :data:`MAX_SUPPORT_ENTRIES` raises :class:`ParameterError`.
    """
    mat = _as_matrix(h)
    d = mat.shape[1]
    total = math.comb(d, check_int("r", r, 1, d))
    _check_supports(d, r, total, f"C({d}, {r})")
    return _rank_and_report(mat, _subsets(d, r), "exhaustive", total)


def _check_supports(d: int, r: int, count: int, what: str) -> None:
    """Refuse ``count`` size-r supports past :data:`MAX_SUPPORT_ENTRIES`, or a Gram past its limit."""
    if count * r > MAX_SUPPORT_ENTRIES:
        raise ParameterError(f"{what} * r = {count} * {r} exceeds the limit "
                             f"MAX_SUPPORT_ENTRIES={MAX_SUPPORT_ENTRIES}")
    _check_gram(d)  # before any support exists


def _check_sampled(d: int, r: int, trials: int, seed: int) -> None:
    check_int("r", r, 1, d)
    check_int("trials", trials, 1)
    check_int("seed", seed, 0)
    _check_supports(d, r, trials, "trials")


def sparse_opnorm_sampled(h, r: int, trials: int, seed: int = 0) -> OpNormReport:
    """Certified lower bound: max over ``trials`` uniformly sampled supports.

    ``seed`` draws the supports (:func:`_draw_supports`).  They are ranked
    as in :func:`sparse_opnorm_exhaustive` (bound, then exact ``eigvalsh`` of
    the supports that can still win); of those within a relative 1e-12 of the
    maximum, the first drawn is reported, with its witness from ``eigh``.
    ``supports_checked`` is ``trials``, pruned supports included.  A
    ``trials * r`` above :data:`MAX_SUPPORT_ENTRIES` raises :class:`ParameterError`.
    """
    mat = _as_matrix(h)
    d = mat.shape[1]
    _check_sampled(d, r, trials, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    supports = _draw_supports(rng, d, r, trials)
    supports.sort(axis=1)
    return _rank_and_report(mat, supports, "sampled", trials)


def rip_deviation_sampled(h_normalized, r: int, trials: int, seed: int = 0) -> float:
    """max over sampled unit r-sparse v of | ||H v|| - 1 | (a lower bound on delta).

    ``seed`` draws the supports (:func:`_draw_supports`), then one standard
    normal coefficient row per support, in support order and scaled to unit
    norm.  The rows are drawn chunk by chunk, which gives the same stream as
    one (trials, r) block.  ||H v|| is sqrt(c^T G_S c) with G = H^T H, and as
    G_S is symmetric, c^T G_S c = sum_i c_i^2 G_ii + 2 sum_{i<j} c_i c_j G_ij:
    each support reads its r diagonal entries and the r(r-1)/2 entries of its
    strict upper triangle, the latter from G's flat buffer at s_i * d + s_j.
    A chunk is held slot-major, as the sampler holds its picks, so every
    gather copies whole rows; each support's sums run down its own column,
    in slot order, so the result does not depend on the chunk size.
    ``trials * r`` is limited as in :func:`sparse_opnorm_sampled`.
    """
    mat = _as_matrix(h_normalized)
    d = mat.shape[1]
    _check_sampled(d, r, trials, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    supports = _draw_supports(rng, d, r, trials)
    gram = _gram(mat)
    flat, diag = gram.ravel(), np.diag(gram)
    iu, ju = np.triu_indices(r, 1)
    worst = 0.0
    for c in _chunks(trials, r):
        sup = supports[c]
        coeff = rng.standard_normal(sup.shape)
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        # slot-major, and intp, the index type np.take uses
        sup, coeff = sup.T.astype(np.intp), np.ascontiguousarray(coeff.T)
        index = (sup * d)[iu]
        index += sup[ju]
        sq = (np.einsum("in,in,in->n", coeff, coeff, diag[sup])
              + 2 * np.einsum("in,in,in->n", coeff[iu], coeff[ju], np.take(flat, index)))
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
