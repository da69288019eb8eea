"""Moments of the flat (Hilbert-Schmidt) ensemble of density matrices.

The centerpiece is the permutation-sum formula behind ``moment_traces``: the
mean of a product of observable pairings against the random density matrix is

    (N^2-1)! / (K+N^2-1)! * sum over pi in S_K of
        N^cycles(pi) * prod over cycles (j1 ... jm) of tr(C_j1 ... C_jm).

It is obtained by expanding the dimension-weighted character sum into class
monomials of trace power sums and replacing each monomial by its sum of trace
products over permutations, and is cross-checked against the K = 1, 2 closed
forms, the K <= 4 weighted-character table, and Monte Carlo sampling. The
permutation sum and the expansion route of ``omega_expand`` share one rule:
written from its least index, in order of those indices, each cycle opens at
the least index not yet used. So the sum takes 2^(K-1) K chain steps, one pass
over subsets, and ``omega_expand`` lists canonical cycle words by construction,
checking only their count. All user-facing moments are normalized by the
ensemble volume, so results are exact rationals (entry moments; also
integer-valued observables) or plain complex numbers; the (2*pi)-carrying raw
values remain available through ``ScaledRational``. numpy is imported only
inside the functions that take numeric matrices, so the exact engines run
without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from typing import Callable, Sequence

from .characters import dim_char_sum
from .combinat import (
    CycleType, bounded_factorial, check_cap, class_order, lower_triangle_count, super_factorial, vandermonde,
)

__all__ = [
    "DEFAULT_BOX_CAP",
    "ScaledRational",
    "EntryMomentSpec",
    "TraceProductExpr",
    "hs_volume",
    "det_lemma_value",
    "int_lemma_value",
    "eval_power_sums",
    "mgf_coefficient",
    "omega_expand",
    "moment_traces",
    "entry_moment",
    "purity_mean",
]

# Largest K accepted per call: the permutation sums cost 2^(K-1) K chain steps,
# ``omega_expand`` lists the K!/z_mu distinct cycle words of its class, each
# block of a set partition of 1..K opening at the least unused index.
# Overridable per call. A refusal comes before any count; it names K!/z_mu only
# while K! < 2^63.
DEFAULT_BOX_CAP = 8
PERMUTATION_SUM_COST = "the permutation sum costs 2^(K-1)*K chain steps"


@dataclass(frozen=True)
class ScaledRational:
    """An exact rational times an integer power of 2*pi."""

    rational: Fraction
    twopi_exponent: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rational", Fraction(self.rational))
        exponent = int(self.twopi_exponent) if self.rational else 0
        object.__setattr__(self, "twopi_exponent", exponent)

    def __mul__(self, other):
        if isinstance(other, ScaledRational):
            return ScaledRational(
                self.rational * other.rational,
                self.twopi_exponent + other.twopi_exponent,
            )
        if isinstance(other, (int, Fraction)):
            return ScaledRational(self.rational * other, self.twopi_exponent)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.twopi_exponent == 0:
            return str(self.rational)
        return f"{self.rational}·(2π)^{self.twopi_exponent}"


@dataclass(frozen=True)
class EntryMomentSpec:
    """Mean of a product of matrix entries rho[i_p, j_p], indices 1-based."""

    dimension: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = int(self.dimension)
        if n < 1:
            raise ValueError("dimension must be positive")
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        if not pairs:
            raise ValueError("at least one index pair is required")
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"index pair ({i},{j}) out of range for dimension {n}")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "pairs", pairs)

    def order(self) -> int:
        return len(self.pairs)


def _check_canonical(term: tuple[tuple[int, ...], ...], order: int) -> None:
    """Refuse a term unless it covers 1..order once in sorted cycles, each led by its minimum."""
    if sorted(i for cycle in term for i in cycle) != list(range(1, order + 1)):
        raise ValueError(f"term {term} does not cover indices 1..{order}")
    if any(not cycle or cycle[0] != min(cycle) for cycle in term) or list(term) != sorted(term):
        raise ValueError(f"term {term} is not canonical: sorted cycles, each led by its minimum")


class TraceProductExpr:
    """Formal sum of coefficient * products of trace factors.

    Each term is a tuple of cycles, each cycle an ordered tuple of 1-based
    observable indices led by its smallest index; the cycles of a term are
    sorted, and every index 1..K appears once. The constructor checks every
    term a caller supplies for this form and drops zero coefficients;
    ``omega_expand`` builds its words in this form, each cycle opening at the
    least index not yet used, and hands them over unchecked.
    """

    __slots__ = ("_order", "_terms")

    def __init__(self, order: int, terms: dict[tuple[tuple[int, ...], ...], Fraction] | None = None):
        self._order = int(order)
        self._terms: dict[tuple[tuple[int, ...], ...], Fraction] = {}
        for term, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                _check_canonical(term, self._order)
                self._terms[term] = coeff

    @classmethod
    def _checked(cls, order: int, terms: dict[tuple[tuple[int, ...], ...], Fraction]) -> TraceProductExpr:
        """Wrap nonzero canonical ``terms`` that the caller has already checked."""
        expr = cls.__new__(cls)
        expr._order, expr._terms = order, terms
        return expr

    @property
    def order(self) -> int:
        return self._order

    @property
    def terms(self) -> dict[tuple[tuple[int, ...], ...], Fraction]:
        return dict(self._terms)

    def evaluate_entry_pairs(self, pairs: Sequence[tuple[int, int]]) -> Fraction:
        """Evaluate with single-entry observables selecting rho[i_p, j_p].

        Each trace factor collapses to a chain of Kronecker deltas, so the
        result is exact.
        """
        if len(pairs) != self._order:
            raise ValueError(f"expected {self._order} index pairs, got {len(pairs)}")

        def closes(cycle: tuple[int, ...]) -> bool:
            following = cycle[1:] + cycle[:1]
            return all(pairs[a - 1][1] == pairs[b - 1][0] for a, b in zip(cycle, following))

        return sum((c for term, c in self._terms.items() if all(map(closes, term))), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceProductExpr):
            return self._order == other._order and self._terms == other._terms
        return NotImplemented

    def __repr__(self) -> str:
        pieces = []
        for term in sorted(self._terms):
            factors = "*".join(
                "tr(" + "".join(f"C{i}" for i in cycle) + ")" for cycle in term
            )
            pieces.append(f"({self._terms[term]})*{factors}")
        return "TraceProductExpr(" + (" + ".join(pieces) if pieces else "0") + ")"


def hs_volume(n: int) -> ScaledRational:
    """Total volume of the density-matrix body: (2*pi)^L_N * F_{N-1} / (N^2-1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    denominator = bounded_factorial(n * n - 1)
    return ScaledRational(Fraction(super_factorial(n - 1), denominator), lower_triangle_count(n))


def _check_beta(beta: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(b) for b in beta)
    if not out:
        raise ValueError("beta must be non-empty")
    if any(b < 0 for b in out):
        raise ValueError(f"beta entries must be non-negative, got {out}")
    return out


def det_lemma_value(beta: Sequence[int]) -> int:
    """prod(beta_j!) * difference product of beta, as an exact integer.

    Equals the determinant of the matrix M[i, j] = (i + beta_j)!.
    """
    beta = _check_beta(beta)
    product = 1
    for b in beta:
        product *= bounded_factorial(b)
    return product * vandermonde(beta)


def int_lemma_value(beta: Sequence[int]) -> Fraction:
    """Integral of the difference product times monomials over the whole simplex.

    The integral of prod_{i<j} (x_j - x_i) * prod_j x_j^beta_j over
    x_1 + ... + x_N = 1, measured as ``classical.simplex_moment`` does, is
    prod(beta_j!) * diffprod(beta) / (sum(beta) + L_N + N - 1)! for an
    N-vector beta. No ordering of the x_j is imposed: beta = (0, 1) gives 1/6,
    where x_1 < x_2 alone gives 5/24.
    """
    beta = _check_beta(beta)
    n = len(beta)
    nu = sum(beta) + lower_triangle_count(n) + n - 1
    return Fraction(det_lemma_value(beta), bounded_factorial(nu))


def _rising_product(k: int, n: int) -> int:
    """(K+N^2-1)! / (N^2-1)!, the inverse of the moment prefactor."""
    return math.perm(k + n * n - 1, k)


def eval_power_sums(a: numpy.ndarray, max_r: int) -> list[complex]:
    """(t_1, ..., t_max_r) with t_r = tr(a^r), by repeated multiplication."""
    import numpy as np

    if max_r < 1:
        raise ValueError("max_r must be positive")
    (a,), n = _validated_observables([a])
    power = np.eye(n, dtype=complex)
    out: list[complex] = []
    for _ in range(max_r):
        power = np.einsum("ij,jk->ik", power, a)  # not BLAS, whose bits depend on the build and CPU
        out.append(complex(np.trace(power)))
    return out


def mgf_coefficient(k: int, a: numpy.ndarray) -> complex:
    """Normalized series coefficient of the moment generating function.

    (N^2-1)!/(K+N^2-1)! * sum over K-box shapes with at most N rows of
    dim * character(A), which is ``dim_char_sum`` at the power sums of the
    N x N matrix A; the K = 0 coefficient is 1 by convention. A coefficient
    past the float range raises ``ValueError``, as in ``moment_traces``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 1.0 + 0.0j
    power_sums = eval_power_sums(a, k)  # refuses an empty, non-square or non-finite A
    n = len(a)
    try:
        value = complex(Fraction(1, _rising_product(k, n)) * dim_char_sum(k, n).evaluate(power_sums))
    except OverflowError:  # a power sum's power past the float range
        value = complex("nan")
    if not cmath.isfinite(value):
        raise ValueError("the moment does not fit a float")
    return value


def _set_partitions(rest: tuple[int, ...], owed: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Splits of ``rest`` into owed[L-1] blocks of each length L, led by their minima, in lead order.

    As in ``_permutation_sum``, the block holding rest[0], the least unused index, opens first.
    """
    if not rest:
        return [()]  # nothing is owed either
    splits = []
    for length in [L for L, count in enumerate(owed, start=1) if count]:
        left = owed[: length - 1] + (owed[length - 1] - 1,) + owed[length:]
        for others in combinations(rest[1:], length - 1):
            block = (rest[0], *others)
            splits += [(block, *tail) for tail in _set_partitions(tuple(i for i in rest if i not in block), left)]
    return splits


def omega_expand(monomial: CycleType, k: int, *, max_boxes: int = DEFAULT_BOX_CAP) -> TraceProductExpr:
    """Expand a power-sum monomial into its sum of trace products.

    The derivative operator prod_j (C_j . d/dA) turns the class monomial
    t_1^{i_1} t_2^{i_2} ... into a sum over the K! assignments of the
    observables into cycles of the class pattern: K!/z_mu distinct cycle
    words, each arising z_mu = prod_L L^{i_L} i_L! times, listed once here.

    The words are built by the permutation sum's rule: each block of a set
    partition of 1..K into the class's lengths opens at the least index not
    yet used, so the words, the products of the blocks' cyclic orders
    (lead, *permutation(others)), are canonical by construction. Their count
    is checked against K!/z_mu.
    """
    if monomial.boxes() != k:
        raise ValueError(f"monomial has box weight {monomial.boxes()}, expected {k}")
    if k > max_boxes:  # refuse before counting: K!/z_mu is named only while K! < 2^63
        shown = f" = {class_order(monomial)}" if k <= 20 else ""
        check_cap(k, max_boxes, f"K!/z_mu{shown} distinct terms")

    @cache
    def cyclic_orders(block: tuple[int, ...]) -> list[tuple[int, ...]]:
        lead, *others = block
        return [(lead, *order) for order in permutations(others)]

    count = class_order(monomial)
    partitions = _set_partitions(tuple(range(1, k + 1)), monomial.counts)
    listed = (word for blocks in partitions for word in product(*map(cyclic_orders, blocks)))
    terms = dict.fromkeys(listed, Fraction(math.factorial(k), count))
    if len(terms) != count:
        raise ValueError(f"listed {len(terms)} distinct cycle words, not K!/z_mu = {count}")
    return TraceProductExpr._checked(k, terms)


def _validated_observables(observables: Sequence[numpy.ndarray]) -> tuple[list[numpy.ndarray], int]:
    import numpy as np

    mats = [np.asarray(c, dtype=complex) for c in observables]
    if not mats:
        raise ValueError("at least one observable is required")
    n = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for c in mats:
        if c.ndim != 2 or c.shape != (n, n):
            raise ValueError("observables must be square matrices of one dimension")
        if not np.isfinite(c).all():
            raise ValueError("observables must have finite entries")
    if n < 1:
        raise ValueError("observables must have dimension at least 1")
    return mats, n


def _permutation_sum(k: int, n: int, grow: Callable, close: Callable):
    """Sum over pi in S_K of n^cycles(pi) * prod over cycles of the cycle weight.

    With each cycle written from its least index, in order of those indices,
    every cycle opens at the least index not yet used. Over the bitmasks S
    holding index 0, in increasing order, chains[S] sums the ways to use S with
    one cycle open (closed cycles' weights times the open one's running
    product), and closed[S] those with every cycle closed; closed[{}] = 1.
    chains[S] = grow(prev, opened): prev extends the open cycle by j, pairs
    (chains[S - j], j); opened opens one at a in the low run of ones of S,
    nonzero pairs (closed[S - a], a). Then closed[S] = n * close(chains[S]).
    """
    size = 1 << k
    chains, closed = [None] * size, [1] + [0] * (size - 1)
    for s in range(1, size, 2):
        run = (~s & (s + 1)).bit_length() - 1
        prev = [(chains[s ^ 1 << j], j) for j in range(1, k) if s >> j & 1]
        opened = [(closed[s ^ 1 << a], a) for a in range(run) if closed[s ^ 1 << a]]
        chains[s] = grow(prev, opened)
        closed[s] = n * close(chains[s])
    return closed[-1]


def moment_traces(
    observables: Sequence[numpy.ndarray], *, max_boxes: int = DEFAULT_BOX_CAP
) -> complex:
    """Mean of prod_j (C_j . rho) over the flat density-matrix ensemble.

    The permutation sum of the module docstring over N x N chains: a step
    multiplies by C_j, and a cycle closes with a trace. A total that comes out
    exactly real, as for integer-valued observables, is normalized exactly.
    No chain overflows: each C_j is scaled by 2^-e_j, its largest |Re| or |Im| then in [1/2, 1)
    (or 2^1021 up at most), and the multilinear moment by 2^(sum e_j).
    """
    mats, n = _validated_observables(observables)
    k = check_cap(len(mats), max_boxes, PERMUTATION_SUM_COST)
    exponents = [max(math.frexp(max(abs(c.real).max(), abs(c.imag).max()))[1], -1021) for c in mats]
    mats = [c * 2.0**-e for c, e in zip(mats, exponents)]
    total = _permutation_sum(
        k, n,
        lambda prev, opened: sum(chain @ mats[j] for chain, j in prev) + sum(w * mats[a] for w, a in opened),
        lambda chain: complex(chain.trace()),
    )
    if total.imag == 0 and math.isfinite(total.real):
        total = Fraction(total.real)
    value = complex(Fraction(1, _rising_product(k, n)) * total)
    try:
        return complex(math.ldexp(value.real, sum(exponents)), math.ldexp(value.imag, sum(exponents)))
    except OverflowError as exc:
        raise ValueError("the moment does not fit a float") from exc


def entry_moment(spec: EntryMomentSpec, *, max_boxes: int = DEFAULT_BOX_CAP) -> Fraction:
    """Exact mean of prod_p rho[i_p, j_p] over the flat ensemble.

    A single-entry observable keeps one nonzero entry, so a chain is an
    integer count per (row its open cycle starts on, column it ends on), and
    a cycle closes where the two meet: the sum stays in integer arithmetic.
    """
    k = check_cap(spec.order(), max_boxes, PERMUTATION_SUM_COST)
    n = spec.dimension
    rows = [i for i, _ in spec.pairs]
    cols = [j for _, j in spec.pairs]
    if sorted(rows) != sorted(cols):
        return Fraction(0)  # no cycle closes unless the columns rearrange the rows

    def grow(prev: list, opened: list) -> dict[tuple[int, int], int]:
        ends: dict[tuple[int, int], int] = {}
        for chain, j in prev:
            for (row, col), count in chain.items():
                if col == rows[j]:
                    ends[row, cols[j]] = ends.get((row, cols[j]), 0) + count
        for weight, a in opened:
            ends[rows[a], cols[a]] = ends.get((rows[a], cols[a]), 0) + weight
        return ends

    total = _permutation_sum(k, n, grow, lambda chain: sum(c for (row, col), c in chain.items() if row == col))
    return Fraction(total, _rising_product(k, n))


def purity_mean(n: int) -> Fraction:
    """Mean of tr(rho^2): the sum of entry moments rho[i,j] * rho[j,i]."""
    if n < 1:
        raise ValueError("n must be positive")
    total = Fraction(0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total += entry_moment(EntryMomentSpec(n, ((i, j), (j, i))))
    return total
