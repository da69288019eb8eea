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
the least index not yet used. So the sum takes 2^(K-1) K chain steps over
the subsets S, layer by layer in |S|, two layers resident, and
``omega_expand`` lists canonical cycle words by construction, checking only
their count. All user-facing moments are normalized by the ensemble volume,
so results are exact rationals (entry moments) or complex numbers, each part
rounded once from its exact value when the permutation sum or mgf recurrence
is exact (integer and Gaussian-integer matrices); the (2*pi)-carrying raw
values remain available through ``ScaledRational``. numpy is imported only
inside the functions taking numeric matrices, so exact engines run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Sequence

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
# layer by layer in |S|, two layers resident (at most C(K-1, (K-1)//2) chains
# each), and ``moment_traces`` also holds three N x N matrices per term of the
# layer it builds (595 in all at K = 8). Both read one index plan per K, built
# once and cached for the last 8 K (0.015 MB at K = 8, 0.55 MB at K = 12, 9.4 MB
# at K = 16, holding no input or result); ``omega_expand`` lists the K!/z_mu
# distinct cycle words of its class, each block of a set partition of 1..K
# opening at the least unused index.
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


def _rounded(total: complex, scale: int, den: int) -> complex:
    """Each part x of ``total`` times 2^scale / den, rounded once; past the float range, a ``ValueError``."""
    num, den = 1 << max(scale, 0), den << max(-scale, 0)
    try:  # one int/int true division of exact integers; an inf part raises OverflowError, a nan part ValueError
        return complex(*(a * num / (b * den) for a, b in map(float.as_integer_ratio, (total.real, total.imag))))
    except (OverflowError, ValueError) as exc:
        raise ValueError("the moment does not fit a float") from exc


def eval_power_sums(a: numpy.ndarray, max_r: int) -> list[complex]:
    """(t_1, ..., t_max_r) with t_r = tr(a^r), by repeated multiplication; [] for max_r = 0."""
    import numpy as np

    if max_r < 0:
        raise ValueError("max_r must be non-negative")
    (a,), n = _validated_observables([a])
    power = np.eye(n, dtype=complex)
    out: list[complex] = []
    for _ in range(max_r):
        power = np.einsum("ij,jk->ik", power, a)  # not BLAS, whose bits depend on the build and CPU
        out.append(complex(np.trace(power)))
    return out


def mgf_coefficient(k: int, a: numpy.ndarray) -> complex:
    """Normalized series coefficient of the moment generating function.

    (N^2-1)!/(K+N^2-1)! * sum over K-box shapes of dim * character(A), which is
    h_K = [x^K] exp(N sum_j t_j x^j / j) at t_j = tr(A^j) (Cauchy's identity). Newton's
    identity gives g_m = m! h_m: g_0 = 1, g_m = N * sum over j = 1..m of (m-1)!/(m-j)! t_j g_(m-j).
    A is scaled by 2^-e as each C_j in ``moment_traces``, and each part x of g_K is rounded once
    from the exact x * 2^(K e) (N^2-1)! / (K! (K+N^2-1)!); past the float range it is refused.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    (a,), n = _validated_observables([a])
    e = max(math.frexp(abs(a.view(float)).max())[1], -1021)
    t, g = eval_power_sums(a * 2.0**-e, k), [1.0]
    for m in range(1, k + 1):  # each weight (m-1)!/(m-j)! is a float product, inf past the float range
        g.append(n * sum(math.prod(range(m - j + 1, m), start=1.0) * t[j - 1] * g[m - j] for j in range(1, m + 1)))
    return _rounded(g[k], k * e, math.factorial(k) * _rising_product(k, n))


def _set_partitions(k: int, owed: list[int]) -> list[tuple[tuple[int, ...], ...]]:
    """Splits of 1..k into owed[L-1] blocks of each length L, led by their minima, in lead order.

    As in ``_permutation_sum``, the block holding the least unused index opens first. One recursion
    carries the prefix of blocks, lowers ``owed`` around each block and appends each split to one list.
    """
    splits: list[tuple[tuple[int, ...], ...]] = []

    def split(rest: list[int], prefix: tuple[tuple[int, ...], ...]) -> None:
        if not rest:
            splits.append(prefix)  # nothing is owed either
            return
        lead, others = rest[0], rest[1:]
        for length in [L for L, count in enumerate(owed, start=1) if count]:
            owed[length - 1] -= 1
            if length == 1:
                split(others, (*prefix, (lead,)))
            else:
                for chosen in combinations(others, length - 1):
                    split([i for i in others if i not in chosen], (*prefix, (lead, *chosen)))
            owed[length - 1] += 1

    split(list(range(1, k + 1)), ())
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
    partitions = _set_partitions(k, list(monomial._counts))
    listed = (word for blocks in partitions for word in product(*map(cyclic_orders, blocks)))
    terms = dict.fromkeys(listed, Fraction(monomial.centralizer_order()))
    if len(terms) != count:
        raise ValueError(f"listed {len(terms)} distinct cycle words, not K!/z_mu = {count}")
    return TraceProductExpr._checked(k, terms)


def _validated_observables(observables: Sequence[numpy.ndarray]) -> tuple[numpy.ndarray, int]:
    """The observables as one new (K, N, N) complex stack, and N; shapes are checked before entries."""
    import numpy as np

    mats = [np.asarray(c, dtype=complex) for c in observables]
    if not mats:
        raise ValueError("at least one observable is required")
    n = mats[0].shape[0] if mats[0].ndim == 2 else -1
    if any(c.ndim != 2 or c.shape != (n, n) for c in mats):
        raise ValueError("observables must be square matrices of one dimension")
    stacked = np.stack(mats)
    if not np.isfinite(stacked).all():
        raise ValueError("observables must have finite entries")
    if n < 1:
        raise ValueError("observables must have dimension at least 1")
    return stacked, n


@lru_cache(maxsize=8)
def _layer_plan(k: int) -> tuple[tuple[list[int], list[int], list[int]], ...]:
    """Each layer's (src, mul, starts) lists for ``_permutation_sum`` over S_K, layer 1 first.

    Layer 1 is {0}, a cycle opened at 0 from the empty set. Each layer's
    masks are those of the one below plus an index past their highest, read
    through a mask -> position table of the layer below. The plan depends on
    K alone and is shared by every call, so no engine may write to its lists.
    """
    layers = [([0], [0], [0])]
    sets = [(1, ())]  # the layer's masks, each with its indices past 0
    for _ in range(1, k):
        below = {s: p for p, (s, _) in enumerate(sets)}  # mask -> position in the layer below
        # The next layer: each set of the one below plus an index past its highest.
        sets = [(s | 1 << j, (*rest, j)) for s, rest in sets for j in range(s.bit_length(), k)]
        src, mul, starts, chains = [], [], [], len(below)  # the layer below's closed totals follow its chains
        for s, rest in sets:
            starts.append(len(src))
            for j in rest:  # a chain step by C_j from chains[S - j]
                src.append(below[s ^ 1 << j])
            mul += rest
            a = 1
            while s >> a & 1:  # a cycle opens at a, in the low run of ones, from closed[S - a]
                src.append(chains + below[s ^ 1 << a])
                mul.append(a)
                a += 1
        layers.append((src, mul, starts))
    return tuple(layers)


def _permutation_sum(k: int, empty, extend: Callable):
    """Sum over pi in S_K of n^cycles(pi) * prod over cycles of the cycle weight, by layers.

    With each cycle written from its least index, in order of those indices,
    every cycle opens at the least index not yet used. Over the subsets S
    holding index 0, chains[S] sums the ways to use S with one cycle open
    (closed cycles' weights times the open one's running product), and
    closed[S] = n * (chains[S] closed) those with every cycle closed;
    closed[{}] = 1. chains[S] sums a chain step chains[S - j] * C_j for each j
    in S - {0}, and an opening closed[S - a] * C_a for each a in the low run
    of ones of S. Both reads come from subsets of size |S| - 1, so the sum
    goes layer by layer in |S|, two layers resident.

    A layer is its masks' chains followed by their closed totals; ``empty``
    is layer 0, the empty set's closed total alone. ``extend(below, src, mul,
    starts)`` returns each layer from the one below: the terms of its mask m
    are t in range(starts[m], starts[m + 1]), each entry src[t] of ``below``
    times C_mul[t]. A src[t] past the chains of ``below`` reads a closed
    total, so that term opens a cycle at mul[t]. The last layer, the full
    set's alone, is returned. The lists come from ``_layer_plan(k)``, built
    once per K and cached for the last 8 K: 2^(K-2) (K+1) terms in all, each
    an entry of src and of mul, 0.015 MB resident at K = 8, 0.55 MB at K = 12
    and 9.4 MB at K = 16.
    """
    layer = empty
    for src, mul, starts in _layer_plan(k):
        layer = extend(layer, src, mul, starts)
    return layer


def moment_traces(
    observables: Sequence[numpy.ndarray], *, max_boxes: int = DEFAULT_BOX_CAP
) -> complex:
    """Mean of prod_j (C_j . rho) over the flat density-matrix ensemble.

    The permutation sum of the module docstring over N x N chains: a step
    multiplies by C_j, and a cycle closes with a trace. Each layer's steps are
    one gather and one ``einsum`` (not BLAS, whose bits depend on the build and
    CPU), summed per mask by ``reduceat``; a closed total is stacked as that
    total times I, so an opening is one more step.
    Building layer L from its T_L terms holds 3 T_L + 2 C(K-1, L-2) N x N
    matrices: the layer below, and the gather, the C_j and their products.
    No chain overflows: each C_j is scaled by 2^-e_j, its largest |Re| or |Im| then in [1/2, 1)
    (or 2^1021 up at most). Each part x of the total is rounded once from the exact
    x * 2^(sum e_j) * (N^2-1)!/(K+N^2-1)!, so the moment is exact wherever the total
    is, as for integer and Gaussian-integer observables; past the float range it is refused.
    """
    import numpy as np

    mats, n = _validated_observables(observables)
    k = check_cap(len(mats), max_boxes, PERMUTATION_SUM_COST)
    peaks = abs(mats.view(float)).max(axis=(1, 2)).tolist()  # each C_j's largest |Re| or |Im|
    exponents = [max(math.frexp(peak)[1], -1021) for peak in peaks]
    mats *= np.array([2.0**-e for e in exponents])[:, None, None]
    eye = np.eye(n, dtype=complex)

    def extend(below, src, mul, starts):
        chains = np.add.reduceat(np.einsum("tik,tkl->til", below[src], mats[mul]), starts)
        return np.concatenate((chains, (n * np.einsum("mii->m", chains))[:, None, None] * eye))

    total = complex(_permutation_sum(k, eye[None], extend)[-1, 0, 0])  # the full set's closed total times I
    return _rounded(total, sum(exponents), _rising_product(k, n))


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

    def extend(below: list, src: list[int], mul: list[int], starts: list[int]) -> list:
        size, layer, closed = len(below) // 2, [], []
        for lo, hi in zip(starts, starts[1:] + [len(src)]):
            ends: dict[tuple[int, int], int] = {}
            diagonal = 0
            for t in range(lo, hi):
                at, to = rows[mul[t]], cols[mul[t]]
                if src[t] < size:  # a chain step
                    for (row, col), count in below[src[t]].items():
                        if col == at:
                            ends[row, to] = ends.get((row, to), 0) + count
                            if row == to:
                                diagonal += count
                elif weight := below[src[t]]:  # a closed total: a cycle opens
                    ends[at, to] = ends.get((at, to), 0) + weight
                    if at == to:
                        diagonal += weight
            layer.append(ends)
            closed.append(n * diagonal)
        return layer + closed

    total = _permutation_sum(k, [1], extend)[-1]
    return Fraction(total, _rising_product(k, n))


def purity_mean(n: int) -> Fraction:
    """Mean of tr(rho^2), the sum of entry moments rho[i,j] * rho[j,i] over i, j.

    Entry moments do not change when the indices 1..N are relabelled, so the
    N diagonal terms equal E[rho11^2] and the N(N-1) others E[rho12 rho21].
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = n * entry_moment(EntryMomentSpec(n, ((1, 1), (1, 1))))
    if n > 1:
        total += n * (n - 1) * entry_moment(EntryMomentSpec(n, ((1, 2), (2, 1))))
    return total
