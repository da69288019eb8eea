"""Moments of the flat (Hilbert-Schmidt) ensemble of density matrices.

The centerpiece is the permutation-sum formula behind ``moment_traces``: the
mean of a product of observable pairings against the random density matrix is

    (N^2-1)! / (K+N^2-1)! * sum over pi in S_K of
        N^cycles(pi) * prod over cycles (j1 ... jm) of tr(C_j1 ... C_jm).

It is obtained by expanding the dimension-weighted character sum into class
monomials of trace power sums and replacing each monomial by its sum of trace
products over permutations, and is cross-checked against the K = 1, 2 closed
forms, the K <= 4 weighted-character table, and Monte Carlo sampling. The
permutation sum groups equal observables, each distinct one a colour of
multiplicity m_i: it is m! [x^m] det(I - sum_i x_i C_i)^(-N), by a recurrence
over the content vectors c <= m, layer by layer in |c|, whose recurrence, cost
and index plans are given in ``_layer_plan``.
``omega_expand`` lists canonical cycle words by construction, each cycle
opening at the least index not yet used, and checks only their count.
All user-facing moments are normalized by the ensemble volume,
so results are exact rationals (entry moments) or complex numbers, each part
rounded once from its exact value when the permutation sum or mgf recurrence
is exact (integer and Gaussian-integer matrices); the (2*pi)-carrying raw
values remain available through ``ScaledRational``. numpy is imported only
inside the functions taking numeric matrices, so exact engines run without it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from .combinat import (
    CycleType, _Frozen, _naturals, bounded_factorial, check_cap, class_order, lower_triangle_count, super_factorial,
    vandermonde,
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

# Largest K accepted per call. The permutation sums' chain steps, peak memory
# and cached plans' sizes are given in ``_layer_plan``; ``omega_expand`` lists
# the K!/z_mu distinct cycle words of its class. Overridable per call. A
# refusal comes before any count; it names K!/z_mu only while K! < 2^63.
DEFAULT_BOX_CAP = 8
PERMUTATION_SUM_COST = "the permutation sum costs up to (K-1)*2^(K-2)+1 chain steps, fewer when inputs repeat"


class ScaledRational(_Frozen):
    """An exact rational times an integer power of 2*pi."""

    __slots__ = _fields = ("rational", "twopi_exponent")

    def __init__(self, rational: Fraction, twopi_exponent: int = 0):
        rational = Fraction(rational)
        exponent = operator.index(twopi_exponent)
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "twopi_exponent", exponent if rational else 0)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ScaledRational(self.rational * other, self.twopi_exponent)
        return NotImplemented

    def __str__(self) -> str:
        if self.twopi_exponent == 0:
            return str(self.rational)
        return f"{self.rational}·(2π)^{self.twopi_exponent}"


class EntryMomentSpec(_Frozen):
    """Mean of a product of matrix entries rho[i_p, j_p], indices 1-based."""

    __slots__ = _fields = ("dimension", "pairs")

    def __init__(self, dimension: int, pairs: Iterable[tuple[int, int]]):
        n = operator.index(dimension)
        if n < 1:
            raise ValueError("dimension must be positive")
        pairs = tuple((operator.index(i), operator.index(j)) for i, j in pairs)
        if not pairs:
            raise ValueError("at least one index pair is required")
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"index pair ({i},{j}) out of range for dimension {n}")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "pairs", pairs)

    def order(self) -> int:
        return len(self.pairs)


class TraceProductExpr:
    """Formal sum of coefficient * products of trace factors.

    Each term is a tuple of cycles, each cycle an ordered tuple of 1-based
    observable indices led by its smallest index; the cycles of a term are
    sorted, and every index 1..K appears once. Only ``omega_expand`` builds
    one: it lists its words in this form, each cycle opening at the least
    index not yet used, with nonzero coefficients, and the constructor stores
    them as given.
    """

    __slots__ = ("_order", "_terms")

    def __init__(self, order: int, terms: dict[tuple[tuple[int, ...], ...], Fraction]):
        self._order, self._terms = order, terms

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


def det_lemma_value(beta: Sequence[int]) -> int:
    """prod(beta_j!) * difference product of beta, as an exact integer.

    Equals the determinant of the matrix M[i, j] = (i + beta_j)!.
    """
    beta = _naturals(beta, "beta")
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
    beta = _naturals(beta, "beta")
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

    The block holding the least unused index opens first. One recursion
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
    return TraceProductExpr(k, terms)


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


@lru_cache(maxsize=66)  # every partition of every K <= 8
def _layer_plan(mults: tuple[int, ...]) -> tuple[tuple[list[int], list[int], list[int], list[int]], ...]:
    """Each layer's (src, mul, weight, starts) lists for the permutation sum, layer 1 first.

    Colour each distinct observable i, of multiplicity m_i, in ascending
    order of m_i. The sum over pi in S_K of n^cycles(pi) * prod over cycles
    of tr(C_j1 ... C_jm) is m! [x^m] F for F = det(I - X)^(-n),
    X = sum_i x_i C_i (Goodman's complex-Wishart Laplace transform), with
    m! = prod_i m_i!. With R = F (I - X)^(-1) and, for each content vector c,
    F~[c] = c! [x^c] F and R~[c] = c! [x^c] R:

        R~[c] = F~[c] I + sum over c_i > 0 of c_i R~[c - e_i] C_i,
        F~[c] = n tr(R~[c - e_i] C_i) for any i with c_i > 0 (Jacobi's formula),

    the second taken at the least colour of c, and the sum is
    F~[m] = n tr(R~[m - e_0] C_0). Only the states c <= m - e_0 are read,
    prod_i (m_i + 1) * m_0 / (m_0 + 1) of them, one chain step per colour
    present in each, and one step for m: 2^(K-1) states and (K-1) 2^(K-2) + 1
    steps when no observable repeats, K of each for one repeated K times. Every
    read comes from the layer |c| - 1, so the sum goes layer by layer from
    layer 0, c = 0 alone with F~ = 1 and R~ = I, two layers resident, at most
    C(K-1, (K-1)//2) states each. ``moment_traces`` holds 3 T + S N x N
    matrices while it builds a layer of T terms from the S states below: 455
    at K = 8 with no repeats. The weights c_i are small integers, so integer
    inputs keep an integer sum, with no division.

    Layer L holds the content vectors c <= m - e_0 with |c| = L. The terms of
    its state s are t in range(starts[s], starts[s + 1]), one per colour
    i = mul[t] with c_i > 0, in order, so its least colour's comes first:
    each reads R~[c - e_i], entry src[t] of the layer below, and carries the
    weight c_i. Layer K - 1 is m - e_0 alone, and layer K, m alone, holds its
    colour-0 term only: its F~ is the sum. The plan depends on m alone and is
    shared by every call, so no engine may write to its lists. The cache
    keeps all 66 plans of K <= 8 resident: 3,409 terms, 0.25 MB. A K's
    largest plan, K distinct colours, holds (K - 1) 2^(K - 2) + 1 terms:
    0.015 MB at K = 8, 0.37 MB at K = 12 and 8.3 MB at K = 16.
    """
    top = (mults[0] - 1, *mults[1:])
    states = [((0,) * len(mults), 0)]  # each state with its highest colour present, or 0
    layers = []
    for _ in range(1, sum(mults)):
        below = {c: p for p, (c, _) in enumerate(states)}
        # The next layer: each state below plus one of a colour at or past its highest.
        states = [
            ((*c[:i], c[i] + 1, *c[i + 1:]), i) for c, high in states for i in range(high, len(c)) if c[i] < top[i]
        ]
        src, mul, weight, starts = [], [], [], []
        for c, _ in states:
            starts.append(len(src))
            for i, ci in enumerate(c):
                if ci:
                    src.append(below[(*c[:i], ci - 1, *c[i + 1:])])
                    mul.append(i)
                    weight.append(ci)
        layers.append((src, mul, weight, starts))
    layers.append(([0], [0], [mults[0]], [0]))  # F~[m] = n tr(R~[m - e_0] C_0)
    return tuple(layers)


def _colours(items: Sequence) -> tuple[list, tuple[int, ...]]:
    """The distinct hashable ``items`` in ascending order of multiplicity, and those multiplicities.

    Ties go last-seen first, so colour 0, the one closed last, is the latest of the rarest items:
    two distinct observables then multiply in the order given, C_1 C_2.
    """
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    colours = sorted(reversed(counts), key=counts.__getitem__)
    return colours, tuple(map(counts.__getitem__, colours))


def moment_traces(
    observables: Sequence[numpy.ndarray], *, max_boxes: int = DEFAULT_BOX_CAP
) -> complex:
    """Mean of prod_j (C_j . rho) over the flat density-matrix ensemble.

    The permutation sum of the module docstring over N x N matrices, each
    byte-equal observable of the scaled stack one colour. As in
    ``entry_moment``, a layer keeps F~ and R~ - F~ I, so each step is one
    gather and one ``einsum`` (not BLAS, whose bits depend on the build and
    CPU) plus F~ C_i; F~ is n times the trace of each state's first product,
    and the products, each weighted by its c_i, are summed per state by
    ``reduceat``; its peak memory is given in ``_layer_plan``.
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
    keys = [c.tobytes() for c in mats]
    colours, mults = _colours(keys)
    mats = mats[[keys.index(c) for c in colours]]  # each colour's first observable

    fs, parts = np.ones(1), np.zeros((1, n, n), complex)  # layer 0: F~ = 1, R~ - F~ I = 0
    for src, mul, weight, starts in _layer_plan(mults):
        steps = mats[mul]
        prods = np.einsum("tik,tkl->til", parts[src], steps)
        prods += np.einsum("t,tkl->tkl", fs[src], steps)  # F~ C_i, by einsum: * rounds complex products differently
        fs = n * np.einsum("tii->t", prods).take(starts)
        prods *= np.array(weight, float)[:, None, None]
        parts = np.add.reduceat(prods, starts)
    return _rounded(complex(fs[0]), sum(exponents), _rising_product(k, n))


_ZERO = Fraction(0)  # one shared zero: a Fraction is immutable, and most entry moments vanish


def entry_moment(spec: EntryMomentSpec, *, max_boxes: int = DEFAULT_BOX_CAP) -> Fraction:
    """Exact mean of prod_p rho[i_p, j_p] over the flat ensemble.

    Each distinct pair (i, j) is one colour, a single-entry observable, so a
    step by it moves column i of R~ to column j. R~ is kept as F~ I plus its
    other integer entries, a dict of rows per column: the identity part costs
    one entry per step, none when F~ = 0, and the sum stays in integers.
    """
    k = check_cap(spec.order(), max_boxes, PERMUTATION_SUM_COST)
    n = spec.dimension
    rows, cols = zip(*spec.pairs)
    if sorted(rows) != sorted(cols):
        return _ZERO  # no cycle closes unless the columns rearrange the rows
    colours, mults = _colours(spec.pairs)

    fs, parts = [1], [{}]  # layer 0: F~ = 1, R~ = I
    for src, mul, weight, starts in _layer_plan(mults):
        layer_f, layer = [], []
        for lo, hi in zip(starts, starts[1:] + [len(src)]):
            s, (at, to) = src[lo], colours[mul[lo]]  # the least colour's step: F~ = n tr(R~ E_at,to) = n R~[to, at]
            column = parts[s].get(at)
            layer_f.append(n * ((column.get(to, 0) if column else 0) + (fs[s] if at == to else 0)))
            ends: dict[int, dict[int, int]] = {}
            for t in range(lo, hi):
                s, (at, to), w = src[t], colours[mul[t]], weight[t]
                f, column = fs[s], parts[s].get(at)
                if f or column:
                    target = ends.setdefault(to, {})
                    if f:
                        target[at] = target.get(at, 0) + w * f
                    if column:
                        for row, count in column.items():
                            target[row] = target.get(row, 0) + w * count
            layer.append(ends)
        fs, parts = layer_f, layer
    return Fraction(fs[0], _rising_product(k, n))


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
