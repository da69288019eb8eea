"""Independent oracles used to pin golden values.

Nothing here may call into the code paths it checks: determinants are
cofactor expansions, dimensions come from the hook-content formula over
Fractions and, as the library computed them before it took the content-hook
ratio in integers, from Weyl's product telescoped into binomials, U(N)
characters are Weyl's determinant ratio over the eigenvalues, ensemble
moments and class-monomial expansions list all K! permutations (at larger K,
ensemble moments are also summed over set partitions in two stages, as the
subset engine did before it became one pass, over subsets in increasing
order of mask, as it did before it went layer by layer, and layer by layer in
|S| from a plan keyed by K, as it did before it went over content vectors),
dimension-weighted character sums go over irreps as in the paper, density
matrices are the complex Gram product G G^H of one einsum, and, bit for bit,
sums into the strided parts of one complex Gram array, as the sampler made
them before it summed into contiguous planes, and integrals go
through scipy quadrature in the tests themselves. The S_K classes, the dimension-weighted coefficients and the
set partitions behind ``omega_expand`` are also built the way the library built
them before each became one pass: sorted partitions, |class| * N^cycles / K!,
and a recursion that copies every tail. The mean purity sums all N^2 entry
moments rho[i,j] * rho[j,i], as the library did before it used two, and the
exact moment of Gaussian-integer observables sums entry moments over index pairs. The exact
generating-function coefficient of a Gaussian-integer matrix is the class sum over its exact power
sums, as the library evaluated it before it used Newton's identity. A power-sum
polynomial is evaluated term by term, and a cycle word is checked for canonical form,
as the library's result types did before only their builders made them.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, isfinite

import numpy as np

from rho_moments.characters import unitary_char_poly
from rho_moments.combinat import CycleType, class_order, enumerate_partitions


def exact_det(rows):
    """Cofactor-expansion determinant over exact scalars (int/Fraction)."""
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("matrix must be square")
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for col in range(size):
        minor = [r[:col] + r[col + 1 :] for r in rows[1:]]
        term = rows[0][col] * exact_det(minor)
        total = total - term if col % 2 else total + term
    return total


def hook_content_dim(parts, n):
    """U(N) irrep dimension by the hook-content formula: prod (n + j - i) / hook."""
    parts = tuple(parts)
    if len(parts) > n:
        return 0
    conj = [sum(1 for p in parts if p > col) for col in range(parts[0])] if parts else []
    value = Fraction(1)
    for i, row_len in enumerate(parts):
        for j in range(row_len):
            hook = (row_len - j) + (conj[j] - i) - 1
            value *= Fraction(n + j - i, hook)
    assert value.denominator == 1
    return value.numerator


def weyl_dim_telescoped(parts, n):
    """U(N) irrep dimension by Weyl's product prod_{i<j<n} (eta_i - eta_j + j - i) / (j - i), as the library computed it.

    With ell rows, the pairs with j >= ell have eta_j = 0, and their factors for
    one row i telescope into C(eta_i+n-1-i, eta_i) / C(eta_i+ell-1-i, eta_i).
    """
    parts = tuple(parts)
    ell = len(parts)
    if ell > n:
        return 0
    numerator = denominator = 1
    for i, p in enumerate(parts):
        numerator *= comb(p + n - 1 - i, p)
        denominator *= comb(p + ell - 1 - i, p)
        for j in range(i + 1, ell):
            numerator *= p - parts[j] + j - i
            denominator *= j - i
    return numerator // denominator


def weyl_ratio_character(parts, eigenvalues):
    """U(N) character of a shape with at most N rows, by Weyl's ratio at N distinct eigenvalues.

    det[x_i^(eta_j + N-1-j)] / det[x_i^(N-1-j)]; it is 0/0 when eigenvalues coincide.
    """
    x = np.asarray(eigenvalues, dtype=complex)
    steps = np.arange(x.size - 1, -1, -1)
    eta = np.array(tuple(parts) + (0,) * (x.size - len(parts)))
    return complex(np.linalg.det(x[:, None] ** (eta + steps)) / np.linalg.det(x[:, None] ** steps))


def power_sum_value(terms, power_sums):
    """Sum of coefficient * prod_r t_r^e_r over ``PowerSumPoly.terms``, with power_sums[r-1] supplying t_r.

    Exact when the inputs are Fractions/ints, complex otherwise.
    """
    total = Fraction(0)
    for key, coeff in terms.items():
        value = coeff
        for r, e in enumerate(key, start=1):
            if e:
                value = value * power_sums[r - 1] ** e
        total = total + value
    return total


def dim_char_sum_oracle(k, n):
    """Power-sum terms of sum over K-box shapes of dim * U(N) character.

    The character route: hook-content dimensions times the Murnaghan-Nakayama
    expansion of each character, keyed like ``PowerSumPoly.terms``.
    """
    total = {}
    for irrep in enumerate_partitions(k):
        dim = hook_content_dim(irrep.parts, n)
        for key, coeff in unitary_char_poly(irrep).terms.items():
            total[key] = total.get(key, 0) + dim * coeff
    return {key: coeff for key, coeff in total.items() if coeff}


def enumerate_cycle_types_oracle(k):
    """The classes of S_K by sorting the partitions of K as weakly increasing cycle-length tuples.

    ``enumerate_partitions`` reads the class walk itself, so this oracle checks
    the order only; the partition numbers p(K) in ``test_combinat`` check the set.
    """
    lengths = sorted(tuple(sorted(p.parts)) for p in enumerate_partitions(k))
    return [CycleType([t.count(r) for r in range(1, max(t, default=0) + 1)]) for t in lengths]


def dim_char_sum_formula(k, n):
    """(key, coefficient) pairs of ``dim_char_sum`` in class order: |class| * N^cycles / K!."""
    return [
        (c.counts[: max(c.cycle_lengths(), default=0)], Fraction(class_order(c) * n ** c.cycles(), factorial(k)))
        for c in enumerate_cycle_types_oracle(k)
    ]


def mgf_coefficient_exact(k, a):
    """Exact (real, imaginary) parts, as Fractions, of ``mgf_coefficient(k, a)`` for a Gaussian-integer matrix.

    The power sums tr(a^j) are formed in Python ints as (re, im) pairs, and the
    ``dim_char_sum_formula`` coefficients weight the class products; the sum is divided by
    (K+N^2-1)!/(N^2-1)!.
    """
    a = np.asarray(a, dtype=complex)
    if not (a.real == a.real.round()).all() or not (a.imag == a.imag.round()).all():
        raise ValueError("the matrix must have Gaussian-integer entries")
    n = a.shape[0]
    re, im = (part.astype(int).astype(object) for part in (a.real, a.imag))  # Python ints: exact products
    power_re, power_im, sums = np.eye(n, dtype=int).astype(object), np.zeros((n, n), dtype=int).astype(object), []
    for _ in range(k):
        power_re, power_im = power_re @ re - power_im @ im, power_re @ im + power_im @ re
        sums.append((int(power_re.trace()), int(power_im.trace())))

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    real = imag = Fraction(0)
    for counts, coeff in dim_char_sum_formula(k, n):
        term = (1, 0)
        for length, count in enumerate(counts, start=1):
            for _ in range(count):
                term = mul(term, sums[length - 1])
        real, imag = real + coeff * term[0], imag + coeff * term[1]
    scale = Fraction(factorial(n * n - 1), factorial(k + n * n - 1))
    return real * scale, imag * scale


def set_partitions_oracle(rest, owed):
    """Splits of the tuple ``rest`` into owed[L-1] blocks of each length L, led by their minima, in lead order.

    The block holding rest[0] opens first, and each tail is a fresh recursion whose splits are copied.
    """
    if not rest:
        return [()]
    splits = []
    for length in [L for L, count in enumerate(owed, start=1) if count]:
        left = owed[: length - 1] + (owed[length - 1] - 1,) + owed[length:]
        for others in combinations(rest[1:], length - 1):
            block = (rest[0], *others)
            splits += [(block, *tail) for tail in set_partitions_oracle(tuple(i for i in rest if i not in block), left)]
    return splits


def vandermonde_matrix(values):
    """Explicit Vandermonde matrix rows [1, v, v^2, ...] for the det oracle."""
    size = len(values)
    return [[v**p for p in range(size)] for v in values]


def permutation_sum(k, n, cycle_weight):
    """Sum over all of S_K of n^cycles * prod of cycle_weight over the cycles.

    Each cycle is the tuple of 0-based indices in the order the permutation
    visits them, starting from its smallest index.
    """
    total = 0
    for perm in permutations(range(k)):
        seen = [False] * k
        value = 1
        for start in range(k):
            if seen[start]:
                continue
            cycle = []
            at = start
            while not seen[at]:
                seen[at] = True
                cycle.append(at)
                at = perm[at]
            value = value * n * cycle_weight(tuple(cycle))
        total = total + value
    return total


def omega_expand_oracle(monomial, k):
    """Terms of ``omega_expand`` over all of S_K, keyed like ``TraceProductExpr.terms``.

    Each permutation is cut into consecutive runs of the class's cycle lengths;
    each run is rotated to lead with its minimum, the runs are sorted, and
    repeats are counted.
    """
    terms = {}
    for perm in permutations(range(1, k + 1)):
        cycles, at = [], 0
        for length in monomial.cycle_lengths():
            run = perm[at : at + length]
            pivot = run.index(min(run))
            cycles.append(run[pivot:] + run[:pivot])
            at += length
        key = tuple(sorted(cycles))
        terms[key] = terms.get(key, Fraction(0)) + 1
    return terms


def check_canonical(term, order):
    """Refuse a term unless it covers 1..order once in sorted cycles, each led by its minimum."""
    if sorted(i for cycle in term for i in cycle) != list(range(1, order + 1)):
        raise ValueError(f"term {term} does not cover indices 1..{order}")
    if any(not cycle or cycle[0] != min(cycle) for cycle in term) or list(term) != sorted(term):
        raise ValueError(f"term {term} is not canonical: sorted cycles, each led by its minimum")


def ensemble_normalization(k, n):
    """(N^2-1)! / (K+N^2-1)!, the flat-ensemble moment prefactor."""
    return Fraction(factorial(n * n - 1), factorial(k + n * n - 1))


def normalized_once(total, k, n):
    """The permutation-sum ``total`` times the ensemble normalization, each finite part rounded once."""
    norm = ensemble_normalization(k, n)
    if not (isfinite(total.real) and isfinite(total.imag)):
        return complex(norm * total)
    return complex(float(norm * Fraction(total.real)), float(norm * Fraction(total.imag)))


def entry_moment_oracle(n, pairs):
    """Mean of prod rho[i_p, j_p]: a cycle survives when each column meets the next row."""
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]

    def weight(cycle):
        following = cycle[1:] + cycle[:1]
        return int(all(cols[a] == rows[b] for a, b in zip(cycle, following)))

    return ensemble_normalization(len(pairs), n) * permutation_sum(len(pairs), n, weight)


def purity_mean_oracle(n):
    """Mean of tr(rho^2) as the sum of all N^2 entry moments rho[i,j] * rho[j,i]."""
    cells = range(1, n + 1)
    return sum((entry_moment_oracle(n, ((i, j), (j, i))) for i in cells for j in cells), Fraction(0))


def moment_traces_oracle(mats):
    """Mean of prod (C_j . rho): each cycle contributes the trace of its matrix product."""
    mats = [np.asarray(c, dtype=complex) for c in mats]
    n = mats[0].shape[0]

    def weight(cycle):
        prod = mats[cycle[0]]
        for idx in cycle[1:]:
            prod = prod @ mats[idx]
        return complex(np.trace(prod))

    return complex(ensemble_normalization(len(mats), n) * permutation_sum(len(mats), n, weight))


_cached_entry_moment = cache(entry_moment_oracle)


def moment_traces_exact(mats):
    """Exact (real, imaginary) parts, as Fractions, of the mean of prod (C_p . rho) for Gaussian-integer C_p.

    tr(C rho) = sum over i, j of C[i, j] rho[j, i], so the mean is the sum over index pairs of
    prod_p C_p[i_p, j_p] times E[prod_p rho[j_p, i_p]]. That entry moment depends on the sorted
    pairs alone, so the integer products are summed per sorted pair list first, and each entry
    moment is taken once from the K! oracle and cached.
    """
    mats = [np.asarray(c, dtype=complex) for c in mats]
    n = mats[0].shape[0]
    weights = {(): (1, 0)}  # sorted (row, column) pairs of rho -> summed (Re, Im) of the C products
    for c in mats:
        if not (c.real == c.real.round()).all() or not (c.imag == c.imag.round()).all():
            raise ValueError("observables must have Gaussian-integer entries")
        entries = [((j + 1, i + 1), int(c[i, j].real), int(c[i, j].imag)) for i in range(n) for j in range(n)]
        grown = {}
        for pairs, (re, im) in weights.items():
            for pair, a, b in entries:
                key = tuple(sorted((*pairs, pair)))
                x, y = grown.get(key, (0, 0))
                grown[key] = (x + re * a - im * b, y + re * b + im * a)
        weights = grown
    real = imag = Fraction(0)
    for pairs, (re, im) in weights.items():
        moment = _cached_entry_moment(n, pairs)
        real, imag = real + re * moment, imag + im * moment
    return real, imag


def two_stage_permutation_sum(k, n, start, grow, close):
    """``permutation_sum`` over set partitions, in O(2^K K) chain steps plus O(3^K) partition terms.

    Subsets of range(K) are bitmasks. A cycle on a block S is an ordering of S
    from min(S); chain[S] sums their running products: ``start(a)`` for S = {a},
    else ``grow`` of the pairs (chain[S - j], j) over the last element j. The
    block weight is w(S) = close(chain[S], min S), and splitting off the block
    holding min(S) gives f[S] = n * sum over B containing min S, B inside S, of
    w(B) f[S - B].
    """
    size = 1 << k
    chains, weights, f = [None] * size, [0] * size, [1] * size
    for s in range(1, size):
        low = s & -s
        first, rest = low.bit_length() - 1, s ^ low
        if rest:
            last = [j for j in range(first + 1, k) if rest >> j & 1]
            chains[s] = grow([(chains[s ^ 1 << j], j) for j in last])
        else:
            chains[s] = start(first)
        weights[s] = close(chains[s], first)
        total, sub = weights[low] * f[rest], rest
        while sub:
            if weights[low | sub]:
                total += weights[low | sub] * f[rest ^ sub]
            sub = (sub - 1) & rest
        f[s] = n * total
    return f[-1]


def entry_moment_two_stage(n, pairs):
    """``entry_moment`` by the two-stage sum: chain[S] counts end columns of row i_min(S)."""
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    if sorted(rows) != sorted(cols):
        return Fraction(0)

    def grow(prev):
        ends = {}
        for chain, j in prev:
            if chain.get(rows[j]):
                ends[cols[j]] = ends.get(cols[j], 0) + chain[rows[j]]
        return ends

    total = two_stage_permutation_sum(
        len(pairs), n, lambda a: {cols[a]: 1}, grow, lambda chain, a: chain.get(rows[a], 0)
    )
    return ensemble_normalization(len(pairs), n) * total


def moment_traces_two_stage(mats):
    """``moment_traces`` by the two-stage sum, each part of the total normalized and rounded once."""
    mats = [np.asarray(c, dtype=complex) for c in mats]
    k, n = len(mats), mats[0].shape[0]
    total = two_stage_permutation_sum(
        k, n, lambda a: mats[a], lambda prev: sum(chain @ mats[j] for chain, j in prev),
        lambda chain, _: complex(chain.trace()),
    )
    return normalized_once(total, k, n)


def subset_permutation_sum(k, n, grow, close):
    """``permutation_sum`` in one pass over the subsets holding index 0, in increasing order of mask.

    The subset-order loop the library used before it went layer by layer. With each cycle
    written from its least index, in order of those indices, every cycle opens at the
    least index not yet used. chains[S] sums the ways to use S with one cycle open and
    closed[S] those with every cycle closed; closed[{}] = 1. chains[S] = grow(prev,
    opened): prev extends the open cycle by j, pairs (chains[S - j], j); opened opens one
    at a in the low run of ones of S, nonzero pairs (closed[S - a], a). Then
    closed[S] = n * close(chains[S]).
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


def entry_moment_subset(n, pairs):
    """``entry_moment`` by the subset-order loop: chain[S] counts (start row, end column) pairs."""
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    if sorted(rows) != sorted(cols):
        return Fraction(0)

    def grow(prev, opened):
        ends = {}
        for chain, j in prev:
            for (row, col), count in chain.items():
                if col == rows[j]:
                    ends[row, cols[j]] = ends.get((row, cols[j]), 0) + count
        for weight, a in opened:
            ends[rows[a], cols[a]] = ends.get((rows[a], cols[a]), 0) + weight
        return ends

    total = subset_permutation_sum(
        len(pairs), n, grow, lambda chain: sum(c for (row, col), c in chain.items() if row == col)
    )
    return ensemble_normalization(len(pairs), n) * total


def moment_traces_subset(mats):
    """``moment_traces`` by the subset-order loop, each part of the total normalized and rounded once."""
    mats = [np.asarray(c, dtype=complex) for c in mats]
    k, n = len(mats), mats[0].shape[0]
    total = subset_permutation_sum(
        k, n,
        lambda prev, opened: sum(chain @ mats[j] for chain, j in prev) + sum(w * mats[a] for w, a in opened),
        lambda chain: complex(chain.trace()),
    )
    return normalized_once(total, k, n)


def subset_layer_plan(k):
    """Each layer's (src, mul, starts) lists of the subset sum over S_K, layer 1 first, keyed by K alone.

    The plan the library cached per K before the permutation sum went over content vectors.
    Layer 1 is {0}, a cycle opened at 0 from the empty set. Each layer's masks are those of
    the one below plus an index past their highest. A layer is its masks' chains followed by
    their closed totals; the terms of mask m are t in range(starts[m], starts[m + 1]), each
    entry src[t] of the layer below times C_mul[t], and a src[t] past the chains of the layer
    below reads a closed total, so that term opens a cycle at mul[t].
    """
    layers = [([0], [0], [0])]
    sets = [(1, ())]  # the layer's masks, each with its indices past 0
    for _ in range(1, k):
        below = {s: p for p, (s, _) in enumerate(sets)}
        sets = [(s | 1 << j, (*rest, j)) for s, rest in sets for j in range(s.bit_length(), k)]
        src, mul, starts, chains = [], [], [], len(below)
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
    return layers


def entry_moment_layered(n, pairs):
    """``entry_moment`` by the K-keyed subset layers: a chain counts (start row, end column) pairs."""
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    if sorted(rows) != sorted(cols):
        return Fraction(0)
    layer = [1]
    for src, mul, starts in subset_layer_plan(len(pairs)):
        size, chains, closed = len(layer) // 2, [], []
        for lo, hi in zip(starts, starts[1:] + [len(src)]):
            ends = {}
            for t in range(lo, hi):
                at, to = rows[mul[t]], cols[mul[t]]
                if src[t] < size:
                    for (row, col), count in layer[src[t]].items():
                        if col == at:
                            ends[row, to] = ends.get((row, to), 0) + count
                elif layer[src[t]]:
                    ends[at, to] = ends.get((at, to), 0) + layer[src[t]]
            chains.append(ends)
            closed.append(n * sum(c for (row, col), c in ends.items() if row == col))
        layer = chains + closed
    return ensemble_normalization(len(pairs), n) * layer[-1]


def moment_traces_layered(mats):
    """``moment_traces`` by the K-keyed subset layers, unscaled, each part of the total normalized and rounded once."""
    mats = np.stack([np.asarray(c, dtype=complex) for c in mats])
    k, n = len(mats), mats.shape[1]
    eye = np.eye(n, dtype=complex)
    layer = eye[None]
    for src, mul, starts in subset_layer_plan(k):
        chains = np.add.reduceat(np.einsum("tik,tkl->til", layer[src], mats[mul]), starts)
        layer = np.concatenate((chains, (n * np.einsum("mii->m", chains))[:, None, None] * eye))
    total = complex(layer[-1, 0, 0])
    return normalized_once(total, k, n)


def density_oracle(z):
    """(samples, n, n) stack of G G^H / tr(G G^H), G = z[0] + i z[1] from z of shape (2, n, n, samples).

    The Gram product is one complex einsum, the sampler's kernel before it moved
    to real arithmetic.
    """
    g = np.moveaxis(z[0] + 1j * z[1], -1, 0)
    gram = np.einsum("sij,skj->sik", g, g.conj())
    return gram / np.einsum("sii->s", gram).real[:, None, None]


def strided_density_batch(n, count, rng):
    """(count, n, n) flat-ensemble stack from ``rng``, by the sampler's kernel before it summed into planes.

    Each einsum sums into the strided real and imaginary views of one complex
    Gram array, the lower triangle is conjugated before the division, and every
    entry is divided by the trace; samples whose trace is below 1e-300 are
    redrawn together, in sample order.
    """

    def build(rows):
        z = rng.standard_normal((2, n, n, rows))
        if rows == 1:
            z = np.concatenate((z, np.zeros_like(z)), axis=-1)
        x, y = z
        gram = np.empty(z.shape[1:], dtype=complex)
        re, im = gram.real, gram.imag
        for i in range(n):
            np.einsum("pjs,pjs->s", z[:, i], z[:, i], out=re[i, i])
            im[i, i] = 0.0
            np.einsum("pjs,pkjs->ks", z[:, i], z[:, i + 1 :], out=re[i, i + 1 :])
            np.einsum("js,kjs->ks", y[i], x[i + 1 :], out=im[i, i + 1 :])
            im[i, i + 1 :] -= np.einsum("js,kjs->ks", x[i], y[i + 1 :])
            np.conjugate(gram[i, i + 1 :], out=gram[i + 1 :, i])
        return gram.transpose(2, 0, 1)[:rows]

    gram = build(count)
    while (bad := np.einsum("sii->s", gram).real < 1e-300).any():
        gram[bad] = build(int(bad.sum()))
    traces = np.einsum("sii->s", gram).real[:, None, None]
    np.divide(gram.real, traces, out=gram.real)
    np.divide(gram.imag, traces, out=gram.imag)
    return gram
