"""Exact linear algebra over the integers.

Every computation in the package that asks "what is the rank" or "is there
torsion" bottoms out here.  All arithmetic is done with Python's
arbitrary-precision ints; nothing in this module (or the package) touches
floating point.

Every rank follows one of two rules.  A rank over Q is the row count of a
:class:`SparseHermite` basis.  A rank over F_p is the number of Smith
invariant factors that p does not divide.

Dense matrices are plain ``list[list[int]]`` rows.  The workhorses for the
large, highly structured matrices coming from exterior-algebra coordinates
are *sparse* rows, ``dict[int, int]`` mapping column index to a nonzero
coefficient, consumed by :class:`SparseHermite`.

Conventions:

* ``smith_normal_form`` pivots on the smallest-magnitude nonzero entry to
  keep intermediate growth down, and returns unimodular transforms with
  ``U * m * V == diag(divisors)`` padded by zeros.
* ``hermite_basis`` returns the canonical row Hermite form (positive
  pivots, entries above a pivot reduced into ``[0, pivot)``), so two
  generating sets span the same lattice iff their outputs are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, InternalInvariantViolation

Row = dict[int, int]


def densify(rows: Iterable[Row], ncols: int) -> list[list[int]]:
    """The sparse rows as dense rows of width ncols."""
    out = []
    for row in rows:
        line = [0] * ncols
        for c, v in row.items():
            line[c] = v
        out.append(line)
    return out


def _as_row(row: Row | Sequence[int]) -> Row:
    """A fresh sparse copy of a dict or dense row, with zeros dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {k: int(v) for k, v in items if v}


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``g == x*a + y*b``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < 3.3e24``; same witnesses beyond."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of ``|n|`` (empty for 0, 1)."""
    n = abs(n)
    if n < 2:
        return []
    out: set[int] = set()
    for p in (2, 3, 5):
        while n % p == 0:
            out.add(p)
            n //= p
    f = 7
    while f * f <= n and f < 100_000:
        if n % f == 0:
            out.add(f)
            while n % f == 0:
                n //= f
        f += 2
    if n > 1:
        # Pollard rho for whatever survives trial division.
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out.add(m)
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return sorted(out)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    import math

    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (characteristic 0) or a prime field."""

    characteristic: int

    def __post_init__(self) -> None:
        c = self.characteristic
        if c != 0 and not is_prime(c):
            raise InputError(f"field characteristic must be 0 or prime, got {c}")

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


RATIONALS = FieldSpec(0)


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group: Z^free_rank + sum Z/d_i.

    The torsion factors are the invariant factors > 1 in divisibility order,
    d_1 | d_2 | ... | d_k.
    """

    free_rank: int
    torsion_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.torsion_factors, self.torsion_factors[1:]):
            if b % a != 0:
                raise InternalInvariantViolation(
                    f"invariant factors not chained: {self.torsion_factors}"
                )

    @classmethod
    def from_divisors(cls, ambient_rank: int, divisors: Sequence[int]) -> AbelianInvariants:
        """Z^ambient_rank modulo a lattice with these Smith divisors."""
        return cls(ambient_rank - len(divisors), tuple(d for d in divisors if d > 1))

    @property
    def is_free(self) -> bool:
        return not self.torsion_factors


@dataclass
class SNFResult:
    divisors: list[int]
    left: list[list[int]]
    right: list[list[int]]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence[int]]) -> list[list[int]]:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def _validate(mat: Sequence[Sequence[int]]) -> int:
    widths = {len(r) for r in mat}
    if len(widths) > 1:
        raise InputError(f"ragged matrix: row widths {sorted(widths)}")
    return widths.pop() if widths else 0


def _snf_eliminate(A: list[list[int]], U: list[list[int]] | None, V: list[list[int]] | None) -> None:
    """In-place Smith elimination of ``A``; transforms tracked when given.

    Each round pivots on the smallest-magnitude nonzero entry of the active
    submatrix and only performs column operations once the pivot column is
    clear, so large entries never smear across rows.  The pivot magnitude
    strictly decreases between rounds, which bounds both the iteration
    count and the intermediate entry growth.
    """
    nr = len(A)
    nc = len(A[0]) if A else 0

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        if V is not None:
            for r in V:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        ad, asrc = A[dst], A[src]
        for k in range(nc):
            if asrc[k]:
                ad[k] += c * asrc[k]
        if U is not None:
            ud, usrc = U[dst], U[src]
            for k in range(len(ud)):
                if usrc[k]:
                    ud[k] += c * usrc[k]

    def add_col(dst, src, c):
        for r in A:
            if r[src]:
                r[dst] += c * r[src]
        if V is not None:
            for r in V:
                if r[src]:
                    r[dst] += c * r[src]

    t = 0
    bound = min(nr, nc)
    while t < bound:
        best = None
        for i in range(t, nr):
            row = A[i]
            for j in range(t, nc):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        if best[1] != t:
            swap_rows(t, best[1])
        if best[2] != t:
            swap_cols(t, best[2])

        while True:
            piv = A[t][t]
            # Reduce the pivot column; a nonzero remainder becomes the new,
            # strictly smaller pivot.
            r_best = None
            for i in range(nr):
                if i == t or not A[i][t]:
                    continue
                q = A[i][t] // piv
                if q:
                    add_row(i, t, -q)
                v = A[i][t]
                if v and (r_best is None or abs(v) < abs(A[r_best][t])):
                    r_best = i
            if r_best is not None:
                swap_rows(t, r_best)
                continue
            # Pivot column is clear, so column operations only touch row t.
            c_best = None
            for j in range(nc):
                if j == t or not A[t][j]:
                    continue
                q = A[t][j] // piv
                if q:
                    add_col(j, t, -q)
                v = A[t][j]
                if v and (c_best is None or abs(v) < abs(A[t][c_best])):
                    c_best = j
            if c_best is not None:
                swap_cols(t, c_best)
                continue
            # Diagonal block achieved; force the pivot to divide the rest.
            offender = None
            for i in range(t + 1, nr):
                row = A[i]
                for j in range(t + 1, nc):
                    if row[j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if A[t][t] < 0:
            add_row(t, t, -2)  # negate row t
        t += 1


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with transforms: ``left * mat * right`` is diagonal.

    The returned divisors are positive and chained (d_i | d_{i+1}); their
    count is the rank of ``mat`` over the rationals.
    """
    nc = _validate(mat)
    A = [[int(x) for x in row] for row in mat]
    nr = len(A)
    U = identity_matrix(nr)
    V = identity_matrix(nc)
    _snf_eliminate(A, U, V)
    divisors = [A[k][k] for k in range(min(nr, nc)) if A[k][k]]
    return SNFResult(divisors, U, V)


def snf_divisors(rows: Iterable[Row | Sequence[int]]) -> list[int]:
    """Invariant factors of the lattice spanned by ``rows`` (sparse-friendly).

    Equivalent to ``smith_normal_form(rows).divisors`` but avoids transform
    bookkeeping and first splits off every pivot that can be had for free:
    a row or a column whose single nonzero entry is +-1 contributes a
    divisor 1 and strictly shrinks the problem.  The residual dense core is
    then eliminated directly.  On the exterior-algebra matrices built by
    this package the core is empty or tiny.
    """
    sparse: dict[int, Row] = {}
    col_occ: dict[int, set[int]] = {}
    rid = 0
    for row in rows:
        r = _as_row(row)
        if not r:
            continue
        sparse[rid] = r
        for c in r:
            col_occ.setdefault(c, set()).add(rid)
        rid += 1

    ones = 0
    dirty = True
    while dirty:
        dirty = False
        for i in list(sparse):
            r = sparse.get(i)
            if r is None or len(r) != 1:
                continue
            (j, v), = r.items()
            if abs(v) != 1:
                continue
            # Unit row: clears column j from every other row.
            ones += 1
            dirty = True
            del sparse[i]
            for k in list(col_occ.get(j, ())):
                if k == i:
                    continue
                other = sparse[k]
                del other[j]
                col_occ[j].discard(k)
                if not other:
                    del sparse[k]
            col_occ.pop(j, None)
        for j in list(col_occ):
            occ = col_occ.get(j)
            if not occ or len(occ) != 1:
                continue
            (i,) = occ
            if abs(sparse[i][j]) != 1:
                continue
            # Unit column: its row splits off as a divisor-1 block.
            ones += 1
            dirty = True
            row = sparse.pop(i)
            for c in row:
                s = col_occ.get(c)
                if s is not None:
                    s.discard(i)
                    if not s:
                        del col_occ[c]

    if not sparse:
        return [1] * ones

    cols = sorted(col_occ)
    cmap = {c: k for k, c in enumerate(cols)}
    dense = []
    for r in sparse.values():
        line = [0] * len(cols)
        for c, v in r.items():
            line[cmap[c]] = v
        dense.append(line)
    _snf_eliminate(dense, None, None)
    return [1] * ones + [dense[k][k] for k in range(min(len(dense), len(cols))) if dense[k][k]]


class SparseHermite:
    """Incremental row Hermite form over the integers.

    Rows are sparse dicts.  ``insert`` folds a new generator into the
    echelon basis; after any number of insertions the stored rows form a
    basis of the lattice generated so far, with positive pivots and one
    pivot per column.  ``canonicalize`` additionally reduces every entry
    above a pivot into ``[0, pivot)``, making the row set the unique
    Hermite basis of the lattice.
    """

    __slots__ = ("pivots",)

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def all_unit_pivots(self) -> bool:
        return all(r[j] == 1 for j, r in self.pivots.items())

    def copy(self) -> "SparseHermite":
        dup = SparseHermite()
        dup.pivots = {j: dict(r) for j, r in self.pivots.items()}
        return dup

    def insert(self, row: Row | Sequence[int]) -> bool:
        """Add a generator; returns True when the rank grew."""
        r = _as_row(row)
        while r:
            j = min(r)
            piv = self.pivots.get(j)
            if piv is None:
                if r[j] < 0:
                    r = {k: -v for k, v in r.items()}
                self.pivots[j] = r
                return True
            p = piv[j]
            v = r[j]
            if v % p == 0:
                _row_submul(r, piv, v // p)
            else:
                g, x, y = xgcd(p, v)
                new_piv = _row_combine(x, piv, y, r)
                new_r = _row_combine(p // g, r, -(v // g), piv)
                self.pivots[j] = new_piv
                r = new_r
        return False

    def reduce(self, row: Row | Sequence[int]) -> Row:
        """Residual of ``row`` after reduction by the basis (basis unchanged).

        The residual is empty iff ``row`` lies in the lattice.
        """
        r = _as_row(row)
        stuck: Row = {}
        while r:
            j = min(r)
            piv = self.pivots.get(j)
            if piv is None:
                stuck[j] = r.pop(j)
                continue
            q = r[j] // piv[j]
            if q:
                _row_submul(r, piv, q)
            if r.get(j):
                stuck[j] = r.pop(j)
        return stuck

    def contains(self, row: Row | Sequence[int]) -> bool:
        return not self.reduce(row)

    def canonicalize(self) -> None:
        """Reduce every entry above a pivot into [0, pivot): unique HNF.

        Per row, pivot columns hit by the row are processed left to right
        with a worklist; reductions only introduce entries to the right, so
        the cost is proportional to the fill, never to pivot-count squared.
        """
        import heapq

        for j2, r in self.pivots.items():
            heap = [c for c in r if c != j2 and c in self.pivots]
            heapq.heapify(heap)
            while heap:
                c = heapq.heappop(heap)
                v = r.get(c)
                if not v:
                    continue
                piv = self.pivots[c]
                q = v // piv[c]
                if not q:
                    continue
                _row_submul(r, piv, q)
                for cc in piv:
                    if cc > c and cc != j2 and cc in self.pivots:
                        heapq.heappush(heap, cc)

    def rows_sorted(self) -> list[Row]:
        return [self.pivots[j] for j in sorted(self.pivots)]

    def divisors(self) -> list[int]:
        """Invariant factors of the lattice (all 1 iff the quotient is free)."""
        if self.all_unit_pivots():
            return [1] * self.rank
        return snf_divisors(self.rows_sorted())

    def coordinates(self, row: Row | Sequence[int]) -> dict[int, int]:
        """Integer coordinates of ``row`` in the basis, keyed by pivot column.

        Raises InternalInvariantViolation when the vector is not in the
        lattice; callers use this only where membership is a theorem.
        """
        r = _as_row(row)
        coords: dict[int, int] = {}
        while r:
            j = min(r)
            piv = self.pivots.get(j)
            if piv is None or r[j] % piv[j]:
                raise InternalInvariantViolation(
                    f"vector not in lattice (stuck at column {j})"
                )
            q = r[j] // piv[j]
            coords[j] = q
            _row_submul(r, piv, q)
        return coords


def _row_submul(r: Row, src: Row, q: int) -> None:
    # r -= q * src, dropping zeros
    for k, v in src.items():
        nv = r.get(k, 0) - q * v
        if nv:
            r[k] = nv
        else:
            r.pop(k, None)


def _row_combine(a: int, r1: Row, b: int, r2: Row) -> Row:
    # a * r1 + b * r2, dropping zeros; xgcd may return a = 0
    out: Row = {k: a * v for k, v in r1.items()} if a else {}
    for k, v in r2.items():
        nv = out.get(k, 0) + b * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def hermite_basis(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical basis of the integer row span of ``mat``.

    Row count equals the rational rank; equal lattices produce identical
    outputs (unique Hermite form).  An empty input yields an empty basis.
    """
    nc = _validate(mat)
    h = SparseHermite()
    for row in mat:
        h.insert(row)
    h.canonicalize()
    return densify(h.rows_sorted(), nc)


def rank_over_field(mat: Sequence[Sequence[int]], field: FieldSpec) -> int:
    """Rank of ``mat`` with entries specialized to the given field.

    Over Q it is the row count of the Hermite basis; over F_p it is the
    number of Smith invariant factors that p does not divide.
    """
    nc = _validate(mat)
    if field.characteristic == 0:
        h = SparseHermite()
        for row in mat:
            if h.rank == nc:
                break
            h.insert(row)
        return h.rank
    return sum(1 for d in snf_divisors(mat) if d % field.characteristic)


def quotient_invariants(
    ambient_rank: int, generators: Sequence[Sequence[int]] | Sequence[Row]
) -> AbelianInvariants:
    """Invariants of Z^ambient_rank modulo the row span of ``generators``."""
    gens = list(generators)
    for i, row in enumerate(gens):
        if isinstance(row, dict):
            if row and max(row) >= ambient_rank:
                raise InputError(
                    f"generator {i} touches column {max(row)} >= ambient rank {ambient_rank}"
                )
        elif len(row) != ambient_rank:
            raise InputError(
                f"generator {i} has {len(row)} columns, expected {ambient_rank}"
            )
    return AbelianInvariants.from_divisors(ambient_rank, snf_divisors(gens))
