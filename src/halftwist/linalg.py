"""Sparse tensor contraction, sparse exact elimination, dense positivity test.

Tensors are dicts mapping index tuples to nonzero CycloNum values.  Products
and permutations of zero-free tables are zero-free, so zeros are dropped only
at outside input (custom_from_tensors, element) and where sums form (_join,
AlgebraElement.__add__, LinearBlock.then, the ribbon step, row_reduce).

einsum() contracts any number of tensors by pairwise joins, never
materializing a dense table.  The order of the joins is planned, not read off
the spec: at each step every pair of remaining operands competes on the exact
number of terms its join forms, the sum over shared-index keys of
|bucket_1| * |bucket_2|, or |t1| * |t2| for an outer product.  The fewest
terms win; an outer product loses a tie to a join over shared letters, and
remaining ties go to the leftmost pair.  The plan depends on the operands'
letters and entries alone, so an identity can be written exactly as its
equation reads and still be contracted cheaply.  Each distinct spec is split
and validated once.  Before each join the term count is checked against
CELL_CEILING, the same ceiling ribbon.evaluate puts on its boundary tables; a
join over it raises ContractionTooLarge before any of it is built.

Exact linear algebra has one elimination routine, row_reduce, which brings
sparse rows ({column: value} dicts) to reduced row echelon form.  nullspace,
mat_invert and linear_solve read their answers off that form; since the
reduced form of a row space is unique, none of them depends on the order of
the rows.  hermitian_positive_definite keeps its own dense elimination,
because Sylvester's criterion needs the pivots of a symmetric elimination
without row swaps, which the reduced form does not expose.  Division is
field division in Q(zeta_8).
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from operator import itemgetter

from .cyclo import CycloNum, ZERO, ONE

SparseTensor = dict[tuple[int, ...], CycloNum]

# Largest table, in entries or join terms, that a contraction may build.
CELL_CEILING = 1 << 21


class SingularMatrixError(ValueError):
    pass


class ContractionTooLarge(ValueError):
    """A contraction step would form more terms than CELL_CEILING."""


def delta(dim: int) -> SparseTensor:
    return {(a, a): ONE for a in range(dim)}


def scale(t: SparseTensor, s: CycloNum) -> SparseTensor:
    if s.is_zero():
        return {}
    return {k: s * v for k, v in t.items()}


def prune(t: SparseTensor) -> SparseTensor:
    return {k: v for k, v in t.items() if not v.is_zero()}


def einsum(spec: str, *tensors: SparseTensor) -> SparseTensor:
    """Contract sparse tensors, e.g. einsum("abd,dc->abc", C, Binv).

    Index letters follow the usual convention: a letter appearing in two
    operands and not in the output is summed.  A letter may not appear twice
    within one operand, a summed letter may not appear in more than two
    operands, and the output must list exactly the letters that appear in
    one operand only.  Each distinct spec is split and validated once; only
    the operand count is checked per call.

    The operands are joined two at a time, each time the pair whose join
    forms the fewest terms (the rule in the module docstring), and the
    result is permuted to the output letters.  Raises ContractionTooLarge,
    naming the spec and the term count, when a planned join would form more
    than CELL_CEILING terms.
    """
    idx_lists, out_idx = _parse_spec(spec)
    if len(idx_lists) != len(tensors):
        raise ValueError(f"einsum spec {spec!r} expects {len(idx_lists)} operands")
    ops = list(zip(tensors, idx_lists))
    while len(ops) > 1:
        terms, _, i, j = min(
            (*_join_terms(ops[i], ops[j]), i, j)
            for i in range(len(ops))
            for j in range(i + 1, len(ops))
        )
        if terms > CELL_CEILING:
            raise ContractionTooLarge(
                f"einsum {spec!r} would form a join of {terms} terms, "
                f"over the ceiling of {CELL_CEILING}"
            )
        ops[i] = _join(*ops[i], *ops[j])
        del ops[j]
    cur, cur_idx = ops[0]
    if cur_idx == out_idx:
        return cur
    perm = [cur_idx.index(c) for c in out_idx]
    return {tuple(k[p] for p in perm): v for k, v in cur.items()}


@cache
def _parse_spec(spec: str) -> tuple[tuple[str, ...], str]:
    """Operand letters and output letters of a valid spec."""
    lhs, out_idx = spec.replace(" ", "").split("->")
    idx_lists = tuple(lhs.split(","))
    for s in idx_lists:
        if len(set(s)) != len(s):
            raise ValueError(f"repeated letter within one operand in {spec!r}")
    uses = Counter("".join(idx_lists))
    overused = [c for c, n in uses.items() if n > 2 or (n == 2 and c in out_idx)]
    if overused:
        raise ValueError(
            f"letter(s) {overused} in {spec!r} appear in two operands and elsewhere"
        )
    free = "".join(c for c, n in uses.items() if n == 1)
    if sorted(free) != sorted(out_idx):
        raise ValueError(f"output letters {out_idx!r} do not match result {free!r}")
    return idx_lists, out_idx


def _join_terms(op1, op2) -> tuple[int, bool]:
    """(terms, is_outer) of joining two operands.  terms is the exact number
    of products the join forms: the sum over keys of the shared letters of
    |bucket_1| * |bucket_2|, or |t1| * |t2| for an outer product."""
    (t1, i1), (t2, i2) = op1, op2
    common = [c for c in i1 if c in i2]
    if not common:
        return len(t1) * len(t2), True
    # One letter gives bare values as keys, several give tuples; both
    # operands count on the same letters, so their keys match.
    c1 = Counter(map(itemgetter(*(i1.index(c) for c in common)), t1))
    c2 = Counter(map(itemgetter(*(i2.index(c) for c in common)), t2))
    if len(c1) > len(c2):
        c1, c2 = c2, c1
    return sum(n * c2[k] for k, n in c1.items()), False


def _join(t1, i1, t2, i2):
    """Contract two operands over every letter they share."""
    common = [c for c in i1 if c in i2]
    out_idx = [c for c in i1 if c not in common] + [c for c in i2 if c not in common]
    pos1 = {c: i for i, c in enumerate(i1)}
    pos2 = {c: i for i, c in enumerate(i2)}
    jp1 = [pos1[c] for c in common]
    jp2 = [pos2[c] for c in common]
    fp1 = [pos1[c] for c in i1 if c not in common]
    fp2 = [pos2[c] for c in i2 if c not in common]

    buckets: dict[tuple, list] = {}
    for k, v in t2.items():
        buckets.setdefault(tuple(k[p] for p in jp2), []).append(
            (tuple(k[p] for p in fp2), v)
        )
    out: SparseTensor = {}
    for k, v in t1.items():
        group = buckets.get(tuple(k[p] for p in jp1))
        if not group:
            continue
        free1 = tuple(k[p] for p in fp1)
        for free2, v2 in group:
            key = free1 + free2
            acc = out.get(key)
            term = v * v2
            out[key] = term if acc is None else acc + term
    return prune(out), "".join(out_idx)


def tensors_differ(t1: SparseTensor, t2: SparseTensor):
    """First differing entry between two pruned tensors, or None if equal.

    Returns (index, lhs_value, rhs_value) for the smallest differing index,
    the first in sorted order, so reports are deterministic.
    """
    if t1 == t2:
        return None
    k = min(
        (k for k in t1.keys() | t2.keys() if t1.get(k, ZERO) != t2.get(k, ZERO)),
        default=None,
    )
    if k is None:
        return None
    return k, t1.get(k, ZERO), t2.get(k, ZERO)


# -- exact elimination ----------------------------------------------------


SparseRow = dict[int, CycloNum]


class InconsistentSystemError(ValueError):
    pass


def row_reduce(rows) -> dict[int, SparseRow]:
    """Reduced row echelon form of the span of sparse rows.

    Each row maps column -> value; zero values may be present and are
    dropped.  The result maps each pivot column to its row, which is 1 at the
    pivot and 0 left of it and in every other pivot column.  The reduced form
    of a row space is unique, so the result depends neither on the order nor
    on the scaling of the rows.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if not v.is_zero()}
        for c in [c for c in row if c in pivots]:
            _eliminate(row, c, pivots[c])
        if not row:
            continue
        lead = min(row)
        inv = row[lead].inverse()
        row = {c: v * inv for c, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                _eliminate(prow, lead, row)
        pivots[lead] = row
    return pivots


def _eliminate(row: SparseRow, col: int, pivot_row: SparseRow) -> None:
    """Subtract row[col] times pivot_row, which is 1 at col, from row."""
    f = row.pop(col)
    for c, v in pivot_row.items():
        if c != col:
            nv = row.get(c, ZERO) - f * v
            if nv.is_zero():
                row.pop(c, None)
            else:
                row[c] = nv


def nullspace(rows, ncols: int) -> list[SparseRow]:
    """Basis of the solution space of rows . v = 0, rows given sparse.

    One basis vector per free column of the reduced form, in ascending
    column order: 1 at the free column and minus that column of each pivot
    row at its pivot.
    """
    reduced = row_reduce(rows)
    basis = []
    for free in range(ncols):
        if free not in reduced:
            vec = {p: -prow[free] for p, prow in reduced.items() if free in prow}
            vec[free] = ONE
            basis.append(vec)
    return basis


def mat_invert(m: SparseTensor, n: int) -> SparseTensor:
    """Exact inverse of the n x n matrix {(row, col): value}.

    The reduced form of [m | I] is [I | m^-1] exactly when m is invertible.
    """
    rows = [{n + i: ONE} for i in range(n)]
    for (i, j), v in m.items():
        rows[i][j] = v
    reduced = row_reduce(rows)
    if any(p >= n for p in reduced):
        raise SingularMatrixError("matrix is singular")
    return {(i, c - n): v for i, row in reduced.items() for c, v in row.items() if c >= n}


def linear_solve(rows, ncols: int) -> list[CycloNum]:
    """Solve a sparse linear system given as (coeff dict, rhs) pairs.

    The right-hand side rides along as column ncols; free columns are set to
    zero.  Raises InconsistentSystemError when no solution exists.
    """
    reduced = row_reduce({**coeffs, ncols: rhs} for coeffs, rhs in rows)
    if ncols in reduced:
        raise InconsistentSystemError("linear system has no solution")
    out = [ZERO] * ncols
    for c, row in reduced.items():
        out[c] = row.get(ncols, ZERO)
    return out


# -- dense positivity test -----------------------------------------------


Matrix = list[list[CycloNum]]


def dense_from_sparse(t: SparseTensor, dim: int) -> Matrix:
    m = [[ZERO] * dim for _ in range(dim)]
    for (a, b), v in t.items():
        m[a][b] = v
    return m


def hermitian_positive_definite(g: Matrix) -> bool:
    """Exact positive definiteness test via elimination pivots.

    For a Hermitian matrix the leading principal minors are the running
    products of the pivots produced by symmetric Gaussian elimination, so the
    matrix is positive definite iff every pivot is real and positive.
    """
    n = len(g)
    work = [list(row) for row in g]
    for k in range(n):
        pivot = work[k][k]
        if not pivot.is_real_positive():
            return False
        inv_p = pivot.inverse()
        for i in range(k + 1, n):
            f = work[i][k] * inv_p
            if f.is_zero():
                continue
            for j in range(k, n):
                work[i][j] = work[i][j] - f * work[k][j]
    return True
