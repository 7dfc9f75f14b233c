"""Sparse tensor contraction and exact dense linear algebra over Q(zeta_8).

Tensors are dicts mapping index tuples to nonzero CycloNum values.  einsum()
contracts any number of them by pairwise joins, never materializing a dense
table.  The order of the joins is planned, not read off the spec: at each
step a greedy planner joins the two remaining operands whose join forms the
fewest terms, counted exactly as the sum over shared-index keys of
|bucket_1| * |bucket_2|.  Only pairs that share a letter compete unless none
do, and ties go to the leftmost pair.  The plan depends on the operands'
letters and entries alone, so an identity can be written exactly as its
equation reads and still be contracted cheaply.  Before each join the term
count is checked against CELL_CEILING, the same ceiling ribbon.evaluate puts
on its boundary tables; a join over it raises ContractionTooLarge before any
of it is built.

The dense routines (inverse, nullspace, positivity pivots) operate on small
lists of lists and are exact; division is field division in Q(zeta_8).
"""

from __future__ import annotations

from collections import Counter
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
    one operand only.

    The operands are joined two at a time in the order the greedy planner in
    the module docstring picks, and the result is permuted to the output
    letters.  Raises ContractionTooLarge, naming the spec and the term count,
    when a planned join would form more than CELL_CEILING terms.
    """
    lhs, out_idx = spec.replace(" ", "").split("->")
    idx_lists = lhs.split(",")
    if len(idx_lists) != len(tensors):
        raise ValueError(f"einsum spec {spec!r} expects {len(idx_lists)} operands")
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

    # Each operand carries a cache of its entry counts per key of letters.
    ops = [(t, s, {}) for t, s in zip(tensors, idx_lists)]
    while len(ops) > 1:
        terms, i, j = _cheapest_pair(ops)
        if terms > CELL_CEILING:
            raise ContractionTooLarge(
                f"einsum {spec!r} would form a join of {terms} terms, "
                f"over the ceiling of {CELL_CEILING}"
            )
        (t1, i1, _), (t2, i2, _) = ops[i], ops[j]
        joined, joined_idx = _join(t1, i1, t2, i2)
        ops[i] = (joined, joined_idx, {})
        del ops[j]
    cur, cur_idx, _ = ops[0]
    if cur_idx == out_idx:
        return prune(cur)
    perm = [cur_idx.index(c) for c in out_idx]
    return prune({tuple(k[p] for p in perm): v for k, v in cur.items()})


def _cheapest_pair(ops) -> tuple[int, int, int]:
    """(terms, i, j) of the join with the fewest terms, i < j.

    Pairs sharing a letter are preferred over outer products; ties go to the
    pair that comes first in operand order.
    """
    pairs = [
        (i, j, tuple(c for c in ops[i][1] if c in ops[j][1]))
        for i in range(len(ops))
        for j in range(i + 1, len(ops))
    ]
    if any(common for _, _, common in pairs):
        pairs = [p for p in pairs if p[2]]
    return min((_join_terms(ops[i], ops[j], common), i, j) for i, j, common in pairs)


def _join_terms(op1, op2, common: tuple[str, ...]) -> int:
    """Exact number of products a join forms: the sum over keys of the
    shared letters of |bucket_1| * |bucket_2|."""
    if not common:
        return len(op1[0]) * len(op2[0])
    c1, c2 = _key_counts(op1, common), _key_counts(op2, common)
    if len(c1) > len(c2):
        c1, c2 = c2, c1
    return sum(n * c2[k] for k, n in c1.items())


def _key_counts(op, letters: tuple[str, ...]) -> Counter:
    """Entries of an operand per value of the given letters, cached."""
    t, idx, cache = op
    counts = cache.get(letters)
    if counts is None:
        # One letter gives bare values as keys, several give tuples; both
        # operands of a pair count on the same letters, so their keys match.
        key = itemgetter(*(idx.index(c) for c in letters))
        counts = cache[letters] = Counter(map(key, t))
    return counts


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

    Returns (index, lhs_value, rhs_value) with indices visited in sorted
    order so reports are deterministic.
    """
    keys = sorted(set(t1) | set(t2))
    for k in keys:
        v1 = t1.get(k, ZERO)
        v2 = t2.get(k, ZERO)
        if v1 != v2:
            return k, v1, v2
    return None


# -- dense exact linear algebra ------------------------------------------


Matrix = list[list[CycloNum]]


def dense_from_sparse(t: SparseTensor, dim: int) -> Matrix:
    m = [[ZERO] * dim for _ in range(dim)]
    for (a, b), v in t.items():
        m[a][b] = v
    return m


def sparse_from_dense(m: Matrix) -> SparseTensor:
    return {
        (a, b): v
        for a, row in enumerate(m)
        for b, v in enumerate(row)
        if not v.is_zero()
    }


def mat_invert(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting."""
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r == col or aug[r][col].is_zero():
                continue
            f = aug[r][col]
            aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def nullspace(rows: list[list[CycloNum]], ncols: int) -> list[list[CycloNum]]:
    """Basis of the solution space of rows . v = 0.

    Rows are reduced to echelon form; one basis vector is produced per free
    column, in ascending column order, so the result is deterministic.
    """
    echelon: list[list[CycloNum]] = []
    pivots: list[int] = []
    for row in rows:
        row = list(row)
        for erow, p in zip(echelon, pivots):
            if not row[p].is_zero():
                f = row[p]
                row = [x - f * y for x, y in zip(row, erow)]
        lead = next((c for c in range(ncols) if not row[c].is_zero()), None)
        if lead is None:
            continue
        inv = row[lead].inverse()
        row = [x * inv for x in row]
        # Back-substitute into earlier rows to reach reduced form.
        for i, erow in enumerate(echelon):
            if not erow[lead].is_zero():
                f = erow[lead]
                echelon[i] = [x - f * y for x, y in zip(erow, row)]
        echelon.append(row)
        pivots.append(lead)
        if len(echelon) == ncols:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for erow, p in zip(echelon, pivots):
            if not erow[free].is_zero():
                vec[p] = -erow[free]
        basis.append(vec)
    return basis


class InconsistentSystemError(ValueError):
    pass


def linear_solve(rows, ncols: int) -> list[CycloNum]:
    """Solve a sparse linear system given as (coeff dict, rhs) pairs.

    Maintains a reduced echelon basis keyed by pivot column; free columns are
    set to zero.  Raises InconsistentSystemError when no solution exists.
    """
    pivots: dict[int, tuple[dict[int, CycloNum], CycloNum]] = {}
    for row, rhs in rows:
        row = dict(row)
        hits = [c for c in row if c in pivots]
        for c in hits:
            f = row.pop(c)
            prow, prhs = pivots[c]
            for c2, v2 in prow.items():
                if c2 == c:
                    continue
                nv = row.get(c2, ZERO) - f * v2
                if nv.is_zero():
                    row.pop(c2, None)
                else:
                    row[c2] = nv
            rhs = rhs - f * prhs
        if not row:
            if not rhs.is_zero():
                raise InconsistentSystemError("linear system has no solution")
            continue
        lead = min(row)
        inv = row[lead].inverse()
        prow = {c: v * inv for c, v in row.items()}
        prhs = rhs * inv
        for c, (erow, erhs) in list(pivots.items()):
            f = erow.get(lead)
            if f is None:
                continue
            for c2, v2 in prow.items():
                if c2 == lead:
                    erow.pop(lead, None)
                    continue
                nv = erow.get(c2, ZERO) - f * v2
                if nv.is_zero():
                    erow.pop(c2, None)
                else:
                    erow[c2] = nv
            pivots[c] = (erow, erhs - f * prhs)
        pivots[lead] = (prow, prhs)
    out = [ZERO] * ncols
    for c, (_, prhs) in pivots.items():
        out[c] = prhs
    return out


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
