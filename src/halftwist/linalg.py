"""Sparse tensor contraction, sparse exact elimination, dense positivity test.

Tensors are dicts mapping index tuples to nonzero CycloNum values.  Products
and permutations of zero-free tables are zero-free, so zeros are dropped only
at outside input (custom_from_tensors, element) and where sums form (probe,
AlgebraElement.__add__, row_reduce).

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
join over it raises ContractionTooLarge before any of it is built.  When two
operands remain there is nothing to choose, so their terms are counted only
if |t1| * |t2|, which bounds them, passes the ceiling.

Each join is a hash join: the operand with fewer entries is indexed on the
shared letters and the other probes that index, so the work is the size of
both operands plus one key and one sum per term, whichever side the spec
names first.  Every key, on the shared letters and in the output, is read by
an operator.itemgetter built once per (letters, letters, output) layout and
cached; an output key comes straight off the two operand keys concatenated,
in the order of the result's letters.

einsum_slices() yields the same contraction one value of its first output
letter at a time, in increasing order, so that a caller comparing two sides
holds one slice of each at once: about |result| / dim entries where einsum
would build all of them.  Only the operand that carries the letter is cut.
Both entry points share one planning loop: einsum runs it with nothing cut,
einsum_slices on its first slice, with each join that takes in the slice
counting its terms once per slice, since every slice repeats it; the other
slices replay the joins that took in the slice.  Each operand a slice is
joined with is indexed once per call, and a join between operands that do
not carry the letter is formed once per call, so a slice costs only the
work on its own entries.  This is the slicing of tensor-network contraction
along one index (Gray & Kourtis, Quantum 5, 410 (2021)).

The structure tensors hold few distinct values (cl(2,2)'s 256 node entries
take two), so most terms of a join repeat a product already formed.  A join
forms each distinct (probe value, indexed value) product once and reads it
back from a table that lives for that join alone, keyed by the values'
canonical ints, so results are unchanged bit for bit.  product_table admits
the table only while it has no more slots than the join has input entries;
operands whose values mostly differ form one product per term instead.
ribbon.evaluate's steps are the same probe, under the same bound.

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
from itertools import repeat
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
    one operand only.  Each distinct spec and operand count is split and
    validated once.

    The operands are joined two at a time, each time the pair whose join
    forms the fewest terms (the rule in the module docstring); the last join
    builds its keys in the order of the output letters.  Raises
    ContractionTooLarge, naming the spec and the term count, when a planned
    join would form more than CELL_CEILING terms.
    """
    idx_lists, out_idx = _parse_spec(spec, len(tensors))
    ops = [(t, idx, False) for t, idx in zip(tensors, idx_lists)]
    return _contract(spec, ops, out_idx)[0]


def einsum_slices(spec: str, *tensors: SparseTensor):
    """Yield einsum(spec, *tensors) one value of its first output letter at
    a time, as (value, the result's entries at that value), in increasing
    order of value, for every value the letter takes in its operand.

    Only the operand carrying the letter is cut.  The joins are planned on
    its first slice by einsum's rule, with the terms of a join that takes in
    the slice counted once per slice, and every later slice repeats that
    plan: a join between operands that do not carry the letter is formed
    once, and each operand a slice is joined with is indexed once (see the
    module docstring).  A slice's join is counted before it is built when
    its terms could pass CELL_CEILING, and ContractionTooLarge is raised if
    they do.  A spec with no output letter raises ValueError.
    """
    idx_lists, out_idx = _parse_spec(spec, len(tensors))
    if not out_idx:
        raise ValueError(f"einsum spec {spec!r} has no output letter to slice")
    cut = next(n for n, idx in enumerate(idx_lists) if out_idx[0] in idx)
    slice_key = itemgetter(idx_lists[cut].index(out_idx[0]))
    parts: dict = {}
    for k, v in tensors[cut].items():
        parts.setdefault(slice_key(k), {})[k] = v
    values = sorted(parts)
    if not values:
        return
    ops = [(t, idx, False) for t, idx in zip(tensors, idx_lists)]
    ops[cut] = (parts.pop(values[0]), idx_lists[cut], True)
    first, steps = _contract(spec, ops, out_idx, len(values))
    yield values[0], first
    for value in values[1:]:
        cur, cur_idx = parts.pop(value), idx_lists[cut]
        for step in steps:
            cur, cur_idx = step(cur)
        yield value, _permuted(cur, cur_idx, out_idx)


def _contract(spec: str, ops: list, out_idx: str, repeats: int = 1):
    """The planning loop of einsum and einsum_slices.

    ops lists each operand as (tensor, letters, sliced), where sliced marks
    the one slice of einsum_slices' cut operand, or nothing for einsum.
    Joins the pair _next_pair picks until one operand is left, and returns
    (that operand over out_idx, steps): steps holds each join that took in
    the slice, as a _slice_step that later slices replay in order; the
    result of such a join is itself sliced.
    """
    steps = []
    while len(ops) > 1:
        i, j = _next_pair(spec, ops, repeats)
        (t1, i1, s1), (t2, i2, s2) = ops[i], ops[j]
        last = out_idx if len(ops) == 2 else None
        if s1 or s2:
            steps.append(_slice_step(spec, t1, i1, t2, i2, last, s1))
            joined = steps[-1](t1 if s1 else t2)
        else:
            joined = _join(t1, i1, t2, i2, last)
        ops[i] = (*joined, s1 or s2)
        del ops[j]
    return _permuted(*ops[0][:2], out_idx), steps


def _slice_step(spec: str, t1, i1, t2, i2, out_idx, first: bool):
    """One join of einsum_slices, as a function from the slice side's
    entries to (joined tensor, its letters).  The other operand (t2 when the
    slice side is first, else t1) is indexed here, once for every slice,
    and each slice probes it.  A slice's terms are counted only when its
    size times the widest key of the index passes CELL_CEILING."""
    _, key1, key2, out12, out21, out_idx = _join_layout(i1, i2, out_idx)
    if first:
        other, other_key, cur_key, out_key = t2, key2, key1, out12
    else:
        other, other_key, cur_key, out_key = t1, key1, key2, out21
    n_other = len(other)
    built, n_classes = index(other, other_key)
    widest = max(map(len, built.values()), default=0)

    def step(cur):
        if len(cur) * widest > CELL_CEILING:
            n_terms = sum(len(built.get(k, ())) for k in map(cur_key, cur))
            if n_terms > CELL_CEILING:
                raise _too_large(spec, n_terms)
        return probe(cur, cur_key, built, n_classes, n_other, out_key), out_idx

    return step


def _next_pair(spec: str, ops, repeats: int = 1) -> tuple[int, int]:
    """Positions of the pair of operands to join next, by the rule in the
    module docstring.  A join that takes in the sliced operand is formed
    repeats times, so its terms count that many times in the choice.  Two
    operands leave one pair, whose terms |t1| * |t2| bounds; they are
    counted exactly only when there is a choice or the bound passes the
    ceiling.  Raises ContractionTooLarge when the chosen join would form
    more than CELL_CEILING terms."""
    if len(ops) == 2 and len(ops[0][0]) * len(ops[1][0]) <= CELL_CEILING:
        return 0, 1
    _, _, i, j, n_terms = min(
        (n * (repeats if ops[i][2] or ops[j][2] else 1), is_outer, i, j, n)
        for i in range(len(ops))
        for j in range(i + 1, len(ops))
        for n, is_outer in [_join_terms(*ops[i][:2], *ops[j][:2])]
    )
    if n_terms > CELL_CEILING:
        raise _too_large(spec, n_terms)
    return i, j


def _too_large(spec: str, n_terms: int) -> ContractionTooLarge:
    return ContractionTooLarge(
        f"einsum {spec!r} would form a join of {n_terms} terms, "
        f"over the ceiling of {CELL_CEILING}"
    )


def _permuted(t: SparseTensor, idx: str, out_idx: str) -> SparseTensor:
    """t, over letters idx, with its keys in the order of out_idx."""
    if idx == out_idx:
        return t
    reorder = key_getter([idx.index(c) for c in out_idx])
    return {reorder(k): v for k, v in t.items()}


@cache
def _parse_spec(spec: str, n_operands: int) -> tuple[tuple[str, ...], str]:
    """Operand letters and output letters of a valid spec of n_operands."""
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
    if len(idx_lists) != n_operands:
        raise ValueError(f"einsum spec {spec!r} expects {len(idx_lists)} operands")
    return idx_lists, out_idx


def _join_terms(t1, i1, t2, i2) -> tuple[int, bool]:
    """(terms, is_outer) of joining t1, over letters i1, with t2, over i2.
    terms is the exact number of products the join forms: the sum over keys
    of the shared letters of |bucket_1| * |bucket_2|, or |t1| * |t2| for an
    outer product.  It is counted as the size of t2's bucket on each of
    t1's keys, summed over t1's entries."""
    common, key1, key2 = _join_layout(i1, i2, None)[:3]
    if not common:
        return len(t1) * len(t2), True
    bucket_sizes = Counter(map(key2, t2))
    return sum(map(bucket_sizes.get, map(key1, t1), repeat(0))), False


@cache
def _join_layout(i1: str, i2: str, out_idx: str | None):
    """Letter layout of a join of operands over letters i1 and i2.

    Returns (common, key1, key2, out12, out21, out_idx): the shared letters
    in sorted order, so that every count and index of one letter set has
    the same keys; getters of each operand's key on them (one letter gives
    bare values, several give tuples, none gives ()); the output key
    getters on the two keys concatenated with t1's first or t2's first; and
    the output letters, the free letters of i1 then those of i2 unless
    given.
    """
    common = "".join(sorted(set(i1) & set(i2)))
    if out_idx is None:
        out_idx = "".join(c for c in i1 + i2 if c not in common)
    if common:
        key1 = itemgetter(*map(i1.index, common))
        key2 = itemgetter(*map(i2.index, common))
    else:
        key1 = key2 = itemgetter(slice(0))
    return (
        common,
        key1,
        key2,
        key_getter([(i1 + i2).index(c) for c in out_idx]),
        key_getter([(i2 + i1).index(c) for c in out_idx]),
        out_idx,
    )


def _join(t1, i1, t2, i2, out_idx=None):
    """Contract two operands over every letter they share, by a hash join.

    The operand with fewer entries (t2 on a tie) is indexed on the shared
    letters (index) and the other one probes the index (probe); an outer
    product puts every entry under one empty key.  Each term's output key
    is read off the two operand keys concatenated, in the order of the
    result's letters: the free letters of i1 then those of i2, or out_idx
    when given.  The getters for these keys come from _join_layout, built
    once per (i1, i2, out_idx).
    """
    _, key1, key2, out12, out21, out_idx = _join_layout(i1, i2, out_idx)
    if len(t1) < len(t2):
        return probe(t2, key2, *index(t1, key1), len(t1), out21), out_idx
    return probe(t1, key1, *index(t2, key2), len(t2), out12), out_idx


def index(build: SparseTensor, build_key) -> tuple[dict, int]:
    """(index, n_classes): build's entries as (key, value, class) lists
    under build_key of their keys, where the class of a value is a small int
    shared by equal values, and the number of classes."""
    built: dict = {}
    classes: dict = {}
    for k, v in build.items():
        c = classes.setdefault(v._v, len(classes))
        built.setdefault(build_key(k), []).append((k, v, c))
    return built, len(classes)


def probe(t: SparseTensor, probe_key, built: dict, n_classes: int, n_build: int,
          out_key) -> SparseTensor:
    """The terms of t's entries with the entries that index() put under
    their probe_key, summed under out_key(t's key + indexed key).  Each
    distinct (probe value, indexed value) pair is multiplied once when
    product_table admits a table, and once per term otherwise.  A key whose
    sum cancels to zero is dropped where it forms."""
    table = product_table(t.values(), n_classes, n_build)
    out: SparseTensor = {}
    for kp, vp in t.items():
        group = built.get(probe_key(kp))
        if not group:
            continue
        if table is not None:
            products = table.get(vp._v)
            if products is None:
                products = table[vp._v] = [None] * n_classes
        for kb, vb, c in group:
            if table is None:
                term = vp * vb
            else:
                term = products[c]
                if term is None:
                    term = products[c] = vp * vb
            key = out_key(kp + kb)
            acc = out.get(key)
            if acc is None:
                out[key] = term
            else:
                total = acc + term
                if total.is_zero():
                    del out[key]
                else:
                    out[key] = total
    return out


def product_table(probe_values, n_classes: int, n_build: int) -> dict | None:
    """An empty product table for one probe, or None.

    The table maps a probe value's canonical ints to a list, indexed by the
    class of the other factor, of their products, each formed on first use.
    It holds one slot per pair of distinct values, so it is used only while
    that count is at most the number of entries on both sides: distinct
    probe values * n_classes <= len(probe_values) + n_build.  Inputs whose
    values mostly differ get None, and their terms form one product each.
    """
    distinct = len({v._v for v in probe_values})
    return {} if distinct * n_classes <= len(probe_values) + n_build else None


def key_getter(positions):
    """Getter taking a key to the tuple of its entries at positions, in
    that order.  itemgetter gives a bare value for one position and takes
    no empty list, so those two cases read a slice."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return itemgetter(slice(p, p + 1))
    return itemgetter(slice(0))


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


def hermitian_positive_definite(g: SparseTensor, dim: int) -> bool:
    """Exact test that the dim x dim matrix g is Hermitian and positive definite.

    A matrix that is not Hermitian gives False.  For a Hermitian matrix the
    leading principal minors are the running products of the pivots produced
    by symmetric Gaussian elimination, so the matrix is positive definite iff
    every pivot is real and positive.
    """
    if any(g.get((b, a), ZERO) != v.conjugate() for (a, b), v in g.items()):
        return False
    work = [[ZERO] * dim for _ in range(dim)]
    for (a, b), v in g.items():
        work[a][b] = v
    for k in range(dim):
        pivot = work[k][k]
        if not pivot.is_real_positive():
            return False
        inv_p = pivot.inverse()
        for i in range(k + 1, dim):
            f = work[i][k] * inv_p
            if f.is_zero():
                continue
            for j in range(k, dim):
                work[i][j] = work[i][j] - f * work[k][j]
    return True
