import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import halftwist
from halftwist import linalg
from halftwist.cyclo import I, ONE, ZERO, CycloNum
from halftwist.linalg import (
    CELL_CEILING,
    ContractionTooLarge,
    InconsistentSystemError,
    SingularMatrixError,
    delta,
    einsum,
    einsum_slices,
    linear_solve,
    mat_invert,
    nullspace,
    row_reduce,
)
from conftest import algebra


def left_to_right(spec, *tensors):
    """Reference contraction: operands joined strictly in spec order.  Each
    next operand's entries are put in buckets by their values on the letters
    it shares with the running result, and every entry of the result is
    multiplied with each entry of its bucket."""
    lhs, out_idx = spec.replace(" ", "").split("->")
    idx_lists = lhs.split(",")
    cur, cur_idx = tensors[0], idx_lists[0]
    for t, t_idx in zip(tensors[1:], idx_lists[1:]):
        shared = [c for c in cur_idx if c in t_idx]
        new_idx = [c for c in cur_idx if c not in shared] + [c for c in t_idx if c not in shared]
        # Where each new letter sits in the two keys concatenated.
        new_pos = [(cur_idx + t_idx).index(c) for c in new_idx]
        buckets = {}
        for k2, v2 in t.items():
            shared_values = tuple(k2[t_idx.index(c)] for c in shared)
            buckets.setdefault(shared_values, []).append((k2, v2))
        acc = {}
        for k1, v1 in cur.items():
            for k2, v2 in buckets.get(tuple(k1[cur_idx.index(c)] for c in shared), []):
                both = k1 + k2
                key = tuple(both[p] for p in new_pos)
                acc[key] = acc.get(key, ZERO) + v1 * v2
        cur, cur_idx = {k: v for k, v in acc.items() if not v.is_zero()}, "".join(new_idx)
    perm = [cur_idx.index(c) for c in out_idx]
    return {tuple(k[p] for p in perm): v for k, v in cur.items()}


def package_einsum_specs():
    """Every literal spec passed to einsum in the package sources."""
    specs = set()
    for path in Path(halftwist.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "einsum"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                specs.add(node.args[0].value)
    return sorted(specs)


PACKAGE_SPECS = package_einsum_specs()


def random_tensor(rng, rank, extent, density):
    out = {}
    for flat in range(extent**rank):
        if rng.random() >= density:
            continue
        key = tuple((flat // extent**p) % extent for p in range(rank))
        out[key] = CycloNum(
            *(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
        )
    return {k: v for k, v in out.items() if not v.is_zero()}


# a3's and a4's sides written out in the weights, as the oracle in conftest
# contracts them; the six-operand network is the planner's largest case.
WRITTEN_OUT_SPECS = ("abe,ef,fcd->abcd", "bce,ef,afd->abcd", "ade,df,fbg,gh,ihc,ei->abc")


def test_package_specs_found():
    # The axiom checks alone use more than thirty distinct specs.
    assert len(PACKAGE_SPECS) > 30
    assert "adi,df,fbh,ihc->abc" in PACKAGE_SPECS


@pytest.mark.parametrize("spec", sorted({*PACKAGE_SPECS, *WRITTEN_OUT_SPECS}))
def test_planned_matches_left_to_right(spec):
    # With an output letter, the slices along the first one are the same
    # entries, in increasing order of that letter.
    rng = random.Random(spec)
    idx_lists, out_idx = spec.split("->")
    idx_lists = idx_lists.split(",")
    for extent, density in ((2, 0.7), (3, 0.35)):
        tensors = [random_tensor(rng, len(s), extent, density) for s in idx_lists]
        want = left_to_right(spec, *tensors)
        assert einsum(spec, *tensors) == want
        if out_idx:
            slices = list(einsum_slices(spec, *tensors))
            values = [value for value, _ in slices]
            assert values == sorted(set(values))
            assert all(k[0] == value for value, t in slices for k in t)
            assert {k: v for _, t in slices for k, v in t.items()} == want


def test_planner_ignores_operand_order():
    # The same network written in two orders gives the same tensor.
    rng = random.Random(5)
    node, cup = random_tensor(rng, 3, 3, 0.4), random_tensor(rng, 2, 3, 0.6)
    a = einsum("ade,df,fbg,gh,ihc,ei->abc", node, cup, node, cup, node, cup)
    b = einsum("ei,ihc,gh,fbg,df,ade->abc", cup, node, cup, node, cup, node)
    assert a == b == left_to_right("ade,df,fbg,gh,ihc,ei->abc", node, cup, node, cup, node, cup)


def test_single_operand_and_outer_product():
    t = {(0, 1): ONE, (1, 0): CycloNum(2)}
    assert einsum("ab->ba", t) == {(1, 0): ONE, (0, 1): CycloNum(2)}
    u = {(0,): CycloNum(3)}
    assert einsum("ab,c->cab", t, u) == left_to_right("ab,c->cab", t, u)


# Joins of very unequal operands: (small letters, large letters, output).
UNEQUAL_JOINS = [
    ("a", "abc", "bc"),  # one shared letter
    ("a", "abc", "cb"),  # permuted output
    ("ab", "abc", "c"),  # several shared letters, one-letter output
    ("ca", "abc", "b"),  # shared letters in another order
    ("abc", "abc", ""),  # every letter shared, zero-letter output
    ("a", "bcd", "dbac"),  # outer product
]


@pytest.mark.parametrize("small_idx, big_idx, out_idx", UNEQUAL_JOINS)
def test_join_indexes_either_operand(small_idx, big_idx, out_idx):
    # The two argument orders index the smaller operand on either side of
    # the join; neither may change the result.
    rng = random.Random(small_idx + big_idx + out_idx)
    big = random_tensor(rng, len(big_idx), 3, 1.0)
    one_entry = {(1,) * len(small_idx): CycloNum(2, -1)}
    for small in (one_entry, random_tensor(rng, len(small_idx), 3, 0.5)):
        assert len(small) < len(big)
        for spec, ops in (
            (f"{small_idx},{big_idx}->{out_idx}", (small, big)),
            (f"{big_idx},{small_idx}->{out_idx}", (big, small)),
        ):
            assert einsum(spec, *ops) == left_to_right(spec, *ops)


@pytest.mark.parametrize("small_idx, big_idx, _", UNEQUAL_JOINS)
def test_join_without_output_order_keeps_operand_order(small_idx, big_idx, _):
    # An inner join's letters are the free letters of the first operand,
    # then those of the second, whichever operand is indexed.
    rng = random.Random(small_idx + big_idx)
    small = {(2,) * len(small_idx): CycloNum(0, 1, -1)}
    big = random_tensor(rng, len(big_idx), 3, 1.0)
    for i1, t1, i2, t2 in ((small_idx, small, big_idx, big), (big_idx, big, small_idx, small)):
        free = "".join(c for c in i1 + i2 if c not in i1 or c not in i2)
        t, letters = linalg._join(t1, i1, t2, i2)
        assert letters == free
        assert t == left_to_right(f"{i1},{i2}->{free}", t1, t2)


def test_zero_sum_is_pruned():
    t1 = {(0, 0): ONE, (0, 1): ONE}
    t2 = {(0, 0): ONE, (1, 0): -ONE}
    assert einsum("ab,bc->ac", t1, t2) == {}


def test_key_that_cancels_takes_later_terms():
    # Key (0, 0) sums 1 - 1 = 0 after two terms and is dropped where it
    # forms; the third term then starts it again.
    t1 = {(0, 0): ONE, (0, 1): ONE, (0, 2): ONE}
    t2 = {(0, 0): ONE, (1, 0): -ONE, (2, 0): CycloNum(5)}
    t, letters = linalg._join(t1, "ab", t2, "bc", "ac")
    assert t == {(0, 0): CycloNum(5)} == left_to_right("ab,bc->ac", t1, t2)
    assert letters == "ac"


def test_two_operands_under_the_bound_are_not_counted(monkeypatch):
    # With one pair left, |t1| * |t2| bounds its terms; under the ceiling
    # the join runs without the exact count.
    rng = random.Random(3)
    t1, t2 = random_tensor(rng, 2, 3, 0.7), random_tensor(rng, 3, 3, 0.5)
    want = left_to_right("ab,bcd->acd", t1, t2)

    def no_count(*args):
        raise AssertionError("a two-operand join under the bound was counted")

    monkeypatch.setattr(linalg, "_join_terms", no_count)
    assert einsum("ab,bcd->acd", t1, t2) == want


def count_products(monkeypatch):
    """Count CycloNum products formed from here on."""
    calls = []
    mul = CycloNum.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    return calls


def test_join_forms_each_distinct_product_once(monkeypatch):
    # a3's left side on cl(2,2) forms 256 + 4096 terms, and each operand of
    # either join holds two distinct values.
    a = algebra("cl(2,2)")
    spec, ops = "abe,ef,fcd->abcd", (a.node, a.cup, a.node)
    want = left_to_right(spec, *ops)
    products = count_products(monkeypatch)
    assert einsum(spec, *ops) == want
    assert 0 < len(products) <= 8


def test_join_of_distinct_values_forms_one_product_per_term(monkeypatch):
    # 12 * 3 * 12 = 432 terms over 72 pairwise-distinct values: a table of
    # 36 * 36 products would outgrow the 72 inputs, so none is kept.
    values = iter(CycloNum(Fraction(n, 7), n % 5) for n in range(1, 73))
    t1 = {(i, j): next(values) for i in range(12) for j in range(3)}
    t2 = {(j, k): next(values) for j in range(3) for k in range(12)}
    assert len({v for t in (t1, t2) for v in t.values()}) == 72
    want = left_to_right("ab,bc->ac", t1, t2)
    tables = []
    product_table = linalg.product_table

    def recording(*args):
        tables.append(product_table(*args))
        return tables[-1]

    monkeypatch.setattr(linalg, "product_table", recording)
    products = count_products(monkeypatch)
    assert einsum("ab,bc->ac", t1, t2) == want
    assert len(products) == 432
    assert tables == [None]


def test_product_table_bound():
    # Three distinct values among four probe entries: 3 * n_classes slots
    # against 4 + n_build entries.
    probe = {(0,): ONE, (1,): ONE, (2,): CycloNum(2), (3,): CycloNum(3)}
    assert linalg.product_table(probe.values(), 2, 2) == {}  # 6 <= 6
    assert linalg.product_table(probe.values(), 3, 4) is None  # 9 > 8


@pytest.mark.parametrize(
    "spec, count, match",
    [
        ("aab,bc->ac", 2, "repeated letter"),
        ("ab,bc->ac", 3, "expects 2 operands"),
        ("ab,bc->ca", 1, "expects 2 operands"),  # output's first letter in t2
        ("ab,bc->a", 2, "output letters"),
        ("ab,bc->acd", 2, "output letters"),
        ("ab,bc,bd->acd", 3, "two operands"),
        ("ab,bc->abc", 2, "two operands"),
    ],
)
def test_einsum_errors(spec, count, match):
    t = {(0, 0): ONE}
    # Twice: the parse of a valid spec is memoized, a bad one never is.
    # einsum_slices checks the operand count before it looks for the
    # operand to cut.
    for contract in (einsum, lambda *args: next(einsum_slices(*args))):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                contract(spec, *([t] * count))


def test_a4_never_builds_more_than_dim_cubed(monkeypatch):
    a = algebra("cl(2,2)")
    sizes = []
    join = linalg._join

    def recording_join(*args):
        result = join(*args)
        sizes.append(len(result[0]))
        return result

    monkeypatch.setattr(linalg, "_join", recording_join)
    node, cup = a.node, a.cup
    einsum("ade,df,fbg,gh,ihc,ei->abc", node, cup, node, cup, node, cup)
    assert len(sizes) == 5
    assert max(sizes) <= a.dim**3 == 4096


def old_plan_joins(spec, *tensors):
    """The letters of each join the planner's rule makes, written out on
    its own: every remaining pair's terms counted at every step by tuple
    keys, and the fewest terms win, then a shared letter, then the leftmost
    pair."""
    idx_lists, out_idx = linalg._parse_spec(spec, len(tensors))
    ops = list(zip(tensors, idx_lists))
    joins = []
    while len(ops) > 1:
        candidates = []
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                (t1, i1), (t2, i2) = ops[i], ops[j]
                common = [c for c in i1 if c in i2]
                if not common:
                    candidates.append((len(t1) * len(t2), True, i, j))
                    continue
                c1 = Counter(tuple(k[i1.index(c)] for c in common) for k in t1)
                c2 = Counter(tuple(k[i2.index(c)] for c in common) for k in t2)
                terms = sum(n * c2[k] for k, n in c1.items())
                candidates.append((terms, False, i, j))
        _, _, i, j = min(candidates)
        last = out_idx if len(ops) == 2 else None
        joins.append((ops[i][1], ops[j][1], last))
        ops[i] = linalg._join(*ops[i], *ops[j], last)
        del ops[j]
    return joins


def star_crossing_operands(a):
    conj = lambda t: {k: v.conjugate() for k, v in t.items()}  # noqa: E731
    return conj(a.star), conj(a.star), conj(a.crossing), a.star, a.star


PLANNED_NETWORKS = [
    (
        "ade,df,fbg,gh,ihc,ei->abc",
        lambda a: (a.node, a.cup, a.node, a.cup, a.node, a.cup),
    ),
    ("ax,by,xyuv,up,vq->abpq", star_crossing_operands),
    (
        "ab,bxcd,cdf,afy->xy",
        lambda a: (a.cup, a.crossing, a.product_tensor(), a.product_tensor()),
    ),
]


@pytest.mark.parametrize("spec, operands", PLANNED_NETWORKS)
@pytest.mark.parametrize("name", ["cl(2,2)", "cl(1,0) (x) mat(1|1)", "clc(2)"])
def test_planner_keeps_the_join_sequence(monkeypatch, spec, operands, name):
    # The planner chooses the same joins, in the same order and with the
    # same letters, as the rule written out on its own.
    ops = operands(algebra(name))
    want = old_plan_joins(spec, *ops)
    joins = []
    join = linalg._join

    def recording_join(t1, i1, t2, i2, out_idx=None):
        joins.append((i1, i2, out_idx))
        return join(t1, i1, t2, i2, out_idx)

    monkeypatch.setattr(linalg, "_join", recording_join)
    assert einsum(spec, *ops) == left_to_right(spec, *ops)
    assert joins == want


def test_element_product_joins_the_elements_first(monkeypatch):
    # For x * y ("a,b,abc->c") the outer product of two one-entry elements
    # forms one term, fewer than joining either with the product table.
    a = algebra("cl(2,2)")
    x, y = a.basis_element(5), a.basis_element(10)
    expected = x * y
    sizes = []
    join = linalg._join

    def recording_join(*args):
        result = join(*args)
        sizes.append(len(result[0]))
        return result

    monkeypatch.setattr(linalg, "_join", recording_join)
    assert x * y == expected
    assert sizes == [1, 1]


def test_ceiling_stops_oversize_join_before_building(monkeypatch):
    n = 1500  # one shared key with n entries on each side: n^2 terms
    assert n * n > CELL_CEILING
    left = {(i, 0): ONE for i in range(n)}
    right = {(0, j): ONE for j in range(n)}

    def no_join(*args):
        raise AssertionError("an oversize join was built")

    monkeypatch.setattr(linalg, "_join", no_join)
    with pytest.raises(ContractionTooLarge, match=rf"'ab,bc->ac'.*{n * n} terms"):
        einsum("ab,bc->ac", left, right)



def test_slices_index_and_join_the_uncut_operands_once(monkeypatch):
    # a4's right side on cl(2,2), cut into 16 slices of its first node.
    # The join of fbg with gh carries no a, so it is formed once; it and
    # the operands each slice is joined with are indexed once per call.
    a = algebra("cl(2,2)")
    spec = "ade,df,fbg,gh,ihc,ei->abc"
    ops = (a.node, a.cup, a.node, a.cup, a.node, a.cup)
    want = einsum(spec, *ops)
    indexed, joins = [], []
    index, join = linalg.index, linalg._join

    def recording_index(t, key):
        indexed.append(len(t))
        return index(t, key)

    def recording_join(*args):
        joins.append((args[1], args[3], args[4]))
        return join(*args)

    monkeypatch.setattr(linalg, "index", recording_index)
    monkeypatch.setattr(linalg, "_join", recording_join)
    slices = list(einsum_slices(spec, *ops))
    assert [value for value, _ in slices] == list(range(16))
    assert {k: v for _, t in slices for k, v in t.items()} == want
    assert joins == [("fbg", "gh", None)]
    # One index inside that join, one for each of the four joins a slice
    # takes part in.
    assert len(indexed) == 5


def test_ceiling_stops_an_oversize_slice_before_building(monkeypatch):
    # The plan is made on the first slice (one entry, 10 terms); the second
    # slice would form 10 * 10 terms, over a ceiling of 50.
    monkeypatch.setattr(linalg, "CELL_CEILING", 50)
    left = {(0, 0): ONE, **{(1, b): ONE for b in range(10)}}
    right = {(b, c): ONE for b in range(10) for c in range(10)}
    slices = einsum_slices("ab,bc->ac", left, right)
    value, first = next(slices)
    assert value == 0 and first == {(0, c): ONE for c in range(10)}

    def no_probe(*args):
        raise AssertionError("an oversize slice was built")

    monkeypatch.setattr(linalg, "probe", no_probe)
    with pytest.raises(ContractionTooLarge, match=r"'ab,bc->ac'.* 100 terms"):
        next(slices)


def test_slices_need_an_output_letter():
    t = {(0,): ONE}
    with pytest.raises(ValueError, match="no output letter"):
        list(einsum_slices("a,a->", t, t))
    assert list(einsum_slices("a,ab->b", {(0,): ONE}, {})) == []


def test_tensors_differ_reports_the_smallest_differing_index():
    rng = random.Random(31)
    keys = [(a, b) for a in range(6) for b in range(6)]
    for _ in range(50):
        t1 = {k: CycloNum(rng.randint(1, 3), rng.randint(0, 2)) for k in rng.sample(keys, 20)}
        assert linalg.tensors_differ(t1, dict(t1)) is None
        t2 = dict(t1)
        changed = rng.sample(keys, 3)
        for k in changed:
            if k in t2 and rng.random() < 0.5:
                del t2[k]
            else:
                t2[k] = t2.get(k, ONE) + ONE
        first = min(changed)
        assert linalg.tensors_differ(t1, t2) == (first, t1.get(first, ZERO), t2.get(first, ZERO))
        assert linalg.tensors_differ(t2, t1) == (first, t2.get(first, ZERO), t1.get(first, ZERO))
    # An explicit zero equals an absent entry.
    assert linalg.tensors_differ({(0,): ZERO, (1,): ONE}, {(1,): ONE}) is None
    assert linalg.tensors_differ({}, {(2,): ONE}) == ((2,), ZERO, ONE)


def test_tensors_differ_does_not_sort_equal_tensors(monkeypatch):
    t = {(a, b, c): ONE for a in range(8) for b in range(8) for c in range(8)}

    def no_sort(*args, **kwargs):
        raise AssertionError("equal tensors were sorted")

    monkeypatch.setattr(linalg, "sorted", no_sort, raising=False)
    monkeypatch.setattr(linalg, "min", no_sort, raising=False)
    assert linalg.tensors_differ(t, dict(t)) is None


# -- the elimination kernel --------------------------------------------------


def random_rows(rng, nrows, ncols, density):
    """Sparse rows over Q(zeta_8), some of them combinations of others, so
    that ranks below min(nrows, ncols) occur."""
    table = random_tensor(rng, 2, max(nrows, ncols), density)
    rows = [{c: v for (r, c), v in table.items() if r == i and c < ncols} for i in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        f = CycloNum(rng.randint(1, 3), rng.randint(-2, 2))
        rows[-1] = dict(rows[0])
        for c, v in rows[1].items():
            rows[-1][c] = rows[-1].get(c, ZERO) + f * v
    return rows


def dot(row, vec):
    total = ZERO
    for c, v in row.items():
        total = total + v * vec.get(c, ZERO)
    return total


CASES = [(seed, 1 + seed % 6, 1 + (seed * 7) % 6) for seed in range(40)]


@pytest.mark.parametrize("seed,nrows,ncols", CASES)
def test_row_reduce_is_reduced_and_spans_the_rows(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = random_rows(rng, nrows, ncols, 0.5)
    reduced = row_reduce(rows)
    for p, prow in reduced.items():
        assert prow[p] == ONE
        assert min(prow) == p
        assert not any(q in prow for q in reduced if q != p)
        assert not any(v.is_zero() for v in prow.values())
    # Each input row is the combination of pivot rows read off its pivots.
    for row in rows:
        combo = {}
        for p, prow in reduced.items():
            for c, v in prow.items():
                combo[c] = combo.get(c, ZERO) + row.get(p, ZERO) * v
        assert {c: v for c, v in combo.items() if not v.is_zero()} == {
            c: v for c, v in row.items() if not v.is_zero()
        }


@pytest.mark.parametrize("seed,nrows,ncols", CASES)
def test_nullspace_annihilates_rows_with_full_nullity(seed, nrows, ncols):
    rows = random_rows(random.Random(seed), nrows, ncols, 0.5)
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - len(row_reduce(rows))
    assert len(row_reduce(basis)) == len(basis)
    for vec in basis:
        assert all(dot(row, vec).is_zero() for row in rows)


@pytest.mark.parametrize("seed", range(20))
def test_mat_invert_gives_identity(seed):
    rng = random.Random(seed)
    n = 1 + seed % 6
    m = random_tensor(rng, 2, n, 0.6)
    m.update({(i, i): ONE for i in range(n) if (i, i) not in m})
    if seed % 3 == 0:
        # Repeat the first row as the last: singular from n = 2 on.
        m = {(r, c): v for (r, c), v in m.items() if r != n - 1}
        m.update({(n - 1, c): v for (r, c), v in m.items() if r == 0})
    rank = len(row_reduce({c: v for (r, c), v in m.items() if r == i} for i in range(n)))
    if rank < n:
        with pytest.raises(SingularMatrixError):
            mat_invert(m, n)
        return
    inv = mat_invert(m, n)
    assert einsum("ab,bc->ac", m, inv) == delta(n)
    assert einsum("ab,bc->ac", inv, m) == delta(n)


def test_mat_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        mat_invert({(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (1, 1): ONE}, 2)
    with pytest.raises(SingularMatrixError):
        mat_invert({(0, 0): ONE}, 2)


@pytest.mark.parametrize("seed,nrows,ncols", CASES)
def test_linear_solve_satisfies_its_rows(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = random_rows(rng, nrows, ncols, 0.5)
    x0 = {c: v for (c,), v in random_tensor(rng, 1, ncols, 0.7).items()}
    system = [(row, dot(row, x0)) for row in rows]
    x = dict(enumerate(linear_solve(system, ncols)))
    assert all(dot(row, x) == rhs for row, rhs in system)
    # One more row, a sum of two others with its right side moved off.
    if nrows > 1:
        bad = dict(rows[0])
        for c, v in rows[1].items():
            bad[c] = bad.get(c, ZERO) + v
        extra = (bad, system[0][1] + system[1][1] + ONE)
        with pytest.raises(InconsistentSystemError):
            linear_solve(system + [extra], ncols)


def test_linear_solve_rejects_a_zero_row_with_nonzero_right_side():
    with pytest.raises(InconsistentSystemError):
        linear_solve([({0: ONE}, ONE), ({}, ONE)], 1)


@pytest.mark.parametrize("seed,nrows,ncols", CASES)
def test_results_do_not_depend_on_row_order(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = random_rows(rng, nrows, ncols, 0.5)
    system = [(row, CycloNum(rng.randint(-2, 2))) for row in rows]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert row_reduce(shuffled) == row_reduce(rows)
    assert nullspace(shuffled, ncols) == nullspace(rows, ncols)
    try:
        want = linear_solve(system, ncols)
    except InconsistentSystemError:
        want = None
    rng.shuffle(system)
    try:
        got = linear_solve(system, ncols)
    except InconsistentSystemError:
        got = None
    assert got == want


@pytest.mark.parametrize(
    "gram, dim, want",
    [
        ({}, 0, True),
        ({(0, 0): ONE, (1, 1): CycloNum(2)}, 2, True),
        # Hermitian, with an entry i off the diagonal: pivots 2 and 1/2.
        ({(0, 0): CycloNum(2), (0, 1): I, (1, 0): -I, (1, 1): ONE}, 2, True),
        ({(0, 0): ONE, (0, 1): CycloNum(2), (1, 0): CycloNum(2), (1, 1): ONE}, 2, False),
        ({(0, 0): ONE}, 2, False),  # a zero pivot
        ({(0, 0): I, (1, 1): ONE}, 2, False),  # a pivot that is not real
        # Not Hermitian, although every pivot (1, then 1) is positive.
        ({(0, 0): ONE, (0, 1): ONE, (1, 1): ONE}, 2, False),
        ({(0, 0): CycloNum(2), (0, 1): I, (1, 0): I, (1, 1): ONE}, 2, False),
    ],
)
def test_hermitian_positive_definite(gram, dim, want):
    assert linalg.hermitian_positive_definite(gram, dim) is want
