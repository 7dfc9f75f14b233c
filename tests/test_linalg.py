import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import halftwist
from halftwist import linalg
from halftwist.cyclo import ONE, ZERO, CycloNum
from halftwist.linalg import (
    CELL_CEILING,
    ContractionTooLarge,
    InconsistentSystemError,
    SingularMatrixError,
    delta,
    einsum,
    linear_solve,
    mat_invert,
    nullspace,
    row_reduce,
)
from conftest import algebra


def left_to_right(spec, *tensors):
    """Reference contraction: operands joined strictly in spec order, each
    join by comparing every pair of entries."""
    lhs, out_idx = spec.replace(" ", "").split("->")
    idx_lists = lhs.split(",")
    cur, cur_idx = tensors[0], idx_lists[0]
    for t, t_idx in zip(tensors[1:], idx_lists[1:]):
        shared = [c for c in cur_idx if c in t_idx]
        new_idx = [c for c in cur_idx if c not in shared] + [c for c in t_idx if c not in shared]
        acc = {}
        for k1, v1 in cur.items():
            for k2, v2 in t.items():
                if any(k1[cur_idx.index(c)] != k2[t_idx.index(c)] for c in shared):
                    continue
                letter_value = {**dict(zip(cur_idx, k1)), **dict(zip(t_idx, k2))}
                key = tuple(letter_value[c] for c in new_idx)
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


def test_package_specs_found():
    # The axiom checks alone use more than thirty distinct specs.
    assert len(PACKAGE_SPECS) > 30
    assert "ade,df,fbg,gh,ihc,ei->abc" in PACKAGE_SPECS


@pytest.mark.parametrize("spec", PACKAGE_SPECS)
def test_planned_matches_left_to_right(spec):
    rng = random.Random(spec)
    idx_lists = spec.split("->")[0].split(",")
    for extent, density in ((2, 0.7), (3, 0.35)):
        tensors = [random_tensor(rng, len(s), extent, density) for s in idx_lists]
        assert einsum(spec, *tensors) == left_to_right(spec, *tensors)


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


def test_zero_sum_is_pruned():
    t1 = {(0, 0): ONE, (0, 1): ONE}
    t2 = {(0, 0): ONE, (1, 0): -ONE}
    assert einsum("ab,bc->ac", t1, t2) == {}


@pytest.mark.parametrize(
    "spec, count, match",
    [
        ("aab,bc->ac", 2, "repeated letter"),
        ("ab,bc->ac", 3, "expects 2 operands"),
        ("ab,bc->a", 2, "output letters"),
        ("ab,bc->acd", 2, "output letters"),
        ("ab,bc,bd->acd", 3, "two operands"),
        ("ab,bc->abc", 2, "two operands"),
    ],
)
def test_einsum_errors(spec, count, match):
    t = {(0, 0): ONE}
    # Twice: the parse of a valid spec is memoized, a bad one never is.
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            einsum(spec, *([t] * count))


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
