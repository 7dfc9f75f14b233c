import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import halftwist
from halftwist import linalg
from halftwist.cyclo import ONE, ZERO, CycloNum
from halftwist.linalg import CELL_CEILING, ContractionTooLarge, einsum
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

