import random
from itertools import product as iproduct

import pytest

from halftwist import (
    CycloNum,
    LinearBlock,
    ONE,
    RibbonDiagram,
    ZERO,
    ZETA,
    compose,
    custom_from_tensors,
    evaluate,
    expand_left_twists,
    parse,
    zeta_pow,
)
from halftwist import ribbon
from halftwist.ribbon import DiagramError
from conftest import algebra, random_diagram

RP2_TEXT = "R 1 / cup / id t+ / cap"


def test_parse_projective_plane():
    d = parse(RP2_TEXT)
    assert d.r_power == 1
    assert d.bottom == 0
    assert d.validate() == (0, 0)
    assert d.ops == (("cup", 0), ("t+", 1), ("cap", 0))


def test_parse_empty_and_identity():
    empty = parse("")
    assert empty.validate() == (0, 0)
    assert evaluate(empty, algebra("cl(1,0)")).scalar() == ONE
    ident = parse("bottom 2\nid id")
    assert ident.validate() == (2, 2)
    assert evaluate(ident, algebra("cl(1,0)")) == LinearBlock.identity(2, 2)


def test_parse_errors_carry_position():
    with pytest.raises(DiagramError) as err:
        parse("cup\nid flub")
    assert err.value.line == 2 and err.value.col == 4
    with pytest.raises(DiagramError) as err:
        parse("bottom 0\ncap")
    assert err.value.line == 2
    with pytest.raises(DiagramError):
        parse("bottom 2 / node")
    # R header after a slice is rejected
    with pytest.raises(DiagramError):
        parse("cup\nR 1")


def test_validate_rejects_bad_programmatic_ops():
    d = RibbonDiagram(1, (("cap", 0),))
    with pytest.raises(DiagramError, match="needs 2"):
        d.validate()
    d = RibbonDiagram(0, (("cup", 1),))
    with pytest.raises(DiagramError):
        d.validate()
    d = RibbonDiagram(1, (("t+", -1),))
    with pytest.raises(DiagramError, match="negative"):
        d.validate()


def test_projective_plane_values():
    a = algebra("cl(1,0)")
    assert evaluate(parse(RP2_TEXT), a).scalar() == ZETA
    three = parse("R 1 / cup / id t+ / id t+ / id t+ / cap")
    assert evaluate(three, a).scalar() == zeta_pow(7)


def test_sphere_value():
    a = algebra("cl(1,0)")
    assert evaluate(parse("R 2 / cup / cap"), a).scalar() == ONE


def test_loops_measure_dimensions():
    plain = parse("cup / cap")
    full_twist_one_strand = parse("cup / id t+ / id t+ / cap")
    for spec, dim, sdim in [
        ("cl(1,0)", 2, 0),
        ("mat(1|1)", 4, 0),
        ("mat(2|1)", 9, 1),
    ]:
        a = algebra(spec)
        assert evaluate(plain, a).scalar() == CycloNum(dim)
        assert evaluate(full_twist_one_strand, a).scalar() == CycloNum(sdim)


def test_mul_macro_is_the_product():
    a = algebra("mat(1|1)")
    block = evaluate(parse("bottom 2\nmul"), a)
    product = a.product_tensor()
    expected = {((x, y), (z,)): v for (x, y, z), v in product.items()}
    assert block.table == expected
    # eta alias
    assert evaluate(parse("bottom 2\neta"), a).table == {
        ((x, y), ()): v for (x, y), v in a.cap.items()
    }


def test_left_twist_is_inverse_and_triple():
    a = algebra("cl(1,0)")
    d = parse("R 1 / cup / id t- / cap")
    assert evaluate(d, a).scalar() == zeta_pow(7)
    assert evaluate(expand_left_twists(d), a).scalar() == zeta_pow(7)


def test_left_twist_triple_property_randomized():
    rng = random.Random(23)
    a = algebra("mat(1|1)")
    found = 0
    while found < 10:
        d = random_diagram(rng, bottom=rng.randrange(3))
        if not any(kind == "t-" for kind, _ in d.ops):
            continue
        found += 1
        assert evaluate(d, a) == evaluate(expand_left_twists(d), a)


def test_compose_halves():
    a = algebra("cl(1,0)")
    low = parse("R 1 / cup")
    high = parse("bottom 2 / id t+ / cap")
    d = compose(low, high)
    assert d.r_power == 1
    assert evaluate(d, a).scalar() == ZETA


def test_then_drops_cancelled_entries():
    first = LinearBlock(1, 1, {((0,), (0,)): ONE, ((0,), (1,)): ONE})
    second = LinearBlock(1, 1, {((0,), (0,)): ONE, ((1,), (0,)): -ONE})
    assert first.then(second).table == {}


def test_zero_vertex_weight_gives_an_empty_table():
    a = algebra("cl(1,0)")
    c = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, 0, a.parity, star=a.star
    )
    assert evaluate(parse("R 1 / cup / cap"), c).table == {}


def test_diagram_without_r_is_not_scaled(monkeypatch):
    def no_scale(*args):
        raise AssertionError("scaled by vertex_weight ** 0")

    monkeypatch.setattr(ribbon, "scale", no_scale)
    assert evaluate(parse("cup / cap"), algebra("cl(1,0)")).scalar() == CycloNum(2)


def test_compose_width_mismatch():
    with pytest.raises(DiagramError, match="compose"):
        compose(parse("cup"), parse("bottom 3 / cap id"))


def test_projector_absorption_shape():
    # composing a diagram with itself along matching widths adds r powers
    d = parse("R 1\nbottom 1\nt+")
    dd = compose(d, d)
    assert dd.r_power == 2
    assert dd.validate() == (1, 1)


def test_evaluate_matches_block_composition():
    rng = random.Random(5)
    for spec in ("cl(1,0)", "mat(1|1)"):
        a = algebra(spec)
        for _ in range(10):
            bottom = rng.randrange(3)
            d1 = random_diagram(rng, bottom)
            d2 = random_diagram(rng, d1.top)
            assert evaluate(compose(d1, d2), a) == evaluate(d1, a).then(evaluate(d2, a))


def test_block_composition_errors():
    a = algebra("cl(1,0)")
    b1 = evaluate(parse("bottom 1\nid"), a)
    b2 = evaluate(parse("bottom 2\nid id"), a)
    with pytest.raises(ValueError, match="compose"):
        b1.then(b2)
    with pytest.raises(ValueError, match="closed"):
        b1.scalar()


def test_untouched_strands_pass_through():
    a = algebra("cl(1,0)")
    d = parse("bottom 3\nid id t+")
    block = evaluate(d, a)
    for x in range(2):
        for y in range(2):
            assert block.table[((x, y, 0), (x, y, 0))] == ONE
            assert block.table[((x, y, 1), (x, y, 1))] == zeta_pow(2)


def test_guards(monkeypatch):
    # The ceiling is read at call time and checked on the count a step would
    # form, before the table is built.
    a = algebra("cl(2,2)")
    monkeypatch.setattr(ribbon, "CELL_CEILING", 1000)
    with pytest.raises(DiagramError, match=r"\b4096\b"):
        evaluate(parse("bottom 4\nid id id id"), a)
    with pytest.raises(DiagramError, match=r"\b4096\b"):
        evaluate(parse("bottom 2\nid id cup"), a)
    monkeypatch.setattr(ribbon, "CELL_CEILING", 256)
    assert evaluate(parse("bottom 2\nid id"), a) == LinearBlock.identity(2, 16)
    # A twist with rows of two lengths: the step forms 2 + 1 terms.
    base = algebra("cl(1,0)")
    skew = custom_from_tensors(
        base.node, base.cap, base.cup, base.crossing,
        {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE}, base.vertex_weight, base.parity,
    )
    monkeypatch.setattr(ribbon, "CELL_CEILING", 3)
    assert len(evaluate(parse("bottom 1\nt+"), skew).table) == 3
    monkeypatch.setattr(ribbon, "CELL_CEILING", 2)
    with pytest.raises(DiagramError, match=r"\b3\b"):
        evaluate(parse("bottom 1\nt+"), skew)


@pytest.mark.parametrize("width", (3, 4))
@pytest.mark.parametrize("kind", ("node", "cap", "cup", "x", "t+", "t-"))
@pytest.mark.parametrize("spec", ("cl(1,1)", "mat(1|1)", "clc(1)"))
def test_single_generator_is_its_tensor(spec, kind, width):
    """A generator alone in a slice is its tensor with identities beside it."""
    a = algebra(spec)
    tensor = {
        "node": a.node, "cap": a.cap, "cup": a.cup, "x": a.crossing,
        "t+": a.twist, "t-": a.twist_inverse(),
    }[kind]
    n_in, n_out = ribbon.ARITY[kind]
    for pos in range(width - n_in + 1):
        expected = {}
        for ins in iproduct(range(a.dim), repeat=width):
            for key, v in tensor.items():
                if key[:n_in] == ins[pos : pos + n_in]:
                    outs = ins[:pos] + key[n_in:] + ins[pos + n_in :]
                    expected[(ins, outs)] = v
        d = RibbonDiagram(width, ((kind, pos),))
        want = LinearBlock(width, width - n_in + n_out, expected)
        assert evaluate(d, a) == want, (spec, kind, width, pos)


def test_singular_twist_errors():
    from halftwist.linalg import SingularMatrixError

    base = algebra("cl(1,0)")
    twist = dict(base.twist)
    twist[(1, 1)] = ZERO
    broken = custom_from_tensors(
        base.node, base.cap, base.cup, base.crossing, twist,
        base.vertex_weight, base.parity,
    )
    with pytest.raises(SingularMatrixError):
        evaluate(parse("bottom 1\nt-"), broken)


def test_slice_fill_semantics():
    # "t+ t+" twists both strands in one slice
    a = algebra("cl(1,0)")
    both = evaluate(parse("cup / t+ t+ / t+ t+ / cap"), a).scalar()
    assert both == CycloNum(2)  # full twist on both strands undoes itself
    one = evaluate(parse("cup / id t+ / id t+ / cap"), a).scalar()
    assert one == ZERO  # superdimension of cl(1,0)
