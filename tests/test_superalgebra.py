import gc
import hashlib
import random
import re
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from math import prod

import pytest

from halftwist import (
    CycloNum,
    HalfTwistAlgebra,
    I,
    ONE,
    SQRT2,
    ZERO,
    algebra_from_text,
    algebra_to_text,
    build_clifford_complex,
    build_clifford_real,
    build_matrix,
    custom_from_tensors,
    direct_sum,
    parse_algebra,
    supertensor,
    zeta_pow,
)
from halftwist import superalgebra
from halftwist.linalg import CELL_CEILING
from conftest import AXIOM_SUITE_SPECS, algebra
from test_golden import SPECS as GOLDEN_SPECS


def test_clifford_1_0_tensors():
    a = algebra("cl(1,0)")
    assert a.dim == 2
    assert a.labels == ("1", "G1")
    assert a.parity == (0, 1)
    assert a.cap == {(0, 0): SQRT2, (1, 1): SQRT2}
    assert a.twist == {(0, 0): ONE, (1, 1): I}
    assert a.vertex_weight == ONE / SQRT2
    assert a.generators == (1,)
    assert a.unit() == a.basis_element(0)
    assert [a.counit(a.basis_element(x)) for x in range(2)] == [SQRT2, ZERO]
    assert a.nakayama() == {(0, 0): ONE, (1, 1): ONE}
    assert a.full_twist() == {(0, 0): ONE, (1, 1): CycloNum(-1)}
    assert a.product_tensor()[(1, 1, 0)] == ONE


def test_clifford_ground_field():
    a = build_clifford_real(0, 0, SQRT2)
    assert a.dim == 1
    assert a.cap == {(0, 0): SQRT2}
    assert a.twist == {(0, 0): ONE}
    assert a.vertex_weight == SQRT2


def test_clifford_negative_generator_twist():
    # One generator squaring to -1 picks up the conjugate phase.
    a = algebra("cl(0,1)")
    assert a.twist[(1, 1)] == -I


def test_clifford_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_clifford_real(1, 0, ZERO)
    with pytest.raises(ValueError):
        build_clifford_real(1, 0, I)
    with pytest.raises(ValueError):
        build_clifford_real(5, 4)


def test_clifford_generator_cap():
    # The cap counts every generator, the I of clc(n) included.
    assert build_clifford_complex(7).dim == 256
    for build, spec in (
        (lambda: build_clifford_complex(8), "clc(8)"),
        (lambda: build_clifford_real(9, 0), "cl(9,0)"),
        (lambda: build_clifford_real(5, 4), "cl(5,4)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{spec} has more than 8 generators")):
            build()


def test_clifford_anticommutation():
    a = algebra("cl(2,0)")
    g1 = a.basis_element(a.index_of_label("G1"))
    g2 = a.basis_element(a.index_of_label("G2"))
    g12 = a.basis_element(a.index_of_label("G1G2"))
    assert g1 * g2 == g12
    assert g2 * g1 == -g12
    assert g1 * g1 == a.unit()


def test_complex_clifford_twist_table():
    a = algebra("clc(1)")
    assert a.dim == 4
    table = {a.labels[x]: v for (x, _), v in a.twist.items()}
    assert table == {"1": ONE, "I": -ONE, "G1": I, "G1I": -I}
    # I is even and central, G's odd
    assert a.parity[a.index_of_label("I")] == 0
    assert a.parity[a.index_of_label("G1")] == 1
    i_elt = a.basis_element(a.index_of_label("I"))
    g = a.basis_element(a.index_of_label("G1"))
    assert i_elt * g == g * i_elt
    assert i_elt * i_elt == -a.unit()


def test_complex_clifford_counit_and_unit():
    a = algebra("clc(1)")
    counit = a.counit(a.basis_element(0))
    assert counit == CycloNum(2) * SQRT2  # alpha 2^{(n+2)/2} with n = 1
    assert a.counit(a.basis_element(a.index_of_label("I"))) == ZERO
    assert a.unit() == a.basis_element(0)
    assert algebra("clc(0)").dim == 2


def test_matrix_twist_and_grading():
    a = algebra("mat(1|1)")
    assert a.dim == 4
    e12 = a.index_of_label("e12")
    e21 = a.index_of_label("e21")
    e11 = a.index_of_label("e11")
    e22 = a.index_of_label("e22")
    assert a.twist[(e12, e21)] == I
    assert a.twist[(e11, e11)] == ONE
    assert a.twist[(e22, e22)] == ONE  # diagonal odd-odd entry is even
    assert a.parity[e22] == 0 and a.parity[e12] == 1
    assert a.vertex_weight == CycloNum(Fraction(1, 2))


def test_matrix_even_case():
    a = algebra("mat(2|0)")
    assert all(p == 0 for p in a.parity)
    # transpose twist, trace-form cap
    e12 = a.index_of_label("e12")
    e21 = a.index_of_label("e21")
    assert a.twist[(e12, e21)] == ONE
    assert a.cap[(e12, e21)] == ONE


def test_matrix_rejects_empty():
    with pytest.raises(ValueError):
        build_matrix(0, 0)


def test_oversize_constructors_refused_before_building(monkeypatch):
    # Every constructor builds the graded-swap crossing, dim^2 entries.
    assert 38**4 <= CELL_CEILING < 39**4
    with pytest.raises(ValueError, match=rf"mat\(39\|0\).*ceiling of {CELL_CEILING}"):
        build_matrix(39, 0)
    with pytest.raises(ValueError, match=r"clc\(7\) \(x\) clc\(7\).*65536"):
        parse_algebra("clc(7) (x) clc(7)")
    monkeypatch.setattr(superalgebra, "CELL_CEILING", 15)
    with pytest.raises(ValueError, match=r"cl\(1,0\) \(\+\) cl\(1,0\).*ceiling of 15"):
        parse_algebra("cl(1,0) (+) cl(1,0)")
    monkeypatch.setattr(superalgebra, "CELL_CEILING", 16)
    assert parse_algebra("cl(1,0) (+) cl(1,0)").dim == 4


def _with_crossing(base, crossing):
    return custom_from_tensors(
        base.node, base.cap, base.cup, crossing, base.twist,
        base.vertex_weight, base.parity, labels=base.labels, alpha=base.alpha,
    )


def test_has_swap_crossing_checks_in_place(monkeypatch):
    def no_table(parity):
        raise AssertionError("the expected crossing was built")

    built = [algebra(s) for s in ("cl(0,0)", "cl(1,0)", "cl(2,1)", "clc(1)", "mat(2|1)", "mat(2|0)")]
    base = algebra("cl(1,1)")
    monkeypatch.setattr(superalgebra, "_swap_crossing", no_table)
    for a in built:
        assert a.has_swap_crossing(), a.spec
    odd_odd = next(k for k in base.crossing if base.parity[k[0]] and base.parity[k[1]])
    even_odd = next(k for k in base.crossing if not base.parity[k[0]] and base.parity[k[1]])
    assert base.crossing[odd_odd] == -ONE and base.crossing[even_odd] == ONE
    broken = [
        {**base.crossing, odd_odd: ONE},  # sign lost on an odd pair
        {**base.crossing, even_odd: -ONE},  # sign put on an even pair
        {**base.crossing, even_odd: I},
        {k: v for k, v in base.crossing.items() if k != odd_odd},  # entry missing
        {**{k: v for k, v in base.crossing.items() if k != odd_odd}, (0, 1, 0, 1): ONE},
        {**base.crossing, (0, 1, 0, 1): ONE},  # one entry too many
    ]
    for crossing in broken:
        a = _with_crossing(base, crossing)
        assert a.crossing == crossing and a.dim == len(a.parity)
        assert not a.has_swap_crossing()
        with pytest.raises(ValueError, match="graded swap crossing"):
            direct_sum(a, base)
        with pytest.raises(ValueError, match="graded swap crossing"):
            supertensor(base, a)
    assert _with_crossing(base, dict(base.crossing)).has_swap_crossing()
    monkeypatch.undo()
    for a in (direct_sum(base, base), supertensor(base, built[2])):
        assert a.has_swap_crossing()


def test_unitality_everywhere():
    for spec in ("cl(1,0)", "cl(2,1)", "clc(1)", "mat(2|1)",
                  "cl(1,0) (+) cl(0,1)", "cl(1,0) (x) mat(1|1)"):
        a = algebra(spec)
        one = a.unit()
        for x in range(a.dim):
            e = a.basis_element(x)
            assert one * e == e
            assert e * one == e


def test_direct_sum_structure():
    a = algebra("cl(1,0) (+) cl(1,0)")
    assert a.dim == 4
    assert a.labels == ("A.1", "A.G1", "B.1", "B.G1")
    # cross products vanish, blocks multiply componentwise
    left = a.basis_element(1)
    right = a.basis_element(3)
    assert (left * right).is_zero()
    assert left * left == a.basis_element(0)


def test_direct_sum_mismatch_errors():
    a = algebra("cl(1,0)")
    with pytest.raises(ValueError, match="alpha mismatch"):
        direct_sum(a, build_clifford_real(1, 0, CycloNum(2)))
    with pytest.raises(ValueError, match="vertex weight mismatch"):
        direct_sum(a, algebra("cl(2,0)"))
    degenerate = custom_from_tensors({}, {}, {}, {}, {}, ONE, ())
    with pytest.raises(ValueError, match="zero-dimensional"):
        direct_sum(a, degenerate)


def test_labels_of_another_length_are_refused():
    base = algebra("cl(1,0)")
    message = "labels length does not match parity length"
    with pytest.raises(ValueError, match=message):
        custom_from_tensors(
            base.node, base.cap, base.cup, base.crossing, base.twist,
            base.vertex_weight, base.parity, labels=("x",),
        )
    kwargs = {f.name: getattr(base, f.name) for f in fields(HalfTwistAlgebra) if f.init}
    assert HalfTwistAlgebra(**kwargs).labels == base.labels
    with pytest.raises(ValueError, match=message):
        HalfTwistAlgebra(**{**kwargs, "labels": ("x",)})


def test_supertensor_koszul_sign():
    t = algebra("cl(1,0) (x) cl(1,0)")
    g1 = t.basis_element(t.index_of_label("G1*1"))
    g2 = t.basis_element(t.index_of_label("1*G1"))
    gg = t.basis_element(t.index_of_label("G1*G1"))
    assert g1 * g2 == gg
    assert g2 * g1 == -gg


def test_supertensor_matches_rank_two_clifford():
    # G1*1 -> G1, 1*G1 -> G2 identifies the product with cl(2,0); the
    # half twist eigenvalue on the top monomial is -1 on both sides.
    t = algebra("cl(1,0) (x) cl(1,0)")
    c2 = algebra("cl(2,0)")
    gg = t.index_of_label("G1*G1")
    g12 = c2.index_of_label("G1G2")
    assert t.twist[(gg, gg)] == CycloNum(-1) == c2.twist[(g12, g12)]
    assert t.vertex_weight == c2.vertex_weight
    assert t.cap[(gg, gg)] == c2.cap[(g12, g12)] == -CycloNum(2)


def test_supertensor_associative_after_flattening():
    a, b, c = algebra("cl(1,0)"), algebra("cl(0,1)"), algebra("mat(1|1)")
    left = supertensor(supertensor(a, b), c)
    right = supertensor(a, supertensor(b, c))
    assert left.node == right.node
    assert left.cap == right.cap
    assert left.cup == right.cup
    assert left.twist == right.twist
    assert left.crossing == right.crossing
    assert left.parity == right.parity
    assert left.vertex_weight == right.vertex_weight


def test_custom_round_trip_and_validation():
    a = algebra("cl(1,0)")
    c = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, a.vertex_weight,
        a.parity, labels=a.labels, alpha=a.alpha, star=a.star,
    )
    assert c.node == a.node and c.cap == a.cap and c.twist == a.twist
    assert c.spec is None and c.generators is None
    with pytest.raises(ValueError, match="indices"):
        custom_from_tensors({(0, 0): ONE}, {}, {}, {}, {}, ONE, (0,))
    with pytest.raises(ValueError, match="out of range"):
        custom_from_tensors({}, {(0, 5): ONE}, {}, {}, {}, ONE, (0,))
    # singular cap is accepted here; rejection is the checker's job
    singular = custom_from_tensors({}, {(0, 0): ZERO}, {}, {}, {}, ONE, (0, 1))
    assert singular.dim == 2
    # A custom algebra keeps the crossing it is given, even an empty one.
    assert singular.crossing == {}
    # Outside tensors are the one input that may hold zeros; none is stored.
    assert singular.cap == {}


def test_one_dimensional_custom_passes_derivations():
    alpha = CycloNum(2)
    c = custom_from_tensors(
        node={(0, 0, 0): alpha},
        cap={(0, 0): alpha},
        cup={(0, 0): alpha.inverse()},
        crossing={(0, 0, 0, 0): ONE},
        twist={(0, 0): ONE},
        vertex_weight=alpha,
        parity=(0,),
        alpha=alpha,
    )
    assert c.unit() == c.basis_element(0)
    assert c.counit(c.basis_element(0)) == alpha


def test_full_twist_is_parity_for_constructors():
    for spec in ("cl(2,1)", "clc(2)", "mat(2|1)"):
        a = algebra(spec)
        phi = a.full_twist()
        expected = {
            (x, x): (-ONE if p else ONE) for x, p in enumerate(a.parity)
        }
        assert phi == expected


def test_full_twist_automorphism_all_pairs():
    a = algebra("cl(2,0)")
    phi = a.full_twist()

    def apply_phi(elt):
        coeffs = [ZERO] * a.dim
        for (x, y), v in phi.items():
            coeffs[y] = coeffs[y] + elt.coeffs[x] * v
        return a.element(coeffs)

    for x in range(a.dim):
        for y in range(a.dim):
            ex, ey = a.basis_element(x), a.basis_element(y)
            assert apply_phi(ex * ey) == apply_phi(ex) * apply_phi(ey)
            assert a.eta(apply_phi(ex), apply_phi(ey)) == a.eta(ex, ey)


def test_twist_spectra_separate_signatures():
    # Same dimension, conjugate twist spectra: (p,q) vs (q,p).
    for p, q in ((1, 0), (2, 0), (2, 1)):
        a = algebra(f"cl({p},{q})")
        b = algebra(f"cl({q},{p})")
        assert a.dim == b.dim
        spec_a = sorted((v.coeffs for (_, _), v in a.twist.items()))
        spec_b = sorted((v.conjugate().coeffs for (_, _), v in b.twist.items()))
        assert spec_a == spec_b


def test_star_twist_inverse_entries():
    # star . twist . star = inverse twist, entrywise on the diagonal family
    for spec in ("cl(2,1)", "clc(1)", "mat(1|1)"):
        a = algebra(spec)
        for x in range(a.dim):
            e = a.basis_element(x)
            lhs = a.apply_star(_apply(a.twist, a.apply_star(e)))
            rhs = _apply(a.twist_inverse(), e)
            assert lhs == rhs


def _apply(matrix, elt):
    coeffs = [ZERO] * elt.algebra.dim
    for (x, y), v in matrix.items():
        if not elt.coeffs[x].is_zero():
            coeffs[y] = coeffs[y] + elt.coeffs[x] * v
    return elt.algebra.element(coeffs)


def test_parse_algebra_grammar():
    assert parse_algebra("cl(1,0)").spec == "cl(1,0)"
    assert parse_algebra("cl(1,0) (x) mat(1|1)").dim == 8
    assert parse_algebra("cl(1,0) (+) cl(0,1)").dim == 4
    assert parse_algebra("cl(1,0)@alpha=z-z^3").alpha == SQRT2
    assert parse_algebra("(cl(1,0) (+) cl(0,1))@alpha=2").alpha == CycloNum(2)
    # (x) binds tighter than (+)
    mixed = parse_algebra("cl(2,0) (+) cl(1,0) (x) cl(1,0)")
    assert mixed.dim == 4 + 4
    assert mixed.spec == "cl(2,0) (+) cl(1,0) (x) cl(1,0)"
    assert parse_algebra("cl(1,0)", default_alpha=SQRT2).alpha == SQRT2


@pytest.mark.parametrize(
    "bad",
    ["", "cl(1)", "cl(1,0) (+)", "wat", "cl(1,0)))", "cl(1,0)@alpha=0",
     "(cl(1,0) (+) cl(0,1))@alpha=0", "cl(1,0)@alpha=2/0"],
)
def test_parse_algebra_rejects(bad):
    with pytest.raises(ValueError):
        parse_algebra(bad)


def test_spec_tree_shows_precedence_chains_and_alpha_scope():
    tree = superalgebra._spec_tree
    assert tree("cl(2,0) (+) cl(1,0) (x) cl(1,0)") == (
        "(+)", ("cl", 2, 0), ("(x)", ("cl", 1, 0), ("cl", 1, 0))
    )
    # A chain is one n-ary node, however long.
    assert tree("cl(1,0) (x) clc(1) (x) mat(1|1)") == (
        "(x)", ("cl", 1, 0), ("clc", 1), ("mat", 1, 1)
    )
    assert tree("(cl(1,0) (+) cl(0,1))@alpha=2") == (
        "@alpha", ("(+)", ("cl", 1, 0), ("cl", 0, 1)), CycloNum(2)
    )
    assert len(tree(" (+) ".join(["cl(0,0)"] * 3000))) == 3001


def test_grouped_alpha_scales_its_group():
    # An @alpha= literal ends at a parenthesis, so it may close a group or
    # touch an operator; an inner alpha wins over an outer one.
    want = algebra_to_text(parse_algebra("cl(1,0)@alpha=2 (x) cl(0,1)"))
    for spec in ("(cl(1,0)@alpha=2) (x) cl(0,1)", "cl(1,0)@alpha=2(x)cl(0,1)"):
        a = parse_algebra(spec)
        assert a.alpha == CycloNum(2)
        assert algebra_to_text(a) == want
    assert parse_algebra("(cl(1,0)@alpha=2)@alpha=3").alpha == CycloNum(2)


def test_spec_nesting_is_capped():
    cap = superalgebra.MAX_SPEC_NESTING
    assert cap == 64
    assert parse_algebra("(" * cap + "cl(1,0)" + ")" * cap).spec == "cl(1,0)"
    with pytest.raises(ValueError, match=f"deeper than {cap}"):
        parse_algebra("(" * (cap + 1) + "cl(1,0)" + ")" * (cap + 1))


def test_a_long_chain_builds_without_recursion():
    # Far past the interpreter's recursion limit, which a chain never meets.
    assert parse_algebra(" (x) ".join(["cl(0,0)"] * 3000)).dim == 1


@pytest.mark.parametrize("spec", sorted(set(GOLDEN_SPECS + AXIOM_SUITE_SPECS)))
def test_respellings_build_the_same_algebra(spec):
    want = algebra_to_text(algebra(spec))
    for respelled in (
        re.sub(r"\s*(\(\+\)|\(x\))\s*", r"\1", spec),
        "  " + spec.replace(" ", "  ") + "  ",
        f"({spec})",
        f"{spec}@alpha=1",
    ):
        assert algebra_to_text(parse_algebra(respelled)) == want, respelled


GROUPED_SPECS = (
    "(cl(1,0) (+) cl(0,1)) (x) cl(1,0)",
    "cl(1,0) (x) (cl(1,0) (+) cl(0,1))",
    "cl(1,0) (+) (cl(0,1) (+) cl(1,0))",
)


@pytest.mark.parametrize(
    "spec", sorted(set(GOLDEN_SPECS + AXIOM_SUITE_SPECS)) + list(GROUPED_SPECS)
)
def test_spec_names_the_algebra(spec):
    # spec is read back as the same algebra; a (+) operand keeps its parentheses.
    a = algebra(spec)
    assert algebra_to_text(parse_algebra(a.spec)) == algebra_to_text(a)
    if spec in GROUPED_SPECS:
        assert a.spec == spec
    # A constructor's algebra is a frozen record with dim and the crossing
    # derived from parity.
    assert a.dim == len(a.parity)
    assert a.crossing == superalgebra._swap_crossing(a.parity)
    for f in fields(a):
        with pytest.raises(FrozenInstanceError):
            setattr(a, f.name, getattr(a, f.name))


@pytest.mark.parametrize(
    "spec",
    ["(cl(1,0)@alpha=2) (x) cl(0,1)", "cl(1,0) (+) (cl(0,1) (x) mat(1|0))",
     "(cl(1,0) (+)", "cl(1,0) (x) cl(0,1)@alpha=0", "(" * 70 + "cl(1,0)"],
)
def test_parsing_leaves_no_cycle(spec):
    gc.collect()
    gc.disable()
    try:
        try:
            parse_algebra(spec)
        except ValueError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_algebra_from_text_rejects_zero_denominator():
    text = algebra_to_text(algebra("cl(1,0)")).replace("alpha 1", "alpha 1/0")
    with pytest.raises(ValueError, match="line 2: zero denominator"):
        algebra_from_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim -3\n", "line 1: negative dim -3"),
        ("dim 2\nlabel 5 x\n", "label index 5 outside 0..1"),
        ("dim 2\nparity -1 1\n", "parity index -1 outside 0..1"),
        ("dim 2\nparity 0 2\n", "line 2: parity 2 is not 0 or 1"),
        ("dim 1\nC 0 0\n", "line 2: C record needs 3 indices and a value"),
        ("dim 1\nlam 0 0 0 0\n", "line 2: lam record needs 4 indices and a value"),
        ("dim 1\nlabel 0\n", "line 2: label record needs an index and a value"),
        ("dim 1\nparity\n", "line 2: parity record needs an index and a value"),
        ("dim 1\ndim 2\n", "line 2: repeated dim header"),
        ("dim 1\nalpha 1\nalpha 2\n", "line 3: repeated alpha header"),
        ("R 1\ndim 1\nR 2\n", "line 3: repeated R header"),
        ("dim 2\nlabel 0 x\nlabel 0 y\n", "line 3: repeated label 0"),
        ("dim 2\nparity 1 0\nparity 1 1\n", "line 3: repeated parity 1"),
        ("dim 1\nB 0 0 1\nB 0 0 2\n", "line 3: repeated B 0 0"),
        ("dim 1\nB 0 0 0\nB 0 0 2\n", "line 3: repeated B 0 0"),
    ],
)
def test_algebra_from_text_rejects_malformed_records(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        algebra_from_text(text)


def test_algebra_from_text_drops_zero_entries():
    a = algebra("cl(1,0)")
    b = algebra_from_text(algebra_to_text(a) + "C 1 1 1 0\nB 0 1 0\nstar 1 0 0\n")
    assert b.node == a.node and b.cap == a.cap and b.star == a.star


def test_serialization_round_trip():
    for spec in ("cl(1,0)", "clc(1)", "mat(1|1)", "cl(1,0) (x) cl(0,1)"):
        a = algebra(spec)
        text = algebra_to_text(a)
        b = algebra_from_text(text)
        assert b.dim == a.dim == len(b.parity)
        assert b.labels == a.labels
        assert b.parity == a.parity
        assert b.node == a.node
        assert b.cap == a.cap
        assert b.cup == a.cup
        assert b.crossing == a.crossing
        assert b.twist == a.twist
        assert b.star == a.star
        assert b.vertex_weight == a.vertex_weight
        assert b.alpha == a.alpha
        assert algebra_to_text(b) == text
        # Read without its lam records, the algebra keeps an empty crossing.
        no_crossing = "".join(l for l in text.splitlines(True) if not l.startswith("lam "))
        assert algebra_from_text(no_crossing).crossing == {}


def test_unit_requires_a_special_algebra():
    # Doubling R keeps a two-sided unit (a solve finds one), but the disk's
    # state sum becomes twice that unit, so the algebra is no longer special.
    a = algebra("cl(1,0)")
    c = custom_from_tensors(
        a.node, a.cap, a.cup, a.crossing, a.twist, CycloNum(2) * a.vertex_weight,
        a.parity,
    )
    with pytest.raises(ValueError, match="not special"):
        c.unit()
    # e_a e_b = e_b (and its mirror e_a e_b = e_a): R sum_a e_a is a unit on
    # one side only.
    half = CycloNum(Fraction(1, 2))
    delta = {(0, 0): ONE, (1, 1): ONE}
    swap = {(a, b, b, a): ONE for a in range(2) for b in range(2)}
    for keep in (1, 0):
        node = {(a, b, (a, b)[keep]): ONE for a in range(2) for b in range(2)}
        one_sided = custom_from_tensors(node, delta, delta, swap, delta, half, (0, 0))
        with pytest.raises(ValueError, match="not special"):
            one_sided.unit()


# sha256 of algebra_to_text plus (spec, generators) over CONSTRUCTOR_ALPHAS,
# one digest per spec, written by the constructors before the Clifford
# builders shared one monomial routine.
CONSTRUCTOR_ALPHAS = ("1", "-1", "z-z^3", "1/3")
CONSTRUCTOR_DIGESTS = {
    "cl(0,0)": "fdc68a501c00732c468f55032a7c6d45e26e5fa64ac3fe6a39e8ef71929374f3",
    "cl(0,1)": "ce15372c88a0b3a93556a3c9b516fe9ba087f3d9f17b3094d009532dc6c0f9d5",
    "cl(1,0)": "4395b9e72d9be12affdd36efbc05a2721ae7ca3aefc5a43435f4a879529c608a",
    "cl(0,2)": "90415a886085201f00fd892b22a6bf32eaf6fb6bbae4038b85a11f8079e17422",
    "cl(1,1)": "d8bc1ff7a250dddce8fb98f15122b7e03a25c20b034fc83503cf4842125290b1",
    "cl(2,0)": "64be0bc99e661fe3044e0a3596732ceceb506077271af40ab80699c1b1432bc4",
    "cl(0,3)": "78612525cdbddfe27a7fa844f4850a64c966688300a94a38c0847d5cb2351b53",
    "cl(1,2)": "97b6b990745d46a3dde74744e1d1300ffc7bfd354629212a7a6457c41c665702",
    "cl(2,1)": "4343cca8e80a7b6222eb5916c7e1a875d1ac2a3ce6a473063249a1ff51d74eef",
    "cl(3,0)": "f8cefe776ecd77c494d8ad46663acc8cb910d337394dcf0e2c806ea44ecc1ead",
    "cl(0,4)": "b9219ac3c63767641638f701f2f025a873f2761999fa96c749240aaa2d0d7a18",
    "cl(1,3)": "624b4ba3ac92133f8fc815a22c7abc379bf8313d49a04df7b76d4f425381e678",
    "cl(2,2)": "7b56387211c0e5dd7c8dd63f5bd5371eedb02ba5b5b39e8c84b1fee90e7049fa",
    "cl(3,1)": "65b7acb492f2d7f30461fe818b51f8663cc90d8fdc7ca15ebdb9dd3852b04464",
    "cl(4,0)": "3a59838362efe604ccf46bc120d5632c0bf7808b9589b53dfde7e03351a88f58",
    "cl(0,5)": "04b4e355f0b253fb836bb026a27a5e609f3df882860c8602967f300f42cd545a",
    "cl(1,4)": "5b8ad0d7b8705038bf6b0c10c138a43a4c398622ce2c279cf5c9a36f2f281638",
    "cl(2,3)": "89dcc428926c416a7386bdfb9592ff5dc924e51827861e26e3e6d3b0a4a72886",
    "cl(3,2)": "a38772d76c9905e0cfe5de4475bb6a78701fb9d55bc97f8a41f373fba13208a2",
    "cl(4,1)": "650080df22d023e04016637f44edf4091d7b0d291ebfdd0a64d93876afce60d9",
    "cl(5,0)": "7381449d33f38cf45d7bc51099b8b3af4bfa100c000fde5c5aa5c52e68e6e6c6",
    "cl(0,6)": "55770453a25d9493a448f66fa533faad828df3551ccd982783c335e8017d306a",
    "cl(1,5)": "033c5275513c963cdb75d232b96b66a7ab91cc9421a0b4cbe698b7ea34ea768d",
    "cl(2,4)": "c866c4315f39d27d42ae58db78cd26cd313432e3dba373e96a6d4ba48b3bfb02",
    "cl(3,3)": "2153fd6b2e310b8629aad15a33f85645a3fa76d8c1624d31e3b3108ec7fbbafe",
    "cl(4,2)": "23d31b4eb8a346661be4e42466623b2c521af90807473ee2341c5cff0b1fa8fb",
    "cl(5,1)": "773583916cee40a11af287b1f512bcf672e6933b4e89233247c6a11faeb7fd62",
    "cl(6,0)": "7269d13352ab61141fffaf677e9ebd960bb410654909d8b04e0fb3b391646b25",
    "clc(0)": "9e83ff0e321533cff27e76ea7b0f4a02a9369b65995d306be3c7b124b72277dd",
    "clc(1)": "0134aaa83c77de2d8e446baba52d19f26ec11e4dbe2975a1ed8fcfb86d728591",
    "clc(2)": "a584156405b9f82a0ace96ee4ad6812682f70868abc914d827c364e46ad36ae5",
    "clc(3)": "13bf6441ca99278c34ed6c63a6021cb57d209b226a9b9a675edce7f9ad358219",
    "clc(4)": "7b2b30621b0830aabf47650bd1888e4cd54bde208fefb12668916eab932a3e91",
    "clc(5)": "cf75f17624808ada0c79f25090f83f3f8080fe41ae1e30844d60c21d64bfb2d7",
    "cl(1,0) (x) clc(1)": "121eb7a26acc32eac69d425c838c7c34399cf3b2db1beb2338b50eb4f9de2c36",
    "clc(1) (+) clc(1)": "15ae38e508392af21fae3678526c9ab372b8a7717448aac22965b46bea4b0224",
    "clc(2) (x) cl(0,1)": "58e3fab6b85956657fe6ab008e771efacb2b798903dd255467f978ba03de34e2",
}


@pytest.mark.parametrize("spec", sorted(CONSTRUCTOR_DIGESTS))
def test_constructor_output_is_pinned(spec):
    h = hashlib.sha256()
    for alpha in CONSTRUCTOR_ALPHAS:
        a = parse_algebra(spec, default_alpha=CycloNum.parse(alpha))
        h.update((algebra_to_text(a) + repr((a.spec, a.generators))).encode())
    assert h.hexdigest() == CONSTRUCTOR_DIGESTS[spec]


# -- reference constructors ---------------------------------------------------
# Oracles that work out each tensor entry on its own: one _monomial_sign call
# per Clifford node entry and one multiplication per pair of kron entries.
# The constructors read the Clifford signs off GF(2) masks and multiply each
# distinct pair of kron values once.


def _monomial_sign(s: int, t: int) -> int:
    """Sign of the product of two generator monomials given as bit masks.

    Bit k stands for the generator with index n-k, so numerically smaller
    masks come earlier in the lexicographic basis order.  Moving each
    generator of t into place crosses every generator of s with a strictly
    larger index, i.e. every set bit of s strictly below it.
    """
    total = 0
    tt = t
    while tt:
        low = tt & -tt
        total += (s & (low - 1)).bit_count()
        tt ^= low
    return -1 if total & 1 else 1


def _self_sign(mask: int) -> int:
    """Sign from reversing a monomial: (-1)^(k(k-1)/2) for k generators."""
    k = mask.bit_count()
    return -1 if (k * (k - 1) // 2) & 1 else 1


def _reference_swap(parity):
    return {
        (a, b, b, a): CycloNum(-1 if pa and pb else 1)
        for a, pa in enumerate(parity)
        for b, pb in enumerate(parity)
    }


def _reference_clifford(spec, alpha):
    """cl(p,q) or clc(n) with one _monomial_sign call per node entry.

    The generators are (label, odd, square, phase, star) as in the
    constructors' docstrings: cl(p,q) has G_1..G_n odd, squaring to +1, with
    half twist i for the first p and -i for the rest; clc(n) has G_1..G_n
    with half twist i, then an even central I squaring to -1 with half
    twist -1 and star sign -1.
    """
    counts = [int(x) for x in re.findall(r"\d+", spec)]
    if spec.startswith("clc"):
        (n,) = counts
        gens = [(f"G{j + 1}", True, 1, 2, 1) for j in range(n)] + [("I", False, -1, 4, -1)]
        scale_exp, weight_exp = n + 2, -n
    else:
        p, q = counts
        n = p + q
        gens = [(f"G{j + 1}", True, 1, 2 if j < p else 6, 1) for j in range(n)]
        scale_exp, weight_exp = n, -n
    dim = 1 << len(gens)
    by_bit = {1 << (len(gens) - 1 - j): g for j, g in enumerate(gens)}
    odd = sum(bit for bit, g in by_bit.items() if g[1])
    negative = sum(bit for bit, g in by_bit.items() if g[2] == -1)
    form = alpha * SQRT2 ** scale_exp
    labels, star_sign, twist = [], [], {}
    for m in range(dim):
        members = [g for bit, g in by_bit.items() if m & bit]
        labels.append("".join(g[0] for g in members) or "1")
        star_sign.append(_self_sign(m & odd) * prod(g[4] for g in members))
        twist[(m, m)] = zeta_pow(sum(g[3] for g in members))
    parity = tuple((m & odd).bit_count() & 1 for m in range(dim))
    node = {}
    for a in range(dim):
        for b in range(dim):
            c = a ^ b
            sign = _monomial_sign(a & odd, b & odd) * star_sign[c]
            if (a & b & negative).bit_count() & 1:
                sign = -sign
            node[(a, b, c)] = sign * form
    return HalfTwistAlgebra(
        labels=tuple(labels),
        parity=parity,
        node=node,
        cap={(m, m): s * form for m, s in enumerate(star_sign)},
        cup={(m, m): s * form.inverse() for m, s in enumerate(star_sign)},
        crossing=_reference_swap(parity),
        twist=twist,
        vertex_weight=alpha * SQRT2 ** weight_exp,
        alpha=alpha,
        star={(m, m): CycloNum(s) for m, s in enumerate(star_sign)},
        spec=spec,
        generators=tuple(sorted(by_bit)),
    )


def _reference_supertensor(a, b):
    """The graded product with one multiplication per pair of entries."""
    db = b.dim
    pa, pb = a.parity, b.parity

    def kron(ta, tb, odd):
        out = {}
        for ka, va in ta.items():
            for kb, vb in tb.items():
                v = va * vb
                out[tuple(x * db + i for x, i in zip(ka, kb))] = -v if odd(ka, kb) else v
        return out

    def form_sign(ka, kb):
        return pb[kb[0]] & pa[ka[1]]

    parity = tuple((u + v) & 1 for u in pa for v in pb)
    gens = {g * db + i for g in a.generators for i in range(db)}
    gens |= {x * db + g for x in range(a.dim) for g in b.generators}
    return HalfTwistAlgebra(
        labels=tuple(f"{la}*{lb}" for la in a.labels for lb in b.labels),
        parity=parity,
        node=kron(
            a.node,
            b.node,
            lambda ka, kb: (pb[kb[0]] & pa[ka[1]]) ^ ((pb[kb[0]] ^ pb[kb[1]]) & pa[ka[2]]),
        ),
        cap=kron(a.cap, b.cap, form_sign),
        cup=kron(a.cup, b.cup, form_sign),
        crossing=_reference_swap(parity),
        twist=kron(a.twist, b.twist, lambda ka, kb: 0),
        vertex_weight=a.vertex_weight * b.vertex_weight,
        alpha=a.alpha * b.alpha,
        star=kron(a.star, b.star, lambda ka, kb: pa[ka[0]] & pb[kb[0]]),
        spec=f"{a.spec} (x) {b.spec}",
        generators=tuple(sorted(gens)),
    )


def _assert_same_algebra(got, want):
    # These fields determine algebra_to_text, whose bytes the digests pin.
    for field in ("dim", "labels", "parity", "node", "cap", "cup", "crossing", "twist",
                  "star", "vertex_weight", "alpha", "spec", "generators"):
        assert getattr(got, field) == getattr(want, field), (want.spec, field)


CLIFFORD_SPECS = tuple(
    f"cl({p},{n - p})" for n in range(7) for p in range(n + 1)
) + tuple(f"clc({n})" for n in range(5))


@pytest.mark.parametrize("spec", CLIFFORD_SPECS)
def test_clifford_matches_the_per_entry_signs(spec):
    # A negative alpha flips the sign of the form, so it tests the signs too.
    # CONSTRUCTOR_DIGESTS pins algebra_to_text of each of these specs.
    alpha = CycloNum(Fraction(-1, 3))
    _assert_same_algebra(parse_algebra(spec, alpha), _reference_clifford(spec, alpha))


# sha256 of algebra_to_text plus (spec, generators) of x (x) y for every
# acceptance atom y with a product of dim at most 32, in order, one digest
# per atom x, written while kron formed one product per pair of entries.
PRODUCT_DIGESTS = {
    "cl(0,0)": "23f712bd92f419b4a7d469e975fc78f5c19aaa55bc71746e3acb67e35d469dc1",
    "cl(0,1)": "6032d0691b9f46e1c91ea3088e8dbf2f5ebf480d3e3108702e081ab4f8874ff3",
    "cl(0,2)": "89262eee3bf1858110484d673e3b6aad1972ec4b13d168785a2d951cf6f03cb4",
    "cl(0,3)": "ba51ae128f09de9da75f7d4d177b1661c1595543c9ecee70cae833702b374b57",
    "cl(0,4)": "e4f620d90ec51052e9c49357437da7c88a52847dd37ce676fe6895b3fb5b23cb",
    "cl(1,0)": "78099a5e84acd6c30c11e840f1ed8a8274ce633f3095cbb8de8883b91220eaa9",
    "cl(1,1)": "8bdcc3323e3f8364550fbbc745e54b3305b0dfb8efc8b776a97d9af11abc7d8a",
    "cl(1,2)": "b8518f8bb7e9de07a09b7ce991fc9d557dd0b56fce9ba253a6063a2d4ccfb0ad",
    "cl(1,3)": "bbc1bc107492e36882ae0a928bcd713b70e9946a1f90fdbfb19d30095c21e1e0",
    "cl(2,0)": "4fa47682c802b8e44d6b1ef17cca53d298cceda89888f6a2f54e4c1822a6a9c8",
    "cl(2,1)": "6a2d419c9e3b81b4313478cb6e9bf52a14f698950d743763cab05a356ca6c964",
    "cl(2,2)": "dedbb0e23bc46799bf68f0e775b9d78f930a8f3e77d7654a5b33a99096085803",
    "cl(3,0)": "435a2c5b5cd4a22327cabf8d856dc599de1adda26f0fe33abbd2bdccae7f3e33",
    "cl(3,1)": "ad1cba807d7a0535630e9e1ee59bc98242752e947b91a8085fa95d3e42a6f075",
    "cl(4,0)": "a13a1a3a004d4651e03e30308ef65591155c572d87dd59f9080532349af4a6fd",
    "clc(0)": "0c0f506b81d16ff637ead4774e0d5d47f84ee240d715bdaba184eb9833d9f034",
    "clc(1)": "150baa85840311b83e33bc317f85c02f1e196e807807c45c15af8bd478328cd5",
    "clc(2)": "8258bf37617b104e0a8219f815d01974c64de5f11e7e91e4d9ca3aaa162b4cbd",
    "mat(1|1)": "bafa61eaf014bca359548e7174ea2d59efe28f590c1090551acf8ba15e2f8f35",
    "mat(2|0)": "3fed26c8e19a74d2f2579c92a294834a14d1cc139c73a00e20bb410b31f52e75",
    "mat(2|1)": "c429fe06d35df451eecfc6910bccaec1f6d816245ff3cbf14853b57525056811",
}


def test_product_digests_cover_the_acceptance_atoms():
    atoms = {atom for spec in AXIOM_SUITE_SPECS for atom in re.split(r" \((?:x|\+)\) ", spec)}
    assert set(PRODUCT_DIGESTS) == atoms


@pytest.mark.parametrize("x", sorted(PRODUCT_DIGESTS))
def test_supertensor_matches_the_per_entry_kron(x):
    h = hashlib.sha256()
    for y in sorted(PRODUCT_DIGESTS):
        if algebra(x).dim * algebra(y).dim <= 32:
            a = parse_algebra(f"{x} (x) {y}")
            _assert_same_algebra(a, _reference_supertensor(algebra(x), algebra(y)))
            h.update((algebra_to_text(a) + repr((a.spec, a.generators))).encode())
    assert h.hexdigest() == PRODUCT_DIGESTS[x]


ELEMENT_SPECS = (
    "cl(1,0)", "clc(1)", "mat(1|1)", "cl(2,0) (+) mat(2|0)",
    "clc(1) (x) cl(1,0)", "cl(2,2)",
)


def _random_cyclo(rng):
    return CycloNum(*(rng.randint(-2, 2) for _ in range(4)))


def _random_coeffs(rng, dim):
    """Dense coefficients, about a third of them zero."""
    return [_random_cyclo(rng) if rng.random() < 0.7 else ZERO for _ in range(dim)]


@pytest.mark.parametrize("alpha", ["1", "-1"])
@pytest.mark.parametrize("spec", ELEMENT_SPECS)
def test_element_operations_match_dense_loops(spec, alpha):
    a = algebra(spec, alpha)
    rng = random.Random(f"{spec}@{alpha}")
    unit = a.unit().coeffs

    def eta(x, y):
        return sum((x[i] * y[j] * v for (i, j), v in a.cap.items()), start=ZERO)

    for _ in range(4):
        xs, ys = _random_coeffs(rng, a.dim), _random_coeffs(rng, a.dim)
        x, y = a.element(xs), a.element(ys)
        s = _random_cyclo(rng)
        prod = [ZERO] * a.dim
        for (i, j, k), v in a.product_tensor().items():
            prod[k] = prod[k] + xs[i] * ys[j] * v
        star = [ZERO] * a.dim
        for (i, j), v in a.star.items():
            star[j] = star[j] + xs[i].conjugate() * v
        expected = {
            "mul": (x * y, prod),
            "star": (a.apply_star(x), star),
            "add": (x + y, [p + q for p, q in zip(xs, ys)]),
            "sub": (x - y, [p - q for p, q in zip(xs, ys)]),
            "neg": (-x, [-p for p in xs]),
            "scaled": (x.scaled(s), [s * p for p in xs]),
        }
        for name, (got, want) in expected.items():
            assert got.coeffs == tuple(want), name
            assert all(not v.is_zero() for v in got.vector.values()), name
        assert a.eta(x, y) == eta(xs, ys)
        assert a.counit(x) == eta(unit, xs)
        assert a.element(x.coeffs) == x

    for zero in (x - x, 0 * x, x * a.element([ZERO] * a.dim)):
        assert zero.is_zero() and zero.vector == {}
        assert zero.render() == "0"
    with pytest.raises(TypeError):
        hash(x)
