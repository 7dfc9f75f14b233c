from fractions import Fraction

import pytest

from halftwist import (
    CycloNum,
    I,
    ONE,
    SQRT2,
    ZERO,
    algebra_from_text,
    algebra_to_text,
    build_clifford_real,
    build_matrix,
    custom_from_tensors,
    derived_structures,
    direct_sum,
    parse_algebra,
    supertensor,
)
from halftwist.linalg import SingularMatrixError
from conftest import algebra


def test_clifford_1_0_tensors():
    a = algebra("cl(1,0)")
    assert a.dim == 2
    assert a.labels == ("1", "G1")
    assert a.parity == (0, 1)
    assert a.cap == {(0, 0): SQRT2, (1, 1): SQRT2}
    assert a.twist == {(0, 0): ONE, (1, 1): I}
    assert a.vertex_weight == ONE / SQRT2
    assert a.generators == (1,)


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
    eps = a.counit_vector()
    assert eps[0] == CycloNum(2) * SQRT2  # alpha 2^{(n+2)/2} with n = 1
    assert eps[a.index_of_label("I")] == ZERO
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
    d = derived_structures(c)
    assert d.unit == c.basis_element(0)
    assert d.counit[0] == alpha


def test_derived_structures_clifford():
    a = algebra("cl(1,0)")
    d = derived_structures(a)
    assert d.unit == a.basis_element(0)
    assert d.counit[0] == SQRT2 and d.counit[1] == ZERO
    assert d.nakayama == {(0, 0): ONE, (1, 1): ONE}
    assert d.full_twist == {(0, 0): ONE, (1, 1): CycloNum(-1)}
    assert d.product[(1, 1, 0)] == ONE


def test_derived_structures_rejects_singular_cap():
    broken = custom_from_tensors(
        {}, {(0, 0): ONE}, {(0, 0): ONE}, {}, {}, ONE, (0, 1)
    )
    with pytest.raises(SingularMatrixError):
        derived_structures(broken)


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


def test_algebra_from_text_rejects_zero_denominator():
    text = algebra_to_text(algebra("cl(1,0)")).replace("alpha 1", "alpha 1/0")
    with pytest.raises(ValueError, match="line 2: zero denominator"):
        algebra_from_text(text)


def test_serialization_round_trip():
    for spec in ("cl(1,0)", "clc(1)", "mat(1|1)", "cl(1,0) (x) cl(0,1)"):
        a = algebra(spec)
        text = algebra_to_text(a)
        b = algebra_from_text(text)
        assert b.dim == a.dim
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
