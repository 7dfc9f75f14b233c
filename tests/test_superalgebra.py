import hashlib
import random
import re
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
    build_clifford_complex,
    build_clifford_real,
    build_matrix,
    custom_from_tensors,
    derived_structures,
    direct_sum,
    parse_algebra,
    supertensor,
)
from halftwist import superalgebra
from halftwist.linalg import CELL_CEILING, SingularMatrixError
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


def test_algebra_from_text_drops_zero_entries():
    a = algebra("cl(1,0)")
    b = algebra_from_text(algebra_to_text(a) + "C 1 1 1 0\nB 0 1 0\nstar 1 0 0\n")
    assert b.node == a.node and b.cap == a.cap and b.star == a.star


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
