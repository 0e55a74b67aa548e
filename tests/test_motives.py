"""Tests for weight-graded Frobenius data of groups."""
import pytest

from motivesums import motives
from motivesums.exactalg import IntPolynomial, SymbolicPolynomial
from motivesums.motives import ArtinTateMotive, GradedPiece, motive_of


def weights(m):
    return [p.weight for p in m.pieces]


def charpolys(m):
    return {p.weight: p.charpoly.coeffs for p in m.pieces}


def test_gl_weights_and_charpolys():
    m = motive_of({"GL": 3})
    assert weights(m) == [1, 2, 3]
    assert all(c == (1, -1) for c in charpolys(m).values())


def test_sl_drops_weight_one():
    m = motive_of({"SL": 4})
    assert weights(m) == [2, 3, 4]


def test_sl1_is_empty():
    assert motive_of({"SL": 1}).pieces == ()


def test_unitary_alternates_sign():
    m = motive_of({"U": 3})
    assert charpolys(m) == {1: (1, 1), 2: (1, -1), 3: (1, 1)}


def test_symplectic_even_weights():
    m = motive_of({"Sp": 6})
    assert weights(m) == [2, 4, 6]
    assert all(c == (1, -1) for c in charpolys(m).values())


def test_odd_orthogonal_matches_symplectic():
    assert charpolys(motive_of({"SO": 7})) == charpolys(motive_of({"Sp": 6}))


def test_sp_rejects_odd_size():
    with pytest.raises(ValueError):
        motive_of({"Sp": 3})


def test_product_merges_equal_weights():
    m = motive_of({"Product": [{"GL": 2}, {"GL": 2}]})
    assert weights(m) == [1, 2]
    assert charpolys(m)[1] == (1, -2, 1)


def test_restriction_of_scalars_rescales_frobenius():
    m = motive_of({"Res": [2, {"U": 2}]})
    assert charpolys(m) == {1: (1, 0, 1), 2: (1, 0, -1)}


def test_json_string_input():
    # a description is decoded once, by the caller: a JSON string is not one
    assert weights(motive_of({"Sp": 4})) == [2, 4]
    with pytest.raises(ValueError, match="single-key object"):
        motive_of('{"Sp": 4}')


def test_quotient_trivial_removes_one_eigenvalue():
    m = motive_of({"GL": 2}).quotient_trivial()
    assert weights(m) == [2]
    m2 = motive_of({"Product": [{"GL": 1}, {"GL": 1}]}).quotient_trivial()
    assert charpolys(m2) == {1: (1, -1)}


def test_quotient_trivial_requires_weight_one():
    with pytest.raises(ValueError):
        motive_of({"Sp": 4}).quotient_trivial()


def test_quotient_trivial_requires_exact_division():
    m = ArtinTateMotive([GradedPiece(1, IntPolynomial((1, 1)))])
    with pytest.raises(Exception):
        m.quotient_trivial()


def test_frobenius_det_sp4():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    det = motive_of({"Sp": 4}).frobenius_det()
    assert det == (1 - t * q) * (1 - t * q**3)


def test_frobenius_det_printing_order():
    det = motive_of({"GL": 2}).frobenius_det()
    assert str(det) == "1 - t - t*q + t^2*q"


def test_frobenius_det_factors():
    factors = motive_of({"Sp": 4}).frobenius_det_factors()
    assert [str(f) for f in factors] == ["1 - t*q", "1 - t*q^3"]


def test_induced_unitary_det():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    det = motive_of({"Res": [2, {"U": 1}]}).frobenius_det()
    assert det == 1 + t**2


def test_graded_piece_validation():
    with pytest.raises(ValueError):
        GradedPiece(1, IntPolynomial((2, 1)))
    with pytest.raises(ValueError):
        GradedPiece(-1, IntPolynomial((1,)))
    with pytest.raises(ValueError):
        GradedPiece(0, IntPolynomial((1, -1)))


def test_bad_specs_rejected():
    for bad in ({"GL": 0}, {"XX": 2}, {"Res": [2]}, {"Product": []}, {"GL": 2, "SL": 2}):
        with pytest.raises(ValueError):
            motive_of(bad)


def test_equal_motives_from_different_routes_hash_equal():
    one_minus = IntPolynomial((1, -1))
    one_plus = IntPolynomial((1, 1))
    # GL_2 as given, with its pieces listed backwards, and as GL_1 x SL_2;
    # Res_2 GL_1 as one piece 1 - u^2 and as two weight-1 pieces merged
    routes = [
        [
            motive_of({"GL": 2}),
            ArtinTateMotive([GradedPiece(2, one_minus), GradedPiece(1, one_minus)]),
            motive_of({"Product": [{"GL": 1}, {"SL": 2}]}),
        ],
        [
            motive_of({"Res": [2, {"GL": 1}]}),
            ArtinTateMotive([GradedPiece(1, one_minus), GradedPiece(1, one_plus)]),
            motive_of({"Product": [{"GL": 1}, {"U": 1}]}),
            ArtinTateMotive([GradedPiece(1, IntPolynomial((1, 0, -1)))]),
        ],
    ]
    table = {}
    for label, motives in enumerate(routes):
        assert len(set(motives)) == 1
        assert len({hash(m) for m in motives}) == 1
        table[motives[0]] = label
    for label, motives in enumerate(routes):
        assert [table[m] for m in motives] == [label] * len(motives)
    assert routes[0][0] != routes[1][0]


def test_the_motive_memo_tells_value_types_apart():
    # with {"SL": 2} and {"SL": 1} stored, a bool, a float or a string in
    # the same place is still refused, not served the int's motive
    assert weights(motive_of({"SL": 2})) == [2]
    assert motive_of({"SL": 1}).pieces == ()
    for bad in ({"SL": True}, {"SL": 2.0}, {"SL": "2"}, {"Res": [2.0, {"SL": 2}]}, {"Res": [True, {"SL": 2}]}):
        with pytest.raises(ValueError, match="must be a positive integer"):
            motive_of(bad)
    assert motive_of({"SL": 2}) is motive_of({"SL": 2})


def test_a_refused_description_is_not_stored():
    stored = motives._motive_of.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="symplectic size must be even"):
            motive_of({"Sp": 5})
        with pytest.raises(ValueError, match="must be a positive integer"):
            motive_of({"GL": 2.0})
    with pytest.raises(ValueError, match="JSON values"):
        motive_of({"SL": {2}})
    assert motives._motive_of.cache_info().currsize == stored
