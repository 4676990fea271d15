import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import enumerate_fields_oracle

from hilbertcm.quadcm import (
    CmFieldData,
    FieldValidationError,
    QuadElem,
    conj,
    enumerate_fields,
    field_violations,
    is_totally_negative,
    norm,
    trace,
    validate_cm_field,
)

coords = st.integers(-30, 30)


def elem5(x, y):
    return QuadElem(5, x, y)


def elems(D=5):
    return st.builds(QuadElem, st.just(D), coords, coords)


class TestQuadElem:
    def test_uv_roundtrip(self):
        e = QuadElem.from_uv(5, -13, 1)
        assert (e.x, e.y) == (-9, 1)
        assert (e.u, e.v) == (-13, 1)

    def test_uv_parity(self):
        with pytest.raises(ValueError):
            QuadElem.from_uv(5, -13, 2)

    def test_context_requirement(self):
        with pytest.raises(ValueError):
            QuadElem(6, 0, 1)
        with pytest.raises(ValueError):
            QuadElem(-5, 0, 1)

    def test_omega_square(self):
        omega = elem5(0, 1)
        assert omega * omega == elem5(-5, 5)  # omega**2 = 5*omega - 5

    def test_mixed_context(self):
        with pytest.raises(ValueError):
            elem5(1, 0) + QuadElem(13, 1, 0)

    def test_int_coercion(self):
        assert elem5(2, 1) - 2 == elem5(0, 1)
        assert 3 * elem5(1, 1) == elem5(3, 3)

    @given(elems(), elems(), elems())
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


class TestConjNormTrace:
    def test_conj_omega(self):
        assert conj(elem5(0, 1)) == elem5(5, -1)

    def test_conj_rational(self):
        assert conj(elem5(7, 0)) == elem5(7, 0)

    def test_conj_flips_v(self):
        delta = QuadElem.from_uv(5, -13, 1)
        assert (conj(delta).u, conj(delta).v) == (-13, -1)

    @given(elems(13))
    def test_conj_involution(self, e):
        assert conj(conj(e)) == e

    def test_norm_examples(self):
        assert norm(QuadElem.from_uv(5, -13, 1)) == 41
        assert norm(QuadElem.from_uv(5, -5, -1)) == 5
        assert trace(elem5(0, 1)) == 5

    @given(elems(), elems())
    def test_norm_multiplicative(self, a, b):
        assert norm(a * b) == norm(a) * norm(b)

    @given(elems(), elems())
    def test_trace_additive(self, a, b):
        assert trace(a + b) == trace(a) + trace(b)

    @given(elems(17))
    def test_norm_is_self_times_conj(self, e):
        prod = e * conj(e)
        assert prod.y == 0
        assert prod.x == norm(e)


class TestTotallyNegative:
    def test_examples(self):
        assert is_totally_negative(QuadElem.from_uv(5, -13, 1))
        assert not is_totally_negative(QuadElem.from_uv(5, -1, 1))
        assert is_totally_negative(QuadElem.from_uv(5, -18, 4))

    @given(elems())
    def test_equivalent_to_norm_trace(self, e):
        assert is_totally_negative(e) == (norm(e) > 0 and trace(e) < 0)


class TestValidate:
    def test_dtilde_41(self, field41):
        assert field41.dtilde == 41
        assert (field41.u, field41.v) == (-13, 1)
        q = field41.w * field41.w - field41.delta
        assert q == QuadElem(5, 4, 4)

    def test_zeta5(self, zeta5):
        assert zeta5.dtilde == 5
        q = zeta5.w * zeta5.w - zeta5.delta
        assert (q.x % 4, q.y % 4) == (0, 0)

    def test_congruence_failure(self):
        with pytest.raises(FieldValidationError) as info:
            validate_cm_field(5, (-13, 1), (0, 0))
        assert info.value.code == "w-congruence"

    @pytest.mark.parametrize(
        "D,delta,w,code",
        [
            (9, (-13, 1), (0, 1), "d-not-prime"),
            (7, (-13, 1), (0, 1), "d-mod-4"),
            (5, (-1, 1), (0, 1), "delta-not-totally-negative"),
            (5, (-8, 2), (0, 1), "dtilde-mod-4"),  # Dtilde = 11 = 3 mod 4
            (5, (-15, 3), (0, 1), "dtilde-not-squarefree"),  # Dtilde = 45
            (5, (-3, 1), (0, 1), "dtilde-square"),  # Dtilde = 1
        ],
    )
    def test_error_codes(self, D, delta, w, code):
        with pytest.raises(FieldValidationError) as info:
            validate_cm_field(D, delta, w)
        assert info.value.code == code

    def test_violations_list(self):
        codes = [code for code, _ in field_violations(6, (-13, 1), (0, 1))]
        assert codes == ["d-not-prime", "d-mod-4"]

    def test_accepts_quadelem_inputs(self, field41):
        cm = validate_cm_field(
            5, QuadElem.from_uv(5, -13, 1), QuadElem(5, 0, 1)
        )
        assert cm == field41

    def test_validated_invariants(self, field41, field61, zeta5):
        for cm in (field41, field61, zeta5):
            assert cm.dtilde % 4 == 1
            q = cm.w * cm.w - cm.delta
            assert q.x % 4 == 0 and q.y % 4 == 0
            assert is_totally_negative(cm.delta)


class TestEnumerate:
    def test_small_bound_contains_examples(self):
        fields = enumerate_fields(5, 100)
        dtildes = {cm.dtilde for cm in fields}
        assert {5, 41, 61} <= dtildes
        assert all(isinstance(cm, CmFieldData) for cm in fields)

    def test_entries_revalidate(self):
        for cm in enumerate_fields(13, 400):
            revalidated = validate_cm_field(cm.D, cm.delta, cm.w)
            assert revalidated.dtilde == cm.dtilde

    def test_dedup_key_unique(self):
        fields = enumerate_fields(5, 500)
        keys = [(cm.dtilde, cm.w.x % 2, cm.w.y % 2) for cm in fields]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("D, bound", [(5, 600), (13, 600)])
    def test_against_sixteen_pair_oracle(self, D, bound):
        fields = enumerate_fields(D, bound)
        got = [(cm.dtilde, cm.u, cm.v, cm.w.x, cm.w.y) for cm in fields]
        assert got == enumerate_fields_oracle(D, bound)

    def test_bad_d(self):
        with pytest.raises(ValueError):
            enumerate_fields(6, 100)
