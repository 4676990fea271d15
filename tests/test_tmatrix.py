import pytest

from hilbertcm.exactnum import prime_factors
from hilbertcm.quadcm import CmFieldData, QuadElem, enumerate_fields
from hilbertcm.tmatrix import (
    TMatrixError,
    admissible_n,
    all_tmatrices,
    build_tmatrix,
    mu_signs,
)


class TestAdmissibleN:
    def test_dtilde_41(self, field41):
        assert admissible_n(field41) == [(1, (1,))]

    def test_zeta5_empty(self, zeta5):
        assert admissible_n(zeta5) == []

    def test_dtilde_61(self, field61):
        assert admissible_n(field61) == [(1, (1,))]

    def test_both_signs_when_d_divides_n(self, field145):
        # Dtilde = 145: n = 5 is divisible by D = 5, so both signs appear.
        assert (5, (1, -1)) in admissible_n(field145)

    def test_ascending(self, field109):
        ns = [n for n, _ in admissible_n(field109)]
        assert ns == sorted(ns)


class TestBuildTMatrix:
    def test_example_41(self, field41):
        T = build_tmatrix(field41, 1, 1)
        assert T.entries() == (24, -8, 3)
        assert T.det == 8
        assert T.quarter_det == 2

    def test_example_61(self, field61):
        T = build_tmatrix(field61, 1, 1)
        assert T.entries() == (39, -12, 4)
        assert T.det == 12

    def test_wrong_sign(self, field41):
        with pytest.raises(TMatrixError, match="not integral"):
            build_tmatrix(field41, 1, -1)

    def test_non_admissible_n(self, field41):
        with pytest.raises(TMatrixError, match="not admissible"):
            build_tmatrix(field41, 2, 1)

    def test_bad_mu(self, field41):
        with pytest.raises(TMatrixError):
            build_tmatrix(field41, 1, 2)

    def test_both_signs_give_distinct_matrices(self, field145):
        plus = build_tmatrix(field145, 5, 1)
        minus = build_tmatrix(field145, 5, -1)
        assert plus.entries() != minus.entries()
        assert plus.det == minus.det == (145 - 25) // 5


class TestStructuralChecks:
    """Field data built directly, skipping validation, can break the
    structural guarantees; build_tmatrix refuses it with TMatrixError."""

    @pytest.mark.parametrize(
        "u, v, n, mu, message",
        [
            (-58, -6, 4, -1, "diagonal mod-4 pattern"),  # Dtilde = 796 = 0 mod 4
            (-57, -3, 9, 1, "prime 3 divides both"),  # Dtilde = 801 = 9 * 89
        ],
    )
    def test_rejects(self, u, v, n, mu, message):
        delta = QuadElem.from_uv(5, u, v)
        cm = CmFieldData(5, delta, QuadElem(5, 0, 1), (u * u - 5 * v * v) // 4, u, v)
        with pytest.raises(TMatrixError, match=message):
            build_tmatrix(cm, n, mu)

    def test_rejects_under_python_O(self, run_under_python_O):
        out = run_under_python_O(f"{__file__}::TestStructuralChecks::test_rejects")
        assert "2 passed" in out


class TestUniqueness:
    def test_brute_force_agreement(self):
        from oracles import brute_force_tmatrices

        for cm in enumerate_fields(5, 300):
            for n, mus in admissible_n(cm):
                for mu in mus:
                    T = build_tmatrix(cm, n, mu)
                    hits = brute_force_tmatrices(cm, n, mu)
                    assert hits == [(T.a, T.b, T.c)], (cm.describe(), n, mu)


class TestInvariants:
    @pytest.mark.parametrize("D,bound", [(5, 500), (13, 500)])
    def test_structural_sweep(self, D, bound):
        for cm in enumerate_fields(D, bound):
            for T in all_tmatrices(cm):
                det = (cm.dtilde - T.n * T.n) // D
                assert T.det == det > 0
                assert det % 4 == 0
                assert T.a + D * T.b + (D * D - D) // 4 * T.c == -T.mu * T.n
                assert T.a > 0
                # delta reconstruction through (u, v)
                assert 2 * T.mu * T.n - D * T.c == cm.u
                assert -(2 * T.b + D * T.c) == cm.v
                # diagonal pattern: strict when exactly one w-coordinate is
                # odd; both entries are -1 mod 4 in the (odd, odd) w class
                pattern = (T.a % 4, T.c % 4)
                if cm.w.x % 2 and cm.w.y % 2:
                    assert pattern == (3, 3)
                else:
                    assert pattern in {(0, 3), (3, 0)}
                for q in prime_factors(det):
                    assert T.a % q or T.c % q

    def test_mu_signs_match_congruence(self, field41, field61):
        for cm in (field41, field61):
            for n, mus in admissible_n(cm):
                assert mus == mu_signs(cm, n)
                for mu in mus:
                    assert (cm.u - 2 * mu * n) % cm.D == 0 or n % cm.D == 0
