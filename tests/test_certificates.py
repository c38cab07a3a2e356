"""Tests for the 46 auxiliary LP cases and their exact dual certificates."""

import time
from fractions import Fraction

import pytest

from minecc.certificates import (
    A_TABLE,
    B_TABLE,
    DualCertificate,
    TABLE_DIGEST,
    all_cases,
    build_lp_a,
    build_lp_b,
    case_to_lp,
    embedded_certificate,
    solve_aux_numeric,
    table_digest,
    verify_all,
    verify_certificate,
)
from minecc.lp import export_lp_text

from conftest import lp_from_rows

F = Fraction


def objective_by_name(case):
    return dict(zip(case.var_names, case.objective))


class TestBuildFamilyA:
    def test_q1_objective(self):
        obj = objective_by_name(build_lp_a(1))
        assert obj["chi"] == F(7, 16)
        assert obj["w1"] == F(-1, 2)
        assert all(obj[f"w{j}"] == 0 for j in range(2, 7))

    def test_q6_chi_coefficient(self):
        assert objective_by_name(build_lp_a(6))["chi"] == F(3, 4)

    def test_constraint_count(self):
        for q in range(1, 7):
            assert len(build_lp_a(q).rows) == 10

    def test_rhs_vector(self):
        rhs = [r for _, _, r in build_lp_a(3).rows]
        assert rhs == [0, 0, 0, 0, 0, 1, 1, 1, -2, 0]

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            build_lp_a(0)
        with pytest.raises(ValueError):
            build_lp_a(7)


class TestBuildFamilyB:
    def test_11_objective(self):
        case = build_lp_b(1, 1)
        obj = objective_by_name(case)
        assert case.constant == 1
        assert obj["chi"] == F(-1, 16)
        assert obj["w1"] == F(-1, 2)

    def test_b13_row(self):
        case = build_lp_b(2, 8)
        label, coeffs, rhs = case.rows[12]
        assert label == "B13"
        assert coeffs == {10: F(4), 6: F(-4)}
        assert rhs == 1

    def test_forty_valid_pairs(self):
        pairs = [(p, q) for p in range(1, 6) for q in range(p, 11)]
        assert len(pairs) == 40
        assert len(B_TABLE) == 40

    def test_b14_empty_when_p_is_one(self):
        case = build_lp_b(1, 4)
        label, coeffs, rhs = case.rows[13]
        assert label == "B14" and coeffs == {} and rhs == 1

    def test_invalid_pairs(self):
        with pytest.raises(ValueError):
            build_lp_b(0, 1)
        with pytest.raises(ValueError):
            build_lp_b(3, 2)
        with pytest.raises(ValueError):
            build_lp_b(6, 7)


class TestVerifyCertificate:
    def test_a1_example(self):
        case = build_lp_a(1)
        cert = DualCertificate("A q=1", {"A6": F(1, 2), "A9": F(1, 16)}, F(3, 8))
        bound, ok, failures = verify_certificate(case, cert)
        assert ok and failures == []
        assert bound == F(3, 8)

    def test_b11_example(self):
        case = build_lp_b(1, 1)
        cert = DualCertificate("B p=1 q=1", {"B15": F(4, 7), "B16": F(1, 14)}, F(3, 7))
        bound, ok, _ = verify_certificate(case, cert)
        assert ok and bound == F(3, 7)

    def test_perturbed_dual_fails_stationarity(self):
        case = build_lp_a(1)
        cert = DualCertificate("A q=1", {"A6": F(1, 2), "A9": F(1, 8)}, F(3, 8))
        _, ok, failures = verify_certificate(case, cert)
        assert not ok
        assert any("stationarity" in f for f in failures)

    def test_negative_dual_rejected(self):
        case = build_lp_a(1)
        cert = DualCertificate("A q=1", {"A6": F(-1, 2)}, F(0))
        _, ok, failures = verify_certificate(case, cert)
        assert not ok and any("negative" in f for f in failures)

    def test_single_bit_corruption_detected(self):
        # Flip one numerator in every embedded certificate; each must fail.
        for case in all_cases()[:6]:
            cert = embedded_certificate(case)
            label = sorted(cert.duals)[0]
            bad = dict(cert.duals)
            bad[label] = bad[label] + F(1, 10**9)
            _, ok, _ = verify_certificate(case, DualCertificate(cert.case_id, bad, cert.claimed))
            assert not ok

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            verify_certificate(
                build_lp_a(1), DualCertificate("A q=1", {"Z9": F(1)}, F(0))
            )


class TestVerifyAll:
    def test_all_46(self):
        report = verify_all()
        assert report.verified == 46
        assert report.max_bound == F(1, 2)
        assert report.ok

    def test_spot_bounds(self):
        spot = {
            ("A", None, 1): F(3, 8),
            ("A", None, 2): F(1, 2),
            ("A", None, 6): F(29, 63),
            ("B", 1, 1): F(3, 7),
            ("B", 5, 10): F(851, 1760),
        }
        for case in all_cases():
            key = (case.family, case.p, case.q)
            if key in spot:
                bound, ok, _ = verify_certificate(case, embedded_certificate(case))
                assert ok and bound == spot[key]

    def test_all_bounds_at_most_half(self):
        for table in (A_TABLE, B_TABLE):
            for _, bound in table.values():
                assert F(bound) <= F(1, 2)

    def test_under_a_second(self):
        start = time.perf_counter()
        verify_all()
        assert time.perf_counter() - start < 1.0

    def test_digest_matches(self):
        assert table_digest() == TABLE_DIGEST


class TestNumericCrossCheck:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: build_lp_a(1), 0.375),
            (lambda: build_lp_a(2), 0.5),
            (lambda: build_lp_b(2, 4), 0.5),
        ],
    )
    def test_known_optima(self, builder, expected):
        assert solve_aux_numeric(builder()) == pytest.approx(expected, abs=1e-6)

    def test_numeric_never_exceeds_certificate(self):
        for case in all_cases():
            bound = float(embedded_certificate(case).claimed)
            assert solve_aux_numeric(case) <= bound + 1e-6

    def test_certificates_are_tight(self):
        # The embedded duals are optimal, so the primal optimum attains them.
        for case in all_cases():
            bound = float(embedded_certificate(case).claimed)
            assert solve_aux_numeric(case) == pytest.approx(bound, abs=1e-6)

    def test_case_exports_as_lp_text(self):
        text = export_lp_text(case_to_lp(build_lp_b(1, 1)))
        assert "Maximize" in text and "chi" in text

    def test_block_build_equals_the_row_by_row_model(self):
        # case_to_lp builds its rows as CSR arrays; the model is the one
        # written out row by row, with each row's pairs in the case's order.
        for case in all_cases():
            lp = lp_from_rows(
                "max",
                [(name, 0.0, 16.0, float(coef)) for name, coef in zip(case.var_names, case.objective)],
                [([(j, float(c)) for j, c in coeffs.items()], "<=", float(rhs))
                 for _, coeffs, rhs in case.rows],
                constant=float(case.constant),
            )
            assert case_to_lp(case) == lp, case.case_id
