import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath import mp

from hilbertcm import __version__, gzmoduli, intersect
from hilbertcm.cli import main
from hilbertcm.quadcm import enumerate_fields


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


class TestValidate:
    def test_valid_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--D", "5", "--delta", "-13,1", "--w", "0,1"
        )
        assert code == 0
        assert "Dtilde=41" in out

    def test_congruence_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--D", "5", "--delta", "-13,1", "--w", "0,0"
        )
        assert code == 1
        assert "w-congruence" in out

    def test_not_prime(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--D", "6", "--delta", "-13,1", "--w", "0,1"
        )
        assert code == 1
        assert "d-not-prime" in out

    def test_d_past_primality_limit(self, capsys):
        code, _, err = run_cli(
            capsys, "validate", "--D", "318665857834031151167461",
            "--delta", "-13,1", "--w", "0,1",
        )
        assert code == 1
        assert "proven only below 318665857834031151167461" in err

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "validate", "--D", "5", "--delta", "-13,1", "--w", "0,1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["Dtilde"] == 41


class TestUsageErrors:
    def test_delta_parity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["validate", "--D", "5", "--delta", "-13,2", "--w", "0,1"])
        assert info.value.code == 2

    def test_malformed_pair(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["validate", "--D", "5", "--delta", "nope", "--w", "0,1"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate-fields", "--D", "5", "--bound", "-5"], "--bound: must be at least 0"),
            (["gz", "--d1", "-3", "--d2", "-7", "--precision", "10"],
             "--precision: must be at least 30"),
            (["intersect", "--D", "5", "--delta", "-13,1", "--w", "0,1", "--jobs", "0"],
             "--jobs: must be at least 1"),
            (["enumerate-fields", "--D", "5", "--bound", "50", "--jobs", "-3"],
             "--jobs: must be at least 1"),
        ],
    )
    def test_out_of_range_value(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out


# Valid fields inside the scanned domain: few random inputs are valid, and
# these make exit 0 and its JSON output reachable.
_VALID_FIELDS = [
    (cm.D, cm.u, cm.v, (cm.w.x, cm.w.y))
    for D in (5, 13, 17, 29)
    for cm in enumerate_fields(D, 3000)
    if abs(cm.u) <= 400 and abs(cm.v) <= 40
]


class TestExitCodeContract:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        command=st.sampled_from([["validate"], ["intersect"], ["intersect", "--verify"]]),
        fmt=st.sampled_from(["text", "json"]),
        field=st.one_of(
            st.tuples(
                st.sampled_from([-5, 0, 1, 4, 5, 9, 13, 17, 29]),
                st.integers(-400, 400),
                st.integers(-40, 40),
                st.tuples(st.integers(-3, 5), st.integers(-3, 5)),
            ),
            st.sampled_from(_VALID_FIELDS),
        ),
    )
    def test_field_commands(self, command, fmt, field):
        D, u, v, w = field
        argv = [*command, "--D", str(D), "--delta", f"{u},{v}", "--w", f"{w[0]},{w[1]}",
                "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code == 0 and fmt == "json":
            json.loads(out.getvalue())


class TestIntersect:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--D", "5", "--delta", "-13,1", "--w", "0,1"
        )
        assert code == 0
        assert "T1.CM(K) = 1*log 2" in out

    def test_verified_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "intersect", "--D", "5", "--delta", "-13,1", "--w", "0,1",
            "--verify", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == 5
        assert payload["Dtilde"] == 41
        assert payload["terms"] == [
            {"p": 2, "coeff": {"num": 1, "den": 1}, "b1": 2}
        ]
        assert payload["verified"] is True

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "intersect", "--D", "5", "--delta", "-18,4", "--w", "1,0",
            "--verify", "--format", "json",
        )
        assert canonical(json.loads(out)) == out.strip()

    def test_unverified_json_lacks_b1(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "intersect", "--D", "5", "--delta", "-18,4", "--w", "1,0",
            "--format", "json",
        )
        payload = json.loads(out)
        assert "verified" not in payload
        assert payload["terms"] == [{"p": 3, "coeff": {"num": 1, "den": 1}}]

    def test_empty_intersection(self, capsys):
        code, out, _ = run_cli(
            capsys, "intersect", "--D", "5", "--delta", "-5,-1", "--w", "1,1"
        )
        assert code == 0
        assert "T1.CM(K) = 0" in out

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run_cli(
            capsys, "intersect", "--D", "5", "--delta", "-13,1", "--w", "0,1",
            "--verify",
        )
        _, json_out, _ = run_cli(
            capsys,
            "intersect", "--D", "5", "--delta", "-13,1", "--w", "0,1",
            "--verify", "--format", "json",
        )
        payload = json.loads(json_out)
        for term in payload["terms"]:
            assert f"p={term['p']}" in text_out
            assert f"b1={term['b1']}" in text_out

    def test_verify_checks_primes_outside_support(self, capsys, monkeypatch):
        # Dtilde = 281: the support is {2, 7}, but the candidate prime 5,
        # which divides some m with c_5 = 0, is checked too.
        real = intersect.b1_at_p
        monkeypatch.setattr(intersect, "b1_at_p", lambda cm, p: 1 if p == 5 else real(cm, p))
        code, out, _ = run_cli(
            capsys,
            "intersect", "--D", "5", "--delta", "-73,29", "--w", "0,1",
            "--verify", "--format", "json",
        )
        assert code == 1
        assert '"verified": false' in out

    def test_verify_jobs_deterministic(self, capsys):
        argv = ["intersect", "--D", "13", "--delta", "-85,19", "--w", "1,1", "--verify"]
        code, seq, _ = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 0
        assert run_cli(capsys, *argv, "--jobs", "2") == (0, seq, "")

    def test_invalid_field_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "intersect", "--D", "5", "--delta", "-13,1", "--w", "0,0"
        )
        assert code == 1
        assert "error" in err


class TestGz:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "gz", "--d1", "-3", "--d2", "-7")
        assert code == 0
        assert "1*log 3 + 1*log 5" in out
        assert "within tolerance" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "gz", "--d1", "-3", "--d2", "-7", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["within_tolerance"] is True
        assert payload["discrepancy"] < 1e-100
        assert payload["terms"] == [
            {"p": 3, "coeff": {"num": 1, "den": 1}},
            {"p": 5, "coeff": {"num": 1, "den": 1}},
        ]
        assert canonical(payload) == out.strip()

    def test_bad_pair(self, capsys):
        code, _, err = run_cli(capsys, "gz", "--d1", "-3", "--d2", "-9")
        assert code == 1
        assert "error" in err

    def test_precision_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "gz", "--d1", "-7", "--d2", "-43", "--precision", "120"
        )
        assert code == 0
        assert "within tolerance (1e-120): yes" in out

    @pytest.mark.parametrize("precision", [30, 60, 200])
    def test_tolerance_follows_precision(self, capsys, monkeypatch, precision):
        # A j off by a factor 1 + 10**-(precision - 5) moves the oracle's log
        # by less than 1e-6, yet by more than the tolerance 10**-precision.
        argv = ("gz", "--d1", "-11", "--d2", "-47", "--precision", str(precision),
                "--format", "json")
        assert run_cli(capsys, *argv)[0] == 0
        j = gzmoduli.j_invariant
        monkeypatch.setattr(
            gzmoduli, "j_invariant", lambda f: j(f) * (1 + mp.mpf(10) ** -(precision - 5))
        )
        code, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 1 and payload["within_tolerance"] is False
        assert 10.0**-precision < payload["discrepancy"] < 1e-6


class TestEnumerate:
    def test_bound_100_contains_examples(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate-fields", "--D", "5", "--bound", "100"
        )
        assert code == 0
        for dtilde in (5, 41, 61):
            assert f"Dtilde={dtilde}" in out
        assert "summary:" in out

    def test_bound_30_all_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate-fields", "--D", "5", "--bound", "30", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fields"], "expected at least one small field"
        for entry in payload["fields"]:
            assert entry["terms"] == []
            assert entry["verified"] is True

    def test_empty_d_list(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate-fields", "--D", "", "--bound", "50"])
        assert info.value.code == 2
        assert "--D: expected at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "d_list, message",
        [
            (",", "expected at least one value"),
            ("5,5", "repeated value 5"),
        ],
    )
    def test_d_list_usage_error(self, capsys, d_list, message):
        # Each field is listed once: a repeated D would list its fields twice.
        with pytest.raises(SystemExit) as info:
            main(["enumerate-fields", "--D", d_list, "--bound", "60"])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_jobs_deterministic(self, capsys):
        _, seq, _ = run_cli(
            capsys, "enumerate-fields", "--D", "5,13", "--bound", "150"
        )
        _, par, _ = run_cli(
            capsys,
            "enumerate-fields", "--D", "5,13", "--bound", "150", "--jobs", "4",
        )
        assert seq == par

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "enumerate-fields", "--D", "5", "--bound", "100", "--format", "json",
        )
        assert canonical(json.loads(out)) == out.strip()
