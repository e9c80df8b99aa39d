import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from constel import contfrac
from constel.algebra import ExponentOverflow, MultiPoly, XSeries
from constel.cli import run
from constel.paths import f_poly


def capture(argv):
    """Run the CLI in process and collect (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


class TestBasicCommands:
    def test_fn_text(self):
        rc, out, err = capture(["fn", "--p", "3", "--n", "2"])
        assert rc == 0 and err == ""
        assert out == "V1^2*V2^2 + V1*V2^2*V3 + V1*V2*V3*V4\n"

    def test_fn_json_roundtrip(self):
        rc, out, _ = capture(["fn", "--p", "3", "--n", "1", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["p"] == 3 and payload["n"] == 1 and payload["r"] == 0
        assert MultiPoly.from_json(payload["result"]) == f_poly(3, 1, 0)

    def test_contfrac_lines(self):
        rc, out, _ = capture(["contfrac", "--p", "2", "--order", "2"])
        assert rc == 0
        assert out.splitlines() == ["t^0: 1", "t^1: V1", "t^2: V1^2 + V1*V2"]

    def test_hankel_and_invert(self):
        rc, out, _ = capture(["hankel", "--p", "3", "--m", "2", "--n", "0"])
        assert rc == 0 and out.strip() == "V1*V2"
        rc, out, _ = capture(["invert", "--p", "3", "--i", "4"])
        assert rc == 0 and out.strip() == "V4"

    def test_euler_series_variants(self):
        for what, extra in (("v", []), ("y", []), ("xv", []),
                            ("vi", ["--i", "2"]),
                            ("vi-closed", ["--i", "2"]),
                            ("f", ["--n", "1"]), ("f1", ["--n", "1"]),
                            ("t", ["--n", "5"])):
            rc, out, _ = capture(["euler-series", "--what", what,
                                  "--order", "4", *extra])
            assert rc == 0 and out.strip(), what

    def test_euler_series_json(self):
        rc, out, _ = capture(["euler-series", "--what", "t", "--n", "4",
                              "--order", "3", "--json"])
        assert rc == 0
        payload = json.loads(out)
        got = XSeries.from_json(payload["result"])
        # fourth ladder entry is 1 - 2xV = 1 - 2x - 4x^2 - 16x^3
        assert got.univar_coeffs(1) == [1, -2, -4, -16]

    def test_euler_verify(self):
        rc, out, _ = capture(["euler-verify", "--kmax", "1", "--order", "6"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2 and all(line.startswith("ok") for line in lines)


class TestLGVCommand:
    def test_agreement(self):
        rc, out, err = capture(["lgv", "--p", "3", "--m", "1", "--n", "1"])
        assert rc == 0 and err == ""
        assert "disjoint count:  1" in out

    def test_json(self):
        rc, out, _ = capture(["lgv", "--p", "2", "--m", "1", "--n", "1",
                              "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["disjoint_count"] == 1
        assert payload["signed_sum"] == payload["determinant"]

    def test_corrupted_tables_exit_one(self, crooked_walks):
        crooked_walks(lambda p, n, r: MultiPoly.one())
        rc, out, err = capture(["lgv", "--p", "3", "--m", "1", "--n", "1"])
        assert rc == 1
        assert "identity violation" in err


class TestVerifyAll:
    ARGS = ["verify-all", "--p", "2", "--n-max", "1", "--order", "3"]

    def test_all_green(self):
        rc, out, err = capture(self.ARGS)
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[-1].endswith("0 failures")
        assert all(line.startswith("ok  ") for line in lines[:-1])

    def test_deterministic_output(self):
        first = capture(self.ARGS)
        second = capture(self.ARGS)
        assert first == second

    def test_default_report_bytes_are_pinned(self):
        # digest of the default report (169 lines, "168 checks, 0 failures");
        # any change to a check, its order or its text shows here
        rc, out, err = capture(["verify-all"])
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "cfc1b27977a32fcb37bc48c4d4884ba2f68d4f52dc4ad16e883c24cbfb4586fb"

    def test_contfrac_bytes_are_pinned(self):
        # digests of the text and JSON expansions; the per-level truncation
        # order of the nested fraction must not change a byte of either
        for argv, digest in (
                (["contfrac", "--p", "3", "--order", "9"],
                 "eff36123bce9e10ab4e14836be96736f1510b2eef8ecca4e15e61665ab36dd6c"),
                (["contfrac", "--p", "2", "--order", "10", "--json"],
                 "baf1feeab0d634417651bd0a1e61e510eb1eb954fd173d54a66e8d46ba9d5b13")):
            rc, out, err = capture(argv)
            assert rc == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_fn_bytes_are_pinned(self):
        # digests of a 2187-term JSON and a 2048-term text polynomial: the
        # decoding of packed keys must not move a term or change a byte
        for argv, digest in (
                (["fn", "--p", "3", "--n", "8", "--json"],
                 "6038b4e0fcae895de2afd3c65fa175ddccc80d840b37ba7b0bb2476e482dc278"),
                (["fn", "--p", "2", "--n", "12"],
                 "3d1dd0f9b0519e7a1191c00f5f8e011f60c31828b37b8f028e08ca96ed9ecab3")):
            rc, out, err = capture(argv)
            assert rc == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_series_determinant_bytes_are_pinned(self):
        # digests of the cubic-case determinant ladder: euler-verify, and
        # t_n at n = 22, 28, 31, the 7x7, 9x9 and 10x10 series determinants
        for argv, digest in (
                (["euler-verify"],
                 "e445fe86eb5935ea8e22be72aeb2a81358f828fe1b64c4167622dc28f68c90f3"),
                (["euler-series", "--what", "t", "--n", "22", "--order", "10"],
                 "0e7ecfaead0a9888c379e6d2b6a94bca5eb58b7987acf38e0b8a3947683cbe15"),
                (["euler-series", "--what", "t", "--n", "28", "--order", "10",
                  "--json"],
                 "2f16008ac58d64085e52de0f9004a4d8df3603aea042ae77cef597613cf9608b"),
                (["euler-series", "--what", "t", "--n", "31", "--order", "8"],
                 "a2c10b8f6c38a13e3be8e594f2dd7fcbf78fd32e8e547b120d9cff92fd4f6212")):
            rc, out, err = capture(argv)
            assert rc == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_polynomial_determinant_bytes_are_pinned(self):
        # digests of banded determinants, their ratios and the path-system
        # picture, each through det_elements over MultiPoly
        for argv, digest in (
                (["hankel", "--p", "2", "--m", "0", "--n", "6", "--json"],
                 "665f166f301ea194e7465e4a58b3dde87bdbc479299ed6711949ba7ca0dcda69"),
                (["hankel", "--p", "3", "--m", "1", "--n", "4"],
                 "c12dd6a34d7e623e853778e243dc41d351a4f95e0c8cad4c348f8c0a99b68a66"),
                (["invert", "--p", "3", "--i", "16"],
                 "c6abd8db3f370df9b78c36eca12af1f359ba9cb182eca6937ad93a956e249802"),
                (["invert", "--p", "4", "--i", "11", "--json"],
                 "a1251a0e420b632f88cb9f2720fc46aaa962b1b278f0620f625aa90b662bc455"),
                (["lgv", "--p", "3", "--m", "1", "--n", "2", "--json"],
                 "7edc4f044ff3214bed1f13495f78db7480bc70b8af3f37dc81d687ca6eab4818")):
            rc, out, err = capture(argv)
            assert rc == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_no_p_values_still_runs_shared_suites(self):
        rc, out, _ = capture(["verify-all", "--p", "--n-max", "1",
                              "--order", "3"])
        assert rc == 0
        lines = out.splitlines()
        assert sum(line.startswith("ok   solver.") for line in lines) == 5
        assert sum(line.startswith("ok   euler.") for line in lines) == 7
        assert lines[-1] == "12 checks, 0 failures"


class TestUsageErrors:
    def test_missing_command(self):
        rc, _, _ = capture([])
        assert rc == 2

    def test_unknown_command(self):
        rc, _, _ = capture(["frobnicate"])
        assert rc == 2

    def test_bad_values(self):
        assert capture(["fn", "--p", "1", "--n", "0"])[0] == 2
        assert capture(["fn", "--p", "3", "--n", "-1"])[0] == 2
        assert capture(["fn", "--p", "3", "--n", "0", "--r", "3"])[0] == 2
        assert capture(["hankel", "--p", "3", "--m", "0", "--n", "-2"])[0] == 2
        assert capture(["invert", "--p", "3", "--i", "0"])[0] == 2
        assert capture(["lgv", "--p", "3", "--m", "0", "--n", "4"])[0] == 2
        assert capture(["euler-series", "--what", "vi", "--order", "4"])[0] == 2
        assert capture(["euler-series", "--what", "t", "--n", "0",
                        "--order", "4"])[0] == 2
        assert capture(["verify-all", "--p", "2", "1"])[0] == 2


class TestResourceErrors:
    @pytest.mark.parametrize("error", [MemoryError(),
                                       ExponentOverflow("degree 70000")])
    def test_exit_two_with_one_line(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(contfrac, "expand_fraction", fail)
        rc, out, err = capture(["contfrac", "--p", "3", "--order", "4"])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("input too large: ")
        assert "Traceback" not in err
