import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

import pytest

import constel
from constel import algebra, contfrac, eulerian, hankel, paths, solver, verify
from constel.algebra import ExponentOverflow, MultiPoly, OutOfRange, XSeries
from constel.cli import run
from constel.hankel import HankelSpec, IdentityViolation
from constel.paths import f_poly

import _props


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

    def test_contfrac_json_streams_the_dumped_payload(self):
        # written a term at a time, yet the bytes of one json.dumps
        for p, order in product((2, 3), (0, 1, 4)):
            rc, out, err = capture(["contfrac", "--p", str(p), "--order",
                                    str(order), "--json"])
            payload = {"command": "contfrac", "p": p,
                       **contfrac.expand_fraction(p, order).to_json()}
            assert rc == 0 and err == ""
            assert out == json.dumps(payload, indent=2) + "\n", (p, order)

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
        assert _props.univar_coeffs(got) == [1, -2, -4, -16]

    def test_euler_verify(self):
        rc, out, _ = capture(["euler-verify", "--kmax", "1", "--order", "6"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2 and all(line.startswith("ok") for line in lines)

    def test_euler_verify_prints_the_ladder_plan(self, monkeypatch, cold_caches):
        # the lines of verify.plan_ladder, a failure's detail included
        _fib_five_off_by_x(monkeypatch)
        rc, out, err = capture(["euler-verify", "--kmax", "1", "--order", "6"])
        assert rc == 1 and err == ""
        assert out.splitlines() == [
            "ok   euler.determinant-ladder kmax=1 order=6",
            "FAIL euler.cleared-substitution n<=6  cleared substitution "
            "fails at [5]"]


class TestLGVCommand:
    def test_agreement(self):
        rc, out, err = capture(["lgv", "--p", "3", "--m", "1", "--n", "1"])
        assert rc == 0 and err == ""
        assert "disjoint count:  1" in out

    def test_one_path_longer_than_the_recursion_limit(self):
        # at p = 1000 the one path has 1000 steps
        rc, out, err = capture(["lgv", "--p", "1000", "--m", "0", "--n", "1"])
        assert rc == 0 and err == ""
        values = dict(map(str.strip, line.split(":")) for line in out.splitlines())
        assert values["disjoint count"] == "1"
        assert values["signed sum"] == values["determinant"] \
            == values["disjoint weight"]

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


class TestCheckPlan:
    # a check plan is a list of (name, params, fn) triples; verify.run runs it

    def test_detail_string_fails(self):
        result, = verify.run([("demo.check", "p=2", lambda: "left: 1 != 2")])
        assert result.ok is False
        assert result.line() == "FAIL demo.check p=2  left: 1 != 2"

    def test_identity_violation_fails(self):
        def broken():
            raise IdentityViolation("ratio is not a polynomial")
        result, = verify.run([("demo.check", "p=2", broken)])
        assert result.ok is False
        assert result.line() == "FAIL demo.check p=2  ratio is not a polynomial"

    def test_refused_series_pivot_fails(self):
        # a t_n ladder refuses a pivot with no unit constant term by the
        # series ring's own error, which fails its check as a violation does
        def broken():
            XSeries.const(2, 3).inv()
        result, = verify.run([("demo.check", "p=2", broken)])
        assert result.line() == \
            "FAIL demo.check p=2  constant term 2 is not a unit"

    def test_unexpected_error_propagates(self, monkeypatch):
        # only the identity errors make a FAIL line: any other exception is
        # a fault of the check itself, and leaves the run and the CLI
        def broken(*args):
            raise KeyError("level 7")
        with pytest.raises(KeyError):
            verify.run([("demo.ok", "p=2", lambda: None),
                        ("demo.check", "p=2", broken)])
        monkeypatch.setattr(verify, "_nilp_check", broken)
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(KeyError):
            run(TestVerifyAll.ARGS)
        assert "FAIL" not in out.getvalue()

    def test_wrong_determinant_fails_verify_all(self, monkeypatch):
        # doubled, every determinant misses its weight product; the factors
        # cancel in the ratio recover_vi takes, so its checks stay ok
        real = hankel.hankel_det
        monkeypatch.setattr(hankel, "hankel_det", lambda spec: real(spec) * 2)
        rc, out, err = capture(TestVerifyAll.ARGS)
        assert rc == 1 and err == ""
        failed = {line.split()[1] for line in out.splitlines()
                  if line.startswith("FAIL ")}
        assert failed == {"hankel.det-collapse", "hankel.lgv-signed-sum"}
        assert "FAIL hankel.det-collapse p=2 m=1 n=0  determinant vs weight " \
            "product: 2*V1 != V1" in out.splitlines()
        assert out.splitlines()[-1] == "37 checks, 10 failures"


def _level_two_bumped(monkeypatch):
    # V_2 += x1^3 in every kmax=2 solve, cached or fresh
    real = solver._Family.solve

    def solve(family, imax):
        levels = real(family, imax)
        if family.cfg.kmax == 2:
            levels[2] = levels[2] + XSeries.var(1, family.cfg.deg) ** 3
        return levels
    monkeypatch.setattr(solver._Family, "solve", solve)


def _second_excursion_bumped(monkeypatch):
    # f_closed(2) += x^5, read by the t_n ladders
    real = eulerian.f_closed

    def f_closed(n, ctx):
        bump = XSeries.var(1, ctx.order) ** 5 if n == 2 else 0
        return real(n, ctx) + bump
    monkeypatch.setattr(eulerian, "f_closed", f_closed)


def _ladder_doubled(monkeypatch):
    # every T_n doubled: the three-term recurrence still holds, so only the
    # comparison with fib_poly(n) at xV can see it
    real = eulerian.t_n
    monkeypatch.setattr(eulerian, "t_n", lambda n, ctx: 2 * real(n, ctx))


def _limit_one_sweep_short(monkeypatch):
    # deg - 1 sweeps of the scalar fixed point from 1, where deg are exact
    def solve_v(cfg):
        v = XSeries.const(1, cfg.deg)
        for _ in range(cfg.deg - 1):
            v = solver.v_update(cfg, v)
        return v
    monkeypatch.setattr(solver, "solve_v", solve_v)


def _top_coefficient_short(monkeypatch):
    # expand_f's top coefficient without its first term; expand_fraction
    # reads expand_f, so the fraction check sees it too, and the Hankel
    # ladders read the shared cells without it
    real = contfrac.expand_f

    def expand_f(p, r, shift=0, order=0):
        coeffs = list(real(p, r, shift, order).coeffs)
        coeffs[-1] = MultiPoly.from_terms(coeffs[-1].sorted_terms()[1:])
        return contfrac.TSeries(coeffs)
    monkeypatch.setattr(contfrac, "expand_f", expand_f)


def _count_two_off_by_one(monkeypatch):
    # count_closed(p, 2, r) one too large, wherever it is read
    real = paths.count_closed

    def count_closed(p, n, r):
        return real(p, n, r) + (n == 2)
    for module in (paths, solver, eulerian):
        monkeypatch.setattr(module, "count_closed", count_closed)


def _top_level_shift_bumped(monkeypatch):
    # f_poly(p, 2, p-1) + 1; the other checks read f_poly at r = 0 only
    real = paths.f_poly
    monkeypatch.setattr(paths, "f_poly", lambda p, n, r:
                        real(p, n, r) + (n == 2 and r == p - 1))


def _fraction_top_short(monkeypatch):
    # expand_fraction's top coefficient without its first term
    real = contfrac.expand_fraction

    def expand_fraction(p, order):
        coeffs = list(real(p, order).coeffs)
        coeffs[-1] = MultiPoly.from_terms(coeffs[-1].sorted_terms()[1:])
        return contfrac.TSeries(coeffs)
    monkeypatch.setattr(contfrac, "expand_fraction", expand_fraction)


def _fifth_weight_as_sixth(monkeypatch):
    # recover_vi(p, 5) answers V6
    real = hankel.recover_vi
    monkeypatch.setattr(hankel, "recover_vi", lambda p, i:
                        MultiPoly.v_var(6) if i == 5 else real(p, i))


def _disjoint_weight_doubled(monkeypatch):
    # nilp_unique's weight doubled at n = 1
    real = hankel.nilp_unique

    def nilp_unique(spec):
        count, weight = real(spec)
        return count, weight * 2 if spec.n == 1 else weight
    monkeypatch.setattr(hankel, "nilp_unique", nilp_unique)


def _empty_path_listed_twice(monkeypatch):
    # the one enumeration both brute-force checks read lists the empty path
    # from (0, 0) twice: its path sum is 2, and two disjoint configurations
    # exist at m = 0
    real = hankel.enumerate_paths
    monkeypatch.setattr(hankel, "enumerate_paths", lambda p, start, end:
                        real(p, start, end) * (1 + (start == end)))


def _fib_five_bumped(monkeypatch, bump):
    # fib_poly(5) + bump, read by the cleared substitution only: the
    # determinant ladder runs the recurrence at xV itself
    real = eulerian.fib_poly
    monkeypatch.setattr(eulerian, "fib_poly",
                        lambda n: real(n) + bump if n == 5 else real(n))


def _fib_five_off_by_x(monkeypatch):
    _fib_five_bumped(monkeypatch, MultiPoly.x_var(1))


def _fib_five_past_degree_bound(monkeypatch):
    # x1^7 has 2*7 > 5 - 1: a term with no cleared form fails, not raises
    _fib_five_bumped(monkeypatch, MultiPoly.x_var(1) ** 7)


def _level_three_closed_bumped(monkeypatch):
    # v_closed(3) + x1^4
    real = eulerian.v_closed
    monkeypatch.setattr(eulerian, "v_closed", lambda i, order: real(i, order) + (
        XSeries.var(1, order) ** 4 if i == 3 else 0))


def _wide_family_bumped(monkeypatch):
    # solve_family's V4 + x2^2: only the cap-doubling side solves afresh
    real = solver.solve_family

    def solve_family(cfg):
        levels = real(cfg)
        levels[4] = levels[4] + XSeries.var(2, cfg.deg) ** 2
        return levels
    monkeypatch.setattr(solver, "solve_family", solve_family)


def _hankel_entry_bumped(crooked_walks):
    # f(4, 0) + 1, one Hankel entry: the ladders that reach it refuse, and
    # the ones that stop short of it give a wrong minor
    crooked_walks(lambda p, n, r: f_poly(p, n, r) + int((n, r) == (4, 0)))


# each row: a seeded fault, and the exact set of check names it fails
FAULT_ROWS = [
    (_level_two_bumped, {"solver.excursions-from-limit",
                         "solver.family-fixed-point",
                         "solver.one-level-splitting"}),
    (_second_excursion_bumped, {"euler.determinant-ladder"}),
    (_ladder_doubled, {"euler.determinant-ladder"}),
    # make_context reads the layered limit itself, not solve_v, so the
    # euler.level-weight-closed-form checks do not see this one
    (_limit_one_sweep_short, {"solver.scalar-fixed-point",
                              "solver.excursions-from-limit"}),
    (_top_coefficient_short, {"contfrac.recursion-vs-paths",
                              "contfrac.fraction-vs-paths"}),
    # one count, three readers: the count check, f_from_v's lead and
    # brackets, and the cubic closed forms the t_n ladders read
    (_count_two_off_by_one, {"paths.count-closed-form",
                             "solver.excursions-from-limit",
                             "euler.determinant-ladder"}),
    (_top_level_shift_bumped, {"paths.top-level-shift"}),
    (_fraction_top_short, {"contfrac.fraction-vs-paths"}),
    # a constant factor on hankel_det would cancel in the ratio: a wrong
    # weight is seen only here
    (_fifth_weight_as_sixth, {"hankel.recover-weight"}),
    (_disjoint_weight_doubled, {"hankel.nilp-unique"}),
    (_empty_path_listed_twice, {"hankel.lgv-signed-sum", "hankel.nilp-unique"}),
    (_fib_five_off_by_x, {"euler.cleared-substitution"}),
    (_fib_five_past_degree_bound, {"euler.cleared-substitution"}),
    (_level_three_closed_bumped, {"euler.level-weight-closed-form"}),
    (_wide_family_bumped, {"solver.cap-doubling"}),
    (_hankel_entry_bumped, {"hankel.det-collapse", "hankel.recover-weight",
                            "hankel.lgv-signed-sum"}),
]


@pytest.mark.parametrize("fault, failing", FAULT_ROWS,
                         ids=[fault.__name__[1:] for fault, _ in FAULT_ROWS])
def test_seeded_fault_fails_exactly(fault, failing, request, cold_caches):
    # the default report under one seeded fault, given the fixture its one
    # parameter names (monkeypatch or crooked_walks): exactly these names fail
    name, = inspect.signature(fault).parameters
    fault(request.getfixturevalue(name))
    rc, out, err = capture(["verify-all"])
    failed = {line.split()[1] for line in out.splitlines()
              if line.startswith("FAIL ")}
    assert failed == failing and err == "" and rc == 1


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

    def test_series_solver_bytes_are_pinned(self):
        # digests of the per-level, closed-form, substitution and limit
        # series of the cubic case; the way the solver computes them must
        # not change a byte of any of them
        for argv, digest in (
                (["euler-series", "--what", "vi", "--i", "6", "--order", "12",
                  "--json"],
                 "974d69f3b2c7feb0077aa1e9879fbbe5c9bfe61457fa036c8fccd2c07d3dbafb"),
                (["euler-series", "--what", "vi-closed", "--i", "5",
                  "--order", "12"],
                 "dd69dac5e47e80fb7ebfa85696a35b90005055cf0892c592d3a193f74fbc209c"),
                (["euler-series", "--what", "y", "--order", "14"],
                 "d599244e263c1ed28ea8795217782446bb6a896ab1b6de90310b111f1d4fdb6e"),
                (["euler-series", "--what", "v", "--order", "12"],
                 "d6ccb475c488b04cacb8d3474c29e740fdd8058bb191e49526988965ba3dea9e")):
            rc, out, err = capture(argv)
            assert rc == 0 and err == ""
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_polynomial_determinant_bytes_are_pinned(self):
        # digests of banded determinants, their ratios and the path-system
        # picture, each a leading minor of a MultiPoly ladder
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
    BAD_VALUES = [
        ["fn", "--p", "1", "--n", "0"],
        ["fn", "--p", "3", "--n", "-1"],
        ["fn", "--p", "3", "--n", "0", "--r", "3"],
        ["hankel", "--p", "3", "--m", "0", "--n", "-2"],
        ["invert", "--p", "3", "--i", "0"],
        ["lgv", "--p", "3", "--m", "0", "--n", "4"],
        ["euler-series", "--what", "vi", "--order", "4"],
        ["euler-series", "--what", "t", "--n", "0", "--order", "4"],
        ["verify-all", "--p", "2", "1"],
    ]

    def test_missing_command(self):
        rc, _, _ = capture([])
        assert rc == 2

    def test_unknown_command(self):
        rc, _, _ = capture(["frobnicate"])
        assert rc == 2

    def test_bad_values(self):
        for argv in self.BAD_VALUES:
            assert capture(argv)[0] == 2, argv

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], *BAD_VALUES,
        ["euler-series", "--what", "f", "--order", "4"],
        ["euler-series", "--what", "vi", "--i", "0", "--order", "-1"],
        ["euler-verify", "--kmax", "-1"],
        ["verify-all", "--p", "--n-max", "-1"]], ids=" ".join)
    def test_one_stderr_line(self, argv):
        rc, out, err = capture(argv)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("constel")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify-all", "euler-verify"])
    def test_negative_order_names_the_option(self, command):
        # verify-all once passed min(order, 4) to the solver, whose refusal
        # named its own field: "deg must be >= 0"
        assert capture([command, "--order", "-1"]) == \
            (2, "", "constel: error: order must be >= 0\n")

    # every refusal of the library, with its exact wording: the CLI prints
    # it as "constel: error: <message>"
    REFUSALS = [
        ("PPath", lambda: paths.PPath(1, (0, 0), ()), "p must be >= 2"),
        ("PPath-start", lambda: paths.PPath(3, (0, -1), ()),
         "start height must be >= 0"),
        ("enumerate_paths", lambda: paths.enumerate_paths(3, (0, 0), (3, -1)),
         "heights must be >= 0"),
        ("f_poly", lambda: paths.f_poly(3, 0, 3), "r must lie in [0, p-1]"),
        ("f_poly-n", lambda: paths.f_poly(3, -1, 0), "n must be >= 0"),
        ("count_paths", lambda: paths.count_paths(3, -1, 0), "n must be >= 0"),
        ("count_paths-r", lambda: paths.count_paths(3, 0, 4),
         "r must lie in [0, p]"),
        ("count_closed", lambda: paths.count_closed(1, 2, 0), "p must be >= 2"),
        ("count_closed-r", lambda: paths.count_closed(3, 2, -1), "r must be >= 0"),
        ("expand_fraction", lambda: contfrac.expand_fraction(2, -1),
         "order must be >= 0"),
        ("expand_fraction-p", lambda: contfrac.expand_fraction(1, -1),
         "p must be >= 2"),
        ("expand_f", lambda: contfrac.expand_f(3, 0, -1, 2), "shift must be >= 0"),
        ("expand_f-order", lambda: contfrac.expand_f(3, 0, 0, -1),
         "order must be >= 0"),
        ("expand_f-r", lambda: contfrac.expand_f(3, 3, -1, -1),
         "r must lie in [0, p-1]"),
        ("qr", lambda: hankel.qr(-1, 3), "k must be >= 0"),
        ("HankelSpec", lambda: HankelSpec(3, 0, -2), "n must be >= -1"),
        ("HankelSpec-p", lambda: HankelSpec(1, 0, -2), "p must be >= 2"),
        ("HankelSpec-m", lambda: HankelSpec(3, 3, -2), "m must lie in [0, p-1]"),
        ("recover_vi", lambda: hankel.recover_vi(3, 0), "i must be >= 1"),
        ("recover_vi-p", lambda: hankel.recover_vi(1, 0), "p must be >= 2"),
        ("lgv_signed_sum", lambda: hankel.lgv_signed_sum(HankelSpec(3, 0, 4)),
         "lgv_signed_sum is desk-scale only (n <= 3)"),
        ("nilp_unique", lambda: hankel.nilp_unique(HankelSpec(3, 0, 4)),
         "nilp_unique is desk-scale only (n <= 3)"),
        ("SolverConfig", lambda: solver.SolverConfig(p=3, deg=2, kmax=1, imax=0),
         "imax must be >= 1"),
        ("SolverConfig-p", lambda: solver.SolverConfig(1, -1, -1, 0),
         "p must be >= 2"),
        ("SolverConfig-deg", lambda: solver.SolverConfig(3, -1, -1, 0),
         "deg must be >= 0"),
        ("SolverConfig-kmax", lambda: solver.SolverConfig(3, 0, -1, 0),
         "kmax must be >= 0"),
        ("f_from_v", lambda: solver.f_from_v(solver.SolverConfig(3, 2, 1, 1), -1),
         "n must be >= 0"),
        ("f1_tutte_check",
         lambda: solver.f1_tutte_check(solver.SolverConfig(3, 2, 1, 1), -1),
         "n must be >= 0"),
        ("f1_tutte_check-p",
         lambda: solver.f1_tutte_check(solver.SolverConfig(2, 2, 1, 1), -1),
         "the splitting identity is specific to p = 3"),
        ("fib_poly", lambda: eulerian.fib_poly(-1), "n must be >= 0"),
        ("fib_chebyshev_check", lambda: eulerian.fib_chebyshev_check(0),
         "n must be >= 1"),
        ("make_context", lambda: eulerian.make_context(-1), "order must be >= 0"),
        ("v_series", lambda: eulerian.v_series(0, -1), "order must be >= 0"),
        ("v_series-i", lambda: eulerian.v_series(-1, -1), "i must be >= 0"),
        ("v_closed", lambda: eulerian.v_closed(-1, 2), "i must be >= 0"),
        ("f_closed", lambda: eulerian.f_closed(-1, eulerian.make_context(2)),
         "n must be >= 0"),
        ("f1_closed", lambda: eulerian.f1_closed(-1, eulerian.make_context(2)),
         "n must be >= 0"),
        ("t_n", lambda: eulerian.t_n(0, eulerian.make_context(2)), "n must be >= 1"),
        ("verify_det3", lambda: eulerian.verify_det3(-1, 2), "kmax must be >= 0"),
        ("run_all", lambda: verify.run_all((), -1, 3), "n_max must be >= 0"),
        ("run_all-order", lambda: verify.run_all((), 0, -1), "order must be >= 0"),
        ("XSeries.var", lambda: XSeries.var(0, 3), "k must be >= 1"),
    ]

    @pytest.mark.parametrize("call, message",
                             [pytest.param(*case[1:], id=case[0]) for case in REFUSALS])
    def test_library_refuses_out_of_range(self, call, message):
        # the one refusal type, which cli.run maps to exit 2, and its words
        with pytest.raises(OutOfRange) as refused:
            call()
        assert type(refused.value) is OutOfRange
        assert str(refused.value) == message

    def test_internal_value_error_is_not_a_refusal(self, monkeypatch):
        # any other ValueError is a fault of the program, not of the input
        def fail(*args):
            raise ValueError("negative power of a polynomial")
        monkeypatch.setattr(contfrac, "expand_fraction", fail)
        with pytest.raises(ValueError, match="negative power"):
            capture(["contfrac", "--p", "3", "--order", "4"])


class TestResourceErrors:
    @pytest.mark.parametrize("error", [
        MemoryError(), ExponentOverflow("degree 70000"),
        RecursionError("maximum recursion depth exceeded")])
    def test_exit_two_with_one_line(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(contfrac, "expand_fraction", fail)
        rc, out, err = capture(["contfrac", "--p", "3", "--order", "4"])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("input too large: ")
        assert "Traceback" not in err

    # a term of f_poly(p, n, r), and of excursion cell (n, r), has degree
    # n(p-1)+r, and a path's weight one V per fall; past the 16-bit field
    # each of these once ran for minutes, or ran out of recursion depth
    @pytest.mark.parametrize("argv, degree", [pytest.param(
        argv.split(), degree, id=argv) for argv, degree in [
            ("fn --p 70000 --n 1", 69999), ("fn --p 3 --n 40000", 80000),
            ("contfrac --p 70000 --order 1", 69999),
            ("hankel --p 70000 --m 0 --n 1", 70000),
            ("lgv --p 70000 --m 0 --n 1", 69999)]])
    def test_over_wide_degree_refused_before_work(self, cold_caches, monkeypatch,
                                                  argv, degree):
        # f_poly walks nothing, the excursion expansion makes at most a few
        # small cells (the first Hankel entries), and the path enumeration
        # only the empty path before it refuses
        cells, convolve = [], contfrac._layer_sum

        def convolved(*args):
            cells.append(args)
            assert len(cells) < 10, "the expansion started on the refused cell"
            return convolve(*args)
        monkeypatch.setattr(contfrac, "_layer_sum", convolved)
        monkeypatch.setattr(paths, "_weight_dp", None)
        start = time.perf_counter()
        assert capture(argv) == (2, "", f"input too large: monomial degree {degree}"
                                 " exceeds the 16-bit field limit 65535\n")
        assert time.perf_counter() - start < 1

    def test_degree_bound_is_exact(self, cold_caches, monkeypatch):
        # under a 4-bit limit the cells of degree 15 are made and those of
        # degree 16 refused, by f_poly and by the excursion expansion alike
        want = paths.f_poly(3, 7, 1)
        paths.f_poly.cache_clear()
        monkeypatch.setattr(algebra, "_FIELD", 15)
        cells = contfrac._Excursions(3)
        assert paths.f_poly(3, 7, 1) == cells.coeff(7, 1) == want
        for refused in (lambda: paths.f_poly(3, 8, 0), lambda: cells.coeff(8, 0)):
            with pytest.raises(ExponentOverflow, match="degree 16 exceeds"):
                refused()

    def test_module_caches_are_bounded(self):
        # every cache at module level must hold a finite number of entries
        cached = 0
        for info in pkgutil.iter_modules(constel.__path__):
            if info.name == "__main__":
                continue
            mod = importlib.import_module(f"constel.{info.name}")
            for name, obj in vars(mod).items():
                if callable(getattr(obj, "cache_info", None)):
                    cached += 1
                    assert obj.cache_info().maxsize is not None, (info.name, name)
        assert cached >= 8


def test_public_surface_resolves():
    # a name left in __all__ after its object is gone fails the star import
    namespace = {}
    exec("from constel import *", namespace)
    assert len(set(constel.__all__)) == len(constel.__all__)
    for name in constel.__all__:
        assert namespace[name] is getattr(constel, name), name
