"""Work contracts: deterministic counts of the two sum-of-products
kernels (``_layer_sum``, every convolution of the relaxed expansions, and
``MultiPoly._minus_products``, every elimination update), of the products
``MultiPoly.__mul__`` makes in ``f_poly``'s walk DP and of the degree
scans it leaves, of the path enumerations and walk DPs the checks run,
of the argument parsers a CLI run builds, and the heap that cached solves
and refused requests keep alive.

Timings on a shared machine cannot catch a 10% regression; the number of
term pairs a kernel multiplies on a fixed call is exact, and so, to within
a few KiB, is the traced heap left behind.  Each count must stay at or
below its pin; a change that lowers one lowers its pin.
"""

import argparse
import gc
import io
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

from constel import _layered, algebra, cli, contfrac, eulerian, paths, solver, verify
import constel.hankel as hankel_mod
from constel.algebra import ExponentOverflow
from constel.hankel import HankelSpec, hankel_det, hankel_matrix, hankel_product
from constel.paths import f_poly


def count_sum_products(monkeypatch):
    """Count the calls of the sum-of-products kernels and their term pairs:
    ``algebra._layer_sum`` and ``MultiPoly._minus_products``.  ``_layered``
    and ``contfrac`` bind the first by name, so their bindings are patched
    too.
    """
    real, counts = algebra._layer_sum, {"calls": 0, "pairs": 0}
    real_minus = algebra.MultiPoly._minus_products

    def count(pairs):
        counts["calls"] += 1
        counts["pairs"] += sum(len(a._terms) * len(b._terms) for a, b in pairs)

    def counted(blocks, t, deg):
        count([(a[u], b[t - u]) for a, b, lo, hi in blocks
               for u in range(lo, hi + 1)])
        return real(blocks, t, deg)

    def counted_minus(self, pairs):
        pairs = list(pairs)
        count(pairs)
        return real_minus(self, pairs)
    for module in (algebra, _layered, contfrac):
        monkeypatch.setattr(module, "_layer_sum", counted)
    monkeypatch.setattr(algebra.MultiPoly, "_minus_products", counted_minus)
    return counts


def live_terms(*roots):
    """The polynomials reachable from ``roots`` through lists, tuples and
    dicts, each object counted once: (objects, terms)."""
    held, seen = {}, set()
    todo = gc.get_referents(*roots)
    while todo:
        obj = todo.pop()
        if isinstance(obj, algebra.MultiPoly):
            held[id(obj)] = obj
        elif isinstance(obj, (list, tuple, dict)) and id(obj) not in seen:
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))
    return len(held), sum(poly.nterms for poly in held.values())


def test_walk_dp_term_pairs(monkeypatch):
    # a cold f_poly(3, n, 0) table for n <= 8: each fall multiplies a V
    # variable into a running sum, one MultiPoly product per fall edge
    paths.f_poly.cache_clear()
    real, counts = algebra.MultiPoly.__mul__, {"calls": 0, "pairs": 0}

    def counted(a, b):
        counts["calls"] += 1
        counts["pairs"] += len(a._terms) * len(algebra._coerce(b)._terms)
        return real(a, b)
    monkeypatch.setattr(algebra.MultiPoly, "__mul__", counted)
    monkeypatch.setattr(algebra.MultiPoly, "__rmul__", counted)
    table = [f_poly(3, n, 0) for n in range(9)]
    assert table[8].nterms == 3 ** 7
    assert counts["pairs"] <= 14_562
    assert counts["calls"] <= 240


def test_walk_dp_degree_scans(monkeypatch):
    # the same cold table: a product carries its degree, and so does a sum
    # in which no coefficient cancels, so only the one-term weights and the
    # DP's unit are scanned.  Sums that carried no degree made 164 scans
    # over 12,878 keys
    paths.f_poly.cache_clear()
    paths._v_weight.cache_clear()
    real, counts = algebra.MultiPoly.total_degree, {"scans": 0, "keys": 0}

    def counted(poly):
        if poly._deg is None:
            counts["scans"] += 1
            counts["keys"] += poly.nterms
        return real(poly)
    monkeypatch.setattr(algebra.MultiPoly, "total_degree", counted)
    table = [f_poly(3, n, 0) for n in range(9)]
    assert table[8].nterms == 3 ** 7
    assert counts["scans"] <= 24
    assert counts["keys"] <= 24


def test_hankel_ladder_term_pairs(monkeypatch):
    # a cold (3, 1) ladder to n = 6: rows 2..6 by the shift recurrence, p
    # multipliers each; plain elimination of every row made 244,497 pairs
    # over 49 calls.  The entries are made first, so only the elimination
    # is counted
    spec = HankelSpec(3, 1, 6)
    hankel_mod._ladder.cache_clear()
    contfrac._excursions.cache_clear()
    hankel_matrix(spec)
    counts = count_sum_products(monkeypatch)
    assert hankel_det(spec) == hankel_product(spec)
    assert counts["pairs"] <= 76_551
    assert counts["calls"] <= 36


def test_hankel_ladder_live_terms():
    # what a cold (3, 1) ladder to n = 6 keeps, and the excursion cells it
    # read: every polynomial reachable from the two through lists, tuples
    # and dicts, counted once per object, so a new store or a dropped one
    # moves the pin either way
    hankel_mod._ladder.cache_clear()
    contfrac._excursions.cache_clear()
    assert hankel_det(HankelSpec(3, 1, 6)) == hankel_product(HankelSpec(3, 1, 6))
    assert live_terms(hankel_mod._ladder(3, 1), contfrac._excursions(3)) \
        == (87, 60_267)


def test_hankel_entry_term_pairs(monkeypatch):
    # every entry of the (3, 1, 6) matrix, f_poly(3, n, r) for n <= 9, from
    # a cold expansion: cells (0, 1) .. (9, 1), one convolution each
    spec = HankelSpec(3, 1, 6)
    contfrac._excursions.cache_clear()
    counts = count_sum_products(monkeypatch)
    rows = hankel_matrix(spec)
    assert rows[6][6] == f_poly(3, 9, 1)
    assert counts["pairs"] <= 68_344
    assert counts["calls"] <= 19


def test_expand_fraction_term_pairs(monkeypatch):
    # only the shift-0 level is expanded, one coefficient at a time; each
    # level expanded on its own made 231,279 pairs over 200 calls.  The
    # store is shared, so it is emptied first: warm, it would make none
    contfrac._excursions.cache_clear()
    counts = count_sum_products(monkeypatch)
    contfrac.expand_fraction(3, 10)
    assert counts["pairs"] <= 123_019
    assert counts["calls"] <= 20


def test_expand_f_term_pairs(monkeypatch):
    # as above; one memoized series per (r, shift, order) made 332,165
    # pairs over 770 calls
    contfrac._excursions.cache_clear()
    counts = count_sum_products(monkeypatch)
    contfrac.expand_f(3, 0, 0, 10)
    assert counts["pairs"] <= 123_019
    assert counts["calls"] <= 20


def test_excursion_cells_made_once(monkeypatch):
    # after a cold expand_f(3, 0, 0, 10), the fraction, another column and
    # shift, and a Hankel matrix all read cells it made; with a fresh
    # expansion per expand_f call the three made 47 more (20, 20 and 7)
    contfrac._excursions.cache_clear()
    counts = count_sum_products(monkeypatch)
    contfrac.expand_f(3, 0, 0, 10)
    assert counts["calls"] == 20
    counts["calls"] = 0
    contfrac.expand_fraction(3, 10)
    contfrac.expand_f(3, 2, 1, 9)
    hankel_matrix(HankelSpec(3, 1, 2))
    assert counts["calls"] == 0


def test_expand_fraction_live_terms():
    # what the shared store of p = 3 keeps after a cold expand_fraction(3,
    # 8), for the rest of the process: the cells of every column through
    # row 8 and their raised copies.  A store bounded by terms moves it
    contfrac._excursions.cache_clear()
    contfrac.expand_fraction(3, 8)
    assert live_terms(contfrac._excursions(3)) == (33, 7_656)


def test_default_plans_do_no_work(cold_caches, monkeypatch):
    # the default verify-all's plans only list their checks; the run then
    # expands each p's excursion family once, where a fresh expansion per
    # contfrac check and one for the Hankel entries built 9
    counts = count_sum_products(monkeypatch)
    real_run, real_cells, built = verify.run, contfrac._Excursions, []

    def run(jobs):
        assert counts == {"calls": 0, "pairs": 0} and built == []
        return real_run(jobs)

    def counted(p):
        built.append(p)
        return real_cells(p)
    monkeypatch.setattr(verify, "run", run)
    monkeypatch.setattr(contfrac, "_Excursions", counted)
    assert all(result.ok for result in verify.run_all((2, 3, 4), 3, 10))
    assert counts["calls"] > 0 and sorted(built) == [2, 3, 4]


def test_solve_family_term_pairs(monkeypatch):
    # a fresh family, its limit included; with every level computed from
    # its own rule, 340,547 pairs over 3,298 calls
    counts = count_sum_products(monkeypatch)
    solver.solve_family(solver.SolverConfig(3, 8, 3, 6))
    assert counts["pairs"] <= 335_778
    assert counts["calls"] <= 2_434


def test_cold_solve_builds_only_the_rules_it_needs(monkeypatch):
    # a cold cached solve: a level starts from the limit's layers
    # 0..(i-1)//w, so only levels asked for a layer past those build a
    # rule graph.  With every level built from its rule, 21 graphs and
    # 654 layer sums.  A window of 0 (kmax = 0, or p = 2 with kmax = 1)
    # starts every level with all of the limit's layers, so no level builds
    # a graph at all
    solver._limit.cache_clear()
    solver._family.cache_clear()
    real, rules = solver._Family._rule, []

    def counted(family, i, vi):
        rules.append(i)
        return real(family, i, vi)
    monkeypatch.setattr(solver._Family, "_rule", counted)
    counts = count_sum_products(monkeypatch)
    try:
        solver.solve_vi(solver.SolverConfig(3, 6, 2, 6))
        assert len(rules) == len(set(rules)) <= 12
        assert counts["calls"] <= 531
        for cfg in [solver.SolverConfig(3, 5, 0, 4), solver.SolverConfig(2, 5, 1, 4),
                    solver.SolverConfig(2, 6, 1, 9)]:
            assert cfg.window == 0
            rules.clear()
            assert solver.solve_vi(cfg) == solver.solve_family(cfg), cfg
            assert rules == [], cfg
    finally:
        solver._family.cache_clear()


def test_make_context_term_pairs(monkeypatch):
    # V = 1 + 2xV^2 and y at order 20, from a cold limit
    solver._limit.cache_clear()
    eulerian.make_context.cache_clear()
    counts = count_sum_products(monkeypatch)
    eulerian.make_context(20)
    assert counts["pairs"] <= 711
    assert counts["calls"] <= 144


def test_cached_solves_heap():
    # from fresh caches, the heap still alive after two cached solves of
    # different families: 2,555 KiB, against 3,163 KiB when every level
    # builds its own rule graph and 4,541 KiB when a solve also keeps the
    # DPs of the levels it returns (no ``forget``)
    solver._limit.cache_clear()
    solver._family.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.solve_vi(solver.SolverConfig(3, 6, 2, 6))
        solver.solve_vi(solver.SolverConfig(3, 8, 3, 6))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        solver._family.cache_clear()
    assert kept <= 2_770 * 1024


def test_cubic_ladders_one_set_per_context(monkeypatch):
    # from cold caches, T_n for n = 1..40 at order 12 and then
    # verify_det3(12, 12), counted in elimination borders: every T_n of
    # one order is a minor of its context's three ladders, so the sweep
    # makes each border once and verify_det3 only the two past n = 40.
    # Three fresh ladders per T_n made 247 and 39
    solver._limit.cache_clear()
    eulerian.make_context.cache_clear()
    eulerian._ladders.cache_clear()
    real, counts = algebra._Minors._eliminate, {"borders": 0}

    def counted(self, n):
        counts["borders"] += 1
        return real(self, n)
    monkeypatch.setattr(algebra._Minors, "_eliminate", counted)
    for n in range(1, 41):
        eulerian.t_n(n, eulerian.make_context(12))
    assert counts["borders"] == 37
    assert eulerian.verify_det3(12, 12)
    assert counts["borders"] == 39


def test_cubic_ladder_series_products(monkeypatch):
    # from cold caches, verify_det3(3, 12) and the closed-form level weights
    # at order 12, counted as the benchmark's series_mul counts: V and y
    # keep their powers, and V its inverse, for the life of the cached
    # context, so the ladder's V^(2n+1), V^(2n+2) and V^-e and the weights'
    # y^i are each made once.  With every power made afresh and V inverted
    # once per T_n, the same calls made 460 products (51,104 pairs)
    solver._limit.cache_clear()
    eulerian.make_context.cache_clear()
    eulerian._ladders.cache_clear()
    real, counts = algebra.XSeries.__mul__, {"calls": 0, "pairs": 0}

    def counted(a, b):
        counts["calls"] += 1
        counts["pairs"] += a.nterms * (b.nterms if isinstance(b, algebra.XSeries)
                                       else 1 if b else 0)
        return real(a, b)
    monkeypatch.setattr(algebra.XSeries, "__mul__", counted)
    monkeypatch.setattr(algebra.XSeries, "__rmul__", counted)
    assert eulerian.verify_det3(3, 12)
    for i in range(9):
        eulerian.v_closed(i, 12)
    assert counts["pairs"] <= 32_443
    assert counts["calls"] <= 264


def test_refused_hankel_keeps_no_husk(cold_caches):
    # hankel_det at p = 70000 makes entries (0, 0) and (0, 1), then refuses
    # entry (1, 1), of degree 70000; the cached excursion table keeps those
    # two cells and their two columns, not 2p empty ones (8.7 MB)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ExponentOverflow, match="degree 70000 exceeds"):
            hankel_det(HankelSpec(70000, 0, 1))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_lgv_checks_enumerate_each_path_family_once(cold_caches, monkeypatch):
    # the LGV and NILP checks at p = 2, 3 read the paths of 27 distinct
    # (p, source, sink) pairs; enumerated once per check and size, the
    # same plan made 100 enumerations
    real, calls = hankel_mod.enumerate_paths, []

    def counted(p, start, end):
        calls.append((p, start, end))
        return real(p, start, end)
    monkeypatch.setattr(hankel_mod, "enumerate_paths", counted)
    assert all(res.ok for res in verify.run(verify.plan_lgv((2, 3), 3)))
    assert len(calls) == len(set(calls)) == 27


def test_path_memos_are_bounded_and_cleared(request):
    # the enumerations and path sums are memos like f_poly's: bounded,
    # and emptied by the cold_caches fixture
    verify.run(verify.plan_lgv((2,), 1))
    memos = (hankel_mod._paths, hankel_mod._path_sum)
    for memo in memos:
        assert memo.cache_info().maxsize is not None
        assert memo.cache_info().currsize > 0
    request.getfixturevalue("cold_caches")
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def _count_walk_dps(monkeypatch, module):
    # the walk DPs that ``module`` runs through its own binding of _weight_dp
    real, calls = paths._weight_dp, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, "_weight_dp", counted)
    return calls


def test_vi_update_runs_one_walk_dp_per_level(monkeypatch):
    # the mid-path sums of every face degree n come off one sweep per level;
    # one DP per (level, n) made 12 at kmax = 2
    cfg = solver.SolverConfig(3, 4, 2, 6)
    family = solver.solve_vi(cfg._replace(imax=cfg.imax + cfg.window))
    calls = _count_walk_dps(monkeypatch, solver)
    new = solver.vi_update(cfg, family)
    assert len(calls) == len(new) == 6
    assert all(new[i] == family[i] for i in new)


def test_certificates_run_one_walk_dp_per_start(monkeypatch):
    # f1_tutte_check's excursion sums of every length come off one sweep,
    # and its one-level-up sum off another (9 DPs at n = 2, kmax = 2); the
    # excursions-from-limit check reads lengths 0, 3 and 6 off one (3)
    cfg = solver.SolverConfig(3, 4, 2, 6)
    solver.solve_vi(cfg._replace(imax=2 * (2 + cfg.kmax) + 1))
    calls = _count_walk_dps(monkeypatch, solver)
    for n in range(3):
        calls.clear()
        assert solver.f1_tutte_check(cfg, n)
        assert len(calls) == 2
    calls = _count_walk_dps(monkeypatch, paths)
    check, = [job for job in verify.plan_solver(10)
              if job[0] == "solver.excursions-from-limit"]
    assert verify.run([check])[0].ok
    assert len(calls) == 1


def test_a_command_builds_only_its_own_parser(monkeypatch):
    # the top parser and the one subparser it runs; the top help and a
    # missing command build every command's subparser, eight of them
    real, built = argparse.ArgumentParser.__init__, []

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv, parsers in ((["verify-all", "--p", "--order", "0"], 2),
                          (["--help"], 9), ([], 9)):
        built.clear()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.run(argv)
        assert len(built) == parsers, argv
