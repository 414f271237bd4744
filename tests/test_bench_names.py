"""The library names the benchmark reaches by name.

``perfbench/spans.py`` clears the lru caches listed in its ``CACHES`` on
every pass and wraps the functions and the ``METHODS`` of every layer when
it traces.  ``perfbench/workloads.py`` builds its q-series inputs with
``QSeries.make``, and ``perfbench/checks.py`` reads outputs through
``exponents()``, ``coeff()`` and ``trunc``.  A rename there stops every
benchmark run, so the checks below use the files as they are, read by path:
each cache is cleared and read, a ``Tracer`` is installed, records the Weil
and q-series spans, and is uninstalled, a reference series goes into
moduliq and back through the benchmark's own check, and every ``theta``
operation runs on its inputs and passes its own check.
"""

import importlib.util
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("spans")


def test_benchmark_caches_clear_and_count():
    spans = _spans()
    caches = spans.cache_functions(spans.import_layers())
    assert set(caches) == set(spans.CACHES)
    for fn in caches.values():
        fn.cache_clear()
    assert spans.cache_counts(caches) == {key: [0, 0] for key in caches}


def test_benchmark_tracer_installs_and_uninstalls():
    spans = _spans()
    mods = spans.import_layers()
    modforms, lattices = mods["modforms"], mods["lattices"]
    weil_rep, symmetrized = modforms.weil_rep, vars(modforms.WeilRep)["symmetrized"]
    tracer = spans.Tracer(mods)
    try:
        tracer.install()
        modforms.weil_rep(lattices.build_standard("L_dm"), dual=True).symmetrized()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"modforms.weil_rep", "modforms.WeilRep.symmetrized"} <= names
    assert set(spans.GROUPS["modforms.weil"]) <= names
    assert modforms.weil_rep is weil_rep
    assert vars(modforms.WeilRep)["symmetrized"] is symmetrized


def test_benchmark_tracer_records_the_series_kernels():
    spans = _spans()
    mods = spans.import_layers()
    qseries = mods["qseries"]
    methods = {name: vars(qseries.QSeries)[name] for name in ("__mul__", "invert", "pow")}
    delta = qseries.delta_series(4)  # q - 24 q^2 + 252 q^3, known below q^4
    tracer = spans.Tracer(mods)
    try:
        tracer.install()
        product = delta.invert() * delta
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"qseries.QSeries.__mul__", "qseries.QSeries.invert", "qseries.QSeries.pow"} <= names
    metrics = tracer.metrics()
    assert (metrics["qseries.mul.calls"], metrics["qseries.invert.calls"]) == (1, 1)
    assert metrics["qseries.mul.pairs"] == 3 * 3
    assert product == qseries.QSeries.one(3)
    assert {name: vars(qseries.QSeries)[name] for name in methods} == methods


def _workloads(monkeypatch):
    """(checks, workloads); workloads.py imports checks and spans as
    top-level modules."""
    checks = _load("checks")
    monkeypatch.setitem(sys.modules, "checks", checks)
    monkeypatch.setitem(sys.modules, "spans", _spans())
    return checks, _load("workloads")


def test_benchmark_series_inputs_round_trip_through_its_check(monkeypatch):
    checks, workloads = _workloads(monkeypatch)
    ref = checks.series(
        {F(-1, 3): checks.qw(F(1, 2), -3), F(0): checks.ONE, F(5, 3): checks.qw(0, F(2, 7))}, F(2)
    )
    series = workloads.to_qseries(ref)
    checks.check_series(series, ref, "round trip")
    with pytest.raises(checks.Mismatch):
        checks.check_series(series.scale(2), ref, "doubled")
    rng = random.Random(1)
    a, b = workloads.random_series_data(rng), workloads.random_series_data(rng)
    product = workloads.to_qseries(a) * workloads.to_qseries(b)
    checks.check_series(product, checks.ser_mul(a, b), "product")


def test_benchmark_theta_operations_pass_their_checks(monkeypatch):
    # the inputs build Lattice(...) from skewed Grams and read .gram back
    _checks, workloads = _workloads(monkeypatch)
    ops = workloads.theta_operations(workloads.inputs("theta", 1))
    assert ops
    for op in ops:
        op.check(op.call())


def test_benchmark_cache_reset_rebuilds_the_walk_plan(monkeypatch):
    # run_pass clears every cache of spans.CACHES before a pass; the walk plan
    # lives on the cached discriminant group, so the first walk after that
    # reset reduces its lattice again, and no memo under the walk outlives it
    spans = _spans()
    mods = spans.import_layers()
    caches = spans.cache_functions(mods)
    linalg, shortvec, qq = mods["_linalg"], mods["shortvec"], mods["_rational"].qq
    calls = []
    lll = linalg.lll
    monkeypatch.setattr(linalg, "lll", lambda gram: calls.append(gram) or lll(gram))
    e6 = mods["lattices"].build_standard("E6")
    for passes in (1, 2):
        for fn in caches.values():
            fn.cache_clear()
        for coset in ((1,), (2,)):
            assert shortvec.count_coset_vectors(e6, coset, qq(-4, 3)) == 27
        assert len(calls) == passes
