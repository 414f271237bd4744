"""The library names the benchmark reaches by name.

``perfbench/spans.py`` clears the lru caches listed in its ``CACHES`` on
every pass and wraps the functions and the ``METHODS`` of every layer when
it traces.  A rename there stops every benchmark run, so the checks below
use the file as it is, read by path: each cache is cleared and read, and a
``Tracer`` is installed, records the Weil spans, and is uninstalled.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
