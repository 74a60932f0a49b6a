"""The package's public surface: every exported name resolves, the
README's library example runs as printed, and every name the benchmark
tracer wraps exists and is restored."""

import contextlib
import io
import re
import sys
from pathlib import Path

import solitonlab


def test_every_exported_name_resolves():
    assert len(set(solitonlab.__all__)) == len(solitonlab.__all__)
    assert [name for name in solitonlab.__all__ if not hasattr(solitonlab, name)] == []


def test_the_exported_names_are_pinned():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(solitonlab.__all__) == [
        "BBSCState", "KPParams", "LatticeField", "SystemParams", "Track",
        "amplitude", "bbsc_sweep", "check_exactness", "check_kp_bilinear",
        "check_reduction", "detect_bbsc_solitons", "evolve_bbsc", "evolve_gkdv",
        "kp_tau", "measure_velocity", "overtake_report", "random_kp_params",
        "rat_str", "render_ascii", "sample_field", "sample_x_float",
        "scan_monotonicity", "track_amplitude", "track_troughs", "ud_limit_check",
        "validate", "velocity", "write_bbsc_csv",
    ]


def test_each_automaton_advances_only_through_its_evolve():
    # evolve_gkdv and evolve_bbsc are the one way to advance each state: no
    # one-step (step_*, *_step) or one-site (*_local) path is left beside them
    for module in (solitonlab, solitonlab.lattice, solitonlab.boxball):
        assert [name for name in vars(module)
                if name.startswith("step_") or name.endswith(("_step", "_local"))] == []


def test_star_import_binds_every_exported_name():
    # a name left in __all__ after its definition is gone breaks only this
    namespace: dict = {}
    exec("from solitonlab import *", namespace)
    assert set(solitonlab.__all__) <= namespace.keys()


def test_the_readme_library_block_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    first, second = out.getvalue().splitlines()
    assert first.startswith("0.7237") and second.startswith("0.7233")


def test_the_benchmark_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    # bench/spans.py wraps names in src/ by attribute, so renaming or
    # deleting a traced name breaks every traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import spans

    tracer = spans.Tracer()
    traced = [(owner, attr) for owner, attr, _ in tracer._wrappers()]
    originals = [owner.__dict__[attr] for owner, attr in traced]
    with tracer.installed():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(traced, originals))
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(traced, originals))
