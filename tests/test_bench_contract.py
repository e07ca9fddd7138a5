"""The benchmark's tracer finds every function it times.

`bench/tracer.py` wraps named functions of gcorr's modules from outside
the package and reports a layer's metrics as absent when its target is
gone.  This test runs the tracer over one `compose` and one `verify` of a
small ladder, and of `quiver`, whose middle groupoid has only identity
arrows, and requires that no target is missing and that every traced
layer is reached, so a rename in `src/` fails here rather than silently
dropping a per-layer metric.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import gcorr.cli as cli
from gcorr import catalog
from gcorr.io_json import serialize_instance
from tests.conftest import ladder_pair

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gcorr_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAIRS = {"ladder-3": lambda: ladder_pair(3), "quiver": lambda: catalog.example_pair("quiver")[:2]}


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_every_trace_target_is_defined_and_called(pair, tmp_path, capsys):
    corr_x, corr_y = PAIRS[pair]()
    x, y, out = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "out.json"
    x.write_text(serialize_instance([("x", corr_x)]))
    y.write_text(serialize_instance([("y", corr_y)]))

    tr = _load_tracer().Tracer()
    try:
        assert tr.install() == []
        assert cli.main(["compose", str(x), str(y), str(out), "--json"]) == 0
        notes = json.loads(capsys.readouterr().out)["notes"]
        assert cli.main(["verify", str(x), str(y), "--trials", "2", "--json"]) == 0
    finally:
        tr.uninstall()
    calls = {label: acc[2] for label, acc in tr.take_op().items()}
    assert sorted(label for label in tr.labels if not calls.get(label)) == []
    assert {"z_points", "omega_points", "scalar_mode"} <= set(notes)
