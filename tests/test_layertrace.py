"""The benchmark's per-layer tracer still binds every layer it names.

``perfbench/layertrace.py`` wraps each traced name where its owner defines
it (``owner.__dict__[attr]`` for methods).  A refactor that moves a traced
method into a base class, or stops a CLI path from calling a traced
function, would leave a layer that silently reads 0; this test runs one
small command per layer under the tracer and requires a span for each.
"""

import importlib.util
import json
from pathlib import Path

import horokit.cli
from horokit.functionals import BallFunctional

_spec = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).parents[1] / "perfbench" / "layertrace.py"
)
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)

FINITE = json.dumps({"type": "finite", "params": {"matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}})
ARGVS = [
    ("boundary", "--group", "heisenberg", "--r", "1", "--rmax", "4", "--window", "2"),
    ("extend", "mcshane", "--space", FINITE, "--domain", "[0, 2]", "--values", '["0", "1/2"]'),
    ("extend", "hahn-banach", "--fixture", "star-tree", "--n", "3"),
    ("dynamics", "almost-fixed", "--grid", "4", "--seed", "2", "--tol", "1e-6"),
    ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", "40", "--eval-hi", "4", "--averaging", "4"),
    ("spectral", "tracial", "--count", "1", "--n", "10"),
    # tracial batches its Moebius pairs past translation_number
    ("spectral", "tau", "--map", "mobius", "--matrix", "2,0,0,1/2", "--n", "8"),
    ("validate", "metric", "--space", FINITE, "--triples", "20"),
]


def test_every_traced_layer_records_a_span(capsys):
    original = horokit.cli.main
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert horokit.cli.main is not original
        codes = [horokit.cli.main(list(argv)) for argv in ARGVS]
        BallFunctional(1, ("0", "1"), (0, 1), (0, 1)).check(lambda p, q: abs(p - q))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(ARGVS)
    timed = {name for name, _, _, start, end in tracer.spans if end > start}
    assert [name for name, *_ in layertrace.SPANS if name not in timed] == []
    assert horokit.cli.main is original
