"""Byte pins of every CLI computation's report, in both output formats.

One small configuration of every leaf command, and of every fixture, map,
piece and distortion value, runs through ``horokit.cli.main``; its exit code
and the sha256 of its stdout must equal the values in ``cli_pins.json``.
Some reports carry floats, so the pins hold on one platform's libm and
NumPy.  The Möbius reports do not depend on the BLAS kernel NumPy picks for
the CPU: their matrix powers are plain Python floats, so the pins also hold
under, say, ``OPENBLAS_CORETYPE=Nehalem``.  A change that alters report
bytes on purpose re-records them with

    PYTHONPATH=src python3 tests/test_cli_pins.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from horokit.cli import main

PINS = Path(__file__).with_name("cli_pins.json")
FINITE = json.dumps({"type": "finite", "params": {"matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}})
# S3 from its multiplication table, generated by two transpositions
S3 = json.dumps({"type": "finite_group", "params": {"generators": [1, 2], "table": [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]}})

CONFIGS = [
    ("boundary", "--group", "z", "--r", "2", "--rmax", "10", "--window", "3"),
    ("boundary", "--group", "zd", "--dim", "2", "--r", "1", "--rmax", "8", "--window", "2"),
    ("boundary", "--group", "free", "--rank", "2", "--r", "1", "--rmax", "6", "--window", "2"),
    ("boundary", "--group", "heisenberg", "--r", "1", "--rmax", "8", "--window", "2"),
    # 1,110 rows of 53 values: the largest report the writer's row table writes
    ("boundary", "--group", "heisenberg", "--r", "3", "--rmax", "8", "--window", "3"),
    ("extend", "mcshane", "--space", FINITE, "--domain", "[0]", "--values", '["0"]', "--mode", "sup"),
    ("extend", "mcshane", "--space", FINITE, "--domain", "[0, 2]", "--values", '["0", "1/2"]',
     "--mode", "inf", "--eval", "[1]"),
    ("extend", "mcshane", "--space", '{"type": "lp", "params": {"p": 2, "dim": 2}}',
     "--domain", "[[0, 0], [3, 4]]", "--values", "[0, 1]", "--eval", "[[1, 1]]"),
    ("extend", "mcshane", "--space", S3, "--domain", "[0, 5]", "--values", '["0", "3/2"]',
     "--eval", "[1, 2, 3, 4, 5]"),
    ("extend", "mcshane", "--space", '{"type": "star_tree"}', "--domain", '[{"kind": "hub"}, {"n": 2, "s": "1"}]',
     "--values", '["0", "1/2"]', "--eval", '[{"n": 3, "s": "1/2"}, {"kind": "hub"}]'),
    ("extend", "mcshane", "--space", '{"type": "half_plane"}', "--domain", "[[0, 1], [1, 2]]",
     "--values", "[0, 0.5]", "--mode", "inf", "--eval", "[[0, 3], [-1, 1]]"),
    # the hub and a spoke's interior, labelled
    ("extend", "mcshane", "--space", '{"type": "spoke_ray"}', "--domain", '[{"kind": "hub"}, {"kind": "ray", "t": "2"}]',
     "--values", '["0", "-2"]', "--eval", '[{"kind": "hub"}, {"kind": "spoke", "n": 2, "s": "1/2"}, {"kind": "head", "n": 3}]'),
    ("extend", "hahn-banach", "--fixture", "spoke-ray", "--n", "4"),
    ("extend", "hahn-banach", "--fixture", "plane-axis"),
    ("extend", "hahn-banach", "--fixture", "star-tree", "--n", "3"),
    ("spectral", "tau", "--map", "mobius", "--matrix", "2,0,0,1/2", "--n", "20"),
    ("spectral", "tau", "--map", "translation", "--group", "z", "--vector", "3", "--n", "8"),
    ("spectral", "tau", "--map", "translation", "--group", "zd", "--dim", "3", "--vector", "1,-2,0", "--n", "8"),
    ("spectral", "tau", "--map", "translation", "--group", "free", "--rank", "2", "--vector", "1,-2", "--n", "8"),
    ("spectral", "tau", "--map", "translation", "--group", "heisenberg", "--vector", "1,0,2", "--n", "12"),
    ("spectral", "displacement", "--map", "mobius", "--matrix", "3,1,2,1", "--budget", "6", "--n", "16"),
    ("spectral", "displacement", "--map", "translation", "--group", "zd", "--vector", "1,1",
     "--budget", "6", "--n", "8", "--seed", "3"),
    ("spectral", "tracial", "--count", "2", "--n", "20", "--seed", "1"),
    ("spectral", "principle", "--n", "20"),
    ("spectral", "principle", "--matrix", "3,0,0,1/3", "--n", "20"),
    ("dynamics", "almost-fixed", "--grid", "4", "--seed", "2", "--tol", "1e-6"),
    ("dynamics", "parabolic", "--fixture", "disk-parabolic", "--n", "5", "--tol", "1e-6"),
    ("dynamics", "parabolic", "--fixture", "disk-parabolic", "--n", "5", "--tol", "1e-30"),
    ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", "40", "--eval-hi", "4", "--averaging", "4"),
    ("dynamics", "distorted-line", "--distortion", "log1p", "--r", "5", "--anchors", "100,10000"),
    ("dynamics", "distorted-line", "--distortion", "sqrt", "--r", "5", "--anchors", "100,10000"),
    ("gallery", "spoke-ray", "--r", "1", "--count", "3"),
    ("gallery", "star-tree", "--r", "2", "--count", "3"),
    ("gallery", "euclidean-zero", "--count", "2"),
    ("reduced", "classify-z", "--anchors=-3:3"),
    ("reduced", "fixed-point", "--fixture", "z-shift"),
    ("reduced", "fixed-point", "--fixture", "halfplane-parabolic", "--seed", "1"),
    ("reduced", "fixed-point", "--fixture", "disk-rotation", "--seed", "1"),
    ("validate", "metric", "--space", '{"type": "zd", "params": {"dim": 2}}', "--triples", "50", "--seed", "1"),
    ("validate", "metric", "--space", FINITE, "--triples", "20"),
    ("validate", "metric", "--space", S3, "--triples", "40", "--seed", "2"),
    ("validate", "distortion", "--name", "sqrt", "--grid-max", "50"),
    ("validate", "distortion", "--name", "log1p", "--grid-max", "50"),
    # every default value, with only the flags a leaf cannot run without
    ("boundary",),
    ("extend", "hahn-banach"),
    ("spectral", "tau", "--matrix", "2,0,0,1/2"),
    ("spectral", "displacement", "--matrix", "2,0,0,1/2"),
    ("spectral", "displacement", "--map", "translation"),
    ("spectral", "tracial"),
    ("spectral", "principle"),
    ("dynamics", "almost-fixed"),
    ("dynamics", "parabolic"),
    ("dynamics", "parabolic", "--fixture", "heisenberg-z"),
    ("dynamics", "distorted-line"),
    ("gallery", "spoke-ray"),
    ("gallery", "star-tree"),
    ("gallery", "euclidean-zero"),
    ("reduced", "classify-z"),
    ("reduced", "fixed-point"),
    ("validate", "metric"),
    ("validate", "distortion"),
]
FORMATS = ("json", "csv")


def label(argv) -> str:
    return " ".join(a if len(a) <= 16 else a[:12] + "..." for a in argv)


def key(argv, fmt) -> str:
    return " ".join([*argv, "--format", fmt])


def pinned(out: str, code: int) -> list:
    return [code, hashlib.sha256(out.encode()).hexdigest()]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CONFIGS, ids=label)
def test_report_bytes_pinned(capsys, argv, fmt):
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert pinned(out, code) == json.loads(PINS.read_text())[key(argv, fmt)]


@pytest.mark.parametrize("argv", CONFIGS, ids=label)
def test_json_report_never_builds_csv_rows(capsys, monkeypatch, argv):
    import horokit.cli as cli

    def unbuilt():
        raise AssertionError("CSV rows built for a JSON report")

    real = cli.Outcome
    monkeypatch.setattr(cli, "Outcome", lambda *parts: real(*parts[:4], unbuilt))
    code = main([*argv, "--format", "json"])
    assert pinned(capsys.readouterr().out, code) == json.loads(PINS.read_text())[key(argv, "json")]


def record() -> None:
    pins = {}
    for argv in CONFIGS:
        for fmt in FORMATS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([*argv, "--format", fmt])
            pins[key(argv, fmt)] = pinned(buf.getvalue(), code)
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items()))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(pins)} pins", file=sys.stderr)


if __name__ == "__main__":
    record()
