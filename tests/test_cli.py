import contextlib
import io
import json
import math
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horokit.cli import main
from horokit import errors
from horokit.errors import ResourceLimitError
from horokit.groups import GeneratingSet, Heisenberg, cayley_ball

from oracles import h3_lengths_by_area, heis_matmul, heis_matrix, heis_triple


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_boundary_csv_shape(capsys):
    code, out, _ = run(
        capsys, "boundary", "--group", "zd", "--dim", "2", "--r", "1",
        "--rmax", "12", "--window", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# certificate=stabilized")
    assert len(lines) == 2 + 8  # metadata, header, one row per restriction


def test_boundary_json_report(capsys):
    code, out, _ = run(capsys, "boundary", "--group", "z", "--r", "3", "--rmax", "20", "--window", "5")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["result"]["restrictions"]["count"] == 2
    assert data["result"]["unboundedness"]["passed"] is True


def test_reports_byte_identical(capsys):
    args = ("spectral", "tracial", "--count", "3", "--n", "50", "--seed", "0")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gallery_spoke_ray(capsys):
    code, out, _ = run(capsys, "gallery", "spoke-ray", "--r", "1")
    assert code == 0
    data = json.loads(out)
    gaps = {w["gap"] for w in data["result"]["witnesses"]}
    assert gaps == {"3/2"}


def test_gallery_euclidean_zero(capsys):
    code, out, _ = run(capsys, "gallery", "euclidean-zero")
    assert code == 0
    assert json.loads(out)["result"]["min_of_max"] == "1"


def test_spectral_tau_closed_form(capsys):
    code, out, _ = run(capsys, "spectral", "tau", "--map", "mobius", "--matrix", "2,0,0,1/2", "--n", "200")
    assert code == 0
    data = json.loads(out)
    assert abs(data["result"]["bound"] - 2 * 0.6931471805599453) < 1e-9


@pytest.mark.parametrize("budget", [600, 1022])
def test_spectral_displacement_at_the_edge_of_the_float_range(capsys, budget):
    # z -> 4z moves each i 2^k by log 4; from k = 511 on Im z Im 4z overflows,
    # and k = 1021 is the last point whose image 4 i 2^k is a float
    code, out, _ = run(capsys, "spectral", "displacement", "--matrix", "2,0,0,1/2", "--budget", str(budget))
    assert code == 0
    rep = json.loads(out)["result"]["displacement"]
    assert len(rep["trace"]) == budget and rep["bound"] == pytest.approx(math.log(4), rel=1e-15)


@pytest.mark.parametrize("vector", [(), ("--group", "z", "--vector", "5000")], ids=["default", "z5000"])
def test_spectral_displacement_reads_every_point(capsys, vector):
    # Closed-form lengths are exact past CayleyGraphSpace.distance_bound = 4096.
    code, out, _ = run(capsys, "spectral", "displacement", "--map", "translation", *vector, "--budget", "12000")
    assert code == 0
    assert len(json.loads(out)["result"]["displacement"]["trace"]) == 12_000


@pytest.mark.parametrize("args", [
    ("--map", "translation", "--group", "heisenberg", "--vector", "1,0,2", "--n", "16"),
    ("--map", "mobius", "--matrix", "1,1,0,1"),  # z -> z + 1, exact tau 0
], ids=["heisenberg", "parabolic"])
def test_spectral_displacement_fails_only_against_an_exact_tau(capsys, args):
    # The tau bound exceeds the displacement bound on both, but both are
    # upper bounds on tau, so together they prove nothing.
    code, out, _ = run(capsys, "spectral", "displacement", *args)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["tau_bound"] > result["displacement"]["bound"]


@pytest.mark.parametrize("budget", ["1023", "1024"])
def test_spectral_displacement_image_past_the_float_range(capsys, budget):
    # z -> 4z sends the visited point i 2^1022 to 4 i 2^1022, past the float range.
    code, _, err = run(capsys, "spectral", "displacement", "--matrix", "2,0,0,1/2", "--budget", budget)
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParameterError"
    assert repr(complex(0.0, 2.0**1022)) in err


# With N = 2^1023, the power M^2 of the first matrix cancels to 0 in floats
# and that of the second overflows; the second's trace 2N + 1/N is past
# the float range as well.
_N = 2**1023
_CANCELLING = f"{_N},{-_N},{_N},{1 - _N * _N}/{_N}"
_OVERFLOWING = f"{_N},{_N},{_N},{_N * _N + 1}/{_N}"


@pytest.mark.parametrize("command", ["tau", "principle"])
@pytest.mark.parametrize("matrix", [_CANCELLING, _OVERFLOWING], ids=["cancels", "overflows"])
def test_spectral_orbit_past_the_float_range(capsys, command, matrix):
    code, _, err = run(capsys, "spectral", command, "--matrix", matrix, "--n", "4")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParameterError"
    assert "float range at step 2" in err


def test_dynamics_parabolic_audit_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "dynamics", "parabolic", "--fixture", "disk-parabolic", "--n", "50", "--tol", "1e-30"
    )
    assert code == 1  # audit fails against an unreachable tolerance


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "spectral", "tau", "--map", "mobius", "--matrix", "1,2,3")
    assert code == 2
    assert "error" in err


def test_unreached_finite_group_element_exit_2(capsys):
    space = json.dumps({"type": "finite_group", "params": {
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], "generators": [1]}})
    code, _, err = run(capsys, "extend", "mcshane", "--space", space, "--domain", "[0, 2]",
                       "--values", '["0", "0"]')
    assert code == 2
    assert json.loads(err)["error"] == "InvalidPointError"


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HOROKIT_MAX_BALL", "10")
    code, _, err = run(capsys, "boundary", "--group", "free", "--r", "1", "--rmax", "8", "--window", "2")
    assert code == 3
    assert "ResourceLimitError" in err


def test_h3_ball_limit_is_still_checked_on_the_big_ball(capsys, monkeypatch):
    # No H3 boundary job builds B(rmax) any more, but the default limit of
    # 10^6 is still checked on |B(rmax)|: |B(39)| = 987,293 fits and
    # |B(40)| = 1,092,681 does not.  Moving the limit changes exits and pins.
    monkeypatch.delenv("HOROKIT_MAX_BALL", raising=False)
    code, out, err = run(capsys, "boundary", "--group", "heisenberg", "--r", "1", "--rmax", "40",
                         "--window", "2")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "ResourceLimitError", "message": "ball size exceeded limit 1000000"}
    with pytest.raises(ResourceLimitError) as exc:
        cayley_ball(Heisenberg(), GeneratingSet.standard(Heisenberg()), 40)
    assert exc.value.radius_reached == 39


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "0"])
def test_malformed_ball_limit_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("HOROKIT_MAX_BALL", value)
    code, _, err = run(capsys, "boundary", "--group", "free", "--r", "1", "--rmax", "8", "--window", "2")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParameterError"
    assert "HOROKIT_MAX_BALL" in err


def test_extend_mcshane_inline_space(capsys):
    space = json.dumps(
        {"type": "finite", "params": {"matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}}
    )
    code, out, _ = run(
        capsys, "extend", "mcshane", "--space", space, "--domain", "[0]",
        "--values", '["0"]', "--mode", "sup", "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines() == ["point,value", "0,0", "1,-1", "2,-2"]


def test_extend_mcshane_scales_int64_distances_past_int64(capsys):
    # d = 2^60 is int64 in the distance block; over the values' denominator 8
    # it is 2^63, which the Lipschitz check must hold as a Python int.
    big = str(2**60)
    space = json.dumps({"type": "finite", "params": {"matrix": [["0", big], [big, "0"]]}})
    code, out, err = run(capsys, "extend", "mcshane", "--space", space, "--domain", "[0, 1]",
                         "--values", '["0", "1/8"]', "--format", "csv")
    assert (code, err) == (0, "")
    assert out.strip().splitlines() == ["point,value", "0,0", "1,1/8"]


def test_extend_mcshane_reads_float_ray_parameters_as_printed(capsys):
    # t = 1e-13 is a ray point, not the hub, and 0.3333333333333 is not 1/3;
    # an infinite t is invalid input.
    argv = ("extend", "mcshane", "--space", '{"type": "spoke_ray"}', "--domain", '[{"kind": "hub"}]',
            "--values", '["0"]', "--format", "csv", "--eval")
    code, out, err = run(capsys, *argv, '[{"kind": "ray", "t": 1e-13}, {"kind": "ray", "t": 0.3333333333333}]')
    assert (code, err) == (0, "")
    assert out.splitlines() == ["point,value", "ray(1/10000000000000),-1/10000000000000",
                                "ray(3333333333333/10000000000000),-3333333333333/10000000000000"]
    code, out, err = run(capsys, *argv, '[{"kind": "ray", "t": Infinity}]')
    assert (code, out, json.loads(err)["error"]) == (2, "", "InvalidParameterError")


def test_extend_mcshane_on_lp_past_the_float_square(capsys):
    # |(1e308, 1e308)|_2 = 1.41e308 is finite, though its square is not.
    code, out, err = run(capsys, "extend", "mcshane", "--space", '{"type": "lp"}', "--domain", "[[0, 0], [1, 0]]",
                         "--values", "[0, 1]", "--eval", "[[1e308, 1e308]]")
    assert (code, err) == (0, "")
    assert "Infinity" not in out
    (row,) = json.loads(out)["result"]["values"]
    assert row["value"] == pytest.approx(-2**0.5 * 1e308, rel=1e-12)


def test_extend_mcshane_eval_all_reads_every_group_element(capsys):
    # S3 from its multiplication table, generated by two transpositions
    space = json.dumps({"type": "finite_group", "params": {"generators": [1, 2], "table": [
        [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
        [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]}})
    code, out, _ = run(capsys, "extend", "mcshane", "--space", space, "--domain", "[0, 5]",
                       "--values", '["0", "3/2"]', "--format", "csv")
    assert code == 0
    assert [row.split(",")[0] for row in out.strip().splitlines()[1:]] == ["0", "1", "2", "3", "4", "5"]


def test_extend_hahn_banach_fixture(capsys):
    code, out, _ = run(capsys, "extend", "hahn-banach", "--fixture", "spoke-ray", "--n", "12")
    assert code == 0
    data = json.loads(out)
    assert set(data["result"]["values"].values()) == {"-1/2"}


def test_reduced_classify(capsys):
    code, out, _ = run(capsys, "reduced", "classify-z", "--anchors=-10:10")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 3


def test_reduced_fixed_point(capsys):
    for fixture in ("z-shift", "halfplane-parabolic", "disk-rotation"):
        code, out, _ = run(capsys, "reduced", "fixed-point", "--fixture", fixture)
        assert code == 0, fixture


def test_validate_metric_inline(capsys):
    code, out, _ = run(capsys, "validate", "metric", "--space", '{"type": "heisenberg"}', "--triples", "500")
    assert code == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", "distortion", "--name", "sqrt", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["passed"] is True


@pytest.mark.parametrize("target, reason", [("no/such/dir/r.json", "No such file or directory"), ("", "Is a directory")],
                         ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, target, reason):
    # open() raised FileNotFoundError out of main after the computation: a
    # traceback and exit 1, the code of a failed audit.
    path = str(tmp_path / target)
    code, out, err = run(capsys, "boundary", "--out", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "InvalidParameterError", "message": f"cannot write --out {path}: {reason}"}


def test_out_is_opened_after_the_computation(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "boundary", "--r", "-1", "--out", str(target))
    assert code == 2
    assert not target.exists()


def _space_flag(kind: str, params: dict | None = None, **top) -> tuple:
    return ("--space", json.dumps({"type": kind, **({} if params is None else {"params": params}), **top}))


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (("boundary", "--window", "0"), "PreconditionError", "window must be >= 1"),
        (("boundary", "--group", "zd", "--dim", "0"), "InvalidParameterError", "dimension must be >= 1"),
        (("boundary", "--group", "free", "--rank", "0"), "InvalidParameterError", "rank must be >= 1"),
        (("gallery", "star-tree", "--r", "0"), "PreconditionError", "need r >= 1"),
        (("dynamics", "distorted-line", "--r", "-1"), "PreconditionError", "r must be >= 0"),
        (("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", "40", "--eval-hi", "30"),
         "PreconditionError", "window empty: need D up to 45, have N = 40"),
        (("validate", "metric", *_space_flag("finite", {"matrix": [[0, 1]]})),
         "InvalidSpaceError", "distance matrix is not square"),
        (("validate", "metric", *_space_flag("finite", {"matrix": [[0, 1], [1, 0]]}, base=2)),
         "InvalidSpaceError", "base index 2 outside [0, 2)"),
        (("validate", "metric", *_space_flag("lp", {"dim": 0})), "InvalidParameterError", "dimension must be >= 1"),
        (("validate", "metric", *_space_flag("finite_group", {"table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]],
                                                               "generators": [1]})),
         "InvalidParameterError", "table has no identity element"),
        (("validate", "metric", *_space_flag("finite_group", {"table": [[0, 1], [1, 0]]})),
         "InvalidParameterError", "finite group was built without generators"),
        (("extend", "mcshane", *_space_flag("zd"), "--domain", "[[0]]", "--values", "[0, 1]"),
         "InvalidParameterError", "domain and value lists differ in length"),
        (("extend", "mcshane", *_space_flag("zd"), "--domain", "[]", "--values", "[]"),
         "InvalidParameterError", "domain must be nonempty"),
        (("spectral", "displacement", "--matrix", "1,1,0,1", "--budget", "0"),
         "PreconditionError", "point generator yielded nothing"),
    ],
    ids=["window", "zd-dim", "free-rank", "star-tree-r", "distorted-r", "parabolic-window", "not-square", "base",
         "lp-dim", "no-identity", "no-generators", "lengths", "empty-domain", "no-points"],
)
def test_library_preconditions_reached_from_argv_exit_2(capsys, argv, error, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize(
    "command",
    [
        ("boundary",),
        ("extend", "mcshane"),
        ("spectral", "tau"),
        ("dynamics", "parabolic"),
        ("gallery", "spoke-ray"),
        ("reduced", "classify-z"),
        ("validate", "metric"),
    ],
    ids=lambda c: c[0],
)
def test_selftests_pass(capsys, command):
    code, out, _ = run(capsys, *command, "--selftest")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_internal_error_is_not_reported_as_invalid_input(monkeypatch):
    import horokit.cli as cli

    def broken(*args):
        raise TypeError("internal bug")

    monkeypatch.setattr(cli, "limit_restrictions", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(["boundary"])


HOROKIT_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.HorokitError)]


@pytest.mark.parametrize("error", HOROKIT_ERRORS + [TypeError, json.JSONDecodeError], ids=lambda c: c.__name__)
def test_main_exit_code_per_error_class(capsys, monkeypatch, error):
    # A limit that was hit exits 3, any other library error 2, each with its
    # class and message on stderr; anything else is an internal error and
    # propagates (every json.loads of input runs inside _json).
    import horokit.cli as cli

    exc = error("no 'x'", "doc", 0) if error is json.JSONDecodeError else error("no 'x'")

    def stub(*args):
        raise exc

    monkeypatch.setattr(cli, "limit_restrictions", stub)
    if not issubclass(error, errors.HorokitError):
        with pytest.raises(error):
            main(["boundary"])
        return
    code, out, err = run(capsys, "boundary")
    assert (code, out) == (3 if error in (errors.ResourceLimitError, errors.BudgetError) else 2, "")
    assert err == f'{{\n  "error": "{error.__name__}",\n  "message": "no \'x\'"\n}}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ("spectral", "tau", "--map", "mobius", "--matrix", "1,2,x,4"),
        ("spectral", "tau", "--matrix", "1e400,0,0,1e-400"),  # exact, past the float range
        ("spectral", "displacement", "--matrix", "2,0,0,1/2", "--budget", "1100"),  # 2.0**1024
        ("spectral", "tau", "--map", "translation", "--group", "zd", "--vector", "1,y"),
        ("spectral", "tau", "--map", "translation", "--group", "zd", "--vector", "1"),
        ("reduced", "classify-z", "--anchors", "1:2:3"),
        ("dynamics", "distorted-line", "--anchors", "10,z"),
        ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--eval-hi", "-1"),
        ("validate", "metric", "--space", "{not json"),
        ("validate", "metric", "--space", '{"type": "finite", "params": {}}'),
        # A zero denominator is malformed input, in each flag that reads rationals.
        ("validate", "metric", "--space", '{"type": "finite", "params": {"matrix": [["1/0"]]}}'),
        ("extend", "mcshane", "--space", '{"type": "finite", "params": {"matrix": [[0]]}}',
         "--domain", "[0]", "--values", '["1/0"]'),
        ("spectral", "tau", "--map", "mobius", "--matrix", "1,0,0,1/0"),
        ("extend", "mcshane", "--space", '{"type": "free", "params": {"rank": 2}}',
         "--domain", '["a?"]', "--values", '["0"]'),
        ("extend", "mcshane", "--space", '{"type": "zd", "params": {"dim": 2}}',
         "--domain", "[[0, 0]]", "--values", '["x"]'),
        ("extend", "mcshane", "--space", '{"type": "zd", "params": {"dim": 2}}',
         "--domain", "[[0, 0, 0]]", "--values", '["0"]'),
        ("extend", "mcshane", "--space", '{"type": "finite", "params": {"matrix": [[0]]}}',
         "--domain", "[3]", "--values", '["0"]'),
        # An infinite space has no "every point" to evaluate at.
        ("extend", "mcshane", "--space", '{"type": "zd", "params": {"dim": 2}}',
         "--domain", "[[0, 0]]", "--values", '["0"]', "--eval", "all"),
        # NaN passes every Lipschitz comparison, so it must be rejected as a point.
        ("extend", "mcshane", "--space", '{"type": "distorted_line"}',
         "--domain", "[0, NaN]", "--values", "[0, 0]", "--eval", "[1]"),
        ("extend", "mcshane", "--space", '{"type": "lp"}',
         "--domain", "[[0, 0], [NaN, 1]]", "--values", "[0, 0]", "--eval", "[[1, 1]]"),
        ("dynamics", "parabolic", "--fixture", "disk-parabolic", "--n", "-2"),
        ("boundary", "--r", "-1"),
        ("validate", "metric", "--triples", "-5"),
        ("spectral", "tracial", "--count", "-1"),
        ("gallery", "star-tree", "--count", "-1"),
        ("gallery", "spoke-ray", "--count", "-1"),
        ("gallery", "euclidean-zero", "--count", "-1"),
        ("extend", "hahn-banach", "--n", "-1"),
        ("extend", "hahn-banach", "--fixture", "star-tree", "--n", "-1"),
        ("validate", "metric", "--triples", "0"),
        ("validate", "metric", "--space", '{"type": "heisenberg"}', "--triples", "0"),
        ("spectral", "tracial", "--count", "0"),
        ("gallery", "star-tree", "--count", "0"),
        ("gallery", "spoke-ray", "--count", "0"),
        ("gallery", "euclidean-zero", "--count", "0"),
        ("spectral", "tau"),
        ("spectral", "displacement"),
        ("extend", "hahn-banach", "--n", "0"),
        ("dynamics", "almost-fixed", "--grid", "0"),
        ("dynamics", "almost-fixed", "--grid", "-3"),
        ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--averaging", "0"),
        ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--averaging", "-4"),
        ("reduced", "classify-z", "--anchors=5:1"),
        ("dynamics", "almost-fixed", "--tol", "-1"),
        ("dynamics", "parabolic", "--fixture", "disk-parabolic", "--tol", "-0.5"),
        ("dynamics", "parabolic", "--n", "0", "--fixture", "disk-parabolic"),
        ("validate", "distortion", "--grid-max", "1"),
        ("dynamics", "almost-fixed", "--tol", "nan"),
        ("dynamics", "almost-fixed", "--tol", "inf"),
        ("dynamics", "parabolic", "--fixture", "disk-parabolic", "--tol", "inf"),
    ],
    ids=lambda a: "-".join(a[:2]) + ":" + a[-1][:12],
)
def test_malformed_flags_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # NaN passes both r < 0 and a <= r, and an infinite anchor, or r + anchor
        # past the float range, gives D(inf): each once wrote NaN or Infinity
        # tokens, which are not JSON, and exited 1 or 0.
        (("dynamics", "distorted-line", "--r", "nan"), "must be finite"),
        (("dynamics", "distorted-line", "--anchors", "nan,1e4"), "must be finite"),
        (("dynamics", "distorted-line", "--anchors", "100,inf"), "must be finite"),
        (("dynamics", "distorted-line", "--r", "1e308", "--anchors", "1.5e308"), "must be finite"),
        # p < 1 is false for NaN; the space failed later, on a non-finite distance.
        (("validate", "metric", "--space", '{"type": "lp", "params": {"p": "nan"}}'), "p must be >= 1"),
    ],
    ids=lambda a: " ".join(a[2:])[:40] if isinstance(a, tuple) else None,
)
def test_non_finite_inputs_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in json.loads(err)["message"]


S3 = {"generators": [1, 2], "table": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
                                      [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]}


@pytest.mark.parametrize(
    "space, points, field",
    [
        # int() read 0.5 as point 0, 1.5 as coordinate 1 and as head 1, and
        # raised OverflowError (a traceback, exit 1) on inf, which is how JSON
        # reads 1e400.
        ({"type": "finite", "params": {"matrix": [[0, 1], [1, 0]]}}, [0.5], "point"),
        ({"type": "finite_group", "params": S3}, [1.5], "element"),
        ({"type": "zd", "params": {"dim": 2}}, [[1.5, 0]], "coordinate"),
        ({"type": "zd", "params": {"dim": 2}}, [[1e400, 0]], "coordinate"),
        ({"type": "heisenberg"}, [[0, 0, math.nan]], "coordinate"),
        ({"type": "spoke_ray"}, [{"kind": "head", "n": 1.5}], "n"),
        ({"type": "spoke_ray"}, [{"kind": "spoke", "n": 1e400, "s": 1}], "n"),
        ({"type": "star_tree"}, [{"n": 1e400, "s": 1}], "n"),
        ({"type": "star_tree"}, [{"n": 2.5, "s": 1}], "n"),
        # and the descriptor's own integer fields
        ({"type": "zd", "params": {"dim": 2.5}}, [[0, 0]], "dim"),
        ({"type": "free", "params": {"rank": 1e400}}, ["a"], "rank"),
        ({"type": "finite", "params": {"matrix": [[0, 1], [1, 0]]}, "base": 0.5}, [0], "base"),
        ({"type": "lp", "params": {"dim": 1.5}}, [[0, 0]], "dim"),
    ],
    ids=lambda a: json.dumps(a)[:40] if not isinstance(a, str) else a,
)
def test_non_integer_json_fields_exit_2(capsys, space, points, field):
    text = json.dumps(points)
    code, out, err = run(capsys, "extend", "mcshane", "--space", json.dumps(space), "--domain", text,
                         "--values", json.dumps(["0"] * len(points)), "--eval", text)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].startswith(f"{field} must be an integer, got ")


@pytest.mark.parametrize(
    "space, point, hub, message",
    [
        # A tagged point that is not an object ended in AttributeError ('int'
        # object has no attribute 'get'), a hyperbolic point of one number in
        # IndexError and one past the float range in OverflowError: exit 1.
        ("spoke_ray", 1, {"kind": "hub"}, "a tagged point must be a JSON object, got 1"),
        ("spoke_ray", ["hub"], {"kind": "hub"}, "a tagged point must be a JSON object, got ['hub']"),
        ("star_tree", "hub", {"kind": "hub"}, "a tagged point must be a JSON object, got 'hub'"),
        ("half_plane", [0], [0, 1], "a hyperbolic point must be a pair of numbers, got [0]"),
        ("half_plane", [0, 1, 2], [0, 1], "a hyperbolic point must be a pair of numbers, got [0, 1, 2]"),
        ("half_plane", [0, 10**400], [0, 1], "a hyperbolic point must be a pair of numbers, got [0, 1000"),
        ("poincare_disk", [0.5], [0, 0], "a hyperbolic point must be a pair of numbers, got [0.5]"),
        ("poincare_disk", [True, 0], [0, 0], "a hyperbolic point must be a pair of numbers, got [True, 0]"),
        ("poincare_disk", {"x": 0, "y": 0}, [0, 0], "a hyperbolic point must be a pair of numbers, got {"),
    ],
    ids=lambda a: json.dumps(a)[:30],
)
def test_malformed_points_exit_2(capsys, space, point, hub, message):
    for domain, target in (([point], hub), ([hub], point)):  # as a domain point, then as an --eval point
        code, out, err = run(capsys, "extend", "mcshane", "--space", json.dumps({"type": space}),
                             "--domain", json.dumps(domain), "--values", '["0"]', "--eval", json.dumps([target]))
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(message)


@pytest.mark.parametrize(
    "space, domain, values, target, message",
    [
        # float() of 10^400 raised OverflowError, a traceback and exit 1: as a
        # distorted-line point, an l^p coordinate, or a float space's value.
        ({"type": "distorted_line"}, [0], ["0"], 10**400, "point must be a real number in the float range, got 1000"),
        ({"type": "lp"}, [[0, 0]], [0], [1, 10**400], "point must be a real number in the float range, got [1, 1000"),
        ({"type": "lp"}, [[0, 0], [1, 0]], [0, 10**400], [1, 1], "value must be a real number in the float range, got 1000"),
        ({"type": "lp", "params": {"p": 10**400}}, [[0, 0]], [0], [1, 1], "p must be a real number in the float range, got 1000"),
    ],
    ids=["distorted-line point", "lp coordinate", "float value", "lp exponent"],
)
def test_numbers_past_the_float_range_exit_2(capsys, space, domain, values, target, message):
    code, out, err = run(capsys, "extend", "mcshane", "--space", json.dumps(space), "--domain",
                         json.dumps(domain), "--values", json.dumps(values), "--eval", json.dumps([target]))
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].startswith(message)


# A nesting past Python's recursion limit, and number texts past the bounds
# of reading: an exponent whose 10**e Fraction would build, and a digit
# string past int's 4,300-digit text limit.
DEEP = "[" * 5000 + "]" * 5000
HUGE_EXPONENT = "1e10000000"
LONG_DIGITS = "1" * 5000


# Phrases of Python's own exception texts, which an exit-2 message must not carry.
PYTHON_TEXTS = ("is not iterable", "has no len", "float() argument", "could not convert", "NoneType", "Invalid literal",
                "unhashable type", "invalid literal for int()", "values to unpack", "Fraction(", "too large",
                "recursion", "Exceeds the limit")

FINITE_GROUP = '{"type": "finite_group", "params": {"table": [[0, 1], [1, 0]], "generators": 1}}'
LINE = '{"type": "distorted_line"}'
TWO_POINTS = '{"type": "finite", "params": {"matrix": [[0, 1], [1, 0]]}}'


HALF_PLANE = '{"type": "half_plane"}'
TRIANGLE = "[[0.1, 0.1], [1.0, 0.1], [0.5, 0.6]]"


def _finite(entry: str) -> str:
    return f'{{"type": "finite", "params": {{"matrix": [[0, {entry}], [{entry}, 0]]}}}}'


def _tagged(space: str, point: dict) -> tuple:
    return ("extend", "mcshane", "--space", json.dumps({"type": space}), "--domain", '[{"kind": "hub"}]',
            "--values", "[0]", "--eval", json.dumps([point]))


@pytest.mark.parametrize(
    "argv, message",
    [
        # A matrix, table or generator list of the wrong shape printed the
        # TypeError of the iteration or len() that read it.
        (("validate", "metric", "--space", '{"type": "finite", "params": {"matrix": 5}}'),
         "matrix must be a list of lists, got 5"),
        (("validate", "metric", "--space", '{"type": "finite", "params": {"matrix": [5]}}'),
         "matrix must be a list of lists, got [5]"),
        (("validate", "metric", "--space", '{"type": "finite", "params": {"matrix": "0"}}'),
         "matrix must be a list of lists, got '0'"),
        (("validate", "metric", "--space", '{"type": "finite_group", "params": {"table": 3}}'),
         "table must be a list of lists, got 3"),
        (("validate", "metric", "--space", '{"type": "finite_group", "params": {"table": [0, 1]}}'),
         "table must be a list of lists, got [0, 1]"),
        (("validate", "metric", "--space", FINITE_GROUP), "generators must be a list, got 1"),
        # A real field that float() could not read printed float()'s text.
        (("validate", "metric", "--space", '{"type": "lp", "params": {"p": null}}'),
         "p must be a real number in the float range, got None"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", '["x"]', "--eval", "[1]"),
         "value must be a real number in the float range, got 'x'"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", '["1/2"]', "--eval", "[1]"),
         "value must be a real number in the float range, got '1/2'"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", "[null]", "--eval", "[1]"),
         "value must be a real number in the float range, got None"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", "[0]", "--eval", "[null]"),
         "point must be a real number in the float range, got None"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[[0]]", "--values", "[0]", "--eval", "[1]"),
         "point must be a real number in the float range, got [0]"),
        # An exact entry Fraction could not read printed Fraction's text.
        (("validate", "metric", "--space", _finite("null")), "matrix entry must be a rational number, got None"),
        (("validate", "metric", "--space", _finite("true")), "matrix entry must be a rational number, got True"),
        (("validate", "metric", "--space", _finite('"x"')), "matrix entry must be a rational number, got 'x'"),
        (("validate", "metric", "--space", _finite('"1/0"')), "matrix entry must be a rational number, got '1/0'"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", "[null]", "--eval", "[1]"),
         "value must be a rational number, got None"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", "[true]", "--eval", "[1]"),
         "value must be a rational number, got True"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", '["x"]', "--eval", "[1]"),
         "value must be a rational number, got 'x'"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", '["1/0"]', "--eval", "[1]"),
         "value must be a rational number, got '1/0'"),
        # A distortion name that is no text was looked up in a dict.
        (("validate", "metric", "--space", '{"type": "distorted_line", "params": {"distortion": ["sqrt"]}}'),
         "unknown distortion ['sqrt']"),
        # A text flag's entry that int(), float() or Fraction() could not
        # read, a classify-z range without two ends, and a JSON flag that is
        # no list printed Python's own text.
        (("spectral", "tau", "--map", "translation", "--group", "zd", "--vector", "1,x"),
         "--vector entry must be an integer, got 'x'"),
        (("spectral", "tau", "--map", "translation", "--vector", "1.5"), "--vector entry must be an integer, got '1.5'"),
        (("spectral", "tau", "--matrix", "1,x,0,1"), "--matrix entry must be a rational number, got 'x'"),
        (("spectral", "tau", "--matrix", "1,1/0,0,1"), "--matrix entry must be a rational number, got '1/0'"),
        (("spectral", "displacement", "--matrix", "1,,0,1"), "--matrix entry must be a rational number, got ''"),
        (("spectral", "principle", "--matrix", "2,0,0,y"), "--matrix entry must be a rational number, got 'y'"),
        (("dynamics", "distorted-line", "--anchors", "x"),
         "--anchors entry must be a real number in the float range, got 'x'"),
        (("reduced", "classify-z", "--anchors", "1"), "--anchors end must be an integer, got ''"),
        (("reduced", "classify-z", "--anchors", "1:x"), "--anchors end must be an integer, got 'x'"),
        (("reduced", "classify-z", "--anchors", "y:1"), "--anchors start must be an integer, got 'y'"),
        (("reduced", "classify-z", "--anchors", "1:2:3"), "--anchors end must be an integer, got '2:3'"),
        (("extend", "mcshane", "--space", LINE, "--domain", "5", "--values", "[0]", "--eval", "[1]"),
         "--domain must be a list, got 5"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", "5", "--eval", "[1]"),
         "--values must be a list, got 5"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", "[0]", "--eval", "7"),
         "--eval must be a list, got 7"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", "[0]", "--eval", '{"a": 1}'),
         "--eval must be a list, got {'a': 1}"),
        # float() reads "inf", "nan" and JSON's 1e999, which no value of a
        # float space may be: only the Lipschitz check refused them, after
        # NumPy's RuntimeWarning.
        (("extend", "mcshane", "--space", HALF_PLANE, "--domain", TRIANGLE, "--values", '[0, "inf", "inf"]', "--eval", "[]"),
         "value must be a real number in the float range, got 'inf'"),
        (("extend", "mcshane", "--space", HALF_PLANE, "--domain", TRIANGLE, "--values", "[0, 1e999, 0]", "--eval", "[]"),
         "value must be a real number in the float range, got inf"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]", "--values", '["-inf"]', "--eval", "[1]"),
         "value must be a real number in the float range, got '-inf'"),
        (("extend", "mcshane", "--space", '{"type": "lp"}', "--domain", "[[0, 0]]", "--values", '["nan"]',
          "--eval", "[[1, 1]]"), "value must be a real number in the float range, got 'nan'"),
        # A Lipschitz failure names its points by their labels, not by repr.
        (("extend", "mcshane", "--space", '{"type": "lp"}', "--domain", "[[0, 0], [1, 0]]", "--values", "[0, 5]",
          "--eval", "[]"), "not 1-Lipschitz on pair ((0.0,0.0), (1.0,0.0)): |0.0 - 5.0| > 1.0"),
        (("extend", "mcshane", "--space", '{"type": "spoke_ray"}', "--domain", '[{"kind": "hub"}, {"kind": "ray", "t": 1}]',
          "--values", "[0, 5]", "--eval", "[]"), "not 1-Lipschitz on pair (hub, ray(1)): |0 - 5| > 1"),
        (("extend", "mcshane", "--space", '{"type": "zd", "params": {"dim": 2}}', "--domain", "[[0, 0], [1, 1]]",
          "--values", "[0, 3]", "--eval", "[]"), "not 1-Lipschitz on pair ((0,0), (1,1)): |0 - 3| > 2"),
        # The messages these flags already named, and a finite space's point
        # labels (an index's label is its repr), keep their bytes.
        (("spectral", "tau", "--matrix", "1,0,1"), "matrix flag needs four comma-separated entries"),
        (("spectral", "tau", "--map", "mobius"), "--map mobius needs --matrix"),
        (("reduced", "classify-z", "--anchors", "3:1"), "--anchors range 3:1 is empty"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0, 1]", "--values", '[0, "3/2"]', "--eval", "[]"),
         "not 1-Lipschitz on pair (0, 1): |0 - 3/2| > 1"),
        # A tagged point's t or s that Fraction could not read printed
        # Fraction's text, or a message that named no field.
        (_tagged("spoke_ray", {"kind": "ray", "t": "x"}), "t must be a rational number, got 'x'"),
        (_tagged("spoke_ray", {"kind": "spoke", "n": 2, "s": "1/0"}), "s must be a rational number, got '1/0'"),
        (_tagged("star_tree", {"n": 2, "s": None}), "s must be a rational number, got None"),
        (_tagged("spoke_ray", {"kind": "ray", "t": True}), "t must be a rational number, got True"),
        (_tagged("spoke_ray", {"kind": "ray", "t": math.inf}), "t must be a rational number, got inf"),
        (_tagged("spoke_ray", {"kind": "ray", "t": "nan"}), "t must be a rational number, got 'nan'"),
        (_tagged("star_tree", {"n": 2, "s": [1]}), "s must be a rational number, got [1]"),
        # An omitted JSON flag of extend mcshane was passed to json.loads.
        (("extend", "mcshane", "--domain", "[0]", "--values", "[0]"), "--space is required"),
        (("extend", "mcshane", "--space", LINE, "--values", "[0]"), "--domain is required"),
        (("extend", "mcshane", "--space", LINE, "--domain", "[0]"), "--values is required"),
        # An exact entry past the float range printed Python's "integer
        # division result too large for a float"; past int's str() limit
        # (1e5000), no digits are written out.
        (("spectral", "tau", "--matrix", "1e400,0,0,1e-400"),
         "matrix entry must be a real number in the float range, got 1.000000e+400"),
        (("spectral", "tau", "--matrix=1,1,1,1e999"), "matrix entry must be a real number in the float range, got 1.000000e+999"),
        (("spectral", "principle", "--matrix=-1e5000,0,0,-1e-5000"),
         "matrix entry must be a real number in the float range, got -1.000000e+5000"),
    ],
    ids=["matrix 5", "matrix [5]", "matrix text", "table 3", "table [0, 1]", "generators 1", "lp p null",
         "value x", "value 1/2", "value null", "point null", "point [0]", "entry null", "entry true", "entry x",
         "entry 1/0", "exact value null", "exact value true", "exact value x", "exact value 1/0",
         "distortion list", "vector x", "vector 1.5", "tau matrix x", "tau matrix 1/0", "displacement matrix empty",
         "principle matrix y", "distorted anchors x", "classify anchors 1", "classify anchors 1:x",
         "classify anchors y:1", "classify anchors 1:2:3", "domain 5", "values 5", "eval 7", "eval object",
         "value inf", "value 1e999", "value -inf", "lp value nan", "lp labels", "spoke-ray labels", "zd labels",
         "matrix three entries", "mobius no matrix", "anchors empty range", "finite labels", "ray t x",
         "spoke s 1/0", "star s null", "ray t true", "ray t inf", "ray t nan", "star s list", "no space",
         "no domain", "no values", "matrix 1e400", "matrix 1e999", "matrix 1e5000"],
)
def test_shapes_and_real_fields_are_named(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy RuntimeWarning on the way
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    got = json.loads(err)["message"]
    assert got == message
    assert not any(text in got for text in PYTHON_TEXTS + ("array(",))


# Any JSON value: what a field may hold when its input is wrong.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10**400, 0.5, -1.5, 1e-13])
    | st.sampled_from(["x", "", "0", "1/2", "-1/3", "2/4", "1/0", "nan", "inf", "ab", HUGE_EXPONENT, LONG_DIGITS]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["kind", "n", "s", "t"]), kids, max_size=2),
    max_leaves=4,
)


# A size field takes no int past 3: a huge dim or rank is still built in
# full, and exhausts memory rather than exiting 2.
SIZE_JUNK = JUNK.filter(lambda v: not isinstance(v, int) or abs(v) <= 3)


def _mostly(valid, junk=JUNK):
    """``valid`` about three times in four, else ``junk``."""
    return st.integers(0, 3).flatmap(lambda k: junk if k == 3 else valid)


REAL = st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False)
RATIONAL = st.integers(0, 3) | st.sampled_from(["1/2", "3/4", "2", "2/4"])


def _square(entries):
    return st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _cyclic(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _params(**fields):
    """A params object with these fields, often with a junk value, at times
    with some left out or an unknown key, or no object at all."""
    fields = {k: _mostly(v, SIZE_JUNK if k in ("dim", "rank") else JUNK) for k, v in fields.items()}
    full = st.fixed_dictionaries(fields)
    some = st.fixed_dictionaries({}, optional=fields)
    extra = st.builds(lambda p, v: {**p, "extra": v}, some, JUNK)
    return st.integers(0, 7).flatmap(lambda k: full if k < 6 else extra if k == 6 else JUNK)


# Per descriptor type: (params, point), each drawn near the valid form and
# at times off it.  dim, rank and matrices stay small.
DESCRIPTORS = {
    "finite": (_params(matrix=_square(_mostly(RATIONAL))), st.integers(0, 4)),
    "zd": (_params(dim=st.integers(1, 3)), st.lists(st.integers(-2, 2), min_size=1, max_size=3)),
    "free": (_params(rank=st.integers(1, 3)), st.sampled_from(["e", "a", "aB", "bA", "c"])),
    "heisenberg": (_params(), st.lists(st.integers(-2, 2), min_size=3, max_size=3)),
    "finite_group": (
        _params(table=st.integers(1, 4).map(_cyclic) | _square(st.integers(0, 3)),
                generators=st.lists(st.integers(0, 3), min_size=1, max_size=3)),
        st.integers(0, 4),
    ),
    "spoke_ray": (_params(), st.fixed_dictionaries(
        {"kind": st.sampled_from(["hub", "ray", "head", "spoke", "x"])},
        optional={"t": _mostly(REAL), "n": st.integers(0, 3), "s": _mostly(REAL)})),
    "star_tree": (_params(), st.fixed_dictionaries(
        {}, optional={"kind": st.sampled_from(["hub", "int", "x"]), "n": st.integers(0, 3), "s": _mostly(REAL)})),
    "distorted_line": (_params(distortion=st.sampled_from(["sqrt", "log1p", "x"])), REAL),
    "poincare_disk": (_params(), st.lists(st.floats(-0.7, 0.7), min_size=2, max_size=2)),
    "half_plane": (_params(), st.lists(st.floats(0.1, 3), min_size=2, max_size=2)),
    "lp": (_params(p=st.sampled_from([1, 1.5, 2, 3]), dim=st.integers(1, 3)), st.lists(REAL, min_size=1, max_size=3)),
}


# An entry of a text flag: numbers, near-numbers and junk.
FLAG_ENTRY = st.sampled_from(["1", "-2", "0", "3", "1/2", "2/4", "1.5", "", "x", "1/0", "nan", "inf", "1e999", " 3", "1:2",
                             HUGE_EXPONENT, LONG_DIGITS])


def _entries(sep: str, least: int, most: int):
    return st.lists(FLAG_ENTRY, min_size=least, max_size=most).map(sep.join)


# argv for each command with a text flag of entries, its other flags small,
# and for dynamics parabolic's orbit at small, zero and negative counts;
# "--flag=text" keeps a text that starts with "-" a value.
TEXT_FLAGS = st.one_of(
    _entries(",", 3, 5).map(lambda m: ("spectral", "tau", f"--matrix={m}", "--n", "8")),
    _entries(",", 3, 5).map(lambda m: ("spectral", "displacement", f"--matrix={m}", "--budget", "4", "--n", "4")),
    _entries(",", 3, 5).map(lambda m: ("spectral", "principle", f"--matrix={m}", "--n", "8")),
    st.tuples(st.sampled_from(["z", "zd", "heisenberg"]), _entries(",", 1, 3)).map(
        lambda a: ("spectral", "tau", "--map", "translation", "--group", a[0], f"--vector={a[1]}", "--n", "8")),
    _entries(",", 0, 3).map(lambda a: ("dynamics", "distorted-line", f"--anchors={a}")),
    _entries(":", 0, 3).map(lambda a: ("reduced", "classify-z", f"--anchors={a}")),
    st.tuples(st.integers(-2, 8), st.integers(-1, 3), st.integers(-1, 3)).map(
        lambda a: ("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", str(a[0]), f"--eval-hi={a[1]}",
                   f"--averaging={a[2]}")),
)

NOT_A_LIST = JUNK.filter(lambda v: not isinstance(v, list))


@st.composite
def cli_inputs(draw):
    """argv for ``validate metric`` or ``extend mcshane`` on a descriptor of
    one of the 11 types, with its points and values, at times with one of
    its JSON lists no list, one of its JSON flags left out, nested too deep
    or led by a number too long to read; or for a command with a text flag of entries, or ``dynamics
    parabolic``'s orbit."""
    if draw(st.integers(0, 4)) == 0:
        return draw(TEXT_FLAGS)
    kind = draw(st.sampled_from(sorted(DESCRIPTORS)))
    params, point = DESCRIPTORS[kind]
    desc = {"type": kind} if draw(st.integers(0, 9)) == 0 else {"type": kind, "params": draw(params)}
    def splice(text):  # at times behind an unquoted number past int's 4,300-digit text limit
        return f"[{LONG_DIGITS}, {text}]" if draw(st.integers(0, 19)) == 0 else text

    space = splice(DEEP if draw(st.integers(0, 19)) == 0 else json.dumps(desc))
    if draw(st.booleans()):
        return ("validate", "metric", "--space", space, "--triples", "20")
    domain = draw(st.lists(_mostly(point), min_size=1, max_size=3))
    values = draw(st.lists(_mostly(REAL | RATIONAL), min_size=len(domain), max_size=len(domain)))
    lists = [domain, values, draw(st.lists(_mostly(point), max_size=3))]
    if (k := draw(st.integers(0, 11))) < 3:
        lists[k] = draw(NOT_A_LIST)
    flags = {"--space": space, **dict(zip(("--domain", "--values", "--eval"), (splice(json.dumps(v)) for v in lists)))}
    if draw(st.integers(0, 9)) == 0:  # --eval has a default, the other three none
        del flags[draw(st.sampled_from(["--space", "--domain", "--values"]))]
    elif draw(st.integers(0, 19)) == 0:
        flags[draw(st.sampled_from(["--domain", "--values", "--eval"]))] = DEEP
    return ("extend", "mcshane", *(x for item in flags.items() for x in item))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=cli_inputs())
def test_no_python_text_in_invalid_input_messages(argv):
    # Every input exits 0 (passed), 1 (a check failed) or 2 (invalid input),
    # and an exit-2 message names what is wrong in the kit's own words.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # NumPy warns on a float value "inf" or "nan"; the message is checked, not the warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(list(argv))
    assert code in (0, 1, 2)
    if code == 2:
        message = json.loads(err.getvalue())["message"]
        assert not any(text in message for text in PYTHON_TEXTS), message


@pytest.mark.parametrize(
    "argv, message",
    [
        # --n below 1 left the orbit no point: min() of an empty range, exit 1.
        (("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", "0"), "--n must be finite and >= 1, got 0"),
        (("dynamics", "parabolic", "--fixture", "heisenberg-z", "--n", "-3"), "--n must be finite and >= 1, got -3"),
        # json.loads raised RecursionError, which main did not catch: exit 1.
        (("validate", "metric", "--space", DEEP), "malformed --space: nesting too deep"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", DEEP, "--values", "[0]"),
         "malformed --domain: nesting too deep"),
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", DEEP),
         "malformed --values: nesting too deep"),
        # Fraction built 10**e for the exponent e first: seconds for each entry.
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", f'["{HUGE_EXPONENT}"]', "--eval", "[1]"),
         f"value must be a rational number, got '{HUGE_EXPONENT}'"),
        (("validate", "metric", "--space", _finite(f'"-{HUGE_EXPONENT}"')),
         f"matrix entry must be a rational number, got '-{HUGE_EXPONENT}'"),
        (("spectral", "tau", "--matrix", f"1,{HUGE_EXPONENT},0,1"),
         f"--matrix entry must be a rational number, got '{HUGE_EXPONENT}'"),
        (("spectral", "tau", "--matrix", "1,1e-10001,0,1"), "--matrix entry must be a rational number, got '1e-10001'"),
        (("validate", "metric", "--space", _finite(f'"{LONG_DIGITS}"')),
         f"matrix entry must be a rational number, got '{LONG_DIGITS}'"),
        # Unquoted, json.loads raised int's own "Exceeds the limit (4300 digits)" text.
        (("extend", "mcshane", "--space", TWO_POINTS, "--domain", "[0]", "--values", f"[1{'0' * 5000}]"),
         "malformed --values: a number past 4300 digits"),
        (("validate", "metric", "--space", f'{{"type": "zd", "params": {{"dim": {LONG_DIGITS}}}}}'),
         "malformed --space: a number past 4300 digits"),
    ],
    ids=["parabolic n 0", "parabolic n -3", "deep space", "deep domain", "deep values", "huge exponent value",
         "huge exponent entry", "huge exponent matrix", "exponent past the bound", "long digits entry",
         "long digits value", "long digits dim"],
)
def test_unbounded_inputs_exit_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == message
    assert time.perf_counter() - start < 1


# 10^4400 - 10^5000, past int's 4,300-digit str() limit, in its digits.
BIG_VALUE = "-" + "9" * 600 + "0" * 4400


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_exact_value_past_the_text_limit_is_written(capsys, fmt):
    # Both entries read within the exponent bound; the report writer then
    # called str() on the value f(0) - d(0, 1) = 10^4400 - 10^5000: exit 1.
    code, out, _ = run(capsys, "extend", "mcshane", "--space", _finite('"1e5000"'), "--domain", "[0]",
                       "--values", '["1e4400"]', "--eval", "[1]", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["result"]["values"] == [{"point": "1", "value": BIG_VALUE}]
    else:
        assert out == f"point,value\n1,{BIG_VALUE}\n"


def test_a_determinant_past_the_text_limit_is_named(capsys):
    # 1e-3000 reads within the bound, and d = 10^-6000: its message called str().
    code, out, err = run(capsys, "spectral", "tau", "--matrix", "1e-3000,0,0,1e-3000")
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == f"determinant must be 1, got 1/1{'0' * 6000}"


C2 = {"table": [[0, 1], [1, 0]], "generators": [1]}


@pytest.mark.parametrize(
    "space, message",
    [
        # A generator outside the group ended in IndexError, and one that is
        # no integer in TypeError, when the generating set was formed: exit 1.
        ({"type": "finite_group", "params": {**C2, "generators": [5]}},
         "generator 5 is not an index into a 2-element group"),
        ({"type": "finite_group", "params": {**C2, "generators": [0.5]}}, "generator must be an integer, got 0.5"),
        ({"type": "finite_group", "params": {**C2, "table": [[0, 1], [1, 0.5]]}},
         "table entry must be an integer, got 0.5"),
        # params that are no JSON object ended in AttributeError: exit 1.
        ({"type": "zd", "params": [1]}, "params must be a JSON object, got [1]"),
        ({"type": "zd", "params": None}, "params must be a JSON object, got None"),
        # A key that the type does not read was ignored: Z^1 and l^2 were
        # validated, exit 0.
        ({"type": "zd", "params": {"dimension": 3}}, "unknown params key 'dimension' for space type 'zd'"),
        ({"type": "lp", "params": {"P": 1}}, "unknown params key 'P' for space type 'lp'"),
        ({"type": "heisenberg", "params": {"dim": 3}}, "unknown params key 'dim' for space type 'heisenberg'"),
        ({"type": "finite", "params": {"matrix": [[0]], "base": 0}}, "unknown params key 'base' for space type 'finite'"),
        ({"type": "zd", "dim": 3}, "unknown descriptor key 'dim' for space type 'zd'"),
        ({"type": "zd", "base": [1]}, "unknown descriptor key 'base' for space type 'zd'"),
    ],
    ids=lambda a: json.dumps(a)[:48] if not isinstance(a, str) else None,
)
def test_malformed_space_descriptors_exit_2(capsys, space, message):
    code, out, err = run(capsys, "validate", "metric", "--space", json.dumps(space))
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == message


def test_finite_group_tables_read_integral_floats_as_integers(capsys):
    # As every integer field of JSON input does; such a table passed the
    # permutation check and ended in TypeError on a float index: exit 1.
    reports = [run(capsys, "validate", "metric", "--space", json.dumps({"type": "finite_group", "params": {**C2, **t}}))
               for t in ({}, {"table": [[0.0, 1.0], [1.0, 0.0]], "generators": [1.0]})]
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("space, point", [
    ("star_tree", {"kind": "ray", "n": 2, "s": 1}),  # was read as int(2,1): exit 0
    ("spoke_ray", {"kind": "int", "n": 2, "s": 1}),
    ("spoke_ray", {"n": 2, "s": 1}),
], ids=lambda a: json.dumps(a)[:30])
def test_unknown_tagged_point_kinds_exit_2(capsys, space, point):
    code, out, err = run(capsys, "extend", "mcshane", "--space", json.dumps({"type": space}),
                         "--domain", '[{"kind": "hub"}]', "--values", '["0"]', "--eval", json.dumps([point]))
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == f"unknown tagged point {point!r}"


@pytest.mark.parametrize("space, point, message", [
    # A key that no constructor takes was ignored: head(3), the hub and
    # int(2,1), exit 0.
    ("spoke_ray", {"kind": "head", "n": 3, "s": "1/2"}, "unknown point key 's' for kind 'head'"),
    ("spoke_ray", {"kind": "hub", "t": 5}, "unknown point key 't' for kind 'hub'"),
    ("star_tree", {"n": 2, "s": 1, "depth": 7}, "unknown point key 'depth' for kind 'int'"),
    # A missing key is malformed input, as before.
    ("spoke_ray", {"kind": "spoke", "n": 2}, "'s'"),
    ("star_tree", {"s": 1}, "'n'"),
    # Fields out of range, each named.
    ("spoke_ray", {"kind": "head", "n": 0}, "spoke index 0 must be an integer >= 1"),
    ("spoke_ray", {"kind": "ray", "t": -1}, "ray parameter -1 must be >= 0"),
    ("spoke_ray", {"kind": "spoke", "n": 3, "s": 10}, "spoke position 10 outside [0, 5/2]"),
    ("star_tree", {"n": 0, "s": 1}, "interval index 0 must be an integer >= 1"),
    ("star_tree", {"n": 3, "s": 4}, "position 4 outside [0, 3]"),
], ids=lambda a: json.dumps(a)[:40])
def test_tagged_point_fields_exit_2(capsys, space, point, message):
    code, out, err = run(capsys, "extend", "mcshane", "--space", json.dumps({"type": space}),
                         "--domain", '[{"kind": "hub"}]', "--values", '["0"]', "--eval", json.dumps([point]))
    assert (code, out) == (2, "")
    assert message in json.loads(err)["message"]


@pytest.mark.parametrize("argv, message", [
    # A missing point key ended in the constructor's TypeError, naming a
    # Python function; a missing finite matrix in KeyError.
    (("extend", "mcshane", "--space", '{"type": "spoke_ray"}', "--domain", '[{"kind": "hub"}]', "--values", '["0"]',
      "--eval", '[{"kind": "spoke", "n": 2}]'), "missing point key 's' for kind 'spoke'"),
    (("validate", "metric", "--space", '{"type": "finite_group"}'),
     "missing params key 'table' for space type 'finite_group'"),
    (("validate", "metric", "--space", '{"type": "finite"}'), "missing params key 'matrix' for space type 'finite'"),
], ids=["spoke point", "finite_group", "finite"])
def test_missing_keys_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["message"] == message


@pytest.mark.parametrize("space, origin, point, message", [
    # Any iterable was read as coordinates: the text "12" as (1,2), an
    # object's keys as (3,4), nested lists flattened; each exited 0.
    ({"type": "zd", "params": {"dim": 2}}, [0, 0], "12", "a coordinate point must be a JSON list, got '12'"),
    ({"type": "zd", "params": {"dim": 2}}, [0, 0], {"3": 0, "4": 1},
     "a coordinate point must be a JSON list, got {'3': 0, '4': 1}"),
    ({"type": "zd", "params": {"dim": 1}}, [0], 5, "a coordinate point must be a JSON list, got 5"),
    ({"type": "heisenberg"}, [0, 0, 0], "123", "a coordinate point must be a JSON list, got '123'"),
    ({"type": "lp"}, [0, 0], [[1, 2], [3, 4]], "an l^p point must be a flat JSON list of numbers, got [[1, 2], [3, 4]]"),
    ({"type": "lp"}, [0, 0], "7", "an l^p point must be a flat JSON list of numbers, got '7'"),
    ({"type": "lp"}, [0, 0], 7, "an l^p point must be a flat JSON list of numbers, got 7"),
    ({"type": "lp"}, [0, 0], [1, True], "an l^p point must be a flat JSON list of numbers, got [1, True]"),
    ({"type": "lp"}, [0, 0], ["1", "2"], "an l^p point must be a flat JSON list of numbers, got ['1', '2']"),
    # and a JSON true is no integer
    ({"type": "zd", "params": {"dim": 2}}, [0, 0], [1, True], "coordinate must be an integer, got True"),
    ({"type": "finite", "params": {"matrix": [[0, 1], [1, 0]]}}, 0, True, "point must be an integer, got True"),
], ids=lambda a: json.dumps(a)[:40])
def test_coordinate_points_must_be_json_lists_exit_2(capsys, space, origin, point, message):
    for domain, target in (([point], origin), ([origin], point)):  # as a domain point, then as an --eval point
        code, out, err = run(capsys, "extend", "mcshane", "--space", json.dumps(space),
                             "--domain", json.dumps(domain), "--values", '["0"]', "--eval", json.dumps([target]))
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == message


@pytest.mark.parametrize(
    "argv",
    [
        ("boundary", "--seed", "1"),
        ("extend", "mcshane", "--space", '{"type": "finite", "params": {"matrix": [[0]]}}',
         "--domain", "[0]", "--values", '["0"]', "--n", "5"),
        ("extend", "hahn-banach", "--mode", "inf"),
        ("spectral", "tau", "--matrix", "2,0,0,1/2", "--budget", "5"),
        ("spectral", "displacement", "--matrix", "2,0,0,1/2", "--count", "3"),
        ("spectral", "tracial", "--matrix", "1,0,0,1"),
        ("spectral", "principle", "--group", "zd"),
        ("dynamics", "almost-fixed", "--n", "5"),
        ("dynamics", "parabolic", "--grid", "5"),
        ("dynamics", "distorted-line", "--seed", "1"),
        ("gallery", "spoke-ray", "--check"),
        ("gallery", "star-tree", "--seed", "1"),
        ("gallery", "euclidean-zero", "--r", "2"),
        ("reduced", "classify-z", "--fixture", "z-shift"),
        ("reduced", "fixed-point", "--anchors", "1:2"),
        ("validate", "metric", "--name", "sqrt"),
        ("validate", "distortion", "--seed", "1"),
        ("spectral", "--n", "5", "tau", "--matrix", "2,0,0,1/2"),
    ],
    ids=lambda a: " ".join(x for x in a if not x.startswith(("{", "[")))[:48],
)
def test_unread_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_hi_rejected_before_the_orbit_is_built(capsys, monkeypatch):
    from horokit.dynamics import OrbitSpace

    def built(*args, **kwargs):
        raise AssertionError("orbit built before --eval-hi was checked")

    monkeypatch.setattr(OrbitSpace, "from_selfmap", built)
    code, _, err = run(capsys, "dynamics", "parabolic", "--fixture", "heisenberg-z", "--eval-hi", "-1")
    assert code == 2
    assert "--eval-hi" in err


def test_hahn_banach_star_tree_keeps_n_zero(capsys):
    code, out, _ = run(capsys, "extend", "hahn-banach", "--fixture", "star-tree", "--n", "0")
    assert code == 0
    assert len(json.loads(out)["result"]["values"]) == 8


@pytest.mark.parametrize("fixture", ["spoke-ray", "plane-axis", "star-tree"])
def test_hahn_banach_fails_on_an_unstabilized_value(capsys, monkeypatch, fixture):
    # An evaluated point whose limit did not stabilize fails the command,
    # whichever fixture, even when the audit passes.
    import horokit.cli as cli
    from horokit.extension import HahnBanachResult, RestrictionAudit
    from horokit.functionals import EvalOutcome

    def unstable(*args, **kwargs):
        return HahnBanachResult(None, {"p": EvalOutcome(Fraction(0), False, 0, None, 1)},
                                RestrictionAudit(True, 1, 0))

    monkeypatch.setattr(cli, "hahn_banach_extend", unstable)
    code, out, _ = run(capsys, "extend", "hahn-banach", "--fixture", fixture, "--n", "3")
    assert code == 1
    assert json.loads(out)["result"]["audit"]["passed"] is True


def test_heisenberg_translation_far_out(capsys, monkeypatch):
    # |g^64| = 68 for g = (1, 0, 2), far past what a word-length search reaches.
    import horokit.cli as cli

    reports = []

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    real = cli.translation_number
    monkeypatch.setattr(cli, "translation_number", recording)
    code, out, _ = run(capsys, "spectral", "tau", "--map", "translation", "--group", "heisenberg",
                       "--vector", "1,0,2", "--n", "64")
    assert code == 0
    powers = [heis_matrix(0, 0, 0)]
    for _ in range(64):
        powers.append(heis_matmul(powers[-1], heis_matrix(1, 0, 2)))
    want = h3_lengths_by_area([heis_triple(m) for m in powers], 72)
    lengths = [want[heis_triple(m)] for m in powers]
    assert reports[0].displacements == lengths
    trace = [min(lengths[j] / j for j in range(1, k + 1)) for k in range(1, 65)]
    assert json.loads(out)["result"]["bound_trace"] == trace
