import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from igk import (
    AtomLabels,
    MarkovKernel,
    ParametrizedMeasureModel,
    SampleSpace,
    SignedMeasure,
    Statistic,
    families,
    serialize,
)
from igk.cli import main

SCHEMA_DIR = Path(serialize.__file__).parent / "schemas"


def schema(name):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect_schema=None):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["version"]
    assert "config" in obj
    if expect_schema:
        jsonschema.validate(obj, schema(expect_schema))
    return obj


@pytest.fixture
def files(tmp_path):
    """A kernel, a statistic, a signed measure, and a power measure on disk."""
    src = SampleSpace(["x1", "x2"])
    tgt = SampleSpace(["y1", "y2"])
    k = MarkovKernel(src, tgt, [[1.0, 0.0], [0.5, 0.5]])
    kappa = Statistic(SampleSpace(["1", "0"]), SampleSpace(["all"]), [0, 0])
    ident = Statistic(SampleSpace(["1", "0"]), SampleSpace(["1", "0"]), [0, 1])
    paths = {}
    objs = {
        "kernel": serialize.kernel_to_obj(k),
        "collapse": serialize.statistic_to_obj(kappa),
        "identity": serialize.statistic_to_obj(ident),
        "signed": serialize.measure_to_obj(SignedMeasure(src, [0.05, -0.025])),
        "power": {
            "space": serialize.space_to_obj(src),
            "r": 0.5,
            "coeff": [1.0, 2.0],
        },
    }
    for name, obj in objs.items():
        p = tmp_path / (name + ".json")
        p.write_text(serialize.dumps(obj) + "\n", encoding="utf-8")
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_fisher_bernoulli(capsys):
    obj = run_json(
        capsys,
        "tensor", "--model", "builtin:bernoulli", "--xi", "0.5",
        expect_schema="report-tensor.schema.json",
    )
    assert obj["order"] == 2
    np.testing.assert_allclose(obj["fisher"], [[4.0]])


def test_tensor_key_depends_on_order(capsys):
    for order, key in ((1, "tau1"), (3, "amari_chentsov"), (4, "tau")):
        obj = run_json(
            capsys,
            "tensor", "--model", "builtin:bernoulli",
            "--xi", "0.25", "--order", str(order),
            expect_schema="report-tensor.schema.json",
        )
        assert key in obj
    code, _, err = run(
        capsys, "tensor", "--model", "builtin:bernoulli", "--xi", "0.25", "--order", "0"
    )
    assert code == 2 and "order" in err


@pytest.mark.parametrize("order", [0, 9])
def test_tensor_order_is_checked_before_the_model_loads(capsys, order):
    code, out, err = run(
        capsys, "tensor", "--model", "missing.json", "--xi", "0.25", "--order", str(order)
    )
    assert (code, out) == (2, "")
    assert err == "error: ValidationError: tensor order must be from 1 to 8, got {}\n".format(order)


def test_tensor_runs_at_order_8(capsys):
    obj = run_json(
        capsys, "tensor", "--model", "builtin:bernoulli", "--xi", "0.25", "--order", "8",
        expect_schema="report-tensor.schema.json",
    )
    assert obj["order"] == 8 and np.shape(obj["tau"]) == (1,) * 8


# README's model, with one field as a file may get it wrong; its density
# "t1" has total mass 2*t1, so a model read as statistical fails a contract
_README_MODEL = {
    "domain": {"bounds": [[0, 1]]},
    "space": {"atoms": ["1", "0"], "coords": [1, 0]},
    "density": "if(x1 > 0.5, t1, 1 - t1)",
    "statistical": True,
}


@pytest.mark.parametrize("field, value", [
    ("statistical", "false"),
    ("domain", {"bounds": [[0, True]]}),
    ("domain", {"dim": 2.7, "bounds": [[0, 1], [0, 1]]}),
    ("space", {"grid": {"interval": [0, 1], "points": "5"}}),
    ("space", {"grid": {"interval": [0, 1], "points": 0}}),
    ("space", {"grid": {"interval": [0, 1], "points": 2.5}}),
    ("space", {"atoms": [1, 0], "coords": [1, 0]}),
], ids=["statistical-string", "bound-true", "dim-fraction", "points-string", "points-0",
        "points-fraction", "numeric-atoms"])
def test_a_model_file_the_schema_rejects_is_bad_input(capsys, tmp_path, field, value):
    path = tmp_path / "model.json"
    obj = {**_README_MODEL, field: value, "density": "t1"}
    assert not jsonschema.Draft202012Validator(schema("model.schema.json")).is_valid(obj)
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "tensor", "--model", str(path), "--xi", "0.3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ValueError: ")


def test_tensor_out_of_domain_is_a_contract_failure(capsys):
    code, _, err = run(
        capsys, "tensor", "--model", "builtin:bernoulli", "--xi", "1.5"
    )
    assert code == 3
    assert "DomainError" in err


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_signed(capsys, files):
    obj = run_json(
        capsys,
        "pushforward", "--kernel", files["kernel"], "--measure", files["signed"],
        expect_schema="report-pushforward.schema.json",
    )
    np.testing.assert_allclose(obj["measure"]["coeff"], [0.0375, -0.0125])
    assert "r" not in obj["measure"]


def test_pushforward_power_measure(capsys, files):
    obj = run_json(
        capsys,
        "pushforward", "--kernel", files["kernel"], "--measure", files["power"],
        expect_schema="report-pushforward.schema.json",
    )
    assert obj["measure"]["r"] == 0.5
    np.testing.assert_allclose(
        obj["measure"]["coeff"], [math.sqrt(3.0), math.sqrt(2.0)]
    )


# ---------------------------------------------------------------------------
# infoloss / sufficient / factorize
# ---------------------------------------------------------------------------

def test_infoloss_json_and_csv(capsys, files):
    args = (
        "infoloss", "--model", "builtin:bernoulli", "--statistic", files["collapse"],
        "--xi-grid", "0.2:0.8:3", "--k", "2",
    )
    obj = run_json(capsys, *args, expect_schema="report-infoloss.schema.json")
    assert obj["k"] == 2.0
    assert len(obj["entries"]) == 3
    assert obj["max_loss"] == pytest.approx(1.0 / (0.2 * 0.8))
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "xi,direction,source_norm_k,induced_norm_k,loss"
    assert len(lines) == 4


def test_infoloss_requires_exactly_one_transport(capsys, files):
    code, _, err = run(
        capsys,
        "infoloss", "--model", "builtin:bernoulli",
        "--xi-grid", "0.2:0.8:3",
    )
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys,
        "infoloss", "--model", "builtin:bernoulli",
        "--kernel", files["kernel"], "--statistic", files["collapse"],
        "--xi-grid", "0.2:0.8:3",
    )
    assert code == 2 and "exactly one" in err


def test_sufficient_identity_statistic(capsys, files):
    obj = run_json(
        capsys,
        "sufficient", "--model", "builtin:bernoulli",
        "--statistic", files["identity"], "--xi-grid", "0.2:0.8:5",
        expect_schema="report-sufficient.schema.json",
    )
    assert obj["sufficient"] is True
    assert obj["max_loss"] <= 1e-9
    obj = run_json(
        capsys,
        "sufficient", "--model", "builtin:bernoulli",
        "--statistic", files["collapse"], "--xi-grid", "0.2:0.8:5",
        expect_schema="report-sufficient.schema.json",
    )
    assert obj["sufficient"] is False


def test_factorize_reports_conflict(capsys, files):
    obj = run_json(
        capsys,
        "factorize", "--model", "builtin:bernoulli",
        "--statistic", files["collapse"], "--xi-grid", "0.2:0.8:3",
        expect_schema="report-factorize.schema.json",
    )
    assert obj["status"] == "not-factorizable"
    assert obj["conflict"]["atom"] in ("1", "0")
    assert obj["mu0"] is None


def test_factorize_rejects_kernels(capsys, files):
    code, _, err = run(
        capsys,
        "factorize", "--model", "builtin:bernoulli",
        "--statistic", files["kernel"], "--xi-grid", "0.2:0.8:3",
    )
    assert code == 2 and "statistic" in err


def test_transport_on_another_space_is_bad_input(capsys, files):
    # the kernel lives on {x1, x2}, bernoulli on {1, 0}: same size, other atoms
    for cmd in ("infoloss", "sufficient"):
        code, out, err = run(
            capsys,
            cmd, "--model", "builtin:bernoulli",
            "--kernel", files["kernel"], "--xi-grid", "0.2:0.8:3",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: SpaceMismatchError: kernel source atoms do not match the "
            "model's sample space\n"
        )
    code, out, err = run(
        capsys,
        "factorize", "--model", "builtin:gaussian-grid",
        "--statistic", "builtin:ex-suff-proj(20,10)", "--xi-grid", "0,1;0.2,0.5",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: SpaceMismatchError: statistic source atoms do not match the "
        "model's sample space\n"
    )
    for measure, space in (("signed", "measure's"), ("power", "power measure's")):
        code, out, err = run(
            capsys,
            "pushforward", "--kernel", files["collapse"], "--measure", files[measure],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: SpaceMismatchError: statistic source atoms do not match the "
            "{} space\n".format(space)
        )


def test_transports_match_the_model_by_atoms(capsys, files, tmp_path):
    # gaussian-grid(5,40)'s atoms, without its coordinates and weights
    atoms = families.gaussian_grid(5, 40).space.atoms
    halves = Statistic(
        SampleSpace(atoms), SampleSpace(["lo", "hi"]), [0] * 20 + [1] * 20
    )
    stat = tmp_path / "halves.json"
    stat.write_text(serialize.dumps(serialize.statistic_to_obj(halves)))
    for cmd in ("infoloss", "sufficient", "factorize"):
        run_json(
            capsys,
            cmd, "--model", "builtin:gaussian-grid(5,40)",
            "--statistic", str(stat), "--xi-grid", "0,1;0.2,0.5",
            expect_schema="report-{}.schema.json".format(cmd),
        )
    # the kernel's atoms, with weights its space does not carry
    nu = SignedMeasure(SampleSpace(["x1", "x2"], weights=[2.0, 3.0]), [0.05, -0.025])
    measure = tmp_path / "weighted.json"
    measure.write_text(serialize.dumps(serialize.measure_to_obj(nu)))
    obj = run_json(
        capsys,
        "pushforward", "--kernel", files["kernel"], "--measure", str(measure),
        expect_schema="report-pushforward.schema.json",
    )
    np.testing.assert_allclose(obj["measure"]["coeff"], [0.0375, -0.0125])


def test_a_statistic_file_is_matched_to_the_model_once(capsys, tmp_path, monkeypatch):
    # the grid's labels are made on demand; one match makes each of them once
    atoms = ["g{}".format(i) for i in range(40)]
    halves = Statistic(SampleSpace(atoms), SampleSpace(["lo", "hi"]), [0] * 20 + [1] * 20)
    stat = tmp_path / "halves.json"
    stat.write_text(serialize.dumps(serialize.statistic_to_obj(halves)))
    made = []
    label = AtomLabels._label
    monkeypatch.setattr(AtomLabels, "_label", lambda self, i: made.append(i) or label(self, i))
    for cmd in ("infoloss", "sufficient", "factorize"):
        made.clear()
        run_json(
            capsys,
            cmd, "--model", "builtin:gaussian-grid(5,40)",
            "--statistic", str(stat), "--xi-grid", "0,1",
        )
        assert sorted(made) == list(range(40)), cmd  # the report names no atom


# ---------------------------------------------------------------------------
# decompose-kernel / check-integrability
# ---------------------------------------------------------------------------

def test_decompose_kernel_json_and_csv(capsys, files):
    obj = run_json(
        capsys,
        "decompose-kernel", "--kernel", files["kernel"],
        expect_schema="report-decompose-kernel.schema.json",
    )
    # the support only: K(x1)(y2) is 0, so x1|y2 is no atom
    assert obj["k_cong"]["target"]["atoms"] == ["x1|y1", "x2|y1", "x2|y2"]
    assert obj["kappa1"]["map"] == [0, 1, 1]
    assert obj["kappa2"]["map"] == [0, 0, 1]
    code, out, _ = run(capsys, "decompose-kernel", "--kernel", files["kernel"], "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1|y1,x2|y1,x2|y2"
    assert lines[1] == "1,0,0"
    assert lines[2] == "0,0.5,0.5"


def test_check_integrability(capsys):
    obj = run_json(
        capsys,
        "check-integrability", "--model", "builtin:bernoulli",
        "--xi-grid", "0.2:0.8:7",
        expect_schema="report-check-integrability.schema.json",
    )
    assert obj["passed"] is True
    assert obj["flagged"] == []
    assert len(obj["values"]) == 7


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_paper_example_bernoulli(capsys):
    obj = run_json(
        capsys,
        "paper-example", "bernoulli",
        expect_schema="report-paper-example.schema.json",
    )
    assert [r["xi"] for r in obj["rows"]] == [0.1, 0.25, 0.5]
    assert obj["max_abs_err"] < 1e-10


def test_paper_example_ex41(capsys):
    obj = run_json(
        capsys,
        "paper-example", "ex4.1", "--grid-points", "2000", "--xi", "1,0.5,0.2",
        expect_schema="report-paper-example.schema.json",
    )
    rows = obj["rows"]
    assert rows[0]["l1_quotient"] == pytest.approx(math.pi / 2.0, abs=1e-3)
    assert obj["monotone_decreasing"] is True
    code, _, err = run(capsys, "paper-example", "ex4.1", "--xi", "0,1")
    assert code == 2 and "xi != 0" in err


def test_paper_example_ex_suff(capsys):
    obj = run_json(
        capsys,
        "paper-example", "ex-suff", "--cells", "20x10",
        "--k", "2", "--xi-grid", "-1:1:5",
        expect_schema="report-paper-example.schema.json",
    )
    assert obj["verdict"] == "sufficient"
    assert obj["max_loss"] <= 1e-9
    assert obj["factorization"]["status"] == "not-factorizable"
    conflict = obj["factorization"]["conflict"]
    assert conflict["xi_a"][0] < 0.0 <= conflict["xi_b"][0]
    code, _, err = run(capsys, "paper-example", "ex-suff", "--cells", "20by10")
    assert code == 2 and "cells" in err


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_output_file_and_determinism(capsys, tmp_path, files):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = (
        "infoloss", "--model", "builtin:bernoulli", "--statistic", files["collapse"],
        "--xi-grid", "0.1:0.9:5", "--k", "1.5", "--random", "3", "--seed", "11",
    )
    assert main(list(args) + ["--out", str(out1)]) == 0
    assert main(list(args) + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.endswith(b"\n")


def test_validation_exit_codes(capsys, files, tmp_path):
    # unknown builtin
    code, _, err = run(capsys, "tensor", "--model", "builtin:poisson", "--xi", "0.5")
    assert code == 2 and "UnknownIdentifierError" in err
    # malformed grid
    code, _, err = run(
        capsys,
        "infoloss", "--model", "builtin:bernoulli",
        "--statistic", files["collapse"], "--xi-grid", "0.2:0.8",
    )
    assert code == 2
    # grid syntax on a multi-parameter model
    code, _, err = run(
        capsys,
        "infoloss", "--model", "builtin:gaussian-grid",
        "--statistic", files["collapse"], "--xi-grid", "0:1:3",
    )
    assert code == 2 and "single-parameter" in err
    # broken JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "tensor", "--model", str(bad), "--xi", "0.5")
    assert code == 2 and "JSONDecodeError" in err
    # JSON missing required keys
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    code, _, err = run(capsys, "tensor", "--model", str(empty), "--xi", "0.5")
    assert code == 2 and "KeyError" in err


def test_fractional_statistic_map_is_bad_input(capsys, files, tmp_path):
    obj = json.loads(Path(files["collapse"]).read_text(encoding="utf-8"))
    obj["map"] = [0, 0.5]
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(
        capsys,
        "infoloss", "--model", "builtin:bernoulli",
        "--statistic", str(path), "--xi-grid", "0.2:0.8:3",
    )
    assert code == 2 and out == ""
    assert err == "error: ValueError: statistic map entries must be integers\n"


@pytest.mark.parametrize("model, statistic", [
    ("builtin:ex-suff(20,10)", "builtin:ex-suff-proj(20.5,10)"),
    ("builtin:ex-suff(20.5,10)", "builtin:ex-suff-proj(20,10)"),
])
def test_fractional_builtin_count_is_a_domain_error(capsys, model, statistic):
    code, out, err = run(
        capsys,
        "infoloss", "--model", model, "--statistic", statistic, "--xi-grid", "0.2:0.8:3",
    )
    assert code == 3 and out == ""
    assert err == "error: DomainError: ex-suff Ns must be an integer, got 20.5\n"


@pytest.mark.parametrize("argv", [
    ("infoloss", "--k", "inf"),
    ("sufficient", "--k", "inf"),
    ("paper-example", "ex-suff", "--cells", "12x6", "--k", "inf"),
    ("paper-example", "ex-suff", "--cells", "12x6", "--k", "1"),
])
def test_order_k_is_checked_before_any_work(capsys, argv):
    if argv[0] != "paper-example":
        argv += ("--model", "builtin:ex-suff(12,6)", "--statistic", "builtin:ex-suff-proj(12,6)",
                 "--xi-grid", "-1:1:5")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ValidationError: ") and ("finite k" in err), err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv,flag", [
    (("sufficient", "--statistic", "builtin:ex-suff-proj(12,6)"), "--tol"),
    (("check-integrability",), "--tol"),
    (("factorize", "--statistic", "builtin:ex-suff-proj(12,6)"), "--rel-tol"),
    (("paper-example", "ex-suff", "--cells", "12x6"), "--tol"),
])
def test_tolerance_is_checked_before_loading(capsys, tmp_path, argv, flag, tol):
    # the model file does not exist: loading it first would exit 4
    if argv[0] != "paper-example":
        argv += ("--model", str(tmp_path / "nope.json"), "--xi-grid", "0.3:0.7:3")
    code, out, err = run(capsys, *argv, flag, tol)
    assert code == 2 and out == ""
    assert err == "error: ValidationError: {} must be a finite number >= 0, got {}\n".format(
        flag, float(tol))


def test_zero_tolerance_is_legal(capsys):
    suff = ("--model", "builtin:ex-suff(12,6)", "--statistic", "builtin:ex-suff-proj(12,6)",
            "--xi-grid", "-1:1:5")
    for argv in [("sufficient", "--tol", "0") + suff, ("factorize", "--rel-tol", "0") + suff,
                 ("paper-example", "ex-suff", "--cells", "12x6", "--tol", "0"),
                 ("check-integrability", "--model", "builtin:bernoulli", "--xi-grid", "0.3:0.7:3",
                  "--tol", "0")]:
        assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("cells", ["0x5", "3x2", "201x100", "2x0", "4x-1"])
def test_ex_suff_cells_need_positive_counts_and_an_even_ns(capsys, cells):
    code, out, err = run(capsys, "paper-example", "ex-suff", "--cells", cells)
    assert code == 2 and out == ""
    assert err == "error: ValidationError: --cells needs positive counts and an even Ns\n"


@pytest.mark.parametrize("grid", ["-inf:1:3", "0:nan:3"])
def test_non_finite_grid_bounds_are_bad_input(capsys, grid):
    # linspace once warned twice and made a NaN point, which exited 3 as a DomainError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "paper-example", "ex-suff", "--cells", "2x1",
                             "--xi-grid=" + grid)
    assert caught == []
    assert code == 2 and out == ""
    assert err == "error: ValidationError: grid bounds must be finite, got {!r}\n".format(grid)


@pytest.mark.parametrize("argv,message", [
    (("tensor", "--model", "builtin:bernoulli", "--xi", "a"), "bad parameter point 'a'"),
    (("paper-example", "bernoulli", "--xi", "0.1,x"), "bad value list '0.1,x'"),
    (("check-integrability", "--model", "builtin:bernoulli", "--xi-grid", "0:1:0"),
     "grid needs at least one point"),
    (("check-integrability", "--model", "builtin:bernoulli", "--xi-grid", "0.1,0.2;0.3"),
     "grid point [0.1, 0.2] has dimension 2, model has 1"),
], ids=["point", "value-list", "empty-grid", "grid-point-dimension"])
def test_bad_points_and_grids_are_bad_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: ValidationError: {}\n".format(message)


def test_paper_example_ex_suff_builds_its_grid_once(capsys, monkeypatch):
    # the model and its projection share one space: the (0, 1) axis is laid out once
    calls = []
    midpoint_grid = families.midpoint_grid

    def counted(lo, hi, n):
        calls.append((lo, hi, n))
        return midpoint_grid(lo, hi, n)

    monkeypatch.setattr(families, "midpoint_grid", counted)
    families._ex_suff_grid.cache_clear()
    run_json(capsys, "paper-example", "ex-suff", "--cells", "6x4")
    assert calls.count((0.0, 1.0, 4)) == 1, calls


SUFF = ("--model", "builtin:ex-suff(20,10)", "--statistic", "builtin:ex-suff-proj(20,10)",
        "--xi-grid", "-1:1:5")
# a normal density in (t1, t2) with its exponent behind abs(...): finite differences
FD_MODEL = {
    "domain": {"bounds": [["-inf", "inf"], [0, "inf"]]},
    "space": {"grid": {"interval": [-5.0, 5.0], "points": 40}},
    "density": "exp(-0.5*abs((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
}


@pytest.mark.parametrize("argv, calls", [
    # sufficiency and factorization read one evaluation per grid point
    (("paper-example", "ex-suff"), {"density": 0, "density_grad": 5}),
    (("sufficient",) + SUFF, {"density": 0, "density_grad": 5}),
    (("factorize",) + SUFF, {"density": 0, "density_grad": 5}),
    (("infoloss",) + SUFF, {"density": 0, "density_grad": 5}),
    # 1 + 2 * dim density calls per point of a two-parameter model
    (("check-integrability", "--model", "fd.json", "--xi-grid", "0,1;0.1,1.5;0.2,2"),
     {"density": 15, "density_grad": 0}),
], ids=["paper-example-ex-suff", "sufficient", "factorize", "infoloss", "check-integrability"])
def test_model_calls_per_command(capsys, monkeypatch, tmp_path, argv, calls):
    counts = dict.fromkeys(calls, 0)
    init = ParametrizedMeasureModel.__init__

    def counted(name, fn):
        def call(xi):
            counts[name] += 1
            return fn(xi)
        return call

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for name in counts:
            if getattr(self, name) is not None:
                setattr(self, name, counted(name, getattr(self, name)))

    monkeypatch.setattr(ParametrizedMeasureModel, "__init__", counting_init)
    (tmp_path / "fd.json").write_text(json.dumps(FD_MODEL), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    run_json(capsys, *argv)
    assert counts == calls


@pytest.mark.parametrize("cells", ["2x1", "4x3"])
def test_small_even_ex_suff_cells_are_sufficient(capsys, cells):
    obj = run_json(capsys, "paper-example", "ex-suff", "--cells", cells,
                   expect_schema="report-paper-example.schema.json")
    assert obj["verdict"] == "sufficient"


@pytest.mark.parametrize("k", ["inf", "nan"])
def test_check_integrability_rejects_non_finite_k_before_loading(capsys, tmp_path, k):
    # the model file does not exist: loading it first would exit 4
    code, out, err = run(
        capsys, "check-integrability", "--model", str(tmp_path / "nope.json"),
        "--k", k, "--xi-grid", "0.3:0.7:3",
    )
    assert code == 2 and out == ""
    assert err == "error: ValidationError: integrability needs a finite k >= 1, got {}\n".format(k)


def test_missing_file_is_an_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "tensor", "--model", str(tmp_path / "nope.json"), "--xi", "0.5"
    )
    assert code == 4
    assert "FileNotFoundError" in err


def test_csv_rejected_for_json_only_commands(capsys):
    # json-only subcommands do not even declare --format, so argparse
    # rejects the flag with the usual usage-error exit status
    with pytest.raises(SystemExit) as exc:
        main([
            "tensor", "--model", "builtin:bernoulli", "--xi", "0.5",
            "--format", "csv",
        ])
    assert exc.value.code == 2
    capsys.readouterr()


def test_builtin_statistic_spelling(capsys):
    obj = run_json(
        capsys,
        "sufficient", "--model", "builtin:ex-suff(12,6)",
        "--statistic", "builtin:ex-suff-proj(12,6)",
        "--xi-grid", "-1:1:5", "--k", "3",
        expect_schema="report-sufficient.schema.json",
    )
    assert obj["sufficient"] is True
    code, _, err = run(
        capsys,
        "sufficient", "--model", "builtin:ex-suff(12,6)",
        "--statistic", "builtin:unknown-thing",
        "--xi-grid", "-1:1:5",
    )
    assert code == 2
    assert err == ("error: UnknownIdentifierError: unknown builtin statistic 'unknown-thing' "
                   "(available: ex-suff-proj)\n")


def test_a_reader_that_closes_stdout_early_is_not_an_io_failure():
    # ex-suff's report is far larger than a pipe's buffer, so its writes meet the closed pipe
    src = str(Path(serialize.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "igk.cli", "paper-example", "ex-suff"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0 and err == b""


@pytest.mark.parametrize("flag", ["--random", "--seed"])
@pytest.mark.parametrize("argv", [
    ("infoloss", "--statistic", "builtin:ex-suff-proj(12,6)"),
    ("check-integrability",),
])
def test_negative_random_or_seed_is_checked_before_loading(capsys, tmp_path, argv, flag):
    # the model file does not exist: loading it first would exit 4; and
    # random.Random(-1) would silently draw the directions of seed 1
    code, out, err = run(
        capsys, *argv, "--model", str(tmp_path / "nope.json"), "--xi-grid", "0.3:0.7:3",
        flag, "-1",
    )
    assert code == 2 and out == ""
    assert err == "error: ValidationError: {} must be >= 0, got -1\n".format(flag)


def test_a_measure_file_with_string_atoms_is_bad_input(capsys, files, tmp_path):
    measure = tmp_path / "string-atoms.json"
    measure.write_text(json.dumps({"space": {"atoms": "xy"}, "coeff": [0.5, 0.5]}))
    code, out, err = run(capsys, "pushforward", "--kernel", files["kernel"],
                         "--measure", str(measure))
    assert (code, out) == (2, "")
    assert err == "error: ValueError: atoms must be a sequence of labels, not one string\n"


@pytest.mark.parametrize("points", ["0", "-5"])
def test_ex41_grid_points_below_one_are_bad_input(capsys, points):
    code, out, err = run(capsys, "paper-example", "ex4.1", "--grid-points", points)
    assert (code, out) == (2, "")
    assert err == "error: ValidationError: --grid-points must be >= 1, got {}\n".format(points)


def test_ex41_runs_on_one_grid_point(capsys):
    obj = run_json(capsys, "paper-example", "ex4.1", "--grid-points", "1",
                   expect_schema="report-paper-example.schema.json")
    assert obj["grid_points"] == 1 and len(obj["rows"]) == 4
