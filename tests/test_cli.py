import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from igk import MarkovKernel, SampleSpace, SignedMeasure, Statistic, families, serialize
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
            "error: ValidationError: the model does not live on the kernel's "
            "source space\n"
        )
    code, out, err = run(
        capsys,
        "factorize", "--model", "builtin:gaussian-grid",
        "--statistic", "builtin:ex-suff-proj(20,10)", "--xi-grid", "0,1;0.2,0.5",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: ValidationError: the model does not live on the statistic's "
        "source space\n"
    )
    for measure in ("signed", "power"):
        code, out, err = run(
            capsys,
            "pushforward", "--kernel", files["collapse"], "--measure", files[measure],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: ValidationError: the measure does not live on the "
            "statistic's source space\n"
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


# ---------------------------------------------------------------------------
# decompose-kernel / check-integrability
# ---------------------------------------------------------------------------

def test_decompose_kernel_json_and_csv(capsys, files):
    obj = run_json(
        capsys,
        "decompose-kernel", "--kernel", files["kernel"],
        expect_schema="report-decompose-kernel.schema.json",
    )
    assert obj["k_cong"]["target"]["atoms"] == ["x1|y1", "x1|y2", "x2|y1", "x2|y2"]
    assert obj["kappa1"]["map"] == [0, 0, 1, 1]
    assert obj["kappa2"]["map"] == [0, 1, 0, 1]
    code, out, _ = run(capsys, "decompose-kernel", "--kernel", files["kernel"], "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1|y1,x1|y2,x2|y1,x2|y2"
    assert lines[1] == "1,0,0,0"
    assert lines[2] == "0,0,0.5,0.5"


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
