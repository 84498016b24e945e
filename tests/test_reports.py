"""The CLI writes library reports through ``serialize.dumps`` directly.

Each report is compared byte for byte with the same report assembled by
reference copies of the hand-built dict builders the CLI used before
(field by field, under the same keys), so the layout is pinned to the
library dataclasses without being decided twice.
"""

import json

import numpy as np
import pytest

from igk import (
    MarkovKernel,
    SampleSpace,
    SignedMeasure,
    Statistic,
    __version__,
    families,
    infoloss,
    markov,
    models,
    serialize,
)
from igk.cli import main


# ---------------------------------------------------------------------------
# reference implementations: the CLI's former report builders
# ---------------------------------------------------------------------------

def _old_report(config, body):
    out = {"version": __version__, "config": config}
    out.update(body)
    return out


def _old_directions(model, random_n, seed):
    d = model.domain.dim
    dirs = [np.eye(d)[a] for a in range(d)]
    if random_n:
        rng = np.random.default_rng(seed)
        for _ in range(random_n):
            v = rng.standard_normal(d)
            norm = np.linalg.norm(v)
            dirs.append(v / norm if norm > 0 else np.eye(d)[0])
    return dirs


def _loss_entries_obj(report):
    return [
        {
            "xi": list(e.xi),
            "direction": list(e.direction),
            "source_norm_k": e.source_norm_k,
            "induced_norm_k": e.induced_norm_k,
            "loss": e.loss,
        }
        for e in report.entries
    ]


def _factorization_obj(result):
    obj = {"status": result.status, "residual": result.residual}
    obj["mu0"] = (
        None if result.mu0 is None else serialize.measure_to_obj(result.mu0)
    )
    obj["conflict"] = (
        None
        if result.conflict is None
        else {
            "xi_a": list(result.conflict.xi_a),
            "xi_b": list(result.conflict.xi_b),
            "atom": result.conflict.atom,
            "variation": result.conflict.variation,
        }
    )
    obj["subgrids"] = [
        {
            "xi_first": list(s.xi_first),
            "xi_last": list(s.xi_last),
            "n_points": s.n_points,
            "mu": serialize.measure_to_obj(s.mu),
        }
        for s in result.subgrids
    ]
    obj["reconstruction_residual"] = result.reconstruction_residual
    return obj


def _integrability_body(report):
    return {
        "k": report.k,
        "grid": [list(x) for x in report.grid],
        "directions": [list(v) for v in report.directions],
        "values": [list(row) for row in report.values],
        "max_jump": report.max_jump,
        "max_jump_at": list(report.max_jump_at),
        "flagged": [list(f) for f in report.flagged],
        "passed": report.passed,
    }


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

BERNOULLI = "builtin:bernoulli"


@pytest.fixture
def files(tmp_path):
    binary = SampleSpace(["1", "0"])
    src = SampleSpace(["x1", "x2"])
    objs = {
        "kernel": serialize.kernel_to_obj(
            MarkovKernel(src, SampleSpace(["y1", "y2"]), [[1.0, 0.0], [0.5, 0.5]])
        ),
        "kernel3": serialize.kernel_to_obj(MarkovKernel(
            binary, SampleSpace(["a", "b", "c"]), [[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]]
        )),
        "collapse": serialize.statistic_to_obj(
            Statistic(binary, SampleSpace(["all"]), [0, 0])
        ),
        "identity": serialize.statistic_to_obj(Statistic(binary, binary, [0, 1])),
        "signed": serialize.measure_to_obj(SignedMeasure(src, [0.05, -0.025])),
        "power": {"space": serialize.space_to_obj(src), "r": 0.5, "coeff": [1.0, 2.0]},
        "zero-model": {
            "domain": {"bounds": [[0, 1]]},
            "space": {"atoms": ["1", "0"], "coords": [1, 0]},
            "density": "0*t1",
        },
        "jump-model": {
            "domain": {"bounds": [[0, 1]]},
            "space": {"atoms": ["1", "0"], "coords": [1, 0]},
            "density": "if(t1 < 0.5, t1, 100*t1*t1)",
        },
    }
    paths = {}
    for name, obj in objs.items():
        p = tmp_path / (name + ".json")
        p.write_text(serialize.dumps(obj) + "\n", encoding="utf-8")
        paths[name] = str(p)
    return paths


def cli_text(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def expected(config, body):
    return serialize.dumps(_old_report(config, body)) + "\n"


def load_model(spec):
    if spec.startswith("builtin:"):
        return families.build(spec[len("builtin:"):])
    return serialize.model_from_obj(serialize.load_json(spec), name=spec)


def load_transport(spec):
    if spec.startswith("builtin:ex-suff-proj"):
        return families.ex_suff_projection(20, 10)
    return serialize.kernel_or_statistic_from_obj(serialize.load_json(spec))


def grid_of(lo, hi, n):
    return [np.array([v]) for v in np.linspace(lo, hi, n)]


# ---------------------------------------------------------------------------
# byte equality with the reference builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transport,name", [("kernel", "kernel3"), ("statistic", "collapse")])
def test_infoloss_report(capsys, files, transport, name):
    out = cli_text(
        capsys, "infoloss", "--model", BERNOULLI, "--" + transport, files[name],
        "--xi-grid", "0.2:0.8:3", "--k", "1.5", "--random", "2", "--seed", "5",
    )
    model = load_model(BERNOULLI)
    report = infoloss.loss_table(
        model, load_transport(files[name]), grid_of(0.2, 0.8, 3),
        _old_directions(model, 2, 5), 1.5,
    )
    config = {
        "model": BERNOULLI,
        "kernel": files[name] if transport == "kernel" else None,
        "statistic": files[name] if transport == "statistic" else None,
        "k": 1.5, "xi-grid": "0.2:0.8:3", "random": 2, "seed": 5,
    }
    body = {
        "k": report.k,
        "entries": _loss_entries_obj(report),
        "max_loss": report.max_loss,
        "argmax": report.argmax,
        "warnings": list(report.warnings),
    }
    assert out == expected(config, body)


@pytest.mark.parametrize("transport,name", [("kernel", "kernel3"), ("statistic", "identity")])
def test_sufficient_report(capsys, files, transport, name):
    out = cli_text(
        capsys, "sufficient", "--model", BERNOULLI, "--" + transport, files[name],
        "--xi-grid", "0.2:0.8:4", "--k", "3",
    )
    verdict, report = infoloss.is_sufficient(
        load_model(BERNOULLI), load_transport(files[name]), grid_of(0.2, 0.8, 4), 3.0,
    )
    config = {
        "model": BERNOULLI,
        "kernel": files[name] if transport == "kernel" else None,
        "statistic": files[name] if transport == "statistic" else None,
        "k": 3.0, "xi-grid": "0.2:0.8:4", "tol": 1e-9,
    }
    body = {
        "sufficient": bool(verdict),
        "k": report.k,
        "tol": 1e-9,
        "max_loss": report.max_loss,
        "entries": _loss_entries_obj(report),
        "warnings": list(report.warnings),
    }
    assert out == expected(config, body)


@pytest.mark.parametrize("model,statistic,status,has_subgrids", [
    (BERNOULLI, "identity", "factorizable", True),
    (BERNOULLI, "collapse", "not-factorizable", False),
    ("builtin:ex-suff(20,10)", "builtin:ex-suff-proj(20,10)", "not-factorizable", True),
    ("zero-model", "collapse", "inapplicable", False),
])
def test_factorize_report(capsys, files, model, statistic, status, has_subgrids):
    model = files.get(model, model)
    statistic = files.get(statistic, statistic)
    out = cli_text(
        capsys, "factorize", "--model", model, "--statistic", statistic,
        "--xi-grid", "-0.9:0.9:5" if "ex-suff" in model else "0.2:0.8:3",
    )
    grid = grid_of(-0.9, 0.9, 5) if "ex-suff" in model else grid_of(0.2, 0.8, 3)
    result = infoloss.fisher_neyman_check(
        load_model(model), load_transport(statistic), grid,
    )
    assert result.status == status
    assert bool(result.subgrids) is has_subgrids
    config = {
        "model": model, "statistic": statistic,
        "xi-grid": "-0.9:0.9:5" if "ex-suff" in model else "0.2:0.8:3",
        "rel-tol": 1e-9,
    }
    assert out == expected(config, _factorization_obj(result))


@pytest.mark.parametrize("model,tol,flagged", [(BERNOULLI, "0.5", False), ("jump-model", "0.1", True)])
def test_check_integrability_report(capsys, files, model, tol, flagged):
    model = files.get(model, model)
    out = cli_text(
        capsys, "check-integrability", "--model", model, "--xi-grid", "0.3:0.7:5",
        "--tol", tol, "--random", "2", "--seed", "3",
    )
    m = load_model(model)
    report = models.check_k_integrability(
        m, grid_of(0.3, 0.7, 5), _old_directions(m, 2, 3), 2.0, tol=float(tol),
    )
    assert bool(report.flagged) is flagged
    config = {
        "model": model, "k": 2.0, "xi-grid": "0.3:0.7:5", "tol": float(tol),
        "random": 2, "seed": 3,
    }
    assert out == expected(config, _integrability_body(report))
    rows = cli_text(
        capsys, "check-integrability", "--model", model, "--xi-grid", "0.3:0.7:5",
        "--tol", tol, "--random", "2", "--seed", "3", "--format", "csv",
    ).splitlines()
    assert len(rows) == 1 + 5 * 3
    assert rows[1].split(",")[2] == serialize.dumps(report.values[0, 0])


@pytest.mark.parametrize("measure", ["signed", "power"])
def test_pushforward_report(capsys, files, measure):
    out = cli_text(
        capsys, "pushforward", "--kernel", files["kernel"], "--measure", files[measure],
    )
    kernel = load_transport(files["kernel"])
    nu = serialize.measure_from_obj(serialize.load_json(files[measure]))
    push = markov.power_pushforward if measure == "power" else markov.pushforward
    config = {"kernel": files["kernel"], "measure": files[measure]}
    body = {"measure": serialize.measure_to_obj(push(kernel, nu))}
    assert out == expected(config, body)


def test_decompose_kernel_report(capsys, files):
    out = cli_text(capsys, "decompose-kernel", "--kernel", files["kernel3"])
    k_cong, kappa1, kappa2 = markov.decompose_kernel(load_transport(files["kernel3"]))
    body = {
        "k_cong": serialize.kernel_to_obj(k_cong),
        "kappa1": serialize.statistic_to_obj(kappa1),
        "kappa2": serialize.statistic_to_obj(kappa2),
    }
    assert out == expected({"kernel": files["kernel3"]}, body)


def test_dumps_writes_dataclasses_in_field_order():
    entry = infoloss.LossEntry((0.5,), (1.0,), 4.0, 1.0, 3.0)
    assert json.loads(serialize.dumps(entry)) == {
        "xi": [0.5], "direction": [1.0], "source_norm_k": 4.0,
        "induced_norm_k": 1.0, "loss": 3.0,
    }
    assert list(json.loads(serialize.dumps(entry))) == [
        "xi", "direction", "source_norm_k", "induced_norm_k", "loss",
    ]
    with pytest.raises(TypeError):
        serialize.dumps(infoloss.LossEntry)


# ---------------------------------------------------------------------------
# one direction generator, flags, exit codes
# ---------------------------------------------------------------------------

def test_monotonicity_directions_match_cli(capsys):
    spec = "builtin:gaussian-grid(5,40)"
    obj = json.loads(cli_text(
        capsys, "check-integrability", "--model", spec, "--xi-grid", "0.1,1",
        "--random", "4", "--seed", "9",
    ))
    model = load_model(spec)
    space = model.space
    identity = Statistic(space, space, np.arange(space.n_atoms))
    report = infoloss.check_monotonicity(model, identity, [0.1, 1.0], n_random=4, seed=9)
    assert len(report.directions) == 2 + 4
    assert [list(v) for v in report.directions] == obj["directions"]


@pytest.mark.parametrize("argv", [
    ["tensor", "--model", BERNOULLI, "--xi", "0.5"],
    ["pushforward", "--kernel", "k.json", "--measure", "m.json"],
    ["sufficient", "--model", BERNOULLI, "--statistic", "s.json", "--xi-grid", "0.2:0.8:3"],
    ["factorize", "--model", BERNOULLI, "--statistic", "s.json", "--xi-grid", "0.2:0.8:3"],
    ["decompose-kernel", "--kernel", "k.json"],
    ["paper-example", "bernoulli"],
])
def test_seed_only_with_random_directions(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_failed_write_is_an_io_error(capsys, tmp_path):
    code = main([
        "tensor", "--model", BERNOULLI, "--xi", "0.5",
        "--out", str(tmp_path / "missing" / "out.json"),
    ])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")


def test_unmapped_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("a bug")

    monkeypatch.setattr(models, "tau_tensor", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["tensor", "--model", BERNOULLI, "--xi", "0.5"])
