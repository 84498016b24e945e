"""The CLI writes library reports through ``serialize.dumps`` directly.

Each report is compared byte for byte with the same report assembled by
reference copies of the hand-built dict builders the CLI used before
(field by field, under the same keys), so the layout is pinned to the
library dataclasses without being decided twice. The array writer of
``dumps`` and ``write_csv`` is compared byte for byte with a reference copy
of the per-item writer it replaced, on every CLI invocation below.
"""

import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest

from igk import (
    MarkovKernel,
    PowerMeasure,
    SampleSpace,
    SignedMeasure,
    Statistic,
    TransverseFamily,
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


# the per-item writer that serialize.dumps and serialize.write_csv replaced

def _old_fmt(v):
    if not math.isfinite(v):
        raise ValueError("cannot serialize non-finite number {}".format(v))
    return format(v, ".17g")


def _old_space_obj(space):
    obj = {"atoms": list(space.atoms)}
    if space.coords is not None:
        obj["coords"] = [list(row) for row in space.coords]
    if space.weights is not None:
        obj["weights"] = list(space.weights)
    return obj


def _old_measure_obj(nu):
    obj = {"space": _old_space_obj(nu.space)}
    if isinstance(nu, PowerMeasure):
        obj["r"] = nu.r
        obj["coeff"] = list(nu.coeff)
    else:
        obj["coeff"] = list(nu.mass)
    return obj


def _old_dumps(obj, indent=0):
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _old_fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            "{}{}: {}".format(inner, json.dumps(str(k)), _old_dumps(v, indent + 2))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(
            isinstance(v, (int, float, np.integer, np.floating, str, bool))
            for v in seq
        )
        if flat:
            return "[" + ", ".join(_old_dumps(v) for v in seq) + "]"
        parts = [inner + _old_dumps(v, indent + 2) for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (SignedMeasure, PowerMeasure)):
        return _old_dumps(_old_measure_obj(obj), indent)
    if isinstance(obj, (MarkovKernel, TransverseFamily)):
        return _old_dumps({
            "source": _old_space_obj(obj.source),
            "target": _old_space_obj(obj.target),
            "rows": [list(row) for row in markov.as_kernel(obj).rows],
        }, indent)
    if isinstance(obj, Statistic):
        return _old_dumps({
            "source": _old_space_obj(obj.source),
            "target": _old_space_obj(obj.target),
            "map": [int(j) for j in obj.map],
        }, indent)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return _old_dumps({f.name: getattr(obj, f.name) for f in fields}, indent)
    raise TypeError("cannot serialize {!r}".format(type(obj)))


def _old_write_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_old_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    return buf.getvalue()


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
# the array writer: the bytes of the per-item writer
# ---------------------------------------------------------------------------

CHECK = ("--xi-grid", "0.3:0.7:5", "--random", "2", "--seed", "3")
INVOCATIONS = [
    ("infoloss", "--model", BERNOULLI, "--kernel", "kernel3", "--xi-grid", "0.2:0.8:3",
     "--k", "1.5", "--random", "2", "--seed", "5"),
    ("infoloss", "--model", BERNOULLI, "--statistic", "collapse", "--xi-grid", "0.2:0.8:3",
     "--k", "1.5", "--random", "2", "--seed", "5"),
    ("infoloss", "--model", BERNOULLI, "--kernel", "kernel3", "--xi-grid", "0.2:0.8:3",
     "--format", "csv"),
    ("sufficient", "--model", BERNOULLI, "--kernel", "kernel3", "--xi-grid", "0.2:0.8:4", "--k", "3"),
    ("sufficient", "--model", BERNOULLI, "--statistic", "identity", "--xi-grid", "0.2:0.8:4",
     "--k", "3"),
    ("factorize", "--model", BERNOULLI, "--statistic", "identity", "--xi-grid", "0.2:0.8:3"),
    ("factorize", "--model", BERNOULLI, "--statistic", "collapse", "--xi-grid", "0.2:0.8:3"),
    ("factorize", "--model", "builtin:ex-suff(20,10)", "--statistic",
     "builtin:ex-suff-proj(20,10)", "--xi-grid", "-0.9:0.9:5"),
    ("factorize", "--model", "zero-model", "--statistic", "collapse", "--xi-grid", "0.2:0.8:3"),
    ("check-integrability", "--model", BERNOULLI, "--tol", "0.5") + CHECK,
    ("check-integrability", "--model", "jump-model", "--tol", "0.1") + CHECK,
    ("check-integrability", "--model", "jump-model", "--tol", "0.1", "--format", "csv") + CHECK,
    ("check-integrability", "--model", "builtin:gaussian-grid(5,40)", "--xi-grid", "0.1,1",
     "--random", "4", "--seed", "9"),
    ("pushforward", "--kernel", "kernel", "--measure", "signed"),
    ("pushforward", "--kernel", "kernel", "--measure", "power"),
    ("decompose-kernel", "--kernel", "kernel3"),
    ("decompose-kernel", "--kernel", "kernel3", "--format", "csv"),
    ("tensor", "--model", BERNOULLI, "--xi", "0.5", "--order", "3"),
    ("paper-example", "bernoulli"),
    ("paper-example", "ex4.1"),
    ("paper-example", "ex-suff"),
]


def assert_same_text(new, old):
    """Equal texts; else name the first differing line, not a diff of megabytes."""
    if new != old:
        pairs = list(zip(new.splitlines(True), old.splitlines(True))) + [(len(new), len(old))]
        line = next(i for i, (a, b) in enumerate(pairs) if a != b)
        pytest.fail("texts differ at line {}: {!r} != {!r}".format(line, *pairs[line]))


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda argv: " ".join(argv[:5]))
def test_cli_bytes_match_the_per_item_writer(capsys, monkeypatch, files, argv):
    argv = [files.get(a, a) for a in argv]
    out = cli_text(capsys, *argv)
    monkeypatch.setattr(serialize, "dumps", _old_dumps)
    monkeypatch.setattr(serialize, "write_csv", _old_write_csv)
    assert_same_text(out, cli_text(capsys, *argv))


def _edge_values():
    tiny, big = 5e-324, sys.float_info.max
    subnormal = np.array([tiny, -tiny, 2.5e-310, sys.float_info.min / 3])
    space = SampleSpace(["a", "b\"", "\u00fc"], coords=[[0.0, -0.0], [tiny, big], [-big, 1.5]],
                        weights=[1.0, 2.0, 3.0])
    kappa = Statistic(space, SampleSpace(["y", "z"]), [0, 1, 1])
    return {
        "ints": [0, -5, 2**70, np.int64(-7), np.uint8(200), True, False],
        "int arrays": [np.arange(-3, 3), np.array([2**64 - 1], dtype=np.uint64),
                       np.arange(6, dtype=np.int32).reshape(2, 3)],
        "strings": ["", "plain", "q\"uote", "\u00fc\n\t", ("tuple", "of", "labels")],
        "mixed": [1, 2.5, "x", True, None, [1.0, "y"], {"k": [0.5]}, (), {},
                  np.array(["s", "t"]), np.array([None, 1.5], dtype=object)],
        "nested": [[1.0, 2.0], [3.0], [[np.float64(4.0)], []], [np.array([0.1]), np.array([])]],
        "edge floats": [-0.0, tiny, -tiny, big, -big, 0.1, 1.0, 1e16, 2.0**-1074 * 3],
        "edge arrays": [np.array([-0.0]), subnormal, np.array([big, -big]), np.array([0.1]),
                        np.array([[0.1]]), np.array([[-0.0, tiny], [big, -big]])],
        "empty": [np.array([]), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0)),
                  np.zeros(0, dtype=int), [], ()],
        "layouts": [np.arange(12.0).reshape(3, 4).T, np.arange(12.0).reshape(3, 4)[:, ::2],
                    np.arange(24.0).reshape(2, 3, 4) / 7, np.float32([0.1, 1 / 3]),
                    np.float16([[0.1, -2.0]])],
        "values": [SignedMeasure(space, [0.1, -0.0, tiny]), PowerMeasure(space, 0.5, [1.0, 2.0, 3.0]),
                   kappa, markov.as_kernel(kappa),
                   markov.transverse_measures(kappa, SignedMeasure(space, [1.0, 1.0, 3.0])),
                   infoloss.LossEntry((0.5,), (1.0, -0.0), 4.0, 1.0, 3.0)],
    }


def test_edge_values_match_the_per_item_writer():
    rng = np.random.default_rng(2024)
    values = _edge_values()
    # seeded floats over the whole exponent range, in random shapes
    values["random"] = [
        rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 308, size=shape)
        for shape in [(1,), (7,), (1, 1), (3, 5), (5, 1), (1, 9), (200,)]
    ]
    for indent in (0, 2, 5):
        assert_same_text(serialize.dumps(values, indent), _old_dumps(values, indent))
    header = ["a,b", 'q"x', "plain"]
    tables = [a for a in values["edge arrays"] + values["random"] if a.ndim == 2]
    tables += [np.zeros((0, 3)), np.zeros((3, 0)), np.arange(6).reshape(2, 3),
               [(1.5, "s", 2), ("a,b", -0.0, True)]]
    for rows in tables:
        assert_same_text(serialize.write_csv(header, rows), _old_write_csv(header, rows))
    # arrays the per-item writer could not write still raise
    for value in (np.array([True]), np.array(1.0), np.array([1 + 2j])):
        for write in (serialize.dumps, _old_dumps):
            with pytest.raises(TypeError):
                write(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_still_raise(bad):
    arrays = [np.array([bad]), np.array([1.0, 2.0, bad, -bad]),
              np.array([[0.5, 1.0], [bad, 2.0]]), np.array([[bad]])]
    for arr in arrays:
        message = "cannot serialize non-finite number {}".format(bad)
        for write in (serialize.dumps, _old_dumps):
            with pytest.raises(ValueError, match="^{}$".format(message)):
                write({"ok": [1.0], "arr": arr, "later": np.array([math.nan])})
        if arr.ndim == 2:
            for write_csv in (serialize.write_csv, _old_write_csv):
                with pytest.raises(ValueError, match="^{}$".format(message)):
                    write_csv(["a", "b"][: arr.shape[1]], arr)


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
