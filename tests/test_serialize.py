import gc
import json
import math
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from igk import (
    MarkovKernel,
    Measure,
    PowerMeasure,
    SampleSpace,
    SignedMeasure,
    Statistic,
    evaluate,
    mass_gradient,
)
from igk import AtomLabels, families, serialize
from igk.markov import _require_source
from igk.models import ParametrizedMeasureModel

SCHEMA_DIR = Path(serialize.__file__).parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------

def test_dumps_is_plain_json():
    obj = {"a": 1, "b": [1.5, 2.5], "c": {"d": None, "e": True}, "f": "x"}
    assert json.loads(serialize.dumps(obj)) == obj


def test_dumps_floats_roundtrip_exactly():
    values = [math.pi, 0.1, 1e-300, 123456789.123456789, -2.0 / 3.0]
    text = serialize.dumps(values)
    assert json.loads(text) == values
    assert "0.10000000000000001" in text


def test_dumps_keeps_ints_and_inlines_numeric_lists():
    text = serialize.dumps({"n": 3, "row": [1.0, 2.0]})
    assert '"n": 3' in text
    assert "[1, 2]" in text
    # lists of objects go one element per line
    nested = serialize.dumps([{"a": 1}, {"a": 2}])
    assert nested.count("\n") > 2


def test_dumps_rejects_non_finite_and_unknown_types():
    with pytest.raises(ValueError):
        serialize.dumps(float("nan"))
    with pytest.raises(ValueError):
        serialize.dumps([math.inf])
    with pytest.raises(TypeError):
        serialize.dumps(object())


def test_dumps_is_deterministic():
    obj = {"b": [1.0, {"x": 2.0}], "a": 3}
    assert serialize.dumps(obj) == serialize.dumps(obj)


def test_write_csv():
    text = serialize.write_csv(["a", "b"], [[1.0, 0.5], [2.0, 1.0 / 3.0]])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[2] == "2,0.33333333333333331"


# ---------------------------------------------------------------------------
# object round trips
# ---------------------------------------------------------------------------

def test_space_roundtrip():
    sp = SampleSpace(["a", "b"], coords=[[0.0], [1.0]], weights=[0.5, 0.5])
    assert serialize.space_from_obj(serialize.space_to_obj(sp)) == sp
    plain = SampleSpace(["a", "b"])
    obj = serialize.space_to_obj(plain)
    assert "coords" not in obj and "weights" not in obj
    assert serialize.space_from_obj(obj) == plain


def test_measure_roundtrip():
    sp = SampleSpace(["a", "b"])
    nu = SignedMeasure(sp, [1.5, -0.5])
    obj = serialize.measure_to_obj(nu)
    assert "r" not in obj
    assert serialize.measure_from_obj(obj) == nu
    pm = PowerMeasure(sp, 0.5, [1.0, 2.0])
    obj = serialize.measure_to_obj(pm)
    assert obj["r"] == 0.5
    assert serialize.measure_from_obj(obj) == pm


def test_kernel_and_statistic_roundtrip():
    src = SampleSpace(["a", "b", "c"])
    tgt = SampleSpace(["x", "y"])
    k = MarkovKernel(src, tgt, [[1, 0], [0.25, 0.75], [0, 1]])
    k2 = serialize.kernel_from_obj(serialize.kernel_to_obj(k))
    assert k2.source == src and k2.target == tgt
    np.testing.assert_array_equal(k2.rows, k.rows)
    kappa = Statistic(src, tgt, [0, 0, 1])
    kappa2 = serialize.statistic_from_obj(serialize.statistic_to_obj(kappa))
    np.testing.assert_array_equal(kappa2.map, kappa.map)


def test_kernel_or_statistic_sniffing():
    src = SampleSpace(["a", "b"])
    tgt = SampleSpace(["x"])
    k = MarkovKernel(src, tgt, [[1.0], [1.0]])
    kappa = Statistic(src, tgt, [0, 0])
    assert isinstance(
        serialize.kernel_or_statistic_from_obj(serialize.kernel_to_obj(k)), MarkovKernel
    )
    assert isinstance(
        serialize.kernel_or_statistic_from_obj(serialize.statistic_to_obj(kappa)),
        Statistic,
    )
    with pytest.raises(ValueError):
        serialize.kernel_or_statistic_from_obj({"source": {}, "target": {}})


def test_kernel_to_csv_header_is_target_atoms():
    src = SampleSpace(["a", "b"])
    tgt = SampleSpace(["x", "y"])
    k = MarkovKernel(src, tgt, [[1, 0], [0.5, 0.5]])
    lines = serialize.kernel_to_csv(k).splitlines()
    assert lines[0] == "x,y"
    assert lines[2] == "0.5,0.5"


# ---------------------------------------------------------------------------
# model objects
# ---------------------------------------------------------------------------

def test_model_from_obj_builtin():
    model = serialize.model_from_obj({"density": {"builtin": "bernoulli"}})
    assert model.name == "bernoulli"
    with pytest.raises(ValueError, match="extra keys"):
        serialize.model_from_obj(
            {"density": {"builtin": "bernoulli"}, "space": {"atoms": ["a"]}}
        )


def test_model_from_obj_dsl_density():
    obj = {
        "domain": {"bounds": [[0.1, 2.0]]},
        "space": {"atoms": ["a", "b"], "coords": [[0.0], [1.0]]},
        "density": "exp(t1*x1)",
    }
    model = serialize.model_from_obj(obj, name="demo")
    assert model.name == "demo"
    mu = evaluate(model, [0.5])
    np.testing.assert_allclose(mu.mass, [1.0, math.exp(0.5)])
    # symbolic differentiation supplies the gradient
    assert model.density_grad is not None
    np.testing.assert_allclose(
        mass_gradient(model, [0.5]), [[0.0, math.exp(0.5)]], rtol=1e-12
    )


def test_model_from_obj_grid_space():
    obj = {
        "domain": {"bounds": [[None, None]]},
        "space": {"grid": {"interval": [0.0, 1.0], "points": 4}},
        "density": "1 + 0*t1",
    }
    model = serialize.model_from_obj(obj)
    assert model.space.atoms == ("g0", "g1", "g2", "g3")
    np.testing.assert_allclose(model.space.weights, 0.25)
    np.testing.assert_allclose(model.space.coords[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert evaluate(model, [3.0]).total() == pytest.approx(1.0)


def test_model_from_obj_bound_spellings():
    obj = {
        "domain": {"bounds": [["-inf", "inf"], [None, 1.0]]},
        "space": {"atoms": ["a"]},
        "density": "exp(t1) + 0*t2",
    }
    model = serialize.model_from_obj(obj)
    assert model.domain.bounds == ((-math.inf, math.inf), (-math.inf, 1.0))
    with pytest.raises(ValueError, match="bad bound"):
        serialize.model_from_obj(
            {
                "domain": {"bounds": [["wide", 1.0]]},
                "space": {"atoms": ["a"]},
                "density": "t1",
            }
        )


def test_model_from_obj_explicit_gradients():
    obj = {
        "domain": {"bounds": [[0.0, 1.0]]},
        "space": {"atoms": ["a", "b"]},
        "density": "t1 + 1",
        "density_grad": ["1"],
    }
    model = serialize.model_from_obj(obj)
    np.testing.assert_allclose(mass_gradient(model, [0.5]), [[1.0, 1.0]])
    obj["density_grad"] = ["1", "0"]
    with pytest.raises(ValueError, match="density_grad"):
        serialize.model_from_obj(obj)


def test_model_from_obj_falls_back_to_finite_differences():
    obj = {
        "domain": {"bounds": [[-1.0, 1.0]]},
        "space": {"atoms": ["a"]},
        "density": "1 + abs(t1)",
    }
    model = serialize.model_from_obj(obj)
    assert model.density_grad is None
    np.testing.assert_allclose(mass_gradient(model, [0.5]), [[1.0]], rtol=1e-6)


def test_model_from_obj_statistical_flag():
    obj = {
        "domain": {"bounds": [[0.0, 1.0]]},
        "space": {"atoms": ["a", "b"]},
        "density": "if(x1 == 0, t1, 1 - t1)",
        "statistical": True,
    }
    model = serialize.model_from_obj(
        {**obj, "space": {"atoms": ["a", "b"], "coords": [[0.0], [1.0]]}}
    )
    assert model.statistical
    assert evaluate(model, [0.3]).total() == pytest.approx(1.0)


def test_model_from_obj_out_of_range_variable():
    from igk import UnknownIdentifierError

    obj = {
        "domain": {"bounds": [[0.0, 1.0]]},
        "space": {"atoms": ["a"]},
        "density": "t2",
    }
    with pytest.raises(UnknownIdentifierError):
        serialize.model_from_obj(obj)


def _dsl_grid_model(interval, points):
    return serialize.model_from_obj({
        "domain": {"bounds": [[None, None]]},
        "space": {"grid": {"interval": interval, "points": points}},
        "density": "1 + 0*t1*x1",
    })


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def test_all_schemas_are_valid_draft_2020_12():
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        schema = load_schema(path.name)
        jsonschema.Draft202012Validator.check_schema(schema)


def test_objects_validate_against_their_schemas():
    explicit = SampleSpace(["a", "b"], coords=[[0.0], [1.0]], weights=[0.5, 0.5])
    # a space built from a grid is written as its rule, in every file
    grids = [families.build("gaussian-grid(5,40)").space, _dsl_grid_model([0, 1], 6).space]
    assert all("grid" in serialize.space_to_obj(sp) for sp in grids)
    tgt = SampleSpace(["x"])
    for sp in [explicit] + grids:
        n = sp.n_atoms
        for obj, name in [
            (serialize.space_to_obj(sp), "space"),
            (serialize.measure_to_obj(SignedMeasure(sp, np.linspace(1, -1, n))), "measure"),
            (serialize.measure_to_obj(PowerMeasure(sp, 0.5, np.arange(1.0, n + 1))), "measure"),
            (serialize.kernel_to_obj(MarkovKernel(sp, tgt, np.ones((n, 1)))), "kernel"),
            (serialize.kernel_to_obj(MarkovKernel(tgt, sp, np.full((1, n), 1 / n))), "kernel"),
            (serialize.statistic_to_obj(Statistic(sp, tgt, np.zeros(n, dtype=int))), "statistic"),
            (serialize.statistic_to_obj(Statistic(sp, sp, np.arange(n)[::-1])), "statistic"),
        ]:
            jsonschema.validate(json.loads(serialize.dumps(obj)), load_schema(name + ".schema.json"))
    model_obj = {
        "domain": {"bounds": [[0.0, 1.0]]},
        "space": {"atoms": ["a", "b"]},
        "density": "t1 + 1",
        "statistical": False,
    }
    jsonschema.validate(model_obj, load_schema("model.schema.json"))
    jsonschema.validate(
        {"density": {"builtin": "bernoulli"}}, load_schema("model.schema.json")
    )


# ---------------------------------------------------------------------------
# grid spaces as rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space, rule", [
    (families.build("gaussian-grid(5,40)").space, {"interval": [-5, 5], "points": 40}),
    (_dsl_grid_model([-0.3, math.e], 7).space, {"interval": [-0.3, math.e], "points": 7}),
], ids=["gaussian-grid(5,40)", "DSL grid model"])
def test_a_grid_space_is_written_as_its_rule_and_read_back_bit_equal(space, rule):
    obj = json.loads(serialize.dumps(serialize.space_to_obj(space)))
    assert obj == {"grid": rule}
    back = serialize.space_from_obj(obj)
    assert back == space and back.atoms == AtomLabels("g{}", (space.n_atoms,))
    assert back.coords.tobytes() == space.coords.tobytes()
    assert back.weights.tobytes() == space.weights.tobytes()
    measure = serialize.measure_from_obj(json.loads(serialize.dumps(
        SignedMeasure(space, np.arange(space.n_atoms)))))
    assert measure == SignedMeasure(space, np.arange(space.n_atoms))


@pytest.mark.parametrize("space", [
    families.ex41(5).space,
    families.ex_suff_projection(4, 2).target,
    families.ex_suff(4, 2).space,
    serialize.space_from_obj(  # read atom by atom, so written so
        serialize.space_to_obj(SampleSpace(["g0", "g1"], [0.25, 0.75], [0.5, 0.5]))),
], ids=["ex4.1 t-grid", "ex-suff target", "ex-suff rectangle", "explicit g atoms"])
def test_every_other_space_is_written_atom_by_atom(space):
    obj = serialize.space_to_obj(space)
    assert obj["atoms"] == list(space.atoms) and "grid" not in obj
    assert serialize.space_from_obj(json.loads(serialize.dumps(obj))) == space


def test_a_statistic_on_the_models_grid_rule_shares_the_models_space():
    # one space per rule: no second coords and weights pair for the statistic's source
    model = families.build("gaussian-grid(5,40)")
    statistic = Statistic(model.space, SampleSpace(["a", "b"]), np.arange(40) % 2)
    back = serialize.statistic_from_obj(json.loads(serialize.dumps(statistic)))
    assert back.source is model.space
    assert back.target == statistic.target


def test_grid_rules_that_differ_in_a_zeros_sign_stay_two_spaces():
    # -0.0 == 0.0 and hashes alike; one shared space would write one rule for both
    def written(lo):
        space = serialize.space_from_obj({"grid": {"interval": [lo, 1.0], "points": 4}})
        text = serialize.dumps(serialize.space_to_obj(space))
        return space, json.loads(text, parse_int=float)["grid"]  # "-0" reads as -0.0

    (pos, rule), (neg, neg_rule), (again, again_rule) = map(written, (0.0, -0.0, 0.0))
    assert math.copysign(1, rule["interval"][0]) == 1 == -math.copysign(1, neg_rule["interval"][0])
    assert again_rule == rule and neg is not pos and again is not neg
    assert pos.coords.tobytes() == neg.coords.tobytes() == again.coords.tobytes()


def _transport_statistic(tmp_path):
    """A 4:1 statistic from gaussian-grid(5,20000) onto 5000 atoms, written
    to a file, and the model's space."""
    space = families.build("gaussian-grid(5,20000)").space
    target = SampleSpace(["b{}".format(i) for i in range(5000)])
    mapping = np.random.default_rng(0).permutation(np.repeat(np.arange(5000), 4))
    path = tmp_path / "statistic.json"
    path.write_text(serialize.dumps(Statistic(space, target, mapping)) + "\n", encoding="utf-8")
    return path, space


def test_matching_a_rule_read_statistic_makes_no_label(tmp_path, monkeypatch):
    def boom(self, i):
        raise AssertionError("a label was made")

    path, space = _transport_statistic(tmp_path)
    statistic = serialize.statistic_from_obj(serialize.load_json(path))
    monkeypatch.setattr(AtomLabels, "_label", boom)
    _require_source(statistic, space, "the model")


def test_loading_a_rule_read_statistic_peaks_low(tmp_path):
    path, _ = _transport_statistic(tmp_path)

    def load():
        return serialize.statistic_from_obj(serialize.load_json(path))

    load()  # first use: imports and caches are not the load's cost
    gc.collect()
    tracemalloc.start()
    try:
        load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 6.72 MB when the source was written atom by atom
    assert peak <= 2.5e6, peak
