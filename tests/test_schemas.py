"""The shipped JSON Schemas are the one definition of each input object.

Every space definition in any schema is the body of ``space.schema.json``
(explicit atoms, or a grid rule), each file states it at most once and
reaches it by a local ``$ref``, and ``serialize``'s readers give the
schemas' verdict on one corpus of inputs: every field of a space and of a
model, once valid and once not, and each space case again inside every
file that holds a space. A reader rejection must be bad input, so the CLI
exits 2 on it. The few checks no schema expresses are listed in
``SCHEMA_CANNOT_SAY``.
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest

from igk import serialize
from igk.cli import _EXIT_CODES, EXIT_VALIDATION

SCHEMA_DIR = Path(serialize.__file__).parent / "schemas"
SCHEMAS = {
    path.name[: -len(".schema.json")]: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(SCHEMA_DIR.glob("*.schema.json"))
}
HEAD = ("$schema", "$id", "title")
BAD_INPUT = next(classes for classes, code in _EXIT_CODES if code == EXIT_VALIDATION)


def _body(name, drop=HEAD + ("$defs",)):
    """A schema file's object definition: without its head and its ``$defs``."""
    return {k: v for k, v in SCHEMAS[name].items() if k not in drop}


def _walk(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from _walk(child)


def _lists_atoms(node):
    return isinstance(node, dict) and "atoms" in node.get("properties", {})


def _is_space(node):
    """A space definition: one alternative lists atoms, another states a grid rule."""
    alternatives = node.get("oneOf", []) if isinstance(node, dict) else []
    keys = {key for alt in alternatives for key in alt.get("properties", {})}
    return {"atoms", "grid"} <= keys


# ---------------------------------------------------------------------------
# one definition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_space_definition_is_the_space_schema(name):
    nodes = list(_walk(_body(name, HEAD)))
    spaces = [node for node in nodes if _is_space(node)]
    assert len(spaces) <= 1
    assert all(space == _body("space") for space in spaces)
    assert sum(map(_lists_atoms, nodes)) == len(spaces)  # no list of atoms outside it
    for node in _walk(SCHEMAS[name]):
        if isinstance(node, dict) and "$ref" in node:
            assert node["$ref"].startswith("#/$defs/"), node  # no $ref leaves its file


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_a_shared_definition_is_its_own_schema(name):
    for key, definition in SCHEMAS[name].get("$defs", {}).items():
        if key in SCHEMAS:
            assert definition == _body(key), (name, key)


def test_a_decomposition_report_states_each_object_once():
    schema = SCHEMAS["report-decompose-kernel"]
    assert sorted(schema["$defs"]) == ["kernel", "space", "statistic"]
    assert schema["properties"]["k_cong"] == {"$ref": "#/$defs/kernel"}
    for key in ("kappa1", "kappa2"):
        assert schema["properties"][key] == {"$ref": "#/$defs/statistic"}


def test_the_readme_model_example_is_a_model():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A model is a JSON object:\n\n```json\n")[1].split("```")[0]
    obj = json.loads(block)
    jsonschema.validate(obj, SCHEMAS["model"])
    assert serialize.model_from_obj(obj).statistical is True


# ---------------------------------------------------------------------------
# readers bound to the schemas
# ---------------------------------------------------------------------------

SPACE = {"atoms": ["1", "0"], "coords": [[1.0], [0.0]], "weights": [0.5, 0.5]}
MODEL = {
    "domain": {"dim": 1, "bounds": [[0, 1]]},
    "space": {"atoms": ["1", "0"], "coords": [1, 0]},
    "density": "if(x1 > 0.5, t1, 1 - t1)",
    "density_grad": ["if(x1 > 0.5, 1, -1)"],
    "statistical": True,
}
BUILTIN = {"density": {"builtin": "bernoulli"}}
KERNEL = {"source": {"atoms": ["a", "b"]}, "target": {"atoms": ["x"]}, "rows": [[1.0], [1]]}
STATISTIC = {"source": {"atoms": ["a", "b"]}, "target": {"atoms": ["x", "y"]}, "map": [0, 1]}
MEASURE = {"space": {"atoms": ["a", "b"]}, "r": 0.5, "coeff": [1, 2.5]}

READERS = {
    "space": (SPACE, serialize.space_from_obj),
    "model": (MODEL, serialize.model_from_obj),
    "builtin": (BUILTIN, serialize.model_from_obj),
    "kernel": (KERNEL, serialize.kernel_from_obj),
    "statistic": (STATISTIC, serialize.statistic_from_obj),
    "measure": (MEASURE, serialize.measure_from_obj),
}
SCHEMA_OF = {"builtin": "model"}

_DROP = object()

# (object, path of the field, value, schema verdict)
CORPUS = [
    ("space", ("atoms",), ["a", "b"], True),
    ("space", ("atoms",), [1, 0], False),
    ("space", ("atoms",), [], False),
    ("space", ("atoms",), "10", False),
    ("space", ("atoms",), {"1": 0, "0": 1}, False),
    ("space", ("atoms",), _DROP, False),
    ("space", ("coords",), [1, 0], True),
    ("space", ("coords",), [[1, 2], [0, 2.5]], True),
    ("space", ("coords",), _DROP, True),
    ("space", ("coords",), [["1"], ["0"]], False),
    ("space", ("coords",), [True, False], False),
    ("space", ("coords",), [[1], 0], False),
    ("space", ("coords",), None, False),
    ("space", ("coords",), 1, False),
    ("space", ("weights",), [1, 2.5], True),
    ("space", ("weights",), _DROP, True),
    ("space", ("weights",), [0.5, 0], False),
    ("space", ("weights",), [True, True], False),
    ("space", ("weights",), ["0.5", "0.5"], False),
    ("space", ("weights",), None, False),
    ("space", (), {"grid": {"interval": [0, 1], "points": 2}}, True),
    ("space", (), {"grid": {"interval": [0, 1], "points": 2.0}}, True),
    ("space", (), {"grid": {"interval": [0, 1], "points": "5"}}, False),
    ("space", (), {"grid": {"interval": [0, 1], "points": 0}}, False),
    ("space", (), {"grid": {"interval": [0, 1], "points": 2.5}}, False),
    ("space", (), {"grid": {"interval": [0, 1], "points": True}}, False),
    ("space", (), {"grid": {"interval": ["0", 1], "points": 2}}, False),
    ("space", (), {"grid": {"interval": [0], "points": 2}}, False),
    ("space", (), {"grid": {"points": 2}}, False),
    ("space", (), {}, False),
    ("space", (), {"atoms": ["a", "b"], "grid": {"interval": [0, 1], "points": 2}}, False),
    ("model", ("domain", "dim"), 1.0, True),
    ("model", ("domain", "dim"), _DROP, True),
    ("model", ("domain", "dim"), 2.7, False),
    ("model", ("domain", "dim"), "1", False),
    ("model", ("domain", "dim"), True, False),
    ("model", ("domain", "dim"), 0, False),
    ("model", ("domain", "bounds"), [[None, "+inf"]], True),
    ("model", ("domain", "bounds"), [["-inf", "Infinity"]], True),
    ("model", ("domain", "bounds"), [["-Infinity", "inf"]], True),
    ("model", ("domain", "bounds"), [[0, True]], False),
    ("model", ("domain", "bounds"), [["0", 1]], False),
    ("model", ("domain", "bounds"), [[0, "wide"]], False),
    ("model", ("domain", "bounds"), [[0]], False),
    ("model", ("domain", "bounds"), [[0, 1, 2]], False),
    ("model", ("domain", "bounds"), [], False),
    ("model", ("domain",), {"bounds": [[0, 1]]}, True),
    ("model", ("domain",), [[0, 1]], False),
    ("model", ("space", "atoms"), ["a", "b"], True),
    ("model", ("space", "atoms"), [1, 0], False),
    ("model", ("space", "coords"), [[1], [0]], True),
    ("model", ("space", "coords"), ["1", "0"], False),
    ("model", ("space", "weights"), [0.5, 0.5], True),
    ("model", ("space", "weights"), [-0.5, 0.5], False),
    ("model", ("space",), {"grid": {"interval": [0, 1], "points": 2}}, True),
    ("model", ("space",), {"grid": {"interval": [0, 1], "points": 2.0}}, True),
    ("model", ("space",), {"grid": {"interval": [0, 1], "points": "5"}}, False),
    ("model", ("space",), {"grid": {"interval": [0, 1], "points": 0}}, False),
    ("model", ("space",), {"grid": {"interval": [0, 1], "points": 2.5}}, False),
    ("model", ("space",), {"grid": {"interval": [0, 1], "points": True}}, False),
    ("model", ("space",), {"grid": {"interval": ["0", 1], "points": 2}}, False),
    ("model", ("space",), {"grid": {"interval": [0], "points": 2}}, False),
    ("model", ("space",), {"grid": {"points": 2}}, False),
    ("model", ("space",), {}, False),
    ("model", ("density",), "t1 + 0 * x1", True),
    ("model", ("density",), 5, False),
    ("model", ("density",), ["t1"], False),
    ("model", ("density_grad",), _DROP, True),
    ("model", ("density_grad",), ["1"], True),
    ("model", ("density_grad",), "1", False),
    ("model", ("density_grad",), [1], False),
    ("model", ("density_grad",), None, False),
    ("model", ("statistical",), False, True),
    ("model", ("statistical",), _DROP, True),
    ("model", ("statistical",), "false", False),
    ("model", ("statistical",), 0, False),
    ("model", ("statistical",), None, False),
    ("builtin", ("density", "builtin"), "categorical(3)", True),
    ("builtin", ("density", "builtin"), 5, False),
    ("builtin", ("statistical",), True, False),
    ("kernel", ("rows",), [[1], [1.0]], True),
    ("kernel", ("rows",), [[True], [True]], False),
    ("kernel", ("rows",), [1, 1], False),
    ("kernel", ("rows",), [], False),
    ("statistic", ("map",), [1, 1.0], True),
    ("statistic", ("map",), [0, -1], False),
    ("statistic", ("map",), [0, 0.5], False),
    ("statistic", ("map",), [False, True], False),
    ("measure", ("coeff",), [-1, 0.5], True),
    ("measure", ("coeff",), ["1", 2], False),
    ("measure", ("r",), _DROP, True),
    ("measure", ("r",), "0.5", False),
    ("measure", ("r",), 1, True),
    ("measure", ("r",), 2, False),
    ("measure", ("r",), 0, False),
]

# Inputs the schemas accept and the readers reject: what a schema does not say.
SCHEMA_CANNOT_SAY = [
    ("space", ("atoms",), ["a", "a"], "distinct labels"),
    ("space", ("weights",), [1.0], "matching lengths: one weight per atom"),
    ("space", ("coords",), [[1], [0, 2]], "matching lengths: coordinate rows"),
    ("space", (), {"grid": {"interval": [1, 0], "points": 2}}, "grid interval lo < hi: reversed"),
    ("space", (), {"grid": {"interval": [0, 0], "points": 2}}, "grid interval lo < hi: equal"),
    ("model", ("domain", "bounds"), [[1, 0]], "domain bound lo < hi: reversed"),
    ("model", ("domain", "bounds"), [[0, 0]], "domain bound lo < hi: equal"),
    ("model", ("domain", "dim"), 2, "matching lengths: dim and bounds"),
    ("model", ("density_grad",), ["1", "1"], "matching lengths: one partial per parameter"),
    ("kernel", ("rows",), [[0.5], [1]], "row sums"),
    ("kernel", ("rows",), [[1.0]], "matching lengths: one row per source atom"),
    ("statistic", ("map",), [0, 2], "map range"),
    ("measure", ("coeff",), [1.0], "matching lengths: one coefficient per atom"),
]


def _put(obj, path, value):
    """A copy of ``obj`` with the field at ``path`` set to ``value``, or
    dropped; the empty path stands for the whole object."""
    if not path:
        return copy.deepcopy(value)
    obj = copy.deepcopy(obj)
    *parents, key = path
    node = obj
    for p in parents:
        node = node[p]
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    return obj


def _with(kind, path, value):
    return _put(READERS[kind][0], path, value)


def _schema_accepts(kind, obj):
    return jsonschema.Draft202012Validator(SCHEMAS[SCHEMA_OF.get(kind, kind)]).is_valid(obj)


def _reader_accepts(kind, obj):
    try:
        READERS[kind][1](obj)
    except BAD_INPUT:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(READERS))
def test_the_corpus_base_objects_are_valid(kind):
    assert _schema_accepts(kind, READERS[kind][0])
    assert _reader_accepts(kind, READERS[kind][0])


def _case_id(kind, path, value):
    return "{}={}".format(".".join((kind,) + path), "absent" if value is _DROP else json.dumps(value))


@pytest.mark.parametrize("kind, path, value, valid", CORPUS, ids=[_case_id(*c[:3]) for c in CORPUS])
def test_the_readers_give_the_schemas_verdict(kind, path, value, valid):
    obj = _with(kind, path, value)
    assert _schema_accepts(kind, obj) is valid
    assert _reader_accepts(kind, obj) is valid


@pytest.mark.parametrize(
    "kind, path, value, reason", SCHEMA_CANNOT_SAY,
    ids=[c[3] for c in SCHEMA_CANNOT_SAY],
)
def test_the_readers_alone_check_what_no_schema_says(kind, path, value, reason):
    obj = _with(kind, path, value)
    assert _schema_accepts(kind, obj)
    assert not _reader_accepts(kind, obj)


# Every file that holds a space reads it with space_from_obj and states it
# by the one definition, so each space case gets its verdict in each of them:
# (kind, path of the space, the object holding it).
HOLDERS = [
    ("model", ("space",), dict(MODEL, density="t1", density_grad=["1"])),  # reads no coordinate
    ("kernel", ("source",), KERNEL),
    ("statistic", ("target",), STATISTIC),
    ("measure", ("space",), MEASURE),
]
SPACE_CASES = [(path, value, valid, valid) for kind, path, value, valid in CORPUS if kind == "space"]
SPACE_CASES += [(path, value, True, False) for kind, path, value, _ in SCHEMA_CANNOT_SAY
                if kind == "space"]


@pytest.mark.parametrize("kind, at, holder", HOLDERS, ids=[h[0] for h in HOLDERS])
def test_every_file_holding_a_space_gives_the_space_verdict(kind, at, holder):
    for path, value, schema_says, reader_says in SPACE_CASES:
        obj = _put(holder, at, _with("space", path, value))
        assert _schema_accepts(kind, obj) is schema_says, _case_id("space", path, value)
        assert _reader_accepts(kind, obj) is reader_says, _case_id("space", path, value)


def test_the_corpus_covers_every_field_of_a_space_and_a_model():
    covered = {(kind, path) for kind, path, _, _ in CORPUS}
    atoms, rule = SCHEMAS["space"]["oneOf"]
    for key in atoms["properties"]:
        assert ("space", (key,)) in covered
        assert ("model", ("space", key)) in covered
    # a grid space is its rule alone: the cases vary each field of the rule
    rules = [value["grid"] for kind, path, value, _ in CORPUS
             if kind == "space" and not path and "grid" in value]
    for key in rule["properties"]["grid"]["properties"]:
        assert len({json.dumps(r.get(key)) for r in rules}) > 1, key
    dsl_model, = (s for s in SCHEMAS["model"]["oneOf"] if "domain" in s["properties"])
    for key in dsl_model["properties"]:
        assert any(kind == "model" and path[0] == key for kind, path in covered), key
    for key in dsl_model["properties"]["domain"]["properties"]:
        assert ("model", ("domain", key)) in covered
    for kind in ("space", "model"):
        verdicts = {(path, valid) for k, path, _, valid in CORPUS if k == kind}
        for path in {path for path, _ in verdicts}:
            assert {(path, True), (path, False)} <= verdicts, (kind, path)


# A loss is a sum of terms clamped at 0, and each report states it


@pytest.mark.parametrize("name", ["report-infoloss", "report-sufficient"])
def test_a_loss_report_rejects_a_negative_loss(name):
    entry = {"xi": [0.5], "direction": [1.0], "source_norm_k": 4.0, "induced_norm_k": 0.0,
             "loss": 4.0}
    extra = {"argmax": 0} if name == "report-infoloss" else {"sufficient": False, "tol": 1e-9}
    report = {"version": "0.1.0", "config": {}, "k": 2.0, "entries": [entry], "max_loss": 4.0,
              "warnings": [], **extra}
    validator = jsonschema.Draft202012Validator(SCHEMAS[name])
    validator.validate(report)
    entry["loss"] = report["max_loss"] = 0.0
    validator.validate(report)
    for key, at in (("loss", entry), ("max_loss", report)):
        at[key] = -1e-11
        assert not validator.is_valid(report), key
        at[key] = 0.0
