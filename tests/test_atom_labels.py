"""Generated atom labels: the contract of AtomLabels, and what it saves.

Builtin and grid spaces keep their labels as a rule (``AtomLabels``); the
sequence must behave as the tuple of labels the builders used to store.
"""

import collections.abc
import gc
import json
import tracemalloc

import numpy as np
import pytest

from igk import AtomLabels, SampleSpace, SpaceMismatchError, Statistic, families, serialize
from igk.markov import _require_source


def _dsl_grid_model(points):
    return serialize.model_from_obj({
        "domain": {"bounds": [["-inf", "inf"], [0, "inf"]]},
        "space": {"grid": {"interval": [-5, 5], "points": points}},
        "density": "exp(-0.5*((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
    })


# each generated space, with the explicit tuple its builder used to store
BUILDERS = {
    "gaussian-grid": (lambda: families.gaussian_grid(5, 40).space,
                      tuple("g{}".format(i) for i in range(40))),
    "ex4.1": (lambda: families.ex41(30).space, tuple("t{}".format(i) for i in range(30))),
    "ex-suff": (lambda: families.ex_suff(6, 4).space,
                tuple("{}|{}".format(i, j) for i in range(6) for j in range(4))),
    "ex-suff-proj source": (lambda: families.ex_suff_projection(6, 4).source,
                            tuple("{}|{}".format(i, j) for i in range(6) for j in range(4))),
    "ex-suff-proj target": (lambda: families.ex_suff_projection(6, 4).target,
                            tuple(str(i) for i in range(6))),
    "categorical": (lambda: families.categorical(12).space, tuple(str(i) for i in range(12))),
    "dsl grid": (lambda: _dsl_grid_model(25).space, tuple("g{}".format(i) for i in range(25))),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_generated_labels_are_the_old_tuple(name):
    build, old = BUILDERS[name]
    atoms = build().atoms
    assert isinstance(atoms, AtomLabels)
    assert isinstance(atoms, collections.abc.Sequence)
    assert tuple(atoms) == old and list(atoms) == list(old)
    assert len(atoms) == len(old)
    # equality and hash with the tuple, in both operand orders
    assert atoms == old and old == atoms
    assert not (atoms != old) and not (old != atoms)
    assert hash(atoms) == hash(old)
    assert {old: 1}[atoms] == 1
    changed = old[:-1] + ("other",)
    assert atoms != changed and changed != atoms
    assert not (atoms == changed) and not (changed == atoms)
    assert atoms != old[:-1] and old[:-1] != atoms
    # a list never equals a tuple, so it never equals the labels either
    assert atoms != list(old) and list(old) != atoms
    # indexing, negative and out of range
    n = len(old)
    for i in (0, 1, n - 1, -1, -n, np.int64(n // 2)):
        assert atoms[i] == old[i]
    for i in (n, -n - 1, 10 ** 12):
        with pytest.raises(IndexError):
            atoms[i]
    with pytest.raises(TypeError):
        atoms[1.0]
    # slices give tuples
    for s in (slice(None), slice(1, 4), slice(-3, None), slice(None, None, -2),
              slice(5, 2), slice(-100, 100, 3)):
        assert atoms[s] == old[s] and isinstance(atoms[s], tuple)
    # membership, index and count
    assert old[-1] in atoms and "other" not in atoms and 3 not in atoms
    assert atoms.index(old[-1]) == n - 1
    with pytest.raises(ValueError):
        atoms.index("other")
    assert atoms.count(old[0]) == 1 and atoms.count("other") == 0
    assert list(reversed(atoms)) == list(reversed(old))


def test_generated_labels_are_read_only():
    atoms = families.gaussian_grid(5, 4).space.atoms
    with pytest.raises(TypeError):
        atoms[0] = "x"
    with pytest.raises(AttributeError):
        atoms.extra = 1


def test_labels_of_one_rule_compare_without_making_a_label(monkeypatch):
    def boom(self, i):
        raise AssertionError("a label was made")

    model, statistic = families.ex_suff(20, 10), families.ex_suff_projection(20, 10)
    monkeypatch.setattr(AtomLabels, "_label", boom)
    _require_source(statistic, model.space, "the model")
    huge = AtomLabels("g{}", (10 ** 12,))
    assert huge == AtomLabels("g{}", (10 ** 12,))
    assert AtomLabels("{}|{}", (10 ** 6, 10 ** 6)) == AtomLabels("{}|{}", (10 ** 6, 10 ** 6))


def test_labels_of_two_rules_compare_by_their_labels():
    assert AtomLabels("{}", (5,)) == AtomLabels("{:d}", (5,))
    assert AtomLabels("{}", (5,)) != AtomLabels("{}", (6,))
    assert AtomLabels("g{}", (5,)) != AtomLabels("t{}", (5,))
    assert AtomLabels("{}|{}", (2, 3)) != AtomLabels("{}|{}", (3, 2))
    assert repr(AtomLabels("{}|{}", (2, 3))) == "AtomLabels('{}|{}', (2, 3))"


def test_a_json_statistic_with_explicit_labels_matches_a_generated_space():
    model = families.build("gaussian-grid(5,40)")
    halves = Statistic(
        SampleSpace(["g{}".format(i) for i in range(40)]), SampleSpace(["lo", "hi"]),
        [0] * 20 + [1] * 20,
    )
    obj = json.loads(serialize.dumps(serialize.statistic_to_obj(halves)))
    loaded = serialize.statistic_from_obj(obj)
    assert type(loaded.source.atoms) is tuple
    _require_source(loaded, model.space, "the model")
    obj["source"]["atoms"][17] = "g17x"
    with pytest.raises(SpaceMismatchError):
        _require_source(serialize.statistic_from_obj(obj), model.space, "the model")


@pytest.mark.parametrize("atoms", [
    ("a", "a", "b"), ("b", "a", "b"), ("a", "b", "c", "a"), ("x", "y", "z", "y"),
    (1, "1"), ["c", "b", "a", "c"],
])
def test_duplicate_labels_are_caught_next_to_each_other_or_not(atoms):
    with pytest.raises(ValueError, match="pairwise distinct"):
        SampleSpace(atoms)


def test_distinct_explicit_labels_keep_their_order():
    sp = SampleSpace(["b", "a", 3, "c"])
    assert sp.atoms == ("b", "a", "3", "c") and type(sp.atoms) is tuple


@pytest.mark.parametrize("atoms", ["abc", "a", ""])
def test_a_lone_string_is_not_a_label_sequence(atoms):
    with pytest.raises(ValueError, match="not one string"):
        SampleSpace(atoms)
    with pytest.raises(ValueError, match="not one string"):
        serialize.space_from_obj({"atoms": atoms})
    with pytest.raises(ValueError, match="not one string"):
        serialize.measure_from_obj({"space": {"atoms": atoms}, "coeff": [1.0] * len(atoms)})


# ---------------------------------------------------------------------------
# memory gate
# ---------------------------------------------------------------------------

# tracemalloc peaks in bytes with stored label tuples and a set for the
# distinctness check (dc9880f, CPython 3.11, NumPy 2.4); each build must
# now take at most half
OLD_PEAK = {
    "gaussian-grid(5,20000)": 4352366,
    "ex-suff(200,100)": 4833818,
    "DSL grid model, 20000 points": 4352478,
}
GATED = {
    "gaussian-grid(5,20000)": lambda: families.build("gaussian-grid(5,20000)"),
    "ex-suff(200,100)": lambda: families.ex_suff(200, 100),
    "DSL grid model, 20000 points": lambda: _dsl_grid_model(20000),
}


def _traced_peak(build):
    build()  # first use: imports and caches are not the build's cost
    gc.collect()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(GATED))
def test_building_a_generated_space_takes_half_the_memory(name):
    peak = _traced_peak(GATED[name])
    assert peak <= OLD_PEAK[name] / 2, "{}: {} bytes".format(name, peak)
