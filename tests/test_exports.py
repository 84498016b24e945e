"""The package namespace re-exports exactly the public names of its core modules.

Each of ``errors``, ``measures``, ``markov``, ``models`` and ``infoloss`` lists
its public API in ``__all__``; ``igk`` re-exports every listed name, and no
public function or class of those modules that the list leaves out.
"""

import inspect

import pytest

import igk
from igk import errors, infoloss, markov, measures, models

MODULES = (errors, measures, markov, models, infoloss)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_is_exported(module):
    missing = [name for name in module.__all__ if getattr(igk, name, None) is not
               getattr(module, name)]
    assert missing == []


def test_no_unlisted_name_is_exported():
    listed = {m.__name__: set(m.__all__) for m in MODULES}
    unlisted = [
        name for name, obj in vars(igk).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ in listed and name not in listed[obj.__module__]
    ]
    assert unlisted == []
