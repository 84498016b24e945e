"""Load a workload's inputs through igk's public loaders, and compute nothing.

Usage: python setup_probe.py KIND:ARG ...

``builtin:NAME`` calls ``families.build``; ``model:FILE`` calls
``serialize.load_json`` and ``serialize.model_from_obj``; ``transport:FILE``
calls ``serialize.load_json`` and ``serialize.kernel_or_statistic_from_obj``.
The benchmark times this whole process (interpreter start, ``import igk``
and the loads) as the workload's set-up time.
"""

import sys

from igk import families, serialize


def load(spec):
    kind, arg = spec.split(":", 1)
    if kind == "builtin":
        return families.build(arg)
    if kind == "model":
        return serialize.model_from_obj(serialize.load_json(arg), name=arg)
    if kind == "transport":
        return serialize.kernel_or_statistic_from_obj(serialize.load_json(arg))
    raise ValueError("unknown loader {!r}".format(spec))


if __name__ == "__main__":
    for spec in sys.argv[1:]:
        load(spec)
