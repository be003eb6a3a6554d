"""The benchmark's span tracer can wrap every name it targets.

``perfbench/tracing.py`` wraps functions in the namespaces of the modules
that call them.  Removing or renaming such a name should fail here, once,
rather than in every traced benchmark operation.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from hyperspars import sdpcore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is created
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in load_tracing().hyperspars_targets()
        if attr not in owner.__dict__
    ]
    assert not missing


def test_install_wraps_and_restores():
    tracing = load_tracing()
    targets = tracing.hyperspars_targets()
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    tracer = tracing.Tracer()
    with tracer.install(targets):
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr, *_), original in zip(targets, originals)
        )
        sdpcore.GramState(np.eye(3)).pairwise_dist2()
    assert tracer.get("sdpcore.dist2").calls == 1
    assert all(
        owner.__dict__[attr] is original
        for (owner, attr, *_), original in zip(targets, originals)
    )
