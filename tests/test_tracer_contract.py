"""Every name the benchmark's tracer wraps resolves in `styletx`.

`perfbench/tracing.py` replaces functions at the names where their callers
look them up. A renamed or deleted name would otherwise show only as an
AttributeError inside the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", sorted(tracing.SPAN_TARGETS))
def test_every_span_target_resolves(target):
    owner, attr = tracing._resolve(target)
    # a class attribute is wrapped from the class's own dict
    assert attr in (vars(owner) if isinstance(owner, type) else dir(owner))
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", ("Tape",) + tracing.PRIMS)
def test_every_primitive_is_an_autodiff_name(name):
    assert callable(getattr(importlib.import_module("styletx.autodiff"), name))


@pytest.mark.parametrize("module", tracing.ENCODE_CALLERS)
def test_every_encode_caller_binds_the_corpus_encoder(module):
    corpus = importlib.import_module("styletx.corpus")
    assert importlib.import_module(module).encode is corpus.encode
