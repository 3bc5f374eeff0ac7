"""The names the traced benchmark binds still exist.

``perfbench/spans.py`` rebinds every function it lists in ``LAYERS`` by
name in its home module, and reads the cache statistics of
``playability.agreement_mask`` and ``ConfigurationOrdering.orderings``.  A
rename in ``src/wgames`` fails here instead of crashing a traced run.  The
module is loaded from its file and nothing in it is installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer():
    spans = load_spans()
    missing = [
        f"wgames.{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"wgames.{layer}"), name, None))
    ]
    assert not missing


def test_the_counters_the_trace_reads_exist():
    from wgames.playability import agreement_mask
    from wgames.recall import ConfigurationOrdering

    assert callable(agreement_mask.cache_info)
    assert isinstance(ConfigurationOrdering.orderings, property)
