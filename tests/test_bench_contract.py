"""The benchmark under ``bench/`` calls into hwq by name; keep those names.

``bench/spans.py`` swaps the functions named in ``TARGETS`` for traced
wrappers, and ``bench/micro.py`` imports per-event entry points directly,
so an API change that breaks ``bench/run.py --trace 1`` fails here first.
"""

import importlib


def test_span_targets_resolve():
    import spans

    for module_name, attrs in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def test_microbenchmarks_import():
    import micro

    for name in ("policy_and_sampling", "simulate_throughput",
                 "coupling_throughput", "scale_arrays_ms"):
        assert callable(getattr(micro, name))
