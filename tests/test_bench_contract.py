"""The benchmark under ``bench/`` and the demos call into hwq by name; keep
those names.

``bench/spans.py`` swaps the functions named in ``TARGETS`` for traced
wrappers, and ``bench/micro.py`` imports per-event entry points directly,
so an API change that breaks ``bench/run.py --trace 1`` fails here first.
"""

import ast
import dataclasses
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hwq.exact import build_generator, enumerate_states, stationary
from hwq.model import ClassParams, build_config
from hwq.policy import FIFO, PREEMPTIVE, init_state
from hwq.simulate import RngStream, batch_means_multi, sample_event, step
from hwq.verify import FunctionalSpec

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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


def test_microbenchmark_calls_still_work():
    # micro.py reaches FunctionalSpec.scalar as an attribute, so importing
    # it does not show that these calls still exist with these signatures
    cfg = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0)
    rng = random.Random(1)
    state = init_state(cfg, FIFO)
    for _ in range(50):
        assert step(state, cfg, rng) > 0.0
    kind, cls, total = sample_event(list(state.z), list(state.psi), cfg, rng)
    assert kind in ("arrival", "service_completion", "abandonment")
    assert 0 <= cls < cfg.n_classes and total > 0.0
    spec = FunctionalSpec("exp_sum_zhat_plus", theta=0.1)
    fns = {spec.label(): spec.scalar(cfg)}
    ests = batch_means_multi(cfg, FIFO, fns, 10, 100, 20, RngStream(1, 0))
    assert set(ests) == {spec.label()} and ests[spec.label()].value >= 1.0


def test_stationary_vector_has_span_metric_fields():
    # span_metrics in bench/run.py reads these off every traced exact.solve
    cfg = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0)
    sv = stationary(build_generator(enumerate_states(cfg, PREEMPTIVE, 20)))
    assert sv.pi.size == 231 and sv.method == "gth"
    assert isinstance(sv.iterations, int) and isinstance(sv.residual, float)


def test_generator_has_span_metric_fields():
    # span_metrics in bench/run.py reads Q.nnz and Q.tocoo() off every traced
    # exact.build; Q is the one copy of the transitions
    cfg = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 4.0, 1.0)
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, 20))
    coo = gen.Q.tocoo()
    assert gen.Q.nnz == coo.nnz == coo.row.size == coo.col.size > 0
    assert {f.name for f in dataclasses.fields(gen)} == {
        "idx", "Q", "beyond_z", "beyond_psi", "max_exit_rate"}


def test_scalar_is_only_an_alias_for_bench():
    # FunctionalSpec.scalar stays only because bench/micro.py calls it; no
    # other caller may appear before the benchmark moves off it
    assert FunctionalSpec.scalar is FunctionalSpec.vector
    here = Path(__file__).resolve()
    callers = []
    for top in ("src/hwq", "demos", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == here:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "scalar"):
                    callers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert callers == []


def test_demo_imports_resolve():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 7
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hwq"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
