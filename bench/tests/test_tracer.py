"""Tests of the benchmark's tracer and C-call counter.

Run from the repository root:  python3 -m pytest bench/tests
"""

import sys
import types

import numpy as np
import pytest

import worker
from tracer import Tracer, count_c_calls
from workloads import TrainingCase

from fairdp import dataset, fairness, harness, optimizer
from fairdp.harness import ExperimentConfig, SyntheticSpec
from fairdp.privacy import NoiseScales


def make_module(name: str, source: str, **namespace) -> types.ModuleType:
    """A module whose functions report `name` as their defining module."""
    module = types.ModuleType(name)
    vars(module).update(namespace)
    exec(source, vars(module))
    return module


@pytest.fixture
def fake_package(monkeypatch):
    a = make_module(
        "fakepkg.a",
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.002)\n"
        "def outer():\n"
        "    time.sleep(0.003)\n"
        "    inner()\n"
        "    inner()\n",
    )
    b = make_module(
        "fakepkg.b",
        "def caller():\n"
        "    inner()\n",
        inner=a.inner,
    )
    for module in (a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return a, b


def test_self_time_is_span_minus_children(fake_package):
    a, _ = fake_package
    tracer = Tracer("fakepkg")
    tracer.install([a])
    a.outer()
    tracer.restore()
    (outer,) = tracer.spans(func="fakepkg.a.outer")
    (inner,) = tracer.spans(func="fakepkg.a.inner", parent="fakepkg.a.outer")
    assert outer.calls == 1 and inner.calls == 2
    assert outer.self_ns == outer.total_ns - inner.total_ns
    assert inner.self_ns == inner.total_ns  # no children
    assert outer.self_ns >= 3_000_000 and inner.total_ns >= 4_000_000


def test_spans_are_attributed_to_the_defining_module(fake_package):
    a, b = fake_package
    tracer = Tracer("fakepkg")
    tracer.install([a, b])
    b.caller()
    tracer.restore()
    assert tracer.calls(layer="b") == 1
    assert tracer.calls(layer="a") == 1
    (inner,) = tracer.spans(layer="a")
    assert tracer.spans(func="fakepkg.a.inner", parent="fakepkg.b.caller") == [inner]


def test_scope_is_the_innermost_enclosing_root(fake_package):
    a, b = fake_package
    tracer = Tracer("fakepkg", scope_roots=("fakepkg.a.outer",))
    tracer.install([a, b])
    a.outer()
    b.caller()
    tracer.restore()
    assert tracer.calls(func="fakepkg.a.inner", scope="fakepkg.a.outer") == 2
    assert tracer.calls(func="fakepkg.a.inner", scope="") == 1


class TinySweep:
    """A small sweep with the benchmark workloads' op/check/digest surface."""

    config = ExperimentConfig(
        dataset=SyntheticSpec(n=300, d_x=3, bias=0.5, seed=4),
        lambdas=(0.0, 1.0),
        epsilons=(3.0,),
        epochs=2,
        batch_size=100,
        master_seed=4,
    )

    def op(self):
        return harness.run_sweep(self.config)

    def check(self, records):
        return {"test_error": records[0].test_error}

    def digest(self, records):
        return repr(records)


def test_traced_operation_restores_every_binding_and_matches_untraced():
    before = {m: dict(vars(m)) for m in worker.MODULES}
    loop = worker.Loop(TinySweep())
    tracer = Tracer("fairdp", scope_roots=(worker.TRAIN,))
    assert loop.run_op() is not None
    assert loop.run_op(tracer) is not None
    assert loop.failed == 0  # traced outputs equal the untraced ones
    assert tracer.calls(func=worker.TRAIN) == 2
    assert tracer.calls(layer="cli") == 0
    for module, namespace in before.items():
        for attr, value in namespace.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"


def test_c_call_count_repeats_exactly():
    ds = harness.synth_dataset(SyntheticSpec(n=400, d_x=3, k=2, l=3, bias=0.5, seed=1))
    train, _ = dataset.train_test_split(ds, 0.25, 1)
    sgda = optimizer.SgdaConfig(eta_theta=0.01, eta_w=0.01, T=1, m=64, box_radius=1.0)
    for notion in (fairness.DEMOGRAPHIC_PARITY, fairness.EQUALIZED_ODDS):
        case = TrainingCase(train, fairness.FermiConfig(1.0, notion), sgda, NoiseScales(0.1, 0.1))
        assert count_c_calls(case.run, 7) == count_c_calls(case.run, 7) > 0
        per_iter = worker.c_calls_per_iter(case)
        assert per_iter == worker.c_calls_per_iter(case)
        assert per_iter == int(per_iter) > 0


def test_c_call_counter_leaves_no_profiler_behind():
    count = count_c_calls(np.zeros(3).sum)
    assert count >= 1
    assert sys.getprofile() is None
