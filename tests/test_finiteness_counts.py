"""How many finiteness tests the attention path makes.

Every check of an array's entries goes through ``numerics._all_finite``. These
counts pin how many a plain attention call, a scaled cell and a short
``simulate`` run make, so that a check added to the hot path shows up here
as a changed number, not only as a slower benchmark.
"""

import importlib
import pkgutil
import sys

import numpy as np
import pytest

import attnlab
from attnlab import cli, numerics
from attnlab.attention import ModulationConfig, attention_forward, build_partition
from attnlab.scheduling import BlockGateTable, ScheduleConfig, scheduled_attention


@pytest.fixture
def finiteness_tests(monkeypatch):
    """The shapes of the arrays tested, in call order, wherever ``_all_finite`` is bound."""
    for info in pkgutil.iter_modules(attnlab.__path__):
        importlib.import_module(f"attnlab.{info.name}")
    original, shapes = numerics._all_finite, []

    def counted(a):
        shapes.append(a.shape)
        return original(a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("attnlab") and getattr(mod, "_all_finite", None) is original:
            monkeypatch.setattr(mod, "_all_finite", counted)
    return shapes


def _qkv():
    rng = np.random.default_rng(0)
    return rng.normal(size=(6, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 3))


def test_a_plain_call_tests_v_and_the_logits(finiteness_tests):
    attention_forward(*_qkv())
    assert finiteness_tests == [(6, 3), (6, 6)]


def test_a_scaled_cell_tests_k_v_and_the_scaled_logits(finiteness_tests):
    cell = ScheduleConfig(gates=BlockGateTable((1,)), total_steps=1)
    res = scheduled_attention(0, 1, *_qkv(), build_partition(2, 2, 2), cell)
    assert res.gamma == 1.35
    assert finiteness_tests == [(6, 4), (6, 3), (6, 6)]


def test_an_energy_cell_tests_its_plain_logits_once(finiteness_tests):
    mod = ModulationConfig(mode="energy")
    cell = ScheduleConfig(gates=BlockGateTable((1,)), total_steps=1, modulation=mod)
    res = scheduled_attention(0, 1, *_qkv(), build_partition(2, 2, 2), cell)
    assert 1.0 < res.gamma < mod.gamma_max
    # The plain logits that set the coefficient, then K, V and the scaled logits.
    assert finiteness_tests == [(6, 6), (6, 4), (6, 3), (6, 6)]


def test_a_short_simulate_run_makes_a_fixed_number_of_tests(finiteness_tests, tmp_path):
    assert cli.main(["simulate", "--steps", "10", "--blocks", "4", "--out", str(tmp_path)]) == 0
    assert len(finiteness_tests) == 119
