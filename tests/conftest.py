import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import polarkit as pk
from polarkit import relation

# The property tests draw the same examples on every run, so a verdict
# near its threshold cannot pass one run and fail the next;
# HYPOTHESIS_PROFILE=search draws new ones on every run, to look for
# counterexamples.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

REF_WEIGHTS = (1.0, np.sqrt(2.0), np.sqrt(3.0))


def empty_slot():
    """Drop the Analysis this thread keeps for the views called on a bare
    matrix (``relation._analysis``)."""
    relation._last.key = relation._last.an = None


@pytest.fixture(autouse=True)
def _empty_slot_first():
    """Each test starts from an empty slot, so no count depends on test order."""
    empty_slot()


@pytest.fixture(scope="session")
def shift4():
    """The dim-4 shift with weights (1, sqrt2, sqrt3): aa* - a*a = 1 inside."""
    return pk.build(pk.weighted_shift(REF_WEIGHTS))


@pytest.fixture(scope="session")
def unit_shift4():
    return pk.build(pk.weighted_shift((1.0, 1.0, 1.0)))


@pytest.fixture(scope="session")
def q_half_8():
    return pk.build(pk.q_oscillator(8, 0.5, 1.0))


class LapackCalls:
    """The calls of ``np.linalg.svd``, ``eigh`` and ``eigvalsh`` since the
    last ``clear()``: ``calls[name]`` counts the calls, ``mats[name]`` the
    matrices they factor (a stack counts each of its matrices), and
    ``inputs`` holds each call's ``(name, array, keyword arguments)``."""

    NAMES = ("svd", "eigh", "eigvalsh")

    def __init__(self):
        self.clear()

    def clear(self):
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.mats = dict.fromkeys(self.NAMES, 0)
        self.inputs = []

    def counting(self, name, orig):
        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            self.calls[name] += 1
            self.mats[name] += int(np.prod(a.shape[:-2]))
            self.inputs.append((name, a, kwargs))
            return orig(a, *args, **kwargs)

        return counted


@pytest.fixture()
def lapack_calls(monkeypatch):
    """A :class:`LapackCalls` counting every call polarkit makes (it reads
    ``np.linalg.<name>`` at call time) for the rest of the test."""
    counter = LapackCalls()
    for name in LapackCalls.NAMES:
        monkeypatch.setattr(np.linalg, name, counter.counting(name, getattr(np.linalg, name)))
    return counter


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def zoo_specs():
    """The canonical zoo of scripts/run_zoo.py, negative controls last."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_zoo.py"
    loader = importlib.util.spec_from_file_location("run_zoo", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.ZOO + module.NEGATIVE


@pytest.fixture(scope="session")
def q_half_32():
    """q_oscillator(32, 0.5, 1), whose |a| has eigenvalues about 9e-10
    apart that the seed merges into one atom."""
    from polarkit.relation import Analysis

    return Analysis(pk.build(pk.q_oscillator(32, 0.5, 1.0)))
