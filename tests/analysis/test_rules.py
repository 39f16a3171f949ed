"""Rule-mutation suite for the effect & concurrency analyzer.

Each rule id has (at least) one minimal synthetic module that MUST
trigger it, paired with a "clean twin" — the same scenario written the
sanctioned way — that MUST stay silent.  Together they pin both halves
of every rule: it fires on the defect and it does not fire on the fix.
"""

import pytest

from repro.analysis import RULES, Severity, analyze_sources
from repro.analysis.contracts import Contract, ContractRegistry
from repro.analysis.model import SourceModule

#: Purity contract used by the EFF fixtures: every ``pure_*`` function
#: in the synthetic ``app`` module is declared pure.
PURE_REGISTRY = ContractRegistry(
    contracts=[Contract(pattern="app.pure_*", reason="unit-test purity")]
)

SERVICE = dict(name="repro.service.fake",
               relpath="src/repro/service/fake.py")


def findings_of(code, name="app", relpath="src/repro/app.py",
                registry=PURE_REGISTRY, rules=None):
    report = analyze_sources(
        [SourceModule(name=name, relpath=relpath, source=code)],
        registry=registry,
        rules=rules,
    )
    return report.findings


def rule_ids(code, **kw):
    return sorted({f.rule_id for f in findings_of(code, **kw)})


# ----------------------------------------------------------------- #
# EFF — purity contracts
# ----------------------------------------------------------------- #

EFF101_TRIGGER = """\
def pure_scale(values, k):
    values.append(k)
    return values
"""

EFF101_CLEAN = """\
def pure_scale(values, k):
    out = list(values)
    out.append(k)
    return out
"""

EFF102_TRIGGER = """\
def _log(path, msg):
    with open(path, "a") as fh:
        fh.write(msg)

def pure_cost(x, path):
    _log(path, "x")
    return x * 2
"""

EFF102_CLEAN = """\
def _log(path, msg):
    with open(path, "a") as fh:
        fh.write(msg)

def pure_cost(x, path):
    return x * 2
"""

EFF103_TRIGGER = """\
import numpy as np

def pure_jitter(x):
    rng = np.random.default_rng()
    return x + rng.normal()
"""

#: The sanctioned fix: randomness is a parameter from the caller.
EFF103_CLEAN = """\
import numpy as np

def pure_jitter(x, rng):
    return x + rng.normal()
"""

#: A *seeded* generator owned locally is also observationally pure.
EFF103_CLEAN_SEEDED = """\
import numpy as np

def pure_jitter(x):
    rng = np.random.default_rng(7)
    return x + rng.normal()
"""


class TestEffRules:
    def test_eff101_fires_on_argument_mutation(self):
        (f,) = findings_of(EFF101_TRIGGER)
        assert f.rule_id == "EFF101"
        assert f.severity is Severity.ERROR
        assert f.qualname == "app.pure_scale"
        assert f.detail == "mutates_arg:values"
        assert f.line == 2

    def test_eff101_clean_twin_copies_first(self):
        assert findings_of(EFF101_CLEAN) == []

    def test_eff102_fires_through_transitive_callee(self):
        found = findings_of(EFF102_TRIGGER)
        assert found and {f.rule_id for f in found} == {"EFF102"}
        # anchored at the call edge in the pure function, and the
        # message names the path through the impure helper
        assert all(f.qualname == "app.pure_cost" for f in found)
        assert any("_log" in f.message for f in found)

    def test_eff102_clean_twin_keeps_helper_impure(self):
        # the helper itself is impure but carries no contract
        assert findings_of(EFF102_CLEAN) == []

    def test_eff103_fires_on_seedless_owned_rng(self):
        # the seedless default_rng() under src/repro is DET101 as well
        found = findings_of(EFF103_TRIGGER)
        assert sorted(f.rule_id for f in found) == ["DET101", "EFF103"]
        (f,) = [f for f in found if f.rule_id == "EFF103"]
        assert "default_rng() without a seed" in f.detail

    @pytest.mark.parametrize(
        "code", [EFF103_CLEAN, EFF103_CLEAN_SEEDED],
        ids=["rng-parameter", "seeded-local"],
    )
    def test_eff103_clean_twins(self, code):
        assert findings_of(code) == []

    def test_contract_scope_only_covers_declared_functions(self):
        # same mutation outside the contracted name pattern: silent
        code = "def helper_scale(values, k):\n    values.append(k)\n"
        assert findings_of(code) == []


# ----------------------------------------------------------------- #
# ASY — event-loop safety (repro.service only)
# ----------------------------------------------------------------- #

ASY101_DIRECT = """\
import time

async def handler():
    time.sleep(1)
"""

ASY101_EDGE = """\
import time

def work():
    time.sleep(1)

async def handler():
    work()
"""

ASY101_CLEAN = """\
import asyncio
import time

def work():
    time.sleep(1)

async def handler():
    await asyncio.to_thread(work)
"""

ASY102_TRIGGER = """\
async def step():
    return 1

async def handler():
    step()
"""

ASY102_CLEAN = """\
async def step():
    return 1

async def handler():
    await step()
"""


class TestAsyRules:
    def test_asy101_fires_on_direct_blocking_primitive(self):
        (f,) = findings_of(ASY101_DIRECT, **SERVICE)
        assert f.rule_id == "ASY101"
        assert f.line == 4  # the time.sleep itself

    def test_asy101_fires_at_first_sync_edge(self):
        (f,) = findings_of(ASY101_EDGE, **SERVICE)
        assert f.rule_id == "ASY101"
        assert f.line == 7  # the work() call site, not inside work
        assert "work" in f.message

    def test_asy101_clean_twin_offloads_via_to_thread(self):
        assert findings_of(ASY101_CLEAN, **SERVICE) == []

    def test_asy_rules_scope_is_repro_service(self):
        # the identical code outside repro.service is not an ASY root
        assert findings_of(ASY101_DIRECT) == []

    def test_asy102_fires_on_dropped_coroutine(self):
        (f,) = findings_of(ASY102_TRIGGER, **SERVICE)
        assert f.rule_id == "ASY102"
        assert f.line == 5
        assert "step" in f.message

    def test_asy102_clean_twin_awaits(self):
        assert findings_of(ASY102_CLEAN, **SERVICE) == []


# ----------------------------------------------------------------- #
# FRK — fork safety
# ----------------------------------------------------------------- #

FRK101_TRIGGER = """\
import threading
import multiprocessing

def launch():
    lock = threading.Lock()

    def worker():
        with lock:
            pass

    p = multiprocessing.Process(target=worker)
    p.start()
"""

FRK101_CLEAN = """\
import threading
import multiprocessing

def launch():
    lock = threading.Lock()

    def worker(lk):
        with lk:
            pass

    p = multiprocessing.Process(target=worker, args=(lock,))
    p.start()
"""

FRK102_TRIGGER = """\
import multiprocessing

_COUNTER = 0

def _bump():
    global _COUNTER
    _COUNTER += 1

def launch():
    p = multiprocessing.Process(target=_bump)
    p.start()
"""

FRK102_CLEAN = """\
import multiprocessing

def _bump(n):
    return n + 1

def launch():
    p = multiprocessing.Process(target=_bump, args=(1,))
    p.start()
"""


class TestFrkRules:
    def test_frk101_fires_on_captured_lock(self):
        (f,) = findings_of(FRK101_TRIGGER)
        assert f.rule_id == "FRK101"
        assert f.severity is Severity.ERROR
        assert "lock" in f.message and "worker" in f.message

    def test_frk101_clean_twin_passes_through_args(self):
        assert findings_of(FRK101_CLEAN) == []

    def test_frk102_warns_on_worker_reachable_global_mutation(self):
        (f,) = findings_of(FRK102_TRIGGER)
        assert f.rule_id == "FRK102"
        assert f.severity is Severity.WARNING
        assert f.qualname == "app._bump"
        assert "_COUNTER" in f.message

    def test_frk102_clean_twin_is_value_passing(self):
        assert findings_of(FRK102_CLEAN) == []

    def test_frk102_silent_without_worker_dispatch(self):
        # the same global mutation never dispatched to a worker
        code = (
            "_COUNTER = 0\n\n"
            "def _bump():\n"
            "    global _COUNTER\n"
            "    _COUNTER += 1\n"
        )
        assert findings_of(code) == []


# ----------------------------------------------------------------- #
# catalogue invariants
# ----------------------------------------------------------------- #


class TestCatalogue:
    def test_every_rule_id_has_spec_fields(self):
        assert set(RULES) == {
            "DET101", "DET102", "DET103", "DET104",
            "DET201", "DET202", "DET301",
            "EFF101", "EFF102", "EFF103",
            "ASY101", "ASY102", "FRK101", "FRK102",
        }
        for rule_id, spec in RULES.items():
            assert spec.rule_id == rule_id
            assert spec.summary and spec.hint

    def test_rule_selection_restricts_output(self):
        # EFF-only run over an ASY defect: silent
        assert findings_of(ASY101_DIRECT, rules=["EFF"], **SERVICE) == []
        assert rule_ids(ASY101_DIRECT, rules=["ASY"], **SERVICE) == [
            "ASY101"
        ]
