"""DET rule suite: the determinism family of ``repro analyze``.

The parametrized seeded-violation cases double as the rules' own spec:
each snippet is what an accidental nondeterminism regression would look
like, analyzed as a module at the relpath where the rule must fire.
The allowed patterns are the sanctioned idioms, or the same code
outside the rule's scope.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_sources, analyze_tree
from repro.analysis.model import SourceModule, module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def det_findings(code, relpath):
    module = SourceModule(module_name_for(relpath), relpath, code)
    return analyze_sources([module], rules=["DET"]).findings


def rules_of(code, relpath):
    return [f.rule_id for f in det_findings(code, relpath)]


SEEDED_VIOLATIONS = [
    # DET101 — nondeterministic RNG
    ("import random\n", "src/repro/layout/x.py", ["DET101"]),
    ("from random import shuffle\n", "src/repro/core/x.py", ["DET101"]),
    ("import numpy as np\nnp.random.seed(3)\n",
     "src/repro/layout/x.py", ["DET101"]),
    ("import numpy as np\nr = np.random.default_rng()\n",
     "src/repro/layout/x.py", ["DET101"]),
    ("import numpy as np\nv = np.random.randint(10)\n",
     "src/repro/place/x.py", ["DET101"]),
    # DET103 — kernels must not own randomness (even a *seeded*
    # default_rng is banned there; the Generator comes from the caller)
    ("import numpy as np\nr = np.random.default_rng(42)\n",
     "src/repro/kernels/x.py", ["DET103"]),
    ("import numpy as np\nv = np.random.randint(10)\n",
     "src/repro/kernels/sta.py", ["DET103"]),
    ("import numpy\ng = numpy.random.default_rng(7)\n",
     "src/repro/kernels/x.py", ["DET103"]),
    ("from numpy.random import default_rng\n",
     "src/repro/kernels/x.py", ["DET103"]),
    ("from numpy import random\n",
     "src/repro/kernels/x.py", ["DET103"]),
    ("import numpy.random\n",
     "src/repro/kernels/x.py", ["DET103"]),
    # DET102 — wall-clock reads (an injected time.time() under
    # src/repro/layout/ is the canonical case)
    ("import time\nt = time.time()\n", "src/repro/layout/x.py", ["DET102"]),
    ("import time\nt = time.time_ns()\n", "src/repro/core/x.py", ["DET102"]),
    ("from datetime import datetime\nd = datetime.now()\n",
     "src/repro/layout/x.py", ["DET102"]),
    ("from datetime import date\nd = date.today()\n",
     "src/repro/netlist/x.py", ["DET102"]),
    # DET104 — wall-clock in the replayable trees (service, redteam,
    # analysis): the DET102 calls plus the formatted-time family
    ("import time\nt = time.time()\n",
     "src/repro/service/x.py", ["DET104"]),
    ("import time\ns = time.strftime('%F')\n",
     "src/repro/redteam/x.py", ["DET104"]),
    ("from datetime import datetime\nd = datetime.now()\n",
     "src/repro/analysis/x.py", ["DET104"]),
    ("import time\nlt = time.localtime()\n",
     "src/repro/service/x.py", ["DET104"]),
    ("from datetime import datetime\n"
     "d = datetime.fromtimestamp(0)\n",
     "src/repro/service/x.py", ["DET104"]),
    # DET201 — blanket exception handlers
    ("try:\n    pass\nexcept:\n    pass\n",
     "src/repro/core/x.py", ["DET201"]),
    ("try:\n    pass\nexcept Exception:\n    pass\n",
     "src/repro/core/x.py", ["DET201"]),
    ("try:\n    pass\nexcept BaseException as e:\n    x = 1\n",
     "src/repro/core/x.py", ["DET201"]),
    ("try:\n    pass\nexcept (ValueError, Exception):\n    pass\n",
     "src/repro/core/x.py", ["DET201"]),
    # DET202 — print in library code
    ("print('hi')\n", "src/repro/layout/x.py", ["DET202"]),
    # DET301 — unsorted set iteration in serialization modules
    ("for x in {1, 2}:\n    pass\n",
     "src/repro/layout/def_io.py", ["DET301"]),
    ("for x in set(names):\n    pass\n",
     "src/repro/resilience/checkpoint.py", ["DET301"]),
    ("for x in layout.fixed:\n    pass\n",
     "src/repro/layout/def_io.py", ["DET301"]),
    ("out = [n for n in layout.fixed]\n",
     "src/repro/netlist/verilog.py", ["DET301"]),
]

ALLOWED_PATTERNS = [
    # seeded RNG and duration clocks are the sanctioned idioms
    ("import numpy as np\nr = np.random.default_rng(42)\n",
     "src/repro/layout/x.py"),
    ("import time\nt = time.perf_counter()\n", "src/repro/layout/x.py"),
    ("import time\nt = time.monotonic()\n", "src/repro/core/x.py"),
    # kernels may *consume* a Generator argument, and the seeded
    # default_rng idiom stays legal outside src/repro/kernels/
    ("def sample(rng, n):\n    return rng.integers(0, n)\n",
     "src/repro/kernels/x.py"),
    ("import numpy as np\nr = np.random.default_rng(42)\n",
     "src/repro/optimize/x.py"),
    # blanket handler that re-raises is fine
    ("try:\n    pass\nexcept Exception:\n    cleanup()\n    raise\n",
     "src/repro/core/x.py"),
    # narrow handlers are fine
    ("try:\n    pass\nexcept ValueError:\n    pass\n",
     "src/repro/core/x.py"),
    # the CLI and obs layers may read the wall clock; CLI may print
    ("import time\nt = time.time()\n", "src/repro/cli.py"),
    ("import time\nt = time.time()\n", "src/repro/obs/trace.py"),
    ("print('report')\n", "src/repro/cli.py"),
    ("print('table')\n", "src/repro/reporting/tables.py"),
    # the formatted-time family is only banned in the replayable
    # trees; duration clocks stay legal even there
    ("import time\ns = time.strftime('%F')\n", "src/repro/layout/x.py"),
    ("import time\nt = time.monotonic()\n", "src/repro/service/x.py"),
    # sorted set iteration in a serialization module is the fix
    ("for x in sorted(layout.fixed):\n    pass\n",
     "src/repro/layout/def_io.py"),
    # set iteration outside the serialization scope is not flagged
    ("for x in layout.fixed:\n    pass\n", "src/repro/place/x.py"),
    # code outside src/repro is out of scope entirely
    ("import random\nprint(random.random())\n", "tests/test_x.py"),
]


class TestSeededViolations:
    @pytest.mark.parametrize(
        "code,relpath,expected",
        SEEDED_VIOLATIONS,
        ids=[f"{v[2][0]}-{i}" for i, v in enumerate(SEEDED_VIOLATIONS)],
    )
    def test_rule_fires(self, code, relpath, expected):
        assert rules_of(code, relpath) == expected


class TestAllowedPatterns:
    @pytest.mark.parametrize(
        "code,relpath",
        ALLOWED_PATTERNS,
        ids=[str(i) for i in range(len(ALLOWED_PATTERNS))],
    )
    def test_no_finding(self, code, relpath):
        assert rules_of(code, relpath) == []


#: Names resolved through the module's imports: (rule, relpath,
#: trigger, clean twin).  The literal-name matching these rules used to
#: do let every trigger through.
ALIASED_FORMS = [
    ("DET102", "src/repro/layout/x.py",
     "from time import time as now\nt = now()\n",
     "from time import perf_counter as now\nt = now()\n"),
    ("DET102", "src/repro/layout/x.py",
     "import time as t\nx = t.time()\n",
     "import time as t\nx = t.monotonic()\n"),
    ("DET102", "src/repro/layout/x.py",
     "from datetime import datetime as dt\nd = dt.now()\n",
     "from datetime import datetime as dt\nd = dt(2020, 1, 1)\n"),
    ("DET101", "src/repro/layout/x.py",
     "import numpy as npy\nnpy.random.seed(1)\n",
     "import numpy as npy\nr = npy.random.default_rng(1)\n"),
    ("DET101", "src/repro/layout/x.py",
     "from numpy import random as npr\nnpr.seed(1)\n",
     "from numpy import random as npr\nr = npr.default_rng(1)\n"),
    ("DET101", "src/repro/layout/x.py",
     "from numpy.random import default_rng as mk\nr = mk()\n",
     "from numpy.random import default_rng as mk\nr = mk(7)\n"),
    ("DET104", "src/repro/service/x.py",
     "from time import strftime\ns = strftime('%Y')\n",
     "from time import perf_counter\nt = perf_counter()\n"),
    # a function-local import is not modelled: the literal name matches
    ("DET102", "src/repro/layout/x.py",
     "def f():\n    import time\n    return time.time()\n",
     "def f():\n    import time\n    return time.monotonic()\n"),
]

ALIAS_IDS = [f"{rule}-{i}" for i, (rule, *_rest) in enumerate(ALIASED_FORMS)]


class TestAliasedForms:
    @pytest.mark.parametrize(
        "rule,relpath,trigger,clean", ALIASED_FORMS, ids=ALIAS_IDS
    )
    def test_trigger_fires(self, rule, relpath, trigger, clean):
        assert rules_of(trigger, relpath) == [rule]

    @pytest.mark.parametrize(
        "rule,relpath,trigger,clean", ALIASED_FORMS, ids=ALIAS_IDS
    )
    def test_clean_twin_is_silent(self, rule, relpath, trigger, clean):
        assert rules_of(clean, relpath) == []


class TestFindingIdentity:
    def test_key_names_the_enclosing_function_and_the_call(self):
        code = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time(), time.time_ns()\n\n"
            "T = time.time()\n"
        )
        found = det_findings(code, "src/repro/layout/x.py")
        assert [(f.line, f.key()) for f in found] == [
            (4, "DET102:repro.layout.x.stamp:time.time"),
            (4, "DET102:repro.layout.x.stamp:time.time_ns"),
            (6, "DET102:repro.layout.x:time.time"),
        ]


class TestPragma:
    def test_disable_suppresses_on_line(self):
        code = "import random  # repro-lint: disable=DET101\n"
        assert rules_of(code, "src/repro/layout/x.py") == []

    def test_disable_with_justification_text(self):
        code = (
            "try:\n    pass\n"
            "except Exception:  # repro-lint: disable=DET201 — isolation\n"
            "    pass\n"
        )
        assert rules_of(code, "src/repro/core/x.py") == []

    def test_disable_wrong_rule_does_not_suppress(self):
        code = "import random  # repro-lint: disable=DET202\n"
        assert rules_of(code, "src/repro/layout/x.py") == ["DET101"]


class TestTreeGate:
    """``src/repro`` is DET-clean with no baseline at all: every
    determinism finding is fixed or pragma-justified, never ratcheted."""

    def test_src_repro_is_clean(self):
        report = analyze_tree(REPO_ROOT, rules=["DET"], baseline=None)
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )
        assert report.rules_run == [
            "DET101", "DET102", "DET103", "DET104", "DET201", "DET202",
            "DET301",
        ]
        assert report.modules > 100

    def test_standalone_run_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--root",
             str(REPO_ROOT), "--rules", "DET", "--baseline", "none"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "analysis clean" in proc.stdout


class TestImportSilence:
    def test_library_import_prints_nothing(self):
        # DET202's contract, verified end to end: importing the package
        # must write nothing to stdout.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro; import repro.lint; import repro.core.flow"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
