"""Self-tests for the ``repro.analysis`` invariant linter.

Every rule gets a fixture pair — a snippet that must fire and a clean
snippet that must not — plus suppression-comment handling (a reasonless
disable never suppresses, for any rule), the text report, CLI exit codes,
and the self-gate: the linter must report zero errors over this
repository, with no suppressions inside ``repro.core.kernels`` or
``repro.cluster.shardstore``.
"""

import pathlib
import textwrap

import pytest

from repro.analysis import (
    RULES,
    FileContext,
    lint_context,
    lint_paths,
    module_name_for,
    render_text,
)
from repro.analysis.cli import main as cli_main

REPO = pathlib.Path(__file__).resolve().parent.parent

HOT_PATH = "src/repro/core/kernels.py"  # in the hot-module scope
PLACEMENT_PATH = "src/repro/cluster/shardstore/placement.py"
SIM_PATH = "src/repro/data/stream.py"  # src, but not hot/placement


def findings_for(source, path, rule=None):
    """Lint a dedented snippet as if it lived at ``path``."""
    ctx = FileContext.from_source(textwrap.dedent(source), path)
    found = lint_context(ctx)
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def active(findings):
    return [f for f in findings if not f.suppressed]


# ------------------------------------------------------------ rule order
def test_all_rules_registered_in_order():
    assert [name for name, _scope, _check in RULES] == [
        "no-salted-hash",
        "no-unseeded-rng",
        "no-wallclock-in-sim",
        "hot-loop",
        "dtype-discipline",
        "public-api",
        "no-bare-except",
        "unused-import",
    ]


def test_module_name_mapping():
    assert module_name_for("src/repro/core/kernels.py") == "repro.core.kernels"
    assert (
        module_name_for("/abs/src/repro/cluster/shardstore/__init__.py")
        == "repro.cluster.shardstore"
    )
    assert module_name_for("tests/test_docs.py") == "tests.test_docs"
    assert module_name_for("benchmarks/bench_x.py") == "benchmarks.bench_x"


# --------------------------------------------------------- no-salted-hash
class TestNoSaltedHash:
    def test_fires_on_builtin_hash_in_placement_module(self):
        src = """
            def shard_of(key, n):
                return hash(key) % n
        """
        found = findings_for(src, PLACEMENT_PATH, "no-salted-hash")
        assert len(found) == 1
        assert "splitmix64" in found[0].message

    def test_clean_with_stable_hash_family(self):
        src = """
            from repro.core.kernels import splitmix64

            def shard_of(keys, n):
                return splitmix64(keys) % n
        """
        assert not findings_for(src, PLACEMENT_PATH, "no-salted-hash")

    def test_out_of_scope_module_not_checked(self):
        src = "x = hash('anything')\n"
        assert not findings_for(src, SIM_PATH, "no-salted-hash")


# -------------------------------------------------------- no-unseeded-rng
class TestNoUnseededRng:
    def test_fires_on_bare_np_random(self):
        src = """
            import numpy as np
            noise = np.random.rand(100)
        """
        found = findings_for(src, SIM_PATH, "no-unseeded-rng")
        assert len(found) == 1

    def test_fires_on_unseeded_default_rng(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert findings_for(src, SIM_PATH, "no-unseeded-rng")

    def test_fires_on_stdlib_random(self):
        src = """
            import random
            x = random.random()
        """
        assert findings_for(src, SIM_PATH, "no-unseeded-rng")
        src = """
            from random import randint
            x = randint(0, 5)
        """
        assert findings_for(src, SIM_PATH, "no-unseeded-rng")

    def test_clean_with_seeded_generator(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(42)
            noise = rng.random(100)

            def sample(rng: np.random.Generator):
                return rng.integers(0, 10, 5)
        """
        assert not findings_for(src, SIM_PATH, "no-unseeded-rng")


# ---------------------------------------------------- no-wallclock-in-sim
class TestNoWallclockInSim:
    def test_fires_on_time_time(self):
        src = """
            import time
            stamp = time.time()
        """
        assert findings_for(src, SIM_PATH, "no-wallclock-in-sim")

    def test_fires_on_datetime_now_via_from_import(self):
        src = """
            from datetime import datetime
            stamp = datetime.now()
        """
        assert findings_for(src, SIM_PATH, "no-wallclock-in-sim")

    def test_perf_counter_is_allowed(self):
        src = """
            import time
            t0 = time.perf_counter()
        """
        assert not findings_for(src, SIM_PATH, "no-wallclock-in-sim")

    def test_benchmarks_may_read_the_clock(self):
        src = """
            import time
            t0 = time.time()
        """
        assert not findings_for(
            src, "benchmarks/bench_x.py", "no-wallclock-in-sim"
        )


# ----------------------------------------------------------------- hot-loop
class TestHotLoop:
    def test_fires_on_tolist_loop(self):
        src = """
            def drain(arr):
                total = 0
                for value in arr.tolist():
                    total += value
                return total
        """
        found = findings_for(src, HOT_PATH, "hot-loop")
        assert len(found) == 1

    def test_fires_on_range_len_and_range_size(self):
        src = """
            def scan(arr):
                for i in range(len(arr)):
                    arr[i] += 1
                for i in range(arr.size):
                    arr[i] += 1
        """
        assert len(findings_for(src, HOT_PATH, "hot-loop")) == 2

    def test_fires_inside_zip_enumerate(self):
        src = """
            def pairs(a, b):
                for x, y in zip(a.tolist(), b.tolist()):
                    yield x + y
        """
        assert findings_for(src, HOT_PATH, "hot-loop")

    def test_chunked_and_structural_loops_are_clean(self):
        src = """
            def chunked(arr, n, chunk):
                for lo in range(0, n, chunk):
                    arr[lo : lo + chunk] += 1

            def classes(groups):
                for size, members in groups.items():
                    yield size, members
        """
        assert not findings_for(src, HOT_PATH, "hot-loop")

    def test_cold_modules_may_loop(self):
        src = """
            def fine(arr):
                return [x + 1 for x in arr.tolist()]

            def also_fine(arr):
                out = 0
                for x in arr.tolist():
                    out += x
                return out
        """
        assert not findings_for(src, SIM_PATH, "hot-loop")


# ---------------------------------------------------------- dtype-discipline
class TestDtypeDiscipline:
    def test_fires_on_dtypeless_constructors(self):
        src = """
            import numpy as np

            def build(x):
                a = np.zeros(4)
                b = np.arange(10)
                c = np.asarray(x)
                return a, b, c
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert len(found) == 3

    def test_clean_with_explicit_dtype(self):
        src = """
            import numpy as np

            def build(x):
                a = np.zeros(4, dtype=np.float64)
                b = np.arange(10, dtype=np.int64)
                c = np.asarray(x, dtype=np.int64)
                d = np.empty_like(a)
                return a, b, c, d
        """
        assert not findings_for(src, HOT_PATH, "dtype-discipline")

    def test_cold_modules_unconstrained(self):
        src = """
            import numpy as np
            probe = np.zeros(3)
        """
        assert not findings_for(src, SIM_PATH, "dtype-discipline")

    def test_fires_on_mixed_lane_binop(self):
        src = """
            import numpy as np

            def mix():
                a = np.zeros(4, dtype=np.float32)
                b = np.ones(4, dtype=np.float64)
                return a + b
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert len(found) == 1
        assert "mixes float lanes" in found[0].message

    def test_fires_on_mixed_lane_astype(self):
        src = """
            import numpy as np

            def mix(x, y):
                a = x.astype(np.float32)
                b = y.astype("float64")
                return a * b
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert len(found) == 1

    def test_same_lane_and_dynamic_lanes_clean(self):
        src = """
            import numpy as np

            def ok(x, lane):
                a = np.zeros(4, dtype=np.float32)
                b = np.ones(4, dtype=np.float32)
                c = np.zeros(4, dtype=lane)  # dynamic: no lane recorded
                d = a + b
                return d + c
        """
        assert not findings_for(src, HOT_PATH, "dtype-discipline")

    def test_mixed_lane_silent_in_cold_modules(self):
        src = """
            import numpy as np

            a = np.zeros(4, dtype=np.float32)
            b = np.ones(4, dtype=np.float64)
            c = a + b
        """
        assert not findings_for(src, SIM_PATH, "dtype-discipline")


# ---------------------------------------------------------------- public-api
class TestPublicApi:
    def test_fires_on_missing_docstring_and_all(self):
        src = "X = 1\n"
        found = findings_for(src, "src/repro/newmod.py", "public-api")
        messages = " | ".join(f.message for f in found)
        assert "docstring" in messages
        assert "__all__" in messages

    def test_fires_on_unbound_and_undocumented_names(self):
        src = '''
            """Module docstring."""

            __all__ = ["present", "ghost"]


            def present():
                return 1
        '''
        found = findings_for(src, "src/repro/newmod.py", "public-api")
        messages = " | ".join(f.message for f in found)
        assert "'ghost'" in messages and "never binds" in messages
        assert "'present'" in messages and "no docstring" in messages

    def test_clean_module_passes(self):
        src = '''
            """Module docstring."""

            __all__ = ["CONSTANT", "helper"]

            CONSTANT = 7


            def helper():
                """Documented."""
                return CONSTANT
        '''
        assert not findings_for(src, "src/repro/newmod.py", "public-api")

    def test_lazy_export_dict_pattern_resolves(self):
        src = '''
            """Lazy package facade."""

            _EXPORTS = {"alpha": "mod_a", "beta": "mod_b"}

            __all__ = list(_EXPORTS)


            def __getattr__(name):
                """PEP 562 lazy loader."""
                raise AttributeError(name)
        '''
        assert not findings_for(
            src, "src/repro/pkg/__init__.py", "public-api"
        )

    def test_private_and_non_src_modules_skipped(self):
        src = "X = 1\n"
        assert not findings_for(src, "src/repro/_private.py", "public-api")
        assert not findings_for(src, "tests/test_thing.py", "public-api")


# ------------------------------------------------------------ no-bare-except
class TestNoBareExcept:
    def test_fires_on_bare_except(self):
        src = """
            def pull(client):
                try:
                    return client.pull()
                except:
                    return None
        """
        found = findings_for(src, SIM_PATH, "no-bare-except")
        assert len(found) == 1
        assert "bare `except:`" in found[0].message

    def test_fires_on_swallowed_broad_except(self):
        src = """
            def pull(client):
                try:
                    return client.pull()
                except Exception:
                    return None
        """
        found = findings_for(src, SIM_PATH, "no-bare-except")
        assert len(found) == 1
        assert "except Exception" in found[0].message

    def test_fires_on_broad_except_inside_tuple(self):
        src = """
            def pull(client):
                try:
                    return client.pull()
                except (ValueError, BaseException):
                    return None
        """
        found = findings_for(src, SIM_PATH, "no-bare-except")
        assert len(found) == 1
        assert "BaseException" in found[0].message

    def test_fires_on_bound_but_unused_exception(self):
        src = """
            def pull(client):
                try:
                    return client.pull()
                except Exception as err:
                    return None
        """
        assert findings_for(src, SIM_PATH, "no-bare-except")

    def test_reraise_is_clean(self):
        src = """
            def pull(client, counter):
                try:
                    return client.pull()
                except Exception:
                    counter.inc()
                    raise
        """
        assert not findings_for(src, SIM_PATH, "no-bare-except")

    def test_raise_from_is_clean(self):
        src = """
            def pull(client):
                try:
                    return client.pull()
                except Exception as err:
                    raise RuntimeError("pull failed") from err
        """
        assert not findings_for(src, SIM_PATH, "no-bare-except")

    def test_bound_and_recorded_is_clean(self):
        src = """
            def pull(client, log):
                try:
                    return client.pull()
                except Exception as err:
                    log.append(err)
                    return None
        """
        assert not findings_for(src, SIM_PATH, "no-bare-except")

    def test_named_exception_class_is_clean(self):
        src = """
            def pull(client):
                try:
                    return client.pull()
                except (TimeoutError, ConnectionError):
                    return None
        """
        assert not findings_for(src, SIM_PATH, "no-bare-except")

    def test_tests_are_exempt(self):
        src = """
            def test_raises(client):
                try:
                    client.pull()
                except Exception:
                    pass
        """
        assert not findings_for(
            src, "tests/test_thing.py", "no-bare-except"
        )

    def test_suppression_requires_reason(self):
        bare = """
            def pull(client):
                try:
                    return client.pull()
                except Exception:  # repro-lint: disable=no-bare-except
                    return None
        """
        found = findings_for(bare, SIM_PATH, "no-bare-except")
        assert active(found), "reasonless disable must not silence it"
        assert "needs a reason" in found[0].message

        reasoned = """
            def pull(client):
                try:
                    return client.pull()
                except Exception:  # repro-lint: disable=no-bare-except -- best-effort probe
                    return None
        """
        found = findings_for(reasoned, SIM_PATH, "no-bare-except")
        assert len(found) == 1 and found[0].suppressed
        assert "best-effort probe" in found[0].suppress_reason


# ------------------------------------------------------------- unused-import
class TestUnusedImport:
    def test_fires_on_each_unused_binding(self):
        src = """
            import os
            import numpy as np
            from typing import Iterator, Sequence

            def head(xs: Sequence[int]):
                return np.asarray(xs[:1], dtype=np.int64)
        """
        found = findings_for(src, SIM_PATH, "unused-import")
        assert sorted(f.message.split()[0] for f in found) == [
            "'Iterator'",
            "'os'",
        ]
        assert [f.line for f in found] == [2, 4]

    def test_fires_under_module_level_try_and_if(self):
        src = """
            try:
                import json
            except ImportError:
                json = None
            if True:
                from pathlib import Path
        """
        found = findings_for(src, SIM_PATH, "unused-import")
        assert [f.message.split()[0] for f in found] == ["'json'", "'Path'"]

    def test_clean_when_every_binding_is_read(self):
        src = """
            from __future__ import annotations

            import os.path
            from typing import TYPE_CHECKING

            from .sibling import *

            if TYPE_CHECKING:
                from repro.obs.clock import SimClock

            __all__ = ["reexported", "run"]

            from .elsewhere import reexported


            def run(clock: "SimClock | None" = None) -> str:
                return os.path.join("a", "b")  # read through an attribute chain
        """
        assert not findings_for(src, SIM_PATH, "unused-import")

    def test_function_level_imports_are_not_checked(self):
        src = """
            def lazy():
                import json
                return 1
        """
        assert not findings_for(src, SIM_PATH, "unused-import")

    def test_package_init_reexports_are_exempt(self):
        src = "from .store import ShardedParameterStore\n"
        assert not findings_for(
            src, "src/repro/pkg/__init__.py", "unused-import"
        )

    def test_suppression_requires_reason(self):
        bare = """
            from . import rules  # repro-lint: disable=unused-import
        """
        found = findings_for(bare, SIM_PATH, "unused-import")
        assert active(found) and "needs a reason" in found[0].message
        reasoned = """
            # repro-lint: disable=unused-import -- registers the rules
            from . import rules
        """
        found = findings_for(reasoned, SIM_PATH, "unused-import")
        assert len(found) == 1 and found[0].suppressed


# -------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_trailing_disable_suppresses(self):
        src = """
            import numpy as np
            probe = np.zeros(4)  # repro-lint: disable=dtype-discipline -- probe
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert len(found) == 1 and found[0].suppressed

    def test_disable_on_line_above_suppresses(self):
        src = """
            import numpy as np
            # repro-lint: disable=dtype-discipline -- probe
            probe = np.zeros(4)
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert len(found) == 1 and found[0].suppressed

    def test_wrong_rule_name_does_not_suppress(self):
        src = """
            import numpy as np
            probe = np.zeros(4)  # repro-lint: disable=hot-loop -- probe
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert active(found)

    def test_hot_loop_suppression_requires_reason(self):
        bare = """
            def drain(arr):
                # repro-lint: disable=hot-loop
                for value in arr.tolist():
                    print(value)
        """
        found = findings_for(bare, HOT_PATH, "hot-loop")
        assert active(found), "reasonless disable must not silence hot-loop"
        assert "needs a reason" in found[0].message

        reasoned = """
            def drain(arr):
                # repro-lint: disable=hot-loop -- sequential fallback, O(evictions) not O(batch)
                for value in arr.tolist():
                    print(value)
        """
        found = findings_for(reasoned, HOT_PATH, "hot-loop")
        assert len(found) == 1 and found[0].suppressed
        assert "sequential fallback" in found[0].suppress_reason

    def test_reason_survives_into_reports(self):
        src = """
            import numpy as np
            probe = np.zeros(4)  # repro-lint: disable=dtype-discipline -- scratch probe
        """
        found = findings_for(src, HOT_PATH, "dtype-discipline")
        assert found[0].suppress_reason == "scratch probe"


# One firing snippet per rule, the flagged line marked ``{disable}``.
FIRING = {
    "no-salted-hash": (PLACEMENT_PATH, "x = hash('k')  {disable}\n"),
    "no-unseeded-rng": (
        SIM_PATH,
        "import numpy as np\nx = np.random.rand(3)  {disable}\n",
    ),
    "no-wallclock-in-sim": (SIM_PATH, "import time\nt = time.time()  {disable}\n"),
    "hot-loop": (
        HOT_PATH,
        "def f(a):\n    for v in a.tolist():  {disable}\n        print(v)\n",
    ),
    "dtype-discipline": (
        HOT_PATH,
        "import numpy as np\nx = np.zeros(3)  {disable}\n",
    ),
    "public-api": ("src/repro/newmod.py", "X = 1  {disable}\n"),
    "no-bare-except": (
        SIM_PATH,
        "try:\n    pass\nexcept:  {disable}\n    pass\n",
    ),
    "unused-import": (SIM_PATH, "import os  {disable}\n"),
}


@pytest.mark.parametrize("rule", [name for name, _scope, _check in RULES])
def test_every_suppression_needs_a_reason(rule):
    path, template = FIRING[rule]
    bare = template.format(disable=f"# repro-lint: disable={rule}")
    found = findings_for(bare, path, rule)
    assert found and active(found) == found, "reasonless disable must not silence it"
    assert all("needs a reason" in f.message for f in found)

    reasoned = template.format(disable=f"# repro-lint: disable={rule} -- fixture")
    found = findings_for(reasoned, path, rule)
    assert found and not active(found)
    assert all(f.suppress_reason == "fixture" for f in found)


# ------------------------------------------------------------------- the CLI
class TestCli:
    def _write(self, tmp_path, rel, body):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
        return path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self._write(
            tmp_path,
            "src/repro/clean.py",
            '''
            """Clean module."""

            __all__ = ["X"]

            X = 1
            ''',
        )
        assert cli_main([str(tmp_path / "src")]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        self._write(
            tmp_path,
            "src/repro/core/kernels.py",
            '''
            """Hot module."""

            import numpy as np

            __all__ = []

            x = np.zeros(3)
            ''',
        )
        assert cli_main([str(tmp_path)]) == 1
        assert "dtype-discipline" in capsys.readouterr().out

    def test_exit_one_on_syntax_error(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/broken.py", "def f(:\n")
        assert cli_main([str(tmp_path)]) == 1
        assert "syntax-error" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys):
        assert cli_main([str(REPO / "no" / "such" / "dir")]) == 2

    def test_exit_two_on_no_paths(self, capsys):
        assert cli_main([]) == 2

    def test_text_report_lines(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "src/repro/core/kernels.py",
            '''
            """Hot module."""

            import numpy as np

            __all__ = []

            x = np.zeros(3)
            y = np.ones(3)  # repro-lint: disable=dtype-discipline -- probe
            ''',
        )
        assert cli_main([str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{path}:8:5: dtype-discipline: np.zeros(...) without an explicit "
            "dtype= in a hot module silently inherits a platform/input-dependent "
            "dtype; pass dtype= explicitly",
            f"{path}:9:5: dtype-discipline: suppressed -- probe",
            "1 files scanned: 1 error(s), 1 suppressed",
        ]

# ------------------------------------------------------------- the self-gate
class TestRepoIsClean:
    """The acceptance gate: this repository lints clean, always."""

    @pytest.fixture(scope="class")
    def result(self):
        return lint_paths(
            [REPO / "src", REPO / "tests", REPO / "benchmarks", REPO / "examples"]
        )

    def test_zero_errors(self, result):
        assert result.errors == [], render_text(result)

    def test_no_suppressions_in_kernels_or_shardstore(self, result):
        banned = [
            f
            for f in result.suppressed
            if "core/kernels.py" in f.path.replace("\\", "/")
            or "cluster/shardstore/" in f.path.replace("\\", "/")
        ]
        assert banned == [], [f"{f.path}:{f.line}" for f in banned]

    def test_every_suppression_carries_a_reason(self, result):
        missing = [f for f in result.suppressed if not f.suppress_reason]
        assert missing == [], [f"{f.path}:{f.line}" for f in missing]
