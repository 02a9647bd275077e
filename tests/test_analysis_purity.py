"""Simulation-purity lint: rule units on synthetic sources + real tree.

Each PUR3xx rule gets positive and negative cases on small synthetic
sources (``lint_source`` takes the pretend path that selects the rule
set), and the integration test asserts the real ``src/repro`` tree is
clean — the property the blocking CI job enforces.
"""

import textwrap
from pathlib import Path

from repro.analysis import Baseline, lint_source, rules_for, run_suite

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _codes(source, relpath):
    return [d.code for d in lint_source(textwrap.dedent(source), relpath)]


class TestRuleSelection:
    def test_wall_clock_only_in_timing_packages(self):
        assert "PUR301" in rules_for("perf/simulator.py")
        assert "PUR301" in rules_for("cxl/link.py")
        assert "PUR301" in rules_for("appliance/scheduler.py")
        assert "PUR301" not in rules_for("obs/tracer.py")
        assert "PUR301" not in rules_for("cli.py")

    def test_rng_rule_exempts_faults(self):
        assert "PUR302" not in rules_for("faults/plan.py")
        assert "PUR302" in rules_for("llm/reference.py")

    def test_float_rule_only_for_reference(self):
        assert "PUR304" in rules_for("llm/reference.py")
        assert "PUR304" not in rules_for("llm/config.py")

    def test_mutation_rule_everywhere(self):
        assert "PUR303" in rules_for("runtime/session.py")
        assert "PUR303" in rules_for("obs/tracer.py")


class TestWallClock:
    def test_time_time_flagged(self):
        src = """
        import time
        def step():
            return time.time()
        """
        assert _codes(src, "perf/simulator.py") == ["PUR301"]

    def test_perf_counter_from_import_flagged(self):
        src = """
        from time import perf_counter
        def step():
            return perf_counter()
        """
        assert _codes(src, "cxl/link.py") == ["PUR301"]

    def test_datetime_now_flagged(self):
        src = """
        from datetime import datetime
        def stamp():
            return datetime.now()
        """
        assert _codes(src, "appliance/scheduler.py") == ["PUR301"]

    def test_allowed_outside_timing_packages(self):
        src = """
        import time
        def wall():
            return time.perf_counter()
        """
        assert _codes(src, "obs/tracer.py") == []

    def test_simulated_clock_not_flagged(self):
        src = """
        def step(clock):
            clock.advance(1e-6)
            return clock.now_s
        """
        assert _codes(src, "perf/simulator.py") == []

    def test_location_carries_line(self):
        src = "import time\nx = time.time()\n"
        diags = lint_source(src, "perf/units.py")
        assert diags[0].location == "perf/units.py:2"


class TestUnseededRng:
    def test_bare_default_rng_flagged(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert _codes(src, "llm/workload.py") == ["PUR302"]

    def test_seeded_default_rng_ok(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(1234)
        """
        assert _codes(src, "llm/workload.py") == []

    def test_legacy_numpy_global_rng_flagged(self):
        src = """
        import numpy as np
        def noisy():
            np.random.seed(0)
            return np.random.randn(4)
        """
        assert _codes(src, "llm/workload.py") == ["PUR302", "PUR302"]

    def test_stdlib_module_rng_flagged(self):
        src = """
        import random
        x = random.random()
        """
        assert _codes(src, "appliance/arrivals.py") == ["PUR302"]

    def test_stdlib_random_class_ok(self):
        src = """
        import random
        rng = random.Random(7)
        y = rng.random()
        """
        assert _codes(src, "appliance/arrivals.py") == []

    def test_faults_package_exempt(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert _codes(src, "faults/plan.py") == []


class TestObsGuardMutation:
    def test_mutation_in_enabled_body_flagged(self):
        src = """
        def readback(self, tracer):
            if tracer.enabled:
                self.clock += 1.0
        """
        assert _codes(src, "runtime/session.py") == ["PUR303"]

    def test_mutation_after_early_return_flagged(self):
        # The exact shape of the bug this rule caught in
        # InferenceSession._trace_host_readback.
        src = """
        def readback(self, tracer, metrics):
            if not (tracer.enabled or metrics.enabled):
                return
            link_s = 1e-6
            self._sim_clock_s += link_s
        """
        assert _codes(src, "runtime/session.py") == ["PUR303"]

    def test_pure_span_emission_ok(self):
        src = """
        def readback(self, tracer):
            if not tracer.enabled:
                return
            tracer.sim_span("host_read", start_s=0.0, dur_s=1e-6)
        """
        assert _codes(src, "runtime/session.py") == []

    def test_local_assignment_in_guard_ok(self):
        src = """
        def readback(self, tracer):
            if tracer.enabled:
                label = "x"
                tracer.span(label)
        """
        assert _codes(src, "runtime/session.py") == []

    def test_unguarded_mutation_ok(self):
        src = """
        def step(self):
            self.clock += 1.0
        """
        assert _codes(src, "runtime/session.py") == []

    def test_non_obs_guard_ok(self):
        src = """
        def step(self, device):
            if device.enabled:
                self.clock += 1.0
        """
        assert _codes(src, "runtime/session.py") == []

    def test_mutation_in_nested_block_inside_guard_flagged(self):
        src = """
        def flush(self, metrics, items):
            if metrics.enabled:
                for item in items:
                    self.seen[item] = True
        """
        assert _codes(src, "appliance/engine.py") == ["PUR303"]

    def test_nested_function_inside_guard_not_flagged(self):
        # A def inside the guard does not execute there.
        src = """
        def install(self, tracer):
            if tracer.enabled:
                def hook():
                    self.count += 1
                tracer.on_span(hook)
        """
        assert _codes(src, "runtime/session.py") == []


class TestFloat64:
    def test_np_float64_flagged(self):
        src = """
        import numpy as np
        def kernel(x):
            return x.astype(np.float64)
        """
        assert _codes(src, "llm/reference.py") == ["PUR304"]

    def test_dtype_string_flagged(self):
        src = """
        import numpy as np
        x = np.zeros(4, dtype="float64")
        """
        assert _codes(src, "llm/reference.py") == ["PUR304"]

    def test_dtype_float_builtin_flagged(self):
        src = """
        import numpy as np
        x = np.zeros(4, dtype=float)
        """
        assert _codes(src, "llm/reference.py") == ["PUR304"]

    def test_float32_ok(self):
        src = """
        import numpy as np
        x = np.zeros(4, dtype=np.float32)
        """
        assert _codes(src, "llm/reference.py") == []

    def test_not_applied_elsewhere(self):
        src = """
        import numpy as np
        x = np.zeros(4, dtype=np.float64)
        """
        assert _codes(src, "perf/power.py") == []


class TestSyntaxError:
    def test_unparseable_source_reported(self):
        diags = lint_source("def broken(:\n", "llm/ops.py")
        assert [d.code for d in diags] == ["PUR300"]


def _real_tree_report():
    return run_suite(REPO_SRC, passes=["purity"],
                     baseline=Baseline()).report


class TestRealTree:
    def test_src_repro_is_clean(self):
        report = _real_tree_report()
        assert report.clean, report.render()

    def test_report_shape(self):
        report = _real_tree_report()
        data = report.as_dict()
        assert data["clean"] is True
        assert data["counts"] == {"error": 0, "warning": 0, "info": 0}
