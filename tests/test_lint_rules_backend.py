"""BCK001-BCK004: the scalar/numpy/jit backend purity rules."""

from __future__ import annotations

from tests.lint_helpers import run_lint, rule_ids


class TestNumpyScopeBCK002:
    def test_numpy_import_outside_sanctioned_modules_flagged(self, tmp_path):
        source = """
            import numpy as np

            def mean(xs):
                return float(np.mean(xs))
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/experiments/stats.py": source},
            rules=["BCK002"],
        )
        assert rule_ids(findings) == ["BCK002"]

    def test_from_numpy_import_flagged(self, tmp_path):
        source = """
            from numpy import asarray
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["BCK002"]
        )
        assert rule_ids(findings) == ["BCK002"]

    def test_sanctioned_module_exempt(self, tmp_path):
        source = """
            try:
                import numpy as np
            except ImportError:
                np = None
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/core/vectorized.py": source},
            rules=["BCK002"],
        )
        assert findings == []


class TestNumpyGuardBCK001:
    def test_unguarded_import_in_sanctioned_module_flagged(self, tmp_path):
        source = """
            import numpy as np
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/core/vectorized.py": source},
            rules=["BCK001"],
        )
        assert rule_ids(findings) == ["BCK001"]

    def test_guarded_import_allowed(self, tmp_path):
        source = """
            try:
                import numpy as np
            except ImportError:
                np = None
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/utils/solvers.py": source},
            rules=["BCK001"],
        )
        assert findings == []

    def test_modulenotfounderror_guard_allowed(self, tmp_path):
        source = """
            try:
                import numpy
            except ModuleNotFoundError:
                numpy = None
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/core/vectorized.py": source},
            rules=["BCK001"],
        )
        assert findings == []


class TestBackendEnvBCK003:
    def test_environ_subscript_read_flagged(self, tmp_path):
        source = """
            import os

            def backend():
                return os.environ["REPRO_NUMERIC"]
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["BCK003"]
        )
        assert rule_ids(findings) == ["BCK003"]

    def test_environ_get_and_getenv_flagged(self, tmp_path):
        source = """
            import os

            def backend():
                return os.environ.get("REPRO_NUMERIC") or os.getenv("REPRO_NUMERIC")
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["BCK003"]
        )
        assert rule_ids(findings) == ["BCK003", "BCK003"]

    def test_symbolic_key_via_backend_env_constant_flagged(self, tmp_path):
        source = """
            import os
            from repro.core import vectorized

            def backend():
                return os.environ.get(vectorized.BACKEND_ENV)
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["BCK003"]
        )
        assert rule_ids(findings) == ["BCK003"]

    def test_write_for_worker_export_allowed(self, tmp_path):
        source = """
            import os

            def export(backend):
                os.environ["REPRO_NUMERIC"] = backend
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["BCK003"]
        )
        assert findings == []

    def test_accessor_module_exempt(self, tmp_path):
        source = """
            import os

            def from_env():
                return os.environ.get("REPRO_NUMERIC")
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/core/solve_config.py": source},
            rules=["BCK003"],
        )
        assert findings == []

    def test_dispatcher_module_flagged(self, tmp_path):
        source = """
            import os

            def get_backend():
                return os.environ.get("REPRO_NUMERIC")
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/core/vectorized.py": source},
            rules=["BCK003"],
        )
        assert rule_ids(findings) == ["BCK003"]

    def test_other_env_vars_allowed(self, tmp_path):
        source = """
            import os

            def cache_dir():
                return os.environ.get("REPRO_CACHE_DIR", ".cache")
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["BCK003"]
        )
        assert findings == []


class TestJitScopeBCK004:
    def test_numba_import_outside_kernels_flagged(self, tmp_path):
        source = """
            import numba

            @numba.njit
            def fast(x):
                return x + 1
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/experiments/fast.py": source},
            rules=["BCK004"],
        )
        assert rule_ids(findings) == ["BCK004"]
        assert "repro.core.kernels" in findings[0].message

    def test_cffi_import_outside_kernels_flagged(self, tmp_path):
        source = """
            from cffi import FFI
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["BCK004"]
        )
        assert rule_ids(findings) == ["BCK004"]

    def test_deferred_import_still_flagged(self, tmp_path):
        source = """
            def build():
                import numba
                return numba.njit
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/blocks.py": source}, rules=["BCK004"]
        )
        assert rule_ids(findings) == ["BCK004"]

    def test_kernels_package_and_submodules_exempt(self, tmp_path):
        files = {
            "src/repro/core/kernels/__init__.py": "import cffi\n",
            "src/repro/core/kernels/_cffi_provider.py": "import cffi\n",
            "src/repro/core/kernels/_numba_provider.py": "import numba\n",
        }
        findings = run_lint(str(tmp_path), files, rules=["BCK004"])
        assert findings == []

    def test_unrelated_imports_quiet(self, tmp_path):
        source = """
            import numbers
            from collections import OrderedDict
            import cffi_tools
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/experiments/m.py": source}, rules=["BCK004"]
        )
        assert findings == []

    def test_relative_import_not_mistaken_for_toolchain(self, tmp_path):
        source = """
            from . import cffi
        """
        findings = run_lint(
            str(tmp_path),
            {"src/repro/experiments/m.py": source},
            rules=["BCK004"],
        )
        assert findings == []
