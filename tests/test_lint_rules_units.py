"""UNT001: dimension-mix detection driven by ``@unit`` tags."""

from __future__ import annotations

import textwrap
from fractions import Fraction

import pytest

from repro.units import UJ, UNIT_ATTRIBUTE, dimension_of, unit
from tests.lint_helpers import run_lint, rule_ids

#: Producers tagged with the real decorator, exercised in every scenario.
PRODUCERS = textwrap.dedent(
    """
    from repro.units import MS, MW, UJ, unit

    @unit(UJ)
    def block_energy():
        return 7.0

    @unit(MW)
    def idle_power():
        return 2.0

    @unit(MS)
    def gap_length():
        return 3.0
    """
)


def with_producers(body: str) -> str:
    """The producer module plus a dedented consumer snippet."""
    return PRODUCERS + textwrap.dedent(body)


class TestUnitDecorator:
    def test_decorator_stamps_attribute(self):
        @unit(UJ)
        def energy() -> float:
            return 1.0

        assert getattr(energy, UNIT_ATTRIBUTE) == UJ
        assert energy() == 1.0

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown unit tag"):
            unit("joules")

    def test_power_is_energy_per_time(self):
        energy = dimension_of("uJ")
        power = dimension_of("mW")
        time = dimension_of("ms")
        assert tuple(p + t for p, t in zip(power, time)) == energy

    def test_scalar_is_dimensionless(self):
        assert dimension_of("scalar") == (Fraction(0),) * 3


class TestUnitMixUNT001:
    def test_energy_plus_power_flagged(self, tmp_path):
        source = with_producers("""
            def bad():
                return block_energy() + idle_power()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert rule_ids(findings) == ["UNT001"]
        assert "uJ" in findings[0].message and "mW" in findings[0].message
        assert findings[0].severity == "warning"

    def test_derived_energy_from_power_times_time_allowed(self, tmp_path):
        source = with_producers("""
            def good():
                return idle_power() * gap_length() + block_energy()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert findings == []

    def test_division_derives_power(self, tmp_path):
        source = with_producers("""
            def good():
                return block_energy() / gap_length() + idle_power()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert findings == []

    def test_mix_through_local_variables_flagged(self, tmp_path):
        source = with_producers("""
            def bad():
                total = block_energy()
                window = gap_length()
                return total - window
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert rule_ids(findings) == ["UNT001"]

    def test_comparison_across_dimensions_flagged(self, tmp_path):
        source = with_producers("""
            def bad():
                return block_energy() > gap_length()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/core/m.py": source}, rules=["UNT001"]
        )
        assert rule_ids(findings) == ["UNT001"]

    def test_numeric_literals_never_flagged(self, tmp_path):
        source = with_producers("""
            def good():
                return block_energy() + 0.0 and gap_length() - 1.5
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert findings == []

    def test_untagged_calls_stay_unknown(self, tmp_path):
        source = with_producers("""
            def helper():
                return 5.0

            def good():
                return block_energy() + helper()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert findings == []

    def test_out_of_scope_package_not_flagged(self, tmp_path):
        source = with_producers("""
            def bad():
                return block_energy() + idle_power()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/service/m.py": source}, rules=["UNT001"]
        )
        assert findings == []

    def test_same_dimension_sum_allowed(self, tmp_path):
        source = with_producers("""
            def good():
                return block_energy() + block_energy()
        """)
        findings = run_lint(
            str(tmp_path), {"src/repro/energy/m.py": source}, rules=["UNT001"]
        )
        assert findings == []

    def test_registry_spans_modules(self, tmp_path):
        # Producers live in repro.models (out of UNT001's checking scope),
        # the mix happens in repro.energy: the tag registry is project-wide.
        consumer = """
            from repro.models.m import block_energy, idle_power

            def bad():
                return block_energy() + idle_power()
        """
        findings = run_lint(
            str(tmp_path),
            {
                "src/repro/models/m.py": PRODUCERS,
                "src/repro/energy/use.py": consumer,
            },
            rules=["UNT001"],
        )
        assert rule_ids(findings) == ["UNT001"]


class TestUnitTagCoverageUNT002:
    def test_untagged_quantity_function_flagged(self, tmp_path):
        source = """
            def _grid_step(epsilon, min_busy):
                return 0.25 * epsilon * min_busy
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/fptas.py": source}, rules=["UNT002"]
        )
        assert rule_ids(findings) == ["UNT002"]
        assert "_grid_step" in findings[0].message
        assert findings[0].severity == "warning"

    def test_tagged_quantity_function_quiet(self, tmp_path):
        source = """
            from repro.units import MS, SCALAR, unit

            @unit(SCALAR)
            def _rounding_delta(epsilon):
                return 0.25 * epsilon

            @unit(MS)
            def _busy_ladder(min_length, horizon, delta):
                return [min_length, horizon]
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/fptas.py": source}, rules=["UNT002"]
        )
        assert findings == []

    def test_non_quantity_names_never_conscripted(self, tmp_path):
        # 'fptas'/'solver'/'discrete' are not quantity segments, and
        # 'gridlock' must not match 'grid' mid-word.
        source = """
            def solve_agreeable_fptas(tasks):
                return tasks

            def _price_block_discrete(evaluate):
                return evaluate

            def gridlock_detector():
                return True
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/fptas.py": source}, rules=["UNT002"]
        )
        assert findings == []

    def test_out_of_scope_module_quiet(self, tmp_path):
        source = """
            def block_energy():
                return 7.0
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/blocks.py": source}, rules=["UNT002"]
        )
        assert findings == []

    def test_raw_backend_env_read_flagged(self, tmp_path):
        source = """
            import os

            def sneaky_backend():
                return os.environ.get("REPRO_NUMERIC", "scalar")
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/fptas.py": source}, rules=["UNT002"]
        )
        assert rule_ids(findings) == ["UNT002"]
        assert "REPRO_NUMERIC" in findings[0].message

    def test_other_env_reads_quiet(self, tmp_path):
        source = """
            import os

            def tier():
                return os.environ.get("REPRO_SOLVER_TIER", "exact")
        """
        findings = run_lint(
            str(tmp_path), {"src/repro/core/fptas.py": source}, rules=["UNT002"]
        )
        assert findings == []

    def test_only_the_accessor_may_read_backend_env(self, tmp_path):
        pyproject = """
            [tool.repro-lint]
            unit-tagged-modules = [
                "repro.core.solve_config",
                "repro.core.vectorized",
            ]
        """
        reader = """
            import os

            def backend():
                return os.environ.get("REPRO_NUMERIC")
        """
        findings = run_lint(
            str(tmp_path),
            {
                "pyproject.toml": pyproject,
                "src/repro/core/solve_config.py": reader,
                "src/repro/core/vectorized.py": reader,
            },
            rules=["UNT002"],
        )
        assert rule_ids(findings) == ["UNT002"]
        assert findings[0].path.endswith("vectorized.py")

    def test_scope_configurable_via_pyproject(self, tmp_path):
        pyproject = """
            [tool.repro-lint]
            unit-tagged-modules = [
                "repro.energy.grids",
            ]
        """
        untagged = """
            def ladder_energy():
                return 1.0
        """
        findings = run_lint(
            str(tmp_path),
            {
                "pyproject.toml": pyproject,
                # Newly scoped module: fires.
                "src/repro/energy/grids.py": untagged,
                # Default module, dropped by the config: quiet.
                "src/repro/core/fptas.py": untagged,
            },
            rules=["UNT002"],
        )
        assert rule_ids(findings) == ["UNT002"]
        assert findings[0].path.endswith("grids.py")
