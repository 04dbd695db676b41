"""Integration tests for the experiment harnesses at tiny scale.

These validate that every table/figure harness runs end to end, returns
well-formed rows/series, and renders — the paper-shape assertions live in
the benchmark suite, which runs at a larger scale.
"""

import numpy as np
import pytest

from repro.datasets.registry import clear_cache
from repro.experiments import (
    TEST_CONFIG,
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    format_table1,
    format_table2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig7,
    run_table1,
    run_table2,
)
from repro.experiments.fig3 import GRID, mean_probability_by_method
from repro.experiments.fig5 import Fig5Bucket, large_spheres_are_cheaper
from repro.experiments.fig6 import run_fig6_single
from repro.experiments.fig8 import run_fig8_single


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestTable1:
    def test_rows_and_rendering(self):
        rows = run_table1(TEST_CONFIG)
        assert len(rows) == 6
        assert {r.dataset for r in rows} == {
            "Digg", "Flixster", "Twitter", "NetHEPT", "Epinions", "Slashdot"
        }
        out = format_table1(rows)
        assert "Digg" in out and "|V|" in out


class TestFig3:
    def test_curves(self):
        curves = run_fig3(TEST_CONFIG)
        assert len(curves) == 9
        for c in curves:
            assert c.cdf.shape == GRID.shape
            assert np.all(np.diff(c.cdf) >= 0)  # CDFs are nondecreasing
            assert c.cdf[-1] == pytest.approx(1.0)
        assert "Saito" in format_fig3(curves)

    def test_method_means(self):
        means = mean_probability_by_method(run_fig3(TEST_CONFIG))
        assert set(means) == {"Saito", "Goyal", "WC"}


class TestTable2:
    def test_rows(self):
        rows = run_table2(TEST_CONFIG, settings=("Digg-S", "NetHEPT-W"), max_nodes=20)
        assert len(rows) == 2
        for r in rows:
            assert r.avg_size >= 1.0
            assert r.max_size >= r.avg_size
            assert 0.0 <= r.avg_cost <= 1.0
        assert "avg(|C*|)" in format_table2(rows)


class TestFig4:
    def test_timings_positive(self):
        rows = run_fig4(TEST_CONFIG, settings=("Digg-S",), max_nodes=15)
        assert len(rows) == 1
        r = rows[0]
        assert 0 < r.median_time_p50 <= r.median_time_max
        assert 0 < r.cost_time_p50 <= r.cost_time_max
        assert "p90" in format_fig4(rows)


class TestFig5:
    def test_buckets_cover_all_nodes(self):
        buckets = run_fig5(TEST_CONFIG, settings=("NetHEPT-W",), max_nodes=30)
        assert sum(b.count for b in buckets) == 30
        for b in buckets:
            assert b.size_lo < b.size_hi
            assert 0.0 <= b.mean_cost <= b.max_cost <= 1.0
        assert "size in" in format_fig5(buckets)
        assert "NetHEPT-W: large spheres are cheaper" in format_fig5(buckets)


def _buckets(setting, *rows):
    return [
        Fig5Bucket(setting, lo, 2 * lo, 10, mean, mean) for lo, mean in rows
    ]


class TestLargeSpheresAreCheaper:
    def test_holds_when_the_largest_bucket_is_cheapest(self):
        buckets = _buckets("A", (1, 0.05), (2, 0.40), (4, 0.30), (8, 0.20))
        assert large_spheres_are_cheaper(buckets, "A")
        assert "A: large spheres are cheaper — holds" in format_fig5(buckets)

    def test_fails_when_the_largest_bucket_costs_more(self):
        # The Digg-S shape at scale 0.5: 0.182 -> 0.304 past size 1.
        buckets = _buckets("A", (1, 0.05), (2, 0.182), (4, 0.304))
        assert not large_spheres_are_cheaper(buckets, "A")
        assert "A: large spheres are cheaper — fails" in format_fig5(buckets)

    def test_fewer_than_two_buckets_is_vacuous(self):
        buckets = _buckets("A", (1, 0.05), (256, 0.9)) + _buckets("B", (2, 0.1))
        assert large_spheres_are_cheaper(buckets, "A")
        assert large_spheres_are_cheaper(buckets, "B")
        assert large_spheres_are_cheaper(buckets, "missing")
        text = format_fig5(buckets)
        assert text.count("vacuously") == 2


class TestFig6:
    def test_single_setting(self):
        result = run_fig6_single("NetHEPT-W", TEST_CONFIG)
        assert result.k == TEST_CONFIG.k
        assert result.spread_std.shape == (result.k,)
        assert np.all(np.diff(result.spread_std) >= -1e-9)
        assert np.all(np.diff(result.spread_tc) >= -1e-9)
        assert len(result.seeds_std) == result.k
        assert len(set(result.seeds_tc)) == result.k
        assert "InfMax_std" in format_fig6([result])

    def test_crossover_detection(self):
        from repro.experiments.fig6 import _find_crossover

        std = np.array([5.0, 6.0, 7.0, 8.0])
        tc = np.array([4.0, 5.5, 7.5, 9.0])
        assert _find_crossover(std, tc) == 3
        assert _find_crossover(std, np.array([1.0, 2, 3, 4])) is None
        assert _find_crossover(std, std) == 1


class TestFig7:
    def test_curves(self):
        results = run_fig7(
            TEST_CONFIG,
            settings=("NetHEPT-F",),
            first_iteration=1,
            num_iterations=3,
        )
        r = results[0]
        assert r.std_curve.method == "InfMax_std"
        assert np.all((r.std_curve.ratios >= 0) & (r.std_curve.ratios <= 1))
        assert "marginal gain" in format_fig7(results)


class TestFig8:
    def test_single_setting(self):
        result = run_fig8_single("NetHEPT-W", TEST_CONFIG, num_checkpoints=3)
        assert len(result.checkpoints) <= 3
        assert np.all((result.cost_std >= 0) & (result.cost_std <= 1))
        assert np.all((result.cost_tc >= 0) & (result.cost_tc <= 1))
        assert 0.0 <= result.tc_more_stable_fraction <= 1.0
        assert "stability" in format_fig8([result])
