import numpy as np
import pytest

from feddymem import privacy
from feddymem.client import memory_reduce
from feddymem.errors import NumericError
from feddymem.numerics import Rng
from feddymem.privacy import (
    AuditConfig,
    audit_reduction,
    gaussian_mi,
    lemma1_bound,
    pearson,
)


class TestPearson:
    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_sum_oracle(self):
        r = Rng(4)
        x = r.child(1).normal((50,)).astype(np.float64)
        y = r.child(2).normal((50,)).astype(np.float64)
        xm, ym = x - x.mean(), y - y.mean()
        oracle = (xm * ym).sum() / np.sqrt((xm ** 2).sum() * (ym ** 2).sum())
        assert pearson(x, y) == pytest.approx(oracle, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericError):
            pearson(np.ones(5), np.arange(5.0))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))


class TestGaussianMi:
    def test_zero_correlation_zero_information(self):
        assert gaussian_mi(0.0) == 0.0

    def test_closed_form(self):
        assert gaussian_mi(0.6) == pytest.approx(-0.5 * np.log(0.64), rel=1e-12)
        assert gaussian_mi(0.6) == pytest.approx(0.22314, abs=1e-5)

    def test_monotone_in_abs_rho(self):
        assert gaussian_mi(0.3) < gaussian_mi(0.9)
        assert gaussian_mi(-0.5) == gaussian_mi(0.5)

    def test_unit_correlation_rejected(self):
        with pytest.raises(NumericError):
            gaussian_mi(1.0)


class TestLemma1Bound:
    def test_equal_halves(self):
        f = lemma1_bound(np.array([0.5, 0.5]), np.array([2.0, 2.0]), 0)
        assert f == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_single_component_no_reduction(self):
        assert lemma1_bound(np.array([1.0]), np.array([3.0]), 0) == pytest.approx(1.0)

    def test_uniform_scaling_is_inverse_sqrt_d(self):
        for d in (10, 100, 1000):
            f = lemma1_bound(np.full(d, 1.0 / d), np.ones(d), 0)
            assert f == pytest.approx(1.0 / np.sqrt(d), rel=1e-9)

    def test_matches_high_precision_recompute(self):
        r = Rng(8)
        for i in range(20):
            d = int(r.child(i, 1).integers(2, 30))
            w = r.child(i, 2).generator.dirichlet(np.ones(d))
            s = r.child(i, 3).generator.uniform(0.5, 3.0, d)
            got = lemma1_bound(w, s, 0)
            import decimal
            decimal.getcontext().prec = 50
            num = decimal.Decimal(float(w[0])) * decimal.Decimal(float(s[0]))
            den = sum((decimal.Decimal(float(wi)) * decimal.Decimal(float(si))) ** 2
                      for wi, si in zip(w, s)).sqrt()
            assert got == pytest.approx(float(num / den), rel=1e-12)

    def test_constraint_violations(self):
        with pytest.raises(ValueError):
            lemma1_bound(np.array([0.7, 0.7]), np.ones(2), 0)
        with pytest.raises(ValueError):
            lemma1_bound(np.array([-0.5, 1.5]), np.ones(2), 0)
        with pytest.raises(ValueError):
            lemma1_bound(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0)


class TestUniformReduce:
    def test_running_sum_equals_memory_reduce(self):
        # the audit sums one row of trials at a time; memory_reduce takes the
        # mean over the whole float64 stack in one product
        for d, n in ((1, 5), (2, 7), (7, 33), (50, 129), (300, 16)):
            gen = Rng(d).generator
            rows = gen.standard_normal((d, n)) * 10.0 ** gen.uniform(-4, 4, (d, n))
            stack = rows.astype(np.float32).reshape(d, n, 1, 1)
            want = memory_reduce(stack, None, 0).data.reshape(n)
            got = privacy._uniform_reduce(iter(rows), n)
            assert got.dtype == want.dtype and (got == want).all(), (d, n)


class TestAuditReduction:
    @pytest.fixture(scope="class")
    def report(self):
        cfg = AuditConfig(mc_samples=20_000, dataset_sizes=(10, 100, 1000),
                          lemma_configs=30, lemma_mc_samples=10_000, seed=5)
        return audit_reduction(cfg)

    def test_bound_holds_on_sweep(self, report):
        assert all(p.bound_holds for p in report.sweep)

    def test_mi_ratio_strictly_decreasing(self, report):
        ratios = [p.mi_ratio for p in report.sweep]
        assert ratios == sorted(ratios, reverse=True)
        assert report.mi_ratios_strictly_decreasing

    def test_dpi_ordering(self, report):
        assert report.dpi_ordering_holds
        for p in report.sweep:
            assert p.mi_reduced < p.mi_direct

    def test_reduction_factor_tracks_inverse_sqrt_d(self, report):
        for p in report.sweep:
            assert p.bound_factor == pytest.approx(1.0 / np.sqrt(p.dataset_size), rel=1e-9)

    def test_leakage_slope_negative(self, report):
        assert report.leakage_slope < 0

    def test_no_lemma_violations(self, report):
        assert report.lemma_violations == 0

    def test_status_ok(self, report):
        assert report.status == "ok"

    def test_json_roundtrip(self, report, tmp_path):
        import json
        report.write(tmp_path / "audit.json")
        doc = json.loads((tmp_path / "audit.json").read_text())
        assert doc["status"] == "ok"
        assert len(doc["sweep"]) == 3
        assert doc["lemma_violations"] == 0

    def test_single_memory_no_reduction(self):
        cfg = AuditConfig(mc_samples=10_000, dataset_sizes=(1,), lemma_configs=1,
                          lemma_mc_samples=10_000, seed=2)
        report = audit_reduction(cfg)
        assert report.sweep[0].bound_factor == pytest.approx(1.0)
        assert report.sweep[0].rho_reduced == pytest.approx(report.sweep[0].rho_direct,
                                                            rel=1e-9)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError):
            AuditConfig(mc_samples=100)
