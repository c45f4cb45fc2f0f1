"""Approximation extensions: degenerate exactness + estimator sanity."""
from __future__ import annotations

import numpy as np
import pytest

from repro.approx.sampling import approx_tbc_local, mape, sample_edges_pdf
from repro.approx.sgrapp import fit_thetas, sgrapp_tbc, split_windows
from repro.core.optimized import count_local
from repro.core.schema import days
from repro.synth_data import temporal_bipartite_pdf


def _graph(seed=0, n=1500):
    return temporal_bipartite_pdf(
        n_upper=25, n_lower=35, n_edges=n, span_days=60.0,
        follow_frac=0.4, gap_days=1.0, seed=seed,
    )


DELTA = days(10)


class TestSampling:
    def test_p_one_is_exact(self):
        pdf = _graph()
        exact = count_local(pdf, DELTA)
        est = approx_tbc_local(pdf, DELTA, p=1.0, seed=0)
        assert (est == exact).all()

    def test_sampling_rate(self):
        pdf = _graph()
        s = sample_edges_pdf(pdf, 0.3, seed=1)
        assert 0.2 < len(s) / len(pdf) < 0.4

    def test_estimator_centers_on_truth(self):
        pdf = _graph(seed=3)
        exact = count_local(pdf, DELTA)
        assert exact.sum() > 100
        ests = [approx_tbc_local(pdf, DELTA, p=0.7, seed=s) for s in range(12)]
        mean_est = np.mean(ests, axis=0)
        rel = abs(mean_est.sum() - exact.sum()) / exact.sum()
        assert rel < 0.35, (mean_est, exact)

    def test_error_shrinks_with_p(self):
        pdf = _graph(seed=4)
        exact = count_local(pdf, DELTA)
        err = {
            p: np.mean(
                [mape(approx_tbc_local(pdf, DELTA, p=p, seed=s), exact)
                 for s in range(8)]
            )
            for p in (0.3, 0.9)
        }
        assert err[0.9] < err[0.3]

    @pytest.mark.parametrize("p", [0.0, 1.5])
    def test_p_outside_unit_interval_raises(self, p):
        pdf = _graph(seed=5, n=50)
        with pytest.raises(ValueError, match="p must be in"):
            approx_tbc_local(pdf, DELTA, p=p)


class TestMape:
    def test_zero_error(self):
        assert mape(np.array([1, 2, 3, 4, 5, 6]), np.array([1, 2, 3, 4, 5, 6])) == 0

    def test_ignores_zero_truth(self):
        assert mape(np.array([5, 1]), np.array([0, 2])) == 0.5

    def test_all_zero_truth(self):
        assert mape(np.array([5, 5]), np.array([0, 0])) == 0.0


class TestSgrapp:
    def test_single_window_is_exact(self):
        pdf = _graph(seed=6, n=600)
        exact = count_local(pdf, DELTA)
        est = sgrapp_tbc(pdf, DELTA, n_t_w=len(pdf) + 1)
        assert (est == exact).all()

    def test_windows_partition_stream(self):
        pdf = _graph(seed=7, n=500)
        wins = split_windows(pdf, 100)
        assert sum(len(w) for w in wins) == len(pdf)
        for w in wins[:-1]:
            assert w["t"].nunique() == 100

    def test_window_boundaries_never_split_a_timestamp(self):
        pdf = _graph(seed=8, n=300)
        wins = split_windows(pdf, 37)
        seen = set()
        for w in wins:
            ts = set(w["t"])
            assert not (ts & seen)
            seen |= ts

    def test_estimate_is_window_exact_plus_power_terms(self):
        pdf = _graph(seed=9, n=400)
        wins = split_windows(pdf, 100)
        inwin = sum(count_local(w, DELTA) for w in wins)
        est = sgrapp_tbc(pdf, DELTA, 100, thetas=(1.0,) * 6)
        ec = np.cumsum([len(w) for w in wins])
        extra = float(sum(ec[1:]))  # theta=1.0 -> EC per boundary window
        assert np.allclose(est, inwin + extra)

    def test_fitted_thetas_tighten_the_estimate(self):
        pdf = _graph(seed=11, n=600)
        from repro.approx.sampling import mape as _mape
        from repro.core.optimized import count_local as _cl

        exact = _cl(pdf, DELTA)
        naive = sgrapp_tbc(pdf, DELTA, 150, thetas=(1.0,) * 6)
        fitted = sgrapp_tbc(pdf, DELTA, 150, thetas=tuple(fit_thetas(pdf, DELTA, 150)))
        assert _mape(fitted, exact) <= _mape(naive, exact)

    @pytest.mark.parametrize("n_t_w", [100, 150])
    @pytest.mark.parametrize("seed", [9, 11, 12])
    def test_fitted_thetas_reproduce_their_calibration_counts(self, seed, n_t_w):
        # Σ_{w≥2} EC_w^θ_i equals the cross-window miss for every θ_i the
        # bisection solved, so the estimate is exact on its own input
        pdf = _graph(seed=seed, n=500)
        th = fit_thetas(pdf, DELTA, n_t_w)
        inner = (th > 0.0) & (th < 2.0)
        assert inner.any(), th
        est = sgrapp_tbc(pdf, DELTA, n_t_w, th)
        np.testing.assert_allclose(est[inner], count_local(pdf, DELTA)[inner], rtol=1e-9)

    def test_fitted_thetas_within_clamp(self):
        pdf = _graph(seed=12, n=500)
        th = fit_thetas(pdf, DELTA, 120)
        assert ((th >= 0.0) & (th <= 2.0)).all()

    def test_invalid_args(self):
        pdf = _graph(seed=10, n=100)
        with pytest.raises(ValueError):
            split_windows(pdf, 0)
        with pytest.raises(ValueError):
            sgrapp_tbc(pdf, DELTA, 10, thetas=(1.0, 1.0))
        with pytest.raises(ValueError):
            split_windows(pdf.iloc[::-1].reset_index(drop=True), 10)
