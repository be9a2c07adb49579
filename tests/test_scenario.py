"""Profile generators and scenario sets."""

import numpy as np
import pytest

from mgridopt.scenario import (ProfileError, ProfileModel, sample_profile,
                               sample_scenarioset, solar_base_curve)


def test_noiseless_solar_is_bell_in_window():
    m = ProfileModel.solar(K=24, peak_kw=6.0, window=(5, 19), cloud_sigma=0.0)
    p = sample_profile(m, seed=1)
    assert p == pytest.approx(solar_base_curve(m))
    assert np.all(p[:5] == 0.0) and np.all(p[20:] == 0.0)
    assert p[12] == pytest.approx(6.0, abs=1e-9)  # midpoint of the window
    assert p.max() <= 6.0 + 1e-12
    assert p[12] > p[6]


def test_constant_wind_without_noise():
    m = ProfileModel.wind(K=8, mean_kw=3.0, rho=0.0, sigma=0.0)
    assert sample_profile(m, seed=3) == pytest.approx(np.full(8, 3.0))


def test_solar_statistics_midday_exceeds_morning():
    m = ProfileModel.solar(K=24, peak_kw=5.0, window=(5, 20), cloud_sigma=0.4)
    samples = np.array([sample_profile(m, seed=s) for s in range(1000)])
    assert np.all(samples >= 0.0)
    assert samples[:, 12].mean() > samples[:, 8].mean()
    assert np.all(samples[:, 2] == 0.0)


def test_demand_peaks_and_clipping():
    m = ProfileModel.demand(K=24, base_kw=2.0,
                            peaks=((8, 2.0, 3.0), (19, 1.5, 4.0)), sigma=0.0)
    p = sample_profile(m)
    assert p[8] > p[13] and p[19] > p[13]
    assert np.all(p >= 0.0)
    noisy = ProfileModel.demand(K=24, base_kw=0.1, sigma=5.0)
    for s in range(50):
        assert np.all(sample_profile(noisy, seed=s) >= 0.0)


def test_profile_validation():
    with pytest.raises(ProfileError):
        ProfileModel(kind="fusion", K=4)
    with pytest.raises(ProfileError):
        ProfileModel.wind(K=4, mean_kw=-1.0)


def test_scenarioset_uniform_probabilities_and_determinism():
    models = [ProfileModel.solar(K=6, peak_kw=4.0, window=(1, 4),
                                 cloud_sigma=0.3),
              ProfileModel.wind(K=6, mean_kw=2.0, rho=0.5, sigma=0.4)]
    one = sample_scenarioset(models, R=1, K=6, critical_demands=[np.ones(6)],
                             seed=9)
    assert one.pi == pytest.approx([1.0])
    five = sample_scenarioset(models, R=5, K=6, critical_demands=[np.ones(6)],
                              seed=9)
    assert five.pi == pytest.approx(np.full(5, 0.2))
    again = sample_scenarioset(models, R=5, K=6,
                               critical_demands=[np.ones(6)], seed=9)
    for a, b in zip(five.b_r, again.b_r):
        assert a.tobytes() == b.tobytes()
    other = sample_scenarioset(models, R=5, K=6,
                               critical_demands=[np.ones(6)], seed=10)
    assert any(a.tobytes() != b.tobytes()
               for a, b in zip(five.b_r, other.b_r))

