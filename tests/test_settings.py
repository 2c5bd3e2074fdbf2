"""Fixed thresholds of the library, and the library's rejection of step
counts that are not finite."""
import numpy as np
import pytest

from kovtop import core, invariants, kernels, numdiff
from kovtop.errors import ParameterError
from kovtop.flows import integrate_reference, kovalevskaya3
from kovtop.invariants import convergence_study, random_starts
from kovtop.maps import euler_hk, gen_hk


def test_fixed_thresholds():
    assert numdiff.DEFAULT_SCALE == 1e-6
    assert invariants.RANK_RTOL == 1e-8
    assert invariants.DEFECT_FLOOR == 1e-14
    assert core.PAINLEVE_RTOL == 1e-12
    assert kernels.BLOWUP_CAP == 1e12


def test_random_starts_stay_in_the_start_box():
    Y = random_starts(200, 5, seed=3)
    assert Y.shape == (200, 5)
    assert Y.min() >= 0.1 and Y.max() < 2.0


def test_map_orbit_stops_past_the_blowup_cap():
    # on the diagonal gen-hk N=3 is y -> y/(1 - 2 eps y), with its pole at
    # y = 1/(2 eps)
    y0 = 0.5 / 0.1 * (1 - 1e-13)
    traj, end, _ = gen_hk(3).orbit([y0] * 3, 0.1, 5)
    assert end == 0 and traj.shape == (1, 3)
    assert abs(gen_hk(3).step([y0] * 3, 0.1)[0]) > kernels.BLOWUP_CAP


@pytest.mark.parametrize("dt_ref, eps_list, message", [
    (0.0, [0.01, 0.005], "dt_ref=0.0 must be positive"),
    (-1e-4, [0.01, 0.005], "dt_ref=-0.0001 must be positive"),
    (1e-320, [0.01, 0.005], "dt_ref=1e-320 must be positive, with a finite"),
    (float("nan"), [0.01], "dt_ref=nan must be positive"),
    (1e-4, [1e-320], "eps=1e-320 does not tile total time 0.2"),
    (1e-4, [0.0], "eps=0.0 does not tile total time 0.2"),
    (1e-4, [0.01, 0.01], "eps_list must be strictly decreasing"),
    (1e-4, [0.005, 0.01], "eps_list must be strictly decreasing"),
])
def test_convergence_study_rejects_meaningless_settings(dt_ref, eps_list,
                                                        message):
    with pytest.raises(ParameterError, match=message):
        convergence_study(euler_hk(), [0.3, 0.4, 0.5], 0.2, eps_list, dt_ref)


@pytest.mark.parametrize("t_end, dt", [
    (1.0, 1e-320), (float("nan"), 0.1), (float("inf"), 0.1),
    (1.0, float("nan"))])
def test_reference_needs_a_finite_step_count(t_end, dt):
    with pytest.raises(ParameterError, match="must be finite"):
        integrate_reference(kovalevskaya3(), np.array([0.1, 0.2, 0.3]),
                            t_end, dt)
