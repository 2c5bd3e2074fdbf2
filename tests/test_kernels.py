"""The kernels: pinned float orbits, exact steps on Fractions, and the
reference checks of the helpers."""
import hashlib
from fractions import Fraction
from math import inf, isfinite
from itertools import combinations

import numpy as np
import pytest

from kovtop import flows, kernels, maps
from kovtop.core import TrajectoryRecord
from kovtop.errors import SingularStepError
from kovtop.invariants import claimed_invariants, evaluate, registry


def test_esp_kernel_against_bruteforce():
    rng = np.random.default_rng(73)
    y = rng.uniform(-1.5, 1.5, 6)
    e = kernels.esp_all(y)
    for k in range(7):
        brute = sum(np.prod([y[i] for i in c]) for c in combinations(range(6), k))
        assert abs(e[k] - brute) < 1e-12 * (1 + abs(brute))


def test_coincidence_depth():
    assert kernels._coincidence_depth(np.array([1.0, 1.0, 2.0]), False) == 0.0
    assert kernels._coincidence_depth(np.array([1.0, -1.0, 2.0]), True) == 0.0
    d = kernels._coincidence_depth(np.array([1.0, 2.0, 4.0]), False)
    assert abs(d - 1.0 / 3.0) < 1e-15


def _sha(states):
    return hashlib.sha256(states.tobytes()).hexdigest()


# sha256 of the float64 rows and the end step of each orbit.  Any change to a
# kernel's arithmetic (operation order, a summation, a rounded constant)
# changes the bits.  The orbits run from _Y with RAW_GUARDS; cosine leaves its
# real domain early.
_Y = (0.3, 0.7, 1.1, 1.6, 0.45, 1.25)

MAP_ORBITS = {
    ("gen-hk", 3, 0.05):
        ("df953c9f73139352bca648c45f28da2028cb2581373d809183a4ca1dc8005b5d", 300),
    ("gen-hk", 3, -0.2):
        ("6f5bcf8b21fac8dedb87e1f045e625a89e6db3cd818dc73c2c3ee938f92588dc", 300),
    ("gen-hk", 4, 0.05):
        ("90722bd9629cf095c253be4d0fbe8d50c1bf033a946fe94bd4594acbdc43254d", 300),
    ("gen-hk", 4, -0.2):
        ("595304d80c3eb8631d38a46f0bc9f633d72331db2845c8b4852dfabc83d669e4", 300),
    ("gen-hk", 5, 0.05):
        ("4651527d6e80f5d0c9cb35be9814a68e88aa1564625eedeee5031fc5cfa1ee78", 300),
    ("gen-hk", 5, -0.2):
        ("a3119012de103a76ec1a7abe8ce9f5737e27a045937b1bb12242a043b6d815fd", 300),
    ("gen-hk", 6, 0.05):
        ("435d6f1d42a4fb28542cda47b09b84a5bfab9a8a41d63884ce47959020da7624", 300),
    ("gen-hk", 6, -0.2):
        ("5fc31c57501553098d5dbe604b950c3e248a57245e258b38a9896300f66bf7b9", 300),
    ("alt-map", 3, 0.05):
        ("a56b1947df02119e94aa911d1caa1bfef6baea5f051d90916027115cb4adeeb3", 300),
    ("alt-map", 3, -0.2):
        ("0da7e9bb42af2d9693ac11a9ac088abdd1c54ad60f97992dd7503b29d5d2c762", 300),
    ("alt-map", 4, 0.05):
        ("7a0670d5244a4a2345f53193ed4c3ef57e98b17caf1f5af048a1298368547dbd", 300),
    ("alt-map", 4, -0.2):
        ("b7b4d37762683c01bd654e63b02983af4986098e23833817807f1f68e146e1f5", 300),
    ("alt-map", 5, 0.05):
        ("b314e7ccfb0ae194447262e6e35e9b224eb4d730c702f55a7d7d7af59e052ceb", 300),
    ("alt-map", 5, -0.2):
        ("18b931669484faea492e5d4986af5742ab46431840702815413c3efe39a73488", 300),
    ("alt-map", 6, 0.05):
        ("1370b967e72cb08f0195fcffa319fea1b679bdc7b84740c2714ae798b4556a25", 300),
    ("alt-map", 6, -0.2):
        ("d79f20fe9220b0a685d98724b3cd6c1c955b76a8010aa4f00c2df9f6966969a5", 300),
    ("euler-hk", 3, 0.05):
        ("b93a21336e3933d2597dc0089982eec062b60fe8bdce594deffdef3ad36739a7", 300),
    ("euler-hk", 3, -0.2):
        ("2771e646e2c74ea76c41c4de63863808e34a139562e2ef15a444d3211811f1ca", 300),
    ("cosine", 3, 0.05):
        ("1db8c0f05a62b3f22888a5c2fb5e88ce9b842792f6cf7a5fb703f250d3e05005", 29),
    ("cosine", 3, -0.2):
        ("8d220e18c6606cd53e8b58cd9f3522cb0b71506032e43660847818caf103bf68", 11),
    ("kov-sqrt", 3, 0.05):
        ("c973a9b3f93888b49116b4ed42ab56fe166af885928060aca95e7b65429200d5", 300),
    ("kov-sqrt", 3, -0.2):
        ("ed1273bb5c8c9382d1b95127a2036b21895203f72d9bd5a816c4be948a6d0789", 300),
    ("kov-pullback", 3, 0.05):
        ("8fa6016603750e7598549aa056b95b284463136108e38e2cc2ba6bd3e3330b66", 300),
    ("kov-pullback", 3, -0.2):
        ("e3f574d444dc6d16c27181344ec230ccde7652d15a305e5b9c301b38d0e50bdb", 300),
}


@pytest.mark.parametrize("name, n, eps", list(MAP_ORBITS))
def test_map_orbit_matches_pinned_reference(name, n, eps):
    states, end = maps.get_map(name, n).orbit(_Y[:n], eps, 300)
    assert (_sha(states), end) == MAP_ORBITS[name, n, eps]


# RK4 at dt = 0.01 for 300 steps from (0.1, 0.2, 0.3, 0.4); the gen-kov
# orbits and the quadratic field of gen-kov reach a pole first
_FLOWS = {
    "kov3": flows.kovalevskaya3,
    "euler3": flows.euler_top3,
    "gen-kov-4": lambda: flows.generalized_kovalevskaya(4),
    "gen-kov-4-alpha-1.3": lambda: flows.generalized_kovalevskaya(4, 1.3),
    "gen-euler-4": lambda: flows.generalized_euler(4),
    "quadratic-kov-4": lambda: flows.quadratic_flow(flows.kovalevskaya_field(4)),
}
FLOW_ORBITS = {
    "kov3": ("ab4b87a34b78866b7040c1fd1d3cfcc35aa9b875131c7adf1598e215823cca0b", 300),
    "euler3": ("b6f9a9fdb6e941babb6727473b5024d6aafe0f00aa63273a4b8df0e9f0da7a10", 300),
    "gen-kov-4": ("e0bd648c01de4b39ea9b0379d6d95a8e28aa168a437b8236fbb635985beabc28", 217),
    "gen-kov-4-alpha-1.3": ("ea89371464d82ddf19f1bb7942fdf91aa34c183efb213bac92ddcbf45fd82112", 157),
    "gen-euler-4": ("bef61688d883eb9bf0563529306c1aaf2d62d622905105e6f27bce343e20f89a", 300),
    "quadratic-kov-4": ("c93ba9df85469df7796fe9ed52bc933dc2fbc5598415417fdd4c956b593c2193", 217),
}


@pytest.mark.parametrize("key", list(FLOW_ORBITS))
def test_rk4_orbit_matches_pinned_reference(key):
    flow = _FLOWS[key]()
    states, end = flows.rk4_states(flow, (0.1, 0.2, 0.3, 0.4)[:flow.dim], 0.01, 300)
    assert (_sha(states), end) == FLOW_ORBITS[key]


def test_rk4_blowup_orbit_matches_pinned_reference():
    # y_i = 2/(1 - 4t) has its pole at t = 0.25; the step after step 250
    # leaves the 1e12 cap
    flow = flows.generalized_kovalevskaya(4)
    states, end = flows.rk4_states(flow, (2, 2, 2, 2), 1e-3, 1000)
    assert end == 250
    assert _sha(states) == "711bc3ab7a8cc3e992782a481e071828345e8f50e2ace2a92464c93065619ec0"


def test_scaled_quadratic_sum_skips_zero_coefficient_terms():
    # e_2..e_4 overflow while e_1 = 2 stays finite: the zero coefficients of
    # s = 1*e_1 contribute nothing, so s = 2 and y_3, y_4 stay finite
    y = [1e200, -1e200, 1.0, 1.0]
    assert flows.generalized_kovalevskaya(4).rhs(y) == [-inf, -inf, 0.0, 0.0]
    # a custom s = e_1 + 0.5*e_2 at a state where e_3 and e_4 overflow
    y = [1e150, -1e150, 1e10, 1.0]
    e = kernels.esp_all(y)
    s = e[1] + 0.5 * e[2]
    assert isfinite(s) and not isfinite(e[3] + e[4])
    out = flows.generalized_kovalevskaya(4, 2.0, [1.0, 0.5, 0.0, 0.0]).rhs(y)
    assert out == [-inf, inf, -inf, s - 2.0]


def test_rk4_orbit_is_finite_where_only_a_zero_coefficient_overflows():
    # N = 50 coordinates near 2e6: e_50 overflows, s = e_1 ~ 1e8 does not,
    # and every coordinate is far below BLOWUP_CAP
    y0 = [2e6 * (1 + 0.001 * i) for i in range(50)]
    states, end = flows.rk4_states(flows.generalized_kovalevskaya(50), y0,
                                   1e-12, 3)
    assert end == 3 and np.isfinite(states).all()


def test_trajectory_serialization_matches_pinned_bytes():
    flow = flows.kovalevskaya3()
    states, end = flows.rk4_states(flow, (0.1, 0.2, 0.3), 0.01, 20)
    invs = claimed_invariants(flow, registry(3, 2.0))
    rec = TrajectoryRecord(
        system=flow.name, times=0.01 * np.arange(end + 1), states=states,
        invariant_names=[v.name for v in invs],
        invariants=np.stack([v.values(states, 0.0) for v in invs], axis=1))
    assert len(invs) == 5
    assert hashlib.sha256(rec.to_csv().encode()).hexdigest() == \
        "f8edea8bc1c357e1f825279a0c1e07a7dc8ee7ecead60da36b9f85895d7587fa"
    assert hashlib.sha256(rec.to_json().encode()).hexdigest() == \
        "a2061d572c5bc97a5f77f93247050acba812093ec1cbfb21bfaabb12c6ffd958"


# cosine takes square roots and has no exact step
EXACT_MAPS = ([("gen-hk", n) for n in range(3, 7)]
              + [("alt-map", n) for n in range(3, 7)]
              + [("euler-hk", 3), ("kov-sqrt", 3), ("kov-pullback", 3)])


def _rational_start(n, seed):
    # dyadic coordinates in [0.1, 2] are exact doubles, so the float step
    # below starts from the same point
    rng = np.random.default_rng(seed)
    while True:
        k = rng.integers(103, 2048, n)
        if len(set(k.tolist())) == n:
            return [Fraction(int(v), 1024) for v in k]


#: the claimed families conserved only through their squares: on an orbit
#: they leave their real domain and come back with the opposite sign
ROOT_FAMILIES = ("genhk4-phi", "altmap4-phi")


@pytest.mark.parametrize("name, n", EXACT_MAPS)
def test_map_step_is_exact_on_fractions(name, n):
    # one exact step conserves every rational family the map claims, through
    # `evaluate` on object stacks
    m = maps.get_map(name, n)
    eps = Fraction(1, 64)
    invs = [v for v in claimed_invariants(m, registry(n))
            if v.family not in ROOT_FAMILIES]
    assert invs
    for seed in range(3):
        y = _rational_start(n, seed)
        ynew, reg = kernels.map_step(m.kernel, y, eps)
        assert all(type(v) is Fraction for v in ynew) and type(reg) is Fraction
        fl, _ = kernels.map_step(m.kernel, [float(v) for v in y], float(eps))
        for exact, approx in zip(ynew, fl):
            assert abs(approx - float(exact)) <= 1e-14 * abs(float(exact))
        before = evaluate(invs, np.array([y], dtype=object), eps)[0][:, 0]
        after = evaluate(invs, np.array([ynew], dtype=object), eps)[0][:, 0]
        for inv, b, a in zip(invs, before, after):
            assert type(b) is Fraction and a == b, inv.name


@pytest.mark.parametrize("name, y0", [("gen-hk", [0.0, 0.0, 0.0, 1.0]),
                                      ("alt-map", [-1.0, 0.5, 0.3])])
def test_zero_denominator_is_a_non_finite_step(name, y0):
    # eps = 1 zeroes d_1 of gen-hk and 1 + eps*y_1 of alt-map exactly
    m = maps.get_map(name, len(y0))
    for y, eps in ((y0, 1.0), ([Fraction(v) for v in y0], Fraction(1))):
        out, reg = kernels.map_step(m.kernel, y, eps)
        assert reg == 0 and all(v != v for v in out)
    with pytest.raises(SingularStepError), np.errstate(all="ignore"):
        m.step(y0, 1.0)
    states, end = m.orbit(y0, 1.0, 3)
    assert end == 0 and states.tolist() == [y0]
