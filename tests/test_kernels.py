"""The kernels: pinned float orbits, exact steps on Fractions, and the
reference checks of the helpers."""
import hashlib
from fractions import Fraction
from math import inf, isfinite
from itertools import combinations

import numpy as np
import pytest

from conftest import fresh_map, loop_constants
from kovtop import flows, kernels, maps
from kovtop.core import TrajectoryRecord
from kovtop.errors import SingularStepError
from kovtop.invariants import (claimed_invariants, evaluate, random_starts,
                               registry)


def test_esp_kernel_against_bruteforce():
    rng = np.random.default_rng(73)
    y = rng.uniform(-1.5, 1.5, 6)
    e = kernels.esp_all(y)
    for k in range(7):
        brute = sum(np.prod([y[i] for i in c]) for c in combinations(range(6), k))
        assert abs(e[k] - brute) < 1e-12 * (1 + abs(brute))




def _sha(states):
    return hashlib.sha256(states.tobytes()).hexdigest()


# sha256 of the float64 rows and the end step of each orbit.  Any change to a
# kernel's arithmetic (operation order, a summation, a rounded constant)
# changes the bits.  The orbits run raw from _Y; cosine leaves its real
# domain early.
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
    states, end, _ = maps.get_map(name, n).orbit(_Y[:n], eps, 300)
    assert (_sha(states), end) == MAP_ORBITS[name, n, eps]


# The same for guarded orbits over whole windows: 10000 steps at eps 0.01
# from `random_starts(5, N, seed)` at seeds 1 and 2, one sha256 over the ten
# orbits' rows and the tuple of their end steps per (map, N, guards).  Every
# guard and the stop step it picks are in the bits.
# The other guard sets are tracked orbits of a loop bound at other constants
# than `kernels`' own: without the resolution test (bound inf), and also
# with the coincidence test at the least positive depth.
GUARD_SETS = {"tracking": {},
              "strain-coincidence": {"RESOLUTION_BOUND": inf},
              "strain": {"RESOLUTION_BOUND": inf, "COINCIDENCE_DEPTH": 5e-324}}

GUARDED_ORBITS = {
    ("euler-hk", 3, "tracking"):
        ("a9b3964d3da43d08b1d15345649b333a15edba63e7c2bc3342d1cf7adb301db0",
         (43, 41, 38, 52, 48, 50, 48, 116, 50, 44)),
    ("euler-hk", 3, "strain-coincidence"):
        ("92bb6c492163220bb5103c48275f6f3bd85d0170f44ae7aadb478402a558ebe5",
         (381, 1621, 6019, 56, 50, 250, 4890, 753, 1233, 46)),
    ("euler-hk", 3, "strain"):
        ("bdb9870db24893694abfd99710e01bdc8b1d9683982a69aec1cfd17653d494ce",
         (381, 1623, 6021, 56, 50, 1641, 4890, 755, 1235, 1258)),
    ("cosine", 3, "tracking"):
        ("fcd00ea000da6f4234f01518cd062f2664d8c764f713345861a051b4cd0a2a05",
         (87, 82, 76, 105, 96, 100, 97, 232, 100, 89)),
    ("cosine", 3, "strain-coincidence"):
        ("05d7b254c743ffcbdf011d65969569c9f70a7cfbe72524ee514654106668cbdb",
         (92, 87, 81, 110, 100, 104, 102, 237, 105, 92)),
    ("cosine", 3, "strain"):
        ("a0ba0f86dc4ce0dbeef8e74d007cabd8cf11f4182947b5c0da516e8c066f149b",
         (92, 87, 81, 110, 102, 105, 102, 237, 105, 94)),
    ("kov-sqrt", 3, "tracking"):
        ("6c0a7b7b1aa58d4553ebe7166f83bfaf1ab6902dea4df3225db8cdc3e648ea0b",
         (99, 87, 78, 135, 101, 107, 113, 247, 109, 90)),
    ("kov-sqrt", 3, "strain-coincidence"):
        ("1afd02b766f8ae223c1f7eff6f28625b4743365a9dd7f3851e22e8122c5c3e91",
         (3662, 2441, 4339, 139, 501, 308, 1084, 252, 1172, 93)),
    ("kov-sqrt", 3, "strain"):
        ("a0d7181cd5de1c845d87492f8e06365dfe439872f0593cfa97a7a5824456a7e3",
         (3841, 10000, 10000, 382, 10000, 308, 1085, 10000, 1702, 337)),
    ("kov-pullback", 3, "tracking"):
        ("3619d7275563c368eebb44e9f5157b87fe6fc8ff66e28467d26ca51998073fb6",
         (49, 43, 39, 67, 50, 53, 56, 123, 54, 45)),
    ("kov-pullback", 3, "strain-coincidence"):
        ("d0a8a6034fc00c75ee93cc830013544878c94c82088782bffd0780c38efe9010",
         (1920, 1220, 1784, 69, 250, 1036, 542, 1183, 849, 46)),
    ("kov-pullback", 3, "strain"):
        ("092987161d11ee7ad00c7fbb185a023b5cbcf92fdd1a6683932ab8fd471d2cbe",
         (1920, 1222, 1784, 2008, 252, 1038, 542, 1714, 851, 168)),
    ("gen-hk", 3, "tracking"):
        ("acd1c943170ad509d4692713066d473886955643fda46cf85c197f51e826f44b",
         (49, 43, 39, 67, 50, 53, 56, 123, 54, 45)),
    ("gen-hk", 3, "strain-coincidence"):
        ("ee83191103d0db9b23bd9abf7a92e0e0dee5c461ffb4b9bd3fc9412dffed1945",
         (1297, 3235, 2169, 69, 250, 153, 1267, 1183, 849, 46)),
    ("gen-hk", 3, "strain"):
        ("76ff2d65cb53d38c0ea6427ed9fe9b0f00e9dffbb2829c6cf65d33e671d6bd5a",
         (1297, 3235, 2171, 190, 4213, 153, 3807, 4093, 2436, 168)),
    ("gen-hk", 4, "tracking"):
        ("6459cfb6db3107f59edee32856d762402c2e474d6298ba7157fb450a1b1c9f71",
         (23, 28, 25, 43, 19, 34, 33, 29, 21, 22)),
    ("gen-hk", 4, "strain-coincidence"):
        ("f5a8d7ca12db18101769c174e8c7127e3d7ddd6e2d161e7b5e68c8071a8c358a",
         (5128, 2180, 922, 1809, 3457, 1260, 1993, 623, 1631, 1941)),
    ("gen-hk", 4, "strain"):
        ("f5a8d7ca12db18101769c174e8c7127e3d7ddd6e2d161e7b5e68c8071a8c358a",
         (5128, 2180, 922, 1809, 3457, 1260, 1993, 623, 1631, 1941)),
    ("gen-hk", 5, "tracking"):
        ("2bbe8e7a4871600bd30cc94fa6cd64310c256cbbef970227f0c243c12c0a4e69",
         (18, 14, 25, 11, 15, 19, 22, 17, 13, 13)),
    ("gen-hk", 5, "strain-coincidence"):
        ("b41d84a0b327920fd4af81c0176de1d62828717b00751a8a3059db42b9882dc2",
         (2859, 31, 3647, 219, 16, 10000, 2136, 10000, 8977, 760)),
    ("gen-hk", 5, "strain"):
        ("b41d84a0b327920fd4af81c0176de1d62828717b00751a8a3059db42b9882dc2",
         (2859, 31, 3647, 219, 16, 10000, 2136, 10000, 8977, 760)),
    ("gen-hk", 6, "tracking"):
        ("d59425e796837593db31c1a8fdb66395e48db1cf33644c852f5360e97c0ef3ca",
         (11, 14, 12, 9, 9, 12, 18, 9, 11, 14)),
    ("gen-hk", 6, "strain-coincidence"):
        ("ae9e78236ebcd1d5baf95a70ba9ff7bb658b04fbf84f70a8c829b154a21a7f30",
         (64, 10000, 10000, 10000, 726, 10000, 10000, 10000, 10000, 3466)),
    ("gen-hk", 6, "strain"):
        ("ae9e78236ebcd1d5baf95a70ba9ff7bb658b04fbf84f70a8c829b154a21a7f30",
         (64, 10000, 10000, 10000, 726, 10000, 10000, 10000, 10000, 3466)),
    ("alt-map", 3, "tracking"):
        ("d3e0f54f8f6db4493967f7adb6ce1999a884d0b8de95ba36dda7924b7e910b5a",
         (99, 87, 78, 135, 101, 107, 113, 247, 109, 90)),
    ("alt-map", 3, "strain-coincidence"):
        ("c981e2ecb2c0d0462d1efe04665129791485842359989cda30c96a82433d8a9f",
         (3662, 2441, 4339, 139, 501, 308, 1084, 252, 1172, 93)),
    ("alt-map", 3, "strain"):
        ("5b945a740684252d18e9473eaef4fb42ea6b282b1462bb6c2087b9effd073f41",
         (3841, 3785, 4340, 382, 10000, 308, 1085, 10000, 1700, 337)),
    ("alt-map", 4, "tracking"):
        ("f35dbb5e5530f54f21230e5a4664f354195d26db1564897f04c0e68dc9eefbd2",
         (47, 56, 50, 87, 38, 69, 67, 58, 42, 44)),
    ("alt-map", 4, "strain-coincidence"):
        ("e807f65b0f7d628d3fa94c14312bcc46d46378ed7f10bc8021b17a2225c72464",
         (5468, 2571, 1353, 4561, 1107, 3406, 7773, 779, 44, 3291)),
    ("alt-map", 4, "strain"):
        ("08c99e0dae2df6b539d5187ae1b2c72d1207a9f96697eda633708b746593a220",
         (5468, 2571, 1353, 4561, 1107, 3406, 7775, 779, 44, 3291)),
    ("alt-map", 5, "tracking"):
        ("c3ef8d2635519140e86007e4d99d998269026e2b3c2acf7c67c1d1601a2de999",
         (37, 28, 51, 22, 30, 39, 44, 34, 27, 27)),
    ("alt-map", 5, "strain-coincidence"):
        ("ce7b71a5224378fedc230e63a1fde29e258344cc30352782d62ee3eb3bd3bb0c",
         (10000, 10000, 998, 4805, 10000, 10000, 10000, 259, 105, 9440)),
    ("alt-map", 5, "strain"):
        ("ce7b71a5224378fedc230e63a1fde29e258344cc30352782d62ee3eb3bd3bb0c",
         (10000, 10000, 998, 4805, 10000, 10000, 10000, 259, 105, 9440)),
    ("alt-map", 6, "tracking"):
        ("7b10176fb8ee478e25437118813916d649d5087b3d05f26b973f1cd5e9c983e1",
         (23, 28, 24, 19, 19, 25, 37, 18, 22, 28)),
    ("alt-map", 6, "strain-coincidence"):
        ("79b3867cc69ec71a714538f6bf51595b8ea7068d854e3c34a37ef2235c9335cf",
         (2394, 3902, 10000, 10000, 10000, 4854, 10000, 10000, 10000, 84)),
    ("alt-map", 6, "strain"):
        ("79b3867cc69ec71a714538f6bf51595b8ea7068d854e3c34a37ef2235c9335cf",
         (2394, 3902, 10000, 10000, 10000, 4854, 10000, 10000, 10000, 84)),
}


@pytest.mark.parametrize("name, n, guards", list(GUARDED_ORBITS))
def test_guarded_orbit_matches_pinned_reference(name, n, guards):
    with loop_constants(**GUARD_SETS[guards]):
        m = fresh_map(name, n)
    h = hashlib.sha256()
    ends = []
    for seed in (1, 2):
        for y0 in random_starts(5, n, seed):
            states, end, _ = m.orbit(y0, 0.01, 10000, True)
            h.update(states.tobytes())
            ends.append(end)
    assert (h.hexdigest(), tuple(ends)) == GUARDED_ORBITS[name, n, guards]


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
    states, end, _ = flows.rk4_states(flow, (0.1, 0.2, 0.3, 0.4)[:flow.dim], 0.01, 300)
    assert (_sha(states), end) == FLOW_ORBITS[key]


def test_rk4_blowup_orbit_matches_pinned_reference():
    # y_i = 2/(1 - 4t) has its pole at t = 0.25; the step after step 250
    # leaves the 1e12 cap
    flow = flows.generalized_kovalevskaya(4)
    states, end, _ = flows.rk4_states(flow, (2, 2, 2, 2), 1e-3, 1000)
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
    states, end, _ = flows.rk4_states(flows.generalized_kovalevskaya(50), y0,
                                   1e-12, 3)
    assert end == 3 and np.isfinite(states).all()


def test_trajectory_serialization_matches_pinned_bytes():
    flow = flows.kovalevskaya3()
    states, end, _ = flows.rk4_states(flow, (0.1, 0.2, 0.3), 0.01, 20)
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


# Every cross-ratio claim rests on one exact form: in U_i = 1/y_i,
# H_ij = U_j - U_i, so a step with U' = a*U + b*(1, ..., 1) (a and b scalars
# of the state) multiplies every H_ij by a and keeps each ratio, and a field
# with dU/dt = c*U + d*(1, ..., 1) does the same for the flow.

def _affine_fit_residual(U, V):
    # a and b fitted from the first two coordinates; the largest
    # |V_i - (a*U_i + b)| over them all
    a = (V[1] - V[0]) / (U[1] - U[0])
    b = V[0] - a * U[0]
    return max(abs(v - (a * u + b)) for u, v in zip(U, V))


def _nudged(values):
    # the last coordinate moved by 2^-40
    return values[:-1] + [values[-1] + Fraction(1, 2**40)]


@pytest.mark.parametrize("name, n", [(name, n) for name in ("gen-hk", "alt-map")
                                     for n in (3, 4, 5, 6, 8, 12)]
                         + [("kov-sqrt", 3), ("kov-pullback", 3)])
def test_an_exact_step_is_affine_in_one_over_y(name, n):
    m = maps.get_map(name, n)
    eps = Fraction(1, 64)
    for seed in range(3):
        y = _rational_start(n, seed)
        ynew, _ = kernels.map_step(m.kernel, y, eps)
        assert all(type(v) is Fraction for v in ynew)
        U = [1 / v for v in y]
        assert _affine_fit_residual(U, [1 / v for v in ynew]) == 0
        assert _affine_fit_residual(U, [1 / v for v in _nudged(ynew)]) != 0


@pytest.mark.parametrize("n, alpha", [(n, alpha) for n in (3, 4, 5, 8)
                                      for alpha in (2.0, 3.0) if alpha != n])
def test_the_gen_kov_field_is_affine_in_one_over_y(n, alpha):
    # y_i' = y_i(s - alpha*y_i) gives U_i' = alpha - s*U_i, s = e_1(y)
    rhs = flows.generalized_kovalevskaya(n, alpha).rhs
    # its RK4 orbit stays exact too
    rows, _, _ = kernels.rk4_orbit(rhs.orbit, _rational_start(n, 0),
                                   Fraction(1, 64), 1)
    assert all(type(v) is Fraction for v in rows.ravel())
    for seed in range(3):
        y = _rational_start(n, seed)
        dy = rhs(y)
        assert all(type(v) is Fraction for v in dy)
        U = [1 / v for v in y]
        dU = [-d / (v * v) for d, v in zip(dy, y)]
        assert dU == [Fraction(alpha) - sum(y) * u for u in U]
        assert _affine_fit_residual(U, dU) == 0
        assert _affine_fit_residual(
            U, [-d / (v * v) for d, v in zip(_nudged(dy), y)]) != 0


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
    states, end, _ = m.orbit(y0, 1.0, 3)
    assert end == 0 and states.tolist() == [y0]
