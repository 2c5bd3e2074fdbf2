"""The identity battery, the R/D/d_i/S machinery and the volume densities on
Python numbers, against the numpy routines they replaced.

- `check` and `convergence` outputs are pinned by sha256, recorded when this
  code ran on float64 arrays.
- The numpy routines are kept here as references.  At N = 3..7 every value
  must have their bits (numpy's sums over at most 7 terms add in index
  order).  At N = 8 and 9 the sums take index order and may move in the last
  bits: every value must have the bits of the reference with its sums taken
  in index order, and each value that is not a residual must agree with the
  numpy reference to a relative tolerance fixed below.  A residual is the
  rounding noise of its terms, so two summation orders give it different
  noise.
- The rational identities hold exactly: on dyadic `Fraction` states their
  residuals are exactly 0 and stay `Fraction`s.
- A fixed eps that overflows a float aborts cleanly, and a derived step count
  above `flows.MAX_STEPS` exits 1 before any loop starts.
"""
import contextlib
import hashlib
import io
import json
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import admissible_states
from kovtop import invariants, kernels
from kovtop.cli import main
from kovtop.core import as_state
from kovtop.errors import DomainError, ParameterError
from kovtop.flows import MAX_STEPS, _steps_for, euler_field, kovalevskaya_field
from kovtop.hk_engine import BilinearStepSystem, hk_step, polarize
from kovtop.invariants import (IDENTITIES, PARTITIONS_4, convergence_study,
                               density_cross_power, density_euler_hk,
                               density_flow_power, density_kov_hk,
                               density_kov_product, identity_battery,
                               phi_alt3, phi_alt4, phi_genhk3, phi_genhk4,
                               verify_phi_functional_equation,
                               verify_poly_identity_N4, verify_relation_qq,
                               volume_check)
from kovtop.maps import (alt_map, cosine_law, d_factors, d_polynomial,
                         d_polynomial_omitting, euler_hk, gen_hk, get_map,
                         kov_pullback, kov_sqrt, r_factor, r_factor_omitting,
                         r_reciprocity_residual, s_relation_residuals)
from kovtop.numdiff import central_jacobian

#: |new - reference| <= REL_TOL * max(1, |reference|) at N = 8 and 9: the
#: sums there have up to 9 terms of magnitude up to about 20 (y in [0.1, 2],
#: eps <= 0.3), and two summation orders differ by a few units in the last
#: place of such a sum
REL_TOL = 64 * np.finfo(float).eps


def _bits(x):
    return struct.pack("<d", float(x))


def _index_sum(a):
    t = 0
    for v in np.asarray(a).tolist():
        t += v
    return t


#: the sum the references take: numpy's, or `_index_sum` inside _index_order
_REF_SUM = {"sum": np.sum}


@contextlib.contextmanager
def _index_order():
    _REF_SUM["sum"] = _index_sum
    try:
        yield
    finally:
        _REF_SUM["sum"] = np.sum


def _rsum(a):
    return _REF_SUM["sum"](a)


def _agree(new, ref, n, residual=False):
    """new against the thunk `ref` of a reference, as the module docstring
    states it."""
    if n <= 7:
        return _bits(new) == _bits(ref())
    with _index_order():
        if _bits(new) != _bits(ref()):
            return False
    r = ref()
    return residual or abs(new - r) <= REL_TOL * max(1.0, abs(r))


def _cli(argv):
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        rc = main(argv)
    return rc, so.getvalue(), se.getvalue()


# --- pins --------------------------------------------------------------------

# sha256 of stdout + stderr, CSV then JSON, of `check --trials 100` at each
# dimension 3..6 the identity allows, and of `convergence` for the three
# perfbench cases at --eps-list 0.01,0.005,0.0025,0.00125 (alt-map N=4 is the
# README example); recorded when this code ran on float64 arrays
_CHECK_SHA = {
    ("n4-poly", 4, 7): (
        "5d203af281d7c0adda6f485bc0a41daa5e8fe86b8be5c37112c482b7b45ff060",
        "d035e92fc52b38527b9248a8d59e6676a60c9e1bee034b8e082d739874ff71c5"),
    ("n4-poly", 4, 4242): (
        "a10d1905f84c4a7d990731d30adc81a2a716af635531c0044e86b5133b8e148a",
        "74cc569170a48ddab9f76bfb758bfa9d70f2ae2f694b064e69632fcb092eb596"),
    ("s-relations", 3, 7): (
        "c5b4dbd15145a1f266146039607e85af526eed03888e4d2265c9349a46c3200b",
        "294a9439f191de1cf7be6bbd18280667b073d5710b9e13116b5384bc2df94534"),
    ("s-relations", 3, 4242): (
        "c5b4dbd15145a1f266146039607e85af526eed03888e4d2265c9349a46c3200b",
        "294a9439f191de1cf7be6bbd18280667b073d5710b9e13116b5384bc2df94534"),
    ("s-relations", 4, 7): (
        "c5b4dbd15145a1f266146039607e85af526eed03888e4d2265c9349a46c3200b",
        "294a9439f191de1cf7be6bbd18280667b073d5710b9e13116b5384bc2df94534"),
    ("s-relations", 4, 4242): (
        "c5b4dbd15145a1f266146039607e85af526eed03888e4d2265c9349a46c3200b",
        "294a9439f191de1cf7be6bbd18280667b073d5710b9e13116b5384bc2df94534"),
    ("s-relations", 5, 7): (
        "004775ec34a44c32268029d6d9da9abcfb43bf7813b41f90cdb04fb0bd3e58a9",
        "7d53fe011e505e100ccd4375bef9b997c2ae37319d086fc6c18ebd66227edbe4"),
    ("s-relations", 5, 4242): (
        "84983a3737200cfcf1d9251db07910cd3dadd4c395e3e4409aa6c19e6c2b5cf5",
        "68741e09c61411af0ed4cdad6ce783f85d8f26f4268cc5d685aa7ca888cf874a"),
    ("s-relations", 6, 7): (
        "69be7b3047f12890221e3b4fe04e8214a8cd8ba7dde9ced159ae0e0416b18041",
        "ef7b92e89141b4dace1c1cb208050fc4c0670fc4f39039f61f5f8a52b4c84108"),
    ("s-relations", 6, 4242): (
        "69be7b3047f12890221e3b4fe04e8214a8cd8ba7dde9ced159ae0e0416b18041",
        "ef7b92e89141b4dace1c1cb208050fc4c0670fc4f39039f61f5f8a52b4c84108"),
    ("r-reciprocity", 3, 7): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 3, 4242): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 4, 7): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 4, 4242): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 5, 7): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 5, 4242): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 6, 7): (
        "a38713e38efcdd85ec9e5e2842af4669acfe65785b46e0bf4b496883e977672b",
        "e06d75fc60656655dbbc5412b05c0a989d424ce3a7c9dbc92dacc235fa9c7589"),
    ("r-reciprocity", 6, 4242): (
        "c714eb6bb1d4cce2722446179b8bfeaec8b9ba16f246cdea59c9072216d95f8f",
        "1536983129802d93687b3e12992b4b38cbab9763376896f3eadb325d47c5849f"),
    ("step-ratio", 3, 7): (
        "96fa6b7fda791ead5e2ead54c28f1d1cb51823d57883246ff5b128fd5244be08",
        "195e038126e9b193889db729c5aec68ebcff76f75ddcf3903f54ceb178e2dad9"),
    ("step-ratio", 3, 4242): (
        "546b97e04293d3614ddd9b53e9f089d5efadcb41b60287a18165d7e131e9a363",
        "441751781d242d940d707cd2928a0adbaa053d962be6b829b9efe3eec226657d"),
    ("step-ratio", 4, 7): (
        "3291457637081c94e9b53c973e6e7cf86ad236b0029bd8c224182d83ed4891d1",
        "ea20c98e593839642fbb025e85b3fe12921cdafb5d11d6b6e455d678a6a7f494"),
    ("step-ratio", 4, 4242): (
        "82fa82b5851a25a62e8f68527e89dc21ba185e9c53e097ec1b4c2aab8155ddcd",
        "fe5ab1cf848d037416a1d1d944c37b4d115dded75484d671d58f811dd35e95ab"),
    ("step-ratio", 5, 7): (
        "4cf9008b1bbfe67ded5babc95be203f585861997b3e58b2b52ce8d6035387b48",
        "52781a3870e6d27217aa29b3e356fa8fb76fdb65d59dda59973de317bb0fbd4e"),
    ("step-ratio", 5, 4242): (
        "8dde107a789a18203e86085f546a10a22c1f86539339bbaeb75f6385bfdf723d",
        "49d2ec629706593f09dbd82f8f68972539ba6c724bf2fb1c7ef5bdfd2e6d6afe"),
    ("step-ratio", 6, 7): (
        "6aa92729573b178f71a4a86aa9932fd5ea31bb6994dfb4dcc014e7349ead642c",
        "928aca4c719928fbc8529ed425311c76d5409d160386c927b9800bee3853a9f4"),
    ("step-ratio", 6, 4242): (
        "e2b39aba4361487e68e2a55d661520b0857c076807df6cc0f20e1e599581ef8d",
        "816e445fcb56343ad76aec2e287f6638c1e0d85d4ae32b652c2c4c5adfad65f9"),
    ("d-sum", 4, 7): (
        "2247a3c9e31e385bb780847859c2353f3315b6629a3a90eaa79c8d60ec0b948e",
        "b676e84f398293e09754d04bbe48663c8869186bf8dc93b99fc2d5abeb6565e6"),
    ("d-sum", 4, 4242): (
        "2247a3c9e31e385bb780847859c2353f3315b6629a3a90eaa79c8d60ec0b948e",
        "b676e84f398293e09754d04bbe48663c8869186bf8dc93b99fc2d5abeb6565e6"),
    ("r-product", 3, 7): (
        "05d9fe795a8875566488d7294fcb2833dcc14ced38078350efa301ccc4310a30",
        "d8fc00952a819a4cc80c3c3f25bb4fa62ca2f7e88fb55431351951b67d1ac238"),
    ("r-product", 3, 4242): (
        "05d9fe795a8875566488d7294fcb2833dcc14ced38078350efa301ccc4310a30",
        "d8fc00952a819a4cc80c3c3f25bb4fa62ca2f7e88fb55431351951b67d1ac238"),
    ("r-product", 4, 7): (
        "05d9fe795a8875566488d7294fcb2833dcc14ced38078350efa301ccc4310a30",
        "d8fc00952a819a4cc80c3c3f25bb4fa62ca2f7e88fb55431351951b67d1ac238"),
    ("r-product", 4, 4242): (
        "661f238c249f84ba7e651690b233f427a44df6364084b378efaad2d032f99c0c",
        "29e6cffde4ccc4215e4b913072d665ac3fd27534ad7b46558d387f259ebb95b2"),
    ("r-product", 5, 7): (
        "bb847af3a0d2feb60f6f7f8af8778279ad20d2b83cead78f3ca35618dd3eaf66",
        "6fa3b925e67c08c88b95e2c99595d6bb9d90ad43fd89d15ce171abc7a42365da"),
    ("r-product", 5, 4242): (
        "14b3d3c6206dbfc1cfc60e1dd0762060ec189c259644a68e78309741c8c648d2",
        "41ce3470632e1b0faa9b9bbce2f95e7d1e1b6334e43c70675a44b4c9d10db79b"),
    ("r-product", 6, 7): (
        "0c72a40301190eea20dc1af84acff88bab4335d7430cec60510077ee6ad99933",
        "3be3818820065d20809d17d8405da8cd1c23d903fff8f6b5535d78ca85f8928d"),
    ("r-product", 6, 4242): (
        "38f245e8a3b3d51f3e92b2b9dcf825d5d2f612cfeb1003b9f9e1f68a3df5c57b",
        "9f0ff1ebc92f4392de1c5a20e6fdaa78f45706229084ad22a0dc2a9e3cae5910"),
    ("phi-eq", 3, 7): (
        "792bea043c03fb8138000f27cee272d509738439827b06615864367d1d739f86",
        "4075eaa9daf65ceabe1e2c40f5b6d7c5f457a04bfc28800b7950fc7acb2cf525"),
    ("phi-eq", 3, 4242): (
        "eee26f49ca32c8ee36b4e1c7fcfc2725e4669af552fc6b22df108194a839ebc6",
        "b07ba8832bc9f304c125af86c80e4aca974a7f3df1aedc45a987fce2f587468f"),
    ("phi-eq", 4, 7): (
        "a2d2c431ce094a57c11f9583cde8080f1359660e42447dbcc95e13fbd5886afd",
        "0994de94ba8b089e9c3d9c52714d26923cd42093bee963e2696a104c63d349ab"),
    ("phi-eq", 4, 4242): (
        "4c50380e3a69ab1d92363ca83e091ea5ff2d4d92f8861821cfb046546c8b1d78",
        "56ffe8fd92c169522ca476451aee6af68a8b75b8f12728c07d972531c7603d06"),
    ("sqrt-comp", 3, 7): (
        "c1c7b0703b1f43ad7a2c7ffeca3719813d94529183ebe91c0992d2207c5a25d1",
        "6f70a0f294b2abb47a2d74347492dfd15fc0874bbc79f91aa8b39abd83fdd3fe"),
    ("sqrt-comp", 3, 4242): (
        "f5ea1ef9341a2caabcf342c9f7dc0cc64ae3f33f54309ea9d462f993a3c3b011",
        "d83247118e942e1104c2919860f08a311a4c03b257e5dc624faad9f154ddccef"),
    ("engine", 3, 7): (
        "3d3265ca871c9dc2e54c0c81ade9378db7f6efb708364b5f78edd08a1daba820",
        "610ad8970e15b688d41f9a6558e8bd55aecfd61ba32f8fb7ca9b5f9c151c6fa1"),
    ("engine", 3, 4242): (
        "a623f54339139ac2406188d6c872beadbf3d63efe86763961f929e0ddcb26068",
        "9fd2e25b5500554d0dd06c80c188be9c467a363c197eb1a611ede6f6134713d0"),
    ("engine", 4, 7): (
        "bcd1f88d9d41b1ebb1c6f6d2af4897fd84d8819cdc6e1c0ed0d040211c6d6944",
        "7ccbaaca3c6d7ff57ad1dd0fb5732ca5cf4931b489f16b2bf6014a1829cbb458"),
    ("engine", 4, 4242): (
        "d4c08a8aa60840d54e07bf901f8556b55e3ea79c2239768b8f55be8b5c9d2ad4",
        "c027109c582fc30cc2172ecf5776196e8d5178dd75c8fee835c37b9678b61c6d"),
    ("engine", 5, 7): (
        "cb4b739ce760b14f92dc157f030c08eb71d73a92cc3f04543ab839a48c07fe54",
        "1e4a26968c5039359e978f38e265ee4c09226a8b16473a6614366477c7901eb8"),
    ("engine", 5, 4242): (
        "2f2c64585be1311e4ea93d7190801e76b90c418019cce38288e4bcafab72aa1a",
        "39c82a2ed9595e6a5979485d70e74a74246b48ff29c36d131483b5a360ed7464"),
    ("engine", 6, 7): (
        "cdeb608585dea3efb9b185a286cfb7b18f71dacb2f67900ea64458cd83956fed",
        "1a7cb525e900857e23202d27e5b3ef412320dcc0162c0a5cc308eaaf5c570415"),
    ("engine", 6, 4242): (
        "c6f78976de2be0d36d0a7b5d597afc698a66b5913ffd7ceb54af64b6bb509c09",
        "e9fcc067d3599f2231041a5c09708fbc6aec4194fe94e53e1e71caf25e92dbe5"),
}

_CONVERGENCE_SHA = {
    ("euler-hk", 3, "0.3,0.4,0.5"): (
        "f20519b699ec52a2b18034b0fb7834646fed49049d7cfaf537778d725bcb5f15",
        "50f52328928f334eec611eabda8f447cd090acb640a23d40fbaa06dec8dff829"),
    ("gen-hk", 4, "0.2,0.3,0.4,0.5"): (
        "f14b29ae17249f7d90519c5e5bcfbd48d6c704177b6f3f8614cd520ed44af255",
        "0ee826f2d8524f3af0deb446073f7756657a45c7892093d83f88f66d7f177bc9"),
    ("alt-map", 4, "0.2,0.3,0.4,0.5"): (
        "a1c0931eaf3cf39ed6913a586ed61d60f11f04c3d8ac4d6f213237d5e1e67bef",
        "13f83769e5377ce38b713f3444605ff9ce31037f5f4ac4710f758eb9f6d64a66"),
}


@pytest.mark.parametrize("key", list(_CHECK_SHA),
                         ids=[f"{k[0]}-N{k[1]}-seed{k[2]}" for k in _CHECK_SHA])
def test_check_outputs_are_pinned(key):
    name, n, seed = key
    for fmt, sha in zip(("csv", "json"), _CHECK_SHA[key]):
        rc, out, err = _cli(["check", "--identity", name, "--n", str(n),
                             "--trials", "100", "--seed", str(seed),
                             "--format", fmt])
        assert rc == 0 and err == ""
        assert hashlib.sha256((out + err).encode()).hexdigest() == sha, fmt


@pytest.mark.parametrize("key", list(_CONVERGENCE_SHA),
                         ids=[f"{k[0]}-N{k[1]}" for k in _CONVERGENCE_SHA])
def test_convergence_outputs_are_pinned(key):
    name, n, y0 = key
    for fmt, sha in zip(("csv", "json"), _CONVERGENCE_SHA[key]):
        rc, out, err = _cli(["convergence", "--map", name, "--n", str(n),
                             "--y0", y0, "--eps-list",
                             "0.01,0.005,0.0025,0.00125", "--format", fmt])
        assert rc == 0
        assert hashlib.sha256((out + err).encode()).hexdigest() == sha, fmt


# --- the numpy routines, as references -----------------------------------------

def _ref_d_factors(y, eps):
    y = as_state(y)
    s = float(_rsum(y))
    d = 1.0 - eps * (-4.0 * y + s)
    with np.errstate(all="ignore"):
        S = 1.0 - eps * float(_rsum(y / d))
    return d, S


def _ref_r_factor(y, eps):
    y = as_state(y)
    w = 1.0 + eps * y
    if np.any(np.abs(w) < 1e-15 * (1.0 + np.abs(eps * y))):
        raise DomainError("r_factor undefined: some 1 + eps*y_j vanishes")
    return 1.0 - eps * float(_rsum(y / w))


def _ref_r_factor_omitting(y, eps, i):
    rest = np.delete(as_state(y), i)
    w = 1.0 + eps * rest
    return 1.0 - eps * float(_rsum(rest / w))


def _ref_d_polynomial(y, eps):
    y = np.asarray(y, dtype=float)
    e = kernels.esp_all(y)
    acc = 1.0
    for k in range(2, y.shape[0] + 1):
        acc -= eps ** k * (k - 1) * e[k]
    return float(acc)


def _ref_s_relations(y, eps):
    y = as_state(y)
    ynew = gen_hk(y.shape[0]).step(y, eps)
    s, s_new = float(_rsum(y)), float(_rsum(ynew))
    _, S_fwd = _ref_d_factors(y, eps)
    _, S_bwd = _ref_d_factors(ynew, -eps)
    return (abs(S_fwd * (1.0 + eps * s_new) - 1.0),
            abs(S_bwd * (1.0 - eps * s) - 1.0))


def _ref_r_reciprocity(y, eps):
    y = as_state(y)
    ynew = alt_map(y.shape[0]).step(y, eps)
    return abs(_ref_r_factor(y, eps) * _ref_r_factor(ynew, -eps) - 1.0)


def _ref_poly_n4(y, eps):
    y = as_state(y, 4)
    D = _ref_d_polynomial(y, eps)
    worst = 0.0
    for (i, j), (k, l) in PARTITIONS_4:
        Di = _ref_d_polynomial(np.delete(y, i), eps)
        Dj = _ref_d_polynomial(np.delete(y, j), eps)
        lhs = Di * Dj - eps * eps * y[i] * y[j] \
            * (1.0 + eps * y[k]) ** 2 * (1.0 + eps * y[l]) ** 2
        rhs = (1.0 - eps * eps * y[k] * y[l]) * D
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(D)))
    return worst


def _ref_relation_qq(map_, y, eps):
    y = as_state(y, map_.dim)
    n = y.shape[0]
    ynew = map_.step(y, eps)
    if map_.name == "gen-hk":
        rhs = (1.0 - eps * float(_rsum(y))) / (1.0 + eps * float(_rsum(ynew)))
    else:
        rhs = _ref_r_factor(y, eps)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = (ynew[i] - ynew[j]) / (ynew[i] * ynew[j]) \
                * (y[i] * y[j]) / (y[i] - y[j])
            worst = max(worst, abs(lhs - rhs))
    return worst


def _ref_phi_genhk3(j=0):
    def phi(y, eps):
        A = float(_rsum(y)) - 2.0 * y[j]
        return 1.0 / (1.0 - eps * eps * A * A)
    return phi


def _ref_phi_genhk4(partition=0):
    (i, j), (k, l) = PARTITIONS_4[partition]

    def phi(y, eps):
        diff = y[i] + y[j] - y[k] - y[l]
        return 1.0 / math.sqrt(1.0 - eps * eps * diff * diff)
    return phi


def _ref_phi_alt3(i=0, j=1):
    return lambda y, eps: 1.0 / (1.0 - eps * eps * y[i] * y[j])


def _ref_phi_alt4(partition=0):
    (i, j), (k, l) = PARTITIONS_4[partition]
    return lambda y, eps: 1.0 / math.sqrt((1.0 - eps * eps * y[i] * y[j])
                                          * (1.0 - eps * eps * y[k] * y[l]))


def _ref_phi_equation(N, y, eps, phi):
    y = as_state(y, N)
    ynew = gen_hk(N).step(y, eps)
    s, s_new = float(_rsum(y)), float(_rsum(ynew))
    lhs = phi(ynew, eps) / phi(y, eps)
    rhs = (1.0 + eps * s_new) / (1.0 - eps * s) \
        * (float(np.prod(y)) / float(np.prod(ynew))) ** (1.0 / (N - 2.0))
    return abs(lhs - rhs) / abs(rhs)


def _ref_gap(x, ref):
    return float(np.max(np.abs(x - ref)) / (1.0 + np.max(np.abs(ref))))


def _ref_residual(name, y, eps, n):
    """The residual of IDENTITIES[name] as the numpy table computed it."""
    if name == "n4-poly":
        return _ref_poly_n4(y, eps)
    if name == "s-relations":
        return max(_ref_s_relations(y, eps))
    if name == "r-reciprocity":
        return _ref_r_reciprocity(y, eps)
    if name == "step-ratio":
        return max(_ref_relation_qq(gen_hk(n), y, eps),
                   _ref_relation_qq(alt_map(n), y, eps))
    if name == "d-sum":
        return abs(float(_rsum(_ref_d_factors(y, eps)[0])) - 4.0)
    if name == "r-product":
        lhs = _ref_r_factor(y, eps) * float(np.prod(1.0 + eps * y))
        return abs(lhs - _ref_d_polynomial(y, eps))
    if name == "phi-eq":
        phi = _ref_phi_genhk3() if n == 3 else _ref_phi_genhk4()
        return _ref_phi_equation(n, y, eps, phi)
    if name == "sqrt-comp":
        return max(_ref_gap(h.step(h.step(y, eps), eps), f.step(y, eps))
                   for h, f in ((cosine_law(), euler_hk()),
                                (kov_sqrt(), kov_pullback())))
    a = hk_step(_ref_polarize(kovalevskaya_field(n)), y, eps)
    return _ref_gap(gen_hk(n).step(y, eps), a)


def _ref_polarize(field):
    # the builder that read each coefficient off the ndarray tensor
    dim, coeffs = field.dim, field.coeffs

    def build(y, eps):
        M = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                for k in range(j, dim):
                    a = coeffs[i, j, k]
                    if a == 0.0:
                        continue
                    if j == k:
                        M[i, j] += 2.0 * a * y[j]
                    else:
                        M[i, j] += a * y[k]
                        M[i, k] += a * y[j]
        return np.eye(dim) - eps * M

    return BilinearStepSystem(dim=dim, matrix_builder=build)


def _ref_density_kov_hk(j):
    def psi(y, eps):
        A = float(_rsum(y)) - 2.0 * y[j]
        return (1.0 - eps * eps * A * A) ** 2
    return psi


def _ref_density_cross_power(i, j):
    def psi(y, eps):
        h = (y[i] - y[j]) / (y[i] * y[j])
        return h ** (len(y) - 1) * float(np.prod(y)) ** 2
    return psi


def _ref_density_flow_power(alpha):
    def psi(y, eps):
        n = len(y)
        return float(np.prod(y)) ** ((n + 1.0 - 2.0 * alpha) / (n - alpha))
    return psi


def _ref_volume_check(map_, psi, y, eps):
    y = as_state(y, map_.dim)
    p0 = float(psi(y, eps))
    if not np.isfinite(p0) or p0 == 0.0:
        raise DomainError("volume density vanishes or is undefined at y")
    ynew = map_.step(y, eps)
    p1 = float(psi(ynew, eps))
    J = float(np.linalg.det(central_jacobian(
        lambda z: map_.checked_step(z, float(eps)), y)))
    return abs(J - p1 / p0) / abs(J)


# --- bits against the references ----------------------------------------------

_DIMS = range(3, 10)


@pytest.mark.parametrize("n", _DIMS)
def test_scalar_machinery_matches_numpy(n):
    # each quantity at the eps range of the identities that use it: R and D
    # (r-product, n4-poly) at (0.01, 0.3), d, S and the steps at (0.01, 0.1)
    rng = np.random.default_rng(500 + n)
    for _ in range(40):
        y = rng.uniform(0.1, 2.0, n)
        eps = float(rng.uniform(0.01, 0.3))
        e = float(rng.uniform(0.01, 0.1))
        d, S = d_factors(y, e)
        assert isinstance(d, np.ndarray)
        for k in range(n):
            assert _agree(d[k], lambda: _ref_d_factors(y, e)[0][k], n)
        assert _agree(S, lambda: _ref_d_factors(y, e)[1], n)
        assert _agree(r_factor(y, eps), lambda: _ref_r_factor(y, eps), n)
        assert _agree(d_polynomial(y, eps),
                      lambda: _ref_d_polynomial(y, eps), n)
        for i in (0, n - 1, -1):
            assert _agree(r_factor_omitting(y, eps, i),
                          lambda: _ref_r_factor_omitting(y, eps, i), n)
            assert _agree(d_polynomial_omitting(y, eps, i), lambda:
                          _ref_d_polynomial(np.delete(y, i), eps), n)
        for k, r in enumerate(s_relation_residuals(y, e)):
            assert _agree(r, lambda: _ref_s_relations(y, e)[k], n, True)
        assert _agree(r_reciprocity_residual(y, e),
                      lambda: _ref_r_reciprocity(y, e), n, True)
        for m in (gen_hk(n), alt_map(n)):
            assert _agree(verify_relation_qq(m, y, e),
                          lambda: _ref_relation_qq(m, y, e), n, True)


_TABLE_CASES = [(name, n) for name, (_, _, dims) in IDENTITIES.items()
                for n in (dims or _DIMS)]


@pytest.mark.parametrize("name, n", _TABLE_CASES,
                         ids=[f"{name}-N{n}" for name, n in _TABLE_CASES])
def test_identity_residuals_match_numpy(name, n):
    # the battery's residual on lists, and the table entry on an array
    residual, (lo, hi), _ = IDENTITIES[name]
    at_n = residual.at(n)
    rng = np.random.default_rng(600 + n)
    for _ in range(30):
        y = rng.uniform(0.1, 2.0, n)
        eps = float(rng.uniform(lo, hi))
        ref = lambda: _ref_residual(name, y, eps, n)  # noqa: E731
        assert _agree(at_n(y.tolist(), eps), ref, n, True), (y, eps)
        assert _agree(residual(y, eps, n), ref, n, True), (y, eps)


def test_public_identity_checks_match_numpy():
    rng = np.random.default_rng(700)
    for _ in range(40):
        y4 = rng.uniform(0.1, 2.0, 4)
        eps = float(rng.uniform(0.01, 0.3))
        assert _bits(verify_poly_identity_N4(y4, eps)) == \
            _bits(_ref_poly_n4(y4, eps))
        e = eps / 6
        for N, phi, ref in ((3, phi_genhk3(1), _ref_phi_genhk3(1)),
                            (4, phi_genhk4(2), _ref_phi_genhk4(2)),
                            (3, phi_alt3(0, 2), _ref_phi_alt3(0, 2)),
                            (4, phi_alt4(1), _ref_phi_alt4(1))):
            y = y4[:N]
            assert _bits(phi(y.tolist(), e)) == _bits(ref(y, e))
            assert _bits(phi(y, e)) == _bits(ref(y, e))
            assert _bits(verify_phi_functional_equation(N, y, e, phi)) == \
                _bits(_ref_phi_equation(N, y, e, ref))


@pytest.mark.parametrize("n", range(3, 7))
def test_engine_system_matches_numpy(n):
    rng = np.random.default_rng(800 + n)
    for field in (kovalevskaya_field(n), kovalevskaya_field(n, 1.3)) + \
            ((euler_field(),) if n == 3 else ()):
        new, ref = polarize(field), _ref_polarize(field)
        for _ in range(10):
            y = rng.uniform(-2.0, 2.0, n)
            eps = float(rng.uniform(-0.3, 0.3))
            assert new.matrix_builder(y, eps).tobytes() == \
                ref.matrix_builder(y, eps).tobytes()


def test_engine_battery_builds_its_system_once(monkeypatch):
    calls = []

    def counting(field):
        calls.append(field.dim)
        return polarize(field)

    monkeypatch.setattr(invariants, "polarize", counting)
    identity_battery("engine", 5, 20, seed=3)
    assert calls == [5]


def _volume_cases():
    cases = [(euler_hk(), [density_euler_hk(j) for j in range(3)],
              [lambda x, eps, j=j: (1.0 - eps * eps * x[j] ** 2) ** 2
               for j in range(3)], 0.05),
             (gen_hk(3), [density_kov_hk(j) for j in range(3)],
              [_ref_density_kov_hk(j) for j in range(3)], 0.05),
             (kov_sqrt(), [density_kov_product(0, 1), density_kov_product(1, 2)],
              [lambda y, eps, i=i, j=j: (1.0 - eps * eps * y[i] * y[j]) ** 2
               for i, j in ((0, 1), (1, 2))], 0.05),
             (kov_pullback(), [density_kov_product(0, 1),
                               density_kov_product(2, 0)],
              [lambda y, eps, i=i, j=j: (1.0 - eps * eps * y[i] * y[j]) ** 2
               for i, j in ((0, 1), (2, 0))], 0.05)]
    for n in (3, 4, 5, 6):
        psis = [density_cross_power(0, 1), density_cross_power(n - 2, n - 1)]
        refs = [_ref_density_cross_power(0, 1),
                _ref_density_cross_power(n - 2, n - 1)]
        cases += [(gen_hk(n), psis, refs, 0.05),
                  (alt_map(n), psis, refs, 0.02)]
    return cases


@pytest.mark.parametrize("case", _volume_cases(),
                         ids=lambda c: f"{c[0].name}-N{c[0].dim}")
def test_volume_check_matches_numpy(case):
    m, psis, refs, eps = case
    for y in admissible_states(20, m.dim, seed=900 + m.dim):
        for psi, ref in zip(psis, refs):
            assert _bits(psi(y.tolist(), eps)) == _bits(ref(y, eps))
            assert _bits(psi(y, eps)) == _bits(ref(y, eps))
            assert _bits(volume_check(m, psi, y, eps)) == \
                _bits(_ref_volume_check(m, ref, y, eps))


@pytest.mark.parametrize("n", range(3, 10))
def test_flow_density_matches_numpy(n):
    for alpha in (2.0, 1.3):
        psi, ref = density_flow_power(alpha), _ref_density_flow_power(alpha)
        for y in admissible_states(10, n, seed=950 + n):
            assert _agree(psi(y.tolist(), 0.0), lambda: ref(y, 0.0), n)


def test_undefined_densities_keep_their_outcomes():
    # a zero coordinate leaves the cross-power density undefined at y; an
    # overflowing density at y is undefined too; an overflowing density at
    # the image gives an infinite residual, as on float64 arrays
    with pytest.raises(DomainError, match="vanishes or is undefined"):
        volume_check(gen_hk(4), density_cross_power(0, 1),
                     [0.0, 0.3, 0.4, 0.5], 0.01)
    with pytest.raises(DomainError, match="vanishes or is undefined"):
        volume_check(alt_map(4), density_cross_power(0, 1),
                     [1e-200, 0.3, 0.4, 0.5], 0.01)

    def blows_up_at_the_image(y, eps):
        return 1.0 if y[0] == 0.3 else 1e300 ** 2

    assert volume_check(gen_hk(4), blows_up_at_the_image,
                        [0.3, 0.4, 0.5, 0.6], 0.01) == math.inf


def test_vanishing_d_factor_gives_a_non_finite_S():
    # d_1 = 1 - eps*(-4*y_1 + s) is exactly 0: y_1/d_1 is inf (and NaN for
    # y_1 = 0), as float64 division gives it
    for y, eps in (([1.0, 3.0, 3.0, 5.0], 0.125), ([0.0, 3.0, 3.0, 4.0], 0.1)):
        d, S = d_factors(y, eps)
        d_ref, S_ref = _ref_d_factors(y, eps)
        assert d[0] == 0.0 and d.tobytes() == d_ref.tobytes()
        # a NaN's sign bit is the platform's, and nothing reads it
        assert not math.isfinite(S) and (
            _bits(S) == _bits(S_ref) or math.isnan(S) and math.isnan(S_ref))
    with pytest.raises(Exception, match="denominator d_1 vanished"):
        gen_hk(4).step([1.0, 3.0, 3.0, 5.0], 0.125)


def test_vanishing_r_denominator_is_a_domain_error():
    # 1 + eps*y_2 = 1 - 0.1*10 is exactly 0
    y, eps = [1.0, -10.0, 2.0, 3.0], 0.1
    for f, what in ((lambda: r_factor(y, eps), "r_factor"),
                    (lambda: _ref_r_factor(y, eps), "r_factor"),
                    (lambda: r_factor_omitting(y, eps, 0),
                     "r_factor_omitting")):
        with pytest.raises(DomainError, match=f"^{what} undefined"):
            f()
    assert _bits(r_factor_omitting(y, eps, 1)) == \
        _bits(_ref_r_factor_omitting(y, eps, 1))


def test_gap_of_a_non_finite_solve_is_nan():
    # the engine's solve can return inf or NaN; numpy's gap was NaN then
    x = [0.5, 1.5, 2.5]
    for ref in ([0.5, math.inf, 2.5], [-math.inf, 1.5, 2.5],
                [0.5, math.nan, 2.5]):
        with np.errstate(all="ignore"):
            expect = _ref_gap(np.array(x), np.array(ref))
        assert math.isnan(expect) and math.isnan(invariants._gap(x, ref))
    assert _bits(invariants._gap(x, [0.25, 1.75, 2.0])) == \
        _bits(_ref_gap(np.array(x), np.array([0.25, 1.75, 2.0])))


# --- exact certificates ----------------------------------------------------------

def _dyadic_state(rng, n):
    # distinct positive coordinates k/64, k in [8, 128)
    while True:
        ks = rng.integers(8, 128, n).tolist()
        if len(set(ks)) == n:
            return [Fraction(k, 64) for k in ks]


_EXACT = ("n4-poly", "s-relations", "r-reciprocity", "step-ratio", "d-sum",
          "r-product")
_EXACT_CASES = [(name, n) for name in _EXACT
                for n in (IDENTITIES[name][2] or range(3, 7))]


@pytest.mark.parametrize("name, n", _EXACT_CASES,
                         ids=[f"{name}-N{n}" for name, n in _EXACT_CASES])
def test_rational_identities_hold_exactly(name, n):
    residual = IDENTITIES[name][0].at(n)
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        y = _dyadic_state(rng, n)
        eps = Fraction(int(rng.integers(1, 7)), 64)
        r = residual(y, eps)
        assert type(r) is Fraction and r == 0, (y, eps, r)


def test_machinery_runs_exactly():
    y = [Fraction(k, 64) for k in (9, 40, 77, 120)]
    eps = Fraction(3, 64)
    from kovtop.maps import _d_factors, _d_polynomial, _r_factor
    d, S = _d_factors(y, eps)
    assert all(type(v) is Fraction for v in d + [S])
    assert sum(d) == 4
    # R * prod(1 + eps*y_j) = D
    p = Fraction(1)
    for v in y:
        p *= 1 + eps * v
    assert _r_factor(y, eps) * p == _d_polynomial(y, eps)


# --- a fixed eps that overflows ---------------------------------------------------

def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name", list(IDENTITIES))
@pytest.mark.parametrize("eps", ["1e100", "1e200"])
def test_overflowing_fixed_eps_aborts_cleanly(name, eps):
    for fmt in ("csv", "json"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _cli(["check", "--identity", name, "--eps", eps,
                                 "--trials", "3", "--format", fmt])
        assert rc in (0, 2), (rc, err)
        assert "Traceback" not in err
        if rc == 2:
            assert err.startswith("aborted: ")
        if fmt == "json":
            doc = _strict_json(out)
            assert doc["status"] == ("ok" if rc == 0 else "aborted")


@pytest.mark.parametrize("argv, what", [
    (["check", "--identity", "n4-poly", "--eps", "1e100", "--trials", "3"],
     "n4-poly: a float overflows at eps=1e+100"),
    (["check", "--identity", "r-product", "--eps", "1e200"],
     "r-product: a float overflows at eps=1e+200"),
    (["check", "--identity", "step-ratio", "--eps", "1e200", "--format",
      "json"], "step-ratio: a float division by zero at eps=1e+200"),
])
def test_overflow_aborts_name_the_cause(argv, what):
    rc, out, err = _cli(argv)
    assert rc == 2 and err == f"aborted: {what}\n"
    if "json" in argv:
        assert _strict_json(out) == {"status": "aborted", "error": what}


def test_a_drawn_eps_with_a_non_finite_residual_skips_the_trial(monkeypatch):
    calls = []

    def residual(y, eps):
        calls.append(eps)
        return math.inf if len(calls) % 2 else 1e-17

    entry = IDENTITIES["d-sum"]
    monkeypatch.setitem(IDENTITIES, "d-sum", (type(entry[0])(lambda n: residual),
                                              *entry[1:]))
    assert identity_battery("d-sum", 4, 10, seed=1) == 1e-17
    with pytest.raises(DomainError, match="d-sum: residual inf at eps=0.1"):
        identity_battery("d-sum", 4, 10, seed=1, eps=0.1)


# --- the step-count bound -----------------------------------------------------------

def test_steps_for_is_bounded():
    assert _steps_for(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        _steps_for(1.0, 1e-300)
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        _steps_for(1.0, 0.5 / MAX_STEPS)


def _refuse(*args):
    raise AssertionError("a loop started")


def _no_loops(monkeypatch):
    monkeypatch.setattr(kernels, "rk4_orbit", _refuse)
    monkeypatch.setattr(kernels, "map_step", _refuse)


@pytest.mark.parametrize("argv", [
    ["simulate", "--flow", "kov3", "--y0", "0.1,0.2,0.3", "--t-end", "1",
     "--dt", "1e-300"],
    ["convergence", "--map", "alt-map", "--n", "4", "--y0", "0.2,0.3,0.4,0.5",
     "--eps-list", "0.01,0.005", "--dt-ref", "1e-300"],
])
def test_unbounded_step_counts_exit_1_before_any_loop(monkeypatch, argv):
    _no_loops(monkeypatch)
    for fmt in ("csv", "json"):
        rc, out, err = _cli(argv + ["--format", fmt])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "MAX_STEPS" in err


def test_convergence_bounds_its_map_steps(monkeypatch):
    # the RK4 reference runs; no map step may
    monkeypatch.setattr(kernels, "map_step", _refuse)
    rc, out, err = _cli(["convergence", "--map", "gen-hk", "--n", "4", "--y0",
                         "0.2,0.3,0.4,0.5", "--eps-list", "1e-300"])
    assert rc == 1 and out == ""
    assert err.startswith("error: eps=1e-300 gives") and "MAX_STEPS" in err
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        convergence_study(get_map("euler-hk"), [0.3, 0.4, 0.5], 1.0, [0.1],
                          dt_ref=1e-300)
