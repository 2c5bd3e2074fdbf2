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
- A fixed eps that overflows a float aborts cleanly, and a step count above
  `flows.MAX_STEPS`, derived or given to `map` and `drift`, exits 1 before
  any loop starts.
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
from kovtop.errors import DomainError, ParameterError, SingularStepError
from kovtop.flows import MAX_STEPS, _steps_for, euler_field, kovalevskaya_field
from kovtop.hk_engine import BilinearStepSystem, hk_step, polarize
from kovtop.invariants import (IDENTITIES, PARTITIONS_4, convergence_study,
                               density_cross_power, density_euler_hk,
                               density_flow_power, density_kov_hk,
                               density_kov_product, identity_battery,
                               phi_alt3, phi_alt4, phi_genhk3, phi_genhk4,
                               _poly_n4_residual, _relation_qq_residual,
                               random_starts, verify_phi_functional_equation,
                               volume_check)
from kovtop.maps import (_d_factors, _d_polynomial, _r_factor,
                         _r_reciprocity_residual, _s_relation_residuals,
                         alt_map, cosine_law, euler_hk, gen_hk, get_map,
                         kov_pullback, kov_sqrt)
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


def _without(y, i):
    """The list of the coordinates of y but the i-th."""
    rest = list(y)
    del rest[i]
    return rest


def _cli(argv):
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        rc = main(argv)
    return rc, so.getvalue(), se.getvalue()


# --- pins --------------------------------------------------------------------

# sha256 of stdout + stderr, CSV then JSON, of `check --trials 100` at each
# dimension 3..6 the identity allows, and of `convergence` for the three
# perfbench cases at --eps-list 0.01,0.005,0.0025,0.00125 (alt-map N=4 is the
# README example); recorded when this code ran on float64 arrays, and the
# check pins again when the battery's eps got a stream apart from the starts
_CHECK_SHA = {
    ("n4-poly", 4, 7): (
        "c6d5b57da3e957057901bc9c820fae0c39e57504b3d13bbd7f63e02c4f581e9d",
        "50251837ad6aab3a58c2ba3f0a4e558ece8ff3d0522673132f5df233d27523ca"),
    ("n4-poly", 4, 4242): (
        "38fc0f1e20fc539625f468f8fa0ecb4f6421bcf0cc2b4b7d947d9ece33e14a57",
        "5473870f3e3492c96248ca2af7c28577e73479bd18f572df3b6dd4b31615d4b2"),
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
        "c5b4dbd15145a1f266146039607e85af526eed03888e4d2265c9349a46c3200b",
        "294a9439f191de1cf7be6bbd18280667b073d5710b9e13116b5384bc2df94534"),
    ("s-relations", 5, 4242): (
        "69be7b3047f12890221e3b4fe04e8214a8cd8ba7dde9ced159ae0e0416b18041",
        "ef7b92e89141b4dace1c1cb208050fc4c0670fc4f39039f61f5f8a52b4c84108"),
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
        "f69f7c7f9d6b989a67d5ba331bb0fa864f20de38c78753f01ed89cc9c71acb10",
        "2f8cb1de52e40c5ee836a54aa9cfb3f53b5617695a7a64969292caa34fea947a"),
    ("step-ratio", 3, 7): (
        "c4453face300c429b4e69bae6b6f219a058011c2d813052ca1f6d69fcb905934",
        "58dad1e9fd0eecb086f24afef060901ab82580979dff470365de802b9ea14693"),
    ("step-ratio", 3, 4242): (
        "78d89359ebe5c63b5ad76c3dd8732b8649e222b79f13a9bbf9eaa71ec21910c9",
        "d4e84a1e5787cd58d60c9f32810b53a2bb38946dfaa3757c2362bd12fab8d9f3"),
    ("step-ratio", 4, 7): (
        "6471690045d097a8773188a357857e9c95e07eb6b077840df2f262808f2ee7d8",
        "969d5ab55cc6851abe22a91482c914a33cc30c7d71f39dd98a6726b73cc5b92d"),
    ("step-ratio", 4, 4242): (
        "f0b0e420d7a34a85bf82d7743c981114a04ff4796c72a205b3f2e225e9be31b9",
        "3fcbb1c17f263347a895364e565be274a5912a3b9dfbe79db80e48b0191f93fe"),
    ("step-ratio", 5, 7): (
        "72aa8fe162028abacef395512cefdc20109418892a5ccfd4d527ab69c97ae847",
        "dc402d67b19d556e47855b4aff2a3dc2d4d19ca975a438f588ccbd647a5cab4b"),
    ("step-ratio", 5, 4242): (
        "645a5d53cc4be47d53d6113d3c95a946ba1c2bebf0601c0d165c767c7aead7a8",
        "1b282a3aa9724b3f6aea231f06dcfdcd5de79f34119e4b771d2aaacc4efc7f73"),
    ("step-ratio", 6, 7): (
        "032938dc651b0a96753476e54265a9ad9141d94d4c809043dafc6191d41c6c35",
        "f7a291ba740f2b070bbf683d345d42ee9c2f61f11630d874f4d819ff7e4a7b0e"),
    ("step-ratio", 6, 4242): (
        "9c3babb814d4a31866d6e1002d017a3d67133961d83718004550c1d8b69a2457",
        "0055648cfc4dc959d98eee86525a95ec9af116f295c5773391c64a6c621d1d3a"),
    ("d-sum", 4, 7): (
        "2247a3c9e31e385bb780847859c2353f3315b6629a3a90eaa79c8d60ec0b948e",
        "b676e84f398293e09754d04bbe48663c8869186bf8dc93b99fc2d5abeb6565e6"),
    ("d-sum", 4, 4242): (
        "2247a3c9e31e385bb780847859c2353f3315b6629a3a90eaa79c8d60ec0b948e",
        "b676e84f398293e09754d04bbe48663c8869186bf8dc93b99fc2d5abeb6565e6"),
    ("r-product", 3, 7): (
        "38277106ac5a3e3fc08500c2ec2eb5569bf091f5fb6019e7120f5102dd2ab410",
        "2c2f32face77f437ae2f1e94e9b2d76089a8c45167f7aacb337afcb1f63cd3ee"),
    ("r-product", 3, 4242): (
        "c2a94729dd386942b9f9baf36ace508954c5c9df1124a973481726dc2716fd26",
        "ca553c2cb05e90bf4c09adaa3f260a1e4a7eb19b0572af7b2623c6b9bce94b8a"),
    ("r-product", 4, 7): (
        "ac54ee28918b97ec134e81b029c77799c4caff12d59da7578e35d19ba0749a07",
        "fbfb64e28f748d671084c95bf180bc82c5ba7d42a28bc631d0f88e42853e5c3a"),
    ("r-product", 4, 4242): (
        "05d9fe795a8875566488d7294fcb2833dcc14ced38078350efa301ccc4310a30",
        "d8fc00952a819a4cc80c3c3f25bb4fa62ca2f7e88fb55431351951b67d1ac238"),
    ("r-product", 5, 7): (
        "3583a7462c6ba1a7e85f6ddf8a42a07d34b080d1cf6c6f06751bb2bbd95f20a5",
        "ce6df46910e04d9a4af9aaee28f0fee1d13ea918cf3c79a9d3e98e853e5c8e7b"),
    ("r-product", 5, 4242): (
        "a4e222be0a55f1f393257df705d94a4b7f8885213af28f4f13252cae3784b32a",
        "8b641478aca25dbafd3c73fe517b9d9cd97140ddc8c4694ed15d85a7fdc34190"),
    ("r-product", 6, 7): (
        "bb847af3a0d2feb60f6f7f8af8778279ad20d2b83cead78f3ca35618dd3eaf66",
        "6fa3b925e67c08c88b95e2c99595d6bb9d90ad43fd89d15ce171abc7a42365da"),
    ("r-product", 6, 4242): (
        "24de838346388c0174d6d454454a0307c801c2e7877687ce39d40eef449cadac",
        "96ad57f9936354c1904c833f15b132aa5879de61412634489aba53672e53260b"),
    ("phi-eq", 3, 7): (
        "638d737906a77da7386fd8e62af9bee800312eb1d25c9228c6ce921c884aac10",
        "84e675f62ae8fc1b362009150bee5ec965b31e6a43f52a9d67321b7cf65be705"),
    ("phi-eq", 3, 4242): (
        "ae5462c01640031bd1b7961b1623abb1b959343ec27e292cba0eeaf469676def",
        "dc8f86c95735241cd20d35e1e3144553b2525e880a7a754850be19f61862fb0f"),
    ("phi-eq", 4, 7): (
        "0161a639f3de7db0bec8a01dd09d2214989cf754c998b58c2fe8035e9aeac298",
        "6af6ae10dcbabfa573dd5ca42e846e8851de9fc33215014b494a3aefca7facae"),
    ("phi-eq", 4, 4242): (
        "e7c6dbae74c306df1e4ca058d24f179cc72e120555510236e706a09af47a9d3d",
        "144106954931a3579740b85dc2ad366f062c4abf0513fc96abb4c3794548fc7e"),
    ("sqrt-comp", 3, 7): (
        "b718cde799a270a42e37644b474d438afb44d74310968adcea75917189224178",
        "ed15882a6b41f724e1c892e26f97bbb756551f1809ddaaefdd527dcd4b69a8a0"),
    ("sqrt-comp", 3, 4242): (
        "a2883dbd1c984d86e7ed117bf7341b8e4fbf01c95291a1e5838281433f030386",
        "ef42f608e2e3b992f7091506f2ab1e9a88a134dfd612d84376754f5c18b91d87"),
    ("engine", 3, 7): (
        "c4fc327f10f72737d2892c86574172ae4803b6e3e26dc44d9f9dba18e162ecc1",
        "5c6e52f87f630eda26920e519a7e69c79fb2fc7ef27c17bd59f000d6916c11ef"),
    ("engine", 3, 4242): (
        "8acd7a88b408e5a6bb8a8ce4d0f0614703639fd14e98a86de6ef5f8c18287f1a",
        "528938ff498be14bf66d782d34828be97263984e1dc6c51c37d96e32829153dd"),
    ("engine", 4, 7): (
        "870d8b4643f9f493db50711ec831bd29d3b996526058a5ee074aabd60538f370",
        "65895e5d3457b0f8045d411d4e051b068b361b3aef2bfc0f9154a5d2da0bc57d"),
    ("engine", 4, 4242): (
        "87e339c331e28693a3cdae168c301d8ba0be6f907ff3b6bbf015dacd962427ac",
        "be7c371c8c338caee5f2d53cad2501a1aec3fdaa14becdab4392103ce66ae5d0"),
    ("engine", 5, 7): (
        "540bb1a1682ed91b6b30439f17fb83ddbcfc09c6f2368fbc2aa6aec610fb9f58",
        "556605d48484d86e318634dd2e287886733b93ce39c4c4c6626f4f04bbdbc562"),
    ("engine", 5, 4242): (
        "eff1091405a18361f840e11233f808fe673dd3065280e07b041717d99779067f",
        "cf4d02e31f760df1fb0f11b656b57796789e88709701bee477e90b6b4c82c16e"),
    ("engine", 6, 7): (
        "206a61fd79ae8b1d1e2332f1971bf2f56982a2178578f0158d1bbd0b9630711e",
        "11f85c099bb6388d7c8596bebdfca026c6cf15416d72e22039e6a9e269f0ac53"),
    ("engine", 6, 4242): (
        "657cc26f4e5b74c0d3a94a4ca69a68d529d6c179e80f18a3bb4113bd97aa832c",
        "e98233d3d6000530da094036bf941c169919ba6716b7271cfb8870e2b164c548"),
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
        ys = y.tolist()
        d, S = _d_factors(ys, e)
        for k in range(n):
            assert _agree(d[k], lambda: _ref_d_factors(y, e)[0][k], n)
        assert _agree(S, lambda: _ref_d_factors(y, e)[1], n)
        assert _agree(_r_factor(ys, eps), lambda: _ref_r_factor(y, eps), n)
        assert _agree(_d_polynomial(ys, eps),
                      lambda: _ref_d_polynomial(y, eps), n)
        for i in (0, n - 1, -1):
            assert _agree(_r_factor(_without(ys, i), eps),
                          lambda: _ref_r_factor_omitting(y, eps, i), n)
            assert _agree(_d_polynomial(_without(ys, i), eps), lambda:
                          _ref_d_polynomial(np.delete(y, i), eps), n)
        for k, r in enumerate(_s_relation_residuals(ys, e)):
            assert _agree(r, lambda: _ref_s_relations(y, e)[k], n, True)
        assert _agree(_r_reciprocity_residual(ys, e),
                      lambda: _ref_r_reciprocity(y, e), n, True)
        for m in (gen_hk(n), alt_map(n)):
            assert _agree(_relation_qq_residual(m, ys, e),
                          lambda: _ref_relation_qq(m, y, e), n, True)


_TABLE_CASES = [(name, n) for name, (_, _, dims) in IDENTITIES.items()
                for n in (dims or _DIMS)]


@pytest.mark.parametrize("name, n", _TABLE_CASES,
                         ids=[f"{name}-N{n}" for name, n in _TABLE_CASES])
def test_identity_residuals_match_numpy(name, n):
    # the battery's residual on lists, and the table entry on an array
    residual, (lo, hi), _ = IDENTITIES[name]
    rng = np.random.default_rng(600 + n)
    for _ in range(30):
        y = rng.uniform(0.1, 2.0, n)
        eps = float(rng.uniform(lo, hi))
        ref = lambda: _ref_residual(name, y, eps, n)  # noqa: E731
        assert _agree(residual(y.tolist(), eps), ref, n, True), (y, eps)
        assert _agree(residual(y, eps), ref, n, True), (y, eps)


def test_public_identity_checks_match_numpy():
    rng = np.random.default_rng(700)
    for _ in range(40):
        y4 = rng.uniform(0.1, 2.0, 4)
        eps = float(rng.uniform(0.01, 0.3))
        assert _bits(_poly_n4_residual(y4.tolist(), eps)) == \
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
    invariants._engine_system.cache_clear()
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
        d, S = _d_factors(y, eps)
        d_ref, S_ref = _ref_d_factors(y, eps)
        assert d[0] == 0.0 and np.array(d).tobytes() == d_ref.tobytes()
        # a NaN's sign bit is the platform's, and nothing reads it
        assert not math.isfinite(S) and (
            _bits(S) == _bits(S_ref) or math.isnan(S) and math.isnan(S_ref))
    with pytest.raises(Exception, match="denominator d_1 vanished"):
        gen_hk(4).step([1.0, 3.0, 3.0, 5.0], 0.125)


def test_vanishing_r_denominator_is_a_domain_error():
    # 1 + eps*y_2 = 1 - 0.1*10 is exactly 0
    y, eps = [1.0, -10.0, 2.0, 3.0], 0.1
    for f in (lambda: _r_factor(y, eps), lambda: _ref_r_factor(y, eps),
              lambda: _r_factor(_without(y, 0), eps)):
        with pytest.raises(DomainError, match="^r_factor undefined"):
            f()
    assert _bits(_r_factor(_without(y, 1), eps)) == \
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
    residual = IDENTITIES[name][0]
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

    monkeypatch.setitem(IDENTITIES, "d-sum",
                        (residual, *IDENTITIES["d-sum"][1:]))
    assert identity_battery("d-sum", 4, 10, seed=1) == 1e-17
    with pytest.raises(DomainError, match="d-sum: residual inf at eps=0.1"):
        identity_battery("d-sum", 4, 10, seed=1, eps=0.1)


def _reference_battery(name, n, trials, seed, eps=None):
    """identity_battery as it drew each trial's eps alone, one scalar
    uniform per trial, after checking its arguments."""
    residual, (lo, hi), dims = IDENTITIES[name]
    if dims is not None and len(dims) == 1:
        n = dims[0]
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    evaluated = 0
    for y in random_starts(trials, n, seed).tolist():
        e = eps if eps is not None else float(rng.uniform(lo, hi))
        try:
            try:
                r = residual(y, e)
            except OverflowError as exc:
                raise DomainError(f"{name}: a float overflows at eps={e:g}"
                                  ) from exc
            except ZeroDivisionError as exc:
                raise DomainError(f"{name}: a float division by zero at "
                                  f"eps={e:g}") from exc
            if not math.isfinite(r):
                raise DomainError(f"{name}: residual {r} at eps={e:g}")
        except (DomainError, SingularStepError):
            if eps is not None:
                raise
            continue
        worst = max(worst, r)
        evaluated += 1
    if evaluated < max(1, trials // 2):
        raise ParameterError(
            f"identity {name!r}: only {evaluated}/{trials} trials were "
            "evaluable; tighten the eps range")
    return worst


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, SingularStepError, ParameterError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_battery_eps_draws_match_the_per_trial_draw(name):
    # all the eps of a battery come from one draw, with the bits of one
    # scalar draw per trial; a fixed eps is used as given
    lo, hi = IDENTITIES[name][1]
    n = 4 if name != "sqrt-comp" else 3
    for seed in (1, 2, 3):
        for trials in (1, 2, 25):
            for eps in (None, lo, hi, 2.0):
                args = (name, n, trials, seed, eps)
                assert _outcome(identity_battery, *args) == \
                    _outcome(_reference_battery, *args), args


def test_battery_draws_eps_apart_from_the_starts(monkeypatch):
    # one shared stream made the eps uniforms of seed 7 at N = 4 repeat the
    # starts' coordinate uniforms (the first 8 to 2e-16)
    drawn = []

    def residual(y, eps):
        drawn.append(eps)
        return 0.0

    monkeypatch.setitem(IDENTITIES, "d-sum",
                        (residual, *IDENTITIES["d-sum"][1:]))
    identity_battery("d-sum", 4, 8, seed=7)
    lo, hi = IDENTITIES["d-sum"][1]
    u_eps = [(e - lo) / (hi - lo) for e in drawn]
    u_y = ((random_starts(8, 4, 7) - 0.1) / 1.9).ravel().tolist()
    assert len(u_eps) == 8
    assert min(abs(a - b) for a in u_eps for b in u_y) > 1e-9


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
    monkeypatch.setattr(kernels, "map_orbit", _refuse)
    monkeypatch.setattr(kernels, "map_step", _refuse)


@pytest.mark.parametrize("argv", [
    ["simulate", "--flow", "kov3", "--y0", "0.1,0.2,0.3", "--t-end", "1",
     "--dt", "1e-300"],
    ["convergence", "--map", "alt-map", "--n", "4", "--y0", "0.2,0.3,0.4,0.5",
     "--eps-list", "0.01,0.005", "--dt-ref", "1e-300"],
    ["map", "--map", "euler-hk", "--y0", "0.1,0.2,0.3", "--eps", "1e-6",
     "--steps", str(MAX_STEPS + 1)],
    ["drift", "--map", "alt-map", "--n", "4", "--eps", "0.01", "--steps",
     str(MAX_STEPS + 1)],
    ["drift", "--flow", "kov3", "--eps", "0.001", "--steps",
     str(MAX_STEPS + 1)],
])
def test_unbounded_step_counts_exit_1_before_any_loop(monkeypatch, argv):
    _no_loops(monkeypatch)
    for fmt in ("csv", "json"):
        rc, out, err = _cli(argv + ["--format", fmt])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "MAX_STEPS" in err


def test_orbit_rejects_negative_and_unbounded_step_counts(monkeypatch):
    monkeypatch.setattr(kernels, "map_orbit", _refuse)
    m = get_map("gen-hk", 4)
    for steps in (-1, MAX_STEPS + 1):
        with pytest.raises(ParameterError):
            m.orbit([0.2, 0.3, 0.4, 0.5], 0.01, steps)
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        invariants.drift_batch(m, invariants.registry(4)[:1],
                               [[0.2, 0.3, 0.4, 0.5]], 0.01, MAX_STEPS + 1)


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
