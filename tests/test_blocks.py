"""Blocked work: the stacked bilinear engine, the identity battery run a
block of trials at a time, and `random_starts` drawn in bounded blocks.

- `hk_solve` gives every row of a stack the bits the one-state engine gives
  it: the step matrix, det and Hadamard bound, the solution, or the error.
  The one-state engine is kept here as the reference.
- `identity_battery` gives the result (or raises the error) of the
  per-trial loop it replaced, kept here, at trial counts around the block
  size; the block size is made small so that many blocks run.
- `random_starts` gives the starts of a one-row-at-a-time draw, gives up at
  the same draw, and holds one block at a time.
"""
import collections.abc
import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from kovtop import invariants
from kovtop.cli import main
from kovtop.errors import (DimensionError, DomainError, ParameterError,
                           SingularStepError)
from kovtop.flows import euler_field, kovalevskaya_field
from kovtop.hk_engine import (SINGULAR_RTOL, BilinearStepSystem, hk_solve,
                              hk_step, polarize)
from kovtop.invariants import CANCEL_TOL, IDENTITIES, identity_battery

# --- the stacked engine -------------------------------------------------------


def _ref_build(field, y, eps):
    # the one-state builder, term by term
    dim = field.dim
    M = np.zeros((dim, dim))
    for i, j, k, a in field.terms:
        if j == k:
            M[i, j] += 2.0 * a * y[j]
        else:
            M[i, j] += a * y[k]
            M[i, k] += a * y[j]
    return np.eye(dim) - eps * M


def _ref_step(field, y, eps):
    """(A, det, Hadamard bound, solution or (type, message)) of one state."""
    A = _ref_build(field, y, eps)
    with np.errstate(all="ignore"):
        det = np.linalg.det(A)
        hadamard = float(np.prod(np.linalg.norm(A, axis=1)))
    if abs(det) <= SINGULAR_RTOL * hadamard:
        x = (SingularStepError,
             f"step matrix numerically singular (det = {det:.3e})")
    else:
        x = np.linalg.solve(A, y)
    return A, det, hadamard, x


def _engine_cases(n):
    fields = [kovalevskaya_field(n), kovalevskaya_field(n, 1.3)]
    if n == 3:
        fields.append(euler_field())
    rng = np.random.default_rng(900 + n)
    Y = rng.uniform(-2.0, 2.0, (60, n))
    eps = rng.uniform(-0.4, 0.4, 60)
    eps[:7] = [1e300, -1e300, 0.0, 1e-300, 1e154, -1e154, -0.0]
    Y[7], eps[7] = 1.0, 0.5      # the euler step's exact pole at N = 3
    return fields, Y, eps


@pytest.mark.parametrize("n", range(3, 13))
def test_stacked_engine_has_the_bits_of_one_state_at_a_time(n):
    fields, Y, eps = _engine_cases(n)
    kinds = set()
    for field in fields:
        sys_ = polarize(field)
        A = sys_.matrix_builder(Y, eps)
        # the stacked det and Hadamard bound the regularity test reads
        with np.errstate(all="ignore"):
            det = np.linalg.det(A)
            hadamard = np.prod(np.linalg.norm(A, axis=-1), axis=-1)
        out = hk_solve(sys_, Y, eps)
        assert len(out) == len(Y)
        for p, (y, e) in enumerate(zip(Y, eps.tolist())):
            ref_A, ref_det, ref_had, ref_x = _ref_step(field, y, e)
            assert A[p].tobytes() == ref_A.tobytes()
            assert sys_.matrix_builder(y, e).tobytes() == ref_A.tobytes()
            assert det[p].tobytes() == ref_det.tobytes()
            assert hadamard[p].tobytes() == np.float64(ref_had).tobytes()
            if isinstance(ref_x, tuple):
                kinds.add("singular")
                assert (type(out[p]), str(out[p])) == ref_x
                assert out[p].state.tobytes() == y.tobytes()
                assert out[p].eps == e
                with pytest.raises(SingularStepError) as info:
                    hk_step(sys_, y, e)
                assert str(info.value) == ref_x[1]
            else:
                kinds.add("regular")
                assert out[p].tobytes() == ref_x.tobytes()
                assert hk_step(sys_, y, e).tobytes() == ref_x.tobytes()
    assert kinds == {"singular", "regular"}


def test_stacked_engine_takes_one_eps_for_every_row():
    sys_ = polarize(kovalevskaya_field(5))
    Y = np.random.default_rng(3).uniform(0.1, 2.0, (9, 5))
    one = hk_solve(sys_, Y, 0.05)
    each = hk_solve(sys_, Y, [0.05] * 9)
    assert [x.tobytes() for x in one] == [x.tobytes() for x in each]


class _CountingEps(collections.abc.Sequence):
    """One eps per row, by a distinct value each, counting its item reads;
    a read past `budget` fails at once."""

    def __init__(self, values, budget):
        self.values, self.budget, self.reads = values, budget, 0

    def __len__(self):
        return len(self.values)

    def __getitem__(self, p):
        value = self.values[p]      # IndexError ends an iteration
        self.reads += 1
        assert self.reads <= self.budget, f"more than {self.budget} reads"
        return value


def test_singular_rows_read_their_eps_sequence_a_bounded_number_of_times():
    # every row singular (eps near 1e300); reading the sequence whole for
    # each singular row would cost rows^2 reads
    rows = 4000
    sys_ = polarize(kovalevskaya_field(4))
    Y = np.random.default_rng(11).uniform(0.1, 2.0, (rows, 4))
    values = (1e300 * (1 + np.arange(rows) / rows)).tolist()
    eps = _CountingEps(values, budget=10 * rows)
    out = hk_solve(sys_, Y, eps)
    assert all(isinstance(x, SingularStepError) for x in out)
    assert [x.eps for x in out] == values
    assert all(x.state.tobytes() == y.tobytes() for x, y in zip(out, Y))


def test_stacked_engine_refuses_what_the_one_state_engine_refuses():
    sys_ = polarize(kovalevskaya_field(4))
    for bad in (np.ones(4), np.ones((2, 3)), np.ones((2, 4, 1))):
        with pytest.raises(DimensionError, match=r"expected a \(P, 4\) stack"):
            hk_solve(sys_, bad, 0.05)
    Y = np.ones((3, 4))
    Y[2, 1] = np.nan
    with pytest.raises(DomainError, match="state coordinates must be finite"):
        hk_solve(sys_, Y, 0.05)
    with pytest.raises(DomainError, match="state coordinates must be finite"):
        hk_step(sys_, Y[2], 0.05)


def test_an_exactly_singular_row_with_a_nan_bound_fails_alone():
    # its det is 0 and its Hadamard bound NaN, so the regularity test lets it
    # through and the solve of the whole stack raises; each other row still
    # gets its own solution, and that row the error hk_step raises for it
    mats = [np.eye(3), np.array([[np.nan, 0, 0], [0, 0, 0], [0, 0, 1.0]]),
            2.0 * np.eye(3)]

    def build(y, eps):
        y = np.asarray(y)
        if y.ndim == 1:
            return mats[int(y[0])].copy()
        return np.stack([mats[int(row[0])] for row in y])

    sys_ = BilinearStepSystem(3, build)
    Y = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        out = hk_solve(sys_, Y, 0.1)
        with pytest.raises(np.linalg.LinAlgError):
            hk_step(sys_, Y[1], 0.1)
    assert out[0].tolist() == [0.0, 1.0, 1.0]
    assert isinstance(out[1], np.linalg.LinAlgError)
    assert out[2].tolist() == [1.0, 0.5, 0.5]


def test_a_one_state_builder_still_serves_hk_step():
    # a system whose builder takes one state only
    field = kovalevskaya_field(4)
    sys_ = BilinearStepSystem(4, lambda y, eps: _ref_build(field, y, eps))
    y = np.array([0.3, 0.7, 1.1, 1.9])
    assert hk_step(sys_, y, 0.05).tobytes() == \
        _ref_step(field, y, 0.05)[3].tobytes()


# --- the identity battery, a block at a time -----------------------------------


def _ref_starts(n, dim, seed):
    """One uniform draw and one pair test at a time; also returns how many
    draws each start took, and raises where the loop gives up."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(dim, 1)
    out = np.empty((n, dim))
    draws = []
    for row in out:
        for k in range(1, invariants.MAX_START_DRAWS + 1):
            y = rng.uniform(0.1, 2.0, dim)
            a, b = y[i], y[j]
            if np.all(np.abs(a - b) > CANCEL_TOL * (np.abs(a) + np.abs(b))):
                row[:] = y
                draws.append(k)
                break
        else:
            raise ParameterError(
                f"no start at N = {dim} in MAX_START_DRAWS = "
                f"{invariants.MAX_START_DRAWS} draws has every coordinate pair "
                f"separated by CANCEL_TOL = {CANCEL_TOL:g}")
    return out, draws


def _ref_battery(name, n, trials, seed, eps=None):
    """identity_battery before blocks: every start and every eps drawn in one
    call, then one scalar residual per trial, in trial order."""
    residual, (lo, hi), dims = IDENTITIES[name]
    if dims is not None and len(dims) == 1:
        n = dims[0]
    rng = np.random.default_rng([seed, 1])
    eps_list = ([eps] * trials if eps is not None
                else rng.uniform(lo, hi, trials).tolist())
    worst = 0.0
    evaluated = 0
    for y, e in zip(_ref_starts(trials, n, seed)[0].tolist(), eps_list):
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
        return repr(fn(*args))
    except (DomainError, SingularStepError, ParameterError) as exc:
        return type(exc), str(exc)


#: (identity, N, block entries): any-N identities at N = 4 in blocks of 16
#: rows and at N = 24 in blocks of 7 rows; the others at each of their own
#: dimensions, in blocks of 16 rows at N = 4 and 28 at N = 3
_BATTERY_CASES = [(name, n, entries)
                  for name, (_, _, dims) in IDENTITIES.items()
                  for n, entries in ([(4, 256), (24, 4096)] if dims is None
                                     else [(d, 256) for d in dims])]


@pytest.mark.parametrize("name, n, entries", _BATTERY_CASES,
                         ids=[f"{c[0]}-N{c[1]}" for c in _BATTERY_CASES])
def test_battery_in_blocks_matches_the_per_trial_loop(monkeypatch, name, n,
                                                      entries):
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
    block = entries // (n * n)
    lo, hi = IDENTITIES[name][1]
    for trials in (1, block - 1, block, block + 1, 3 * block + 7):
        for seed in (1, 2):
            for eps in (None, lo, hi, 0.35, 3.5e76, 1e300):
                args = (name, n, trials, seed, eps)
                assert _outcome(identity_battery, *args) == \
                    _outcome(_ref_battery, *args), args


def test_engine_battery_in_full_blocks_matches_the_per_trial_loop():
    # at N = 40 a block holds 2^20 // 1600 = 655 trials
    block = invariants._BLOCK_ENTRIES // 1600
    for trials in (1, block - 1, block + 1):
        args = ("engine", 40, trials, 3)
        assert _outcome(identity_battery, *args) == \
            _outcome(_ref_battery, *args), trials


def test_engine_battery_solves_each_block_in_one_call(monkeypatch):
    calls = []
    solve = invariants.hk_solve

    def counting(sys_, Y, eps):
        calls.append(len(Y))
        return solve(sys_, Y, eps)

    monkeypatch.setattr(invariants, "hk_solve", counting)
    monkeypatch.setattr(invariants, "hk_step", None)
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 16 * 25)
    identity_battery("engine", 4, 60, seed=2)
    assert sum(calls) == 60 and len(calls) >= 3 and max(calls) <= 25


def _bits(fn, *args):
    # a result's float bits, or the type and message of its error
    try:
        return fn(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


#: eps None draws each row's eps from the engine's range; at 1e300 and
#: 5e307 the step matrices overflow and every row is singular
@pytest.mark.parametrize("n", [3, 4, 12])
@pytest.mark.parametrize("eps", [None, 1e300, 5e307])
def test_engine_residual_given_its_solved_step_matches_its_own_step(n, eps):
    residual = invariants._engine_residual
    Y = invariants.random_starts(50, n, seed=n)
    lo, hi = IDENTITIES["engine"][1]
    eps_list = (np.random.default_rng(n).uniform(lo, hi, len(Y)).tolist()
                if eps is None else [eps] * len(Y))
    steps = hk_solve(invariants._engine_system(n), Y, eps_list)
    kinds = set()
    for y, e, step in zip(Y.tolist(), eps_list, steps):
        got = _bits(residual, y, e, step)
        assert got == _bits(residual, y, e), (y, e)
        kinds.add(got[0] if isinstance(got, tuple) else float)
    assert kinds == ({float} if eps is None else {SingularStepError})


def test_a_scalar_engine_residual_runs_once_a_trial_without_a_solve(
        monkeypatch):
    calls, solves = [], []

    def scalar(y, eps):
        calls.append((y, eps))
        return 0.0

    monkeypatch.setitem(IDENTITIES, "engine",
                        (scalar, *IDENTITIES["engine"][1:]))
    monkeypatch.setattr(invariants, "hk_solve",
                        lambda *args: solves.append(args))
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 16 * 25)
    assert identity_battery("engine", 4, 60, seed=2) == 0.0
    lo, hi = IDENTITIES["engine"][1]
    eps = np.random.default_rng([2, 1]).uniform(lo, hi, 60).tolist()
    assert calls == list(zip(_ref_starts(60, 4, 2)[0].tolist(), eps))
    assert solves == []


def test_a_fixed_eps_raises_the_first_failing_trials_error(monkeypatch):
    # at eps 3.5e76 the step matrix's det overflows at engine trials 13, 26,
    # 33 and 37 of seed 2: the first is in the fourth block of four trials
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 64)
    with pytest.raises(SingularStepError) as got:
        identity_battery("engine", 4, 30, seed=2, eps=3.5e76)
    with pytest.raises(SingularStepError) as want:
        _ref_battery("engine", 4, 30, seed=2, eps=3.5e76)
    assert str(got.value) == str(want.value)
    assert got.value.state.tolist() == want.value.state.tolist() == \
        _ref_starts(30, 4, 2)[0][13].tolist()


def test_a_start_a_later_block_misses_is_reported_before_an_abort(
        monkeypatch):
    # the engine aborts at its first trial at eps 1e300; with the draw bound
    # just below the longest run of misses, a later start is never found.
    # Drawn up front, the starts gave up before any trial ran
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 2 * 24 * 24)
    cases = 0
    for seed in range(4):
        draws = _ref_starts(20, 24, seed)[1]
        if draws.index(max(draws)) == 0:
            continue
        monkeypatch.setattr(invariants, "MAX_START_DRAWS", max(draws) - 1)
        args = ("engine", 24, 20, seed, 1e300)
        got = _outcome(identity_battery, *args)
        assert got == _outcome(_ref_battery, *args)
        assert got[0] is ParameterError
        monkeypatch.setattr(invariants, "MAX_START_DRAWS", 10**4)
        cases += 1
    assert cases


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_an_overflowing_fixed_eps_aborts_the_engine_check():
    rc, out, err = _cli(["check", "--identity", "engine", "--eps", "1e300"])
    assert (rc, out, err) == (
        2, "", "aborted: step matrix numerically singular (det = -inf)\n")


def test_engine_check_of_2000_trials_at_n40_is_pinned(monkeypatch):
    # most draws at N = 40 are rejected, so the 2000 trials come in many
    # blocks; a block with no accepted start is not solved
    stacks = []

    def spy(system, Y, eps):
        stacks.append(len(Y))
        return hk_solve(system, Y, eps)

    monkeypatch.setattr(invariants, "hk_solve", spy)
    rc, out, err = _cli(["check", "--identity", "engine", "--n", "40",
                         "--trials", "2000", "--seed", "1", "--format",
                         "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["max_residual"] == 5.238188640713931e-13
    assert len(stacks) == 40 and min(stacks) > 0 and sum(stacks) == 2000


# --- bounded draws ----------------------------------------------------------------


@pytest.mark.parametrize("dim, entries", [(4, 64), (6, 200), (20, 4096),
                                          (30, 2**20), (40, 2**20)])
def test_random_starts_in_blocks_match_the_one_row_draw(monkeypatch, dim,
                                                        entries):
    # N = 20-40 rejects most draws (a draw passes with probability 0.66 at
    # N = 20, 0.18 at N = 40), so most blocks are cut by misses
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
    block = entries // (dim * dim)
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        for seed in (0, 5):
            want, draws = _ref_starts(n, dim, seed)
            got = invariants.random_starts(n, dim, seed)
            assert got.tobytes() == want.tobytes(), (n, dim, seed)
    assert dim < 20 or sum(draws) > n


def test_random_starts_give_up_at_the_same_draw_across_blocks(monkeypatch):
    # blocks of 1-3 rows, and bounds at and just above the longest run of
    # misses the stream makes before its last start: a count that restarted
    # at a block edge would return where the one-row draw gives up
    outcomes = set()
    for dim, entries in ((16, 256), (24, 1152), (24, 1728)):
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", entries)
        for seed in range(4):
            _, draws = _ref_starts(20, dim, seed)
            for bound in (max(draws) - 1, max(draws)):
                monkeypatch.setattr(invariants, "MAX_START_DRAWS", bound)
                try:
                    want = _ref_starts(20, dim, seed)[0].tobytes()
                except ParameterError as exc:
                    with pytest.raises(ParameterError) as got:
                        invariants.random_starts(20, dim, seed)
                    assert str(got.value) == str(exc)
                    outcomes.add("raised")
                else:
                    got = invariants.random_starts(20, dim, seed)
                    assert got.tobytes() == want
                    outcomes.add("returned")
                monkeypatch.setattr(invariants, "MAX_START_DRAWS", 10**4)
    assert outcomes == {"raised", "returned"}


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


#: one block's pair test holds about three float (rows, N, N) arrays at
#: once; the bound allows four
_BLOCK_BYTES = 4 * 8 * 2**20


def test_random_starts_hold_one_block_and_the_result():
    peak, out = _traced_peak(invariants.random_starts, 10**5, 4, 3)
    assert peak < out.nbytes + _BLOCK_BYTES


def test_random_starts_memory_follows_the_block(monkeypatch):
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 2**12)
    peak, out = _traced_peak(invariants.random_starts, 10**5, 4, 3)
    assert peak < out.nbytes + 2**20


def test_identity_battery_holds_one_block(monkeypatch):
    monkeypatch.setitem(IDENTITIES, "d-sum",
                        (lambda y, eps: 0.0, *IDENTITIES["d-sum"][1:]))
    peak, _ = _traced_peak(identity_battery, "d-sum", 4, 10**5, 1)
    assert peak < _BLOCK_BYTES
    # 2 * 10^4 trials held at once took some 9 MB
    monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", 2**12)
    peak, _ = _traced_peak(identity_battery, "d-sum", 4, 2 * 10**4, 1)
    assert peak < 2**20
