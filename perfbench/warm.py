"""Set-up probe: import `kovtop.cli` and make the first call into each kernel
(`map_orbit`, `map_step`, and `rk4_orbit` with each of its three right-hand
sides).  A kernel compile (numba) lands here, not in the timed jobs.

    python3 perfbench/warm.py

The benchmark times this script in fresh interpreters for `setup_s`, and
calls `first_calls` in its own process before timing.  Every workload uses a
subset of these kernels.  The calls go through public entry points
(`DiscreteMap.orbit`, `DiscreteMap.step`, `rk4_states`), so they stay valid
when the kernels behind them change.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import kovtop.cli  # noqa: E402,F401
from kovtop import flows, maps  # noqa: E402


def first_calls() -> None:
    m = maps.get_map("gen-hk", 3)
    m.orbit([0.3, 0.4, 0.5], 0.01, 2)
    m.step([0.3, 0.4, 0.5], 0.01)
    for flow in (flows.generalized_kovalevskaya(3), flows.generalized_euler(3),
                 flows.quadratic_flow(flows.kovalevskaya_field(3))):
        flows.rk4_states(flow, [0.3, 0.4, 0.5], 0.001, 2)


if __name__ == "__main__":
    first_calls()
