"""Property test: a config drawn from the schema, valid or not, either
fails in ``load_config`` with a message that starts with a dotted key, or
completes a short run; the one data-dependent rejection is an empty shard.
"""

import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optivote import orchestrator
from optivote.config import SCHEMES, load_config
from optivote.errors import ConfigError

from conftest import UNIT_CFSPL


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


NON_FINITE = (math.nan, math.inf, -math.inf)

# Every key of the schema but output.dir and the IDX paths: a strategy of
# values that pass its own range check (sizes stay small, runs take at most
# 2 rounds), and values that must not.  Cross-field rules (d_min_km <
# d_max_km, p_min <= p_avg <= p_max, m <= M, an L1_estimate leaves eta at its
# default) and empty shards also come up among the passing values.
KEYS = {
    "channel.d_min_km": (floats(100.0, 1500.0), (0.0, -1.0, *NON_FINITE)),
    "channel.d_max_km": (floats(200.0, 5000.0), (1e200, math.inf)),
    "channel.a0": (floats(0.05, 1.0), (0.0, 1.5, -0.1)),
    "channel.xi_p": (floats(0.1, 10.0), (0.0, -1.0, 1e-200, 1e200)),
    "channel.sigma_n2": (floats(0.0, 10.0), (-0.1, math.inf)),
    "channel.c_fspl": (st.sampled_from([UNIT_CFSPL, 1.75e12, 1e14]),
                       (0.0, -1.0, 1e308, 1e-320, None)),
    "power.p_avg": (floats(0.1, 2.0), (0.0, math.nan)),
    "power.p_min": (floats(0.01, 0.5), (0.0, -0.1)),
    "power.p_max": (floats(1.0, 4.0), (0.05, math.inf)),
    "power.rho": (floats(0.0, 1.0), (-0.1, math.inf)),
    "power.abar_scope": (st.sampled_from(["all", "active"]), ("some",)),
    "learner.dataset.type": (st.just("synthetic"), ("mnist",)),
    "learner.dataset.num_classes": (st.integers(1, 5), (0,)),
    "learner.dataset.n": (st.integers(1, 120), (0, -5)),
    "learner.dataset.n_test": (st.integers(1, 40), (0,)),
    "learner.dataset.d": (st.integers(1, 6), (0,)),
    "learner.dataset.separation": (floats(0.0, 6.0), (math.nan,)),
    "learner.model.arch": (st.sampled_from(["logistic", "mlp"]), ("cnn",)),
    "learner.model.hidden": (st.integers(1, 8), (0,)),
    "learner.partition.mode": (st.sampled_from(["iid", "noniid"]), ("dirichlet",)),
    "learner.partition.labels_per_node": (st.integers(1, 6), (0,)),
    "learner.local_steps": (st.integers(1, 3), (0,)),
    "run.M": (st.integers(1, 6), (0, -1)),
    "run.m": (st.integers(1, 6), (0,)),
    "run.rounds": (st.integers(0, 2), (-1,)),
    "run.d_b": (st.integers(1, 16), (0,)),
    "run.eta": (floats(1e-3, 0.5), (0.0, math.nan)),
    "run.L1_estimate": (st.sampled_from([None, 0.5, 10.0]), (0.0, -1.0)),
    "run.scheme": (st.sampled_from(SCHEMES), ("coherent",)),
    "run.seed": (st.integers(0, 2**31 - 1), (-1,)),
    "output.dump_power": (st.booleans(), ("maybe",)),
    "output.dump_slots": (st.booleans(), ("maybe",)),
}

INVALID = [(key, value) for key, (_, values) in KEYS.items() for value in values]


@st.composite
def dotted_overrides(draw):
    """Passing values for some keys, then up to two invalid (key, value) pairs."""
    drawn = draw(st.fixed_dictionaries({}, optional={k: v for k, (v, _) in KEYS.items()}))
    drawn.update(draw(st.lists(st.sampled_from(INVALID), max_size=2)))
    return drawn


# A key left out of a draw keeps this small run's value, or the default.
SMALL = {
    "learner": {"dataset": {"n": 60, "n_test": 20, "d": 4}},
    "run": {"M": 4, "m": 2, "rounds": 2, "d_b": 8},
}
DOTTED_KEY = re.compile(r"[A-Za-z_]\w*(\.\w+)+\b")


# derandomize: tier-1 replays the same draws every time.
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dotted_overrides())
def test_config_is_rejected_naming_a_key_or_runs(overrides):
    try:
        cfg = load_config(SMALL, overrides)
    except ConfigError as err:
        assert DOTTED_KEY.match(str(err)), str(err)
        return
    try:
        orchestrator.run(cfg)
    except ConfigError as err:
        assert str(err).startswith("run.M / learner.partition: "), str(err)
