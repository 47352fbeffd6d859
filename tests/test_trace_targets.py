"""The benchmark's tracer wraps package functions by (module, attribute) name.

perfbench/tracing.py is loaded read-only from its path: a rename in the
package then fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, a, _ in TRACING.SPAN_TARGETS + TRACING.COUNT_TARGETS] + [TRACING.SITE_BUILDER],
    ids=lambda value: value,
)
def test_traced_target_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_gossip_round_hook_reads_every_round_type():
    # the hook reads weights.entries of every round it sees, dense or pairwise
    from gossipgn.gossip import PairwiseRound, build_cse_weights, gossip_round

    tracer = TRACING.Tracer()
    traced = tracer.span("gossip.round", gossip_round, TRACING.AFTER_HOOKS["gossip.round"])
    payloads = np.arange(12.0).reshape(4, 3)
    for weights in (build_cse_weights(4, 0.3), PairwiseRound(4, (0, 2), 0.5), PairwiseRound(4, (), 0.5)):
        traced(payloads, weights)
    assert TRACING.span_table(tracer.spans)["gossip.round"]["calls"] == 3
    assert tracer.counts["gossip.effective_rounds"] == 2


def test_traced_ggn_run_attributes_payloads_and_exact_systems(grid30, true30):
    # each update's payload rows come from local_init_info, one per agent, and
    # its exact systems from normal_system, one per distinct agent iterate
    from gossipgn.ggn import ExchangeSchedule, GgnConfig, ggn_run
    from gossipgn.gossip import GossipConfig
    from gossipgn.psse import (
        build_nlls_sites,
        flat_start_vector,
        make_box,
        partition_sites,
        streaming_snapshots,
    )

    z = streaming_snapshots(grid30, true30, 1e-4, 1, 2)[0]
    sites = build_nlls_sites(grid30, partition_sites(grid30, 5), z)
    config = GgnConfig(
        alpha=1.0, schedule=ExchangeSchedule("constant", 4), max_updates=3, stop_tol=1e-15, ridge=1e-4
    )
    gossip = GossipConfig(kind="ure", beta=0.3, link_failure_prob=0.2)
    with TRACING.instrumented(TRACING.Tracer()) as tracer:
        run = ggn_run(sites, make_box(grid30.n_buses), gossip, config, flat_start_vector(grid30), rng=4)
    table = TRACING.span_table(tracer.spans)
    distinct = [len({row.tobytes() for row in xs}) for xs in run.iterates[:-1]]
    assert run.n_updates == 3 and distinct[0] == 1 and distinct[1:] == [5, 5]
    assert table["core.normal_system"]["calls"] == sum(distinct)
    assert table["ggn.local_init_info"]["calls"] == 5 * (run.n_updates + 1)
