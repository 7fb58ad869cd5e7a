"""Seeded fuzz: executed propagation MACs equal the demand closure exactly.

The fused engine computes ``X^(j)`` for a row only when a still-active
target needs it, so its propagation ledger must be
``F · Σ_j Σ_{v ∈ S_j} nnz(Â[v])`` with ``S_j`` the demand closure of the
targets' exit depths (:func:`~repro.graph.sampling.demand_closure`, an
independent BFS).  This suite checks that equality — not a bound — on
random community graphs with hubs and isolated nodes, duplicate targets,
``t_min`` of 1 and 2 and every NAP policy, through every way a batch
reaches the engine: the global CSR, a bundle, a server with the subgraph
cache on and off, 1/2/4 shards and waves of width 1/2/4/8.  Predictions
and exit depths are checked against ``engine="reference"`` throughout.
"""

import numpy as np
import pytest

from repro.core import GateNAP, NAIConfig, NAIPredictor, ServingConfig, ShardConfig
from repro.core.distance_nap import DistanceNAP
from repro.graph import CSRGraph, closure_propagation_macs, demand_closure
from repro.graph.generators import SyntheticGraphSpec, generate_community_graph
from repro.models import SGC
from repro.serving import InferenceServer, execute_wave
from repro.shard import ShardedPredictor

NUM_FEATURES = 5
DEPTH = 3
BATCH = 16


def fuzz_graph(seed: int) -> CSRGraph:
    """A community graph plus two hubs and a few isolated nodes."""
    spec = SyntheticGraphSpec(
        num_nodes=150, num_classes=3, avg_degree=4.0, degree_exponent=2.3
    )
    graph, _ = generate_community_graph(spec, rng=seed)
    rng = np.random.default_rng(seed)
    coo = graph.adjacency.tocoo()
    keep = coo.row < coo.col
    edges = set(zip(coo.row[keep].tolist(), coo.col[keep].tolist()))
    isolated = set(rng.choice(graph.num_nodes, size=4, replace=False).tolist())
    hubs = [h for h in rng.permutation(graph.num_nodes).tolist() if h not in isolated][:2]
    for hub in hubs:
        for other in rng.choice(graph.num_nodes, size=40, replace=False).tolist():
            if other != hub:
                edges.add((min(hub, other), max(hub, other)))
    edges = [(a, b) for a, b in edges if a not in isolated and b not in isolated]
    return CSRGraph.from_edges(edges, num_nodes=graph.num_nodes)


def make_policy(name: str, seed: int):
    if name == "none":
        return None
    if name == "distance":
        return DistanceNAP(0.4)
    # Seeded random gate weights: arbitrary but deterministic exits are all
    # the ledger needs, so the gates skip training.
    gate = GateNAP(NUM_FEATURES, DEPTH, rng=seed)
    gate.fitted = True
    return gate


@pytest.fixture(scope="module", params=[0, 1, 2])
def world(request):
    seed = request.param
    graph = fuzz_graph(seed)
    rng = np.random.default_rng(seed + 100)
    features = rng.normal(size=(graph.num_nodes, NUM_FEATURES)).astype(np.float32)
    classifiers = SGC(NUM_FEATURES, 3, depth=DEPTH, rng=seed).make_all_classifiers()
    # Duplicate targets on purpose, and every isolated node among them.
    isolated = np.flatnonzero(np.diff(graph.adjacency.indptr) == 0)
    assert isolated.size > 0
    targets = np.concatenate(
        (rng.choice(graph.num_nodes, size=6 * BATCH - isolated.size), isolated)
    )
    rng.shuffle(targets)
    return seed, graph, features, classifiers, targets


def deploy(world, policy_name: str, t_min: int, engine: str = "fused") -> NAIPredictor:
    seed, graph, features, classifiers, _ = world
    config = NAIConfig(t_min=t_min, t_max=DEPTH, batch_size=BATCH, engine=engine)
    predictor = NAIPredictor(
        classifiers, policy=make_policy(policy_name, seed), config=config
    )
    return predictor.prepare(graph, features)


def closure_macs(indptr, indices, rows, depths) -> int:
    """``F · Σ_j nnz(S_j)`` for one batch, from the oracle closure."""
    row_nnz = np.diff(indptr)
    return NUM_FEATURES * sum(
        int(row_nnz[level].sum())
        for level in demand_closure(indptr, indices, rows, depths, DEPTH)
    )


COMBOS = [
    (policy, t_min) for policy in ("none", "distance", "gate") for t_min in (1, 2)
]


@pytest.mark.parametrize("policy,t_min", COMBOS)
class TestDemandClosureLedger:
    def test_global_path_and_bundles(self, world, policy, t_min):
        targets = world[4]
        reference = deploy(world, policy, t_min, engine="reference").predict(targets)
        predictor = deploy(world, policy, t_min)
        fused = predictor.predict(targets)
        np.testing.assert_array_equal(fused.predictions, reference.predictions)
        np.testing.assert_array_equal(fused.depths, reference.depths)
        a_hat = predictor._a_hat
        expected = closure_propagation_macs(
            a_hat, targets, reference.depths,
            t_max=DEPTH, batch_size=BATCH, num_features=NUM_FEATURES,
        )
        assert fused.macs.propagation == expected
        assert fused.macs.propagation <= reference.macs.propagation
        if policy == "none" or t_min == DEPTH:
            assert fused.macs.propagation == reference.macs.propagation
        assert fused.timings.sampling == 0.0  # the global path samples nothing

        # The same batches replayed from bundles: identical answers and
        # ledger, and the closure over the bundle's local CSR agrees.
        engine = predictor.make_engine()
        for start in range(0, targets.size, BATCH):
            batch = targets[start:start + BATCH]
            bundle = engine.build_support(batch)
            result = engine.run_batch(batch, bundle=bundle)
            np.testing.assert_array_equal(
                result.depths, reference.depths[start:start + BATCH]
            )
            np.testing.assert_array_equal(
                result.predictions, reference.predictions[start:start + BATCH]
            )
            assert result.macs.propagation == closure_macs(
                bundle.indptr, bundle.indices, bundle.support.target_local,
                result.depths,
            )
            assert result.macs.propagation == closure_macs(
                a_hat.indptr, a_hat.indices, batch, result.depths
            )

    @pytest.mark.parametrize("cache_capacity", [0, 32])
    def test_server_with_cache_on_and_off(self, world, policy, t_min, cache_capacity):
        targets = world[4]
        predictor = deploy(world, policy, t_min)
        a_hat = predictor._a_hat
        oracle = predictor.predict(targets)
        requests = [targets[start:start + BATCH] for start in range(0, targets.size, BATCH)]
        config = ServingConfig(
            num_workers=2, max_batch_size=BATCH, max_wait_ms=0.5,
            cache_capacity=cache_capacity,
        )
        with InferenceServer(predictor, config) as server:
            responses = server.predict_many(requests + requests[:2], timeout=60.0)
        served = np.concatenate([r.depths for r in responses[: len(requests)]])
        np.testing.assert_array_equal(served, oracle.depths)
        for response in responses:
            assert response.batch_num_requests == 1
            assert response.batch_macs.propagation == closure_macs(
                a_hat.indptr, a_hat.indices, response.node_ids, response.depths
            )

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded(self, world, policy, t_min, num_shards):
        seed, graph, features, classifiers, targets = world
        predictor = deploy(world, policy, t_min)
        oracle = predictor.predict(targets)
        sharded = ShardedPredictor(
            classifiers,
            policy=make_policy(policy, seed),
            config=NAIConfig(t_min=t_min, t_max=DEPTH, batch_size=BATCH),
        ).prepare(graph, features, ShardConfig(num_shards=num_shards))
        result = sharded.predict(targets)
        np.testing.assert_array_equal(result.predictions, oracle.predictions)
        np.testing.assert_array_equal(result.depths, oracle.depths)
        assert result.macs.propagation == oracle.macs.propagation
        assert result.macs.propagation == closure_propagation_macs(
            predictor._a_hat, targets, oracle.depths,
            t_max=DEPTH, batch_size=BATCH, num_features=NUM_FEATURES,
        )

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_waves(self, world, policy, t_min, width):
        targets = world[4]
        predictor = deploy(world, policy, t_min)
        a_hat = predictor._a_hat
        engine = predictor.make_engine()
        members = [targets[start:start + BATCH // 2] for start in range(0, 8 * (BATCH // 2), BATCH // 2)]
        for first in range(0, len(members), width):
            wave = execute_wave(engine, members[first:first + width])
            union = np.concatenate(members[first:first + width])
            depths = wave.result.depths
            # The sweep executed exactly the union's closure, and the
            # attribution (which raises unless it reconciles) splits it.
            assert wave.result.macs.propagation == closure_macs(
                a_hat.indptr, a_hat.indices, union, depths
            )
            assert wave.attribution.total.propagation == wave.result.macs.propagation
            for index, member in enumerate(members[first:first + width]):
                alone = engine.run_batch(member)
                np.testing.assert_array_equal(wave.member_depths(index), alone.depths)
                np.testing.assert_array_equal(
                    wave.member_predictions(index), alone.predictions
                )
                # A member never pays more than its own closure.
                assert wave.member_macs(index).propagation <= alone.macs.propagation
            # The split rule, row by row: each member needing a row pays
            # floor(row MACs / needers); the lowest-indexed needer also pays
            # the remainder.
            closures = [
                demand_closure(
                    a_hat.indptr, a_hat.indices, member,
                    wave.member_depths(index), DEPTH,
                )
                for index, member in enumerate(members[first:first + width])
            ]
            expected = [0] * len(closures)
            row_nnz = np.diff(a_hat.indptr)
            for level in range(DEPTH):
                needers: dict[int, list[int]] = {}
                for index, closure in enumerate(closures):
                    for row in closure[level].tolist():
                        needers.setdefault(row, []).append(index)
                for row, owners in needers.items():
                    cost = int(row_nnz[row]) * NUM_FEATURES
                    for index in owners:
                        expected[index] += cost // len(owners)
                    expected[owners[0]] += cost % len(owners)
            assert [
                wave.member_macs(index).propagation for index in range(len(closures))
            ] == expected
