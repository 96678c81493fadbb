"""Golden single-round timelines: Fig. 6(e)–(h) must not move.

Round recovery only ever changes what happens from the second round on,
so a one-round run's timeline is pinned here as a SHA-256 digest.  The
keys are fresh every run, but calibrated simulated time prices only the
metered ops, and the link and fault RNGs are seeded, so the digest is
the same in every process.
"""

import hashlib

from repro.experiments import multi_group
from repro.experiments.concurrent_subjects import build_floor
from repro.experiments.common import make_level_fleet
from repro.net.radio import LinkModel
from repro.net.run import (
    ConcurrentTimeline,
    DiscoveryTimeline,
    RetryPolicy,
    simulate_concurrent_discovery,
    simulate_discovery,
    simulate_multi_group_discovery,
)
from repro.net.topology import paper_multihop

LOSSY_MULTIHOP = "17d72c9e375c8e3c8aceab254cce898980dedc2356ae64f2e541a3bec457c79f"
MULTI_GROUP = "934998aeed3dc99d1a37ab1ecb9e417509f1c5e42e308a1fc797c342ac400add"
CONCURRENT_BURST = "ef4b88e532034e002bfd8470f27ac7abe87a7783777d4483cb7ca4e255b9eeed"
CONCURRENT_RESUMED = "64ac63284a237ef54a3f1f86f01eef9ad27dacff0252b91d9e90eeb18587e809"


def digest(timeline: DiscoveryTimeline) -> str:
    return hashlib.sha256(repr((
        sorted(timeline.completion.items()),
        sorted(timeline.hops.items()),
        sorted(timeline.object_compute_s.items()),
        timeline.subject_compute_s,
        timeline.messages_lost,
        timeline.retransmissions,
    )).encode()).hexdigest()


def concurrent_digest(timeline: ConcurrentTimeline) -> str:
    return hashlib.sha256(repr((
        sorted(timeline.subject_completion.items()),
        sorted(timeline.discovered_counts.items()),
    )).encode()).hexdigest()


def test_lossy_multihop_single_round_is_pinned():
    subject, objects, _ = make_level_fleet(12, 2)
    graph = paper_multihop([c.object_id for c in objects], 4)
    timeline = simulate_discovery(
        subject, objects, graph=graph, link=LinkModel(loss_rate=0.1),
        seed=11, max_rounds=1, retry=RetryPolicy(),
    )
    # Loss over four hops leaves part of the fleet unfound in one round.
    assert 0 < len(timeline.completion) < 12
    assert timeline.retransmissions > 0
    assert digest(timeline) == LOSSY_MULTIHOP


def test_multi_group_discovery_is_pinned():
    subject, objects = multi_group.build(2)
    merged, _ = simulate_multi_group_discovery(subject, objects)
    assert digest(merged) == MULTI_GROUP


def test_concurrent_burst_is_pinned():
    subjects, objects = build_floor(3, 4)
    timeline = simulate_concurrent_discovery(subjects, objects, seed=3)
    assert timeline.discovered_counts == {s.subject_id: 4 for s in subjects}
    assert concurrent_digest(timeline) == CONCURRENT_BURST


def test_concurrent_resumption_is_pinned():
    subjects, objects = build_floor(3, 4)
    timeline = simulate_concurrent_discovery(subjects, objects, seed=3, resumption=True)
    assert timeline.discovered_counts == {s.subject_id: 4 for s in subjects}
    assert concurrent_digest(timeline) == CONCURRENT_RESUMED
