"""Property tests for the weighted max-min fair-share solver.

The fluid tier's entire bandwidth model reduces to
:func:`repro.sim.fluid.max_min_rates`; these properties pin the two
invariants every allocation must satisfy — feasibility (no link carries more
than its capacity) and work conservation (every participant is bottlenecked
somewhere on its path) — plus the weighted-fairness and dead-link behaviour
the engine's multipath coupling relies on.

The solver works on index arrays.  :func:`_reference_rates` is a pure-Python
progressive filling over named links and sortable participant keys, walking
both in sorted order; the oracle property holds the array solver to it
bit for bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.fluid import _SATURATION_EPSILON, max_min_rates

_LINKS = ("l0", "l1", "l2", "l3", "l4")


def path_entries(paths: Iterable[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-participant paths into ``(entry_link, entry_owner)`` arrays.

    Participant ``i`` is the ``i``-th path.  A link repeated within one path
    is kept once — a participant cannot congest a link with itself twice.
    """
    links = []
    owners = []
    for owner, path in enumerate(paths):
        unique = dict.fromkeys(path)
        links.extend(unique)
        owners.extend([owner] * len(unique))
    return np.array(links, dtype=np.intp), np.array(owners, dtype=np.intp)


def _solve(
    capacities: Mapping[str, float],
    paths: Mapping[Hashable, Sequence[str]],
    weights: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, float]:
    """Run the array solver on named links and keyed participants.

    Links are indexed in sorted-name order and participants in sorted-key
    order, the layout the flow-level engine uses.
    """
    names = sorted(capacities)
    index = {name: position for position, name in enumerate(names)}
    keys = sorted(paths)
    entry_link, entry_owner = path_entries([index[link] for link in paths[key]] for key in keys)
    rates = max_min_rates(
        np.array([capacities[name] for name in names], dtype=float),
        entry_link,
        entry_owner,
        np.array([1.0 if weights is None else weights[key] for key in keys], dtype=float),
    )
    return dict(zip(keys, rates.tolist()))


def _reference_rates(
    capacities: Mapping[str, float],
    paths: Mapping[Hashable, Sequence[str]],
    weights: Mapping[Hashable, float],
) -> Dict[Hashable, float]:
    """Progressive filling over dicts, one link and one participant at a time."""
    link_sets = {key: tuple(dict.fromkeys(paths[key])) for key in sorted(paths)}
    remaining = {link: max(0.0, capacities[link]) for path in link_sets.values() for link in path}
    rates = {key: 0.0 for key in link_sets}
    active = [key for key in link_sets if all(remaining[link] > 0.0 for link in link_sets[key])]
    while active:
        link_weight: Dict[str, float] = {}
        for key in active:
            for link in link_sets[key]:
                link_weight[link] = link_weight.get(link, 0.0) + weights[key]
        bottleneck = ""
        increment = -1.0
        for link in sorted(link_weight):
            share = remaining[link] / link_weight[link]
            if increment < 0.0 or share < increment:
                increment = share
                bottleneck = link
        saturated = {bottleneck}
        for link in sorted(link_weight):
            remaining[link] -= increment * link_weight[link]
            if remaining[link] <= _SATURATION_EPSILON * max(1.0, capacities[link]):
                remaining[link] = 0.0
                saturated.add(link)
        for key in active:
            rates[key] += increment * weights[key]
        active = [key for key in active if saturated.isdisjoint(link_sets[key])]
    return rates


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_capacities = st.fixed_dictionaries(
    {name: st.floats(min_value=1e3, max_value=1e9) for name in _LINKS}
)

#: Capacities drawn from a few values (equal-share ties across links) or
#: zero (dead links).
_tie_prone_capacities = st.fixed_dictionaries(
    {name: st.sampled_from((0.0, 100.0, 100.0, 300.0, 1e9 / 3, 1e8)) for name in _LINKS}
)

_paths = st.dictionaries(
    keys=st.integers(min_value=0, max_value=15),
    values=st.lists(st.sampled_from(_LINKS), min_size=1, max_size=4),
    min_size=1,
    max_size=8,
)

_weights_values = st.floats(min_value=0.1, max_value=8.0)

#: Non-dyadic weights (1/3, 1/9, ...) as well as the multipath 1/k splits.
_exact_weights = (
    st.sampled_from((1.0, 0.5, 0.25, 1.0 / 3, 1.0 / 9, 2.0 / 3, 1.0 / 6)) | _weights_values
)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


@given(capacities=_capacities | _tie_prone_capacities, paths=_paths, data=st.data())
@settings(max_examples=400, deadline=None)
def test_array_solver_equals_the_reference_bit_for_bit(capacities, paths, data) -> None:
    weights = {key: data.draw(_exact_weights, label=f"weight[{key}]") for key in paths}
    assert _solve(capacities, paths, weights) == _reference_rates(capacities, paths, weights)


def test_oracle_cases_cover_dead_links_repeats_and_ties() -> None:
    capacities = {"l0": 0.0, "l1": 100.0, "l2": 100.0, "l3": 300.0}
    paths = {
        0: ["l0", "l1"],  # stalled on the dead link
        1: ["l1", "l2", "l1"],  # l1 repeated within one path
        2: ["l2"],
        3: ["l1", "l3"],
        4: ["l3"],
    }
    weights = {0: 1.0, 1: 1.0 / 3, 2: 1.0 / 9, 3: 1.0 / 3, 4: 1.0 / 9}
    rates = _solve(capacities, paths, weights)
    assert rates == _reference_rates(capacities, paths, weights)
    assert rates[0] == 0.0


# ---------------------------------------------------------------------------
# Allocation properties
# ---------------------------------------------------------------------------


@given(capacities=_capacities, paths=_paths, data=st.data())
@settings(max_examples=200, deadline=None)
def test_feasible_and_work_conserving(capacities, paths, data) -> None:
    """Per-link load never exceeds capacity; every participant is bottlenecked."""
    weights = {
        key: data.draw(_weights_values, label=f"weight[{key}]") for key in paths
    }
    rates = _solve(capacities, paths, weights)

    assert set(rates) == set(paths)
    assert all(rate >= 0.0 for rate in rates.values())

    load = {name: 0.0 for name in _LINKS}
    for key, path in paths.items():
        for link in dict.fromkeys(path):  # a repeated link counts once
            load[link] += rates[key]
    for name in _LINKS:
        assert load[name] <= capacities[name] * (1.0 + 1e-9)

    # Work conservation: every participant crosses at least one saturated
    # link — otherwise its rate could still be raised, contradicting max-min.
    for key, path in paths.items():
        assert any(
            load[link] >= capacities[link] * (1.0 - 1e-6) for link in path
        ), f"participant {key} is not bottlenecked anywhere on {path}"


@given(
    capacity=st.floats(min_value=1e3, max_value=1e9),
    count=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_equal_weights_share_a_single_link_equally(capacity, count) -> None:
    paths = {index: ["only"] for index in range(count)}
    rates = _solve({"only": capacity}, paths)
    expected = capacity / count
    for rate in rates.values():
        assert rate == pytest.approx(expected, rel=1e-9)


def test_weighted_shares_follow_the_weight_ratio() -> None:
    rates = _solve(
        {"only": 100.0},
        {"light": ["only"], "heavy": ["only"]},
        {"light": 1.0, "heavy": 3.0},
    )
    assert rates["light"] == pytest.approx(25.0)
    assert rates["heavy"] == pytest.approx(75.0)


def test_multipath_coupling_weighs_like_one_flow() -> None:
    """Two 1/2-weight subflows sharing a bottleneck with one whole flow:
    the multipath flow gets half the link in aggregate, as MPTCP's coupled
    congestion control intends."""
    rates = _solve(
        {"shared": 100.0},
        {("mp", 0): ["shared"], ("mp", 1): ["shared"], ("tcp", 0): ["shared"]},
        {("mp", 0): 0.5, ("mp", 1): 0.5, ("tcp", 0): 1.0},
    )
    assert rates[("mp", 0)] + rates[("mp", 1)] == pytest.approx(50.0)
    assert rates[("tcp", 0)] == pytest.approx(50.0)


def test_multipath_fills_a_disjoint_path_beyond_the_coupled_share() -> None:
    """A subflow on an uncontended path is not held back by its sibling's
    bottleneck: weighted max-min still fills the empty path."""
    rates = _solve(
        {"contended": 100.0, "empty": 100.0},
        {("mp", 0): ["contended"], ("mp", 1): ["empty"], ("tcp", 0): ["contended"]},
        {("mp", 0): 0.5, ("mp", 1): 0.5, ("tcp", 0): 1.0},
    )
    assert rates[("mp", 1)] == pytest.approx(100.0)
    assert rates[("mp", 0)] + rates[("tcp", 0)] == pytest.approx(100.0)


def test_two_link_path_is_limited_by_the_tighter_link() -> None:
    rates = _solve({"wide": 100.0, "narrow": 10.0}, {"flow": ["wide", "narrow"]})
    assert rates["flow"] == pytest.approx(10.0)


def test_dead_link_pins_participants_to_zero() -> None:
    rates = _solve(
        {"dead": 0.0, "live": 100.0},
        {"stalled": ["dead", "live"], "ok": ["live"]},
    )
    assert rates["stalled"] == 0.0
    assert rates["ok"] == pytest.approx(100.0)


def test_unknown_link_and_empty_path_are_rejected() -> None:
    capacity = np.array([1.0])
    with pytest.raises(ValueError, match="unknown link"):
        max_min_rates(capacity, [1], [0], [1.0])
    with pytest.raises(ValueError, match="non-empty path"):
        max_min_rates(capacity, [0], [0], [1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        max_min_rates(capacity, [0], [0], [0.0])
    assert max_min_rates(capacity, [], [], []).size == 0


def test_allocation_is_deterministic_and_order_independent() -> None:
    capacities = {"x": 50.0, "y": 75.0, "z": 100.0}
    forward = {1: ["x", "y"], 2: ["y", "z"], 3: ["z"], 4: ["x"]}
    backward = dict(reversed(list(forward.items())))
    assert _solve(capacities, forward) == _solve(capacities, backward)
    entry_link, entry_owner = path_entries([[0, 1], [1, 2], [2], [0]])
    capacity = np.array([50.0, 75.0, 100.0])
    first = max_min_rates(capacity, entry_link, entry_owner, np.ones(4))
    assert first.tobytes() == max_min_rates(capacity, entry_link, entry_owner, np.ones(4)).tobytes()
