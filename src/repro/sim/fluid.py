"""Deterministic (weighted) max-min fair-share allocation over index arrays.

This is the rate solver at the heart of the flow-level fidelity tier
(:mod:`repro.flowlevel`): every active subflow is a *participant* with a
fixed set of directed links (its path) and a positive weight, and the
allocation is the classic progressive-filling one — raise every unfrozen
participant's rate in proportion to its weight until some link saturates,
freeze the participants crossing that link, repeat.  The result is the
unique weighted max-min fair allocation for unbounded demands.

Weights are how MPTCP-style *coupling* is approximated: a multipath flow
splits weight ``1/k`` over its ``k`` subflow paths, so at a bottleneck link
shared by all of its subflows (a host's access link, say) the whole flow
weighs exactly as much as a single-path TCP flow — the fairness goal of
coupled congestion control — while still being able to fill several
disjoint paths.

Input is flat arrays rather than dicts: links and participants are integer
indices, and a path is the run of *entries* — (link, owner) pairs — that
belong to one participant.

Determinism: every floating-point operation is elementwise or a sequential
accumulation in a fixed order.  ``np.bincount`` adds each link's weights
one entry at a time in entry order, so entries listed participant by
participant sum in participant order; ``np.argmin`` picks the first minimum
in link-index order.  Equal inputs therefore produce bit-equal outputs on
any platform and in any process — the same bits as a pure-Python
progressive filling that walks participants and links in index order (the
property tests hold the two equal).
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance (to a link's capacity) below which a link's residual
#: capacity counts as zero.  Progressive filling drives the bottleneck
#: link's residual to exactly zero in real arithmetic; this absorbs the
#: float round-off of ``remaining - (remaining / weight) * weight``.
_SATURATION_EPSILON = 1e-9


def max_min_rates(
    capacity: np.ndarray,
    entry_link: np.ndarray,
    entry_owner: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted max-min fair rates for unbounded-demand participants.

    Args:
        capacity: capacity (bits/s) per link index.  A non-positive
            capacity models a failed link: participants crossing it are
            pinned at rate zero (they stall; they do not free their other
            links' shares for ever — they simply hold no bandwidth).
        entry_link / entry_owner: one (link index, participant index) pair
            per link a participant's traffic crosses, each pair at most
            once, listed participant by participant in index order.  Every
            participant needs an entry.
        weights: positive weight per participant index.  Shares on a
            contended link are allocated proportionally to weight.

    Returns:
        allocated rate (bits/s) per participant index, with the guarantees
        the property tests pin: per-link allocations sum to at most the
        link's capacity, and every participant is bottlenecked — its path
        crosses at least one saturated link, or only dead links stalled it.
    """
    capacity = np.asarray(capacity, dtype=float)
    weights = np.asarray(weights, dtype=float)
    links = np.asarray(entry_link, dtype=np.intp)
    owners = np.asarray(entry_owner, dtype=np.intp)
    count = weights.size
    link_count = capacity.size
    rates = np.zeros(count)
    if count == 0:
        return rates
    if links.size != owners.size:
        raise ValueError("entry_link and entry_owner differ in length")
    if links.size and (links.min() < 0 or links.max() >= link_count):
        raise ValueError("an entry crosses an unknown link index")
    entries_per_owner = np.bincount(owners, minlength=count)
    if entries_per_owner.size != count or not entries_per_owner.all():
        raise ValueError("every participant needs a non-empty path of known index")
    if not (weights > 0.0).all():
        raise ValueError("participant weights must be positive")

    remaining = np.maximum(0.0, capacity)
    tolerance = _SATURATION_EPSILON * np.maximum(1.0, capacity)

    # Participants whose path crosses a dead link never receive bandwidth.
    frozen = np.zeros(count, dtype=bool)
    frozen[owners[remaining[links] <= 0.0]] = True
    active = np.flatnonzero(~frozen)
    keep = ~frozen[owners]
    links = links[keep]
    owners = owners[keep]
    entry_weight = weights[owners]
    share = np.empty(link_count)

    while active.size:
        # Aggregate unfrozen weight per link, then find the link that
        # saturates first when every unfrozen participant grows its rate by
        # ``weight * increment``.
        link_weight = np.bincount(links, weights=entry_weight, minlength=link_count)
        share.fill(np.inf)
        np.divide(remaining, link_weight, out=share, where=link_weight > 0.0)
        bottleneck = int(np.argmin(share))
        increment = share[bottleneck]

        # Links no participant crosses any more lose ``increment * 0.0``
        # (nothing) and can no longer freeze anyone, so whole-vector updates
        # leave the allocation exactly as a crossed-links-only walk would.
        remaining -= increment * link_weight
        saturated = remaining <= tolerance
        remaining[saturated] = 0.0
        # The arg-min link is saturated by construction; force it in case
        # round-off left a residual just above the tolerance.
        saturated[bottleneck] = True

        rates[active] += increment * weights[active]
        frozen[owners[saturated[links]]] = True
        keep = ~frozen[owners]
        links = links[keep]
        owners = owners[keep]
        entry_weight = entry_weight[keep]
        active = active[~frozen[active]]

    return rates
