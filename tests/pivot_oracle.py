"""Pivot tables two older ways: the tests' oracle for ``pivot_table_exact``.

``exact_pair_probs`` enumerates every composition of ``eta`` ballots and
sums the multinomial weight of each pivot event, so it serves any m at small
eta.  ``closed_form_pair_probs`` is the m <= 3 closed form that the exact
kernel reduces to for one other candidate, kept as it was to pin that
reduction bit for bit.  ``scipy_log_weights`` is the kernel's (pairs x t)
grid of log-weights as it was computed from scipy's ``gammaln`` and
``xlogy``, before the kernel took its logs from libm.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from stratvote.core import Poll
from stratvote.pivot import _belief_probabilities, _pair_event_weights


def composition_blocks(total: int, parts: int) -> Iterator[np.ndarray]:
    """Yield int64 arrays jointly covering every composition of ``total``.

    Blocks are grouped by the leading coordinates so memory stays
    O(total * parts) even when the full composition count is large.
    """
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    if parts == 2:
        first = np.arange(total + 1, dtype=np.int64)
        yield np.stack([first, total - first], axis=1)
        return
    for head in range(total + 1):
        for rest in composition_blocks(total - head, parts - 1):
            block = np.empty((rest.shape[0], parts), dtype=np.int64)
            block[:, 0] = head
            block[:, 1:] = rest
            yield block


def exact_pair_probs(poll: Poll, eta: int) -> np.ndarray:
    """Every ``P(x, y)`` by summing over all compositions of ``eta``."""
    from scipy.special import gammaln, xlogy

    p = _belief_probabilities(poll.scores)
    log_fact = gammaln(np.arange(eta + 1) + 1.0)
    log_total = log_fact[eta]
    acc = np.zeros((poll.m, poll.m))
    for block in composition_blocks(eta, poll.m):
        log_pmf = log_total - log_fact[block].sum(axis=1) + xlogy(block, p).sum(axis=1)
        pmf = np.exp(log_pmf)
        if pmf.any():
            acc += _pair_event_weights(block, pmf)
    return acc


def closed_form_pair_probs(poll: Poll, eta: int) -> np.ndarray:
    """Exact ``P(x, y)`` for m <= 3 as a sum over the leader's count ``t``.

    With z the third candidate, y's extra ballot is pivotal against x on a
    sole lead (x = t, y = t-1, z = eta-2t+1) or on a two-way tie
    (x = y = t, z = eta-2t), with 0 <= z <= t-1 in both.  An m = 2 poll gets
    a phantom third candidate of probability zero; ``xlogy`` gives its
    nonzero counts probability zero.  Each entry is computed from its own
    pair's probabilities in (x, y, z) order, never in candidate order, so
    relabeling the poll permutes the table bit for bit.
    """
    from scipy.special import gammaln, xlogy

    p = np.append(_belief_probabilities(poll.scores), np.zeros(3 - poll.m))
    x, y = np.array([(x, y) for x in range(poll.m) for y in range(poll.m) if x != y]).T
    z = 3 - x - y
    # lead = 1 is the sole-lead family, lead = 0 the tie family.
    t = [np.arange((eta + lead + 3) // 3, (eta + lead) // 2 + 1) for lead in (1, 0)]
    top = np.concatenate(t)
    near = np.concatenate([t[0] - 1, t[1]])
    rest = eta - top - near
    log_pmf = (
        gammaln(eta + 1.0)
        - gammaln(top + 1.0)
        - gammaln(near + 1.0)
        - gammaln(rest + 1.0)
        + xlogy(top, p[x, None])
        + xlogy(near, p[y, None])
        + xlogy(rest, p[z, None])
    )
    out = np.zeros((poll.m, poll.m))
    out[x, y] = np.exp(log_pmf).sum(axis=1)
    return out


def scipy_log_weights(pairs, eta: int) -> np.ndarray:
    """Every row of ``pivot._Pairs.t_grids(eta)``'s log-weights, from scipy."""
    from scipy.special import gammaln, xlogy

    m = pairs.share.shape[1] + 2
    t = [np.arange((eta + lead + 2 * m - 3) // m, (eta + lead) // 2 + 1) for lead in (1, 0)]
    top = np.concatenate(t)
    near = np.concatenate([t[0] - 1, t[1]])
    rest = eta - top - near
    return (
        gammaln(eta + 1.0)
        - gammaln(top + 1.0)
        - gammaln(near + 1.0)
        - gammaln(rest + 1.0)
        + xlogy(top, pairs.p[pairs.x, None])
        + xlogy(near, pairs.p[pairs.y, None])
        + xlogy(rest, pairs.rest[:, None])
    )
