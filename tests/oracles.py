"""Independent brute-force references for the aggregation rules, impacts and model scores.

Everything here is deliberately written in plain Python loops over floats,
without touching the library implementations, so the tests compare two
independently derived answers.
"""

from __future__ import annotations

import math


def sq_dist(a, b) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def oracle_mean(rows):
    m = len(rows)
    return [sum(r[j] for r in rows) / m for j in range(len(rows[0]))]


def oracle_krum_scores(rows, assumed_bad):
    m = len(rows)
    neighbors = m - assumed_bad - 2
    scores = []
    for i in range(m):
        dists = sorted(sq_dist(rows[i], rows[j]) for j in range(m) if j != i)
        scores.append(sum(dists[:neighbors]))
    return scores


def oracle_krum(rows, assumed_bad):
    scores = oracle_krum_scores(rows, assumed_bad)
    best = min(range(len(rows)), key=lambda i: (scores[i], i))
    return best, list(rows[best])


def oracle_trimmed_mean(rows, trim):
    m = len(rows)
    out = []
    for j in range(len(rows[0])):
        ordered = sorted(r[j] for r in rows)
        kept = ordered[trim : m - trim]
        out.append(sum(kept) / len(kept))
    return out


def oracle_median(rows):
    m = len(rows)
    out = []
    for j in range(len(rows[0])):
        ordered = sorted(r[j] for r in rows)
        if m % 2 == 1:
            out.append(ordered[m // 2])
        else:
            out.append((ordered[m // 2 - 1] + ordered[m // 2]) / 2)
    return out


def oracle_bulyan(rows, assumed_bad, select_count, average_count):
    remaining = list(range(len(rows)))
    selected = []
    for _ in range(select_count):
        sub = [rows[i] for i in remaining]
        neighbors = max(0, len(remaining) - assumed_bad - 2)
        scores = []
        for a in range(len(sub)):
            dists = sorted(sq_dist(sub[a], sub[b]) for b in range(len(sub)) if b != a)
            scores.append(sum(dists[:neighbors]))
        winner = min(range(len(sub)), key=lambda a: (scores[a], a))
        selected.append(remaining.pop(winner))

    chosen = [rows[i] for i in selected]
    med = oracle_median(chosen)
    out = []
    for j in range(len(chosen[0])):
        ranked = sorted(range(len(chosen)), key=lambda i: (abs(chosen[i][j] - med[j]), i))
        picked = ranked[:average_count]
        out.append(sum(chosen[i][j] for i in picked) / len(picked))
    return out


def oracle_shift_bound(candidates, w_received, crafted_count):
    """Direct evaluation of the crafted-shift upper bound formula."""
    n = len(candidates)
    dim = len(candidates[0])
    sums = []
    for i in range(n):
        dists = sorted(sq_dist(candidates[i], candidates[j]) for j in range(n) if j != i)
        sums.append(sum(dists[: n - 2]))
    term1 = math.sqrt(min(sums) / ((n - crafted_count - 1) * dim))
    term2 = max(math.sqrt(sq_dist(c, w_received)) for c in candidates) / math.sqrt(dim)
    return term1 + term2


def oracle_leave_one_out_mean(rows):
    """Closed-form leave-one-out means."""
    m = len(rows)
    dim = len(rows[0])
    totals = [sum(r[j] for r in rows) for j in range(dim)]
    return [[(totals[j] - rows[i][j]) / (m - 1) for j in range(dim)] for i in range(m)]


def oracle_largest(impacts, count):
    """Indices of the ``count`` largest impacts, lower index first on ties, in ascending order."""
    ranked = sorted(range(len(impacts)), key=lambda i: (-impacts[i], i))
    return tuple(sorted(ranked[:count]))


def oracle_probabilities(layers, params, row):
    """Softmax class probabilities of one feature row under dense layers with ReLU
    between them; ``layers`` lists each (fan_in, fan_out), and ``params`` holds
    each layer's row-major weights followed by its bias, input to output."""
    values, start = list(row), 0
    for k, (fan_in, fan_out) in enumerate(layers):
        weights = params[start : start + fan_in * fan_out]
        bias = params[start + fan_in * fan_out : start + (fan_in + 1) * fan_out]
        start += (fan_in + 1) * fan_out
        logits = [sum(values[i] * weights[i * fan_out + j] for i in range(fan_in)) + bias[j] for j in range(fan_out)]
        values = logits if k == len(layers) - 1 else [max(v, 0.0) for v in logits]
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def oracle_error_and_loss(layers, params, features, labels, floor=1e-12):
    """(error rate, mean cross-entropy) one instance at a time: argmax ties go to
    the lowest class, and each probability is clamped to [floor, 1] before the log."""
    wrong, total = 0, 0.0
    for row, label in zip(features, labels):
        probs = oracle_probabilities(layers, params, row)
        predicted = min(range(len(probs)), key=lambda k: (-probs[k], k))
        wrong += predicted != label
        total -= math.log(min(max(probs[label], floor), 1.0))
    return wrong / len(labels), total / len(labels)
