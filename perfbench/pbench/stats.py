"""Summary statistics and metric-name rules shared by the benchmark."""

import re
import statistics

# A metric or workload name: starts with a letter or digit, then at most
# 63 more letters, digits, '_', '.' or '-'.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        raise ValueError("quartiles need two samples")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    k = -(-p * len(s) // 100)  # ceil without float rounding for integer p
    return s[max(0, min(len(s) - 1, int(k) - 1))]
