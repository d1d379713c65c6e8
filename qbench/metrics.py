"""Latency percentiles and the per-layer metrics derived from a trace."""

from __future__ import annotations

import math


def latency_summary(samples) -> dict:
    """p50 and p90 by linear interpolation between order statistics, with
    the sample count and how many samples lie beyond p90."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no latency samples")

    def pct(p):
        pos = (n - 1) * p
        lo = math.floor(pos)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    p90 = pct(0.9)
    return {"n": n, "p50": pct(0.5), "p90": p90, "beyond_p90": sum(x > p90 for x in xs)}


# (metric, unit, better): every per-layer metric of a traced run.  Values are
# per traced job unless the unit says otherwise.
PER_LAYER = (
    ("correspondence.extract_counterpart.calls", "count/job", "lower"),
    ("correspondence.extract_counterpart.s", "s/job", "lower"),
    ("correspondence.extract_counterpart.admitted", "count/job", "higher"),
    ("correspondence.extract_counterpart.admit_ratio", "ratio", "higher"),
    ("correspondence.conjugate_column.calls", "count/job", "lower"),
    ("correspondence.conjugate_column.s", "s/job", "lower"),
    ("correspondence.columns_per_extraction", "count", "lower"),
    ("correspondence.bytes_computed", "B/job", "lower"),
    ("correspondence.search_counterparts.calls", "count/job", "lower"),
    ("correspondence.search_counterparts.s", "s/job", "lower"),
    ("correspondence.makhlin_invariants.calls", "count/job", "lower"),
    ("correspondence.makhlin_invariants.s", "s/job", "lower"),
    ("matrixcore.apply_single_qubit.calls", "count/job", "lower"),
    ("matrixcore.apply_single_qubit.s", "s/job", "lower"),
    ("matrixcore.detect_from_columns.calls", "count/job", "lower"),
    ("matrixcore.detect_from_columns.self_s", "s/job", "lower"),
    ("oracleforge.oracle_build.calls", "count/job", "lower"),
    ("oracleforge.oracle_build.s", "s/job", "lower"),
    ("oracleforge.OracleAction.apply.calls", "count/job", "lower"),
    ("oracleforge.OracleAction.apply.s", "s/job", "lower"),
    ("querylab.deterministic_query_complexity.calls", "count/job", "lower"),
    ("querylab.deterministic_query_complexity.s", "s/job", "lower"),
    ("querylab.deterministic_query_complexity.work_bound", "count/job", "lower"),
    ("querylab.family_extracted.calls", "count/job", "lower"),
    ("querylab.family_extracted.s", "s/job", "lower"),
    ("querylab.family_extracted.admitted", "count/job", "higher"),
    ("querylab.speedup_report.self_s", "s/job", "lower"),
    ("querylab.run_bv_quantum.calls", "count/job", "lower"),
    ("querylab.run_bv_quantum.s", "s/job", "lower"),
    ("querylab.run_parity_quantum.calls", "count/job", "lower"),
    ("querylab.run_parity_quantum.s", "s/job", "lower"),
    ("cli.main.calls", "count/job", "lower"),
    ("cli.main.self_s", "s/job", "lower"),
    ("cli.main.stdout_bytes", "B/job", "lower"),
    ("cli.main.nonzero_exit", "count/job", "lower"),
    ("cli.matrix_from_json.s", "s/job", "lower"),
    ("trace.jobs_per_s_traced", "1/s", "higher"),
    ("trace.jobs_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals, jobs: int, rate_traced: float, rate_untraced: float,
                  time_scale: float) -> dict:
    """Every ``PER_LAYER`` metric as ``{"value", "unit"}``, from
    ``Tracer.totals`` over ``jobs`` traced jobs and the checked-job rates of
    the traced and untraced rounds.  Span times are multiplied by
    ``time_scale``, the traced rounds' factor to reference speed."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    extract, column = "correspondence.extract_counterpart", "correspondence.conjugate_column"
    special = {
        f"{extract}.admit_ratio": _ratio(get(extract, "admitted"), get(extract, "calls")),
        "correspondence.columns_per_extraction": _ratio(get(column, "calls"), get(extract, "calls")),
        "correspondence.bytes_computed": get(column, "bytes") / jobs,
        "trace.jobs_per_s_traced": rate_traced,
        "trace.jobs_per_s_untraced": rate_untraced,
        "trace.overhead_frac": 1.0 - rate_traced / rate_untraced,
    }
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric in special:
            value = special[metric]
        else:
            name, key = metric.rsplit(".", 1)
            value = get(name, key) / jobs
            if unit == "s/job":
                value *= time_scale
        out[metric] = {"value": value, "unit": unit}
    return out
