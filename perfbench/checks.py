"""Checking the service's answers against the benchmark's own widths.

The reference for a (structure, metric) pair is a published width when
the structure is a named instance listed in ``oracle.PUBLISHED``, and the
subset programme of :mod:`oracle` otherwise.  For hw the reference is
the exact ghw, and the check is the property ghw <= hw <= 3 ghw + 1.
"""

from __future__ import annotations

from fractions import Fraction

import oracle


def parse_width(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not a width: {value!r}")


class References:
    """Reference widths, computed once per (label, width) in a run."""

    def __init__(self):
        self._values: dict = {}

    def get(self, label: str, named: str | None, metric: str, edges,
            claimed=None):
        """The reference for ``metric`` (ghw when ``metric`` is hw).

        ``claimed`` is the width the program reported; the programme
        uses it only to skip bags (see ``oracle.exact_width``), so a
        claim below the true width raises ``ValueError``."""
        target = "ghw" if metric == "hw" else metric
        key = (label, target)
        if key in self._values:
            return self._values[key]
        if named is not None and (named, target) in oracle.PUBLISHED:
            value = oracle.PUBLISHED[(named, target)]
        else:
            value = oracle.exact_width(
                oracle.Indexed(edges), target, upper=claimed
            )
        self._values[key] = value
        return value


def check_width(metric: str, width, reference) -> list[str]:
    if metric == "hw":
        if not oracle.hw_plausible(width, reference):
            return [f"hw {width} outside [ghw, 3 ghw + 1] for ghw "
                    f"{reference}"]
        return []
    if not oracle.widths_equal(metric, width, reference):
        return [f"{metric} {width} but the reference is {reference}"]
    return []


def check_response(
    metric: str,
    edges,
    response: dict,
    reference,
    cache: str,
) -> list[str]:
    """Problems with one solve response (empty means correct).

    ``edges`` are the structure as submitted, in the submitter's labels;
    a served ordering is re-evaluated on them."""
    if response.get("status") != "ok":
        return [f"status {response.get('status')!r}: "
                f"{response.get('code') or response.get('note')} "
                f"{response.get('error', '')}".strip()]
    problems = []
    if response.get("cache") != cache:
        problems.append(f"cache {response.get('cache')!r}, not {cache!r}")
    if not (response.get("exact") and response.get("certified")):
        problems.append("answer not exact and certified")
    try:
        width = parse_width(response.get("width"))
    except ValueError as exc:
        return problems + [str(exc)]
    problems += check_width(metric, width, reference)
    if metric != "hw":
        ordering = response.get("ordering")
        if ordering is None:
            problems.append("no ordering served")
        else:
            try:
                served = oracle.ordering_width(
                    oracle.Indexed(edges), ordering, metric
                )
            except (ValueError, KeyError) as exc:
                problems.append(f"served ordering unusable: {exc}")
            else:
                if not oracle.widths_equal(metric, width, served):
                    problems.append(
                        f"served ordering has width {served}, not {width}"
                    )
    return problems
