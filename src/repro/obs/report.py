"""Summaries of emitted trace and metrics files.

Backs ``python -m repro report FILE [--validate]``: sniffs which
artifact kind the file is, prints a human summary (event counts by
category/name, time span, sampled trajectories, headline finals), and
optionally validates against the checked-in schemas.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.schema import validate_metrics_file, validate_trace_file


def sniff_kind(path: str) -> str:
    """``"trace"`` or ``"metrics"``, by the file's first record.

    A trace is one JSON object with ``traceEvents``; a metrics stream
    is JSONL whose first line carries ``"type"``.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if not first:
        raise ValueError(f"{path}: empty file")
    if '"traceEvents"' in first or first == "{":
        return "trace"
    try:
        record = json.loads(first)
    except json.JSONDecodeError:
        return "trace"  # multi-line JSON object; let the trace loader complain
    if isinstance(record, dict) and "type" in record:
        return "metrics"
    return "trace"


# The summaries must not crash on a file that --validate is about to
# flag: every value read from the file goes through one of these.


def _obj(value: Any) -> Dict[str, Any]:
    """``value`` if it is a JSON object, else an empty one."""
    return value if isinstance(value, dict) else {}


def _list(value: Any) -> List[Any]:
    """``value`` if it is a JSON array, else an empty one."""
    return value if isinstance(value, list) else []


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num(value: Any) -> Any:
    """``value`` if it is a JSON number, else 0."""
    return value if _is_number(value) else 0


def _count(value: Any) -> str:
    """``value`` with thousands separators if it is a number, else as
    it is."""
    return f"{value:,}" if _is_number(value) else str(value)


def _top(counts: Dict[str, int], n: int = 8) -> List[str]:
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [f"    {name:<22} {count:>10,}" for name, count in ordered[:n]]


def trace_summary(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        data = _obj(json.load(fh))
    by_cat: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    nodes = set()
    ts_min = None
    ts_max = 0
    miss_cycles = 0
    for event in _list(data.get("traceEvents")):
        if not isinstance(event, dict) or event.get("ph") == "M":
            continue
        cat = str(event.get("cat", "?"))
        by_cat[cat] = by_cat.get(cat, 0) + 1
        name = str(event.get("name", "?"))
        by_name[name] = by_name.get(name, 0) + 1
        nodes.add(str(event.get("pid", 0)))
        ts, dur = _num(event.get("ts")), _num(event.get("dur"))
        ts_min = ts if ts_min is None else min(ts_min, ts)
        ts_max = max(ts_max, ts + dur)
        if event.get("ph") == "X":
            miss_cycles += dur
    lines = [f"trace {path}"]
    other = _obj(data.get("otherData"))
    if other:
        lines.append(
            "  run: " + ", ".join(f"{k}={v}" for k, v in sorted(other.items()))
        )
    total = sum(by_cat.values())
    span = 0 if ts_min is None else ts_max - ts_min
    lines.append(f"  events          {total:,} across {len(nodes)} nodes")
    lines.append(f"  time span       {span:,} cycles")
    lines.append(f"  miss latency    {miss_cycles:,} cycles total in X events")
    lines.append("  by category:")
    lines.extend(_top(by_cat))
    lines.append("  by event:")
    lines.extend(_top(by_name))
    return "\n".join(lines)


def metrics_summary(path: str) -> str:
    meta: Dict[str, Any] = {}
    samples = 0
    final: Dict[str, Any] = {}
    last_ts = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = _obj(json.loads(line))
            rtype = record.get("type")
            if rtype == "meta":
                meta = record
            elif rtype == "sample":
                samples += 1
                last_ts = record.get("ts", last_ts)
            elif rtype == "final":
                final = record
    lines = [f"metrics {path}"]
    if meta:
        prov = _obj(meta.get("provenance"))
        lines.append(
            f"  run: engine={meta.get('engine')} "
            f"interval={_count(meta.get('interval'))}"
            f" commit={prov.get('git_describe', '?')}"
        )
    lines.append(f"  samples         {samples:,} (last at ts {_count(last_ts)})")
    if final:
        lines.append(f"  exec_cycles     {_count(final.get('exec_cycles', 0))}")
        totals: Dict[str, int] = {}
        for node in _list(final.get("nodes")):
            for key, value in _obj(node).items():
                totals[key] = totals.get(key, 0) + _num(value)
        headline = (
            "l1_misses", "remote_fetches", "refetches", "coherence_misses",
            "page_faults", "relocations",
        )
        for key in headline:
            if key in totals:
                lines.append(f"  {key:<15} {totals[key]:>12,}")
        network = _obj(final.get("network"))
        if network:
            lines.append(
                f"  network         {_count(network.get('messages', 0))} messages, "
                f"link busy {_count(network.get('link_busy_cycles', 0))} cycles"
            )
        pages = _obj(final.get("pages"))
        if pages:
            lines.append(
                f"  counters live   {_count(pages.get('tracked', 0))} pages tracked"
            )
    return "\n".join(lines)


def report(path: str, check: bool = False) -> tuple:
    """(summary text, validation errors) for a trace or metrics file.

    ``errors`` is empty when ``check`` is False (validation skipped)
    or the file passes its schema.
    """
    kind = sniff_kind(path)
    errors: List[str] = []
    if check:
        errors = (
            validate_trace_file(path)
            if kind == "trace"
            else validate_metrics_file(path)
        )
    summary = trace_summary(path) if kind == "trace" else metrics_summary(path)
    return summary, errors
