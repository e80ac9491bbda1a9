"""Serializable reports: canonical JSON, CSV, and human tables.

All rationals are emitted as exact strings (e.g. "3/2·π"); floats use a fixed
12-significant-digit decimal form, so output is byte-identical for identical
inputs and seed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .records import Record

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


def format_pi_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x == 0:
        return "0"
    if x == 1:
        return "π"
    if x == -1:
        return "-π"
    return f"{x}·π"


def _convert(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_pi_rational(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return {str(k): _convert(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_convert(v) for v in value]
    if hasattr(value, "as_dict"):
        return _convert(value.as_dict())
    return str(value)


def _flatten(node: Any, prefix: str = ""):
    if isinstance(node, dict):
        for k in node:
            yield from _flatten(node[k], f"{prefix}{k}.")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), node


class Report(Record):
    """One command's inputs and results, rendered as json, csv or a table."""

    __slots__ = ("command", "inputs", "results", "anchor")

    def __init__(self, command: str, inputs: dict, results: Any, anchor: str = ""):
        self._set(command, inputs, results, anchor)

    def payload(self) -> dict:
        return {
            "command": self.command,
            "inputs": _convert(self.inputs),
            "results": _convert(self.results),
            "anchor": self.anchor,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["key,value"]
        for key, value in _flatten(_convert(self.results)):
            text = str(value).replace('"', '""')
            lines.append(f'"{key}","{text}"')
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        lines = [f"# {self.command}"]
        if self.anchor:
            lines.append(f"# anchor: {self.anchor}")
        for k, v in self.inputs.items():
            lines.append(f"# {k} = {v}")
        rows = list(_flatten(_convert(self.results)))
        width = max((len(k) for k, _ in rows), default=0)
        for key, value in rows:
            lines.append(f"{key.ljust(width)}  {value}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}")
