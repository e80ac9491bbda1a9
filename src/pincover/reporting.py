"""Serializable reports: canonical JSON, CSV, and human tables.

Rationals reach a report as exact strings (e.g. "3/2·π"): the records'
`as_dict` methods write them with the `__str__` of `pin2`'s angle forms and
elements.  Floats use a fixed 12-significant-digit decimal form, so output is
byte-identical for identical inputs and seed.  A value that is none of these,
nor a record with `as_dict`, raises `TypeError`.
"""

from __future__ import annotations

import json

from .records import Record

# annotations are strings (PEP 563); this keeps typing itself out of the import
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


def _convert(value: Any) -> Any:
    kind = type(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is list or kind is tuple:
        return [_convert(v) for v in value]
    if kind is dict:
        return {str(k): _convert(v) for k, v in value.items()}
    if isinstance(value, float):
        return f"{value:.12g}"
    if hasattr(value, "as_dict"):
        return _convert(value.as_dict())
    raise TypeError(f"cannot report a value of type {kind.__name__}")


def _flatten(node: Any):
    """(dotted key, leaf) rows in document order; an empty list or dict is one
    row of its own, so a table or csv shows every key the json has.

    One walk with a stack of the open containers' item iterators, so a leaf
    passes through one generator at any depth.
    """
    if not (isinstance(node, (dict, list)) and node):
        yield "", node
        return
    stack = [("", _items(node))]  # (key prefix, the container's items left)
    while stack:
        prefix, items = stack[-1]
        for k, item in items:
            key = f"{prefix}{k}"
            if isinstance(item, (dict, list)) and item:
                stack.append((f"{key}.", _items(item)))
                break
            yield key.rstrip("."), item
        else:
            stack.pop()


def _items(node: dict | list):
    return iter(node.items()) if isinstance(node, dict) else enumerate(node)


class Report(Record):
    """One command's inputs and results, rendered as json, csv or a table."""

    __slots__ = ("command", "inputs", "results", "anchor")
    _defaults = {"anchor": ""}

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
        results = _convert(self.results)
        # one walk measures the keys and a second writes the lines, so the
        # (key, leaf) rows are never all held at once
        width = max((len(k) for k, _ in _flatten(results)), default=0)
        for key, value in _flatten(results):
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
