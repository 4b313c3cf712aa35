"""Test-only Prometheus text parser: the inverse of the library's exporter.

:func:`repro.obs.export.render_prometheus` emits the version-0.0.4 text
format; :func:`parse_prometheus` reads the subset it emits back into flat
``(name, labels, value)`` samples, so ``tests/test_obs.py`` and
``tests/test_sketch.py`` can prove the export round-trips a registry's
:meth:`~repro.obs.MetricsRegistry.samples` exactly.  Nothing in the
library reads Prometheus text, so the parser lives with the tests.
"""

from __future__ import annotations

__all__ = ["parse_prometheus"]


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                out.append(char)
                out.append(nxt)
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _parse_labels(body: str) -> tuple[tuple[str, str], ...]:
    labels: list[tuple[str, str]] = []
    index = 0
    while index < len(body):
        equals = body.index("=", index)
        name = body[index:equals].strip().lstrip(",").strip()
        if body[equals + 1] != '"':
            raise ValueError(f"malformed label value in {body!r}")
        cursor = equals + 2
        raw: list[str] = []
        while cursor < len(body):
            char = body[cursor]
            if char == "\\":
                raw.append(body[cursor : cursor + 2])
                cursor += 2
                continue
            if char == '"':
                break
            raw.append(char)
            cursor += 1
        labels.append((name, _unescape_label_value("".join(raw))))
        index = cursor + 1
    return tuple(labels)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
    """Prometheus text format → flat ``(name, labels, value)`` samples.

    The inverse of :func:`repro.obs.export.render_prometheus` for the
    subset it emits; compare against :meth:`MetricsRegistry.samples` to
    verify a round trip.
    """
    samples: list[tuple[str, tuple[tuple[str, str], ...], float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name = line[: line.index("{")]
            closing = line.rindex("}")
            labels = _parse_labels(line[line.index("{") + 1 : closing])
            value_text = line[closing + 1 :].strip().split()[0]
        else:
            parts = line.split()
            name, value_text = parts[0], parts[1]
            labels = ()
        samples.append((name, labels, _parse_value(value_text)))
    return samples
