"""Instrument primitives: counters, gauges, sketches, and a registry.

The observability layer the rest of the reproduction reports into.  It
is deliberately dependency-free (stdlib only — not even numpy) so the
hot paths it instruments pay microseconds, not imports: a
:class:`Counter` increment is one float add, a
:class:`repro.obs.sketch.QuantileSketch` observation one logarithm and
one dict update.

Three design points worth knowing:

* **Get-or-create registry.**  ``registry.counter("x")`` returns the
  existing instrument when one named ``x`` (with the same labels)
  already exists, so call sites never coordinate instrument creation.
  Re-registering a name as a different type is an error.
* **Contextual default registry.**  Pipeline components
  (:class:`repro.core.client.VisualPrintClient`, the oracle, the
  server, the channel model) record into an explicit registry when
  given one, else into the registry installed by
  :func:`use_registry`, else into a private one.  The CLI wraps every
  experiment in ``use_registry`` so one ``--metrics-json`` snapshot
  captures client, oracle, network, and server at once.
* **One distribution type.**  Every latency, size and count
  distribution is a :class:`QuantileSketch`: bounded, relative-error
  quantiles, and an exactly mergeable state, so a ``workers=N`` run
  reports the same quantiles as a serial one.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.sketch import DEFAULT_QUANTILES, QuantileSketch

__all__ = [
    "Counter",
    "DEFAULT_MAX_LABEL_SETS",
    "Gauge",
    "MetricsRegistry",
    "QuantileSketch",
    "current_registry",
    "get_global_registry",
    "use_registry",
]

#: Per-instrument-name cap on distinct label sets.  At fleet scale a
#: per-venue label can mint unbounded instruments; past the cap new
#: label sets collapse into one ``{overflow="true"}`` instrument so
#: memory stays bounded and the loss is visible as a counter.
DEFAULT_MAX_LABEL_SETS = 1000

_OVERFLOW_LABELS = {"overflow": "true"}


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count (frames, bytes, vetoes, ...)."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"value": self._value}

    def state(self) -> dict[str, Any]:
        return {"value": self._value}

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another counter's state in: counts add."""
        self._value += float(state["value"])


class Gauge:
    """A value that can go up and down (saturation ratio, queue depth)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"value": self._value}

    def state(self) -> dict[str, Any]:
        return {"value": self._value}

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another gauge's state in: keep the elementwise maximum.

        Max (rather than last-write-wins) is deterministic under
        unordered worker completion and meaningful for the fill/
        saturation-style gauges this codebase records.
        """
        self._value = max(self._value, float(state["value"]))


class _NullInstrument:
    """No-op stand-in handed out by a disabled registry."""

    kind = "null"
    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def reset(self) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def quantiles(self, qs: tuple[float, ...] = DEFAULT_QUANTILES) -> dict[float, float]:
        return {q: 0.0 for q in qs}

    def to_dict(self) -> dict[str, Any]:
        return {}

    def state(self) -> dict[str, Any]:
        return {}

    def merge_state(self, state: dict[str, Any]) -> None:
        pass


class MetricsRegistry:
    """Namespace of instruments with get-or-create semantics.

    ``MetricsRegistry(enabled=False)`` hands out no-op instruments —
    the uninstrumented baseline the overhead benchmark compares against.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> None:
        if max_label_sets < 1:
            raise ValueError(f"max_label_sets must be >= 1, got {max_label_sets}")
        self.enabled = enabled
        self.max_label_sets = int(max_label_sets)
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._label_set_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        # Registries cross process boundaries when instrumented components
        # (oracle, matcher) are shipped to repro.parallel workers; the
        # lock is recreated on the far side.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- instrument accessors ------------------------------------------

    def _get_or_create(self, cls: type, name: str, help: str,
                       labels: dict[str, str], **kwargs: Any) -> Any:
        if not self.enabled:
            return _NullInstrument(name, help, labels)
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    # Cardinality guard: a new label set past the per-name
                    # cap collapses into the shared overflow instrument
                    # (itself exempt, or the recursion would never end).
                    if (
                        labels != _OVERFLOW_LABELS
                        and self._label_set_counts.get(name, 0)
                        >= self.max_label_sets
                    ):
                        # Created inline (not via self.counter): the lock
                        # is held and not reentrant.
                        dropped_key = (
                            "metrics_label_sets_dropped_total",
                            _label_key({"metric": name}),
                        )
                        dropped = self._instruments.get(dropped_key)
                        if dropped is None:
                            dropped = Counter(
                                "metrics_label_sets_dropped_total",
                                help="new label sets collapsed into the "
                                "overflow instrument by the cardinality cap",
                                labels={"metric": name},
                            )
                            self._instruments[dropped_key] = dropped
                            self._label_set_counts[dropped.name] = (
                                self._label_set_counts.get(dropped.name, 0) + 1
                            )
                        dropped.inc()
                    else:
                        instrument = cls(name, help=help, labels=labels, **kwargs)
                        self._instruments[key] = instrument
                        self._label_set_counts[name] = (
                            self._label_set_counts.get(name, 0) + 1
                        )
        if instrument is None:  # capped: reroute to the overflow label set
            return self._get_or_create(
                cls, name, help, dict(_OVERFLOW_LABELS), **kwargs
            )
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def sketch(
        self,
        name: str,
        help: str = "",
        relative_accuracy: float = 0.01,
        **labels: str,
    ) -> QuantileSketch:
        """A mergeable streaming quantile sketch (see :mod:`repro.obs.sketch`)."""
        return self._get_or_create(
            QuantileSketch, name, help, labels,
            relative_accuracy=relative_accuracy,
        )

    # -- introspection / export ----------------------------------------

    def instruments(self) -> list[Any]:
        """All registered instruments, sorted by (name, labels)."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._instruments)

    def get(self, name: str, **labels: str) -> Any | None:
        """Existing instrument by name (and labels), or ``None``."""
        return self._instruments.get((name, _label_key(labels)))

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        for instrument in self._instruments.values():
            instrument.reset()

    # -- cross-process merge --------------------------------------------

    def state(self) -> dict[str, Any]:
        """Serializable snapshot for :meth:`merge_state`.

        Unlike :meth:`to_dict` (a lossy human/JSON view), this captures
        everything needed to fold one registry into another: kind, name,
        help, labels, sketch accuracy, and raw instrument state.
        The payload is plain builtins, so it pickles cheaply across
        process boundaries (the :mod:`repro.parallel` worker protocol).
        """
        return {
            "instruments": [
                {
                    "kind": instrument.kind,
                    "name": instrument.name,
                    "help": instrument.help,
                    "labels": dict(instrument.labels),
                    "state": instrument.state(),
                }
                for instrument in self.instruments()
            ]
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a :meth:`state` snapshot into this registry.

        Instruments are get-or-created by (name, labels) — counters add,
        gauges take the max, sketches add buckets (see each
        instrument's ``merge_state``).  Merging the same snapshot twice
        double-counts; callers merge each worker snapshot exactly once.
        """
        if not self.enabled:
            return
        for entry in state.get("instruments", ()):
            kind = entry["kind"]
            labels = entry["labels"]
            if kind == "counter":
                instrument = self.counter(entry["name"], help=entry["help"], **labels)
            elif kind == "gauge":
                instrument = self.gauge(entry["name"], help=entry["help"], **labels)
            elif kind == "sketch":
                instrument = self.sketch(
                    entry["name"],
                    help=entry["help"],
                    relative_accuracy=float(
                        entry["state"]["relative_accuracy"]
                    ),
                    **labels,
                )
            else:  # null instruments carry no state
                continue
            instrument.merge_state(entry["state"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Convenience: fold another registry's current contents in."""
        self.merge_state(other.state())

    def samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        """Flat ``(sample_name, labels, value)`` triples.

        Exactly the samples the Prometheus text rendering emits, in
        order — the round-trip contract tested against the parser in
        ``tests/prometheus_reference.py``.
        """
        out: list[tuple[str, tuple[tuple[str, str], ...], float]] = []
        for instrument in self.instruments():
            base = _label_key(instrument.labels)
            if instrument.kind in ("counter", "gauge"):
                out.append((instrument.name, base, instrument.value))
            elif instrument.kind == "sketch":
                # Rendered like a Prometheus summary: one sample per
                # precomputed quantile plus the _sum/_count pair.
                for q, value in instrument.quantiles().items():
                    out.append(
                        (instrument.name, base + (("quantile", repr(q)),), value)
                    )
                out.append((f"{instrument.name}_sum", base, instrument.sum))
                out.append((f"{instrument.name}_count", base, float(instrument.count)))
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot grouped by instrument kind."""
        snapshot: dict[str, Any] = {"counters": {}, "gauges": {}, "sketches": {}}
        group = {"counter": "counters", "gauge": "gauges", "sketch": "sketches"}
        for instrument in self.instruments():
            entry = instrument.to_dict()
            if instrument.labels:
                entry["labels"] = dict(instrument.labels)
                key = instrument.name + "{" + ",".join(
                    f"{k}={v}" for k, v in _label_key(instrument.labels)
                ) + "}"
            else:
                key = instrument.name
            if instrument.help:
                entry["help"] = instrument.help
            snapshot[group[instrument.kind]][key] = entry
        return snapshot

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def to_prometheus(self) -> str:
        from repro.obs.export import render_prometheus

        return render_prometheus(self)


# ----------------------------------------------------------------------
# Contextual default registry
# ----------------------------------------------------------------------

_GLOBAL_REGISTRY = MetricsRegistry()
_context_stack: list[MetricsRegistry] = []


def get_global_registry() -> MetricsRegistry:
    """The process-wide fallback registry (rarely what you want to read;
    prefer :func:`use_registry` scoping or per-component registries)."""
    return _GLOBAL_REGISTRY


def current_registry() -> MetricsRegistry | None:
    """The innermost :func:`use_registry` registry, or ``None``."""
    return _context_stack[-1] if _context_stack else None


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the contextual default.

    Components constructed (or channel transfers performed) inside the
    block report into it unless they were given an explicit registry.
    """
    _context_stack.append(registry)
    try:
        yield registry
    finally:
        _context_stack.pop()
