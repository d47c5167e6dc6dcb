"""Timing wrappers around the public functions of each ratcirc layer.

A traced request installs a ``Tracer`` before calling ``ratcirc.cli.main``.
Every wrapped call records one span (name, parent span, start, end); the
spans stay in memory and ``child.py`` writes them out when the request ends.
``summarise`` turns the spans of one request into per-name call counts and
self time (span duration minus the time covered by its child spans).

``arith`` and ``lattice`` are small helpers and are not wrapped: their time
is self time of whichever span calls them.  ``sring.trace`` is counted but
not timed, so its time is self time of its caller (``is_rational`` or the
CLI's rejection diagnostic).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span; "Class.method" names a method.
TIMED = (
    ("cli", "main"),
    ("sring", "generate_sring"),
    ("sring", "is_rational"),
    ("sring", "group_basis"),
    ("sring", "basic_sets_from_lattice"),
    ("posets", "lattice_to_poset"),
    ("posets", "weak_iso_map"),
    ("gwp", "gwp_order"),
    ("gwp", "render_group_expression"),
    ("gwp", "gwp_generators"),
    ("gwp", "transport"),
    ("perms", "PermutationGroup.order"),
    ("oracle", "full_verify"),
    ("oracle", "pipeline_order"),
    ("oracle", "brute_force_aut"),
)
COUNTED = (("sring", "trace"),)

# Size counters read from the return value (and, for a method, its receiver).
SIZES = {
    "sring.generate_sring": ("sring.rank.sum", lambda out, args: out.rank),
    "sring.group_basis": ("lattice.size.sum", lambda out, args: len(out.lattice)),
    "posets.lattice_to_poset": ("posets.r.sum", lambda out, args: out.size),
    "gwp.gwp_generators": ("gwp.generators.count", lambda out, args: len(out)),
    "perms.PermutationGroup.order": ("perms.base_len.sum", lambda out, args: len(args[0].base())),
    "oracle.full_verify": ("oracle.instances", lambda out, args: len(out.records)),
}


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Span and counter store for one process; create one per traced request."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)

    def timed(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A recursive call (lattice_to_poset) belongs to the outer span.
            if self._open[name]:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
            self._stack.append(sid)
            self._open[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[sid][3] = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if size is not None:
                self.counters[size[0]] += size[1](out, args)
            return out

        return wrapper

    def counted(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every ratcirc namespace that binds it.

        ``cli`` and ``oracle`` import functions by name, so wrapping only the
        defining module would miss their calls.  Raises if a target is
        missing or if any namespace still binds an unwrapped original.
        """
        import ratcirc.cli  # noqa: F401  (the package's __init__ does not import cli)

        modules = [m for key, m in sys.modules.items()
                   if key == "ratcirc" or key.startswith("ratcirc.")]
        originals = []
        for targets, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for module, qualname in targets:
                home = sys.modules[f"ratcirc.{module}"]
                name = span_name(module, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, make(name, original))
                else:
                    original = getattr(home, qualname)
                    wrapped = make(name, original)
                    for m in modules:
                        for key in [k for k, v in vars(m).items() if v is original]:
                            setattr(m, key, wrapped)
                originals.append((name, original))
        for m in modules:
            for key, value in vars(m).items():
                for name, original in originals:
                    if value is original:
                        raise RuntimeError(f"{m.__name__}.{key} still binds unwrapped {name}")

    def record(self) -> dict:
        """The spans and counters of this request, as ``summarise`` takes them."""
        return {"spans": self.spans, "counters": dict(self.counters)}


def summarise(record: dict) -> tuple[dict[str, int], dict[str, float], dict[str, int]]:
    """Calls and self seconds per traced name, and size counters, for one request."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, _, start, end), covered in zip(spans, child_time):
        calls[name] += 1
        self_s[name] += (end - start) - covered
    sizes = {}
    for key, value in record["counters"].items():
        if key.endswith(".calls"):
            calls[key[: -len(".calls")]] = value
        else:
            sizes[key] = value
    return dict(calls), dict(self_s), sizes
