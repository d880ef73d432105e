"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` wraps every public function of the six modules (the names
in each module's ``__all__`` that the module defines itself) plus two methods
the hot paths go through, ``Derivation.apply`` and
``_TrigData.from_coefficients``.  A wrapper replaces the function in every
module namespace that binds it, because ``engines`` imports ``ps_mul`` and
friends by name.  ``Tracer.uninstall`` puts the originals back.

Each call records a span (name, start, end, parent) in memory.  After
every top-level ``cli.run`` the spans of that request are folded into
per-name totals: calls, errors, inclusive time and self time, where self
time is the span's duration minus its child spans and minus the time the
tracer spent counting inside it.  Counters that describe the work of a call
(coefficient products, convolution points, ...) are computed from the
call's arguments and result, outside the timed span.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "engines", "series", "fourier", "factors", "bruno")


def _nonzero(c) -> bool:
    if isinstance(c, tuple):
        return any(x != 0 for x in c)
    return c != 0


def _bits(c) -> int:
    if isinstance(c, tuple):
        return max((_bits(x) for x in c), default=0)
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    return 0


def _series_bits(f) -> int:
    if getattr(f, "mode", None) != "exact":
        return 0
    return max((_bits(c) for c in f.coefficients), default=0)


def _count_bits(counts, args, out) -> None:
    bits = _series_bits(out)
    if bits > counts["series.coeff_bits_max"]:
        counts["series.coeff_bits_max"] = bits


def _count_ps_mul(counts, args, out) -> None:
    """Nonzero x nonzero coefficient pairs (i, j) with i + j <= D."""
    f, g = args[0], args[1]
    D = f.truncation
    prefix, running = [], 0
    for c in g.coefficients:
        running += _nonzero(c)
        prefix.append(running)
    counts["series.ps_mul.coeff_products"] += sum(
        prefix[D - i] for i, c in enumerate(f.coefficients) if _nonzero(c)
    )
    _count_bits(counts, args, out)


def _count_lie_derivative(counts, args, out) -> None:
    v, w = args[0], args[1]
    counts["fourier.convolve_points"] += len(w.data) * len(v.data)


def _count_strip(counts, args, out) -> None:
    counts["fourier.strip_harmonics"] += 2 * args[0].cap + 1


def _count_emit(counts, args, out) -> None:
    counts["cli.emit_bytes"] += len(out.encode("utf-8"))


COUNTERS = {
    "series.ps_mul": _count_ps_mul,
    "series.ps_lie_exp": _count_bits,
    "fourier.lie_derivative_oneform": _count_lie_derivative,
    "fourier.strip_l2_log_norm": _count_strip,
    "cli.emit_table": _count_emit,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, excluded]
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # ---- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self.stack, self.errors
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                errors[name] += 1
                raise
            span[2] = clock()
            stack.pop()
            if counter is not None:
                c0 = clock()
                counter(self.counts, args, out)
                if parent >= 0:
                    spans[parent][4] += clock() - c0
            return out

        return wrapper

    def fold(self) -> None:
        """Fold the finished request's spans into the per-name totals."""
        spans = self.spans
        for name, start, end, parent, excluded in spans:
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - excluded
            if parent >= 0:
                self.self_s[spans[parent][0]] -= dur
        spans.clear()

    # ---- installation ---------------------------------------------------

    def install(self, package) -> None:
        from scale_iter import bruno, cli, engines, factors, fourier, series

        modules = {"cli": cli, "engines": engines, "series": series,
                   "fourier": fourier, "factors": factors, "bruno": bruno}
        namespaces = [package, *modules.values()]
        wrapped = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patch(ns, attr, wrapped[id(value)][1])

        apply = series.Derivation.__dict__["apply"]
        self._patch(series.Derivation, "apply", self._wrap("series.Derivation.apply", apply))
        trig = fourier._TrigData
        from_coefficients = trig.__dict__["from_coefficients"]
        self._patch(trig, "from_coefficients",
                    classmethod(self._wrap("fourier.from_coefficients", from_coefficients.__func__)))

    def _patch(self, ns, attr: str, value) -> None:
        self._restore.append((ns, attr, ns.__dict__[attr]))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    # ---- metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_s"] = sum(self.self_s[n] for n in names)
            m[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            m[f"{layer}.errors"] = sum(self.errors[n] for n in self.errors if n.split(".", 1)[0] == layer)
        for name in ("ps_mul", "ps_add", "ps_scale", "ps_derive", "ps_norm"):
            m[f"series.{name}.self_s"] = self.self_s[f"series.{name}"]
        m["series.ps_mul.calls"] = self.calls["series.ps_mul"]
        m["series.ps_mul.coeff_products"] = self.counts["series.ps_mul.coeff_products"]
        m["series.ps_lie_exp.total_s"] = self.total_s["series.ps_lie_exp"]
        m["series.ps_lie_exp.applications"] = self.calls["series.Derivation.apply"]
        m["series.coeff_bits_max"] = self.counts["series.coeff_bits_max"]
        m["engines.morse_run.self_s"] = self.self_s["engines.morse_run"]
        m["engines.newton.self_s"] = self.self_s["engines.newton_invert"] + self.self_s["engines.quasi_newton_run"]
        m["engines.circle_run.self_s"] = self.self_s["engines.circle_run"]
        m["engines.drivers.self_s"] = self.self_s["engines.contraction_run"] + self.self_s["engines.kam_run"]
        for name in ("lie_derivative_oneform", "strip_l2_log_norm", "from_coefficients"):
            m[f"fourier.{name}.self_s"] = self.self_s[f"fourier.{name}"]
        m["fourier.convolve_points"] = self.counts["fourier.convolve_points"]
        m["fourier.strip_harmonics"] = self.counts["fourier.strip_harmonics"]
        for name in ("kam_schedule_tame_check", "schedule_build", "rho_for_perturbative"):
            m[f"factors.{name}.self_s"] = self.self_s[f"factors.{name}"]
        for name in ("sequence_from_spec", "is_tame", "a_pi"):
            m[f"bruno.{name}.self_s"] = self.self_s[f"bruno.{name}"]
        m["cli.validate.self_s"] = self.self_s["cli.validate"]
        m["cli.emit_table.self_s"] = self.self_s["cli.emit_table"]
        m["cli.emit_bytes"] = self.counts["cli.emit_bytes"]
        return m
