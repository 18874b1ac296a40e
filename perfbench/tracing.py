"""Traced mode: spans around calls into qtower's public functions.

`install` replaces each traced function, in every module or class where
qtower looks it up, by a wrapper that records a span (name, parent span,
command id, start and end in ns) and a few counts. Spans stay in memory
until the run ends. A span's self time is its duration minus the part of
its interval that its child spans cover; per-layer metrics sum self times.

A function the installed qtower does not have is skipped, so the tracer
keeps working when a later version removes one (its metrics then read 0).
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import defaultdict

KERNEL_OPS = ("mul", "inv", "exact_sign", "is_square")
KERNEL_LEVELS = range(7)
POLY_OPS = ("verdict", "rrt", "roots", "descend", "poly_eval")
LAYERS = ("parser", "tower", "validation", "poly", "render", "cli", "io")


def _per_layer():
    out = []
    for op in KERNEL_OPS:
        for k in KERNEL_LEVELS:
            out += [(f"tower.{op}.L{k}.calls", "count", "lower"), (f"tower.{op}.L{k}.self_s", "s", "lower")]
    out += [
        ("tower.power.calls", "count", "lower"),
        ("tower.power.self_s", "s", "lower"),
        ("tower.is_square.hit_ratio", "ratio", "higher"),
        ("tower.max_coeff_bits", "bits", "lower"),
        ("validation.calls", "count", "lower"),
        ("validation.self_s", "s", "lower"),
        ("validation.total_s", "s", "lower"),
        ("validation.redundant_ratio", "ratio", "lower"),
    ]
    for op in POLY_OPS:
        out += [(f"poly.{op}.calls", "count", "lower"), (f"poly.{op}.self_s", "s", "lower")]
    out += [
        ("poly.candidates", "count", "lower"),
        ("poly.root_ratio", "ratio", "higher"),
        ("exactnum.divisors.calls", "count", "lower"),
        ("exactnum.divisors.self_s", "s", "lower"),
        ("render.approx.calls", "count", "lower"),
        ("render.approx.self_s", "s", "lower"),
        ("render.format.self_s", "s", "lower"),
        ("render.precision_bits", "bits", "lower"),
        ("parser.parse.calls", "count", "lower"),
        ("parser.parse.self_s", "s", "lower"),
        ("parser.eval.self_s", "s", "lower"),
        ("cli.execute.self_s", "s", "lower"),
        ("io.bytes_read", "bytes", "lower"),
        ("io.bytes_written", "bytes", "lower"),
        ("io.self_s", "s", "lower"),
    ]
    out += [(f"share.{layer}", "ratio", "lower") for layer in LAYERS]
    out += [
        ("trace.commands", "count", "higher"),
        ("trace.untraced_cmds_per_s", "1/s", "higher"),
        ("trace.traced_cmds_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = _per_layer()


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its name's prefix; divisors count as poly."""
    prefix = span_name.split(".", 1)[0]
    return "poly" if prefix == "exactnum" else prefix


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the union of its children's intervals,
    clipped to its own interval."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered, run_s, run_e = 0, None, None
        for cs, ce in sorted((max(start[c], s), min(end[c], e)) for c in children.get(i, ())):
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append(e - s - covered)
    return out


def _max_bits(element) -> int:
    coords = getattr(element, "coords", None)
    if not coords:
        return 0
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coords)


class Tracer:
    """Spans and counts of one traced run; `install` starts recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.command_id = -1
        self.counts = defaultdict(int)
        # Towers known valid, by identity; holding them keeps ids unique.
        self._validated: dict = {}
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self.command_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _span(self, name, before=None, after=None):
        """A wrapper factory that records one span per call. `name` is a
        span name, or a function of the call's arguments that gives one.
        `before(args)` and `after(args, kwargs, result)` run outside the span."""
        ids = {}

        def make(fn):
            def wrapper(*args, **kwargs):
                key = name(args) if callable(name) else name
                if key not in ids:
                    ids[key] = self.name_id(key)
                if before is not None:
                    before(args)
                idx = self.open(ids[key])
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return make

    def install(self) -> None:
        import qtower.cli as cli
        import qtower.poly as poly
        import qtower.tower as tower

        T = tower.Tower
        count = self.counts

        def bits(args, kwargs, result):
            if result is not None:
                count["max_coeff_bits"] = max(count["max_coeff_bits"], _max_bits(result))

        def square_found(args, kwargs, result):
            count["is_square.hits"] += result is not None
            bits(args, kwargs, result)

        def proves(tower_of):
            """Marks the tower a call returns (or checks) as known valid."""

            def after(args, kwargs, result):
                tower = tower_of(args, result)
                if tower is not None:
                    self._validated[id(tower)] = tower

            return after

        def validation_of(args):
            count["validation.validations"] += 1
            count["validation.redundant"] += id(args[0]) in self._validated

        def file_bytes(key):
            def after(args, kwargs, result):
                count[key] += os.path.getsize(args[-1] if args else kwargs["path"])

            return after

        def candidates(args, kwargs, result):
            count["poly.candidates"] += len(result)

        def tested(args, kwargs, result):
            if not hasattr(args[1], "level"):
                count["poly.tested"] += 1
                count["poly.roots"] += result == 0

        def precision(args, kwargs, result):
            count["render.approx_bits"] += args[2] if len(args) > 2 else kwargs.get("precision", 113)

        self._patch(cli, "execute", self._span("cli.execute"))
        for attr in ("parse_expr", "parse_poly"):
            self._patch(cli, attr, self._span("parser.parse"))
        self._patch(cli, "eval_expr", self._span("parser.eval"))
        for op in KERNEL_OPS:
            after = {"exact_sign": None, "is_square": square_found}.get(op, bits)
            self._patch(T, op, self._span(lambda a, op=op: f"tower.{op}.L{a[1].level}", after=after))
        self._patch(T, "power", self._span("tower.power", after=bits))
        self._patch(T, "validate", self._span(
            "validation.validate",
            before=validation_of,
            after=proves(lambda a, r: a[0] if getattr(r, "ok", True) else None),
        ))
        self._patch(T, "adjoin_sqrt", self._span("validation.adjoin_sqrt", after=proves(lambda a, r: r)))
        self._patch(T, "adjoin_quadratic_root", self._span(
            "validation.adjoin_quadratic_root", after=proves(lambda a, r: r[0])))
        self._patch(tower, "loads_tower", self._span("validation.loads_tower", after=proves(lambda a, r: r)))
        self._patch(cli, "_checked", self._span("validation.checked"))
        self._patch(cli, "constructible_root_verdict", self._span("poly.verdict"))
        for owner in (cli, poly):
            self._patch(owner, "rrt_candidates", self._span("poly.rrt", after=candidates))
        self._patch(cli, "rational_roots_cubic", self._span("poly.roots"))
        self._patch(cli, "descend_cubic_root", self._span("poly.descend"))
        self._patch(poly, "poly_eval", self._span("poly.poly_eval", after=tested))
        self._patch(poly, "divisors", self._span("exactnum.divisors"))
        self._patch(T, "approx", self._span("render.approx", after=precision))
        self._patch(cli, "format_element", self._span("render.format"))
        self._patch(cli, "load_tower", self._span("io.load", after=file_bytes("io.bytes_read")))
        self._patch(cli, "save_tower", self._span("io.save", after=file_bytes("io.bytes_written")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        return self_times(self.parent, self.start, self.end)

    def _outermost(self, layer):
        """Count and total duration of the layer's spans that have no
        ancestor span in the same layer."""
        calls = total = 0
        for i, nid in enumerate(self.name):
            if layer_of(self.names[nid]) != layer:
                continue
            p = self.parent[i]
            while p >= 0 and layer_of(self.names[self.name[p]]) != layer:
                p = self.parent[p]
            if p < 0:
                calls += 1
                total += self.end[i] - self.start[i]
        return calls, total

    def metrics(self, selfs) -> dict:
        """Every per-layer metric except the trace.* run figures, from the
        spans' self times."""
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        layer_ns = defaultdict(int)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += selfs[i]
            layer_ns[layer_of(name)] += selfs[i]

        def sec(ns):
            return ns / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        m = {}
        for op in KERNEL_OPS:
            for k in KERNEL_LEVELS:
                m[f"tower.{op}.L{k}.calls"] = calls[f"tower.{op}.L{k}"]
                m[f"tower.{op}.L{k}.self_s"] = sec(self_ns[f"tower.{op}.L{k}"])
        is_square_calls = sum(v for n, v in calls.items() if n.startswith("tower.is_square."))
        validation = [n for n in calls if layer_of(n) == "validation"]
        outer_calls, outer_ns = self._outermost("validation")
        m.update({
            "tower.power.calls": calls["tower.power"],
            "tower.power.self_s": sec(self_ns["tower.power"]),
            "tower.is_square.hit_ratio": ratio(c["is_square.hits"], is_square_calls),
            "tower.max_coeff_bits": c["max_coeff_bits"],
            "validation.calls": outer_calls,
            "validation.self_s": sec(sum(self_ns[n] for n in validation)),
            "validation.total_s": sec(outer_ns),
            "validation.redundant_ratio": ratio(c["validation.redundant"], c["validation.validations"]),
        })
        for op in POLY_OPS:
            m[f"poly.{op}.calls"] = calls[f"poly.{op}"]
            m[f"poly.{op}.self_s"] = sec(self_ns[f"poly.{op}"])
        m.update({
            "poly.candidates": c["poly.candidates"],
            "poly.root_ratio": ratio(c["poly.roots"], c["poly.tested"]),
            "exactnum.divisors.calls": calls["exactnum.divisors"],
            "exactnum.divisors.self_s": sec(self_ns["exactnum.divisors"]),
            "render.approx.calls": calls["render.approx"],
            "render.approx.self_s": sec(self_ns["render.approx"]),
            "render.format.self_s": sec(self_ns["render.format"]),
            "render.precision_bits": ratio(c["render.approx_bits"], calls["render.approx"]),
            "parser.parse.calls": calls["parser.parse"],
            "parser.parse.self_s": sec(self_ns["parser.parse"]),
            "parser.eval.self_s": sec(self_ns["parser.eval"]),
            "cli.execute.self_s": sec(self_ns["cli.execute"]),
            "io.bytes_read": c["io.bytes_read"],
            "io.bytes_written": c["io.bytes_written"],
            "io.self_s": sec(self_ns["io.load"] + self_ns["io.save"]),
        })
        total = sum(layer_ns.values())
        for layer in LAYERS:
            m[f"share.{layer}"] = ratio(layer_ns[layer], total)
        return m

    def write_spans(self, path, selfs) -> None:
        """All spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("command\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.command[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{selfs[i]}\n"
                )
