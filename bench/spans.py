"""In-memory spans around the public functions of graviphoton.

The tracer replaces public functions from the outside: every module of the
package that holds a reference to a traced function gets a wrapper that
records one span ``(name, start, end, parent)`` per call.  Nothing inside
the package is edited, and :meth:`Tracer.uninstall` puts the originals back.
Spans stay in memory until the benchmark writes or summarizes them.

Besides spans the tracer keeps three counts, each charged to every open span:

* ``points``: integrand points, counted by wrapping the profiles'
  ``amplitude_at_offset``.  An overlap evaluates both profiles at the same
  abscissa object, so a call that receives the same ``u`` object as the call
  just before it is the second factor of one point and is not counted again.
* ``validated``: ``SymplecticMatrix`` and ``GaussianState`` constructions,
  each of which validates its matrix.
* ``applies``: calls of the sensing-channel map that
  ``build_sensing_channel`` returns.
"""

from __future__ import annotations

import statistics
import sys
import time

COUNTS = ("points", "validated", "applies")


def _overlap_name(a, b, *_, **__):
    grid = "grid" in (getattr(a, "kind", None), getattr(b, "kind", None))
    return "wavepacket.overlap_grid" if grid else "wavepacket.overlap_gaussian"


def _transform_name(profile, *_, **__):
    kind = "grid" if getattr(profile, "kind", None) == "grid" else "gaussian"
    return f"wavepacket.redshift_transform_{kind}"


# (module, attribute, span name or a function of the call's arguments)
FUNCTIONS = (
    ("spacetime", "redshift_static_static", "spacetime.redshift"),
    ("spacetime", "redshift_static_orbit", "spacetime.redshift"),
    ("wavepacket", "overlap", _overlap_name),
    ("wavepacket", "redshift_transform", _transform_name),
    ("protocols", "qber_bandwidth_sweep", "protocols.sweep"),
    ("symplectic", "gate_beamsplitter", "symplectic.gate_beamsplitter"),
    ("symplectic", "embed_symplectic", "symplectic.embed_symplectic"),
    ("symplectic", "apply_symplectic", "symplectic.apply_symplectic"),
    ("symplectic", "partial_trace", "symplectic.partial_trace"),
    ("metrology", "gaussian_fidelity", "metrology.gaussian_fidelity"),
    ("metrology", "qfi_finite_difference", "metrology.qfi_finite_difference"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "check_structure", "cli.check_structure"),
    ("cli", "build_blocks", "cli.build_blocks"),
    ("cli", "collect_violations", "cli.collect_violations"),
    ("cli", "execute_task", "cli.execute_task"),
    ("cli", "render_csv", "cli.render"),
    ("cli", "render_json", "cli.render"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, counts]
        self._open = []
        self._patches = []
        self._last_u = None

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, dict.fromkeys(COUNTS, 0)])
        self._open.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def count(self, key, n=1):
        for idx in self._open:
            self.spans[idx][4][key] += n

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self._enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "graviphoton"}
        for module, attr, name in FUNCTIONS:
            if f"graviphoton.{module}" not in pkg:
                continue  # e.g. the CLI in a process that never imported it
            original = getattr(pkg[f"graviphoton.{module}"], attr)
            wrapper = self.wrap(name, original)
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

        metrology = pkg["graviphoton.metrology"]
        build = metrology.build_sensing_channel

        def build_sensing_channel(channel):
            initial, apply = build(channel)
            traced_apply = self.wrap("metrology.channel_apply", apply)

            def counted_apply(*args, **kwargs):
                self.count("applies")
                return traced_apply(*args, **kwargs)

            return initial, counted_apply

        wrapped_build = self.wrap("metrology.build_sensing_channel", build_sensing_channel)
        for mod in pkg.values():
            for key, value in list(vars(mod).items()):
                if value is build:
                    self._set(mod, key, wrapped_build)

        wavepacket = pkg["graviphoton.wavepacket"]
        grid_cls = wavepacket.SampledGridProfile
        from_samples = grid_cls.__dict__["from_samples"].__func__
        self._set(grid_cls, "from_samples",
                  classmethod(self.wrap("wavepacket.from_samples", from_samples)))
        for cls in (wavepacket.GaussianProfile, grid_cls):
            self._set(cls, "amplitude_at_offset", self._counting_amplitude(cls.amplitude_at_offset))

        symplectic = pkg["graviphoton.symplectic"]
        for cls in (symplectic.SymplecticMatrix, symplectic.GaussianState):
            self._set(cls, "__init__", self._counting_init(cls.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _counting_amplitude(self, method):
        tracer = self

        def amplitude_at_offset(profile, ref, u):
            if u is not tracer._last_u:
                tracer.count("points", getattr(u, "size", 1))
            tracer._last_u = u
            return method(profile, ref, u)

        return amplitude_at_offset

    def _counting_init(self, init):
        tracer = self

        def __init__(obj, *args, **kwargs):
            tracer.count("validated")
            init(obj, *args, **kwargs)

        return __init__

    # -- summaries --------------------------------------------------------

    def records(self):
        """Spans as plain dicts, for writing out."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, **c}
            for n, s, e, p, c in self.spans
        ]


def self_times(records):
    """Duration of each span minus the time its direct children cover."""
    out = [r["end"] - r["start"] for r in records]
    for r in records:
        if r["parent"] is not None:
            out[r["parent"]] -= r["end"] - r["start"]
    return out


def summarize(records):
    """Median duration, self time and counts per span name.

    Returns ``{name: {"seconds", "self_seconds", *COUNTS}}``, each a median
    over the calls of that name.
    """
    selfs = self_times(records)
    by_name = {}
    for i, r in enumerate(records):
        by_name.setdefault(r["name"], []).append(i)
    out = {}
    for name, idx in by_name.items():
        out[name] = {
            "seconds": statistics.median(records[i]["end"] - records[i]["start"] for i in idx),
            "self_seconds": statistics.median(selfs[i] for i in idx),
            **{k: statistics.median(records[i][k] for i in idx) for k in COUNTS},
        }
    return out


def merge(record_lists):
    """Concatenate span lists recorded apart, keeping parent links valid."""
    out = []
    for records in record_lists:
        base = len(out)
        out.extend(
            {**r, "parent": None if r["parent"] is None else r["parent"] + base}
            for r in records
        )
    return out
