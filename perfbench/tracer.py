"""Out-of-tree span tracer and child-process launcher for one CLI run.

The benchmark runs every repeat as ``python3 perfbench/tracer.py
--summary FILE [--trace] -- <mlqmcgrad CLI arguments>``.  The launcher
imports the package, wraps functions from outside (nothing under
``src/`` is edited), calls the public entry point
``mlqmcgrad.cli.main`` and exits with its return code.

Without ``--trace`` only ``cli.build_hierarchy_from_config`` is wrapped,
which gives the set-up time at the cost of one span.  With ``--trace``
every function in ``SPANS`` is wrapped.

Spans bind where the caller looks the name up: ``estimators`` imports
``sample_field`` by name, ``fem`` imports ``eval_field`` and ``cli``
imports ``estimator_sweep``, so a wrapper is installed under every
module attribute that refers to the original function object, not only
in the defining module.  Methods are wrapped on their class.

Spans are aggregated as they close (calls, inclusive and self seconds
per name); a frame's self time is its duration minus the durations of
the spans it directly caused.  Per-level sample durations are kept for
the percentile metrics.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute path); methods are "Class.method".
SPANS = (
    ("cli.run_experiment", "cli", "run_experiment"),
    ("cli.build_hierarchy_from_config", "cli", "build_hierarchy_from_config"),
    ("estimators.estimator_sweep", "estimators", "estimator_sweep"),
    ("estimators.allocate_samples", "estimators", "allocate_samples"),
    ("estimators.refine", "estimators", "QmcLevelAccumulator.refine"),
    ("estimators.refine", "estimators", "McLevelAccumulator.refine"),
    ("estimators.evaluate", "estimators", "QmcLevelAccumulator._evaluate"),
    ("estimators.evaluate", "estimators", "McLevelAccumulator._evaluate"),
    ("estimators.coupled_sample", "estimators", "coupled_sample"),
    ("circulant_field.build_embedding", "circulant_field", "build_embedding"),
    ("circulant_field.sample_field", "circulant_field", "sample_field"),
    ("circulant_field.restrict_to_coarse", "circulant_field", "restrict_to_coarse"),
    ("circulant_field.eval_field", "circulant_field", "eval_field"),
    ("qmc.sequence_point", "qmc", "sequence_point"),
    ("qmc.cube_to_normal", "qmc", "cube_to_normal"),
    ("qmc.make_shift_set", "qmc", "make_shift_set"),
    ("qmc.shift_rng", "qmc", "shift_rng"),
    ("qmc.extend_vector", "qmc", "extend_vector"),
    ("fem.build_fe_level", "fem", "build_fe_level"),
    ("fem.assemble_stiffness", "fem", "assemble_stiffness"),
    ("fem.OperatorSet.setup", "fem", "OperatorSet.__init__"),
    ("fem.OperatorSet.solve", "fem", "OperatorSet.solve"),
    ("fem.assemble_load", "fem", "assemble_load"),
    ("fem.prolong", "fem", "prolong"),
)

SETUP_SPAN = "cli.build_hierarchy_from_config"


class Tracer:
    """In-memory span aggregation for one process (single-threaded runs)."""

    def __init__(self):
        self.stats: dict = {}        # name -> [calls, inclusive s, self s]
        self.levels: dict = {}       # name -> {level: [durations]}
        self.counters: dict = {}     # name -> number
        self.pcg_iters: list = []    # preconditioner applications per solve
        self.child_over_parent = 0   # frames whose children outlast them
        self._stack: list = []       # child seconds of each open frame

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, level_of=None, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``level_of(args, kwargs)`` files each duration under a level;
        ``before(args, kwargs)`` and ``after(result)`` run outside the
        span's clock and feed computed counters.
        """
        clock = time.perf_counter
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        per_level = self.levels.setdefault(name, {}) if level_of else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if child > dur:
                    self.child_over_parent += 1
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if stack:
                    stack[-1] += dur
                if per_level is not None:
                    per_level.setdefault(level_of(args, kwargs), []).append(dur)
            if after is not None:
                after(result)
            return result

        return span

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                      for k, v in self.stats.items()},
            "levels": {k: {str(lev): d for lev, d in v.items()}
                       for k, v in self.levels.items()},
            "counters": dict(self.counters),
            "pcg_iters": self.pcg_iters,
            "child_over_parent": self.child_over_parent,
        }


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mlqmcgrad" or name.startswith("mlqmcgrad."))]


def bind(original, wrapper) -> int:
    """Replace ``original`` under every package module attribute, and
    every entry of a module-level dict (such as the CLI's command
    table), that refers to it; return how many bindings were replaced."""
    replaced = 0
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                replaced += 1
            elif isinstance(val, dict):
                for key, entry in list(val.items()):
                    if entry is original:
                        val[key] = wrapper
                        replaced += 1
    return replaced


def _resolve(module: str, path: str):
    mod = importlib.import_module(f"mlqmcgrad.{module}")
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _hooks(tracer: Tracer, name: str):
    """Level keys and computed counters for the spans that need them."""
    if name == "estimators.evaluate":
        return {"level_of": lambda a, k: a[0].level}
    if name == "estimators.coupled_sample":
        return {"level_of": lambda a, k: a[1]}
    if name == "circulant_field.sample_field":
        # complex128 spectrum of ext**dim entries per call (computed, not measured)
        def spectrum_bytes(a, k):
            e = a[0]
            tracer.count("circulant_field.sample_field.bytes",
                         16 * e.ext_per_axis ** e.grid.dim)
        return {"before": spectrum_bytes}
    if name == "circulant_field.build_embedding":
        # padding starts at 2(n-1) per axis and doubles on each failed attempt
        def padding(e):
            start = 2 * (e.grid.points_per_axis - 1)
            tracer.count("circulant_field.pad_attempts",
                         (e.ext_per_axis // start).bit_length())
            tracer.counters["circulant_field.s_finest"] = max(
                e.s, tracer.counters.get("circulant_field.s_finest", 0))
        return {"after": padding}
    if name == "qmc.make_shift_set":
        # the (R, s) float64 shift array: R * s * 8 bytes (computed)
        def shift_bytes(a, k):
            tracer.count("qmc.make_shift_set.bytes", 8 * a[2] * a[3])
        return {"before": shift_bytes}
    if name == "estimators.refine":
        # a refine on an accumulator that already holds samples is a doubling
        def doubling(a, k):
            if a[0].N > 0:
                tracer.count("estimators.doublings")
        return {"before": doubling}
    return {}


def _counting_solve(tracer: Tracer, solve):
    """Wrap OperatorSet.solve so the preconditioner it hands to PCG is
    counted: one application per PCG iteration."""

    @functools.wraps(solve)
    def counted_solve(self, b_full):
        precond = self._precond
        applied = [0]

        def counted(r):
            applied[0] += 1
            return precond(r)

        self._precond = counted
        try:
            return solve(self, b_full)
        finally:
            self._precond = precond
            tracer.pcg_iters.append(applied[0])

    return counted_solve


def install(tracer: Tracer, full: bool) -> dict:
    """Wrap the spans (all of them, or only set-up); return the number of
    bindings per span name, 0 for a function the package no longer has."""
    bindings: dict = {}
    for name, module, path in SPANS:
        if not full and name != SETUP_SPAN:
            continue
        bindings.setdefault(name, 0)
        try:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            continue  # reported as bound nowhere

        fn = _counting_solve(tracer, original) if name == "fem.OperatorSet.solve" else original
        wrapper = tracer.wrap(name, fn, **_hooks(tracer, name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            count = 1
        else:
            count = bind(original, wrapper)
        bindings[name] += count
    return bindings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", type=Path, required=True,
                        help="where to write the span summary (JSON)")
    parser.add_argument("--trace", action="store_true",
                        help="wrap every span, not only set-up")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for mlqmcgrad.cli.main, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from mlqmcgrad import cli

    tracer = Tracer()
    bindings = install(tracer, args.trace)
    code = cli.main(cli_args)
    out = tracer.summary()
    out["bindings"] = bindings
    args.summary.write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
