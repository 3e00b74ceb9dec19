"""Per-layer spans for the traced run, installed from outside the package.

``Tracer.install`` replaces public functions of the ``gpbo`` modules with
timing wrappers and puts the originals back on exit; the untraced run never
calls it.  Spans nest through a stack, so every span also knows how much of
its time its child spans covered, and a layer's self time is its span time
minus that.  Spans are aggregated by name in memory, not kept one by one.
"""

from __future__ import annotations

import contextlib
import math
from time import perf_counter

import numpy as np

# Every how many acquisition searches the traced run re-scores the returned
# argmax and the domain centre on the search's own surface.
DIRECT_CHECK_EVERY = 25


class Tracer:
    def __init__(self):
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.paused = False
        self.check_failures: list[str] = []
        self._stack: list[list[float]] = []
        self._searches = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a span called ``name``; ``after(args, result)`` may count."""

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack = self._stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.busy[name] = self.busy.get(name, 0.0) + elapsed
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[0]
                self.calls[name] = self.calls.get(name, 0) + 1
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextlib.contextmanager
    def install(self):
        """Wrap the layers' public functions for the duration of the block."""
        from gpbo import cli, direct, gp, pseudo, theory

        def rows(args, _result):
            q = args[1]
            self.count("gp.predict.rows", q.shape[0] if np.ndim(q) == 2 else 1)

        def fit_failures(fn):
            def counted(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except gp.FactorizationError:
                    self.count("gp.fit.failures")
                    raise
            return counted

        def lik_evals(fn):
            def counted(*args, **kwargs):
                res = fn(*args, **kwargs)
                self.count("gp.fit.lik_evals", int(res.nfev))
                return res
            return counted

        def search(fn):
            span = self.wrap("direct", fn)

            def traced_maximize(objective, domain, *args, **kwargs):
                surface = self.wrap("direct.surface", objective, after=self._count_points)
                x, value = span(surface, domain, *args, **kwargs)
                self._searches += 1
                if self._searches % DIRECT_CHECK_EVERY == 1:
                    with self.pause():
                        self._check_search(objective, domain, x, value)
                return x, value

            return traced_maximize

        patches = [
            (gp, "fit", self.wrap("gp.fit", fit_failures(gp.fit))),
            (gp, "minimize", lik_evals(gp.minimize)),
            (gp, "build_model", self.wrap(
                "gp.build_model", gp.build_model,
                after=lambda _a, m: self.count("gp.build_model.jittered", int(m.jitter > 0)))),
            (gp, "predict", self.wrap("gp.predict", gp.predict, after=rows)),
            (direct, "maximize", search(direct.maximize)),
            (pseudo, "generate", self.wrap(
                "pseudo.generate", pseudo.generate,
                after=lambda _a, pp: self.count("pseudo.generate.points", len(pp)))),
            (pseudo, "augmented_model", self.wrap("pseudo.augment", pseudo.augmented_model)),
            (pseudo, "variance_reduction", self.wrap("pseudo.variance_reduction",
                                                     pseudo.variance_reduction)),
            (pseudo, "correction_terms", self.wrap("pseudo.correction_terms",
                                                   pseudo.correction_terms)),
            (cli, "run_bo", self.wrap("engine", cli.run_bo)),
            (cli, "run_bopp", self.wrap("engine", cli.run_bopp)),
            (cli, "_write_rows", self.wrap("cli.persist", cli._write_rows)),
            (cli, "_write_init", self.wrap("cli.persist", cli._write_init)),
            (cli, "summarize", self.wrap("cli.persist", cli.summarize)),
            (theory, "run_identity_suite", self.wrap("theory.identity", theory.run_identity_suite)),
            (theory, "check_mean_error_envelope", self.wrap("theory.envelope",
                                                            theory.check_mean_error_envelope)),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def _count_points(self, args, _result):
        x = args[0]
        self.count("direct.surface.points", x.shape[0] if np.ndim(x) == 2 else 1)

    def _check_search(self, surface, domain, x, value) -> None:
        at_argmax = float(surface(x))
        at_centre = float(surface(domain.center))
        if not math.isclose(value, at_argmax, rel_tol=1e-12, abs_tol=1e-12):
            self.check_failures.append(
                f"direct.maximize returned {value!r} but the surface at its argmax is {at_argmax!r}")
        if value < at_centre - 1e-12 * max(1.0, abs(at_centre)):
            self.check_failures.append(
                f"direct.maximize returned {value!r}, below the centre value {at_centre!r}")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per round, keyed by metric name, as (value, unit)."""
        b, s, c, n = self.busy, self.self_time, self.calls, self.counts

        def per_round(value):
            return value / rounds

        seconds = {
            "gp.fit.busy_s": b.get("gp.fit", 0.0),
            "gp.build_model.busy_s": b.get("gp.build_model", 0.0),
            "gp.predict.busy_s": b.get("gp.predict", 0.0),
            "direct.self_s": s.get("direct", 0.0),
            "direct.surface.busy_s": b.get("direct.surface", 0.0),
            "acquisition.busy_s": s.get("direct.surface", 0.0),
            "pseudo.generate.busy_s": b.get("pseudo.generate", 0.0),
            "pseudo.augment.busy_s": b.get("pseudo.augment", 0.0),
            "pseudo.variance_reduction.busy_s": b.get("pseudo.variance_reduction", 0.0),
            "pseudo.correction_terms.busy_s": b.get("pseudo.correction_terms", 0.0),
            "objectives.busy_s": b.get("objectives", 0.0),
            "engine.self_s": s.get("engine", 0.0),
            "cli.persist.busy_s": b.get("cli.persist", 0.0),
            "theory.identity.busy_s": b.get("theory.identity", 0.0),
            "theory.envelope.busy_s": b.get("theory.envelope", 0.0),
        }
        counts = {
            "gp.fit.calls": c.get("gp.fit", 0),
            "gp.fit.lik_evals": n.get("gp.fit.lik_evals", 0),
            "gp.fit.failures": n.get("gp.fit.failures", 0),
            "gp.build_model.jittered": n.get("gp.build_model.jittered", 0),
            "gp.predict.calls": c.get("gp.predict", 0),
            "gp.predict.rows": n.get("gp.predict.rows", 0),
            "direct.surface.points": n.get("direct.surface.points", 0),
            "pseudo.generate.points": n.get("pseudo.generate.points", 0),
            "objectives.evals": c.get("objectives", 0),
            "cli.persist.bytes": n.get("cli.persist.bytes", 0),
        }
        out = {name: (per_round(v), "s") for name, v in seconds.items()}
        out.update({name: (per_round(v), "bytes" if name.endswith("bytes") else "count")
                    for name, v in counts.items()})
        return out
