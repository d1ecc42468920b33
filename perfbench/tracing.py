"""Per-layer tracing from outside the program.

The tracer replaces the functions that ``gameclust.drivers`` resolves
from ``core``, ``kmeans`` and ``game_engine`` with timing wrappers, and
``Clustering.from_assignment`` on the class, so calls from inside
``kmeans`` and ``game_engine`` are caught too.  Every call becomes a
span (name, start, end, parent span, run); a layer's self time is the
time its spans cover minus the time their child spans cover, and the
driver's self time is whatever the run took beyond its layer calls.
Nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

# Public names that gameclust.drivers resolves, by the module that defines them.
LAYER_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "core": ("ideal_load", "objectives", "improvement_report"),
    "kmeans": ("init_centers", "lloyd_iteration", "lloyd_full"),
    "game_engine": (
        "classify_roles",
        "route_requests",
        "conflicted_games",
        "build_payoff_tensor",
        "find_pure_nash",
        "apply_and_evaluate",
    ),
}
FROM_ASSIGNMENT = "core.from_assignment"
ROOT = "drivers.run_algorithm"
FORMULATE = ("game_engine.classify_roles", "game_engine.route_requests", "game_engine.conflicted_games")


class TracingError(RuntimeError):
    """The tracer no longer matches the program, or its spans do not add up."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int


def self_times(spans: Sequence[Span]) -> Tuple[Counter, Dict[str, float]]:
    """Calls and self time per span name; names never seen read as zero.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  Raises TracingError when children cover more
    than their parent, which means the spans are not properly nested.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    calls: Counter = Counter()
    self_s: Dict[str, float] = defaultdict(float)
    for s, child in zip(spans, covered):
        own = (s.end - s.start) - child
        if own < -1e-9:
            raise TracingError(f"children of a {s.name} span cover {-own:.3g} s more than it")
        calls[s.name] += 1
        self_s[s.name] += own
    return calls, self_s


def _observe_tensor(counters: Dict[str, float], tensor) -> None:
    joints = tensor.joint_count
    counters["joints"] += joints
    counters["feasible"] += int(tensor.feasible.sum())
    counters["bytes"] += joints * (8 * tensor.n_participants + 1)
    counters["max_joints"] = max(counters["max_joints"], joints)


def _observe_nash(counters: Dict[str, float], result) -> None:
    counters["fallbacks"] += result.kind != "pure-nash"


def _observe_apply(counters: Dict[str, float], result) -> None:
    counters["accepted"] += bool(result[1])


def _observe_lloyd_full(counters: Dict[str, float], result) -> None:
    counters["lloyd_full_iterations"] += int(result[1])


OBSERVERS: Dict[str, Callable[[Dict[str, float], object], None]] = {
    "game_engine.build_payoff_tensor": _observe_tensor,
    "game_engine.find_pure_nash": _observe_nash,
    "game_engine.apply_and_evaluate": _observe_apply,
    "kmeans.lloyd_full": _observe_lloyd_full,
}


class Tracer:
    """Records spans around calls into the layers; installed for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.run = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run)
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def install(self, drivers_module, clustering_cls) -> None:
        """Wrap every traced name; fail loudly when one is missing or has moved."""
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                fn = getattr(drivers_module, name, None)
                if not callable(fn):
                    raise TracingError(f"gameclust.drivers no longer resolves {name!r}")
                if fn.__module__ != f"gameclust.{layer}":
                    raise TracingError(f"{name!r} now comes from {fn.__module__}, not gameclust.{layer}")
                self._patch(drivers_module, name, self.wrap(f"{layer}.{name}", fn))
        raw = clustering_cls.__dict__.get("from_assignment")
        if not isinstance(raw, staticmethod):
            raise TracingError("Clustering.from_assignment is no longer a staticmethod")
        self._patch(clustering_cls, "from_assignment", staticmethod(self.wrap(FROM_ASSIGNMENT, raw.__func__)))

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    run_k: Dict[int, int],
    latencies_s: Sequence[float],
    counts: Dict[str, int],
    required: Sequence[str],
) -> Tuple[Dict[str, float], Dict[int, float]]:
    """Per-layer metrics of one traced pass, plus the tensor's self-time share per k.

    ``run_k`` maps each run id to its k, ``latencies_s`` are the client's
    per-run times and ``counts`` the pass totals taken from the reports.
    Raises TracingError when a required span never occurred, when the
    tensor spans miss games the reports show, or when the self times do
    not add up to the client's time.
    """
    spans = [s for s in tracer.spans if s is not None]
    calls, self_s = self_times(spans)
    missing = [name for name in required if calls[name] == 0]
    if missing:
        raise TracingError(f"no calls recorded for required spans {missing}")
    if calls["game_engine.build_payoff_tensor"] != counts["games"]:
        raise TracingError(
            f"{calls['game_engine.build_payoff_tensor']} tensor spans for {counts['games']} games"
        )
    traced_total = sum(self_s.values())
    wall = sum(latencies_s)
    if abs(traced_total - wall) > 0.01 * wall:
        raise TracingError(f"layer self times add up to {traced_total:.3f} s, runs took {wall:.3f} s")

    def total(prefix: str) -> float:
        return sum(v for name, v in self_s.items() if name.startswith(prefix))

    c = tracer.counters
    tensor = "game_engine.build_payoff_tensor"
    metrics = {
        f"{tensor}.self_s": self_s[tensor],
        f"{tensor}.joints": c["joints"],
        f"{tensor}.max_joints": c["max_joints"],
        f"{tensor}.feasible_ratio": _ratio(c["feasible"], c["joints"]),
        f"{tensor}.bytes": c["bytes"],
        "core.objectives.calls": calls["core.objectives"],
        "core.objectives.self_s": self_s["core.objectives"],
        "core.from_assignment.calls": calls[FROM_ASSIGNMENT],
        "core.from_assignment.self_s": self_s[FROM_ASSIGNMENT],
        "drivers.objectives_per_iteration": _ratio(calls["core.objectives"], counts["outer_iterations"]),
        "game_engine.apply_and_evaluate.calls": calls["game_engine.apply_and_evaluate"],
        "game_engine.apply_and_evaluate.self_s": self_s["game_engine.apply_and_evaluate"],
        "game_engine.apply_and_evaluate.accept_ratio": _ratio(
            c["accepted"], calls["game_engine.apply_and_evaluate"]
        ),
        "kmeans.lloyd_full.calls": calls["kmeans.lloyd_full"],
        "kmeans.lloyd_full.self_s": self_s["kmeans.lloyd_full"],
        "kmeans.lloyd_full.iterations": c["lloyd_full_iterations"],
        "kmeans.lloyd_iteration.calls": calls["kmeans.lloyd_iteration"],
        "kmeans.lloyd_iteration.self_s": self_s["kmeans.lloyd_iteration"],
        "game_engine.formulate.calls": sum(calls[name] for name in FORMULATE),
        "game_engine.formulate.self_s": sum(self_s[name] for name in FORMULATE),
        "game_engine.games": counts["games"],
        "game_engine.find_pure_nash.self_s": self_s["game_engine.find_pure_nash"],
        "game_engine.find_pure_nash.fallback_ratio": _ratio(c["fallbacks"], counts["games"]),
        "drivers.self_s": total("drivers."),
        "drivers.outer_iterations": counts["outer_iterations"],
        "drivers.budget_runs": counts["budget_runs"],
        "core.self_s": total("core."),
        "kmeans.self_s": total("kmeans."),
        "game_engine.self_s": total("game_engine."),
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    # The tensor build calls no traced name, so its span durations are its self time.
    tensor_by_run: Dict[int, float] = defaultdict(float)
    wall_by_run: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is None:
            wall_by_run[s.run] += s.end - s.start
        elif s.name == tensor:
            tensor_by_run[s.run] += s.end - s.start
    share_by_k: Dict[int, float] = {}
    for k in sorted(set(run_k.values())):
        runs = [r for r, rk in run_k.items() if rk == k]
        share_by_k[k] = _ratio(sum(tensor_by_run[r] for r in runs), sum(wall_by_run[r] for r in runs))
    return metrics, share_by_k
