"""The figure registry: named, grouped, tolerance-carrying generators.

Figure modules register generator functions declaratively::

    @register_figure("fig07_inventory", group="paper",
                     title="Applications and benchmarks in study")
    def fig07_inventory(ctx):
        ...
        return Figure(frame=frame, spec=spec)

A generator takes an :class:`~repro.analytics.generate.AnalyticsContext`
and returns a :class:`~repro.analytics.frames.Figure`, or ``None`` when
its inputs are absent (e.g. the campaign has no baseline-pass runs) --
a skip, not an error, so one registry serves smoke campaigns and the
full figure campaign alike.

``tolerance`` is the figure's *relative* numeric tolerance for
``figures diff``: 0.0 demands byte-faithful values (right for anything
computed purely from the deterministic campaign section), a small
epsilon absorbs float re-rounding.  ``diffable=False`` exempts
operational views whose data is legitimately host- or order-dependent
(the BENCH trajectory) from the CI regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: Display/iteration order of the figure groups.
GROUPS = ("paper", "fleet", "trajectory")


@dataclass(frozen=True)
class FigureDef:
    """One registered figure generator."""

    name: str
    group: str
    title: str
    fn: Callable
    tolerance: float = 0.0
    diffable: bool = True

    @property
    def description(self) -> str:
        return (self.fn.__doc__ or "").strip().splitlines()[0] if \
            self.fn.__doc__ else ""


REGISTRY: dict[str, FigureDef] = {}


def register_figure(
    name: str,
    group: str,
    title: str,
    tolerance: float = 0.0,
    diffable: bool = True,
) -> Callable:
    """Class-of-2 decorator registering ``fn`` under ``name``."""
    if group not in GROUPS:
        raise ValueError(f"unknown figure group {group!r}; one of {GROUPS}")

    def deco(fn: Callable) -> Callable:
        if name in REGISTRY:
            raise ValueError(f"figure {name!r} registered twice")
        REGISTRY[name] = FigureDef(
            name=name, group=group, title=title, fn=fn,
            tolerance=tolerance, diffable=diffable)
        return fn

    return deco


def load_all() -> None:
    """Import every figure module (idempotent; fills :data:`REGISTRY`)."""
    from repro.analytics import (  # noqa: F401 - import for registration
        figures_fleet,
        figures_paper,
        figures_trajectory,
    )


def all_figures(
    group: Optional[str] = None,
    names: Optional[list] = None,
) -> list[FigureDef]:
    """Registered figures, group order then name order, filtered."""
    load_all()
    defs = sorted(
        REGISTRY.values(), key=lambda d: (GROUPS.index(d.group), d.name))
    if group is not None:
        defs = [d for d in defs if d.group == group]
    if names:
        wanted = set(names)
        unknown = wanted - {d.name for d in defs}
        if unknown:
            known = ", ".join(d.name for d in defs)
            raise ValueError(
                f"unknown figure(s) {sorted(unknown)}; known: {known}")
        defs = [d for d in defs if d.name in wanted]
    return defs
