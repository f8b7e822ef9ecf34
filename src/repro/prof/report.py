"""Rendering profiles: the attribution table.

A pure function from a :class:`~repro.prof.profile.Profile` to text, so
a saved ``.prof.json`` can be reported long after (and far from) the
run that produced it.  Whether a change moved a phase is a question for
the benchmark's repeated, alternating runs (``bench/run.py --compare``),
not for two single profiles.  The format is pinned by golden tests in
``tests/test_prof.py`` — change it there first.
"""

from __future__ import annotations

from .profile import PHASE_SANITIZE, Profile


def _pct(seconds: float, total: float) -> str:
    if total <= 0:
        return "   -  "
    return f"{seconds / total:6.1%}"


def format_report(profile: Profile, top: int = 20) -> str:
    """The attribution table: top phases, checkers, nodes."""
    lines: list[str] = []
    name = profile.meta.get("slug", "run")
    lines.append(f"== profile: {name} ==")
    run_meta = {
        k: v
        for k, v in sorted(profile.meta.items())
        if k not in ("slug",)
    }
    if run_meta:
        meta = ", ".join(f"{k}={v}" for k, v in run_meta.items())
        lines.append(f"run:                 {meta}")
    lines.append(f"events processed:    {profile.events_processed:,}")
    lines.append(f"wall setup:          {profile.wall_setup_seconds:.3f} s")
    lines.append(f"wall simulate:       {profile.wall_simulate_seconds:.3f} s")
    lines.append(
        f"attributed:          {profile.attributed_seconds:.3f} s "
        f"({profile.coverage:.1%} of simulate wall)"
    )
    total = profile.wall_simulate_seconds
    if profile.phases:
        lines.append("")
        lines.append(
            f"{'phase':<32}{'seconds':>9}  {'%':>6}  {'calls':>10}  "
            f"{'us/call':>8}"
        )
        ranked = profile.top_phases()
        shown = ranked[:top]
        for phase, stat in shown:
            lines.append(
                f"{phase:<32}{stat.seconds:>9.3f}  {_pct(stat.seconds, total)}"
                f"  {stat.calls:>10,}  {stat.us_per_call:>8.1f}"
            )
        hidden = ranked[top:]
        if hidden:
            hidden_seconds = sum(stat.seconds for _, stat in hidden)
            lines.append(
                f"({len(hidden)} more phase"
                f"{'s' if len(hidden) != 1 else ''} totalling "
                f"{hidden_seconds:.3f} s)"
            )
    if profile.checkers:
        lines.append("")
        lines.append(
            f"{'sanitizer checker':<32}{'seconds':>9}  {'%':>6}  {'calls':>10}"
        )
        ranked_checkers = sorted(
            profile.checkers.items(),
            key=lambda item: (-item[1].seconds, item[0]),
        )
        for code, stat in ranked_checkers[:top]:
            lines.append(
                f"{code:<32}{stat.seconds:>9.3f}  {_pct(stat.seconds, total)}"
                f"  {stat.calls:>10,}"
            )
        sweep = profile.phases.get(PHASE_SANITIZE)
        if sweep is not None:
            checker_total = sum(
                stat.seconds for stat in profile.checkers.values()
            )
            lines.append(
                f"{'(sweep machinery)':<32}"
                f"{max(sweep.seconds - checker_total, 0.0):>9.3f}  "
                f"{_pct(max(sweep.seconds - checker_total, 0.0), total)}"
            )
    hot_nodes = profile.top_nodes(top=5)
    if hot_nodes:
        lines.append("")
        lines.append(f"{'hottest nodes':<32}{'seconds':>9}  {'%':>6}  {'events':>10}")
        for node, calls, seconds in hot_nodes:
            lines.append(
                f"{'node ' + str(node):<32}{seconds:>9.3f}  "
                f"{_pct(seconds, total)}  {calls:>10,}"
            )
    return "\n".join(lines)
