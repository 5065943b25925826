"""Standalone SVG charts: accuracy-vs-wallclock lines and stage-breakdown bars.

No plotting dependency: the files are small hand-written SVG documents.
Axis bounds are the data min/max padded by 5% on each side (degenerate
ranges fall back to 5% of the magnitude, or 1.0 around zero) and are
recorded verbatim in a ``<!-- bounds ... -->`` comment so reports and
tests can recompute them from the source CSVs.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]

STACK_COLORS = {
    "update": "#9467bd",
    "compute": "#1f77b4",
    "communicate": "#d62728",
    "idle": "#c7c7c7",
}


def padded_bounds(values: list[float], pad_fraction: float = 0.05) -> tuple[float, float]:
    """(lo, hi) = data extent padded by pad_fraction of the range per side."""
    if not values:
        raise ConfigError("cannot chart an empty value list")
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        span = abs(hi) if hi != 0 else 1.0
    pad = pad_fraction * span
    return lo - pad, hi + pad


def _scale(v: float, lo: float, hi: float, px0: float, px1: float) -> float:
    if hi == lo:
        return (px0 + px1) / 2
    return px0 + (v - lo) / (hi - lo) * (px1 - px0)


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]


def _axes(x0: float, x1: float, y0: float, y1: float) -> list[str]:
    left, right = MARGIN_L, WIDTH - MARGIN_R
    top, bottom = MARGIN_T, HEIGHT - MARGIN_B
    return [
        f'<!-- bounds {x0:.9g} {x1:.9g} {y0:.9g} {y1:.9g} -->',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{left}" y="{bottom + 18}" font-family="sans-serif" '
        f'font-size="11" text-anchor="start">{x0:.6g}</text>',
        f'<text x="{right}" y="{bottom + 18}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{x1:.6g}</text>',
        f'<text x="{left - 6}" y="{bottom}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{left - 6}" y="{top + 10}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{y1:.6g}</text>',
    ]


def line_chart_svg(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Multi-series line chart; one (name, xs, ys) triple per series."""
    if not series or all(len(xs) == 0 for _, xs, _ in series):
        raise ConfigError("cannot chart empty series")
    all_x = [v for _, xs, _ in series for v in xs]
    all_y = [v for _, _, ys in series for v in ys]
    x0, x1 = padded_bounds(all_x)
    y0, y1 = padded_bounds(all_y)
    left, right = MARGIN_L, WIDTH - MARGIN_R
    top, bottom = MARGIN_T, HEIGHT - MARGIN_B

    parts = _svg_header(title)
    parts += _axes(x0, x1, y0, y1)
    parts.append(
        f'<text x="{(left + right) / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(top + bottom) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {(top + bottom) / 2})">{y_label}</text>'
    )
    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{_scale(x, x0, x1, left, right):.2f},"
            f"{_scale(y, y0, y1, bottom, top):.2f}"
            for x, y in zip(xs, ys)
        )
        if len(xs) == 1:
            cx, cy = points.split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            parts.append(
                " ".join(
                    f'<circle cx="{p.split(",")[0]}" cy="{p.split(",")[1]}" '
                    f'r="2.5" fill="{color}"/>'
                    for p in points.split(" ")
                )
            )
        ly = MARGIN_T + 16 + 18 * i
        parts.append(
            f'<rect x="{right + 14}" y="{ly - 9}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{right + 30}" y="{ly + 1}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def accuracy_chart(
    runs: list[tuple[str, list[tuple[int, float, float, float | None]]]],
    out_path: str | Path,
) -> None:
    """Accuracy-vs-wallclock chart from metric rows (eval rows only)."""
    series = []
    for name, rows in runs:
        xs = [wall for _, wall, _, acc in rows if acc is not None]
        ys = [acc for *_, acc in rows if acc is not None]
        if xs:
            series.append((name, xs, ys))
    if not series:
        raise ConfigError("no evaluation rows to chart")
    svg = line_chart_svg(
        series, "accuracy vs wall-clock training time", "wall clock (ms)", "accuracy"
    )
    Path(out_path).write_text(svg)


def loss_chart(
    runs: list[tuple[str, list[tuple[int, float, float, float | None]]]],
    out_path: str | Path,
) -> None:
    series = [
        (name, [wall for _, wall, _, _ in rows], [loss for _, _, loss, _ in rows])
        for name, rows in runs
        if rows
    ]
    if not series:
        raise ConfigError("no metric rows to chart")
    svg = line_chart_svg(
        series, "training loss vs wall-clock time", "wall clock (ms)", "train loss"
    )
    Path(out_path).write_text(svg)


def breakdown_chart(reports, out_path: str | Path) -> None:
    """Stacked per-stage bar per run, seconds per iteration."""
    if not reports:
        raise ConfigError("no breakdown rows to chart")
    stages = ["update", "compute", "communicate", "idle"]
    left, right = MARGIN_L, WIDTH - MARGIN_R
    top, bottom = MARGIN_T, HEIGHT - MARGIN_B
    totals = [r.update_s + r.compute_s + r.communicate_s + r.idle_s for r in reports]
    y0, y1 = 0.0, padded_bounds([0.0, *totals])[1]

    parts = _svg_header("per-iteration stage breakdown")
    parts += _axes(0, len(reports), y0, y1)
    slot = (right - left) / max(1, len(reports))
    bar_w = slot * 0.6
    for i, report in enumerate(reports):
        x = left + slot * i + slot * 0.2
        y_cursor = 0.0
        values = {
            "update": report.update_s,
            "compute": report.compute_s,
            "communicate": report.communicate_s,
            "idle": report.idle_s,
        }
        for stage in stages:
            value = values[stage]
            if value <= 0:
                continue
            y_top = _scale(y_cursor + value, y0, y1, bottom, top)
            y_base = _scale(y_cursor, y0, y1, bottom, top)
            parts.append(
                f'<rect x="{x:.2f}" y="{y_top:.2f}" width="{bar_w:.2f}" '
                f'height="{abs(y_base - y_top):.2f}" fill="{STACK_COLORS[stage]}"/>'
            )
            y_cursor += value
        label = f"{report.mode}+{report.codec}" if report.codec != "none" else report.mode
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{top - 4}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">'
            f'{report.final_accuracy:.3f}</text>'
        )
    for i, stage in enumerate(stages):
        ly = MARGIN_T + 16 + 18 * i
        parts.append(
            f'<rect x="{right + 14}" y="{ly - 9}" width="12" height="12" '
            f'fill="{STACK_COLORS[stage]}"/>'
        )
        parts.append(
            f'<text x="{right + 30}" y="{ly + 1}" font-family="sans-serif" '
            f'font-size="12">{stage}</text>'
        )
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n")
