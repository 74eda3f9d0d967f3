"""Self-contained static HTML dashboard for a sweep cache.

``repro report html`` renders one file: inline CSS, inline SVG charts,
a few lines of inline JS for hover tooltips — no third-party assets, no
network requests, so the artifact opens anywhere (CI artifact viewers,
``file://``) exactly as generated.

Layout: one section per experiment found in the cache.  ``fig1`` gets
the paper's RSS-trajectory line chart (one series per policy) plus its
scalar table; every experiment gets a metrics table; telemetry-carrying
cells contribute a per-subsystem attribution table, latency-percentile
table, spatial heatmap panels (``repro.heat`` snapshots rendered as
inline SVG grids on a light+dark ramp) and simulator self-profile.

Chart styling follows the repo's data-viz conventions: categorical
series colors are assigned in fixed slot order (never cycled), declared
once as CSS custom properties with an explicit dark-mode block; every
multi-series chart carries a legend and a table fallback; marks are
thin (2 px lines) over hairline gridlines; numeric table columns use
tabular figures.
"""

from __future__ import annotations

import html as html_mod
import json
import math
from typing import Sequence

from repro import audit, heat
from repro.fleet import manager as fleet
from repro.report.data import cell_sections, flatten_scalars, latest_envelopes
from repro.runner.cache import ResultCache

#: categorical palette, slots assigned in order (validated all-pairs
#: safe for the first three slots in both modes; fig1 uses exactly 3).
SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4",
                "#008300", "#4a3aa7", "#e34948")
SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500", "#d55181",
               "#008300", "#9085e9", "#e66767")

#: sequential heat ramp (9 levels; level 0 = exactly zero, matching the
#: terminal ramp in :mod:`repro.heat`).  The light ramp runs page-white
#: to deep red, the dark ramp charcoal to warm yellow so hot cells stay
#: the high-contrast end in both schemes.
HEAT_LIGHT = ("#f3f2ee", "#fdeccb", "#fdd9a0", "#fdbd6d", "#fb9a42",
              "#f26b26", "#d9431c", "#a81b0e", "#6e0503")
HEAT_DARK = ("#1f1f1e", "#392312", "#5c2e10", "#83400d", "#a85508",
             "#cc6e06", "#e98d1a", "#f8b13e", "#ffd86b")

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
__SERIES_LIGHT__
__HEAT_LIGHT__
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
__SERIES_DARK__
__HEAT_DARK__
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 920px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
.subtitle { color: var(--text-secondary); margin: 0 0 16px; }
section.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0;
}
table { border-collapse: collapse; margin: 8px 0; width: 100%; }
th, td { padding: 4px 10px; text-align: left; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
thead th {
  color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--baseline);
}
tbody tr + tr td { border-top: 1px solid var(--gridline); }
.legend { display: flex; gap: 16px; flex-wrap: wrap; margin: 8px 0; }
.legend span { display: inline-flex; align-items: center; gap: 6px;
               color: var(--text-secondary); }
.legend i { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
svg text { fill: var(--text-muted); font: 11px system-ui, sans-serif; }
svg .axis-title { fill: var(--text-secondary); }
svg.heatmap { display: block; margin: 8px 0; }
svg.heatmap rect { shape-rendering: crispEdges; }
__HEAT_CELLS__
h3 { font-size: 13px; margin: 16px 0 2px; color: var(--text-secondary); }
.tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 10px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.15);
  font-variant-numeric: tabular-nums;
}
.meta { color: var(--text-muted); font-size: 12px; }
"""

_JS = """
(function () {
  var tip = document.createElement('div');
  tip.className = 'tooltip';
  document.body.appendChild(tip);
  document.querySelectorAll('svg[data-chart]').forEach(function (svg) {
    var data = JSON.parse(
      document.getElementById(svg.dataset.chart).textContent);
    var dot = svg.querySelector('.hover-dot');
    svg.addEventListener('mousemove', function (ev) {
      var pt = svg.createSVGPoint();
      pt.x = ev.clientX; pt.y = ev.clientY;
      var loc = pt.matrixTransform(svg.getScreenCTM().inverse());
      var best = null;
      data.series.forEach(function (s) {
        s.points.forEach(function (p) {
          var dx = p.px - loc.x, dy = p.py - loc.y;
          var d = dx * dx + dy * dy;
          if (!best || d < best.d) best = {d: d, p: p, s: s};
        });
      });
      if (!best || best.d > 40 * 40) { tip.style.display = 'none';
        dot.setAttribute('r', 0); return; }
      dot.setAttribute('cx', best.p.px); dot.setAttribute('cy', best.p.py);
      dot.setAttribute('r', 4); dot.setAttribute('fill', best.s.color);
      tip.innerHTML = '<b>' + best.s.label + '</b><br>' +
        data.xlabel + ': ' + best.p.x + '<br>' +
        data.ylabel + ': ' + best.p.y;
      tip.style.display = 'block';
      tip.style.left = (ev.clientX + 14) + 'px';
      tip.style.top = (ev.clientY + 14) + 'px';
    });
    svg.addEventListener('mouseleave', function () {
      tip.style.display = 'none'; dot.setAttribute('r', 0);
    });
  });
})();
"""


def _esc(text: object) -> str:
    """HTML-escape a value for element content or attributes."""
    return html_mod.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    """Compact numeric rendering for table cells."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}" if abs(value) >= 0.01 else f"{value:.3g}"
    return f"{int(value):,}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] (1/2/5 ladder)."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _tick_label(value: float) -> str:
    """Short tick formatting (no trailing .0)."""
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:g}"


class LineChart:
    """One inline-SVG line chart with hover metadata."""

    WIDTH, HEIGHT = 680, 320
    MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 12, 44

    def __init__(self, chart_id: str, xlabel: str, ylabel: str):
        self.chart_id = chart_id
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series: list[tuple[str, list[tuple[float, float]]]] = []

    def add_series(self, label: str, points: Sequence[tuple[float, float]]) -> None:
        """Append one series; colors are assigned by insertion order."""
        self.series.append((label, list(points)))

    # ------------------------------------------------------------------ #

    def _scales(self):
        xs = [x for _, pts in self.series for x, _ in pts]
        ys = [y for _, pts in self.series for _, y in pts]
        x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
        y_lo, y_hi = (min(ys + [0.0]), max(ys)) if ys else (0.0, 1.0)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        plot_w = self.WIDTH - self.MARGIN_L - self.MARGIN_R
        plot_h = self.HEIGHT - self.MARGIN_T - self.MARGIN_B

        def sx(x: float) -> float:
            return self.MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y: float) -> float:
            return self.MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        return sx, sy, (x_lo, x_hi), (y_lo, y_hi)

    def render(self) -> str:
        """The legend + SVG + embedded hover-data block."""
        sx, sy, (x_lo, x_hi), (y_lo, y_hi) = self._scales()
        parts = [
            '<div class="legend">' + "".join(
                f'<span><i style="background: var(--series-{i + 1})"></i>'
                f'{_esc(label)}</span>'
                for i, (label, _) in enumerate(self.series)
            ) + "</div>",
            f'<svg viewBox="0 0 {self.WIDTH} {self.HEIGHT}" '
            f'data-chart="{_esc(self.chart_id)}-data" '
            f'role="img" aria-label="{_esc(self.ylabel)} vs {_esc(self.xlabel)}">',
        ]
        bottom = self.HEIGHT - self.MARGIN_B
        for t in _nice_ticks(y_lo, y_hi):
            y = sy(t)
            parts.append(
                f'<line x1="{self.MARGIN_L}" y1="{y:.1f}" '
                f'x2="{self.WIDTH - self.MARGIN_R}" y2="{y:.1f}" '
                'stroke="var(--gridline)" stroke-width="1"/>')
            parts.append(
                f'<text x="{self.MARGIN_L - 8}" y="{y + 4:.1f}" '
                f'text-anchor="end">{_tick_label(t)}</text>')
        for t in _nice_ticks(x_lo, x_hi):
            x = sx(t)
            parts.append(
                f'<text x="{x:.1f}" y="{bottom + 16}" '
                f'text-anchor="middle">{_tick_label(t)}</text>')
        parts.append(
            f'<line x1="{self.MARGIN_L}" y1="{bottom}" '
            f'x2="{self.WIDTH - self.MARGIN_R}" y2="{bottom}" '
            'stroke="var(--baseline)" stroke-width="1"/>')
        hover = {"xlabel": self.xlabel, "ylabel": self.ylabel, "series": []}
        for i, (label, pts) in enumerate(self.series):
            if not pts:
                continue
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" '
                f'stroke="var(--series-{i + 1})" stroke-width="2" '
                'stroke-linejoin="round"/>')
            hover["series"].append({
                "label": label,
                "color": SERIES_LIGHT[i % len(SERIES_LIGHT)],
                "points": [
                    {"x": round(x, 3), "y": round(y, 2),
                     "px": round(sx(x), 1), "py": round(sy(y), 1)}
                    for x, y in pts
                ],
            })
        parts.append(
            f'<text class="axis-title" x="{(self.MARGIN_L + self.WIDTH - self.MARGIN_R) / 2}" '
            f'y="{self.HEIGHT - 6}" text-anchor="middle">{_esc(self.xlabel)}</text>')
        parts.append(
            f'<text class="axis-title" transform="rotate(-90)" '
            f'x="{-(self.MARGIN_T + bottom) / 2}" y="14" '
            f'text-anchor="middle">{_esc(self.ylabel)}</text>')
        parts.append('<circle class="hover-dot" r="0" stroke="var(--surface-1)" '
                     'stroke-width="2"/>')
        parts.append("</svg>")
        parts.append(
            f'<script type="application/json" id="{_esc(self.chart_id)}-data">'
            f"{json.dumps(hover)}</script>")
        return "\n".join(parts)


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]],
           numeric_from: int = 1) -> str:
    """An HTML table; columns >= ``numeric_from`` are right-aligned."""
    head = "".join(
        f'<th{" class=" + chr(34) + "num" + chr(34) if i >= numeric_from else ""}>'
        f"{_esc(h)}</th>"
        for i, h in enumerate(headers))
    body_rows = []
    for row in rows:
        cells = []
        for i, cell in enumerate(row):
            if i >= numeric_from and isinstance(cell, (int, float)) \
                    and not isinstance(cell, bool):
                cells.append(f'<td class="num">{_fmt(cell)}</td>')
            else:
                cells.append(f"<td>{_esc(cell)}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body_rows)}</tbody></table>")


# ---------------------------------------------------------------------- #
# spatial heatmaps (repro.heat snapshots)                                  #
# ---------------------------------------------------------------------- #

#: per-matrix fixed color scales (data-max otherwise), mirroring the
#: terminal renderer so SVG and CLI agree on what "hot" looks like.
_MATRIX_VMAX = {"heat": 512.0, "util": 1.0, "huge": 1.0}

_HEAT_CELL_CSS = "\n".join(
    f".h{i} {{ fill: var(--heat-{i}); }}" for i in range(len(HEAT_LIGHT)))


def _heat_vars(colors: Sequence[str], indent: str = "  ") -> str:
    return "\n".join(f"{indent}--heat-{i}: {c};" for i, c in enumerate(colors))


def _heat_level(value: float, vmax: float) -> int:
    """Ramp level 0–8 for one cell — same mapping as ``repro.heat.ramp_char``."""
    if value <= 0 or vmax <= 0:
        return 0
    return min(1 + int(7 * min(value, vmax) / vmax), 8)


def _svg_style() -> str:
    """Embedded stylesheet for standalone ``.svg`` artifacts (light+dark)."""
    return (
        "svg {\n" + _heat_vars(HEAT_LIGHT)
        + "\n  --text-muted: #898781;\n  --text-secondary: #52514e;\n}\n"
        "@media (prefers-color-scheme: dark) {\n  svg {\n"
        + _heat_vars(HEAT_DARK, "    ")
        + "\n    --text-muted: #898781;\n    --text-secondary: #c3c2b7;\n"
        "  }\n}\n"
        "text { fill: var(--text-muted); font: 11px system-ui, sans-serif; }\n"
        ".axis-title { fill: var(--text-secondary); }\n"
        "rect { shape-rendering: crispEdges; }\n" + _HEAT_CELL_CSS)


def heatmap_svg(proc_snap: dict, matrix: str = "heat", cell: int = 10,
                max_rows: int | None = None, standalone: bool = False) -> str:
    """One process-heat snapshot as an SVG grid (rows = samples, cols = bins).

    Cells reference ``--heat-N`` custom properties so the inline form
    follows the report's light/dark scheme; ``standalone`` embeds its own
    ``<style>`` (with a ``prefers-color-scheme`` block) and XML namespace
    so the markup works as a free-standing ``.svg`` CI artifact.
    """
    rows = proc_snap.get(matrix) or []
    t_s = proc_snap.get("t_s") or []
    if max_rows is not None:
        rows, t_s = rows[-max_rows:], t_s[-max_rows:]
    nb = proc_snap.get("bins") or (len(rows[0]) if rows else 1)
    vmax = _MATRIX_VMAX.get(
        matrix, max((max(r) for r in rows if r), default=1.0) or 1.0)
    ml, mt, mb = 56, 4, 20
    width = ml + nb * cell + 4
    grid_h = max(len(rows), 1) * cell
    height = mt + grid_h + mb
    lo, hi = proc_snap.get("span", (0, 0))
    xmlns = ' xmlns="http://www.w3.org/2000/svg"' if standalone else ""
    parts = [
        f'<svg class="heatmap" viewBox="0 0 {width} {height}"{xmlns} '
        f'role="img" aria-label="{_esc(matrix)} heatmap for '
        f'{_esc(proc_snap.get("process"))}">']
    if standalone:
        parts.append(f"<style>{_svg_style()}</style>")
    parts.append(f'<rect class="h0" x="{ml}" y="{mt}" '
                 f'width="{nb * cell}" height="{grid_h}"/>')
    label_every = max(1, len(rows) // 6)
    for i, row in enumerate(rows):
        y = mt + i * cell
        if i % label_every == 0 and i < len(t_s):
            parts.append(f'<text x="{ml - 6}" y="{y + cell - 2}" '
                         f'text-anchor="end">{t_s[i]:g}s</text>')
        # runs of equal-level cells collapse into one rect (the level-0
        # background already covers cold cells, so those are skipped).
        j = 0
        while j < len(row):
            lvl = _heat_level(row[j], vmax)
            k = j + 1
            while k < len(row) and _heat_level(row[k], vmax) == lvl:
                k += 1
            if lvl:
                parts.append(
                    f'<rect class="h{lvl}" x="{ml + j * cell}" y="{y}" '
                    f'width="{(k - j) * cell}" height="{cell}"/>')
            j = k
    parts.append(
        f'<text class="axis-title" x="{ml + nb * cell / 2:g}" '
        f'y="{height - 6}" text-anchor="middle">'
        f'{_esc(matrix)} — span hvpn [{lo},{hi}), {nb} bins</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_heat_svgs(snapshot: dict, out_dir: str, label: str = "",
                    matrices: Sequence[str] = ("heat", "util")) -> list[str]:
    """Write one standalone SVG per process×matrix; returns written paths.

    ``snapshot`` is a :class:`repro.heat.HeatMonitor` snapshot (live or
    from a sweep-cache telemetry artifact); ``label`` (e.g. a cell id)
    prefixes the file names.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for proc in snapshot.get("processes") or ():
        for matrix in matrices:
            if not proc.get(matrix):
                continue
            stem = "-".join(filter(None, [
                label, str(proc.get("process")),
                f"pid{proc.get('pid')}", matrix]))
            safe = "".join(c if c.isalnum() or c in "-_." else "_"
                           for c in stem)
            path = os.path.join(out_dir, f"{safe}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(heatmap_svg(proc, matrix=matrix, standalone=True))
            written.append(path)
    return written


#: inline panels are capped so a wide sweep doesn't balloon the report;
#: the full set is reachable via ``repro heat --cache-dir … --svg-dir``.
_MAX_HEAT_PANELS = 12


def _group_by_experiment(envelopes: dict[str, dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for cell_id in sorted(envelopes):
        env = envelopes[cell_id]
        groups.setdefault(env["cell"]["experiment"], []).append(env)
    return groups


def _fig1_section(envelopes: list[dict]) -> str:
    """Figure 1: RSS trajectory line chart + scalar table."""
    chart = LineChart("fig1", "simulated time (s)", "RSS (MB)")
    rows = []
    for env in envelopes:
        policy = env["cell"]["policy"]
        result = env["result"]
        series = result.get("rss_series", {})
        points = list(zip(series.get("times", []), series.get("values", [])))
        chart.add_series(policy, points)
        rows.append([policy, result.get("rss_mb", 0.0),
                     result.get("useful_mb", 0.0),
                     result.get("recovered_pages", 0)])
    table = _table(["policy", "final RSS (MB)", "useful (MB)",
                    "bloat pages recovered"], rows)
    return chart.render() + table


def _metrics_section(envelopes: list[dict]) -> str:
    """Generic per-experiment table: one row per cell, metrics sorted."""
    metric_names: list[str] = []
    per_cell: list[tuple[str, dict[str, float]]] = []
    for env in envelopes:
        scalars = flatten_scalars(env.get("result") or {})
        scalars.pop("rss_series.times.len", None)
        scalars.pop("rss_series.values.len", None)
        per_cell.append((env["cell_id"], scalars))
        for name in scalars:
            if name not in metric_names:
                metric_names.append(name)
    metric_names.sort()
    rows = [
        [cell_id] + [scalars.get(name, "") for name in metric_names]
        for cell_id, scalars in per_cell
    ]
    return _table(["cell"] + metric_names, rows)


def _attribution_rows(envelopes: dict[str, dict]):
    """(cell_id, subsystem, events, span) rows from captured telemetry."""
    rows = []
    hist_rows = []
    profiles = []
    for cell_id in sorted(envelopes):
        env = envelopes[cell_id]
        for artifact in env.get("telemetry") or []:
            total = sum(e["span_us"] for e in artifact["attribution"].values()) or 1.0
            for subsystem, entry in sorted(artifact["attribution"].items()):
                rows.append([cell_id, subsystem, entry["events"],
                             entry["span_us"],
                             f"{entry['span_us'] / total:.1%}"])
            for kind, hist in sorted(artifact["histograms"].items()):
                if "p50" in hist:
                    hist_rows.append([cell_id, kind, hist["count"],
                                      hist["p50"], hist["p95"], hist["p99"]])
            prof = artifact.get("self_profile", {})
            if prof:
                profiles.append([cell_id, prof.get("epochs", 0),
                                 prof.get("scrapes", 0),
                                 prof.get("run_s", 0.0),
                                 prof.get("scrape_s", 0.0),
                                 prof.get("epochs_per_wall_s", 0.0)])
    return rows, hist_rows, profiles


def _cell_tables(envelopes: dict[str, dict], mod) -> tuple[list, list]:
    """``mod.rows``' two tables over every captured section, each row
    led by its cell id."""
    tables: tuple[list, list] = ([], [])
    for cell_id, sec in cell_sections(envelopes, mod.SECTION):
        for out, rows in zip(tables, mod.rows(sec)):
            out += [[cell_id, *row] for row in rows]
    return tables


def render_report(cache: ResultCache, title: str = "HawkEye repro — run report") -> str:
    """Render the whole dashboard for one sweep cache as an HTML string."""
    envelopes = latest_envelopes(cache)
    groups = _group_by_experiment(envelopes)
    sections = []
    titles = {
        "fig1": "Figure 1 — Redis RSS under insert / delete-80% / re-insert",
        "tab1": "Table 1 — fault counts and latency, alloc-touch-free ×10",
        "tab8": "Table 8 — async pre-zeroing on fault-bound workloads",
        "tab9": "Table 9 — HawkEye-PMU vs HawkEye-G, mixed sensitivity sets",
        "fig5": "Figure 5 — promotion speedup from a fragmented start",
        "smoke": "Smoke grid — seconds-scale touch run",
        "fleet": "Fleet churn — multi-tenant fairness/tail QoS vs "
                 "arrival rate",
        "fleet-smoke": "Fleet churn smoke grid (CI arrival rate)",
    }
    for experiment, envs in groups.items():
        body = (_fig1_section(envs) if experiment == "fig1"
                else _metrics_section(envs))
        sections.append(
            f'<section class="card"><h2>'
            f"{_esc(titles.get(experiment, experiment))}</h2>{body}</section>")

    attr_rows, hist_rows, profiles = _attribution_rows(envelopes)
    if attr_rows:
        sections.append(
            '<section class="card"><h2>Simulated-time attribution '
            "(per subsystem)</h2>"
            + _table(["cell", "subsystem", "events", "span (µs)", "share"],
                     attr_rows, numeric_from=2)
            + "</section>")
    if hist_rows:
        sections.append(
            '<section class="card"><h2>Latency percentiles '
            "(log2-bucket interpolation, ≤ 2× error)</h2>"
            + _table(["cell", "tracepoint", "samples", "p50 (µs)",
                      "p95 (µs)", "p99 (µs)"], hist_rows, numeric_from=2)
            + "</section>")
    funnel_rows, reject_rows = _cell_tables(envelopes, audit)
    if funnel_rows:
        sections.append(
            '<section class="card"><h2>Decision funnel '
            "(candidates → eligible → budget-passed → acted)</h2>"
            + _table(["cell", "point", "candidates", "eligible",
                      "budget passed", "acted"], funnel_rows, numeric_from=2)
            + "</section>")
    if reject_rows:
        sections.append(
            '<section class="card"><h2>Rejections by reason</h2>'
            + _table(["cell", "point", "reason", "rejections"],
                     reject_rows, numeric_from=3)
            + "</section>")
    fleet_agg, fleet_classes = _cell_tables(envelopes, fleet)
    if fleet_agg:
        body = _table(["cell", "spawned", "exited", "OOM kills",
                       "protected kills", "peak active", "deferred",
                       "fairness spread"], fleet_agg, numeric_from=1)
        if fleet_classes:
            body += ("<h3>Per tenant class</h3>"
                     + _table(["cell", "class", "tenants", "OOM kills",
                               "promotions", "huge coverage", "bloat (MB)",
                               "fault p50 (µs)", "fault p99 (µs)"],
                              fleet_classes, numeric_from=2))
        sections.append(
            '<section class="card"><h2>Fleet churn '
            "(tenant lifetimes, OOM accounting, per-class QoS)</h2>"
            + body + "</section>")
    heat_sections = cell_sections(envelopes, heat.SECTION)
    heat_rows = [[cell_id, *row] for cell_id, sec in heat_sections
                 for row in heat.rows(sec)]
    if heat_rows:
        body = _table(["cell", "process", "samples", "regions", "hot",
                       "wss p50 (pages)", "p95", "p99"],
                      heat_rows, numeric_from=2)
        heat_panels = [(cell_id, proc) for cell_id, sec in heat_sections
                       for proc in sec.get("processes") or ()
                       if proc.get("heat")]
        shown = heat_panels[:_MAX_HEAT_PANELS]
        for cell_id, proc in shown:
            body += (f"<h3>{_esc(cell_id)} — {_esc(proc.get('process'))} "
                     f"pid={_esc(proc.get('pid'))}</h3>"
                     + heatmap_svg(proc))
        if len(heat_panels) > len(shown):
            body += (f'<p class="meta">{len(heat_panels) - len(shown)} more '
                     "panel(s) elided — export the full set with "
                     "<code>repro heat --cache-dir … --svg-dir …</code>.</p>")
        sections.append(
            '<section class="card"><h2>Spatial access heat '
            "(adaptive monitoring regions)</h2>" + body + "</section>")
    if profiles:
        sections.append(
            '<section class="card"><h2>Simulator self-profile '
            "(wall clock)</h2>"
            + _table(["cell", "epochs", "scrapes", "run (s)", "scrape (s)",
                      "epochs / wall-s"], profiles)
            + "</section>")
    if not sections:
        sections.append(
            '<section class="card"><p>No cached cells found under '
            f"<code>{_esc(cache.root)}</code>. Run a sweep first, e.g. "
            "<code>repro sweep run smoke</code>.</p></section>")

    series_light = "\n".join(
        f"  --series-{i + 1}: {c};" for i, c in enumerate(SERIES_LIGHT))
    series_dark = "\n".join(
        f"    --series-{i + 1}: {c};" for i, c in enumerate(SERIES_DARK))
    css = _CSS.replace("__SERIES_LIGHT__", series_light) \
              .replace("__SERIES_DARK__", series_dark) \
              .replace("__HEAT_LIGHT__", _heat_vars(HEAT_LIGHT)) \
              .replace("__HEAT_DARK__", _heat_vars(HEAT_DARK, "    ")) \
              .replace("__HEAT_CELLS__", _HEAT_CELL_CSS)
    cells = len(envelopes)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{css}</style>
</head>
<body>
<main>
<h1>{_esc(title)}</h1>
<p class="subtitle">{cells} cell(s) from <code>{_esc(cache.root)}</code>
— generated offline, no external assets.</p>
{"".join(sections)}
<p class="meta">HawkEye/HotOS-ASPLOS'19 reproduction — paper figures at
reduced scale; see docs/observability.md for the telemetry pipeline.</p>
</main>
<script>{_JS}</script>
</body>
</html>
"""
