"""Deterministic SVG rendering of tilings, loops and copy overlays.

Output is plain text assembled in a fixed order so identical inputs produce
byte-identical files.  Unit squares render at a fixed pixel scale with the
capacity-2 lines and block boundaries stroked distinctly and loops colored
by index.
"""

from __future__ import annotations

from .alignment import box_r
from .numtheory import EvenRational, tune
from .tiling import (PlaidTiling, big_polygon, first_block_tiling,
                     trace_polygons)

_LOOP_COLORS = ("#c22", "#26c", "#2a2", "#a2a", "#c82", "#2aa", "#666", "#b44")
# largest tiling figure, in pixels; a larger one raises SizeGuardError
_MAX_PIXELS = 16_000_000


class SizeGuardError(ValueError):
    pass


def _header(width_px, height_px):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
            f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">')


class _Canvas:
    """Pixel mapping for a region [x0, x0+w] x [y0, y0+h] with unit margins."""

    def __init__(self, x0, y0, w, h, scale):
        self.x0, self.y0, self.w, self.h, self.scale = x0, y0, w, h, scale
        self.width_px = (w + 2) * scale
        self.height_px = (h + 2) * scale

    def px(self, x) -> float:
        return (float(x) - self.x0 + 1) * self.scale

    def py(self, y) -> float:
        return (self.h + 1 - (float(y) - self.y0)) * self.scale

    def line(self, x1, y1, x2, y2, color, width=1, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<line x1="{self.px(x1):.1f}" y1="{self.py(y1):.1f}" '
                f'x2="{self.px(x2):.1f}" y2="{self.py(y2):.1f}" '
                f'stroke="{color}" stroke-width="{width}"{d}/>')

    def poly(self, points, color, width=2, closed=False):
        pts = " ".join(f"{self.px(x):.1f},{self.py(y):.1f}" for x, y in points)
        tag = "polygon" if closed else "polyline"
        return (f'<{tag} points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{width}" stroke-linejoin="round"/>')

    def rect(self, x0, y0, x1, y1, color, width=2, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<rect x="{self.px(x0):.1f}" y="{self.py(y1):.1f}" '
                f'width="{(float(x1) - float(x0)) * self.scale:.1f}" '
                f'height="{(float(y1) - float(y0)) * self.scale:.1f}" '
                f'fill="none" stroke="{color}" stroke-width="{width}"{d}/>')


def render_tiling(tiling: PlaidTiling, scale: int = 16) -> str:
    r = tiling.parameter
    w, h = tiling.shape
    cv = _Canvas(tiling.x0, tiling.y0, w, h, scale)
    if cv.width_px * cv.height_px > _MAX_PIXELS:
        raise SizeGuardError(
            f"{cv.width_px}x{cv.height_px} SVG too large; lower the scale or region")
    out = [_header(cv.width_px, cv.height_px),
           f'<!-- parameter {r} region '
           f'[{tiling.x0},{tiling.x0 + w}]x[{tiling.y0},{tiling.y0 + h}] -->',
           f'<rect width="{cv.width_px}" height="{cv.height_px}" fill="#fff"/>']
    for a in range(tiling.x0, tiling.x0 + w + 1):
        heavy = a % r.omega == 0
        out.append(cv.line(a, tiling.y0, a, tiling.y0 + h,
                           "#444" if heavy else "#ddd", 2 if heavy else 1))
    for b in range(tiling.y0, tiling.y0 + h + 1):
        heavy = b % r.omega == 0
        out.append(cv.line(tiling.x0, b, tiling.x0 + w, b,
                           "#444" if heavy else "#ddd", 2 if heavy else 1))
    t = tune(r).tau
    for coord in (t, r.omega - t):
        if tiling.y0 <= coord <= tiling.y0 + h:
            out.append(cv.line(tiling.x0, coord, tiling.x0 + w, coord,
                               "#e90", 2, dash="6,3"))
        if tiling.x0 <= coord <= tiling.x0 + w:
            out.append(cv.line(coord, tiling.y0, coord, tiling.y0 + h,
                               "#e90", 2, dash="6,3"))
    for i, loop in enumerate(trace_polygons(tiling)):
        pts = [(a + 0.5, b + 0.5) for a, b in loop.squares]
        out.append(cv.poly(pts, _LOOP_COLORS[i % len(_LOOP_COLORS)],
                           closed=loop.closed))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_copy_overlay(r0: EvenRational, r1: EvenRational, translation: int,
                        scale: int = 12) -> str:
    """The big parameter's first block with the translated small box and arc."""
    tiling = first_block_tiling(r1)
    base = render_tiling(tiling, scale=scale)
    cv = _Canvas(0, 0, r1.omega, r1.omega, scale)
    gamma0 = big_polygon(r0)
    box0, box1 = box_r(r0), box_r(r1)
    extra = [cv.rect(0, 0, box1.x1, r1.omega, "#888", 2),
             cv.rect(0, translation, box0.x1, translation + r0.omega,
                     "#000", 2, dash="3,3"),
             cv.poly([(a + 0.5, b + 0.5 + translation)
                      for a, b in gamma0.squares if a < box0.x1], "#000", 3)]
    return base.replace("</svg>", "\n".join(extra) + "\n</svg>")


def render_fiber(report) -> str:
    """The reconstructed 4x4 fiber grid: sample points and recovered walls."""
    scale = 240  # pixels per unit of U1 and U2
    out = [_header(2 * scale + 40, 2 * scale + 40),
           f'<rect width="{2 * scale + 40}" height="{2 * scale + 40}" fill="#fff"/>']

    def px(u):
        return 20 + (float(u) + 1) * scale

    def py(v):
        return 20 + (1 - float(v)) * scale

    for (u, v), label in sorted(report.points.items(),
                                key=lambda kv: (float(kv[0][0]), float(kv[0][1]))):
        color = "#bbb" if label == "empty" else "#26c"
        out.append(f'<circle cx="{px(u):.1f}" cy="{py(v):.1f}" r="3" fill="{color}"/>')
    if report.grid_ok:
        for lo, _hi in report.u1_cells[1:]:
            out.append(f'<line x1="{px(lo) - 2:.1f}" y1="20" x2="{px(lo) - 2:.1f}" '
                       f'y2="{2 * scale + 20}" stroke="#e33" stroke-width="1"/>')
        for lo, _hi in report.u2_cells[1:]:
            out.append(f'<line x1="20" y1="{py(lo) + 2:.1f}" x2="{2 * scale + 20}" '
                       f'y2="{py(lo) + 2:.1f}" stroke="#e33" stroke-width="1"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
