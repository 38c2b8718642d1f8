"""Plane curves, pens, stockyards, fencing accounting, the line-integral
to area-mass identity, disk packing, and the seven-loop splitting
construction.

Orientation convention: by Green's theorem the line integral
``closed-loop P_y dx - P_x dy`` over a counterclockwise boundary equals
minus the enclosed mass.  Pens therefore carry their boundaries in the
mass-positive (clockwise) orientation, so that a pen's boundary line
integral reports the (positive) enclosed mass directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import quadrature
from .density import DensityField
from .errors import CCStructError, DegenerateLoop, InvalidStockyard

GEOM_TOL = 1e-9

#: relative tolerance of ``boundary_line_integral``
_LINE_REL_TOL = 1e-8


# ---------------------------------------------------------------------------
# curve pieces

@dataclass(frozen=True)
class Segment:
    """Directed straight segment."""
    start: complex
    end: complex

    @property
    def length(self):
        return abs(self.end - self.start)

    def point(self, u):
        u = np.asarray(u, dtype=float)
        return self.start + u * (self.end - self.start)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape, self.end - self.start)

    def reversed(self):
        return Segment(self.end, self.start)

    def split(self, u):
        mid = complex(self.point(u))
        return Segment(self.start, mid), Segment(mid, self.end)


@dataclass(frozen=True)
class Arc:
    """Circular arc from angle a0 to a1 (clockwise when a1 < a0)."""
    center: complex
    radius: float
    a0: float
    a1: float

    @property
    def length(self):
        return self.radius * abs(self.a1 - self.a0)

    def point(self, u):
        u = np.asarray(u, dtype=float)
        ang = self.a0 + u * (self.a1 - self.a0)
        return self.center + self.radius * np.exp(1j * ang)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        ang = self.a0 + u * (self.a1 - self.a0)
        return 1j * (self.a1 - self.a0) * self.radius * np.exp(1j * ang)

    def reversed(self):
        return Arc(self.center, self.radius, self.a1, self.a0)

    def split(self, u):
        mid = self.a0 + u * (self.a1 - self.a0)
        return (Arc(self.center, self.radius, self.a0, mid),
                Arc(self.center, self.radius, mid, self.a1))


class PlaneCurve:
    """A finite chain of smooth pieces (segments and circular arcs) with
    matching endpoints: piecewise smooth with one-sided derivative limits
    at the joints."""

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a curve needs at least one piece")
        for prev, nxt in zip(pieces[:-1], pieces[1:]):
            gap = abs(complex(prev.point(1.0)) - complex(nxt.point(0.0)))
            if gap > GEOM_TOL * max(1.0, abs(complex(prev.point(1.0)))):
                raise ValueError(f"consecutive pieces do not join (gap {gap:g})")
        self.pieces = pieces

    @property
    def length(self):
        return sum(p.length for p in self.pieces)

    @property
    def start(self):
        return complex(self.pieces[0].point(0.0))

    @property
    def end(self):
        return complex(self.pieces[-1].point(1.0))

    @property
    def closed(self):
        scale = max(1.0, abs(self.start), self.length)
        return abs(self.start - self.end) <= 1e-8 * scale

    def reversed(self):
        return PlaneCurve([p.reversed() for p in reversed(self.pieces)])

    def point_at_length(self, s):
        s = float(s)
        acc = 0.0
        for p in self.pieces:
            if s <= acc + p.length or p is self.pieces[-1]:
                u = 0.0 if p.length == 0 else (s - acc) / p.length
                return complex(p.point(min(max(u, 0.0), 1.0)))
            acc += p.length
        return self.end

    def subcurve(self, s0, s1):
        """The portion between arclengths s0 < s1 (within one traversal)."""
        if not 0.0 <= s0 < s1 <= self.length + GEOM_TOL:
            raise ValueError("invalid arclength range")
        out = []
        acc = 0.0
        for p in self.pieces:
            lo, hi = acc, acc + p.length
            acc = hi
            if hi <= s0 + GEOM_TOL or lo >= s1 - GEOM_TOL or p.length == 0:
                continue
            piece = p
            if s0 > lo + GEOM_TOL:
                _, piece = piece.split((s0 - lo) / p.length)
                lo = s0
            if s1 < hi - GEOM_TOL:
                u = (s1 - lo) / (hi - lo) if hi > lo else 1.0
                piece, _ = piece.split(u)
            out.append(piece)
        return PlaneCurve(out)


def circle_curve(center, radius):
    """A full circle traversed once clockwise (the mass-positive
    orientation), starting at angle 0."""
    return PlaneCurve([Arc(complex(center), float(radius), 0.0,
                           -2.0 * math.pi)])


def polygon_curve(vertices):
    """Closed polygon through the given vertices (in order)."""
    vs = [complex(v) for v in vertices]
    if len(vs) < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    return PlaneCurve([Segment(a, b) for a, b in zip(vs, vs[1:] + vs[:1])])


def _polygon_signed_area(vertices):
    vs = np.asarray(vertices, dtype=complex)
    nxt = np.roll(vs, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * float(np.sum(vs.real * nxt.imag - nxt.real * vs.imag))


# ---------------------------------------------------------------------------
# line integral

def _im_dz_pz(field: DensityField, z, dz):
    """Im(dz P_z) = -omega/2 at points z with tangents dz, as the strided
    ``.imag`` view (an einsum sums a copy of it with other bits)."""
    px, py = field.potential_gradient(z)
    return (dz * (0.5 * (px - 1j * py))).imag


def boundary_line_integral(field: DensityField, curve: PlaneCurve):
    """The line integral of omega = P_y dx - P_x dy along the curve: one
    ``adaptive_1d`` call on the sum of the pieces' integrands (each on
    [0, 1]; a zero-length piece's is 0) to ``_LINE_REL_TOL`` over the floor
    sum_p int |omega_p|, piece by piece as a piece back along another
    cancels it pointwise.  Raises PotentialUnavailable without a
    potential, CCStructError at once where the integral is not finite and
    QuadratureFailure where it does not converge."""
    def omega(u):
        z = np.array([p.point(u) for p in curve.pieces])
        dz = np.array([p.derivative(u) for p in curve.pieces])
        return -2.0 * _im_dz_pz(field, z, dz)

    x, w = quadrature.gl_nodes(0.0, 1.0, 32)
    # a value that is not finite raises below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        total = floor = float(np.sum(np.abs(omega(x)) @ w))
        if math.isfinite(floor):
            total = quadrature.adaptive_1d(lambda u: omega(u).sum(axis=0),
                                           0.0, 1.0, rel_tol=_LINE_REL_TOL,
                                           abs_floor=floor)
    if not math.isfinite(total):
        raise CCStructError(f"line integral on the {field.family} field is "
                            f"{total} along the curve from {curve.start!r}")
    return total


# ---------------------------------------------------------------------------
# pens

class Pen:
    """An open, connected, simply connected region with piecewise-smooth
    boundary; ``fencing`` is the boundary length.  Restricted to circular
    and simple-polygon boundaries (the constructions only need circles,
    triangles, and chords)."""

    def __init__(self, kind, boundary, fencing, params):
        self.kind = kind
        self.boundary = boundary        # mass-positive (clockwise)
        self.fencing = fencing
        self.params = params

    @classmethod
    def circle(cls, center, radius):
        if not (radius > 0 and math.isfinite(2.0 * math.pi * radius)):
            raise ValueError("circle radius must be positive, its fencing "
                             "finite")
        center = complex(center)
        if not cmath.isfinite(center):
            raise ValueError("circle center must be finite")
        return cls("circle", circle_curve(center, radius),
                   2.0 * math.pi * radius, {"center": center, "radius": radius})

    @classmethod
    def polygon(cls, vertices):
        vs = [complex(v) for v in vertices]
        if len(vs) < 3:
            raise ValueError("a polygon pen needs at least 3 vertices")
        if not all(map(cmath.isfinite, vs)):
            raise ValueError("polygon vertices must be finite")
        area = _polygon_signed_area(vs)
        if area > 0:  # ccw input: flip to mass-positive
            vs = vs[::-1]
        perimeter = sum(abs(b - a) for a, b in zip(vs, vs[1:] + vs[:1]))
        if not (math.isfinite(area) and math.isfinite(perimeter)):
            raise ValueError("polygon area and fencing must be finite")
        if abs(area) < GEOM_TOL:
            raise ValueError("degenerate polygon (zero area)")
        return cls("polygon", polygon_curve(vs), perimeter, {"vertices": vs})

    def __repr__(self):
        return f"<Pen {self.kind} fencing={self.fencing:.6g}>"


def pen_mass(field: DensityField, pen: Pen):
    """Mass enclosed by the pen.  Circular pens delegate to the disk-mass
    query; polygonal pens triangulate from a base vertex and integrate
    per triangle with signed orientation (the absolute value is the mass
    since the density is non-negative)."""
    if pen.kind == "circle":
        return field.disk_mass(pen.params["center"], pen.params["radius"])
    vs = pen.params["vertices"]
    base = vs[0]
    total = 0.0
    for a, b in zip(vs[1:-1], vs[2:]):
        tri_area = _polygon_signed_area([base, a, b])
        if abs(tri_area) < 1e-15:
            continue
        mass = quadrature.triangle_integral(field.density, base, a, b)
        total += math.copysign(mass, tri_area)
    return abs(total)


# ---------------------------------------------------------------------------
# boundary distances (for connectivity and base-point checks)

def _point_segment_distance(z, seg: Segment):
    d = seg.end - seg.start
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(z - seg.start)
    t = ((z - seg.start).real * d.real + (z - seg.start).imag * d.imag) / L2
    t = min(max(t, 0.0), 1.0)
    return abs(z - (seg.start + t * d))


def point_boundary_distance(z, pen: Pen):
    z = complex(z)
    if pen.kind == "circle":
        return abs(abs(z - pen.params["center"]) - pen.params["radius"])
    return min(_point_segment_distance(z, seg) for seg in pen.boundary.pieces)


def _circle_circle_distance(c1, r1, c2, r2):
    d = abs(c1 - c2)
    if d >= r1 + r2:
        return d - (r1 + r2)
    big, small = max(r1, r2), min(r1, r2)
    if d + small <= big:
        return big - (d + small)
    return 0.0


def _segment_circle_distance(seg: Segment, c, r):
    dmin = _point_segment_distance(c, seg)
    dmax = max(abs(seg.start - c), abs(seg.end - c))
    if dmin <= r <= dmax:
        return 0.0
    if r < dmin:
        return dmin - r
    return r - dmax


def _segment_segment_distance(s1: Segment, s2: Segment):
    def orient(a, b, c):
        return (b - a).real * (c - a).imag - (b - a).imag * (c - a).real

    a, b, c, d = s1.start, s1.end, s2.start, s2.end
    if (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0):
        return 0.0
    return min(_point_segment_distance(c, s1), _point_segment_distance(d, s1),
               _point_segment_distance(a, s2), _point_segment_distance(b, s2))


def pen_boundary_distance(p1: Pen, p2: Pen):
    """Minimal Euclidean distance between the two pen boundaries."""
    if p1.kind == "circle" and p2.kind == "circle":
        return _circle_circle_distance(p1.params["center"], p1.params["radius"],
                                       p2.params["center"], p2.params["radius"])
    # a polygon pen's boundary pieces are its edges
    if p1.kind == "polygon" and p2.kind == "polygon":
        return min(_segment_segment_distance(s, t) for s in p1.boundary.pieces
                   for t in p2.boundary.pieces)
    circ, poly = (p1, p2) if p1.kind == "circle" else (p2, p1)
    return min(_segment_circle_distance(seg, circ.params["center"],
                                        circ.params["radius"])
               for seg in poly.boundary.pieces)


# ---------------------------------------------------------------------------
# stockyards

@dataclass
class Stockyard:
    """A finite collection of pens with base point and fencing budget."""
    pens: list
    base: complex
    budget: float


@dataclass
class StockyardReport:
    ok: bool
    base_on_boundary: bool
    base_distance: float
    fencing_used: float
    fencing_ok: bool
    n_components: int
    connected: bool
    messages: list = dc_field(default_factory=list)


def validate_stockyard(s: Stockyard) -> StockyardReport:
    """Check the three defining conditions: the base point lies on the
    union of pen boundaries, total fencing is within budget, and the
    boundary union is connected, each to GEOM_TOL relative to the
    stockyard's scale.  Failures are reported, not raised."""
    if not s.pens:
        return StockyardReport(False, False, math.inf, 0.0, False, 0, False,
                               ["stockyard has no pens"])
    # a pen object listed k times is k copies of one region; the copies
    # touch each other, so each distinct object is checked once
    pens = list(dict.fromkeys(s.pens))
    scale = max(1.0, abs(s.base), s.budget, *(p.fencing for p in pens))
    tol = GEOM_TOL * scale

    base_dist = min(point_boundary_distance(s.base, p) for p in pens)
    base_ok = base_dist <= tol

    fencing = sum(p.fencing for p in s.pens)
    fencing_ok = fencing <= s.budget + tol

    n = len(pens)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) != find(j) and pen_boundary_distance(
                    pens[i], pens[j]) <= tol:
                parent[find(i)] = find(j)
    n_components = len({find(i) for i in range(n)})
    connected = n_components == 1

    messages = []
    if not base_ok:
        messages.append(f"base point off boundary by {base_dist:g}")
    if not fencing_ok:
        messages.append(f"fencing {fencing:g} exceeds budget {s.budget:g}")
    if not connected:
        messages.append(f"boundary union has {n_components} components")
    return StockyardReport(base_ok and fencing_ok and connected, base_ok,
                           base_dist, fencing, fencing_ok, n_components,
                           connected, messages)


def stockyard_mass(field: DensityField, s: Stockyard):
    """Total mass of the validated stockyard: the sum of pen masses,
    counting each listed copy of a repeated pen once per copy (its mass
    is computed once).  Raises InvalidStockyard when the stockyard fails
    validation."""
    report = validate_stockyard(s)
    if not report.ok:
        raise InvalidStockyard("; ".join(report.messages))
    masses = {p: pen_mass(field, p) for p in dict.fromkeys(s.pens)}
    return sum(masses[p] for p in s.pens)


# ---------------------------------------------------------------------------
# disk packing (square-grid construction)

def pack_disks(b, a):
    """Centers of pairwise-disjoint radius-a disks inside B(0, b), built
    on a square grid: the centered square of side floor(sqrt(2) b / 2a) *
    2a is cut into side-2a cells, one disk per cell.  The count is at
    least b^2 / (16 a^2), and at least 1."""
    if not 0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if 2.0 * a > math.sqrt(2.0) * b:
        return np.array([0.0 + 0.0j])
    n = int(math.floor(math.sqrt(2.0) * b / (2.0 * a)))
    side = n * 2.0 * a
    offsets = -side / 2.0 + a + 2.0 * a * np.arange(n)
    xx, yy = np.meshgrid(offsets, offsets)
    return (xx + 1j * yy).ravel()


# ---------------------------------------------------------------------------
# seven-loop split

def split_loop_into_seven(loop: PlaneCurve):
    """Split a closed loop of length 3*delta into seven closed loops of
    length at most 2*delta whose line integrals sum to the original's.

    The loop is cut at its thirds z1, z2, z3 (constant-speed marks); the
    first three output loops are each third plus the chord back, and the
    remaining four are the corner and medial triangles of the chord
    triangle (the bisector construction halves the chord triangle's
    perimeter, so each has length at most 1.5*delta).
    """
    if not loop.closed:
        raise ValueError("loop must be closed")
    L = loop.length
    if L < 1e-12:
        raise DegenerateLoop("loop length below 1e-12")
    z = [loop.point_at_length(0.0), loop.point_at_length(L / 3.0),
         loop.point_at_length(2.0 * L / 3.0)]
    z.append(z[0])   # z3 = z0
    out = []
    for i in range(3):
        part = loop.subcurve(i * L / 3.0, (i + 1) * L / 3.0)
        pieces = list(part.pieces)
        chord = Segment(complex(part.end), complex(part.start))
        if chord.length > GEOM_TOL:
            pieces.append(chord)
        out.append(PlaneCurve(pieces))
    bis = [(z[j] + z[j + 1]) / 2.0 for j in range(3)]
    for j in range(3):
        out.append(polygon_curve([z[j], bis[j], bis[j - 1]]))
    out.append(polygon_curve(bis))
    return out
