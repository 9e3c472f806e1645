"""Parameter planning: pick (n, rho) maximizing detection under a time goal.

The probability that a candidate password is similar to the one set at a
random other site grows with the number of real-password derivatives a
responder stores, following an empirical reuse curve; querying rho
responders compounds it to a true detection rate tdr = 1 - (1 - p)^rho.
Response time is modeled as bilinear in the per-responder entry count n
and the fan-out rho.  The planner exhaustively searches the feasible grid
and returns the tdr-maximal choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import InfeasibleError


@dataclass(frozen=True)
class ReuseCurve:
    """Piecewise log-linear estimate of P[candidate similar] vs n/(d+1)."""

    anchors: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.anchors]
        ps = [p for _, p in self.anchors]
        if len(self.anchors) < 2:
            raise ValueError("need at least two anchors")
        if any(x <= 0 for x in xs) or xs != sorted(set(xs)):
            raise ValueError("anchor x values must be positive and strictly increasing")
        if ps != sorted(ps) or ps[0] < 0 or ps[-1] > 1:
            raise ValueError("anchor probabilities must be non-decreasing in [0, 1]")


# Default anchors traced from the published reuse measurements; the curve
# is a pluggable input for deployments with their own telemetry.
DEFAULT_REUSE_CURVE = ReuseCurve((
    (1.0, 0.343),
    (10.0, 0.409),
    (100.0, 0.4305),
    (1000.0, 0.4527),
    (5000.0, 0.4677),
))


def reuse_probability(curve: ReuseCurve, x: float) -> float:
    """Interpolate the curve at x = n/(d+1), clamping outside the anchors."""
    anchors = curve.anchors
    if x <= anchors[0][0]:
        return anchors[0][1]
    if x >= anchors[-1][0]:
        return anchors[-1][1]
    for (x0, p0), (x1, p1) in zip(anchors, anchors[1:]):
        if x0 <= x <= x1:
            w = (math.log(x) - math.log(x0)) / (math.log(x1) - math.log(x0))
            return p0 + w * (p1 - p0)
    raise AssertionError("unreachable: anchors cover the clamped range")


def tdr(p: float, rho: int) -> float:
    """True detection rate over rho independently queried responders."""
    return 1.0 - (1.0 - p) ** rho


@dataclass(frozen=True)
class LatencyModel:
    """t(rho, n) = c0 + c1*n + c2*rho + c3*n*rho, in seconds."""

    c0: float
    c1: float
    c2: float
    c3: float
    rmse: float = 0.0


# Reference coefficients fitted to the measured response times of the two
# deployment models (direct transport vs. onion-routed transport).
TRUSTED_MODEL = LatencyModel(6.4595e-3, 2.2885e-3, 1.0271e-3, 2.0336e-5, rmse=0.1276)
UNTRUSTED_MODEL = LatencyModel(1.5507, 5.8834e-3, 2.6209e-3, 4.7135e-5, rmse=0.4547)

REFERENCE_MODELS = {"trusted": TRUSTED_MODEL, "untrusted": UNTRUSTED_MODEL}


def predict_time(model: LatencyModel, rho: int, n: int) -> float:
    return model.c0 + model.c1 * n + model.c2 * rho + model.c3 * n * rho


def fit_model(samples: Iterable[Tuple[float, float, float]]) -> LatencyModel:
    """Least-squares fit of the four coefficients from (rho, n, time) rows.

    Solves the normal equations XᵀX·c = Xᵀt exactly in rationals.  Requires
    at least eight finite samples with variation on both axes; raises
    ValueError on a rank-deficient design.
    """
    rows = [(float(r), float(n), float(t)) for r, n, t in samples]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("samples must be finite")
    if len(rows) < 8:
        raise ValueError("need at least 8 samples")
    rhos = {r for r, _, _ in rows}
    ns = {n for _, n, _ in rows}
    if len(rhos) < 2 or len(ns) < 2:
        raise ValueError("samples must span both axes")
    xs = [(Fraction(1), Fraction(n), Fraction(r), Fraction(n) * Fraction(r))
          for r, n, _ in rows]
    ts = [Fraction(t) for _, _, t in rows]
    # The augmented matrix [XᵀX | Xᵀt].
    m = [[sum(x[i] * x[j] for x in xs) for j in range(4)]
         + [sum(x[i] * t for x, t in zip(xs, ts))] for i in range(4)]
    xty = [row[4] for row in m]
    # Gauss-Jordan without row swaps: XᵀX is positive semidefinite, so its
    # pivots are ratios of leading principal minors, and a zero pivot
    # appears exactly when the design is rank-deficient.
    for col in range(4):
        pivot = m[col][col]
        if pivot == 0:
            raise ValueError("rank-deficient design matrix")
        m[col] = [v / pivot for v in m[col]]
        for row in range(4):
            factor = m[row][col]
            if row != col and factor:
                m[row] = [a - factor * b for a, b in zip(m[row], m[col])]
    coeffs = [row[4] for row in m]
    # At the exact solution the residual sum of squares is tᵀt − cᵀXᵀt.
    sse = sum(t * t for t in ts) - sum(c * b for c, b in zip(coeffs, xty))
    c0, c1, c2, c3 = (float(c) for c in coeffs)
    return LatencyModel(c0, c1, c2, c3, rmse=math.sqrt(sse / len(rows)))


@dataclass(frozen=True)
class PlanResult:
    n: int
    rho: int
    tdr: float
    t_predicted: float
    d: int


def optimize(t_goal: float, r_a: int, d: int, model: LatencyModel,
             curve: ReuseCurve = DEFAULT_REUSE_CURVE) -> PlanResult:
    """Maximize tdr subject to t(rho, n) <= t_goal, 1 <= rho <= r_a.

    n ranges over multiples of (d + 1) so per-seed budgets divide evenly,
    up to (d + 1) * ceil(x of the curve's last anchor): past that the reuse
    probability is flat, so the search ends even when time does not grow
    with n.  Exhaustive search; ties break toward larger rho, then larger
    n, then smaller predicted time.  Raises ValueError for d < 0 and
    InfeasibleError when not even the cheapest setting fits the goal.
    """
    if d < 0:
        raise ValueError(f"honeyword count d={d} is negative")
    if r_a < 1:
        raise InfeasibleError("no responders registered")
    if predict_time(model, 1, 1) > t_goal:
        raise InfeasibleError(
            f"t_goal={t_goal} below the cheapest achievable response time"
        )
    best = None
    best_key = None
    step = d + 1
    n = step
    n_max = step * math.ceil(curve.anchors[-1][0])
    while n <= n_max and predict_time(model, 1, n) <= t_goal:
        p = reuse_probability(curve, n / (d + 1))
        for rho in range(1, r_a + 1):
            t = predict_time(model, rho, n)
            if t > t_goal:
                break
            key = (tdr(p, rho), rho, n, -t)
            if best_key is None or key > best_key:
                best_key = key
                best = PlanResult(n, rho, tdr(p, rho), t, d)
        n += step
    if best is None:
        raise InfeasibleError(
            f"no multiple of {step} entries fits within t_goal={t_goal}"
        )
    return best


def parse_curve_file(text: str) -> ReuseCurve:
    """Curve file: one ``x,p`` pair per line; ``#`` comments allowed."""
    anchors = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        x, p = line.split(",")
        anchors.append((float(x), float(p)))
    return ReuseCurve(tuple(anchors))


SAMPLES_HEADER = "rho,n,time"
COEFF_NAMES = ("c0", "c1", "c2", "c3")


def parse_samples_file(text: str) -> List[Tuple[float, float, float]]:
    """Samples file: one ``rho,n,time`` row per measured round trip, after
    an optional ``rho,n,time`` header; blank lines are skipped."""
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if rows and [field.strip() for field in rows[0]] == SAMPLES_HEADER.split(","):
        rows = rows[1:]
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"not a {SAMPLES_HEADER} row: {','.join(row)}")
    return [(float(rho), float(n), float(t)) for rho, n, t in rows]


def format_samples_file(samples: Iterable[Tuple[float, float, float]]) -> str:
    """The samples file ``parse_samples_file`` reads, with a header and each
    time written exactly."""
    return SAMPLES_HEADER + "\n" + "".join(f"{rho},{n},{t!r}\n" for rho, n, t in samples)


def parse_coeffs_file(text: str) -> LatencyModel:
    """Coefficients file: ``key = value`` lines for c0..c3 (rmse optional)."""
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = float(value)
    missing = set(COEFF_NAMES) - values.keys()
    if missing:
        raise ValueError(f"coefficients file missing {sorted(missing)}")
    return LatencyModel(
        values["c0"], values["c1"], values["c2"], values["c3"],
        rmse=values.get("rmse", 0.0),
    )


def format_coeffs_file(model: LatencyModel) -> str:
    """The coefficients file ``parse_coeffs_file`` reads, as ``planner fit``
    prints it."""
    lines = [f"{name} = {getattr(model, name):.6e}" for name in COEFF_NAMES]
    return "\n".join(lines + [f"rmse = {model.rmse:.4f}"]) + "\n"
