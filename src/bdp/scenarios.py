"""Reproducible scenario families: builtin map sequences, initial curves or
intervals, and hypothesis budgets (analytic where the family admits closed
forms, sampled otherwise)."""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import circle_arc, reparameterize_natural, segment
from .distortion import HypothesisBudget
from .maps import Box, MapSequence, SeminormEstimate, SmoothMap, estimate_seminorms, pointwise


@dataclass(frozen=True)
class SturmianParams:
    """Mechanical-word parameters: s_n = ⌊(n+1)·slope + intercept⌋ − ⌊n·slope + intercept⌋."""

    slope: float
    intercept: float = 0.0
    length: int = 1

    def __post_init__(self):
        if not 0 < self.slope < 1:
            raise ValueError("slope must lie in (0, 1)")
        if not 0 <= self.intercept < 1:
            raise ValueError("intercept must lie in [0, 1)")
        if self.length < 1:
            raise ValueError("length must be positive")


def sturmian_word(params):
    """The binary mechanical word s_1 ... s_length."""
    a, r = params.slope, params.intercept
    return [
        int(math.floor((n + 1) * a + r) - math.floor(n * a + r))
        for n in range(1, params.length + 1)
    ]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative scenario: family name, step count, seed and parameters."""

    family: str
    n: int = 10
    seed: int = 0
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# builtin maps


def quadratic_1d(a=0.5, b=0.125, name="quadratic-1d"):
    """f(x) = a·x + b·x² on [0, 1] with analytic seminorm annotations.

    Requires a > 0, b >= 0 and a + 2b < 1 so that [0, 1] maps into itself
    and the derivative stays positive.
    """
    if not (a > 0 and b >= 0 and a + 2 * b < 1):
        raise ValueError("need a > 0, b >= 0, a + 2b < 1")
    region = Box([0.0], [1.0])
    seminorms = SeminormEstimate(
        c1=a + 2 * b,
        c1_inv=1.0 / a,
        c2=2 * b,
        region=region,
        provenance="analytic",
    )

    return SmoothMap(
        dim=1,
        func_batch=lambda X: a * X + b * X**2,
        jacobian_batch=lambda X: (a + 2 * b * X)[..., None],
        second_batch=pointwise(lambda x, u, v: np.array([2 * b * u[0] * v[0]])),
        region=region,
        name=name,
        seminorms=seminorms,
    )


def quadratic_1d_ratio_constants(a, b):
    """Analytic C = sup|f''|/|f'| and L = Σ|I_j| budget for ``quadratic_1d``."""
    c = 2 * b / a
    slope_sup = a + 2 * b
    length_budget = 1.0 / (1.0 - slope_sup)
    return c, length_budget


def rotation_map(theta):
    """Planar rotation by ``theta``; an isometry, so all analytic constants are tight."""
    c, s = math.cos(theta), math.sin(theta)
    mat = np.array([[c, -s], [s, c]])
    return SmoothMap(
        dim=2,
        func_batch=lambda X: X @ mat.T,
        jacobian_batch=lambda X: np.broadcast_to(mat, (len(X), 2, 2)).copy(),
        second_batch=pointwise(lambda x, u, v: np.zeros(2)),
        name=f"rotation({theta})",
        seminorms=SeminormEstimate(c1=1.0, c1_inv=1.0, c2=0.0, provenance="analytic"),
    )


def quadratic_planar_map(mat, offset, hessians, region, name="quadratic-planar"):
    """f(x) = A·x + c + (xᵀH₁x, xᵀH₂x) with analytic derivative callbacks."""
    mat = np.asarray(mat, dtype=float)
    offset = np.asarray(offset, dtype=float)
    hs = [0.5 * (np.asarray(h, dtype=float) + np.asarray(h, dtype=float).T) for h in hessians]
    d = mat.shape[0]

    def second(x, u, v):
        return np.array([2.0 * (u @ h @ v) for h in hs])

    def func_batch(X):
        quad = np.stack([np.einsum("ki,ij,kj->k", X, h, X) for h in hs], axis=1)
        return X @ mat.T + offset + quad

    def jacobian_batch(X):
        rows = np.stack([2.0 * X @ h.T for h in hs], axis=1)
        return mat + rows

    return SmoothMap(
        dim=d,
        func_batch=func_batch,
        jacobian_batch=jacobian_batch,
        second_batch=pointwise(second),
        region=region,
        name=name,
    )


def quadratic_planar_constants(mat, hessians, region, epsilon=None):
    """Closed-form upper bounds for the seminorms of ``quadratic_planar_map``
    on ``region``: the quadratic part has constant second derivative, and the
    Jacobian perturbation is linear in x."""
    hs = [0.5 * (np.asarray(h) + np.asarray(h).T) for h in hessians]
    h2 = 2.0 * math.sqrt(sum(np.linalg.norm(h, 2) ** 2 for h in hs))
    radius = float(np.linalg.norm(np.maximum(np.abs(region.lo), np.abs(region.hi))))
    c1 = float(np.linalg.norm(mat, 2)) + h2 * radius
    inv_norm = float(np.linalg.norm(np.linalg.inv(mat), 2))
    delta = inv_norm * h2 * radius
    if delta >= 1:
        raise ValueError("quadratic perturbation too large for an inverse bound")
    c1_inv = inv_norm / (1.0 - delta)
    holder = None
    if epsilon is not None:
        holder = (epsilon, h2 * region.diameter ** (1.0 - epsilon))
    return SeminormEstimate(
        c1=c1, c1_inv=c1_inv, c2=h2, region=region, holder=holder, provenance="analytic"
    )


def fibonacci_trace_map(region=None):
    """The Fibonacci trace map (x, y, z) ↦ (2xy − z, x, y)."""

    def second(x, u, v):
        return np.array([2.0 * (u[0] * v[1] + u[1] * v[0]), 0.0, 0.0])

    def func_batch(X):
        return np.stack([2 * X[:, 0] * X[:, 1] - X[:, 2], X[:, 0], X[:, 1]], axis=1)

    def jacobian_batch(X):
        n = len(X)
        jac = np.zeros((n, 3, 3))
        jac[:, 0, 0] = 2 * X[:, 1]
        jac[:, 0, 1] = 2 * X[:, 0]
        jac[:, 0, 2] = -1.0
        jac[:, 1, 0] = 1.0
        jac[:, 2, 1] = 1.0
        return jac

    return SmoothMap(
        dim=3,
        func_batch=func_batch,
        jacobian_batch=jacobian_batch,
        second_batch=pointwise(second),
        region=region,
        name="fibonacci-trace-map",
    )


def trace_map_invariant(p):
    """The conserved quantity x² + y² + z² − 2xyz − 1 of the trace map."""
    x, y, z = p
    return x * x + y * y + z * z - 2 * x * y * z - 1.0


# ---------------------------------------------------------------------------
# scenario families


def _build_1d_quadratic(n, seed, *, a=0.5, b=0.125):
    m = quadratic_1d(a, b)
    c, length_budget = quadratic_1d_ratio_constants(a, b)
    seq = MapSequence(tuple([m] * n))
    budget = HypothesisBudget(C=c, L=length_budget, c_prov="analytic", l_prov="analytic")
    return seq, (0.0, 1.0), budget


def _build_planar_rotations(n, seed, *, angle=0.1, length=1.0):
    seq = MapSequence(tuple(rotation_map(angle) for _ in range(n)))
    curve = reparameterize_natural(segment([0.0, 0.0], [length, 0.0]), 64)
    c = max(m.seminorms.constant for m in seq)
    budget = HypothesisBudget(
        C=c,
        L=n * length,
        alpha=0.0,
        c_prov="analytic",
        l_prov="analytic",
        a_prov="analytic",
    )
    return seq, curve, budget


def _build_contraction_shear(n, seed, *, epsilon=None):
    rng = np.random.default_rng(seed)
    region = Box([-1.5, -1.5], [1.5, 1.5])
    maps = []
    big_c = 0.0
    rho = 0.0
    holder_c = 0.0
    for j in range(n):
        s = rng.uniform(0.35, 0.5)
        theta = rng.uniform(-0.3, 0.3)
        k = rng.uniform(-0.15, 0.15)
        offset = rng.uniform(-0.1, 0.1, size=2)
        hessians = [rng.uniform(-0.005, 0.005, size=(2, 2)) for _ in range(2)]
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shear = np.array([[1.0, k], [0.0, 1.0]])
        mat = s * rot @ shear
        est = quadratic_planar_constants(mat, hessians, region, epsilon=epsilon)
        m = quadratic_planar_map(mat, offset, hessians, region, name=f"contraction-shear-{j}")
        maps.append(replace(m, seminorms=est))
        big_c = max(big_c, est.constant)
        rho = max(rho, est.c1)
        if epsilon is not None:
            holder_c = max(holder_c, est.c1, est.c1_inv, est.holder[1])
    if rho >= 1:
        raise ValueError("drawn maps are not uniform contractions")
    curve = circle_arc(1.0, 0.0, math.pi / 2)
    gamma0 = reparameterize_natural(curve, 512)
    length0 = gamma0.total_length
    alpha_budget = n * math.pi  # maximal angle of a curve never exceeds π
    if epsilon is None:
        length_budget = length0 * (1.0 - rho**n) / (1.0 - rho)
        c_used = big_c
    else:
        length_budget = sum((length0 * rho**i) ** epsilon for i in range(n))
        c_used = holder_c
    budget = HypothesisBudget(
        C=c_used,
        L=length_budget,
        alpha=alpha_budget,
        epsilon=epsilon,
        c_prov="analytic",
        l_prov="analytic",
        a_prov="analytic",
    )
    return MapSequence(tuple(maps)), gamma0, budget


def _build_sturmian_two_maps(
    n, seed, *, slope=2.0 - (1.0 + math.sqrt(5.0)) / 2.0, intercept=0.0
):
    word = sturmian_word(SturmianParams(slope=slope, intercept=intercept, length=n))
    map_a = quadratic_1d(0.5, 0.125, name="sturmian-A")
    map_b = quadratic_1d(1.0 / 3.0, 1.0 / 18.0, name="sturmian-B")
    c_a, l_a = quadratic_1d_ratio_constants(0.5, 0.125)
    c_b, l_b = quadratic_1d_ratio_constants(1.0 / 3.0, 1.0 / 18.0)
    budget = HypothesisBudget(
        C=max(c_a, c_b),
        L=max(l_a, l_b),
        c_prov="analytic",
        l_prov="analytic",
    )
    seq = MapSequence(tuple(map_b if s else map_a for s in word))
    return seq, (0.0, 1.0), budget


def _build_fibonacci_trace(
    n, seed, *, box_half_width=2.0, seminorm_resolution=5, segment_half_length=0.05
):
    region = Box([-box_half_width] * 3, [box_half_width] * 3)
    m = fibonacci_trace_map()
    est = estimate_seminorms(m, region, seminorm_resolution)
    center = np.full(3, 0.5)
    half = segment_half_length * (np.ones(3) / math.sqrt(3.0))
    gamma0 = reparameterize_natural(segment(center - half, center + half), 64)
    budget = HypothesisBudget(C=est.constant, c_prov="sampled")
    seq = MapSequence(tuple([m] * n))
    return seq, gamma0, budget


# Each builder is called as builder(n, seed, **params); its keyword-only
# arguments and their defaults are the family's parameters.
SCENARIOS = {
    "1d-quadratic-contraction": {
        "builder": _build_1d_quadratic,
        "kind": "1d",
        "description": "n copies of f(x) = a·x + b·x² on [0,1]; analytic C and L",
    },
    "planar-rotations": {
        "builder": _build_planar_rotations,
        "kind": "curve",
        "description": "rotation isometries applied to a unit-speed segment; C = 1",
    },
    "planar-contraction-shear": {
        "builder": _build_contraction_shear,
        "kind": "curve",
        "description": "seeded planar contraction+shear maps with a quadratic term "
        "on a quarter circle; closed-form budget annotations",
    },
    "sturmian-two-maps": {
        "builder": _build_sturmian_two_maps,
        "kind": "1d",
        "description": "two 1D contractions alternated by a mechanical word",
    },
    "fibonacci-trace-map": {
        "builder": _build_fibonacci_trace,
        "kind": "curve",
        "description": "the trace map (x,y,z) ↦ (2xy−z, x, y) on a short segment; "
        "sampled seminorms only, so verdicts stay hypothesis-unverified",
    },
}


#: each family's parameters and their defaults: its builder's keyword-only arguments
PARAMS = {family: dict(entry["builder"].__kwdefaults__) for family, entry in SCENARIOS.items()}


def build_sequence(spec):
    """Materialize a scenario: (MapSequence, curve or interval, HypothesisBudget).
    Each parameter must be one of the family's, and integral where its default is an int."""
    if spec.family not in SCENARIOS:
        raise ValueError(f"unknown scenario family {spec.family!r}")
    if spec.n < 1:
        raise ValueError("scenario needs n >= 1")
    defaults = PARAMS[spec.family]
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise ValueError(f"scenario {spec.family} takes no {unknown}, only {list(defaults)}")
    params = dict(spec.params)
    for key, value in spec.params.items():
        if isinstance(defaults[key], int):
            if not float(value).is_integer():
                raise ValueError(f"scenario parameter {key!r} must be an integer, got {value!r}")
            params[key] = int(value)
    return SCENARIOS[spec.family]["builder"](spec.n, spec.seed, **params)
