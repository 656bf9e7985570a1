"""Rate functions and Monte Carlo deviation estimates.

The pressure of a label observable is the best weighted spectral radius over
the component chain; one-dimensional convex duality turns it into level-1
rate functions, which Monte Carlo estimates of digit-frequency deviations
are checked against.  Orbit sampling reads the digits of fixed-point integer
orbits with enough guard bits that the expanding dynamics cannot corrupt
them; double orbits stand in for them where an error bound certifies that
they read the same digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from negabeta.measures import MarkovMeasure, parry_measure, _psi_value
from negabeta.sampling import _count_hits, _sample_doubles, _sample_int
from negabeta.shiftgraph import ComponentChain, chain_for, spectral_radius
from negabeta.transform import MinusBetaSystem

Psi = Union[dict, Callable[[int], float]]

_Z95 = 1.959963984540054


class LdpError(Exception):
    """Base class for errors raised by this module."""


class UnachievableLevel(LdpError):
    """The requested mean lies outside the closed hull of achievable means."""


class OrbitTooLong(LdpError):
    """The orbit needs more bits than a sample carries."""


class WindowNeverHit(LdpError):
    """No sample fell in the target window; only a rate lower bound exists."""

    def __init__(self, estimate: "DeviationEstimate"):
        self.estimate = estimate
        self.report = estimate.to_json_dict()  # the command's zero-hit stdout
        super().__init__(
            f"0 of {estimate.sample_count} samples hit the window; "
            f"empirical rate exceeds {estimate.rate_lower_bound:.6f}"
        )


class WrongBeta(LdpError):
    """The operation is specific to a different base."""


@dataclass(frozen=True)
class RateResult:
    """Level-1 rate at one target mean."""

    a: float
    rate: float
    entropy: float
    t_star: float
    component: int

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "rate": self.rate,
            "H": self.entropy,
            "t_star": self.t_star,
            "component": self.component + 1,
        }


@dataclass(frozen=True)
class DeviationEstimate:
    """Monte Carlo tail estimate with a binomial confidence interval."""

    n: int
    sample_count: int
    hits: int
    rate: Optional[float]
    ci_lo: float
    ci_hi: float
    seed: int

    @property
    def rate_lower_bound(self) -> float:
        # with zero hits only the Wilson upper probability bound is informative
        return self.ci_lo

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.sample_count,
            "hits": self.hits,
            "rate": self.rate,
            "ci_lo": self.ci_lo,
            "ci_hi": "inf" if self.ci_hi == math.inf else self.ci_hi,  # JSON has no infinity
            "seed": self.seed,
        }


# -- free energy --------------------------------------------------------------------


def free_energy(mu: Union[MarkovMeasure, float], phi_const: float,
                invariant: bool = True) -> float:
    """Entropy minus the constant reference, or -inf off the invariant set.

    Accepts a Markov measure (stationary, hence invariant) or an explicit
    entropy value for point masses on periodic orbits; anything declared
    non-invariant maps to -inf.
    """
    if not invariant:
        return float("-inf")
    if isinstance(mu, MarkovMeasure):
        h = mu.entropy()
    else:
        h = float(mu)
    return h - phi_const


# -- pressure over the component chain --------------------------------------------------


# One component of the chain with the observable on its edges: the vertex
# count, the edges as (src, dst, psi(label)) in sorted (src, label, dst) order,
# and, when psi takes one finite value on every edge, the log of the spectral
# radius of the component's t-independent matrix (else None).
_WeightedComponent = tuple[int, list[tuple[int, int, float]], Optional[float]]


def _weighted_components(chain: ComponentChain, psi: Psi) -> list[_WeightedComponent]:
    """The chain's components with the observable's value on every edge.

    :func:`pressure` builds them on each call unless it is given them;
    :func:`rate_envelope` builds them once for all the points of a rate.  A
    component on whose edges psi is one value v has every shifted weight
    ``t*v - t*v = 0.0`` at every t, so its matrix does not depend on t and its
    spectral radius is found here, once.
    """
    out = []
    for i in range(chain.q):
        graph = chain.component_graph(i)
        n = graph.vertex_count
        edges = [(s, d, _psi_value(psi, a)) for s, a, d in sorted(graph.edges)]
        constant = None
        if len({value for _, _, value in edges}) == 1 and math.isfinite(edges[0][2]):
            rho = _radius(n, edges, [0.0] * len(edges))
            constant = math.log(rho) if rho > 0 else float("-inf")
        out.append((n, edges, constant))
    return out


def _radius(n: int, edges: list[tuple[int, int, float]], shifted: list[float]) -> float:
    """Spectral radius of the n x n matrix that sums exp(w) over the edges
    (src, dst, _) with shifted weights w."""
    import numpy as np

    mat = np.zeros((n, n))
    for (s, d, _), weight in zip(edges, shifted):
        mat[s, d] += math.exp(weight)
    return spectral_radius(mat)


def _component_pressure(component: _WeightedComponent, t: float) -> float:
    n, edges, constant = component
    if not edges:
        return float("-inf")
    if constant is not None:
        # t*v is the shift of every weight; a non-finite one takes the general path
        shift = t * edges[0][2]
        if math.isfinite(shift):
            return shift + constant
    weights = [t * value for _, _, value in edges]
    shift = max(weights)
    rho = _radius(n, edges, [weight - shift for weight in weights])
    if rho <= 0:
        return float("-inf")
    return shift + math.log(rho)


def pressure(chain: ComponentChain, psi: Psi, t: float, *,
             components: Optional[list[_WeightedComponent]] = None) -> tuple[float, int]:
    """Best weighted growth rate over the chain, with the achieving component.

    Invariant measures decompose over the ordered pieces, so the supremum
    over all of them is the maximum of the per-component weighted spectral
    radii; mixtures never beat the best piece.  ``components``, if given,
    is ``_weighted_components(chain, psi)``.
    """
    if components is None:
        components = _weighted_components(chain, psi)
    best = float("-inf")
    arg = 0
    for i, component in enumerate(components):
        val = _component_pressure(component, t)
        if val > best:
            best, arg = val, i
    return best, arg


def pressure_value(chain: ComponentChain, psi: Psi, t: float) -> float:
    return pressure(chain, psi, t)[0]


# -- achievable means ----------------------------------------------------------------------


def _cycle_mean_range(component: _WeightedComponent) -> tuple[float, float]:
    """Min and max mean of the observable over the directed cycles of one component.

    Karp's minimum mean cycle, on the labels and on their negatives; a
    component without a cycle gives (inf, -inf).
    """
    n, edges, _ = component
    lo = math.inf
    hi = -math.inf
    for sign in (1, -1):
        dist = [[math.inf] * n for _ in range(n + 1)]
        for v in range(n):
            dist[0][v] = 0.0
        for k in range(1, n + 1):
            for s, t_, value in edges:
                w = sign * value
                if dist[k - 1][s] + w < dist[k][t_]:
                    dist[k][t_] = dist[k - 1][s] + w
        best = math.inf
        for v in range(n):
            if dist[n][v] == math.inf:
                continue
            worst = -math.inf
            for k in range(n):
                if dist[k][v] != math.inf:
                    worst = max(worst, (dist[n][v] - dist[k][v]) / (n - k))
            if worst != -math.inf:
                best = min(best, worst)
        if best != math.inf:
            if sign == 1:
                lo = best
            else:
                hi = 0.0 - best  # not -best: a zero maximum is 0.0, not -0.0
    return lo, hi


# -- the level-1 rate ------------------------------------------------------------------------


_T_CAP = 256.0  # largest |t| a rate point's dual variable takes
_T_TOL = 1e-7  # a Newton step below this, relative to 1 + |t|, leaves an error near its square
_KINK_TOL = 1e-12  # a tangent step or bracket below this, relative to 1 + |t|, ends a solve
_MAX_STEPS = 100  # bound on the pressure evaluations of one rate point
_KINK_DEGREE = 64  # largest degree of a kink polynomial that is built and isolated


@dataclass(frozen=True)
class _Point:
    """The pressure at t, the component achieving it, and that component's
    first and second derivative at t."""

    t: float
    value: float
    component: int
    slope: float
    curvature: float


@dataclass(frozen=True)
class _Kink:
    """An exact first-order phase transition: the pieces left and right of t."""

    left: _Point
    right: _Point

    @property
    def component(self) -> int:
        # the rule of level1_rate: the later of the two pieces in chain order
        return max(self.left.component, self.right.component)


def _perron(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and right Perron vector of an irreducible nonnegative matrix.

    The Perron root is the eigenvalue of largest real part, also when
    others share its modulus.  An eigensolver gives each vector entry to an
    absolute error near the largest entry times 2^-52, so entries many
    orders smaller (far out in t) may be noise.  While some entry i of r
    misses (A r)_i = rho r_i by a relative 1e-12, r is corrected by the
    Perron vector of diag(r)^-1 A diag(r), whose entries are near 1 where r
    is right: each pass gains about 16 orders of magnitude.
    """
    import numpy as np

    scaled = mat
    right = np.ones(len(mat))
    for _ in range(8):
        values, vectors = np.linalg.eig(scaled)
        k = int(np.argmax(values.real))
        rho = float(values[k].real)
        right = right * np.abs(vectors[:, k].real)
        right = np.maximum(right / right.max(), 1e-150)
        if np.all(np.abs(mat @ right - rho * right) <= 1e-12 * rho * right):
            break
        scaled = mat * right[None, :] / right[:, None]
    return rho, right


def _stationary(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible stochastic matrix, read off
    its off-diagonal entries by Grassmann-Taksar-Heyman elimination, which
    subtracts nothing and so keeps its relative accuracy when the chain is
    nearly reducible."""
    import numpy as np

    p = p.copy()
    n = len(p)
    for k in range(n - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


def _slopes(component: _WeightedComponent, means: tuple[float, float],
            t: float) -> tuple[float, float]:
    """First and second derivative in t of one component's pressure.

    An affine component (psi one value on it, or every cycle of the same
    mean) has slope that mean and curvature 0.  Otherwise, with A(t) the
    component's matrix, rho and r its Perron root and right vector, the
    equilibrium state is the Markov chain S = A_ij r_j / (rho r_i) with
    stationary distribution pi (:func:`_stationary`).  The slope is the
    mean of psi over its edges, and the curvature is the asymptotic
    variance of psi's Birkhoff sums: with f = psi - slope,
    E[f^2] + 2 pi (S f) y, where (I - S + 1 pi) y = g and g_i is the mean
    of f over the edges out of i.  Weights are shifted by their maximum,
    which scales A and leaves S alone.  Far out, where a Perron vector
    entry underflows, the slope is its limit, the component's extreme
    cycle mean, and the curvature 0.
    """
    import numpy as np

    n, edges, constant = component
    if constant is not None:
        return edges[0][2], 0.0
    lo, hi = means
    if lo == hi:
        return lo, 0.0
    weights = [t * value for _, _, value in edges]
    shift = max(weights)
    mat = np.zeros((n, n))
    first = np.zeros((n, n))
    second = np.zeros((n, n))
    for (s, d, value), weight in zip(edges, weights):
        e = math.exp(weight - shift)
        mat[s, d] += e
        first[s, d] += value * e
        second[s, d] += value * value * e
    with np.errstate(all="ignore"):
        rho, right = _perron(mat)
        scale = right[None, :] / (rho * right[:, None])
        stoch = mat * scale
        pi = _stationary(stoch)
        means_out = (first * scale).sum(axis=1)  # mean of psi over the edges out of each state
        slope = float(pi @ means_out)
        g = means_out - slope * stoch.sum(axis=1)
        spread = ((second - 2 * slope * first) * scale).sum(axis=1) + slope * slope * stoch.sum(axis=1)
        try:
            y = np.linalg.solve(np.eye(n) - stoch + pi[None, :], g)  # I - S + 1 pi
        except np.linalg.LinAlgError:
            y = np.full(n, math.nan)
        curvature = float(pi @ spread + 2 * (pi @ (first * scale - slope * stoch) @ y))
    if not lo <= slope <= hi:
        return (lo if t < 0 else hi), 0.0
    return slope, curvature if math.isfinite(curvature) else 0.0


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix, by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _kink_polynomial(n: int, exponents: list[tuple[int, int, int]], power: int,
                     root: int) -> list[int]:
    """Integer coefficients, low degree first, of det(z^power root I - B(z)),
    where B(z) sums z^e over the (src, dst, e) of ``exponents``.

    The determinant is evaluated exactly at z = 0 .. D, D a bound on its
    degree, and interpolated in Newton's form at those points.
    """
    degree = n * max([power] + [e for _, _, e in exponents])
    values = []
    for z in range(degree + 1):
        rows = [[0] * n for _ in range(n)]
        for v in range(n):
            rows[v][v] = z**power * root
        for s, d, e in exponents:
            rows[s][d] -= z**e
        values.append(Fraction(_int_det(rows)))
    for j in range(1, degree + 1):  # divided differences at 0, 1, .., D
        for i in range(degree, j - 1, -1):
            values[i] = (values[i] - values[i - 1]) / j
    poly = [values[degree]]
    for i in range(degree - 1, -1, -1):  # poly <- poly * (z - i) + values[i]
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= i * poly[k + 1]
        poly[0] += values[i]
    coeffs = [int(c) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _exact_kinks(chain: ComponentChain, psi: Psi, components: list[_WeightedComponent],
                 means: list[tuple[float, float]]) -> list[_Kink]:
    """The phase transitions of the pressure against constant components, found exactly.

    A component K on whose edges psi is one integer value v, and whose
    Perron root is an integer r, has pressure v t + log r.  Where it ties
    with a non-affine component C on integer values, the Perron root of
    C's matrix at z = e^t equals z^v r, so z is a positive root of the
    integer polynomial det(z^v r I - A_C(z)) (values shifted by their
    minimum, which moves both pressures alike).  Its positive real roots
    are located in floats; a root is a kink when the pressure of the whole
    chain at its t ties with K (so the root is C's Perron root and no other
    component lies above), and is then isolated with
    :func:`negabeta.algebraic.make_algebraic`.  The kink's t is the log of
    the isolated root and its pressure is v t + log r, so neither reads a
    floating spectral radius.  Any other transition is left to the solve
    of each rate point.
    """
    import numpy as np

    from negabeta.algebraic import AlgebraicError, make_algebraic

    def integral(component):
        return all(value.is_integer() for _, _, value in component[1])

    kinks = []
    for i, (n_k, edges_k, constant) in enumerate(components):
        if constant is None or not integral(components[i]):
            continue
        root = round(math.exp(constant))
        counts = [[0] * n_k for _ in range(n_k)]
        for s, d, _ in edges_k:
            counts[s][d] -= 1
        for v in range(n_k):
            counts[v][v] += root
        if root < 1 or _int_det(counts) != 0:
            continue
        v_k = edges_k[0][2]
        for j, component in enumerate(components):
            n_c, edges_c, _ = component
            if j == i or means[j][0] == means[j][1] or not integral(component):
                continue
            base = min(v_k, min(value for _, _, value in edges_c))
            exponents = [(s, d, int(value - base)) for s, d, value in edges_c]
            power = int(v_k - base)
            if n_c * max([power] + [e for _, _, e in exponents]) > _KINK_DEGREE:
                continue
            coeffs = _kink_polynomial(n_c, exponents, power, root)
            if len(coeffs) < 2:
                continue
            for z in np.roots(coeffs[::-1]):
                if abs(z.imag) > 1e-7 * abs(z) or z.real <= 0:
                    continue
                t = math.log(z.real)
                if not abs(t) < _T_CAP:
                    continue
                tie = v_k * t + math.log(root)
                value, _ = pressure(chain, psi, t, components=components)
                if abs(value - tie) > 1e-9 * (1 + abs(tie)):
                    continue
                width = Fraction(z.real) / 10**9
                try:
                    exact = make_algebraic(coeffs, Fraction(z.real) - width,
                                           Fraction(z.real) + width)
                except AlgebraicError:
                    continue
                t = math.log(float(exact))
                tie = v_k * t + math.log(root)
                slope, curvature = _slopes(component, means[j], t)
                if slope == v_k:
                    continue
                flat = _Point(t, tie, i, v_k, 0.0)
                curved = _Point(t, tie, j, slope, curvature)
                kinks.append(_Kink(flat, curved) if v_k < slope else _Kink(curved, flat))
    return sorted(kinks, key=lambda kink: kink.left.t)


@dataclass
class RateEnvelope:
    """What the level-1 rate of one chain and observable reads at every target mean.

    The components with the observable on their edges, each component's
    range of cycle means (Karp), the exact kinks of :func:`_exact_kinks`,
    and, once a rate point needs it, the pressure at t = 0 from which a
    point with no kink beside it starts.
    """

    chain: ComponentChain
    psi: Psi
    components: list[_WeightedComponent]
    means: list[tuple[float, float]]
    kinks: list[_Kink]
    _anchor: Optional[_Point] = None

    @property
    def lo(self) -> float:
        return min(lo for lo, _ in self.means)

    @property
    def hi(self) -> float:
        return max(hi for _, hi in self.means)

    def evaluate(self, t: float) -> _Point:
        """One pressure evaluation, with the slope and curvature of the achieving component."""
        value, comp = pressure(self.chain, self.psi, t, components=self.components)
        slope, curvature = _slopes(self.components[comp], self.means[comp], t)
        return _Point(t, value, comp, slope, curvature)

    def anchor(self) -> _Point:
        if self._anchor is None:
            self._anchor = self.evaluate(0.0)
        return self._anchor


def rate_envelope(chain: ComponentChain, psi: Psi) -> RateEnvelope:
    """The part of the level-1 rate that does not depend on the target mean,
    built once for all the points of a rate."""
    components = _weighted_components(chain, psi)
    means = [_cycle_mean_range(component) for component in components]
    return RateEnvelope(chain, psi, components, means,
                        _exact_kinks(chain, psi, components, means))


def _newton_step(x: _Point, means: tuple[float, float], a: float) -> Optional[float]:
    """Newton's step toward slope a on the logit of x's component's slope, or None.

    On a non-affine component the slope P'(t) runs from its least cycle
    mean lo to its greatest hi; log((P' - lo) / (hi - P')) is asymptotically
    linear at both ends (exactly t for base 2), so Newton's method on it
    needs few steps even far out.  None when the curvature vanishes or a
    slope leaves (lo, hi).
    """
    lo, hi = means
    s, k = x.slope, x.curvature
    if not (lo < a < hi and lo < s < hi and k > 0):
        return None
    gap = math.log((s - lo) / (a - lo)) + math.log((hi - a) / (hi - s))
    return x.t - gap / (k * (1 / (s - lo) + 1 / (hi - s)))


def _tangent_step(left: _Point, right: _Point) -> float:
    """Where the tangent lines of the pressure at the two bracket ends meet."""
    return ((left.value - right.value + right.slope * right.t - left.slope * left.t)
            / (right.slope - left.slope))


def _solve(envelope: RateEnvelope, a: float) -> tuple[float, float, int]:
    """(t, H, component) for a mean strictly between the extreme cycle means.

    The kinks whose slopes enclose a answer at once; the others bracket t.
    Inside the bracket each step is Newton's (:func:`_newton_step`) from
    the last point or else from the other end on the same component; a
    bracket whose ends lie on different components takes the tangent step
    (:func:`_tangent_step`), which converges on a transition no kink
    polynomial pinned, and one on a single component is halved.  An end
    still at a cap is evaluated when a step needs it.
    """
    left: Optional[_Point] = None
    right: Optional[_Point] = None
    for kink in envelope.kinks:
        if a < kink.left.slope:
            right = kink.left
            break
        if a <= kink.right.slope:
            return kink.left.t, kink.left.value - kink.left.t * a, kink.component
        left = kink.right
    x = left or right or envelope.anchor()
    for _ in range(_MAX_STEPS):
        if x.slope == a:
            return x.t, x.value - x.t * a, x.component
        if x.slope < a:
            left = x
        else:
            right = x
        lo_t = left.t if left else -_T_CAP
        hi_t = right.t if right else _T_CAP
        step = _newton_step(x, envelope.means[x.component], a)
        if step is not None and abs(step - x.t) <= _T_TOL * (1 + abs(x.t)):
            # another Newton step would move t by about the square of this
            # one: a Taylor step gives the pressure
            d = step - x.t
            return step, x.value + d * (x.slope + d * x.curvature / 2) - step * a, x.component
        other = left if x is right else right
        if not (step is not None and lo_t < step < hi_t) and other and \
                other.component == x.component:
            step = _newton_step(other, envelope.means[other.component], a)
        if step is None or not lo_t < step < hi_t:
            if left is None or right is None:
                x = envelope.evaluate(-_T_CAP if left is None else _T_CAP)
                if (left is None) == (x.slope >= a):  # the solution lies beyond the cap
                    return x.t, x.value - x.t * a, x.component
                continue
            step = _tangent_step(left, right)
            if left.component == right.component or not lo_t < step < hi_t:
                step = (lo_t + hi_t) / 2
            if min(abs(step - x.t), hi_t - lo_t) <= _KINK_TOL * (1 + abs(x.t)):
                value, _ = pressure(envelope.chain, envelope.psi, step,
                                    components=envelope.components)
                comp = (max(left.component, right.component)
                        if left.component != right.component else x.component)
                return step, value - step * a, comp
        x = envelope.evaluate(step)
    return x.t, x.value - x.t * a, x.component


def level1_rate(chain: ComponentChain, psi: Psi, a: float, phi_const: float, *,
                envelope: Optional[RateEnvelope] = None) -> RateResult:
    """Level-1 rate at mean a, by convex duality against the pressure.

    H(a) = inf_t (P(t) - t a), attained where a lies between the one-sided
    slopes of the convex pressure P; the rate is phi_const - H(a).
    ``envelope``, if given, is ``rate_envelope(chain, psi)``, built once for
    many means.

    - At an exact kink t* (:func:`_exact_kinks`) whose one-sided slopes
      enclose a, the answer is t* with no search.  The component reported
      there is the later of the two tied components in chain order: on the
      cubic base with ``digit1`` it is the tail, for every a up to
      5 - 2 sqrt 5.
    - Otherwise t solves P'(t) = a inside the bracket the kinks leave:
      Newton steps on the logit of the achieving component's slope
      (:func:`_newton_step`), tangent-line steps across a transition no
      kink pinned, each from one call of :func:`pressure` and the
      achieving component's Perron vector.  The component reported is the
      one achieving the pressure at the last evaluated t, or, on a
      transition found this way, the later of its two components.
    - A mean at or beyond an extreme cycle mean is reached only as
      t -> -inf or +inf: t is the cap -256 or 256, and the component is the
      first one achieving the pressure there.
    """
    if envelope is None:
        envelope = rate_envelope(chain, psi)
    lo_mean, hi_mean = envelope.lo, envelope.hi
    if a < lo_mean - 1e-9 or a > hi_mean + 1e-9:
        raise UnachievableLevel(f"mean {a} outside [{lo_mean}, {hi_mean}]")
    if lo_mean < a < hi_mean:
        t_star, entropy, comp = _solve(envelope, a)
    else:
        t_star = -_T_CAP if a <= lo_mean else _T_CAP
        value, comp = pressure(chain, psi, t_star, components=envelope.components)
        entropy = value - t_star * a
    return RateResult(a, phi_const - entropy, entropy, t_star, comp)


# -- Monte Carlo -----------------------------------------------------------------------------


_SAMPLE_BYTES = 16
_SAMPLE_BITS = 8 * _SAMPLE_BYTES
# An orbit of n steps uses about n*log2(beta) bits of its sample; beyond this
# cap (a 32-bit margin below the sample's bits) it would read the truncation.
_ORBIT_BITS = _SAMPLE_BITS - 32

# The scalar audit reruns every sample whose index is a multiple of this.
_AUDIT_STEP = 100


def _scale_sample(sample: int, precision: int) -> int:
    if precision >= _SAMPLE_BITS:
        return sample << (precision - _SAMPLE_BITS)
    return sample >> (_SAMPLE_BITS - precision)


def _beta_fixed_point(system: MinusBetaSystem, precision: int) -> int:
    lo, hi = system.beta_element.approx(Fraction(1, 2 ** (precision + 8)))
    return round((lo + hi) / 2 * (1 << precision))


def _orbit_digits(system: MinusBetaSystem, n: int, sample: int, precision: int,
                  beta_fixed: int) -> tuple[int, ...]:
    """Digit string of one fixed-point orbit: the scalar reference of the lanes.

    `beta_fixed` is beta in the same fixed point, from :func:`_beta_fixed_point`.
    """
    b = system.b
    table = [(d + 1) << (2 * precision) for d in range(b + 1)]
    x = _scale_sample(sample, precision)
    digits = []
    for _ in range(n):
        t = beta_fixed * x
        d = t >> (2 * precision)
        d = b if d > b else (0 if d < 0 else d)
        digits.append(d)
        x = (table[d] - t) >> precision
    return tuple(digits)


def _digit_mean(digits: Sequence[int], psi_vals: Sequence[float]) -> float:
    acc = 0.0
    for d in digits:
        acc += psi_vals[d]
    return acc / len(digits)


def _lane_means(system: MinusBetaSystem, psi: Psi, n: int, block: np.ndarray,
                precision: int, beta_fixed: int) -> np.ndarray:
    """Exact-start fixed-point orbits; one mean of the observable per sample.

    The rows of the sample block run as lanes of one Python integer, each
    lane a whole number of bytes and at least 2p + 8 bits wide (p the
    precision): the rows are copied byte-reversed into a zeroed array, which
    one ``int.from_bytes`` reads.  Per lane, a step is the scalar step of
    :func:`_orbit_digits`: with t = beta_fixed * x the digit is t >> 2p and
    the next point is (2^2p - (t mod 2^2p)) >> p, which lies in [0, 2^p].
    The lanes never carry or borrow into each other, so every lane does
    exactly the scalar integer arithmetic.  The digits of
    consecutive steps are gathered side by side in each lane and come out of
    one ``to_bytes`` per group of steps; the means add the observable step by
    step in the scalar order, so they are bit-identical to it.

    The scalar loop clamps the digit to b.  Since x <= 2^p, the clamp can
    only act when beta_fixed >= (b + 1) << p, as for an integer beta; the
    lanes then watch for a digit above b, and a batch that shows one is
    rerun by :func:`_orbit_digits`.  :func:`_digit_means_generic` runs here
    only the rows its double orbits do not certify.
    """
    import numpy as np

    b = system.b
    psi_vals = [_psi_value(psi, d) for d in range(b + 1)]
    count = len(block)
    top = beta_fixed >> precision  # the largest digit a step can produce
    width = next(w for w in (1, 2, 4, 8) if top < 256**w)  # bytes per digit
    digit_bits = 8 * width
    # whole bytes per lane, a multiple of the digit width: 2p bits below the
    # digit field, and at least 17 bytes so a raw 128-bit sample shifts cleanly
    lane_bytes = max((2 * precision + digit_bits + 7) // 8, 17)
    lane_bytes += -lane_bytes % width
    ones = int.from_bytes(b"\x01".ljust(lane_bytes, b"\x00") * count, "little")
    unit = ones << (2 * precision)
    low_mask = unit - ones
    x_mask = (ones << (precision + 1)) - ones
    digit_field = (unit << digit_bits) - unit
    # a group of steps gathers its digits side by side in each lane, step j
    # at bit j * digit_bits, for one to_bytes per group
    group = min(lane_bytes // width, 2 * precision // digit_bits + 1)

    lanes = np.zeros((count, lane_bytes), dtype=np.uint8)
    lanes[:, :_SAMPLE_BYTES] = block[:, ::-1]
    x = int.from_bytes(lanes.tobytes(), "little")
    if precision >= _SAMPLE_BITS:
        x <<= precision - _SAMPLE_BITS
    else:
        x = (x >> (_SAMPLE_BITS - precision)) & x_mask
    psi_arr = np.array(psi_vals, dtype=np.float64)
    acc = np.zeros(count)
    for first in range(0, n, group):
        steps = min(group, n - first)
        packed = 0
        for j in range(steps):
            t = beta_fixed * x
            packed |= (t & digit_field) >> (2 * precision - j * digit_bits)
            x = ((unit - (t & low_mask)) >> precision) & x_mask
        digits = np.frombuffer(packed.to_bytes(count * lane_bytes, "little"),
                               dtype=f"<u{width}").reshape(count, -1)[:, :steps]
        if top > b and digits.max() > b:
            return np.array([_digit_mean(_orbit_digits(system, n, _sample_int(row), precision,
                                                       beta_fixed), psi_vals) for row in block])
        for values in psi_arr[digits.T]:
            acc += values
    return acc / n


def _up(x: float) -> float:
    """The next double above x: an upper bound of any real that rounds to x."""
    return math.nextafter(x, math.inf)


@functools.lru_cache(maxsize=16)
def _certificate_bounds(beta_fixed: int, precision: int, n: int) -> Optional[tuple[float, ...]]:
    """Per-step bounds B_0..B_{n-1} that certify a double orbit, or None.

    Three orbits of a sample s start near xi_0 = s / 2^128: the exact orbit
    xi of the map x -> (d+1) - beta*x, the fixed-point orbit X of
    :func:`_orbit_digits` at p bits, and the double orbit z of
    :func:`_double_means`, with products tau = beta*xi, T = (beta_fixed/2^p)*X
    and t = fl(beta_hat*z).  While the three share their digits, the errors
    e_k = |z_k - xi_k| and delta_k = |X_k - xi_k| obey, with beta_up an upper
    bound of beta, beta_hat and beta_fixed/2^p, and u = 2^-53:

    - |t_k - tau_k| <= beta_up*u + |beta_hat - beta| + beta_up*e_k (the
      rounded product, the rounded slope, the inherited error), and
      e_{k+1} <= |t_k - tau_k| + u/2 (the rounded 1 - frac(t_k));
      e_0 <= u/2 (the sample rounded to a double);
    - |T_k - tau_k| <= 2^-p + beta_up*delta_k (|beta_fixed/2^p - beta| < 2^-p
      for the beta_fixed of :func:`_beta_fixed_point`),
      and delta_{k+1} <= |T_k - tau_k| + 2^-p (the truncation to p bits);
      delta_0 <= 2^-p.

    B_k bounds |t_k - tau_k| + |T_k - tau_k|.  If t_k is farther than B_k
    from every integer, then tau_k and T_k lie strictly between the same two
    integers as t_k, so all three orbits read the digit floor(t_k); tau_k is
    not an integer, so xi_{k+1} < 1 and the digit is at most b, which the
    fixed-point orbit's clamp leaves alone.  By induction a row certified
    at every step reads exactly the digits of :func:`_orbit_digits`.  The
    recurrences run in doubles, each result moved one ulp up.

    A row whose t_k fall uniformly modulo 1 misses the certificate at step
    k with probability 2 B_k, so sum_k 2 B_k bounds the expected share of
    uncertified rows.  Returns None once that bound reaches 1: there the
    double pass certifies almost no row (none of 4096 on the cubic base at
    n = 116, where the bound is 1.35, nor on x^2 - x - 1 at n = 70), and
    every row would pay for the lanes as well.  A bound of 1/2 or more at a
    single step (no row certifiable) is the special case of this rule.
    """
    unit = 2.0**-53
    fixed = math.ldexp(1.0, -precision)
    beta_hat = beta_fixed / (1 << precision)  # correctly rounded
    # beta_fixed/2^p lies within half an ulp of beta_hat, and beta within 2^-p of it
    beta_up = _up(_up(beta_hat) + fixed)
    slope_err = _up(beta_up * unit + fixed)  # |beta_hat - beta|
    step_err = _up(_up(beta_up * unit + slope_err) + fixed)  # the terms that do not grow
    fresh = _up(unit / 2 + fixed)  # e_0 + delta_0, and the rounding added per step
    bounds = []
    carried = fresh  # e_k + delta_k
    share = 0.0  # sum of 2 B_k so far
    for _ in range(n):
        bound = _up(step_err + _up(beta_up * carried))
        share += 2 * bound
        if share >= 1:
            return None
        bounds.append(bound)
        carried = _up(bound + fresh)
    return tuple(bounds)


def _double_means(psi_vals: Sequence[float], n: int, block: np.ndarray, precision: int,
                  beta_fixed: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Means of the double orbits of the block's rows, with the rows they are certified for.

    Each row is read as the double nearest to it (:func:`_sample_doubles`);
    a step is t = beta_hat * z, d = floor(t), z <- 1 - (t - d) = (d+1) - t,
    where beta_hat is the double nearest to beta_fixed / 2^p, and the
    observable is added in step order.  A row is certified when at every
    step k, t lies farther than B_k of :func:`_certificate_bounds` from
    every integer: its digits are then those of :func:`_orbit_digits`, so
    its mean is bit-identical to the scalar one.  Returns None, without
    running, when the bounds rule every row out.
    """
    import numpy as np

    bounds = _certificate_bounds(beta_fixed, precision, n)
    if bounds is None:
        return None
    beta_hat = beta_fixed / (1 << precision)
    # an uncertified step may read floor(beta_hat) = b + 1; its mean is discarded
    psi_arr = np.array(list(psi_vals) + [0.0] * (int(beta_hat) + 1 - len(psi_vals)))
    count = len(block)
    z = _sample_doubles(block)
    t = np.empty(count)
    frac = np.empty(count)
    digit = np.empty(count)
    near = np.empty(count)
    index = np.empty(count, dtype=np.intp)
    values = np.empty(count)
    acc = np.zeros(count)
    certified = np.ones(count, dtype=bool)
    for bound in bounds:
        np.multiply(z, beta_hat, out=t)
        np.floor(t, out=digit)
        np.subtract(t, digit, out=frac)  # exact: t < 1, or floor(t) <= t <= 2 floor(t)
        np.subtract(1.0, frac, out=z)
        np.minimum(frac, z, out=near)  # the distance to the nearest integer (z is exact when it wins)
        certified &= near > bound
        np.copyto(index, digit, casting="unsafe")
        np.take(psi_arr, index, out=values)
        acc += values
    return acc / n, certified


def _digit_means_generic(system: MinusBetaSystem, psi: Psi, n: int, block: np.ndarray,
                         precision: int, beta_fixed: int) -> np.ndarray:
    """Exact-start fixed-point orbit means; one mean of the observable per sample.

    Every mean equals the one :func:`_orbit_digits` gives at p = ``precision``
    bits, float for float.  The block first runs as double orbits
    (:func:`_double_means`), each row with a certificate that its digits are
    the fixed-point ones; only the rows left uncertified run through the
    integer lanes of :func:`_lane_means`.  Past about 47 to 50 bits of orbit
    the certificate is not expected to hold for any row
    (:func:`_certificate_bounds` gives None), and every row runs in the lanes.
    """
    import numpy as np

    psi_vals = [_psi_value(psi, d) for d in range(system.b + 1)]
    doubles = _double_means(psi_vals, n, block, precision, beta_fixed)
    if doubles is None:
        return _lane_means(system, psi, n, block, precision, beta_fixed)
    means, certified = doubles
    rest = np.flatnonzero(~certified)
    if len(rest):
        means[rest] = _lane_means(system, psi, n, block[rest], precision, beta_fixed)
    return means


_ODD_BITS = 0x5555555555555555  # the complemented bit positions of a 64-bit word


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Ones in each uint64 of x: bit counts summed in 2-, 4- and 8-bit fields,
    then the eight byte counts added into the top byte by one multiply."""
    import numpy as np

    m1, m2, m4, h01 = map(np.uint64, (0x5555555555555555, 0x3333333333333333,
                                      0x0F0F0F0F0F0F0F0F, 0x0101010101010101))
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)


def _digit_means_beta2(psi: Psi, n: int, block: np.ndarray) -> np.ndarray:
    """Base-2 fast path: the exact fixed-point orbit digits of x are the
    alternately complemented leading bits of x, so digit means reduce to
    counts of ones.  Each row is read as big-endian 64-bit words, complemented
    at the odd bit positions (0x55...55), shifted down to its first n bits
    and popcounted; n <= 96 (``_ORBIT_BITS``) needs at most two words.
    Bit-for-bit equal to the generic engine away from dyadic boundary points
    (a zero-probability set for hashed samples)."""
    import numpy as np

    psi0, psi1 = _psi_value(psi, 0), _psi_value(psi, 1)
    words = block.view(">u8")
    ones = np.zeros(len(block), dtype=np.int64)
    for k in range(0, n, 64):
        head = (words[:, k // 64] ^ np.uint64(_ODD_BITS)) >> np.uint64(64 - min(n - k, 64))
        ones += _popcount64(head).astype(np.int64)
    return (ones * psi1 + (n - ones) * psi0) / n


def _audit_sample(system: MinusBetaSystem, psi_vals: Sequence[float], n: int, index: int,
                  sample: int, mean: float, precision: int, beta_fixed: int,
                  beta_double: int) -> None:
    """Rerun one sample in scalar: its digits at p and 2p bits must agree, and
    the engine's mean must be the mean of those digits."""
    digits = _orbit_digits(system, n, sample, precision, beta_fixed)
    if digits != _orbit_digits(system, n, sample, 2 * precision, beta_double):
        raise ArithmeticError(f"precision audit failed at sample {index}: digit strings differ")
    scalar = _digit_mean(digits, psi_vals)
    if mean != scalar and not (math.isnan(mean) and math.isnan(scalar)):
        raise ArithmeticError(
            f"lane audit failed at sample {index}: engine mean {mean!r}, scalar mean {scalar!r}"
        )


def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = _Z95
    if total == 0:
        return 0.0, 1.0
    phat = hits / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == total else min(1.0, center + half)
    return lo, hi


def deviation_estimate(n: int, sample_count: int, hits: int, seed: int) -> DeviationEstimate:
    """Rate -log(hits/N)/n with its Wilson interval mapped to rates.

    Raises :class:`WindowNeverHit` when ``hits`` is zero; the estimate it
    carries keeps the Wilson upper bound as the certified rate lower bound.
    """
    p_lo, p_hi = wilson_interval(hits, sample_count)
    if hits == 0:
        estimate = DeviationEstimate(n, sample_count, 0, None,
                                     -math.log(max(p_hi, 1e-300)) / n, float("inf"), seed)
        raise WindowNeverHit(estimate)
    # 0.0 - x, not -x: when every sample hits, the rate is 0.0, not -0.0
    rate = 0.0 - math.log(hits / sample_count) / n
    ci_lo = 0.0 - math.log(p_hi) / n
    ci_hi = 0.0 - math.log(p_lo) / n if p_lo > 0 else float("inf")
    return DeviationEstimate(n, sample_count, hits, rate, ci_lo, ci_hi, seed)


def _window_deviation(window: tuple[float, float], n: int, sample_count: int, seed: int,
                      batch_means: Callable[[int, np.ndarray], np.ndarray]) -> DeviationEstimate:
    """Deviation estimate from the n-step means of the samples in the window;
    the hits are counted batch by batch (:func:`negabeta.sampling._count_hits`).
    """
    if n < 1 or sample_count < 1:
        raise ValueError("need n >= 1 and sample_count >= 1")
    hits = _count_hits(window, sample_count, seed, batch_means)
    return deviation_estimate(n, sample_count, hits, seed)


def mc_deviation(system: MinusBetaSystem, psi: Psi, window: tuple[float, float],
                 n: int, sample_count: int, seed: int) -> DeviationEstimate:
    """Lebesgue probability that the n-step observable mean falls in the window.

    Samples are counter-based in the seed and the sample index, so results
    are byte-identical for a fixed (seed, N).  Each batch of samples is
    hashed into one buffer (:func:`negabeta.sampling._sample_block`, with
    CPython's builtin SHA-256), and the engine reads its lanes from those
    bytes: the base-2 engine popcounts their 64-bit words, the generic one
    (:func:`_digit_means_generic`) gives the means of fixed-point
    orbits at a precision of n*log2(beta) + 64 bits, from certified double
    orbits where it can and from integer lanes for the other rows.  Hits are
    counted batch by batch, in contiguous shares of the batches, one per CPU
    and at most one per ``_MIN_SHARE`` samples
    (:func:`negabeta.sampling._count_hits`).  A sample becomes a Python
    integer only when it is rerun in scalar: the audit reruns every sample
    whose index is a multiple of ``_AUDIT_STEP`` (at doubled precision it
    must give the same digits, and the mean of those digits must equal the
    engine's mean), and the uncertified rows of a batch are rerun whole when
    one of their digits needed the clamp.  Raises
    :class:`OrbitTooLong` when n*log2(beta) exceeds ``_ORBIT_BITS``, and
    :class:`WindowNeverHit` when nothing lands inside.
    """
    bits = n * math.log2(system.beta_float())
    if bits > _ORBIT_BITS:
        raise OrbitTooLong(
            f"n*log2(beta) = {bits:.2f} exceeds the {_ORBIT_BITS} bits an orbit may use "
            f"of a {_SAMPLE_BITS}-bit sample"
        )
    if system.beta_element == 2:
        return _window_deviation(window, n, sample_count, seed,
                                 lambda start, block: _digit_means_beta2(psi, n, block))

    precision = max(int(math.ceil(bits)), 0) + 64  # n < 1 is refused by _window_deviation
    beta_fixed = _beta_fixed_point(system, precision)
    beta_double = _beta_fixed_point(system, 2 * precision)
    psi_vals = [_psi_value(psi, d) for d in range(system.b + 1)]

    def audited_means(start: int, block: np.ndarray) -> np.ndarray:
        means = _digit_means_generic(system, psi, n, block, precision, beta_fixed)
        # the audited indices are the multiples of _AUDIT_STEP
        for idx in range(start - start % -_AUDIT_STEP, start + len(block), _AUDIT_STEP):
            _audit_sample(system, psi_vals, n, idx, _sample_int(block[idx - start]),
                          float(means[idx - start]), precision, beta_fixed, beta_double)
        return means

    return _window_deviation(window, n, sample_count, seed, audited_means)


# -- the two rate functions of the cubic Pisot base -------------------------------------------


_PISOT_MINPOLY = (-1, -1, 0, 1)


@dataclass(frozen=True)
class RateComparisonRow:
    """One invariant measure evaluated under both rate functions."""

    description: str
    entropy: float
    carried_on_tail: bool
    lebesgue_rate: float
    max_entropy_rate: float

    def to_json_dict(self) -> dict:
        return {
            "measure": self.description,
            "h": self.entropy,
            "on_tail_component": self.carried_on_tail,
            "q_lebesgue": self.lebesgue_rate,
            "q_max_entropy": ("-inf" if self.max_entropy_rate == -math.inf  # JSON has no infinity
                              else self.max_entropy_rate),
        }


_MIXTURE_WEIGHTS = (0.25, 0.5, 0.75)  # fixed-point weights of the mixture rows


def compare_rate_functions(system: MinusBetaSystem) -> list[RateComparisonRow]:
    """Lebesgue-reference rate versus maximal-entropy-reference rate.

    Evaluates both rate functions on a family of invariant measures: the two
    fixed-point masses, the maximal-entropy measure of the tail component,
    and mixtures.  The Lebesgue rate is h - log(beta) for every invariant
    measure, while the maximal-entropy rate collapses to -inf off the tail
    component, so the fixed-point mass at the smallest fixed point separates
    the two.  Only defined for the cubic base (root of x^3 - x - 1).
    """
    if system.beta.minpoly.coefficients != _PISOT_MINPOLY:
        raise WrongBeta("the comparison is specific to the cubic Pisot base")
    log_beta = system.log_beta()
    chain = chain_for(system)
    tail = parry_measure(chain.component_graph(chain.q - 1))
    h_tail = tail.entropy()

    def q_leb(h: float) -> float:
        return h - log_beta

    def q_max(h: float, on_tail: bool) -> float:
        return h - log_beta if on_tail else float("-inf")

    rows = [
        RateComparisonRow("point mass at smallest fixed point", 0.0, False,
                          q_leb(0.0), q_max(0.0, False)),
        RateComparisonRow("point mass at largest fixed point", 0.0, True,
                          q_leb(0.0), q_max(0.0, True)),
        RateComparisonRow("maximal entropy on tail component", h_tail, True,
                          q_leb(h_tail), q_max(h_tail, True)),
    ]
    for a in _MIXTURE_WEIGHTS:
        # entropy is affine in the mixture weight; the mixture sees the
        # off-tail point mass, so the maximal-entropy rate is -inf
        h = (1 - a) * h_tail
        rows.append(
            RateComparisonRow(
                f"mixture {a:.2f}*fixed-point + {1 - a:.2f}*max-entropy",
                h, False, q_leb(h), q_max(h, False),
            )
        )
    return rows
