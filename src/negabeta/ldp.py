"""Rate functions, and the Monte Carlo deviation estimates checked against them.

The pressure of a label observable is the best weighted spectral radius over
the component chain; one-dimensional convex duality turns it into level-1
rate functions.  :func:`mc_deviation` estimates the same tails from orbit
samples: it fixes beta in fixed point and the observable's values, and
leaves the samples and the digit engines to :mod:`negabeta.sampling`, which
it imports only when it runs, so the rate commands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from negabeta.algebraic import _bareiss
from negabeta.measures import MarkovMeasure, parry_measure, _psi_value
from negabeta.shiftgraph import ComponentChain, _perron, chain_for, spectral_radius
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


def _slopes(component: _WeightedComponent, means: tuple[float, float],
            t: float) -> tuple[float, float]:
    """First and second derivative in t of one component's pressure.

    An affine component (psi one value on it, or every cycle of the same
    mean) has slope that mean and curvature 0.  Otherwise, with A(t) the
    component's matrix, rho and r its Perron root and right vector, the
    equilibrium state is the Markov chain S = A_ij r_j / (rho r_i) with
    stationary distribution pi, both from :func:`negabeta.shiftgraph._perron`.
    The slope is the mean of psi over its edges, and the curvature is the
    asymptotic variance of psi's Birkhoff sums: with f = psi - slope,
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
        _, scale, pi = _perron(mat)
        stoch = mat * scale
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


def _kink_polynomial(n: int, exponents: list[tuple[int, int, int]], power: int,
                     root: int) -> list[int]:
    """Integer coefficients, low degree first, of det(z^power root I - B(z)),
    where B(z) sums z^e over the (src, dst, e) of ``exponents``.

    The determinant is evaluated exactly at z = 0 .. D, D a bound on its
    degree, and interpolated in Newton's form at those points.  The divided
    differences of an integer polynomial at consecutive integers are
    integers (Delta^j f / j!), so every division is exact.
    """
    degree = n * max([power] + [e for _, _, e in exponents])
    coeffs = []  # the values at 0 .. D, then their divided differences, then the coefficients
    for z in range(degree + 1):
        rows = [[0] * n for _ in range(n)]
        for v in range(n):
            rows[v][v] = z**power * root
        for s, d, e in exponents:
            rows[s][d] -= z**e
        coeffs.append(_bareiss(rows)[0])
    for j in range(1, degree + 1):  # divided differences at 0, 1, .., D
        for i in range(degree, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) // j
    for i in range(degree - 1, -1, -1):  # coeffs[i:] <- coeffs[i + 1:] * (z - i) + coeffs[i]
        for k in range(i, degree):
            coeffs[k] -= i * coeffs[k + 1]
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
        if root < 1 or _bareiss(counts)[0] != 0:
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
    from negabeta.sampling import _count_hits

    if n < 1 or sample_count < 1:
        raise ValueError("need n >= 1 and sample_count >= 1")
    hits = _count_hits(window, sample_count, seed, batch_means)
    return deviation_estimate(n, sample_count, hits, seed)


def mc_deviation(system: MinusBetaSystem, psi: Psi, window: tuple[float, float],
                 n: int, sample_count: int, seed: int) -> DeviationEstimate:
    """Lebesgue probability that the n-step observable mean falls in the window.

    Samples are counter-based in the seed and the sample index, so results
    are byte-identical for a fixed (seed, N).  Each batch of samples is
    one block of Philox4x32-10 output (:func:`negabeta.sampling._philox_block`),
    and the engine reads its lanes from those bytes: the base-2 engine
    popcounts their 64-bit words, the generic one
    (:func:`negabeta.sampling._digit_means_generic`) gives the means of fixed-point
    orbits at a precision of n*log2(beta) + 64 bits, from certified double
    orbits where it can and from integer lanes for the other rows.  Hits are
    counted batch by batch (:func:`negabeta.sampling._count_hits`).  A
    sample becomes a Python integer only when it is rerun in scalar: the
    audit reruns every sample whose index is a multiple of ``_AUDIT_STEP``
    (at doubled precision it must give the same digits, and the mean of
    those digits must equal the engine's mean), and the uncertified rows of
    a batch are rerun whole when one of their digits needed the clamp.  Raises
    :class:`OrbitTooLong` when n*log2(beta) exceeds ``_ORBIT_BITS``, and
    :class:`WindowNeverHit` when nothing lands inside.
    """
    from negabeta.sampling import (_AUDIT_STEP, _ORBIT_BITS, _SAMPLE_BITS, _audit_sample,
                                   _digit_means_beta2, _digit_means_generic, _sample_int)

    bits = n * math.log2(system.beta_float())
    if bits > _ORBIT_BITS:
        raise OrbitTooLong(
            f"n*log2(beta) = {bits:.2f} exceeds the {_ORBIT_BITS} bits an orbit may use "
            f"of a {_SAMPLE_BITS}-bit sample"
        )
    b = system.b
    psi_vals = [_psi_value(psi, d) for d in range(b + 1)]
    if system.beta_element == 2:
        return _window_deviation(window, n, sample_count, seed,
                                 lambda start, block: _digit_means_beta2(psi_vals, n, block))

    precision = max(int(math.ceil(bits)), 0) + 64  # n < 1 is refused by _window_deviation
    beta_fixed = _beta_fixed_point(system, precision)
    beta_double = _beta_fixed_point(system, 2 * precision)

    def audited_means(start: int, block: np.ndarray) -> np.ndarray:
        means = _digit_means_generic(b, psi_vals, n, block, precision, beta_fixed)
        # the audited indices are the multiples of _AUDIT_STEP
        for idx in range(start - start % -_AUDIT_STEP, start + len(block), _AUDIT_STEP):
            _audit_sample(b, psi_vals, n, idx, _sample_int(block[idx - start]),
                          float(means[idx - start]), precision, beta_fixed, beta_double)
        return means

    return _window_deviation(window, n, sample_count, seed, audited_means)


def _beta_fixed_point(system: MinusBetaSystem, precision: int) -> int:
    """beta in fixed point at ``precision`` bits, within 2^-precision of it."""
    lo, hi = system.beta_element.approx(Fraction(1, 2 ** (precision + 8)))
    return round((lo + hi) / 2 * (1 << precision))


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
