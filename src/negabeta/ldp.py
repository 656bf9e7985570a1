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
from typing import Callable, Iterable, Optional, Sequence, Union

from negabeta.measures import MarkovMeasure, parry_measure, _psi_value
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
    :func:`level1_rate`, which evaluates it at many t, builds them once.  A
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


def _extreme_cycle_means(components: list[_WeightedComponent]) -> tuple[float, float]:
    """Min and max mean of the observable over directed cycles of the chain."""
    lo = math.inf
    hi = -math.inf
    for n, edges, _ in components:
        for sign in (1, -1):
            # Karp's minimum mean cycle on the (possibly negated) labels
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
                    lo = min(lo, best)
                else:
                    hi = max(hi, 0.0 - best)  # not -best: a zero maximum is 0.0, not -0.0
    return lo, hi


_T_CAP = 256.0  # largest |t| the bracket of the rate's dual search grows to
_T_TOL = 1e-12  # width at which the golden-section search stops


def level1_rate(chain: ComponentChain, psi: Psi, a: float, phi_const: float) -> RateResult:
    """Level-1 rate at mean a, by convex duality against the pressure.

    H(a) = inf_t (pressure(t) - t a) via golden-section search on the convex
    objective, with the bracket expanded until the derivative changes sign or
    the cap is reached (the cap handles means attained only in the limit).
    The rate is phi_const - H(a).
    """
    components = _weighted_components(chain, psi)
    lo_mean, hi_mean = _extreme_cycle_means(components)
    if a < lo_mean - 1e-9 or a > hi_mean + 1e-9:
        raise UnachievableLevel(f"mean {a} outside [{lo_mean}, {hi_mean}]")

    def objective(t: float) -> float:
        return pressure(chain, psi, t, components=components)[0] - t * a

    span = 1.0
    while span < _T_CAP:
        d_lo = objective(-span + 1e-6) - objective(-span)
        d_hi = objective(span) - objective(span - 1e-6)
        if d_lo < 0 and d_hi > 0:
            break
        span *= 2
    span = min(span, _T_CAP)
    lo, hi = -span, span
    phi = (math.sqrt(5) - 1) / 2
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _T_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = objective(x2)
    t_star = (lo + hi) / 2
    entropy = objective(t_star)
    _, comp = pressure(chain, psi, t_star, components=components)
    rate = phi_const - entropy
    return RateResult(a, rate, entropy, t_star, comp)


# -- Monte Carlo -----------------------------------------------------------------------------


_SAMPLE_BYTES = 16
_SAMPLE_BITS = 8 * _SAMPLE_BYTES
# An orbit of n steps uses about n*log2(beta) bits of its sample; beyond this
# cap (a 32-bit margin below the sample's bits) it would read the truncation.
_ORBIT_BITS = _SAMPLE_BITS - 32

# Samples per lane batch: hits are counted chunk by chunk, so memory stays
# flat in the sample count.
_CHUNK = 4096

# The scalar audit reruns every sample whose index is a multiple of this.
_AUDIT_STEP = 100


def _sample_block(seed: int, indices: Iterable[int]) -> np.ndarray:
    """Counter-based uniform samples on [0, 1), one row of 16 bytes per index.

    Row k is the first 16 bytes of sha256 of ``f"{seed}:{i}"`` for the k-th
    index i: a 128-bit fixed-point number, big-endian.  The prefix is hashed
    once and copied per index, and the digests are joined into one buffer, so
    the batch is one ``(count, 16)`` uint8 array that every engine reads.
    """
    import hashlib  # loaded by the sampling commands only

    import numpy as np

    prefix = hashlib.sha256(f"{seed}:".encode())
    digests = []
    for i in indices:
        h = prefix.copy()
        h.update(b"%d" % i)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, 32)[:, :16]


def _sample_int(row: np.ndarray) -> int:
    """One row of a sample block as its 128-bit integer."""
    return int.from_bytes(row.tobytes(), "big")


_EXACT_HI = 2**55  # a sample whose top 64 bits reach this rounds from them and a sticky bit


def _sample_doubles(block: np.ndarray) -> np.ndarray:
    """The rows of a sample block as doubles: s / 2.0**128 for each 128-bit s.

    With s = hi * 2^64 + lo and hi >= 2^55, hi carries at least 56 bits, so
    rounding s to 53 bits looks at lo only as a sticky bit: setting the last
    bit of hi when lo != 0 and converting hi rounds the same way.  The few
    rows with a smaller hi (about 1 in 512) are divided as Python integers.
    """
    import numpy as np

    words = block.view(">u8")
    hi, lo = words[:, 0], words[:, 1]
    x = (hi | (lo != 0)).astype(np.float64) * 2.0**-64
    for k in np.flatnonzero(hi < _EXACT_HI):
        x[k] = _sample_int(block[k]) / 2.0**128
    return x


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
    recurrences run in doubles, each result moved one ulp up.  Returns None
    when B_{n-1} >= 1/2, where no row can be certified.
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
    for _ in range(n):
        bound = _up(step_err + _up(beta_up * carried))
        if bound >= 0.5:
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
    integer lanes of :func:`_lane_means`.  Past about 49 bits of orbit the
    double error bound reaches 1/2, and every row runs in the lanes.
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


def _digit_means_beta2(psi: Psi, n: int, block: np.ndarray) -> np.ndarray:
    """Base-2 fast path: the exact fixed-point orbit digits of x are the
    alternately complemented leading bits of x, so digit means reduce to
    counts of ones.  The bytes of the block are complemented at the odd bit
    positions (0x55), unpacked, and the first n bits of each row summed.
    Bit-for-bit equal to the generic engine away from dyadic boundary points
    (a zero-probability set for hashed samples)."""
    import numpy as np

    psi0, psi1 = _psi_value(psi, 0), _psi_value(psi, 1)
    ones = np.unpackbits(block ^ np.uint8(0x55), axis=1, count=n).sum(axis=1, dtype=np.int64)
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
    """Deviation estimate from the n-step means, counted per batch of ``_CHUNK`` samples.

    ``batch_means(start, block)`` gives the means of the batch that starts
    at sample index ``start``, whose samples are the rows of the
    :func:`_sample_block` ``block``; memory stays flat in the sample count.
    """
    import numpy as np

    if n < 1 or sample_count < 1:
        raise ValueError("need n >= 1 and sample_count >= 1")
    lo, hi = window
    hits = 0
    for start in range(0, sample_count, _CHUNK):
        block = _sample_block(seed, range(start, min(start + _CHUNK, sample_count)))
        means = batch_means(start, block)
        hits += int(np.count_nonzero((means >= lo) & (means <= hi)))
    return deviation_estimate(n, sample_count, hits, seed)


def mc_deviation(system: MinusBetaSystem, psi: Psi, window: tuple[float, float],
                 n: int, sample_count: int, seed: int) -> DeviationEstimate:
    """Lebesgue probability that the n-step observable mean falls in the window.

    Samples are counter-based in the seed and the sample index, so results
    are byte-identical for a fixed (seed, N).  Each batch of ``_CHUNK``
    samples is hashed into one buffer (:func:`_sample_block`), and the engine
    reads its lanes from those bytes: the base-2 engine unpacks their bits, the
    generic one (:func:`_digit_means_generic`) gives the means of fixed-point
    orbits at a precision of n*log2(beta) + 64 bits, from certified double
    orbits where it can and from integer lanes for the other rows.  Hits are
    counted batch by batch.  A sample becomes a Python integer only when it
    is rerun in scalar: the audit reruns every sample whose index is a
    multiple of ``_AUDIT_STEP`` (at doubled precision it must give the same
    digits, and the mean of those digits must equal the engine's mean), and
    the uncertified rows of a batch are rerun whole when one of their digits
    needed the clamp.  Raises
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
