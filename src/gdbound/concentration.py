"""Bennett- and Talagrand-type tail bounds for sums over multiple
dependency graphs.

All bounds are driven by the parameter bundle (v, b, sigma^2, W, U, c):

    v       = (1 + b) * E[Z] + sigma^2
    sigma^2 = sum_k sum_j w_kj * sigma_kj^2
    W       = sum_k chi_f(G_k)
    U       = sum_k sum_j w_kj * max(1, sqrt(v_kj * W / v))   (<= 5W/4)

The general upper tail is  exp(-(v/W) * phi(t W / (U v))), relaxed to
exp(-(v/W) * phi(4t / (5v))) via U <= 5W/4; the algebraic Bernstein form
inverts it as a deviation  sqrt(2 c v t) + 2 c t / 3.  The refined variant
(all weights equal to 1) sharpens the exponent to  -v * phi(t / (v W)) and
reduces to the classical i.i.d. Bennett bound when W = 1.

Exponents are assembled in plain arithmetic and exponentiated last, so
large t cannot underflow intermediate products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvariantError, ModeError, check_t, finite_result

_BLOCK_CONSISTENCY_TOL = 1e-9


def phi(x: float) -> float:
    """phi(x) = (1 + x) log(1 + x) - x, for x >= 0.

    Below x = 2 the closed form cancels: it is off by up to 7 ulp near 1
    and by 18 % at 1e-15, in either direction.  There log1p(x) = 2 atanh(u)
    with u = x / (2 + x) gives phi(x) = x^2 / (2 + x)
    + 2 (1 + x) sum_{j>=1} u^(2j+1) / (2j+1), a sum of positive terms, taken
    until a term no longer changes it; both forms stay within 4 ulp."""
    if x < 0:
        raise DomainError(f"phi requires x >= 0, got {x}")
    if x == math.inf:  # (1 + x) log1p(x) - x would be inf - inf = nan
        return math.inf
    if not x < 2.0:
        return (1.0 + x) * math.log1p(x) - x
    u = x / (2.0 + x)
    tail, power, k = 0.0, u * u * u, 3
    while tail + power / k != tail:
        tail += power / k
        power *= u * u
        k += 2
    return x * x / (2.0 + x) + 2.0 * (1.0 + x) * tail


@dataclass(frozen=True)
class TailBoundInput:
    """Parameter bundle for the multi-graph tail bounds.

    blocks holds, per task, (w_kj, v_kj) pairs with
    v_kj = (1 + b) E[Z_kj] + sigma_kj^2; it may be None when only the
    aggregate form is wanted, in which case U defaults to 5W/4 and the
    tight and simple probability forms coincide.
    """

    b: float
    EZ: float
    sigma_sq: float
    chi_list: tuple[float, ...]
    blocks: tuple[tuple[tuple[float, float], ...], ...] | None = None

    @property
    def v(self) -> float:
        return (1.0 + self.b) * self.EZ + self.sigma_sq

    @property
    def W(self) -> float:
        return float(sum(self.chi_list))

    @property
    def U(self) -> float:
        if self.blocks is None:
            return 1.25 * self.W
        v, W = self.v, self.W
        total = 0.0
        for task_blocks in self.blocks:
            for w_kj, v_kj in task_blocks:
                total += w_kj * max(1.0, math.sqrt(max(v_kj, 0.0) * W / v))
        return total

    @property
    def unit_weights(self) -> bool:
        if self.blocks is None:
            return True
        return all(w == 1.0 for task in self.blocks for w, _ in task)

    def __post_init__(self):
        if not self.chi_list:
            raise InvariantError("chi_list must be nonempty")
        K = len(self.chi_list)
        if not all(map(math.isfinite, (self.b, self.EZ, self.sigma_sq, self.v,
                                       *self.chi_list))):
            raise DomainError("b, E[Z], sigma^2, v and every chi_f must be finite")
        if any(chi < 1.0 for chi in self.chi_list):
            raise InvariantError("every chi_f(G_k) is >= 1")
        if self.sigma_sq < 0:
            raise DomainError(f"sigma^2 must be >= 0, got {self.sigma_sq}")
        if self.v <= 0:
            raise InvariantError(f"v = (1+b)E[Z] + sigma^2 must be > 0, got {self.v}")
        if self.blocks is not None:
            if len(self.blocks) != K:
                raise InvariantError("blocks must list one tuple per task")
            block_v = 0.0
            for k, task_blocks in enumerate(self.blocks):
                w_sum = 0.0
                for w_kj, v_kj in task_blocks:
                    if not (0.0 < w_kj <= 1.0):
                        raise InvariantError(f"weight {w_kj} outside (0, 1]")
                    if not math.isfinite(v_kj):
                        raise DomainError(f"block v_kj must be finite, got {v_kj}")
                    if v_kj < 0:
                        raise InvariantError(f"block v_kj must be >= 0, got {v_kj}")
                    w_sum += w_kj
                    block_v += w_kj * v_kj
                if abs(w_sum - self.chi_list[k]) > _BLOCK_CONSISTENCY_TOL * max(1.0, w_sum):
                    raise InvariantError(
                        f"task {k}: block weights sum to {w_sum}, chi_f is {self.chi_list[k]}"
                    )
            if abs(block_v - self.v) > _BLOCK_CONSISTENCY_TOL * max(1.0, abs(self.v)):
                raise InvariantError(
                    f"sum of w_kj * v_kj = {block_v} inconsistent with v = {self.v}"
                )


@finite_result
def bennett_tail_general(inp: TailBoundInput, t: float):
    """Upper-tail probabilities P(Z >= E[Z] + t) in tight and simple form.

    Returns (p_tight, p_simple) with
        p_tight  = exp(-(v/W) phi(t W / (U v)))
        p_simple = exp(-(v/W) phi(4 t / (5 v)))
    and p_tight <= p_simple since U <= 5W/4.
    """
    check_t(t)
    v, W, U = inp.v, inp.W, inp.U
    return math.exp(-(v / W) * phi(t * W / (U * v))), _simple_tail(v, W, t)


def _simple_tail(v: float, W: float, t: float) -> float:
    """exp(-(v/W) phi(4t / (5v))): the general tail with U relaxed to 5W/4."""
    return math.exp(-(v / W) * phi(4.0 * t / (5.0 * v)))


@finite_result
def bernstein_deviation(c: float, v: float, t: float) -> float:
    """Deviation sqrt(2 c v t) + 2 c t / 3.

    The caller supplies the constant matching the theorem in use:
    c = (25/16) * sum_k chi_f(G_k) for the general form, c = sum_k chi_f(G_k)
    in refined (all-unit-weight) mode.
    """
    check_t(t)
    if not (0 < c < math.inf and 0 < v < math.inf):
        raise DomainError(f"c and v must be finite and > 0, got {c}, {v}")
    return math.sqrt(2.0 * c * v * t) + 2.0 * c * t / 3.0


@finite_result
def bennett_tail_refined(inp: TailBoundInput, t: float) -> float:
    """Refined upper tail exp(-v phi(t / (v W))), valid when every w_kj = 1.

    With K = 1 and an edgeless graph (W = 1) this is the classical i.i.d.
    Bennett bound exp(-v phi(t / v)).
    """
    check_t(t)
    if not inp.unit_weights:
        raise ModeError("refined form requires every block weight w_kj = 1")
    v, W = inp.v, inp.W
    return math.exp(-v * phi(t / (v * W)))


@finite_result
def bennett_lower_tail(inp: TailBoundInput, t: float) -> float:
    """Lower-tail bound on P(Z <= E[Z] - t); numerically the simple upper form."""
    check_t(t)
    return _simple_tail(inp.v, inp.W, t)


@finite_result
def talagrand_v(sigma_sq_blocks, EZ: float) -> float:
    """Variance factor v = sum_k sum_j w_kj sigma_kj^2 + 2 E[Z] for suprema.

    sigma_sq_blocks is a per-task iterable of (w_kj, sigma_kj^2) pairs with
    sigma_kj^2 >= sum_{i in I_kj} sup_f E[f^2(x_i)].  Feeding the result
    into bernstein_deviation with c = (25/16) sum_k chi_f(G_k) gives the
    deviation certificate for the supremum of the centered process; the
    refined variant takes unit weights and c = sum_k chi_f(G_k).
    """
    if not 0 <= EZ < math.inf:
        raise DomainError("E[Z] must be finite and >= 0 for a supremum of a "
                          "centered process")
    total = 0.0
    for task in sigma_sq_blocks:
        for w_kj, s_kj in task:
            if not 0 <= s_kj < math.inf:
                raise DomainError(f"sigma_kj^2 must be finite and >= 0, got {s_kj}")
            total += w_kj * s_kj
    return total + 2.0 * EZ


def general_bernstein_constant(chi_list) -> float:
    """c = (25/16) sum_k chi_f(G_k), the constant of the general deviation form."""
    return 25.0 / 16.0 * float(sum(chi_list))


def refined_bernstein_constant(chi_list) -> float:
    """c = sum_k chi_f(G_k), the constant of the refined deviation form."""
    return float(sum(chi_list))
