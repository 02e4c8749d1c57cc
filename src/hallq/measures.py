"""Central measures on infinite unitriangular matrices over F_q.

A central measure assigns to each n x n unitriangular corner h a cylinder
probability depending only on the Jordan type rho of h.  The measures built
here come from Thoma points (alpha; beta): the cylinder probability is

    M_rho = q^(-n(n-1)/2) * t^(-n(rho)) * (1-t)^(-n) * Q_rho(expanded point; t)

with t = 1/q, n = |rho|, Q the Hall-Littlewood Q function, and q^(-n(n-1)/2)
the mass a single level-n cylinder carries under the Haar measure.  The
"expanded point" (``CentralMeasure.eval_spec``) replaces every alpha atom and
every beta atom by the geometric family of the same mass.  On beta-free
points it is the expansion that wins the adjudication among the source
formulas (``hloracle.adjudicate_expansions``, whose table the docs keep);
with beta atoms it is the only expansion whose values match the independent
r-function route, which the tests assert.

The same number has an independent second route: q^(-n(n-1)/2) times the
r-function of the unexpanded point (a Kostka-Foulkes sum against Schur
values).  Exact equality of the two routes is a shipped test, not an
assumption.

``cylinder_prob`` is the one memoized entry point, and the label fixes its
route (``CentralMeasure.route``).  A point with at most two alpha atoms and
nothing else, or a single beta atom and nothing else, has a fast r-route
(``r_function_fast``, no degree cap); it values the unexpanded point, which
equals the Q-route at the expanded point.  Every other measure takes the
Q-route.  The Q-route stays callable by name (``cylinder_via_q``), unmemoized,
as the referee the tests hold the dispatch to.

For two alpha atoms the fast r-route is one integer sweep over the columns
of rho (``gflinalg.subspace_weight_sum``).  Growth asks for every cover of
the type it stands on, and ``cover_cylinders`` fills the memo with all the
missing ones from a single pass over the columns of rho
(``gflinalg.cover_subspace_weight_sums``); every other measure, and a type
with only one cover missing, takes ``cylinder_prob`` once per cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import gflinalg, symfun
from .partitions import (
    Partition,
    check_degree,
    covers_up,
    enumerate_partitions,
    n_stat,
    partition_index,
    validate_partition,
)
from .symfun import GroundParams, ThomaSpec

Q_ROUTE = "q"
FAST_R_ROUTE = "fast-r"


class NegativeCylinderError(ValueError):
    """A cylinder value came out negative; values are never clamped."""


class DeadBranchError(ValueError):
    """A conditional step was requested from a zero-probability cylinder."""


@dataclass
class CentralMeasure:
    """A central measure with memoized exact cylinder probabilities.

    The rest is derived: ``eval_spec`` is the label with every alpha and
    beta atom expanded, ``memo`` starts empty, and ``route`` is
    ``FAST_R_ROUTE`` when the label has a fast r-route, else ``Q_ROUTE``.
    The ground field must have a prime-power q below
    ``gflinalg.PRIME_POWER_BOUND``: the extension counts and the fast
    r-route count subspaces over F_q.
    """

    label: ThomaSpec
    ground: GroundParams
    eval_spec: ThomaSpec = field(init=False)
    memo: dict[Partition, Fraction] = field(init=False, default_factory=dict)
    route: str = field(init=False)

    def __post_init__(self):
        self.label.require_normalized()
        if self.ground.q.denominator != 1:
            raise ValueError(f"a central measure needs an integer q, got {self.ground.q}")
        gflinalg.prime_power(int(self.ground.q))
        self.eval_spec = symfun.geometric_merge_beta(symfun.geometric_merge(self.label))
        self.route = FAST_R_ROUTE if fast_route_available(self.label) else Q_ROUTE


def characteristic_measure(spec: ThomaSpec, ground: GroundParams) -> CentralMeasure:
    """The central measure attached to a Thoma point by geometric expansion."""
    return CentralMeasure(label=spec, ground=ground)


def _level_factor(q: Fraction, n: int) -> Fraction:
    return Fraction(1) / Fraction(q) ** (n * (n - 1) // 2)


def cylinder_prob(meas: CentralMeasure, rho: Partition) -> Fraction:
    """Exact probability of one level-n cylinder of Jordan type rho, by the
    measure's route, memoized on the measure."""
    rho = validate_partition(rho)
    if rho in meas.memo:
        return meas.memo[rho]
    if meas.route == FAST_R_ROUTE:
        value = _level_factor(meas.ground.q, sum(rho)) * r_function_fast(rho, meas.label, meas.ground.q)
    else:
        value = cylinder_via_q(meas, rho)
    return _remember(meas, rho, value)


def _remember(meas: CentralMeasure, rho: Partition, value: Fraction) -> Fraction:
    if value < 0:
        raise NegativeCylinderError(f"negative cylinder value {value} at rho={rho}")
    meas.memo[rho] = value
    return value


def cover_cylinders(meas: CentralMeasure, rho: Partition) -> dict[Partition, Fraction]:
    """Cylinder values of every cover of rho, in ``covers_up`` order,
    memoized on the measure like ``cylinder_prob``.

    Under the fast r-route of two alpha atoms, when more than one cover is
    missing from the memo, all of them come from one pass over the columns
    of rho (``gflinalg.cover_subspace_weight_sums``).  Otherwise each missing
    cover goes through ``cylinder_prob``, which for two atoms is the sweep of
    that one cover.
    """
    rho = validate_partition(rho)
    covers = covers_up(rho)
    missing = [sigma for sigma in covers if sigma not in meas.memo]
    if len(missing) > 1 and meas.route == FAST_R_ROUTE and len(meas.label.alphas) == 2:
        big_a, big_b, den = _two_atom_weights(meas.label)
        n = sum(rho) + 1
        sums = gflinalg.cover_subspace_weight_sums(rho, int(meas.ground.q), big_a, big_b)
        scale = _level_factor(meas.ground.q, n)
        for sigma in missing:
            _remember(meas, sigma, scale * Fraction(sums[sigma], den**n))
    return {sigma: cylinder_prob(meas, sigma) for sigma in covers}


def cylinder_via_q(meas: CentralMeasure, rho: Partition) -> Fraction:
    """The Q-route, whatever the measure's route, unmemoized: its value at
    the measure's ``eval_spec``."""
    return q_route_value(rho, meas.eval_spec, meas.ground)


def q_route_value(rho: Partition, point: ThomaSpec, ground: GroundParams) -> Fraction:
    """The Q-route at an explicit point, for one type:
    q^(-n(n-1)/2) t^(-n(rho)) (1-t)^(-n) Q_rho(point; t)."""
    rho = validate_partition(rho)
    n = sum(rho)
    check_degree(n)
    if n == 0:
        return Fraction(1)
    t = ground.t
    row = symfun.hl_q_in_p(n, t)[partition_index(n)[rho]]
    (q_value,) = symfun.evaluate_rows((row,), point, t, n)
    return _level_factor(ground.q, n) * q_value / (t ** n_stat(rho) * (1 - t) ** n)


def characteristic_cylinder_via_r(spec: ThomaSpec, rho: Partition, ground: GroundParams) -> Fraction:
    """Second route to the same cylinder probability, through the r-function
    of the unexpanded point."""
    rho = validate_partition(rho)
    n = sum(rho)
    return _level_factor(ground.q, n) * symfun.r_function(rho, spec, ground.t)


# ---------------------------------------------------------------------------
# coherence and normalization checks
# ---------------------------------------------------------------------------


@dataclass
class CoherenceViolation:
    rho: Partition
    lhs: Fraction
    rhs: Fraction


@dataclass
class CoherenceReport:
    n_max: int
    q: int
    checked: int
    violations: list[CoherenceViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_coherence(meas: CentralMeasure, n_max: int) -> CoherenceReport:
    """Exact check of M_rho = sum over covers sigma of c_{rho,sigma} M_sigma
    for every rho of size below n_max, with the closed-form counts c."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    q = int(meas.ground.q)
    violations = []
    checked = 0
    for n in range(0, n_max):
        for rho in enumerate_partitions(n):
            lhs = cylinder_prob(meas, rho)
            cts = gflinalg.extension_counts_closed(rho, q)
            rhs = sum(
                (Fraction(c) * cylinder_prob(meas, sigma) for sigma, c in cts.items()),
                Fraction(0),
            )
            checked += 1
            if lhs != rhs:
                violations.append(CoherenceViolation(rho, lhs, rhs))
    return CoherenceReport(n_max, q, checked, violations)


@dataclass
class NormalizationReport:
    n: int
    q: int
    total: Fraction

    @property
    def ok(self) -> bool:
        return self.total == 1


def unitriangular_type_counts(n: int, q: int) -> dict[Partition, int]:
    """N_rho(q) for rho of size n: the closed-form extension counts folded
    level by level from the empty type, since each level-(n+1) matrix is the
    extension of a unique corner."""
    counts: dict[Partition, int] = {(): 1}
    for _ in range(n):
        nxt: dict[Partition, int] = {}
        for rho, mult in counts.items():
            for sigma, c in gflinalg.extension_counts_closed(rho, q).items():
                nxt[sigma] = nxt.get(sigma, 0) + mult * c
        counts = nxt
    return counts


def check_normalization(meas: CentralMeasure, n: int) -> NormalizationReport:
    """Exact verdict on sum over rho of N_rho(q) M_rho = 1 at level n."""
    q = int(meas.ground.q)
    type_counts = unitriangular_type_counts(n, q)
    total = sum(
        (Fraction(c) * cylinder_prob(meas, rho) for rho, c in type_counts.items()),
        Fraction(0),
    )
    return NormalizationReport(n, q, total)


# ---------------------------------------------------------------------------
# fast cylinder route for low-width points
# ---------------------------------------------------------------------------


def fast_route_available(spec: ThomaSpec) -> bool:
    """True when cylinder values can be computed without degree-capped
    symmetric-function matrices: at most two alpha atoms and nothing else,
    or a single beta atom and nothing else."""
    if spec.gamma != 0:
        return False
    if any(e.geometric for e in spec.alphas + spec.betas):
        return False
    if not spec.betas and len(spec.alphas) <= 2:
        return True
    if not spec.alphas and len(spec.betas) == 1:
        return True
    return False


def _two_atom_weights(spec: ThomaSpec) -> tuple[int, int, int]:
    """(A, B, D) with the alpha atoms (a, b) = (A / D, B / D), D = a_den b_den."""
    a, b = (e.value for e in spec.alphas)
    return a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator


def r_function_fast(rho: Partition, spec: ThomaSpec, q: Fraction) -> Fraction:
    """r-function of a low-width point via invariant subspaces.

    For alpha atoms (a, b): r_rho(a, b) is the sum over the invariant
    subspaces U of a^(n - dim U) b^(dim U).  With a = A / D and b = B / D
    that is ``gflinalg.subspace_weight_sum`` at (A, B), an integer column
    sweep, divided by D^n once.  For a single alpha atom a: a^n.  For a
    single beta atom b: b^n q^(n(n-1)/2) on the one-column type, else 0.
    """
    rho = validate_partition(rho)
    n = sum(rho)
    if n == 0:
        return Fraction(1)
    if not spec.betas:
        if len(spec.alphas) == 1:
            return spec.alphas[0].value ** n
        big_a, big_b, den = _two_atom_weights(spec)
        return Fraction(gflinalg.subspace_weight_sum(rho, int(q), big_a, big_b), den**n)
    b = spec.betas[0].value
    if rho == tuple([1] * n):
        return b**n * Fraction(q) ** (n * (n - 1) // 2)
    return Fraction(0)


def cylinder_prob_fast(meas: CentralMeasure, rho: Partition) -> Fraction:
    """``cylinder_prob`` for a measure whose route is the fast r-route."""
    if meas.route != FAST_R_ROUTE:
        raise ValueError(
            "the fast r-route needs <= 2 alpha atoms or a single beta atom; this measure takes the Q-route"
        )
    return cylinder_prob(meas, rho)
