"""Counterexample scenario constructions, exact measures, thresholds, and the
blow-up series of all three kinds (thm1, cubes, h3), built by blowup_series.

Two families:

* the triple-average scenario in radix 12: three factor sets hit by the forms
  x+t, x+2t, x+3t, plus a witness set on which the average is provably at
  least the level 1/(8*12^k);

* the cube-average scenario in radix 2^(m+1): one form set per nonzero
  epsilon in {0,1}^m, a base-point lattice and a witness set of measure
  1/(m+1), all derived from m two-digit generator sets and one shared
  rational-digit set via the constraint algebra
  A_eps = sum_{j in Z(eps)} G_j - (|Z(eps)|-1) * S   (Z = zero positions).
"""

from __future__ import annotations

__all__ = [
    "BlowupSeries",
    "CubeScenario",
    "FurstenbergScenario",
    "RATIO_TOL",
    "blowup_series",
    "cube_family",
    "cube_threshold",
    "degenerate_threshold",
    "furstenberg_family",
    "furstenberg_threshold",
    "furstenberg_threshold_log_form",
]

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index
from typing import Dict, Mapping, Tuple

from .digitsets import (
    MAX_ENUM,
    DigitSetSpec,
    cardinality,
    combine,
    digit_spec,
    materialize,
    measure,
)
from .intervals import IntervalUnion, rat, rat_str, real

RATIO_TOL = 1e-12  # band around 1 separating diverges / boundary / decays
MAX_KMAX = 10_000  # series terms; the thm1 and h3 terms build 4**k and 12**k exactly


# ---------------------------------------------------------------------------
# triple-average scenario (radix 12)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FurstenbergScenario:
    """Radix-12 construction at a given depth k.

    factor_specs[i] is the set hit by the form x + coefficients[i]*t; the
    average over t of the indicator product is >= level on the witness set.
    """

    depth: int
    coefficients: Tuple[int, int, int]
    factor_specs: Tuple[DigitSetSpec, DigitSetSpec, DigitSetSpec]
    witness_spec: DigitSetSpec
    level: Fraction

    @cached_property
    def factors(self) -> Tuple[IntervalUnion, ...]:
        return tuple(materialize(s) for s in self.factor_specs)

    @cached_property
    def witness(self) -> IntervalUnion:
        return materialize(self.witness_spec)

    def measures(self, normalized: bool = False) -> Dict[str, Fraction]:
        """Exact Lebesgue measures; normalized=True halves them (mass-1 measure
        on the ambient interval of length 2).  Read off the specs by
        digitsets.measure, so no union is built under the gap certificate."""
        half = Fraction(1, 2) if normalized else Fraction(1)
        out = {
            f"factor_{i + 1}": measure(s) * half for i, s in enumerate(self.factor_specs)
        }
        out["witness"] = measure(self.witness_spec) * half
        return out

    def to_json(self):
        return {
            "kind": "furstenberg",
            "k": self.depth,
            "coefficients": list(self.coefficients),
            "lambda": rat_str(self.level),
            "sets": {
                "factor_1": self.factor_specs[0].to_json(),
                "factor_2": self.factor_specs[1].to_json(),
                "factor_3": self.factor_specs[2].to_json(),
                "witness": self.witness_spec.to_json(),
            },
            "measures": {k: rat_str(v) for k, v in self.measures().items()},
            "measures_normalized": {
                k: rat_str(v) for k, v in self.measures(normalized=True).items()
            },
        }

    @staticmethod
    def from_json(data) -> "FurstenbergScenario":
        sets = data["sets"]
        return FurstenbergScenario(
            depth=index(data["k"]),
            coefficients=tuple(index(c) for c in data["coefficients"]),
            factor_specs=tuple(
                DigitSetSpec.from_json(sets[f"factor_{i}"]) for i in (1, 2, 3)
            ),
            witness_spec=DigitSetSpec.from_json(sets["witness"]),
            level=rat(data["lambda"]),
        )


def furstenberg_family(k: int) -> FurstenbergScenario:
    """The radix-12 scenario at depth k >= 1.

    Factor alphabets: {-4,-2,0}, then its digitwise combinations
    2*{0..3} - {-4,-2,0} = {0,2,...,10} and 2*{-4,-2,0} - {0..3} = {-11..0}
    for the witness; factor tails 1/(2*12^k), witness tail 1/(8*12^k).
    """
    if k < 1:
        raise ValueError("depth must be >= 1")
    tail = Fraction(1, 2 * 12**k)
    wtail = Fraction(1, 8 * 12**k)
    first = digit_spec(12, k, [-4, -2, 0], tail)
    second = digit_spec(12, k, [0, 1, 2, 3], tail)
    third = combine([(2, second), (-1, first)], tail)
    witness = combine([(2, first), (-1, second)], wtail)
    return FurstenbergScenario(
        depth=k,
        coefficients=(1, 2, 3),
        factor_specs=(first, second, third),
        witness_spec=witness,
        level=wtail,
    )


# ---------------------------------------------------------------------------
# cube-average scenario (radix 2^(m+1))
# ---------------------------------------------------------------------------


def _eps_vectors(m: int):
    """The nonzero eps in {0,1}^m, sorted."""
    return list(itertools.product((0, 1), repeat=m))[1:]


def _cube_terms(gens, shared, eps):
    """The terms of A_eps = sum_{j in Z(eps)} G_j - (|Z(eps)| - 1) S, Z(eps)
    the zero positions of eps: the one statement of the constraint algebra.
    The S term stays when its coefficient is 0, and eps = 0 gives the witness
    lattice sum_j G_j - (m - 1) S."""
    zero = [j for j, e in enumerate(eps) if not e]
    return [*((1, gens[j]) for j in zero), (1 - len(zero), shared)]


def eps_key(eps) -> str:
    return "".join(str(int(e)) for e in eps)


@dataclass(frozen=True)
class CubeScenario:
    """Radix-2^(m+1) construction at dimension m >= 3 and depth k >= 1.

    generator_specs[j] (j = 0..m-1) are the two-digit sets {0, 2^j}; the
    shared spec carries the rational digit -2^m/(m-1).  form_specs maps each
    nonzero epsilon to the set hit by the form x + eps.t, each with its own
    tail; the witness has exact measure 1/(m+1), and its base points are the
    lattice that every b_1 + ... + b_m - (m-1)b lies on.
    """

    dimension: int
    depth: int
    generator_specs: Tuple[DigitSetSpec, ...]
    shared_spec: DigitSetSpec
    form_specs: Mapping[Tuple[int, ...], DigitSetSpec]
    witness_spec: DigitSetSpec

    @cached_property
    def witness(self) -> IntervalUnion:
        return materialize(self.witness_spec)

    @property
    def witness_tail(self) -> Fraction:
        return self.witness_spec.tail

    def cardinalities(self) -> Dict[Tuple[int, ...], int]:
        return {eps: cardinality(s) for eps, s in self.form_specs.items()}

    def cardinality_bound(self, eps) -> int:
        """2^((m-l+1)k) for weight l <= m-2; the exact 2^k otherwise."""
        l = sum(eps)
        m, k = self.dimension, self.depth
        if l <= m - 2:
            return 2 ** ((m - l + 1) * k)
        return 2**k

    def to_json(self):
        sets = {f"form_{eps_key(e)}": s.to_json() for e, s in sorted(self.form_specs.items())}
        sets["base_lattice"] = self.witness_spec.with_tail(0).to_json()
        sets["witness"] = self.witness_spec.to_json()
        return {
            "kind": "cubes",
            "k": self.depth,
            "m": self.dimension,
            "sets": sets,
            "measures": {"witness": rat_str(measure(self.witness_spec))},
            "cardinalities": {
                eps_key(e): c for e, c in sorted(self.cardinalities().items())
            },
        }

    @staticmethod
    def from_json(data) -> "CubeScenario":
        m, k = index(data["m"]), index(data["k"])
        sets = data["sets"]
        form_specs = {}
        for eps in _eps_vectors(m):
            form_specs[eps] = DigitSetSpec.from_json(sets[f"form_{eps_key(eps)}"])
        gens = tuple(
            form_specs[tuple(0 if i == j else 1 for i in range(m))].with_tail(0)
            for j in range(m)
        )
        shared = form_specs[(1,) * m].with_tail(0)
        witness = DigitSetSpec.from_json(sets["witness"])
        if DigitSetSpec.from_json(sets["base_lattice"]) != witness.with_tail(0):
            raise ValueError("base_lattice must be the witness spec with tail 0")
        return CubeScenario(
            dimension=m,
            depth=k,
            generator_specs=gens,
            shared_spec=shared,
            form_specs=form_specs,
            witness_spec=witness,
        )


def _cube_check_count(m: int, k: int) -> int:
    """cube_family's refusals of m and k, then its certificate's checks
    2^(k(m+1)) (2^m - 1): m + 1 two-digit gap-certified specs, 2^m - 1 forms."""
    if m < 3:
        raise ValueError("dimension must be >= 3 (m = 2 has no dependent forms)")
    if k < 1:
        raise ValueError("depth must be >= 1")
    # combine enumerates 2^(|Z(eps)|+1) digit tuples per eps (the witness is
    # eps = 0), 2*3^m in all; 3^64 is past any cap, and 3^m itself would not
    # finish for huge m
    if 2 * 3 ** min(m, 64) > MAX_ENUM:
        raise ValueError(
            f"dimension m = {m} needs about 2*3^{m} digit combinations, above the cap {MAX_ENUM}"
        )
    return 2 ** (k * (m + 1)) * (2**m - 1)


def cube_family(m: int, k: int) -> CubeScenario:
    """The cube scenario at dimension m and depth k: every form set and the
    witness are combined from the generator and shared specs by _cube_terms,
    the forms with tail 2^(-k(m+1)), the witness (eps = 0) with tail
    1/((m + 1) 2^(k(m+1)))."""
    _cube_check_count(m, k)  # refuses an m or k the family cannot build
    rho = 2 ** (m + 1)
    tail = Fraction(1, rho**k)
    gens = tuple(digit_spec(rho, k, [0, 2**j], 0) for j in range(m))
    shared = digit_spec(rho, k, [0, Fraction(-(2**m), m - 1)], 0)
    return CubeScenario(
        dimension=m,
        depth=k,
        generator_specs=gens,
        shared_spec=shared,
        form_specs={eps: combine(_cube_terms(gens, shared, eps), tail) for eps in _eps_vectors(m)},
        witness_spec=combine(_cube_terms(gens, shared, (0,) * m), tail / (m + 1)),
    )


# ---------------------------------------------------------------------------
# divergence thresholds
# ---------------------------------------------------------------------------


def furstenberg_threshold() -> float:
    """ln 24 / ln 12 = 1 + log_6(2) / (1 + log_6(2)) ~= 1.2789."""
    return math.log(24) / math.log(12)


def furstenberg_threshold_log_form() -> float:
    """The 1 + log_6(2)/(1 + log_6(2)) form, for the identity check."""
    l = math.log(2) / math.log(6)
    return 1 + l / (1 + l)


def cube_threshold(m: int) -> Fraction:
    if m < 3:
        raise ValueError("dimension must be >= 3")
    return Fraction(2 ** (m - 1) + 1, m + 1)


def degenerate_threshold(r: int) -> Fraction:
    if r < 2:
        raise ValueError("need r >= 2 monomials")
    return Fraction(r, r - 1)


# ---------------------------------------------------------------------------
# blow-up series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupSeries:
    """A forced-constant series value_k with its per-step ratios and verdict."""

    kind: str
    p: float
    weighted: bool
    mode: str
    indices: Tuple[int, ...]
    values: Tuple[float, ...]
    step_ratios: Tuple[float, ...]
    closed_form_ratio: float
    threshold: float
    verdict: str

    def to_json(self):
        return {
            "kind": self.kind,
            "p": real(self.p),
            "weighted": self.weighted,
            "mode": self.mode,
            "indices": list(self.indices),
            "values": [real(v) for v in self.values],
            "step_ratios": [real(r) for r in self.step_ratios],
            "closed_form_ratio": real(self.closed_form_ratio),
            "threshold": real(self.threshold),
            "verdict": self.verdict,
        }


def series_from_logs(logs):
    """(values, step_ratios) of a series given by its natural logs.

    A step ratio is value_{k+1}/value_k of the reported values while both are
    normal floats; once either is subnormal or 0.0 the quotient has lost its
    precision, and the ratio is exp(log_{k+1} - log_k).  A non-finite log
    (a log over a p so small that it is inf or nan) raises OverflowError.
    """
    if not all(map(math.isfinite, logs)):
        raise OverflowError("series leaves the float range")
    values = tuple(math.exp(lv) for lv in logs)
    tiny = sys.float_info.min
    ratios = tuple(
        v1 / v0 if v0 >= tiny and v1 >= tiny else math.exp(l1 - l0)
        for v0, v1, l0, l1 in zip(values, values[1:], logs, logs[1:])
    )
    return values, ratios


def check_series(p: float, kmax: int) -> None:
    """Refuse a series with p <= 0, no step ratio, or more than MAX_KMAX terms."""
    if p <= 0:
        raise ValueError("p must be positive")
    if kmax < 2:
        raise ValueError("need kmax >= 2 for at least one step ratio")
    if kmax > MAX_KMAX:
        raise ValueError(f"kmax {kmax} is above the cap of {MAX_KMAX} terms")


def ratio_verdict(ratio: float) -> str:
    if ratio > 1 + RATIO_TOL:
        return "diverges"
    if ratio < 1 - RATIO_TOL:
        return "decays"
    return "boundary"


def _cube_ratio_overflows(m: int, p: float) -> bool:
    """Whether the cube series' closed-form ratio exp(-m(m+1) ln 2 + P/p),
    P = log_prod1 in either mode, is finite and past the float range, read
    off m and p before any form is built.  A depth-1 form of weight l has at
    most 2^(m-l+1) digits, and the bound mode's exponent for it is at least
    l, so P >= sum_l l C(m,l) ln 2 = m 2^(m-1) ln 2.  Each of the 2^m - 1
    forms gives at most (m+1) ln 2, so while that total over p stays well
    inside the float range P/p is finite.  Past it P/p can be inf, whose
    exp is inf and no OverflowError, so the series goes on as before."""
    ln2 = math.log(2)
    most = (2**m - 1) * (m + 1) * ln2 / p
    least = -m * (m + 1) * ln2 + m * 2 ** (m - 1) * ln2 / p
    return most < sys.float_info.max / 2 and least > math.log(sys.float_info.max)


def _h3_log_terms(p: float, kmax: int, normalization: str):
    """Per-k (k, log lower_norm_bound, log product_of_norms) of the h3 series.

    lower_norm_bound = (1/8)^(3/p) / (8*12^k) and product_of_norms =
    (m(U1) m(U2) m(U3))^(1/p); both logs stay finite at every k, where the
    linear-space values would overflow or underflow.
    """
    if normalization not in ("lebesgue", "normalized"):
        raise ValueError("normalization must be 'lebesgue' or 'normalized'")
    half = 2 if normalization == "lebesgue" else 4
    return [
        (k, -3 * math.log(8) / p - math.log(8 * 12**k),
         -(math.log(half * 4**k) + math.log(half * 3**k) + math.log(half * 2**k)) / p)
        for k in range(1, kmax + 1)
    ]


def blowup_series(
    kind: str,
    p: float,
    kmax: int,
    m: int | None = None,
    weighted: bool = False,
    mode: str | None = None,
) -> BlowupSeries:
    """Blow-up series for one of the scenarios.

    kind 'thm1':  value_k = ((4*4^k)(4*3^k)(4*2^k))^(1/p) / (32*12^k),
                  optionally weighted by k^-6; step ratio 24^(1/p)/12.
    kind 'cubes': value_k = [(m+1)*2^(k(m+1))]^(-m)
                  * prod_eps (2^(k(m+1)) / #A_eps)^(1/p), with #A_eps the
                  depth-1 alphabet sizes to the k-th power (digit-string
                  counts) in mode 'exact' (the default) and the
                  2^((m-l+1)k) bounds (exact 2^k at weights m-1, m) in mode
                  'bound'.
    kind 'h3':    value_k = (1/8)^(3/p) / (8*12^k) / (m(U1) m(U2) m(U3))^(1/p),
                  H3's norm lower bound over the factor norms, with Lebesgue
                  measures in mode 'lebesgue' (the default) and halved ones
                  in mode 'normalized'; step ratio 24^(1/p)/12, as for thm1.

    m applies to 'cubes' only (and is required there), weighted to 'thm1'
    only, and mode to 'cubes' and 'h3'; any other argument raises ValueError.
    Values are computed in log space to avoid overflow; per-step ratios come
    from series_from_logs.
    """
    check_series(p, kmax)
    if kind not in ("thm1", "cubes", "h3"):
        raise ValueError(f"unknown series kind {kind!r}")
    if m is not None and kind != "cubes":
        raise ValueError("m applies to kind 'cubes' only")
    if weighted and kind != "thm1":
        raise ValueError("weighted variant applies to kind 'thm1' only")
    if mode is not None and kind == "thm1":
        raise ValueError("mode applies to kinds 'cubes' and 'h3' only")
    ks = tuple(range(1, kmax + 1))
    ln2 = math.log(2)

    if kind == "cubes":
        if m is None:
            raise ValueError("kind 'cubes' requires m")
        mode = "exact" if mode is None else mode
        if mode not in ("exact", "bound"):
            raise ValueError("mode must be 'exact' or 'bound'")
        _cube_check_count(m, 1)  # refuses an m the family cannot build
        if _cube_ratio_overflows(m, p):
            raise OverflowError("the cube series' closed-form ratio is out of float range")
        scen1 = cube_family(m, 1)
        # sum over eps of log(2^(m+1) / alphabet size); the series raises the
        # depth-1 alphabet sizes to the k-th power (digit-string counts)
        if mode == "exact":
            log_prod1 = sum(
                (m + 1) * ln2 - math.log(len(s.digits)) for s in scen1.form_specs.values()
            )
        else:
            log_prod1 = 0.0
            for eps in scen1.form_specs:
                bexp = scen1.cardinality_bound(eps).bit_length() - 1
                log_prod1 += ((m + 1) - bexp) * ln2
        logs = [-m * (math.log(m + 1) + k * (m + 1) * ln2) + k * log_prod1 / p for k in ks]
        closed = math.exp(-m * (m + 1) * ln2 + log_prod1 / p)
        if mode == "bound":
            threshold = float(cube_threshold(m))
        else:
            # the p solving closed-form ratio == 1 with those alphabet sizes
            threshold = log_prod1 / (m * (m + 1) * ln2)
    else:
        if kind == "thm1":
            mode = ""
            logs = [
                (math.log(4 * 4**k) + math.log(4 * 3**k) + math.log(4 * 2**k)) / p
                - math.log(32) - k * math.log(12)
                for k in ks
            ]
            if weighted:
                logs = [lv - 6 * math.log(k) for lv, k in zip(logs, ks)]
        else:
            mode = "lebesgue" if mode is None else mode
            logs = [bound - norms for _, bound, norms in _h3_log_terms(p, kmax, mode)]
        # both series step by 24^(1/p)/12, which crosses 1 at ln 24/ln 12
        threshold = furstenberg_threshold()
        closed = math.exp(math.log(24) / p - math.log(12))

    values, ratios = series_from_logs(logs)
    return BlowupSeries(
        kind=kind,
        p=float(p),
        weighted=weighted,
        mode=mode,
        indices=ks,
        values=values,
        step_ratios=ratios,
        closed_form_ratio=closed,
        threshold=threshold,
        verdict=ratio_verdict(closed),
    )
