"""The per-combination cube loop, a reference for the cube certificate's
digitwise proof and its batched enumeration.

Per combination of generator and shared base points (ints over one scale),
x = b_1 + ... + b_m - (m - 1) b must be a point of the base lattice, the
witness spec's base points, and each form target x + sum of b - b_j over the
j with eps_j = 1 is looked up in its form's base points with one set lookup;
each slack is read off that form spec's own tail.  `cube_certificate_check`
must return exactly the report, and every check, that this loop gives.
"""

import itertools
from fractions import Fraction
from math import lcm

from divlab import averages
from divlab.averages import CubeCertificateReport, CubeCheck
from divlab.intervals import InvariantError, rat


def cube_rows_reference(points, lattice, forms):
    """Per combination of generator and shared base points, x and whether
    each form target is a base point of its form, in form order."""
    m = len(points) - 1
    # each mask as (the mask without its lowest bit, that bit's j)
    lowest = [(mask & (mask - 1), (mask & -mask).bit_length() - 1) for mask in range(1 << m)]
    for combo in itertools.product(*points):
        b = combo[-1]
        x = sum(combo) - m * b  # b_1 + ... + b_m - (m - 1) b
        if x not in lattice:
            raise InvariantError("witness decomposition left the base lattice")
        # targets[mask] = x + sum of b - b_j over the bits j of mask
        targets = [x]
        for rest, j in lowest[1:]:
            targets.append(targets[rest] + b - combo[j])
        yield x, [targets[mask] in form for form, mask in forms]


def cube_checks_reference(scenario, t_tail=None):
    """Every CubeCheck of the certificate in enumeration order, from
    cube_rows_reference over the base points that averages._base_nums gives."""
    m = scenario.dimension
    tau = scenario.witness_tail
    t_tail = tau if t_tail is None else rat(t_tail)
    eps_order = sorted(scenario.form_specs)
    specs = [*scenario.generator_specs, scenario.shared_spec, scenario.witness_spec,
             *(scenario.form_specs[eps] for eps in eps_order)]
    nums = [averages._base_nums(spec) for spec in specs]
    scale = lcm(*(den for _, den in nums))
    pts = [[v * (scale // den) for v in vs] for vs, den in nums]
    form_sets = [(set(p), sum(1 << j for j in range(m) if eps[j]))
                 for eps, p in zip(eps_order, pts[m + 2 :])]
    slacks = [scenario.form_specs[eps].tail - (tau + sum(eps) * t_tail) for eps in eps_order]
    for x, members in cube_rows_reference(pts[: m + 1], set(pts[m + 1]), form_sets):
        for eps, slack, member in zip(eps_order, slacks, members):
            yield CubeCheck(Fraction(x, scale), eps, member, slack, member and slack >= 0)


def cube_certificate_reference(scenario, t_tail=None):
    """The cube report with every check kept, from cube_checks_reference."""
    t_tail = scenario.witness_tail if t_tail is None else rat(t_tail)
    checks = tuple(cube_checks_reference(scenario, t_tail))
    failures = [c for c in checks if not c.passed]
    return CubeCertificateReport(
        dimension=scenario.dimension,
        depth=scenario.depth,
        t_tail=t_tail,
        checks_total=len(checks),
        checks_failed=len(failures),
        first_failures=tuple(failures[:5]),
        all_pass=not failures,
        integral_lower_bound=t_tail**scenario.dimension,
        checks=checks,
    )
