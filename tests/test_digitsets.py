"""Digit-expansion sets against direct Fraction enumeration oracles."""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from divlab import digitsets
from divlab.digitsets import (
    DigitSetSpec,
    NoCarryError,
    _gap_certified,
    base_points,
    cardinality,
    combine,
    digit_spec,
    is_collision_free,
    materialize,
    measure,
)
from divlab.intervals import EMPTY, normalize, rat_str
from divlab.scenarios import cube_family, furstenberg_family


# --- oracles -----------------------------------------------------------------


def brute_points(spec):
    """Base points recomputed directly as Fraction sums, no Horner, no ints."""
    pts = set()
    for digits in itertools.product(spec.alphabet, repeat=spec.depth):
        pts.add(sum((d * F(1, spec.radix**i) for i, d in enumerate(digits, 1)), F(0)))
    return sorted(pts)


def brute_union(spec):
    return normalize((p, p + spec.tail) for p in brute_points(spec))


def rnd_spec(rnd, tail_den=None):
    radix = rnd.randint(2, 12)
    depth = rnd.randint(1, 3)
    size = rnd.randint(1, 4)
    alphabet = {
        F(rnd.randint(-(radix - 1), radix - 1), rnd.randint(1, 3)) for _ in range(size)
    }
    tail = F(1, tail_den or rnd.randint(1, 4) * radix**depth)
    return digit_spec(radix, depth, sorted(alphabet), tail)


# --- spec validation ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        digit_spec(1, 1, [0], 0)
    with pytest.raises(ValueError):
        digit_spec(2, 0, [0], 0)
    with pytest.raises(ValueError):
        digit_spec(2, 1, [], 0)
    with pytest.raises(ValueError):
        digit_spec(2, 1, [0], F(-1))
    s = digit_spec(10, 1, [3, 1, 3, F(2, 2)], F(1, 10))
    assert s.alphabet == (F(1), F(3))  # sorted, deduplicated
    assert (s.digits, s.den) == ((1, 3), 1)
    assert s.with_tail(0).tail == 0
    # integer digits are sorted, deduplicated and put in lowest terms, so == is structural
    h = DigitSetSpec(12, 2, (8, -4, 0, 8), 6, F(1, 288))
    assert (h.digits, h.den) == ((-2, 0, 4), 3)
    assert h == digit_spec(12, 2, [F(4, 3), F(-2, 3), 0], F(1, 288))
    assert hash(h) == hash(DigitSetSpec(12, 2, (-2, 0, 4), 3, F(1, 288)))
    with pytest.raises(ValueError):
        DigitSetSpec(12, 2, (0, 1), 0, 0)


def test_json_round_trip():
    rnd = random.Random(12)
    for _ in range(50):
        s = rnd_spec(rnd)
        assert DigitSetSpec.from_json(s.to_json()) == s


# --- enumeration -------------------------------------------------------------


def test_base_points_match_brute():
    rnd = random.Random(321)
    certified = 0
    for _ in range(150):
        s = rnd_spec(rnd)
        assert base_points(s) == brute_points(s)
        certified += _gap_certified(s)
    # the enumeration skips its sort only under the gap certificate: both occur
    assert 10 < certified < 140


def test_materialize_matches_brute_union():
    rnd = random.Random(654)
    for _ in range(150):
        s = rnd_spec(rnd)
        assert materialize(s) == brute_union(s)


def test_materialize_zero_tail():
    s = digit_spec(12, 1, [0, 1], 0)
    assert materialize(s) == EMPTY


def test_materialize_merges_touching_tails():
    # tail equal to the point gap glues everything into one interval
    s = digit_spec(10, 1, [0, 1, 2], F(1, 10))
    assert materialize(s).pairs == ((F(0), F(3, 10)),)


def test_materialize_fuses_only_touching_pieces(monkeypatch):
    # under the gap certificate a tail below the least digit gap leaves the
    # pieces apart and the merge is skipped; at the gap they touch and fuse
    merges = []
    merge = digitsets._merge_sorted
    monkeypatch.setattr(digitsets, "_merge_sorted", lambda pairs: merges.append(1) or merge(pairs))
    below = digit_spec(10, 2, [0, 1, 2], F(1, 100) - F(1, 10**6))  # the gap is 1/100
    at = below.with_tail(F(1, 100))
    assert materialize(below) == brute_union(below)
    assert len(materialize(below).pairs) == 9 and merges == []
    assert materialize(digit_spec(10, 2, [5], 7)) == brute_union(digit_spec(10, 2, [5], 7))
    assert merges == []  # one digit, one piece
    assert materialize(at) == brute_union(at)
    assert materialize(at).pairs == tuple((F(d, 10), F(d, 10) + F(3, 100)) for d in (0, 1, 2))
    assert merges == [1, 1]
    # no gap certificate: the base points may interleave, and the merge runs
    collide = digit_spec(2, 3, [0, F(1, 2), 1], F(1, 1000))
    assert not _gap_certified(collide)
    assert materialize(collide) == brute_union(collide) and len(merges) == 3


def test_materialize_frozen_scenario_digest():
    # sha256 of every factor, witness and form set of the shipped scenarios:
    # a faster materialize must build exactly the same unions
    specs = []
    for k in range(1, 5):
        scen = furstenberg_family(k)
        specs += [*scen.factor_specs, scen.witness_spec]
    for m, k in ((3, 1), (3, 2), (4, 1), (4, 2)):
        scen = cube_family(m, k)
        specs += [*(scen.form_specs[e] for e in sorted(scen.form_specs)), scen.witness_spec]
    h = hashlib.sha256()
    for spec in specs:
        for lo, hi in materialize(spec).pairs:
            h.update(f"{rat_str(lo)},{rat_str(hi)};".encode())
        h.update(b"|")
    assert len(specs) == 64
    assert h.hexdigest() == "e788e68a3b88d4dc4f69beae1ba797d9615ac92f58664a5381aebcff8425f504"


def test_cardinality_and_collision_freeness():
    rnd = random.Random(987)
    certified = 0
    for _ in range(150):
        s = rnd_spec(rnd)
        brute = brute_points(s)
        assert cardinality(s) == len(brute)
        assert is_collision_free(s) == (len(brute) == len(s.alphabet) ** s.depth)
        # the gap certificate on the integer digits, against the Fraction alphabet
        a = s.alphabet
        gaps = [y - x for x, y in zip(a, a[1:])]
        assert _gap_certified(s) == (not gaps or min(gaps) * (s.radix - 1) >= a[-1] - a[0])
        certified += _gap_certified(s) and s.den > 1 and len(a) > 1
    assert certified > 10


def test_measure_reads_the_gap_certificate(monkeypatch):
    # cardinality * tail when the gap certificate holds and the tail fits in
    # the certified gap; otherwise the measure of the materialized union
    certified, specs = [], []
    for k in range(1, 5):
        scen = furstenberg_family(k)
        certified += [*scen.factor_specs, scen.witness_spec]
    for m, k in itertools.product((3, 4), (1, 2)):
        scen = cube_family(m, k)
        certified.append(scen.witness_spec)
        specs += [*scen.generator_specs, scen.shared_spec, *scen.form_specs.values(),
                  scen.witness_spec.with_tail(0)]
    rnd = random.Random(2468)
    specs += [rnd_spec(rnd, tail_den=rnd.choice([None, 2, 3])) for _ in range(150)]
    # the tail 2/100 exceeds the gap 1/100: [0, 2/100) and [1/100, 3/100) overlap
    overlap = digit_spec(10, 2, [0, 1], F(1, 50))
    want = [materialize(s).measure() for s in (*certified, *specs)]
    calls = []
    monkeypatch.setattr(digitsets, "materialize", lambda s: calls.append(s) or materialize(s))
    assert [measure(s) for s in certified] == want[: len(certified)]
    assert calls == []  # every witness and factor is read off its certificate
    assert measure(overlap) == F(3, 50) < cardinality(overlap) * overlap.tail
    assert calls == [overlap]
    assert [measure(s) for s in specs] == want[len(certified) :]
    assert len(calls) > 20  # the fallback ran on cube forms and drawn specs too


def test_collision_example():
    # radix 2 with alphabet {0, 1/2, 1}: 1/2 at position i collides with
    # 1 at position i+1, so distinct strings can share a value
    s = digit_spec(2, 2, [0, F(1, 2), 1], F(1, 100))
    assert not is_collision_free(s)
    assert cardinality(s) < 9
    # integer alphabets below the radix always pass the gap criterion
    t = digit_spec(12, 3, [-4, -2, 0], F(1, 100))
    assert is_collision_free(t)
    assert cardinality(t) == 27


# --- digitwise combinations --------------------------------------------------


def test_combine_is_pointwise_combination():
    rnd = random.Random(246)
    done = 0
    while done < 100:
        radix = rnd.randint(6, 12)
        depth = rnd.randint(1, 2)
        nterms = rnd.randint(1, 3)
        terms = []
        for _ in range(nterms):
            size = rnd.randint(1, 3)
            alphabet = sorted({F(rnd.randint(-2, 2)) for _ in range(size)})
            terms.append(
                (rnd.choice([-2, -1, 1, 2]), digit_spec(radix, depth, alphabet, 0))
            )
        try:
            out = combine(terms, F(1, radix**depth))
        except NoCarryError:
            continue
        done += 1
        expected = sorted(
            {
                sum((c * x for (c, _), x in zip(terms, pts)), F(0))
                for pts in itertools.product(*(brute_points(s) for _, s in terms))
            }
        )
        assert base_points(out) == expected


def reference_combine(terms, tail=0):
    """combine as a Fraction loop over the Fraction alphabets."""
    radix, depth = terms[0][1].radix, terms[0][1].depth
    coeffs = [c for c, _ in terms]
    values = set()
    for digits in itertools.product(*(s.alphabet for _, s in terms)):
        v = sum(c * d for c, d in zip(coeffs, digits))
        if abs(v) >= radix:
            raise NoCarryError(
                f"combination {coeffs} x {tuple(map(str, digits))} gives {v}, "
                f"magnitude >= radix {radix}"
            )
        values.add(v)
    return digit_spec(radix, depth, values, tail)


def test_combine_matches_fraction_reference():
    # rational digits with mixed denominators; about half the draws carry,
    # and the NoCarryError text must be the reference's, byte for byte
    rnd = random.Random(4242)
    outcomes = {"ok": 0, "carry": 0}
    for _ in range(300):
        radix = rnd.randint(3, 12)
        depth = rnd.randint(1, 3)
        terms = []
        for _ in range(rnd.randint(1, 4)):
            alphabet = {F(rnd.randint(-radix, radix), rnd.randint(1, 6))
                        for _ in range(rnd.randint(1, 3))}
            terms.append((rnd.choice([-3, -2, -1, 1, 2, 3]),
                          digit_spec(radix, depth, sorted(alphabet), 0)))
        tail = F(1, radix**depth)
        try:
            want = reference_combine(terms, tail)
        except NoCarryError as exc:
            with pytest.raises(NoCarryError) as got:
                combine(terms, tail)
            assert str(got.value) == str(exc)
            outcomes["carry"] += 1
            continue
        assert combine(terms, tail) == want
        outcomes["ok"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_combine_no_carry_violation():
    a = digit_spec(4, 1, [0, 3], 0)
    with pytest.raises(NoCarryError) as exc:
        combine([(1, a), (1, a)])
    assert "magnitude >= radix" in str(exc.value)
    # the text names the first carrying digits and their value as Fractions
    with pytest.raises(NoCarryError) as exc:
        combine([(1, digit_spec(4, 1, ["0", "3/2", "7/3"], 0)),
                 (2, digit_spec(4, 1, ["-1/6", "5/4"], 0))])
    assert str(exc.value) == "combination [1, 2] x ('3/2', '5/4') gives 4, magnitude >= radix 4"
    # scalar blow-up alone can violate it too
    with pytest.raises(NoCarryError):
        combine([(2, digit_spec(4, 1, [0, 2], 0))])


def test_enumeration_caps_name_the_count_and_the_cap(monkeypatch):
    # both caps go through the engines' one gate, at the cap and one past it
    monkeypatch.setattr(digitsets, "MAX_ENUM", 8)
    assert cardinality(digit_spec(10, 3, [0, 1, 5], 0)) == 27  # certified: no enumeration
    assert len(base_points(digit_spec(10, 3, [0, 1], 0))) == 8
    with pytest.raises(ValueError, match="^enumeration of 16 base points exceeds the cap of 8$"):
        base_points(digit_spec(10, 4, [0, 1], 0))
    a, b = digit_spec(10, 1, [0, 1], 0), digit_spec(10, 1, [0, 2, 4, 6], 0)
    assert tuple(combine([(1, a), (1, b)]).digits) == tuple(range(8))
    with pytest.raises(ValueError, match="^combination of 16 digit tuples exceeds the cap of 8$"):
        combine([(1, b), (1, b)])


def test_combine_shape_validation():
    a = digit_spec(4, 1, [0, 1], 0)
    b = digit_spec(5, 1, [0, 1], 0)
    c = digit_spec(4, 2, [0, 1], 0)
    with pytest.raises(ValueError):
        combine([(1, a), (1, b)])
    with pytest.raises(ValueError):
        combine([(1, a), (1, c)])
    with pytest.raises(ValueError):
        combine([])
