import importlib
import json
import pickle
import random
import types
from fractions import Fraction as Q

import pytest

from trigvee.configuration import (
    Configuration,
    MixedClassError,
    ZeroMultiplicityWarning,
    c_delta,
    collinear_classes,
    configuration,
    dual,
    duals,
    from_json_dict,
    gram,
    normalize_positive,
    to_json_dict,
)
from trigvee.exactla import dot, identity, mat_scale, vec
from trigvee.families import an_root_coords, family_spec, generate


def test_configuration_invariants():
    with pytest.raises(ValueError):
        configuration(2, [[0, 0]], [1])
    with pytest.raises(ValueError):
        configuration(2, [[1, 0]], [1, 2])
    with pytest.raises(ValueError):
        configuration(2, [[1, 0, 0]], [1])


def test_configuration_fields_are_read_only_and_alone_decide_equality():
    cfg = configuration(2, [[1, 0], [1, 1]], [1, "1/2"], name="P")
    twin = Configuration(2, cfg.covectors, cfg.multiplicities, "P")
    duals(cfg)  # a memo entry on one side only
    assert cfg == twin and hash(cfg) == hash(twin) and cfg != cfg.with_name("Q")
    assert repr(cfg) == (
        "Configuration(dim=2, covectors=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1),"
        " Fraction(1, 1))), multiplicities=(Fraction(1, 1), Fraction(1, 2)), name='P')"
    )
    for name in ("dim", "covectors", "memo"):
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(cfg, name, None)
    with pytest.raises(AttributeError, match="cannot delete field 'name'"):
        del cfg.name
    copied = pickle.loads(pickle.dumps(cfg))
    assert copied == cfg and copied is not cfg and "_memo_duals" not in copied.__dict__


def test_gram_examples():
    bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
    assert gram(bc2) == mat_scale(Q(7), identity(2))
    assert gram(configuration(2, [[1, 0], [0, 1]], [1, 1])) == identity(2)
    assert gram(configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, 5])) == (
        (Q(6), Q(5)),
        (Q(5), Q(6)),
    )


def test_gram_bilinear_in_multiplicities():
    covs = [[1, 0], [0, 1], [1, 2]]
    c1, c2 = [1, 2, 3], [Q(1, 2), -1, Q(5)]
    combined = gram(configuration(2, covs, [a + b for a, b in zip(c1, c2)]))
    split = tuple(
        tuple(x + y for x, y in zip(r1, r2))
        for r1, r2 in zip(gram(configuration(2, covs, c1)), gram(configuration(2, covs, c2)))
    )
    assert combined == split


def test_dual_examples():
    cfg = configuration(2, [[1, 0], [0, 1]], [1, 1])
    assert dual(cfg, [1, 0]) == vec([1, 0])
    cfg2 = configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, 5])
    assert dual(cfg2, [0, 1]) == vec(["-5/11", "6/11"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_an_closed_form(n):
    # (e^i - e^j) dual is (e_i - e_j)/(t(N+1)) in the sum-zero realization
    t = Q(3, 2)
    cfg = generate(family_spec("A", n, t=t))
    g = an_root_coords(n + 1, 0, 1)
    expected = []
    v1 = an_root_coords(n + 1, 0, 1)  # e_1 - e_2 has the same basis coordinates as its covector
    d = dual(cfg, g)
    # check the defining property instead of coordinates: G(d, v) = g(v)
    rng = random.Random(5)
    for _ in range(20):
        v = vec([rng.randint(-4, 4) for _ in range(n)])
        assert dot(g, v) == sum(
            c * dot(a, d) * dot(a, v) for a, c in zip(cfg.covectors, cfg.multiplicities)
        )
    # and the closed form: coordinates of (e_1-e_2)/(t(N+1)) in the recorded basis
    assert d == tuple(x / (t * (n + 1)) for x in v1)


def test_dual_defining_property_random():
    rng = random.Random(11)
    for cfg in [
        generate(family_spec("BC", 3, r=1, s=Q(1, 2), q=2)),
        generate(family_spec("F4", r=2, s=3)),
    ]:
        dv = duals(cfg)
        for _ in range(20):
            v = vec([rng.randint(-3, 3) for _ in range(cfg.dim)])
            for a, d in list(zip(cfg.covectors, dv))[:: max(1, len(cfg) // 5)]:
                assert dot(a, v) == sum(
                    c * dot(b, d) * dot(b, v)
                    for b, c in zip(cfg.covectors, cfg.multiplicities)
                )


def test_collinear_classes():
    bc1 = configuration(1, [[1], [2]], [1, 1])
    (cls,) = collinear_classes(bc1)
    assert cls.anchor == 0 and cls.members == ((0, Q(1)), (1, Q(2)))

    cfg = configuration(2, [[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    assert len(collinear_classes(cfg)) == 3

    cfg2 = configuration(2, [[1, 0], [-1, 0], [3, 0], [0, 1]], [1, 1, 1, 1])
    classes = collinear_classes(cfg2)
    assert classes[0].members == ((0, Q(1)), (1, Q(-1)), (2, Q(3)))
    assert classes[1].indices == (3,)


def test_c_delta():
    bc1 = configuration(1, [[1], [2]], [1, 1])
    assert c_delta(bc1, [0, 1], 0) == 5
    assert c_delta(bc1, [0], 0) == 1
    degenerate = configuration(1, [[1], [2]], [4, -1])
    assert c_delta(degenerate, [0, 1], 0) == 0
    cfg = configuration(2, [[1, 0], [0, 1]], [1, 1])
    with pytest.raises(MixedClassError):
        c_delta(cfg, [0, 1], 0)


def test_normalize_positive_merges_and_flips():
    cfg = configuration(2, [[1, 0], [-1, 0]], [1, 2])
    out = normalize_positive(cfg)
    assert out.covectors == (vec([1, 0]),)
    assert out.multiplicities == (Q(3),)

    bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
    assert normalize_positive(bc2) == bc2

    with pytest.warns(ZeroMultiplicityWarning):
        empty = normalize_positive(configuration(2, [[1, -1], [-1, 1]], [1, -1]))
    assert len(empty) == 0


def test_normalize_positive_returns_unchanged_input_itself():
    bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
    assert normalize_positive(bc2) is bc2
    flipped = configuration(2, [[-1, 0], [0, 1]], [1, 1])
    assert normalize_positive(flipped) is not flipped
    merged = configuration(2, [[1, 0], [2, 0], [1, 0]], [1, 1, 1])
    assert len(normalize_positive(merged)) == 2

    zero = configuration(2, [[1, 0], [0, 1]], [0, 1])
    with pytest.warns(ZeroMultiplicityWarning):
        out = normalize_positive(zero)
    assert out is not zero and out.covectors == (vec([0, 1]),)


def test_normalize_positive_idempotent_and_gram_invariant():
    cfg = configuration(2, [[1, 0], [-1, 0], [1, 2], [-2, 1]], [1, 2, Q(1, 3), 1])
    out = normalize_positive(cfg)
    assert normalize_positive(out) == out
    assert gram(out) == gram(cfg)


def test_json_round_trip_byte_identical():
    cfg = generate(family_spec("BC", 2, r=1, s=Q(-3, 7), q=2)).with_name("x")
    blob = json.dumps(to_json_dict(cfg))
    again = json.dumps(to_json_dict(from_json_dict(json.loads(blob))))
    assert blob == again


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "covectors": [[1.5, 0]], "multiplicities": ["1"]})
    with pytest.raises(ValueError):
        from_json_dict({"dim": 2, "covectors": [["1", "0"]], "multiplicities": [0.25]})


def test_json_parses_repeated_strings_as_each_entry_alone():
    """Each distinct string is parsed once per call; the result and every error
    stay those of parsing each entry on its own (``_rat_from_json``)."""
    blob = {"dim": 2, "covectors": [["1", "−1/2"], ["-1/2", 3], ["1", "0"]],
            "multiplicities": ["1/2", "1", "1/2"]}
    cfg = from_json_dict(blob)
    assert cfg.covectors == ((1, Q(-1, 2)), (Q(-1, 2), 3), (1, 0))
    assert cfg.multiplicities == (Q(1, 2), 1, Q(1, 2))
    for bad, message in [(True, "got True"), (1.0, "got 1.0"), ("1/0", "zero denominator in '1/0'")]:
        blob["covectors"][2] = ["1", bad]  # after "1" is parsed and cached
        with pytest.raises(ValueError, match=message):
            from_json_dict(blob)


@pytest.mark.parametrize(
    "name", ["configuration", "veesystem", "series", "restriction", "exactla", "families", "gamma"]
)
def test_exact_modules_hold_no_numpy(name):
    module = importlib.import_module("trigvee." + name)
    held = [
        key for key, value in vars(module).items()
        if isinstance(value, types.ModuleType) and value.__name__.partition(".")[0] == "numpy"
    ]
    assert held == []
