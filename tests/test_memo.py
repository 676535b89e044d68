"""Derived data memoized on the configuration: correctness, lifetime, views."""

import types
import weakref
from fractions import Fraction as Q

import pytest

from trigvee import catalog
from trigvee.catalog import build_catalog
from trigvee.configuration import (
    collinear_classes,
    configuration,
    duals,
    duals_cleared,
    from_json_dict,
    gram,
    gram_cleared,
    gram_inverse,
    gram_inverse_cleared,
    lattice,
    orientation,
    pairings,
    to_json_dict,
)
from trigvee.families import family_spec, generate
from trigvee.veesystem import g1, g2, lambda_sq, vee_check
from trigvee.wdvv import float_duals, float_view

EXACT = (
    lattice, gram_cleared, gram, gram_inverse, gram_inverse_cleared, duals_cleared, duals,
    pairings, collinear_classes, orientation, g1, g2, lambda_sq,
)


def _float_views(cfg):
    return (*float_view(cfg), float_duals(cfg))


def _fresh(cfg):
    """An equal configuration that shares no objects with cfg."""
    return from_json_dict(to_json_dict(cfg))


def _configs():
    return [
        _fresh(generate(family_spec("F4", r=1, s=2))),
        _fresh(generate(family_spec("BC", 3, r=Q(-3, 7), s=2, q=Q(1, 2)))),
        configuration(2, [[1, 0], [0, 1], [1, 1], [-2, 1]], [1, Q(2, 3), -1, 5]),
        configuration(2, [[1, 0], [-1, 0], [Q(1, 2), 1]], [3, 1, Q(7, 4)]),
    ]


@pytest.mark.parametrize("cfg", _configs(), ids=lambda c: str(len(c)))
def test_memoized_equals_fresh_computation(cfg):
    for fn in EXACT + (float_view, float_duals):
        try:
            first = fn(cfg)
        except ZeroDivisionError:  # lambda^2 of a configuration with G2 = 0
            continue
        assert fn(cfg) is first, fn.__name__
        if fn in EXACT:
            assert first == fn(_fresh(cfg)), fn.__name__
    for memoized, fresh in zip(_float_views(cfg), _float_views(_fresh(cfg))):
        assert memoized.shape == fresh.shape and memoized.tobytes() == fresh.tobytes()
    other = _fresh(cfg)
    assert cfg == other and hash(cfg) == hash(other)
    assert repr(cfg) == repr(other)


def test_float_views_are_read_only():
    cfg = _fresh(generate(family_spec("BC", 2, r=1, s=1, q=1)))
    for view in _float_views(cfg):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[...] = 0.0


def test_check_path_builds_no_duals():
    e8 = _fresh(generate(family_spec("E8", t=1)))
    vee_check(e8)
    assert "_memo_pairings" in e8.__dict__ and "_memo_gram_inverse_cleared" in e8.__dict__
    assert "_memo_duals" not in e8.__dict__


def test_catalog_path_builds_no_duals():
    f4 = _fresh(generate(family_spec("F4", r=1, s=1)))
    build_catalog(f4, "F4", "r=1,s=1", 2)
    assert "_memo_duals" not in f4.__dict__


def test_configuration_freed_after_checks():
    cfg = _fresh(generate(family_spec("BC", 3, r=1, s=2, q=1)))
    vee_check(cfg)
    lambda_sq(cfg)
    ref = weakref.ref(cfg)
    del cfg
    assert ref() is None


def test_catalog_children_freed(monkeypatch):
    refs = []
    real = catalog.restrict

    def tracked(cfg, handle):
        res = real(cfg, handle)
        refs.append(weakref.ref(res.child))
        return res

    monkeypatch.setattr(catalog, "restrict", tracked)
    build_catalog(generate(family_spec("F4", r=1, s=1)), "F4", "r=1,s=1", 2)
    assert refs and all(ref() is None for ref in refs)


def test_configuration_module_not_shadowed():
    import trigvee
    import trigvee.configuration as m

    assert isinstance(m, types.ModuleType)
    assert trigvee.configuration is m
    assert m.configuration is configuration
