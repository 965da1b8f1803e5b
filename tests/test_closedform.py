import pytest

from maas_market import (CoopCompeteInstance, SmallVsLargeInstance,
                         ValidationError, lemma1_lower_bound,
                         lemma2_upper_bound)


def test_lemma1_spec_example():
    inst = CoopCompeteInstance(t12=1, t23=1, t13=3, c12=10, c23=10, c13=50,
                               d=100)
    assert lemma1_lower_bound(inst) == pytest.approx(-50.8)


def test_lemma1_equality_case():
    # (c12+c23)/d + t12 + t23 == t13 + c13 exactly: the floor is zero
    inst = CoopCompeteInstance(t12=2, t23=3, t13=5, c12=6, c23=4, c13=10, d=1)
    assert lemma1_lower_bound(inst) == pytest.approx(0.0, abs=1e-12)


def test_lemma1_precondition():
    inst = CoopCompeteInstance(t12=10, t23=10, t13=1, c12=50, c23=50, c13=1,
                               d=10)
    with pytest.raises(ValidationError):
        lemma1_lower_bound(inst)


def test_lemma2_substitution():
    inst = SmallVsLargeInstance(t23_small=2, t23_large=5, c23_large=3,
                                x23_large_flow=0)
    assert lemma2_upper_bound(inst) == pytest.approx(6.0)


def test_lemma2_rival_flow_branch():
    inst = SmallVsLargeInstance(t23_small=2, t23_large=5, c23_large=3,
                                x23_large_flow=4)
    assert lemma2_upper_bound(inst) == 0.0


def test_lemma2_no_performance_edge():
    inst = SmallVsLargeInstance(t23_small=5, t23_large=5, c23_large=0,
                                x23_large_flow=0)
    assert lemma2_upper_bound(inst) == 0.0


def test_lemma2_precondition():
    inst = SmallVsLargeInstance(t23_small=6, t23_large=5, c23_large=1,
                                x23_large_flow=0)
    with pytest.raises(ValidationError):
        lemma2_upper_bound(inst)


def test_invalid_fields_rejected():
    with pytest.raises(ValidationError):
        CoopCompeteInstance(t12=-1, t23=1, t13=1, c12=1, c23=1, c13=1, d=1)
    with pytest.raises(ValidationError):
        CoopCompeteInstance(t12=1, t23=1, t13=1, c12=1, c23=1, c13=1, d=0)
    with pytest.raises(ValidationError):
        SmallVsLargeInstance(t23_small=1, t23_large=1, c23_large=-1,
                             x23_large_flow=0)
