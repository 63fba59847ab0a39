"""Tests for the rule registry and the Rule base class plumbing."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.median_rule import MedianRule, MedianRuleWithoutReplacement
from repro.core.rules import RULE_REGISTRY, Rule, available_rules, get_rule, register_rule
from repro.core.state import Configuration
from repro.engine.asynchronous import simulate_asynchronous
from repro.network.simulator import NetworkSimulator


class TestRegistry:
    def test_builtin_rules_registered(self):
        rules = available_rules()
        for name in ("median", "majority", "minimum", "maximum", "voter", "mean",
                     "three-majority", "median-noreplace", "median-k"):
            assert name in rules, name

    def test_get_rule_returns_instance(self):
        rule = get_rule("median")
        assert isinstance(rule, Rule)
        assert rule.name == "median"

    def test_get_rule_with_kwargs(self):
        rule = get_rule("median-k", k=4)
        assert rule.num_choices == 4

    def test_get_rule_unknown_name(self):
        with pytest.raises(KeyError):
            get_rule("does-not-exist")

    def test_register_rule_rejects_non_rule(self):
        with pytest.raises(TypeError):
            register_rule(int)

    def test_register_rule_rejects_duplicate_name(self):
        class Dup(Rule):
            name = "median"  # collides with the built-in

            def apply_vectorized(self, values, samples, rng):  # pragma: no cover
                return values

            def apply_single(self, own_value, sampled_values, rng):  # pragma: no cover
                return own_value

        with pytest.raises(ValueError):
            register_rule(Dup)

    def test_custom_rule_registration_roundtrip(self):
        class EchoRule(Rule):
            name = "echo-test-rule"
            num_choices = 1

            def apply_vectorized(self, values, samples, rng):
                return np.array(values)

            def apply_single(self, own_value, sampled_values, rng):
                return own_value

        try:
            register_rule(EchoRule)
            assert isinstance(get_rule("echo-test-rule"), EchoRule)
        finally:
            RULE_REGISTRY.pop("echo-test-rule", None)


class TestRuleBaseClass:
    def test_step_runs_full_round(self, rng):
        rule = get_rule("median")
        values = np.arange(30)
        out = rule.step(values, rng)
        assert out.shape == (30,)
        assert set(np.unique(out)) <= set(range(30))

    def test_validate_samples_wrong_rows(self, rng):
        rule = get_rule("median")
        with pytest.raises(ValueError):
            rule.validate_samples(10, np.zeros((5, 2), dtype=np.int64))

    def test_validate_samples_negative_index(self):
        rule = get_rule("median")
        samples = np.array([[-1, 0]], dtype=np.int64)
        with pytest.raises(ValueError):
            rule.validate_samples(1, samples)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("bad", [-1, -(2**31), 7, 8, 2**31 - 1])
    def test_validate_samples_rejects_indices_outside_range(self, dtype, bad):
        rule = get_rule("median")
        samples = np.zeros((7, 2), dtype=dtype)
        rule.validate_samples(7, samples)
        samples[3, 1] = bad
        with pytest.raises(ValueError, match="out of range"):
            rule.validate_samples(7, samples)
        # ... and through the rule's own round, on a non-contiguous view too
        strided = np.repeat(samples, 2, axis=1)[:, ::2]
        with pytest.raises(ValueError, match="out of range"):
            rule.apply_vectorized(np.zeros(7, dtype=np.int64), strided,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8])
    def test_validate_samples_accepts_every_index_in_range(self, dtype):
        rule = get_rule("voter")
        rule.validate_samples(100, np.arange(100, dtype=dtype)[:, None])
        with pytest.raises(ValueError):
            rule.validate_samples(100, (np.arange(100, dtype=dtype) - 1)[:, None])

    def test_validate_samples_narrow_type_with_large_n(self):
        # an int8 -1 viewed as unsigned is 255, inside [0, 300)
        rule = get_rule("voter")
        samples = np.zeros((300, 1), dtype=np.int8)
        rule.validate_samples(300, samples)
        samples[5, 0] = -1
        with pytest.raises(ValueError, match="out of range"):
            rule.validate_samples(300, samples)

    def test_sample_contacts_is_uniform(self):
        rng = np.random.default_rng(0)
        rule = get_rule("median")
        n = 20
        counts = np.zeros(n)
        for _ in range(500):
            counts += np.bincount(rule.sample_contacts(n, rng).ravel(), minlength=n)
        # every process expected 2*500 = 1000 selections; allow 10% deviation
        assert np.all(np.abs(counts - 1000) < 120)


#: Constructor arguments per registry rule: median-k at k = 3, majority with
#: ``strict`` on and off, every other rule at its defaults.
_RULE_FORMS = {"median-k": ({"k": 3},),
               "majority": ({"strict": True}, {"strict": False})}


def _rule_forms():
    for name in sorted(available_rules()):
        for kwargs in _RULE_FORMS.get(name, ({},)):
            label = name + "".join(f"-{k}={v}" for k, v in kwargs.items())
            yield pytest.param(name, kwargs, id=label)


def _single(rule, own, samples, rng):
    return rule.apply_single(own, list(samples), rng)


def _vectorized_row0(rule, own, samples, rng):
    # process 0 samples processes 1..k; every other process samples itself
    values = np.array([own, *samples], dtype=np.int64)
    contacts = np.repeat(np.arange(values.shape[0])[:, None], len(samples), axis=1)
    contacts[0] = np.arange(1, len(samples) + 1)
    return int(rule.apply_vectorized(values, contacts, rng)[0])


def _outcome(form, rule, own, samples):
    """(value or ValueError, generator state after the call)."""
    rng = np.random.default_rng(2011)
    try:
        value = form(rule, own, samples, rng)
    except ValueError:
        value = ValueError
    return value, rng.bit_generator.state


@pytest.mark.parametrize("name,kwargs", list(_rule_forms()))
def test_per_process_form_matches_vectorized_form(name, kwargs):
    rule = get_rule(name, **kwargs)
    k = rule.num_choices
    for own in range(4):
        for samples in itertools.product(range(4), repeat=k):
            single = _outcome(_single, rule, own, samples)
            vectorized = _outcome(_vectorized_row0, rule, own, samples)
            assert single == vectorized, (own, samples)
    for wrong in (k - 1, k + 1):
        samples = tuple(range(1, wrong + 1))
        assert _outcome(_single, rule, 0, samples)[0] is ValueError, wrong
        assert _outcome(_vectorized_row0, rule, 0, samples)[0] is ValueError, wrong


@pytest.mark.parametrize("run", [
    pytest.param(lambda cfg, rule: NetworkSimulator(cfg, rule=rule, seed=0).run(),
                 id="NetworkSimulator"),
    pytest.param(lambda cfg, rule: simulate_asynchronous(cfg, rule=rule, seed=0),
                 id="simulate_asynchronous"),
])
def test_per_process_engines_refuse_a_rule_with_its_own_contact_law(run):
    # both draw k uniform contacts per process, self included; the
    # without-replacement rule's law never contacts self
    cfg = Configuration.all_distinct(8)
    with pytest.raises(ValueError, match="simulate_occupancy"):
        run(cfg, MedianRuleWithoutReplacement())
    assert run(cfg, MedianRule()).reached_consensus
