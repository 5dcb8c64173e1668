"""Property-based checks of the substitution laws over the toy signature."""

import hypothesis.strategies as strat
from hypothesis import given, settings

from conftest import (TOY, env_of_renaming, random_toy_context, random_toy_env,
                      random_toy_term)
from substkit.sorts import second
from substkit.terms import (compose_subst, identity_env, rename, substitute,
                            substitute_direct)

import random


def seeded(draw_seed):
    return random.Random(draw_seed)


terms_and_envs = strat.integers(min_value=0, max_value=10**9)


@settings(max_examples=120, deadline=None)
@given(terms_and_envs)
def test_right_unit_law(seed):
    rng = seeded(seed)
    ctx = random_toy_context(rng)
    t = random_toy_term(rng, ctx, second("v"), 3)
    assert substitute(t, identity_env(ctx)) == t


@settings(max_examples=120, deadline=None)
@given(terms_and_envs)
def test_associativity_law(seed):
    rng = seeded(seed)
    ctx = random_toy_context(rng)
    t = random_toy_term(rng, ctx, second(rng.choice(("v", "arrow"))), 3)
    s1 = random_toy_env(rng, ctx, random_toy_context(rng))
    s2 = random_toy_env(rng, s1.target, random_toy_context(rng))
    assert substitute(substitute(t, s1), s2) == \
        substitute(t, compose_subst(s1, s2))


@settings(max_examples=120, deadline=None)
@given(terms_and_envs)
def test_oracle_agreement(seed):
    rng = seeded(seed)
    ctx = random_toy_context(rng)
    holes = {}
    t = random_toy_term(rng, ctx, second("v"), 4, holes, 0.2)
    sigma = random_toy_env(rng, ctx, random_toy_context(rng))
    assert substitute(t, sigma) == substitute_direct(t, sigma)


@settings(max_examples=80, deadline=None)
@given(terms_and_envs)
def test_renaming_is_variable_substitution(seed):
    from conftest import all_renamings
    rng = seeded(seed)
    g1 = random_toy_context(rng)
    g2 = random_toy_context(rng)
    rhos = list(all_renamings(g1, g2))
    if not rhos:
        return
    rho = rng.choice(rhos)
    t = random_toy_term(rng, g2, second("v"), 3)
    assert rename(t, rho) == substitute(t, env_of_renaming(rho))
