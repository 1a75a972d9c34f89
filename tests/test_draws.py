"""The replayed draws against numpy's own: every draw of a span equals the
generator's, and a closed span leaves ``bit_generator.state`` as numpy's
draws would have, however the span began and ended.  The pins at the end
were recorded with numpy's own draws, before growth and the chains drew
through a span."""

import hashlib

import numpy as np
import pytest

from districter import (SearchConfig, generate_grid_instance, guided_growth,
                        run_chain, validate_plan)
from districter.draws import Span

BOUNDS = (1, 2, 3, 7, 2**31, 2**32 - 1)


def assert_same_generator(mine, theirs):
    """Equal states, and the next five numpy draws agree."""
    assert mine.bit_generator.state == theirs.bit_generator.state
    for n in (1, 5, 2**31, 2**40):
        assert mine.integers(n) == theirs.integers(n)
    assert mine.random() == theirs.random()


def interleaved(draws, numpy_rng, script_rng, count):
    """``count`` draws from the span and from numpy, the same call each:
    ``integers`` over :data:`BOUNDS` or a random bound, or ``random()``."""
    for _ in range(count):
        k = int(script_rng.integers(len(BOUNDS) + 2))
        if k < len(BOUNDS):
            n = BOUNDS[k]
        elif k == len(BOUNDS):
            n = int(script_rng.integers(1, 2**32))
        else:
            assert draws.random() == numpy_rng.random()
            continue
        drawn = draws.integers(n)
        assert type(drawn) is int
        assert drawn == numpy_rng.integers(n)


@pytest.mark.parametrize("buffered", [False, True])
def test_span_draws_what_numpy_draws(buffered):
    """Over 200 seeds, each span starting with or without a buffered half
    (``has_uint32``), several spans in turn on one generator, some long
    enough to pull every chunk size."""
    for seed in range(200):
        mine, theirs = (np.random.default_rng(seed) for _ in range(2))
        script = np.random.default_rng(10_000 + seed)
        if buffered:
            assert mine.integers(9) == theirs.integers(9)
            assert mine.bit_generator.state["has_uint32"] == 1
        for count in (1, 40, 3000 if seed % 20 == 0 else 200):
            with Span(mine) as draws:
                assert draws is not mine
                interleaved(draws, theirs, script, count)
            assert mine.bit_generator.state == theirs.bit_generator.state
        assert_same_generator(mine, theirs)


def test_empty_span_leaves_the_generator_as_it_was():
    for warm in (0, 1):
        rng = np.random.default_rng(5)
        for _ in range(warm):
            rng.integers(3)
        before = rng.bit_generator.state
        with Span(rng):
            pass
        assert rng.bit_generator.state == before
        with Span(rng) as draws:
            assert draws.integers(1) == 0       # n == 1 draws nothing
        assert rng.bit_generator.state == before


def test_span_closed_by_an_exception():
    """A span left by an exception still leaves the generator exact, after
    a whole chunk was pulled and only part of it used."""
    for seed in range(20):
        mine, theirs = (np.random.default_rng(seed) for _ in range(2))
        with pytest.raises(KeyError):
            with Span(mine) as draws:
                interleaved(draws, theirs, np.random.default_rng(seed), 25)
                raise KeyError("stop")
        assert_same_generator(mine, theirs)


def test_bounds_numpy_keeps():
    """A bound outside ``1 <= n < 2**32`` is numpy's to draw, from the
    span's state, and a bound numpy refuses raises numpy's error."""
    mine, theirs = (np.random.default_rng(3) for _ in range(2))
    with Span(mine) as draws:
        assert draws.integers(6) == theirs.integers(6)
        for n in (2**32, 2**40, 2**63 - 1, np.int64(9), 4.0):
            assert draws.integers(n) == theirs.integers(n)
            assert draws.integers(7) == theirs.integers(7)
            assert draws.random() == theirs.random()
        for n in (0, -1, -2**40):
            with pytest.raises(ValueError) as raised:
                draws.integers(n)
            with pytest.raises(ValueError) as expected:
                theirs.integers(n)
            assert str(raised.value) == str(expected.value)
        assert draws.integers(11) == theirs.integers(11)
    assert_same_generator(mine, theirs)


def test_other_bit_generators_draw_for_themselves():
    for make in (np.random.MT19937, np.random.Philox, np.random.PCG64DXSM):
        rng = np.random.Generator(make(4))
        twin = np.random.Generator(make(4))
        with Span(rng) as draws:
            assert draws is rng
            assert [draws.integers(n) for n in BOUNDS] == [
                twin.integers(n) for n in BOUNDS]
        # their states hold arrays: compare the draws that follow instead
        assert (rng.integers(2**40, size=5).tolist()
                == twin.integers(2**40, size=5).tolist())


def test_index_permutation_draws_what_a_list_permutation_draws():
    """``rng.permutation(len(x))`` shuffles the positions of ``x`` as
    ``rng.permutation(x)`` shuffles ``x`` itself: for lengths 0-40 over 200
    seeds, indexing ``x`` by the one gives the other, and the two
    generators end in the same state.  The local pass and recombination
    draw their orders over indices."""
    for seed in range(200):
        mine, theirs = (np.random.default_rng(seed) for _ in range(2))
        values = np.random.default_rng(10_000 + seed).permutation(1000)
        for n in range(41):
            x = values[:n].tolist()
            assert ([x[i] for i in mine.permutation(len(x)).tolist()]
                    == theirs.permutation(x).tolist())
        assert_same_generator(mine, theirs)


def test_growth_on_another_bit_generator():
    inst = generate_grid_instance(6, 6, 3, seed=1)
    plan = guided_growth(inst, np.random.Generator(np.random.MT19937(0)))
    assert validate_plan(plan, inst.graph, 1.0).hard_ok


# ---------------------------------------------------------------------------
# Pins recorded with numpy's own draws on the 40x40 K=16 clustered grid
# (instance seed 1): the grown plans' sha256 and the generator state after
# growth (state, has_uint32, uinteger), then an SA chain of 3,000 proposals
# on the generator that grew its start.
# ---------------------------------------------------------------------------

GROWTH_PINS = {
    0: ("b2c53ef58b78cecc75a61a3fb966edf952f56b52eac1166054efb424958106b1",
        (242763329744719441879024109056443498797, 0, 1935661399)),
    1: ("c9693030da86f32742638e03debf43ce0a405e4dda1635d1c2aa5826f8e33d64",
        (258080698338766374517926093271704629136, 0, 1726062028)),
    2: ("263dbdf2933059bed97a044381d33a5b1eda7d2c13ccc2183dedf79f6989e0ce",
        (54723399527062586346621097106555179647, 0, 3807276685)),
}
SA_START_STATE = (39262991447228546062103667257016387979, 1, 606308978)
SA_PIN = ("0120934e18e24523a41a53f7025383702a2815900abe9eb45613089880360043",
          1435, (262812029793112813428184860252766800746, 0, 3691717053))


def state_of(rng):
    state = rng.bit_generator.state
    return state["state"]["state"], state["has_uint32"], state["uinteger"]


@pytest.fixture(scope="module")
def clustered40():
    return generate_grid_instance(40, 40, 16, 1, balance_profile="clustered")


def test_growth_pins(clustered40):
    for seed, (plan_sha, state) in GROWTH_PINS.items():
        rng = np.random.default_rng(seed)
        plan = guided_growth(clustered40, rng)
        assert hashlib.sha256(plan.assignment.tobytes()).hexdigest() == plan_sha
        assert state_of(rng) == state


def test_annealing_chain_pin(clustered40):
    """SA's rule draws ``random()`` between the proposals' ``integers``,
    from a span that starts with a buffered half."""
    rng = np.random.default_rng(7)
    start = guided_growth(clustered40, rng)
    assert state_of(rng) == SA_START_STATE
    summary, best = run_chain(clustered40, "sa", SearchConfig(max_iters=3000),
                              rng, start)
    digest = hashlib.sha256(repr(summary.trace).encode())
    digest.update(best.assignment.tobytes())
    assert (digest.hexdigest(), summary.accepted, state_of(rng)) == SA_PIN
