"""The columnar cross-check suite against the per-case code it replaced.

``verify`` draws its specs by replaying the generator from raw PCG64
words, a screened block of attempts at a time, assembles and checks each
(m, n) shape group of matrices as one stack, and builds the ``localize``
results of a group from stacked checks and invariants. The replay must
give the live generator's values and leave it where the live calls
leave it, the samplers must draw exactly what one scalar ``rng.uniform``
call per parameter drew, the stacked covariance check must give each
matrix the constructor's result or error, in place, and the command's
output must keep its bytes.
"""

import csv
import dataclasses
import hashlib
import io
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc as el
from entloc.cli import main
from entloc.errors import InvalidArgumentError, NumericalDomainError
from entloc.oracle import (
    ROUTE_PAIRS,
    SpecSampler,
    SuiteReports,
    _compared,
    _RawStream,
    _WORD_UNIT,
    oracle_pt_log_negativity,
    reports_to_csv_text,
    run_oracle_suite,
    summarize_reports,
)
from entloc.symplectic import TOL_SYM, _PointErrors, _symmetrized
from oracle_helpers import ScalarSampler, raw_integers, raw_skip

# sha256 of `verify --cases 300 --seed 4242 --out PATH`: the CSV and stdout,
# recorded before the suite went columnar (numpy 2.4 with its bundled
# OpenBLAS on x86-64; another LAPACK build may round the dense values,
# and so these bytes, differently)
VERIFY_300_CSV_SHA256 = "6a52d742dcdf3e32d2058de75987c0a6d97092ead06794b3f39095699c619165"
VERIFY_300_STDOUT_SHA256 = "43425767f6146af92572cb23323ec4c1fe13baaa39ceaccd69e6ba00413aafed"
# the same of `verify --cases 1000 --seed 7 --out PATH`, recorded before the
# sampler drew in screened rounds and the comparisons became columns
VERIFY_1000_CSV_SHA256 = "7ec5f19d47709733c741fa348bc37bacc41668c74d2af7d0d6a903e782cff291"
VERIFY_1000_STDOUT_SHA256 = "609c6a3a26de38056bb77456d9d96ba8cca85a3725c2e6bff1dec911608c7f1c"


def _verify_digests(tmp_path, capsys, cases, seed):
    """sha256 of the CSV and of stdout of `verify --cases N --seed S --out PATH`."""
    out = tmp_path / "cases.csv"
    assert main(["verify", "--cases", str(cases), "--seed", str(seed), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    return hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout.encode()).hexdigest()


def test_verify_output_bytes(tmp_path, capsys):
    digests = _verify_digests(tmp_path, capsys, 300, 4242)
    assert digests == (VERIFY_300_CSV_SHA256, VERIFY_300_STDOUT_SHA256)


def test_verify_1000_case_output_bytes(tmp_path, capsys):
    digests = _verify_digests(tmp_path, capsys, 1000, 7)
    assert digests == (VERIFY_1000_CSV_SHA256, VERIFY_1000_STDOUT_SHA256)


# ---------------------------------------------------------------------------
# Samplers: block draws against the scalar draws.
# ---------------------------------------------------------------------------


def _spec_bits(spec):
    return tuple(map(repr, dataclasses.astuple(spec)))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    max_block=st.integers(1, 6),
    fixed=st.integers(1, 6),
    draws=st.integers(1, 25),
)
def test_samplers_draw_what_scalar_uniform_calls_drew(seed, max_block, fixed, draws):
    """Single draws give the specs, attempts and accepts of the scalar code
    for one seed, with drawn and with given block sizes, and they
    interleave on one stream with live scalar draws of the other spec
    kinds, which leave the generator with or without a kept half."""
    calls = [
        ("bisymmetric", {}),
        ("separable_bisymmetric", {}),
        ("bisymmetric", {"m": fixed}),
        ("bisymmetric", {"m": fixed, "n": 1}),
        ("separable_bisymmetric", {"n": fixed}),
        ("fully_symmetric", {"modes": fixed + 1}),
    ]
    if max_block > 1:  # fully symmetric blocks are drawn from 2..max_block
        calls.append(("fully_symmetric", {}))
    new, old = SpecSampler(seed, max_block=max_block), ScalarSampler(seed, max_block)
    live = ScalarSampler(new.rng, max_block)  # live draws on the replayed generator
    for i in range(draws):
        method, kwargs = calls[i % len(calls)]
        drawer = new if method == "bisymmetric" else live
        got, want = getattr(drawer, method)(**kwargs), getattr(old, method)(**kwargs)
        assert type(got) is type(want)
        assert _spec_bits(got) == _spec_bits(want)
        counters = (new.attempts + live.attempts, new.accepted + live.accepted)
        assert counters == (old.attempts, old.accepted)


@pytest.mark.parametrize("seed", [1, 7, 4242, 99])
def test_counted_draw_is_a_run_of_single_draws(seed):
    counted, single = SpecSampler(seed), SpecSampler(seed)
    specs = counted.bisymmetric(count=200)
    assert [_spec_bits(s) for s in specs] == [_spec_bits(single.bisymmetric()) for _ in range(200)]
    assert (counted.attempts, counted.accepted) == (single.attempts, single.accepted)
    assert counted.accepted == 200 and counted.attempts > 200
    reference = ScalarSampler(seed, 6)
    assert [_spec_bits(s) for s in specs] == [_spec_bits(reference.bisymmetric()) for _ in specs]
    assert counted.bisymmetric(count=0) == []


# a box no draw from is physical: every single-mode reduced state has b < 1
NEVER_PHYSICAL = {"b_box": (0.1, 0.5)}


def _same_state(new, old):
    """Equal counters, and the streams at the same place: the same kept
    half, which the bounded draws take first, and the same words next."""
    assert (new.attempts, new.accepted) == (old.attempts, old.accepted)
    assert new.rng.integers(0, 6, size=3).tolist() == old.rng.integers(0, 6, size=3).tolist()
    assert new.rng.random() == old.rng.random()


@pytest.mark.parametrize("max_tries", [1, 2, 7, 40])
@pytest.mark.parametrize("method, kwargs", [
    ("bisymmetric", {}), ("bisymmetric", {"count": 1}), ("bisymmetric", {"count": 25}),
    ("bisymmetric", {"m": 3, "count": 25}), ("bisymmetric", {"m": 1, "n": 1}),
])
def test_a_box_that_is_never_physical_fails_after_the_scalar_attempts(method, kwargs, max_tries):
    new = SpecSampler(5, max_tries=max_tries, **NEVER_PHYSICAL)
    old = ScalarSampler(5, 6, max_tries=max_tries, **NEVER_PHYSICAL)
    with pytest.raises(RuntimeError, match="failed to produce a physical spec"):
        getattr(new, method)(**kwargs)
    scalar = {key: value for key, value in kwargs.items() if key != "count"}
    with pytest.raises(RuntimeError, match="failed to produce a physical spec"):
        getattr(old, method)(**scalar)
    assert new.attempts == max_tries
    _same_state(new, old)


@pytest.mark.parametrize("seed", [3, 11, 4242])
@pytest.mark.parametrize("max_tries", [0, 1, 2, 3, 5, 20])
def test_counted_draw_with_few_tries_is_the_scalar_run(seed, max_tries):
    """A counted draw gives the specs of the scalar loop, or fails at the
    attempt where the scalar loop fails, with the stream left alike."""
    new = SpecSampler(seed, max_tries=max_tries)
    old = ScalarSampler(seed, 6, max_tries=max_tries)
    want = []
    try:
        for _ in range(60):
            want.append(old.bisymmetric())
    except RuntimeError:
        with pytest.raises(RuntimeError):
            new.bisymmetric(count=60)
    else:
        assert [_spec_bits(s) for s in new.bisymmetric(count=60)] == list(map(_spec_bits, want))
    _same_state(new, old)
    for count in (0, -2):  # as a loop over range(count), they draw nothing
        empty = SpecSampler(seed, max_tries=max_tries)
        assert empty.bisymmetric(count=count) == [] and empty.attempts == 0


# ---------------------------------------------------------------------------
# The raw-word replay against the live generator.
# ---------------------------------------------------------------------------

# spans of 2**31 + 1 and 2**32 - 1 make Lemire's method reject about half
# and about a quarter of the halves
REPLAY_SPANS = (1, 2, 3, 6, 7, 2**31 + 1, 2**32 - 1)


def _replayed_calls(seed, calls, cached):
    """``calls`` random calls, each on a live generator and on the stream
    of a second generator of the same seed, which is closed and reopened
    now and then, sometimes after reading words ahead. A bounded integer
    call is replayed by ``raw_integers``, a ``random`` call by skipping its
    words and decoding them, as a counted draw decodes its parameters.
    With ``cached``, both generators first draw one bounded integer, so
    that they start with a kept half. Asserts each pair of values equal."""
    live, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        assert live.integers(0, 6) == replayed.integers(0, 6)
        assert replayed.bit_generator.state["has_uint32"] == 1
    plan = np.random.default_rng(seed + 1)
    stream = _RawStream(replayed)

    def uniforms(count):
        start = raw_skip(stream, count)
        return ((stream.words[start:start + count] >> 11) * _WORD_UNIT).tolist()

    for _ in range(calls):
        kind = plan.integers(0, 5)
        if kind == 0:
            span = REPLAY_SPANS[plan.integers(0, len(REPLAY_SPANS))]
            lo = int(plan.integers(-5, 5))
            want = live.integers(lo, lo + span)
            assert type(want) is int or isinstance(want, np.integer)
            assert raw_integers(stream, lo, lo + span) == want
        elif kind == 1:
            count = int(plan.integers(0, 9))
            assert uniforms(count) == live.random(count).tolist()
        elif kind == 2:
            assert uniforms(1) == [live.random()]
        elif kind == 3:
            stream.reserve(int(plan.integers(0, 40)))  # read ahead, to be rewound
        else:
            stream.__exit__(None, None, None)
            stream = _RawStream(replayed)
    stream.__exit__(None, None, None)
    return live, replayed


@pytest.mark.parametrize("first_seed", range(0, 200, 20))
def test_raw_stream_replays_the_generator(first_seed):
    """Bounded integers of every replayed span, random blocks and single
    randoms give the live generator's values, across reopened streams and
    words read ahead, from a fresh generator and from one with a kept
    half, and the generator is left where the live one is: the same
    state, the same kept half and the same draws next."""
    for seed in range(first_seed, first_seed + 20):
        for cached in (False, True):
            live, replayed = _replayed_calls(seed, 300, cached)
            want, got = live.bit_generator.state, replayed.bit_generator.state
            assert got["state"] == want["state"]
            assert got["has_uint32"] == want["has_uint32"]
            if want["has_uint32"]:
                assert got["uinteger"] == want["uinteger"]
            assert replayed.integers(0, 6, size=5).tolist() == live.integers(0, 6, size=5).tolist()
            assert replayed.random() == live.random()


def test_raw_stream_refuses_what_it_does_not_replay():
    for bitgen in (np.random.PCG64DXSM(1), np.random.MT19937(1), np.random.Philox(1)):
        with pytest.raises(TypeError, match="needs PCG64"):
            _RawStream(np.random.Generator(bitgen))
    rng = np.random.default_rng(1)
    with _RawStream(rng) as stream:
        for lo, hi in ((0, 2**32), (5, 5), (3, 2), (0, 2**40)):
            with pytest.raises(ValueError, match="spans of 1 to 2"):
                raw_integers(stream, lo, hi)
    assert rng.random() == np.random.default_rng(1).random()  # nothing drawn
    with pytest.raises(InvalidArgumentError, match="max_block must be below 2"):
        SpecSampler(1, max_block=2**32)


# the default boxes accept about 32% of the attempts, this one about 3.6%
LOW_ACCEPTANCE = {"b_box": (1.0, 1.5)}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    count=st.integers(0, 300),
    max_block=st.integers(1, 6),
    fixed=st.sampled_from([{}, {"m": 1}, {"m": 3}, {"n": 1}, {"n": 4}, {"m": 2, "n": 5}]),
    boxes=st.sampled_from([{}, LOW_ACCEPTANCE]),
    after_live_integer=st.booleans(),
)
def test_counted_draw_is_the_scalar_run(seed, count, max_block, fixed, boxes,
                                        after_live_integer):
    """A counted draw gives the specs, counters and stream of the scalar
    loop: with few accepts per block, with given block sizes, with every
    max_block, and after a live bounded integer call that leaves a kept
    half on both generators."""
    new = SpecSampler(seed, max_block=max_block, **boxes)
    old = ScalarSampler(seed, max_block, **boxes)
    if after_live_integer:
        assert new.rng.integers(0, 6) == old.rng.integers(0, 6)
        assert new.rng.bit_generator.state["has_uint32"] == 1
        assert old.rng.bit_generator.state["has_uint32"] == 1
    got = new.bisymmetric(count=count, **fixed)
    want = [old.bisymmetric(**fixed) for _ in range(count)]
    assert list(map(_spec_bits, got)) == list(map(_spec_bits, want))
    _same_state(new, old)


# ---------------------------------------------------------------------------
# The stacked covariance check.
# ---------------------------------------------------------------------------


def _constructor_check(matrix):
    """The ``CovarianceMatrix`` check as one matrix at a time made it,
    kept here as the reference: the symmetrized matrix, or the error."""
    m = np.array(matrix, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = 0.5 * (m + m.T)
        skew = float(np.max(np.abs(m - m.T)))
    if not np.all(np.isfinite(symmetric)):
        return InvalidArgumentError("covariance matrix has non-finite entries")
    if skew > TOL_SYM * max(1.0, float(np.max(np.abs(m)))):
        return InvalidArgumentError(
            f"matrix is asymmetric beyond tolerance: max |s_ij - s_ji| = {skew:.3e}"
        )
    return symmetric


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _bad_and_good_matrices():
    base = np.array(el.bisymmetric_cm(
        el.BisymmetricSpec(2, 1, 1.6, 0.2, -0.15, 1.4, 0.0, 0.0, 0.3, -0.25)).matrix)

    def edited(*entries):
        matrix = base.copy()
        for (i, j), value in entries:
            matrix[i, j] = value
        return matrix

    return {
        "good": base,
        "nan": edited(((1, 1), math.nan)),
        "inf off the diagonal": edited(((0, 3), math.inf)),
        "-inf on both sides": edited(((2, 4), -math.inf), ((4, 2), -math.inf)),
        "asymmetric": edited(((0, 2), base[0, 2] + 1e-6)),
        "asymmetric within tolerance": edited(((0, 2), base[0, 2] + 1e-12)),
        "symmetrization overflow": edited(((0, 5), 1e308), ((5, 0), 1e308)),
        "difference overflow": edited(((0, 5), 1e308), ((5, 0), -1e308)),
        "large scale, small skew": edited(((0, 0), 1e12), ((1, 3), 1e-4)),
        "large scale, large skew": edited(((0, 0), 1e12), ((1, 3), 1e4)),
        # the largest entry in magnitude is negative
        "large negative scale, small skew": edited(((0, 1), -1e12), ((1, 0), -1e12), ((1, 3), 1.0)),
        "large negative scale, large skew": edited(((0, 1), -1e12), ((1, 0), -1e12), ((1, 3), 1e4)),
        "non-finite and asymmetric": edited(((0, 2), 5.0), ((3, 3), math.nan)),
        "asymmetric, then non-finite in the other half": edited(((0, 2), 5.0), ((5, 5), math.nan)),
        "-0.0 entries": edited(((0, 1), -0.0), ((1, 0), -0.0)),
    }


def test_stacked_check_gives_each_matrix_the_constructor_result_in_place():
    cases = _bad_and_good_matrices()
    names = list(cases) * 2  # every case twice, the good matrix between failures
    stack = np.array([cases[name] for name in names])
    errors = _PointErrors(len(stack))
    checked = _symmetrized(stack, errors)
    assert not checked.flags.writeable
    failures = set()
    for k, name in enumerate(names):
        want = _constructor_check(stack[k])
        if isinstance(want, Exception):
            failures.add(name)
            assert not errors.alive[k], name
            assert type(errors.errors[k]) is InvalidArgumentError, name
            assert str(errors.errors[k]) == str(want), name
            with pytest.raises(InvalidArgumentError) as excinfo:
                el.CovarianceMatrix(stack[k])
            assert str(excinfo.value) == str(want)
        else:
            assert errors.alive[k] and errors.errors[k] is None, name
            assert np.array_equal(_bits(checked[k]), _bits(want)), name
            assert np.array_equal(_bits(el.CovarianceMatrix(stack[k]).matrix), _bits(want))
    assert failures == {
        "nan", "inf off the diagonal", "-inf on both sides", "asymmetric",
        "symmetrization overflow", "difference overflow", "large scale, large skew",
        "large negative scale, large skew",
        "non-finite and asymmetric", "asymmetric, then non-finite in the other half",
    }
    assert "non-finite" in str(errors.errors[names.index("non-finite and asymmetric")])
    assert "= 1.000e-06" in str(errors.errors[names.index("asymmetric")])
    assert "= inf" in str(errors.errors[names.index("difference overflow")])


def test_checked_stack_matrices_are_read_only_views():
    spec = el.BisymmetricSpec(2, 2, 1.5, 0.1, -0.1, 1.5, 0.1, -0.1, 0.2, -0.2)
    cms = el.bisymmetric_cm([spec, spec])
    for cm in cms:
        assert isinstance(cm, el.CovarianceMatrix) and cm.modes == 4
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Stacked assembly and stacked localize results.
# ---------------------------------------------------------------------------


def _loop_assembled(m, n, alpha, eps, beta, zeta, gamma):
    """Reference assembly, one 2x2 block at a time, from block diagonals."""
    total = m + n
    out = np.zeros((2 * total, 2 * total))
    for i in range(total):
        for j in range(total):
            if (i < m) != (j < m):
                diagonal = gamma
            elif i < m:
                diagonal = alpha if i == j else eps
            else:
                diagonal = beta if i == j else zeta
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = np.diag(diagonal)
    return out


def test_stacked_assembly_matches_loop_assembly_bit_for_bit():
    sampler = SpecSampler(31)
    groups = {}
    for spec in sampler.bisymmetric(count=600):
        groups.setdefault((spec.m, spec.n), []).append(spec)
    # signed zeros must survive the copy
    groups[(2, 3)].append(el.BisymmetricSpec(2, 3, 1.5, -0.0, 0.1, 1.5, 0.0, -0.0, -0.0, 0.2))
    assert len(groups) == 36
    for (m, n), specs in groups.items():
        cms = el.bisymmetric_cm(specs)
        assert len(cms) == len(specs)
        for spec, cm in zip(specs, cms):
            want = _loop_assembled(
                m, n, (spec.a, spec.a), (spec.e1, spec.e2), (spec.b, spec.b),
                (spec.z1, spec.z2), (spec.g1, spec.g2),
            )
            assert np.array_equal(_bits(cm.matrix), _bits(want))
            assert np.array_equal(_bits(el.bisymmetric_cm(spec).matrix), _bits(want))
    for modes in (1, 2, 5, 12):
        spec = el.ghz_type_spec(modes, 1.7) if modes > 1 else el.FullySymmetricSpec(1, 1.7)
        want = _loop_assembled(modes, 0, (spec.b, spec.b), (spec.z1, spec.z2), None, None, None)
        assert np.array_equal(_bits(el.fully_symmetric_cm(spec).matrix), _bits(want))


def test_stacked_assembly_needs_one_shape_and_raises_the_first_failure():
    one = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    two = el.BisymmetricSpec(2, 1, 1.5, 0.1, 0.1, 1.5, 0.0, 0.0, 0.2, -0.2)
    with pytest.raises(InvalidArgumentError, match="one shape"):
        el.bisymmetric_cm([one, two])
    assert el.bisymmetric_cm([]) == []
    # a valid spec whose matrix overflows in the symmetrization
    huge = el.BisymmetricSpec(2, 1, 1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError) as alone:
        el.bisymmetric_cm(huge)
    with pytest.raises(InvalidArgumentError) as grouped:
        el.bisymmetric_cm([two, huge, two])
    assert str(grouped.value) == str(alone.value) == "covariance matrix has non-finite entries"


def test_localize_stack_gives_a_failing_purity_its_place():
    """A matrix that passes the pattern and residual checks but has a
    negative determinant fails at its purity, in place, with the error
    it raises alone."""
    good = el.bisymmetric_cm(el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.4, -0.4))
    bad = el.CovarianceMatrix(np.array(
        [[1.0, 0, 2.0, 0], [0, 1.0, 0, 0.5], [2.0, 0, 1.0, 0], [0, 0.5, 0, 1.0]]))
    results = el.localize([good, bad, good], 1, 1)
    assert [type(r) for r in results] == [
        el.LocalizationResult, NumericalDomainError, el.LocalizationResult
    ]
    with pytest.raises(NumericalDomainError) as excinfo:
        el.localize(bad, 1, 1)
    assert str(results[1]) == str(excinfo.value) == "covariance determinant must be positive"
    alone = el.localize(good, 1, 1)
    for result in (results[0], results[2]):
        assert np.array_equal(_bits(result.cm_final.matrix), _bits(alone.cm_final.matrix))
        assert _bits(result.equivalent.mu_eq) == _bits(alone.equivalent.mu_eq)
        assert _bits(result.equivalent.delta_eq) == _bits(alone.equivalent.delta_eq)
        assert not result.cm_final.matrix.flags.writeable
        assert not result.equivalent.cm_eq.matrix.flags.writeable


# ---------------------------------------------------------------------------
# Comparison columns and the reports built from them.
# ---------------------------------------------------------------------------


class Compared(NamedTuple):
    quantity: str
    closed_form: float
    brute_force: float
    abs_diff: float
    rel_diff: float
    passed: bool


def _scalar_compare(quantity, closed_form, brute_force, rel_tol=1e-7, abs_tol=1e-9):
    """One comparison as one pair at a time made it, kept here as the
    reference."""
    abs_diff = abs(closed_form - brute_force)
    denom = max(abs(closed_form), abs(brute_force))
    rel_diff = abs_diff / denom if denom > 0.0 else 0.0
    passed = abs_diff <= abs_tol or rel_diff <= rel_tol
    return Compared(quantity, closed_form, brute_force, abs_diff, rel_diff, passed)


def _csv_reference(reports):
    """The per-comparison CSV as ``csv.writer`` wrote it, row by row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["quantity", "closed_form", "brute_force", "abs_diff", "rel_diff", "pass"])
    for r in reports:
        writer.writerow([r.quantity, f"{r.closed_form:.17g}", f"{r.brute_force:.17g}",
                         f"{r.abs_diff:.6g}", f"{r.rel_diff:.6g}", str(r.passed).lower()])
    return buffer.getvalue()


def _summary_reference(reports, cases, seed):
    return {
        "cases": cases,
        "comparisons": len(reports),
        "passes": sum(r.passed for r in reports),
        "worst_rel_diff": max((r.rel_diff for r in reports), default=0.0),
        "seed": seed,
    }


def _rows(reports):
    """Each comparison of a ``SuiteReports`` read from its columns."""
    columns = (reports.closed_form, reports.brute_force, reports.abs_diff, reports.rel_diff)
    return [Compared(reports.quantity(i), *(float(column[i]) for column in columns),
                     bool(reports.passed[i])) for i in range(len(reports))]


values = st.floats() | st.sampled_from([0.0, -0.0, 1e-9, 1e-300, 5e-324, 1e308, math.nan])
block_sizes = st.tuples(st.integers(1, 6), st.integers(1, 6))
route_pairs = st.lists(st.tuples(values, values), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(block_sizes, route_pairs), max_size=3))
def test_comparison_columns_equal_the_scalar_compare(cases):
    """Column comparisons, and the labels, CSV and summary made from them,
    give each pair the scalar results, nan and inf included."""
    want = []
    for case, ((m, n), case_pairs) in enumerate(cases):
        for (route, _, _), (x, y) in zip(ROUTE_PAIRS, case_pairs):
            want.append(_scalar_compare(f"case{case:04d}_m{m}n{n}_{route}", x, y))
    pairs = [pair for _, case_pairs in cases for pair in case_pairs]
    closed_form, brute_force = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    got = SuiteReports([shape for shape, _ in cases], closed_form, brute_force,
                       *_compared(closed_form, brute_force))
    assert repr(_rows(got)) == repr(want)
    assert reports_to_csv_text(got) == _csv_reference(want)
    summary = summarize_reports(got, seed=3)
    assert repr(summary) == repr(_summary_reference(want, len(cases), 3))


def _per_case_reports(cases, seed):
    """The suite's reports as the per-case code made them: every route on
    one spec at a time."""
    split = el.ModeBipartition((0,), (1,))
    reports = []
    for index, spec in enumerate(SpecSampler(seed).bisymmetric(count=cases)):
        m, n = spec.m, spec.n
        cm = el.bisymmetric_cm(spec)
        invariant = el.equivalent_report(spec).log_negativity
        constructive = oracle_pt_log_negativity(el.localize(cm, m, n).equivalent.cm_eq, split)
        part = el.ModeBipartition(tuple(range(m)), tuple(range(m, m + n)))
        brute = oracle_pt_log_negativity(cm, part)
        label = f"case{index:04d}_m{m}n{n}"
        reports += [
            _scalar_compare(f"{label}_invariant_vs_brute", invariant, brute),
            _scalar_compare(f"{label}_constructive_vs_brute", constructive, brute),
            _scalar_compare(f"{label}_invariant_vs_constructive", invariant, constructive),
        ]
    return reports


def test_suite_reports_are_the_per_case_reports():
    reports, summary, _ = run_oracle_suite(cases=80, seed=23)
    want = _per_case_reports(80, 23)
    assert isinstance(reports, SuiteReports) and len(reports) == 240
    assert repr(_rows(reports)) == repr(want)
    assert reports_to_csv_text(reports) == _csv_reference(want)
    assert summary == _summary_reference(want, 80, 23)


@pytest.mark.parametrize("max_block", [2**31 + 1, 2**32 - 1])
def test_counted_draw_of_spans_lemire_often_rejects_is_the_scalar_run(max_block):
    """Block sizes drawn from spans where Lemire's method rejects about
    half or a quarter of the halves: the words the walk reads past its
    reservation keep their place, so a block cut gives the scalar stream."""
    for seed in range(6):
        new, old = SpecSampler(seed, max_block=max_block), ScalarSampler(seed, max_block)
        got = new.bisymmetric(count=40)
        assert list(map(_spec_bits, got)) == [_spec_bits(old.bisymmetric()) for _ in range(40)]
        _same_state(new, old)


def _per_call_columns(sampler, stream, m, n, size, layout):
    """The columns of ``size`` attempts made one replayed call at a time:
    ``raw_integers`` per drawn block size, ``raw_skip`` over each
    attempt's parameter words, and each parameter decoded on its own."""
    widths, words, lows, scales = layout
    stream.drop()
    stream.reserve(size * (2 + max(widths)))
    top = sampler.max_block + 1
    sizes, params, ends, kept = [], [], [], []
    for _ in range(size):
        mm = m if m is not None else raw_integers(stream, 1, top)
        nn = n if n is not None else raw_integers(stream, 1, top)
        kind = 2 * (mm > 1) + (nn > 1)
        start = raw_skip(stream, widths[kind])
        params.append([lows[kind][j] + scales[kind][j] * ((int(stream.words[start + w]) >> 11)
                                                           * _WORD_UNIT) if w >= 0 else 0.0
                       for j, w in enumerate(words[kind].tolist())])
        sizes.append((mm, nn))
        ends.append(stream.pos)
        kept.append(stream.half)
    return sizes, params, ends, kept


@pytest.mark.parametrize("max_block", [1, 2, 6, 7, 2**31 + 1, 2**32 - 1])
def test_walk_gives_the_columns_of_one_replayed_call_per_draw(max_block):
    """The attempt walk, with Lemire's method inlined, gives the block
    sizes, parameter bits, stream positions and kept halves of one
    ``_RawStream`` call per drawn value: with drawn and given block
    sizes, from a fresh generator and from one with a kept half, and
    past its reservation when Lemire rejections use up the words held."""
    past_reservation = 0
    for seed in range(8):  # at 2**31 + 1, seeds 4, 6 and 7 read past the reservation
        for fixed in ({}, {"m": 3}, {"n": 1}, {"m": 2, "n": 5}):
            for cached in (False, True):
                sampler = SpecSampler(seed, max_block=max_block)
                layout = sampler._two_block_layout()
                walked, replayed = np.random.default_rng(seed), np.random.default_rng(seed)
                if cached:
                    assert walked.integers(0, 6) == replayed.integers(0, 6)
                m, n = fixed.get("m"), fixed.get("n")
                with _RawStream(walked) as stream:
                    sizes, params, ends, kept = sampler._attempt_columns(stream, m, n, 300, layout)
                    past_reservation += len(stream.words) > 300 * (2 + max(layout[0]))
                with _RawStream(replayed) as stream:
                    want = _per_call_columns(sampler, stream, m, n, 300, layout)
                assert sizes.T.tolist() == [list(pair) for pair in want[0]]
                assert np.array_equal(_bits(params.T), _bits(want[1]))
                assert ends.tolist() == want[2]
                assert kept == want[3]
    assert bool(past_reservation) == (max_block == 2**31 + 1)
