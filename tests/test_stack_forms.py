"""The stack forms of ``bisymmetric_cm`` and the oracle, and the grouped
form of ``localize``, against their per-item forms, bit for bit.

``verify`` keeps each (m, n) shape group as one array from assembly to
the dense oracle: a ``BisymmetricBatch`` slice is assembled into a
checked (K, 2N, 2N) stack, one grouped ``localize`` call reduces the
stacks of all groups to one ``LocalizationColumns`` each, and the oracle
takes the stacks as they are. Each matrix must get the bits, or the
error, that the per-item call gives it, in place among the others.
"""

import math

import numpy as np
import pytest

import entloc as el
from entloc.errors import InvalidArgumentError, LocalizationError, NumericalDomainError
from entloc.oracle import SpecSampler, oracle_pt_log_negativity
from entloc.states import SPEC_PARAMETERS, BisymmetricBatch, bisymmetric_batch
from entloc.symplectic import _PointErrors, _symmetrized
from oracle_helpers import bits, outcome, random_symplectic
import paper_formulas as pf


pytestmark = pytest.mark.portable(
    reason="the stack and grouped forms rely on stacked cholesky, eigvalsh and matmul, over one "
           "stack or over the groups concatenated, on bit views and on read-only views, and "
           "localize's boundary rotation is elementwise arithmetic and a stacked matmul on the "
           "boundary rows and columns")

_split = el.ModeBipartition.contiguous


def _shape_groups(seed=31, count=600):
    """The specs of a seeded draw by (m, n), in first-seen order, and the
    batch of the whole draw with each group's indices in it."""
    specs = SpecSampler(seed).bisymmetric(count=count)
    groups = {}
    for index, spec in enumerate(specs):
        groups.setdefault((spec.m, spec.n), []).append(index)
    assert len(groups) == 36
    return specs, BisymmetricBatch.of(specs), groups


# ---------------------------------------------------------------------------
# The covariance check of a caller's stack.
# ---------------------------------------------------------------------------


def _tricky_matrices():
    """Symmetric, nearly symmetric and broken 6x6 matrices: signed zeros,
    subnormals, an entry whose symmetrization overflows, nan and inf."""
    base = np.array(el.bisymmetric_cm(
        el.BisymmetricSpec(2, 1, 1.6, 0.2, -0.15, 1.4, 0.0, 0.0, 0.3, -0.25)).matrix)

    def edited(*entries):
        matrix = base.copy()
        for (i, j), value in entries:
            matrix[i, j] = value
        return matrix

    return {
        "good": base,
        "signed zeros, mirrored": edited(((0, 1), -0.0), ((1, 0), -0.0)),
        "+0.0 against -0.0": edited(((0, 1), 0.0), ((1, 0), -0.0)),
        "subnormal pair": edited(((0, 3), 5e-324), ((3, 0), 5e-324)),
        "below 2**1023": edited(((0, 0), 8.9e307)),
        "at 2**1023": edited(((0, 0), 2.0**1023)),
        "asymmetric within tolerance": edited(((0, 2), base[0, 2] + 1e-12)),
        "asymmetric": edited(((0, 2), base[0, 2] + 1e-6)),
        "nan pair": edited(((1, 4), math.nan), ((4, 1), math.nan)),
        "inf on the diagonal": edited(((2, 2), math.inf)),
    }


def test_covariance_check_stack_form_is_the_constructor_per_matrix():
    """Each matrix gets the bits its ``CovarianceMatrix`` holds, or the
    error the constructor raises, in place: in a stack of every case and
    in a stack of each case alone."""
    cases = _tricky_matrices()
    names = list(cases)
    for group in [names] + [[name] for name in names]:
        stack = np.array([cases[name] for name in group])
        errors = _PointErrors(len(stack))
        checked = _symmetrized(stack, errors)
        for k, name in enumerate(group):
            want = outcome(lambda: el.CovarianceMatrix(stack[k]).matrix)
            if isinstance(want, tuple):
                assert (type(errors.errors[k]), str(errors.errors[k])) == want, name
            else:
                assert errors.errors[k] is None, name
                assert np.array_equal(bits(checked[k]), bits(want)), name


# ---------------------------------------------------------------------------
# Assembly.
# ---------------------------------------------------------------------------


def test_bisymmetric_cm_stack_form_is_the_single_form():
    """A batch, built from specs or taken out of a larger batch as the
    suite takes it, gives the read-only stack of each spec's own matrix,
    bit for bit, signed zeros included."""
    specs, batch, groups = _shape_groups()
    for (m, n), indices in groups.items():
        group = [specs[i] for i in indices]
        if (m, n) == (2, 3):
            group.append(el.BisymmetricSpec(2, 3, 1.5, -0.0, 0.1, 1.5, 0.0, -0.0, -0.0, 0.2))
        want = np.array([el.bisymmetric_cm(spec).matrix for spec in group])
        for stack in (el.bisymmetric_cm(BisymmetricBatch.of(group)),
                      el.bisymmetric_cm(batch.take(np.array(indices)))):
            assert isinstance(stack, np.ndarray) and not stack.flags.writeable
            assert stack.shape[1:] == (2 * (m + n), 2 * (m + n))
            assert np.array_equal(bits(stack), bits(want[:len(stack)])), (m, n)


def test_bisymmetric_cm_stack_form_raises_the_first_failure():
    """A point the batch holds an error for raises that error, as its
    spec raises it alone: parameters whose matrix would overflow in the
    symmetrization overflow the spectrum check to nan first. A batch of
    two shapes is invalid, and so is an empty batch, which has no shape."""
    one = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    two = el.BisymmetricSpec(2, 1, 1.5, 0.1, 0.1, 1.5, 0.0, 0.0, 0.2, -0.2)
    huge = (2, 1, 1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError) as alone:
        el.BisymmetricSpec(*huge)
    fields = (two.m, two.n, *(getattr(two, name) for name in SPEC_PARAMETERS))
    with pytest.raises(InvalidArgumentError) as stacked:
        el.bisymmetric_cm(bisymmetric_batch(*np.array([fields, huge, fields]).T))
    assert str(stacked.value) == str(alone.value) == (
        "parameters too large for the spectrum check: the smallest symplectic eigenvalue is nan")
    with pytest.raises(InvalidArgumentError, match=r"got shapes \[\(1, 1\), \(2, 1\)\]"):
        el.bisymmetric_cm(BisymmetricBatch.of([one, two]))
    # point 1, with b = 0.5 < 1, is no valid spec
    columns = [[2, 2, 2], [1, 1, 1]] + [[1.5, 1.5, 1.5], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1],
                                        [1.5, 0.5, 1.5], [0.0] * 3, [0.0] * 3, [0.2] * 3, [-0.2] * 3]
    batch = bisymmetric_batch(*map(np.array, columns))
    assert batch.errors.alive.tolist() == [True, False, True]
    for failing in (batch, batch.take(np.array([2, 1]))):
        with pytest.raises(InvalidArgumentError) as stacked:
            el.bisymmetric_cm(failing)
        assert str(stacked.value) == str(batch.errors.errors[1])
    assert el.bisymmetric_cm(batch.take(np.array([2, 0]))).shape == (2, 6, 6)
    with pytest.raises(InvalidArgumentError, match=r"got shapes \[\]"):
        el.bisymmetric_cm(BisymmetricBatch.of([]))


# ---------------------------------------------------------------------------
# The constructive reduction.
# ---------------------------------------------------------------------------


def _same_result(columns, k, result):
    """Whether column entry k holds ``result``'s bits and flags."""
    pairs = [
        (columns.cm_final[k], result.cm_final.matrix),
        (columns.local_symplectic[k], result.local_symplectic),
        (columns.cm_eq[k], result.equivalent.cm_eq.matrix),
        (columns.mu_eq[k], result.equivalent.mu_eq),
        (columns.delta_eq[k], result.equivalent.delta_eq),
        (columns.residual[k], result.residual),
    ]
    flags = [(columns.cm_final.flags.writeable, result.cm_final.matrix.flags.writeable),
             (columns.cm_eq.flags.writeable, result.equivalent.cm_eq.matrix.flags.writeable),
             (columns.local_symplectic.flags.writeable, result.local_symplectic.flags.writeable)]
    return (all(np.array_equal(bits(got), bits(want)) for got, want in pairs)
            and all(got == want for got, want in flags) and columns.errors[k] is None)


def test_localize_stack_form_is_the_per_matrix_form():
    """Every shape group of a seeded draw, as a group of one: the columns
    of the checked stack, of the same stack as a writable raw array, and
    the results built from the columns all hold each matrix's own
    ``localize`` result."""
    specs, batch, groups = _shape_groups()
    for (m, n), indices in groups.items():
        stack = el.bisymmetric_cm(batch.take(np.array(indices)))
        [columns], [raw] = el.localize([stack], [m], [n]), el.localize([np.array(stack)], [m], [n])
        results = columns.results()
        for k, i in enumerate(indices):
            alone = el.localize(el.bisymmetric_cm(specs[i]), m, n)
            assert _same_result(columns, k, alone), (m, n, k)
            assert _same_result(raw, k, alone), (m, n, k)
            assert _same_result(columns, k, results[k]), (m, n, k)
        assert not columns.cm_final.flags.writeable and not columns.cm_eq.flags.writeable


@pytest.mark.parametrize("m, n", [(1, 4), (4, 1), (1, 1), (24, 24), (1, 199), (200, 200)],
                         ids=["first rows", "last rows", "whole matrix", "middle",
                              "first rows of 200 modes", "middle of 400 modes"])
def test_boundary_rotation_at_the_edges_of_the_matrix(m, n):
    """Stage 3 of ``localize`` rotates rows and columns 2(m-1):2m+2 alone:
    the first four at m = 1 (of 5 and of 200 modes), the last four at n =
    1, all of them at 1|1 and four in the middle at 24|24 and at 200|200,
    the range of block sizes the reduction is claimed for. The states are
    seen through one single-mode symplectic per side, so that the
    rotations are not trivial. S is symplectic, S^T sigma S is cm_final
    within the residual tolerance, and each matrix of the stack gets the
    bits of its single form."""
    rng = np.random.default_rng(100 * m + n)
    stack = []
    for spec in SpecSampler(m + n, max_block=max(m, n)).bisymmetric(m, n, count=3):
        local = np.zeros((2 * (m + n), 2 * (m + n)))
        local[: 2 * m, : 2 * m] = np.kron(np.eye(m), random_symplectic(1, rng, strength=0.4))
        local[2 * m :, 2 * m :] = np.kron(np.eye(n), random_symplectic(1, rng, strength=0.4))
        stack.append(pf.apply_symplectic(local, el.bisymmetric_cm(spec)).matrix)
    stack = np.array(stack)
    [columns] = el.localize([stack], [m], [n])
    for k, matrix in enumerate(stack):
        alone = el.localize(el.CovarianceMatrix(matrix), m, n)
        assert _same_result(columns, k, alone), k
        s = alone.local_symplectic
        assert el.is_symplectic(s), k
        tol = 1e-8 * max(1.0, np.abs(matrix).max())
        assert alone.residual <= tol and np.abs(s.T @ matrix @ s - alone.cm_final.matrix).max() <= tol, k


def test_localize_stack_form_keeps_each_failure_in_place():
    """A raw 2|1 stack holding a pattern failure, a purity failure (a
    cross block too large for a positive determinant), an asymmetric and
    a non-finite matrix: each gets the error that the matrix's
    ``CovarianceMatrix`` or its ``localize`` raises, and the good matrices
    between them their own results."""
    good = np.array(el.bisymmetric_cm(
        el.BisymmetricSpec(2, 1, 1.6, 0.2, -0.15, 1.4, 0.0, 0.0, 0.3, -0.25)).matrix)
    pattern = good.copy()
    pattern[2, 2] += 1e-3
    purity = np.eye(6)
    purity[[0, 2], 4] = purity[4, [0, 2]] = 2.0
    purity[[1, 3], 5] = purity[5, [1, 3]] = 0.5
    asymmetric = good.copy()
    asymmetric[0, 4] += 1e-3
    non_finite = good.copy()
    non_finite[1, 3] = non_finite[3, 1] = math.nan
    infinite = good.copy()
    infinite[5, 5] = math.inf
    stack = np.array([good, pattern, good, purity, asymmetric, good, non_finite, infinite, good])
    [columns] = el.localize([stack], [2], [1])
    kinds = []
    for k, matrix in enumerate(stack):
        alone = outcome(lambda: el.localize(el.CovarianceMatrix(matrix), 2, 1))
        if isinstance(alone, tuple):
            assert (type(columns.errors[k]), str(columns.errors[k])) == alone, k
            kinds.append(alone[0])
        else:
            assert _same_result(columns, k, alone), k
            kinds.append(None)
    assert kinds == [None, LocalizationError, None, NumericalDomainError, InvalidArgumentError,
                     None, InvalidArgumentError, InvalidArgumentError, None]
    assert str(columns.errors[3]) == "covariance determinant must be positive"
    assert "asymmetric" in str(columns.errors[4])
    assert str(columns.errors[6]) == "covariance matrix has non-finite entries"
    results = columns.results()
    assert [type(r) for r in results] == [el.LocalizationResult if kind is None else kind
                                          for kind in kinds]
    assert np.array_equal(bits(results[0].cm_final.matrix), bits(columns.cm_final[0]))


def test_localize_stack_form_rejects_a_stack_of_another_size():
    """A stack the split does not cover, and an array that is no (K, 2N,
    2N) stack, are invalid, as the oracle says; an empty stack gives empty
    columns."""
    for shape, message in (((2, 6, 6), r"split \(2, 2\) does not cover the 3-mode input"),
                           ((6, 6), r"expected a \(K, 2N, 2N\) stack, got shape \(6, 6\)"),
                           ((2, 4, 6), r"expected a \(K, 2N, 2N\) stack, got shape \(2, 4, 6\)")):
        with pytest.raises(InvalidArgumentError, match=message):
            el.localize([np.zeros(shape)], [2], [2])
    [empty] = el.localize([np.empty((0, 8, 8))], [2], [2])
    assert empty.cm_final.shape == (0, 8, 8) and empty.errors == []


# ---------------------------------------------------------------------------
# The grouped form of the reduction.
# ---------------------------------------------------------------------------


def _same_columns(got, want):
    """Whether two ``LocalizationColumns`` hold the same bits, errors and
    read-only flags."""
    arrays = ("cm_final", "local_symplectic", "cm_eq", "mu_eq", "delta_eq", "residual")
    errors = [[None if e is None else (type(e), str(e)) for e in c.errors] for c in (got, want)]
    flags = [(c.cm_final.flags.writeable, c.cm_eq.flags.writeable) for c in (got, want)]
    return (all(np.array_equal(bits(getattr(got, name)), bits(getattr(want, name)))
                for name in arrays)
            and errors[0] == errors[1] and flags[0] == flags[1])


def test_grouped_localize_is_each_group_alone():
    """One grouped call over the 36 shape stacks of a seeded 1000-case
    draw gives each group the columns of its own call, a group of one,
    bit for bit: the normalizers, the closed-form boundary rotations and
    the checks of cm_eq run on all groups concatenated, and each block
    mixing is built once for the call."""
    groups = {}
    for spec in SpecSampler(31).bisymmetric(count=1000):
        groups.setdefault((spec.m, spec.n), []).append(spec)
    assert len(groups) == 36
    stacks = [el.bisymmetric_cm(BisymmetricBatch.of(group)) for group in groups.values()]
    ms, ns = [m for m, _ in groups], [n for _, n in groups]
    grouped = el.localize(stacks, ms, ns)
    assert len(grouped) == 36
    for columns, stack, m, n in zip(grouped, stacks, ms, ns):
        assert _same_columns(columns, el.localize([stack], [m], [n])[0]), (m, n)
        assert not any(columns.errors), (m, n)


def test_grouped_localize_keeps_each_failure_in_its_group():
    """Failures injected into different groups stay on their matrices: a
    pattern deviation, a single-mode block that is not positive definite,
    a non-finite entry, and a residual above ``tol_pattern`` (a matrix
    scaled by 1e10, whose pattern stays exact), with an empty group among
    them. Each group gets the columns of its own call."""
    _, batch, groups = _shape_groups()
    shapes = [(3, 2), (1, 1), (2, 2), (2, 4), (1, 3), (5, 5)]
    stacks = [np.array(el.bisymmetric_cm(batch.take(np.array(groups[shape])))) for shape in shapes]
    stacks[0][1, 0, 0] += 1e-3
    stacks[1][2, :2, :2] = -np.eye(2)
    stacks[2] = stacks[2][:0]
    stacks[3][0, 1, 4] = stacks[3][0, 4, 1] = math.nan
    stacks[4][1] *= 1e10
    ms, ns = [m for m, _ in shapes], [n for _, n in shapes]
    grouped = el.localize(stacks, ms, ns, tol_pattern=1e-9)
    for columns, stack, m, n in zip(grouped, stacks, ms, ns):
        assert _same_columns(columns, el.localize([stack], [m], [n], tol_pattern=1e-9)[0]), (m, n)
    failed = {(g, k): str(e) for g, columns in enumerate(grouped)
              for k, e in enumerate(columns.errors) if e is not None}
    assert sorted(failed) == [(0, 1), (1, 2), (3, 0), (4, 1)]
    assert "pattern deviation" in failed[0, 1]
    assert failed[1, 2] == "single-mode covariance block is not positive definite"
    assert failed[3, 0] == "covariance matrix has non-finite entries"
    assert failed[4, 1].startswith("off-pattern residual")
    assert grouped[2].cm_final.shape == (0, 8, 8) and grouped[2].errors == []


def test_grouped_localize_rejects_groups_that_do_not_match():
    """Sequences of unequal length, a stack of another size, an item that
    is no array, a block size that is no integer and a scalar beside a
    sequence are invalid; no groups give no columns."""
    stack = np.array([np.eye(4)])
    for stacks, ms, ns in (([stack], [1, 1], [1, 1]), ([stack, stack], [1], [1]),
                           ([stack], [1], [1, 1])):
        with pytest.raises(InvalidArgumentError, match="one m and one n per stack"):
            el.localize(stacks, ms, ns)
    with pytest.raises(InvalidArgumentError, match=r"split \(1, 2\) does not cover the 2-mode input"):
        el.localize([stack, stack], [1, 1], [1, 2])
    with pytest.raises(InvalidArgumentError, match=r"expected a \(K, 2N, 2N\) stack, got CovarianceMatrix"):
        el.localize([el.CovarianceMatrix(np.eye(4))], [1], [1])
    with pytest.raises(InvalidArgumentError, match="block size must be an integer, got 1.0"):
        el.localize([stack], [1.0], [1])
    # entries that are no numbers: before, a bare ValueError or TypeError from the cast
    for entries in (np.full((1, 4, 4), "x"), np.full((1, 4, 4), {}, dtype=object)):
        for call in (lambda: el.localize([entries], [1], [1]),
                     lambda: oracle_pt_log_negativity(entries, _split(1, 1))):
            with pytest.raises(InvalidArgumentError, match="a stack must hold real numbers"):
                call()
    # a ragged sequence of sizes is a sequence too: before, a bare ValueError
    with pytest.raises(InvalidArgumentError, match="one m and one n per stack"):
        el.localize([stack], [1, [2]], [3, 2])
    with pytest.raises(InvalidArgumentError, match=r"block size must be an integer, got \[2\]"):
        el.localize([stack, stack], [1, [2]], [1, 2])
    with pytest.raises(InvalidArgumentError, match="two sequences of block sizes"):
        el.localize([stack], [1], 1)
    with pytest.raises(InvalidArgumentError, match="finite number >= 0"):
        el.localize([], [], [], tol_pattern=math.nan)
    assert el.localize([], [], []) == []


@pytest.mark.filterwarnings("error")
def test_complex_input_is_invalid_not_cast():
    """(1+1j) I4 was taken as I4, its imaginary part dropped with a
    ``ComplexWarning``: every entry point that casts to float rejects a
    complex dtype instead, a zero imaginary part included."""
    for matrix in ((1 + 1j) * np.eye(4), np.eye(4, dtype=complex)):
        calls = [lambda: el.CovarianceMatrix(matrix), lambda: el.CovarianceMatrix(matrix.tolist()),
                 lambda: el.localize([matrix[None]], [1], [1]),
                 lambda: oracle_pt_log_negativity(matrix[None], _split(1, 1))]
        for call in calls:
            with pytest.raises(InvalidArgumentError, match="covariance matrix must be real"):
                call()


# ---------------------------------------------------------------------------
# The dense oracle.
# ---------------------------------------------------------------------------


def test_oracle_stack_form_is_the_single_form():
    """The brute-force stack of every shape group and the stack of all
    their reduced two-mode matrices, as ``verify`` hands them over, give
    each matrix the value of its ``CovarianceMatrix`` bit for bit."""
    _, batch, groups = _shape_groups()
    reduced = []
    for (m, n), indices in groups.items():
        stack = el.bisymmetric_cm(batch.take(np.array(indices)))
        part = _split(m, n)
        want = [oracle_pt_log_negativity(el.CovarianceMatrix(matrix), part) for matrix in stack]
        assert np.array_equal(bits(oracle_pt_log_negativity(stack, part)), bits(want)), (m, n)
        reduced.append(el.localize([stack], [m], [n])[0].cm_eq)
    reduced = np.concatenate(reduced)
    want = [oracle_pt_log_negativity(el.CovarianceMatrix(matrix), _split(1, 1)) for matrix in reduced]
    assert np.array_equal(bits(oracle_pt_log_negativity(reduced, _split(1, 1))), bits(want))
    assert 0 < sum(value > 0.0 for value in want) < len(want)


def test_oracle_stack_form_keeps_each_failure_in_place():
    """A raw stack: a matrix that fails the covariance check keeps its
    error, a zero spectrum its numerical error, and the others the values
    of their ``CovarianceMatrix``. A stack of no 2N x 2N matrices and a
    split that does not cover the modes are invalid; an empty stack gives
    no values."""
    tms = np.array(pf.two_mode_squeezed(0.5).matrix)
    asymmetric = tms.copy()
    asymmetric[0, 2] += 1e-3
    non_finite = tms.copy()
    non_finite[1, 1] = math.inf
    mixed_zeros = tms.copy()
    mixed_zeros[0, 1], mixed_zeros[1, 0] = 0.0, -0.0
    stack = np.array([np.eye(4), np.zeros((4, 4)), tms, asymmetric, non_finite, mixed_zeros, tms])
    got = oracle_pt_log_negativity(stack, _split(1, 1))
    for k, matrix in enumerate(stack):
        want = outcome(lambda: oracle_pt_log_negativity(el.CovarianceMatrix(matrix), _split(1, 1)))
        if isinstance(want, tuple):
            assert (type(got[k]), str(got[k])) == want, k
        else:
            assert bits(got[k]) == bits(want), k
    assert [type(value) for value in got] == [float, NumericalDomainError, float,
                                              InvalidArgumentError, InvalidArgumentError, float, float]
    for shape in ((4, 4), (2, 4, 6), (2, 3, 3), (2, 0, 0)):
        with pytest.raises(InvalidArgumentError, match=r"expected a \(K, 2N, 2N\) stack"):
            oracle_pt_log_negativity(np.zeros(shape), _split(1, 1))
    with pytest.raises(InvalidArgumentError, match="bipartition covers modes"):
        oracle_pt_log_negativity(np.array([np.eye(6)]), _split(1, 1))
    assert oracle_pt_log_negativity(np.empty((0, 4, 4)), _split(1, 1)) == []


# ---------------------------------------------------------------------------
# The two accepted forms.
# ---------------------------------------------------------------------------


_LOCALIZE_FORMS = (r"localize takes a CovarianceMatrix and two block sizes, or a sequence of "
                   r"\(K, 2N, 2N\) stacks and two sequences of block sizes, got ")


def test_stack_forms_and_single_forms_are_the_only_forms():
    """A list or tuple of specs or matrices, empty or not, is neither the
    single form nor the stack (or grouped) form: each function rejects it,
    naming the two forms it takes."""
    spec = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    cm = el.bisymmetric_cm(spec)
    calls = [
        (el.bisymmetric_cm, [spec], "a BisymmetricSpec or a BisymmetricBatch"),
        (lambda items: el.localize(items, 1, 1), [cm], _LOCALIZE_FORMS),
        (lambda items: oracle_pt_log_negativity(items, _split(1, 1)), [cm],
         r"a CovarianceMatrix or a \(K, 2N, 2N\) array"),
    ]
    for call, items, forms in calls:
        for other in (items, items * 3, tuple(items), [], [cm.matrix]):
            with pytest.raises(InvalidArgumentError, match=forms):
                call(other)


def test_localize_of_one_array_names_its_two_forms():
    """``localize`` has no stack form: an array with two block sizes, a
    stack or a single matrix, is invalid input whose error names the two
    forms; the stack goes in as a group of one."""
    stack = np.array([el.fully_symmetric_cm(el.ghz_type_spec(4, 1.4)).matrix] * 2)
    for array in (stack, stack[0]):
        with pytest.raises(InvalidArgumentError, match=_LOCALIZE_FORMS + "ndarray$"):
            el.localize(array, 2, 2)
    [columns] = el.localize([stack], [2], [2])
    assert columns.cm_final.shape == (2, 8, 8) and columns.errors == [None, None]
