"""The stack forms of ``bisymmetric_cm``, ``localize`` and the oracle
against their per-item forms, bit for bit.

``verify`` keeps each (m, n) shape group as one array from assembly to
the dense oracle: a ``BisymmetricBatch`` slice is assembled into a
checked (K, 2N, 2N) stack, ``localize`` reduces the stack to
``LocalizationColumns`` and the oracle takes the stacks as they are. Each
matrix must get the bits, or the error, that the per-item call gives it,
in place among the others.
"""

import math

import numpy as np
import pytest

import entloc as el
from entloc.errors import InvalidArgumentError, LocalizationError, NumericalDomainError
from entloc.oracle import SpecSampler, oracle_pt_log_negativity
from entloc.states import BisymmetricBatch, bisymmetric_batch
from entloc.symplectic import _PointErrors, _symmetrized
from oracle_helpers import bits, outcome, random_symplectic
import paper_formulas as pf


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
    """The first matrix that fails its check raises the error its spec
    raises alone; a point the batch holds an error for raises that error;
    a batch of two shapes is invalid, and so is an empty batch, which has
    no shape."""
    one = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    two = el.BisymmetricSpec(2, 1, 1.5, 0.1, 0.1, 1.5, 0.0, 0.0, 0.2, -0.2)
    huge = el.BisymmetricSpec(2, 1, 1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError) as alone:
        el.bisymmetric_cm(huge)
    with pytest.raises(InvalidArgumentError) as stacked:
        el.bisymmetric_cm(BisymmetricBatch.of([two, huge, two]))
    assert str(stacked.value) == str(alone.value) == "covariance matrix has non-finite entries"
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
    """Every shape group of a seeded draw: the columns of the checked
    stack, of the same stack as a writable raw array, and the results
    built from the columns all hold each matrix's own ``localize``
    result."""
    specs, batch, groups = _shape_groups()
    for (m, n), indices in groups.items():
        stack = el.bisymmetric_cm(batch.take(np.array(indices)))
        columns = el.localize(stack, m, n)
        raw = el.localize(np.array(stack), m, n)
        results = columns.results()
        for k, i in enumerate(indices):
            alone = el.localize(el.bisymmetric_cm(specs[i]), m, n)
            assert _same_result(columns, k, alone), (m, n, k)
            assert _same_result(raw, k, alone), (m, n, k)
            assert _same_result(columns, k, results[k]), (m, n, k)
        assert not columns.cm_final.flags.writeable and not columns.cm_eq.flags.writeable


@pytest.mark.parametrize("m, n", [(1, 4), (4, 1), (1, 1), (24, 24)],
                         ids=["first rows", "last rows", "whole matrix", "middle"])
def test_boundary_rotation_at_the_edges_of_the_matrix(m, n):
    """Stage 3 of ``localize`` rotates rows and columns 2(m-1):2m+2 alone:
    the first four at m = 1, the last four at n = 1, all of them at 1|1
    and four in the middle at 24|24. The states are seen through one
    single-mode symplectic per side, so that the rotations are not
    trivial. S is symplectic, S^T sigma S is cm_final within the residual
    tolerance, and each matrix of the stack gets the bits of its single
    form."""
    rng = np.random.default_rng(100 * m + n)
    stack = []
    for spec in SpecSampler(m + n, max_block=max(m, n)).bisymmetric(m, n, count=3):
        local = np.zeros((2 * (m + n), 2 * (m + n)))
        local[: 2 * m, : 2 * m] = np.kron(np.eye(m), random_symplectic(1, rng, strength=0.4))
        local[2 * m :, 2 * m :] = np.kron(np.eye(n), random_symplectic(1, rng, strength=0.4))
        stack.append(pf.apply_symplectic(local, el.bisymmetric_cm(spec)).matrix)
    stack = np.array(stack)
    columns = el.localize(stack, m, n)
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
    columns = el.localize(stack, 2, 1)
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
    for shape in ((2, 6, 6), (6, 6), (2, 4, 6)):
        with pytest.raises(InvalidArgumentError, match=r"needs a \(K, 8, 8\) stack"):
            el.localize(np.zeros(shape), 2, 2)
    empty = el.localize(np.empty((0, 8, 8)), 2, 2)
    assert empty.cm_final.shape == (0, 8, 8) and empty.errors == []


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
        reduced.append(el.localize(stack, m, n).cm_eq)
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


def test_stack_forms_and_single_forms_are_the_only_forms():
    """A list or tuple of specs or matrices, empty or not, is neither the
    single form nor the stack form: each function rejects it, naming the
    two forms it takes."""
    spec = el.BisymmetricSpec(1, 1, 1.5, 0.0, 0.0, 1.5, 0.0, 0.0, 0.2, -0.2)
    cm = el.bisymmetric_cm(spec)
    calls = [
        (el.bisymmetric_cm, [spec], "a BisymmetricSpec or a BisymmetricBatch"),
        (lambda items: el.localize(items, 1, 1), [cm], r"a CovarianceMatrix or a \(K, 2N, 2N\) array"),
        (lambda items: oracle_pt_log_negativity(items, _split(1, 1)), [cm],
         r"a CovarianceMatrix or a \(K, 2N, 2N\) array"),
    ]
    for call, items, forms in calls:
        for other in (items, items * 3, tuple(items), [], [cm.matrix]):
            with pytest.raises(InvalidArgumentError, match=forms):
                call(other)
