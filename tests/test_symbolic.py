"""Symbolic proofs, with sympy, of the two-mode identities that the
invariant route and the test helper ``paper_formulas.equivalent_two_mode``
rest on, for generic symmetric blocks A and B and a generic cross block C.

Where the library function is plain arithmetic (``_adjugate_traces``), the
identity is asserted on the function itself, run on object arrays of sympy
symbols. ``_pt_nu_tilde_pair`` also records errors through numpy checks
that take no symbols, so its identities are asserted on the formula its
docstring states."""

import numpy as np
import pytest
import sympy as sp

from entloc.symplectic import _adjugate_traces

pytestmark = pytest.mark.portable(reason="sympy does the arithmetic; numpy only indexes "
                                         "object arrays")

a00, a01, a11, b00, b01, b11, c00, c01, c10, c11 = sp.symbols(
    "a00 a01 a11 b00 b01 b11 c00 c01 c10 c11", real=True)
A = sp.Matrix([[a00, a01], [a01, a11]])
B = sp.Matrix([[b00, b01], [b01, b11]])
C = sp.Matrix([[c00, c01], [c10, c11]])
# the partial transpose mirrors the momentum of mode b
Z = sp.diag(1, -1)


def _trace(a, c, b):
    """``_adjugate_traces`` of three 2x2 sympy matrices."""
    return sp.expand(_adjugate_traces(*(np.array(x.tolist(), dtype=object) for x in (a, c, b))))


def _sigma(a, c, b):
    return sp.Matrix(sp.BlockMatrix([[a, c], [c.T, b]]))


def test_adjugate_traces_is_the_trace_it_names():
    assert _trace(A, C, B) == sp.expand((A.adjugate() * C * B.adjugate() * C.T).trace())


def test_two_mode_determinant_from_block_invariants():
    """det sigma = det A det B - tr(adj A C adj B C^T) + det C^2."""
    identity = A.det() * B.det() - _trace(A, C, B) + C.det() ** 2
    assert sp.expand(_sigma(A, C, B).det() - identity) == 0


def test_partial_transpose_keeps_the_determinant_and_the_trace_and_flips_det_c():
    pt_c, pt_b = C * Z, Z * B * Z
    assert sp.expand(_sigma(A, pt_c, pt_b).det() - _sigma(A, C, B).det()) == 0
    assert _trace(A, pt_c, pt_b) == _trace(A, C, B)
    assert sp.expand(pt_c.det() + C.det()) == 0


def test_pt_nu_tilde_pair_discriminant():
    """The docstring of ``_pt_nu_tilde_pair``: with Delta~ = det A + det B
    - 2 det C, Delta~^2 - 4 det sigma = (det A - det B)^2 + 4(tr - (det A
    + det B) det C); and the nu~^2 are the roots of x^2 - Delta~ x + det
    sigma, because the PT matrix's Omega sigma~ has the characteristic
    polynomial l^4 + Delta~ l^2 + det sigma~, whose roots are +/- i nu~."""
    det_a, det_b, det_c, trace = A.det(), B.det(), C.det(), _trace(A, C, B)
    det = _sigma(A, C, B).det()
    delta = det_a + det_b - 2 * det_c
    disc = (det_a - det_b) ** 2 + 4 * (trace - (det_a + det_b) * det_c)
    assert sp.expand(delta ** 2 - 4 * det - disc) == 0
    omega = sp.diag(sp.Matrix([[0, 1], [-1, 0]]), sp.Matrix([[0, 1], [-1, 0]]))
    l = sp.Symbol("l")
    charpoly = (omega * _sigma(A, C * Z, Z * B * Z)).charpoly(l).as_expr()
    assert sp.expand(charpoly - (l ** 4 + delta * l ** 2 + det)) == 0


def test_standard_form_cross_block_from_the_core_invariants():
    """What ``paper_formulas.equivalent_two_mode`` reads: a local
    symplectic (determinant 1) on each side keeps det C' and tr(adj A' C'
    adj B' C'^T), and on the standard form, diagonal blocks nu_a I and
    nu_b I and cross block diag(c_plus, c_minus), they are P = c_plus
    c_minus and nu_a nu_b S with S = c_plus^2 + c_minus^2; then S +/- 2P =
    (c_plus +/- c_minus)^2."""
    p, q, r, s, t, u = sp.symbols("p q r s t u", nonzero=True)
    sa = sp.Matrix([[p, q], [r, (1 + q * r) / p]])
    sb = sp.Matrix([[s, t], [u, (1 + t * u) / s]])
    moved = (sa.T * A * sa, sa.T * C * sb, sb.T * B * sb)
    assert sp.simplify(_trace(*moved) - _trace(A, C, B)) == 0
    assert sp.simplify(moved[1].det() - C.det()) == 0

    nu_a, nu_b, c_plus, c_minus = sp.symbols("nu_a nu_b c_plus c_minus", positive=True)
    cross = sp.diag(c_plus, c_minus)
    trace = _trace(nu_a * sp.eye(2), cross, nu_b * sp.eye(2))
    product, sum_sq = cross.det(), sp.simplify(trace / (nu_a * nu_b))
    assert product == c_plus * c_minus
    assert sp.expand(sum_sq - (c_plus ** 2 + c_minus ** 2)) == 0
    assert sp.expand(sum_sq + 2 * product - (c_plus + c_minus) ** 2) == 0
    assert sp.expand(sum_sq - 2 * product - (c_plus - c_minus) ** 2) == 0
