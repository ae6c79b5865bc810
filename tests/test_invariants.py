"""Invariants hold under python -O, and bad arguments raise typed errors."""

import ast
import pathlib

import pytest

import rank3affine
from rank3affine.errors import (BadVariant, FieldMismatch, IndexOutOfRange,
                                InvariantViolation, ModulusOutOfRange,
                                NotAUnit, NotPrimePower, Rank3Error)
from rank3affine.classify import verify_theorem
from rank3affine.families import (ConnectionSet, paley_connection_set,
                                  peisert_connection_set)
from rank3affine.fields import FiniteField, build_field, prime_factors
from rank3affine.graphs import build_cayley
from rank3affine.znaction import AffineActionContext

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rank3affine"


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


def test_no_numpy_import_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in rank3affine.__all__
               if not hasattr(rank3affine, name)]
    assert missing == []


def test_bad_arguments_raise_package_errors():
    cases = [
        (NotPrimePower, lambda: verify_theorem([6])),
        (ModulusOutOfRange, lambda: AffineActionContext(1, 1)),
        (NotAUnit, lambda: AffineActionContext(6, 2)),
        (IndexOutOfRange, lambda: ConnectionSet(build_field(5, 1), {4})),
        (BadVariant, lambda: peisert_connection_set(build_field(3, 2), 2)),
        (FieldMismatch, lambda: build_cayley(
            build_field(5, 1), paley_connection_set(build_field(13, 1)))),
    ]
    for error, call in cases:
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, Rank3Error)


def test_exp_table_collision_caught_by_build_cayley():
    f = build_field(13, 1)
    conn = ConnectionSet(f, {0, 1, 6, 7})
    assert build_cayley(f, conn).indicator.bit_count() == 4
    f._exp[1] = f._exp[0]
    with pytest.raises(InvariantViolation):
        build_cayley(f, conn)


@pytest.mark.parametrize("p, r", [(13, 1), (3, 2), (2, 4)])
def test_non_primitive_omega_raises_invariant_violation(monkeypatch, p, r):
    f = build_field(p, r)
    ell = prime_factors(f.q - 1)[0]
    # omega^ell has order (q - 1) / ell, so its powers repeat early
    weak = f.exp(ell)
    monkeypatch.setattr(FiniteField, "_find_omega", lambda self: weak)
    with pytest.raises(InvariantViolation, match="omega has order"):
        FiniteField(p, r)
