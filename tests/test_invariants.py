"""Invariants hold under python -O, and bad arguments raise typed errors."""

import ast
import json
import pathlib
import sys

import pytest

import oracles
import rank3affine
from rank3affine import fields
from rank3affine.arith import prime_factors
from rank3affine.errors import (BadVariant, FieldMismatch, IndexOutOfRange,
                                InfeasibleParameters, InvariantViolation,
                                ModulusOutOfRange, NotAUnit, NotPrimePower,
                                Rank3Error)
from rank3affine.classify import (ClassificationReport, ClassifiedPartition,
                                  classify_field, family_key, verify_theorem)
from rank3affine.families import (ConnectionSet, GeneralizedPaley, Paley,
                                  Peisert, Unmatched, label_to_json,
                                  paley_connection_set, peisert_connection_set)
from rank3affine.fields import FiniteField, build_field
from rank3affine.graphs import NotStronglyRegular, SrgParams, build_cayley
from rank3affine.znaction import (_CASE1, _CASE2, AffineActionContext, Case1,
                                  Case2, OrbitPartition, Violation,
                                  case_to_json)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rank3affine"


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _debug_only(node):
    # an assert statement, or a branch on __debug__, which python -O drops
    return (isinstance(node, ast.Assert) or _raises_assertion_error(node)
            or isinstance(node, ast.Name) and node.id == "__debug__")


def test_no_assert_statements_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _debug_only(node)]
    assert found == []


def test_the_src_scan_flags_asserts_and_debug_guards():
    flagged = [node for node in ast.walk(ast.parse(
        "assert x\nif __debug__:\n    raise AssertionError\ny = __debug__\n"))
        if _debug_only(node)]
    assert len(flagged) == 4


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
    # each public name, read through the lazy modules and the package's
    # __getattr__, is its home module's own object
    namespace = {}
    exec("from rank3affine import *", namespace)
    for name in rank3affine.__all__:
        value = getattr(rank3affine, name)
        home = sys.modules[getattr(value, "__module__", value.__name__)]
        assert home.__name__.startswith("rank3affine."), name
        assert value is namespace[name], name
        assert value is (home if name == "errors" else getattr(home, name))
    assert not hasattr(rank3affine, "no_such_name")


# ---------------------------------------------------------------------------
# value records
# ---------------------------------------------------------------------------

VALUES = [
    Paley(), Unmatched(), GeneralizedPaley(3, 2), Peisert(variant=1),
    Case1(m=2, shift=0), Case2(1), Violation("reason"),
    oracles.AffineMapZn(1, 0), AffineActionContext(6, 5),
    OrbitPartition(2, frozenset({0})), SrgParams(5, 2, 0, 1),
    NotStronglyRegular((0, 1), "reason"),
    ClassifiedPartition(OrbitPartition(2, frozenset({0})), Case1(2, 0),
                        Paley(), 0),
    build_field(7, 2), paley_connection_set(build_field(13, 1)),
    build_cayley(build_field(13, 1), paley_connection_set(build_field(13, 1))),
]


def test_values_compare_by_type_and_fields():
    assert Case2(1) != Peisert(1)
    assert Paley() == Paley() and Paley() != Unmatched()
    assert Case1(2, 0) == Case1(m=2, shift=0) != Case1(2, 1)
    assert hash(Case1(2, 0)) == hash(Case1(m=2, shift=0))
    assert repr(Case1(m=2, shift=0)) == "Case1(m=2, shift=0)"
    assert repr(Paley()) == "Paley()"
    # a set of residues is accepted unhashed, as tests build partitions
    assert repr(OrbitPartition(4, {0, 1})) == "OrbitPartition(m=4, r1={0, 1})"


def test_labels_and_cases_encode_from_their_name_or_tag_and_fields():
    # the bytes the reports write, key order included
    labels = [Paley(), GeneralizedPaley(3, 2), Peisert(3), Unmatched()]
    assert [json.dumps(label_to_json(label)) for label in labels] == [
        '{"family": "paley"}',
        '{"family": "generalized-paley", "ell": 3, "k": 2}',
        '{"family": "peisert", "variant": 3}', '{"family": "unmatched"}']
    assert [family_key(label) for label in labels] == [
        "paley", "generalized-paley(3,2)", "peisert(3)", "unmatched"]
    cases = [Case1(5, 2), Case2(3), Violation("reason")]
    assert [json.dumps(case_to_json(case)) for case in cases] == [
        '{"case": 1, "m": 5, "shift": 2}', '{"case": 2, "variant": 3}',
        '{"case": "violation", "reason": "reason"}']
    # the lemma encoder writes cases 1 and 2 from text templates
    assert _CASE1 % (5, 2) + "}" == json.dumps(case_to_json(cases[0]))
    assert _CASE2 % 3 + "}" == json.dumps(case_to_json(cases[1]))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_hashable_and_frozen(value):
    assert hash(value) == hash(value)
    assert value == value and len({value, value}) == 1
    for name in type(value)._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_fields_connection_sets_and_graphs_compare_by_value():
    f, g = build_field(7, 2), build_field(7, 2)
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != build_field(7, 1) and f != build_field(2, 6)
    assert repr(f) == "FiniteField(p=7, r=2)"
    conn = paley_connection_set(f)
    assert conn == paley_connection_set(g) != ConnectionSet(f, {0})
    assert repr(conn) == "ConnectionSet(GF(49), size=24, label=Paley())"
    # a set on an equal field is on this field
    graph = build_cayley(g, conn)
    assert graph == build_cayley(f, paley_connection_set(g))
    assert graph.q == 49 and repr(graph) == "CayleyGraph(q=49, degree=24)"
    # q is read from the field, not a field of the graph
    with pytest.raises(AttributeError):
        graph.q = 7


def test_value_construction_checks_its_fields():
    with pytest.raises(TypeError):
        Case1(2)
    with pytest.raises(TypeError):
        Case1(2, 0, 1)
    with pytest.raises(TypeError):
        Case1(2, m=2)
    with pytest.raises(TypeError):
        Case1(m=2, shift=0, other=1)


def test_infeasible_srg_parameters_raise():
    with pytest.raises(InfeasibleParameters):
        SrgParams(5, 2, 0, 3)
    with pytest.raises(InfeasibleParameters):
        SrgParams(v=5, k=2, lam=1, mu=1)


def test_classification_report_is_immutable_and_unhashable():
    field = build_field(3, 2)
    report = classify_field(field)
    assert report == classify_field(field)
    with pytest.raises(AttributeError):
        report.unmatched_count += 1
    assert report.unmatched_count == 0
    # its entries are a list
    with pytest.raises(TypeError):
        hash(report)
    assert repr(ClassificationReport(build_field(5, 1), [], 0)) == (
        "ClassificationReport(field=FiniteField(p=5, r=1), entries=[], "
        "unmatched_count=0)")


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


def test_exp_table_collision_caught_by_build_cayley(monkeypatch):
    f = build_field(13, 1)
    conn = ConnectionSet(f, {0, 1, 6, 7})
    assert build_cayley(f, conn).indicator.bit_count() == 4
    walk = FiniteField.powers

    def colliding(self):
        # omega^1 comes out as omega^0, past the walk's own repeat check
        codes = list(walk(self))
        codes[1] = codes[0]
        return iter(codes)

    monkeypatch.setattr(FiniteField, "powers", colliding)
    with pytest.raises(InvariantViolation, match="4 dlog indices .* 3 distinct"):
        build_cayley(f, conn)


@pytest.mark.parametrize("p, r", [(13, 1), (3, 2), (2, 4)])
def test_non_primitive_omega_raises_invariant_violation(monkeypatch, p, r):
    f = build_field(p, r)
    ell = prime_factors(f.q - 1)[0]
    # omega^ell has order (q - 1) / ell, so its powers repeat early
    weak = list(f.powers())[ell]
    monkeypatch.setattr(FiniteField, "_find_omega", lambda self: weak)
    g = FiniteField(p, r)
    with pytest.raises(InvariantViolation, match="omega has order"):
        list(g.powers())
    # every nonzero element: the walk runs to its repeat inside build_cayley
    with pytest.raises(InvariantViolation, match="omega has order"):
        build_cayley(g, ConnectionSet(g, range(g.q - 1)))


def test_omega_power_q_minus_1_checked_after_the_walk(monkeypatch):
    # over the reducible X^2 the powers 1, X, X^2 = 0 of X are distinct, but
    # X^3 = 0: only the check after the last power catches it, and
    # build_cayley must run the walk that far
    monkeypatch.setattr(fields, "_find_modulus", lambda p, r: (0, 0, 1))
    monkeypatch.setattr(FiniteField, "_find_omega", lambda self: 2)
    g = FiniteField(2, 2)
    with pytest.raises(InvariantViolation, match=r"omega\^\(q-1\) != 1"):
        list(g.powers())
    with pytest.raises(InvariantViolation, match=r"omega\^\(q-1\) != 1"):
        build_cayley(g, ConnectionSet(g, {0}))
