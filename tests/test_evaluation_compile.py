"""Tests for the compile-once query pipeline (:mod:`repro.evaluation.compile`)."""

from __future__ import annotations

import pytest

import oracle
from repro.evaluation.compile import compile_query, normalize_atom
from repro.evaluation.reducer import initial_columns
from repro.queries import parse_query
from repro.queries.atoms import AxisAtom
from repro.queries.query import ConjunctiveQuery
from repro.trees.axes import Axis


class TestNormalization:
    def test_forward_atoms_unchanged(self):
        atom = AxisAtom(Axis.CHILD_PLUS, "x", "y")
        compiled = normalize_atom(atom)
        assert (compiled.axis, compiled.source, compiled.target) == (
            Axis.CHILD_PLUS,
            "x",
            "y",
        )
        assert compiled.original is atom

    @pytest.mark.parametrize(
        "inverse,forward",
        [
            (Axis.PARENT, Axis.CHILD),
            (Axis.ANCESTOR, Axis.CHILD_PLUS),
            (Axis.ANCESTOR_OR_SELF, Axis.CHILD_STAR),
            (Axis.PREVIOUS_SIBLING, Axis.NEXT_SIBLING),
            (Axis.PRECEDING_SIBLING, Axis.NEXT_SIBLING_PLUS),
            (Axis.PRECEDING, Axis.FOLLOWING),
        ],
    )
    def test_inverse_axes_swap_endpoints(self, inverse, forward):
        compiled = normalize_atom(AxisAtom(inverse, "x", "y"))
        assert (compiled.axis, compiled.source, compiled.target) == (forward, "y", "x")

    def test_duplicate_constraints_deduplicated(self):
        query = parse_query("Q <- Child(x, y), Parent(y, x), Child(x, y)")
        compiled = compile_query(query)
        assert len(compiled.atoms) == 1
        assert compiled.atoms[0].axis is Axis.CHILD

    def test_compiled_atoms_carry_only_the_forward_axes(self):
        """Every engine's axis vocabulary: the ten forward axes, nothing else."""
        atoms = tuple(AxisAtom(axis, "x", "y") for axis in Axis)
        compiled = compile_query(ConjunctiveQuery((), atoms, "Q"))
        assert {atom.axis for atom in compiled.atoms} == {
            Axis.CHILD,
            Axis.CHILD_PLUS,
            Axis.CHILD_STAR,
            Axis.NEXT_SIBLING,
            Axis.NEXT_SIBLING_PLUS,
            Axis.NEXT_SIBLING_STAR,
            Axis.FOLLOWING,
            Axis.DOCUMENT_ORDER,
            Axis.SUCC_PRE,
            Axis.SELF,
        }


class TestStructure:
    def test_variables_and_adjacency(self):
        query = parse_query("Q <- A(x), Child(x, y), B(y), Following(y, z)")
        compiled = compile_query(query)
        assert compiled.variables == ("x", "y", "z")
        assert compiled.variable_index == {"x": 0, "y": 1, "z": 2}
        assert [atom.axis for atom in compiled.atoms_of("y")] == [
            Axis.CHILD,
            Axis.FOLLOWING,
        ]
        assert [atom.other("y") for atom in compiled.atoms_of("y")] == ["x", "z"]

    def test_loops_separated_from_edges(self):
        query = parse_query("Q <- Child*(x, x), Child(x, y)")
        compiled = compile_query(query)
        assert len(compiled.loops) == 1
        assert compiled.loops[0].is_loop
        assert len(compiled.edges) == 1
        # Loops are static filters, not propagation edges.
        assert all(not atom.is_loop for atom in compiled.atoms_of("x"))

    def test_labels_by_variable(self):
        query = parse_query("Q <- A(x), B(x), Child(x, y), A(y)")
        compiled = compile_query(query)
        assert compiled.labels_by_variable["x"] == ("A", "B")
        assert compiled.labels_by_variable["y"] == ("A",)

    def test_compile_is_cached(self):
        query = parse_query("Q <- Child(x, y)")
        assert compile_query(query) is compile_query(query)


class TestInitialDomainRecipe:
    def test_matches_reference_implementation(self, sentence_structure):
        queries = [
            "Q <- NP(x), Child(x, y)",
            "Q <- NP(x), VP(x)",
            "Q <- Child+(x, y), NN(y), Following(y, z)",
        ]
        for text in queries:
            query = parse_query(text)
            columns = initial_columns(compile_query(query), sentence_structure, None)
            assert {variable: set(column) for variable, column in columns.items()} == (
                oracle.initial_domains(query, sentence_structure)
            )

    def test_pinning(self, sentence_structure):
        compiled = compile_query(parse_query("Q <- NP(x), Child(x, y)"))
        assert initial_columns(compiled, sentence_structure, {"x": 6})["x"] == [6]
        with pytest.raises(ValueError):
            initial_columns(compiled, sentence_structure, {"zzz": 0})
