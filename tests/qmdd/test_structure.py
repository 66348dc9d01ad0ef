"""QMDD structural tests: Fig. 1, normalization, value interning."""

import numpy as np
import pytest

from repro.core import CNOT, H, QuantumCircuit, X
from repro.qmdd import QMDDManager, ValueTable, count_nodes, to_dot, to_text
from repro.qmdd.structure import Edge


class TestFig1:
    """The paper's Fig. 1: CNOT as a QMDD with control x0, target x1."""

    def test_cnot_qmdd_shape(self):
        m = QMDDManager(2)
        root = m.circuit_edge(QuantumCircuit(2, [CNOT(0, 1)]))
        # Root at level 0 (x0) with quadrants [I, 0, 0, X].
        node = root.node
        assert node.level == 0
        u00, u01, u10, u11 = node.edges
        assert u01.is_zero and u10.is_zero
        assert not u00.is_zero and not u11.is_zero
        # U00 is the identity block, U11 the X block — distinct x1 nodes.
        assert u00.node.level == 1
        assert u11.node.level == 1
        assert u00.node is not u11.node

    def test_cnot_node_count(self):
        """Three non-terminal vertices, exactly as drawn in Fig. 1."""
        m = QMDDManager(2)
        root = m.circuit_edge(QuantumCircuit(2, [CNOT(0, 1)]))
        assert count_nodes(root) == 3

    def test_text_rendering_mentions_levels(self):
        m = QMDDManager(2)
        root = m.circuit_edge(QuantumCircuit(2, [CNOT(0, 1)]))
        text = to_text(m, root)
        assert "x0" in text and "x1" in text

    def test_dot_rendering_well_formed(self):
        m = QMDDManager(2)
        root = m.circuit_edge(QuantumCircuit(2, [CNOT(0, 1)]))
        dot = to_dot(m, root, title="fig1")
        assert dot.startswith('digraph "fig1"')
        assert dot.rstrip().endswith("}")
        assert "terminal" in dot


class TestNormalization:
    def test_hadamard_weight_factored_out(self):
        """H's 1/sqrt(2) lives on the root edge, not inside the node."""
        m = QMDDManager(1)
        edge = m.gate_edge(H(0))
        assert abs(abs(edge.weight) - 1 / np.sqrt(2)) < 1e-12
        for child in edge.node.edges:
            assert abs(child.weight) <= 1 + 1e-12

    def test_all_zero_quadrants_collapse(self):
        m = QMDDManager(2)
        assert m.make_node(0, (m.zero, m.zero, m.zero, m.zero)).is_zero

    def test_make_node_arity(self):
        from repro.core import QMDDError

        m = QMDDManager(2)
        with pytest.raises(QMDDError):
            m.make_node(0, (m.zero, m.zero))


class TestValueTable:
    def test_interning_merges_close_values(self):
        table = ValueTable(tolerance=1e-9)
        a = table.lookup(0.5 + 0.5j)
        b = table.lookup(0.5 + 0.5j + 1e-12)
        assert a is b or a == b

    def test_distinct_values_kept_apart(self):
        table = ValueTable(tolerance=1e-9)
        assert table.lookup(0.5) != table.lookup(0.6)

    def test_zero_and_one_predicates(self):
        table = ValueTable()
        assert table.is_zero(table.lookup(1e-12))
        assert table.is_one(table.lookup(1.0 + 1e-12))
        assert not table.is_one(table.lookup(0.9))

    def test_equal_within_tolerance(self):
        table = ValueTable(tolerance=1e-6)
        assert table.equal(1.0, 1.0 + 1e-8)
        assert not table.equal(1.0, 1.1)

    def test_len_counts_buckets(self):
        table = ValueTable()
        before = len(table)
        table.lookup(0.123 + 0.456j)
        assert len(table) == before + 1


class TestValueMemo:
    def test_memo_stays_within_its_bound(self, monkeypatch):
        from repro.qmdd import values

        monkeypatch.setattr(values, "MEMO_LIMIT", 8)
        table = ValueTable()
        raw = [0.1 * k + 0.01j * k for k in range(1, 50)]
        first = [table.lookup(v) for v in raw]
        assert len(table._memo) <= 8
        # After any number of wholesale clears every value still maps to
        # the representative it got the first time.
        assert [table.lookup(v) for v in raw] == first
        assert [table.lookup(v + 1e-12) for v in reversed(raw)] == first[::-1]
        assert len(table._memo) <= 8

    def test_memo_hit_returns_the_bucket_representative(self):
        table = ValueTable(tolerance=1e-9)
        canonical = table.lookup(0.25 - 0.75j)
        near = 0.25 - 0.75j + 3e-10
        assert table.lookup(near) is canonical
        assert table.lookup(near) is canonical  # the memoized path
        assert table.lookup(np.complex128(near)) is canonical

    def test_default_bound_is_fixed(self):
        from repro.qmdd.values import MEMO_LIMIT

        table = ValueTable()
        for k in range(MEMO_LIMIT + 10):
            table.lookup(complex(k, 1))
        assert len(table._memo) <= MEMO_LIMIT


class TestOnePassNormalization:
    def _quadrants(self, m, weights):
        sub = m.identity(1)
        return tuple(
            m.zero if w == 0 else Edge(sub.node, w) for w in weights
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_node_matrix_equals_its_quadrants(self, seed):
        rng = np.random.default_rng(seed)
        m = QMDDManager(2)
        weights = [
            0 if rng.random() < 0.3
            else complex(rng.normal(), rng.normal())
            for _ in range(4)
        ]
        if not any(weights):
            weights[0] = 1.0
        quadrants = self._quadrants(m, weights)
        edge = m.make_node(0, quadrants)
        expected = np.block([
            [m.to_matrix(quadrants[0], 1), m.to_matrix(quadrants[1], 1)],
            [m.to_matrix(quadrants[2], 1), m.to_matrix(quadrants[3], 1)],
        ])
        assert np.allclose(m.to_matrix(edge), expected, atol=1e-12)

    def test_first_edge_within_tolerance_of_the_largest_is_one(self):
        m = QMDDManager(2)
        edge = m.make_node(0, self._quadrants(m, [0.5, 0, 0.5 + 1e-12, 0.1]))
        weights = [child.weight for child in edge.node.edges]
        assert weights[0] == 1
        assert edge.node.edges[1] is m.zero
        assert abs(weights[2] - 1) <= 1e-9
        assert abs(weights[3] - 0.2) <= 1e-9
        assert abs(edge.weight - 0.5) <= 1e-12

    def test_dust_below_tolerance_becomes_the_zero_edge(self):
        m = QMDDManager(2)
        edge = m.make_node(0, self._quadrants(m, [1.0, 1e-12, 0, 1.0]))
        assert edge.node.edges[1] is m.zero
        assert edge.node is m.identity().node

    def test_equal_matrices_share_a_node_across_scales(self):
        m = QMDDManager(2)
        a = m.make_node(0, self._quadrants(m, [0.3j, 0, 0, 0.3j]))
        b = m.make_node(0, self._quadrants(m, [-2.0, 0, 0, -2.0]))
        assert a.node is b.node is m.identity().node
