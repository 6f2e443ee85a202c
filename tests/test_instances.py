import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitalloc import instances
from bitalloc.cli import main
from bitalloc.instances import (
    InstanceKind,
    InstanceSpec,
    KappaRange,
    MatrixFormatError,
    generate,
    kappa_from_dynamic_range,
    load_matrix,
    load_spec,
    save_matrix,
    save_results,
    spec_from_dict,
    uniform_allocation,
)
from bitalloc.model import DimensionMismatchError, cholesky_lower


def grid_spec(d=13, seed=0, c=2.0):
    return InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=d, seed=seed, budget_per_sensor=c)


class TestGridLaplacian:
    def test_spd_and_nonzero_rows(self):
        inst = generate(grid_spec())
        cholesky_lower(inst.sensing_matrix)  # raises if not SPD
        assert np.all(np.linalg.norm(inst.sensing_matrix, axis=1) > 0)

    def test_diagonally_dominant_positive_diagonal(self):
        inst = generate(grid_spec(d=29, seed=4))
        h = inst.sensing_matrix
        diag = np.diag(h)
        off = np.abs(h).sum(axis=1) - np.abs(diag)
        assert np.all(diag > 0)
        assert np.all(diag >= off - 1e-12)

    def test_square(self):
        inst = generate(grid_spec(d=7))
        assert inst.m == inst.d == 7
        assert inst.budget == 14.0

    @pytest.mark.parametrize("d", [1, 2, 3, 117, 299, 499])
    def test_connected_in_one_pass_at_every_size(self, d):
        # for d <= 3 the edge target is the complete graph
        n = d + 1
        n_edges = min(n * (n - 1) // 2, round(1.5 * n))
        for seed in range(20):
            h = generate(grid_spec(d=d, seed=seed)).sensing_matrix
            cholesky_lower(h)  # the grounded Laplacian is SPD exactly when the graph is connected
            to_slack = h.sum(axis=1) > 0.05  # an edge to the slack node adds its weight, >= 0.1, to the row sum
            assert np.count_nonzero(np.triu(h, 1)) + np.count_nonzero(to_slack) == n_edges
            np.testing.assert_array_equal(h, generate(grid_spec(d=d, seed=seed)).sensing_matrix)

    def test_m_forced_to_d(self):
        spec = InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=5)
        assert spec.m == 5
        with pytest.raises(ValueError):
            InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=5, m=7)


class TestRandomGaussian:
    def test_shapes_and_budget(self):
        spec = InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=10, m=40, budget_per_sensor=1.5, seed=2)
        inst = generate(spec)
        assert inst.sensing_matrix.shape == (40, 10)
        assert inst.budget == 60.0
        assert np.all((0.8 <= inst.kappa) & (inst.kappa <= 1.2))

    def test_kappa_range_honored(self):
        spec = InstanceSpec(
            kind=InstanceKind.RANDOM_GAUSSIAN, d=4, m=9, kappa=KappaRange(2.0, 3.0), seed=1
        )
        inst = generate(spec)
        assert np.all((2.0 <= inst.kappa) & (inst.kappa <= 3.0))


class TestDeterminism:
    @pytest.mark.parametrize("kind", [InstanceKind.RANDOM_GAUSSIAN, InstanceKind.GRID_LAPLACIAN])
    def test_same_spec_same_bytes(self, kind):
        spec = InstanceSpec(kind=kind, d=11, m=11, seed=33)
        first = generate(spec)
        second = generate(spec)
        np.testing.assert_array_equal(first.sensing_matrix, second.sensing_matrix)
        np.testing.assert_array_equal(first.kappa, second.kappa)

    def test_different_seed_differs(self):
        a = generate(grid_spec(seed=0))
        b = generate(grid_spec(seed=1))
        assert not np.array_equal(a.sensing_matrix, b.sensing_matrix)


def reference_walk(rng, n_nodes, n_edges):
    """The grid generator's edge draws one scalar rng call at a time: rng.integers per walk step, rng.choice per extra edge."""
    edges, visited, node = set(), {0}, 0
    while len(visited) < n_nodes:
        step = int(rng.integers(n_nodes - 1))
        nxt = step + (step >= node)
        if nxt not in visited:
            visited.add(nxt)
            edges.add((min(node, nxt), max(node, nxt)))
        node = nxt
    while len(edges) < n_edges:
        edges.add(tuple(sorted(rng.choice(n_nodes, size=2, replace=False).tolist())))
    return sorted(edges)


def reference_laplacian(rng, d):
    """The grounded Laplacian built by a loop over the edges of reference_walk."""
    n = d + 1
    edges = reference_walk(rng, n, min(n * (n - 1) // 2, round(1.5 * n)))
    weights = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=len(edges)))
    lap = np.zeros((n, n))
    for (i, j), w in zip(edges, weights):
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap[1:, 1:]


class TestReplayedDraws:
    """The batched, rewound edge draws equal the scalar calls: same edges, same generator state after."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n_nodes=st.integers(2, 120),
        extra=st.integers(0, 240),
        offset=st.integers(0, 3),
    )
    def test_matches_scalar_reference_property(self, seed, n_nodes, extra, offset):
        n_edges = min(n_nodes * (n_nodes - 1) // 2, n_nodes - 1 + extra)
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (batched, scalar):  # an odd count leaves half of a 64-bit draw buffered
            rng.integers(7, size=offset)
        assert instances._connected_edges(batched, n_nodes, n_edges) == reference_walk(scalar, n_nodes, n_edges)
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.random() == scalar.random()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), d=st.integers(1, 119))
    def test_laplacian_matches_loop_reference_property(self, seed, d):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert instances._grid_laplacian(batched, d).tobytes() == reference_laplacian(scalar, d).tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state

    # sha256 over the sensing-matrix and kappa bytes of grids for seeds 0-49,
    # recorded with the scalar draws and the per-edge Laplacian loop
    PINS = {
        4: "97f54e2b984874dba9979ecb3af9cf24baa97aceac665ec40c707cc1e6f4f7a9",
        13: "42f24d82912dd474c22c3941617a6a1839f4072b55e9817d5f3c2b643120fe1b",
        50: "cbae5874f6153464bff191591b877ebaf12accdf71ec3463c8642397ef06ce42",
        117: "1ea4901b88decda47d65d1e021b74f67f2e569adf72115c7e78afd079d32df1b",
    }

    @pytest.mark.parametrize("d", sorted(PINS))
    def test_generated_grids_are_pinned(self, d):
        digest = hashlib.sha256()
        for seed in range(50):
            inst = generate(grid_spec(d=d, seed=seed))
            digest.update(inst.sensing_matrix.tobytes())
            digest.update(inst.kappa.tobytes())
        assert digest.hexdigest() == self.PINS[d]


class TestUniformAllocation:
    def test_two_bits_each(self):
        inst = generate(grid_spec(c=2.0))
        np.testing.assert_array_equal(uniform_allocation(inst).bits, np.full(13, 2.0))

    def test_floor_of_fractional_budget(self):
        inst = generate(grid_spec(c=2.5))
        np.testing.assert_array_equal(uniform_allocation(inst).bits, np.full(13, 2.0))

    def test_zero_budget(self):
        inst = generate(grid_spec(c=0.0))
        assert uniform_allocation(inst).total == 0.0


class TestMatrixIo:
    def test_coordinate_identity(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text("% comment line\n2 2 2\n1 1 1.0\n2 2 1.0\n")
        np.testing.assert_array_equal(load_matrix(path), np.eye(2))

    def test_coordinate_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((5, 3))
        path = tmp_path / "mat.mtx"
        save_matrix(path, mat, fmt="coordinate")
        np.testing.assert_array_equal(load_matrix(path), mat)

    def test_dense_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((4, 6))
        path = tmp_path / "mat.csv"
        save_matrix(path, mat, fmt="dense")
        np.testing.assert_array_equal(load_matrix(path), mat)

    def test_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2 2\n1 1 1.0\n1 nope 2.0\n")
        with pytest.raises(MatrixFormatError, match="line 3"):
            load_matrix(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixFormatError, match="1-based"):
            load_matrix(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2 3\n1 1 1.0\n")
        with pytest.raises(MatrixFormatError, match="promises 3"):
            load_matrix(path)

    def test_ragged_dense_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            load_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("% nothing\n")
        with pytest.raises(MatrixFormatError, match="no data"):
            load_matrix(path)

    @pytest.mark.parametrize("content", [None, b"\xff\xfe1 1 1\n"], ids=["missing", "binary"])
    def test_unreadable_file_rejected(self, tmp_path, content):
        path = tmp_path / "h.mtx"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(MatrixFormatError, match="h.mtx: cannot read"):
            load_matrix(path)

    def test_duplicate_coordinate_entries_accumulate(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("1 1 2\n1 1 1.5\n1 1 2.5\n")
        assert load_matrix(path)[0, 0] == 4.0


class TestFromFiles:
    def test_instance_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        sensing = rng.standard_normal((4, 3))
        kappa = rng.uniform(0.8, 1.2, 4)
        save_matrix(tmp_path / "h.mtx", sensing)
        save_matrix(tmp_path / "kappa.csv", kappa.reshape(1, -1), fmt="dense")
        spec = InstanceSpec(
            kind=InstanceKind.FROM_FILES,
            budget_per_sensor=3.0,
            paths={"sensing_matrix": str(tmp_path / "h.mtx"), "kappa": str(tmp_path / "kappa.csv")},
        )
        inst = generate(spec)
        np.testing.assert_array_equal(inst.sensing_matrix, sensing)
        np.testing.assert_array_equal(inst.kappa, kappa)
        assert inst.budget == 12.0

    def test_dynamic_range_path(self, tmp_path):
        sensing = np.eye(2)
        save_matrix(tmp_path / "h.mtx", sensing)
        save_matrix(tmp_path / "r.csv", np.array([[2.0, 4.0]]), fmt="dense")
        spec = InstanceSpec(
            kind=InstanceKind.FROM_FILES,
            paths={"sensing_matrix": str(tmp_path / "h.mtx"), "dynamic_range": str(tmp_path / "r.csv")},
        )
        inst = generate(spec)
        np.testing.assert_allclose(inst.kappa, [3.0, 0.75])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -2.0])
    def test_dynamic_range_must_be_positive_and_finite(self, bad):
        with pytest.raises(DimensionMismatchError, match="dynamic ranges must be positive and finite.*index 1"):
            kappa_from_dynamic_range([2.0, bad, 4.0])

    def test_non_finite_dynamic_range_file_names_the_ranges(self, tmp_path):
        save_matrix(tmp_path / "h.mtx", np.eye(2))
        save_matrix(tmp_path / "r.csv", np.array([[2.0, np.nan]]), fmt="dense")
        spec = InstanceSpec(
            kind=InstanceKind.FROM_FILES,
            paths={"sensing_matrix": str(tmp_path / "h.mtx"), "dynamic_range": str(tmp_path / "r.csv")},
        )
        with pytest.raises(DimensionMismatchError, match="dynamic ranges"):
            generate(spec)

    def test_prior_file(self, tmp_path):
        save_matrix(tmp_path / "h.mtx", np.eye(2))
        save_matrix(tmp_path / "prior.csv", 2.0 * np.eye(2), fmt="dense")
        spec = InstanceSpec(
            kind=InstanceKind.FROM_FILES,
            paths={"sensing_matrix": str(tmp_path / "h.mtx"), "prior_covariance": str(tmp_path / "prior.csv")},
        )
        inst = generate(spec)
        assert inst.prior_spectral_norm == pytest.approx(2.0)

    def test_nonsquare_prior_rejected(self, tmp_path):
        save_matrix(tmp_path / "h.mtx", np.eye(2))
        save_matrix(tmp_path / "prior.csv", np.ones((2, 3)), fmt="dense")
        spec = InstanceSpec(
            kind=InstanceKind.FROM_FILES,
            paths={"sensing_matrix": str(tmp_path / "h.mtx"), "prior_covariance": str(tmp_path / "prior.csv")},
        )
        with pytest.raises(DimensionMismatchError):
            generate(spec)

    def test_requires_sensing_path(self):
        with pytest.raises(ValueError, match="sensing_matrix"):
            InstanceSpec(kind=InstanceKind.FROM_FILES, paths={})


class TestSpecConfig:
    def test_load_full_config(self, tmp_path):
        payload = {
            "kind": "grid-laplacian",
            "d": 13,
            "kappa": {"low": 0.9, "high": 1.1},
            "budget_per_sensor": 2.5,
            "seed": 7,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = load_spec(path)
        assert spec.kind is InstanceKind.GRID_LAPLACIAN
        assert spec.d == spec.m == 13
        assert spec.kappa == KappaRange(0.9, 1.1)
        assert spec.budget_per_sensor == 2.5
        assert spec.seed == 7

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "mystery", "d": 3, "m": 3}))
        with pytest.raises(MatrixFormatError, match="mystery"):
            load_spec(path)

    def test_missing_kind(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"d": 3}))
        with pytest.raises(MatrixFormatError, match="kind"):
            load_spec(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(MatrixFormatError, match="line 2"):
            load_spec(path)

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            {"kind": "grid-laplacian", "d": 5, "kappa": 5},
            {"kind": "grid-laplacian", "d": 5, "kappa": []},
            {"kind": "grid-laplacian", "d": 5, "kappa": {"low": 2.0, "high": 1.0}},
            {"kind": "grid-laplacian", "d": 5, "kappa": {"low": "low"}},
            {"kind": "grid-laplacian", "d": 5.7},
            {"kind": "random-gaussian", "d": 5, "m": 2.5},
            {"kind": "grid-laplacian", "d": 5, "seed": 1.5},
            {"kind": "grid-laplacian", "d": 5, "seed": True},
            {"kind": "grid-laplacian", "d": 5, "budget_per_sensor": [2.0]},
            {"kind": "from-files", "paths": ["sensing_matrix"]},
            {"kind": "from-files", "paths": {"sensing_matrix": 5}},
            {"kind": "grid-laplacian", "d": 5, "seed": -2},
        ],
    )
    def test_malformed_config_is_plan_error(self, tmp_path, capsys, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MatrixFormatError):
            load_spec(path)
        assert main(["solve", "--config", str(path)]) == 1
        assert "plan error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"kind": "grid-laplacian", "d": 5, "budget_per_senor": 3}, "budget_per_senor"),
            ({"kind": "grid-laplacian", "d": 5, "kappa": {"low": 0.9, "hihg": 1.1}}, "kappa.hihg"),
            ({"kind": "from-files", "paths": {"sensing_matrix": "h.mtx", "prior": "p.csv"}}, "paths.prior"),
            ({"kind": "grid-laplacian", "d": 5, "paths": {"sensing_matrix": "h.mtx"}}, "paths"),
        ],
        ids=["top-level", "kappa", "paths", "paths-on-generated-kind"],
    )
    def test_unread_key_is_plan_error(self, tmp_path, capsys, payload, key):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(MatrixFormatError, match=re.escape(key)):
            load_spec(path)
        assert main(["solve", "--trials", "1", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("### Instance config schema", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        example = json.loads(re.sub(r"//.*", "", block))
        assert tuple(example) == instances._CONFIG_KEYS
        assert tuple(example["kappa"]) == instances._KAPPA_KEYS
        assert set(example["paths"]) == set(instances._PATH_KEYS)
        spec_from_dict({**example, "kind": "from-files"})  # every listed key is read

    def test_absent_keys_keep_the_spec_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "grid-laplacian", "d": 5, "kappa": {"low": 0.5}}))
        spec = load_spec(path)
        assert spec.kappa == KappaRange(0.5, KappaRange().high)
        assert spec == InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=5, kappa=KappaRange(low=0.5))

    def test_integral_float_sizes_accepted(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "random-gaussian", "d": 5.0, "m": 7.0}))
        assert (load_spec(path).d, load_spec(path).m) == (5, 7)

    def test_kappa_range_validation(self):
        with pytest.raises(ValueError):
            KappaRange(0.0, 1.0)
        with pytest.raises(ValueError):
            KappaRange(2.0, 1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=3, budget_per_sensor=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field, below in (("d", 0), ("m", 0), ("seed", -1))
            for value in (2.5, float("nan"), float("inf"), None, "3", below)
        ],
    )
    def test_sizes_and_seed_are_integers_at_their_minimum(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, **{"d": 3, "m": 5, field: value})

    def test_numpy_integers_pass(self):
        spec = InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=np.int64(3), m=np.int32(5), seed=np.int64(2))
        assert (spec.d, spec.m, spec.seed) == (3, 5, 2) and all(type(v) is int for v in (spec.d, spec.m, spec.seed))
        plain = generate(InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=3, m=5, seed=2))
        np.testing.assert_array_equal(generate(spec).sensing_matrix, plain.sensing_matrix)


class TestSaveResults:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        save_results(path, [{"a": 1, "b": 2.5}, {"a": 3, "b": ""}])
        lines = path.read_text().strip().splitlines()
        assert lines == ["a,b", "1,2.5", "3,"]

    def test_needs_header_source(self, tmp_path):
        with pytest.raises(ValueError):
            save_results(tmp_path / "x.csv", [])


def test_kappa_from_dynamic_range():
    np.testing.assert_allclose(kappa_from_dynamic_range([np.sqrt(12.0)]), [1.0])
    with pytest.raises(DimensionMismatchError):
        kappa_from_dynamic_range([-1.0])
