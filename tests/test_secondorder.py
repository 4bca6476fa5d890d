"""Unit tests for second-order matrices: exact construction, empirical
estimation with imputation, leave-one-out updates, and CSV round-trips."""

import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorum.core import (
    _BLOCK_CELLS,
    DimensionError,
    DomainError,
    FormatError,
    LabelSpace,
    PredictionMatrix,
)
from quorum.secondorder import (
    SecondOrderMatrix,
    cross_label_prob,
    empirical_second_order,
    exact_second_order,
    mixture_weighted_second_order,
    pair_counts,
    read_second_order_csv,
    same_label_prob,
    write_second_order_csv,
)

from mutations import HOSTILE_CSV_BYTES, mutated_bytes


def _random_pm(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    return PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, n)))


class TestExactSecondOrder:
    def test_pair_formulas(self):
        # two binary agents: same-label 0.8*0.6 + 0.2*0.4 = 0.56
        assert same_label_prob(0.8, 0.6, 2) == pytest.approx(0.56, abs=1e-15)
        assert cross_label_prob(0.8, 0.6, 2) == pytest.approx(0.44, abs=1e-15)
        so = exact_second_order(np.array([0.8, 0.6]), 2)
        assert so.probs[0, 1, 0, 0] == pytest.approx(0.56, abs=1e-15)
        assert so.probs[0, 1, 1, 0] == pytest.approx(0.44, abs=1e-15)

    def test_columns_sum_to_one(self):
        so = exact_second_order(np.array([0.3, 0.5, 0.9]), 4)
        np.testing.assert_allclose(so.probs.sum(axis=2), 1.0, atol=1e-12)

    def test_diagonal_blocks_are_identity(self):
        so = exact_second_order(np.array([0.4, 0.7]), 3)
        for i in range(2):
            np.testing.assert_array_equal(so.probs[i, i], np.eye(3))

    def test_exchangeability(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.random(4)
            so = exact_second_order(x, 3).probs
            np.testing.assert_allclose(so, so.transpose(1, 0, 3, 2), atol=1e-15)

    def test_same_label_constant_across_labels(self):
        so = exact_second_order(np.array([0.6, 0.8, 0.3]), 5).probs
        diag = so[:, :, np.arange(5), np.arange(5)]
        np.testing.assert_allclose(diag, np.broadcast_to(diag[:, :, :1], diag.shape), atol=1e-15)

    def test_chance_level_agent_is_uninformative(self):
        so = exact_second_order(np.array([0.25, 0.9]), 4).probs
        np.testing.assert_allclose(so[0, 1], 0.25, atol=1e-15)
        np.testing.assert_allclose(so[1, 0], 0.25, atol=1e-15)

    def test_same_label_prob_monotone_in_accuracy(self):
        xs = np.linspace(0.5, 1.0, 20)
        vals = [same_label_prob(x, 0.8, 2) for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_accepts_closed_unit_interval(self):
        so = exact_second_order(np.array([0.0, 1.0]), 2)
        assert np.all((so.probs >= 0) & (so.probs <= 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            exact_second_order(np.array([1.1, 0.5]), 2)
        with pytest.raises(DomainError):
            exact_second_order(np.array([-0.1, 0.5]), 2)


class TestSecondOrderMatrixValidation:
    def test_rejects_bad_shapes_and_values(self):
        good = exact_second_order(np.array([0.6, 0.7]), 2)
        with pytest.raises(DimensionError):
            SecondOrderMatrix(good.probs[0], good.imputed[0], "exact")
        bad = np.array(good.probs, copy=True)
        bad[0, 1, 0, 0] = 1.5
        with pytest.raises(DomainError):
            SecondOrderMatrix(bad, good.imputed, "exact")
        bad = np.array(good.probs, copy=True)
        bad[0, 1, :, 0] = [0.6, 0.6]  # column no longer sums to 1
        with pytest.raises(DomainError):
            SecondOrderMatrix(bad, good.imputed, "exact")


class TestEmpiricalSecondOrder:
    def test_matches_hand_counts(self):
        pm = PredictionMatrix(
            LabelSpace.default(2),
            np.array([[0, 0], [0, 1], [1, 0], [0, 0]]),
        )
        so = empirical_second_order(pm)
        # P(A_0 = 0 | A_1 = 0): agent 1 answered 0 on questions 0, 2, 3;
        # agent 0 answered 0 on two of those
        assert so.probs[0, 1, 0, 0] == pytest.approx(2 / 3)
        assert so.probs[0, 1, 1, 0] == pytest.approx(1 / 3)
        assert so.probs[0, 1, 0, 1] == 1.0
        assert not so.imputed.any()

    def test_pair_counts_against_brute_force(self):
        # K on both sides of the Gram/bincount switch, a single agent, and
        # enough questions to cross a row-block boundary on both paths
        shapes = [(60, 4, 3), (60, 4, 20), (60, 3, 16), (60, 3, 17), (30, 1, 3), (30, 1, 20)]
        shapes += [(_BLOCK_CELLS // (5 * 3) + 7, 5, 3), (_BLOCK_CELLS // 2 + 7, 2, 17)]
        for m, n, k in shapes:
            pm = _random_pm(m, n, k, seed=2)
            counts, denom = pair_counts(pm)
            assert counts.dtype == np.int64 and denom.dtype == np.int64
            assert counts.shape == (n, n, k, k) and denom.shape == (n, k)
            for i in range(n):
                for j in range(n):
                    for a in range(k):
                        for b in range(k):
                            expect = int(
                                np.sum((pm.answers[:, i] == a) & (pm.answers[:, j] == b))
                            )
                            assert counts[i, j, a, b] == expect, (m, n, k, i, j, a, b)
            for j in range(n):
                np.testing.assert_array_equal(
                    denom[j], np.bincount(pm.answers[:, j], minlength=k), err_msg=str((m, n, k))
                )

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_counts_symmetries(self, m, n, k, seed):
        pm = _random_pm(m, n, k, seed)
        counts, denom = pair_counts(pm)
        np.testing.assert_array_equal(counts, counts.transpose(1, 0, 3, 2))
        perm = np.random.default_rng(seed).permutation(n)
        p_counts, p_denom = pair_counts(pm.select_agents(perm))
        np.testing.assert_array_equal(p_counts, counts[np.ix_(perm, perm)])
        np.testing.assert_array_equal(p_denom, denom[perm])
        twice = PredictionMatrix(pm.space, np.concatenate([pm.answers, pm.answers]))
        d_counts, d_denom = pair_counts(twice)
        np.testing.assert_array_equal(d_counts, 2 * counts)
        np.testing.assert_array_equal(d_denom, 2 * denom)

    def test_unseen_conditioning_label_is_imputed(self):
        # label 2 never appears for agent 1
        pm = PredictionMatrix(
            LabelSpace.default(3), np.array([[0, 0], [1, 1], [2, 0], [0, 1]])
        )
        so = empirical_second_order(pm)
        np.testing.assert_allclose(so.probs[0, 1, :, 2], 1 / 3)
        assert so.imputed[0, 1, :, 2].all()
        assert not so.imputed[0, 1, :, :2].any()
        # diagonal blocks stay identity even for the unseen label
        np.testing.assert_array_equal(so.probs[1, 1], np.eye(3))
        assert not so.imputed[1, 1].any()

    def test_columns_sum_to_one_even_with_imputation(self):
        pm = PredictionMatrix(
            LabelSpace.default(3), np.array([[0, 0], [1, 1], [2, 0], [0, 1]])
        )
        so = empirical_second_order(pm)
        np.testing.assert_allclose(so.probs.sum(axis=2), 1.0, atol=1e-12)

    def test_smoothing_pulls_toward_uniform(self):
        pm = PredictionMatrix(LabelSpace.default(2), np.array([[0, 0], [0, 0], [1, 1]]))
        raw = empirical_second_order(pm)
        smooth = empirical_second_order(pm, smoothing=1.0)
        assert raw.probs[0, 1, 0, 0] == 1.0
        assert 0.5 < smooth.probs[0, 1, 0, 0] < 1.0
        np.testing.assert_allclose(smooth.probs.sum(axis=2), 1.0, atol=1e-12)
        with pytest.raises(DomainError):
            empirical_second_order(pm, smoothing=-0.5)

    def test_converges_to_exact_matrix(self):
        from quorum.simulate import CiSimSpec, simulate_ci

        x = np.array([0.6, 0.8])
        pm = simulate_ci(CiSimSpec(tuple(x), 2, 200_000, 5))
        est = empirical_second_order(pm)
        exact = exact_second_order(x, 2)
        assert np.max(np.abs(est.probs - exact.probs)) < 0.01


class TestMixtureWeighted:
    def test_two_component_average(self):
        x_a = np.array([0.9, 0.7])
        x_b = np.array([0.5, 0.6])
        k = 3
        sames = np.stack(
            [
                np.array([[same_label_prob(xi, xj, k) for xj in xs] for xi in xs])
                for xs in (x_a, x_b)
            ]
        )
        crosses = np.stack(
            [
                np.array([[cross_label_prob(xi, xj, k) for xj in xs] for xi in xs])
                for xs in (x_a, x_b)
            ]
        )
        mixed = mixture_weighted_second_order(sames, crosses, np.array([0.3, 0.7]), k)
        direct = (
            0.3 * exact_second_order(x_a, k).probs + 0.7 * exact_second_order(x_b, k).probs
        )
        idx = np.arange(2)
        direct[idx, idx] = np.eye(k)
        np.testing.assert_allclose(mixed.probs, direct, atol=1e-12)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        pm = _random_pm(17, 3, 3, seed=6)
        so = empirical_second_order(pm)
        path = tmp_path / "so.csv"
        write_second_order_csv(so, str(path))
        back = read_second_order_csv(str(path))
        np.testing.assert_array_equal(so.probs, back.probs)
        np.testing.assert_array_equal(so.imputed, back.imputed)

    def test_a_failed_write_leaves_the_old_file(self, tmp_path):
        # a write that fails part way replaces nothing and leaves no temp file
        class Unwritable:
            def __float__(self):
                raise RuntimeError("unwritable")

            __repr__ = __float__

        so = empirical_second_order(_random_pm(17, 3, 3, seed=6))
        probs = so.probs.astype(object)
        probs[1, 2, 0, 0] = Unwritable()
        broken = types.SimpleNamespace(n=so.n, k=so.k, probs=probs, imputed=so.imputed)
        path = tmp_path / "so.csv"
        write_second_order_csv(so, str(path))
        good = path.read_bytes()
        with pytest.raises(RuntimeError, match="unwritable"):
            write_second_order_csv(broken, str(path))
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["so.csv"]

    def test_format_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,k,l,prob,imputed\n0,0,0,0,1.0\n")
        with pytest.raises(FormatError, match=":2:"):
            read_second_order_csv(str(path))
        path.write_text("i,j,k,l,prob,imputed\n0,0,0,0,oops,0\n")
        with pytest.raises(FormatError, match=":2:"):
            read_second_order_csv(str(path))
        # a byte that is not UTF-8, past the first chunk the text decoder reads
        write_second_order_csv(empirical_second_order(_random_pm(40, 6, 4, seed=1)), str(path))
        lines = path.read_bytes().split(b"\n")
        lines[499] = lines[499].replace(b",", b"\xff,", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=":500:"):
            read_second_order_csv(str(path))

    @pytest.mark.parametrize(
        "prob,imputed,message",
        [
            ("2.0", "0", "prob must be a finite number in [0, 1], not '2.0'"),
            ("-0.5", "0", "prob must be a finite number in [0, 1], not '-0.5'"),
            ("inf", "0", "prob must be a finite number in [0, 1], not 'inf'"),
            ("nan", "0", "prob must be a finite number in [0, 1], not 'nan'"),
            ("0.5", "7", "imputed must be 0 or 1, not '7'"),
            ("0.5", "-1", "imputed must be 0 or 1, not '-1'"),
        ],
    )
    def test_hostile_cell_values_name_their_line(self, tmp_path, prob, imputed, message):
        path = tmp_path / "so.csv"
        write_second_order_csv(empirical_second_order(_random_pm(40, 3, 2, seed=2)), str(path))
        lines = path.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:4] + [prob, imputed])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            read_second_order_csv(str(path))
        assert str(info.value) == f"{path}:6: {message}"

    def test_over_long_field_names_its_line(self, tmp_path):
        # a field over csv.field_size_limit() is a FormatError, not a csv.Error
        path = tmp_path / "long.csv"
        path.write_text("i,j,k,l,prob,imputed\n0,0,0,0," + "1" * 200_000 + ",0\n")
        with pytest.raises(FormatError, match=r"long\.csv:2: field larger than field limit"):
            read_second_order_csv(str(path))
        path.write_text("i,j,k,l,prob," + "x" * 200_000 + "\n0,0,0,0,1.0,0\n")
        with pytest.raises(FormatError, match=r"long\.csv:1: field larger than field limit"):
            read_second_order_csv(str(path))

    def test_structural_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(FormatError, match="header"):
            read_second_order_csv(str(path))
        path.write_text("i,j,k,l,prob,imputed\n")
        with pytest.raises(FormatError, match="no data"):
            read_second_order_csv(str(path))
        # full grid but a column that cannot sum to 1
        lines = ["i,j,k,l,prob,imputed"]
        for i in range(2):
            for j in range(2):
                for a in range(2):
                    for b in range(2):
                        p = 1.0 if (i == j and a == b) else (0.9 if i != j else 0.0)
                        lines.append(f"{i},{j},{a},{b},{p},0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError):
            read_second_order_csv(str(path))

    def test_missing_rows_rejected(self, tmp_path):
        pm = _random_pm(9, 2, 2, seed=7)
        so = empirical_second_order(pm)
        path = tmp_path / "so.csv"
        write_second_order_csv(so, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            read_second_order_csv(str(path))


    @pytest.mark.parametrize(
        "row,message",
        [
            ("-1,1,0,0,0.25,0", "6: index (-1,1,0,0) out of range"),
            ("0,1,0,0,0.25,0", "7: index (0,1,0,0) repeats line 6"),
        ],
        ids=["negative", "repeated"],
    )
    def test_a_bad_or_repeated_index_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "so.csv"
        write_second_order_csv(_FIXTURE, str(path))
        lines = path.read_text().splitlines()
        lines[int(message.split(":")[0]) - 1] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            read_second_order_csv(str(path))
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0,0,0,0,1.0,0", "2: the largest label index, 0, gives K=1; need K >= 2 labels"),
            ("-2,-2,-2,-2,1.0,0", "2: index (-2,-2,-2,-2) out of range"),
        ],
        ids=["one-label", "negative-dimensions"],
    )
    def test_a_file_of_no_matrix_shape_names_its_line(self, tmp_path, row, message):
        # one row is as many as N = K = 1 and as N = K = -1 expect; neither is a shape
        path = tmp_path / "so.csv"
        path.write_text("i,j,k,l,prob,imputed\n" + row + "\n")
        with pytest.raises(FormatError) as info:
            read_second_order_csv(str(path))
        assert str(info.value) == f"{path}:{message}"

    def test_a_huge_index_fails_the_row_count_before_any_allocation(self, tmp_path):
        path = tmp_path / "so.csv"
        write_second_order_csv(_FIXTURE, str(path))
        lines = path.read_text().splitlines()
        lines[5] = "999999," + lines[5].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            read_second_order_csv(str(path))
        assert str(info.value) == f"{path}: expected {10**12 * 4} rows for N=1000000, K=2, got 16"


# Two agents, K = 2, and probabilities with short decimals: deleting any of their
# bytes leaves the same float or breaks a column sum or the [0, 1] bounds.
_FIXTURE = SecondOrderMatrix(
    np.array([[[[1, 0], [0, 1]], [[0.25, 0.5], [0.75, 0.5]]], [[[0.75, 1.0], [0.25, 0.0]], [[1, 0], [0, 1]]]]),
    np.array([[[[0, 0], [0, 0]], [[0, 1], [0, 1]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]], dtype=bool),
    source="fixture",
)
# What a FormatError that names no line may be about: the whole file or its header.
_WHOLE_FILE_FAULTS = r": (empty file|unexpected header|no data rows|expected \d+ rows)"


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fixture") / "so.csv"
    write_second_order_csv(_FIXTURE, str(path))
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_bytes_read_back_the_matrix_or_fail_as_format_or_domain(tmp_path_factory, fixture_csv, data):
    # a hostile file reads back the written matrix bit for bit, or fails with a
    # FormatError or DomainError, never another exception; a FormatError about
    # a row names its line
    path = tmp_path_factory.mktemp("mutated") / "so.csv"
    path.write_bytes(data.draw(mutated_bytes(fixture_csv, HOSTILE_CSV_BYTES)))
    try:
        back = read_second_order_csv(str(path))
    except FormatError as exc:
        assert re.match(rf"{re.escape(str(path))}(:\d+: |{_WHOLE_FILE_FAULTS})", str(exc)), str(exc)
    except DomainError:
        pass
    else:
        np.testing.assert_array_equal(back.probs, _FIXTURE.probs)
        np.testing.assert_array_equal(back.imputed, _FIXTURE.imputed)


def test_empirical_memory_is_its_table_plus_a_block():
    # the table is built in the counts' own buffer and kept without a copy;
    # beyond what it keeps, the build holds one block of int64 pair codes
    pm = _random_pm(20_000, 10, 50)
    tracemalloc.start()
    try:
        so = empirical_second_order(pm)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not so.probs.flags.writeable and not so.imputed.flags.writeable
    assert peak <= retained + 8 * _BLOCK_CELLS, (peak, retained)
    # the public constructor still copies what it is given
    assert SecondOrderMatrix(so.probs, so.imputed, "copy").probs is not so.probs
