import csv

import numpy as np
import pytest

from ordquant import data
from ordquant.data import CsvSchema, OrdinalDataset, ingest_csv, write_csv
from ordquant.errors import ConfigError, DataError, SchemaError
from ordquant.model import ModelSpec, Priors, initialize_state, interior_cutpoints
from ordquant.simulate import ScenarioConfig, generate
from ordquant.streams import substream

from .oracles import assert_same_dataset, ingest_csv_rowwise, validate_state, write_csv_rowwise


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_single_subject_file(self, tmp_path):
        f = tmp_path / "toy.csv"
        write_lines(f, ["subject,y,x1", "a,1,0.5", "a,2,-0.5", "a,1,0.25"])
        ds = ingest_csv(f)
        assert ds.num_subjects == 1
        assert ds.num_observations == 3
        assert ds.num_categories == 2
        assert ds.num_covariates == 1
        assert list(np.bincount(ds.subject_index)) == [3]

    def test_out_of_range_category_names_row(self, tmp_path):
        f = tmp_path / "bad.csv"
        write_lines(f, ["subject,y,x1", "a,1,0.5", "a,0,-0.5", "a,2,0.1"])
        with pytest.raises(DataError, match=r"bad\.csv:3"):
            ingest_csv(f, CsvSchema(num_categories=4))

    def test_missing_column(self, tmp_path):
        f = tmp_path / "cols.csv"
        write_lines(f, ["subject,resp,x1", "a,1,0.5"])
        with pytest.raises(SchemaError, match="y"):
            ingest_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            ingest_csv(f)

    def test_header_only(self, tmp_path):
        f = tmp_path / "header.csv"
        write_lines(f, ["subject,y,x1"])
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(f)

    def test_non_integer_category(self, tmp_path):
        f = tmp_path / "frac.csv"
        write_lines(f, ["subject,y,x1", "a,1,0.5", "a,2.5,0.1"])
        with pytest.raises(DataError, match=r"frac\.csv:3"):
            ingest_csv(f)

    def test_missing_value(self, tmp_path):
        f = tmp_path / "gap.csv"
        write_lines(f, ["subject,y,x1", "a,1,", "a,2,0.1"])
        with pytest.raises(DataError, match=r"gap\.csv:2"):
            ingest_csv(f)

    def test_relabeling_is_order_preserving(self, tmp_path):
        f = tmp_path / "labels.csv"
        write_lines(f, ["subject,y,x1", "a,9,0.5", "a,2,0.1", "b,5,0.2", "b,2,-0.1"])
        ds = ingest_csv(f)
        assert ds.num_categories == 3
        assert ds.category_labels == [2, 5, 9]
        assert list(ds.y) == [3, 1, 2, 1]

    def test_empty_declared_category_warns(self, tmp_path):
        f = tmp_path / "sparse.csv"
        write_lines(f, ["subject,y,x1", "a,1,0.5", "a,2,0.1", "b,4,0.2"])
        with pytest.warns(UserWarning, match=r"\[3\]"):
            ds = ingest_csv(f, CsvSchema(num_categories=4))
        assert ds.num_categories == 4

    def test_subjects_grouped_preserving_order(self, tmp_path):
        f = tmp_path / "interleave.csv"
        write_lines(f, ["subject,y,x1", "b,1,1.0", "a,2,2.0", "b,2,3.0", "a,1,4.0"])
        ds = ingest_csv(f)
        assert ds.subject_ids == ["b", "a"]
        assert list(ds.subject_index) == [0, 0, 1, 1]
        assert list(ds.x[:, 0]) == [1.0, 3.0, 2.0, 4.0]

    def test_roundtrip_sim1_format(self, tmp_path):
        cfg = ScenarioConfig(scenario="sim1", subjects=40, obs_per_subject=5)
        ds = generate(cfg, substream(99, 2, 0))
        f = tmp_path / "sim.csv"
        write_csv(ds, f)
        again = ingest_csv(f, CsvSchema(num_categories=5))
        assert_same_dataset(again, ds)

    def test_roundtrip_without_time_column(self, tmp_path):
        cfg = ScenarioConfig(scenario="sim1", subjects=40, obs_per_subject=5)
        ds = generate(cfg, substream(99, 2, 0))
        assert ds.time_index.tolist() == list(range(5)) * 40  # the within-subject rank
        f = tmp_path / "notime.csv"
        schema = CsvSchema(time=None, num_categories=5)
        write_csv(ds, f, schema)
        assert f.read_text().splitlines()[0] == "subject,y,x1,x2,x3"
        assert_same_dataset(ingest_csv(f, schema), ds)

    def test_statistics_match_brute_force(self, tmp_path):
        cfg = ScenarioConfig(scenario="sim1", subjects=7, obs_per_subject=3)
        ds = generate(cfg, substream(5, 2, 0))
        f = tmp_path / "counts.csv"
        write_csv(ds, f)
        rows = f.read_text().strip().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        assert ds.num_observations == len(cells)
        assert ds.num_subjects == len({c[0] for c in cells})
        assert ds.num_categories == 5
        assert ds.num_covariates == len(rows[0].split(",")) - 3  # subject, y, time
        subj_counts = {}
        for c in cells:
            subj_counts[c[0]] = subj_counts.get(c[0], 0) + 1
        assert list(np.bincount(ds.subject_index)) == [subj_counts[s] for s in ds.subject_ids]


@pytest.fixture(params=["chunk-1", "chunk-default"])
def chunk_rows(request, monkeypatch):
    """Run a test with 1-record chunks, so records span chunks, and with the real budget."""
    if request.param == "chunk-1":
        monkeypatch.setattr(data, "_CHUNK_CELLS", 1)


def ingest_error(call, path, schema):
    with pytest.raises(DataError) as info:
        call(path, schema)
    return str(info.value)


@pytest.mark.usefixtures("chunk_rows")
class TestIngestErrors:
    """Each bad file is reported with the row-wise reference's text and
    ``file:line``: the first bad cell in row order, then in check order
    (width, subject, response, covariates, time), with blank records counted."""

    CASES = {
        "too-many-fields": (["subject,y,x1", "a,1,0.5", "a,2,0.1,7"], None,
                            "3: expected 3 fields, got 4"),
        "too-few-fields": (["subject,y,x1", "a,1,0.5", "a,2"], None, "3: expected 3 fields, got 2"),
        "every-row-too-wide": (["subject,y,x1", "a,1,0.5,9", "b,2,0.1,7"], None, "2: expected 3 fields, got 4"),
        "empty-subject": (["subject,y,x1", "a,1,0.5", "  ,2,0.1"], None, "3: empty subject id"),
        "non-numeric-covariate": (["subject,y,x1,x2", "a,1,0.5,1", "a,2,0.1, abc "], None,
                                  "3: covariate 'x2' value 'abc' is not numeric"),
        "missing-covariate": (["subject,y,x1,x2", "a,1,0.5,1", "a,2, \t,1"], None,
                              "3: missing value in covariate 'x1'"),
        "non-integer-time": (["subject,y,x1,time", "a,1,0.5,0", "a,2,0.1,1.5"], None,
                             "3: time index '1.5' is not an integer"),
        "blank-rows-counted": (["subject,y,x1", "a,1,0.5", "", ",,", " , \t,", "   ", "a,two,0.1"], None,
                               "7: response 'two' is not an integer category"),
        "first-bad-row-wins": (["subject,y,x1,x2", "a,1,0.5,1", "a,1,0.5,bad", "a,x,0.5,1"], None,
                               "3: covariate 'x2' value 'bad' is not numeric"),
        "check-order-within-row": (["subject,time,x1,y", "a,0,0.5,1", "a,zz,no,q"], None,
                                   "3: response 'q' is not an integer category"),
        "covariate-before-time": (["subject,time,x1,y", "a,0,0.5,1", "a,zz,no,2"], None,
                                  "3: covariate 'x1' value 'no' is not numeric"),
        "cell-error-before-width-error": (["subject,y,x1", "a,1,bad", "a,1"], None,
                                          "2: covariate 'x1' value 'bad' is not numeric"),
        "width-error-before-cell-error": (["subject,y,x1", "a,1", "a,1,bad"], None,
                                          "2: expected 3 fields, got 2"),
        "range-before-later-parse-error": (["subject,y,x1", "a,1,0.5", "a,7,0.5", "a,x,0.5"], 4,
                                           "3: category 7 outside declared range 1..4"),
        "label-beyond-64-bits": (["subject,y,x1", "a,1,0.5", "a,99999999999999999999,0.1"], 4,
                                 "3: category 99999999999999999999 outside declared range 1..4"),
        "parse-before-later-range-error": (["subject,y,x1", "a,1,0.5", "a,x,0.5", "a,7,0.5"], 4,
                                           "3: response 'x' is not an integer category"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message_and_line_match_reference(self, tmp_path, case):
        lines, categories, expected = self.CASES[case]
        f = tmp_path / "bad.csv"
        write_lines(f, lines)
        schema = CsvSchema(num_categories=categories)
        assert ingest_error(ingest_csv, f, schema) == f"{f}:{expected}"
        assert ingest_error(ingest_csv_rowwise, f, schema) == f"{f}:{expected}"

    @pytest.mark.parametrize("covariates,message", [
        (("y",), "covariate column 'y' is also the response column"),
        (("x1", "subject"), "covariate column 'subject' is also the subject column"),
        (("time", "x1"), "covariate column 'time' is also the time column"),
    ], ids=["response", "subject", "time"])
    def test_covariate_that_is_a_model_column(self, tmp_path, covariates, message):
        f = tmp_path / "roles.csv"
        write_lines(f, ["subject,y,x1,time", "a,1,0.5,0", "a,2,0.1,1"])
        for call in (ingest_csv, ingest_csv_rowwise):
            with pytest.raises(SchemaError) as info:
                call(f, CsvSchema(covariates=covariates))
            assert str(info.value) == f"{f}: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_after_multi_line_subject_ids(self, tmp_path, newline):
        # Quoted ids span lines 2-3 and 4-6, as write_csv writes them, so the
        # bad record is on line 7, not 2 + its record index.
        f = tmp_path / "ml.csv"
        f.write_text(newline.join(["subject,y,x1", '"has', 'newline",1,0.5', '"two', "line", 'id",2,0.1',
                                   "a,x,0.3", "a,1,0.2"]) + newline, encoding="utf-8")
        with f.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for _ in range(4):
                next(reader)
            assert reader.line_num == 7
        expected = f"{f}:7: response 'x' is not an integer category"
        assert ingest_error(ingest_csv, f, CsvSchema()) == expected
        assert ingest_error(ingest_csv_rowwise, f, CsvSchema()) == expected


class TestRepeatedColumns:
    """A column the schema reads is named once in the header and once in the
    covariate list; a repeat is a schema error that names the file and the
    column.  A repeated column the schema does not read is ignored."""

    @pytest.mark.parametrize("header,covariates,message", [
        ("subject,y,x1,x1", None, "the header names column 'x1' 2 times"),
        ("subject,y,x1,y", None, "the header names column 'y' 2 times"),
        ("subject,time,y,x1,time", None, "the header names column 'time' 2 times"),
        ("subject,y,x1,x2", ("x1", "x1"), "the covariate list names column 'x1' twice"),
        ("subject,y,x1,x2, x2 ", ("x2",), "the header names column 'x2' 2 times"),
    ], ids=["covariate-in-header", "response-in-header", "time-in-header", "covariate-list", "stripped-header"])
    def test_repeated_column_is_a_schema_error(self, tmp_path, header, covariates, message):
        f = tmp_path / "twice.csv"
        write_lines(f, [header, ",".join(["a", "1"] + ["0"] * (header.count(",") - 1))])
        for call in (ingest_csv, ingest_csv_rowwise):
            with pytest.raises(SchemaError) as info:
                call(f, CsvSchema(covariates=covariates))
            assert str(info.value) == f"{f}: {message}"

    def test_repeated_unread_column_is_ignored(self, tmp_path):
        f = tmp_path / "notes.csv"
        write_lines(f, ["subject,y,note,x1,note", "a,1,p,0.5,q", "a,2,r,-0.5,s"])
        ds = ingest_csv(f, CsvSchema(covariates=("x1",)))
        assert ds.covariate_names == ["x1"]
        assert ds.x.tolist() == [[0.5], [-0.5]]


@pytest.mark.usefixtures("chunk_rows")
class TestIngestTimeRange:
    """A time index must fit in ``intp``; a wider one is bad input, reported
    like any other bad cell: first in row order, last in check order."""

    @pytest.mark.parametrize("lines,expected", [
        (["subject,y,x1,time", "a,1,0.5,0", "a,2,0.1,99999999999999999999", "a,1,0.2,-99999999999999999999"],
         "3: time index 99999999999999999999 does not fit in a 64-bit integer"),
        (["subject,y,x1,time", "a,1,0.5,0", "a,2,0.1,-9223372036854775809", "a,1,0.2,2"],
         "3: time index -9223372036854775809 does not fit in a 64-bit integer"),
        (["subject,y,x1,time", "a,1,0.5,9223372036854775808", "a,2,0.1,1.5"],
         "2: time index 9223372036854775808 does not fit in a 64-bit integer"),
        (["subject,y,x1,time", "a,1,0.5,0", "a,2,0.1,x", "a,1,0.2,99999999999999999999"],
         "3: time index 'x' is not an integer"),
        (["subject,y,x1,time", "a,1,0.5,0", "a,2,bad,99999999999999999999"],
         "3: covariate 'x1' value 'bad' is not numeric"),
    ])
    def test_wide_time_index_is_a_data_error(self, tmp_path, lines, expected):
        f = tmp_path / "wide.csv"
        write_lines(f, lines)
        assert ingest_error(ingest_csv, f, CsvSchema()) == f"{f}:{expected}"

    def test_extreme_time_indices_that_fit(self, tmp_path):
        # U+001F padding makes the fast conversion fail, so the cells are converted one by one.
        f = tmp_path / "edge.csv"
        write_lines(f, ["subject,y,x1,time", "a,1,0.5,\x1f-9223372036854775808", "a,2,0.1,9223372036854775807\x1f"])
        assert ingest_csv(f).time_index.tolist() == [-9223372036854775808, 9223372036854775807]


@pytest.mark.usefixtures("chunk_rows")
class TestCsvMatchesRowwiseReference:
    """``ingest_csv`` and ``write_csv`` against the row-wise reference
    implementations kept in ``tests/oracles.py``."""

    def check_ingest(self, f, schema=CsvSchema()):
        got = ingest_csv(f, schema)
        assert_same_dataset(got, ingest_csv_rowwise(f, schema))
        return got

    def check_write(self, ds, tmp_path):
        write_csv(ds, tmp_path / "new.csv")
        write_csv_rowwise(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        return tmp_path / "new.csv"

    def test_panel_larger_than_one_chunk(self, tmp_path):
        cfg = ScenarioConfig(scenario="sim2", subjects=1100, obs_per_subject=4)
        ds = generate(cfg, substream(7, 2, 0))
        f = self.check_write(ds, tmp_path)
        assert_same_dataset(self.check_ingest(f, CsvSchema(num_categories=5)), ds)
        self.check_ingest(f)

    def test_interleaved_subjects(self, tmp_path):
        f = tmp_path / "mix.csv"
        write_lines(f, ["subject,y,x1,time", "b,1,1.0,4", "a,2,2.0,3", "c,3,2.5,0", "b,2,3.0,1",
                        "a,1,4.0,0", "c,1,5.0,9", "b,3,6.0,2"])
        ds = self.check_ingest(f)
        assert ds.subject_ids == ["b", "a", "c"]
        assert list(ds.time_index) == [4, 1, 2, 3, 0, 0, 9]
        self.check_write(ds, tmp_path)

    def test_no_time_column_ranks_within_subject(self, tmp_path):
        f = tmp_path / "notime.csv"
        write_lines(f, ["subject,y,x1", "b,1,1.0", "a,2,2.0", "b,2,3.0", "a,1,4.0", "b,1,5.0"])
        ds = self.check_ingest(f)
        assert list(ds.time_index) == [0, 1, 2, 0, 1]
        self.check_write(ds, tmp_path)

    def test_declared_empty_category_warns_at_caller(self, tmp_path):
        f = tmp_path / "sparse.csv"
        write_lines(f, ["subject,y,x1", "a,1,0.5", "a,2,0.1", "b,5,0.2"])
        for ingest in (ingest_csv, ingest_csv_rowwise):
            with pytest.warns(UserWarning, match=r"^categories \[3, 4\] have no observations$") as record:
                ingest(f, CsvSchema(num_categories=5))
            assert record[0].filename == __file__
        with pytest.warns(UserWarning):
            ds = self.check_ingest(f, CsvSchema(num_categories=5))
        self.check_write(ds, tmp_path)

    def test_original_labels_kept(self, tmp_path):
        f = tmp_path / "labels.csv"
        write_lines(f, ["subject,y,x1", "a,9,0.5", "a,2,0.1", "b,5,0.2", "b,2,-0.1"])
        ds = self.check_ingest(f)
        assert ds.category_labels == [2, 5, 9]
        assert self.check_write(ds, tmp_path).read_text().splitlines()[1] == "a,9,0.5,0"
        write_lines(f, ["subject,y,x1", "a,-3,0.5", "a,99999999999999999999,0.1"])
        assert self.check_ingest(f).category_labels == [-3, 99999999999999999999]

    def test_subject_ids_that_need_quoting(self, tmp_path):
        ids = ["plain", "has,comma", 'has "quote"', "has\nnewline", "has\r\nCRLF"]
        ds = OrdinalDataset(ids, np.repeat(np.arange(5), 2), np.tile([1, 2], 5),
                            np.linspace(-1.0, 1.0, 10)[:, None], np.tile([0, 1], 5), 2)
        f = self.check_write(ds, tmp_path)
        assert_same_dataset(self.check_ingest(f), ds)

    def test_padded_cells(self, tmp_path):
        f = tmp_path / "pad.csv"
        f.write_text("subject , y,x1,\ttime\n"
                     " a\t, 1 ,\t0.5\xa0, 0\n"
                     "\xa0b,\t2\xa0,\x1f-1.25\x1c,\xa01\t\n"
                     "a ,\x1f3\x1c,\u2003 7 ,\x1c2\n", encoding="utf-8")
        ds = self.check_ingest(f)
        assert ds.subject_ids == ["a", "b"]
        assert ds.x[:, 0].tolist() == [0.5, 7.0, -1.25]

    def test_float_extremes_round_trip(self, tmp_path):
        values = [-0.0, 5e-324, 1e22, 3.0, -2.0, 0.1, 1e-300, 123456789012345.0]
        f = tmp_path / "floats.csv"
        write_lines(f, ["subject,y,x1"] + [f"s{i % 3},{1 + i % 2},{v!r}" for i, v in enumerate(values)])
        ds = self.check_ingest(f)
        grouped = np.array(values)[np.argsort(np.arange(len(values)) % 3, kind="stable")]
        assert ds.x[:, 0].tobytes() == grouped.tobytes()
        again = self.check_write(ds, tmp_path)
        assert_same_dataset(self.check_ingest(again), ds)


class TestPriors:
    def test_defaults_valid(self):
        p = Priors()
        assert p.delta_min < p.delta_max

    @pytest.mark.parametrize("kwargs", [
        {"a1": 0.0}, {"a2": -1.0}, {"b1": 0.0}, {"b2": 0.0},
        {"delta_min": 2.0, "delta_max": -2.0}, {"delta_min": 1.0, "delta_max": 1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            Priors(**kwargs)


def toy_dataset():
    x = np.array([[0.5], [-0.5], [1.0], [-1.0]])
    y = np.array([2, 1, 2, 1])
    return OrdinalDataset(["u", "w"], np.array([0, 0, 1, 1]), y, x, np.arange(4), 2)


class TestInitializeState:
    def test_equally_spaced_interior_cutpoints(self):
        np.testing.assert_allclose(interior_cutpoints(5, -3.0, 3.0), [-1.8, -0.6, 0.6, 1.8], atol=1e-12)

    def test_bad_support_is_config_error(self):
        with pytest.raises(ConfigError):
            interior_cutpoints(5, 1.0, 1.0 + 1e-300)

    def test_liabilities_respect_thresholds(self):
        cfg = ScenarioConfig(scenario="sim1", subjects=10, obs_per_subject=4)
        ds = generate(cfg, substream(1, 2, 0))
        spec = ModelSpec(theta=0.3, dataset=ds, priors=Priors(delta_min=-3, delta_max=3))
        state = initialize_state(spec, substream(1, 0, 0))
        validate_state(state, spec)
        assert np.all(state.cutpoints[ds.y - 1] < state.latent_l)
        assert np.all(state.latent_l <= state.cutpoints[ds.y])

    def test_same_seed_same_state(self):
        spec = ModelSpec(theta=0.5, dataset=toy_dataset())
        a = initialize_state(spec, substream(11, 0, 0))
        b = initialize_state(spec, substream(11, 0, 0))
        np.testing.assert_array_equal(a.latent_l, b.latent_l)
        np.testing.assert_array_equal(a.latent_v, b.latent_v)
        np.testing.assert_array_equal(a.cutpoints, b.cutpoints)

    def test_overdispersed_start_moves_beta(self):
        spec = ModelSpec(theta=0.5, dataset=toy_dataset())
        a = initialize_state(spec, substream(11, 0, 0), overdispersed=True)
        assert np.any(a.beta != 0.0)
        validate_state(a, spec)

    def test_neutral_start_values(self):
        spec = ModelSpec(theta=0.5, dataset=toy_dataset())
        st = initialize_state(spec, substream(3, 0, 0))
        assert np.all(st.beta == 0.0)
        assert np.all(st.alpha == 0.0)
        assert st.lambda_sq == 1.0 and st.phi == 1.0
        assert np.all(st.s == 1.0)


class TestValidateState:
    def test_detects_threshold_violation(self):
        ds = toy_dataset()
        spec = ModelSpec(theta=0.5, dataset=ds)
        state = initialize_state(spec, substream(1, 0, 0))
        state.latent_l[0] = spec.priors.delta_min - 100.0
        from ordquant.errors import ChainDivergedError

        with pytest.raises(ChainDivergedError):
            validate_state(state, spec)

    def test_detects_disordered_cutpoints(self):
        cuts = np.array([-0.8416, -0.2533, 0.2533, 0.8416])
        cfg = ScenarioConfig(scenario="sim1", subjects=4, obs_per_subject=2)
        ds = generate(cfg, substream(3, 2, 0))
        spec = ModelSpec(theta=0.5, dataset=ds, priors=Priors(delta_min=-3, delta_max=3))
        state = initialize_state(spec, substream(3, 0, 0))
        state.cutpoints[1], state.cutpoints[2] = state.cutpoints[2], state.cutpoints[1]
        from ordquant.errors import ChainDivergedError

        with pytest.raises(ChainDivergedError):
            validate_state(state, spec)


class TestModelSpec:
    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5])
    def test_theta_domain(self, theta):
        with pytest.raises(ConfigError):
            ModelSpec(theta=theta, dataset=toy_dataset())

    def test_mixture_constants(self):
        spec = ModelSpec(theta=0.3, dataset=toy_dataset())
        assert spec.xi == pytest.approx(0.4)
        assert spec.zeta == pytest.approx(0.21)
