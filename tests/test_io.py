import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multicent import (
    ConvergenceReport,
    ParseError,
    ValidationError,
    connectivity,
    parse_multiplex_edges,
    read_scores,
    report_to_dict,
    to_network,
    write_multiplex_edges,
    write_scores,
)
from multicent import io as mio
from multicent.io import SYMMETRIZE_POLICIES

from conftest import examples, make_explanatory, random_sparse_multiplex
from oracles import load_edges_loop


class TestParse:
    def test_explanatory_file(self):
        doc = parse_multiplex_edges("1 1 2 1\n2 3 4 1\n")
        assert doc.inferred_n == 4 and doc.inferred_L == 2
        net = to_network(doc)
        expected = make_explanatory()
        for A, B in zip(net.layers, expected.layers):
            assert (A != B).nnz == 0

    def test_comments_blanks_default_weight(self):
        doc = parse_multiplex_edges("# comment\n\n1 1 2\n")
        assert doc.records.tolist() == [[1, 1, 2, 1.0]]

    def test_crlf_accepted(self):
        doc = parse_multiplex_edges("1 1 2 1\r\n1 2 3 2\r\n")
        assert len(doc.records) == 2

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            parse_multiplex_edges("1 1 2 -1\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            parse_multiplex_edges("1 1 2 0\n")

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValidationError):
            parse_multiplex_edges("0 1 2\n")
        with pytest.raises(ValidationError):
            parse_multiplex_edges("1 0 2\n")

    def test_malformed_lines_carry_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_multiplex_edges("1 1 2 1\n1 2\n")
        assert exc.value.line_number == 2
        with pytest.raises(ParseError) as exc:
            parse_multiplex_edges("1 1 2 1\nx y z\n")
        assert exc.value.line_number == 2
        with pytest.raises(ParseError) as exc:
            parse_multiplex_edges("1 1 2 badweight\n")
        assert exc.value.line_number == 1

    def test_line_number_after_the_first_chunk(self):
        # the line loop reads the text in 1 MiB chunks; the bad line lies past
        # the first one, behind CRLF and form-feed line breaks and a comment
        # that keep the text off the vectorized path
        body = "# comment\n" + "1 1 2\x0c1 2 3\r\n" * 90_000
        assert len(body) > 1 << 20
        text = body + "1 1 x\n1 2 3\n"
        with pytest.raises(ParseError) as exc:
            parse_multiplex_edges(text)
        assert exc.value.line_number == 180_002 == text.splitlines().index("1 1 x") + 1

    def test_line_order_irrelevant(self):
        a = to_network(parse_multiplex_edges("1 1 2 1\n2 3 4 5\n1 2 3 2\n"))
        b = to_network(parse_multiplex_edges("1 2 3 2\n1 1 2 1\n2 3 4 5\n"))
        for A, B in zip(a.layers, b.layers):
            assert (A != B).nnz == 0


class TestToNetwork:
    def test_single_direction_mirrored(self):
        net = to_network(parse_multiplex_edges("1 1 2 1\n"))
        A = net.layers[0].toarray()
        assert A[0, 1] == 1.0 and A[1, 0] == 1.0

    def test_double_listing_not_doubled(self):
        net = to_network(parse_multiplex_edges("1 1 2 1\n1 2 1 1\n"))
        A = net.layers[0].toarray()
        assert A[0, 1] == 1.0 and A[1, 0] == 1.0

    def test_unequal_directions_mirror_warns_and_takes_max(self):
        doc = parse_multiplex_edges("1 1 2 1\n1 2 1 3\n")
        with pytest.warns(RuntimeWarning):
            net = to_network(doc, symmetrize="mirror")
        assert net.layers[0].toarray()[0, 1] == 3.0

    def test_unequal_directions_max_silent(self):
        doc = parse_multiplex_edges("1 1 2 1\n1 2 1 3\n")
        net = to_network(doc, symmetrize="max")
        assert net.layers[0].toarray()[1, 0] == 3.0

    def test_unequal_directions_error_policy(self):
        doc = parse_multiplex_edges("1 1 2 1\n1 2 1 3\n")
        with pytest.raises(ValidationError):
            to_network(doc, symmetrize="error")

    def test_equal_directions_fine_under_error_policy(self):
        doc = parse_multiplex_edges("1 1 2 2\n1 2 1 2\n")
        net = to_network(doc, symmetrize="error")
        assert net.layers[0].toarray()[0, 1] == 2.0

    def test_mirror_output_exactly_symmetric(self):
        rng = np.random.default_rng(167)
        lines = []
        for _ in range(60):
            l = int(rng.integers(1, 4))
            i, j = rng.integers(1, 15, size=2)
            if i == j:
                continue
            lines.append(f"{l} {i} {j} {rng.uniform(0.5, 2):.3f}")
        net = to_network(parse_multiplex_edges("\n".join(lines)), n=15, L=3,
                         symmetrize="max")
        for A in net.layers:
            assert (A != A.T).nnz == 0

    def test_overrides_enlarge(self):
        net = to_network(parse_multiplex_edges("1 1 2 1\n"), n=10, L=4)
        assert net.n == 10 and net.L == 4
        assert len(connectivity(net).isolated_nodes) == 8

    def test_overrides_below_inferred_rejected(self):
        doc = parse_multiplex_edges("1 1 5 1\n")
        with pytest.raises(ValidationError):
            to_network(doc, n=3)
        with pytest.raises(ValidationError):
            to_network(parse_multiplex_edges("3 1 2 1\n"), L=2)

    def test_empty_document_needs_overrides(self):
        doc = parse_multiplex_edges("# nothing\n")
        with pytest.raises(ValidationError):
            to_network(doc)
        net = to_network(doc, n=5, L=2)
        assert net.n == 5
        assert connectivity(net).isolated_nodes == (0, 1, 2, 3, 4)

    def test_duplicate_same_direction_sums_then_mirrors(self):
        net = to_network(parse_multiplex_edges("1 1 2 1\n1 1 2 2\n"))
        assert net.layers[0].toarray()[0, 1] == 3.0

    def test_loaded_layers_have_int32_indices(self):
        net = to_network(parse_multiplex_edges("1 1 2 1\n2 3 3 2\n"), L=3)
        for A in net.layers:
            assert A.indptr.dtype == A.indices.dtype == np.int32

    def test_self_loops_kept(self):
        net = to_network(parse_multiplex_edges("1 2 2 4\n"))
        assert net.layers[0].toarray()[1, 1] == 4.0


# -- the loader against the per-record reference in oracles.py

_WEIGHTS = ("", " 1", " 2", " 0.5", " 0.1", " 0.2", " 0.3", " 3")


@st.composite
def _edge_text(draw):
    """Edge-list text with both directions (equal and unequal weights),
    repeated records, self-loops, comments, blank lines and CRLF endings,
    plus node/layer overrides at or above the inferred counts."""
    records = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
                                      st.sampled_from(_WEIGHTS)), min_size=1, max_size=12))
    lines = []
    for layer, a, b, w in records:
        lines.append(f"{layer} {a} {b}{w}")
        for extra in draw(st.lists(st.sampled_from(["reverse", "repeat"]), max_size=2)):
            if extra == "reverse":
                w = draw(st.sampled_from((w,) + _WEIGHTS))
                lines.append(f"{layer} {b} {a}{w}")
            else:
                lines.append(f"{layer} {a} {b}{w}")
    lines = draw(st.permutations(lines))
    for filler in draw(st.lists(st.sampled_from(["# comment", "", "   ", "#1 1 2"]),
                                max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    n_seen = max(max(a, b) for _, a, b, _ in records)
    L_seen = max(layer for layer, _, _, _ in records)
    n = draw(st.one_of(st.none(), st.integers(n_seen, n_seen + 2)))
    L = draw(st.one_of(st.none(), st.integers(L_seen, L_seen + 2)))
    return text, n, L


class TestLoaderMatchesReference:
    @settings(max_examples=examples(300), deadline=None)
    @given(case=_edge_text())
    def test_same_layers_warnings_and_errors(self, case):
        text, n, L = case
        for symmetrize in SYMMETRIZE_POLICIES:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    got = to_network(parse_multiplex_edges(text), n=n, L=L,
                                     symmetrize=symmetrize).layers
                except ValidationError as exc:
                    got = str(exc)
            try:
                want, want_warnings = load_edges_loop(text, n=n, L=L, symmetrize=symmetrize)
            except ValidationError as exc:
                want, want_warnings = str(exc), []
            assert [str(w.message) for w in caught] == want_warnings, symmetrize
            if isinstance(want, str):
                assert got == want
                continue
            assert len(got) == len(want)
            for A, B in zip(got, want):
                np.testing.assert_array_equal(A.indptr, B.indptr)
                np.testing.assert_array_equal(A.indices, B.indices)
                assert A.data.tobytes() == B.data.tobytes()


# -- the vectorized parser against the line loop

# Index and weight tokens the two parsers might read differently: numpy's
# loadtxt accepts some that int()/float() reject and the reverse, strips a
# trailing "# c", and rounds "-0" and "1e-400" to zeros.
_INDEX_TOKENS = ("1", "2", "3", "+1", "01", "-0", "0", "-1", "1.0", "1e0", "1_0", "0x1", ".5",
                 "٣", str(2**53), str(2**53 + 1), str(2**63), "99999999999999999999")
_WEIGHT_TOKENS = ("1", "2.5", "+1", "01", ".5", "5.", "1E5", "1e-5", "1e", "1_0.5", "0x1",
                  "-0", "0", "-1", "1e-400", "1e400", "nan", "inf", "-inf", "١.5")
_INLINE = ("\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
_LINE_ENDS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ")
_PROBED = ("1 1\x0b2 1\n", "1 1\x0c2 1\n", "1 1 2 1 # c\n", "1 1 2 -0\n", "1 1 2 1e-400\n",
           "1.0 1 2\n", "1e0 1 2\n", "1_0 1 2\n", "1 1 2 1_0.5\n", "1 1 2 0x1\n", "1 1 2 1e\n",
           "1 1 2\r1 1 3\n", f"1 1 {2**63}\n", "1 1 2\n1 1 2 1\n", "", "\n \n")


@st.composite
def _numeric_text(draw):
    """Edge-list text of plain numbers; in half of the texts, a few odd tokens,
    separators, line ends and line kinds are mixed in: blank, comment and
    whitespace lines, leading and trailing whitespace, trailing comments,
    wrong field counts and mixed 3/4-field records."""
    mixed = draw(st.booleans())

    def palette(plain, odd):
        extra = st.lists(st.sampled_from(odd), max_size=2, unique=True) if mixed else st.just([])
        return st.sampled_from(plain + tuple(draw(extra)))
    index = palette(("1", "2", "3", "4"), _INDEX_TOKENS)
    weight = palette(("1", "0.5", "2.5"), _WEIGHT_TOKENS)
    sep = palette((" ",), _INLINE)
    end = palette(("\n",), _LINE_ENDS)
    pad = palette(("",), (" ", "\t"))
    tail = palette(("",), (" # c",))
    fields = draw(st.sampled_from((3, 4)))
    kind = palette(("record",) * 4, ("blank", "comment", "space", "3", "4", "2", "5"))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(kind)
        if k == "blank":
            lines.append("")
        elif k == "comment":
            lines.append(draw(st.sampled_from(["# note", "#1 1 2", " # x"])))
        elif k == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            count = fields if k == "record" else int(k)
            tokens = [draw(index) for _ in range(min(count, 3))] + \
                [draw(weight) for _ in range(count - 3)]
            line = tokens[0] + "".join(draw(sep) + t for t in tokens[1:])
            lines.append(draw(pad) + line + draw(tail) + draw(pad))
    return "".join(line + draw(end) for line in lines) + draw(st.sampled_from(("", " ", "1")))


def _with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text=text)(test)
        return test
    return decorate


def _parse_outcome(text):
    try:
        doc = parse_multiplex_edges(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return doc.records.dtype, doc.records.shape, doc.records.tobytes(), \
        doc.inferred_n, doc.inferred_L


class TestVectorizedParseMatchesLineLoop:
    @settings(max_examples=examples(500), deadline=None)
    @given(text=_numeric_text())
    @_with_examples(_PROBED)
    def test_same_records_or_same_error(self, text):
        got = _parse_outcome(text)
        with mock.patch.object(mio, "_parse_numeric", return_value=None):
            want = _parse_outcome(text)
        assert got == want

    def test_generated_text_takes_the_vectorized_path(self):
        text = write_multiplex_edges(random_sparse_multiplex(np.random.default_rng(3), 60, 4))
        want = mio._parse_lines(text)
        with mock.patch.object(mio, "_parse_lines", side_effect=AssertionError("line loop ran")):
            got = parse_multiplex_edges(text)
            crlf = parse_multiplex_edges(text.replace("\n", "\r\n"))
        assert got.records.tobytes() == want.tobytes() == crlf.records.tobytes()
        assert (got.inferred_n, got.inferred_L) == (crlf.inferred_n, crlf.inferred_L) == (60, 4)

    def test_index_above_2_pow_53_rejected_with_line_number(self):
        doc = parse_multiplex_edges(f"1 1 {2**53}\n")
        assert doc.inferred_n == 2**53
        for big in (2**53 + 1, 10**20, 10**400):
            with pytest.raises(ValidationError, match=r"^line 2: indices must be at most 2\*\*53$"):
                parse_multiplex_edges(f"1 1 2\n1 1 {big}\n")


class TestRoundTrip:
    def test_parse_write_parse_idempotent(self):
        rng = np.random.default_rng(173)
        net = random_sparse_multiplex(rng, 12, 3)
        text = write_multiplex_edges(net)
        net2 = to_network(parse_multiplex_edges(text), n=12, L=3)
        for A, B in zip(net.layers, net2.layers):
            assert (A != B).nnz == 0
        assert write_multiplex_edges(net2) == text


class TestWriteScores:
    def test_csv_rows_and_ranks(self):
        scores = np.full(4, 0.25)
        text = write_scores(scores, fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "index,label,score,rank"
        assert len(lines) == 5
        for i, line in enumerate(lines[1:], start=1):
            idx, label, score, rk = line.split(",")
            assert int(idx) == i and label == str(i)
            assert float(score) == 0.25
            assert int(rk) == i  # ties broken by ascending index

    def test_csv_round_trip_exact(self):
        rng = np.random.default_rng(179)
        scores = rng.uniform(0, 1, 7)
        rows = read_scores(write_scores(scores))
        assert [r["score"] for r in rows] == scores.tolist()

    def test_json_report_fields_verbatim(self):
        report = ConvergenceReport(
            iterations=3, converged=False,
            node_residuals=[0.5, 0.1, 0.01], layer_residuals=[0.3, 0.05, 0.005],
            node_converged_at=None, layer_converged_at=3,
            rho=0.9, a_priori_bound_k=None, C=None,
            node_eigenvalue=1.5, layer_eigenvalue=0.7)
        text = write_scores(np.array([0.6, 0.4]), fmt="json", report=report)
        doc = json.loads(text)
        assert doc["report"]["converged"] is False
        assert doc["report"]["a_priori_bound_k"] is None
        assert doc["report"]["iterations"] == 3
        assert doc["report"]["layer_converged_at"] == 3
        rows = read_scores(text, fmt="json")
        assert rows[0]["rank"] == 1

    def test_custom_labels(self):
        text = write_scores(np.array([0.7, 0.3]), labels=["LHR", "CDG"])
        assert "1,LHR," in text and "2,CDG," in text

    def test_report_to_dict_serializable(self):
        report = ConvergenceReport(iterations=1, converged=True)
        json.dumps(report_to_dict(report))

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            write_scores(np.array([1.0]), fmt="xml")
