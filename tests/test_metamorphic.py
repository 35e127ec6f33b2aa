"""Metamorphic laws of a full report run: input row order, author key
spelling and a lower duplicate of an accepted row do not reach the report
numbers, a DOI shared with a co-author at no higher count does not reach
the overlap numbers of a scope that already holds it, and neither the CSV
inputs' line ends and quoting nor the export form of their DOIs reach an
output byte.

Each law runs on the 60-author fixture and on a small cohort of the
``cohort-sparse`` benchmark shape (many one-paper authors in many
disciplines, so ranks and bins are full of ties). Each drawn input is
compared with one untouched run of the same data.
"""

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import random
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scimetrics.errors import MalformedDoi
from scimetrics.ingest import normalize_doi

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("roster.csv", "records_scopus.csv", "records_wos.csv")


def _load(name: str, path: Path):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


cohorts = _load("cohorts", ROOT / "bench" / "cohorts.py")
run_full_analysis = _load("run_full_analysis", ROOT / "scripts" / "run_full_analysis.py")

# A fixed example count keeps the four laws, on both inputs, under 1.5 s.
LAWS = settings(max_examples=3, deadline=None)


def run(data: Path, out: Path) -> dict[str, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_full_analysis.run(data, out, []) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def write_table(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="module", params=["fixture", "cohort-sparse"])
def baseline(request, tmp_path_factory):
    """(input dir, output dir) of one untouched run."""
    data = tmp_path_factory.mktemp("data")
    if request.param == "fixture":
        for name in INPUTS:
            (data / name).write_bytes((ROOT / "tests" / "data" / "synthetic" / name).read_bytes())
    else:
        shape = dataclasses.replace(cohorts.WORKLOADS["cohort-sparse"], authors=300)
        cohorts.generate(shape, 7, data)
    out = tmp_path_factory.mktemp("out")
    run(data, out)
    return data, out


def rejects(content: bytes) -> Counter:
    """The (author key, reason) pairs of a reject report; row numbers follow input order."""
    _, *rows = csv.reader(io.StringIO(content.decode("utf-8")))
    return Counter((key, reason) for _, key, reason in rows)


@LAWS
@given(seed=st.integers(0, 2**32 - 1))
def test_shuffled_input_rows_change_only_reject_row_numbers(tmp_path_factory, baseline, seed):
    data, base_out = baseline
    expected = {path.name: path.read_bytes() for path in base_out.iterdir()}
    shuffled = tmp_path_factory.mktemp("shuffled")
    rng = random.Random(seed)
    for name in INPUTS:
        header, rows = read_table(data / name)
        rng.shuffle(rows)
        write_table(shuffled / name, header, rows)
    got = run(shuffled, tmp_path_factory.mktemp("out"))
    assert got.keys() == expected.keys()
    for name, content in got.items():
        if name.startswith("rejects_"):
            assert rejects(content) == rejects(expected[name]), name
        else:
            assert content == expected[name], name


def key_cells(path: Path, rename: dict[str, str]):
    """A report's cells, each author key cell spelled back through ``rename``."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=str)
        for row in payload["rows"]:
            if "author_key" in row:
                row["author_key"] = rename.get(row["author_key"], row["author_key"])
        return payload
    header, rows = read_table(path)
    if "author_key" in header:
        col = header.index("author_key")
        for row in rows:
            row[col] = rename.get(row[col], row[col])
    return header, rows


# Author keys: no surrounding whitespace (the roster strips it), some non-ASCII.
KEY_TEXT = st.text(alphabet="abcxyzAXZ0189_-.éß漢", min_size=1, max_size=10)


@LAWS
@given(data=st.data())
def test_order_preserving_key_renames_change_no_report_number(
    tmp_path_factory, baseline, data
):
    source, base_out = baseline
    header, roster = read_table(source / "roster.csv")
    old = sorted(row[0] for row in roster)
    new = sorted(data.draw(st.lists(KEY_TEXT, min_size=len(old), max_size=len(old), unique=True)))
    forward = dict(zip(old, new))
    renamed = tmp_path_factory.mktemp("renamed")
    for name in INPUTS:
        header, rows = read_table(source / name)
        for row in rows:
            row[0] = forward.get(row[0], row[0])
        write_table(renamed / name, header, rows)
    out = tmp_path_factory.mktemp("out")
    got = run(renamed, out)
    back = dict(zip(new, old))
    assert sorted(got) == sorted(p.name for p in base_out.iterdir())
    for name in got:
        assert key_cells(out / name, back) == key_cells(base_out / name, {}), name


# Export forms of a bare DOI; each one normalizes back to the bare DOI.
DOI_FORMS = (str, "https://doi.org/{}".format, "doi:{}".format, str.upper)


@LAWS
@given(data=st.data())
def test_a_lower_duplicate_of_an_accepted_row_adds_only_its_reject_row(
    tmp_path_factory, baseline, data
):
    source, base_out = baseline
    db = data.draw(st.sampled_from(("scopus", "wos")))
    name, reject_name = f"records_{db}.csv", f"rejects_{db}.csv"
    header, rows = read_table(source / name)
    # An export with no rejected row has no reject report.
    base_reject_path = base_out / reject_name
    base_rejects = read_table(base_reject_path)[1] if base_reject_path.exists() else []
    rejected = {int(row[0]) for row in base_rejects}
    key, doi, count = map(header.index, ("author_key", "doi", "citations"))
    accepted = [
        row for i, row in enumerate(rows, 1) if i not in rejected and int(row[count]) > 0
    ]
    copy = list(data.draw(st.sampled_from(accepted)))
    assert copy[doi].startswith("10.")  # both inputs export bare DOIs
    copy[doi] = data.draw(st.sampled_from(DOI_FORMS))(copy[doi])
    copy[count] = str(data.draw(st.integers(0, int(copy[count]) - 1)))
    duplicated = tmp_path_factory.mktemp("duplicated")
    for other in INPUTS:
        (duplicated / other).write_bytes((source / other).read_bytes())
    write_table(duplicated / name, header, [*rows, copy])
    out = tmp_path_factory.mktemp("out")
    got = run(duplicated, out)
    expected = {path.name: path.read_bytes() for path in base_out.iterdir()}
    assert got.keys() == expected.keys() | {reject_name}
    for other, content in got.items():
        if other != reject_name:
            assert content == expected[other], other
    added = [str(len(rows) + 1), copy[key], "duplicate doi"]
    assert read_table(out / reject_name)[1] == [*base_rejects, added]


OVERLAP_REPORTS = (
    "overlap.csv", "overlap.json", "overlap_proportions.csv", "overlap_proportions.json"
)


def global_rows(path: Path) -> list:
    """The global scope's rows of an overlap report."""
    if path.suffix == ".json":
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        return [row for row in rows if row["discipline"] == "all"]
    return [row for row in read_table(path)[1] if row[0] == "all"]


@pytest.mark.parametrize("same", [True, False], ids=["same_discipline", "other_discipline"])
@LAWS
@given(data=st.data())
def test_a_doi_copied_to_a_coauthor_leaves_the_overlap_of_its_scopes(
    tmp_path_factory, baseline, same, data
):
    # Co-authors share a DOI: each scope's doi map keeps its highest count, so
    # a copy with the same or a lower count adds no publication and no
    # citation to a scope that already holds the DOI.
    source, base_out = baseline
    db = data.draw(st.sampled_from(("scopus", "wos")))
    name, reject_name = f"records_{db}.csv", f"rejects_{db}.csv"
    header, rows = read_table(source / name)
    base_reject_path = base_out / reject_name
    base_rejects = read_table(base_reject_path)[1] if base_reject_path.exists() else []
    rejected = {int(row[0]) for row in base_rejects}
    key, doi, count = map(header.index, ("author_key", "doi", "citations"))
    accepted = [row for i, row in enumerate(rows, 1) if i not in rejected]
    held = {(row[key], row[doi].lower()) for row in accepted}
    roster_header, roster = read_table(source / "roster.csv")
    discipline = dict(map(itemgetter(0, roster_header.index("discipline")), roster))

    copy = list(data.draw(st.sampled_from(accepted)))
    others = [a for a in discipline if a != copy[key] and (a, copy[doi].lower()) not in held]
    coauthor = data.draw(
        st.sampled_from([a for a in others if (discipline[a] == discipline[copy[key]]) == same])
    )
    copy[key] = coauthor
    copy[count] = str(data.draw(st.integers(0, int(copy[count]))))
    shared = tmp_path_factory.mktemp("shared")
    for other in INPUTS:
        (shared / other).write_bytes((source / other).read_bytes())
    write_table(shared / name, header, [*rows, copy])
    out = tmp_path_factory.mktemp("out")
    got = run(shared, out)

    assert (read_table(out / reject_name)[1] if reject_name in got else []) == base_rejects
    for report in OVERLAP_REPORTS:
        if same:
            assert got[report] == (base_out / report).read_bytes(), report
        else:
            assert global_rows(out / report) == global_rows(base_out / report), report


# How each CSV input is rewritten: its rows cut into equal runs, each run
# written with its own line end and quoting (the header goes with the first).
DIALECTS = {
    "crlf": (("\r\n", csv.QUOTE_MINIMAL),),
    "quote_all": (("\n", csv.QUOTE_ALL),),
    "crlf_then_quoted": (("\r\n", csv.QUOTE_MINIMAL), ("\n", csv.QUOTE_ALL)),
}


def run_printing(data: Path, out: Path) -> tuple[dict[str, bytes], str]:
    """A full run's files and standard output, with ``out`` spelled OUT."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_full_analysis.run(data, out, []) == 0
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return files, printed.getvalue().replace(str(out), "OUT")


@pytest.mark.parametrize("block", [None, 97], ids=["default_blocks", "97_char_blocks"])
@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_line_ends_and_quoting_change_no_output_byte(
    tmp_path_factory, baseline, monkeypatch, dialect, block
):
    # Small blocks put the plain, CRLF and quoted readers of one file to work
    # in turn, and cut rows at every offset.
    source, _ = baseline
    want = run_printing(source, tmp_path_factory.mktemp("out"))
    if block is not None:
        monkeypatch.setattr("scimetrics.ingest.BLOCK", block)
    rewritten = tmp_path_factory.mktemp(dialect)
    for name in INPUTS:
        header, rows = read_table(source / name)
        runs = DIALECTS[dialect]
        size = -(-len(rows) // len(runs))
        with open(rewritten / name, "w", newline="", encoding="utf-8") as fh:
            for i, (newline, quoting) in enumerate(runs):
                writer = csv.writer(fh, lineterminator=newline, quoting=quoting)
                writer.writerows([header] * (i == 0) + rows[i * size : (i + 1) * size])
    assert run_printing(rewritten, tmp_path_factory.mktemp("out")) == want


def is_bare_doi(cell: str) -> bool:
    """Whether ``cell`` is a valid DOI in its own canonical form."""
    try:
        return normalize_doi(cell) == cell
    except MalformedDoi:
        return False


@pytest.mark.parametrize("block", [None, 97], ids=["default_blocks", "97_char_blocks"])
@pytest.mark.parametrize(
    "form", [1, 2, 3, None], ids=["url", "doi_prefix", "upper", "per_row_mix"]
)
def test_doi_export_forms_change_no_output_byte(
    tmp_path_factory, baseline, monkeypatch, form, block
):
    # An empty or malformed cell is left alone: "doi:" plus an empty cell
    # would turn a missing DOI into a malformed one.
    source, _ = baseline
    want = run_printing(source, tmp_path_factory.mktemp("out"))
    if block is not None:
        monkeypatch.setattr("scimetrics.ingest.BLOCK", block)
    rng = random.Random(form)
    rewritten = tmp_path_factory.mktemp("forms")
    (rewritten / "roster.csv").write_bytes((source / "roster.csv").read_bytes())
    for name in ("records_scopus.csv", "records_wos.csv"):
        header, rows = read_table(source / name)
        doi = header.index("doi")
        for row in rows:
            if is_bare_doi(row[doi]):
                spell = DOI_FORMS[form] if form is not None else rng.choice(DOI_FORMS)
                row[doi] = spell(row[doi])
        write_table(rewritten / name, header, rows)
    assert run_printing(rewritten, tmp_path_factory.mktemp("out")) == want
