"""EXPERIMENTS.md and README quote the committed benchmark outputs.

Every number in an EXPERIMENTS.md table row, and every decimal in the
prose of a section whose heading names a bench, must appear at the
quoted precision in ``benchmarks/out/`` as rendered by the bench the
row (or its section heading) names -- unless :data:`NOT_RENDERED` says
why it is quoted from elsewhere.  README's fidelity table must equal
the Table 4 bench's rows."""

import re
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = re.compile(r"`(test_\w+\.py)`")
DECIMAL = re.compile(r"(?<![\w.])\d+\.\d+")
#: a whole number that is not part of a decimal, a name (Sage-1000MB,
#: RAID-0 ×4) or a bound (<1 %)
INTEGER = re.compile(r"(?<![\w.<>≤≥×-])\d+(?!\w|\.\d)")
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?")
#: "section 6.2" names a section, it quotes no measurement
SECTION_REF = re.compile(r"[Ss]ection \d+\.\d+")

#: prose decimals quoted from the paper or fed to the model, by bench
NOT_RENDERED = {
    ("test_table3_iterations.py", "79.1"): "the paper's Table 4 Sweep3D max IB",
    ("test_table3_iterations.py", "105.5"): "the paper's Table 2 Sweep3D footprint",
    ("test_table3_iterations.py", "54.9"): "52 % of the paper's 105.5 MB",
    ("test_fig1_sage_timeline.py", "3.5"): "the paper's Fig 1b receive peak",
    ("test_fig2_ib_vs_timeslice.py", "78.8"): "the paper's Fig 2 Sage-1000MB at 1 s",
    ("test_fig2_ib_vs_timeslice.py", "12.1"): "the paper's Fig 2 Sage-1000MB at 20 s",
    ("test_sec65_intrusiveness.py", "0.2"): "model input: re-protect cost per page",
}


def document_lines():
    """``(bench, line)`` for every line of EXPERIMENTS.md below a
    heading: the bench a table row names, else the one its section
    heading names (None when neither does)."""
    section_bench = None
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        if line.startswith("#"):
            found = BENCH.search(line)
            section_bench = found.group(1) if found else None
            continue
        found = BENCH.search(line) if line.startswith("|") else None
        yield (found.group(1) if found else section_bench), line


def rendered_numbers(bench, pattern=DECIMAL):
    """The numbers (decimal ones by default) in every output file the
    bench writes."""
    source = (ROOT / "benchmarks" / bench).read_text()
    outputs = re.findall(r'"(\w+\.txt)"', source)
    assert outputs, f"{bench} writes no benchmarks/out file"
    return [Decimal(n) for name in outputs
            for n in pattern.findall(
                (ROOT / "benchmarks" / "out" / name).read_text())]


def row_integers(row):
    """Whole numbers a table row quotes: file names dropped, digit groups
    ("65 536") joined and "205 k" spelled out."""
    row = re.sub(r"`[^`]*`", "", row)
    row = re.sub(r"(\d{1,3})[ \u2009\u202f](\d{3})(?!\d)", r"\1\2", row)
    row = re.sub(r"(\d+) k\b", r"\g<1>000", row)
    return INTEGER.findall(row)


def quoted(doc, numbers):
    """Some rendered number, at least as precise, rounds to ``doc``."""
    exponent = Decimal(doc).as_tuple().exponent
    return any(n.as_tuple().exponent <= exponent
               and n.quantize(Decimal(doc)) == Decimal(doc)
               for n in numbers)


TABLE = [(bench, line) for bench, line in document_lines()
         if line.startswith("|")]
ROWS = [(bench, row) for bench, row in TABLE if DECIMAL.search(row)]
INTEGER_ROWS = [(bench, row) for bench, row in TABLE if row_integers(row)]
PROSE = [(bench, line) for bench, line in document_lines()
         if bench and not line.startswith("|")
         and DECIMAL.search(SECTION_REF.sub("", line))]


def test_the_document_has_table_rows():
    assert len(ROWS) > 20


@pytest.mark.parametrize("bench,row", ROWS,
                         ids=[f"{b}:{r[:40]}" for b, r in ROWS])
def test_every_table_number_is_in_the_bench_output(bench, row):
    assert bench is not None, f"row names no bench: {row}"
    numbers = rendered_numbers(bench)
    missing = [doc for doc in DECIMAL.findall(row)
               if not quoted(doc, numbers)]
    assert not missing, f"{missing} not in the output of {bench}: {row}"


@pytest.mark.parametrize("bench,row", INTEGER_ROWS,
                         ids=[f"{b}:{r[:40]}" for b, r in INTEGER_ROWS])
def test_every_table_integer_is_in_the_bench_output(bench, row):
    assert bench is not None, f"row names no bench: {row}"
    numbers = rendered_numbers(bench, NUMBER)
    missing = [doc for doc in row_integers(row) if not quoted(doc, numbers)]
    assert not missing, f"{missing} not in the output of {bench}: {row}"


@pytest.mark.parametrize("bench,line", PROSE,
                         ids=[f"{b}:{l[:40]}" for b, l in PROSE])
def test_every_prose_decimal_is_in_the_bench_output(bench, line):
    numbers = rendered_numbers(bench)
    missing = [doc for doc in DECIMAL.findall(SECTION_REF.sub("", line))
               if (bench, doc) not in NOT_RENDERED
               and not quoted(doc, numbers)]
    assert not missing, f"{missing} not in the output of {bench}: {line}"


def test_every_prose_exemption_is_still_quoted():
    quoted_prose = {(bench, doc) for bench, line in PROSE
                    for doc in DECIMAL.findall(line)}
    assert set(NOT_RENDERED) <= quoted_prose


def test_readme_fidelity_table_is_the_table4_output():
    """README's rows read app | avg sim | avg paper | max sim | max
    paper; the bench prints app, max sim, max paper, avg sim, avg
    paper."""
    fidelity = (ROOT / "README.md").read_text().split("## Fidelity", 1)[1]
    readme_rows = {}
    for line in fidelity.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("|") and DECIMAL.fullmatch(cells[-1]):
            app, avg, avg_paper, mx, mx_paper = cells
            readme_rows[app.lower()] = (mx, mx_paper, avg, avg_paper)
    rendered = {}
    table4 = (ROOT / "benchmarks" / "out" / "table4.txt").read_text()
    for line in table4.splitlines():
        cells = line.split()
        if len(cells) == 5 and all(DECIMAL.fullmatch(c) for c in cells[1:]):
            rendered[cells[0].lower()] = tuple(cells[1:])
    assert len(readme_rows) == 9
    assert readme_rows == rendered
